"""Every ``examples/*.py`` walkthrough runs to completion.

The examples are documentation that executes; nothing else in the suite
(or CI) imports them, so a renamed library call would rot them silently.
Each is run as the README says to — a fresh interpreter, the source tree
on ``PYTHONPATH`` — on the small test model.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parents[2]
EXAMPLES = sorted((REPO / "examples").glob("*.py"))


def test_all_five_examples_are_covered():
    assert [path.name for path in EXAMPLES] == [
        "design_space_exploration.py", "edge_assistant.py", "quickstart.py",
        "reproduce_paper_figures.py", "streaming_api.py"]


#: Lines an example must print.  The design-space figures are those of
#: a by-hand sweep of the same 18 points (commit 60c96f5's example),
#: independent of ``DesignSpaceExplorer``.
EXPECTED_LINES = {
    "design_space_exploration": [
        "Exploring 18 candidate designs for test-small",
        "Fastest design:            mpe128x32-seg8-st32-w8 (119681 tokens/s)",
        "Most energy-efficient:     mpe128x32-seg8-st32-w8 (1406.1 tokens/J)",
    ],
}


@pytest.mark.parametrize("script", EXAMPLES, ids=lambda path: path.stem)
def test_example_exits_zero(script):
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [str(REPO / "src"), os.environ.get("PYTHONPATH")]))}
    done = subprocess.run(
        [sys.executable, str(script), "--model", "test-small", "--tokens", "8"],
        env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip()
    for line in EXPECTED_LINES.get(script.stem, []):
        assert line in done.stdout
