#!/usr/bin/env python
"""Design-space exploration of the SpeedLLM accelerator on the U280.

The paper picks one accelerator configuration; this example shows how the
library supports the *co-design* part of the title: it sweeps the Matrix
Processing Engine geometry, the on-chip buffer pool and the HBM stripe
width, checks each candidate against the U280 resource budget, simulates
the stories15M decode workload, and reports the Pareto-style table a
hardware designer would use to pick the configuration.

Run:
    python examples/design_space_exploration.py
    python examples/design_space_exploration.py --tokens 48 --model stories42M
"""

from __future__ import annotations

import argparse

from repro import ExperimentConfig, ExperimentRunner
from repro.accel import DesignSpace, DesignSpaceExplorer
from repro.core.report import format_table


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--model", default="stories15M")
    parser.add_argument("--tokens", type=int, default=24,
                        help="generated tokens per candidate evaluation")
    parser.add_argument("--stride", type=int, default=16)
    parser.add_argument("--clock-mhz", type=float, default=225.0)
    args = parser.parse_args()

    runner = ExperimentRunner(ExperimentConfig(
        model=args.model, n_prompt=8, n_generated=args.tokens,
        position_stride=args.stride, clock_mhz=args.clock_mhz,
        energy_accounting="board"))
    explorer = DesignSpaceExplorer(runner)
    space = DesignSpace()
    platform = runner.platform
    print(f"Exploring {len(space)} candidate designs for {args.model} "
          f"on the {platform.name} at {platform.clock_mhz:.0f} MHz\n")

    results = explorer.explore(space)
    for result in results:
        if not result.fits:
            print(f"  {result.config.name}: does not fit the device, skipped")
    simulated = sorted((r for r in results if r.simulated),
                       key=lambda r: r.latency_seconds)
    print(format_table([r.as_row() for r in simulated], columns=[
        "design", "dsp_fraction", "latency_ms", "tokens_per_second",
        "tokens_per_joule"]))

    best = explorer.best(results, "latency")
    efficient = explorer.best(results, "efficiency")
    print(f"\nFastest design:            {best.config.name} "
          f"({best.tokens_per_second:.0f} tokens/s)")
    print(f"Most energy-efficient:     {efficient.config.name} "
          f"({efficient.tokens_per_joule:.1f} tokens/J)")


if __name__ == "__main__":
    main()
