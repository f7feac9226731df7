#!/usr/bin/env python3
"""Two-clock benchmark of the SpeedLLM reproduction.

Two ways in, one measuring core:

``run.py --workload NAME --seed N --seconds S --trace 0|1``
    One workload, the form ``BENCHMARK.json`` names.  Repeats the timed
    region in fresh child processes until ``S`` seconds have been
    measured (in at least three processes) and prints, as the last line,
    one JSON object with ``correct``, ``attempted``, ``failed`` and
    ``metrics`` — the end-to-end metrics untraced, the per-layer metrics
    traced.

``run.py [--seed 0] [--repeats 5] [--workloads ...] [--json PATH]``
    Every workload: ``--repeats`` untraced child processes (one set-up
    and one timed repetition each; three on the warm workload) for the
    end-to-end metrics, then one traced child for the per-layer metrics
    and the tracing overhead.  Prints every metric by name with
    its unit and writes the same as JSON.  ``--agree`` does this twice
    and compares the two sets against the bounds; ``--quick`` runs
    scaled-down suites once (numbers not comparable).

Correctness checks always run; the exit code is non-zero if any fails.
See README.md for the two clocks, the workloads and the protocol.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Sequence

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
sys.path.insert(0, str(HERE))

from catalog import END_TO_END, PER_LAYER, WORKLOADS  # noqa: E402

MIN_CHILDREN = 3


class HarnessError(RuntimeError):
    """The harness itself could not measure (as opposed to a failed check)."""


# ----------------------------------------------------------------------
# Measuring
# ----------------------------------------------------------------------
def run_child(workload: str, seed: int, scale: str, trace: bool) -> dict:
    command = [
        sys.executable, str(HERE / "child.py"), "--workload", workload,
        "--seed", str(seed), "--scale", scale, "--trace", str(int(trace)),
        "--spawned", repr(time.monotonic()),
    ]
    done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True)
    if done.returncode != 0:
        raise HarnessError(
            f"child for {workload} exited {done.returncode}:\n"
            + done.stderr[-4000:])
    return json.loads(done.stdout.strip().splitlines()[-1])


def measure(workload: str, seed: int, scale: str, trace: bool,
            seconds: float, min_children: int) -> dict:
    """Run ``min_children`` fresh processes, and more until ``seconds`` of
    timed region have been measured; pool their samples and checks."""
    children: List[dict] = []
    walls: List[float] = []  # raw seconds: what the measuring itself took
    while len(children) < min_children or sum(walls) < seconds:
        child = run_child(workload, seed, scale, trace)
        children.append(child)
        walls.extend(rep["raw_wall_s"] for rep in child["reps"])
    first = children[0]
    problems = [p for child in children for p in child["problems"]]
    failed = sum(child["failed"] for child in children)
    for child in children[1:]:
        for digest in ("token_digest", "sim_digest"):
            if child[digest] != first[digest]:
                failed += 1
                problems.append(f"{digest} differs between repetitions")
    layers = None
    if trace:
        reps = [rep["layers"] for child in children for rep in child["reps"]]
        layers = {key: statistics.median(rep[key] for rep in reps)
                  for key in reps[0]}
    return {
        "samples": {
            "wall_s": [rep["wall_s"] for child in children
                       for rep in child["reps"]],
            "setup_s": [child["setup_s"] for child in children],
            "peak_rss_mb": [child["peak_rss_mb"] for child in children],
        },
        "raw_wall_s": walls,
        "sim": first["sim"],
        "layers": layers,
        "token_digest": first["token_digest"],
        "sim_digest": first["sim_digest"],
        "attempted": sum(child["attempted"] for child in children),
        "failed": failed,
        "problems": problems,
    }


def end_to_end_metrics(measured: dict) -> Dict[str, dict]:
    out = {}
    for metric in END_TO_END:
        if metric.clock == "host":
            samples = measured["samples"][metric.name]
            out[metric.name] = {"value": statistics.median(samples),
                                "unit": metric.unit, "samples": samples}
        else:
            out[metric.name] = {"value": measured["sim"][metric.name],
                                "unit": metric.unit}
    return out


def per_layer_metrics(measured: dict) -> Dict[str, dict]:
    """Host times from the spans, exact statistics from the reports; a
    metric a workload does not define reads 0."""
    layers = measured["layers"]
    return {
        metric.name: {
            "value": layers.get(metric.name,
                                measured["sim"].get(metric.name, 0.0)),
            "unit": metric.unit,
        }
        for metric in PER_LAYER
    }


def _quartiles(samples: Sequence[float]):
    if len(samples) < 2:
        return samples[0], samples[0]
    q1, _, q3 = statistics.quantiles(samples, n=4)
    return q1, q3


def print_metrics(metrics: Dict[str, dict]) -> None:
    for name, metric in metrics.items():
        line = f"  {name:<36} {metric['value']:>16.6g} {metric['unit']}"
        samples = metric.get("samples")
        if samples:
            q1, q3 = _quartiles(samples)
            line += f"   q1={q1:.4g} q3={q3:.4g} n={len(samples)}"
        print(line)


# ----------------------------------------------------------------------
# One workload, the BENCHMARK.json form
# ----------------------------------------------------------------------
def run_single(args) -> int:
    measured = measure(args.workload, args.seed, args.scale,
                       bool(args.trace), args.seconds, MIN_CHILDREN)
    metrics = (per_layer_metrics(measured) if args.trace
               else end_to_end_metrics(measured))
    print(f"workload={args.workload} seed={args.seed} scale={args.scale} "
          f"reps={len(measured['samples']['wall_s'])}")
    print(f"token_digest={measured['token_digest']}")
    print(f"sim_digest={measured['sim_digest']}")
    print_metrics(metrics)
    for problem in measured["problems"]:
        print(f"  PROBLEM: {problem}")
    print(json.dumps({
        "correct": measured["failed"] == 0,
        "attempted": measured["attempted"],
        "failed": measured["failed"],
        "metrics": {name: {"value": m["value"], "unit": m["unit"]}
                    for name, m in metrics.items()},
    }))
    return 0


# ----------------------------------------------------------------------
# Every workload: the report a person reads and two commits compare
# ----------------------------------------------------------------------
def run_set(args) -> dict:
    report = {
        "seed": args.seed, "repeats": args.repeats, "scale": args.scale,
        "machine": {"platform": platform.platform(),
                    "python": platform.python_version(),
                    "cpus": os.cpu_count()},
        "workloads": {},
    }
    for name in args.workloads:
        untraced = measure(name, args.seed, args.scale, False, 0.0,
                           args.repeats)
        traced = measure(name, args.seed, args.scale, True, 0.0, 1)
        problems = untraced["problems"] + traced["problems"]
        for digest in ("token_digest", "sim_digest"):
            if traced[digest] != untraced[digest]:
                problems.append(
                    f"{digest} differs between traced and untraced runs")
        end_to_end = end_to_end_metrics(untraced)
        overhead = (statistics.median(traced["samples"]["wall_s"])
                    / end_to_end["wall_s"]["value"] - 1.0)
        attempted = untraced["attempted"] + traced["attempted"]
        row = {
            "why": WORKLOADS[name],
            "correct": not problems,
            "problems": problems,
            "attempted": attempted,
            "failed_share": ((untraced["failed"] + traced["failed"])
                             / attempted),
            "token_digest": untraced["token_digest"],
            "sim_digest": untraced["sim_digest"],
            "end_to_end": end_to_end,
            "per_layer": per_layer_metrics(traced),
            "trace_overhead_share": overhead,
            "raw_wall_s": untraced["raw_wall_s"],
            "sim": untraced["sim"],
        }
        report["workloads"][name] = row
        wall = end_to_end["wall_s"]["value"]
        print(f"\n== {name}: {'ok' if row['correct'] else 'FAILED'} "
              f"(failed_share {row['failed_share']:.4g})")
        print(f"  token_digest {row['token_digest'][:16]}  "
              f"sim_digest {row['sim_digest'][:16]}")
        print_metrics(end_to_end)
        # Derived, for convenience: wall_s restated, not named metrics.
        print(f"  (steps per host second "
              f"{untraced['sim'].get('serve.steps', 0) / wall:.4g}, "
              f"simulated packets per host second "
              f"{untraced['sim']['sim.packets'] / wall:.4g})")
        print(f"  -- per layer (one traced repetition; "
              f"trace_overhead_share {overhead:+.4f})")
        print_metrics(row["per_layer"])
        for problem in problems:
            print(f"  PROBLEM: {problem}")
    return report


def compare(first: dict, second: dict) -> List[str]:
    """Disagreements between two sets of runs of the same code."""
    bounds = {m.name: m for m in END_TO_END}
    failures: List[str] = []
    print(f"\n{'workload':<22}{'metric':<22}{'first':>12}{'second':>12}"
          f"{'rel diff':>10}{'bound':>8}")
    for name, a in first["workloads"].items():
        b = second["workloads"][name]
        for digest in ("token_digest", "sim_digest"):
            if a[digest] != b[digest]:
                failures.append(f"{name}: {digest} differs")
        for metric, spec in bounds.items():
            x = a["end_to_end"][metric]["value"]
            y = b["end_to_end"][metric]["value"]
            diff = (y - x) / x
            # Simulated metrics repeat exactly for a fixed seed.
            allowed = spec.bound if spec.clock == "host" else 1e-9
            verdict = "" if abs(diff) <= allowed else "  DISAGREE"
            print(f"{name:<22}{metric:<22}{x:>12.5g}{y:>12.5g}"
                  f"{diff:>+10.4f}{allowed:>8.2g}{verdict}")
            if verdict:
                failures.append(f"{name}: {metric} differs by {diff:+.4f}")
    return failures


def run_full(args) -> int:
    report = run_set(args)
    failures = [f"{name}: {problem}"
                for name, row in report["workloads"].items()
                for problem in row["problems"]]
    if args.agree:
        second = run_set(args)
        failures += [f"second set, {name}: {problem}"
                     for name, row in second["workloads"].items()
                     for problem in row["problems"]]
        failures += compare(report, second)
        report["agree"] = {"second": second["workloads"],
                           "failures": failures}
    path = Path(args.json)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(report, indent=1))
    print(f"\nwrote {path}")
    for failure in failures:
        print(f"FAILED: {failure}")
    return 1 if failures else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--quick", dest="scale", action="store_const",
                        const="quick", default="full",
                        help="scaled-down suites; numbers not comparable")
    single = parser.add_argument_group("one workload (BENCHMARK.json form)")
    single.add_argument("--workload", choices=sorted(WORKLOADS))
    single.add_argument("--seconds", type=float, default=10.0)
    single.add_argument("--trace", type=int, choices=(0, 1), default=0)
    full = parser.add_argument_group("every workload")
    full.add_argument("--workloads", nargs="+", choices=sorted(WORKLOADS),
                      default=list(WORKLOADS))
    full.add_argument("--repeats", type=int, default=5)
    full.add_argument("--agree", action="store_true",
                      help="run the set twice and compare against the bounds")
    full.add_argument("--json", default=str(HERE / "out" / "report.json"))
    args = parser.parse_args(argv)
    if args.scale == "quick":
        args.repeats = 1
    if not (ROOT / "src" / "repro").is_dir():
        print(f"no program to measure: {ROOT / 'src' / 'repro'} is missing",
              file=sys.stderr)
        return 2
    try:
        return run_single(args) if args.workload else run_full(args)
    except HarnessError as error:
        print(error, file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
