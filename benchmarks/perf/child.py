"""One measuring child process: set-up, timed repetitions, checks.

Started by ``run.py``, never imported.  A fresh process per cold
repetition keeps ``peak_rss_mb`` per workload and stops any module-level
cache leaking warmth between repetitions.  The last line of standard
output is one JSON object; everything above it is the program's own
chatter.
"""

import os

# Pin BLAS to one thread before NumPy is imported: the box has two
# cores and an unpinned run shows user > real.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent


def _digest(payload) -> str:
    return hashlib.sha256(
        json.dumps(payload, sort_keys=True).encode()).hexdigest()


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--scale", required=True)
    parser.add_argument("--trace", type=int, required=True)
    parser.add_argument("--spawned", type=float, required=True,
                        help="time.monotonic() of the parent at spawn")
    args = parser.parse_args()

    sys.path.insert(0, str(HERE.parents[1] / "src"))
    from probe import SpeedProbe
    probe = SpeedProbe()
    probe.start()
    recorder = None
    if args.trace:
        import trace as spans
        recorder = spans.Recorder()
        spans.install(recorder)
    from workloads import PARAMS, WORKLOADS

    workload = WORKLOADS[args.workload]
    state = workload.setup(args.seed, PARAMS[args.scale][args.workload])
    setup_s = probe.reference_seconds(
        time.monotonic() - args.spawned, 0, probe.mark())

    reps, results = [], []
    for rep in range(workload.reps_per_child):
        if recorder is not None:
            recorder.start_rep(rep)
        first = probe.mark()
        start = time.perf_counter()
        outcome = workload.timed(state)
        raw_wall_s = time.perf_counter() - start
        wall_s = probe.reference_seconds(raw_wall_s, first, probe.mark())
        if recorder is not None:
            recorder.end_rep()
        results.append(workload.finish(state, outcome))
        reps.append({
            "wall_s": wall_s, "raw_wall_s": raw_wall_s,
            # Span durations are raw; the repetition's factor puts them
            # in the same reference seconds as wall_s.
            "layers": (spans.layer_metrics(recorder, rep, raw_wall_s,
                                           wall_s / raw_wall_s)
                       if recorder is not None else None),
        })
    probe.stop()

    # NumPy scalars leak into the reports; plain floats serialise and
    # hash the same way everywhere.
    sims = [{key: float(value) for key, value in result.sim.items()}
            for result in results]
    digests = [(_digest(sim), _digest(result.tokens))
               for sim, result in zip(sims, results)]
    problems = [p for result in results for p in result.problems]
    failed = sum(r.failed for r in results)
    for rep, pair in enumerate(digests[1:], start=1):
        if pair != digests[0]:
            failed += 1
            problems.append(f"repetition {rep} in one process produced "
                            "different simulated metrics or tokens")
    if recorder is not None:
        for rep, row in enumerate(reps):
            for name in workload.zero_in_timed:
                if row["layers"][name]:
                    failed += 1
                    problems.append(f"{name} = {row['layers'][name]} in "
                                    f"timed repetition {rep}, expected 0")
        out = HERE / "out"
        out.mkdir(exist_ok=True)
        spans.write_chrome_trace(
            recorder, out / f"{args.workload}.trace.json", args.workload)

    print(json.dumps({
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "reps": reps,
        "sim": sims[0],
        "sim_digest": digests[0][0],
        "token_digest": digests[0][1],
        "attempted": sum(r.attempted for r in results),
        "failed": failed,
        "problems": problems,
    }))


if __name__ == "__main__":
    main()
