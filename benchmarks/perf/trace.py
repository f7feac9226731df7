"""Host-clock spans around the public layer boundaries of ``repro``.

Only the traced child process calls :func:`install`.  It replaces, at
class (or module) level, exactly the public functions listed in
:func:`install` with wrappers that record one span each — name, start,
end, parent — on the host clock.  A stack is enough for parentage: the
program under test is single-threaded.  Spans stay in memory and are
written once, when the child ends, as a Chrome trace-event file.

Per-layer ``*_s`` numbers are sums of span durations, ``*_self_s``
numbers subtract the spans directly below, and counts come from the
wrapped calls' arguments and return values read at the same boundary.
Nothing under ``src/`` is edited; spans inside the program are a later
issue.
"""

from __future__ import annotations

import functools
import json
import time
from typing import Callable, Dict, List, Optional

__all__ = ["Recorder", "install", "layer_metrics", "write_chrome_trace"]

SETUP = -1  # repetition index of spans recorded before the timed region
CHECK = -2  # ... and of spans recorded by the untimed checks after it


class Recorder:
    """In-memory span list plus the counters read at span boundaries."""

    def __init__(self) -> None:
        self.spans: List[dict] = []
        self._stack: List[int] = []
        self.rep = SETUP
        #: Per-repetition accumulators (slots, packets, busy cycles ...).
        self.counts: Dict[int, Dict[str, float]] = {}
        #: Every StepCompiler built so far; their public ``stats()`` carry
        #: the per-phase lowering seconds.
        self.compilers: List = []
        self._phase_start: Dict[str, float] = {}

    def begin(self, name: str) -> int:
        index = len(self.spans)
        self.spans.append({
            "name": name, "rep": self.rep,
            "parent": self._stack[-1] if self._stack else -1,
            "start": time.perf_counter(), "end": None,
        })
        self._stack.append(index)
        return index

    def end(self, index: int) -> None:
        self.spans[index]["end"] = time.perf_counter()
        self._stack.pop()

    def add(self, key: str, amount: float) -> None:
        bucket = self.counts.setdefault(self.rep, {})
        bucket[key] = bucket.get(key, 0) + amount

    def _phase_seconds(self) -> Dict[str, float]:
        seconds: Dict[str, float] = {}
        for compiler in self.compilers:
            for phase, value in compiler.stats()["phase_seconds"].items():
                seconds[phase] = seconds.get(phase, 0.0) + value
        return seconds

    def start_rep(self, rep: int) -> None:
        """Call immediately before a timed repetition."""
        self._phase_start = self._phase_seconds()
        self.rep = rep

    def end_rep(self) -> None:
        """Call immediately after a timed repetition."""
        for phase, value in self._phase_seconds().items():
            self.add("phase." + phase,
                     value - self._phase_start.get(phase, 0.0))
        self.rep = CHECK


def _wrap(rec: Recorder, owner, attr: str, name: str,
          observe: Optional[Callable] = None) -> None:
    original = getattr(owner, attr)

    @functools.wraps(original)
    def wrapper(*args, **kwargs):
        index = rec.begin(name)
        try:
            result = original(*args, **kwargs)
        finally:
            rec.end(index)
        if observe is not None:
            observe(rec, args, result)
        return result

    setattr(owner, attr, wrapper)


def _wrap_compile_step(rec: Recorder, compiler_cls) -> None:
    """A call is a miss if the cache's public miss counter rose across it."""
    original = compiler_cls.compile_step

    @functools.wraps(original)
    def wrapper(self, *args, **kwargs):
        misses = self.cache.stats()["misses"]
        index = rec.begin("compile.compile_step")
        try:
            return original(self, *args, **kwargs)
        finally:
            rec.end(index)
            rec.spans[index]["miss"] = self.cache.stats()["misses"] > misses

    compiler_cls.compile_step = wrapper


ENGINES = ("mpe", "load", "sfu", "store")


def _busy(rec: Recorder, prefix: str, engine_busy: dict, cycles: float) -> None:
    rec.add(prefix + "cycles", cycles)
    for engine in ENGINES:
        rec.add(prefix + engine, engine_busy.get(engine, 0))


def _after_compiler_init(rec: Recorder, args, _result) -> None:
    rec.compilers.append(args[0])


def _after_execute_step(rec: Recorder, args, step) -> None:
    backend = args[0]
    _busy(rec, "step.", step.engine_busy,
          step.compute_seconds * backend.platform.clock_hz)


def _after_execute_slots(rec: Recorder, args, outputs) -> None:
    rec.add("slots", len(outputs))


def _after_pipeline_run(rec: Recorder, args, result) -> None:
    rec.add("packets", result.counters.instructions)
    _busy(rec, "run.", result.engine_busy, result.cycles)


def install(rec: Recorder) -> None:
    """Wrap the layer boundaries.  Call once, before any stack is built."""
    import repro.accel.accelerator as accelerator
    import repro.obs as obs
    from repro.accel.pipeline import PipelineExecutor
    from repro.api import EngineConfig
    from repro.backend import LocalBackend
    from repro.cluster import ClusterConfig, ClusterEngine
    from repro.cluster.routing import Router
    from repro.compile.pipeline import StepCompiler
    from repro.core import ExperimentRunner
    from repro.serve import Scheduler, ServingEngine

    accel_cls = accelerator.SpeedLLMAccelerator
    for owner, attr, name, observe in (
        (EngineConfig, "build_llm", "api.build", None),
        (EngineConfig, "build_engine", "api.build", None),
        (ClusterConfig, "build_cluster", "api.build", None),
        (ExperimentRunner, "__init__", "api.build", None),
        (ServingEngine, "submit", "api.submit", None),
        (ClusterEngine, "submit", "api.submit", None),
        (ServingEngine, "step", "serve.step", None),
        (ServingEngine, "report", "serve.report", None),
        (Scheduler, "admit", "serve.admit", None),
        (Scheduler, "build_step", "serve.build_step", None),
        (LocalBackend, "execute_step", "backend.execute_step",
         _after_execute_step),
        (accel_cls, "__init__", "accel.init", None),
        (accel_cls, "execute_slots", "accel.execute_slots",
         _after_execute_slots),
        (accel_cls, "simulate_generation", "accel.simulate_generation", None),
        (PipelineExecutor, "run", "accel.pipeline_run", _after_pipeline_run),
        (ClusterEngine, "run", "cluster.run", None),
        (Router, "route", "cluster.route", None),
        # Module-level functions: the workloads call the obs exporters
        # through the package attribute, and the accelerator looks its
        # quantiser up in its own module globals, so rebinding the names
        # there is what puts a span around them.
        (obs, "build_chrome_trace", "obs.export", None),
        (obs, "validate_chrome_trace", "obs.validate", None),
        (accelerator, "quantize", "quant.convert", None),
        (accelerator, "dequantize", "quant.convert", None),
        (StepCompiler, "__init__", "compile.init", _after_compiler_init),
    ):
        _wrap(rec, owner, attr, name, observe)
    _wrap_compile_step(rec, StepCompiler)


# ----------------------------------------------------------------------
# Span arithmetic
# ----------------------------------------------------------------------
def _duration(span: dict) -> float:
    return span["end"] - span["start"]


def _has_ancestor_named(spans: List[dict], span: dict, name: str) -> bool:
    parent = span["parent"]
    while parent >= 0:
        if spans[parent]["name"] == name:
            return True
        parent = spans[parent]["parent"]
    return False


def layer_metrics(rec: Recorder, rep: int, wall_s: float,
                  scale: float) -> Dict[str, float]:
    """Host-time per-layer metrics of one timed repetition.

    ``wall_s`` is the repetition's raw duration; ``scale`` converts raw
    span seconds to the reference seconds ``wall_s`` is reported in (see
    ``probe.py``).

    ``api.build_s``, ``accel.init_s``, ``quant.convert_s`` and
    ``accel.setup_pipeline_run_s`` also count the spans recorded during
    set-up, because that is where those layers run on the serving
    workloads; everything else is the timed repetition alone.
    """
    spans = rec.spans
    children: Dict[int, float] = {}
    named: Dict[str, List[tuple]] = {}
    for index, span in enumerate(spans):
        named.setdefault(span["name"], []).append((index, span))
        if span["parent"] >= 0:
            children[span["parent"]] = (
                children.get(span["parent"], 0.0) + _duration(span))

    def select(name: str, reps=(rep,)):
        return [(i, s) for i, s in named.get(name, ()) if s["rep"] in reps]

    def total(name: str, reps=(rep,)) -> float:
        # A span nested in one of the same name (build_cluster calls
        # build_llm) is already inside its ancestor's duration.
        return scale * sum(_duration(s) for _, s in select(name, reps)
                           if not _has_ancestor_named(spans, s, name))

    def self_time(name: str) -> float:
        return scale * sum(_duration(s) - children.get(i, 0.0)
                           for i, s in select(name))

    def calls(name: str) -> int:
        return len(select(name))

    counts = rec.counts.get(rep, {})
    both = (SETUP, rep)
    compiles = select("compile.compile_step")
    hits = [scale * _duration(s) for _, s in compiles if not s["miss"]]
    misses = [scale * _duration(s) for _, s in compiles if s["miss"]]
    slots = counts.get("slots", 0)
    packets = counts.get("packets", 0)
    run_s = total("accel.pipeline_run")
    slots_s = total("accel.execute_slots")
    # Engine-busy shares over the steps the backend executed; the paper
    # workload executes no backend step, so it falls back to the
    # programs the cycle simulator ran.
    prefix = "step." if counts.get("step.cycles") else "run."
    cycles = counts.get(prefix + "cycles", 0)

    def share(engine: str) -> float:
        return counts.get(prefix + engine, 0) / cycles if cycles else 0.0

    covered = sum(_duration(s) for s in spans
                  if s["rep"] == rep and s["parent"] < 0)
    return {
        "api.build_s": total("api.build", both),
        "api.submit_s": total("api.submit"),
        "api.submit_calls": calls("api.submit"),
        "serve.step_self_s": self_time("serve.step"),
        "serve.admit_s": total("serve.admit"),
        "serve.build_step_s": total("serve.build_step"),
        "serve.report_s": total("serve.report"),
        "backend.execute_step_s": total("backend.execute_step"),
        "backend.execute_step_calls": calls("backend.execute_step"),
        "backend.self_s": self_time("backend.execute_step"),
        "accel.execute_slots_s": slots_s,
        "accel.execute_slots_calls": calls("accel.execute_slots"),
        "accel.functional_us_per_slot": slots_s / slots * 1e6 if slots else 0.0,
        "accel.pipeline_run_s": run_s,
        "accel.pipeline_run_calls": calls("accel.pipeline_run"),
        "accel.host_us_per_packet": run_s / packets * 1e6 if packets else 0.0,
        "accel.setup_pipeline_run_s": total("accel.pipeline_run", (SETUP,)),
        "accel.simulate_generation_s": total("accel.simulate_generation"),
        "accel.init_s": total("accel.init", both),
        "accel.mpe_utilization": share("mpe"),
        "accel.load_busy_share": share("load"),
        "accel.sfu_busy_share": share("sfu"),
        "accel.store_busy_share": share("store"),
        "compile.compile_step_s": sum(hits) + sum(misses),
        "compile.compile_step_calls": len(compiles),
        "compile.cache_hits": len(hits),
        "compile.cache_misses": len(misses),
        "compile.cache_hit_rate": len(hits) / len(compiles) if compiles else 0.0,
        "compile.hit_us_mean": sum(hits) / len(hits) * 1e6 if hits else 0.0,
        "compile.miss_ms_mean": sum(misses) / len(misses) * 1e3 if misses else 0.0,
        "compile.phase_build_s": scale * counts.get("phase.build", 0.0),
        "compile.phase_fuse_s": scale * counts.get("phase.fuse", 0.0),
        "compile.phase_tile_s": scale * counts.get("phase.tile", 0.0),
        "compile.phase_schedule_s": scale * counts.get("phase.schedule", 0.0),
        "cluster.run_self_s": self_time("cluster.run"),
        "cluster.route_s": total("cluster.route"),
        "cluster.route_calls": calls("cluster.route"),
        "obs.export_s": total("obs.export"),
        "obs.validate_s": total("obs.validate"),
        "quant.convert_s": total("quant.convert", both),
        "trace.coverage_share": covered / wall_s if wall_s > 0 else 0.0,
    }


def write_chrome_trace(rec: Recorder, path, workload: str) -> None:
    """Write every span as a Chrome trace-event ("X") on the host clock."""
    origin = rec.spans[0]["start"] if rec.spans else 0.0
    events = [{
        "name": span["name"],
        "cat": span["name"].split(".", 1)[0],
        "ph": "X",
        "ts": (span["start"] - origin) * 1e6,
        "dur": _duration(span) * 1e6,
        "pid": 1,
        "tid": 1,
        "args": {"workload": workload, "parent": span["parent"],
                 "phase": "setup" if span["rep"] == SETUP else "timed",
                 "rep": span["rep"]},
    } for span in rec.spans]
    with open(path, "w") as handle:
        json.dump({"traceEvents": events, "displayTimeUnit": "ms",
                   "otherData": {"workload": workload, "clock": "host"}},
                  handle)
