"""The timeline export against the tracer that copied every interval.

A traced step's accelerator intervals live once, as cycle-clock spans in
the step compiler's cached result; the engine's ``step`` span refers to
them and ``build_chrome_trace`` places them on the simulated clock.
``cycle_merge_oracle.merged`` rebuilds the tracer as it was when it held
a rescaled copy of each — and the two must export ``==`` payloads:
every event in order, and ``otherData`` with its span count and bounds.
"""

from __future__ import annotations

import pytest

from repro.api import EngineConfig, SamplingParams
from repro.cluster import ClusterConfig
from repro.obs import tracer as spans
from repro.obs.timeline import build_chrome_trace, validate_chrome_trace
from repro.obs.tracer import CYCLES, SIM_S, Tracer

from .cycle_merge_oracle import merged

PROMPTS = ["Once upon a time", "The little dog was happy"]


def _serve(server, prompts=PROMPTS):
    for i, prompt in enumerate(prompts):
        server.submit(prompt, SamplingParams(max_tokens=4, seed=11 + i))
    return server.run()


def _assert_export_equals_oracle(tracer, report):
    assert all(span.clock == SIM_S for span in tracer.spans)
    steps = [span for span in tracer.spans if spans.CYCLE_SPANS in span.attrs]
    assert steps and all(span.name == spans.STEP for span in steps)
    copied = merged(tracer)
    n_cycle_spans = len(copied.spans) - len(tracer.spans)
    assert n_cycle_spans == sum(len(step.attrs[spans.CYCLE_SPANS]) for step in steps) > 0
    payload = build_chrome_trace(tracer, report=report)
    assert payload == build_chrome_trace(copied, report=report)
    assert payload["otherData"]["n_spans"] == len(copied.spans)
    assert validate_chrome_trace(payload) == []
    for step in steps:
        assert all(cycle_span.clock == CYCLES
                   for cycle_span in step.attrs[spans.CYCLE_SPANS])
    return steps


@pytest.mark.parametrize("variant", ["full", "no-reuse", "no-pipeline", "unoptimized"])
@pytest.mark.parametrize("kv", [{}, {"paged": True, "block_size": 8}],
                         ids=["reserved", "paged"])
@pytest.mark.parametrize("tp", [1, 2])
def test_engine_export_equals_the_copying_tracer(variant, kv, tp):
    """Pipelined and sequential, reuse on and off, TP 1 and 2, paged and
    reserved KV."""
    config = EngineConfig(model="test-small", variant=variant, trace_cycles=True,
                          max_batch_tokens=16, tensor_parallel=tp, **kv)
    tracer = Tracer()
    report = _serve(config.build_engine(tracer=tracer))
    _assert_export_equals_oracle(tracer, report)


def test_cluster_tracks_share_one_compilers_spans():
    """Two replicas on one compiler: a step shape both run is one cached
    result, whose spans both tracks' step spans refer to.  Round-robin
    hands each replica one of two equal prompts, so they run the same
    shapes."""
    config = ClusterConfig(
        engine=EngineConfig(model="test-small", trace_cycles=True, max_batch_tokens=16),
        n_replicas=2, route="rr")
    tracer = Tracer()
    report = _serve(config.build_cluster(tracer=tracer), PROMPTS[:1] * 2)
    steps = _assert_export_equals_oracle(tracer, report.pooled)
    tracks = {}
    for step in steps:
        tracks.setdefault(id(step.attrs[spans.CYCLE_SPANS]), set()).add(step.track)
    assert len(tracer.tracks()) == 2
    assert any(len(shared) == 2 for shared in tracks.values())
