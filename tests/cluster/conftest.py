"""Shared fixtures of the cluster-serving tests."""

from __future__ import annotations

import pytest

from repro.core.speedllm import SpeedLLM


@pytest.fixture(scope="package")
def llm(small_checkpoint, tiny_tokenizer):
    return SpeedLLM(model="test-small", checkpoint=small_checkpoint,
                    tokenizer=tiny_tokenizer)


@pytest.fixture(scope="package")
def single_engine_streams(llm):
    """Reference token streams: the same suite on one plain engine.

    Every cluster mode must reproduce these byte-for-byte — routing,
    handoff and autoscaling decide *where* a request runs, never what it
    generates.
    """

    def _serve(engine_config, workloads, params, arrivals=None):
        engine = engine_config.build_engine(llm=llm)
        engine.serve(workloads, params, arrivals=arrivals)
        return engine.streams()

    return _serve
