"""Tests for EngineConfig (repro.api.config): one declaration, one factory."""

from __future__ import annotations

import pytest

from repro.api import EngineConfig, FrontendError
from repro.serve.engine import AsyncServingEngine


class TestValidation:
    @pytest.mark.parametrize("kwargs", [
        {"tensor_parallel": 0},
        {"interconnect_gbps": 0.0},
        {"interconnect_latency_us": -1.0},
        {"arrival_policy": "bursty"},
        {"arrival_policy": "poisson"},               # needs a rate
        {"arrival_policy": "poisson", "arrival_rate": 0.0},
        {"max_batch_tokens": 0},                     # via SchedulerConfig
        {"block_size": -1},
    ])
    def test_bad_values_rejected_at_construction(self, kwargs):
        with pytest.raises(ValueError):
            EngineConfig(model="test-small", **kwargs)

    def test_frontend_error_for_backend_knobs(self):
        with pytest.raises(FrontendError):
            EngineConfig(tensor_parallel=-2)

    def test_frontend_error_for_scheduler_knobs(self):
        """The scheduler slice is wrapped like every other slice."""
        with pytest.raises(FrontendError, match="max_batch_tokens"):
            EngineConfig(max_batch_tokens=0)
        with pytest.raises(FrontendError, match="chunked_prefill"):
            EngineConfig(prefill_chunk_tokens=4)

    def test_frontend_error_for_a_model_that_does_not_shard(self, llm):
        """Known only at build time: the injected llm decides the model."""
        config = EngineConfig(model="test-small", tensor_parallel=3)
        with pytest.raises(FrontendError, match="n_heads"):
            config.build_engine(llm=llm)


class TestSchedulerMapping:
    def test_scheduler_config_carries_every_knob(self):
        config = EngineConfig(
            max_batch_tokens=32, max_running=4, prefill_chunk=2,
            kv_budget_bytes=1 << 20, paged=True, block_size=8,
            watermark_fraction=0.1,
        )
        sched = config.scheduler_config()
        assert sched.max_batch_tokens == 32
        assert sched.max_running == 4
        assert sched.prefill_chunk == 2
        assert sched.kv_budget_bytes == 1 << 20
        assert sched.paged is True
        assert sched.block_tokens == 8
        assert sched.watermark_fraction == 0.1


class TestFactory:
    def test_build_engine_local_backend(self, llm):
        engine = EngineConfig(model="test-small").build_engine(llm=llm)
        assert engine.backend.n_shards == 1
        assert not engine.scheduler.config.paged
        assert engine.llm is llm

    def test_build_engine_paged_sharded(self, llm):
        engine = EngineConfig(
            model="test-small", paged=True, block_size=8,
            tensor_parallel=2, interconnect_gbps=16.0,
        ).build_engine(llm=llm)
        assert engine.backend.interconnect.bandwidth_gbps == 16.0
        assert engine.backend.n_shards == 2
        assert engine.scheduler.config.paged
        assert engine.scheduler.kv.block_tokens == 8

    def test_build_async_engine(self, llm):
        engine = EngineConfig(model="test-small").build_async_engine(llm=llm)
        assert isinstance(engine, AsyncServingEngine)
        assert engine.engine.llm is llm

    def test_built_engine_serves(self, llm):
        from repro.api import SamplingParams
        engine = EngineConfig(model="test-small",
                              max_batch_tokens=8).build_engine(llm=llm)
        handle = engine.submit("Once upon a time", SamplingParams(max_tokens=4))
        report = engine.run()
        assert report.n_requests == 1
        assert handle.finished


class TestArrivals:
    def test_immediate_policy_has_no_schedule(self):
        assert EngineConfig().arrival_times(5) is None

    def test_poisson_schedule_is_reproducible_and_sorted(self):
        config = EngineConfig(arrival_policy="poisson", arrival_rate=100.0,
                              seed=3)
        first = config.arrival_times(6)
        second = config.arrival_times(6)
        assert first == second
        assert len(first) == 6
        assert first == sorted(first)
        assert all(t >= 0 for t in first)


class TestSpeculativePlumbing:
    def test_spec_config_reaches_scheduler_and_engine(self, llm):
        from repro.api import SpecConfig
        from repro.spec import NgramDrafter
        config = EngineConfig(
            model="test-small",
            speculative=SpecConfig(method="ngram", num_draft_tokens=3),
        )
        assert config.scheduler_config().speculative.num_draft_tokens == 3
        engine = config.build_engine(llm=llm)
        assert isinstance(engine.drafter, NgramDrafter)
        assert engine.scheduler.drafter is engine.drafter

    def test_speculation_off_by_default(self, llm):
        engine = EngineConfig(model="test-small").build_engine(llm=llm)
        assert engine.drafter is None
        assert engine.scheduler.spec is None

    def test_invalid_spec_config_fails_at_construction(self):
        from repro.api import SpecConfig
        with pytest.raises(ValueError):
            EngineConfig(speculative=SpecConfig(method="nope"))
