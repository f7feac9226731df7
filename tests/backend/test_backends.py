"""Tests for the execution-backend seam (repro.backend).

The load-bearing invariant of the whole PR: execution placement changes
*timing* and *capacity*, never token values.  A sharded backend at any
tensor-parallel degree must generate exactly the tokens the local
single-device backend generates, while reporting less per-step compute,
a nonzero interconnect share, and a larger aggregate KV budget.
"""

from __future__ import annotations

import pytest

from repro.api import SamplingParams
from repro.accel.batching import BatchSlot
from repro.backend import ExecutionBackend
from repro.core.speedllm import SpeedLLM
from repro.llama.kv_cache import KVCache
from repro.serve import SchedulerConfig, ServingEngine
from repro.sim.interconnect import InterconnectModel

PROMPTS = [
    "Once upon a time",
    "Lily and Tom went to the park",
    "The little dog was happy",
    "One day a bird found a shiny stone",
    "Sam liked to play with his red ball",
    "The sun was warm and bright",
]


@pytest.fixture(scope="module")
def llm(small_checkpoint, tiny_tokenizer):
    return SpeedLLM(model="test-small", checkpoint=small_checkpoint,
                    tokenizer=tiny_tokenizer)


def _serve(llm, backend=None, scheduler_config=None, prompts=PROMPTS,
           max_new_tokens=8):
    engine = ServingEngine(llm, scheduler_config, backend=backend)
    for prompt in prompts:
        engine.submit(prompt, SamplingParams(max_tokens=max_new_tokens))
    return engine.run()


class TestLocalBackend:
    def test_default_engine_uses_local_backend(self, llm):
        engine = ServingEngine(llm)
        assert engine.backend.compiler is llm.accelerator.timing
        assert engine.backend.n_shards == 1
        assert engine.backend.kv_shards == 1

    def test_report_has_no_interconnect_share(self, llm):
        report = _serve(llm)
        assert report.n_shards == 1
        assert report.interconnect_seconds == 0.0
        assert report.interconnect_fraction == 0.0
        # The whole makespan is compute on the one device.
        assert report.compute_seconds == pytest.approx(report.makespan_seconds)
        assert len(report.shard_utilization) == 1

    def test_degree_one_step_is_the_device_step(self, llm):
        # Degree 1 is the ordinary case of the sharded arithmetic: no
        # collective time, counters x 1, one shard.
        backend = ExecutionBackend(llm.accelerator)
        step = backend.execute_step(
            [BatchSlot(token=5, pos=0, cache=KVCache(llm.model_config))])
        device = llm.accelerator.timing.simulate_step([0])
        assert step.seconds == step.compute_seconds == \
            llm.accelerator.platform.cycles_to_seconds(device.cycles)
        assert step.interconnect_seconds == 0.0
        assert step.counters == device.counters
        assert step.engine_busy == device.engine_busy
        assert step.shard_utilization == [device.mpe_utilization]

    def test_explicit_local_backend_is_behavior_identical(self, llm):
        default = _serve(llm)
        explicit = _serve(llm, backend=ExecutionBackend(llm.accelerator))
        assert [r.generated_tokens for r in explicit.requests] == \
            [r.generated_tokens for r in default.requests]
        assert explicit.makespan_seconds == default.makespan_seconds
        assert explicit.energy.total_j == pytest.approx(default.energy.total_j)


class TestShardedTokenIdentity:
    @pytest.mark.parametrize("tp", [2, 4])
    def test_tokens_identical_to_local(self, llm, tp):
        local = _serve(llm)
        sharded = _serve(llm, backend=ExecutionBackend(llm.accelerator, tp))
        assert [r.generated_tokens for r in sharded.requests] == \
            [r.generated_tokens for r in local.requests]

    @pytest.mark.parametrize("tp", [2, 4])
    def test_tokens_identical_under_paged_kv(self, llm, tp):
        config = SchedulerConfig(paged=True, block_tokens=8,
                                 kv_budget_bytes=1 << 20)
        local = _serve(llm, scheduler_config=config)
        sharded = _serve(llm, backend=ExecutionBackend(llm.accelerator, tp),
                         scheduler_config=config)
        assert [r.generated_tokens for r in sharded.requests] == \
            [r.generated_tokens for r in local.requests]

    def test_stochastic_sampling_matches_across_backends(self, llm):
        params = SamplingParams(max_tokens=6, temperature=0.9, top_p=0.9,
                                seed=3)
        local = ServingEngine(llm)
        sharded = ServingEngine(
            llm, backend=ExecutionBackend(llm.accelerator, 2))
        for engine in (local, sharded):
            for prompt in PROMPTS[:3]:
                engine.submit(prompt, params)
        assert [r.generated_tokens for r in sharded.run().requests] == \
            [r.generated_tokens for r in local.run().requests]


class TestShardedTiming:
    def test_per_step_compute_drops_and_interconnect_appears(self, llm):
        local = _serve(llm)
        sharded = _serve(llm, backend=ExecutionBackend(llm.accelerator, 2))
        assert sharded.mean_step_compute_seconds < \
            local.mean_step_compute_seconds
        assert sharded.interconnect_seconds > 0.0
        assert 0.0 < sharded.interconnect_fraction < 1.0
        assert sharded.n_shards == 2
        assert len(sharded.shard_utilization) == 2

    def test_faster_interconnect_shrinks_collective_share(self, llm):
        slow = _serve(llm, backend=ExecutionBackend(
            llm.accelerator, 2, InterconnectModel(bandwidth_gbps=1.0)))
        fast = _serve(llm, backend=ExecutionBackend(
            llm.accelerator, 2, InterconnectModel(bandwidth_gbps=100.0)))
        assert fast.interconnect_seconds < slow.interconnect_seconds
        assert fast.makespan_seconds < slow.makespan_seconds

    def test_energy_covers_every_board(self, llm):
        local = _serve(llm)
        sharded = _serve(llm, backend=ExecutionBackend(llm.accelerator, 2))
        # Two boards burn at least as much static power as one and the
        # dynamic (counter-driven) energy is conserved, so total energy
        # never drops under sharding on this tiny model.
        assert sharded.energy.static_j > local.energy.static_j
        assert sharded.energy.total_j > 0

    def test_step_counters_are_aggregated_over_shards(self, llm):
        backend = ExecutionBackend(llm.accelerator, 2)
        engine = ServingEngine(llm, backend=backend)
        engine.submit(PROMPTS[0], SamplingParams(max_tokens=4))
        engine.run()
        report = engine.report()
        # Sharding replicates the norms/rope/residual work, so aggregate
        # SFU activity exceeds a single device's but MAC work (split
        # matmuls) stays equal up to rounding.
        local_engine = ServingEngine(llm)
        local_engine.submit(PROMPTS[0], SamplingParams(max_tokens=4))
        local_report = local_engine.run()
        assert report.counters.sfu_flops >= local_report.counters.sfu_flops
        assert report.counters.int8_macs == pytest.approx(
            local_report.counters.int8_macs, rel=0.05)


class TestShardedCapacity:
    def test_aggregate_kv_budget_admits_more_concurrency(self, llm):
        config = llm.model_config

        def footprint(prompt):
            positions = min(len(llm.encode(prompt)) + 8, config.max_seq_len)
            return KVCache.projected_nbytes(config, positions)

        # Per-device budget fits exactly two requests on one device...
        budget = SchedulerConfig(
            kv_budget_bytes=footprint(PROMPTS[0]) + footprint(PROMPTS[1]))
        local = _serve(llm, scheduler_config=budget)
        # ...and twice that with the KV split across two shards.
        sharded = _serve(llm, backend=ExecutionBackend(llm.accelerator, 2),
                         scheduler_config=budget)
        assert local.peak_running == 2
        assert sharded.peak_running > local.peak_running
        assert [r.generated_tokens for r in sharded.requests] == \
            [r.generated_tokens for r in local.requests]

    def test_gqa_limits_kv_scaling(self, llm):
        # test-small has 2 KV heads: tp=4 replicates them, so the KV
        # capacity multiplier is 2, not 4.
        backend = ExecutionBackend(llm.accelerator, 4)
        assert backend.n_shards == 4
        assert backend.kv_shards == 2

    def test_paged_pool_scales_with_kv_shards(self, llm):
        config = SchedulerConfig(paged=True, block_tokens=8,
                                 kv_budget_bytes=1 << 20)
        local = ServingEngine(llm, config)
        sharded = ServingEngine(llm, config,
                                backend=ExecutionBackend(llm.accelerator, 2))
        bytes_per_block = sharded.scheduler.kv.allocator.bytes_per_block
        assert sharded.scheduler.kv.n_blocks == \
            2 * (1 << 20) // bytes_per_block
        assert sharded.scheduler.kv.n_blocks >= \
            2 * local.scheduler.kv.n_blocks


class TestValidation:
    def test_tp0_rejected(self, llm):
        with pytest.raises(ValueError, match="tensor-parallel"):
            ExecutionBackend(llm.accelerator, 0)

    def test_indivisible_model_rejected(self, llm):
        with pytest.raises(ValueError, match="n_heads"):
            ExecutionBackend(llm.accelerator, 3)

    def test_describe_reports_layout(self, llm):
        backend = ExecutionBackend(llm.accelerator, 2)
        description = backend.describe()
        assert description["backend"] == "sharded"
        assert description["n_shards"] == 2
        assert description["kv_shards"] == 2
        assert "interconnect_bandwidth_gbps" in description
