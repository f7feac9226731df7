"""Tests for batched-step program merging (repro.accel.batching)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.accel.accelerator import SpeedLLMAccelerator
from repro.accel.batching import (BatchSlot, block_padded_context,
                                  merge_batch_programs)
from repro.accel.config import AcceleratorConfig
from repro.graph.builder import GraphBuilder
from repro.graph.fusion import fuse_graph
from repro.kvpool import KVPool
from repro.llama.kv_cache import KVCache


@pytest.fixture(scope="module")
def accelerator(small_checkpoint):
    return SpeedLLMAccelerator(small_checkpoint, AcceleratorConfig.variant("full"))


class TestMergeBatchPrograms:
    def test_single_program_passthrough(self, accelerator):
        program = accelerator.timing.lower(4)
        assert merge_batch_programs([program], accelerator.config.mpe) is program

    def test_weight_bytes_charged_once_per_batch(self, accelerator):
        ctxs = [4, 5, 6, 7]
        singles = [accelerator.timing.lower(c) for c in ctxs]
        merged = accelerator.timing.compile_step(ctxs).program
        single_weight = sum(p.weight_bytes for p in singles[0].packets())
        merged_load = merged.total_load_bytes
        sum_loads = sum(p.total_load_bytes for p in singles)
        # The batch saves exactly the duplicated weight streams.
        assert merged_load == sum_loads - (len(ctxs) - 1) * single_weight
        assert merged_load < sum_loads

    def test_compute_and_macs_scale_with_batch(self, accelerator):
        ctxs = [4, 4, 4, 4]
        single = accelerator.timing.lower(4)
        merged = accelerator.timing.compile_step(ctxs).program
        assert merged.total_macs == len(ctxs) * single.total_macs
        # Weight-tile compute amortizes only the systolic fill/drain, so
        # it grows with the batch but stays below B separate tiles.
        assert merged.total_compute_cycles > single.total_compute_cycles
        assert merged.total_compute_cycles < len(ctxs) * single.total_compute_cycles

    def test_operator_structure_is_preserved(self, accelerator):
        ctxs = [3, 9]
        merged = accelerator.timing.compile_step(ctxs).program
        single = accelerator.timing.lower(3)
        assert [op.op_name for op in merged.ops] == [
            op.op_name for op in single.ops
        ]
        assert merged.metadata["batch_size"] == 2

    def test_mixed_logits_flags_align_as_prefix(self, accelerator):
        ctxs = [4, 5, 6]
        flags = [True, False, False]
        merged = accelerator.timing.compile_step(ctxs, flags).program
        full = accelerator.timing.lower(4, True)
        prefill = accelerator.timing.lower(5, False)
        assert len(merged.ops) == len(full.ops)
        assert len(prefill.ops) < len(full.ops)
        # The classifier tail only carries the logits-producing sequence.
        tail = merged.ops[len(prefill.ops):]
        full_tail = full.ops[len(prefill.ops):]
        assert [op.op_name for op in tail] == [op.op_name for op in full_tail]
        assert sum(p.macs for op in tail for p in op.packets) == \
            sum(p.macs for op in full_tail for p in op.packets)

    def test_mismatched_topology_rejected(self, accelerator, micro_checkpoint):
        other = SpeedLLMAccelerator(micro_checkpoint, AcceleratorConfig.variant("full"))
        with pytest.raises(ValueError):
            merge_batch_programs(
                [accelerator.timing.lower(4), other.timing.lower(4)],
                accelerator.config.mpe,
            )

    def test_empty_batch_rejected(self, accelerator):
        with pytest.raises(ValueError):
            merge_batch_programs([], accelerator.config.mpe)


class TestBatchedStepTiming:
    def test_batched_step_beats_sequential_steps(self, accelerator):
        ctxs = list(range(4, 12))
        batched = accelerator.timing.simulate_step(ctxs)
        sequential = sum(accelerator.timing.simulate_step([c]).cycles
                         for c in ctxs)
        assert batched.cycles < sequential
        # Decode is weight-bound, so batching 8 sequences should at least
        # halve the cycles per token.
        assert sequential / batched.cycles >= 2.0

    def test_single_slot_step_is_the_slot_program(self, accelerator):
        timing = accelerator.timing
        assert timing.compile_step([6]).program is timing.lower(6)

    def test_skipping_classifier_is_cheaper(self, accelerator):
        full = accelerator.timing.simulate_step([4, 5], [True, True])
        reduced = accelerator.timing.simulate_step([4, 5], [True, False])
        assert reduced.cycles < full.cycles


class TestBlockPaddedContext:
    def test_padding_rounds_window_to_blocks(self):
        # pos 0..block-1 all read one full block; pos == block starts the
        # next one.  The padded value is the *context length* (window - 1).
        assert block_padded_context(0, 8, 256) == 7
        assert block_padded_context(7, 8, 256) == 7
        assert block_padded_context(8, 8, 256) == 15
        assert block_padded_context(12, 16, 256) == 15

    def test_padding_clamps_below_max_seq_len(self):
        assert block_padded_context(62, 16, 64) == 63
        assert block_padded_context(63, 16, 64) == 63

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            block_padded_context(-1, 8, 64)
        with pytest.raises(ValueError):
            block_padded_context(0, 0, 64)

    def test_paged_step_charges_block_granular_hbm_reads(self, accelerator):
        """With kv_block_tokens set, the simulated step reads the KV
        window in whole blocks: HBM traffic matches the padded context
        and never falls below the exact-window traffic."""
        exact = accelerator.timing.simulate_step([9, 10])
        paged = accelerator.timing.simulate_step([9, 10],
                                                  kv_block_tokens=8)
        padded = accelerator.timing.simulate_step([15, 15])
        assert paged.counters.hbm_bytes == padded.counters.hbm_bytes
        assert paged.counters.hbm_bytes > exact.counters.hbm_bytes

    def test_positions_within_one_block_share_a_program(self, accelerator):
        """Every position inside a block pads to the same context, so the
        simulated steps are identical — the paged program cache stays
        small."""
        a = accelerator.timing.simulate_step([8, 9], kv_block_tokens=8)
        b = accelerator.timing.simulate_step([10, 11], kv_block_tokens=8)
        assert a.cycles == b.cycles
        assert a.counters.hbm_bytes == b.counters.hbm_bytes


class TestMergeEdgeCases:
    """Boundary behaviour of the batch merger under degenerate inputs."""

    def test_empty_batch_raises_with_reason(self, accelerator):
        with pytest.raises(ValueError, match="at least one program"):
            merge_batch_programs([], accelerator.config.mpe)
        with pytest.raises(ValueError):
            accelerator.timing.compile_step([])

    def test_single_slot_merge_is_identity(self, accelerator):
        # One slot must not be rebuilt: the merger returns the cached
        # single-sequence program object itself, logits or not.
        for include_logits in (True, False):
            program = accelerator.timing.lower(5, include_logits)
            merged = merge_batch_programs([program], accelerator.config.mpe)
            assert merged is program
            step = accelerator.timing.compile_step([5], [include_logits])
            assert step.program is program

    def test_heterogeneous_contexts_spanning_a_block_boundary(
        self, accelerator
    ):
        """Contexts on both sides of a KV-block boundary pad to different
        block counts, so the padded batch must mix programs of different
        attention windows — and still merge into one step."""
        block = 8
        ctxs = [block - 1, block]  # one block vs two blocks when padded
        padded = [
            block_padded_context(
                c, block, accelerator.model_config.max_seq_len)
            for c in ctxs
        ]
        assert padded == [block - 1, 2 * block - 1]
        paged = accelerator.timing.simulate_step(ctxs, kv_block_tokens=block)
        explicit = accelerator.timing.simulate_step(padded)
        assert paged.cycles == explicit.cycles
        assert paged.counters.hbm_bytes == explicit.counters.hbm_bytes
        # The boundary-crossing slot reads one extra block per layer, so
        # the mixed batch moves more HBM bytes than two same-side slots.
        same_side = accelerator.timing.simulate_step(
            [block - 2, block - 1], kv_block_tokens=block)
        assert paged.counters.hbm_bytes > same_side.counters.hbm_bytes

    def test_mismatched_need_logits_length_rejected(self, accelerator):
        with pytest.raises(ValueError, match="need_logits"):
            accelerator.timing.compile_step([4, 5], [True])


class TestExecuteSlots:
    def test_chunked_prefill_matches_stepwise_execution(
        self, accelerator, small_config
    ):
        tokens = [1, 5, 9, 13]
        stepwise_cache = KVCache(small_config)
        stepwise_logits = None
        builder = GraphBuilder(small_config, quant=accelerator.config.quant)
        for pos, token in enumerate(tokens):
            graph = fuse_graph(builder.build_decode_step(pos)).graph
            stepwise_logits = accelerator._graph_executor.execute(
                graph, token, pos, stepwise_cache
            )
        batched_cache = KVCache(small_config)
        slots = [
            BatchSlot(token=token, pos=pos, cache=batched_cache,
                      need_logits=(pos == len(tokens) - 1), request_id="r")
            for pos, token in enumerate(tokens)
        ]
        outputs = accelerator.execute_slots(slots)
        assert np.array_equal(outputs[-1], stepwise_logits)
        assert batched_cache.length == stepwise_cache.length

    @pytest.mark.parametrize("need_logits", [True, False])
    def test_forward_is_the_one_slot_step(
        self, accelerator, small_config, need_logits
    ):
        one, other = KVCache(small_config), KVCache(small_config)
        for pos, token in enumerate([1, 5, 9]):
            got = accelerator.forward(token, pos, one, need_logits)
            want = accelerator.execute_slots(
                [BatchSlot(token, pos, other, need_logits)])[0]
            assert got.shape == ((small_config.vocab_size,) if need_logits
                                 else (small_config.dim,))
            assert np.array_equal(got, want)

    def test_empty_step(self, accelerator):
        assert accelerator.execute_slots([]) == []

    @pytest.mark.parametrize("bad, error", [
        (dict(token=512, pos=2), IndexError),   # outside the vocabulary
        (dict(token=3, pos=8), IndexError),     # past the cache capacity
        (dict(token=3, pos=1), ValueError),     # not after its cache's pos 1
    ])
    def test_a_rejected_step_writes_nothing(
        self, accelerator, small_config, bad, error
    ):
        """Every slot is validated before the first K/V row is written —
        the slot-major loop left slots 0..2 of a rejected step behind."""
        flat = KVCache(small_config, max_seq_len=8)
        paged = KVPool(small_config, 1 << 16, block_tokens=4).new_cache(8)
        accelerator.execute_slots([BatchSlot(7, 0, flat), BatchSlot(7, 0, paged)])

        def state():
            return [(cache.length,
                     [cache.keys(layer, 8).tobytes() + cache.values(layer, 8).tobytes()
                      for layer in range(small_config.n_layers)])
                    for cache in (flat, paged)]

        paged.ensure_capacity(8)  # all 8 rows attached, so state() can read them
        before = state()
        with pytest.raises(error):
            accelerator.execute_slots([
                BatchSlot(1, 1, flat), BatchSlot(2, 1, paged),
                BatchSlot(4, 2, paged), BatchSlot(cache=flat, **bad)])
        assert state() == before


class TestSpeculativeRuns:
    """Run-aware merging: a verify run fuses per-sequence work."""

    def test_batch_run_ids_none_without_speculative_slots(self, accelerator):
        from repro.accel.batching import batch_run_ids
        cache = KVCache(accelerator.model_config, max_seq_len=16)
        slots = [BatchSlot(token=1, pos=0, cache=cache, request_id="a"),
                 BatchSlot(token=2, pos=0, cache=cache, request_id="b")]
        assert batch_run_ids(slots) is None

    def test_batch_run_ids_group_consecutive_speculative_slots(self, accelerator):
        from repro.accel.batching import batch_run_ids
        cache = KVCache(accelerator.model_config, max_seq_len=16)
        slots = [
            BatchSlot(token=1, pos=4, cache=cache, request_id="a",
                      speculative=True),
            BatchSlot(token=2, pos=5, cache=cache, request_id="a",
                      speculative=True),
            BatchSlot(token=3, pos=2, cache=cache, request_id="b"),
            BatchSlot(token=4, pos=7, cache=cache, request_id="c",
                      speculative=True),
            BatchSlot(token=5, pos=8, cache=cache, request_id="c",
                      speculative=True),
        ]
        ids = batch_run_ids(slots)
        assert ids[0] == ids[1]
        assert ids[3] == ids[4]
        assert len({ids[0], ids[2], ids[3]}) == 3

    def test_run_fuses_per_sequence_packets(self, accelerator):
        ctxs = [8, 9, 10, 11]
        flat = accelerator.timing.compile_step(ctxs).program
        run = accelerator.timing.compile_step(
            ctxs, run_ids=[0, 0, 0, 0]).program
        # One fused packet replaces the four per-sequence packets of every
        # non-weight operator; weight tiles are unchanged.
        for flat_op, run_op in zip(flat.ops, run.ops):
            flat_weight = [p for p in flat_op.packets if p.weight_bytes > 0]
            run_weight = [p for p in run_op.packets if p.weight_bytes > 0]
            assert flat_weight == run_weight
            if len(flat_op.packets) > len(flat_weight):
                assert len(run_op.packets) < len(flat_op.packets)
        # Compute work is conserved: every position still scores its
        # window and streams through every weight tile.
        assert run.total_macs == flat.total_macs

    def test_run_amortizes_attention_kv_reads(self, accelerator):
        ctxs = [8, 9, 10, 11]
        flat = accelerator.timing.compile_step(ctxs).program
        run = accelerator.timing.compile_step(
            ctxs, run_ids=[0, 0, 0, 0]).program
        # Followers re-read (almost) none of the shared KV window from
        # HBM, so the fused program loads strictly less.
        assert run.total_load_bytes < flat.total_load_bytes

    def test_runs_do_not_fuse_across_requests(self, accelerator):
        ctxs = [8, 9, 10, 11]
        two_runs = accelerator.timing.compile_step(
            ctxs, run_ids=[0, 0, 1, 1]).program
        one_run = accelerator.timing.compile_step(
            ctxs, run_ids=[0, 0, 0, 0]).program
        assert two_runs.total_load_bytes > one_run.total_load_bytes

    def test_run_ids_length_mismatch_raises(self, accelerator):
        programs = [accelerator.timing.lower(c) for c in (4, 5)]
        with pytest.raises(ValueError, match="run_ids"):
            merge_batch_programs(programs, accelerator.config.mpe,
                                 run_ids=[0])

    def test_run_timing_cached_separately(self, accelerator):
        timing = accelerator.timing
        flat = timing.simulate_step([8, 9, 10])
        run = timing.simulate_step([8, 9, 10], run_ids=[0, 0, 0])
        assert run.cycles < flat.cycles
        again = timing.simulate_step([8, 9, 10], run_ids=[0, 0, 0])
        assert again.cycles == run.cycles
