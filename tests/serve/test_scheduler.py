"""Tests for the continuous-batching scheduler (repro.serve.scheduler)."""

from __future__ import annotations

import pytest

from repro.llama.kv_cache import KVCache
from repro.serve.request import Request, RequestState
from repro.serve.scheduler import Scheduler, SchedulerConfig


def make_request(request_id, n_prompt=4, max_new_tokens=4):
    return Request(
        request_id=request_id,
        prompt_tokens=list(range(1, n_prompt + 1)),
        max_new_tokens=max_new_tokens,
    )


def budget_for(config, n_requests, n_prompt=4, max_new_tokens=4):
    """KV bytes covering exactly ``n_requests`` of the given shape."""
    positions = min(n_prompt + max_new_tokens, config.max_seq_len)
    return n_requests * KVCache.projected_nbytes(config, positions)


class TestAdmission:
    def test_admits_in_fifo_order(self, micro_config):
        scheduler = Scheduler(micro_config)
        requests = [make_request(f"r{i}") for i in range(3)]
        for request in requests:
            scheduler.submit(request)
        admitted = scheduler.admit(now=0.0)
        assert [r.request_id for r in admitted] == ["r0", "r1", "r2"]
        assert [r.request_id for r in scheduler.running] == ["r0", "r1", "r2"]
        assert all(r.state is RequestState.PREFILL for r in admitted)
        assert all(r.cache is not None for r in admitted)

    def test_kv_budget_back_pressure(self, micro_config):
        config = SchedulerConfig(kv_budget_bytes=budget_for(micro_config, 2))
        scheduler = Scheduler(micro_config, config)
        for i in range(4):
            scheduler.submit(make_request(f"r{i}"))
        admitted = scheduler.admit(now=0.0)
        assert [r.request_id for r in admitted] == ["r0", "r1"]
        assert len(scheduler.queue) == 2
        # Retiring a request releases its reservation and unblocks the queue.
        scheduler.finish(scheduler.running[0], now=1.0)
        admitted = scheduler.admit(now=1.0)
        assert [r.request_id for r in admitted] == ["r2"]
        assert admitted[0].admitted_time == 1.0

    def test_head_of_line_blocking_preserves_order(self, micro_config):
        # Budget fits one big request in total.  After a small request is
        # admitted, the big one at the head no longer fits — and the
        # small request behind it must not overtake it.
        config = SchedulerConfig(
            kv_budget_bytes=budget_for(micro_config, 1, n_prompt=8,
                                       max_new_tokens=8))
        scheduler = Scheduler(micro_config, config)
        scheduler.submit(make_request("small-1", n_prompt=2, max_new_tokens=2))
        scheduler.submit(make_request("big", n_prompt=8, max_new_tokens=8))
        scheduler.submit(make_request("small-2", n_prompt=2, max_new_tokens=2))
        admitted = scheduler.admit(now=0.0)
        assert [r.request_id for r in admitted] == ["small-1"]
        assert scheduler.queue.peek().request_id == "big"
        # Once the small request retires, the head admits again, still in
        # FIFO order.
        scheduler.finish(admitted[0], now=1.0)
        assert [r.request_id for r in scheduler.admit(now=1.0)] == ["big"]

    def test_max_running_cap(self, micro_config):
        scheduler = Scheduler(micro_config, SchedulerConfig(max_running=2))
        for i in range(3):
            scheduler.submit(make_request(f"r{i}"))
        assert len(scheduler.admit(now=0.0)) == 2

    def test_duplicate_request_id_rejected(self, micro_config):
        scheduler = Scheduler(micro_config)
        scheduler.submit(make_request("dup"))
        with pytest.raises(ValueError, match="already in flight"):
            scheduler.submit(make_request("dup"))
        # Still rejected once the first copy is admitted and running.
        scheduler.admit(now=0.0)
        with pytest.raises(ValueError, match="already in flight"):
            scheduler.submit(make_request("dup"))
        # After it retires, the id may be reused.
        scheduler.finish(scheduler.running[0], now=1.0)
        scheduler.submit(make_request("dup"))

    def test_impossible_request_rejected_at_submit(self, micro_config):
        config = SchedulerConfig(kv_budget_bytes=1)
        scheduler = Scheduler(micro_config, config)
        with pytest.raises(ValueError):
            scheduler.submit(make_request("r0"))


class TestStepBuilding:
    def test_prefill_chunks_respect_token_budget(self, micro_config):
        config = SchedulerConfig(max_batch_tokens=6, prefill_chunk=4)
        scheduler = Scheduler(micro_config, config)
        scheduler.submit(make_request("a", n_prompt=5))
        scheduler.submit(make_request("b", n_prompt=5))
        scheduler.admit(now=0.0)
        slots = scheduler.build_step()
        assert len(slots) == 6
        assert [s.request_id for s in slots] == ["a"] * 4 + ["b"] * 2
        # Positions of one request are consecutive and ascending.
        assert [s.pos for s in slots[:4]] == [0, 1, 2, 3]
        assert [s.pos for s in slots[4:]] == [0, 1]

    def test_only_last_prompt_position_needs_logits(self, micro_config):
        config = SchedulerConfig(max_batch_tokens=16, prefill_chunk=8)
        scheduler = Scheduler(micro_config, config)
        scheduler.submit(make_request("a", n_prompt=4))
        scheduler.admit(now=0.0)
        slots = scheduler.build_step()
        assert [s.need_logits for s in slots] == [False, False, False, True]

    def test_decode_slots_come_before_prefill(self, micro_config):
        scheduler = Scheduler(micro_config, SchedulerConfig(max_batch_tokens=8))
        scheduler.submit(make_request("decoding", n_prompt=3))
        scheduler.submit(make_request("prefilling", n_prompt=4))
        scheduler.admit(now=0.0)
        # Simulate the first request having completed prefill.
        decoding = scheduler.running[0]
        decoding.state = RequestState.DECODE
        decoding.next_pos = 3
        decoding.pending_token = 7
        slots = scheduler.build_step()
        assert slots[0].request_id == "decoding"
        assert slots[0].pos == 3
        assert slots[0].token == 7
        assert slots[0].need_logits
        assert [s.request_id for s in slots[1:]] == ["prefilling"] * 4

    def test_oversubscribed_decode_round_robins(self, micro_config):
        # 4 decoding requests, budget 2: every request must receive decode
        # slots over a window of steps instead of the first two starving
        # the rest.
        scheduler = Scheduler(micro_config, SchedulerConfig(max_batch_tokens=2))
        for i in range(4):
            scheduler.submit(make_request(f"r{i}", n_prompt=2))
        scheduler.admit(now=0.0)
        for request in scheduler.running:
            request.state = RequestState.DECODE
            request.next_pos = 2
            request.pending_token = 5
        served = []
        for _ in range(4):
            served.extend(s.request_id for s in scheduler.build_step())
        assert set(served) == {"r0", "r1", "r2", "r3"}
        assert all(served.count(r) == 2 for r in set(served))

    def test_prefill_resumes_across_steps(self, micro_config):
        config = SchedulerConfig(max_batch_tokens=3, prefill_chunk=3)
        scheduler = Scheduler(micro_config, config)
        scheduler.submit(make_request("a", n_prompt=7))
        scheduler.admit(now=0.0)
        first = scheduler.build_step()
        scheduler.running[0].next_pos = first[-1].pos + 1
        second = scheduler.build_step()
        assert [s.pos for s in first] == [0, 1, 2]
        assert [s.pos for s in second] == [3, 4, 5]


class TestFinish:
    def test_finish_releases_budget_and_removes(self, micro_config):
        config = SchedulerConfig(kv_budget_bytes=budget_for(micro_config, 1))
        scheduler = Scheduler(micro_config, config)
        scheduler.submit(make_request("a"))
        scheduler.admit(now=0.0)
        request = scheduler.running[0]
        reserved = scheduler.kv.reserved_bytes
        assert reserved > 0
        scheduler.finish(request, now=2.0)
        assert scheduler.kv.reserved_bytes == 0
        assert request.state is RequestState.FINISHED
        assert request.finish_time == 2.0
        assert not scheduler.running

    def test_finish_unknown_request_raises(self, micro_config):
        scheduler = Scheduler(micro_config)
        with pytest.raises(ValueError):
            scheduler.finish(make_request("ghost"), now=0.0)


class TestEdgeCases:
    def test_prefill_chunk_larger_than_batch_tokens(self, micro_config):
        # A chunk wider than the step's token budget must be clamped to
        # the budget, not rejected: the prefill simply spans more steps.
        config = SchedulerConfig(max_batch_tokens=4, prefill_chunk=16)
        scheduler = Scheduler(micro_config, config)
        scheduler.submit(make_request("a", n_prompt=10))
        admitted = scheduler.admit(now=0.0)
        assert [r.request_id for r in admitted] == ["a"]
        first = scheduler.build_step()
        assert [s.pos for s in first] == [0, 1, 2, 3]
        scheduler.running[0].next_pos = 4
        second = scheduler.build_step()
        assert [s.pos for s in second] == [4, 5, 6, 7]

    def test_retirement_mid_step_releases_budget_for_admission(self, micro_config):
        # Budget for exactly one request: retiring the running request at
        # time t must let the queued one admit at the same timestamp — the
        # release happens inside the step, not at some later epoch.
        config = SchedulerConfig(kv_budget_bytes=budget_for(micro_config, 1))
        scheduler = Scheduler(micro_config, config)
        scheduler.submit(make_request("first"))
        scheduler.submit(make_request("second"))
        assert [r.request_id for r in scheduler.admit(now=0.0)] == ["first"]
        assert scheduler.admit(now=0.5) == []
        first = scheduler.running[0]
        scheduler.finish(first, now=1.0)
        admitted = scheduler.admit(now=1.0)
        assert [r.request_id for r in admitted] == ["second"]
        assert admitted[0].admitted_time == 1.0
        # And the new request is immediately schedulable.
        assert scheduler.build_step()

    def test_zero_decode_budget_rejected_at_construction(self):
        with pytest.raises(ValueError, match="max_new_tokens"):
            Request(request_id="zero", prompt_tokens=[1, 2], max_new_tokens=0)

    def test_window_filling_prompt_caps_reservation(self, micro_config):
        # A prompt that already fills the context window leaves no decode
        # headroom; the reservation must cap at max_seq_len positions
        # rather than prompt + decode budget.
        from repro.llama.kv_cache import KVCache as KV
        scheduler = Scheduler(micro_config, SchedulerConfig(
            kv_budget_bytes=KV.projected_nbytes(
                micro_config, micro_config.max_seq_len),
        ))
        scheduler.submit(make_request(
            "full-window",
            n_prompt=micro_config.max_seq_len,
            max_new_tokens=8,
        ))
        admitted = scheduler.admit(now=0.0)
        assert [r.request_id for r in admitted] == ["full-window"]
        assert (scheduler.kv.reserved_bytes
                == KV.projected_nbytes(micro_config, micro_config.max_seq_len))
