"""Scheduling-policy unit tests: ordering rules and, above all, the
deterministic ``arrival_seq`` tie-break.

Every ordering decision a policy makes — admission select, step-packing
scan, victim choice — must resolve equal keys by the monotonic
submission sequence number the scheduler stamps, so two runs over the
same workload schedule identically.  The regression cases pin the
subtle half of that contract: a preempted request re-queued via
``push_front`` keeps its original ``arrival_seq`` and therefore its
place among equals, rather than being re-stamped as a fresh arrival.
"""

from __future__ import annotations

import pytest

from repro.llama.kv_cache import KVCache
from repro.serve import (
    POLICIES,
    FairnessPolicy,
    FIFOPolicy,
    PriorityPolicy,
    SchedulerConfig,
    build_policy,
)
from repro.serve.request import Request, RequestQueue, RequestState
from repro.serve.scheduler import Scheduler


def make_request(request_id, priority=0, arrival_seq=0, arrival_time=0.0,
                 n_prompt=4, max_new_tokens=4):
    return Request(
        request_id=request_id,
        prompt_tokens=list(range(1, n_prompt + 1)),
        max_new_tokens=max_new_tokens,
        arrival_time=arrival_time,
        priority=priority,
        arrival_seq=arrival_seq,
    )


def queued(*requests):
    queue = RequestQueue()
    for request in requests:
        queue.push(request)
    return queue


class TestBuildPolicy:
    def test_names_resolve(self):
        for name in POLICIES:
            assert build_policy(name).name == name

    def test_unknown_name_rejected(self):
        with pytest.raises(ValueError, match="unknown scheduling policy"):
            build_policy("edf")

    def test_fairness_needs_positive_aging(self):
        with pytest.raises(ValueError, match="aging_s must be positive"):
            FairnessPolicy(aging_s=0.0)


class TestAdmissionTieBreaks:
    def test_priority_equal_tiers_resolve_by_arrival_seq(self):
        late = make_request("late", priority=1, arrival_seq=7)
        early = make_request("early", priority=1, arrival_seq=2)
        queue = queued(late, early)  # queue position must not matter
        assert PriorityPolicy().select(queue, now=1.0) is early

    def test_priority_urgency_beats_seniority(self):
        old_slow = make_request("old-slow", priority=2, arrival_seq=0)
        new_urgent = make_request("new-urgent", priority=0, arrival_seq=9)
        queue = queued(old_slow, new_urgent)
        assert PriorityPolicy().select(queue, now=1.0) is new_urgent

    def test_fairness_equal_age_resolves_by_arrival_seq(self):
        # Identical priority and arrival time — aging cancels out and
        # only the sequence number separates them.
        a = make_request("a", priority=1, arrival_seq=4, arrival_time=0.0)
        b = make_request("b", priority=1, arrival_seq=3, arrival_time=0.0)
        queue = queued(a, b)
        assert FairnessPolicy(aging_s=0.1).select(queue, now=5.0) is b

    def test_fifo_head_of_line_ignores_priority(self):
        head = make_request("head", priority=5, arrival_seq=0)
        urgent = make_request("urgent", priority=0, arrival_seq=1)
        queue = queued(head, urgent)
        assert FIFOPolicy().select(queue, now=1.0) is head


class TestVictimTieBreaks:
    def test_priority_victim_is_least_urgent_latest_submitted(self):
        beneficiary = make_request("need", priority=1, arrival_seq=0)
        candidates = [
            make_request("v-old", priority=2, arrival_seq=1),
            make_request("v-new", priority=2, arrival_seq=5),
            make_request("v-mid", priority=1, arrival_seq=3),
        ]
        victim = PriorityPolicy().pick_victim(candidates, beneficiary)
        assert victim.request_id == "v-new"

    def test_priority_never_evicts_more_urgent(self):
        beneficiary = make_request("need", priority=2, arrival_seq=9)
        candidates = [make_request("vip", priority=0, arrival_seq=0),
                      make_request("vip2", priority=1, arrival_seq=1)]
        assert PriorityPolicy().pick_victim(candidates, beneficiary) is None

    def test_fifo_victim_is_last_candidate(self):
        beneficiary = make_request("need", priority=0, arrival_seq=0)
        candidates = [make_request("a", arrival_seq=1),
                      make_request("b", arrival_seq=2)]
        victim = FIFOPolicy().pick_victim(candidates, beneficiary)
        assert victim.request_id == "b"


class TestStepOrderTieBreaks:
    def test_priority_tiers_scan_urgent_first(self):
        running = [
            make_request("slow", priority=2, arrival_seq=0),
            make_request("fast-b", priority=0, arrival_seq=2),
            make_request("fast-a", priority=0, arrival_seq=1),
        ]
        order = PriorityPolicy().step_order(running, rotation=0)
        assert [r.request_id for r in order] == ["fast-a", "fast-b", "slow"]

    def test_rotation_cycles_within_tier_only(self):
        running = [
            make_request("slow", priority=2, arrival_seq=0),
            make_request("fast-b", priority=0, arrival_seq=2),
            make_request("fast-a", priority=0, arrival_seq=1),
        ]
        order = PriorityPolicy().step_order(running, rotation=1)
        assert [r.request_id for r in order] == ["fast-b", "fast-a", "slow"]


class TestPushFrontReadmitRegression:
    """A preempted request keeps its ``arrival_seq`` through
    ``push_front`` and is therefore re-admitted ahead of every
    equal-priority request submitted after it — deterministically."""

    def make_scheduler(self, micro_config, n_blocks, **overrides):
        defaults = dict(
            paged=True,
            block_tokens=4,
            kv_budget_bytes=n_blocks * KVCache.bytes_per_block(
                micro_config, 4),
            watermark_fraction=0.0,
        )
        defaults.update(overrides)
        return Scheduler(micro_config, SchedulerConfig(**defaults))

    def _preempt_b(self, scheduler):
        """Admit a+b, decode both until b is evicted for a's growth."""
        a, b = scheduler.running
        for request in (a, b):
            request.cache.ensure_capacity(8)
            request.state = RequestState.DECODE
            request.next_pos = 8
            request.pending_token = 3
        scheduler.build_step()
        assert len(scheduler.preemption_events) == 1
        return a, b

    def test_preempted_request_keeps_arrival_seq(self, micro_config):
        scheduler = self.make_scheduler(micro_config, n_blocks=4)
        scheduler.submit(make_request("a", n_prompt=8))
        scheduler.submit(make_request("b", n_prompt=8))
        scheduler.admit(now=0.0)
        _, b = self._preempt_b(scheduler)
        assert b.arrival_seq == 1  # the original stamp, not a new one

    def test_readmit_outranks_later_equal_priority_arrivals(self,
                                                           micro_config):
        scheduler = self.make_scheduler(micro_config, n_blocks=4,
                                        policy="priority")
        scheduler.submit(make_request("a", n_prompt=8))
        scheduler.submit(make_request("b", n_prompt=8))
        scheduler.admit(now=0.0)
        scheduler.submit(make_request("later", n_prompt=8))
        a, b = self._preempt_b(scheduler)
        # Same tier, so only arrival_seq separates b (seq 1) from the
        # later submission (seq 2): the readmit must go to b.
        assert [r.request_id for r in scheduler.queue] == ["b", "later"]
        scheduler.finish(a, now=1.0)
        admitted = scheduler.admit(now=1.0)
        assert [r.request_id for r in admitted] == ["b", "later"]

    def test_submission_restamps_are_monotonic(self, micro_config):
        scheduler = self.make_scheduler(micro_config, n_blocks=8)
        seqs = []
        for i in range(5):
            request = make_request(f"r{i}", n_prompt=4)
            scheduler.submit(request)
            seqs.append(request.arrival_seq)
        assert seqs == sorted(seqs)
        assert len(set(seqs)) == len(seqs)
