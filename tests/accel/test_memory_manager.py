"""Tests for repro.accel.memory_manager (paper contribution 2).

The pool has no clock: the policy cases run through the executor, which
is the pool's one caller; the pool's own contract — releases applied in
key order up to the request — is tested directly with bare ``(cycle,)``
keys, as the sequential discipline uses them.
"""

from __future__ import annotations

from repro.accel.config import AcceleratorConfig, BufferConfig
from repro.accel.instructions import OpProgram, Program, TilePacket
from repro.accel.memory_manager import BufferPool
from repro.accel.pipeline import DISPATCH_CYCLES, PipelineExecutor
from repro.fpga.u280 import u280
from repro.graph.ops import ComputeUnit

from .kernel_oracle import trace_events


def _pool(reuse: bool, n_segments=2, flush=100):
    return BufferPool(
        BufferConfig(n_segments=n_segments, segment_kb=4, reuse_flush_cycles=flush),
        reuse=reuse,
    )


def _run(reuse: bool, n_packets: int, compute: int, n_segments=2, flush=100,
         pipeline=False, trace=False):
    """One operator of ``n_packets`` compute-only tiles: a serial
    acquire / hold ``compute`` cycles / release loop over the pool."""
    config = AcceleratorConfig(
        pipeline=pipeline, memory_reuse=reuse, trace_enabled=trace,
        buffers=BufferConfig(n_segments=n_segments, segment_kb=4,
                             reuse_flush_cycles=flush),
    )
    packets = [TilePacket(ComputeUnit.SFU, 0, compute, 0)] * n_packets
    program = Program([OpProgram("op", ComputeUnit.SFU, packets)])
    return PipelineExecutor(config, u280()).run(program)


class TestAcquireRelease:
    def test_acquire_returns_segment_immediately_when_free(self):
        pool = _pool(reuse=True)
        assert pool.acquire((5,)) == (5, (5,), 0)
        assert pool.free_segments == 1

    def test_release_frees_at_its_own_moment_not_before(self):
        pool = _pool(reuse=True, n_segments=1)
        pool.acquire((0,))
        pool.release((40,))
        assert pool.free_segments == 0
        assert pool.acquire((60,)) == (60, (60,), 0)

    def test_releases_apply_in_key_order_whatever_order_they_are_posted(self):
        pool = _pool(reuse=True, n_segments=1)
        pool.acquire((0,))
        pool.release((90,))
        pool.acquire((0,))            # granted at 90
        pool.release((70,))
        pool.release((95,))
        assert pool.acquire((0,)) == (70, (70,), 1)

    def test_a_grant_that_is_not_final_yet_takes_nothing(self):
        """Only releases before ``before`` are known to be final: the
        request stays open and is answered once the bound has moved."""
        pool = _pool(reuse=True, n_segments=1)
        pool.acquire((0,))
        pool.release((40,))
        assert pool.acquire((1,), before=(30,)) is None
        assert pool.free_segments == 0
        assert pool.acquire((1,), before=(50,)) == (40, (40,), 1)

    def test_no_reuse_frees_nothing_until_the_pool_has_drained(self):
        pool = _pool(reuse=False, n_segments=2, flush=100)
        pool.acquire((0,))
        pool.acquire((0,))
        pool.release((5,))
        assert pool.acquire((6,), before=(1000,)) is None
        pool.release((9,))
        flush_end = (109, (9,), 1)
        assert pool.acquire((6,)) == (109, flush_end, 1)
        assert pool.flushes == [(flush_end, 9)] and pool.n_flushes == 1
        assert pool.free_segments == 1


class TestReusePolicy:
    def test_cyclic_reuse_never_stalls_single_consumer(self):
        """With reuse, a serial acquire/release loop never waits (the
        pipelined loader runs ahead of its consumer, so it may)."""
        result = _run(reuse=True, n_packets=10, compute=5)
        assert result.counters.buffer_stall_cycles == 0
        assert result.cycles == DISPATCH_CYCLES + 50
        assert result.n_flushes == 0

    def test_no_reuse_inserts_flush_stalls(self):
        """Without reuse, the pool drains batch-wise and pays the flush."""
        for pipeline in (False, True):
            result = _run(reuse=False, n_packets=10, compute=5, flush=100,
                          pipeline=pipeline)
            assert result.n_flushes >= 4
            assert result.counters.buffer_stall_cycles > 0
            assert result.cycles > 50 + 4 * 100

    def test_no_reuse_slower_than_reuse(self):
        def run(reuse, pipeline):
            return _run(reuse=reuse, n_packets=16, compute=3, n_segments=4,
                        flush=50, pipeline=pipeline).cycles

        assert run(False, pipeline=False) > run(True, pipeline=False)
        assert run(False, pipeline=True) > run(True, pipeline=True)

    def test_flush_recorded_in_trace(self):
        for pipeline in (False, True):
            result = _run(reuse=False, n_packets=4, compute=0, flush=10,
                          pipeline=pipeline, trace=True)
            flushes = [ev for ev in trace_events(result.spans) if ev.category == "stall"]
            assert len(flushes) == result.n_flushes == 2
            assert all((ev.engine, ev.label, ev.duration) == ("buffer-pool", "flush", 10)
                       for ev in flushes)

    def test_concurrent_producers_share_pool(self):
        pool = _pool(reuse=True, n_segments=2)
        first, second = pool.acquire((0,)), pool.acquire((0,))
        pool.release((first[0] + 7,))
        pool.release((second[0] + 7,))
        # the third request must have waited at some point
        assert pool.acquire((0,))[0] == 7

    def test_stall_cycles_accumulate_wait_time(self):
        """A request at cycle 1 behind a holder that releases at 40 is
        granted in the release's own entry, 39 cycles later."""
        pool = _pool(reuse=True, n_segments=1)
        pool.acquire((0,))
        pool.release((40,))
        granted = pool.acquire((1,))
        assert granted == (40, (40,), 1)
        assert granted[0] - 1 == 39

    def test_stall_is_the_time_spent_waiting_for_the_flush(self):
        """Sequential, two segments, no reuse: the third tile asks at its
        predecessor's compute end and holds a segment ``flush`` later."""
        result = _run(reuse=False, n_packets=3, compute=5, flush=100)
        assert result.counters.buffer_stall_cycles == 100
        assert result.cycles == DISPATCH_CYCLES + 10 + 100 + 5
