"""Tests for the bounded FIFO of the kernel oracle
(``tests/accel/kernel_oracle.py``; ``repro.sim.stream`` until PR 21)."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tests.accel.kernel_oracle import SimulationError, Simulator, Stream


class TestStreamBasics:
    def test_capacity_must_be_positive(self):
        with pytest.raises(SimulationError):
            Stream(Simulator(), capacity=0)

    def test_put_get_preserves_order(self):
        sim = Simulator()
        stream = Stream(sim, capacity=4)
        received = []

        def producer():
            for i in range(4):
                yield stream.put(i)

        def consumer():
            for _ in range(4):
                item = yield stream.get()
                received.append(item)

        sim.process(producer())
        sim.process(consumer())
        sim.run()
        assert received == [0, 1, 2, 3]

    def test_put_blocks_when_full(self):
        sim = Simulator()
        stream = Stream(sim, capacity=1)
        produced_at = []

        def producer():
            for i in range(3):
                yield stream.put(i)
                produced_at.append(sim.now)

        def consumer():
            for _ in range(3):
                yield sim.timeout(10)
                yield stream.get()

        sim.process(producer())
        sim.process(consumer())
        sim.run()
        # first put immediate; the rest wait for the consumer's 10-cycle gets
        assert produced_at[0] == 0
        assert produced_at[1] >= 10
        assert produced_at[2] >= 20

    def test_get_blocks_until_item_arrives(self):
        sim = Simulator()
        stream = Stream(sim, capacity=2)
        got_at = []

        def producer():
            yield sim.timeout(25)
            yield stream.put("x")

        def consumer():
            item = yield stream.get()
            got_at.append((sim.now, item))

        sim.process(consumer())
        sim.process(producer())
        sim.run()
        assert got_at == [(25, "x")]

    def test_occupancy_and_stats(self):
        sim = Simulator()
        stream = Stream(sim, capacity=3)

        def producer():
            for i in range(3):
                yield stream.put(i)

        sim.process(producer())
        sim.run()
        assert stream.occupancy == 3
        assert stream.is_full
        assert stream.total_puts == 3
        assert stream.max_occupancy == 3

        def consumer():
            for _ in range(3):
                yield stream.get()

        sim.process(consumer())
        sim.run()
        assert stream.is_empty
        assert stream.total_gets == 3

    def test_pipeline_throughput_double_buffering(self):
        """Depth-2 stream lets a 3-cycle producer hide behind a 10-cycle consumer."""
        sim = Simulator()
        stream = Stream(sim, capacity=2)
        n = 5

        def producer():
            for i in range(n):
                yield sim.timeout(3)
                yield stream.put(i)

        def consumer():
            for _ in range(n):
                yield stream.get()
                yield sim.timeout(10)

        sim.process(producer())
        sim.process(consumer())
        end = sim.run()
        # Overlapped: ~3 + n*10; serial would be n*(3+10) = 65.
        assert end <= 3 + n * 10 + 1
        assert end < 65

    @settings(max_examples=20, deadline=None)
    @given(st.lists(st.integers(), min_size=1, max_size=20),
           st.integers(min_value=1, max_value=5))
    def test_fifo_order_property(self, items, capacity):
        sim = Simulator()
        stream = Stream(sim, capacity=capacity)
        out = []

        def producer():
            for item in items:
                yield stream.put(item)

        def consumer():
            for _ in items:
                value = yield stream.get()
                out.append(value)

        sim.process(producer())
        sim.process(consumer())
        sim.run()
        assert out == items
