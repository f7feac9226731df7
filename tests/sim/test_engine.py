"""Tests for the discrete-event kernel — since PR 21 the test-side oracle
(``tests/accel/kernel_oracle.py``) the executor's recurrences are compared
against, no longer a ``src/`` module."""

from __future__ import annotations

import pytest

from tests.accel.kernel_oracle import SimulationError, Simulator


class TestTimeouts:
    def test_time_advances_to_timeout(self):
        sim = Simulator()
        fired = []

        def proc():
            yield sim.timeout(10)
            fired.append(sim.now)

        sim.process(proc())
        assert sim.run() == 10
        assert fired == [10]

    def test_zero_delay_timeout(self):
        sim = Simulator()
        fired = []

        def proc():
            yield sim.timeout(0)
            fired.append(sim.now)

        sim.process(proc())
        sim.run()
        assert fired == [0]

    def test_negative_delay_rejected(self):
        sim = Simulator()
        with pytest.raises(SimulationError):
            sim.timeout(-1)

    def test_sequential_timeouts_accumulate(self):
        sim = Simulator()
        marks = []

        def proc():
            for delay in (3, 4, 5):
                yield sim.timeout(delay)
                marks.append(sim.now)

        sim.process(proc())
        sim.run()
        assert marks == [3, 7, 12]


class TestProcesses:
    def test_parallel_processes_interleave(self):
        sim = Simulator()
        log = []

        def worker(name, period, count):
            for _ in range(count):
                yield sim.timeout(period)
                log.append((sim.now, name))

        sim.process(worker("a", 2, 3))
        sim.process(worker("b", 3, 2))
        sim.run()
        # At cycle 6 both workers fire; "b" scheduled its timeout earlier
        # (at cycle 3 vs cycle 4), so FIFO tie-breaking runs it first.
        assert log == [(2, "a"), (3, "b"), (4, "a"), (6, "b"), (6, "a")]

    def test_process_waits_on_other_process(self):
        sim = Simulator()
        order = []

        def child():
            yield sim.timeout(5)
            order.append("child")
            return 42

        def parent():
            result = yield sim.process(child())
            order.append(("parent", result, sim.now))

        sim.process(parent())
        sim.run()
        assert order == ["child", ("parent", 42, 5)]

    def test_process_waits_on_event_value(self):
        sim = Simulator()
        received = []
        gate = None

        def opener():
            yield sim.timeout(7)
            gate.succeed("opened")

        def waiter():
            value = yield gate
            received.append((sim.now, value))

        gate = sim.event("gate")
        sim.process(opener())
        sim.process(waiter())
        sim.run()
        assert received == [(7, "opened")]

    def test_waiting_on_triggered_event_resumes_immediately(self):
        sim = Simulator()
        seen = []

        def proc():
            ev = sim.event()
            ev.succeed(99)
            value = yield ev
            seen.append((sim.now, value))

        sim.process(proc())
        sim.run()
        assert seen == [(0, 99)]

    def test_yielding_non_event_raises(self):
        sim = Simulator()

        def proc():
            yield 5

        sim.process(proc())
        with pytest.raises(SimulationError, match="must.*yield Event"):
            sim.run()

    def test_determinism_same_schedule_twice(self):
        def build():
            sim = Simulator()
            log = []

            def worker(name, period):
                for _ in range(5):
                    yield sim.timeout(period)
                    log.append((sim.now, name))

            sim.process(worker("x", 2))
            sim.process(worker("y", 2))
            sim.run()
            return log

        assert build() == build()


class TestEvents:
    def test_double_succeed_rejected(self):
        sim = Simulator()
        ev = sim.event()
        ev.succeed()
        with pytest.raises(SimulationError):
            ev.succeed()

    def test_all_of_waits_for_every_event(self):
        sim = Simulator()
        results = []

        def proc():
            events = [sim.timeout(3), sim.timeout(9), sim.timeout(6)]
            yield sim.all_of(events)
            results.append(sim.now)

        sim.process(proc())
        sim.run()
        assert results == [9]

    def test_all_of_empty_completes_immediately(self):
        sim = Simulator()
        done = sim.all_of([])
        assert done.triggered

    def test_run_until_stops_early(self):
        sim = Simulator()

        def proc():
            yield sim.timeout(100)

        sim.process(proc())
        assert sim.run(until=10) == 10

    def test_max_events_guard(self):
        sim = Simulator()

        def forever():
            while True:
                yield sim.timeout(0)

        sim.process(forever())
        with pytest.raises(SimulationError, match="livelock"):
            sim.run(max_events=1000)
