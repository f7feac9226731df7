"""Tests for repro.fpga.hbm."""

from __future__ import annotations

import math
import random
from collections import Counter

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.fpga.hbm import MemoryChannelSpec, MemorySystemModel, MemorySystemSpec

CLOCK = 225e6


class TestChannelSpec:
    def test_bytes_per_cycle(self):
        spec = MemoryChannelSpec("c", bandwidth_gbps=14.375,
                                 access_latency_cycles=64,
                                 capacity_bytes=1 << 28)
        assert spec.bytes_per_cycle(CLOCK) == pytest.approx(14.375e9 / CLOCK)

    def test_transfer_cycles(self):
        spec = MemoryChannelSpec("c", bandwidth_gbps=14.375,
                                 access_latency_cycles=64,
                                 capacity_bytes=1 << 28)
        assert spec.transfer_cycles(0, CLOCK) == 0
        one_kb = spec.transfer_cycles(1024, CLOCK)
        assert one_kb > 64
        assert spec.transfer_cycles(1 << 20, CLOCK) > one_kb

    def test_validation(self):
        with pytest.raises(ValueError):
            MemoryChannelSpec("c", bandwidth_gbps=0, access_latency_cycles=1,
                              capacity_bytes=1)
        with pytest.raises(ValueError):
            MemoryChannelSpec("c", bandwidth_gbps=1, access_latency_cycles=-1,
                              capacity_bytes=1)


class TestMemorySystemSpec:
    def test_u280_hbm_defaults(self):
        hbm = MemorySystemSpec.u280_hbm()
        assert hbm.n_channels == 32
        assert hbm.total_capacity_bytes == 8 * 1024 ** 3
        assert 430 < hbm.total_bandwidth_gbps < 470

    def test_u280_hbm_channel_subset(self):
        assert MemorySystemSpec.u280_hbm(8).n_channels == 8
        with pytest.raises(ValueError):
            MemorySystemSpec.u280_hbm(0)
        with pytest.raises(ValueError):
            MemorySystemSpec.u280_hbm(33)

    def test_u280_ddr(self):
        ddr = MemorySystemSpec.u280_ddr()
        assert ddr.n_channels == 2
        assert ddr.total_capacity_bytes == 32 * 1024 ** 3

    def test_duplicate_channel_names_rejected(self):
        chan = MemoryChannelSpec("x", 1.0, 1, 1024)
        with pytest.raises(ValueError):
            MemorySystemSpec(channels=(chan, chan))

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            MemorySystemSpec(channels=())


class TestMemorySystemModel:
    def _model(self, n_channels=4):
        return MemorySystemModel(MemorySystemSpec.u280_hbm(n_channels), CLOCK)

    def test_ideal_cycles_scale_with_bytes(self):
        model = self._model()
        assert model.ideal_transfer_cycles(0) == 0
        assert model.ideal_transfer_cycles(1 << 20) > model.ideal_transfer_cycles(1 << 10)

    def test_issue_zero_bytes_completes_immediately(self):
        model = self._model()
        completion, _ = model.issue(0, now=5)
        assert completion == 5

    def test_issue_returns_latency_plus_burst(self):
        model = self._model(1)
        completion, name = model.issue(1024, now=0)
        spec = model.spec.channels[0]
        burst = -(-1024 // int(spec.bytes_per_cycle(CLOCK)))
        assert name == "hbm0"
        assert completion >= spec.access_latency_cycles
        assert completion <= spec.access_latency_cycles + burst + 2

    def test_back_to_back_transfers_pipeline_latency(self):
        """Two requests on one channel overlap their access latencies."""
        model = self._model(1)
        # 1 KiB bursts are much shorter than the 64-cycle access latency.
        first, _ = model.issue(1024, now=0)
        second, _ = model.issue(1024, now=0)
        spec = model.spec.channels[0]
        # The second completes one burst after the first (latency hidden),
        # not one full latency+burst after it.
        assert second - first < spec.access_latency_cycles
        assert second > first

    def test_transfers_spread_across_channels(self):
        model = self._model(4)
        names = {model.issue(1024, now=0)[1] for _ in range(4)}
        assert len(names) == 4

    def test_ties_break_by_lexicographic_channel_name(self):
        """Equally busy channels are picked in *name* order, so ``hbm10``
        comes before ``hbm2``; every committed cycle count depends on
        this sequence."""
        model = self._model(32)
        picked = [model.issue(64, now=0)[1] for _ in range(16)]
        assert picked == [
            "hbm0", "hbm1", "hbm10", "hbm11", "hbm12", "hbm13", "hbm14",
            "hbm15", "hbm16", "hbm17", "hbm18", "hbm19", "hbm2", "hbm20",
            "hbm21", "hbm22",
        ]

    def test_contention_serialises_on_one_channel(self):
        model = self._model(1)
        first, _ = model.issue(1 << 16, now=0)
        second, _ = model.issue(1 << 16, now=0)
        assert second > first

    def test_counters_and_utilization(self):
        model = self._model(2)
        model.issue(1 << 16, now=0)
        model.issue(1 << 16, now=0)
        assert model.total_bytes_transferred == 2 << 16
        assert model.total_transactions == 2
        assert 0 < model.utilization(10_000) <= 1.0
        assert model.utilization(0) == 0.0

    def test_reset_clears_state(self):
        model = self._model(1)
        model.issue(1 << 16, now=0)
        model.reset()
        assert model.total_bytes_transferred == 0
        assert model.channels["hbm0"].busy_until == 0

    def test_explicit_channel_selection(self):
        model = self._model(4)
        _, name = model.issue(1024, now=0, channel="hbm2")
        assert name == "hbm2"

    def test_negative_args_rejected(self):
        model = self._model(1)
        with pytest.raises(ValueError):
            model.issue(-1, now=0)
        with pytest.raises(ValueError):
            model.issue(1, now=-1)

    def test_unknown_channel_is_a_value_error_naming_the_known_ones(self):
        model = self._model(2)
        with pytest.raises(ValueError, match=r"'hbm99'.*\['hbm0', 'hbm1'\]"):
            model.issue(64, now=0, channel="hbm99")
        assert model.total_transactions == 0


class _ScanReference:
    """The arbitration as it was first written: a rescan of every channel
    with ``min`` over ``(busy_until, name)`` per transfer.  The oracle
    :class:`MemorySystemModel`'s ordered structure is checked against."""

    def __init__(self, spec, clock_hz):
        self.spec, self.clock_hz = spec, clock_hz
        self.reset()

    def reset(self):
        self.channels = {c.name: dict(spec=c, busy_until=0, bytes_transferred=0,
                                      n_transactions=0, busy_cycles=0)
                         for c in self.spec.channels}

    def issue(self, n_bytes, now, channel=None):
        state = self.channels[channel] if channel is not None else min(
            self.channels.values(), key=lambda s: (s["busy_until"], s["spec"].name))
        if n_bytes == 0:
            return now, state["spec"].name
        start = max(now, state["busy_until"])
        burst = math.ceil(n_bytes / state["spec"].bytes_per_cycle(self.clock_hz))
        state["busy_until"] = start + burst
        state["bytes_transferred"] += n_bytes
        state["n_transactions"] += 1
        state["busy_cycles"] += burst
        return start + state["spec"].access_latency_cycles + burst, state["spec"].name


def _assert_same_record(model, ref, elapsed=1 << 20):
    """Per-channel ``busy_until`` and the model's three traffic totals
    against the reference's per-channel ledger."""
    assert {name: state.busy_until for name, state in model.channels.items()} \
        == {name: state["busy_until"] for name, state in ref.channels.items()}
    ledger = list(ref.channels.values())
    assert model.total_bytes_transferred == sum(s["bytes_transferred"] for s in ledger)
    assert model.total_transactions == sum(s["n_transactions"] for s in ledger)
    assert model.utilization(elapsed) == \
        sum(s["busy_cycles"] for s in ledger) / (elapsed * len(ledger))


class TestArbitrationMatchesTheScan:
    @pytest.mark.parametrize("spec", [
        MemorySystemSpec.u280_hbm(1), MemorySystemSpec.u280_hbm(2),
        MemorySystemSpec.u280_hbm(5), MemorySystemSpec.u280_hbm(32),
        MemorySystemSpec.u280_ddr(),
    ], ids=["hbm1", "hbm2", "hbm5", "hbm32", "ddr"])
    def test_random_operations(self, spec):
        """Same ``(completion, name)`` for every operation and the same
        per-channel record at the end, whatever mix of automatic,
        steered, zero-byte and striped issues and resets came before."""
        rng = random.Random(spec.n_channels)
        model, ref = MemorySystemModel(spec, CLOCK), _ScanReference(spec, CLOCK)
        names = [c.name for c in spec.channels]
        now = 0
        for step in range(5000):
            now = rng.choice([now, now, now + rng.randrange(40),
                              rng.randrange(1 << 16)])
            n_bytes = rng.choice([0, 1, 63, 64, 4096, rng.randrange(1 << 20)])
            op = rng.random()
            if op < 0.002:
                model.reset()
                ref.reset()
            elif op < 0.15:
                channel = rng.choice(names)
                assert model.issue(n_bytes, now, channel=channel) == \
                    ref.issue(n_bytes, now, channel), step
            elif op < 0.6:
                assert model.issue(n_bytes, now) == ref.issue(n_bytes, now), step
            else:
                sizes = [rng.choice([0, n_bytes, rng.randrange(1 << 12)])
                         for _ in range(rng.randrange(1, 20))]
                assert model.issue_striped(sizes, now) == \
                    [ref.issue(size, now) for size in sizes], step
        assert model.total_transactions > 0
        _assert_same_record(model, ref)

    def test_striped_issue_validates_like_issue(self):
        model = MemorySystemModel(MemorySystemSpec.u280_hbm(4), CLOCK)
        with pytest.raises(ValueError):
            model.issue_striped([64, -1], now=0)
        with pytest.raises(ValueError):
            model.issue_striped([64], now=-1)
        assert model.issue_striped([], now=0) == []
        assert model.total_transactions == 0


def _two_speed(name, bandwidths=(14.375, 7.1875), latencies=(64, 64)):
    return MemorySystemSpec(channels=tuple(
        MemoryChannelSpec(f"{name}{i}", bandwidths[i % 2], latencies[i % 2], 1 << 28)
        for i in range(4)))


SPECS = {
    "hbm1": MemorySystemSpec.u280_hbm(1), "hbm2": MemorySystemSpec.u280_hbm(2),
    "hbm5": MemorySystemSpec.u280_hbm(5), "hbm32": MemorySystemSpec.u280_hbm(32),
    "ddr": MemorySystemSpec.u280_ddr(),
    # Channels of unequal speed or latency: never the bulk step.
    "two-bandwidths": _two_speed("bw"),
    "two-latencies": _two_speed("lat", bandwidths=(14.375, 14.375), latencies=(64, 160)),
}
MIXED = ("two-bandwidths", "two-latencies")


class _Lockstep:
    """A model and the scan reference given the same operations, every
    answer and the whole record compared after each.  ``taken`` counts
    which way each :meth:`MemorySystemModel.issue_split` went — in one
    step (``bulk``) or through the per-stripe loop (``scan``) — from
    outside: the model does not know it is being counted."""

    def __init__(self, spec, taken=None):
        self.model, self.ref = MemorySystemModel(spec, CLOCK), _ScanReference(spec, CLOCK)
        self.n = spec.n_channels
        self.per_cycle = spec.channels[0].bytes_per_cycle(CLOCK)
        self.taken = Counter() if taken is None else taken
        self.scans, scan = 0, self.model._scan

        def counted(*args):
            self.scans += 1
            return scan(*args)
        self.model._scan = counted

    def busy(self):
        """``busy_until`` of every channel in arbitration order."""
        return [state["busy_until"] for state in sorted(
            self.ref.channels.values(), key=lambda s: (s["busy_until"], s["spec"].name))]

    def bytes_for(self, cycles):
        """The most bytes whose burst is ``cycles`` on the first channel."""
        n_bytes = int(cycles * self.per_cycle)
        assert math.ceil(n_bytes / self.per_cycle) == cycles
        return n_bytes

    def check(self):
        _assert_same_record(self.model, self.ref)

    def issue(self, n_bytes, now, channel=None):
        assert self.model.issue(n_bytes, now, channel=channel) == \
            self.ref.issue(n_bytes, now, channel)
        self.check()

    def reset(self):
        self.model.reset()
        self.ref.reset()
        self.check()

    def striped(self, n_bytes, stripe, now):
        """One transfer split as :class:`MemoryPort` splits it; returns
        the way it went (None when the port would not call the model's
        ``issue_split``: fewer bytes than stripes)."""
        stripe = min(stripe, self.n)
        chunk = n_bytes // stripe
        sizes = [chunk] * (stripe - 1) + [n_bytes - chunk * (stripe - 1)]
        expected = [self.ref.issue(size, now) for size in sizes]
        way = None
        if chunk == 0:
            assert self.model.issue_striped(sizes, now) == expected
        else:
            before = self.scans
            latest, picks = self.model.issue_split(n_bytes, stripe, now)
            assert self.model.stripes(picks) == expected
            assert latest == max(expected)[0]
            way = "bulk" if self.scans == before else "scan"
            self.taken[way] += 1
        self.check()
        return way

    def on_the_boundary(self, delta, stripe, slack, extra):
        """A transfer placed so that ``max(now, busy[0]) + burst ==
        busy[stripe - 1] + delta`` — by its ``now`` when the burst fits
        under the spread of the first ``stripe`` channels, by its size
        when it does not."""
        stripe = min(stripe, self.n)
        busy = self.busy()
        target = busy[stripe - 1] + delta
        burst = 1 + slack % max(1, target - busy[0])
        now = target - burst
        if now < busy[0]:
            now, burst = busy[0] - min(busy[0], slack), target - busy[0]
        if burst < 1:
            return None
        return self.striped(self.bytes_for(burst) * stripe + extra % stripe, stripe, now)


_N_BYTES = st.one_of(st.integers(0, 70), st.integers(0, 1 << 20),
                     st.sampled_from([0, 63, 64, 4096, 1 << 20]))
#: How ``now`` moves before an operation: not at all, a little forwards,
#: or to an arbitrary cycle (so also backwards).
_MOVES = st.one_of(st.just(("by", 0)), st.tuples(st.just("by"), st.integers(0, 40)),
                   st.tuples(st.just("to"), st.integers(0, 1 << 16)))
_OPERATIONS = st.lists(st.one_of(
    st.tuples(st.just("striped"), _N_BYTES, st.integers(1, 64), _MOVES),
    st.tuples(st.just("boundary"), st.sampled_from([-1, 0, 1]), st.integers(1, 64),
              st.integers(0, 1 << 12), st.integers(0, 63)),
    st.tuples(st.just("steered"), _N_BYTES, st.integers(0, 31), _MOVES),
    st.tuples(st.just("issue"), _N_BYTES, _MOVES),
    st.just(("reset",)),
), max_size=40)


class TestStripedTransferIsOneStep:
    def test_port_shaped_transfers_match_the_scan(self):
        """Generated mixes of striped transfers (any stripe count, sizes
        below the stripe count and off multiples of it), transfers aimed
        at the bulk-step condition's boundary, steered and plain issues
        and resets, ``now`` moving either way: every stripe's
        ``(completion, name)``, every channel's ``busy_until`` and the
        totals are the scan's.  The example budget is the profile's."""
        taken = Counter()

        @given(st.sampled_from(sorted(SPECS)), _OPERATIONS)
        def run(spec_name, operations):
            pair = _Lockstep(SPECS[spec_name], taken)
            names = [c.name for c in SPECS[spec_name].channels]
            now, bulk_before = 0, taken["bulk"]
            for kind, *args in operations:
                if kind == "reset":
                    pair.reset()
                    continue
                if kind == "boundary":
                    pair.on_the_boundary(*args)
                    continue
                how, cycles = args[-1]
                now = now + cycles if how == "by" else cycles
                if kind == "striped":
                    pair.striped(args[0], args[1], now)
                elif kind == "steered":
                    pair.issue(args[0], now, channel=names[args[1] % len(names)])
                else:
                    pair.issue(args[0], now)
            if spec_name in MIXED:
                assert taken["bulk"] == bulk_before

        run()
        assert taken["bulk"] > 0 and taken["scan"] > 0, taken

    @pytest.mark.parametrize("delta, way", [(1, "bulk"), (0, "scan"), (-1, "scan")])
    @pytest.mark.parametrize("spec_name, stripe", [("hbm5", 4), ("hbm32", 16), ("ddr", 2)])
    def test_the_boundary_of_the_condition(self, spec_name, stripe, delta, way):
        """``max(now, busy[0]) + burst`` one above, at and one below
        ``busy[stripe - 1]``, the head being the channel of the smallest
        name.  At equality the head comes back level with an untouched
        channel and wins the tie on its name, so the scan serves it twice
        and the one-step form would be wrong: only ``>`` may take it."""
        pair = _Lockstep(SPECS[spec_name])
        names = sorted(c.name for c in SPECS[spec_name].channels)
        for name in names[1:]:
            pair.issue(pair.bytes_for(40), 0, channel=name)
        assert pair.busy()[:stripe] == [0] + [40] * (stripe - 1)
        burst = 40 + delta
        assert pair.striped(pair.bytes_for(burst) * stripe, stripe, 0) == way
        if way == "scan":
            assert pair.model.channels[names[0]].busy_until > burst

    @pytest.mark.parametrize("now", [3, 9, 100])
    def test_idle_channels_and_ties_out_of_rank_order(self, now):
        """Channels free before ``now`` (all of them at 100) start at
        ``now`` in the order of when they fell idle, not of their names;
        the transfers after it meet ties at ``busy == now`` whose ranks
        are out of order."""
        pair = _Lockstep(SPECS["hbm5"])
        for cycles, name in [(9, "hbm0"), (3, "hbm4"), (5, "hbm2"), (5, "hbm1")]:
            pair.issue(pair.bytes_for(cycles), 0, channel=name)
        assert pair.striped(pair.bytes_for(7) * 4 + 3, 4, now) == "bulk"
        later = max(now, 3) + 7
        assert later in pair.busy()
        assert pair.striped(pair.bytes_for(20) * 5, 5, later) == "bulk"
        pair.striped(pair.bytes_for(1) * 3 + 2, 3, later)

    @pytest.mark.parametrize("spec_name", MIXED)
    def test_unequal_channels_always_scan(self, spec_name):
        pair = _Lockstep(SPECS[spec_name])
        for now in (0, 0, 500, 10_000):
            assert pair.striped((1 << 14) + 1, 4, now) == "scan"

    def test_issue_split_validates(self):
        model = MemorySystemModel(SPECS["hbm5"], CLOCK)
        for n_bytes, stripe, now in [(64, 0, 0), (64, 6, 0), (3, 4, 0), (64, 4, -1)]:
            with pytest.raises(ValueError):
                model.issue_split(n_bytes, stripe, now)
        assert model.total_transactions == 0
