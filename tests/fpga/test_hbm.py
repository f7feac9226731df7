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

    @staticmethod
    def _issue(model, n_bytes, now):
        """One single-stripe transfer: ``(completion, channel name)``."""
        return model.stripes(model.issue_split(n_bytes, 1, now)[1])[0]

    def test_issue_returns_latency_plus_burst(self):
        model = self._model(1)
        completion, name = self._issue(model, 1024, now=0)
        spec = MemorySystemSpec.u280_hbm(1).channels[0]
        burst = -(-1024 // int(spec.bytes_per_cycle(CLOCK)))
        assert name == "hbm0"
        assert completion >= spec.access_latency_cycles
        assert completion <= spec.access_latency_cycles + burst + 2

    def test_back_to_back_transfers_pipeline_latency(self):
        """Two requests on one channel overlap their access latencies."""
        model = self._model(1)
        # 1 KiB bursts are much shorter than the 64-cycle access latency.
        first, _ = self._issue(model, 1024, now=0)
        second, _ = self._issue(model, 1024, now=0)
        spec = MemorySystemSpec.u280_hbm(1).channels[0]
        # The second completes one burst after the first (latency hidden),
        # not one full latency+burst after it.
        assert second - first < spec.access_latency_cycles
        assert second > first

    def test_transfers_spread_across_channels(self):
        model = self._model(4)
        names = {self._issue(model, 1024, now=0)[1] for _ in range(4)}
        assert len(names) == 4

    def test_ties_break_by_lexicographic_channel_name(self):
        """Equally busy channels are picked in *name* order, so ``hbm10``
        comes before ``hbm2``; every committed cycle count depends on
        this sequence."""
        model = self._model(32)
        picked = [self._issue(model, 64, now=0)[1] for _ in range(16)]
        assert picked == [
            "hbm0", "hbm1", "hbm10", "hbm11", "hbm12", "hbm13", "hbm14",
            "hbm15", "hbm16", "hbm17", "hbm18", "hbm19", "hbm2", "hbm20",
            "hbm21", "hbm22",
        ]

    def test_contention_serialises_on_one_channel(self):
        model = self._model(1)
        first, _ = self._issue(model, 1 << 16, now=0)
        second, _ = self._issue(model, 1 << 16, now=0)
        assert second > first

    def test_striping_is_faster_than_one_channel(self):
        one, eight = self._model(8), self._model(8)
        assert eight.issue_split(1 << 20, 8, now=0)[0] < one.issue_split(1 << 20, 1, now=0)[0]

    def test_transactions_count_stripes(self):
        model = self._model(2)
        model.issue_split(1 << 16, 1, now=0)
        model.issue_split(1 << 16, 2, now=0)
        assert model.total_transactions == 3
        assert model.totals() == (3,)

    def test_negative_args_rejected(self):
        model = self._model(1)
        with pytest.raises(ValueError):
            model.issue_split(-1, 1, now=0)
        with pytest.raises(ValueError):
            model.issue_split(1, 1, now=-1)

    @pytest.mark.parametrize("bandwidths, latencies", [
        ((14.375, 7.1875), (64, 64)), ((14.375, 14.375), (64, 160)),
    ], ids=["two-bandwidths", "two-latencies"])
    def test_mixed_channels_are_refused(self, bandwidths, latencies):
        """Every spec a caller builds is uniform; one that is not has no
        model."""
        spec = MemorySystemSpec(channels=tuple(
            MemoryChannelSpec(f"c{i}", bandwidths[i % 2], latencies[i % 2], 1 << 28)
            for i in range(4)))
        with pytest.raises(ValueError, match="one bandwidth and one access latency"):
            MemorySystemModel(spec, CLOCK)


class _ScanReference:
    """The arbitration as it was first written: a rescan of every channel
    with ``min`` over ``(busy_until, name)`` per transfer.  The oracle
    :class:`MemorySystemModel`'s ordered structure is checked against.
    It can still steer a transfer to a named channel, which the tests use
    to place channels where they want them (the model steers nothing)."""

    def __init__(self, spec, clock_hz):
        self.spec, self.clock_hz = spec, clock_hz
        self.channels = {c.name: dict(spec=c, busy_until=0, n_transactions=0)
                         for c in self.spec.channels}

    def issue(self, n_bytes, now, channel=None):
        state = self.channels[channel] if channel is not None else min(
            self.channels.values(), key=lambda s: (s["busy_until"], s["spec"].name))
        if n_bytes == 0:
            return now, state["spec"].name
        start = max(now, state["busy_until"])
        burst = math.ceil(n_bytes / state["spec"].bytes_per_cycle(self.clock_hz))
        state["busy_until"] = start + burst
        state["n_transactions"] += 1
        return start + state["spec"].access_latency_cycles + burst, state["spec"].name


def _busy_until(model):
    """Every channel's ``busy_until``, read off the model's arbitration order."""
    n = len(model._names)
    return {model._names[key % n]: key // n for key in model._order}


def _assert_same_record(model, ref):
    """Per-channel ``busy_until`` and the model's transaction total against
    the reference's per-channel ledger."""
    assert _busy_until(model) == {name: state["busy_until"]
                                  for name, state in ref.channels.items()}
    assert model.total_transactions == sum(
        s["n_transactions"] for s in ref.channels.values())


def _split(n_bytes, stripe):
    """The stripe sizes :meth:`MemorySystemModel.issue_split` issues."""
    chunk = n_bytes // stripe
    return [chunk] * (stripe - 1) + [n_bytes - chunk * (stripe - 1)]


class TestArbitrationMatchesTheScan:
    @pytest.mark.parametrize("spec", [
        MemorySystemSpec.u280_hbm(1), MemorySystemSpec.u280_hbm(2),
        MemorySystemSpec.u280_hbm(5), MemorySystemSpec.u280_hbm(32),
        MemorySystemSpec.u280_ddr(),
    ], ids=["hbm1", "hbm2", "hbm5", "hbm32", "ddr"])
    def test_random_operations(self, spec):
        """Same ``(completion, name)`` for every stripe and the same
        per-channel record at the end, whatever mix of one-stripe and
        striped transfers and fresh starts came before; a one-stripe
        ``issue_split`` is exactly one transfer of the scan."""
        rng = random.Random(spec.n_channels)
        model, ref = MemorySystemModel(spec, CLOCK), _ScanReference(spec, CLOCK)
        now = 0
        for step in range(5000):
            now = rng.choice([now, now, now + rng.randrange(40),
                              rng.randrange(1 << 16)])
            n_bytes = rng.choice([1, 63, 64, 4096, 1 + rng.randrange(1 << 20)])
            op = rng.random()
            if op < 0.002:
                model, ref = MemorySystemModel(spec, CLOCK), _ScanReference(spec, CLOCK)
                continue
            stripe = 1 if op < 0.6 else rng.randrange(1, min(spec.n_channels, n_bytes) + 1)
            expected = [ref.issue(size, now) for size in _split(n_bytes, stripe)]
            latest, picks = model.issue_split(n_bytes, stripe, now)
            assert model.stripes(picks) == expected, step
            assert latest == max(expected)[0], step
        assert model.total_transactions > 0
        _assert_same_record(model, ref)


SPECS = {
    "hbm1": MemorySystemSpec.u280_hbm(1), "hbm2": MemorySystemSpec.u280_hbm(2),
    "hbm5": MemorySystemSpec.u280_hbm(5), "hbm32": MemorySystemSpec.u280_hbm(32),
    "ddr": MemorySystemSpec.u280_ddr(),
}


class _Lockstep:
    """A model and the scan reference given the same operations, every
    answer and the whole record compared after each.  ``taken`` counts
    which way each :meth:`MemorySystemModel.issue_split` went — in one
    step (``bulk``) or through the per-stripe loop (``scan``) — from
    outside: the model does not know it is being counted."""

    def __init__(self, spec, taken=None):
        self.spec = spec
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

    def place(self, n_bytes, now, channel):
        """Steer a transfer to ``channel`` on the reference and rebuild the
        model's order from the reference's channels."""
        self.ref.issue(n_bytes, now, channel)
        names, n = sorted(self.ref.channels), self.n
        self.model._order = sorted(self.ref.channels[name]["busy_until"] * n + rank
                                   for rank, name in enumerate(names))
        self.model.total_transactions = sum(
            state["n_transactions"] for state in self.ref.channels.values())
        self.check()

    def restart(self):
        """A fresh model and reference, the counts kept."""
        self.__init__(self.spec, self.taken)

    def striped(self, n_bytes, stripe, now):
        """One transfer issued as the executor issues it — over one channel
        when it has fewer bytes than stripes, not at all when it has none;
        returns the way it went (None when it went through no split)."""
        stripe = min(stripe, self.n)
        if n_bytes == 0:
            return None
        split = stripe if n_bytes >= stripe else 1
        expected = [self.ref.issue(size, now) for size in _split(n_bytes, split)]
        before = self.scans
        latest, picks = self.model.issue_split(n_bytes, split, now)
        assert self.model.stripes(picks) == expected
        assert latest == max(expected)[0]
        way = None
        if split > 1:
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
    st.tuples(st.just("placed"), st.integers(1, 1 << 20), st.integers(0, 31), _MOVES),
    st.just(("restart",)),
), max_size=40)


class TestStripedTransferIsOneStep:
    def test_executor_shaped_transfers_match_the_scan(self):
        """Generated mixes of striped transfers (any stripe count, sizes
        below the stripe count and off multiples of it), transfers aimed
        at the bulk-step condition's boundary, channels placed by hand
        and fresh starts, ``now`` moving either way: every stripe's
        ``(completion, name)``, every channel's ``busy_until`` and the
        transaction total are the scan's.  The example budget is the
        profile's."""
        taken = Counter()

        @given(st.sampled_from(sorted(SPECS)), _OPERATIONS)
        def run(spec_name, operations):
            pair = _Lockstep(SPECS[spec_name], taken)
            names = [c.name for c in SPECS[spec_name].channels]
            now = 0
            for kind, *args in operations:
                if kind == "restart":
                    pair.restart()
                    continue
                if kind == "boundary":
                    pair.on_the_boundary(*args)
                    continue
                how, cycles = args[-1]
                now = now + cycles if how == "by" else cycles
                if kind == "striped":
                    pair.striped(args[0], args[1], now)
                else:
                    pair.place(args[0], now, names[args[1] % len(names)])

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
            pair.place(pair.bytes_for(40), 0, name)
        assert pair.busy()[:stripe] == [0] + [40] * (stripe - 1)
        burst = 40 + delta
        assert pair.striped(pair.bytes_for(burst) * stripe, stripe, 0) == way
        if way == "scan":
            assert _busy_until(pair.model)[names[0]] > burst

    @pytest.mark.parametrize("now", [3, 9, 100])
    def test_idle_channels_and_ties_out_of_rank_order(self, now):
        """Channels free before ``now`` (all of them at 100) start at
        ``now`` in the order of when they fell idle, not of their names;
        the transfers after it meet ties at ``busy == now`` whose ranks
        are out of order."""
        pair = _Lockstep(SPECS["hbm5"])
        for cycles, name in [(9, "hbm0"), (3, "hbm4"), (5, "hbm2"), (5, "hbm1")]:
            pair.place(pair.bytes_for(cycles), 0, name)
        assert pair.striped(pair.bytes_for(7) * 4 + 3, 4, now) == "bulk"
        later = max(now, 3) + 7
        assert later in pair.busy()
        assert pair.striped(pair.bytes_for(20) * 5, 5, later) == "bulk"
        pair.striped(pair.bytes_for(1) * 3 + 2, 3, later)

    def test_issue_split_validates(self):
        model = MemorySystemModel(SPECS["hbm5"], CLOCK)
        for n_bytes, stripe, now in [(64, 0, 0), (64, 6, 0), (3, 4, 0), (64, 4, -1),
                                     (0, 1, 0)]:
            with pytest.raises(ValueError):
                model.issue_split(n_bytes, stripe, now)
        assert model.total_transactions == 0
