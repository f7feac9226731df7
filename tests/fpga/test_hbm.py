"""Tests for repro.fpga.hbm."""

from __future__ import annotations

import math
import random

import pytest

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
        for name, state in model.channels.items():
            assert vars(state) == ref.channels[name], name

    def test_striped_issue_validates_like_issue(self):
        model = MemorySystemModel(MemorySystemSpec.u280_hbm(4), CLOCK)
        with pytest.raises(ValueError):
            model.issue_striped([64, -1], now=0)
        with pytest.raises(ValueError):
            model.issue_striped([64], now=-1)
        assert model.issue_striped([], now=0) == []
        assert model.total_transactions == 0
