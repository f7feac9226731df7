"""Tests for the MPE and SFU timing models."""

from __future__ import annotations

import pytest

from repro.accel.config import MPEConfig, SFUConfig
from repro.accel.mpe import MPETimingModel, TileShape
from repro.accel.sfu import SFUTimingModel
from repro.graph.builder import build_decode_graph
from repro.graph.ops import Operator, OpKind


class TestTileShape:
    def test_macs(self):
        assert TileShape(out_rows=8, in_features=16).macs == 128

    def test_validation(self):
        with pytest.raises(ValueError):
            TileShape(out_rows=0, in_features=4)


class TestMPETimingModel:
    @pytest.fixture
    def mpe(self):
        return MPETimingModel(MPEConfig(rows=16, cols=8, pipeline_depth=4))

    def test_split_matvec_covers_all_rows(self, mpe):
        runs = mpe.split_matvec(40, 64)
        assert runs == [(TileShape(16, 64), 2), (TileShape(8, 64), 1)]
        assert sum(n * t.macs for t, n in runs) == 40 * 64

    def test_single_tile_when_small(self, mpe):
        assert mpe.split_matvec(8, 32) == [(TileShape(8, 32), 1)]

    def test_tile_cycles_reduction_passes(self, mpe):
        tile = TileShape(out_rows=16, in_features=64)
        assert mpe.tile_cycles(tile) == 64 // 8 + 4

    def test_bigger_array_is_faster(self):
        def matvec_cycles(mpe):
            return sum(n * mpe.tile_cycles(t) for t, n in mpe.split_matvec(512, 512))

        small = MPETimingModel(MPEConfig(rows=16, cols=8))
        big = MPETimingModel(MPEConfig(rows=64, cols=32))
        assert matvec_cycles(big) < matvec_cycles(small)

    def test_invalid_dimensions(self, mpe):
        with pytest.raises(ValueError):
            mpe.split_matvec(0, 8)


class TestSFUTimingModel:
    @pytest.fixture
    def sfu(self):
        return SFUTimingModel(SFUConfig(lanes=8, op_latency=4))

    def test_rmsnorm_two_passes(self, sfu):
        assert sfu.rmsnorm_cycles(64) == 2 * 8 + 4

    def test_softmax_three_passes(self, sfu):
        assert sfu.softmax_cycles(64) == 3 * 8 + 4

    def test_elementwise_single_pass(self, sfu):
        assert sfu.elementwise_cycles(64) == 8 + 4
        assert sfu.silu_cycles(64) == 8 + 4
        assert sfu.rope_cycles(64) == 8 + 4

    def test_more_lanes_is_faster(self):
        narrow = SFUTimingModel(SFUConfig(lanes=4))
        wide = SFUTimingModel(SFUConfig(lanes=32))
        assert wide.rmsnorm_cycles(512) < narrow.rmsnorm_cycles(512)

    def test_negative_elements_rejected(self, sfu):
        with pytest.raises(ValueError):
            sfu.silu_cycles(-1)

    def test_op_cycles_for_every_sfu_kind(self, sfu, micro_config):
        graph = build_decode_graph(micro_config, 2)
        sfu_kinds = {OpKind.RMSNORM, OpKind.SOFTMAX, OpKind.ROPE, OpKind.SILU,
                     OpKind.MUL, OpKind.ADD, OpKind.KV_APPEND, OpKind.EMBED}
        seen = set()
        for op in graph:
            if op.kind in sfu_kinds:
                assert sfu.op_cycles(op) > 0
                seen.add(op.kind)
        assert seen == sfu_kinds

    def test_op_cycles_rejects_matmul(self, sfu):
        op = Operator(name="m", kind=OpKind.MATMUL, inputs=["a"], outputs=["b"])
        with pytest.raises(ValueError):
            sfu.op_cycles(op)
