"""Tests for repro.graph.ops."""

from __future__ import annotations

import pytest

from repro.graph.ops import ComputeUnit, Operator, OpKind, TensorSpec


class TestTensorSpec:
    def test_nbytes(self):
        spec = TensorSpec(name="x", shape=(4, 8), dtype_bytes=4)
        assert spec.n_elements == 32
        assert spec.nbytes == 128

    def test_quantized_weight_bytes(self):
        spec = TensorSpec(name="w", shape=(16, 16), dtype_bytes=1, is_weight=True)
        assert spec.nbytes == 256

    def test_empty_name_rejected(self):
        with pytest.raises(ValueError):
            TensorSpec(name="", shape=(1,))

    def test_non_positive_dim_rejected(self):
        with pytest.raises(ValueError):
            TensorSpec(name="x", shape=(4, 0))

    def test_bad_dtype_rejected(self):
        with pytest.raises(ValueError):
            TensorSpec(name="x", shape=(4,), dtype_bytes=3)

    def test_bad_residency_rejected(self):
        with pytest.raises(ValueError):
            TensorSpec(name="x", shape=(4,), resident="cloud")


class TestOpKindUnits:
    @pytest.mark.parametrize("kind", [OpKind.MATMUL, OpKind.ATTN_SCORE, OpKind.ATTN_CONTEXT])
    def test_matmul_like_on_mpe(self, kind):
        assert kind.default_unit is ComputeUnit.MPE

    @pytest.mark.parametrize("kind", [
        OpKind.RMSNORM, OpKind.SOFTMAX, OpKind.ROPE, OpKind.SILU,
        OpKind.MUL, OpKind.ADD,
    ])
    def test_vector_ops_on_sfu(self, kind):
        assert kind.default_unit is ComputeUnit.SFU

    @pytest.mark.parametrize("kind", [OpKind.EMBED, OpKind.KV_APPEND])
    def test_data_movement_on_dma(self, kind):
        assert kind.default_unit is ComputeUnit.DMA


class TestOperator:
    def test_cost_accessors(self):
        op = Operator(name="m", kind=OpKind.MATMUL, inputs=["a", "w"],
                      outputs=["b"], flops=128, weight_bytes=64)
        assert op.total_flops() == 128
        assert op.total_weight_bytes() == 64
        assert op.member_kinds() == (OpKind.MATMUL,)

    def test_requires_output(self):
        with pytest.raises(ValueError):
            Operator(name="m", kind=OpKind.MATMUL, inputs=["a"], outputs=[])

    def test_requires_name(self):
        with pytest.raises(ValueError):
            Operator(name="", kind=OpKind.ADD, inputs=["a"], outputs=["b"])

    def test_negative_cost_rejected(self):
        with pytest.raises(ValueError):
            Operator(name="m", kind=OpKind.ADD, inputs=["a"], outputs=["b"], flops=-1)

    def test_fused_aggregates_members(self):
        m1 = Operator(name="m1", kind=OpKind.MATMUL, inputs=["a", "w"],
                      outputs=["b"], flops=100, weight_bytes=50)
        m2 = Operator(name="m2", kind=OpKind.SILU, inputs=["b"],
                      outputs=["c"], flops=10)
        fused = Operator(name="f", kind=OpKind.FUSED, inputs=["a", "w"],
                         outputs=["c"], fused_ops=[m1, m2])
        assert fused.total_flops() == 110
        assert fused.total_weight_bytes() == 50
        assert fused.member_kinds() == (OpKind.MATMUL, OpKind.SILU)
        assert fused.unit is ComputeUnit.MPE

    def test_fused_sfu_only_region_runs_on_sfu(self):
        m1 = Operator(name="s", kind=OpKind.SILU, inputs=["a"], outputs=["b"], flops=4)
        m2 = Operator(name="m", kind=OpKind.MUL, inputs=["b"], outputs=["c"], flops=4)
        fused = Operator(name="f", kind=OpKind.FUSED, inputs=["a"],
                         outputs=["c"], fused_ops=[m1, m2])
        assert fused.unit is ComputeUnit.SFU

    def test_explicit_unit_override(self):
        op = Operator(name="m", kind=OpKind.ADD, inputs=["a"], outputs=["b"],
                      attributes={"unit": ComputeUnit.MPE})
        assert op.unit is ComputeUnit.MPE
