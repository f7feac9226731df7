"""Tests for the instruction set and the graph-to-program compiler."""

from __future__ import annotations

import pytest

from repro.accel.compiler import ProgramCompiler
from repro.accel.config import AcceleratorConfig
from repro.accel.instructions import OpProgram, Program, TilePacket
from repro.graph.builder import build_decode_graph
from repro.graph.fusion import fuse_graph
from repro.graph.ops import ComputeUnit, OpKind
from repro.quant import QuantConfig


class TestTilePacket:
    def test_validation(self):
        with pytest.raises(ValueError):
            TilePacket(unit=ComputeUnit.MPE, load_bytes=-1,
                       compute_cycles=1, store_bytes=0)

    @pytest.mark.parametrize("name", [
        "load_bytes", "compute_cycles", "store_bytes", "macs", "sfu_flops",
        "onchip_bytes", "weight_bytes", "dequant_flops", "saved_bytes"])
    def test_each_negative_count_is_named(self, name):
        fields = dict(unit=ComputeUnit.MPE, load_bytes=8,
                      compute_cycles=1, store_bytes=0)
        fields[name] = -1
        with pytest.raises(ValueError, match=rf"^{name} must be >= 0$"):
            TilePacket(**fields)

    def test_weight_bytes_within_load_bytes(self):
        with pytest.raises(ValueError,
                           match="^weight_bytes cannot exceed load_bytes$"):
            TilePacket(unit=ComputeUnit.MPE, load_bytes=8,
                       compute_cycles=1, store_bytes=0, weight_bytes=9)
        assert TilePacket(unit=ComputeUnit.MPE, load_bytes=8,
                          compute_cycles=0, store_bytes=0,
                          weight_bytes=8).weight_bytes == 8


class TestProgramContainers:
    def test_op_program_aggregates(self):
        packets = [
            TilePacket(unit=ComputeUnit.MPE, load_bytes=100,
                       compute_cycles=10, store_bytes=4, macs=50),
            TilePacket(unit=ComputeUnit.MPE, load_bytes=200,
                       compute_cycles=20, store_bytes=8, macs=70),
        ]
        op = OpProgram(op_name="m", unit=ComputeUnit.MPE, packets=packets)
        totals = op.packets.totals
        assert totals.hbm_read_bytes == 300
        assert totals.hbm_write_bytes == 12
        assert totals.compute_cycles == 30
        assert totals.int8_macs == 120
        assert totals.mpe_tiles == 2 and totals.sfu_ops == 0
        assert len(op) == 2

    def test_program_aggregates(self):
        prog = Program()
        prog.add(OpProgram(op_name="a", unit=ComputeUnit.MPE, packets=[
            TilePacket(unit=ComputeUnit.MPE, load_bytes=10,
                       compute_cycles=5, store_bytes=1, macs=2)]))
        prog.add(OpProgram(op_name="b", unit=ComputeUnit.SFU, packets=[
            TilePacket(unit=ComputeUnit.SFU, load_bytes=20,
                       compute_cycles=7, store_bytes=2, sfu_flops=3)]))
        assert len(list(prog.packets())) == 2
        totals = prog.totals
        assert totals.hbm_read_bytes == 30
        assert totals.hbm_write_bytes == 3
        assert totals.compute_cycles == 12
        assert (totals.int8_macs, totals.sfu_flops) == (2, 3)
        assert (totals.mpe_tiles, totals.sfu_ops) == (1, 1)
        assert Program().totals == (0,) * len(totals)
        assert len(prog.ops) == 2


class TestCompiler:
    @pytest.fixture(scope="class")
    def config(self):
        return AcceleratorConfig()

    @pytest.fixture(scope="class")
    def graph(self, small_config):
        return build_decode_graph(small_config, context_len=4)

    @pytest.fixture(scope="class")
    def program(self, config, graph):
        return ProgramCompiler(config).compile(graph)

    def test_covers_every_graph_op(self, program, graph):
        assert len(program) == len(graph)
        assert {op.op_name for op in program.ops} == {op.name for op in graph}

    def test_matmuls_tile_by_mpe_rows(self, program, graph, config, small_config):
        classifier = next(op for op in program.ops if op.op_name == "classifier")
        expected_tiles = -(-small_config.vocab_size // config.mpe.rows)
        assert len(classifier) == expected_tiles

    def test_load_bytes_cover_weights(self, program, graph):
        # Each matmul tile must stream at least its weight slice.
        assert program.totals.hbm_read_bytes >= graph.total_weight_bytes() * 0.9

    def test_macs_match_graph_flops(self, program, graph):
        mpe_flops = sum(
            op.total_flops() for op in graph
            if op.kind in (OpKind.MATMUL, OpKind.ATTN_SCORE, OpKind.ATTN_CONTEXT)
        )
        assert program.totals.int8_macs == mpe_flops // 2

    def test_sfu_ops_single_packet(self, program, graph):
        for op in graph:
            if op.kind in (OpKind.RMSNORM, OpKind.SOFTMAX, OpKind.SILU):
                compiled = next(p for p in program.ops if p.op_name == op.name)
                assert len(compiled) == 1
                assert compiled.packets[0].unit is ComputeUnit.SFU

    def test_kv_append_stores_only_new_position(self, program, graph, small_config):
        kv = next(p for p in program.ops if p.op_name == "L0.kv_append")
        assert kv.packets.totals.hbm_write_bytes == 2 * small_config.kv_dim * 4

    def test_attention_load_grows_with_context(self, config, small_config):
        compiler = ProgramCompiler(config)
        short = compiler.compile(build_decode_graph(small_config, 1))
        long = compiler.compile(build_decode_graph(small_config, 32))

        def attn_load(prog):
            return sum(op.packets.totals.hbm_read_bytes for op in prog.ops
                       if "attn_score" in op.op_name or "attn_context" in op.op_name)

        assert attn_load(long) > attn_load(short)

    def test_matmul_without_shape_attributes_rejected(self, config):
        from repro.graph.graph import Graph
        from repro.graph.ops import Operator, TensorSpec
        g = Graph()
        g.add_tensor(TensorSpec(name="x", shape=(8,)))
        g.add_tensor(TensorSpec(name="w", shape=(8, 8), is_weight=True))
        g.add_tensor(TensorSpec(name="y", shape=(8,)))
        g.add_operator(Operator(name="m", kind=OpKind.MATMUL,
                                inputs=["x", "w"], outputs=["y"], flops=128))
        with pytest.raises(ValueError, match="shape attributes"):
            ProgramCompiler(config).compile(g)


class TestCompilerOptimizationEffects:
    """The compiler output is where two of the paper's optimizations show up."""

    def test_fusion_reduces_offchip_traffic(self, small_config):
        config = AcceleratorConfig()
        compiler = ProgramCompiler(config)
        graph = build_decode_graph(small_config, 8)
        fused = fuse_graph(graph)
        unfused_prog = compiler.compile(graph)
        fused_prog = compiler.compile(fused)
        assert (fused_prog.totals.hbm_read_bytes + fused_prog.totals.hbm_write_bytes
                < unfused_prog.totals.hbm_read_bytes + unfused_prog.totals.hbm_write_bytes)
        # compute work is preserved
        assert (fused_prog.totals.int8_macs
                == unfused_prog.totals.int8_macs)

    def test_fusion_reduces_packet_count(self, small_config):
        config = AcceleratorConfig()
        compiler = ProgramCompiler(config)
        graph = build_decode_graph(small_config, 8)
        fused = fuse_graph(graph)
        assert (len(list(compiler.compile(fused).packets()))
                <= len(list(compiler.compile(graph).packets())))

    def test_no_reuse_refetches_activations(self, small_config):
        graph = build_decode_graph(small_config, 4)
        with_reuse = ProgramCompiler(AcceleratorConfig.variant("full")).compile(graph)
        without = ProgramCompiler(AcceleratorConfig.variant("no-reuse")).compile(graph)
        assert without.totals.hbm_read_bytes > with_reuse.totals.hbm_read_bytes
        assert (without.totals.int8_macs
                == with_reuse.totals.int8_macs)

    def test_weight_bits_change_load_bytes(self, small_config):
        from repro.graph.builder import GraphBuilder
        int8_cfg = AcceleratorConfig(quant=QuantConfig.datapath(8))
        fp16_cfg = AcceleratorConfig(quant=QuantConfig.datapath(16))
        g8 = GraphBuilder(small_config, quant=int8_cfg.quant).build_decode_step(4)
        g16 = GraphBuilder(small_config, quant=fp16_cfg.quant).build_decode_step(4)
        p8 = ProgramCompiler(int8_cfg).compile(g8)
        p16 = ProgramCompiler(fp16_cfg).compile(g16)
        assert p16.totals.hbm_read_bytes > p8.totals.hbm_read_bytes
