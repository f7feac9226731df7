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
            TilePacket(op_name="x", unit=ComputeUnit.MPE, load_bytes=-1,
                       compute_cycles=1, store_bytes=0)

    def test_moves_data(self):
        p = TilePacket(op_name="x", unit=ComputeUnit.MPE, load_bytes=0,
                       compute_cycles=1, store_bytes=0)
        assert not p.moves_data
        q = TilePacket(op_name="x", unit=ComputeUnit.MPE, load_bytes=8,
                       compute_cycles=1, store_bytes=0)
        assert q.moves_data


class TestProgramContainers:
    def test_op_program_aggregates(self):
        packets = [
            TilePacket(op_name="m", unit=ComputeUnit.MPE, load_bytes=100,
                       compute_cycles=10, store_bytes=4, macs=50),
            TilePacket(op_name="m", unit=ComputeUnit.MPE, load_bytes=200,
                       compute_cycles=20, store_bytes=8, macs=70),
        ]
        op = OpProgram(op_name="m", unit=ComputeUnit.MPE, packets=packets)
        assert op.load_bytes == 300
        assert op.store_bytes == 12
        assert op.compute_cycles == 30
        assert op.macs == 120
        assert len(op) == 2

    def test_program_aggregates_and_grouping(self):
        prog = Program(name="p")
        prog.add(OpProgram(op_name="a", unit=ComputeUnit.MPE, packets=[
            TilePacket(op_name="a", unit=ComputeUnit.MPE, load_bytes=10,
                       compute_cycles=5, store_bytes=1, macs=2)]))
        prog.add(OpProgram(op_name="b", unit=ComputeUnit.SFU, packets=[
            TilePacket(op_name="b", unit=ComputeUnit.SFU, load_bytes=20,
                       compute_cycles=7, store_bytes=2, sfu_flops=3)]))
        assert prog.n_packets == 2
        assert prog.total_load_bytes == 30
        assert prog.total_store_bytes == 3
        assert prog.total_offchip_bytes == 33
        assert prog.total_compute_cycles == 12
        assert set(prog.by_unit()) == {ComputeUnit.MPE, ComputeUnit.SFU}
        assert prog.summary()["n_ops"] == 2


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
        assert program.total_load_bytes >= graph.total_weight_bytes() * 0.9

    def test_macs_match_graph_flops(self, program, graph):
        mpe_flops = sum(
            op.total_flops() for op in graph
            if op.kind in (OpKind.MATMUL, OpKind.ATTN_SCORE, OpKind.ATTN_CONTEXT)
        )
        assert program.total_macs == mpe_flops // 2

    def test_sfu_ops_single_packet(self, program, graph):
        for op in graph:
            if op.kind in (OpKind.RMSNORM, OpKind.SOFTMAX, OpKind.SILU):
                compiled = next(p for p in program.ops if p.op_name == op.name)
                assert len(compiled) == 1
                assert compiled.packets[0].unit is ComputeUnit.SFU

    def test_kv_append_stores_only_new_position(self, program, graph, small_config):
        kv = next(p for p in program.ops if p.op_name == "L0.kv_append")
        assert kv.store_bytes == 2 * small_config.kv_dim * 4

    def test_attention_load_grows_with_context(self, config, small_config):
        compiler = ProgramCompiler(config)
        short = compiler.compile(build_decode_graph(small_config, 1))
        long = compiler.compile(build_decode_graph(small_config, 32))

        def attn_load(prog):
            return sum(op.load_bytes for op in prog.ops
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
        fused = fuse_graph(graph).graph
        unfused_prog = compiler.compile(graph)
        fused_prog = compiler.compile(fused)
        assert fused_prog.total_offchip_bytes < unfused_prog.total_offchip_bytes
        # compute work is preserved
        assert fused_prog.total_macs == unfused_prog.total_macs

    def test_fusion_reduces_packet_count(self, small_config):
        config = AcceleratorConfig()
        compiler = ProgramCompiler(config)
        graph = build_decode_graph(small_config, 8)
        fused = fuse_graph(graph).graph
        assert compiler.compile(fused).n_packets <= compiler.compile(graph).n_packets

    def test_no_reuse_refetches_activations(self, small_config):
        graph = build_decode_graph(small_config, 4)
        with_reuse = ProgramCompiler(AcceleratorConfig.variant("full")).compile(graph)
        without = ProgramCompiler(AcceleratorConfig.variant("no-reuse")).compile(graph)
        assert without.total_load_bytes > with_reuse.total_load_bytes
        assert without.total_macs == with_reuse.total_macs

    def test_weight_bits_change_load_bytes(self, small_config):
        from repro.graph.builder import GraphBuilder
        int8_cfg = AcceleratorConfig(quant=QuantConfig.datapath(8))
        fp16_cfg = AcceleratorConfig(quant=QuantConfig.datapath(16))
        g8 = GraphBuilder(small_config, quant=int8_cfg.quant).build_decode_step(4)
        g16 = GraphBuilder(small_config, quant=fp16_cfg.quant).build_decode_step(4)
        p8 = ProgramCompiler(int8_cfg).compile(g8)
        p16 = ProgramCompiler(fp16_cfg).compile(g16)
        assert p16.total_load_bytes > p8.total_load_bytes
