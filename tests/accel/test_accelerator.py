"""Tests for the top-level SpeedLLMAccelerator."""

from __future__ import annotations

import dataclasses
import math

import numpy as np
import pytest

import repro.accel.accelerator as accelerator_module
from repro.accel.accelerator import SpeedLLMAccelerator
from repro.accel.batching import BatchSlot
from repro.accel.compiler import ProgramCompiler
from repro.accel.config import AcceleratorConfig, MPEConfig
from repro.accel.variants import PAPER_VARIANTS
from repro.accel.dse import DesignSpace, DesignSpaceExplorer
from repro.cli import main
from repro.core.runner import ExperimentConfig, ExperimentRunner
from repro.fpga.resources import ResourceError
from repro.fpga.u280 import u280
from repro.graph.builder import GraphBuilder
from repro.graph.fusion import fuse_graph
from repro.llama.checkpoint import Checkpoint
from repro.llama.evaluate import cross_entropy, divergence_report
from repro.llama.generation import generate as reference_generate
from repro.llama.kv_cache import KVCache
from repro.llama.model import LlamaModel
from repro.llama.quantization import QuantSpec, dequantize, quantize
from repro.llama.sampler import Sampler
from repro.quant import QuantConfig, resolve_quant


@pytest.fixture(scope="module")
def accel(small_checkpoint):
    return SpeedLLMAccelerator(small_checkpoint, AcceleratorConfig())


def _step_graph(accel, context_len):
    """The per-context build of one step graph: the oracle of the
    compiler's template-and-window lowering."""
    graph = GraphBuilder(accel.model_config, quant=accel.config.quant
                         ).build_decode_step(context_len)
    return fuse_graph(graph) if accel.config.operator_fusion else graph


class TestCompilationCaches:
    def test_program_is_the_per_context_build(self, accel):
        program = accel.timing.lower(3)
        reference = ProgramCompiler(accel.config).compile(_step_graph(accel, 3))
        assert program.ops == reference.ops
        assert accel.timing.lower(4) is not program

    def test_program_cached(self, accel):
        assert accel.timing.lower(2) is accel.timing.lower(2)

    def test_fusion_respected(self, small_checkpoint):
        fused = SpeedLLMAccelerator(small_checkpoint, AcceleratorConfig.variant("full"))
        unfused = SpeedLLMAccelerator(small_checkpoint, AcceleratorConfig.variant("no-fusion"))
        assert len(fused.timing.lower(2)) == len(_step_graph(fused, 2))
        assert len(unfused.timing.lower(2)) == len(_step_graph(unfused, 2))
        assert len(fused.timing.lower(2)) < len(unfused.timing.lower(2))

    def test_step_result_cached(self, accel):
        timing = accel.timing
        assert timing.simulate_step([1]) is timing.simulate_step([1])


class TestResourceReport:
    def test_design_fits_u280(self, accel):
        report = accel.resource_report()
        assert all(report.fraction(name) < 1.0 for name in report.total.as_dict())
        assert report.fraction("dsp") > 0

    @pytest.mark.parametrize("variant", sorted(PAPER_VARIANTS))
    def test_report_counts_the_footprint_dse_fits(self, small_checkpoint, variant):
        """One total per design: the report's ``used`` is the footprint
        the design-space explorer fits, controller included."""
        config = AcceleratorConfig.variant(variant)
        report = SpeedLLMAccelerator(small_checkpoint, config).resource_report()
        assert report.used == config.resources()
        assert report.total == u280().resources

    def test_oversized_mpe_raises(self, small_checkpoint):
        config = AcceleratorConfig(mpe=MPEConfig(rows=256, cols=256))
        assert not config.resources().fits_in(u280().resources)
        with pytest.raises(ResourceError, match="exceeds"):
            SpeedLLMAccelerator(small_checkpoint, config).resource_report()


class TestSimulateGeneration:
    def test_metrics_structure(self, accel):
        m = accel.simulate_generation(n_prompt=4, n_generated=8)
        assert m.n_prompt == 4 and m.n_generated == 8
        assert m.prefill_cycles > 0 and m.decode_cycles > 0
        assert m.total_cycles == m.prefill_cycles + m.decode_cycles
        assert m.total_seconds > 0
        assert m.decode_tokens_per_second > 0
        assert m.tokens_per_joule > 0
        assert m.average_power_w > 0
        assert m.counters.hbm_bytes > 0
        assert 0 < m.mean_mpe_utilization <= 1
        assert set(m.as_dict()) >= {"variant", "total_cycles", "tokens_per_joule"}

    def test_more_tokens_take_longer(self, accel):
        short = accel.simulate_generation(n_prompt=4, n_generated=4)
        long = accel.simulate_generation(n_prompt=4, n_generated=16)
        assert long.total_cycles > short.total_cycles

    @pytest.mark.parametrize("variant", sorted(PAPER_VARIANTS))
    def test_stride_approximates_exact_simulation(self, small_checkpoint, variant):
        """The interpolation the paper headline rests on, bounded: over
        the whole test-small window, every stride in use stays within
        0.5 % of simulating every position (0.41 % at worst when this was
        pinned, ``full`` at stride 64) and moves no HBM byte."""
        accel = SpeedLLMAccelerator(small_checkpoint,
                                    AcceleratorConfig.variant(variant))
        window = small_checkpoint.config.max_seq_len
        for n_prompt in (1, 16):
            exact = accel.simulate_generation(n_prompt, window - n_prompt,
                                              position_stride=1)
            for stride in (8, 32, 64):
                strided = accel.simulate_generation(
                    n_prompt, window - n_prompt, position_stride=stride)
                assert strided.total_cycles == pytest.approx(
                    exact.total_cycles, rel=0.005)
                assert strided.decode_seconds == pytest.approx(
                    exact.decode_seconds, rel=0.005)
                assert strided.energy.total_j == pytest.approx(
                    exact.energy.total_j, rel=0.005)
                assert strided.counters.hbm_bytes == exact.counters.hbm_bytes

    def test_strided_utilization_weights_each_sample_by_its_positions(self, accel):
        """At stride 8 over 28 positions the last sample (27) stands for
        about 2 positions and an inner one for 8; each counts for that."""
        m = accel.simulate_generation(n_prompt=4, n_generated=24, position_stride=8)
        sampled = accel._sample_positions(28, 8)
        weights = accel._position_weights(28, sampled)
        utilization = {pos: accel.timing.simulate_step([pos]).mpe_utilization
                       for pos in sampled}
        weighted = sum(weights[p] * utilization[p] for p in sampled) / 28
        unweighted = sum(utilization.values()) / len(sampled)
        assert abs(weighted - unweighted) > 1e-4
        assert m.mean_mpe_utilization == pytest.approx(weighted, rel=1e-12)

    def test_unit_stride_utilization_is_the_plain_mean(self, accel):
        m = accel.simulate_generation(n_prompt=3, n_generated=5)
        utilizations = [accel.timing.simulate_step([p]).mpe_utilization
                        for p in range(8)]
        assert m.mean_mpe_utilization == float(np.mean(utilizations))

    def test_invalid_workloads_rejected(self, accel, small_config):
        with pytest.raises(ValueError):
            accel.simulate_generation(n_prompt=0, n_generated=4)
        with pytest.raises(ValueError):
            accel.simulate_generation(n_prompt=4, n_generated=-1)
        with pytest.raises(ValueError):
            accel.simulate_generation(n_prompt=4, n_generated=small_config.max_seq_len)
        with pytest.raises(ValueError):
            accel.simulate_generation(n_prompt=4, n_generated=4, position_stride=0)

    def test_quantized_vs_float_functional_weights(self, small_checkpoint):
        quantized = SpeedLLMAccelerator(small_checkpoint, AcceleratorConfig())
        unquantized = SpeedLLMAccelerator(
            small_checkpoint, AcceleratorConfig(quant=QuantConfig.fp32()))
        name = "layers.0.attention.wq.weight"
        assert not np.array_equal(
            quantized._functional_weights[name], small_checkpoint.weights[name]
        )
        assert np.array_equal(
            unquantized._functional_weights[name], small_checkpoint.weights[name]
        )
        # quantisation error stays small
        err = np.abs(quantized._functional_weights[name]
                     - small_checkpoint.weights[name]).max()
        assert err < 0.01


class TestGenerate:
    def test_tokens_match_reference_engine(self, small_checkpoint):
        """Greedy decode through the accelerator equals the NumPy engine."""
        accel = SpeedLLMAccelerator(
            small_checkpoint, AcceleratorConfig(quant=QuantConfig.fp32()))
        model = LlamaModel(small_checkpoint)
        prompt = [1, 20, 7]
        accel_out = accel.generate(prompt, max_new_tokens=10, position_stride=4)
        ref_out = reference_generate(model, prompt, max_new_tokens=10)
        assert accel_out.generated_tokens == ref_out.generated_tokens

    def test_generation_reports_metrics(self, accel):
        out = accel.generate([1, 5], max_new_tokens=6, position_stride=4)
        assert out.n_generated <= 6
        assert out.metrics.n_generated == out.n_generated
        assert out.metrics.total_seconds > 0

    def test_stochastic_sampling_reproducible(self, accel):
        a = accel.generate([1, 5], max_new_tokens=6,
                           sampler=Sampler(temperature=0.8, seed=3), position_stride=4)
        b = accel.generate([1, 5], max_new_tokens=6,
                           sampler=Sampler(temperature=0.8, seed=3), position_stride=4)
        assert a.generated_tokens == b.generated_tokens

    def test_accelerator_is_a_model(self, accel):
        """``forward`` + ``new_cache`` are all the llama loops ask of a
        model, so they score the accelerator like the reference engine
        over its functional weights."""
        reference = LlamaModel(accel.functional_checkpoint())
        sequences = [[1, 9, 33, 7, 12, 40, 3], [2, 5, 5, 8]]
        assert accel.new_cache().capacity == reference.new_cache().capacity
        assert cross_entropy(accel, sequences) == pytest.approx(
            cross_entropy(reference, sequences), rel=1e-6)
        report = divergence_report(accel, reference, sequences)
        assert report.n_agreements == report.n_positions == 9
        assert report.max_logit_drift < 1e-4

    def test_empty_prompt_rejected(self, accel):
        with pytest.raises(ValueError):
            accel.generate([], max_new_tokens=4)

    def test_prompt_too_long_rejected(self, accel, small_config):
        with pytest.raises(ValueError):
            accel.generate(list(range(small_config.max_seq_len)), max_new_tokens=1)


def _eager_weights(checkpoint, weight_bits=8, quant=None,
                   quantize_weights=True):
    """Functional weights as the constructor computed them when it did so
    eagerly, and when three knobs chose a precision — a datapath
    ``weight_bits``, an optional serving ``QuantConfig`` superseding it,
    and a ``quantize_weights`` switch: the reference the lazily built
    ones, chosen by ``AcceleratorConfig.quant`` alone, must equal."""
    model = checkpoint.config
    if quantize_weights and quant is not None:
        def spec_for(name, tensor):
            return quant.spec_for(
                name, ndim=tensor.ndim,
                classifier=(model.shared_classifier
                            and name == "tok_embeddings.weight"))
    elif quantize_weights and weight_bits < 32:
        group = math.gcd(math.gcd(model.dim, model.resolved_hidden_dim()), 64)
        uniform = QuantSpec(bits=weight_bits, group_size=group or 1)

        def spec_for(name, tensor):
            return uniform if tensor.ndim >= 2 else None
    else:
        return dict(checkpoint.weights)
    return {
        name: tensor if spec_for(name, tensor) is None
        else dequantize(quantize(tensor, spec_for(name, tensor)))
        for name, tensor in checkpoint.weights.items()
    }


class TestValuesStayOutsideTheCompiler:
    def test_functional_pass_does_no_compiler_work(self, small_checkpoint,
                                                   small_config):
        """Values come from one graph built outside the compiler, so a
        functional step leaves every accounted phase untouched."""
        accel = SpeedLLMAccelerator(small_checkpoint, AcceleratorConfig())
        cache = KVCache(small_config)
        outputs = accel.execute_slots([
            BatchSlot(token=1, pos=0, cache=cache, need_logits=False),
            BatchSlot(token=9, pos=1, cache=cache, need_logits=False),
            BatchSlot(token=33, pos=2, cache=cache),
        ])
        assert [out.shape for out in outputs] == [
            (small_config.dim,), (small_config.dim,),
            (small_config.vocab_size,)]
        assert "_value_graph" in vars(accel)
        assert not any(accel.timing.phase_seconds.values())

    def test_config_built_accelerator_times_alike_and_computes_nothing(
            self, small_config, small_checkpoint):
        config = AcceleratorConfig.variant("no-reuse")
        timing_only = SpeedLLMAccelerator(small_config, config)
        assert timing_only.simulate_generation(
            n_prompt=3, n_generated=5, position_stride=2
        ) == SpeedLLMAccelerator(small_checkpoint, config).simulate_generation(
            n_prompt=3, n_generated=5, position_stride=2)
        assert timing_only.resource_report().used == config.resources()
        cache = timing_only.new_cache()
        for call in (lambda: timing_only.forward(1, 0, cache),
                     lambda: timing_only.execute_slots([BatchSlot(1, 0, cache)]),
                     lambda: timing_only.generate([1, 2], 2),
                     timing_only.functional_checkpoint):
            with pytest.raises(ValueError, match="needs a checkpoint"):
                call()
        assert cache.length == 0

    def test_timing_only_run_builds_no_value_graph(self, small_checkpoint):
        accel = SpeedLLMAccelerator(small_checkpoint, AcceleratorConfig())
        accel.simulate_generation(n_prompt=2, n_generated=2)
        assert "_value_graph" not in vars(accel)

    @pytest.fixture
    def quantize_calls(self, monkeypatch):
        calls = []

        def counting(tensor, spec):
            calls.append(spec)
            return quantize(tensor, spec)

        monkeypatch.setattr(accelerator_module, "quantize", counting)
        return calls

    def test_timing_only_run_quantises_nothing(self, small_checkpoint,
                                               quantize_calls):
        accel = SpeedLLMAccelerator(small_checkpoint, AcceleratorConfig())
        accel.simulate_generation(n_prompt=2, n_generated=2)
        assert quantize_calls == []
        accel.forward(1, 0, KVCache(small_checkpoint.config))
        n_matrices = sum(t.ndim >= 2 for t in small_checkpoint.weights.values())
        assert len(quantize_calls) == n_matrices
        accel.forward(2, 0, KVCache(small_checkpoint.config))
        accel.functional_checkpoint()
        assert len(quantize_calls) == n_matrices

    def test_design_space_exploration_quantises_nothing(self, quantize_calls):
        explorer = DesignSpaceExplorer(ExperimentRunner(
            ExperimentConfig(model="test-small", n_prompt=4, n_generated=8,
                             position_stride=4)))
        results = explorer.explore(DesignSpace(
            mpe_shapes=((32, 16),), buffer_segments=(4,), hbm_stripes=(8, 16)))
        assert [r.simulated for r in results] == [True, True]
        assert quantize_calls == []

    def test_timing_only_paths_build_no_checkpoint(self, monkeypatch,
                                                   capsys):
        """The paper experiment, DSE and ``speedllm bench`` simulate from
        the model config: none of them synthesises a weight."""
        def refuse(checkpoint):
            raise AssertionError("a timing-only path built a checkpoint")

        monkeypatch.setattr(Checkpoint, "__post_init__", refuse)
        config = ExperimentConfig(model="stories15M", n_prompt=4,
                                  n_generated=8, position_stride=8)
        assert len(ExperimentRunner(config).run_all()) == len(config.variants)
        explorer = DesignSpaceExplorer(ExperimentRunner(dataclasses.replace(
            config, model="test-small")))
        results = explorer.explore(DesignSpace(
            mpe_shapes=((32, 16),), buffer_segments=(4,), hbm_stripes=(8, 16)))
        assert [r.simulated for r in results] == [True, True]
        assert main(["bench", "--model", "test-small", "--prompt-tokens", "4",
                     "--tokens", "8", "--stride", "4"]) == 0
        assert "headline" in capsys.readouterr().out

    @pytest.mark.parametrize("quant, knobs", [
        (QuantConfig.datapath(), {}),
        (resolve_quant("int4", group_size=32),
         {"quant": resolve_quant("int4", group_size=32)}),
        (QuantConfig.fp32(),
         {"quant": resolve_quant("int8"), "quantize_weights": False}),
        (QuantConfig.fp32(), {"quantize_weights": False}),
        (QuantConfig.datapath(4), {"weight_bits": 4}),
        (QuantConfig.datapath(16), {"weight_bits": 16}),
        (QuantConfig.fp32(), {"weight_bits": 32}),
    ], ids=["weight-bits-int8", "quant-config-int4", "quant-config-off", "off",
            "weight-bits-int4", "weight-bits-16", "weight-bits-32"])
    def test_lazy_weights_equal_the_eager_ones(self, small_checkpoint, quant,
                                               knobs):
        accel = SpeedLLMAccelerator(small_checkpoint,
                                    AcceleratorConfig(quant=quant))
        accel.simulate_generation(n_prompt=2, n_generated=2)
        lazy = accel.functional_checkpoint().weights
        eager = _eager_weights(small_checkpoint, **knobs)
        assert list(lazy) == list(eager)
        for name in eager:
            assert np.array_equal(lazy[name], eager[name]), name
        changed = any(not np.array_equal(lazy[name], tensor)
                      for name, tensor in small_checkpoint.weights.items())
        assert changed == (quant != QuantConfig.fp32())
