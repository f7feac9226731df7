"""Tests for the functional graph executor (accelerator vs reference model)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.accel.batching import BatchSlot
from repro.accel.executor import GraphExecutor, _graph_to_checkpoint_name
from repro.graph.builder import GraphBuilder, build_decode_graph
from repro.graph.fusion import fuse_graph
from repro.kvpool import KVPool
from repro.llama.kv_cache import KVCache
from repro.llama.quantization import QuantSpec
from repro.quant import QuantConfig


class TestNameMapping:
    def test_layer_tensor(self):
        assert (_graph_to_checkpoint_name("L3.attention.wq.weight")
                == "layers.3.attention.wq.weight")

    def test_classifier_alias(self):
        assert (_graph_to_checkpoint_name("tok_embeddings.weight(classifier)")
                == "tok_embeddings.weight")

    def test_global_tensor_unchanged(self):
        assert _graph_to_checkpoint_name("norm.weight") == "norm.weight"


class TestGraphExecutorEquivalence:
    @pytest.fixture(scope="class")
    def executor(self, small_checkpoint):
        return GraphExecutor.from_checkpoint(small_checkpoint)

    def _decode_sequence(self, model, executor, config, tokens, fused):
        cache_ref = model.new_cache()
        cache_graph = KVCache(config)
        errors = []
        for pos, token in enumerate(tokens):
            ref = model.forward(token, pos, cache_ref)
            graph = build_decode_graph(config, pos, quant=QuantConfig.fp32())
            if fused:
                graph = fuse_graph(graph).graph
            got = executor.execute(graph, token, pos, cache_graph)
            errors.append(np.max(np.abs(ref - got)))
        return errors

    def test_unfused_graph_matches_reference_exactly(
        self, small_model, executor, small_config
    ):
        errors = self._decode_sequence(
            small_model, executor, small_config, [1, 9, 33, 7, 12], fused=False
        )
        assert max(errors) < 1e-4

    def test_fused_graph_matches_reference_exactly(
        self, small_model, executor, small_config
    ):
        errors = self._decode_sequence(
            small_model, executor, small_config, [1, 9, 33, 7, 12], fused=True
        )
        assert max(errors) < 1e-4

    def test_fused_and_unfused_identical(self, executor, small_config):
        graph = build_decode_graph(small_config, 0, quant=QuantConfig.fp32())
        fused = fuse_graph(graph).graph
        a = executor.execute(graph, 5, 0, KVCache(small_config))
        b = executor.execute(fused, 5, 0, KVCache(small_config))
        assert np.array_equal(a, b)

    def test_logits_shape(self, executor, small_config):
        graph = build_decode_graph(small_config, 0)
        logits = executor.execute(graph, 1, 0, KVCache(small_config))
        assert logits.shape == (small_config.vocab_size,)

    def test_kv_cache_updated(self, executor, small_config):
        cache = KVCache(small_config)
        graph = build_decode_graph(small_config, 0)
        executor.execute(graph, 1, 0, cache)
        assert cache.length == 1

    def test_token_out_of_range(self, executor, small_config):
        graph = build_decode_graph(small_config, 0)
        with pytest.raises(IndexError):
            executor.execute(graph, small_config.vocab_size, 0, KVCache(small_config))

    def test_position_beyond_capacity(self, executor, small_config):
        graph = build_decode_graph(small_config, 0)
        with pytest.raises(IndexError):
            executor.execute(graph, 1, 99, KVCache(small_config, max_seq_len=4))

    def test_missing_weight_reported(self, small_config, small_checkpoint):
        weights = {k: v for k, v in small_checkpoint.weights.items()
                   if k != "layers.0.attention.wq.weight"}
        executor = GraphExecutor(small_config, weights)
        graph = build_decode_graph(small_config, 0)
        cache = KVCache(small_config)
        # Raised while the graph's program is built, inside the first
        # execute — before anything is computed or cached.
        with pytest.raises(KeyError, match=(
                r"graph weight 'L0\.attention\.wq\.weight' \(checkpoint key "
                r"'layers\.0\.attention\.wq\.weight'\) not found")):
            executor.execute(graph, 1, 0, cache)
        assert cache.length == 0 and not cache.keys(0, 1).any()

    def test_slots_share_a_step_only_along_a_common_prefix(
            self, executor, small_config):
        """A slot may leave the step early (no logits: the same program,
        cut short) but may not run a different program."""
        full = build_decode_graph(small_config, 0)
        prefix = GraphBuilder(small_config).build_decode_step(
            0, include_logits=False)
        shallow = build_decode_graph(small_config.replace(n_layers=2), 0)
        slots = [BatchSlot(1, 0, KVCache(small_config)) for _ in range(2)]
        hidden, logits = executor.execute_step([prefix, full], slots)
        assert hidden.shape == (small_config.dim,)
        assert np.array_equal(
            logits, executor.execute(full, 1, 0, KVCache(small_config)))
        with pytest.raises(ValueError, match="not a prefix"):
            executor.execute_step([shallow, full], slots)

    def test_gqa_heads_handled(self, small_config, executor, small_model):
        """test-small uses 4 query heads over 2 KV heads."""
        assert small_config.group_size == 2
        errors = self._decode_sequence(
            small_model, executor, small_config, [3, 17], fused=True
        )
        assert max(errors) < 1e-4


def _dense(config):
    return KVCache(config)


def _paged(config):
    return KVPool(config, 1 << 20, block_tokens=4).new_cache()


def _int8(config):
    return KVCache(config, quant=QuantSpec(bits=8, group_size=16))


class TestValuesAreContextFree:
    """What ``SpeedLLMAccelerator.execute`` rests on: the graph built at
    context 0 computes, at every position, exactly what the graph built
    for that position computes — the attention window is ``pos + 1``
    whatever context a graph was built for."""

    TOKENS = [1, 9, 33, 7, 12, 40, 3, 17, 5]

    @pytest.mark.parametrize("new_cache", [_dense, _paged, _int8])
    @pytest.mark.parametrize("include_logits", [True, False],
                             ids=["logits", "nologits"])
    @pytest.mark.parametrize("fused", [True, False], ids=["fused", "unfused"])
    def test_context_zero_graph_equals_per_position_graphs(
            self, small_checkpoint, small_config, fused, include_logits,
            new_cache):
        executor = GraphExecutor.from_checkpoint(small_checkpoint)
        builder = GraphBuilder(small_config)

        def graph_at(context):
            graph = builder.build_decode_step(
                context, include_logits=include_logits)
            return fuse_graph(graph).graph if fused else graph

        context_free = graph_at(0)
        cache_free, cache_exact = new_cache(small_config), new_cache(small_config)
        for pos, token in enumerate(self.TOKENS):
            got = executor.execute(context_free, token, pos, cache_free)
            want = executor.execute(graph_at(pos), token, pos, cache_exact)
            assert got.shape == ((small_config.vocab_size,) if include_logits
                                 else (small_config.dim,))
            assert np.array_equal(got, want)
        for layer in range(small_config.n_layers):
            assert np.array_equal(cache_free.keys(layer),
                                  cache_exact.keys(layer))
            assert np.array_equal(cache_free.values(layer),
                                  cache_exact.values(layer))

    def test_execution_plan_is_derived_once_per_graph(
            self, small_checkpoint, small_config, monkeypatch):
        executor = GraphExecutor.from_checkpoint(small_checkpoint)
        graph = build_decode_graph(small_config, 0)
        calls = []
        for name in ("topological_order", "graph_outputs"):
            original = getattr(type(graph), name)
            monkeypatch.setattr(
                type(graph), name,
                lambda self, _n=name, _f=original: calls.append(_n) or _f(self))
        cache = KVCache(small_config)
        for pos, token in enumerate(self.TOKENS):
            executor.execute(graph, token, pos, cache)
        assert sorted(calls) == ["graph_outputs", "topological_order"]
