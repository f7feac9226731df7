"""Tests for the functional graph executor (accelerator vs reference model)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.accel.batching import BatchSlot
from repro.accel.executor import GraphExecutor, _graph_to_checkpoint_name
from repro.graph.builder import GraphBuilder, build_decode_graph
from repro.graph.fusion import fuse_graph
from repro.graph.graph import Graph
from repro.kvpool import KVPool
from repro.llama.kv_cache import KVCache
from repro.llama.quantization import QuantSpec
from repro.quant import QuantConfig


def _execute(executor, graph, token, pos, cache, need_logits=True):
    """The one-slot step."""
    return executor.execute_step(
        graph, [BatchSlot(token, pos, cache, need_logits)])[0]


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
        return GraphExecutor(small_checkpoint.config, small_checkpoint.weights)

    def _decode_sequence(self, model, executor, config, tokens, fused):
        cache_ref = model.new_cache()
        cache_graph = KVCache(config)
        errors = []
        for pos, token in enumerate(tokens):
            ref = model.forward(token, pos, cache_ref)
            graph = build_decode_graph(config, pos, quant=QuantConfig.fp32())
            if fused:
                graph = fuse_graph(graph)
            got = _execute(executor, graph, token, pos, cache_graph)
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
        fused = fuse_graph(graph)
        a = _execute(executor, graph, 5, 0, KVCache(small_config))
        b = _execute(executor, fused, 5, 0, KVCache(small_config))
        assert np.array_equal(a, b)

    def test_logits_shape(self, executor, small_config):
        graph = build_decode_graph(small_config, 0)
        logits = _execute(executor, graph, 1, 0, KVCache(small_config))
        assert logits.shape == (small_config.vocab_size,)

    def test_kv_cache_updated(self, executor, small_config):
        cache = KVCache(small_config)
        graph = build_decode_graph(small_config, 0)
        _execute(executor, graph, 1, 0, cache)
        assert cache.length == 1

    def test_token_out_of_range(self, executor, small_config):
        graph = build_decode_graph(small_config, 0)
        with pytest.raises(IndexError):
            _execute(executor, graph, small_config.vocab_size, 0, KVCache(small_config))

    def test_position_beyond_capacity(self, executor, small_config):
        graph = build_decode_graph(small_config, 0)
        with pytest.raises(IndexError):
            _execute(executor, graph, 1, 99, KVCache(small_config, max_seq_len=4))

    def test_missing_weight_reported(self, small_config, small_checkpoint):
        weights = {k: v for k, v in small_checkpoint.weights.items()
                   if k != "layers.0.attention.wq.weight"}
        executor = GraphExecutor(small_config, weights)
        graph = build_decode_graph(small_config, 0)
        cache = KVCache(small_config)
        # Raised while the graph's program is built, inside the first
        # step — before anything is computed or cached.
        with pytest.raises(KeyError, match=(
                r"graph weight 'L0\.attention\.wq\.weight' \(checkpoint key "
                r"'layers\.0\.attention\.wq\.weight'\) not found")):
            _execute(executor, graph, 1, 0, cache)
        assert cache.length == 0 and not cache.keys(0, 1).any()

    def test_a_slot_without_logits_leaves_at_the_hidden_state(
            self, executor, small_config):
        """The body runs over every slot, the tail over the slots that
        want logits: a row's result is what it yields alone."""
        graph = build_decode_graph(small_config, 0)
        caches = [KVCache(small_config) for _ in range(3)]
        flags = [False, True, False]
        slots = [BatchSlot(1 + row, 0, cache, flag)
                 for row, (cache, flag) in enumerate(zip(caches, flags))]
        got = executor.execute_step(graph, slots)
        for row, flag in enumerate(flags):
            alone = _execute(executor, graph, 1 + row, 0,
                             KVCache(small_config), flag)
            assert got[row].shape == ((small_config.vocab_size,) if flag
                                      else (small_config.dim,))
            assert np.array_equal(got[row], alone)
            assert caches[row].length == 1

    def test_a_graph_without_a_tail_is_not_a_step(self, executor, small_config):
        """Only a whole decode step runs: a graph that never writes the
        logits is refused before any cache row is written."""
        graph = build_decode_graph(small_config, 0)
        body = Graph(name="body", tensors=dict(graph.tensors), operators={
            name: op for name, op in graph.operators.items()
            if name not in ("final_norm", "classifier")})
        cache = KVCache(small_config)
        with pytest.raises(RuntimeError, match="not a decode step"):
            _execute(executor, body, 1, 0, cache, need_logits=False)
        assert cache.length == 0

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
    """What ``SpeedLLMAccelerator.forward`` rests on: the graph built at
    context 0 computes, at every position, exactly what the graph built
    for that position computes — the attention window is ``pos + 1``
    whatever context a graph was built for."""

    TOKENS = [1, 9, 33, 7, 12, 40, 3, 17, 5]

    @pytest.mark.parametrize("new_cache", [_dense, _paged, _int8])
    @pytest.mark.parametrize("need_logits", [True, False],
                             ids=["logits", "nologits"])
    @pytest.mark.parametrize("fused", [True, False], ids=["fused", "unfused"])
    def test_context_zero_graph_equals_per_position_graphs(
            self, small_checkpoint, small_config, fused, need_logits,
            new_cache):
        executor = GraphExecutor(small_checkpoint.config, small_checkpoint.weights)
        builder = GraphBuilder(small_config)

        def graph_at(context):
            graph = builder.build_decode_step(context)
            return fuse_graph(graph) if fused else graph

        context_free = graph_at(0)
        cache_free, cache_exact = new_cache(small_config), new_cache(small_config)
        for pos, token in enumerate(self.TOKENS):
            got = _execute(executor, context_free, token, pos, cache_free,
                           need_logits)
            want = _execute(executor, graph_at(pos), token, pos, cache_exact,
                            need_logits)
            assert got.shape == ((small_config.vocab_size,) if need_logits
                                 else (small_config.dim,))
            assert np.array_equal(got, want)
        for layer in range(small_config.n_layers):
            assert np.array_equal(cache_free.keys(layer),
                                  cache_exact.keys(layer))
            assert np.array_equal(cache_free.values(layer),
                                  cache_exact.values(layer))

    def test_execution_plan_is_derived_once_per_graph(
            self, small_checkpoint, small_config, monkeypatch):
        executor = GraphExecutor(small_checkpoint.config, small_checkpoint.weights)
        graph = build_decode_graph(small_config, 0)
        calls = []
        for name in ("topological_order", "graph_outputs"):
            original = getattr(type(graph), name)
            monkeypatch.setattr(
                type(graph), name,
                lambda self, _n=name, _f=original: calls.append(_n) or _f(self))
        cache = KVCache(small_config)
        for pos, token in enumerate(self.TOKENS):
            _execute(executor, graph, token, pos, cache)
        assert sorted(calls) == ["graph_outputs", "topological_order"]
