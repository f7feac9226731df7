"""Construct the Llama-2 decode-step operator graph from a model config.

The accelerator (like llama2.c) processes one token position at a time, so
the unit of compilation is the *decode-step graph*: every operator needed
to turn the current token's embedding into next-token logits, given a KV
cache holding ``context_len`` previous positions.  Prefill is modelled as
a sequence of decode steps with growing context, exactly how the llama2.c
host loop feeds the hardware.

The builder annotates each operator with its analytic cost (FLOPs and
weight bytes) and each tensor with its size and residency, which is what
the simulator's timing and traffic models consume.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from typing import Mapping, Optional, Tuple

from ..llama.config import LlamaConfig
from ..quant.config import QuantConfig
from .graph import Graph
from .ops import Operator, OpKind, TensorSpec
from .sharding import ShardSpec

__all__ = ["GraphBuilder", "build_decode_graph"]

_ACT_BYTES = 4  # activations stay float32 in the datapath


def _ceil_div(a: int, b: int) -> int:
    return -(-a // b)


def _tensor(g: Graph, tname: str, *shape: int, resident: str = "offchip",
            weight: bool = False, dtype_bytes: int = _ACT_BYTES) -> str:
    """Declare one tensor of ``g`` and return its name.  TensorSpec
    element sizes are whole bytes; sub-byte weights keep their true
    footprint in the operators' ``weight_bytes`` annotations."""
    g.add_tensor(TensorSpec(
        name=tname, shape=tuple(shape), dtype_bytes=dtype_bytes,
        resident=resident, is_weight=weight,
    ))
    return tname


@dataclass
class GraphBuilder:
    """Builds decode-step graphs for a given model configuration.

    Parameters
    ----------
    config:
        Model architecture.
    shard:
        Optional tensor-parallel partition.  When set, the builder emits
        the decode-step graph *one shard* executes: head-parallel
        attention, column/row-parallel projections and a vocab-parallel
        classifier (see :mod:`repro.graph.sharding`).  Norms, RoPE,
        residuals and the embedding gather are replicated on every shard.
        The all-reduce/all-gather collectives between shards are *not*
        operators of this graph — the execution backend charges them
        through its interconnect model.
    quant:
        How every weight and KV byte is stored (the paper's int8
        datapath by default).  Matmul and embed operators are annotated
        with their streamed bytes per element (``wbytes_per_el``); where
        scales stream from HBM also with the group size (``quant_group``)
        — the program compiler turns that into per-tile ``saved_bytes``
        and SFU-side ``dequant_flops``.  When the config quantises the KV
        cache the cache tensors shrink to one byte per element with the
        scale traffic and dequant work annotated on the attention/append
        operators.
    """

    config: LlamaConfig
    shard: Optional[ShardSpec] = None
    quant: QuantConfig = field(default_factory=QuantConfig.datapath)

    # ------------------------------------------------------------------
    # Quantisation annotation helpers
    # ------------------------------------------------------------------
    def _weight_quant(self, w_name: str, classifier: bool = False):
        """``(bytes_per_el, store_bytes, attrs)`` of a 2-D weight tensor:
        a ``quant_group`` (0 for float32) unless its scales stay on chip."""
        spec = self.quant.spec_for(w_name, classifier=classifier)
        wb = self.quant.bytes_per_element(spec)
        if spec is not None and self.quant.scales_on_chip:
            return wb, max(1, spec.bits // 8), {"wbytes_per_el": wb}
        group = 0 if spec is None else spec.group_size
        return wb, 4 if spec is None else 1, {"wbytes_per_el": wb,
                                              "quant_group": group}

    # ------------------------------------------------------------------
    def build_decode_step(self, context_len: int, name: Optional[str] = None,
                          include_logits: bool = True) -> Graph:
        """Build the graph of one decode step.

        Parameters
        ----------
        context_len:
            Number of positions already in the KV cache (the new token
            attends over ``context_len + 1`` positions including itself).
        include_logits:
            When False, stop after the last decoder block: no final norm
            and no classifier matmul.  Prompt positions whose logits are
            never sampled (every prefill position except the last) only
            need their KV-cache contribution, and the classifier is the
            single largest weight matrix, so batched serving compiles
            those positions with this reduced graph.
        """
        cfg = self.config
        self._check_context(context_len)
        if name is None:
            name = self._step_name(context_len, include_logits)
        g = Graph(name=name)
        dim = cfg.dim
        tensor = partial(_tensor, g)

        # Graph inputs -------------------------------------------------
        token = tensor("token", 1, dtype_bytes=4)
        # A shared embedding table doubles as the classifier matrix, so it
        # follows the (sensitive) logits spec under quantisation.
        emb_wb, emb_store, emb_attrs = self._weight_quant(
            "tok_embeddings.weight", classifier=cfg.shared_classifier
        )
        emb_table = tensor("tok_embeddings.weight", cfg.vocab_size, dim,
                           weight=True, dtype_bytes=emb_store)
        x = tensor("x.0", dim)
        embed_attrs: dict = {"rows": 1, **emb_attrs}
        if "quant_group" in emb_attrs:
            # The gathered row is dequantised elementwise on the SFU.
            embed_attrs["dequant_flops"] = dim if emb_attrs["quant_group"] else 0
            embed_attrs["saved_bytes"] = max(0, int(dim * (4.0 - emb_wb)))
        g.add_operator(Operator(
            name="embed", kind=OpKind.EMBED,
            inputs=[token, emb_table], outputs=[x],
            flops=0, weight_bytes=int(dim * emb_wb),
            attributes=embed_attrs,
        ))

        for layer in range(cfg.n_layers):
            x = self._decoder_block(g, tensor, x, layer, context_len + 1)

        if not include_logits:
            g.validate()
            return g

        # Final norm + classifier ---------------------------------------
        norm_w = tensor("norm.weight", dim, weight=True)
        xn = tensor("x.final_norm", dim)
        g.add_operator(Operator(
            name="final_norm", kind=OpKind.RMSNORM,
            inputs=[x, norm_w], outputs=[xn],
            flops=4 * dim, weight_bytes=dim * 4,
        ))
        cls_name = (
            "tok_embeddings.weight(classifier)"
            if cfg.shared_classifier else "output.weight"
        )
        # Vocab-parallel classifier: each shard computes its slice of the
        # logits; the backend charges the gather separately.
        vocab = cfg.vocab_size if self.shard is None else self.shard.vocab
        cls_wb, cls_store, cls_attrs = self._weight_quant(
            cls_name, classifier=True
        )
        cls_w = tensor(cls_name, vocab, dim, weight=True,
                       dtype_bytes=cls_store)
        logits = tensor("logits", vocab)
        g.add_operator(Operator(
            name="classifier", kind=OpKind.MATMUL,
            inputs=[xn, cls_w], outputs=[logits],
            flops=2 * vocab * dim,
            weight_bytes=int(vocab * dim * cls_wb),
            attributes={"out_features": vocab, "in_features": dim,
                        **cls_attrs},
        ))
        g.validate()
        return g

    def build_window(self, context_len: int, boundary: Mapping[str, TensorSpec],
                     include_logits: bool = True) -> Graph:
        """Build the operators of one decode step that follow its KV window.

        These are every layer's KV append and attention over
        ``context_len + 1`` positions: the operators
        :meth:`build_decode_step` emits through :meth:`_attention_window`,
        with the same names, costs and attributes.  ``boundary`` holds the
        specs of the tensors they read from the rest of the step (each
        layer's ``q_rot``, ``k_rot`` and ``v``).  The graph is named as
        :meth:`build_decode_step` names the step, so a program lowered
        from the rest of the step and this window carries that name.
        """
        self._check_context(context_len)
        g = Graph(name=self._step_name(context_len, include_logits))
        for spec in boundary.values():
            g.add_tensor(spec)
        tensor = partial(_tensor, g)
        for layer in range(self.config.n_layers):
            p = f"L{layer}."
            self._attention_window(g, tensor, layer, context_len + 1,
                                   p + "q_rot", p + "k_rot", p + "v")
        return g

    # ------------------------------------------------------------------
    def _check_context(self, context_len: int) -> None:
        if context_len < 0:
            raise ValueError("context_len must be >= 0")
        if context_len >= self.config.max_seq_len:
            raise ValueError(
                f"context_len {context_len} must be below max_seq_len "
                f"{self.config.max_seq_len}"
            )

    def _step_name(self, context_len: int, include_logits: bool) -> str:
        suffix = "" if include_logits else "-nologits"
        if self.shard is not None:
            suffix += f"-tp{self.shard.tp}"
        return f"{self.config.name}-decode-ctx{context_len}{suffix}"

    def _widths(self) -> Tuple[int, int, int, int]:
        """``(q_dim, kv_dim, n_heads, hidden)`` of one decoder block."""
        cfg = self.config
        if self.shard is None:
            return cfg.dim, cfg.kv_dim, cfg.n_heads, cfg.resolved_hidden_dim()
        # Per-shard widths: the shard owns a slice of the heads and FFN
        # channels, while the full-``dim`` activations entering and
        # leaving the block are replicated across shards.
        return (self.shard.q_width, self.shard.kv_width, self.shard.n_heads,
                self.shard.hidden)

    def _decoder_block(self, g: Graph, tensor, x: str, layer: int, attn_len: int) -> str:
        dim = self.config.dim
        q_dim, kv_dim, _, hidden = self._widths()
        p = f"L{layer}."

        def matmul(op_name: str, w_name: str, out_feat: int, in_feat: int,
                   inp: str, out: str) -> None:
            mwb, mstore, mattrs = self._weight_quant(w_name)
            w = tensor(w_name, out_feat, in_feat, weight=True,
                       dtype_bytes=mstore)
            g.add_operator(Operator(
                name=op_name, kind=OpKind.MATMUL,
                inputs=[inp, w], outputs=[out],
                flops=2 * out_feat * in_feat,
                weight_bytes=int(out_feat * in_feat * mwb),
                attributes={"out_features": out_feat, "in_features": in_feat,
                            "layer": layer, **mattrs},
            ))

        # --- attention -------------------------------------------------
        attn_norm_w = tensor(p + "attention_norm.weight", dim, weight=True)
        xn = tensor(p + "attn_norm_out", dim)
        g.add_operator(Operator(
            name=p + "attn_norm", kind=OpKind.RMSNORM,
            inputs=[x, attn_norm_w], outputs=[xn],
            flops=4 * dim, weight_bytes=dim * 4,
            attributes={"layer": layer},
        ))

        q = tensor(p + "q", q_dim)
        k = tensor(p + "k", kv_dim)
        v = tensor(p + "v", kv_dim)
        matmul(p + "wq", p + "attention.wq.weight", q_dim, dim, xn, q)
        matmul(p + "wk", p + "attention.wk.weight", kv_dim, dim, xn, k)
        matmul(p + "wv", p + "attention.wv.weight", kv_dim, dim, xn, v)

        q_rot = tensor(p + "q_rot", q_dim)
        k_rot = tensor(p + "k_rot", kv_dim)
        g.add_operator(Operator(
            name=p + "rope_q", kind=OpKind.ROPE,
            inputs=[q], outputs=[q_rot],
            flops=6 * q_dim, attributes={"layer": layer},
        ))
        g.add_operator(Operator(
            name=p + "rope_k", kind=OpKind.ROPE,
            inputs=[k], outputs=[k_rot],
            flops=6 * kv_dim, attributes={"layer": layer},
        ))

        attn_out = self._attention_window(g, tensor, layer, attn_len,
                                          q_rot, k_rot, v)

        proj = tensor(p + "attn_proj", dim)
        matmul(p + "wo", p + "attention.wo.weight", dim, q_dim, attn_out, proj)

        x_attn = tensor(p + "x_attn", dim)
        g.add_operator(Operator(
            name=p + "residual_attn", kind=OpKind.ADD,
            inputs=[x, proj], outputs=[x_attn],
            flops=dim, attributes={"layer": layer},
        ))

        # --- feed forward ----------------------------------------------
        ffn_norm_w = tensor(p + "ffn_norm.weight", dim, weight=True)
        ffn_in = tensor(p + "ffn_norm_out", dim)
        g.add_operator(Operator(
            name=p + "ffn_norm", kind=OpKind.RMSNORM,
            inputs=[x_attn, ffn_norm_w], outputs=[ffn_in],
            flops=4 * dim, weight_bytes=dim * 4,
            attributes={"layer": layer},
        ))
        gate = tensor(p + "gate", hidden)
        up = tensor(p + "up", hidden)
        matmul(p + "w1", p + "feed_forward.w1.weight", hidden, dim, ffn_in, gate)
        matmul(p + "w3", p + "feed_forward.w3.weight", hidden, dim, ffn_in, up)

        gate_act = tensor(p + "gate_act", hidden)
        g.add_operator(Operator(
            name=p + "silu", kind=OpKind.SILU,
            inputs=[gate], outputs=[gate_act],
            flops=4 * hidden, attributes={"layer": layer},
        ))
        h = tensor(p + "ffn_hidden", hidden)
        g.add_operator(Operator(
            name=p + "swiglu_mul", kind=OpKind.MUL,
            inputs=[gate_act, up], outputs=[h],
            flops=hidden, attributes={"layer": layer},
        ))
        ffn_out = tensor(p + "ffn_out", dim)
        matmul(p + "w2", p + "feed_forward.w2.weight", dim, hidden, h, ffn_out)

        x_out = tensor(f"x.{layer + 1}", dim)
        g.add_operator(Operator(
            name=p + "residual_ffn", kind=OpKind.ADD,
            inputs=[x_attn, ffn_out], outputs=[x_out],
            flops=dim, attributes={"layer": layer},
        ))
        return x_out

    def _attention_window(self, g: Graph, tensor, layer: int, attn_len: int,
                          q_rot: str, k_rot: str, v: str) -> str:
        """One layer's KV append and attention over ``attn_len`` cached
        positions — the only operators of a step whose shapes follow its
        context length.  Returns the attention output."""
        q_dim, kv_dim, n_heads, _ = self._widths()
        head_dim = self.config.head_dim
        p = f"L{layer}."
        # Cache append produces the updated cache views used by attention.
        # Quantised KV stores one byte per element plus per-group float32
        # scales; the scale traffic and (de)quantisation work are
        # annotated for the program compiler.
        kv_spec = self.quant.kv
        kv_store = 1 if kv_spec is not None else _ACT_BYTES
        kv_attrs: dict = {}
        win_attrs: dict = {}
        if kv_spec is not None:
            kv_groups = _ceil_div(kv_dim, kv_spec.group_size)
            append_scale = 2 * kv_groups * 4
            kv_attrs = {
                "kv_scale_store_bytes": append_scale,
                "kv_saved_store_bytes": 2 * kv_dim * 4
                - (2 * kv_dim + append_scale),
                "kv_quant_flops": 2 * kv_dim,
            }
            window_scale = attn_len * kv_groups * 4
            win_attrs = {
                "kv_scale_bytes": window_scale,
                "kv_saved_bytes": attn_len * kv_dim * 4
                - (attn_len * kv_dim + window_scale),
                "kv_dequant_flops": attn_len * kv_groups,
            }
        cache_k = tensor(p + "cache_k", attn_len, kv_dim, dtype_bytes=kv_store)
        cache_v = tensor(p + "cache_v", attn_len, kv_dim, dtype_bytes=kv_store)
        g.add_operator(Operator(
            name=p + "kv_append", kind=OpKind.KV_APPEND,
            inputs=[k_rot, v], outputs=[cache_k, cache_v],
            flops=0,
            attributes={"layer": layer, "attn_len": attn_len, "kv_dim": kv_dim,
                        **kv_attrs},
        ))

        scores = tensor(p + "scores", n_heads, attn_len)
        g.add_operator(Operator(
            name=p + "attn_score", kind=OpKind.ATTN_SCORE,
            inputs=[q_rot, cache_k], outputs=[scores],
            flops=2 * n_heads * head_dim * attn_len,
            attributes={"layer": layer, "attn_len": attn_len, **win_attrs},
        ))
        probs = tensor(p + "probs", n_heads, attn_len)
        g.add_operator(Operator(
            name=p + "softmax", kind=OpKind.SOFTMAX,
            inputs=[scores], outputs=[probs],
            flops=5 * n_heads * attn_len,
            attributes={"layer": layer},
        ))
        attn_out = tensor(p + "attn_out", q_dim)
        g.add_operator(Operator(
            name=p + "attn_context", kind=OpKind.ATTN_CONTEXT,
            inputs=[probs, cache_v], outputs=[attn_out],
            flops=2 * n_heads * head_dim * attn_len,
            attributes={"layer": layer, "attn_len": attn_len, **win_attrs},
        ))
        return attn_out


def build_decode_graph(
    config: LlamaConfig,
    context_len: int,
    quant: Optional[QuantConfig] = None,
) -> Graph:
    """Convenience wrapper: build one decode-step graph (under the
    default datapath unless ``quant`` says otherwise)."""
    builder = GraphBuilder(config) if quant is None else GraphBuilder(config, quant=quant)
    return builder.build_decode_step(context_len)
