"""Llama-2 / TinyLlama inference substrate (llama2.c equivalent).

This subpackage is the functional ground truth of the reproduction: a
NumPy port of llama2.c covering model configuration, checkpoints,
tokenisation, the forward pass with KV caching, sampling, the generation
loop and the weight quantisation used by the accelerator datapath.
"""

from .checkpoint import Checkpoint, load_checkpoint, save_checkpoint, synthesize_weights
from .config import LlamaConfig, available_presets, preset
from .evaluate import cross_entropy, perplexity, token_agreement
from .generation import GenerationResult, generate
from .kv_cache import KVCache
from .model import (
    ForwardTrace,
    LlamaModel,
    apply_rope,
    rmsnorm,
    rope_frequencies,
    silu,
    softmax,
    swiglu,
)
from .quantization import INT8, QuantizedTensor, QuantSpec, dequantize, quantize
from .sampler import Sampler, greedy, sample_temperature, sample_top_p
from .tokenizer import BOS_ID, EOS_ID, UNK_ID, Tokenizer, train_bpe

__all__ = [
    "Checkpoint",
    "load_checkpoint",
    "save_checkpoint",
    "synthesize_weights",
    "cross_entropy",
    "perplexity",
    "token_agreement",
    "LlamaConfig",
    "available_presets",
    "preset",
    "GenerationResult",
    "generate",
    "KVCache",
    "ForwardTrace",
    "LlamaModel",
    "apply_rope",
    "rmsnorm",
    "rope_frequencies",
    "silu",
    "softmax",
    "swiglu",
    "INT8",
    "QuantizedTensor",
    "QuantSpec",
    "dequantize",
    "quantize",
    "Sampler",
    "greedy",
    "sample_temperature",
    "sample_top_p",
    "BOS_ID",
    "EOS_ID",
    "UNK_ID",
    "Tokenizer",
    "train_bpe",
]
