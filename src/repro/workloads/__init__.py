"""Workload generation: TinyStories corpus, prompt suites, arrivals."""

from .arrivals import bursty_arrival_times, poisson_arrival_times
from .prompts import (PromptSuite, Workload, default_suite, latency_suite,
                      long_context_suite, mixed_chat_suite,
                      multi_turn_chat_suite, repetitive_suite,
                      shared_prefix_suite)
from .tinystories import CorpusStats, StoryGenerator, corpus_stats, generate_corpus

__all__ = [
    "bursty_arrival_times",
    "poisson_arrival_times",
    "PromptSuite",
    "Workload",
    "default_suite",
    "latency_suite",
    "long_context_suite",
    "mixed_chat_suite",
    "multi_turn_chat_suite",
    "repetitive_suite",
    "shared_prefix_suite",
    "CorpusStats",
    "StoryGenerator",
    "corpus_stats",
    "generate_corpus",
]
