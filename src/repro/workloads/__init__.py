"""Workload generation: TinyStories corpus, prompt suites, arrivals."""

from .arrivals import bursty_arrival_times, poisson_arrival_times
from .prompts import (PromptSuite, Workload, default_suite, long_context_suite,
                      mixed_chat_suite, repetitive_suite, shared_prefix_suite)
from .tinystories import StoryGenerator, generate_corpus

__all__ = [
    "bursty_arrival_times",
    "poisson_arrival_times",
    "PromptSuite",
    "Workload",
    "default_suite",
    "long_context_suite",
    "mixed_chat_suite",
    "repetitive_suite",
    "shared_prefix_suite",
    "StoryGenerator",
    "generate_corpus",
]
