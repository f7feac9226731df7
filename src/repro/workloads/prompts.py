"""Prompt suites used by the benchmarks.

The paper's evaluation measures complete-inference latency and
decode-stage throughput on the stories15M model.  The exact prompts are
not published, so this module defines reproducible prompt suites (short /
medium / long prompts drawn from the synthetic TinyStories generator) and
a :class:`Workload` description pairing a prompt with the number of tokens
to generate — the unit of work every benchmark and example operates on.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

from .tinystories import StoryGenerator

__all__ = ["Workload", "PromptSuite", "default_suite", "long_context_suite",
           "mixed_chat_suite", "repetitive_suite", "shared_prefix_suite"]


@dataclass(frozen=True)
class Workload:
    """One generation task: a prompt plus a decode budget."""

    name: str
    prompt: str
    max_new_tokens: int
    #: SLO tier served under a priority/fairness scheduling policy
    #: (smaller = more urgent; the default fifo policy ignores it).
    priority: int = 0

    def __post_init__(self) -> None:
        if self.max_new_tokens <= 0:
            raise ValueError("max_new_tokens must be positive")
        if not self.prompt:
            raise ValueError("prompt must not be empty")
        if self.priority < 0:
            raise ValueError("priority must be >= 0 (0 is most urgent)")


@dataclass(frozen=True)
class PromptSuite:
    """A named collection of workloads evaluated together."""

    name: str
    workloads: tuple[Workload, ...]

    def __post_init__(self) -> None:
        if not self.workloads:
            raise ValueError("a prompt suite needs at least one workload")

    def __iter__(self):
        return iter(self.workloads)

    def __len__(self) -> int:
        return len(self.workloads)


def default_suite(
    n_prompts: int = 4,
    max_new_tokens: int = 128,
    seed: int = 7,
) -> PromptSuite:
    """Small mixed suite used by examples and quick benchmarks."""
    gen = StoryGenerator(seed=seed)
    workloads: List[Workload] = []
    for i in range(n_prompts):
        workloads.append(
            Workload(
                name=f"story-{i}",
                prompt=gen.prompt(max_words=6 + 2 * i),
                max_new_tokens=max_new_tokens,
            )
        )
    return PromptSuite(name="default", workloads=tuple(workloads))


def shared_prefix_suite(
    n_prompts: int = 8,
    system_words: int = 32,
    tail_words: int = 5,
    max_new_tokens: int = 32,
    seed: int = 13,
    n_groups: int = 1,
) -> PromptSuite:
    """Suite where prompts share per-group system preambles.

    This is the multi-tenant chat shape — a long fixed system prompt
    followed by a short per-user message — and the workload where paged
    KV serving with prefix sharing pays off: every request past the first
    maps the preamble's KV blocks to the same physical memory and skips
    prefilling them.  ``system_words`` controls how long the shared
    prefix is relative to the ``tail_words`` of unique suffix.

    ``n_groups`` splits the suite into that many *distinct* preambles
    (tenants), with group members submitted consecutively.  A single
    engine still prefix-hits within each group; a cluster only does if
    its router co-locates a group's members on one replica — the shape
    the prefix-affinity routing policy is measured on.  The default of
    one group reproduces the historical single-preamble suite exactly.
    """
    if n_prompts <= 0:
        raise ValueError("n_prompts must be positive")
    if system_words <= 0 or tail_words <= 0:
        raise ValueError("system_words and tail_words must be positive")
    if not 1 <= n_groups <= n_prompts:
        raise ValueError("n_groups must be in [1, n_prompts]")
    gen = StoryGenerator(seed=seed)
    systems = [" ".join(gen.story().split()[:system_words])
               for _ in range(n_groups)]
    workloads: List[Workload] = []
    for group, system in enumerate(systems):
        members = n_prompts // n_groups + (1 if group < n_prompts % n_groups
                                           else 0)
        for member in range(members):
            index = len(workloads)
            workloads.append(Workload(
                name=(f"shared-{index}" if n_groups == 1
                      else f"shared-{group}-{member}"),
                prompt=f"{system} {gen.prompt(max_words=tail_words)}",
                max_new_tokens=max_new_tokens,
            ))
    return PromptSuite(name="shared-prefix", workloads=tuple(workloads))


def repetitive_suite(
    n_prompts: int = 4,
    repeats: int = 4,
    phrase_words: int = 6,
    max_new_tokens: int = 48,
    seed: int = 17,
    adversarial: bool = False,
) -> PromptSuite:
    """Templated prompts that make (or break) n-gram draft lookup.

    The *favorable* shape is boilerplate: each prompt is one short phrase
    repeated ``repeats`` times, the code-completion / form-letter pattern
    where the continuation of the current n-gram has already appeared
    verbatim.  Prompt-lookup drafting
    (:class:`repro.spec.NgramDrafter`) finds those earlier occurrences
    constantly, and greedy decoding over such prompts tends to keep
    cycling the template, so acceptance stays high for the whole decode.

    ``adversarial=True`` flips the shape: every prompt is a long run of
    *distinct* story words with no phrase repeated, so suffix n-grams
    (almost) never recur and the drafter proposes little to nothing —
    the workload that bounds speculation overhead from below.  Sweeping
    both shapes is how the acceptance-rate table in the README is made.
    """
    if n_prompts <= 0:
        raise ValueError("n_prompts must be positive")
    if repeats <= 0 or phrase_words <= 0:
        raise ValueError("repeats and phrase_words must be positive")
    gen = StoryGenerator(seed=seed)
    workloads: List[Workload] = []
    for i in range(n_prompts):
        if adversarial:
            # One long pass of fresh narrative text; phrases never repeat
            # within a prompt, so suffix lookups miss.
            prompt = gen.prompt(max_words=repeats * phrase_words)
            name = f"novel-{i}"
        else:
            phrase = gen.prompt(max_words=phrase_words)
            prompt = " ".join([phrase] * repeats)
            name = f"template-{i}"
        workloads.append(Workload(
            name=name, prompt=prompt, max_new_tokens=max_new_tokens,
        ))
    suite_name = "repetitive-adversarial" if adversarial else "repetitive"
    return PromptSuite(name=suite_name, workloads=tuple(workloads))


def mixed_chat_suite(
    n_chats: int = 6,
    n_documents: int = 2,
    chat_words: int = 4,
    document_words: int = 48,
    chat_new_tokens: int = 24,
    document_new_tokens: int = 16,
    seed: int = 23,
) -> PromptSuite:
    """Interactive short chats mixed with long-prompt batch documents.

    This is the workload chunked prefill + priority scheduling exists
    for: ``n_chats`` short interactive requests (priority 0, tiny prompt,
    decode-heavy) share the engine with ``n_documents`` long-prompt batch
    jobs (priority 1, prefill-heavy).  Under an unchunked FIFO schedule a
    document's monolithic prefill step stalls every in-flight chat for
    the whole prompt — the inter-token-latency tail the serve-bench
    ``--mixed`` comparison measures; chunked prefill bounds that stall at
    the per-step prefill budget and the priority policy keeps chats ahead
    of documents at admission time.
    """
    if n_chats <= 0 or n_documents < 0:
        raise ValueError("need n_chats > 0 and n_documents >= 0")
    if chat_words <= 0 or document_words <= 0:
        raise ValueError("chat_words and document_words must be positive")
    gen = StoryGenerator(seed=seed)
    workloads: List[Workload] = [
        Workload(
            name=f"chat-{i}",
            prompt=gen.prompt(max_words=chat_words),
            max_new_tokens=chat_new_tokens,
            priority=0,
        )
        for i in range(n_chats)
    ]
    # Interleave documents at evenly spaced submission slots so their
    # prefills land while chats are mid-decode rather than clustering at
    # either end of the order.
    for i in range(n_documents):
        slot = (i + 1) * n_chats // (n_documents + 1) + i
        workloads.insert(slot, Workload(
            name=f"doc-{i}",
            prompt=" ".join(gen.story().split()[:document_words]),
            max_new_tokens=document_new_tokens,
            priority=1,
        ))
    return PromptSuite(name="mixed-chat", workloads=tuple(workloads))


def long_context_suite(
    n_prompts: int = 4,
    prompt_words: int = 48,
    max_new_tokens: int = 96,
    seed: int = 37,
) -> PromptSuite:
    """Long prompts decoded deep into the context window.

    Every request prefills a long document and then decodes far past it,
    so most simulated steps run attention over a large KV window — the
    regime where HBM reads of the cached keys/values dominate step time.
    This is the suite the tile autotuner is measured on: chunked
    attention window reads stream from disjoint pseudo-channel groups
    concurrently, which only pays off once the window is long enough for
    the read to dwarf the fill/drain overhead of extra packets.
    """
    if n_prompts <= 0:
        raise ValueError("n_prompts must be positive")
    if prompt_words <= 0:
        raise ValueError("prompt_words must be positive")
    gen = StoryGenerator(seed=seed)
    workloads = tuple(
        Workload(
            name=f"long-{i}",
            prompt=" ".join(gen.story().split()[:prompt_words]),
            max_new_tokens=max_new_tokens,
        )
        for i in range(n_prompts)
    )
    return PromptSuite(name="long-context", workloads=workloads)
