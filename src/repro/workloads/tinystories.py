"""Synthetic TinyStories-style corpus generator.

The stories15M model the paper evaluates was trained on the TinyStories
dataset (short children's stories with a small vocabulary).  The real
dataset is not available offline, so this module generates a synthetic
corpus with the same statistical character: short sentences, a small
closed vocabulary of concrete nouns/verbs/adjectives, simple narrative
templates.  It is used to

* train the byte-level BPE tokenizer (:func:`repro.llama.tokenizer.train_bpe`),
* provide prompt text for the latency/energy benchmarks, and
* drive the end-to-end examples.

Everything is produced from a seeded generator so corpora are
reproducible.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Iterator, List

__all__ = ["StoryGenerator", "generate_corpus"]

_CHARACTERS = [
    "Lily", "Tom", "Mia", "Ben", "Sara", "Max", "Anna", "Sam", "Lucy", "Tim",
    "the little dog", "the small cat", "the old owl", "the red bird",
    "the tiny mouse", "the brave bunny",
]
_PLACES = [
    "the park", "the garden", "the forest", "the beach", "the house",
    "the school", "the farm", "the lake", "the hill", "the village",
]
_OBJECTS = [
    "a red ball", "a shiny stone", "a big box", "a little boat", "a sweet apple",
    "a blue kite", "a warm blanket", "a magic key", "a yellow flower", "a small book",
]
_ADJECTIVES = [
    "happy", "sad", "excited", "curious", "sleepy", "brave", "kind", "silly",
    "proud", "surprised",
]
_VERBS = [
    "found", "saw", "made", "lost", "shared", "carried", "painted", "hid",
    "threw", "fixed",
]
_MORALS = [
    "They learned that sharing makes everyone happy.",
    "From that day on, they were best friends.",
    "Everyone smiled and went home happy.",
    "It was the best day ever.",
    "They promised to always help each other.",
    "And they all laughed together.",
]

_TEMPLATES = [
    "Once upon a time, {char} went to {place}. {char} was very {adj}. "
    "Then {char} {verb} {obj}. {moral}",
    "One day, {char} and {char2} played in {place}. {char} {verb} {obj} "
    "and felt {adj}. {moral}",
    "{char} lived near {place}. Every morning {char} {verb} {obj}. "
    "One day {char2} came to visit and they were {adj}. {moral}",
    "It was a sunny day. {char} walked to {place} and {verb} {obj}. "
    "{char2} said it was {adj}. {moral}",
]


@dataclass
class StoryGenerator:
    """Deterministic generator of TinyStories-like documents."""

    seed: int = 0

    def __post_init__(self) -> None:
        self._rng = random.Random(self.seed)

    def story(self) -> str:
        """Generate one short story."""
        rng = self._rng
        template = rng.choice(_TEMPLATES)
        char = rng.choice(_CHARACTERS)
        char2 = rng.choice([c for c in _CHARACTERS if c != char])
        return template.format(
            char=char,
            char2=char2,
            place=rng.choice(_PLACES),
            obj=rng.choice(_OBJECTS),
            adj=rng.choice(_ADJECTIVES),
            verb=rng.choice(_VERBS),
            moral=rng.choice(_MORALS),
        )

    def stories(self, n: int) -> Iterator[str]:
        """Yield ``n`` stories."""
        if n < 0:
            raise ValueError("n must be >= 0")
        for _ in range(n):
            yield self.story()

    def prompt(self, max_words: int = 8) -> str:
        """Generate a story *prefix* to use as a generation prompt."""
        words = self.story().split()
        n = self._rng.randint(3, max(3, max_words))
        return " ".join(words[:n])


def generate_corpus(n_documents: int = 1000, seed: int = 0) -> List[str]:
    """Produce a reproducible corpus of ``n_documents`` stories."""
    gen = StoryGenerator(seed=seed)
    return list(gen.stories(n_documents))
