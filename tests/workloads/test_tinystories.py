"""Tests for repro.workloads.tinystories."""

from __future__ import annotations

import pytest

from repro.workloads.tinystories import StoryGenerator, generate_corpus


class TestStoryGenerator:
    def test_deterministic_for_seed(self):
        a = list(StoryGenerator(seed=9).stories(10))
        b = list(StoryGenerator(seed=9).stories(10))
        assert a == b

    def test_different_seeds_differ(self):
        a = list(StoryGenerator(seed=1).stories(10))
        b = list(StoryGenerator(seed=2).stories(10))
        assert a != b

    def test_stories_are_nonempty_sentences(self):
        for story in StoryGenerator(seed=0).stories(20):
            assert len(story) > 20
            assert story.endswith(".") or story.endswith("!")

    def test_negative_count_rejected(self):
        with pytest.raises(ValueError):
            list(StoryGenerator().stories(-1))

    def test_prompt_is_prefix_length_bounded(self):
        gen = StoryGenerator(seed=3)
        for _ in range(10):
            prompt = gen.prompt(max_words=6)
            assert 3 <= len(prompt.split()) <= 6


class TestCorpus:
    def test_generate_corpus_size(self):
        corpus = generate_corpus(25, seed=4)
        assert len(corpus) == 25

    def test_corpus_deterministic(self):
        assert generate_corpus(10, seed=5) == generate_corpus(10, seed=5)

    def test_corpus_is_tinystories_like(self):
        corpus = generate_corpus(50, seed=6)
        words = [w for doc in corpus for w in doc.split()]
        assert len(words) > 50 * 10
        # TinyStories-like: small closed vocabulary
        assert len({w.lower().strip(".,!?") for w in words}) < 400
