"""Tests for repro.workloads.prompts."""

from __future__ import annotations

import pytest

from repro.workloads.prompts import (PromptSuite, Workload, default_suite,
                                     repetitive_suite, shared_prefix_suite)


class TestWorkload:
    def test_valid_workload(self):
        w = Workload(name="a", prompt="Once upon a time", max_new_tokens=16)
        assert w.max_new_tokens == 16

    def test_empty_prompt_rejected(self):
        with pytest.raises(ValueError):
            Workload(name="a", prompt="", max_new_tokens=4)

    def test_non_positive_tokens_rejected(self):
        with pytest.raises(ValueError):
            Workload(name="a", prompt="x", max_new_tokens=0)


class TestSuites:
    def test_default_suite_sizes(self):
        suite = default_suite(n_prompts=3, max_new_tokens=32)
        assert len(suite) == 3
        assert [w.max_new_tokens for w in suite] == [32] * 3
        assert all(isinstance(w, Workload) for w in suite)

    def test_default_suite_deterministic(self):
        a = default_suite(seed=1)
        b = default_suite(seed=1)
        assert [w.prompt for w in a] == [w.prompt for w in b]

    def test_empty_suite_rejected(self):
        with pytest.raises(ValueError):
            PromptSuite(name="x", workloads=())

    def test_shared_prefix_suite_shares_one_preamble(self):
        suite = shared_prefix_suite(n_prompts=4, system_words=12,
                                    tail_words=3, max_new_tokens=8)
        assert len(suite) == 4
        prefixes = {" ".join(w.prompt.split()[:12]) for w in suite}
        assert len(prefixes) == 1  # every prompt opens with the preamble
        assert len({w.prompt for w in suite}) == 4  # but tails differ
        assert all(w.max_new_tokens == 8 for w in suite)

    def test_shared_prefix_suite_deterministic(self):
        a = shared_prefix_suite(seed=5)
        b = shared_prefix_suite(seed=5)
        assert [w.prompt for w in a] == [w.prompt for w in b]

    def test_shared_prefix_suite_validation(self):
        with pytest.raises(ValueError):
            shared_prefix_suite(n_prompts=0)
        with pytest.raises(ValueError):
            shared_prefix_suite(system_words=0)


class TestRepetitiveSuite:
    def test_favorable_prompts_repeat_one_phrase(self):
        suite = repetitive_suite(n_prompts=3, repeats=4, phrase_words=5,
                                 max_new_tokens=16)
        assert len(suite) == 3
        for workload in suite:
            words = workload.prompt.split()
            assert len(words) % 4 == 0
            phrase_len = len(words) // 4
            phrase = words[:phrase_len]
            assert words == phrase * 4  # pure template repetition
        assert len({w.prompt for w in suite}) == 3  # distinct phrases

    def test_adversarial_prompts_do_not_repeat(self):
        suite = repetitive_suite(n_prompts=3, repeats=4, phrase_words=5,
                                 adversarial=True)
        assert suite.name == "repetitive-adversarial"
        for workload in suite:
            words = workload.prompt.split()
            phrase_len = len(words) // 4
            if phrase_len:
                assert words[:phrase_len] * 4 != words

    def test_deterministic_per_seed(self):
        a = repetitive_suite(seed=9)
        b = repetitive_suite(seed=9)
        assert [w.prompt for w in a] == [w.prompt for w in b]
        assert ([w.prompt for w in repetitive_suite(seed=10)]
                != [w.prompt for w in a])

    def test_validation(self):
        with pytest.raises(ValueError):
            repetitive_suite(n_prompts=0)
        with pytest.raises(ValueError):
            repetitive_suite(repeats=0)
        with pytest.raises(ValueError):
            repetitive_suite(phrase_words=-1)


class TestSharedPrefixGroups:
    def test_single_group_matches_historical_suite(self):
        legacy = shared_prefix_suite(n_prompts=4, system_words=12,
                                     tail_words=3, max_new_tokens=8, seed=5)
        grouped = shared_prefix_suite(n_prompts=4, system_words=12,
                                      tail_words=3, max_new_tokens=8, seed=5,
                                      n_groups=1)
        assert [w.prompt for w in legacy] == [w.prompt for w in grouped]
        assert [w.name for w in legacy] == [w.name for w in grouped]

    def test_groups_share_preamble_within_not_across(self):
        suite = shared_prefix_suite(n_prompts=6, n_groups=3,
                                    system_words=10, tail_words=2, seed=3)
        by_group = {}
        for w in suite:
            group = w.name.rsplit("-", 1)[0]
            by_group.setdefault(group, []).append(" ".join(w.prompt.split()[:10]))
        assert set(by_group) == {"shared-0", "shared-1", "shared-2"}
        # One preamble per group, two members each...
        assert all(len(v) == 2 and len(set(v)) == 1 for v in by_group.values())
        # ...and three distinct preambles across groups.
        assert len({v[0] for v in by_group.values()}) == 3

    def test_remainder_spread_and_names(self):
        suite = shared_prefix_suite(n_prompts=5, n_groups=2, seed=3)
        names = [w.name for w in suite]
        assert names == ["shared-0-0", "shared-0-1", "shared-0-2",
                         "shared-1-0", "shared-1-1"]

    def test_group_validation(self):
        with pytest.raises(ValueError):
            shared_prefix_suite(n_prompts=4, n_groups=0)
        with pytest.raises(ValueError):
            shared_prefix_suite(n_prompts=4, n_groups=5)
