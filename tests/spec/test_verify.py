"""Unit tests for verify-then-commit acceptance (repro.spec.verify)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.llama.sampler import Sampler, greedy
from repro.spec import SpecConfig, verify_run

VOCAB = 32


def logits_for(token: int, vocab: int = VOCAB, margin: float = 5.0) -> np.ndarray:
    """Logits whose argmax is ``token`` by a comfortable margin."""
    rng = np.random.default_rng(token)
    logits = rng.normal(size=vocab)
    logits[token] += margin
    return logits


class TestGreedyVerify:
    def test_no_draft_is_plain_decoding(self):
        outcome = verify_run([], [logits_for(7)], Sampler())
        assert outcome.committed == [7]
        assert outcome.n_draft == 0 and outcome.n_accepted == 0

    def test_all_accepted_commits_bonus_token(self):
        draft = [3, 5, 9]
        outputs = [logits_for(3), logits_for(5), logits_for(9), logits_for(11)]
        outcome = verify_run(draft, outputs, Sampler())
        assert outcome.committed == [3, 5, 9, 11]
        assert outcome.n_accepted == 3
        assert len(outcome.committed) == len(draft) + 1

    def test_first_mismatch_commits_correction_and_stops(self):
        draft = [3, 5, 9]
        outputs = [logits_for(3), logits_for(6), logits_for(9), logits_for(11)]
        outcome = verify_run(draft, outputs, Sampler())
        # position 1's argmax is 6, not the drafted 5: commit [3, 6].
        assert outcome.committed == [3, 6]
        assert outcome.n_accepted == 1

    def test_immediate_mismatch_still_commits_one_token(self):
        draft = [4]
        outputs = [logits_for(8), logits_for(1)]
        outcome = verify_run(draft, outputs, Sampler())
        assert outcome.committed == [8]
        assert outcome.n_accepted == 0

    def test_committed_matches_plain_greedy_token_for_token(self):
        # Whatever the draft, committed tokens equal the argmax chain.
        draft = [1, 2, 3, 4]
        outputs = [logits_for(t) for t in (1, 2, 30, 4, 5)]
        outcome = verify_run(draft, outputs, Sampler())
        for token, logits in zip(outcome.committed, outcome.logits):
            assert token == greedy(logits)

    def test_output_count_mismatch_raises(self):
        with pytest.raises(ValueError, match="logit vectors"):
            verify_run([1, 2], [logits_for(1)], Sampler())

    def test_logits_aligned_with_committed(self):
        draft = [3, 5]
        outputs = [logits_for(3), logits_for(5), logits_for(7)]
        outcome = verify_run(draft, outputs, Sampler())
        assert len(outcome.logits) == len(outcome.committed)
        assert outcome.logits[-1] is outputs[-1]


class TestRejectionSampling:
    def test_peaked_distribution_accepts_matching_draft(self):
        # With a near-delta target distribution on the drafted tokens the
        # acceptance probability is ~1, so the whole run commits.
        sampler = Sampler(temperature=0.25, seed=0)
        draft = [3, 5]
        outputs = [logits_for(3, margin=50), logits_for(5, margin=50),
                   logits_for(9, margin=50)]
        outcome = verify_run(draft, outputs, sampler)
        assert outcome.committed == [3, 5, 9]
        assert outcome.n_accepted == 2

    def test_zero_probability_draft_is_rejected(self):
        sampler = Sampler(temperature=0.25, seed=1)
        draft = [4]  # target mass is concentrated on 8
        outputs = [logits_for(8, margin=50), logits_for(1)]
        outcome = verify_run(draft, outputs, sampler)
        assert outcome.n_accepted == 0
        assert outcome.committed[0] != 4
        assert len(outcome.committed) == 1

    def test_seeded_runs_reproduce(self):
        draft = [3, 5, 7]
        outputs = [logits_for(t, margin=1.0) for t in (3, 6, 7, 9)]
        first = verify_run(draft, outputs, Sampler(temperature=0.9, seed=42))
        second = verify_run(draft, outputs, Sampler(temperature=0.9, seed=42))
        assert first.committed == second.committed
        assert first.n_accepted == second.n_accepted

    def test_committed_count_bounded_by_run_length(self):
        rng_seeds = range(8)
        draft = [2, 4, 6]
        outputs = [logits_for(t, margin=0.5) for t in (2, 4, 6, 8)]
        for seed in rng_seeds:
            outcome = verify_run(
                draft, outputs, Sampler(temperature=1.2, seed=seed))
            assert 1 <= len(outcome.committed) <= len(draft) + 1
            assert outcome.n_accepted <= outcome.n_draft == len(draft)

    def test_top_p_distribution_used_for_acceptance(self):
        # Nucleus filtering zeroes the tail: a drafted tail token must be
        # rejected even when its raw softmax mass is non-zero.
        vocab = 8
        logits = np.zeros(vocab)
        logits[0] = 10.0  # nucleus is {0} under top_p=0.5
        sampler = Sampler(temperature=1.0, top_p=0.5, seed=3)
        outcome = verify_run([5], [logits, np.zeros(vocab)], sampler)
        assert outcome.n_accepted == 0
        assert outcome.committed[0] == 0


class TestSamplerProbs:
    def test_greedy_sampler_has_no_distribution(self):
        with pytest.raises(ValueError, match="greedy"):
            Sampler().probs(np.zeros(4))

    def test_probs_normalised_and_nucleus_filtered(self):
        logits = np.array([3.0, 2.0, 1.0, -4.0])
        probs = Sampler(temperature=1.0).probs(logits)
        assert probs.sum() == pytest.approx(1.0)
        nucleus = Sampler(temperature=1.0, top_p=0.6).probs(logits)
        assert nucleus.sum() == pytest.approx(1.0)
        assert nucleus[-1] == 0.0


class TestSpecConfig:
    def test_defaults_validate(self):
        config = SpecConfig()
        assert config.method == "ngram"

    def test_bad_method_rejected(self):
        with pytest.raises(ValueError, match="method"):
            SpecConfig(method="telepathy")

    def test_bad_budgets_rejected(self):
        with pytest.raises(ValueError):
            SpecConfig(num_draft_tokens=0)
        with pytest.raises(ValueError):
            SpecConfig(ngram_max=1, ngram_min=2)
        with pytest.raises(ValueError):
            SpecConfig(ngram_min=0)

    def test_describe_shape(self):
        assert SpecConfig().describe()["method"] == "ngram"
        drafted = SpecConfig(method="draft", draft_model="test-micro")
        assert drafted.describe()["draft_model"] == "test-micro"
        assert SpecConfig(method="draft").describe()["draft_model"] == "self"
