"""Tests for repro.llama.tokenizer."""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.llama.tokenizer import BOS_ID, EOS_ID, N_SPECIAL, UNK_ID, Tokenizer, train_bpe
from repro.workloads import shared_prefix_suite


class TestByteLevelTokenizer:
    def test_vocab_contains_specials_and_bytes(self, byte_tokenizer):
        assert byte_tokenizer.vocab_size == 3 + 256
        assert byte_tokenizer.id_to_token(BOS_ID) == b"<s>"
        assert byte_tokenizer.id_to_token(EOS_ID) == b"</s>"

    def test_roundtrip_ascii(self, byte_tokenizer):
        text = "hello world!"
        assert byte_tokenizer.decode(byte_tokenizer.encode(text)) == text

    def test_roundtrip_unicode(self, byte_tokenizer):
        text = "héllo wörld ✨ 你好"
        assert byte_tokenizer.decode(byte_tokenizer.encode(text)) == text

    def test_bos_eos_flags(self, byte_tokenizer):
        ids = byte_tokenizer.encode("ab", bos=True, eos=True)
        assert ids[0] == BOS_ID and ids[-1] == EOS_ID
        ids = byte_tokenizer.encode("ab", bos=False, eos=False)
        assert BOS_ID not in ids and EOS_ID not in ids

    def test_padded_vocab(self):
        tok = Tokenizer.byte_level(vocab_size=300)
        assert tok.vocab_size == 300

    def test_padded_vocab_too_small_rejected(self):
        with pytest.raises(ValueError):
            Tokenizer.byte_level(vocab_size=100)

    def test_unknown_token_maps_to_unk(self, byte_tokenizer):
        assert byte_tokenizer.token_to_id(b"definitely-not-a-token") == UNK_ID

    def test_id_out_of_range(self, byte_tokenizer):
        with pytest.raises(IndexError):
            byte_tokenizer.id_to_token(byte_tokenizer.vocab_size)

    @settings(max_examples=50, deadline=None)
    @given(st.text(max_size=60))
    def test_roundtrip_property(self, byte_tokenizer, text):
        assert byte_tokenizer.decode(byte_tokenizer.encode(text)) == text


class TestTrainedBPE:
    def test_vocab_size_exact(self, tiny_tokenizer):
        assert tiny_tokenizer.vocab_size == 512

    def test_learns_merges(self, tiny_tokenizer, byte_tokenizer):
        text = "Once upon a time, Lily went to the park."
        assert len(tiny_tokenizer.encode(text)) < len(byte_tokenizer.encode(text))

    def test_roundtrip_on_corpus(self, tiny_tokenizer, story_corpus):
        for doc in story_corpus[:10]:
            assert tiny_tokenizer.decode(tiny_tokenizer.encode(doc)) == doc

    def test_roundtrip_out_of_domain_text(self, tiny_tokenizer):
        text = "Quantum χ flux @ 42% — certainly unseen in TinyStories!"
        assert tiny_tokenizer.decode(tiny_tokenizer.encode(text)) == text

    def test_encode_deterministic(self, tiny_tokenizer):
        text = "Tom and Mia played in the garden."
        assert tiny_tokenizer.encode(text) == tiny_tokenizer.encode(text)

    def test_vocab_too_small_rejected(self, story_corpus):
        with pytest.raises(ValueError, match="at least"):
            train_bpe(story_corpus, vocab_size=100)

    def test_max_merges_cap(self, story_corpus):
        tok = train_bpe(story_corpus[:20], vocab_size=400, max_merges=5)
        learned = [t for t in tok.vocab[259:] if not t.startswith(b"<pad")]
        assert len(learned) <= 5

    def test_decode_token_streaming(self, tiny_tokenizer):
        ids = tiny_tokenizer.encode("Lily went home", bos=True)
        text = "".join(tiny_tokenizer.decode_token(i) for i in ids)
        assert text == "Lily went home"

    def test_max_token_length_positive(self, tiny_tokenizer):
        assert tiny_tokenizer.max_token_length >= 1


def _encode_by_rescanning(tok, text):
    """``Tokenizer.encode`` as first written: every adjacent pair joined
    and looked up again after every merge.  The reference the incremental
    encoder is checked against."""
    ids = [N_SPECIAL + b for b in text.encode("utf-8")]
    while len(ids) >= 2:
        best_score, best_idx, best_id = -1e30, -1, -1
        for i in range(len(ids) - 1):
            cand = tok._token_to_id.get(tok.vocab[ids[i]] + tok.vocab[ids[i + 1]])
            if cand is not None and tok.scores[cand] > best_score:
                best_score, best_idx, best_id = tok.scores[cand], i, cand
        if best_idx < 0:
            break
        ids[best_idx:best_idx + 2] = [best_id]
    return ids


class TestEncodeMatchesTheRescan:
    def test_serving_prompts_and_random_strings(self, tiny_tokenizer):
        rng = random.Random(24)
        alphabets = [" abcdehilnorstuy.,", "aé✨你 \n", [chr(i) for i in range(32, 127)]]
        texts = [w.prompt for w in shared_prefix_suite(64, 32, 5, 16, seed=0, n_groups=16)]
        texts += ["".join(rng.choices(rng.choice(alphabets), k=rng.randrange(0, 120)))
                  for _ in range(300)]
        for text in texts:
            assert tiny_tokenizer.encode(text, bos=False) == \
                _encode_by_rescanning(tiny_tokenizer, text), text

    def test_tied_and_unmergeable_scores(self, byte_tokenizer):
        """Few distinct scores, so most merges are decided by the tie
        rule (the first of the highest pairs), and tokens scored at or
        below -1e30 exist and are never produced."""
        rng = random.Random(7)
        learned = sorted({bytes(rng.choices(b"abc", k=rng.randrange(2, 5)))
                          for _ in range(60)})
        scores = [0.0] * byte_tokenizer.vocab_size + \
            [rng.choice([1.0, 1.0, 0.0, -1e30, -2e30]) for _ in learned]
        tok = Tokenizer(vocab=byte_tokenizer.vocab + learned, scores=scores)
        never = {i for i, score in enumerate(scores) if score <= -1e30}
        assert never
        for _ in range(300):
            text = "".join(rng.choices("abc", k=rng.randrange(0, 40)))
            ids = tok.encode(text, bos=False)
            assert ids == _encode_by_rescanning(tok, text), text
            assert not never & set(ids)


class TestSerialization:
    def test_save_load_roundtrip(self, tiny_tokenizer, tmp_path):
        path = tiny_tokenizer.save(tmp_path / "tokenizer.bin")
        loaded = Tokenizer.load(path)
        assert loaded.vocab_size == tiny_tokenizer.vocab_size
        text = "Once upon a time, Ben saw a red ball."
        assert loaded.encode(text) == tiny_tokenizer.encode(text)
        assert loaded.decode(loaded.encode(text)) == text

    def test_load_rejects_tiny_file(self, tmp_path):
        (tmp_path / "bad.bin").write_bytes(b"\x01")
        with pytest.raises(ValueError):
            Tokenizer.load(tmp_path / "bad.bin")

    def test_constructor_requires_base_vocab(self):
        with pytest.raises(ValueError, match="256"):
            Tokenizer(vocab=[b"<unk>", b"<s>", b"</s>"])

    def test_scores_length_mismatch_rejected(self, byte_tokenizer):
        with pytest.raises(ValueError, match="same length"):
            Tokenizer(vocab=list(byte_tokenizer.vocab), scores=[0.0])
