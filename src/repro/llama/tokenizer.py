"""Byte-fallback BPE tokenizer (llama2.c ``tokenizer.bin`` replacement).

The paper uses the sentencepiece ``tokenizer.bin`` shipped with llama2.cpp.
That artifact is not redistributable here, so this module implements a
self-contained byte-level BPE tokenizer with the same interface the
inference loop needs:

* a trainer (:func:`train_bpe`) that learns merges from a corpus (the
  synthetic TinyStories corpus from :mod:`repro.workloads.tinystories`);
* greedy-merge encoding with BOS/EOS handling and byte fallback, so every
  UTF-8 string round-trips exactly;
* a binary serialisation (:meth:`Tokenizer.save` / :meth:`Tokenizer.load`)
  laid out like llama2.c's ``tokenizer.bin`` (max token length header, then
  ``(score, length, bytes)`` records per token).

Token ids follow the llama2.c convention: 0 = ``<unk>``, 1 = ``<s>`` (BOS),
2 = ``</s>`` (EOS), ids 3..258 are the 256 raw bytes, and learned merge
tokens follow.
"""

from __future__ import annotations

import struct
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterable, List, Sequence, Tuple

__all__ = ["Tokenizer", "train_bpe"]

UNK_ID = 0
BOS_ID = 1
EOS_ID = 2
N_SPECIAL = 3


def _byte_token(b: int) -> bytes:
    return bytes([b])


@dataclass
class Tokenizer:
    """Byte-fallback BPE tokenizer.

    Attributes
    ----------
    vocab:
        List of token byte-strings indexed by token id.  The first three
        entries are the special tokens (stored as their display strings
        encoded in UTF-8); the next 256 are the raw bytes; the rest are
        learned merges.
    scores:
        Per-token score; learned tokens receive descending scores so the
        greedy encoder prefers longer/earlier merges, mirroring the
        sentencepiece convention used by llama2.c.
    """

    vocab: List[bytes]
    scores: List[float] = field(default_factory=list)

    def __post_init__(self) -> None:
        if len(self.vocab) < N_SPECIAL + 256:
            raise ValueError(
                "vocab must contain the special tokens and all 256 bytes, "
                f"got {len(self.vocab)} entries"
            )
        if not self.scores:
            self.scores = [0.0] * len(self.vocab)
        if len(self.scores) != len(self.vocab):
            raise ValueError("scores and vocab must have the same length")
        self._token_to_id: Dict[bytes, int] = {}
        # Later (learned) tokens win on collision with byte tokens.
        for idx, tok in enumerate(self.vocab):
            if idx in (UNK_ID, BOS_ID, EOS_ID):
                continue
            self._token_to_id.setdefault(tok, idx)

    # ------------------------------------------------------------------
    @property
    def vocab_size(self) -> int:
        """Total number of tokens including specials and byte fallbacks."""
        return len(self.vocab)

    def id_to_token(self, token_id: int) -> bytes:
        """Return the byte string of ``token_id``."""
        if not 0 <= token_id < len(self.vocab):
            raise IndexError(f"token id {token_id} out of range")
        return self.vocab[token_id]

    # ------------------------------------------------------------------
    # Encoding / decoding
    # ------------------------------------------------------------------
    def encode(
        self,
        text: str,
        bos: bool = True,
        eos: bool = False,
    ) -> List[int]:
        """Encode ``text`` to token ids using greedy BPE merging.

        Starts from the byte-level tokenisation and repeatedly merges the
        adjacent pair whose merged token has the highest score, exactly as
        llama2.c's ``encode`` does.
        """
        ids: List[int] = [N_SPECIAL + b for b in text.encode("utf-8")]
        vocab, scores, lookup = self.vocab, self.scores, self._token_to_id.get
        never = -1e30  # a pair scoring this or less is not merged

        def merge_of(left: int, right: int) -> Tuple[float, int]:
            cand = lookup(vocab[left] + vocab[right])
            if cand is not None and scores[cand] > never:
                return scores[cand], cand
            return never, -1

        # One (score, merged id) candidate per adjacent pair; a merge only
        # changes the candidates of the two pairs it touches.
        merges = [merge_of(*pair) for pair in zip(ids, ids[1:])]
        pair_scores = [score for score, _ in merges]
        pair_ids = [cand for _, cand in merges]
        while pair_scores:
            best = max(pair_scores)
            if best <= never:
                break
            i = pair_scores.index(best)  # the first of the highest, as a scan finds it
            ids[i:i + 2] = [pair_ids[i]]
            del pair_scores[i], pair_ids[i]
            if i > 0:
                pair_scores[i - 1], pair_ids[i - 1] = merge_of(ids[i - 1], ids[i])
            if i < len(pair_scores):
                pair_scores[i], pair_ids[i] = merge_of(ids[i], ids[i + 1])
        if bos:
            ids.insert(0, BOS_ID)
        if eos:
            ids.append(EOS_ID)
        return ids

    def decode(self, ids: Sequence[int]) -> str:
        """Decode token ids back to text (specials are dropped)."""
        chunks: List[bytes] = []
        for token_id in ids:
            if token_id in (BOS_ID, EOS_ID, UNK_ID):
                continue
            chunks.append(self.id_to_token(token_id))
        return b"".join(chunks).decode("utf-8", errors="replace")

    # ------------------------------------------------------------------
    # Serialisation (llama2.c tokenizer.bin layout)
    # ------------------------------------------------------------------
    def save(self, path: str | Path) -> Path:
        """Write the tokenizer in a ``tokenizer.bin``-style binary layout."""
        path = Path(path)
        with path.open("wb") as fh:
            # llama2.c's header: the longest token's length in bytes
            fh.write(struct.pack("<i", max(len(t) for t in self.vocab)))
            for tok, score in zip(self.vocab, self.scores):
                fh.write(struct.pack("<fi", float(score), len(tok)))
                fh.write(tok)
        return path

    @classmethod
    def load(cls, path: str | Path) -> "Tokenizer":
        """Read a tokenizer written by :meth:`save`."""
        path = Path(path)
        raw = path.read_bytes()
        if len(raw) < 4:
            raise ValueError(f"{path} is not a tokenizer file")
        offset = 4  # longest-token header (unused on load)
        vocab: List[bytes] = []
        scores: List[float] = []
        while offset < len(raw):
            score, length = struct.unpack_from("<fi", raw, offset)
            offset += 8
            vocab.append(raw[offset:offset + length])
            offset += length
            scores.append(score)
        return cls(vocab=vocab, scores=scores)


def train_bpe(
    corpus: Iterable[str],
    vocab_size: int,
    max_merges: int | None = None,
) -> Tokenizer:
    """Train a byte-level BPE tokenizer on ``corpus``.

    Parameters
    ----------
    corpus:
        Iterable of training documents.
    vocab_size:
        Target vocabulary size (specials + 256 bytes + learned merges).
        The result is padded to exactly this size so the tokenizer can be
        paired with a model embedding of the same width.
    max_merges:
        Optional cap on the number of merge rounds (defaults to whatever
        ``vocab_size`` allows).

    Returns
    -------
    Tokenizer
    """
    base = N_SPECIAL + 256
    if vocab_size < base:
        raise ValueError(
            f"vocab_size must be at least {base} (specials + bytes), got {vocab_size}"
        )
    n_merges = vocab_size - base
    if max_merges is not None:
        n_merges = min(n_merges, max_merges)

    # Tokenise the corpus into byte sequences (word-level frequency map to
    # keep training cost proportional to the number of distinct words).
    word_freq: Counter[bytes] = Counter()
    for doc in corpus:
        for word in doc.split(" "):
            if word:
                word_freq[(" " + word).encode("utf-8")] += 1

    # Represent each word as a tuple of current tokens (byte strings).
    words: Dict[Tuple[bytes, ...], int] = {
        tuple(_byte_token(b) for b in w): f for w, f in word_freq.items()
    }

    merges: List[bytes] = []
    for _ in range(n_merges):
        pair_freq: Counter[Tuple[bytes, bytes]] = Counter()
        for tokens, freq in words.items():
            for a, b in zip(tokens, tokens[1:]):
                pair_freq[(a, b)] += freq
        if not pair_freq:
            break
        (left, right), freq = pair_freq.most_common(1)[0]
        if freq < 2:
            break
        merged = left + right
        merges.append(merged)
        new_words: Dict[Tuple[bytes, ...], int] = {}
        for tokens, f in words.items():
            out: List[bytes] = []
            i = 0
            while i < len(tokens):
                if (
                    i + 1 < len(tokens)
                    and tokens[i] == left
                    and tokens[i + 1] == right
                ):
                    out.append(merged)
                    i += 2
                else:
                    out.append(tokens[i])
                    i += 1
            key = tuple(out)
            new_words[key] = new_words.get(key, 0) + f
        words = new_words

    vocab: List[bytes] = [b"<unk>", b"<s>", b"</s>"]
    vocab.extend(_byte_token(b) for b in range(256))
    scores = [0.0] * len(vocab)
    # Earlier merges get higher scores so greedy encoding applies them first.
    for rank, tok in enumerate(merges):
        vocab.append(tok)
        scores.append(float(len(merges) - rank))
    # Pad to the exact requested vocabulary size.
    pad_idx = 0
    while len(vocab) < vocab_size:
        vocab.append(f"<pad{pad_idx}>".encode("utf-8"))
        scores.append(-1e9)
        pad_idx += 1
    return Tokenizer(vocab=vocab, scores=scores)
