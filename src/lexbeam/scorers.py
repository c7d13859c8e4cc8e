"""The scorer contract and the shipped reference scorer.

:class:`Scorer` is what the beam decoder expects: a ``vocab`` attribute
plus ``next_logprobs(prefix)`` returning a proper log-distribution
(natural log) over the full vocabulary for the next token.
:class:`BigramModel`, the deterministic scorer the demos and the CLI
use, also serves each row in sparse form, through ``sparse_logprobs``.
Returned arrays are read-only; do not mutate them.
"""

from __future__ import annotations

import json
from itertools import chain
from typing import Iterable, Mapping, Protocol, Sequence

import numpy as np

from .errors import (
    EmptyCorpusError,
    MalformedModelError,
    MalformedVocabularyError,
    NegativeBigramCountError,
    NonPositiveAlphaError,
    UnknownTokenError,
)
from .vocab import Vocabulary


class Scorer(Protocol):
    """What the beam decoder needs from a language model.

    A scorer may also declare an integer class attribute
    ``context_size``: ``next_logprobs(prefix)`` then depends only on
    the last ``context_size`` tokens of ``prefix`` (on none of them when
    it is 0), and the decoder scores each such context once per decode
    call instead of once per hypothesis. A scorer without it, or with it
    ``None``, is scored once per distinct prefix. Any other value than
    ``None`` or an ``int`` >= 0 (a ``bool`` included) raises
    :class:`ScorerContractError`. It is a property of the model, not a
    setting: declare it only when it holds, as results are wrong
    otherwise. Rows must have shape ``(len(vocab),)`` and hold no NaN or
    +inf; the decoder raises :class:`ScorerContractError` otherwise.

    A scorer may also offer ``sparse_logprobs(prefix) -> (default, ids,
    values)``, the same row as one default plus its exceptions: ``ids``
    is a sorted integer array of unique token ids, ``values`` their
    scores, and every id not listed scores ``default``. The decoder then
    reads only that form and builds each candidate block in
    O(len(ids) + beam_width), never a row of ``len(vocab)`` floats. The
    triple must describe the row ``next_logprobs`` returns; the decoder
    raises :class:`ScorerContractError` on unsorted, repeated or
    out-of-range ids, on ``ids`` and ``values`` of different lengths,
    and on NaN or +inf. A scorer without it is read as default -inf
    with every id listed.
    """

    vocab: Vocabulary

    def next_logprobs(self, prefix: Sequence[int]) -> np.ndarray: ...


def _read_counts(counts: object) -> list[np.ndarray]:
    """The ``v``, ``w`` and ``c`` int64 columns of a list of ``[v, w, c]``
    triples (lists, or tuples from the Mapping constructor), read in one
    flat ``np.fromiter`` pass with each entry read as by ``int()``. A
    triple of another type or length, an entry ``int()`` refuses or one
    outside int64 is a :class:`MalformedModelError` naming the index and
    value of the first such triple, found by a scan that runs only then."""
    try:
        if not isinstance(counts, list) or not set(map(type, counts)) <= {list, tuple} or set(map(len, counts)) - {3}:
            raise ValueError
        flat = np.fromiter(chain.from_iterable(counts), dtype=np.int64, count=3 * len(counts))
    except (TypeError, ValueError, OverflowError):
        raise MalformedModelError(
            f"model counts must be a list of [v, w, c] integer triples: {_first_bad_triple(counts)}"
        ) from None
    return list(flat.reshape(-1, 3).T)


def _first_bad_triple(counts: object) -> str:
    """Where and why :func:`_read_counts` refuses ``counts``."""
    if not isinstance(counts, list):
        return f"got {type(counts).__name__}"
    for i, triple in enumerate(counts):
        if type(triple) not in (list, tuple) or len(triple) != 3:
            return f"triple {i} ({triple!r:.80}) is not 3 entries"
        try:
            np.fromiter(triple, dtype=np.int64, count=3)
        except (TypeError, ValueError, OverflowError) as exc:
            return f"triple {i} ({triple!r:.80}): {exc}"
    raise AssertionError("unreachable: every triple reads")


class BigramModel:
    """Laplace-smoothed bigram language model.

    The next-token distribution depends only on the last token of the
    prefix (the start sentinel when the prefix is empty):

        P(w | v) = (count(v, w) + alpha) / (count(v, .) + alpha * N)

    where ``N`` counts the predictable tokens, i.e. every vocabulary
    entry except the start sentinel, which is context-only and has
    probability zero. Each context's row is stored as one default plus
    its exceptions (CSR, sorted by context then token): the nonzero
    counts, and a start-sentinel entry at -inf that holds count 0 when
    the pair was never counted. That is O(V + pairs), and
    ``sparse_logprobs`` serves a row as slices of it.
    """

    context_size = 1

    def __init__(self, vocab: Vocabulary, counts: Mapping[tuple[int, int], int], alpha: float):
        self._build(vocab, *_read_counts([pair + (c,) for pair, c in counts.items()]), alpha)

    def _build(self, vocab: Vocabulary, v: np.ndarray, w: np.ndarray, c: np.ndarray, alpha: float) -> None:
        """The one construction path, from the int64 ``(v, w, c)`` columns
        of :func:`_read_counts` in input order; when a pair repeats, its
        last triple wins. A bad pair is reported in the order of first
        occurrence, as a dict of the triples would list it."""
        if not (alpha > 0 and np.isfinite(alpha)):
            raise NonPositiveAlphaError(f"alpha must be > 0, got {alpha}")
        size, bos = len(vocab), vocab.bos_id
        known = (v >= 0) & (v < size) & (w >= 0) & (w < size)
        # One key per pair, never formed from an unknown id. Every row lists <s> at -inf:
        # a (v, <s>, 0) triple ahead of the input; a counted pair wins.
        key = np.concatenate((np.arange(size) * size + bos, v[known] * size + w[known]))
        c = np.concatenate((np.zeros(size, dtype=np.int64), c[known]))
        order = np.argsort(key, kind="stable")  # the triples of one pair stay in input order
        key = key[order]
        last = np.ones(len(key), dtype=bool)
        last[:-1] = key[1:] != key[:-1]
        key, c = key[last], c[order[last]]
        if not known.all() or (c < 0).any():
            # The first bad pair in the order of first triples: its first triple is the first
            # that is out of range or belongs to a pair whose last count is negative.
            bad = ~known
            bad[known] = np.isin(v[known] * size + w[known], key[c < 0])
            i = np.argmax(bad)
            if not known[i]:
                raise UnknownTokenError(f"count pair ({v[i]}, {w[i]}) out of range")
            raise NegativeBigramCountError(f"negative count for pair ({v[i]}, {w[i]})")
        self.vocab, self.alpha = vocab, float(alpha)
        v, w = np.divmod(key, size)
        predicted = w != bos
        kept = (c != 0) | ~predicted  # a zero count scores as the row default; <s> entries stay
        v, w, c, predicted = v[kept], w[kept], c[kept], predicted[kept]
        weights = c.astype(np.float64)
        totals = np.bincount(v, weights=np.where(predicted, weights, 0.0), minlength=size)
        logden = np.log(totals + self.alpha * (size - 1))  # <s> is never predicted: out of both terms
        self._tokens, self._counts = w, c
        self._logprobs = np.where(predicted, np.log(weights + self.alpha) - logden[v], -np.inf)
        self._indptr = np.searchsorted(v, np.arange(size + 1)).tolist()
        self._default = (np.log(self.alpha) - logden).tolist()
        self._tokens.flags.writeable = self._logprobs.flags.writeable = False

    @classmethod
    def fit(
        cls,
        corpus: Iterable[str | Sequence[str]],
        alpha: float = 1.0,
        vocab: Vocabulary | None = None,
    ) -> "BigramModel":
        """Count bigrams over a corpus of sentences.

        Sentences may be whitespace-joined strings or token lists. Each
        sentence contributes the start-sentinel transition into its
        first token and the transition from its last token into the end
        sentinel. When ``vocab`` is omitted it is built from the sorted
        set of corpus words.
        """
        sentences = [s.split() if isinstance(s, str) else list(s) for s in corpus]
        if not sentences:
            raise EmptyCorpusError("corpus has no sentences")
        if vocab is None:
            vocab = Vocabulary(sorted({w for sent in sentences for w in sent}))
        counts: dict[tuple[int, int], int] = {}
        for sent in sentences:
            ids = [vocab.id(w) for w in sent]
            path = [vocab.bos_id] + ids + [vocab.eos_id]
            for v, w in zip(path, path[1:]):
                counts[(v, w)] = counts.get((v, w), 0) + 1
        return cls(vocab, counts, alpha)

    def sparse_logprobs(self, prefix: Sequence[int]) -> tuple[float, np.ndarray, np.ndarray]:
        """The next-token row as ``(default, ids, values)``: read-only
        slices of the stored row, ``<s>`` listed at -inf."""
        if prefix:
            context = prefix[-1]
            if not 0 <= context < len(self.vocab):
                raise UnknownTokenError(f"token id {context} out of range")
        else:
            context = self.vocab.bos_id
        lo, hi = self._indptr[context], self._indptr[context + 1]
        return self._default[context], self._tokens[lo:hi], self._logprobs[lo:hi]

    def next_logprobs(self, prefix: Sequence[int]) -> np.ndarray:
        default, ids, values = self.sparse_logprobs(prefix)
        row = np.full(len(self.vocab), default)
        row[ids] = values
        row.flags.writeable = False
        return row

    def _triples(self) -> np.ndarray:
        """The stored ``[v, w, c]`` triples with a nonzero count, sorted by (v, w)."""
        contexts = np.repeat(np.arange(len(self.vocab)), np.diff(self._indptr))
        counted = self._counts != 0
        return np.column_stack((contexts[counted], self._tokens[counted], self._counts[counted]))

    def to_json(self) -> dict:
        return {
            "alpha": self.alpha,
            "vocab": list(self.vocab.content_tokens),
            "counts": self._triples().tolist(),
        }

    @classmethod
    def from_json(cls, obj: dict) -> "BigramModel":
        if not isinstance(obj, dict) or not {"alpha", "vocab", "counts"} <= obj.keys():
            raise MalformedModelError("a model must be a JSON object with alpha, vocab and counts")
        try:
            vocab = Vocabulary.from_json(obj["vocab"])
        except MalformedVocabularyError as exc:
            raise MalformedModelError(f"model {exc}") from None
        columns = _read_counts(obj["counts"])
        try:
            alpha = float(obj["alpha"])
        except (TypeError, ValueError):
            raise MalformedModelError(f"model alpha must be a number, got {obj['alpha']!r}") from None
        model = cls.__new__(cls)
        model._build(vocab, *columns, alpha)
        return model

    @classmethod
    def load(cls, path: str) -> "BigramModel":
        with open(path, "r", encoding="utf-8") as fp:
            return cls.from_json(json.load(fp))
