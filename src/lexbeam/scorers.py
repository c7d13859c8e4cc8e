"""Deterministic reference scorers for tests, demos and the CLI.

Both scorers implement the contract the beam decoder expects: a
``vocab`` attribute plus ``next_logprobs(prefix)`` returning a proper
log-distribution (natural log) over the full vocabulary for the next
token. Returned vectors are read-only; do not mutate them.
"""

from __future__ import annotations

import json
from typing import Iterable, Mapping, Protocol, Sequence

import numpy as np

from .errors import (
    EmptyCorpusError,
    NonPositiveAlphaError,
    UnknownTokenError,
)
from .vocab import Vocabulary


class Scorer(Protocol):
    """What the beam decoder needs from a language model.

    A scorer may also declare an integer class attribute
    ``context_size``: ``next_logprobs(prefix)`` then depends only on
    ``prefix[-context_size:]``, and the decoder scores each such context
    once per decode call instead of once per hypothesis. A scorer
    without it is scored once per distinct prefix. It is a property of
    the model, not a setting: declare it only when it holds, as results
    are wrong otherwise. Rows must have shape ``(len(vocab),)`` and hold
    no NaN; the decoder raises :class:`ScorerContractError` otherwise.
    """

    vocab: Vocabulary

    def next_logprobs(self, prefix: Sequence[int]) -> np.ndarray: ...


def assert_normalized(logprobs: np.ndarray, tol: float = 1e-6) -> None:
    """Raise if ``logprobs`` is not a proper log-distribution."""
    total = float(np.logaddexp.reduce(logprobs))
    if not abs(total) <= tol:
        raise ValueError(f"log-probabilities sum to exp({total}), not 1")


class BigramModel:
    """Laplace-smoothed bigram language model.

    The next-token distribution depends only on the last token of the
    prefix (the start sentinel when the prefix is empty):

        P(w | v) = (count(v, w) + alpha) / (count(v, .) + alpha * N)

    where ``N`` counts the predictable tokens, i.e. every vocabulary
    entry except the start sentinel, which is context-only and has
    probability zero. Only nonzero counts are stored (CSR, sorted by
    context then token), plus one default per context: O(V + pairs).
    """

    context_size = 1

    def __init__(
        self,
        vocab: Vocabulary,
        counts: Mapping[tuple[int, int], int],
        alpha: float,
    ):
        if not (alpha > 0 and np.isfinite(alpha)):
            raise NonPositiveAlphaError(f"alpha must be > 0, got {alpha}")
        size, bos = len(vocab), vocab.bos_id
        try:
            v, w = np.array(list(counts), dtype=np.int64).reshape(-1, 2).T
        except OverflowError:  # an id past int64 is out of range: compare exactly, raise below
            v, w = np.array(list(counts), dtype=object).reshape(-1, 2).T
        c = np.array(list(counts.values()))
        out_of_range = (v < 0) | (v >= size) | (w < 0) | (w >= size)
        for i in np.flatnonzero(out_of_range | (c < 0))[:1]:
            if out_of_range[i]:
                raise UnknownTokenError(f"count pair ({v[i]}, {w[i]}) out of range")
            raise ValueError(f"negative count for pair ({v[i]}, {w[i]})")
        self.vocab, self.alpha = vocab, float(alpha)
        order = np.lexsort((w, v))
        order = order[c[order] != 0]  # a zero count scores as the row default
        v, self._tokens, self._counts = v[order], w[order], c[order]
        weights = self._counts.astype(np.float64)  # any count type, even past int64, scores in float64
        totals = np.bincount(v, weights=np.where(self._tokens != bos, weights, 0.0), minlength=size)
        logden = np.log(totals + self.alpha * (size - 1))  # <s> is never predicted: out of both terms
        self._indptr = np.searchsorted(v, np.arange(size + 1))
        self._logprobs = np.log(weights + self.alpha) - logden[v]
        self._default = np.log(self.alpha) - logden

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

    def next_logprobs(self, prefix: Sequence[int]) -> np.ndarray:
        if prefix:
            context = prefix[-1]
            if not 0 <= context < len(self.vocab):
                raise UnknownTokenError(f"token id {context} out of range")
        else:
            context = self.vocab.bos_id
        row = np.full(len(self.vocab), self._default[context])
        lo, hi = self._indptr[context], self._indptr[context + 1]
        row[self._tokens[lo:hi]] = self._logprobs[lo:hi]
        row[self.vocab.bos_id] = -np.inf
        row.flags.writeable = False
        return row

    @property
    def counts(self) -> dict[tuple[int, int], int]:
        """The nonzero counts, sorted by (context, token); a new dict."""
        contexts = np.repeat(np.arange(len(self.vocab)), np.diff(self._indptr))
        return dict(zip(zip(contexts.tolist(), self._tokens.tolist()), self._counts.tolist()))

    def to_json(self) -> dict:
        return {
            "alpha": self.alpha,
            "vocab": list(self.vocab.content_tokens),
            "counts": [[v, w, c] for (v, w), c in self.counts.items()],
        }

    @classmethod
    def from_json(cls, obj: dict) -> "BigramModel":
        vocab = Vocabulary(obj["vocab"])
        counts = {(int(v), int(w)): int(c) for v, w, c in obj["counts"]}
        return cls(vocab, counts, float(obj["alpha"]))

    def save(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fp:
            json.dump(self.to_json(), fp, sort_keys=True)
            fp.write("\n")

    @classmethod
    def load(cls, path: str) -> "BigramModel":
        with open(path, "r", encoding="utf-8") as fp:
            return cls.from_json(json.load(fp))


class TableScorer:
    """Scorer backed by explicitly supplied distributions.

    ``table`` maps exact prefixes (tuples of token ids) to log-prob
    vectors; ``default`` serves any prefix not listed. Handy for
    crafting decoding scenarios by hand in tests.
    """

    def __init__(
        self,
        vocab: Vocabulary,
        table: Mapping[Sequence[int], Sequence[float]],
        default: Sequence[float] | None = None,
    ):
        self.vocab = vocab
        self._table = {}
        for prefix, row in table.items():
            arr = self._freeze(row)
            self._table[tuple(prefix)] = arr
        self._default = None if default is None else self._freeze(default)

    def _freeze(self, row: Sequence[float]) -> np.ndarray:
        arr = np.asarray(row, dtype=np.float64).copy()
        if arr.shape != (len(self.vocab),):
            raise ValueError(
                f"row length {arr.shape} does not match vocabulary size {len(self.vocab)}"
            )
        assert_normalized(arr)
        arr.flags.writeable = False
        return arr

    def next_logprobs(self, prefix: Sequence[int]) -> np.ndarray:
        row = self._table.get(tuple(prefix), self._default)
        if row is None:
            raise KeyError(f"no distribution for prefix {tuple(prefix)!r}")
        return row
