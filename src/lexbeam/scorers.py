"""Deterministic reference scorers for tests, demos and the CLI.

Both scorers implement the contract the beam decoder expects: a
``vocab`` attribute plus ``next_logprobs(prefix)`` returning a proper
log-distribution (natural log) over the full vocabulary for the next
token. Returned vectors are read-only views; do not mutate them.
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
    probability zero. All rows are computed once at fit time.
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
        for (v, w), c in counts.items():
            if not (0 <= v < len(vocab) and 0 <= w < len(vocab)):
                raise UnknownTokenError(f"count pair ({v}, {w}) out of range")
            if c < 0:
                raise ValueError(f"negative count for pair ({v}, {w})")
        self.vocab = vocab
        self.alpha = float(alpha)
        self.counts = dict(counts)

        size = len(vocab)
        table = np.zeros((size, size), dtype=np.float64)
        for (v, w), c in counts.items():
            table[v, w] += c
        n_predictable = size - 1  # start sentinel is never predicted
        totals = table.sum(axis=1) - table[:, vocab.bos_id]
        # In place, so no second V x V array is ever allocated.
        table += self.alpha
        np.log(table, out=table)
        table -= np.log(totals + self.alpha * n_predictable)[:, None]
        table[:, vocab.bos_id] = -np.inf
        table.flags.writeable = False
        self._logprobs = table

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
        return self._logprobs[context]

    def to_json(self) -> dict:
        triples = sorted((v, w, c) for (v, w), c in self.counts.items() if c)
        return {
            "alpha": self.alpha,
            "vocab": list(self.vocab.content_tokens),
            "counts": [list(t) for t in triples],
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
