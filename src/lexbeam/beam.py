"""Constrained beam search with one beam per FSM state.

Every live hypothesis carries its machine state; at each step every
hypothesis is extended by the machine's constraint tokens and by its own
best other tokens, each routed to the state the machine dictates, and
each *target* state keeps its ``beam_width`` best extensions. Keeping a
separate beam per state guarantees that hypotheses survive for every
satisfaction level, so a completed caption meeting the quota can be
post-selected at the end.

Conventions:

* ``max_len`` caps the number of content tokens. The end sentinel is
  scored like any other step and terminates a hypothesis; its id is
  routed through the machine like any other token, and finishers' token
  sequences include it.
* Scores are natural-log probabilities, summed; nothing is ever
  multiplied in linear space.
* Ties in log-probability break toward the lexicographically smallest
  token-id sequence, making results fully deterministic.
* A hypothesis with probability zero (logprob ``-inf``) is dropped: it
  can neither win nor finish.

Live hypotheses are three arrays: a token matrix ``seqs`` (one row per
hypothesis, all of one length, padded with -1 to ``max_len + 1``
columns), their ``states`` and their ``logprobs``. These invariants keep
the search cheap:

* The rows of ``seqs`` stay in lexicographic order, so the flat
  candidate index ``row * V + token`` is exactly the tie-break order of
  the extended sequences.
* Every token outside the machine's constraint tokens (a "plain" token)
  leads a parent to its own mask state, so only the parent's
  ``beam_width`` best plain tokens can survive there, and of those tied
  at the ``beam_width``-th best (the cut), only the smallest ids.
* Each scorer context is scored once per call: the scorer runs once
  per distinct key, the last ``scorer.context_size`` tokens of a
  prefix, or the whole prefix when the scorer declares no
  ``context_size``. Each live row carries its context's id. A child's
  key is its parent key's tail (the key without its first token once
  the key is ``context_size`` long, else the whole key) plus its new
  token, so the child's context is looked up by the integer code
  ``tail id * V + token`` in a sorted array of the codes seen so far.
  Only one row per new code reads its key in Python.
* A row is read as "default plus exceptions": ``(default, ids,
  values)`` from ``sparse_logprobs`` when the scorer offers it, else
  the ``next_logprobs`` row as default -inf with every id listed. Every
  unlisted plain token scores the default, so ``beam_width`` copies of
  it stand for all of them in the cut, and when the default reaches
  the cut the tokens it adds are the smallest unlisted plain ids: a
  context costs O(listed ids + ``beam_width``), not O(V).
* Each context keeps a fixed-width block, never its row: the end
  sentinel, the special tokens and at most ``min(2 * beam_width - 1,
  plain count)`` plain tokens (fewer than ``beam_width`` above the cut,
  then the ``beam_width`` smallest ids at it), padded with -inf. Nothing
  outlives the step when the key is the whole prefix.
* Adding a hypothesis logprob to raw scores keeps their order, so the
  context's block holds the hypothesis's candidates, except where
  rounding makes a lower raw score tie the cut; that hypothesis rebuilds
  its block from its row, shifted by its logprob.
* Each row puts ``beam_width`` candidates scoring at least its
  ``logprob + cut`` into its mask state, so a candidate scoring below
  the largest such sum of its target state (the floor) cannot survive
  there and is dropped before the selection sort. Ties with the floor
  are kept, so the tie-break is untouched.
* Finishers live in one store of token rows, logprobs and states. A
  step with finishers adds those that reach their state's bar (its
  ``beam_width``-th best finisher logprob so far), then resets the bar
  from the store and drops the rows below it, keeping ties for the
  tie-break. So the store stays near ``beam_width`` rows per state.
"""

from __future__ import annotations

from collections.abc import Iterator, Mapping
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    MalformedConfigError,
    NoHypothesisError,
    NonPositiveCountError,
    ScorerContractError,
    VocabMismatchError,
)
from .fsm import ConstraintFSM, compile_fsm
from .scorers import Scorer


@dataclass(frozen=True)
class DecodeConfig:
    """Knobs for :func:`decode`.

    beam_width:
        Hypotheses kept per FSM state (not globally).
    max_len:
        Maximum caption length in content tokens.
    min_satisfied_fallback:
        When no completed hypothesis meets the quota, relax it one step
        at a time (k-1, k-2, ... 0) and return the first tier that has
        a finisher. With it off, :class:`NoHypothesisError` is raised
        instead.
    length_normalize:
        Post-select by logprob divided by sequence length instead of
        raw logprob. Off by default; the reported logprob is always the
        raw sum either way.
    """

    beam_width: int = 5
    max_len: int = 20
    min_satisfied_fallback: bool = True
    length_normalize: bool = False

    def __post_init__(self):
        for name, kind, noun in (
            ("beam_width", int, "an int"),
            ("max_len", int, "an int"),
            ("min_satisfied_fallback", bool, "a bool"),
            ("length_normalize", bool, "a bool"),
        ):
            value = getattr(self, name)
            if not isinstance(value, kind) or (kind is int and isinstance(value, bool)):
                raise MalformedConfigError(f"{name} must be {noun}, got {value!r}")
        if self.beam_width < 1:
            raise NonPositiveCountError("beam_width must be >= 1")
        if self.max_len < 1:
            raise NonPositiveCountError("max_len must be >= 1")


@dataclass(frozen=True, slots=True)
class BeamHypothesis:
    """A completed candidate: tokens (ending in the end sentinel), score
    and the FSM state it ended in."""

    tokens: tuple[int, ...]
    logprob: float
    fsm_state: int


class _Finalists(Mapping):
    """Each FSM state's finalists, kept as arrays until first read.

    The first read builds every state's :class:`BeamHypothesis` tuple
    at once, through one int object per token id, and keeps it. A result
    nobody reads the finalists of holds a few arrays, not an object per
    finalist and token.
    """

    __slots__ = ("_arrays", "_built")

    def __init__(self, ends: np.ndarray, logprobs: np.ndarray, states: np.ndarray):
        # rows sorted by state, then best first; tokens padded with -1
        self._arrays = (ends, logprobs, states)
        self._built: dict[int, tuple[BeamHypothesis, ...]] | None = None

    def _dict(self) -> dict[int, tuple[BeamHypothesis, ...]]:
        if self._built is None:
            finalists: dict[int, list[BeamHypothesis]] = {}
            shared: dict[int, int] = {}
            for row, lp, s in zip(*(a.tolist() for a in self._arrays)):
                tokens = tuple(shared.setdefault(t, t) for t in row if t >= 0)
                finalists.setdefault(s, []).append(BeamHypothesis(tokens, lp, s))
            self._built = {s: tuple(hyps) for s, hyps in finalists.items()}
        return self._built

    def __getitem__(self, state: int) -> tuple[BeamHypothesis, ...]:
        return self._dict()[state]

    def __iter__(self) -> Iterator[int]:
        return iter(self._dict())

    def __len__(self) -> int:
        return len(self._dict())

    def __repr__(self) -> str:
        return repr(self._dict())


@dataclass(frozen=True)
class DecodeResult:
    """Outcome of a decode call.

    ``tokens`` includes the terminating end-sentinel id;
    ``satisfied_count`` is the actual satisfied-group count of the
    winning hypothesis, which can be below the quota only when the
    fallback tiers were used. ``per_state_finalists`` maps each FSM
    state that produced finishers, in increasing order, to its best
    completed hypotheses (at most ``beam_width``, best first). It holds
    finite-logprob finishers only. :func:`decode` fills it with a
    read-only mapping that builds its hypotheses on first read, with
    equal token ids sharing one int object.
    """

    tokens: tuple[int, ...]
    logprob: float
    satisfied_count: int
    per_state_finalists: Mapping[int, tuple[BeamHypothesis, ...]] = field(hash=False)


def _first_per_key(keys: np.ndarray, width: int) -> np.ndarray:
    """Mask of the first ``width`` entries of each run of equal, sorted ``keys``."""
    return np.arange(len(keys)) - np.searchsorted(keys, keys) < width


def _survivors(lp: np.ndarray, target: np.ndarray, bound: np.ndarray, n_states: int) -> np.ndarray:
    """Flat indices of the candidates that can still be among their
    target state's best.

    ``lp`` and ``target`` hold the candidates' scores and target states,
    one block per hypothesis, and the block of row i puts at least
    ``beam_width`` candidates scoring ``bound[i]`` or more into its mask
    state, the target of its last (plain) column. A candidate below the
    largest such bound of its target has ``beam_width`` better ones there
    and cannot survive; one tied with it is kept for the token-order
    tie-break. The first column, the end sentinel, never extends a row.
    """
    floor = np.full(n_states, -np.inf)
    np.maximum.at(floor, target[:, -1], bound)
    live = (lp > -np.inf) & (lp >= floor[target])
    live[:, 0] = False
    return np.flatnonzero(live)


def _context_size(scorer: Scorer) -> int | None:
    """The scorer's declared ``context_size``, checked: ``None`` or an
    ``int`` >= 0 that is not a ``bool``."""
    context = getattr(scorer, "context_size", None)
    if context is not None and (not isinstance(context, int) or isinstance(context, bool) or context < 0):
        raise ScorerContractError(f"scorer context_size must be None or an int >= 0, got {context!r}")
    return context


def _rows(scorer: Scorer, size: int):
    """A reader of the scorer's rows as checked ``(default, ids, values)``
    triples: through ``sparse_logprobs`` when the scorer offers it, else
    a ``next_logprobs`` row read as default -inf with every id listed."""
    sparse = getattr(scorer, "sparse_logprobs", None)
    every_id = np.arange(size)

    def read(prefix: tuple[int, ...]) -> tuple[float, np.ndarray, np.ndarray]:
        if sparse is None:
            default, ids, values = -np.inf, every_id, scorer.next_logprobs(prefix)
        else:
            default, ids, values = sparse(prefix)
        ids, values, default = np.asarray(ids), np.asarray(values, dtype=float), float(default)
        if values.shape != ids.shape or ids.ndim != 1:
            raise ScorerContractError(
                f"scorer returned shape {values.shape} for prefix {prefix!r}, expected {ids.shape}"
            )
        if not ids.size:
            ids = every_id[:0]
        elif ids.dtype.kind not in "iu" or ids[0] < 0 or ids[-1] >= size or (ids[1:] <= ids[:-1]).any():
            raise ScorerContractError(
                f"scorer row ids for prefix {prefix!r} are not sorted unique integers in [0, {size})"
            )
        if not (default < np.inf and (values < np.inf).all()):
            raise ScorerContractError(f"scorer returned NaN or +inf for prefix {prefix!r}")
        return default, ids, values

    return read


def _candidates(
    row: tuple, offset: float, head: np.ndarray, plain: np.ndarray, is_plain: np.ndarray, width: int,
    tail: int,
) -> tuple:
    """Build one scorer context's candidate block from its sparse row.

    Returns the block's tokens and scores (``offset`` plus the row's),
    the ``width``-th best plain score (the cut) and the best plain score
    below it. The block is ``head`` (the end sentinel, then the special
    tokens), the plain tokens strictly above the cut and the ``width``
    smallest ids tied at it, padded with -inf to ``head.size + tail``
    columns (``tail``: the most plain tokens a block holds, at least 1),
    the last one always plain (or padding). Every plain token the row
    does not list scores the default, so ``width`` of them stand in for
    all of them: in the cut, and, when the default reaches the cut, as
    the smallest unlisted plain ids.
    """
    default, ids, values = row
    if offset:
        default, values = default + offset, values + offset
    listed = is_plain[ids]
    seen, rest = ids[listed], values[listed]
    unseen = min(width, plain.size - seen.size)
    if plain.size > width:
        cut = np.partition(np.concatenate((rest, [default] * unseen)), -width)[-width]
    else:
        cut = -np.inf
    above, tied = seen[rest > cut], seen[rest == cut]
    if unseen and default >= cut:
        # the smallest unlisted plain ids, all within the first ``width`` unlisted
        first = plain[:width + seen.size]
        free = first[~np.isin(first, seen)][:unseen]
        if default > cut:
            above = np.sort(np.concatenate((above, free)))
        else:
            tied = np.sort(np.concatenate((tied, free)))
    top = np.concatenate((above, tied[:width]))
    pad = tail - top.size
    tokens = np.concatenate((head, top, head[:1].repeat(pad)))  # padded with the end sentinel
    if ids.size:
        at = ids.searchsorted(tokens)
        scores = np.where(ids.take(at, mode="clip") == tokens, values.take(at, mode="clip"), default)
    else:
        scores = np.full(tokens.size, default)
    scores[tokens.size - pad:] = -np.inf
    lower = rest[rest < cut].max(initial=default if unseen and default < cut else -np.inf)
    return tokens, scores, cut, lower


def decode(scorer: Scorer, fsm: ConstraintFSM, cfg: DecodeConfig = DecodeConfig()) -> DecodeResult:
    """Run constrained beam search and post-select the best finisher.

    Raises :class:`VocabMismatchError` when scorer and FSM disagree on
    vocabulary size, and :class:`NoHypothesisError` when the quota
    cannot be met and the fallback is disabled, or when no hypothesis
    finishes with a nonzero probability. Raises
    :class:`ScorerContractError` when a scorer row has the wrong shape
    or holds NaN or +inf, a sparse row's ids are unsorted, repeated or
    out of range, or the scorer's ``context_size`` is not ``None`` or an
    ``int`` >= 0.
    """
    vocab = scorer.vocab
    if len(vocab) != fsm.vocab_size:
        raise VocabMismatchError(
            f"scorer vocabulary has {len(vocab)} tokens, FSM expects {fsm.vocab_size}"
        )
    eos, size, width = vocab.eos_id, len(vocab), cfg.beam_width
    # Only constraint ("special") tokens move a state off its mask state;
    # every other ("plain") token leads each state to its own mask state.
    special = fsm.tokens[fsm.tokens != eos]
    is_plain = np.ones(size, dtype=bool)
    is_plain[fsm.tokens] = is_plain[eos] = False
    plain = np.flatnonzero(is_plain)
    head = np.append(eos, special)
    plain_cols = min(2 * width - 1, max(plain.size, 1))
    layout = (head, plain, is_plain, width, plain_cols)
    read = _rows(scorer, size)
    # Every block has the same layout, so one column map routes them all.
    cols = np.concatenate((fsm.columns[head], np.full(plain_cols, -1)))

    context = _context_size(scorer)
    # Contexts scored so far in this call: key -> row of the ``stack`` arrays
    # (the blocks' tokens, scores, cuts, best scores below the cut and the
    # ids of their tails), and tail -> tail id.
    keys: dict[tuple[int, ...], int] = {}
    tails: dict[tuple[int, ...], int] = {}
    empty = (
        np.empty((0, cols.size), dtype=np.intp), np.empty((0, cols.size)), np.empty(0), np.empty(0),
        np.empty(0, dtype=np.int64),
    )
    # The codes ``tail id * size + token`` seen so far, sorted, and the context
    # each leads to; the last code is a sentinel above every real one.
    unseen = (np.array([np.iinfo(np.int64).max]), np.array([-1]))
    stack, (known, known_ctx) = empty, unseen

    # Row i holds hypothesis i's tokens, padded with -1 past its length.
    seqs = np.full((1, cfg.max_len + 1), -1, dtype=np.int16 if size < 2**15 else np.int32)
    states = np.array([fsm.initial_state])
    logprobs = np.zeros(1)
    code = np.array([-1])  # the empty prefix's code, unlike any other
    # The finishers that can still be finalists (tokens, logprobs, states),
    # and each state's ``width``-th best finisher logprob so far.
    store = (seqs[:0], np.empty(0), np.empty(0, dtype=fsm.table.dtype))
    bar = np.full(fsm.state_count, -np.inf)

    for step in range(cfg.max_len + 1):
        if context is None:
            keys.clear()
            tails.clear()
            stack, (known, known_ctx) = empty, unseen
        start = 0 if context is None else max(0, step - context)
        # A row's context follows from its parent's tail and its last token,
        # so only one row per code not seen before reads its key.
        at = known.searchsorted(code)
        ctx = known_ctx[at]
        miss = np.flatnonzero(known[at] != code)
        if miss.size:
            new_codes, first, inverse = np.unique(code[miss], return_index=True, return_inverse=True)
            new_ctx = np.empty(new_codes.size, dtype=np.intp)
            blocks = []
            for j, i in enumerate(miss[first].tolist()):
                key = tuple(seqs[i, start:step].tolist())
                c = keys.get(key)  # a known key under a new code only when context_size is 0
                if c is None:
                    c = keys[key] = len(keys)
                    block = _candidates(read(tuple(seqs[i, :step].tolist())), 0.0, *layout)
                    tail = key[1:] if len(key) == context else key
                    blocks.append(block + (tails.setdefault(tail, len(tails)),))
                new_ctx[j] = c
            ctx[miss] = new_ctx[inverse]
            known, known_ctx = np.concatenate((known, new_codes)), np.concatenate((known_ctx, new_ctx))
            order = known.argsort()
            known, known_ctx = known[order], known_ctx[order]
            if blocks:
                stack = tuple(np.concatenate((old, new)) for old, new in zip(stack, zip(*blocks)))
        ids, scores, cut, lower, tail_id = (part[ctx] for part in stack)
        lp = logprobs[:, None] + scores
        # fl(L + x) never decreases as x grows, so ``logprobs + cut`` is each
        # row's ``width``-th best plain score, and a raw value below the cut
        # ties it only when ``logprobs + lower`` rounds to the same sum. Such
        # a row rebuilds its block from its full row instead.
        tied = (lower > -np.inf) & (logprobs + lower == logprobs + cut)
        for i in np.flatnonzero(tied).tolist():
            prefix = tuple(seqs[i, :step].tolist())
            ids[i], lp[i], _, _ = _candidates(read(prefix), logprobs[i], *layout)
        target = fsm.table[states[:, None], cols]
        end_lp, end_state = lp[:, 0], target[:, 0]

        # A finisher scoring below the ``width``-th best finisher of its
        # state can never be a finalist, so it is not kept; one tied with it
        # is, for the token-order tie-break.
        done = (end_lp > -np.inf) & (end_lp >= bar[end_state])
        if done.any():
            ends = seqs[done]
            ends[:, step] = eos
            store = tuple(np.concatenate(part) for part in zip(store, (ends, end_lp[done], end_state[done])))
            fin_lp, fin_state = store[1:]
            order = np.lexsort((-fin_lp, fin_state))
            ranked = fin_state[order]
            nth = order[np.arange(order.size) - ranked.searchsorted(ranked) == width - 1]
            bar[fin_state[nth]] = fin_lp[nth]
            store = tuple(part[fin_lp >= bar[fin_state]] for part in store)
        if step == cfg.max_len:
            break

        # Each row's ``width`` best plain candidates score at least
        # ``logprobs + cut``; a rebuilt row's too, as its cut is that sum.
        at = _survivors(lp, target, logprobs + cut, fsm.state_count)
        lp, target = lp.take(at), target.take(at)
        flat = at // cols.size * size + ids.take(at)
        order = np.lexsort((flat, -lp, target))
        keep = order[_first_per_key(target[order], width)]
        if not keep.size:
            break
        keep = keep[np.argsort(flat[keep])]
        rows, tokens = np.divmod(flat[keep], size)
        seqs = seqs[rows]
        seqs[:, step] = tokens
        states, logprobs = target[keep], lp[keep]
        code = tail_id[rows] * size + tokens

    # Each state keeps its best ``beam_width`` finishers by (-logprob,
    # tokens). No finisher is a prefix of another, as the end sentinel
    # appears only at its end, so the -1 padding never decides an order.
    ends, fin_lp, fin_state = store
    order = np.lexsort(tuple(ends.T[::-1]) + (-fin_lp, fin_state))
    order = order[_first_per_key(fin_state[order], width)]
    length = (ends >= 0).sum(1)[order]
    ends, fin_lp, fin_state = ends[order, :length.max(initial=0)], fin_lp[order], fin_state[order]
    satisfied = np.array([fsm.satisfied_count(s) for s in fin_state.tolist()], dtype=int)

    reached = satisfied.max(initial=-1)
    if reached < fsm.min_satisfied and not cfg.min_satisfied_fallback:
        raise NoHypothesisError(
            f"no completed hypothesis satisfies {fsm.min_satisfied} "
            f"constraint(s) within {cfg.max_len} tokens"
        )
    if reached < 0:
        raise NoHypothesisError("no completed hypothesis at any satisfaction tier")
    # The best finisher at or above the tier by (-score, tokens).
    eligible = np.flatnonzero(satisfied >= min(fsm.min_satisfied, reached))
    score = fin_lp[eligible] / length[eligible] if cfg.length_normalize else fin_lp[eligible]
    best = eligible[np.lexsort(tuple(ends[eligible].T[::-1]) + (-score,))[0]]
    return DecodeResult(
        tokens=tuple(ends[best, :length[best]].tolist()),
        logprob=fin_lp[best].item(),
        satisfied_count=satisfied[best].item(),
        per_state_finalists=_Finalists(ends, fin_lp, fin_state),
    )


def decode_unconstrained(
    scorer: Scorer, beam_width: int = 5, max_len: int = 20
) -> DecodeResult:
    """Standard beam search: decoding against the trivial one-state machine."""
    fsm = compile_fsm([], 0, scorer.vocab)
    return decode(scorer, fsm, DecodeConfig(beam_width=beam_width, max_len=max_len))
