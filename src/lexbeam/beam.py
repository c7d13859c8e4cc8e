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
  routed through the machine like any other token, and finished token
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
* Each scorer context is scored once per call: ``next_logprobs`` runs
  once per distinct key, the last ``scorer.context_size`` tokens of a
  prefix, or the whole prefix when the scorer declares no
  ``context_size``. It keeps a fixed-width block, never its full row:
  the end sentinel, the special tokens and at most ``2 * beam_width - 1``
  plain tokens (fewer than ``beam_width`` above the cut, then the
  ``beam_width`` smallest ids at it), padded with -inf. Nothing outlives
  the step when the key is the whole prefix.
* Adding a hypothesis logprob to raw scores keeps their order, so the
  context's block holds the hypothesis's candidates, except where
  rounding makes a lower raw score tie the cut; that hypothesis rebuilds
  its block from its full row, shifted by its logprob.
* A finisher below the ``beam_width``-th best earlier finisher of its
  state is dropped at once, so stored finishers stay near
  ``beam_width`` per state.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import NoHypothesisError, NonPositiveCountError, ScorerContractError, VocabMismatchError
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
        if self.beam_width < 1:
            raise NonPositiveCountError("beam_width must be >= 1")
        if self.max_len < 1:
            raise NonPositiveCountError("max_len must be >= 1")


@dataclass(frozen=True, slots=True)
class BeamHypothesis:
    """A finished candidate: tokens (ending in the end sentinel), score
    and the FSM state it finished in."""

    tokens: tuple[int, ...]
    logprob: float
    fsm_state: int


@dataclass(frozen=True)
class DecodeResult:
    """Outcome of a decode call.

    ``tokens`` includes the terminating end-sentinel id;
    ``satisfied_count`` is the actual satisfied-group count of the
    winning hypothesis, which can be below the quota only when the
    fallback tiers were used. ``per_state_finalists`` maps each FSM
    state that produced finishers to its best completed hypotheses (at
    most ``beam_width``, best first). It holds finite-logprob finishers
    only.
    """

    tokens: tuple[int, ...]
    logprob: float
    satisfied_count: int
    per_state_finalists: dict[int, tuple[BeamHypothesis, ...]] = field(hash=False)


def _first_per_key(keys: np.ndarray, width: int) -> np.ndarray:
    """Mask of the first ``width`` entries of each run of equal, sorted ``keys``."""
    return np.arange(len(keys)) - np.searchsorted(keys, keys) < width


def _candidates(
    scorer: Scorer, prefix: tuple[int, ...], offset: float, size: int, eos: int,
    special: np.ndarray, plain: np.ndarray, width: int,
) -> tuple:
    """Score one scorer context and build its candidate block.

    Returns the block's tokens and scores (``offset`` plus the row's),
    the ``width``-th best plain score (the cut) and the best plain score
    below it. The block is the end sentinel, the special tokens, the
    plain tokens strictly above the cut and the ``width`` smallest ids
    tied at it, padded with -inf to ``special.size + 2 * width`` columns.
    """
    row = np.asarray(scorer.next_logprobs(prefix), dtype=float)
    if row.shape != (size,):
        raise ScorerContractError(
            f"scorer returned shape {row.shape} for prefix {prefix!r}, expected ({size},)"
        )
    if np.isnan(row).any():
        raise ScorerContractError(f"scorer returned NaN for prefix {prefix!r}")
    rest = row[plain] + offset
    cut = np.partition(rest, -width)[-width] if plain.size > width else -np.inf
    top = plain[np.concatenate([np.flatnonzero(rest > cut), np.flatnonzero(rest == cut)[:width]])]
    tokens = np.concatenate([[eos], special, top, np.full(2 * width - 1 - top.size, eos)])
    scores = row[tokens] + offset
    scores[1 + special.size + top.size:] = -np.inf
    return tokens, scores, cut, np.max(rest, where=rest < cut, initial=-np.inf)


def decode(scorer: Scorer, fsm: ConstraintFSM, cfg: DecodeConfig = DecodeConfig()) -> DecodeResult:
    """Run constrained beam search and post-select the best finisher.

    Raises :class:`VocabMismatchError` when scorer and FSM disagree on
    vocabulary size, and :class:`NoHypothesisError` when the quota
    cannot be met and the fallback is disabled, or when no hypothesis
    finishes with a nonzero probability. Raises
    :class:`ScorerContractError` when a scorer row has the wrong shape
    or holds NaN.
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
    plain = np.setdiff1d(np.arange(size), np.append(fsm.tokens, eos))
    layout = (size, eos, special, plain, width)

    context = getattr(scorer, "context_size", None)
    # Contexts scored so far in this call: key -> index into ``blocks``.
    keys: dict[tuple[int, ...], int] = {}
    blocks: list[tuple] = []

    # Row i holds hypothesis i's tokens, padded with -1 past its length.
    seqs = np.full((1, cfg.max_len + 1), -1, dtype=np.int32)
    states = np.array([fsm.initial_state])
    logprobs = np.zeros(1)
    finished: list[tuple[np.ndarray, np.ndarray, np.ndarray]] = []
    # Each state's ``width`` best finisher logprobs so far, and the worst of
    # them once there are ``width``.
    best_lp, best_state = np.empty(0), np.empty(0, dtype=int)
    bar = np.full(fsm.state_count, -np.inf)

    for step in range(cfg.max_len + 1):
        if context is None:
            keys.clear()
            blocks.clear()
        start = 0 if context is None else max(0, step - context)
        ctx = np.empty(len(states), dtype=np.intp)
        for i, key in enumerate(map(tuple, seqs[:, start:step].tolist())):
            c = keys.get(key)
            if c is None:
                c = keys[key] = len(blocks)
                prefix = tuple(seqs[i, :step].tolist())
                blocks.append(_candidates(scorer, prefix, 0.0, *layout))
            ctx[i] = c
        ids, scores, cut, lower = (np.array(part)[ctx] for part in zip(*blocks))
        lp = logprobs[:, None] + scores
        # fl(L + x) never decreases as x grows, so ``logprobs + cut`` is each
        # row's ``width``-th best plain score, and a raw value below the cut
        # ties it only when ``logprobs + lower`` rounds to the same sum. Such
        # a row rebuilds its block from its full row instead.
        tied = (lower > -np.inf) & (logprobs + lower == logprobs + cut)
        for i in np.flatnonzero(tied).tolist():
            prefix = tuple(seqs[i, :step].tolist())
            ids[i], lp[i], _, _ = _candidates(scorer, prefix, logprobs[i], *layout)
        flat = np.arange(len(states))[:, None] * size + ids
        end_lp = lp[:, 0]

        # A finisher scoring below the ``width``-th best earlier finisher
        # of its state can never be a finalist, so it is not kept.
        end_state = fsm.targets(states, eos)
        done = (end_lp > -np.inf) & (end_lp >= bar[end_state])
        ends = seqs[done]
        ends[:, step] = eos
        finished.append((ends, end_lp[done], end_state[done]))
        best_lp = np.concatenate([best_lp, end_lp[done]])
        best_state = np.concatenate([best_state, end_state[done]])
        order = np.lexsort((-best_lp, best_state))
        order = order[_first_per_key(best_state[order], width)]
        best_lp, best_state = best_lp[order], best_state[order]
        kept = np.bincount(best_state, minlength=fsm.state_count)
        bar[kept == width] = best_lp[np.cumsum(kept)[kept == width] - 1]
        if step == cfg.max_len:
            break

        lp, flat = lp[:, 1:].ravel(), flat[:, 1:].ravel()
        alive = lp > -np.inf
        lp, flat = lp[alive], flat[alive]
        target = fsm.targets(states[flat // size], flat % size)
        order = np.lexsort((flat, -lp, target))
        keep = order[_first_per_key(target[order], width)]
        if not keep.size:
            break
        keep = keep[np.argsort(flat[keep])]
        rows, tokens = np.divmod(flat[keep], size)
        seqs = seqs[rows]
        seqs[:, step] = tokens
        states, logprobs = target[keep], lp[keep]

    # Each state keeps its best ``beam_width`` finishers by (-logprob,
    # tokens). No finisher is a prefix of another, as the end sentinel
    # appears only at its end, so the -1 padding never decides an order.
    ends, fin_lp, fin_state = (np.concatenate(part) for part in zip(*finished))
    order = np.lexsort(tuple(ends.T[::-1]) + (-fin_lp, fin_state))
    order = order[_first_per_key(fin_state[order], width)]
    finalists: dict[int, list[BeamHypothesis]] = {}
    for i in order.tolist():
        s = int(fin_state[i])
        tokens = tuple(t for t in ends[i].tolist() if t >= 0)
        finalists.setdefault(s, []).append(BeamHypothesis(tokens, float(fin_lp[i]), s))

    reached = max((fsm.satisfied_count(s) for s in finalists), default=-1)
    if reached < fsm.min_satisfied and not cfg.min_satisfied_fallback:
        raise NoHypothesisError(
            f"no completed hypothesis satisfies {fsm.min_satisfied} "
            f"constraint(s) within {cfg.max_len} tokens"
        )
    if reached < 0:
        raise NoHypothesisError("no completed hypothesis at any satisfaction tier")
    tier = min(fsm.min_satisfied, reached)

    def rank(hyp: BeamHypothesis) -> tuple:
        score = hyp.logprob / len(hyp.tokens) if cfg.length_normalize else hyp.logprob
        return -score, hyp.tokens

    best = min(
        (hyp for s, hyps in finalists.items() if fsm.satisfied_count(s) >= tier for hyp in hyps),
        key=rank,
    )
    return DecodeResult(
        tokens=best.tokens,
        logprob=best.logprob,
        satisfied_count=fsm.satisfied_count(best.fsm_state),
        per_state_finalists={s: tuple(hyps) for s, hyps in finalists.items()},
    )


def decode_unconstrained(
    scorer: Scorer, beam_width: int = 5, max_len: int = 20
) -> DecodeResult:
    """Standard beam search: decoding against the trivial one-state machine."""
    fsm = compile_fsm([], 0, scorer.vocab)
    return decode(scorer, fsm, DecodeConfig(beam_width=beam_width, max_len=max_len))
