"""Compile lexical constraints into a finite state machine.

A constraint group is a set of alternative token sequences (word forms
or multi-word phrases); the group counts as satisfied once any one of
its alternatives occurs contiguously in the decoded output. The machine
tracks which groups have been satisfied (a bitmask) together with the
progress of the phrase currently being matched, so a beam decoder can
keep one beam per state and read constraint satisfaction off the state
id alone. A state is accepting when at least ``min_satisfied`` of the
``n`` groups are satisfied.

State layout
------------
Ids ``0 .. 2**n - 1`` are the *mask states*; the id of a mask state is
its satisfaction bitmask (bit ``g`` set means group ``g`` satisfied),
so id 0 is the initial state. Phrase-progress states follow: every
alternative of length ``L > 1`` owns ``L - 1`` progress states in every
mask state where its group is still unsatisfied. With three single-word
groups the machine therefore has exactly 8 states, and a two-word or
three-word alternative adds exactly 4 or 8 states respectively.

Progress ids are ordered by mask, group, alternative (sorted by token
ids) and matched length ``p``. With ``R[g]`` the sum of ``L - 1`` over
group ``g``'s alternatives and ``free[m, g]`` true when bit ``g`` of
``m`` is clear, the state of mask ``m``, group ``g`` and alternative
``a`` has id ``first[m, g] + sum(L_b - 1 for b < a) + p - 1``, where
``first[m, g] = base[m] + sum(free[m, h] * R[h] for h < g)`` and
``base[m] = 2**n + sum(free[l, h] * R[h] for l < m, all h)``.

Phrase mismatch semantics
-------------------------
Two transition semantics are provided (:class:`PhraseMatchMode`):

* ``FAILURE`` (default): mismatching tokens follow failure transitions
  that keep the longest suffix of the input still matching a prefix of
  some live alternative, so substring recognition is exact even when
  phrases overlap themselves or each other.
* ``FAITHFUL``: any token that does not extend the phrase currently in
  progress drops back to the bare mask state, even when that token
  would restart the phrase or complete another group. This replicates
  the classic construction where every progress state has a single
  reset edge for all non-matching tokens.

Progress states are allocated per alternative in both modes. In
``FAILURE`` mode, alternatives sharing a prefix are recognized through
the canonical (first-listed) state for that prefix; the duplicate
states remain in the table with equivalent transitions.

Transition table
----------------
Only the *constraint tokens*, those occurring in some alternative, can
move a state anywhere but its own mask state. The table therefore has
one column per constraint token plus a last, default column holding
each state's mask state, the target of every other token; a length-V
map sends each token id to its column. Its state ids are int16 below
2**15 states and int32 from there on, 2 or 4 bytes per entry.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Iterable, Sequence

import numpy as np

from .errors import (
    EmptyGroupError,
    FSMTooLargeError,
    MalformedGroupError,
    OutOfRangeError,
    QuotaRangeError,
    TooManyGroupsError,
    check_int,
    load_json,
)
from .vocab import Vocabulary

MAX_GROUPS = 16
# Admits every 16-group machine of one word and one two-word phrase per
# group: 589 824 states x 49 int32 columns, a 110 MiB table.
MAX_TABLE_BYTES = 1 << 28


class PhraseMatchMode(str, Enum):
    """How multi-word phrase progress reacts to a mismatching token."""

    FAITHFUL = "faithful"
    FAILURE = "failure"


@dataclass(frozen=True, slots=True)
class ConstraintGroup:
    """One constraint: alternative token sequences, any of which satisfies it.

    ``alternatives`` is a list or tuple of non-empty lists or tuples of
    token *strings* (anything else raises :class:`MalformedGroupError`,
    no or an empty alternative :class:`EmptyGroupError`); they are
    resolved against a vocabulary when the group is compiled. Duplicates
    are collapsed; the label is free-form provenance (typically the
    source object class).
    """

    label: str
    alternatives: tuple[tuple[str, ...], ...]

    def __post_init__(self):
        # Only lists and tuples count: a string would be iterated as
        # one-letter tokens.
        alts = self.alternatives
        if not isinstance(alts, (list, tuple)) or not all(
            isinstance(alt, (list, tuple)) and all(isinstance(tok, str) for tok in alt) for alt in alts
        ):
            raise MalformedGroupError(
                f"group {self.label!r}: alternatives must be a list of lists of token strings, not {alts!r}"
            )
        unique = tuple(dict.fromkeys(map(tuple, alts)))
        if not unique or () in unique:
            raise EmptyGroupError(f"group {self.label!r} has no alternatives, or an empty one")
        object.__setattr__(self, "alternatives", unique)

    @classmethod
    def from_json(cls, obj: dict) -> "ConstraintGroup":
        if not isinstance(obj, dict) or "alternatives" not in obj:
            raise MalformedGroupError(f"a group must be a JSON object with alternatives, not {obj!r}")
        return cls(label=str(obj.get("label", "")), alternatives=obj["alternatives"])

    def to_json(self) -> dict:
        return {
            "label": self.label,
            "alternatives": [list(alt) for alt in self.alternatives],
        }


def default_quota(n_groups: int) -> int:
    """The quota of a record that sets none."""
    return min(2, n_groups)


def check_quota(k, n_groups: int) -> int:
    """``k`` as the quota of ``n_groups`` groups: in ``[0, n_groups]``, else :class:`QuotaRangeError`."""
    if not 0 <= check_int("min_satisfied", k, type_error=MalformedGroupError) <= n_groups:
        raise QuotaRangeError(f"min_satisfied={k} outside [0, {n_groups}]")
    return k


def load_constraints(obj: dict) -> tuple[list[ConstraintGroup], int]:
    """Parse a constraint record ``{"min_satisfied": k, "groups": [...]}``.

    ``groups`` is required (``[]`` for no constraints); ``min_satisfied``
    defaults to ``min(2, len(groups))`` when absent.
    """
    if not isinstance(obj, dict) or not isinstance(obj.get("groups"), list):
        raise MalformedGroupError("a constraint record must be a JSON object whose groups are a list")
    groups = [ConstraintGroup.from_json(g) for g in obj["groups"]]
    k = obj.get("min_satisfied")
    k = default_quota(len(groups)) if k is None else k
    return groups, check_int("min_satisfied", k, type_error=MalformedGroupError)


def load_constraints_file(path: str) -> tuple[list[ConstraintGroup], int]:
    with open(path, "r", encoding="utf-8") as fp:
        return load_constraints(load_json(fp.read()))


class ConstraintFSM:
    """A compiled constraint machine in the default-column layout.

    ``tokens`` holds the sorted constraint token ids, ``table`` one row
    per state (int16 below 2**15 states, else int32) with one column per
    constraint token and a last column holding the state's mask state
    (the target of every other token), and ``columns`` maps each
    vocabulary id to its column. Immutable once built; :meth:`step`,
    :meth:`accepting`, :meth:`satisfied_count` and
    :meth:`satisfied_counts` are pure reads and safe to share across
    threads. Use :func:`compile_fsm` to construct one.
    """

    __slots__ = (
        "tokens",
        "table",
        "columns",
        "min_satisfied",
        "n_groups",
        "mode",
        "_progress",
        "_counts",
    )

    def __init__(
        self,
        tokens: np.ndarray,
        table: np.ndarray,
        vocab_size: int,
        progress: np.ndarray,
        min_satisfied: int,
        n_groups: int,
        mode: PhraseMatchMode,
    ):
        columns = np.full(vocab_size, len(tokens), dtype=np.int32)
        columns[tokens] = np.arange(len(tokens))
        for array in (tokens, table, columns, progress):
            array.flags.writeable = False
        self.tokens, self.table, self.columns = tokens, table, columns
        self._progress = progress  # (group, alt, matched) per state; matched 0 on mask states
        # Each mask's set-bit count: mask m + 2**g counts one more than m below 2**g.
        counts = np.zeros(1, dtype=np.int8)
        for _ in range(n_groups):
            counts = np.concatenate((counts, counts + 1))
        counts.flags.writeable = False
        self._counts = counts
        self.min_satisfied = min_satisfied
        self.n_groups = n_groups
        self.mode = mode

    @property
    def state_count(self) -> int:
        return self.table.shape[0]

    @property
    def vocab_size(self) -> int:
        return self.columns.shape[0]

    @property
    def initial_state(self) -> int:
        return 0

    def _check_state(self, state: int) -> None:
        if not 0 <= state < self.state_count:
            raise OutOfRangeError(
                f"state {state} out of range [0, {self.state_count})"
            )

    def step(self, state: int, token: int) -> int:
        """The transition function: next state for ``token`` read in ``state``."""
        self._check_state(state)
        if not 0 <= token < self.vocab_size:
            raise OutOfRangeError(
                f"token {token} out of range [0, {self.vocab_size})"
            )
        return int(self.table[state, self.columns[token]])

    def run(self, tokens: Iterable[int]) -> int:
        """Fold :meth:`step` over ``tokens`` from the initial state."""
        cur = self.initial_state
        for tok in tokens:
            cur = self.step(cur, tok)
        return cur

    def satisfied_mask(self, state: int) -> int:
        self._check_state(state)
        return int(self.table[state, -1])

    def satisfied_count(self, state: int) -> int:
        """Number of groups satisfied on every path into ``state``."""
        return int(self._counts[self.satisfied_mask(state)])

    def satisfied_counts(self, states: np.ndarray) -> np.ndarray:
        """:meth:`satisfied_count` of every entry of ``states``, unchecked."""
        return self._counts[self.table[states, -1]]

    def accepting(self, state: int) -> bool:
        """True iff at least ``min_satisfied`` groups are satisfied in ``state``."""
        return self.satisfied_count(state) >= self.min_satisfied

    def accepting_states(self) -> tuple[int, ...]:
        return tuple(np.flatnonzero(self._counts[self.table[:, -1]] >= self.min_satisfied).tolist())

    def describe_state(self, state: int) -> str:
        bits = format(self.satisfied_mask(state), f"0{max(self.n_groups, 1)}b")
        g, ai, pos = self._progress[state].tolist()
        progress = f"group={g} alt={ai} matched={pos}" if pos else "-"
        flag = " accepting" if self.accepting(state) else ""
        return f"state {state}: mask={bits} satisfied={self.satisfied_count(state)} progress={progress}{flag}"

    def __repr__(self) -> str:
        return (
            f"ConstraintFSM(states={self.state_count}, groups={self.n_groups}, "
            f"min_satisfied={self.min_satisfied}, mode={self.mode.value})"
        )


def compile_fsm(
    groups: Sequence[ConstraintGroup],
    min_satisfied: int,
    vocab: Vocabulary,
    mode: PhraseMatchMode = PhraseMatchMode.FAILURE,
) -> ConstraintFSM:
    """Compile constraint groups into a :class:`ConstraintFSM`.

    Parameters
    ----------
    groups:
        At most :data:`MAX_GROUPS` constraint groups. Group ``g`` owns
        bit ``g`` of the satisfaction mask.
    min_satisfied:
        Accepting quota ``k``: a state accepts when at least ``k``
        groups are satisfied. An ``int`` (else
        :class:`MalformedGroupError`) with ``0 <= k <= len(groups)``
        (else :class:`QuotaRangeError`); with zero groups and ``k = 0``
        the result is the trivial one-state, always-accepting machine.
    vocab:
        Every token string in every alternative must resolve here.
    mode:
        Phrase mismatch semantics, see :class:`PhraseMatchMode`.

    Raises :class:`FSMTooLargeError`, before building anything, when the
    table would exceed :data:`MAX_TABLE_BYTES`.
    """
    n = len(groups)
    if n > MAX_GROUPS:
        raise TooManyGroupsError(f"{n} groups exceed the mask width ({MAX_GROUPS})")
    check_quota(min_satisfied, n)
    mode = PhraseMatchMode(mode)
    alt_ids = [sorted({vocab.ids(alt) for alt in group.alternatives}) for group in groups]
    tokens = sorted({t for alts in alt_ids for alt in alts for t in alt})
    offsets = [np.cumsum([0] + [len(alt) - 1 for alt in alts]) for alts in alt_ids]
    runs = np.array([off[-1] for off in offsets], dtype=np.int64)
    n_masks = 1 << n
    n_states = n_masks + (n_masks >> 1) * int(runs.sum())
    dtype = np.dtype(np.int16 if n_states < 2**15 else np.int32)
    n_bytes = n_states * (len(tokens) + 1) * dtype.itemsize
    if n_bytes > MAX_TABLE_BYTES:
        raise FSMTooLargeError(
            f"{n_states} states x {len(tokens) + 1} columns need {n_bytes} bytes, over {MAX_TABLE_BYTES}"
        )

    masks = np.arange(n_masks)
    free = (masks[:, None] >> np.arange(n) & 1) == 0
    sizes = free * runs
    base = n_masks + np.cumsum(sizes.sum(axis=1)) - sizes.sum(axis=1)
    first = base[:, None] + np.cumsum(sizes, axis=1) - sizes
    table = np.empty((n_states, len(tokens) + 1), dtype=dtype)
    progress = np.zeros((n_states, 3), dtype=np.int32)

    # Per input string ``s`` (a state's matched prefix plus one token): the
    # groups with an alternative ending ``s``, and the (length, group,
    # alternative) proper prefixes of alternatives that ``s`` ends in,
    # longest first.
    memo: dict[tuple[int, ...], tuple[int, list[tuple[int, int, int]]]] = {}

    def matches(s: tuple[int, ...]) -> tuple[int, list[tuple[int, int, int]]]:
        if s not in memo:
            ends = sum(1 << g for g, alts in enumerate(alt_ids) if any(s[-len(a):] == a for a in alts))
            memo[s] = ends, [
                (length, g, ai)
                for length in range(len(s), 0, -1)
                for g, alts in enumerate(alt_ids)
                for ai, alt in enumerate(alts)
                if len(alt) > length and alt[:length] == s[-length:]
            ]
        return memo[s]

    def fill(rows: np.ndarray, ms: np.ndarray, prefix: tuple[int, ...]) -> None:
        # Longest suffix of the input that is a proper prefix of a live
        # alternative; carried progress survives mask changes.
        for col, tok in enumerate(tokens):
            ends, starts = matches(prefix + (tok,))
            reached = ms | ends
            target = reached
            for length, g, ai in reversed(starts):  # the longest live start is written last
                target = np.where(reached >> g & 1, target, first[reached, g] + offsets[g][ai] + length - 1)
            if mode is PhraseMatchMode.FAITHFUL:  # mask states only: completing a
                # single-word group wins over starting a phrase
                target = np.where(ends & ~ms, reached, target)
            table[rows, col] = target

    table[:n_masks] = masks[:, None]
    fill(masks, masks, ())
    for g, alts in enumerate(alt_ids):
        ms = masks[free[:, g]]
        for ai, alt in enumerate(alts):
            for pos in range(1, len(alt)):
                rows = first[ms, g] + offsets[g][ai] + pos - 1
                progress[rows] = g, ai, pos
                table[rows] = ms[:, None]
                if mode is PhraseMatchMode.FAILURE:
                    fill(rows, ms, alt[:pos])
                else:
                    table[rows, tokens.index(alt[pos])] = ms | 1 << g if pos + 1 == len(alt) else rows + 1

    return ConstraintFSM(
        tokens=np.array(tokens, dtype=np.intp),
        table=table,
        vocab_size=len(vocab),
        progress=progress,
        min_satisfied=min_satisfied,
        n_groups=n,
        mode=mode,
    )
