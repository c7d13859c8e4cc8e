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
map sends each token id to its column.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from enum import Enum
from typing import Iterable, Sequence

import numpy as np

from .errors import (
    EmptyGroupError,
    MalformedGroupError,
    OutOfRangeError,
    TooManyGroupsError,
)
from .vocab import Vocabulary

MAX_GROUPS = 16


class PhraseMatchMode(str, Enum):
    """How multi-word phrase progress reacts to a mismatching token."""

    FAITHFUL = "faithful"
    FAILURE = "failure"


@dataclass(frozen=True)
class ConstraintGroup:
    """One constraint: alternative token sequences, any of which satisfies it.

    ``alternatives`` holds token *strings*; they are resolved against a
    vocabulary when the group is compiled. Duplicates are collapsed;
    the label is free-form provenance (typically the source object
    class).
    """

    label: str
    alternatives: tuple[tuple[str, ...], ...]

    def __post_init__(self):
        # A string would be iterated as one-letter tokens.
        if isinstance(self.alternatives, str):
            raise MalformedGroupError(f"group {self.label!r}: alternatives must be a list, not a string")
        seen: set[tuple[str, ...]] = set()
        unique: list[tuple[str, ...]] = []
        for alt in self.alternatives:
            if isinstance(alt, str):
                raise MalformedGroupError(
                    f"group {self.label!r}: alternative {alt!r} must be a list of tokens, not a string"
                )
            alt = tuple(alt)
            if not alt:
                raise EmptyGroupError(
                    f"group {self.label!r} contains an empty alternative"
                )
            if alt not in seen:
                seen.add(alt)
                unique.append(alt)
        if not unique:
            raise EmptyGroupError(f"group {self.label!r} has no alternatives")
        object.__setattr__(self, "alternatives", tuple(unique))

    @classmethod
    def from_json(cls, obj: dict) -> "ConstraintGroup":
        if not isinstance(obj, dict):
            raise MalformedGroupError(f"a group must be a JSON object, not {obj!r}")
        label, alternatives = str(obj.get("label", "")), obj["alternatives"]
        if not isinstance(alternatives, list) or not all(
            isinstance(alt, list) and all(isinstance(tok, str) for tok in alt) for alt in alternatives
        ):
            raise MalformedGroupError(
                f"group {label!r}: alternatives must be a list of lists of token strings, not {alternatives!r}"
            )
        return cls(label=label, alternatives=alternatives)

    def to_json(self) -> dict:
        return {
            "label": self.label,
            "alternatives": [list(alt) for alt in self.alternatives],
        }


def load_constraints(obj: dict) -> tuple[list[ConstraintGroup], int]:
    """Parse a constraint record ``{"min_satisfied": k, "groups": [...]}``.

    ``min_satisfied`` defaults to ``min(2, len(groups))`` when absent.
    """
    if not isinstance(obj, dict) or not isinstance(obj.get("groups", []), list):
        raise MalformedGroupError("a constraint record must be a JSON object whose groups are a list")
    groups = [ConstraintGroup.from_json(g) for g in obj.get("groups", [])]
    k = obj.get("min_satisfied")
    if k is None:
        k = min(2, len(groups))
    elif not isinstance(k, int) or isinstance(k, bool):
        raise MalformedGroupError(f"min_satisfied must be an integer, got {k!r}")
    return groups, k


def load_constraints_file(path: str) -> tuple[list[ConstraintGroup], int]:
    with open(path, "r", encoding="utf-8") as fp:
        return load_constraints(json.load(fp))


class ConstraintFSM:
    """A compiled constraint machine in the default-column layout.

    ``tokens`` holds the sorted constraint token ids, ``table`` one row
    per state with one column per constraint token and a last column
    holding the state's mask state (the target of every other token),
    and ``columns`` maps each vocabulary id to its column. Immutable
    once built; :meth:`step`, :meth:`targets`, :meth:`accepting` and
    :meth:`satisfied_count` are pure reads and safe to share across
    threads. Use :func:`compile_fsm` to construct one.
    """

    __slots__ = (
        "tokens",
        "table",
        "columns",
        "state_labels",
        "min_satisfied",
        "n_groups",
        "mode",
        "_popcounts",
    )

    def __init__(
        self,
        tokens: np.ndarray,
        table: np.ndarray,
        vocab_size: int,
        state_labels: tuple[tuple, ...],
        min_satisfied: int,
        n_groups: int,
        mode: PhraseMatchMode,
    ):
        columns = np.full(vocab_size, len(tokens), dtype=np.int32)
        columns[tokens] = np.arange(len(tokens))
        pop = np.array([int(m).bit_count() for m in table[:, -1]], dtype=np.int64)
        for array in (tokens, table, columns, pop):
            array.flags.writeable = False
        self.tokens, self.table, self.columns, self._popcounts = tokens, table, columns, pop
        self.state_labels = state_labels
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
    def transitions(self) -> np.ndarray:
        """The dense, read-only ``state_count x vocab_size`` table, derived on each read."""
        dense = self.table[:, self.columns]
        dense.flags.writeable = False
        return dense

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
        return int(self.targets(state, token))

    def targets(self, states, tokens) -> np.ndarray:
        """Next states for ``tokens`` read in ``states``, broadcast like numpy indices."""
        return self.table[states, self.columns[tokens]]

    def run(self, tokens: Iterable[int], state: int | None = None) -> int:
        """Fold :meth:`step` over ``tokens`` (from the initial state by default)."""
        cur = self.initial_state if state is None else state
        for tok in tokens:
            cur = self.step(cur, tok)
        return cur

    def satisfied_mask(self, state: int) -> int:
        self._check_state(state)
        return int(self.table[state, -1])

    def satisfied_count(self, state: int) -> int:
        """Number of groups satisfied on every path into ``state``."""
        self._check_state(state)
        return int(self._popcounts[state])

    def accepting(self, state: int) -> bool:
        """True iff at least ``min_satisfied`` groups are satisfied in ``state``."""
        return self.satisfied_count(state) >= self.min_satisfied

    def accepting_states(self) -> tuple[int, ...]:
        return tuple(
            int(s) for s in np.flatnonzero(self._popcounts >= self.min_satisfied)
        )

    def describe_state(self, state: int) -> str:
        self._check_state(state)
        label = self.state_labels[state]
        mask = label[0]
        bits = format(mask, f"0{max(self.n_groups, 1)}b")
        if len(label) == 1:
            progress = "-"
        else:
            _, g, ai, pos = label
            progress = f"group={g} alt={ai} matched={pos}"
        flag = " accepting" if self.accepting(state) else ""
        return f"state {state}: mask={bits} satisfied={self.satisfied_count(state)} progress={progress}{flag}"

    def __repr__(self) -> str:
        return (
            f"ConstraintFSM(states={self.state_count}, groups={self.n_groups}, "
            f"min_satisfied={self.min_satisfied}, mode={self.mode.value})"
        )


def _resolve_groups(
    groups: Sequence[ConstraintGroup], vocab: Vocabulary
) -> list[tuple[tuple[int, ...], ...]]:
    resolved = []
    for group in groups:
        alts = sorted({vocab.ids(alt) for alt in group.alternatives})
        resolved.append(tuple(alts))
    return resolved


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
        groups are satisfied. ``0 <= k <= len(groups)``; with zero
        groups and ``k = 0`` the result is the trivial one-state,
        always-accepting machine.
    vocab:
        Every token string in every alternative must resolve here.
    mode:
        Phrase mismatch semantics, see :class:`PhraseMatchMode`.
    """
    n = len(groups)
    if n > MAX_GROUPS:
        raise TooManyGroupsError(f"{n} groups exceed the mask width ({MAX_GROUPS})")
    if not 0 <= min_satisfied <= n:
        raise ValueError(f"min_satisfied={min_satisfied} outside [0, {n}]")
    mode = PhraseMatchMode(mode)
    alt_ids = _resolve_groups(groups, vocab)

    n_masks = 1 << n
    state_labels: list[tuple] = [(m,) for m in range(n_masks)]
    progress_ids: dict[tuple[int, int, int, int], int] = {}
    for m in range(n_masks):
        for g in range(n):
            if m >> g & 1:
                continue
            for ai, alt in enumerate(alt_ids[g]):
                for pos in range(1, len(alt)):
                    progress_ids[(m, g, ai, pos)] = len(state_labels)
                    state_labels.append((m, g, ai, pos))

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

    def failure_target(mask: int, s: tuple[int, ...]) -> int:
        ends, starts = matches(s)
        mask |= ends
        # Longest suffix of the input that is a proper prefix of a live
        # alternative; carried progress survives mask changes.
        for length, g, ai in starts:
            if not mask >> g & 1:
                return progress_ids[(mask, g, ai, length)]
        return mask

    def faithful_target(label: tuple, token: int) -> int:
        mask = label[0]
        if len(label) == 1:
            ends = matches((token,))[0]
            # Completing a single-word group wins over starting a phrase.
            return mask | ends if ends & ~mask else failure_target(mask, (token,))
        _, g, ai, pos = label
        alt = alt_ids[g][ai]
        if token != alt[pos]:
            return mask
        return mask | 1 << g if pos + 1 == len(alt) else progress_ids[(mask, g, ai, pos + 1)]

    tokens = sorted({t for alts in alt_ids for alt in alts for t in alt})
    rows = []
    for label in state_labels:
        if mode is PhraseMatchMode.FAILURE:
            prefix = alt_ids[label[1]][label[2]][: label[3]] if len(label) > 1 else ()
            row = [failure_target(label[0], prefix + (tok,)) for tok in tokens]
        else:
            row = [faithful_target(label, tok) for tok in tokens]
        rows.append(row + [label[0]])

    return ConstraintFSM(
        tokens=np.array(tokens, dtype=np.intp),
        table=np.array(rows, dtype=np.int32),
        vocab_size=len(vocab),
        state_labels=tuple(state_labels),
        min_satisfied=min_satisfied,
        n_groups=n,
        mode=mode,
    )
