"""Benchmark assembly: exclusion rules, entropy-maximizing image
selection, domain partitioning and n-gram corpus statistics.

Image selection works over pools of candidate images keyed by how many
unique object classes they contain (2 through 6). Images with more
than 6 unique classes are admitted unconditionally; the pools are then
cycled round-robin, a handful of candidates is drawn per turn, and the
candidate whose addition maximizes the Shannon entropy of the running
class distribution is kept. This stops frequent classes from
dominating the selected set. Candidates are ranked by their rise in
S = sum(c * ln c), which orders them as the entropy does (see
:func:`sample`).
"""

from __future__ import annotations

import math
import random
import string
import sys
from array import array
from collections.abc import Hashable, Iterable, Iterator, Sequence
from dataclasses import dataclass, field
from enum import Enum
from itertools import repeat
from operator import eq

import numpy as np

from .errors import (
    AllClassesIgnoredError,
    EmptyPoolsError,
    MalformedImageError,
    MissingFieldError,
    NGramOrderError,
    OverlappingDomainsError,
    TargetTooSmallError,
    UnknownRotationError,
    UnpooledImageError,
    check_int,
)

AUTO_INCLUDE_MIN_CLASSES = 7  # more than 6 unique classes
POOL_KEYS = (2, 3, 4, 5, 6)
# The largest ``n_max`` of ``ngram_stats``, whose result holds one key per n.
MAX_NGRAM_ORDER = 1 << 20


class Rotation(str, Enum):
    ZERO = "zero"
    NONZERO = "nonzero"
    UNKNOWN = "unknown"


_ROTATIONS = {rotation.value: rotation for rotation in Rotation}


class Domain(str, Enum):
    IN_DOMAIN = "in-domain"
    NEAR_DOMAIN = "near-domain"
    OUT_OF_DOMAIN = "out-of-domain"


@dataclass(frozen=True, slots=True)
class ImageRecord:
    """One annotated image: id, the set of object classes present, and
    its recorded rotation."""

    image_id: str
    classes: frozenset[str]
    rotation: Rotation = Rotation.ZERO

    @classmethod
    def from_json(cls, obj: dict) -> "ImageRecord":
        if not isinstance(obj, dict):
            raise MalformedImageError(f"an image record must be a JSON object, got {obj!r}")
        try:
            image_id, classes = obj["image_id"], obj["classes"]
        except KeyError as exc:
            raise MissingFieldError(f"an image record has no {exc.args[0]!r}") from None
        if not isinstance(image_id, str):
            raise MalformedImageError(f"an image record has no string image_id, got {image_id!r}")
        rotation = obj.get("rotation", "zero")
        try:
            rotation = _ROTATIONS[rotation]
        except (KeyError, TypeError):  # TypeError: unhashable JSON (a list or an object)
            raise UnknownRotationError(
                f"image {image_id!r}: rotation must be one of {list(_ROTATIONS)}, got {rotation!r}"
            ) from None
        return cls(image_id, _class_set(image_id, classes), rotation)


def _class_set(image_id: str, classes) -> frozenset[str]:
    """An image record's ``classes`` as interned strings, so the many
    images naming one class share one string. Anything but a list of
    strings is refused; a string would read as one class per letter."""
    if isinstance(classes, list):
        try:
            return frozenset(map(sys.intern, classes))  # sys.intern takes only str
        except TypeError:
            pass
    raise MalformedImageError(f"image {image_id!r}: classes must be a list of strings, got {classes!r}")


@dataclass(frozen=True)
class DomainSpec:
    """Class partition used to bucket images by novelty."""

    in_domain: frozenset[str]
    out_of_domain: frozenset[str]
    ignored: frozenset[str] = frozenset()

    def __post_init__(self):
        overlaps = (
            (self.in_domain & self.out_of_domain)
            | (self.in_domain & self.ignored)
            | (self.out_of_domain & self.ignored)
        )
        if overlaps:
            raise OverlappingDomainsError(f"domain sets overlap on {sorted(overlaps)!r}")


@dataclass(frozen=True, slots=True)
class SampleStep:
    """Trace of one selection turn: the pool drawn from, the candidate
    ids offered (in draw order) and the chosen one."""

    pool: int
    candidates: tuple[str, ...]
    chosen: str


class _Trace(Sequence):
    """The turns of one selection, kept flat: each turn's pool key, its
    chosen id's position among its drawn ids and its end offset in one
    list of every turn's drawn ids, in draw order. That is one pointer
    per drawn id and a few bytes per turn. Each read builds fresh
    :class:`SampleStep` objects and keeps none."""

    __slots__ = ("_pools", "_ids", "_chosen", "_ends")

    def __init__(self):
        self._pools = array("b")
        self._ids: list[str] = []
        self._chosen = array("q")
        self._ends = array("q")

    def _add(self, pool: int, ids: Iterable[str], chosen: int) -> None:
        self._pools.append(pool)
        self._ids.extend(ids)
        self._chosen.append(chosen)
        self._ends.append(len(self._ids))

    def _step(self, turn: int) -> SampleStep:
        ids = tuple(self._ids[self._ends[turn - 1] if turn else 0 : self._ends[turn]])
        return SampleStep(self._pools[turn], ids, ids[self._chosen[turn]])

    def __len__(self) -> int:
        return len(self._pools)

    def __getitem__(self, index):
        try:
            turns = range(len(self._pools))[index]
        except IndexError:
            raise IndexError("trace index out of range") from None
        return list(map(self._step, turns)) if isinstance(turns, range) else self._step(turns)

    def __iter__(self) -> Iterator[SampleStep]:
        return map(self._step, range(len(self._pools)))

    def __eq__(self, other):
        if not isinstance(other, Sequence):
            return NotImplemented
        return len(self) == len(other) and all(map(eq, self, other))

    def __repr__(self) -> str:
        return repr(list(self))


@dataclass
class SelectionState:
    """Result of :func:`sample`: selected ids in order, the running
    presence-based class counts and a per-step trace.

    :func:`sample` fills ``trace`` with a read-only sequence that keeps
    its turns flat and builds each :class:`SampleStep` on read; it has
    no ``append``. It equals any sequence of the same steps, a list
    included, and any sequence of steps may replace it.
    """

    selected: list[str]
    class_counts: dict[str, int]
    trace: Sequence[SampleStep] = field(default_factory=_Trace)


def exclude(images: Sequence[ImageRecord]) -> tuple[list[ImageRecord], list[ImageRecord]]:
    """Apply the eligibility rules.

    Images with non-zero or unknown rotation are dropped, as are images
    whose annotations contain fewer than two unique classes. Images
    with more than 6 unique classes bypass pooled sampling entirely and
    are returned as ``auto_include``; the rest are ``eligible``.
    """
    eligible: list[ImageRecord] = []
    auto_include: list[ImageRecord] = []
    for img in images:
        if img.rotation is not Rotation.ZERO:
            continue
        n = len(img.classes)
        if n < 2:
            continue
        if n >= AUTO_INCLUDE_MIN_CLASSES:
            auto_include.append(img)
        else:
            eligible.append(img)
    return eligible, auto_include


def class_entropy(counts: Iterable[int]) -> float:
    """Shannon entropy (nats) of a count distribution; 0 when empty.

    Counts are summed in sorted order so the float result depends only
    on the count multiset, never on dict or set iteration order.
    """
    counts = sorted(c for c in counts if c > 0)
    total = sum(counts)
    if total == 0:
        return 0.0
    return -sum((c / total) * math.log(c / total) for c in counts)


def _entropy_with(counts: dict[str, int], classes: frozenset[str]) -> float:
    merged = dict(counts)
    for c in classes:
        merged[c] = merged.get(c, 0) + 1
    return class_entropy(merged.values())


def _gain(n: int) -> float:
    """(n+1)*ln(n+1) - n*ln(n): how much one more image raises a count
    n's share of S = sum(c * ln c), in a form free of cancellation."""
    return math.log(n + 1) + n * math.log1p(1 / n) if n else 0.0


# Near-tie window, from a float error bound (u = 2**-53). class_entropy
# sums K terms p*ln(p), p = c/T: the quotient, the log (within 2 ulps)
# and the product leave each term off by at most 4u*|p ln p| + 1.01u*p,
# and the running sum adds at most (K - 1)*u*H. With H <= ln K its result
# is off by at most e = u*((K + 3)*ln K + 1). _gain(n) <= ln T + 1 is off
# by at most 6u*(ln T + 1), so a sum of `size` gains is off by at most
# 12*size*u*(ln T + 1). The true entropy after adding a candidate is
# ln T - (S + gain)/T with T shared by the turn's candidates, so when two
# computed gains differ by more than 2*T*e + 2*12*size*u*(ln T + 1),
# class_entropy cannot rank them the other way. The window is that
# bound times _SLACK.
_UNIT_ROUNDOFF = 2.0**-53
_SLACK = 4


def _count(counts: dict[str, int], gains: list[float], classes: frozenset[str]) -> None:
    """Count one selected image's classes, in sorted order so that the
    order of ``counts`` never follows the hash seed, and grow ``gains``
    (``gains[n] == _gain(n)``) to cover every count."""
    for c in sorted(classes):
        n = counts[c] = counts.get(c, 0) + 1
        if n == len(gains):
            gains.append(_gain(n))


def _choose(
    counts: dict[str, int],
    gains: list[float],
    total: int,
    size: int,
    drawn: Iterable[tuple[int, ImageRecord]],
) -> tuple[int, ImageRecord]:
    """The drawn (index, image) pair whose ``size`` classes, added to
    ``counts`` (summing to ``total``), give the highest class_entropy;
    ties go to the smallest image_id, then the smallest draw index.
    ``gains`` holds ``_gain(n)`` for every count ``n`` in ``counts``."""
    scored = []
    for at, img in drawn:
        pre = sorted(map(counts.get, img.classes, repeat(0)))
        scored.append((sum(map(gains.__getitem__, pre)), pre, at, img))
    n_classes, new_total = len(counts) + size, total + size  # K (at most) and T after the merge
    e = _UNIT_ROUNDOFF * ((n_classes + 3) * math.log(n_classes) + 1)
    window = _SLACK * (2 * new_total * e + 2 * 12 * size * _UNIT_ROUNDOFF * (math.log(new_total) + 1))
    best = min(gain for gain, *_ in scored)
    near = [(pre, at, img) for gain, pre, at, img in scored if gain <= best + window]
    if any(pre != near[0][0] for pre, _, _ in near):
        # Different count multisets this close: rank them by class_entropy.
        _, at, img = min(near, key=lambda t: (-_entropy_with(counts, t[2].classes), t[2].image_id, t[1]))
    else:
        # One multiset after the merge, hence bitwise-equal entropies.
        _, at, img = min(near, key=lambda t: (t[2].image_id, t[1]))
    return at, img


def sample(
    eligible: Sequence[ImageRecord],
    auto_include: Sequence[ImageRecord],
    target_count: int,
    n_candidates: int,
    seed: int,
) -> SelectionState:
    """Greedy entropy-maximizing selection.

    Starts from ``auto_include`` (all of it, seeding the class counts),
    partitions ``eligible`` into pools by unique-class count (2..6) and
    cycles the pools in ascending order. Each turn draws
    ``n_candidates`` images from the pool uniformly at random without
    replacement, keeps the one whose addition yields the highest
    entropy over class counts (ties break toward the smallest
    image_id), and returns the others to the pool. Stops when
    ``target_count`` images are selected or every pool is empty.

    The candidates of a turn all add the same number of classes, so the
    new total T is shared and the entropy ln T - S/T, S = sum(c * ln c),
    is highest where S rises least. Each candidate is scored by that
    rise over its own classes only. Candidates with equal sorted
    pre-counts merge into equal count multisets, so they tie exactly.
    Candidates whose rise is within a rounding-error bound of the best,
    with different pre-counts, are re-scored with :func:`class_entropy`
    over the merged counts, so the choice is the one a full entropy
    recount per candidate would make, bit for bit. The rises come from a
    table of ``_gain(n)``, grown with the largest count, so its length
    is bounded by the number of images selected.

    ``class_counts`` lists each class where it first appears, counting
    each image's classes in sorted order. ``trace`` is read-only and
    builds each turn's :class:`SampleStep` on read (see
    :class:`SelectionState`). A ``target_count``, ``n_candidates`` or
    ``seed`` that is not an ``int``, or is a ``bool``, raises
    :class:`MalformedConfigError`: ``seed=None`` would seed from the system.
    """
    check_int("target_count", target_count)
    check_int("n_candidates", n_candidates, 1)
    check_int("seed", seed)
    if target_count < len(auto_include):
        raise TargetTooSmallError(
            f"target {target_count} below auto-include size {len(auto_include)}"
        )
    if target_count > len(auto_include) and not eligible:
        raise EmptyPoolsError("no eligible images to sample from")

    counts: dict[str, int] = {}
    gains = [_gain(0)]
    selected: list[str] = []
    for img in auto_include:
        selected.append(img.image_id)
        _count(counts, gains, img.classes)
    total = sum(counts.values())

    pools: dict[int, list[ImageRecord]] = {k: [] for k in POOL_KEYS}
    for img in eligible:
        n = len(img.classes)
        if n not in pools:
            raise UnpooledImageError(
                f"eligible image {img.image_id!r} has {n} classes; "
                f"run exclude() first (pools cover {POOL_KEYS})"
            )
        pools[n].append(img)

    rng = random.Random(seed)
    trace = _Trace()

    while len(selected) < target_count and any(pools.values()):
        for key in POOL_KEYS:
            if len(selected) >= target_count:
                break
            pool = pools[key]
            if not pool:
                continue
            indices = rng.sample(range(len(pool)), min(n_candidates, len(pool)))
            chosen_at, chosen = _choose(counts, gains, total, key, zip(indices, map(pool.__getitem__, indices)))
            trace._add(key, [pool[i].image_id for i in indices], indices.index(chosen_at))
            pool.pop(chosen_at)
            selected.append(chosen.image_id)
            _count(counts, gains, chosen.classes)
            total += key
    return SelectionState(selected, counts, trace)


def classify_domain(image: ImageRecord, spec: DomainSpec) -> Domain:
    """Bucket one image by the novelty of its classes.

    Ignored classes are stripped first. An image whose remaining
    classes are all in-domain is in-domain; one with no in-domain class
    is out-of-domain; anything mixed is near-domain. Classes listed
    nowhere count as out-of-domain.
    """
    remaining = image.classes - spec.ignored
    if not remaining:
        raise AllClassesIgnoredError(
            f"image {image.image_id!r} has only ignored classes"
        )
    has_in = bool(remaining & spec.in_domain)
    if not has_in:
        return Domain.OUT_OF_DOMAIN
    if remaining <= spec.in_domain:
        return Domain.IN_DOMAIN
    return Domain.NEAR_DOMAIN


# One entry per ASCII ordinal, so no ASCII character misses the table.
# str.translate keeps a character past the table's end as it is, since
# the IndexError of that lookup is a LookupError.
_PUNCT_TABLE = "".join(" " if chr(i) in string.punctuation else chr(i) for i in range(128))


def tokenize(text: str) -> list[str]:
    """Caption tokenization for n-gram statistics: lowercase, ASCII
    punctuation (``string.punctuation``) to spaces, split on whitespace;
    every other character is kept. Tokens are interned, so repeats of a
    word share one string."""
    return list(map(sys.intern, text.lower().translate(_PUNCT_TABLE).split()))


def ngram_stats(
    captions: Iterable[Sequence[Hashable]], n_max: int = 4
) -> dict[int, int]:
    """Count distinct n-grams for n = 1..n_max across all captions.

    Tokens (any hashables, compared as dict keys) get integer ids in
    one int64 array, with -1 closing each caption. An n-gram's code is
    the rank of the pair (its (n-1)-gram code, its last token id) among
    all such pairs; the pair value is below len(tokens)**2, so it never
    overflows. n-grams that span a caption end get code -1. An ``n_max``
    that is not an ``int``, or is a ``bool``, raises :class:`MalformedConfigError`,
    and one above :data:`MAX_NGRAM_ORDER` :class:`NGramOrderError`, before any work.
    """
    if check_int("n_max", n_max, 1) > MAX_NGRAM_ORDER:
        raise NGramOrderError(f"n_max must be <= {MAX_NGRAM_ORDER}, got {n_max}")
    ids: dict[Hashable, int] = {}

    def stream():
        for caption in captions:
            for tok in caption:
                yield ids.setdefault(tok, len(ids))
            yield -1

    tokens = np.fromiter(stream(), dtype=np.int64)
    stats = {1: len(ids), **dict.fromkeys(range(2, n_max + 1), 0)}
    grams = tokens  # grams[i]: code of the n-gram starting at token i
    for n in range(2, n_max + 1):
        prev, last = grams[:-1], tokens[n - 1 :]
        valid = (prev >= 0) & (last >= 0)
        codes, inverse = np.unique(prev[valid] * len(ids) + last[valid], return_inverse=True)
        if not len(codes):  # no n-gram left, so every longer one counts 0
            break
        stats[n] = len(codes)
        grams = np.full(len(last), -1, dtype=np.int64)
        grams[valid] = inverse
    return stats
