"""Turn raw object detections into decoding constraints.

The pipeline mirrors how detector outputs are refined before being
handed to the constrained decoder: drop blacklisted classes, suppress
the coarser of two highly overlapping detections using the class
hierarchy (a "dog" box suppresses a "mammal" box sitting on top of it),
rank the survivors by confidence, keep the top few distinct classes and
expand each into its surface word forms.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from enum import Enum
from importlib import resources
from typing import Iterable, Iterator, Sequence

import numpy as np

from .errors import (
    ConfidenceRangeError,
    DegenerateBoxError,
    FilterOptionError,
    InvalidHierarchyError,
    MalformedDetectionError,
    MalformedHierarchyError,
    UnknownClassError,
    check_int,
    check_number,
    is_number,
    load_json,
)
from .fsm import ConstraintGroup

logger = logging.getLogger(__name__)

DEFAULT_IOU_THRESHOLD = 0.85
DEFAULT_TOP_K = 3

Box = tuple[float, float, float, float]


class FilterMode(str, Enum):
    """Which pipeline stages run; mirrors the ablation toggles."""

    FULL = "full"            # blacklist + overlap suppression
    NO_CLASS = "no-class"    # overlap suppression only
    NO_OVERLAP = "no-overlap"  # blacklist only
    NONE = "none"            # neither; rank raw detections


@dataclass(frozen=True)
class Detection:
    """One detector output: class name, confidence, axis-aligned box
    (x_min, y_min, x_max, y_max; absolute pixels or normalized, as long
    as one convention is used per file). The confidence and the box
    coordinates must be numbers (not ``bool``), or
    :class:`MalformedDetectionError` is raised."""

    class_name: str
    confidence: float
    box: Box

    def __post_init__(self):
        # Floats in a tuple, as from_json passes after its own check, need none.
        if type(self.box) is not tuple or {type(self.confidence), *map(type, self.box)} != {float}:
            _check_numbers(self.confidence, self.box)
        _check_box(self.box)
        if not 0.0 <= self.confidence <= 1.0:
            raise ConfidenceRangeError(f"confidence {self.confidence} outside [0, 1]")

    @classmethod
    def from_json(cls, obj: dict) -> "Detection":
        if not isinstance(obj, dict) or not {"class", "score", "box"} <= obj.keys():
            raise MalformedDetectionError(f"a detection needs class, score and box, got {obj!r}")
        score, box = obj["score"], obj["box"]
        _check_numbers(score, box)  # before float(), which would read a numeric string
        try:
            confidence, coords = float(score), tuple(float(v) for v in box)
        except OverflowError:  # a JSON integer past the float range
            raise MalformedDetectionError(
                f"detection score and box must fit a float, got {score!r:.40} and {box!r:.80}"
            ) from None
        return cls(class_name=str(obj["class"]), confidence=confidence, box=coords)


def _check_numbers(score, box) -> None:
    if not isinstance(box, (list, tuple)) or not all(map(is_number, [score, *box])):
        raise MalformedDetectionError(f"detection score and box must be numbers, got {score!r} and {box!r}")


def _check_box(box: Box) -> None:
    if len(box) != 4:
        raise DegenerateBoxError(f"box must have 4 coordinates, got {box!r}")
    x0, y0, x1, y1 = box
    if not (x0 < x1 and y0 < y1):
        raise DegenerateBoxError(f"box {box!r} has non-positive extent")
    # An infinite coordinate makes the area infinite; an area that
    # overflows or rounds to 0 would make an IoU NaN or 0/0.
    if not 0.0 < (x1 - x0) * (y1 - y0) < math.inf:
        raise DegenerateBoxError(f"box {box!r} has an area that is not a positive finite number")


def _iou_matrix(boxes: np.ndarray) -> np.ndarray:
    """IoU of every pair of rows of an ``(n, 4)`` float64 array of
    checked boxes, as ``inter / (area_a + area_b - inter)`` with the
    intersection extents clipped at 0. Each element takes the same
    float64 operations as one scalar IoU, so it does not depend on which
    other boxes share the matrix."""
    x0, y0, x1, y1 = boxes.T
    ix = np.maximum(np.minimum.outer(x1, x1) - np.maximum.outer(x0, x0), 0.0)
    iy = np.maximum(np.minimum.outer(y1, y1) - np.maximum.outer(y0, y0), 0.0)
    inter = ix * iy
    area = (x1 - x0) * (y1 - y0)
    with np.errstate(over="ignore"):  # two finite areas can sum to inf, as in scalar code; the IoU is then 0
        union = np.add.outer(area, area) - inter
    return inter / union


def iou(a: Box, b: Box) -> float:
    """Intersection over union of two boxes, in [0, 1]."""
    _check_box(a)
    _check_box(b)
    return float(_iou_matrix(np.array([a, b], dtype=np.float64))[0, 1])


def _check_threshold(iou_threshold: float) -> None:
    if not 0.0 <= check_number("iou_threshold", iou_threshold) <= 1.0:
        raise FilterOptionError(f"iou_threshold must lie in [0, 1], got {iou_threshold}")


class ClassHierarchy:
    """Object-class tree with per-class surface word forms.

    Built from records ``{"class": ..., "parent": ...|null, "forms":
    [["dog"], ["dogs"]]}``. Each class's forms are held as one
    :class:`~lexbeam.fsm.ConstraintGroup`, so they pass its check: a list
    of non-empty lists of token strings. Lookups are case-insensitive;
    ancestry walks the parent links (:meth:`_ancestors`).
    """

    def __init__(self, records: list[dict]):
        if not isinstance(records, (list, tuple)):
            raise MalformedHierarchyError(f"a class hierarchy must be a JSON array of records, got {records!r:.80}")
        self._parent: dict[str, str | None] = {}
        self._groups: dict[str, ConstraintGroup] = {}
        for rec in records:
            if not isinstance(rec, dict) or not isinstance(rec.get("class"), str):
                raise MalformedHierarchyError(f"a hierarchy record must be an object with a string class, got {rec!r:.80}")
            name = rec["class"]
            key = name.casefold()
            if key in self._parent:
                raise InvalidHierarchyError(f"duplicate class {name!r}")
            parent = rec.get("parent")
            self._parent[key] = None if parent is None else str(parent).casefold()
            self._groups[key] = ConstraintGroup(name, rec.get("forms", []))
        for key in self._parent:
            for _ in self._ancestors(key):  # raises on an unknown parent or a cycle
                pass

    def _ancestors(self, key: str) -> Iterator[str]:
        """The strict ancestors of ``key``, nearest first. A root lies at
        most ``len(classes) - 1`` steps up, so a longer walk is a cycle."""
        for _ in range(len(self._parent)):
            parent = self._parent[key]
            if parent is None:
                return
            if parent not in self._parent:
                raise UnknownClassError(f"parent {parent!r} of {key!r} not defined")
            yield parent
            key = parent
        raise InvalidHierarchyError(f"hierarchy cycle through {key!r}")

    @classmethod
    def from_file(cls, path: str) -> "ClassHierarchy":
        with open(path, "r", encoding="utf-8") as fp:
            return cls(load_json(fp.read()))

    def __contains__(self, class_name: str) -> bool:
        return class_name.casefold() in self._parent

    def _key(self, class_name: str) -> str:
        key = class_name.casefold()
        if key not in self._parent:
            raise UnknownClassError(f"class {class_name!r} not in hierarchy")
        return key

    def word_forms(self, class_name: str) -> tuple[tuple[str, ...], ...]:
        return self._groups[self._key(class_name)].alternatives

    def is_strict_ancestor(self, ancestor: str, descendant: str) -> bool:
        """True iff ``ancestor`` lies strictly above ``descendant``."""
        return self._key(ancestor) in self._ancestors(self._key(descendant))


@dataclass(frozen=True)
class Blacklist:
    """Class names excluded from ever becoming constraints."""

    classes: frozenset[str]

    def __contains__(self, class_name: str) -> bool:
        return class_name.casefold() in self.classes

    def __len__(self) -> int:
        return len(self.classes)

    @classmethod
    def from_names(cls, names: Iterable[str]) -> "Blacklist":
        return cls(frozenset(n.casefold() for n in names))

    @classmethod
    def from_file(cls, path: str) -> "Blacklist":
        with open(path, "r", encoding="utf-8") as fp:
            names = [line.strip() for line in fp if line.strip()]
        bl = cls.from_names(names)
        logger.info("loaded blacklist with %d classes from %s", len(bl), path)
        return bl

    @classmethod
    def default(cls) -> "Blacklist":
        text = resources.files("lexbeam.data").joinpath("blacklist.txt").read_text(encoding="utf-8")
        return cls.from_names(line for line in text.splitlines() if line.strip())


def default_hierarchy() -> ClassHierarchy:
    """The class hierarchy and word-form table shipped with the package."""
    text = resources.files("lexbeam.data").joinpath("hierarchy.json").read_text(encoding="utf-8")
    return ClassHierarchy(load_json(text))


def _drop_unknown(dets: Sequence[Detection], hier: ClassHierarchy) -> list[Detection]:
    kept = []
    for det in dets:
        if det.class_name in hier:
            kept.append(det)
        else:
            logger.warning(
                "dropping detection with unknown class %r (confidence %.3f)",
                det.class_name,
                det.confidence,
            )
    return kept


def suppress_overlaps(
    dets: Sequence[Detection],
    hier: ClassHierarchy,
    iou_threshold: float = DEFAULT_IOU_THRESHOLD,
) -> list[Detection]:
    """Remove the coarser of two overlapping detections.

    For every pair with IoU at or above the threshold where one class
    is a strict ancestor of the other, the ancestor is removed; pairs
    with no ancestor relation (including equal-depth classes) are both
    kept. Removals are applied one at a time, highest IoU first (ties:
    lowest confidence of the removed detection, then earliest position),
    skipping pairs whose other member is already gone. Survivors keep
    their input order. Detections whose class is not in the hierarchy
    are dropped with a warning. A threshold outside [0, 1] (NaN
    included) raises :class:`FilterOptionError`, a non-number :class:`MalformedConfigError`.
    """
    _check_threshold(iou_threshold)
    return _suppress(_drop_unknown(dets, hier), hier, iou_threshold)


def _suppress(work: list[Detection], hier: ClassHierarchy, iou_threshold: float) -> list[Detection]:
    """:func:`suppress_overlaps` on a checked threshold and known classes."""
    # IoU and ancestry never change, so every qualifying pair is scored
    # once and the pairs are applied in the order the removals happen.
    overlaps = _iou_matrix(np.array([d.box for d in work], dtype=np.float64).reshape(-1, 4))
    first, second = np.nonzero(np.triu(overlaps >= iou_threshold, 1))
    pairs = []  # (neg_iou, removed_conf, removed, kept)
    for i, j, overlap in zip(first.tolist(), second.tolist(), overlaps[first, second].tolist()):
        a, b = work[i], work[j]
        if hier.is_strict_ancestor(a.class_name, b.class_name):
            pairs.append((-overlap, a.confidence, i, j))
        elif hier.is_strict_ancestor(b.class_name, a.class_name):
            pairs.append((-overlap, b.confidence, j, i))
    removed: set[int] = set()
    for _, _, remove, keep in sorted(pairs):
        if remove not in removed and keep not in removed:
            removed.add(remove)
    return [det for pos, det in enumerate(work) if pos not in removed]


def filter_constraints(
    dets: Sequence[Detection],
    hier: ClassHierarchy,
    blacklist: Blacklist,
    mode: FilterMode = FilterMode.FULL,
    top_k: int = DEFAULT_TOP_K,
    iou_threshold: float = DEFAULT_IOU_THRESHOLD,
) -> list[ConstraintGroup]:
    """Refine detections into at most ``top_k`` constraint groups.

    Stages: (1) drop blacklisted classes unless the mode disables it;
    (2) suppress hierarchy-overlapping detections unless disabled;
    (3) collapse repeats of a class to its best confidence; (4) rank by
    confidence and keep the ``top_k`` distinct classes; (5) expand each
    class into a :class:`~lexbeam.fsm.ConstraintGroup` over its word
    forms. Detections with classes missing from the hierarchy are
    dropped with a warning. A negative ``top_k`` or an ``iou_threshold``
    outside [0, 1] raises :class:`FilterOptionError` in every mode, and
    either of the wrong type (a ``bool`` included) :class:`MalformedConfigError`.
    """
    check_int("top_k", top_k, 0, FilterOptionError)
    _check_threshold(iou_threshold)
    mode = FilterMode(mode)
    work = _drop_unknown(dets, hier)
    if mode in (FilterMode.FULL, FilterMode.NO_OVERLAP):
        work = [d for d in work if d.class_name not in blacklist]
    if mode in (FilterMode.FULL, FilterMode.NO_CLASS):
        work = _suppress(work, hier, iou_threshold)

    best: dict[str, Detection] = {}
    for det in work:
        key = det.class_name.casefold()
        if key not in best or det.confidence > best[key].confidence:
            best[key] = det
    ranked = sorted(
        best.values(), key=lambda d: (-d.confidence, d.class_name.casefold())
    )

    return [ConstraintGroup(det.class_name, hier.word_forms(det.class_name)) for det in ranked[:top_k]]
