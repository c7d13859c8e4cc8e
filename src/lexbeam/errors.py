"""Exception types shared across the package, and the checks that raise them.

Everything raised on bad *input* derives from :class:`LexbeamError`, so
callers (and the CLI) can distinguish user errors from genuine bugs.
"""

import json


class LexbeamError(Exception):
    """Base class for all input/contract errors raised by this package."""

    def __str__(self) -> str:
        # the message as given: KeyError's own __str__ would print its repr
        return Exception.__str__(self)


class UnknownTokenError(LexbeamError, KeyError):
    """A token string or id does not resolve against the vocabulary."""


class EmptyGroupError(LexbeamError, ValueError):
    """A constraint group has no alternatives, or an empty alternative."""


class MalformedGroupError(LexbeamError, TypeError):
    """A constraint record, group, its alternatives or one alternative
    (hierarchy word forms included) has the wrong JSON type: alternatives
    must be a list of lists of token strings, and ``min_satisfied`` an
    integer."""


class TooManyGroupsError(LexbeamError, ValueError):
    """More constraint groups than the satisfaction-mask width allows."""


class QuotaRangeError(LexbeamError, ValueError):
    """A ``min_satisfied`` quota below 0 or above the number of groups."""


class FSMTooLargeError(LexbeamError, ValueError):
    """A constraint machine's transition table would exceed
    :data:`~lexbeam.fsm.MAX_TABLE_BYTES`; checked before it is built."""


class OutOfRangeError(LexbeamError, IndexError):
    """A state or token id outside the machine's range."""


class VocabMismatchError(LexbeamError, ValueError):
    """Scorer and FSM were built against different vocabulary sizes."""


class MalformedVocabularyError(LexbeamError, TypeError):
    """A vocabulary read from JSON is not a list of token strings."""


class DuplicateTokenError(LexbeamError, ValueError):
    """A vocabulary lists a token twice, or lists a sentinel."""


class ScorerContractError(LexbeamError, ValueError):
    """A scorer returned a row of the wrong shape or with NaN, +inf or a
    value above 0 (scores are natural-log probabilities, each at most 0),
    or a sparse row whose ids are unsorted, repeated, out of range or not
    as many as its values, or declares a ``context_size`` that is not
    ``None`` or an ``int`` >= 0."""


class NoHypothesisError(LexbeamError, RuntimeError):
    """No completed hypothesis met the satisfaction quota (fallback off)."""


class EmptyCorpusError(LexbeamError, ValueError):
    """Tried to fit a language model on an empty corpus."""


class NonPositiveAlphaError(LexbeamError, ValueError):
    """Smoothing constant must be strictly positive and finite: an int
    past the float range is refused too."""


class NegativeBigramCountError(LexbeamError, ValueError):
    """A bigram model holds a negative count for some token pair."""


class MalformedModelError(LexbeamError, TypeError):
    """A bigram model file is not an object with ``alpha``, ``vocab`` and
    ``counts``, its ``alpha`` is not a number (a ``bool`` included) that
    fits a float, its ``counts`` is not a list of ``[v, w, c]`` triples, or
    an entry of one (or of a ``BigramModel``'s ``{(v, w): c}`` counts) is
    not a number ``int()`` accepts or lies outside int64."""


class DegenerateBoxError(LexbeamError, ValueError):
    """A bounding box with non-positive width or height, or whose area is
    not a positive finite float: an infinite coordinate, or a width x
    height that overflows or rounds to 0."""


class ConfidenceRangeError(LexbeamError, ValueError):
    """A detection confidence outside [0, 1]."""


class FilterOptionError(LexbeamError, ValueError):
    """A negative ``top_k``, or an ``iou_threshold`` outside [0, 1]."""


class UnknownClassError(LexbeamError, KeyError):
    """An object class absent from the class hierarchy."""


class MalformedHierarchyError(LexbeamError, TypeError):
    """A class hierarchy is not a list of objects, each with a string
    ``class``."""


class InvalidHierarchyError(LexbeamError, ValueError):
    """A class hierarchy defines a class twice or has a parent cycle."""


class MalformedImageError(LexbeamError, TypeError):
    """An image record is not an object, its ``image_id`` is not a
    string, or its ``classes`` is not a list of class-name strings."""


class DuplicateImageError(LexbeamError, ValueError):
    """An image id occurs on more than one image record."""


class MissingFieldError(LexbeamError, KeyError):
    """An image record lacks its ``image_id`` or ``classes``."""


class UnknownRotationError(LexbeamError, ValueError):
    """An image record's ``rotation`` is not one of the strings ``zero``,
    ``nonzero`` and ``unknown``."""


class OverlappingDomainsError(LexbeamError, ValueError):
    """A class is listed in more than one of a domain spec's sets."""


class MalformedDetectionError(LexbeamError, TypeError):
    """A detection record is not an object whose ``detections`` is a
    list, or a detection is not an object with ``class``, a number
    ``score`` and a ``box`` list of numbers, each within the float
    range."""


class MalformedCaptionError(LexbeamError, TypeError):
    """A caption record is not an object, or its caption is neither a
    string nor a list of JSON scalar tokens."""


class NonPositiveCountError(LexbeamError, ValueError):
    """A count argument that must be at least 1 is not: ``DecodeConfig``'s
    ``beam_width`` or ``max_len``, ``sample``'s ``n_candidates`` or
    ``ngram_stats``'s ``n_max``."""


class MalformedConfigError(LexbeamError, TypeError):
    """A library argument has the wrong type. Not an ``int``, or a ``bool``:
    ``DecodeConfig``'s ``beam_width`` and ``max_len``, ``sample``'s
    ``target_count``, ``n_candidates`` and ``seed``, ``filter_constraints``'s
    ``top_k``, ``ngram_stats``'s ``n_max``. Not an ``int`` or ``float``, or a
    ``bool``: the ``iou_threshold`` of ``filter_constraints`` and
    ``suppress_overlaps``, ``BigramModel``'s ``alpha``. Not a ``bool``:
    ``DecodeConfig``'s ``min_satisfied_fallback`` and ``length_normalize``."""


class NGramOrderError(LexbeamError, ValueError):
    """``ngram_stats``'s ``n_max`` is above
    :data:`~lexbeam.sampling.MAX_NGRAM_ORDER`; checked before any work."""


class TargetTooSmallError(LexbeamError, ValueError):
    """Selection target smaller than the unconditionally included set."""


class EmptyPoolsError(LexbeamError, ValueError):
    """Pooled sampling requested but there are no eligible images at all."""


class UnpooledImageError(LexbeamError, ValueError):
    """An eligible image's class count lies outside the sampling pools
    (2 to 6 classes): ``exclude()`` was not run first."""


class AllClassesIgnoredError(LexbeamError, ValueError):
    """Every class on an image is in the ignored set; cannot classify."""


def is_number(value: object, kinds: type | tuple[type, ...] = (int, float)) -> bool:
    """Whether ``value`` is of ``kinds`` and not a ``bool``, which Python counts as the int 0 or 1."""
    return isinstance(value, kinds) and not isinstance(value, bool)


def check_number(name: str, value: object) -> float:
    """``value`` if it :func:`is_number`, else :class:`MalformedConfigError`."""
    if not is_number(value):
        raise MalformedConfigError(f"{name} must be a number, got {value!r}")
    return value


def check_int(name: str, value, low: int | None = None, low_error=NonPositiveCountError, type_error=MalformedConfigError):
    """``value`` if it is an ``int`` and not a ``bool`` (else ``type_error``)
    and, when ``low`` is given, at least ``low`` (else ``low_error``, in the
    wording each bound has always had: non-negative for 0, ``>= low`` above)."""
    if not is_number(value, int):
        raise type_error(f"{name} must be an int, got {value!r}")
    if low is not None and value < low:
        raise low_error(f"{name} must be non-negative, got {value}" if low == 0 else f"{name} must be >= {low}")
    return value


def load_json(text: str):
    """``json.loads(text)``. Nesting too deep for the decoder raises :class:`json.JSONDecodeError`,
    as other unparsable text does, not the ``RecursionError`` that elsewhere is a bug."""
    try:
        return json.loads(text)
    except RecursionError:
        raise json.JSONDecodeError("nesting too deep", text, 0) from None
