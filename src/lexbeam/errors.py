"""Exception types shared across the package.

Everything raised on bad *input* derives from :class:`LexbeamError`, so
callers (and the CLI) can distinguish user errors from genuine bugs.
"""


class LexbeamError(Exception):
    """Base class for all input/contract errors raised by this package."""


class UnknownTokenError(LexbeamError, KeyError):
    """A token string or id does not resolve against the vocabulary."""


class EmptyGroupError(LexbeamError, ValueError):
    """A constraint group has no alternatives, or an empty alternative."""


class MalformedGroupError(LexbeamError, TypeError):
    """A constraint record, group, its alternatives or one alternative
    has the wrong JSON type: alternatives must be a list of lists of
    token strings, and ``min_satisfied`` an integer."""


class TooManyGroupsError(LexbeamError, ValueError):
    """More constraint groups than the satisfaction-mask width allows."""


class OutOfRangeError(LexbeamError, IndexError):
    """A state or token id outside the machine's range."""


class VocabMismatchError(LexbeamError, ValueError):
    """Scorer and FSM were built against different vocabulary sizes."""


class ScorerContractError(LexbeamError, ValueError):
    """A scorer returned a row of the wrong shape or with NaN scores."""


class NoHypothesisError(LexbeamError, RuntimeError):
    """No completed hypothesis met the satisfaction quota (fallback off)."""


class EmptyCorpusError(LexbeamError, ValueError):
    """Tried to fit a language model on an empty corpus."""


class NonPositiveAlphaError(LexbeamError, ValueError):
    """Smoothing constant must be strictly positive."""


class DegenerateBoxError(LexbeamError, ValueError):
    """A bounding box with non-positive width or height."""


class UnknownClassError(LexbeamError, KeyError):
    """An object class absent from the class hierarchy."""


class MalformedImageError(LexbeamError, TypeError):
    """An image record's ``classes`` is not a list of class-name strings."""


class MalformedDomainError(LexbeamError, TypeError):
    """A domain spec's class set is not a list of class-name strings."""


class MalformedCaptionError(LexbeamError, TypeError):
    """A caption is neither a string nor a list of JSON scalar tokens."""


class TargetTooSmallError(LexbeamError, ValueError):
    """Selection target smaller than the unconditionally included set."""


class EmptyPoolsError(LexbeamError, ValueError):
    """Pooled sampling requested but there are no eligible images at all."""


class AllClassesIgnoredError(LexbeamError, ValueError):
    """Every class on an image is in the ignored set; cannot classify."""
