"""lexbeam: lexically constrained beam search and benchmark assembly.

The package compiles word/phrase constraints into a finite state
machine, decodes with one beam per machine state from any pluggable
scorer, refines object detections into constraints, and reproduces the
benchmark-assembly utilities (entropy-maximizing image selection,
domain partitioning, n-gram statistics).
"""

from .beam import (
    BeamHypothesis,
    DecodeConfig,
    DecodeResult,
    decode,
    decode_unconstrained,
)
from .filtering import (
    Blacklist,
    ClassHierarchy,
    Detection,
    FilterMode,
    default_hierarchy,
    filter_constraints,
    iou,
    suppress_overlaps,
)
from .fsm import (
    MAX_GROUPS,
    ConstraintFSM,
    ConstraintGroup,
    PhraseMatchMode,
    compile_fsm,
    load_constraints,
    load_constraints_file,
)
from .sampling import (
    Domain,
    DomainSpec,
    ImageRecord,
    Rotation,
    SampleStep,
    SelectionState,
    class_entropy,
    classify_domain,
    exclude,
    ngram_stats,
    sample,
    tokenize,
)
from .scorers import BigramModel, Scorer
from .vocab import BOS, EOS, Vocabulary

__version__ = "0.1.0"

__all__ = [
    "BOS",
    "EOS",
    "MAX_GROUPS",
    "BeamHypothesis",
    "BigramModel",
    "Blacklist",
    "ClassHierarchy",
    "ConstraintFSM",
    "ConstraintGroup",
    "DecodeConfig",
    "DecodeResult",
    "Detection",
    "Domain",
    "DomainSpec",
    "FilterMode",
    "ImageRecord",
    "PhraseMatchMode",
    "Rotation",
    "SampleStep",
    "Scorer",
    "SelectionState",
    "Vocabulary",
    "class_entropy",
    "classify_domain",
    "compile_fsm",
    "decode",
    "decode_unconstrained",
    "default_hierarchy",
    "exclude",
    "filter_constraints",
    "iou",
    "load_constraints",
    "load_constraints_file",
    "ngram_stats",
    "sample",
    "suppress_overlaps",
    "tokenize",
    "__version__",
]
