"""Degree-0 persistence of piecewise-linear interval functions, and back.

The forward direction sweeps a function (given by its alternating critical
values) into a barcode or a chiral merge tree. The backward direction counts
and enumerates every merge tree, chiral merge tree and function class that
realizes a given barcode, with a brute-force oracle to check the formulas
against.

The top level holds the pipeline and every ValidationError subclass; the
rest (value classes, JSON codecs, attachment plans, the containment poset
`fiber.containers`, strata, the brute force) is imported from its own module.
Importing the package imports every submodule: bench/tracer.py wraps their
functions right after `import persfiber`, so none may be deferred.
"""
from .core import (
    BarNotContainedInEssential,
    BoundaryNotMin,
    DuplicateBirth,
    DuplicateDeath,
    DuplicateValue,
    EmptyBar,
    EvenLength,
    InvalidDocument,
    InvalidTree,
    KindMismatch,
    MultipleInfiniteBars,
    NoInfiniteBar,
    NotAlternating,
    Plateau,
    TooShort,
    ValidationError,
    validate_barcode,
    validate_critical_sequence,
)
from .fiber import (
    DegenerateBarcode,
    InvalidPlan,
    count_cmts,
    count_merge_trees,
    enumerate_cmts,
    enumerate_functions,
    enumerate_merge_trees,
)
from .oracle import CardinalityMismatch, ScaleCapExceeded, verify
from .persistence import BadPair, barcode_of_sequence, rank
from .trees import (
    cmt_to_sequence,
    elder_rule,
    forget_chirality,
    merge_tree_of_sequence,
)

__version__ = "0.1.0"

__all__ = [
    "BadPair",
    "BarNotContainedInEssential",
    "BoundaryNotMin",
    "CardinalityMismatch",
    "DegenerateBarcode",
    "DuplicateBirth",
    "DuplicateDeath",
    "DuplicateValue",
    "EmptyBar",
    "EvenLength",
    "InvalidDocument",
    "InvalidPlan",
    "InvalidTree",
    "KindMismatch",
    "MultipleInfiniteBars",
    "NoInfiniteBar",
    "NotAlternating",
    "Plateau",
    "ScaleCapExceeded",
    "TooShort",
    "ValidationError",
    "barcode_of_sequence",
    "cmt_to_sequence",
    "count_cmts",
    "count_merge_trees",
    "elder_rule",
    "enumerate_cmts",
    "enumerate_functions",
    "enumerate_merge_trees",
    "forget_chirality",
    "merge_tree_of_sequence",
    "rank",
    "validate_barcode",
    "validate_critical_sequence",
    "verify",
]
