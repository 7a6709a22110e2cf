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

barcode_of_sequence, merge_tree_of_sequence, forget_chirality, elder_rule, the three
enumerators, verify and core.tree_to_dict and tree_from_dict pause the cyclic garbage
collector, process-wide, while they run. A call that finds it on turns it back on when it
returns or raises; one that finds it off (by the caller or an outer call) leaves it off.
Under threads this is best-effort: a call that starts inside another thread's pause may end
with the collector on, and a gc.disable() from another thread is undone when a pause ends.
Their objects are acyclic, so reference counting frees them all:
tests/test_gc.py checks that gc.collect() finds nothing after each.
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
