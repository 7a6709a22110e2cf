"""Brute-force ground truth for the counting and enumeration machinery.

all_functions and brute_fiber know nothing about attachment plans or
counting formulas: they generate every alternating arrangement of the given
values, keep the ones the sequence validator accepts, and group them by
sweep barcode. verify() is the one place both routes meet. It generates the
candidates once, sweeps each of them once, and reports the formula, the plan
enumeration and the brute force side by side; its partition check compares
the size of every fiber that arises from b's critical values with the
counting formula.
"""
from __future__ import annotations

from itertools import permutations
from typing import Iterable

from . import fiber
from .core import (
    Barcode,
    CriticalSequence,
    DuplicateValue,
    Height,
    ValidationError,
    canonical_form,
    validate_critical_sequence,
)
from .persistence import barcode_of_sequence
from .trees import forget_chirality

MAX_MINIMA = 6  # 6! * 5! = 86_400 candidates; beyond that brute force stops being quick


class CardinalityMismatch(ValidationError):
    """A sequence alternates only if |minima| == |maxima| + 1 >= 2."""


class ScaleCapExceeded(ValidationError):
    """Brute force is deliberately capped at MAX_MINIMA minima."""


def all_functions(minima: Iterable[Height], maxima: Iterable[Height]) -> list[CriticalSequence]:
    """Every valid critical sequence using the given values, sorted.

    Tries all |minima|! * |maxima|! interleavings and keeps the ones that
    pass the sequence validator.
    """
    mins = tuple(sorted(minima))
    maxs = tuple(sorted(maxima))
    if len(mins) != len(maxs) + 1 or len(mins) < 2:
        raise CardinalityMismatch(
            f"need one more minimum than maxima and at least 2 minima, got {len(mins)} and {len(maxs)}"
        )
    if len(mins) > MAX_MINIMA:
        raise ScaleCapExceeded(f"brute force is capped at {MAX_MINIMA} minima, got {len(mins)}")
    pool = list(mins) + list(maxs)
    if len(set(pool)) != len(pool):
        raise DuplicateValue("minima and maxima must be pairwise distinct overall")
    out = []
    for pm in permutations(mins):
        for px in permutations(maxs):
            vals = [None] * (len(pm) + len(px))
            vals[0::2] = pm
            vals[1::2] = px
            if all(px[i] > pm[i] and px[i] > pm[i + 1] for i in range(len(px))):
                out.append(validate_critical_sequence(vals))
    out.sort(key=lambda s: s.values)
    return out


def _fibers(minima: Iterable[Height], maxima: Iterable[Height]) -> dict[Barcode, list[CriticalSequence]]:
    """all_functions(minima, maxima) grouped by sweep barcode, in one pass."""
    groups: dict[Barcode, list[CriticalSequence]] = {}
    for f in all_functions(minima, maxima):
        groups.setdefault(barcode_of_sequence(f)[0], []).append(f)
    return groups


def brute_fiber(b: Barcode) -> list[CriticalSequence]:
    """Every function realizing b, found by filtering all_functions by sweep.

    The barcode's births are the candidate minima and its finite deaths the
    maxima; nothing from the plan enumeration is consulted.
    """
    return _fibers(b.births, b.finite_deaths).get(b, [])


def verify(b: Barcode) -> dict:
    """Play formula, plan enumeration and brute force against each other.

    The brute force runs first, so an input past MAX_MINIMA or with shared
    critical values is refused before any tree is built. Its candidates are
    generated once and swept once; grouped by barcode, they give both b's
    brute fiber and the partition check: every barcode arising from b's
    critical values a has exactly count_cmts(a) functions.
    """
    groups = _fibers(b.births, b.finite_deaths)
    brute = groups.get(b, [])
    partition_check = all(len(fs) == fiber.count_cmts(a) for a, fs in groups.items())

    cmts = fiber.enumerate_cmts(b)
    mts = fiber.enumerate_merge_trees(b)
    dedup = len({canonical_form(forget_chirality(t)) for t in cmts})
    formula_cmt = fiber.count_cmts(b)
    formula_mt = fiber.count_merge_trees(b)
    return {
        "formula_cmt_count": formula_cmt,
        "enumerated_cmt_count": len(cmts),
        "brute_count": len(brute),
        "formula_mt_count": formula_mt,
        "enumerated_mt_count": len(mts),
        "dedup_mt_from_cmts": dedup,
        "all_equal": (
            formula_cmt == len(cmts) == len(brute)
            and formula_mt == len(mts) == dedup
        ),
        "partition_check": partition_check,
    }
