"""Brute-force ground truth for the counting and enumeration machinery.

all_functions and brute_fiber know nothing about attachment plans, counting
formulas or the sublevel sweep: walking the orders of the maxima, they
generate only the alternating arrangements of the given values, pass each
through the sequence validator, and group them by barcode, paired off by the
oracle's own elder pairing. verify() is the one place the routes meet. It
generates the candidates once, pairs each of them once, builds one barcode
per group, and reports the formula, the plan enumeration and the brute force
side by side; its partition check compares the size of every fiber that
arises from b's critical values with the counting formula. Its merge-tree
dedup reads the unordered form the chiral build writes on each vertex.
"""
from __future__ import annotations

import math
from itertools import permutations
from operator import itemgetter
from typing import Iterable

from . import fiber
from .core import (
    Barcode,
    CriticalSequence,
    DuplicateValue,
    Height,
    ValidationError,
    validate_barcode,
    validate_critical_sequence,
)

MAX_MINIMA = 6  # at most 6! * 5! = 86_400 candidates; beyond that brute force stops being quick


class CardinalityMismatch(ValidationError):
    """A sequence alternates only if |minima| == |maxima| + 1 >= 2."""


class ScaleCapExceeded(ValidationError):
    """Brute force is deliberately capped at MAX_MINIMA minima."""


def all_functions(minima: Iterable[Height], maxima: Iterable[Height]) -> list[CriticalSequence]:
    """Every valid critical sequence using the given values, sorted.

    For each order px of the maxima, minimum slot j lies between px[j - 1]
    and px[j] (the end slots beside one maximum) and needs a value below
    both. Filled from the most demanding slot down, the one with the lowest
    neighbour first, each slot takes one of the minima below its neighbours
    less those already placed, so the choices form a mixed-radix product of
    only the alternating interleavings: (k - 1)! orders, not k!.
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
    raws: list[tuple[Height, ...]] = []
    for px in permutations(maxs):
        beside = list(zip((px[0],) + px, px + (px[-1],)))  # the maxima left and right of each minimum slot
        order = sorted(range(len(mins)), key=lambda j: min(beside[j]))
        placed: list[tuple[Height, ...]] = [()]  # minima chosen so far, in `order`
        for left, right in map(beside.__getitem__, order):
            below = [x for x in mins if x < left and x < right]
            placed = [p + (x,) for p in placed for x in below if x not in p]
        # the sequence interleaves p, whose minima are listed in `order`, with px
        at = [order.index(i // 2) if i % 2 == 0 else len(mins) + i // 2 for i in range(len(pool))]
        raws += map(itemgetter(*at), (p + px for p in placed))
    raws.sort()
    return [validate_critical_sequence(v) for v in raws]


def _elder_pairs(values: tuple[Height, ...]) -> list[tuple[Height, Height]]:
    """The (birth, death) pairs of distinct alternating values by ascending death, the essential bar last.

    Each maximum z reaches out on both sides to the nearest higher maximum;
    of the lowest minima on the two sides, the larger dies at z. A stack holds
    the maxima no higher one has passed yet; the end of the values passes all.
    """
    pairs, stack = [], []  # stack: (maximum, lowest minimum between it and the maximum below it)
    it = iter((*values, None, None))
    low = next(it)  # lowest minimum since the maximum on top of the stack
    for y, nxt in zip(it, it):
        while stack and (y is None or stack[-1][0] < y):
            z, left = stack.pop()
            if left < low:
                left, low = low, left
            pairs.append((left, z))
        stack.append((y, low))
        low = nxt
    pairs.sort(key=itemgetter(1))
    pairs.append((stack[0][1], math.inf))
    return pairs


def _fibers(minima: Iterable[Height], maxima: Iterable[Height]) -> dict[Barcode, list[CriticalSequence]]:
    """all_functions(minima, maxima) grouped by barcode, in one pass.

    The key is the candidate's elder pairs, whose order is canonical; each
    group's Barcode is built and validated once, afterwards.
    """
    groups: dict[tuple[tuple[Height, Height], ...], list[CriticalSequence]] = {}
    for f in all_functions(minima, maxima):
        groups.setdefault(tuple(_elder_pairs(f.values)), []).append(f)
    return {validate_barcode(key): fs for key, fs in groups.items()}


def brute_fiber(b: Barcode) -> list[CriticalSequence]:
    """Every function realizing b, found by grouping all_functions by elder pairs.

    The barcode's births are the candidate minima and its finite deaths the
    maxima; nothing from the plan enumeration is consulted.
    """
    return _fibers(b.births, b.finite_deaths).get(b, [])


def verify(b: Barcode) -> dict:
    """Play formula, plan enumeration and brute force against each other.

    The brute force runs first, so an input past MAX_MINIMA or with shared
    critical values is refused before any tree is built. Its candidates are
    generated once and paired once; grouped by barcode, they give both b's
    brute fiber and the partition check: every barcode arising from b's
    critical values a has exactly count_cmts(a) functions. The chiral trees
    are built once, each vertex written with its unordered canonical form, so
    the dedup counts the distinct forms of the roots without another walk.
    """
    groups = _fibers(b.births, b.finite_deaths)
    brute = groups.get(b, [])
    partition_check = all(len(fs) == fiber.count_cmts(a) for a, fs in groups.items())

    cmts = fiber._trees(b, fiber._choices(b, chiral=True), chiral=True, form="unordered")
    mts = fiber.enumerate_merge_trees(b)
    dedup = len({code for _, _, code in cmts})
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
