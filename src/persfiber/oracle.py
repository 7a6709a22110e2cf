"""Brute-force ground truth for the counting and enumeration machinery.

all_functions and brute_fiber know nothing about attachment plans, counting
formulas or the sublevel sweep: walking the orders of the maxima, they
generate only the alternating arrangements of the given values, validate them
and group them by barcode with the oracle's own Elder Rule, both column-wise
over all the candidates of one order at once in the brute force. verify() is
the one place the routes meet. It first applies the
realizability rule that count and enumerate --functions share, then
generates the candidates once, builds one barcode per group, and reports the
formula, the plan enumeration and the brute force side by side; its
partition check compares the size of every fiber that arises from b's
critical values with the counting formula. Its merge-tree dedup reads the
forms of the merge trees built from the chiral plans.
"""
from __future__ import annotations

import math
from itertools import permutations
from operator import attrgetter, itemgetter
from typing import Iterable, Iterator, Sequence

from . import fiber
from .core import (
    Barcode,
    CriticalSequence,
    DuplicateValue,
    Height,
    ValidationError,
    _gc_paused,
    _validate_rows,
    validate_barcode,
    validate_critical_sequence,
)

MAX_MINIMA = 6  # at most 6! * 5! = 86_400 candidates; beyond that brute force stops being quick


class CardinalityMismatch(ValidationError):
    """A sequence alternates only if |minima| == |maxima| + 1 >= 2."""


class ScaleCapExceeded(ValidationError):
    """Brute force is deliberately capped at MAX_MINIMA minima."""


def _by_order(minima: Iterable[Height], maxima: Iterable[Height]) -> Iterator[tuple[tuple, list[tuple]]]:
    """For each order px of the maxima, the raw alternating arrangements with their maxima in that order.

    Minimum slot j lies between px[j - 1] and px[j] (the end slots beside one
    maximum) and needs a value below both. Filled from the most demanding
    slot down, the one with the lowest neighbour first, each slot takes one
    of the minima below its neighbours less those already placed, so the
    choices form a mixed-radix product of only the alternating interleavings:
    (k - 1)! orders, not k!. The values are not validated here.
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
    for px in permutations(maxs):
        beside = list(zip((px[0],) + px, px + (px[-1],)))  # the maxima left and right of each minimum slot
        order = sorted(range(len(mins)), key=lambda j: min(beside[j]))
        placed: list[tuple[Height, ...]] = [()]  # minima chosen so far, in `order`
        for left, right in map(beside.__getitem__, order):
            below = [x for x in mins if x < left and x < right]
            placed = [p + (x,) for p in placed for x in below if x not in p]
        # the sequence interleaves p, whose minima are listed in `order`, with px
        at = [order.index(i // 2) if i % 2 == 0 else len(mins) + i // 2 for i in range(len(pool))]
        yield px, list(map(itemgetter(*at), (p + px for p in placed)))


def all_functions(minima: Iterable[Height], maxima: Iterable[Height]) -> list[CriticalSequence]:
    """Every valid critical sequence using the given values, sorted; see _by_order."""
    raws = sorted(v for _, vs in _by_order(minima, maxima) for v in vs)
    return [validate_critical_sequence(v) for v in raws]


def _births(px: tuple, rank: dict[Height, int], columns: tuple[tuple, ...]) -> Iterator[tuple]:
    """The finite births, by ascending death, of each candidate of one order px, given as slot columns.

    Each maximum reaches out to the nearest higher maximum on both sides; of
    the two lowest side minima, the larger dies at it. The reaches depend on
    px alone, so one stack walk pairs every candidate at once, a column per
    maximum. rank places each maximum among the sorted maxima, the deaths.
    """
    births: list = [None] * len(px)
    stack = []  # (position of a maximum no higher one has passed yet, lowest minima of its left reach)
    for j, z in enumerate((*px, None)):  # the end passes all
        low = columns[2 * j]  # lowest minima since the maximum on top of the stack: slot j, left of px[j]
        while stack and (z is None or px[stack[-1][0]] < z):
            i, left = stack.pop()
            births[rank[px[i]]] = [y if x < y else x for x, y in zip(left, low)]
            low = [x if x < y else y for x, y in zip(left, low)]
        stack.append((j, low))
    return zip(*births)


def _fibers(minima: Sequence[Height], maxima: Sequence[Height]) -> dict[Barcode, list[CriticalSequence]]:
    """all_functions(minima, maxima) grouped by barcode, in no particular order.

    One transpose per order serves validation and pairing; every candidate is validated before each group's Barcode.
    """
    deaths = sorted(maxima)
    rank = {z: r for r, z in enumerate(deaths)}
    groups: dict[tuple[Height, ...], list[CriticalSequence]] = {}
    for px, raws in _by_order(minima, deaths):
        columns = tuple(zip(*raws))
        fs = _validate_rows(raws, columns)
        for key, f in zip(_births(px, rank, columns) if fs else (), fs):
            groups.setdefault(key, []).append(f)
    low = min(minima)  # every candidate holds every minimum: the essential birth
    return {validate_barcode(zip((*births, low), (*deaths, math.inf))): fs for births, fs in groups.items()}


def brute_fiber(b: Barcode) -> list[CriticalSequence]:
    """Every function realizing b, sorted, found by grouping the candidates on b's values by their column-wise pairing.

    The barcode's births are the candidate minima and its finite deaths the
    maxima; nothing from the plan enumeration is consulted.
    """
    return sorted(_fibers(b.births, b.finite_deaths).get(b, []), key=attrgetter("values"))


@_gc_paused
def verify(b: Barcode) -> dict:
    """Play formula, plan enumeration and brute force against each other.

    The realizability rule runs first (fiber.check_function_realizable), so
    verify refuses exactly what count and enumerate --functions refuse, and
    by the same names. The brute force runs next, so an input past
    MAX_MINIMA is refused before any tree is built. Its candidates are
    generated once and paired once, column-wise; grouped by barcode, they
    give both b's brute fiber and the partition check: every barcode arising
    from b's critical values a has exactly count_cmts(a) functions. Each
    chiral plan is built once, as a merge tree: side L hangs the new chain
    first, so it is forget_chirality of that plan's chiral tree, and the
    dedup counts the distinct canonical forms the builder wrote on the roots.
    """
    fiber.check_function_realizable(b)
    groups = _fibers(b.births, b.finite_deaths)
    brute = groups.get(b, [])
    partition_check = all(len(fs) == fiber.count_cmts(a) for a, fs in groups.items())

    forgotten = fiber._trees(b, fiber._choices(b, chiral=True), chiral=False)  # one per chiral plan
    mts = fiber.enumerate_merge_trees(b)
    dedup = len({code for _, _, code in forgotten})
    formula_cmt = fiber.count_cmts(b)
    formula_mt = fiber.count_merge_trees(b)
    return {
        "formula_cmt_count": formula_cmt,
        "enumerated_cmt_count": len(forgotten),
        "brute_count": len(brute),
        "formula_mt_count": formula_mt,
        "enumerated_mt_count": len(mts),
        "dedup_mt_from_cmts": dedup,
        "all_equal": (
            formula_cmt == len(forgotten) == len(brute)
            and formula_mt == len(mts) == dedup
        ),
        "partition_check": partition_check,
    }
