"""Degree-0 persistence of a critical sequence by direct sublevel sweep.

Every minimum lies below both of its neighbouring maxima, so the sweep opens
all minima first and then takes only the maxima in ascending order. A live
component of the sublevel set covers positions lo..hi, and either end maps to
the other, so a maximum at p joins the components ending at p - 1 and
starting at p + 1 in O(1); the younger (larger birth) dies. The sort of the
maxima makes it O(n log n); the same sweep also builds the merge tree, and its
elder pairing `_elder` also serves `trees.elder_rule`. The rank function
simulates the sublevel sets themselves, independently of any barcode, so the
two can be played against each other.
"""
from __future__ import annotations

import math
from typing import Callable, Sequence, TypeVar

from .core import (
    Barcode,
    CriticalSequence,
    Height,
    ValidationError,
    validate_barcode,
)


T = TypeVar("T")


class BadPair(ValidationError):
    """rank(f, r, t) needs r <= t."""


def _sweep(values: Sequence[Height], leaf: Callable[[Height, int], T], join: Callable[[Height, T, T], T]) -> T:
    """Fold the sublevel components of alternating values bottom-up; return the last one's value.

    Every minimum lies below both neighbouring maxima, so each minimum y at
    position pos first opens a component valued leaf(y, pos). Then, lowest
    first, the maximum y joins the components left and right of it into one
    valued join(y, left value, right value). Only the maxima are compared.
    """
    end = list(range(len(values)))  # either end of a live component -> its other end (0-based)
    value = [leaf(y, i + 1) if i % 2 == 0 else None for i, y in enumerate(values)]  # by left end
    for i in sorted(range(1, len(values), 2), key=values.__getitem__):
        lo, hi = end[i - 1], end[i + 1]
        end[lo], end[hi] = hi, lo
        value[lo] = join(values[i], value[lo], value[i + 1])
    return value[0]


def _elder(fold: Callable[[Callable], tuple[Height, int]]) -> tuple[Barcode, dict[int, int]]:
    """Pair the leaves of fold(join) by the elder rule; return the barcode and each position's bar index.

    fold(join) folds (height, position) leaves and returns the root's value. At
    a merge at height y, join keeps the smaller side, on a tie the smaller
    position, and closes the other's bar at y. Bars are found by their deaths.
    """
    bars: list[tuple[Height, Height]] = []
    positions: list[int] = []

    def join(y: Height, left: tuple[Height, int], right: tuple[Height, int]) -> tuple[Height, int]:
        elder, (birth, pos) = (left, right) if left < right else (right, left)
        bars.append((birth, y))
        positions.append(pos)
        return elder

    birth, pos = fold(join)
    bars.append((birth, math.inf))
    positions.append(pos)
    barcode = validate_barcode(bars)
    index_of_death = {bar.death: j for j, bar in enumerate(barcode.bars, 1)}
    return barcode, {pos: index_of_death[d] for pos, (_, d) in zip(positions, bars)}


def barcode_of_sequence(f: CriticalSequence) -> tuple[Barcode, dict[int, int]]:
    """Sweep f bottom to top; return its barcode and which minimum owns which bar.

    The second value maps the 1-based sequence position of each local minimum
    to the 1-based index of its bar in the sorted barcode. The minimum that
    opened the surviving component owns the infinite bar. O(n log n).
    """
    return _elder(lambda join: _sweep(f.values, lambda y, pos: (y, pos), join))


def rank(f: CriticalSequence, r: Height, t: Height) -> int:
    """Number of components at level t that contain a component at level r.

    Computed by simulating both sublevel sets directly, never via the barcode, in
    one O(n) pass over the minima: a maximum above t closes the component at t on
    its left, which contains a component at r iff one of its minima is <= r.
    """
    if not r <= t:
        raise BadPair(f"need r <= t, got r={r!r}, t={t!r}")
    closed, hit = 0, False
    for low, high in zip(f.values[0::2], f.values[1::2]):
        hit = hit or low <= r
        if high > t:
            closed, hit = closed + hit, False
    return closed + (hit or f.values[-1] <= r)
