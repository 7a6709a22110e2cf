"""Degree-0 persistence of a critical sequence by direct sublevel sweep.

Every minimum lies below both of its neighbouring maxima, and the maximum at
p joins the two parts of f between p and the nearest higher maximum on either
side. So the joins are the Cartesian tree of the maxima, with the minima as
leaves, and one left-to-right pass with a stack folds them in O(n); at each
join the younger (larger birth) side dies. The same fold builds the chiral merge
tree of f and the unordered one of a chiral tree's in-order heights, and its
elder pairing `_elder`, numbered by one sort, serves `trees.elder_rule`.
The rank function simulates the sublevel sets themselves, independently of
any barcode, so the two can be played against each other.
"""
from __future__ import annotations

import math
from itertools import count
from typing import Callable, Sequence, TypeVar

from .core import Barcode, CriticalSequence, Height, ValidationError, _DEATH, _gc_paused, _intervals


T = TypeVar("T")


class BadPair(ValidationError):
    """rank(f, r, t) needs r <= t."""


def _sweep(values: Sequence[Height], leaves: list[T], join: Callable[[Height, T, T], T]) -> T:
    """Fold the parts of alternating values at their maxima; return the root's value.

    The i-th minimum opens a part valued leaves[i]. Left to right, a maximum y waits on the stack
    until a higher one comes, then joins its two sides into join(y, left, right); those still waiting
    at the end join from the top down. No end marker: maxima are compared only with each other, at
    most 2(k - 2) times for k minima. The joins come in left-first post-order.
    """
    heights, parts = [], leaves[:1]  # the waiting maxima, and the values of the parts around them
    for y, leaf in zip(values[1::2], leaves[1:]):
        while heights and heights[-1] < y:
            parts[-1] = join(heights.pop(), parts.pop(-2), parts[-1])
        heights.append(y)
        parts.append(leaf)
    while heights:
        parts[-1] = join(heights.pop(), parts.pop(-2), parts[-1])
    return parts[0]


def _elder(fold: Callable[[Callable], tuple[Height, int]],
           wrap: Callable[[list], Barcode]) -> tuple[Barcode, dict[int, int]]:
    """Pair the leaves of fold(join) by the elder rule; return wrap(bars) and each position's bar index.

    fold(join) folds (height, position) leaves and returns the root's value. At
    a merge at height y, join keeps the smaller side, on a tie the smaller
    position, and closes the other's bar at y. One sort by descending death
    numbers the finite bars after the essential one, which is never compared;
    wrap turns the sorted (birth, death) pairs into the Barcode.
    """
    bars: list[tuple[Height, Height, int]] = []  # (birth, death, position) of the finite bars

    def join(y: Height, left: tuple[Height, int], right: tuple[Height, int]) -> tuple[Height, int]:
        elder, (birth, pos) = (left, right) if left < right else (right, left)
        bars.append((birth, y, pos))
        return elder

    birth, pos = fold(join)
    bars.sort(key=_DEATH, reverse=True)
    bars.insert(0, (birth, math.inf, pos))
    return wrap([(b, d) for b, d, _ in bars]), {pos: j for j, (_, _, pos) in enumerate(bars, 1)}


@_gc_paused
def barcode_of_sequence(f: CriticalSequence) -> tuple[Barcode, dict[int, int]]:
    """Sweep f; return its barcode and which minimum owns which bar.

    The second value maps each local minimum's 1-based position in f to the
    1-based index of its bar in the sorted barcode; the minimum that opened the
    surviving component owns the infinite bar. O(n log n), for sorting the bars.
    The bars are valid by construction and are not validated again: f's values
    are distinct, so are the deaths; each birth is a minimum below the maximum
    that ends its bar; the global minimum alone survives.
    """
    return _elder(lambda join: _sweep(f.values, list(zip(f.values[0::2], count(1, 2))), join), _intervals)


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
