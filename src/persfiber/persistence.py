"""Degree-0 persistence of a critical sequence by direct sublevel sweep.

The sweep takes critical values in ascending order. A live component of the
sublevel set covers positions lo..hi and is keyed by both ends, so a maximum
at p joins the components ending at p - 1 and starting at p + 1 in O(1); the
younger (larger birth) dies. The sort makes it O(n log n); it also builds the
merge tree. The rank function simulates the sublevel sets themselves,
independently of any barcode, so the two can be played against each other.
"""
from __future__ import annotations

import math
from operator import itemgetter
from typing import Callable, TypeVar

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


def _sweep(f: CriticalSequence, leaf: Callable[[Height, int], T], join: Callable[[Height, T, T], T]) -> T:
    """Fold the sublevel components of f bottom-up; return the last one's value.

    The minimum y at position pos opens a component valued leaf(y, pos); the
    maximum y joins the components left and right of it into one valued
    join(y, left value, right value).
    """
    hi_of: dict[int, int] = {}  # lo -> hi of every live component
    lo_of: dict[int, int] = {}  # hi -> lo of every live component
    value: dict[int, T] = {}    # lo -> value of every live component
    for pos, y in sorted(enumerate(f.values, 1), key=itemgetter(1)):
        if pos % 2:
            lo = hi = pos
            value[pos] = leaf(y, pos)
        else:
            lo = lo_of.pop(pos - 1)
            hi = hi_of.pop(pos + 1)
            value[lo] = join(y, value[lo], value.pop(pos + 1))
        hi_of[lo] = hi
        lo_of[hi] = lo
    return value[1]


def barcode_of_sequence(f: CriticalSequence) -> tuple[Barcode, dict[int, int]]:
    """Sweep f bottom to top; return its barcode and which minimum owns which bar.

    The second value maps the 1-based sequence position of each local minimum
    to the 1-based index of its bar in the sorted barcode. The minimum that
    opened the surviving component owns the infinite bar. O(n log n).
    """
    raw: list[tuple[Height, int, Height]] = []  # (birth, birth_pos, death)

    def join(y: Height, left: tuple[Height, int], right: tuple[Height, int]) -> tuple[Height, int]:
        elder, younger = (left, right) if left < right else (right, left)
        raw.append((*younger, y))
        return elder

    raw.append((*_sweep(f, lambda y, pos: (y, pos), join), math.inf))
    barcode = validate_barcode((b, d) for b, _, d in raw)
    index_of_birth = {bar.birth: bar.index for bar in barcode.bars}
    return barcode, {pos: index_of_birth[b] for b, pos, _ in raw}


def _level_components(f: CriticalSequence, level: Height) -> list[list[int]]:
    """Components of the sublevel set at `level`, as lists of minimum positions."""
    comps: list[list[int]] = []
    cur: list[int] | None = None
    for i, y in enumerate(f.values, 1):
        if i % 2 == 1:
            if y <= level:
                if cur is None:
                    cur = []
                cur.append(i)
        elif y > level and cur is not None:
            comps.append(cur)
            cur = None
    if cur is not None:
        comps.append(cur)
    return comps


def rank(f: CriticalSequence, r: Height, t: Height) -> int:
    """Number of components at level t that contain a component at level r.

    Computed by simulating both sublevel sets directly, never via the barcode:
    a component at t contains some component at r exactly when one of its
    minima sits at or below r.
    """
    if not r <= t:
        raise BadPair(f"need r <= t, got r={r!r}, t={t!r}")
    vals = f.values
    return sum(
        1 for comp in _level_components(f, t) if any(vals[i - 1] <= r for i in comp)
    )
