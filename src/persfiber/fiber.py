"""Counting and enumerating everything that realizes a given barcode.

Bars are taken in death-descending order (the essential bar is index 1).
Each finite bar j picks a parent bar whose interval strictly contains it and
attaches there at its death height, splitting the parent's monotone chain;
chiral plans also pick the side. Multiplying the choice counts gives the
number of merge trees, and one factor of two per finite bar the number of
chiral ones. Every realization comes from one builder, `_in_order`, which
writes its in-order sequence one bar at a time: a prefix shared by many
results is built once, so the build costs O(N) per result. Functions are
those sequences on the heights themselves, sorted by value; trees are swept
from them on bar labels, sharing equal subtrees, and sorted by canonical form.
"""
from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from itertools import product
from typing import Iterator, Sequence

from .core import (
    Barcode,
    ChiralMergeTree,
    CriticalSequence,
    DuplicateValue,
    MergeTree,
    Tree,
    ValidationError,
    _encoder,
    validate_barcode,
    validate_critical_sequence,
)
from .persistence import _sweep


class DegenerateBarcode(ValidationError):
    """A single-bar barcode has no realization with at least two minima."""


class InvalidPlan(ValidationError):
    """An attachment plan that does not describe a realization of its barcode."""


@dataclass(frozen=True)
class AttachmentPlan:
    """One realization choice: for each bar j = 2..N its parent, and side if chiral.

    `parents[i]` and `sides[i]` describe bar i + 2. `sides` is None for
    unordered plans.
    """

    parents: tuple[int, ...]
    sides: tuple[str, ...] | None = None

    @property
    def chiral(self) -> bool:
        return self.sides is not None


@dataclass(frozen=True)
class ContainmentPoset:
    """Strict containment among the bars of one barcode, on indices 1..n."""

    n: int
    relation: frozenset[tuple[int, int]]  # (j, k) present iff bar j inside bar k

    def less(self, j: int, k: int) -> bool:
        return (j, k) in self.relation


def _containers(b: Barcode) -> list[list[int]]:
    """For every bar, the ascending indices of the bars strictly containing it; O(N^2)."""
    return [[k.index for k in b.bars if k.strictly_contains(j)] for j in b.bars]


def _choice_counts(b: Barcode) -> list[int]:
    """mu of every bar 1..N in one O(N log N) pass.

    In canonical order (death descending, then birth ascending) the bars
    containing bar j are the earlier bars born at or below it, counted by a
    Fenwick tree over birth ranks, minus the earlier bars identical to it.
    """
    rank = {h: r for r, h in enumerate(sorted(set(b.births)), 1)}
    fenwick = [0] * (len(rank) + 1)
    identical: Counter = Counter()
    counts = []
    for bar in b.bars:
        r = i = rank[bar.birth]
        below = -identical[bar.birth, bar.death]
        identical[bar.birth, bar.death] += 1
        while i:
            below += fenwick[i]
            i &= i - 1
        counts.append(below)
        while r < len(fenwick):
            fenwick[r] += 1
            r += r & -r
    return counts


def count_merge_trees(b: Barcode) -> int:
    """Product of the choice counts over all finite bars (1 for a lone bar); O(N log N)."""
    return math.prod(_choice_counts(b)[1:])


def count_cmts(b: Barcode) -> int:
    """Two sides per finite bar on top of the merge-tree count."""
    return 2 ** (b.N - 1) * count_merge_trees(b)


def _choices(b: Barcode, *, chiral: bool) -> list[tuple[list[int], tuple[str, ...]]]:
    """Per finite bar, the bars that may carry it and its sides; unordered plans are chiral ones all R."""
    return [(parents, ("L", "R") if chiral else ("R",)) for parents in _containers(b)[1:]]


def attachment_plans(b: Barcode, *, chiral: bool) -> list[AttachmentPlan]:
    """All plans, death-descending / parent-index / left-before-right."""
    per_bar = [[(k, s) for k in parents for s in sides] for parents, sides in _choices(b, chiral=chiral)]
    return [AttachmentPlan(tuple(k for k, _ in combo), tuple(s for _, s in combo) if chiral else None)
            for combo in product(*per_bar)]


def _check_plan(b: Barcode, plan: AttachmentPlan) -> None:
    """Raise InvalidPlan unless every bar 2..N has a side (if chiral) and a parent containing it; O(N)."""
    bars, parents, sides = b.bars, plan.parents, plan.sides
    if len(parents) != len(bars) - 1:
        raise InvalidPlan(f"a plan for {len(bars)} bars needs {len(bars) - 1} parents, got {len(parents)}")
    if plan.chiral:
        if len(sides) != len(parents):
            raise InvalidPlan(f"got {len(sides)} sides for {len(parents)} parents")
        if sides.count("L") + sides.count("R") != len(sides):
            j, side = next((j, s) for j, s in enumerate(sides, 2) if s not in ("L", "R"))
            raise InvalidPlan(f"side of bar {j} must be 'L' or 'R', got {side!r}", position=j)
    for j, k in enumerate(parents, 2):
        if type(k) is not int or not 1 <= k <= len(bars) or not bars[k - 1].strictly_contains(bars[j - 1]):
            raise InvalidPlan(f"parent {k!r} of bar {j} does not strictly contain it", position=j)


def _in_order(leaf: Sequence, dead: Sequence, choices: list) -> list[tuple]:
    """In-order label sequences of every realization the choices allow, in plan order.

    leaf[j - 1] and dead[j - 1] label bar j's leaf and death vertex, all
    distinct. Bar j on side L of bar k goes in as (leaf, dead) just left of
    k's leaf, on side R as (dead, leaf) just right of it; bars go in death
    order, so each lands inside the subtree it hangs in. Each level extends
    every sequence of the last by every choice of the next bar: a shared
    prefix is built once, and levels at least double, so O(N) per result.
    """
    level = [(leaf[0],)]
    for j, (parents, sides) in enumerate(choices, 1):
        cuts = [(0, (leaf[j], dead[j])) if s == "L" else (1, (dead[j], leaf[j])) for s in sides]
        at = [leaf[k - 1] for k in parents]
        level = [seq[:i + r] + pair + seq[i + r:] for seq in level for i in map(seq.index, at) for r, pair in cuts]
    return level


def _trees(b: Barcode, choices: list, *, chiral: bool) -> list[Tree]:
    """The trees of the choices in plan order, each swept from its in-order sequence.

    Bar j is labelled j at its leaf and -j at its death, so tied heights stay
    apart, and the sweep runs on the labels: -j ascends as the deaths do.
    Equal subtrees are one object, shared only across the frozen trees, as
    labels are unique within a tree.
    """
    kind = ChiralMergeTree if chiral else MergeTree
    death = (None, *(bar.death for bar in reversed(b.bars)))  # [-j] is the death of bar j
    memo: dict = {j: kind(h) for j, h in enumerate(b.births, 1)}  # leaf j; (-j, id(left), id(right)) -> join

    def join(j: int, left: Tree, right: Tree) -> Tree:
        key = j, id(left), id(right)
        if key not in memo:  # the memo holds every vertex whose id it keys, so no id is reused
            memo[key] = kind(death[j], left, right) if chiral else kind(death[j], (left, right))
        return memo[key]

    return [_sweep(seq, lambda j, _: memo[j], join)
            for seq in _in_order(range(1, b.N + 1), range(-1, -b.N - 1, -1), choices)]


def materialize(b: Barcode, plan: AttachmentPlan) -> Tree:
    """Build the tree a plan of attachment_plans(b) describes, by one pass of the builder.

    Bar j hangs at its death height on its parent's chain, beside the
    parent's continuation (first in an unordered tree); the elder rule gives
    back b. A plan that is not one of attachment_plans(b) raises InvalidPlan.
    """
    _check_plan(b, plan)
    sides = plan.sides if plan.chiral else ("R",) * len(plan.parents)
    return _trees(b, [((k,), (s,)) for k, s in zip(plan.parents, sides)], chiral=plan.chiral)[0]


def enumerate_merge_trees(b: Barcode) -> list[MergeTree]:
    """Every merge tree realizing b, in plan order, then stably sorted by canonical form.

    Pairwise non-isomorphic when births are distinct; with tied births two
    plans that differ only in which tied bar is the elder give one tree, and
    the formula count exceeds the number of distinct classes. The trees
    share their equal subtrees.
    """
    return sorted(_trees(b, _choices(b, chiral=False), chiral=False), key=_encoder(chiral=False))


def enumerate_cmts(b: Barcode) -> list[ChiralMergeTree]:
    """Every chiral merge tree realizing b, in plan order, then stably sorted by canonical form.

    Pairwise non-isomorphic when births are distinct; with tied births two
    mirror-symmetric siblings can coincide and the formula count exceeds the
    number of distinct classes. The trees share their equal subtrees.
    """
    return sorted(_trees(b, _choices(b, chiral=True), chiral=True), key=_encoder(chiral=True))


def check_function_realizable(b: Barcode) -> None:
    """Raise unless b is generic with two bars or more, distinct births, and no death equal to a birth.

    Exactly those barcodes are realized by functions with pairwise distinct
    critical values; count and enumerate --functions share this rule.
    """
    if b.N < 2:
        raise DegenerateBarcode("a single-bar barcode has no piecewise-linear realization")
    validate_barcode(b.bars, distinct_births=True)
    bar_of_birth = {bar.birth: j for j, bar in enumerate(b.bars, 1)}
    for d in b.finite_deaths:
        if d in bar_of_birth:
            raise DuplicateValue(f"death {d!r} collides with the birth of bar {bar_of_birth[d]}")


def enumerate_functions(b: Barcode) -> list[CriticalSequence]:
    """Canonical representative of every function class realizing b, sorted by values.

    Each is the in-order traversal of a plan's chiral tree, written by the
    builder on the heights themselves, which check_function_realizable makes
    pairwise distinct. The tuples are sorted, then validated.
    """
    check_function_realizable(b)
    level = _in_order(b.births, (None,) + b.finite_deaths, _choices(b, chiral=True))
    level.sort()
    return [validate_critical_sequence(seq) for seq in level]


def containment_poset(b: Barcode) -> ContainmentPoset:
    """Strict-containment relation among all bars; the essential bar is the top."""
    rel = {(j, k) for j, ks in enumerate(_containers(b), 1) for k in ks}
    return ContainmentPoset(b.N, frozenset(rel))


def _signatures(p: ContainmentPoset) -> dict[int, tuple[int, int]]:
    """(bars above, bars below) of every bar, counted from the relation in O(|relation|)."""
    above = Counter(j for j, _ in p.relation)
    below = Counter(k for _, k in p.relation)
    return {j: (above[j], below[j]) for j in range(1, p.n + 1)}


def same_stratum(b1: Barcode, b2: Barcode) -> bool:
    """Whether two barcodes share a containment-poset isomorphism class.

    Brute-force search over index bijections, pruned by (above, below)
    count signatures; the essential indices must correspond.
    """
    p1, p2 = containment_poset(b1), containment_poset(b2)
    if p1.n != p2.n:
        return False
    sig1, sig2 = _signatures(p1), _signatures(p2)
    if sorted(sig1.values()) != sorted(sig2.values()):
        return False

    assigned: dict[int, int] = {1: 1}
    used = {1}

    def images(j: int) -> Iterator[int]:
        """The unused bars of b2 that bar j of b1 can map to, given the bars assigned before it."""
        return (c for c in range(2, p2.n + 1) if c not in used and sig2[c] == sig1[j] and all(
            p1.less(j, other) == p2.less(c, img) and p1.less(other, j) == p2.less(img, c)
            for other, img in assigned.items()))

    # Backtracking on a stack: tries[-1] yields the images left for bar len(tries) + 1.
    tries = [images(2)]
    while 0 < len(tries) < p1.n:
        j = len(tries) + 1
        cand = next(tries[-1], None)
        if cand is None:
            tries.pop()
            used.discard(assigned.pop(j - 1))
        else:
            assigned[j] = cand
            used.add(cand)
            tries.append(images(j + 1))
    return bool(tries)
