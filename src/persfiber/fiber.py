"""Counting and enumerating everything that realizes a given barcode.

Bars are taken in death-descending order (the essential bar is index 1).
Each finite bar j picks a parent bar whose interval strictly contains it and
attaches there at its death height, splitting the parent's monotone chain;
chiral plans also pick the side. Multiplying the choice counts gives the
number of merge trees, and one factor of two per finite bar the number of
chiral ones. The tree enumerators materialize every plan and sort the
trees by canonical form. Functions are written straight from the choices,
with no tree built, and sorted by their critical values.
"""
from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from itertools import product

from .core import (
    Barcode,
    ChiralMergeTree,
    CriticalSequence,
    DuplicateBirth,
    DuplicateValue,
    MergeTree,
    Tree,
    ValidationError,
    canonical_form,
    validate_critical_sequence,
)


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


def attachment_plans(b: Barcode, *, chiral: bool) -> list[AttachmentPlan]:
    """All plans, death-descending / parent-index / left-before-right."""
    per_bar: list[list] = []
    for parents in _containers(b)[1:]:
        if chiral:
            per_bar.append([(k, s) for k in parents for s in ("L", "R")])
        else:
            per_bar.append(parents)
    plans = []
    for combo in product(*per_bar):
        if chiral:
            plans.append(
                AttachmentPlan(tuple(k for k, _ in combo), tuple(s for _, s in combo))
            )
        else:
            plans.append(AttachmentPlan(tuple(combo)))
    return plans


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
    indices = range(1, len(bars) + 1)
    for j, k in enumerate(parents, 2):
        if k not in indices or not bars[k - 1].strictly_contains(bars[j - 1]):
            raise InvalidPlan(f"parent {k!r} of bar {j} does not strictly contain it", position=j)


def materialize(b: Barcode, plan: AttachmentPlan) -> Tree:
    """Build the tree a plan of attachment_plans(b) describes.

    Each bar is a monotone chain from its birth leaf up to its death; bar j
    becomes an internal vertex at its death height on the parent's chain,
    with the parent's continuation on one side and bar j's own subtree on the
    other. The elder rule of the result returns exactly b. A plan that is
    not one of attachment_plans(b) raises InvalidPlan.
    """
    _check_plan(b, plan)
    hanging: dict[int, list[tuple]] = {k: [] for k in range(1, b.N + 1)}
    for i, k in enumerate(plan.parents):
        hanging[k].append((i + 2, plan.sides[i] if plan.chiral else None))
    built: dict[int, Tree] = {}
    # A bar dies below its parent, so it has the larger index: building the
    # youngest bar's chain first finds every attached chain already built.
    for k in range(b.N, 0, -1):
        node = (ChiralMergeTree if plan.chiral else MergeTree)(b.bars[k - 1].birth)
        for j, side in reversed(hanging[k]):  # up the chain, lowest death first
            death, attached = b.bars[j - 1].death, built.pop(j)
            if not plan.chiral:
                node = MergeTree(death, (node, attached))
            elif side == "L":
                node = ChiralMergeTree(death, attached, node)
            else:
                node = ChiralMergeTree(death, node, attached)
        built[k] = node
    return built[1]


def enumerate_merge_trees(b: Barcode) -> list[MergeTree]:
    """Every merge tree realizing b, sorted by canonical form.

    Pairwise non-isomorphic for generic b: two plans always differ in some
    attachment height pairing, which the canonical form sees.
    """
    trees = [materialize(b, p) for p in attachment_plans(b, chiral=False)]
    return sorted(trees, key=canonical_form)


def enumerate_cmts(b: Barcode) -> list[ChiralMergeTree]:
    """Every chiral merge tree realizing b, sorted by canonical form.

    Pairwise non-isomorphic when births are distinct; with tied births two
    mirror-symmetric siblings can coincide and the formula count exceeds the
    number of distinct classes.
    """
    trees = [materialize(b, p) for p in attachment_plans(b, chiral=True)]
    return sorted(trees, key=canonical_form)


def check_function_realizable(b: Barcode) -> None:
    """Raise unless b has two bars or more, distinct births, and no death equal to a birth.

    Exactly those barcodes are realized by functions with pairwise distinct
    critical values; count and enumerate --functions share this rule.
    """
    if b.N < 2:
        raise DegenerateBarcode("a single-bar barcode has no piecewise-linear realization")
    seen: dict = {}
    for j, bar in enumerate(b.bars, 1):
        if bar.birth in seen:
            raise DuplicateBirth(
                f"bars {seen[bar.birth]} and {j} share birth {bar.birth!r}", position=j
            )
        seen[bar.birth] = j
    for d in b.finite_deaths:
        if d in seen:
            raise DuplicateValue(f"death {d!r} collides with the birth of bar {seen[d]}")


def enumerate_functions(b: Barcode) -> list[CriticalSequence]:
    """Canonical representative of every function class realizing b, sorted by values.

    Each is the in-order traversal of the chiral tree a plan describes,
    written with no tree built. From [b_1], bars are placed in death order:
    bar j on side L of bar k inserts (b_j, d_j) just left of b_k, on side R
    (d_j, b_j) just right of it. A later bar dies lower, so it lands next to
    its own parent's birth, inside the subtree materialize would hang it in.
    Each result costs N searches and inserts in a list of at most 2N - 1
    values. The raw tuples are sorted, then each is validated as a critical
    sequence.
    """
    check_function_realizable(b)
    choices = [
        [(b.bars[k - 1].birth, right, pair)
         for k in parents
         for right, pair in ((0, (bar.birth, bar.death)), (1, (bar.death, bar.birth)))]
        for bar, parents in zip(b.bars[1:], _containers(b)[1:])
    ]
    out = []
    for combo in product(*choices):
        seq = [b.bars[0].birth]
        for parent_birth, right, pair in combo:
            i = seq.index(parent_birth) + right
            seq[i:i] = pair
        out.append(tuple(seq))
    out.sort()
    return [validate_critical_sequence(seq) for seq in out]


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

    def extend(j: int) -> bool:
        if j > p1.n:
            return True
        for cand in range(2, p2.n + 1):
            if cand in used or sig2[cand] != sig1[j]:
                continue
            ok = all(
                p1.less(j, other) == p2.less(cand, img)
                and p1.less(other, j) == p2.less(img, cand)
                for other, img in assigned.items()
            )
            if not ok:
                continue
            assigned[j] = cand
            used.add(cand)
            if extend(j + 1):
                return True
            del assigned[j]
            used.discard(cand)
        return False

    return extend(2)
