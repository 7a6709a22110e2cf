"""Counting and enumerating everything that realizes a given barcode.

Bars are taken in death-descending order (the essential bar is index 1).
Each finite bar j picks a parent bar whose interval strictly contains it and
attaches there at its death height, splitting the parent's monotone chain;
chiral plans also pick the side. Multiplying the choice counts gives the
number of merge trees, and one factor of two per finite bar the number of
chiral ones. Enumeration materializes every plan and is deterministic:
plans are walked death-descending / parent-index / left-before-right, and
results are sorted by canonical form before return.
"""
from __future__ import annotations

import math
from collections import Counter
from concurrent.futures import ProcessPoolExecutor
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
)
from .trees import cmt_to_sequence


class IndexOutOfRange(ValidationError):
    """Finite-bar index must satisfy 2 <= j <= N."""


class DegenerateBarcode(ValidationError):
    """A single-bar barcode has no realization with at least two minima."""


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

    def up_set(self, j: int) -> set[int]:
        return {j} | {k for (a, k) in self.relation if a == j}

    def down_set(self, j: int) -> set[int]:
        return {j} | {a for (a, k) in self.relation if k == j}


def _check_index(b: Barcode, j: int) -> None:
    if not 2 <= j <= b.N:
        raise IndexOutOfRange(f"finite bar index must be in 2..{b.N}, got {j}")


def containing_set(b: Barcode, j: int) -> set[int]:
    """Indices of the bars whose interval strictly contains bar j."""
    _check_index(b, j)
    target = b.bars[j - 1]
    return {
        bar.index for bar in b.bars if bar.index != j and bar.strictly_contains(target)
    }


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


def mu(b: Barcode, j: int) -> int:
    """Number of bars strictly containing bar j; the j-th choice count. O(N log N)."""
    _check_index(b, j)
    return _choice_counts(b)[j - 1]


def count_merge_trees(b: Barcode) -> int:
    """Product of the choice counts over all finite bars (1 for a lone bar); O(N log N)."""
    return math.prod(_choice_counts(b)[1:])


def count_cmts(b: Barcode) -> int:
    """Two sides per finite bar on top of the merge-tree count."""
    return 2 ** (b.N - 1) * count_merge_trees(b)


def attachment_plans(b: Barcode, *, chiral: bool) -> list[AttachmentPlan]:
    """All plans, death-descending / parent-index / left-before-right."""
    per_bar: list[list] = []
    for j in range(2, b.N + 1):
        parents = sorted(containing_set(b, j))
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


def materialize(b: Barcode, plan: AttachmentPlan) -> Tree:
    """Build the tree a plan describes.

    Each bar is a monotone chain from its birth leaf up to its death; bar j
    becomes an internal vertex at its death height on the parent's chain,
    with the parent's continuation on one side and bar j's own subtree on the
    other. The elder rule of the result returns exactly b.
    """
    hanging: dict[int, list[tuple]] = {k: [] for k in range(1, b.N + 1)}
    for i, k in enumerate(plan.parents):
        j = i + 2
        side = plan.sides[i] if plan.chiral else None
        hanging[k].append((b.bars[j - 1].death, j, side))

    def build_chain(k: int, upper: float):
        below = [ev for ev in hanging[k] if ev[0] < upper]
        if not below:
            birth = b.bars[k - 1].birth
            return ChiralMergeTree(birth) if plan.chiral else MergeTree(birth)
        death, j, side = max(below)
        attached = build_chain(j, death)
        continuation = build_chain(k, death)
        if not plan.chiral:
            return MergeTree(death, (continuation, attached))
        if side == "L":
            return ChiralMergeTree(death, attached, continuation)
        return ChiralMergeTree(death, continuation, attached)

    return build_chain(1, math.inf)


def _materialize_chunk(b: Barcode, plans: list[AttachmentPlan]) -> list[Tree]:
    return [materialize(b, p) for p in plans]


def _run_plans(b: Barcode, plans: list[AttachmentPlan], jobs: int) -> list[Tree]:
    if jobs <= 1 or len(plans) < 2:
        return _materialize_chunk(b, plans)
    jobs = min(jobs, len(plans))
    step = -(-len(plans) // jobs)
    chunks = [plans[i : i + step] for i in range(0, len(plans), step)]
    with ProcessPoolExecutor(max_workers=jobs) as pool:
        parts = pool.map(_materialize_chunk, [b] * len(chunks), chunks)
        return [t for part in parts for t in part]


def enumerate_merge_trees(b: Barcode, *, jobs: int = 1) -> list[MergeTree]:
    """Every merge tree realizing b, sorted by canonical form.

    Pairwise non-isomorphic for generic b: two plans always differ in some
    attachment height pairing, which the canonical form sees.
    """
    trees = _run_plans(b, attachment_plans(b, chiral=False), jobs)
    return sorted(trees, key=canonical_form)


def enumerate_cmts(b: Barcode, *, jobs: int = 1) -> list[ChiralMergeTree]:
    """Every chiral merge tree realizing b, sorted by canonical form.

    Pairwise non-isomorphic when births are distinct; with tied births two
    mirror-symmetric siblings can coincide and the formula count exceeds the
    number of distinct classes.
    """
    trees = _run_plans(b, attachment_plans(b, chiral=True), jobs)
    return sorted(trees, key=canonical_form)


def enumerate_functions(b: Barcode, *, jobs: int = 1) -> list[CriticalSequence]:
    """Canonical representative of every function class realizing b.

    Needs pairwise distinct births; a lone essential bar has no realization
    with the mandatory two boundary minima.
    """
    if b.N == 1:
        raise DegenerateBarcode("a single-bar barcode has no piecewise-linear realization")
    seen: dict = {}
    for j, bar in enumerate(b.bars, 1):
        if bar.birth in seen:
            raise DuplicateBirth(
                f"bars {seen[bar.birth]} and {j} share birth {bar.birth!r}", position=j
            )
        seen[bar.birth] = j
    for d in b.finite_deaths:
        # A death that equals some other bar's birth cannot come from a
        # function with pairwise distinct critical values.
        if d in seen:
            raise DuplicateValue(f"death {d!r} collides with the birth of bar {seen[d]}")
    return sorted(
        (cmt_to_sequence(t) for t in enumerate_cmts(b, jobs=jobs)),
        key=lambda s: s.values,
    )


def containment_poset(b: Barcode) -> ContainmentPoset:
    """Strict-containment relation among all bars; the essential bar is the top."""
    rel = {
        (j.index, k.index)
        for j in b.bars
        for k in b.bars
        if j.index != k.index and k.strictly_contains(j)
    }
    return ContainmentPoset(b.N, frozenset(rel))


def _signature(p: ContainmentPoset, j: int) -> tuple[int, int]:
    return (len(p.up_set(j)), len(p.down_set(j)))


def same_stratum(b1: Barcode, b2: Barcode) -> bool:
    """Whether two barcodes share a containment-poset isomorphism class.

    Brute-force search over index bijections, pruned by (up-set, down-set)
    size signatures; the essential indices must correspond.
    """
    p1, p2 = containment_poset(b1), containment_poset(b2)
    if p1.n != p2.n:
        return False
    sig1 = {j: _signature(p1, j) for j in range(1, p1.n + 1)}
    sig2 = {j: _signature(p2, j) for j in range(1, p2.n + 1)}
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
