"""Counting and enumerating everything that realizes a given barcode.

Bars are taken in death-descending order (the essential bar is index 1).
Each finite bar j picks a parent bar whose interval strictly contains it and
attaches there at its death height, splitting the parent's monotone chain;
chiral plans also pick the side. Multiplying the choice counts gives the
number of merge trees, and one factor of two per finite bar the number of
chiral ones. Both builders go one bar at a time, so work shared by many
results is done once. `_in_order` writes functions as in-order sequences on
the heights, keeping each level sorted. `_trees` hangs chains youngest bar
first, sharing equal subtrees, and sorts by the canonical form each vertex
carries.
"""
from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from itertools import product, repeat
from typing import Iterator, Sequence

from .core import (
    Barcode,
    ChiralMergeTree,
    CriticalSequence,
    DuplicateValue,
    MergeTree,
    Tree,
    ValidationError,
    _encoding,
    _gc_paused,
    _wrap_all,
    validate_barcode,
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


def containers(b: Barcode) -> list[list[int]]:
    """For every bar, the ascending indices of the bars strictly containing it: the containment poset; O(N^2).

    In canonical order (death descending, then birth ascending) with distinct
    deaths, those are the earlier bars born at or below it.
    """
    births = b.births
    return [[k for k, h in enumerate(births[:j], 1) if h <= birth] for j, birth in enumerate(births)]


def _mu_pass(b: Barcode) -> list[int]:
    """mu of every bar 1..N in one O(N log N) pass.

    The bars containing bar j are the earlier bars born at or below it (see
    containers), counted by a Fenwick tree over birth ranks.
    """
    births = b.births
    rank = {h: r for r, h in enumerate(sorted(set(births)), 1)}
    fenwick = [0] * (len(rank) + 1)
    size, counts = len(fenwick), []
    for r in map(rank.__getitem__, births):
        i, below = r, 0
        while i:
            below += fenwick[i]
            i &= i - 1
        counts.append(below)
        while r < size:
            fenwick[r] += 1
            r += r & -r
    return counts


def count_merge_trees(b: Barcode) -> int:
    """Product of the choice counts over all finite bars (1 for a lone bar); O(N log N), once per barcode object.

    The count is kept in b's instance __dict__, which the frozen Barcode's ==, hash and repr never read.
    """
    if "_count" not in (memo := vars(b)):
        memo["_count"] = _product(_mu_pass(b)[1:])
    return memo["_count"]


def count_cmts(b: Barcode) -> int:
    """Two sides per finite bar on top of the merge-tree count."""
    return count_merge_trees(b) << (b.N - 1)


def _product(factors: list[int]) -> int:
    """math.prod(factors), pairwise level by level: left to right is quadratic in the product's bit length."""
    while len(factors) > 4:  # a few factors cost the same in any order
        factors = [*map(int.__mul__, factors[0::2], factors[1::2]), *factors[len(factors) & ~1:]]
    return math.prod(factors)


def _choices(b: Barcode, *, chiral: bool) -> list[tuple[list[int], tuple[str, ...]]]:
    """Per finite bar, the bars that may carry it and its sides; unordered plans are chiral ones all R."""
    return [(parents, ("L", "R") if chiral else ("R",)) for parents in containers(b)[1:]]


def attachment_plans(b: Barcode, *, chiral: bool) -> list[AttachmentPlan]:
    """All plans, death-descending / parent-index / left-before-right."""
    per_bar = [[(k, s) for k in parents for s in sides] for parents, sides in _choices(b, chiral=chiral)]
    return [AttachmentPlan(tuple(k for k, _ in combo), tuple(s for _, s in combo) if chiral else None)
            for combo in product(*per_bar)]


def _in_order(births: Sequence, deaths: Sequence, choices: list) -> list[tuple]:
    """In-order critical values of every chiral realization the choices allow, sorted.

    deaths[j - 1] is bar j's death. Bar j on side L of bar k goes in as
    (birth, death) just left of k's birth b_k, on side R as (death, birth)
    just right of it; bars go in death order, so each lands inside the
    subtree it hangs in. Each level extends every sequence by every choice of
    the next bar: a shared prefix is built once, and levels double, so O(N)
    per result. Each level is kept sorted. Take s < t in the previous level,
    first differing at p. Side R keeps s' < t': if b_k sits before p it sits
    at the same place in both, else both insertions fall after p. Side L
    keeps it unless s[p] = b_k < t[p] < b_j. So a level is 2 mu_j runs, one
    per parent and side, each sorted or nearly so, which the sort merges in
    about log2(2 mu_j) comparisons per sequence.
    """
    level = [(births[0],)]
    for j, (parents, sides) in enumerate(choices, 1):
        cuts = [(0, (births[j], deaths[j])) if s == "L" else (1, (deaths[j], births[j])) for s in sides]
        ats = [list(map(tuple.index, level, repeat(births[k - 1]))) for k in parents]  # b_k's place in each
        level = [seq[:i + r] + pair + seq[i + r:] for at in ats for r, pair in cuts for seq, i in zip(level, at)]
        level.sort()
    return level


def _trees(b: Barcode, choices: list, *, chiral: bool, encode: bool = True) -> list:
    """The trees the choices allow, in plan order, built chain by chain.

    A state holds the open chain of each bar not yet hung, at first its leaf.
    Bars hang youngest first, at their death on bar k's chain: left (first in
    a merge tree) on side L, else right. Each choice of bar j is outermost, so
    bar 2 is the most significant digit; the last reuses the old states, so
    one plan is O(N). Equal joins in a level are one object. With encode each
    chain is (vertex, height, its kind's canonical form), written once per vertex.
    """
    kind = ChiralMergeTree if chiral else MergeTree
    vertex = kind if chiral else lambda height, *children: MergeTree(height, children)
    leaf, join = ((lambda h: (kind(h), *_encoding(h, chiral)),
                   lambda h, l, r: (vertex(h, l[0], r[0]), *_encoding(h, chiral, l[1:], r[1:])))
                  if encode else (kind, vertex))
    level = [list(map(leaf, b.births))]  # state[j - 1] is bar j's chain; bar j is last
    for j in range(b.N, 1, -1):
        death, memo = b.bars[j - 1].death, {}  # (id(left), id(right)) -> their join

        def hang(s: list, k: int, left: bool, death=death, memo=memo) -> list:
            """Pop bar j's chain off s and hang it on s[k]; inputs predate the level, so none has a freed id."""
            first, second = (s.pop(), s[k]) if left else (s[k], s.pop())
            if (key := (id(first), id(second))) not in memo:
                memo[key] = join(death, first, second)
            s[k] = memo[key]
            return s

        *copied, (k, left) = [(parent - 1, side == "L") for parent in choices[j - 2][0] for side in choices[j - 2][1]]
        level = [hang(s[:], c, l) for c, l in copied for s in level] + [hang(s, k, left) for s in level]
    return [s[0] for s in level]


def materialize(b: Barcode, plan: AttachmentPlan) -> Tree:
    """Build the tree a plan of attachment_plans(b) describes, by one pass of the builder.

    Bar j hangs at its death height on its parent's chain, beside the
    parent's continuation (first in an unordered tree); the elder rule gives
    back b. A plan that is not one of attachment_plans(b) raises InvalidPlan:
    each bar j >= 2 needs a side and a parent k < j born at or below it.
    """
    bars, parents = b.bars, plan.parents
    if len(parents) != len(bars) - 1:
        raise InvalidPlan(f"a plan for {len(bars)} bars needs {len(bars) - 1} parents, got {len(parents)}")
    sides = plan.sides if plan.chiral else ("R",) * len(parents)
    if len(sides) != len(parents):
        raise InvalidPlan(f"got {len(sides)} sides for {len(parents)} parents")
    for j, (k, side) in enumerate(zip(parents, sides), 2):
        if type(k) is not int or not 1 <= k < j or not bars[k - 1].birth <= bars[j - 1].birth:
            raise InvalidPlan(f"parent {k!r} of bar {j} does not strictly contain it", position=j)
        if side not in ("L", "R"):
            raise InvalidPlan(f"side of bar {j} must be 'L' or 'R', got {side!r}", position=j)
    return _trees(b, [((k,), (s,)) for k, s in zip(plan.parents, sides)], chiral=plan.chiral, encode=False)[0]


@_gc_paused
def enumerate_merge_trees(b: Barcode) -> list[MergeTree]:
    """Every merge tree realizing b, in plan order, then stably sorted by canonical form.

    Pairwise non-isomorphic when births are distinct; with tied births two
    plans that differ only in which tied bar is the elder give one tree, and
    the formula count exceeds the number of distinct classes. The trees
    share their equal subtrees.
    """
    return [t for t, *_ in sorted(_trees(b, _choices(b, chiral=False), chiral=False), key=lambda t: t[2])]


@_gc_paused
def enumerate_cmts(b: Barcode) -> list[ChiralMergeTree]:
    """Every chiral merge tree realizing b, in plan order, then stably sorted by canonical form.

    Pairwise non-isomorphic when births are distinct; with tied births two
    mirror-symmetric siblings can coincide and the formula count exceeds the
    number of distinct classes. The trees share their equal subtrees.
    """
    return [t for t, *_ in sorted(_trees(b, _choices(b, chiral=True), chiral=True), key=lambda t: t[2])]


def check_function_realizable(b: Barcode) -> None:
    """Raise unless b has two bars or more, distinct births, and no death equal to a birth.

    b is generic, as validate_barcode makes every barcode. Exactly those
    barcodes are realized by functions with pairwise distinct critical
    values; count and enumerate --functions and oracle.verify share this rule.
    """
    if b.N < 2:
        raise DegenerateBarcode("a single-bar barcode has no piecewise-linear realization")
    births = b.births
    if len(set(births)) < b.N:
        validate_barcode(b.bars, distinct_births=True)  # raises DuplicateBirth, naming the first tie
    bar_of_birth = {h: j for j, h in enumerate(births, 1)}
    for d in b.finite_deaths:
        if d in bar_of_birth:
            raise DuplicateValue(f"death {d!r} collides with the birth of bar {bar_of_birth[d]}")


@_gc_paused
def enumerate_functions(b: Barcode) -> list[CriticalSequence]:
    """Canonical representative of every function class realizing b, sorted by values.

    Each is the in-order traversal of a plan's chiral tree, written by the
    builder on the heights themselves, and valid by construction. b is
    generic, and check_function_realizable makes births pairwise distinct and
    no death equal to a birth, so all values differ. Bar j goes in as
    (b_j, d_j) just left of its parent's birth b_k, or as (d_j, b_j) just
    right of it, with b_k < b_j < d_j. Every maximum already next to b_k is an
    earlier bar's death, so above d_j. Hence each insertion keeps the sequence
    alternating, and _in_order's sorted tuples are wrapped in two passes,
    without re-validation.
    """
    check_function_realizable(b)
    return _wrap_all(_in_order(b.births, (None,) + b.finite_deaths, _choices(b, chiral=True)))


def _signed_containers(b: Barcode) -> tuple[dict[int, set[int]], dict[int, tuple[int, int]]]:
    """Per bar j, the bars strictly containing it, and how many bars contain it and it contains."""
    up = {j: set(ks) for j, ks in enumerate(containers(b), 1)}
    below = Counter(k for ks in up.values() for k in ks)
    return up, {j: (len(ks), below[j]) for j, ks in up.items()}


def same_stratum(b1: Barcode, b2: Barcode) -> bool:
    """Whether two barcodes share a containment-poset isomorphism class.

    Backtracking over b1's bars in index order, pruned by (above, below)
    count signatures, which also differ in number when N does; the essential
    indices must correspond.
    """
    (up1, sig1), (up2, sig2) = _signed_containers(b1), _signed_containers(b2)
    if sorted(sig1.values()) != sorted(sig2.values()):
        return False

    assigned: dict[int, int] = {1: 1}
    used = {1}

    def images(j: int) -> Iterator[int]:
        """The unused bars c of b2 with bar j's signature whose containers are the images of j's.

        j's containers precede it, so all are assigned; no bar inside c is, as c is among its containers.
        """
        up = {assigned[k] for k in up1[j]}
        for c in range(2, b2.N + 1):
            if c not in used and sig2[c] == sig1[j] and up2[c] == up:
                yield c

    # Backtracking on a stack: tries[-1] yields the images left for bar len(tries) + 1.
    tries = [images(2)]
    while 0 < len(tries) < b1.N:
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
