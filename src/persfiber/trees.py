"""Merge trees of critical sequences and the elder rule on them.

A sequence becomes a chiral merge tree, the Cartesian tree of its maxima: each maximum
joins the subtrees between it and the nearest higher maximum on either side (the O(n)
stack fold of `persistence`). In-order traversal inverts the construction, which makes
function reconstruction possible. The same fold over a chiral tree's in-order heights
forgets its chirality: children lie strictly below parents, so a higher common ancestor
separates any two equal maxima, the fold never compares them, and it rebuilds the tree.
The elder rule walks any merge tree bottom-up: at each vertex the child subtree with the
larger minimum dies, emitting a bar, and the smaller minimum survives; it shares the
sweep's pairing, `persistence._elder`. Walks use explicit stacks, in O(n).
"""
from __future__ import annotations

from itertools import count

from .core import (
    Barcode,
    ChiralMergeTree,
    CriticalSequence,
    KindMismatch,
    MergeTree,
    Tree,
    _children,
    _fold,
    _gc_paused,
    height_token,
    validate_barcode,
    validate_critical_sequence,
)
from .persistence import _elder, _sweep


@_gc_paused
def merge_tree_of_sequence(f: CriticalSequence) -> ChiralMergeTree:
    """Join, at each maximum of f, the subtrees between it and the nearest higher maximum on either side."""
    return _sweep(f.values, list(map(ChiralMergeTree, f.values[0::2])), ChiralMergeTree)


@_gc_paused
def elder_rule(t: Tree) -> tuple[Barcode, dict[int, int]]:
    """Bottom-up elder rule: the younger side of every vertex dies there, the right one on a tie.

    Returns the barcode and barcode_of_sequence's position -> bar index map,
    with the i-th leaf in pre-order at position 2i - 1. Either tree kind: a
    chiral tree gives exactly what its forget_chirality gives, positions and
    ties included, so elder_rule(merge_tree_of_sequence(f)) == barcode_of_sequence(f).
    Both number the bars by one sort, so their maps list positions in bar order.
    The bars are validated, as the constructors do not check height types and a
    hand-built tree can tie two deaths or its two lowest leaves.
    """
    if not isinstance(t, (MergeTree, ChiralMergeTree)):
        raise KindMismatch(f"elder_rule takes a merge tree, got {type(t).__name__}")
    positions = count(1, 2)
    return _elder(lambda join: _fold(t, _children, lambda v: (v.height, next(positions)),
                                     lambda v, left, right: join(v.height, left, right)), validate_barcode)


@_gc_paused
def forget_chirality(t: ChiralMergeTree) -> MergeTree:
    """The unordered merge tree of t's in-order heights: t, its left/right order dropped."""
    if not isinstance(t, ChiralMergeTree):
        raise KindMismatch(f"forget_chirality takes a ChiralMergeTree, got {type(t).__name__}")
    heights = [v.height for v in in_order(t)]
    return _sweep(heights, list(map(MergeTree, heights[0::2])), lambda y, left, right: MergeTree(y, (left, right)))


def in_order(t: ChiralMergeTree) -> list[ChiralMergeTree]:
    """Left subtree, vertex, right subtree, walked down left links; leaves land at the odd positions."""
    if not isinstance(t, ChiralMergeTree):
        raise KindMismatch(f"in_order takes a ChiralMergeTree, got {type(t).__name__}")
    out, stack = [], []  # the walk so far, and the vertices whose left subtree it is in
    while True:
        while t.left is not None:
            stack.append(t)
            t = t.left
        out.append(t)
        if not stack:
            return out
        t = stack.pop()
        out.append(t)
        t = t.right


def cmt_to_sequence(t: ChiralMergeTree) -> CriticalSequence:
    """Inverse of merge_tree_of_sequence: the in-order heights of t, validated (a lone leaf is TooShort)."""
    if not isinstance(t, ChiralMergeTree):
        raise KindMismatch(f"cmt_to_sequence takes a ChiralMergeTree, got {type(t).__name__}")
    return validate_critical_sequence([v.height for v in in_order(t)])


def to_dot(t: Tree) -> str:
    """Graphviz text for either tree kind.

    Chiral trees pin the child order with invisible same-rank edges so the
    drawing is faithful to the chirality.
    """
    if not isinstance(t, (MergeTree, ChiralMergeTree)):
        raise KindMismatch(f"not a merge tree: {t!r}")
    chiral = isinstance(t, ChiralMergeTree)
    lines = ["digraph mergetree {", "  node [shape=circle];"]
    names = map("v{}".format, count())
    entered: list[str] = []  # names of the vertices entered and not yet joined

    def kids(v: Tree) -> tuple:
        entered.append(next(names))
        lines.append(f'  {entered[-1]} [label="{height_token(v.height)}"];')
        return v.children

    def join(v: Tree, left: str, right: str) -> str:
        name = entered.pop()
        lines.extend((f"  {name} -> {left};", f"  {name} -> {right};"))
        if chiral:
            lines.append(f"  {{ rank=same; {left} -> {right} [style=invis]; }}")
        return name

    _fold(t, kids, lambda v: entered.pop(), join)
    return "\n".join(lines) + "\n}\n"
