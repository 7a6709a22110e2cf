"""Merge trees of critical sequences and the elder rule on them.

A sequence becomes a chiral merge tree by joining, for each maximum in
ascending order, the subtrees left and right of it (the O(n log n) sweep of
`persistence`). The elder rule walks any merge tree bottom-up: at each vertex
the child subtree with the larger minimum dies, emitting a bar, and the
smaller minimum survives; it shares the sweep's pairing, `persistence._elder`.
In-order traversal inverts the construction, which makes function
reconstruction possible. Walks use explicit stacks, in O(n).
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
    height_token,
    validate_critical_sequence,
)
from .persistence import _elder, _sweep


def merge_tree_of_sequence(f: CriticalSequence) -> ChiralMergeTree:
    """Join subtrees across each maximum of f, lowest maximum first."""
    return _sweep(f.values, list(map(ChiralMergeTree, f.values[0::2])), ChiralMergeTree)


def elder_rule(t: Tree) -> tuple[Barcode, dict[int, int]]:
    """Bottom-up elder rule: the younger side of every vertex dies there, the right one on a tie.

    Returns the barcode and barcode_of_sequence's position -> bar index map,
    with the i-th leaf in pre-order at position 2i - 1. Either tree kind: a
    chiral tree gives exactly what its forget_chirality gives, positions and
    ties included, so elder_rule(merge_tree_of_sequence(f)) == barcode_of_sequence(f).
    """
    if not isinstance(t, (MergeTree, ChiralMergeTree)):
        raise KindMismatch(f"elder_rule takes a merge tree, got {type(t).__name__}")
    positions = count(1, 2)
    return _elder(lambda join: _fold(t, _children, lambda v: (v.height, next(positions)),
                                     lambda v, left, right: join(v.height, left, right)))


def forget_chirality(t: ChiralMergeTree) -> MergeTree:
    """Drop the left/right order, keeping heights and adjacency."""
    if not isinstance(t, ChiralMergeTree):
        raise KindMismatch(f"forget_chirality takes a ChiralMergeTree, got {type(t).__name__}")
    order, stack = [], [t]  # vertices root first, right subtree before left: reversed, a post-order
    while stack:
        v = stack.pop()
        order.append(v)
        if v.left is not None:
            stack += (v.left, v.right)
    done: list[MergeTree] = []  # copies of the finished subtrees, the right one on top
    for v in reversed(order):
        if v.left is None:
            done.append(MergeTree(v.height))
        else:
            right = done.pop()
            done[-1] = MergeTree(v.height, (done[-1], right))
    return done[0]


def in_order(t: ChiralMergeTree) -> list[ChiralMergeTree]:
    """Left subtree, vertex, right subtree; leaves land at the odd positions."""
    if not isinstance(t, ChiralMergeTree):
        raise KindMismatch(f"in_order takes a ChiralMergeTree, got {type(t).__name__}")
    out: list[ChiralMergeTree] = []
    stack: list = [t]  # vertices still to walk, and (vertex,) for one whose left subtree is done
    while stack:
        node = stack.pop()
        if type(node) is tuple:
            out.append(node[0])
        elif node.left is None:
            out.append(node)
        else:
            stack += (node.right, (node,), node.left)
    return out


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
