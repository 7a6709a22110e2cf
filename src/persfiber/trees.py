"""Merge trees of critical sequences and the elder rule on them.

A sequence becomes a chiral merge tree by joining, for each maximum in
ascending order, the subtrees left and right of it (the O(n log n) sweep of
`persistence`). The elder rule walks any merge tree bottom-up: at each vertex
the child subtree with the larger minimum dies, emitting a bar, and the
smaller minimum survives. In-order traversal inverts the construction, which
makes function reconstruction possible. Walks use explicit stacks, in O(n).
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import count

from .core import (
    Barcode,
    ChiralMergeTree,
    CriticalSequence,
    Height,
    Interval,
    KindMismatch,
    MergeTree,
    Tree,
    ValidationError,
    _children,
    _fold,
    height_token,
    validate_barcode,
    validate_critical_sequence,
)
from .persistence import _sweep


class TooSmall(ValidationError):
    """Reconstruction needs a tree with at least three vertices."""


@dataclass
class ElderDecomposition:
    """How the elder rule split a tree into bar-owning monotone chains.

    `leaf_to_bar` maps each leaf height to its bar. `elder_survivor` maps each
    internal vertex height to the leaf height whose chain survives (the elder,
    smaller side); the other child's chain dies there.
    """

    leaf_to_bar: dict[Height, Interval]
    elder_survivor: dict[Height, Height]


def merge_tree_of_sequence(f: CriticalSequence) -> ChiralMergeTree:
    """Join subtrees across each maximum of f, lowest maximum first."""
    return _sweep(f.values, lambda y, _: ChiralMergeTree(y), ChiralMergeTree)


def elder_rule(t: MergeTree) -> tuple[Barcode, ElderDecomposition]:
    """Bottom-up elder rule: the younger side of every vertex dies there.

    Returns the barcode together with the decomposition into monotone chains.
    The chain of the global minimum survives every merge and owns the
    infinite bar.
    """
    if not isinstance(t, MergeTree):
        raise KindMismatch(f"elder_rule takes an unordered MergeTree, got {type(t).__name__}")
    raw: list[tuple[Height, Height]] = []
    survivor: dict[Height, Height] = {}
    leaves: list[Height] = []  # leaf heights in pre-order, as t.leaves() gives them
    # A subtree's value is its smallest leaf; at v the larger of the two dies, the right one on a tie.
    def join(v: MergeTree, left: Height, right: Height) -> Height:
        elder, younger = (right, left) if right < left else (left, right)
        raw.append((younger, v.height))
        survivor[v.height] = elder
        return elder

    raw.append((_fold(t, _children, lambda v: leaves.append(v.height) or v.height, join), math.inf))
    barcode = validate_barcode(raw)
    bar_of_birth = {bar.birth: bar for bar in barcode.bars}
    leaf_to_bar = {h: bar_of_birth[h] for h in leaves}
    return barcode, ElderDecomposition(leaf_to_bar, survivor)


def forget_chirality(t: ChiralMergeTree) -> MergeTree:
    """Drop the left/right order, keeping heights and adjacency."""
    if not isinstance(t, ChiralMergeTree):
        raise KindMismatch(f"forget_chirality takes a ChiralMergeTree, got {type(t).__name__}")
    return _fold(t, _children, lambda v: MergeTree(v.height),
                 lambda v, left, right: MergeTree(v.height, (left, right)))


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
    """In-order heights of t, validated as a critical sequence.

    Inverse of merge_tree_of_sequence. A lone leaf has no alternating
    realization, hence TooSmall below three vertices.
    """
    if not isinstance(t, ChiralMergeTree):
        raise KindMismatch(f"cmt_to_sequence takes a ChiralMergeTree, got {type(t).__name__}")
    vertices = in_order(t)
    if len(vertices) < 3:
        raise TooSmall(f"need at least 3 vertices to realize a function, got {len(vertices)}")
    return validate_critical_sequence(tuple(v.height for v in vertices))


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
