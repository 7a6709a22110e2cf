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
    return _sweep(f, lambda y, _: ChiralMergeTree(y), ChiralMergeTree)


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
    minima: list[Height] = []  # smallest leaf of each finished subtree
    # Reversed pre-order reaches every vertex after all of its descendants.
    for node in reversed(list(t.vertices())):
        if node.is_leaf:
            minima.append(node.height)
            continue
        elder, younger = sorted((minima.pop(), minima.pop()))
        raw.append((younger, node.height))
        survivor[node.height] = elder
        minima.append(elder)
    raw.append((minima.pop(), math.inf))
    barcode = validate_barcode(raw, generic=True)
    bar_of_birth = {bar.birth: bar for bar in barcode.bars}
    leaf_to_bar = {leaf.height: bar_of_birth[leaf.height] for leaf in t.leaves()}
    return barcode, ElderDecomposition(leaf_to_bar, survivor)


def forget_chirality(t: ChiralMergeTree) -> MergeTree:
    """Drop the left/right order, keeping heights and adjacency."""
    if not isinstance(t, ChiralMergeTree):
        raise KindMismatch(f"forget_chirality takes a ChiralMergeTree, got {type(t).__name__}")
    built: list[MergeTree] = []  # copies of the finished subtrees, left one on top
    for node in reversed(list(t.vertices())):
        if node.is_leaf:
            built.append(MergeTree(node.height))
        else:
            left = built.pop()
            built[-1] = MergeTree(node.height, (left, built[-1]))
    return built[0]


def in_order(t: ChiralMergeTree) -> list[ChiralMergeTree]:
    """Left subtree, vertex, right subtree; leaves land at the odd positions."""
    if not isinstance(t, ChiralMergeTree):
        raise KindMismatch(f"in_order takes a ChiralMergeTree, got {type(t).__name__}")
    out: list[ChiralMergeTree] = []
    stack = [(t, False)]  # (vertex, whether its subtrees are already expanded)
    while stack:
        node, expanded = stack.pop()
        if expanded or node.is_leaf:
            out.append(node)
        else:
            stack += ((node.right, False), (node, True), (node.left, False))
    return out


def cmt_to_sequence(t: ChiralMergeTree) -> CriticalSequence:
    """In-order heights of t, validated as a critical sequence.

    Inverse of merge_tree_of_sequence. A lone leaf has no alternating
    realization, hence TooSmall below three vertices.
    """
    vertices = in_order(t)
    if len(vertices) < 3:
        raise TooSmall(f"need at least 3 vertices to realize a function, got {len(vertices)}")
    return validate_critical_sequence(tuple(v.height for v in vertices))


def to_dot(t: Tree) -> str:
    """Graphviz text for either tree kind.

    Chiral trees pin the child order with invisible same-rank edges so the
    drawing is faithful to the chirality.
    """
    lines = ["digraph mergetree {", "  node [shape=circle];"]
    counter = 0

    def fresh() -> str:
        nonlocal counter
        name = f"v{counter}"
        counter += 1
        return name

    def walk(node: Tree) -> str:
        name = fresh()
        lines.append(f'  {name} [label="{height_token(node.height)}"];')
        kids = (node.left, node.right) if isinstance(node, ChiralMergeTree) else node.children
        kid_names = []
        for kid in kids:
            if kid is None:
                continue
            kid_names.append(walk(kid))
        for kn in kid_names:
            lines.append(f"  {name} -> {kn};")
        if isinstance(node, ChiralMergeTree) and len(kid_names) == 2:
            lines.append(
                f"  {{ rank=same; {kid_names[0]} -> {kid_names[1]} [style=invis]; }}"
            )
        return name

    if not isinstance(t, (MergeTree, ChiralMergeTree)):
        raise KindMismatch(f"not a merge tree: {t!r}")
    walk(t)
    lines.append("}")
    return "\n".join(lines) + "\n"
