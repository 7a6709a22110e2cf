import math

import pytest

from persfiber import (
    KindMismatch,
    TooSmall,
    barcode_of_sequence,
    cmt_to_sequence,
    elder_rule,
    forget_chirality,
    merge_tree_of_sequence,
    validate_barcode,
    validate_critical_sequence,
)
from persfiber.core import (
    ChiralMergeTree,
    MergeTree,
    canonical_form,
    is_isomorphic,
)
from persfiber.oracle import all_functions
from persfiber.trees import in_order, to_dot

C = ChiralMergeTree


def seq(*values):
    return validate_critical_sequence(values)


def small_corpus():
    for k in (2, 3, 4):
        yield from all_functions(range(1, k + 1), range(k + 1, 2 * k))


DEEP = seq(1, 5, 3, 6, 2, 7, 4)


# --- construction


def test_tree_of_single_valley():
    assert merge_tree_of_sequence(seq(1, 7, 2)) == C(7, C(1), C(2))
    assert merge_tree_of_sequence(seq(2, 7, 1)) == C(7, C(2), C(1))


def test_tree_of_deep_sequence():
    expected = C(7, C(6, C(5, C(1), C(3)), C(2)), C(4))
    assert merge_tree_of_sequence(DEEP) == expected
    assert canonical_form(expected) == "(7 (6 (5 (1) (3)) (2)) (4))"


def test_tree_leaves_are_the_minima_in_order():
    for f in small_corpus():
        t = merge_tree_of_sequence(f)
        assert tuple(leaf.height for leaf in t.leaves()) == f.minima
        assert t.height == max(f.values)


# --- elder rule


def test_elder_rule_single_leaf():
    b, dec = elder_rule(MergeTree(1))
    assert [(bar.birth, bar.death) for bar in b.bars] == [(1, math.inf)]
    assert dec.leaf_to_bar[1].is_essential
    assert dec.elder_survivor == {}


def test_elder_rule_one_merge():
    b, dec = elder_rule(MergeTree(7, (MergeTree(1), MergeTree(2))))
    assert b == validate_barcode([(1, None), (2, 7)])
    assert dec.leaf_to_bar[1].is_essential
    assert (dec.leaf_to_bar[2].birth, dec.leaf_to_bar[2].death) == (2, 7)
    assert dec.elder_survivor == {7: 1}


def test_elder_rule_deep_tree():
    t = forget_chirality(merge_tree_of_sequence(DEEP))
    b, dec = elder_rule(t)
    assert b == validate_barcode([(1, None), (4, 7), (2, 6), (3, 5)])
    assert dec.elder_survivor == {5: 1, 6: 1, 7: 1}


def test_elder_rule_rejects_chiral_input():
    with pytest.raises(KindMismatch):
        elder_rule(C(7, C(1), C(2)))


def test_elder_decomposition_shape():
    for f in small_corpus():
        t = forget_chirality(merge_tree_of_sequence(f))
        b, dec = elder_rule(t)
        # every leaf owns the bar born at its height
        assert set(dec.leaf_to_bar) == set(f.minima)
        for h, bar in dec.leaf_to_bar.items():
            assert bar.birth == h
        # every internal vertex kills exactly one bar and keeps the elder side
        assert set(dec.elder_survivor) == set(f.maxima)
        dying_birth = {bar.death: bar.birth for bar in b.bars if not bar.is_essential}
        for h, survivor in dec.elder_survivor.items():
            assert survivor < dying_birth[h]
        assert dec.leaf_to_bar[min(f.minima)].is_essential


def test_chiral_elder_map_examples():
    assert elder_rule(forget_chirality(C(7, C(1), C(2))))[0] == validate_barcode([(1, None), (2, 7)])
    assert elder_rule(forget_chirality(C(7, C(2), C(1))))[0] == validate_barcode([(1, None), (2, 7)])
    deep = elder_rule(forget_chirality(merge_tree_of_sequence(DEEP)))[0]
    assert deep == barcode_of_sequence(DEEP)[0]


def test_elder_rule_commutes_with_sweep():
    for f in small_corpus():
        assert elder_rule(forget_chirality(merge_tree_of_sequence(f)))[0] == barcode_of_sequence(f)[0]


# --- chirality


def test_forget_chirality_merges_mirror_trees():
    a = forget_chirality(C(7, C(1), C(2)))
    b = forget_chirality(C(7, C(2), C(1)))
    assert isinstance(a, MergeTree)
    assert is_isomorphic(a, b)
    assert not is_isomorphic(C(7, C(1), C(2)), C(7, C(2), C(1)))


def test_forget_chirality_rejects_unordered_input():
    with pytest.raises(KindMismatch):
        forget_chirality(MergeTree(5))


# --- in-order traversal and reconstruction


def test_in_order_single_merge():
    heights = [v.height for v in in_order(C(7, C(1), C(2)))]
    assert heights == [1, 7, 2]


def test_in_order_deep_tree():
    t = merge_tree_of_sequence(DEEP)
    assert [v.height for v in in_order(t)] == [1, 5, 3, 6, 2, 7, 4]


def test_in_order_is_leftmost_first():
    # in-order equals sorting vertices by their root-to-vertex word with
    # L below "stop here" below R
    t = merge_tree_of_sequence(DEEP)
    words = []

    def walk(node, word):
        words.append((node, word))
        if not node.is_leaf:
            walk(node.left, word + (0,))
            walk(node.right, word + (2,))

    walk(t, ())
    words.sort(key=lambda nw: nw[1] + (1,))
    assert [n for n, _ in words] == in_order(t)


def test_leaves_land_at_odd_positions():
    for f in small_corpus():
        vertices = in_order(merge_tree_of_sequence(f))
        assert len(vertices) == 2 * f.k - 1
        for i, v in enumerate(vertices, 1):
            assert v.is_leaf == (i % 2 == 1)


def test_reconstruction_round_trip():
    for f in small_corpus():
        assert cmt_to_sequence(merge_tree_of_sequence(f)) == f


def test_tree_round_trip():
    t = merge_tree_of_sequence(DEEP)
    assert merge_tree_of_sequence(cmt_to_sequence(t)) == t


def test_reconstruction_needs_three_vertices():
    with pytest.raises(TooSmall):
        cmt_to_sequence(C(5))


def test_in_order_rejects_unordered_input():
    with pytest.raises(KindMismatch):
        in_order(MergeTree(5))


# --- dot output


def test_to_dot_chiral_pins_child_order():
    assert to_dot(C(7, C(1), C(2))) == (
        "digraph mergetree {\n"
        "  node [shape=circle];\n"
        '  v0 [label="7"];\n'
        '  v1 [label="1"];\n'
        '  v2 [label="2"];\n'
        "  v0 -> v1;\n"
        "  v0 -> v2;\n"
        "  { rank=same; v1 -> v2 [style=invis]; }\n"
        "}\n"
    )


def test_to_dot_unordered_has_no_rank_pins():
    out = to_dot(MergeTree(7, (MergeTree(1), MergeTree(2))))
    assert "rank=same" not in out
    assert out.count("->") == 2
    assert to_dot(MergeTree(7, (MergeTree(1), MergeTree(2)))) == out


def test_to_dot_prints_float_heights_exactly():
    out = to_dot(C(7.5, C(1.0), C(2)))
    assert 'label="7.5"' in out
    assert 'label="1"' in out
