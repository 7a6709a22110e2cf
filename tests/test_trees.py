import math

import pytest

from persfiber import (
    BarNotContainedInEssential,
    DuplicateDeath,
    InvalidDocument,
    KindMismatch,
    TooShort,
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
    tree_from_dict,
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
        assert tuple(v.height for v in t.vertices() if v.is_leaf) == f.values[0::2]
        assert t.height == max(f.values)


# --- elder rule


def test_elder_rule_single_leaf():
    b, owner = elder_rule(MergeTree(1))
    assert [(bar.birth, bar.death) for bar in b.bars] == [(1, math.inf)]
    assert owner == {1: 1}


def test_elder_rule_one_merge():
    b, owner = elder_rule(MergeTree(7, (MergeTree(1), MergeTree(2))))
    assert b == validate_barcode([(1, None), (2, 7)])
    assert owner == {1: 1, 3: 2}
    assert (b.bars[owner[3] - 1].birth, b.bars[owner[3] - 1].death) == (2, 7)


def test_elder_rule_deep_tree():
    t = forget_chirality(merge_tree_of_sequence(DEEP))
    b, owner = elder_rule(t)
    assert b == validate_barcode([(1, None), (4, 7), (2, 6), (3, 5)])
    assert owner == {1: 1, 3: 4, 5: 3, 7: 2}


def zigzag(k):
    """Minima 0..k-1 interleaved with rising maxima: a merge tree that is a chain of depth k-1."""
    return seq(*[v for i in range(k - 1) for v in (i, k + i)], k - 1)


def test_elder_rule_reads_a_chiral_tree_as_its_forgotten_form():
    fs = [*small_corpus(), zigzag(2048), seq(*reversed(zigzag(2048).values))]
    for f in fs:
        t = merge_tree_of_sequence(f)
        assert elder_rule(t) == elder_rule(forget_chirality(t)) == barcode_of_sequence(f)
    # tied leaves: the left one, in pre-order, is the elder on both kinds
    tied = C(10, C(5, C(1), C(1.0)), C(0))
    b, owner = elder_rule(tied)
    assert (b, owner) == elder_rule(forget_chirality(tied))
    assert [(bar.birth, bar.death) for bar in b.bars] == [(0, math.inf), (1, 10), (1.0, 5)]
    assert owner == {1: 2, 3: 3, 5: 1}
    for not_a_tree in (None, (7, 1, 2), seq(1, 7, 2), {"height": 1}):
        with pytest.raises(KindMismatch):
            elder_rule(not_a_tree)


def test_elder_owner_map_shape():
    for f in small_corpus():
        t = forget_chirality(merge_tree_of_sequence(f))
        b, owner = elder_rule(t)
        # every leaf owns the bar born at its height, and every bar has one owner
        assert sorted(owner) == list(range(1, len(f.values) + 1, 2))
        assert sorted(owner.values()) == list(range(1, b.N + 1))
        for pos, index in owner.items():
            assert b.bars[index - 1].birth == f.values[pos - 1]
        # every internal vertex kills exactly one bar, and the global minimum's survives
        assert sorted(b.finite_deaths) == sorted(f.values[1::2])
        assert b.bars[owner[f.values.index(min(f.values[0::2])) + 1] - 1].is_essential


def test_elder_owner_map_keys_the_leaves_in_pre_order():
    for f in [*small_corpus(), DEEP, seq(1.5, 5, 3, 6.25, 2.0, 7, 4)]:
        t = forget_chirality(merge_tree_of_sequence(f))
        b, owner = elder_rule(t)
        leaves = [v for v in t.vertices() if v.is_leaf]
        assert sorted(owner) == list(range(1, 2 * len(f.values[0::2]), 2))
        births = [b.bars[owner[2 * i - 1] - 1].birth for i in range(1, len(f.values[0::2]) + 1)]
        assert births == [v.height for v in leaves]
        assert [type(h) for h in births] == [type(v.height) for v in leaves]


def test_elder_rule_refuses_trees_whose_barcode_is_not_generic():
    # The constructors check neither height types nor ties, so elder_rule validates the bars it builds.
    two_fives = MergeTree(9, (MergeTree(5, (MergeTree(1), MergeTree(2))), MergeTree(5, (MergeTree(3), MergeTree(4)))))
    with pytest.raises(DuplicateDeath, match="^bars 3 and 4 share death 5$"):
        elder_rule(two_fives)
    with pytest.raises(BarNotContainedInEssential,
                       match="^bar 2 is born at 1, not strictly after the essential birth 1$"):
        elder_rule(MergeTree(5, (MergeTree(1), MergeTree(1))))
    # The essential bar's inf is never compared with the other deaths, so a str tree is refused by name.
    with pytest.raises(InvalidDocument):
        elder_rule(MergeTree("b", (MergeTree("a"), MergeTree("a2"))))


@pytest.mark.parametrize("outer_left", [False, True], ids=["inner-first", "inner-last"])
@pytest.mark.parametrize(
    "tied, births",
    [([1, 1.0], [(int, 0), (int, 1), (float, 1.0)]), ([1.0, 1], [(int, 0), (float, 1.0), (int, 1)])],
    ids=["int-left", "float-left"],
)
def test_tied_sibling_leaves_keep_their_types(tied, births, outer_left):
    # On a tie the left leaf is the elder: it lives on to 10, and the right one dies at 5.
    inner = {"height": 5, "children": [{"height": h} for h in tied]}
    kids = [{"height": 0}, inner] if outer_left else [inner, {"height": 0}]
    b, owner = elder_rule(tree_from_dict({"height": 10, "children": kids}))
    assert [(type(bar.birth), bar.birth) for bar in b.bars] == births
    assert [bar.death for bar in b.bars] == [math.inf, 10, 5]
    assert owner == ({1: 1, 3: 2, 5: 3} if outer_left else {1: 2, 3: 3, 5: 1})
    elder = b.bars[owner[3 if outer_left else 1] - 1]
    assert elder.death == 10 and type(elder.birth) is type(tied[0])


def test_chiral_elder_map_examples():
    assert elder_rule(forget_chirality(C(7, C(1), C(2))))[0] == validate_barcode([(1, None), (2, 7)])
    assert elder_rule(forget_chirality(C(7, C(2), C(1))))[0] == validate_barcode([(1, None), (2, 7)])
    deep = elder_rule(forget_chirality(merge_tree_of_sequence(DEEP)))[0]
    assert deep == barcode_of_sequence(DEEP)[0]


def test_elder_rule_commutes_with_sweep():
    for f in small_corpus():
        assert elder_rule(forget_chirality(merge_tree_of_sequence(f))) == barcode_of_sequence(f)


# --- chirality


def test_forget_chirality_merges_mirror_trees():
    a = forget_chirality(C(7, C(1), C(2)))
    b = forget_chirality(C(7, C(2), C(1)))
    assert isinstance(a, MergeTree)
    assert canonical_form(a) == canonical_form(b)
    assert canonical_form(C(7, C(1), C(2))) != canonical_form(C(7, C(2), C(1)))


def test_forget_chirality_rejects_unordered_input():
    with pytest.raises(KindMismatch):
        forget_chirality(MergeTree(5))


def test_forget_chirality_and_in_order_compare_heights_only_with_each_other():
    """String heights: a comparison with a numeric end marker would raise TypeError."""
    t = C("z", C("a"), C("m", C("b"), C("c")))
    assert forget_chirality(t) == MergeTree("z", (MergeTree("a"), MergeTree("m", (MergeTree("b"), MergeTree("c")))))
    assert list(map(id, in_order(t))) == list(map(id, [t.left, t, t.right.left, t.right, t.right.right]))


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
        assert len(vertices) == 2 * len(f.values[0::2]) - 1
        for i, v in enumerate(vertices, 1):
            assert v.is_leaf == (i % 2 == 1)


def test_reconstruction_round_trip():
    for f in small_corpus():
        assert cmt_to_sequence(merge_tree_of_sequence(f)) == f


def test_tree_round_trip():
    t = merge_tree_of_sequence(DEEP)
    assert merge_tree_of_sequence(cmt_to_sequence(t)) == t


def test_reconstruction_needs_three_vertices():
    with pytest.raises(TooShort, match="^need at least 3 critical values, got 1$"):
        cmt_to_sequence(C(5))


def test_in_order_rejects_unordered_input():
    with pytest.raises(KindMismatch, match="^in_order takes a ChiralMergeTree, got MergeTree$"):
        in_order(MergeTree(5))


def test_reconstruction_names_itself_on_unordered_input():
    with pytest.raises(KindMismatch) as err:
        cmt_to_sequence(MergeTree(5))
    assert str(err.value) == "cmt_to_sequence takes a ChiralMergeTree, got MergeTree"


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
