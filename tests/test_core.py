import json
import math
from enum import IntEnum

import pytest

from persfiber import (
    BarNotContainedInEssential,
    BoundaryNotMin,
    DuplicateBirth,
    DuplicateDeath,
    DuplicateValue,
    EmptyBar,
    EvenLength,
    InvalidDocument,
    InvalidTree,
    KindMismatch,
    MultipleInfiniteBars,
    NoInfiniteBar,
    NotAlternating,
    Plateau,
    TooShort,
    validate_barcode,
    validate_critical_sequence,
)
from persfiber.core import (
    Barcode,
    ChiralMergeTree,
    MergeTree,
    barcode_from_dict,
    barcode_to_dict,
    canonical_form,
    is_isomorphic,
    reduce_breakpoints,
    sequence_from_dict,
    sequence_to_dict,
    tree_from_dict,
    tree_to_dict,
)
from persfiber.oracle import all_functions


def leaf(h):
    return ChiralMergeTree(h)


# --- validate_critical_sequence


def test_accepts_minimal_sequence():
    s = validate_critical_sequence([1, 7, 2])
    assert s.values == (1, 7, 2)
    assert s.k == 2
    assert s.minima == (1, 2)
    assert s.maxima == (7,)


def test_rejects_even_length():
    with pytest.raises(EvenLength):
        validate_critical_sequence([1, 7])


def test_rejects_too_short():
    with pytest.raises(TooShort):
        validate_critical_sequence([5])


def test_rejects_duplicate_value():
    with pytest.raises(DuplicateValue) as err:
        validate_critical_sequence([1, 7, 7])
    assert err.value.position == 3


def test_rejects_non_alternating_at_first_bad_step():
    with pytest.raises(NotAlternating) as err:
        validate_critical_sequence([3, 1, 4])
    assert err.value.position == 2


def test_rejects_climb_at_the_end():
    with pytest.raises(NotAlternating) as err:
        validate_critical_sequence([1, 7, 2, 3, 4])
    assert err.value.position == 5
    with pytest.raises(NotAlternating):
        validate_critical_sequence([1, 7, 2, 6, 9])


def test_rejects_non_number_values():
    with pytest.raises(InvalidDocument):
        validate_critical_sequence([1, "7", 2])
    with pytest.raises(InvalidDocument):
        validate_critical_sequence([1, True, 2])
    with pytest.raises(InvalidDocument):
        validate_critical_sequence([1, float("nan"), 2])


def test_mixed_int_float_heights_compare_exactly():
    s = validate_critical_sequence([1, 7.5, 2])
    assert s.values == (1, 7.5, 2)
    with pytest.raises(DuplicateValue):
        validate_critical_sequence([1, 7, 1.0])


def test_accepts_an_int_too_large_for_a_float():
    # math.isfinite(10**400) raises OverflowError; the height is still exact and valid.
    s = validate_critical_sequence([1.5, 10**400, 2.5])
    assert s.values == (1.5, 10**400, 2.5)


def test_accepts_int_subclass_heights():
    H = IntEnum("H", [("LOW", 1), ("TOP", 7), ("MID", 2)])
    s = validate_critical_sequence([H.LOW, H.TOP, H.MID])
    assert s.values == (1, 7, 2)


def test_non_finite_height_outranks_a_broken_alternation():
    with pytest.raises(InvalidDocument) as err:
        validate_critical_sequence([1, float("nan"), 5, 9, 2])
    assert err.value.position == 2


# --- reduce_breakpoints


def test_reduce_already_reduced():
    assert reduce_breakpoints([(0, 1), (0.5, 7), (1, 2)]).values == (1, 7, 2)


def test_reduce_drops_monotone_interior_point():
    assert reduce_breakpoints([(0, 1), (0.25, 4), (0.5, 7), (1, 2)]).values == (1, 7, 2)


def test_reduce_preserves_orientation():
    assert reduce_breakpoints([(0, 2), (0.5, 7), (1, 1)]).values == (2, 7, 1)


def test_reduce_rejects_boundary_maximum():
    with pytest.raises(BoundaryNotMin) as err:
        reduce_breakpoints([(0, 5), (1, 0)])
    assert err.value.position == 1
    with pytest.raises(BoundaryNotMin):
        reduce_breakpoints([(0, 0), (1, 5)])


def test_reduce_rejects_plateau():
    with pytest.raises(Plateau) as err:
        reduce_breakpoints([(0, 1), (0.5, 7), (0.75, 7), (1, 2)])
    assert err.value.position == 3


def test_reduce_checks_x_grid():
    with pytest.raises(InvalidDocument):
        reduce_breakpoints([(0, 1), (0.5, 7), (0.5, 2), (1, 3)])
    with pytest.raises(InvalidDocument):
        reduce_breakpoints([(0.1, 1), (1, 2)])
    with pytest.raises(InvalidDocument):
        reduce_breakpoints([(0, 1)])


def test_reduce_inverts_evenly_spaced_graph():
    # Every valid sequence is the reduction of its own evenly spaced graph.
    for k in (2, 3, 4):
        minima = set(range(1, k + 1))
        maxima = set(range(k + 1, 2 * k))
        for s in all_functions(minima, maxima):
            n = len(s.values)
            graph = [(i / (n - 1), y) for i, y in enumerate(s.values)]
            assert reduce_breakpoints(graph) == s


def test_reduce_identifies_reparametrizations():
    a = reduce_breakpoints([(0, 1), (0.5, 7), (1, 2)])
    b = reduce_breakpoints([(0, 1), (0.1, 3), (0.2, 7), (0.7, 4), (1, 2)])
    assert a == b


# --- validate_barcode


def test_barcode_sorting_and_indices():
    b = validate_barcode([(3, 6), (1, None), (4, 5), (2, 7)])
    assert [(bar.birth, bar.death, bar.index) for bar in b.bars] == [
        (1, math.inf, 1),
        (2, 7, 2),
        (3, 6, 3),
        (4, 5, 4),
    ]
    assert b.N == 4
    assert b.essential.birth == 1


def test_barcode_order_insensitive():
    import itertools

    bars = [(1, None), (2, 7), (3, 6), (4, 5)]
    reference = validate_barcode(bars)
    for perm in itertools.permutations(bars):
        assert validate_barcode(perm) == reference


def test_barcode_requires_one_infinite_bar():
    with pytest.raises(NoInfiniteBar):
        validate_barcode([(2, 7)])
    with pytest.raises(MultipleInfiniteBars):
        validate_barcode([(1, None), (2, None)])


def test_barcode_rejects_duplicate_death():
    with pytest.raises(DuplicateDeath):
        validate_barcode([(1, None), (2, 7), (3, 7)])


def test_barcode_rejects_empty_bar():
    with pytest.raises(EmptyBar):
        validate_barcode([(1, None), (7, 2)])
    with pytest.raises(EmptyBar):
        validate_barcode([(1, None), (2, 2)])


def test_barcode_containment_in_essential():
    with pytest.raises(BarNotContainedInEssential):
        validate_barcode([(1, None), (0, 7)])
    with pytest.raises(BarNotContainedInEssential):
        validate_barcode([(1, None), (1, 7)])


def test_barcode_distinct_births_flag():
    bars = [(1, None), (2, 7), (2, 6)]
    assert validate_barcode(bars).N == 3  # tied births pass the generic check
    with pytest.raises(DuplicateBirth):
        validate_barcode(bars, distinct_births=True)


def test_single_bar_barcode_accepted():
    b = validate_barcode([(4, None)])
    assert b.N == 1
    assert b.bars[0].is_essential


# --- canonical forms and isomorphism


def test_canonical_form_single_leaf():
    assert canonical_form(MergeTree(5)) == "(5)"
    assert canonical_form(leaf(5)) == "(5)"
    assert canonical_form(leaf(5.0)) == "(5)"


def test_canonical_form_sorts_unordered_children():
    a = MergeTree(7, (MergeTree(2), MergeTree(1)))
    b = MergeTree(7, (MergeTree(1), MergeTree(2)))
    assert canonical_form(a) == canonical_form(b) == "(7 (1) (2))"
    assert is_isomorphic(a, b)


def test_canonical_form_keeps_chirality():
    a = ChiralMergeTree(7, leaf(1), leaf(2))
    b = ChiralMergeTree(7, leaf(2), leaf(1))
    assert canonical_form(a) == "(7 (1) (2))"
    assert canonical_form(b) == "(7 (2) (1))"
    assert not is_isomorphic(a, b)


def test_is_isomorphic_rejects_mixed_kinds():
    with pytest.raises(KindMismatch):
        is_isomorphic(MergeTree(5), leaf(5))


def test_tree_construction_guards():
    with pytest.raises(InvalidTree):
        MergeTree(5, (MergeTree(1),))
    with pytest.raises(InvalidTree):
        MergeTree(5, (MergeTree(6), MergeTree(1)))
    with pytest.raises(InvalidTree):
        ChiralMergeTree(5, leaf(1), None)
    with pytest.raises(InvalidTree):
        ChiralMergeTree(5, leaf(5), leaf(1))


# --- JSON documents


def test_sequence_document_round_trip():
    s = validate_critical_sequence([1.0, 7.0, 2.0])
    assert sequence_from_dict(sequence_to_dict(s)) == s
    assert sequence_from_dict({"critical_values": [1, 7, 2]}).values == (1, 7, 2)


def test_sequence_document_shape_errors():
    with pytest.raises(InvalidDocument):
        sequence_from_dict([1, 7, 2])
    with pytest.raises(InvalidDocument):
        sequence_from_dict({"values": [1, 7, 2]})
    with pytest.raises(InvalidDocument):
        sequence_from_dict({"critical_values": "172"})


def test_barcode_document_round_trip():
    doc = {"bars": [{"birth": 1, "death": None}, {"birth": 2, "death": 7}]}
    b = barcode_from_dict(doc)
    assert barcode_to_dict(b) == doc
    assert barcode_from_dict(json.loads(json.dumps(barcode_to_dict(b)))) == b


def test_barcode_document_shape_errors():
    with pytest.raises(InvalidDocument):
        barcode_from_dict({"bars": [{"birth": 1}]})
    with pytest.raises(InvalidDocument):
        barcode_from_dict({"bars": [{"birth": 1, "death": None, "x": 2}]})
    with pytest.raises(InvalidDocument):
        barcode_from_dict({"bars": [{"birth": 1, "death": "inf"}]})


def test_tree_document_round_trip_both_kinds():
    chiral = ChiralMergeTree(7, leaf(1), leaf(2))
    assert tree_from_dict(tree_to_dict(chiral)) == chiral
    unordered = MergeTree(7, (MergeTree(1), MergeTree(2)))
    back = tree_from_dict(tree_to_dict(unordered))
    assert isinstance(back, MergeTree)
    assert is_isomorphic(back, unordered)


def test_bare_leaf_document_decodes_as_chiral():
    assert tree_from_dict({"height": 5}) == leaf(5)


def test_tree_document_shape_errors():
    with pytest.raises(InvalidDocument):
        tree_from_dict({"height": 7, "left": {"height": 1}})
    with pytest.raises(InvalidDocument):
        tree_from_dict({"height": 7, "children": [{"height": 1}]})
    with pytest.raises(InvalidDocument):
        tree_from_dict(
            {"height": 7, "left": {"height": 1}, "right": {"height": 2, "children": []}}
        )
    chiral_vertex = {"height": 2, "left": {"height": 0}, "right": {"height": 1.5}}
    with pytest.raises(InvalidDocument):
        tree_from_dict({"height": 7, "children": [{"height": 1}, chiral_vertex]})
    with pytest.raises(InvalidTree):
        tree_from_dict({"height": 7, "left": {"height": 8}, "right": {"height": 1}})
