import copy
import dataclasses
import json
import math
import pickle
from dataclasses import FrozenInstanceError
from enum import IntEnum

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from test_heights import Counted, Exact

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
    ValidationError,
    enumerate_cmts,
    enumerate_functions,
    enumerate_merge_trees,
    forget_chirality,
    merge_tree_of_sequence,
    validate_barcode,
    validate_critical_sequence,
    verify,
)
from persfiber.core import (
    Barcode,
    ChiralMergeTree,
    CriticalSequence,
    Interval,
    MergeTree,
    _validate_rows,
    barcode_from_dict,
    barcode_to_dict,
    canonical_form,
    reduce_breakpoints,
    sequence_from_dict,
    tree_from_dict,
    tree_to_dict,
)
from persfiber.oracle import all_functions
from persfiber.trees import to_dot


def leaf(h):
    return ChiralMergeTree(h)


# --- validate_critical_sequence


def test_accepts_minimal_sequence():
    s = validate_critical_sequence([1, 7, 2])
    assert s.values == (1, 7, 2)


def test_critical_sequence_keeps_its_field_in_a_slot():
    s = validate_critical_sequence([1, 7, 2])
    assert not hasattr(s, "__dict__")
    assert s == CriticalSequence((1, 7, 2)) and hash(s) == hash(CriticalSequence((1, 7, 2)))
    assert repr(s) == "CriticalSequence(values=(1, 7, 2))"
    with pytest.raises(FrozenInstanceError):
        s.values = (1, 8, 2)


def test_rejects_even_length():
    with pytest.raises(EvenLength):
        validate_critical_sequence([1, 7])
    with pytest.raises(EvenLength):
        CriticalSequence((1, 7))  # built by hand, it is validated all the same


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


Heights = IntEnum("Heights", [("LOW", 1), ("TOP", 7), ("MID", 2)])  # module level, so pickle finds it


@pytest.mark.parametrize(
    "values",
    [
        [1, 7, 2],
        [1.5, 7.25, -2.0],
        [0, 7.5, -3, 11, 2.5],
        [v for i in range(299) for v in (i, 1000 + i + 0.5)] + [299],
        [1.5, 10**400, 2.5],  # accepted by the per-position diagnosis
        list(Heights),
    ],
    ids=["ints", "floats", "mixed", "long-mixed", "huge-int", "int-enum"],
)
def test_accepted_sequences_keep_the_dataclass_contract(values):
    s = validate_critical_sequence(values)
    reference = object.__new__(CriticalSequence)  # set directly, so the reference never runs the validator
    object.__setattr__(reference, "values", tuple(values))
    assert type(s) is CriticalSequence and not hasattr(s, "__dict__")
    assert s == reference and hash(s) == hash(reference) and repr(s) == repr(reference)
    with pytest.raises(FrozenInstanceError):
        s.values = (1, 8, 2)
    for back in (pickle.loads(pickle.dumps(s)), copy.deepcopy(s), dataclasses.replace(s), CriticalSequence(values)):
        assert back == s and hash(back) == hash(s) and type(back.values) is tuple


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


# --- _validate_rows: the batch form validate_critical_sequence's callers see as list(map(...))

SPOILS = ["none"] * 6 + [
    "bool", "nan", "inf", "-inf", "huge", "Exact", "Counted", "duplicate", "swap", "between", "drop", "append",
]
LIFTS = {"Exact": Exact, "Counted": Counted}  # applied in the test, as Hypothesis cannot print an Exact
VALID3, VALID5 = ((1, 7, 2), None, 0), ((1, 7, 2, 6, 3), None, 0)  # valid rows to batch a spoiled one with


@st.composite
def row_batches(draw):
    """Rows of one odd length, mostly valid (minima below maxima, some floats), some spoiled one way.

    Each comes as (row, lift, i): an int subclass named by lift replaces the int at position i.
    """
    n = draw(st.sampled_from((3, 5, 7, 9)))
    specs = []
    for _ in range(draw(st.integers(0, 8))):
        pool = sorted(draw(st.lists(st.integers(-40, 40), min_size=n, max_size=n, unique=True)))
        lows, highs = draw(st.permutations(pool[: n // 2 + 1])), draw(st.permutations(pool[n // 2 + 1:]))
        # a whole int, an equal float, or a float between two ints: distinct and alternating either way
        forms = [draw(st.sampled_from((int, float, lambda x: x + 0.5))) for _ in range(n)]
        row = [form(v) for form, v in zip(forms, [*(x for p in zip(lows, highs) for x in p), lows[-1]])]
        i = draw(st.integers(0, n - 1))
        kind = draw(st.sampled_from(SPOILS))
        if kind in ("bool", "nan", "inf", "-inf", "huge"):
            row[i] = {"bool": draw(st.booleans()), "nan": math.nan, "inf": math.inf, "-inf": -math.inf,
                      "huge": draw(st.sampled_from((10**400, -(10**400))))}[kind]
        elif kind == "duplicate":
            row[i] = row[draw(st.integers(0, n - 1).filter(lambda j: j != i))]
        elif kind == "swap":
            row[i - 1], row[i] = row[i], row[i - 1]
        elif kind == "between" and 0 < i < n - 1:  # fails the rise or the fall beside it, not both
            row[i] = (row[i - 1] + row[i + 1]) / 2
        elif kind == "drop":
            del row[-draw(st.integers(1, 2)):]
        elif kind == "append":
            row.append(draw(st.sampled_from(row) | st.integers(-50, 50)))
        specs.append((tuple(row), kind if kind in LIFTS and type(row[i]) is int else None, i))
    return specs


def _outcome(validate, rows):
    """What a validator gave: each wrap's type, values and value types, or the error's class, message and position."""
    try:
        out = validate(rows)
    except ValidationError as exc:
        return type(exc), str(exc), exc.position
    assert all(s.values is row for s, row in zip(out, rows))
    return [(type(s), s.values, tuple(map(type, s.values))) for s in out]


@settings(deadline=None, max_examples=300)
@given(row_batches())
@example([])
@example([VALID3] * 3 + [((1.5, 10**400, 2.5), None, 0)])  # the OverflowError path, accepted by the diagnosis
@example([VALID3] * 3 + [((1, 7, 2), "Exact", 1), ((1, 7, 2), "Counted", 0)])
@example([VALID3] * 3 + [((1, 7, 2, 6, 3), None, 0)])  # unequal lengths: the columns stop at the shortest row
@example([VALID3] * 3 + [((1, 7, 2, 7, 2), None, 0)])  # ... and past them, three distinct values in five
@example([((1, 7, 2, 6), None, 0)] * 4)
@example([VALID3] * 3 + [((0, True, 0.5), None, 0)])  # a bool that alternates
@example([VALID5] * 3 + [((1, 7, 2, 7, 1), None, 0)])  # repeats that alternate
@example([VALID5] * 3 + [((1, 7, 6.5, 6, 3), None, 0)])  # one rise fails, every fall holds
@example([VALID5] * 3 + [((1, 5, 6, 9, 2), None, 0)])  # one fall fails, every rise holds
@example([((1.5, 10**400, 2.5), None, 0)])  # batches of 1 to 3 rows take the column check too
@example([VALID3, ((1.5, 10**400, 2.5), None, 0)])
@example([VALID3] * 2 + [((1.5, 10**400, 2.5), None, 0)])
@example([((0, True, 0.5), None, 0)])
@example([VALID3, ((0, True, 0.5), None, 0)])
@example([VALID3] * 2 + [((0, True, 0.5), None, 0)])
@example([((1, 7, 6.5, 6, 3), None, 0)])
@example([VALID5, ((1, 7, 6.5, 6, 3), None, 0)])
@example([VALID5] * 2 + [((1, 7, 6.5, 6, 3), None, 0)])
@example([((1, 5, 6, 9, 2), None, 0)])
@example([VALID5, ((1, 5, 6, 9, 2), None, 0)])
@example([VALID5] * 2 + [((1, 5, 6, 9, 2), None, 0)])
@example([((1,), None, 0), ((2,), None, 0)] * 2)
def test_validate_rows_is_validate_critical_sequence_on_each_row(specs):
    rows = [row if lift is None else (*row[:i], LIFTS[lift](row[i]), *row[i + 1:]) for row, lift, i in specs]
    expected = _outcome(lambda rs: list(map(validate_critical_sequence, rs)), rows)
    assert _outcome(lambda rs: _validate_rows(rs, tuple(zip(*rs))), rows) == expected


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
    assert [(j, bar.birth, bar.death) for j, bar in enumerate(b.bars, 1)] == [
        (1, 1, math.inf),
        (2, 2, 7),
        (3, 3, 6),
        (4, 4, 5),
    ]
    assert b.N == 4
    assert b.bars[0].birth == 1


def test_barcode_order_insensitive():
    import itertools

    bars = [(1, None), (2, 7), (3, 6), (4, 5)]
    reference = validate_barcode(bars)
    for perm in itertools.permutations(bars):
        assert validate_barcode(perm) == reference


def test_barcode_requires_one_infinite_bar():
    with pytest.raises(NoInfiniteBar):
        validate_barcode([(2, 7)])
    with pytest.raises(NoInfiniteBar):
        Barcode((Interval(0, 9), Interval(1, 5), Interval(2, 5)))  # built by hand, validated all the same
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


Births = IntEnum("Births", [("LOW", 1), ("MID", 2), ("TOP", 3)])  # module level, so pickle finds it


@pytest.mark.parametrize(
    "bars",
    [
        [(1, None), (2, 7), (3.5, 6)],
        [Interval(1, math.inf), Interval(2.5, 7.0), Interval(3, 6)],
        [[1, None], [2, 7], [3.5, 6]],  # lists take the per-bar diagnosis
        list(zip(Births, (None, 7, 6))),  # and so do int subclasses
        [(1.5, None), (10**400, 10**401)],  # a huge int next to a float
    ],
    ids=["tuples", "intervals", "lists", "int-enum", "huge-int"],
)
def test_accepted_bars_keep_the_dataclass_contract(bars):
    b = validate_barcode(bars)
    assert [f.name for f in dataclasses.fields(Interval)] == ["birth", "death"]
    for bar in b.bars:
        reference = Interval(bar.birth, bar.death)
        assert type(bar) is Interval and not hasattr(bar, "__dict__")
        assert bar == reference and hash(bar) == hash(reference) and repr(bar) == repr(reference)
        with pytest.raises(FrozenInstanceError):
            bar.birth = 0
    for back in (pickle.loads(pickle.dumps(b)), copy.deepcopy(b), dataclasses.replace(b)):
        assert back == b and back is not b and hash(back) == hash(b)
        assert [(type(x.birth), type(x.death)) for x in back.bars] == [(type(x.birth), type(x.death)) for x in b.bars]
    # Built by hand, a barcode must carry exactly the bars validate_barcode gives, in its order.
    with pytest.raises(InvalidDocument):
        Barcode(b.bars[::-1])
    assert Barcode(tuple(Interval(bar.birth, bar.death) for bar in b.bars)) == b


SMALL_TREES = [
    MergeTree(7, (MergeTree(2), MergeTree(3.5, (MergeTree(1), MergeTree(3))))),
    ChiralMergeTree(7, leaf(2), ChiralMergeTree(3.5, leaf(1), leaf(3))),
]


@pytest.mark.parametrize("tree", SMALL_TREES, ids=["unordered", "chiral"])
def test_tree_vertices_keep_the_dataclass_contract(tree):
    assert all(not hasattr(v, "__dict__") for v in tree.vertices())
    with pytest.raises(FrozenInstanceError):
        tree.height = 0
    for back in (pickle.loads(pickle.dumps(tree)), copy.deepcopy(tree), dataclasses.replace(tree)):
        assert back == tree and back is not tree and hash(back) == hash(tree) and repr(back) == repr(tree)
        assert [type(v.height) for v in back.vertices()] == [type(v.height) for v in tree.vertices()]
    assert dataclasses.replace(tree, height=8).height == 8
    with pytest.raises(InvalidTree, match=r"^child at height 3\.5 not strictly below parent 3$"):
        dataclasses.replace(tree, height=3)  # replace goes through the same checked __init__


def test_trees_build_from_keywords():
    assert MergeTree(height=3, children=()) == MergeTree(3)
    assert repr(MergeTree(height=3, children=())) == "MergeTree(height=3, children=())"
    assert MergeTree(height=7, children=(MergeTree(2), MergeTree(1))) == MergeTree(7, (MergeTree(2), MergeTree(1)))
    assert ChiralMergeTree(height=3) == ChiralMergeTree(3, None, None)
    assert ChiralMergeTree(height=7, right=leaf(1), left=leaf(2)) == ChiralMergeTree(7, leaf(2), leaf(1))
    with pytest.raises(TypeError):
        MergeTree(7, (), None)
    with pytest.raises(TypeError):
        ChiralMergeTree(height=7, children=())


def test_every_vertex_the_package_builds_runs_the_checks(monkeypatch):
    checked = []
    for cls in (MergeTree, ChiralMergeTree):
        original = cls.__post_init__
        monkeypatch.setattr(cls, "__post_init__", lambda v, _check=original: checked.append(v) or _check(v))
    # Once each: the sweep's leaves and the unordered copy neither skip the check nor build spare vertices.
    # The k=2048 zigzag's chiral tree is a chain 2047 deep.
    zigzag = [v for i in range(2047) for v in (i, 2048 + i)] + [2047]
    built = []
    for values in ([3, 9, 1, 8, 2, 7, 0], zigzag):
        t = merge_tree_of_sequence(validate_critical_sequence(values))
        u = forget_chirality(t)
        back = tree_from_dict(tree_to_dict(u))
        built += [v for tree in (t, u, back) for v in tree.vertices()]
    assert len(built) == 3 * (7 + 4095)
    assert len(checked) == len(built) and {id(v) for v in checked} == {id(v) for v in built}


# --- canonical forms and isomorphism


def test_canonical_form_single_leaf():
    assert canonical_form(MergeTree(5)) == "(5)"
    assert canonical_form(leaf(5)) == "(5)"
    assert canonical_form(leaf(5.0)) == "(5)"


def test_canonical_form_sorts_unordered_children():
    a = MergeTree(7, (MergeTree(2), MergeTree(1)))
    b = MergeTree(7, (MergeTree(1), MergeTree(2)))
    assert canonical_form(a) == canonical_form(b) == "(7 (1) (2))"


def test_canonical_form_keeps_chirality():
    a = ChiralMergeTree(7, leaf(1), leaf(2))
    b = ChiralMergeTree(7, leaf(2), leaf(1))
    assert canonical_form(a) == "(7 (1) (2))"
    assert canonical_form(b) == "(7 (2) (1))"


def test_heights_past_the_int_digit_limit_encode_in_hex():
    # repr refuses ints past 4,300 digits by default; no float equals one, so hex keeps equal heights on one token.
    big = 10**5000
    b = validate_barcode([(0, None), (1, big), (2, big - 1)])
    cmts, mts = enumerate_cmts(b), enumerate_merge_trees(b)
    assert (len(cmts), len(enumerate_functions(b)), len(mts)) == (8, 8, 2)
    h, g = hex(big), hex(big - 1)
    assert sorted(map(canonical_form, mts)) == [f"({h} (0) ({g} (1) (2)))", f"({h} (1) ({g} (0) (2)))"]
    assert to_dot(cmts[0]).count(f'[label="{hex(big)}"]') == 1
    assert verify(b)["all_equal"] is True


def test_tree_construction_guards():
    # Positional and keyword construction share one checked __init__, with these exact messages.
    cases = [
        (lambda: MergeTree(5, (MergeTree(1),)), "a merge tree vertex has 0 or 2 children, got 1"),
        (lambda: MergeTree(height=5, children=(MergeTree(1), MergeTree(2), MergeTree(3))),
         "a merge tree vertex has 0 or 2 children, got 3"),
        (lambda: MergeTree(5, (MergeTree(6), MergeTree(1))), "child at height 6 not strictly below parent 5"),
        (lambda: MergeTree(5, (MergeTree(1), MergeTree(5.0))), "child at height 5.0 not strictly below parent 5"),
        (lambda: ChiralMergeTree(5, leaf(1), None), "a chiral vertex has both children or neither"),
        (lambda: ChiralMergeTree(5, right=leaf(1)), "a chiral vertex has both children or neither"),
        (lambda: ChiralMergeTree(5, leaf(5), leaf(1)), "child at height 5 not strictly below parent 5"),
        (lambda: ChiralMergeTree(height=5, left=leaf(1), right=leaf(9)), "child at height 9 not strictly below parent 5"),
    ]
    for build, message in cases:
        with pytest.raises(InvalidTree) as err:
            build()
        assert str(err.value) == message


# --- JSON documents


def test_sequence_document_round_trip():
    s = validate_critical_sequence([1.0, 7.0, 2.0])
    assert sequence_from_dict({"critical_values": list(s.values)}) == s
    assert sequence_from_dict({"critical_values": [1, 7, 2]}).values == (1, 7, 2)


def test_sequence_document_reads_breakpoints():
    # The graph reconstruct writes reduces to its critical values, non-extremal points dropped.
    doc = {"breakpoints": [[0, 1], [0.25, 4], [0.5, 7], [1, 2]]}
    assert sequence_from_dict(doc).values == (1, 7, 2)
    with pytest.raises(Plateau):
        sequence_from_dict({"breakpoints": [[0, 1], [0.5, 7], [0.75, 7], [1, 2]]})
    with pytest.raises(InvalidDocument, match='^"breakpoints" must be an array$'):
        sequence_from_dict({"breakpoints": {"x": 0}})


def test_sequence_document_shape_errors():
    both = '^expected an object with the single key "critical_values" or "breakpoints"$'
    with pytest.raises(InvalidDocument, match=both):
        sequence_from_dict([1, 7, 2])
    with pytest.raises(InvalidDocument, match=both):
        sequence_from_dict({"values": [1, 7, 2]})
    with pytest.raises(InvalidDocument, match=both):
        sequence_from_dict({"critical_values": [1, 7, 2], "breakpoints": [[0, 1], [0.5, 7], [1, 2]]})
    with pytest.raises(InvalidDocument, match='^"critical_values" must be an array$'):
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
    assert canonical_form(back) == canonical_form(unordered)


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


@pytest.mark.parametrize("call, error, message", [
    (lambda: reduce_breakpoints([(0, 1), 5, (1, 2)]), InvalidDocument, "breakpoint 2 is not an (x, y) pair"),
    (lambda: canonical_form((7, 1, 2)), KindMismatch, "not a merge tree: (7, 1, 2)"),
    (lambda: barcode_from_dict({"bar": []}), InvalidDocument, 'expected an object with the single key "bars"'),
    (lambda: barcode_from_dict({"bars": {"birth": 1}}), InvalidDocument, '"bars" must be an array'),
    (lambda: tree_to_dict({"height": 7}), KindMismatch, "not a merge tree: {'height': 7}"),
    (lambda: tree_from_dict({"height": 7, "children": {"height": 1}}), InvalidDocument,
     '"children" must be an array'),
    (lambda: to_dot([7, 1, 2]), KindMismatch, "not a merge tree: [7, 1, 2]"),
    (lambda: validate_barcode([(1, None), (2, math.nan)]), InvalidDocument, "bar 2 death must not be NaN"),
], ids=["breakpoint-not-a-pair", "canonical-form-of-non-tree", "barcode-document-key", "bars-not-an-array",
        "tree-to-dict-of-non-tree", "children-not-an-array", "to-dot-of-non-tree", "nan-death"])
def test_refusals_name_their_class_and_message(call, error, message):
    with pytest.raises(ValidationError) as err:
        call()
    assert (type(err.value), str(err.value)) == (error, message)
