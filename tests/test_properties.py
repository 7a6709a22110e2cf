"""Property tests: the one-pass choice counts, the sweep, the enumerators and the validator against their references."""
import math
from enum import IntEnum

from hypothesis import given, settings
from hypothesis import strategies as st

from persfiber import (
    barcode_of_sequence,
    cmt_to_sequence,
    count_merge_trees,
    elder_rule,
    enumerate_cmts,
    enumerate_functions,
    forget_chirality,
    merge_tree_of_sequence,
    validate_barcode,
    validate_critical_sequence,
)
from persfiber.core import (
    CriticalSequence,
    DuplicateValue,
    EvenLength,
    NotAlternating,
    TooShort,
    _require_height,
)
from persfiber.fiber import _choice_counts, containment_poset
from persfiber.oracle import brute_fiber

heights = st.one_of(st.integers(-30, 30), st.floats(-30, 30, allow_nan=False))


@st.composite
def barcodes(draw):
    """Generic barcodes, and non-generic ones with tied deaths and identical bars."""
    if draw(st.booleans()):
        deaths = st.one_of(st.integers(1, 12), st.just(math.inf))
        pairs = draw(st.lists(st.tuples(st.integers(0, 10), deaths), min_size=1, max_size=14))
        return validate_barcode([(b, d) for b, d in pairs if b < d] or [(0, None)], generic=False)
    births = draw(st.lists(st.integers(1, 20), max_size=12))
    deaths = draw(st.lists(st.integers(21, 40), min_size=len(births), max_size=len(births), unique=True))
    return validate_barcode([(0, None)] + list(zip(births, deaths)))


def _wiggle(values):
    """One pass of wiggle sort on distinct values: even indices become local minima."""
    for i in range(len(values) - 1):
        if (i % 2 == 0) == (values[i] > values[i + 1]):
            values[i], values[i + 1] = values[i + 1], values[i]
    return values


@st.composite
def sequences(draw, max_size=41):
    """Alternating critical sequences with ints and floats mixed."""
    values = draw(st.lists(heights, min_size=3, max_size=max_size, unique=True))
    return validate_critical_sequence(_wiggle(values[: len(values) - 1 + len(values) % 2]))


def containing_set(b, j):
    """Reference: indices of the bars strictly containing bar j, by definition."""
    return {k.index for k in b.bars if k.strictly_contains(j)}


@settings(deadline=None)
@given(barcodes())
def test_one_pass_mu_matches_containing_set(b):
    expected = [containing_set(b, j) for j in b.bars]
    assert _choice_counts(b) == [len(ks) for ks in expected]
    assert containment_poset(b).relation == {(j, k) for j, ks in enumerate(expected, 1) for k in ks}
    assert count_merge_trees(b) == math.prod(len(ks) for ks in expected[1:])


@settings(deadline=None)
@given(sequences())
def test_sweep_barcode_is_elder_rule_of_merge_tree(f):
    barcode, _ = barcode_of_sequence(f)
    assert elder_rule(forget_chirality(merge_tree_of_sequence(f)))[0] == barcode


@settings(deadline=None)
@given(sequences())
def test_merge_tree_round_trip_and_leaf_to_bar(f):
    assert cmt_to_sequence(merge_tree_of_sequence(f)) == f
    barcode, leaf_to_bar = barcode_of_sequence(f)
    assert sorted(leaf_to_bar) == list(range(1, len(f) + 1, 2))
    for pos, index in leaf_to_bar.items():
        assert barcode.bars[index - 1].birth == f.values[pos - 1]


# A barcode swept from a sequence is realizable by a function; 11 values are N = 6 bars.
@settings(deadline=None)
@given(sequences(max_size=11))
def test_enumerate_functions_is_in_order_of_every_chiral_tree(f):
    b, _ = barcode_of_sequence(f)
    functions = enumerate_functions(b)
    assert functions == sorted((cmt_to_sequence(t) for t in enumerate_cmts(b)), key=lambda s: s.values)
    assert f in functions
    assert all(barcode_of_sequence(g)[0] == b for g in functions)


@settings(deadline=None)
@given(sequences(max_size=9))
def test_enumerate_functions_matches_brute_force(f):
    b, _ = barcode_of_sequence(f)
    assert brute_fiber(b) == enumerate_functions(b)


def _reference_validate(values):
    """The per-value validator that the bulk checks replaced, kept as the reference."""
    vals = tuple(values)
    for i, v in enumerate(vals, 1):
        _require_height(v, where="critical value", position=i)
    n = len(vals)
    if n % 2 == 0:
        raise EvenLength(f"need an odd number of critical values, got {n}")
    if n < 3:
        raise TooShort(f"need at least 3 critical values, got {n}")
    first_at = {}
    for i, v in enumerate(vals, 1):
        if v in first_at:
            raise DuplicateValue(
                f"value {v!r} at position {i} repeats position {first_at[v]}", position=i
            )
        first_at[v] = i
    for i in range(2, n + 1):
        prev, cur = vals[i - 2], vals[i - 1]
        if i % 2 == 0 and not prev < cur:
            raise NotAlternating(f"position {i} is not a local maximum", position=i)
        if i % 2 == 1 and not prev > cur:
            raise NotAlternating(f"position {i} is not a local minimum", position=i)
    return CriticalSequence(vals)


Level = IntEnum("Level", [("LOW", -3), ("HIGH", 40)])
ODD_VALUES = [
    True, False, math.nan, math.inf, -math.inf, "7", None, 10**400, -(10**400),
    7, 7.0, 0, -0.0, 0.0, Level.LOW, Level.HIGH,
]


@st.composite
def near_critical_values(draw):
    """Wiggle-sorted distinct int/float lists, mostly of odd length, then a few entries spoiled.

    A spoil puts an odd value at a position (bool, NaN, an infinity, str,
    None, an int too large for a float, an IntEnum), copies another entry's
    value as an equal int or float, or swaps two neighbours.
    """
    values = draw(st.lists(heights, max_size=13, unique=True))
    if draw(st.booleans()):
        values = values[: len(values) - 1 + len(values) % 2]
    _wiggle(values)
    for _ in range(draw(st.integers(0, 3)) if values else 0):
        i = draw(st.integers(0, len(values) - 1))
        j = draw(st.integers(0, len(values) - 1))
        kind = draw(st.sampled_from(["odd", "equal", "swap"]))
        if kind == "odd":
            values[i] = draw(st.sampled_from(ODD_VALUES))
        elif kind == "equal" and type(values[j]) is int and abs(values[j]) < 2**53:
            values[i] = float(values[j])
        elif kind == "equal" and type(values[j]) is float and math.isfinite(values[j]):
            values[i] = int(values[j]) if values[j].is_integer() else values[j]
        elif kind == "swap" and i + 1 < len(values):
            values[i], values[i + 1] = values[i + 1], values[i]
    return values


def _outcome(validate, values):
    try:
        s = validate(values)
    except Exception as e:
        return type(e), str(e), getattr(e, "position", None)
    return [(type(v), v) for v in s.values]


@settings(deadline=None, max_examples=500)
@given(near_critical_values())
def test_bulk_validator_matches_reference(values):
    assert _outcome(validate_critical_sequence, values) == _outcome(_reference_validate, values)
