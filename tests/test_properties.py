"""Property tests: the one-pass choice counts, the sweep and the enumerators against their references."""
import math

from hypothesis import given, settings
from hypothesis import strategies as st

from persfiber import (
    barcode_of_sequence,
    brute_fiber,
    cmt_to_sequence,
    containing_set,
    count_merge_trees,
    elder_rule,
    enumerate_cmts,
    enumerate_functions,
    forget_chirality,
    merge_tree_of_sequence,
    mu,
    validate_barcode,
    validate_critical_sequence,
)

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


@st.composite
def sequences(draw, max_size=41):
    """Alternating critical sequences with ints and floats mixed."""
    values = draw(st.lists(heights, min_size=3, max_size=max_size, unique=True))
    values = values[: len(values) - 1 + len(values) % 2]
    # One pass of wiggle sort: even indices become local minima.
    for i in range(len(values) - 1):
        if (i % 2 == 0) == (values[i] > values[i + 1]):
            values[i], values[i + 1] = values[i + 1], values[i]
    return validate_critical_sequence(values)


@settings(deadline=None)
@given(barcodes())
def test_one_pass_mu_matches_containing_set(b):
    expected = [len(containing_set(b, j)) for j in range(2, b.N + 1)]
    assert [mu(b, j) for j in range(2, b.N + 1)] == expected
    assert count_merge_trees(b) == math.prod(expected)


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
