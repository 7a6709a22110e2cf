import math
from itertools import combinations_with_replacement

import pytest

from persfiber import (
    BadPair,
    barcode_of_sequence,
    rank,
    validate_barcode,
    validate_critical_sequence,
)
from persfiber.core import reduce_breakpoints
from persfiber.oracle import all_functions


def seq(*values):
    return validate_critical_sequence(values)


def bars_of(f):
    b, _ = barcode_of_sequence(f)
    return [(bar.birth, None if bar.is_essential else bar.death) for bar in b.bars]


def small_corpus():
    for k in (2, 3, 4):
        yield from all_functions(range(1, k + 1), range(k + 1, 2 * k))


# --- sweep examples


def test_sweep_single_valley():
    assert bars_of(seq(1, 7, 2)) == [(1, None), (2, 7)]
    _, leaf_to_bar = barcode_of_sequence(seq(1, 7, 2))
    assert leaf_to_bar == {1: 1, 3: 2}


def test_sweep_elder_choice_is_by_birth_not_position():
    assert bars_of(seq(2, 7, 1)) == [(1, None), (2, 7)]
    _, leaf_to_bar = barcode_of_sequence(seq(2, 7, 1))
    assert leaf_to_bar == {1: 2, 3: 1}


def test_sweep_nested_valleys():
    f = seq(1, 7, 2, 6, 3, 5, 4)
    assert bars_of(f) == [(1, None), (2, 7), (3, 6), (4, 5)]
    _, leaf_to_bar = barcode_of_sequence(f)
    assert leaf_to_bar == {1: 1, 3: 2, 5: 3, 7: 4}


def test_sweep_mixed_nesting():
    # Minima 1 and 3 merge first (at 5), then 2 joins from the right (at 6),
    # then 4 (at 7); each merge kills the larger surviving birth.
    f = seq(1, 5, 3, 6, 2, 7, 4)
    assert bars_of(f) == [(1, None), (4, 7), (2, 6), (3, 5)]
    _, leaf_to_bar = barcode_of_sequence(f)
    assert leaf_to_bar == {1: 1, 3: 4, 5: 3, 7: 2}


def test_sweep_output_is_canonical():
    b, _ = barcode_of_sequence(seq(1, 5, 3, 6, 2, 7, 4))
    assert b == validate_barcode([(1, None), (4, 7), (2, 6), (3, 5)])


# --- sweep invariants


def test_births_are_minima_and_deaths_are_maxima():
    for f in small_corpus():
        b, leaf_to_bar = barcode_of_sequence(f)
        assert b.N == len(f.values[0::2])
        assert sorted(b.births) == sorted(f.values[0::2])
        assert sorted(b.finite_deaths) == sorted(f.values[1::2])
        assert sorted(leaf_to_bar) == list(range(1, 2 * len(f.values[0::2]), 2))
        assert sorted(leaf_to_bar.values()) == list(range(1, len(f.values[0::2]) + 1))


def test_global_min_owns_the_infinite_bar():
    for f in small_corpus():
        b, leaf_to_bar = barcode_of_sequence(f)
        assert b.bars[0].birth == min(f.values)
        pos = f.values.index(min(f.values)) + 1
        assert leaf_to_bar[pos] == 1


def test_sweep_is_reversal_invariant():
    for f in small_corpus():
        g = validate_critical_sequence(f.values[::-1])
        assert barcode_of_sequence(g)[0] == barcode_of_sequence(f)[0]


# --- rank


def test_rank_examples():
    f = seq(1, 7, 2)
    assert rank(f, 3, 8) == 1
    assert rank(f, 3, 5) == 2
    assert rank(f, 0, 0) == 0
    assert rank(f, 1, 6) == 1
    assert rank(f, 2, 6) == 2
    assert rank(f, 1, 1) == 1


def test_rank_rejects_bad_pairs():
    f = seq(1, 7, 2)
    with pytest.raises(BadPair):
        rank(f, 5, 3)
    with pytest.raises(BadPair):
        rank(f, float("nan"), 3)


def test_rank_is_monotone():
    f = seq(1, 5, 3, 6, 2, 7, 4)
    grid = [0.5 + i for i in range(8)]
    for r, t in combinations_with_replacement(grid, 2):
        assert rank(f, r, t) >= rank(f, r - 1, t)
        assert rank(f, r, t) >= rank(f, r, t + 1)


def test_rank_matches_bar_containment_count():
    # rank(f, r, t) counts the bars whose half-open interval covers [r, t].
    # Checked exhaustively for every arrangement of nine values, at all
    # height pairs off the critical grid.
    fns = all_functions(range(1, 6), range(6, 10))
    assert len(fns) == 2880
    levels = [0.5] + [v + 0.5 for v in range(1, 10)]
    pairs = list(combinations_with_replacement(levels, 2))
    for f in fns:
        b, _ = barcode_of_sequence(f)
        for r, t in pairs:
            expected = sum(1 for bar in b.bars if bar.birth <= r and t < bar.death)
            assert rank(f, r, t) == expected


def test_rank_at_critical_values_uses_closed_sublevels():
    f = seq(1, 7, 2)
    assert rank(f, 2, 7) == 1   # at level 7 the maximum itself joins
    assert rank(f, 2, 6.9) == 2
    assert rank(f, 1.9, 6.9) == 1


# --- graph equivalence: same function up to orientation-preserving
# reparametrization of [0, 1], i.e. equal critical values


def test_graph_equivalent_examples():
    assert seq(1, 7, 2).values == seq(1, 7, 2).values
    assert seq(1, 7, 2).values != seq(2, 7, 1).values
    a = reduce_breakpoints([(0, 1), (0.5, 7), (1, 2)])
    b = reduce_breakpoints([(0, 1), (0.25, 3), (0.5, 7), (1, 2)])
    assert a.values == b.values


def test_mirror_images_are_not_graph_equivalent():
    f = seq(1, 5, 3, 6, 2, 7, 4)
    g = validate_critical_sequence(f.values[::-1])
    assert f.values != g.values
    assert barcode_of_sequence(f)[0] == barcode_of_sequence(g)[0]


def test_rank_never_exceeds_infinity_rank():
    for f in small_corpus():
        top = max(f.values)
        assert rank(f, top, top) == 1
        assert rank(f, min(f.values), top) == 1
