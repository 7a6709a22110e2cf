import random

import pytest

import persfiber.oracle as oracle
from persfiber import (
    CardinalityMismatch,
    DuplicateValue,
    ScaleCapExceeded,
    enumerate_functions,
    validate_barcode,
    verify,
)
from persfiber.oracle import all_functions, brute_fiber

NESTED = validate_barcode([(1, None), (2, 7), (3, 6), (4, 5)])
TWO = validate_barcode([(1, None), (2, 7)])
THREE = validate_barcode([(1, None), (2, 7), (3, 6)])


def nested(n):
    return validate_barcode([(0, None)] + [(i, 2 * n - i) for i in range(1, n)])


def random_barcode(rng, n):
    vals = rng.sample(range(1, 400), 2 * (n - 1))
    bars = [(0, None)]
    for i in range(n - 1):
        a, b = vals[2 * i], vals[2 * i + 1]
        bars.append((min(a, b), max(a, b)))
    return validate_barcode(bars, distinct_births=True)


# --- all_functions


def test_all_functions_tiny():
    fns = all_functions({1, 2}, {7})
    assert [f.values for f in fns] == [(1, 7, 2), (2, 7, 1)]


def test_all_functions_count():
    # four minima below three maxima: every interleaving alternates
    assert len(all_functions({1, 2, 3, 4}, {5, 6, 7})) == 144


def test_all_functions_can_be_empty():
    # 3 cannot top its neighbor 5
    assert all_functions({1, 5}, {3}) == []


def test_all_functions_is_sorted_and_distinct():
    fns = all_functions({1, 2, 3}, {4, 9})
    values = [f.values for f in fns]
    assert values == sorted(values)
    assert len(set(values)) == len(values)


def test_all_functions_cardinality_check():
    with pytest.raises(CardinalityMismatch):
        all_functions({1, 2}, {5, 6})
    with pytest.raises(CardinalityMismatch):
        all_functions({1}, set())


def test_all_functions_scale_cap():
    with pytest.raises(ScaleCapExceeded):
        all_functions(range(1, 8), range(8, 14))


def test_all_functions_rejects_shared_values():
    with pytest.raises(DuplicateValue):
        all_functions({1, 2}, {2})


# --- brute_fiber


def test_brute_fiber_sizes():
    assert len(brute_fiber(TWO)) == 2
    assert len(brute_fiber(THREE)) == 8
    assert len(brute_fiber(NESTED)) == 48


def test_brute_fiber_matches_plan_enumeration():
    for b in (TWO, THREE, NESTED):
        assert brute_fiber(b) == enumerate_functions(b)


def test_brute_fiber_members_are_actual_preimages():
    from persfiber import barcode_of_sequence

    for f in brute_fiber(THREE):
        assert barcode_of_sequence(f)[0] == THREE


# --- verify


def test_verify_nested_report():
    assert verify(NESTED) == {
        "formula_cmt_count": 48,
        "enumerated_cmt_count": 48,
        "brute_count": 48,
        "formula_mt_count": 6,
        "enumerated_mt_count": 6,
        "dedup_mt_from_cmts": 6,
        "all_equal": True,
        "partition_check": True,
    }


def test_verify_two_bar_report():
    assert verify(TWO) == {
        "formula_cmt_count": 2,
        "enumerated_cmt_count": 2,
        "brute_count": 2,
        "formula_mt_count": 1,
        "enumerated_mt_count": 1,
        "dedup_mt_from_cmts": 1,
        "all_equal": True,
        "partition_check": True,
    }


def test_verify_random_barcodes():
    rng = random.Random(91)
    for n in (2, 3, 4, 5):
        report = verify(random_barcode(rng, n))
        assert report["all_equal"], report
        assert report["partition_check"], report


def test_verify_needs_distinct_births():
    with pytest.raises(DuplicateValue):
        verify(validate_barcode([(1, None), (2, 7), (2, 6)]))


def test_verify_nested_five_bars():
    report = verify(nested(5))
    assert report["brute_count"] == 16 * 24
    assert report["all_equal"] and report["partition_check"], report


def test_verify_generates_the_candidates_once(monkeypatch):
    calls = []
    original = oracle.all_functions

    def counting(minima, maxima):
        calls.append(1)
        return original(minima, maxima)

    monkeypatch.setattr(oracle, "all_functions", counting)
    assert verify(NESTED)["partition_check"]
    assert len(calls) == 1


def test_partition_check_fails_when_a_fiber_size_is_off(monkeypatch):
    # {[1, inf), [2, 6), [3, 7)} arises from THREE's values, e.g. as 3 7 1 6 2
    other = validate_barcode([(1, None), (2, 6), (3, 7)])
    seen = []
    original = oracle.fiber.count_cmts

    def off_by_one(b):
        seen.append(b)
        return original(b) + (b == other)

    monkeypatch.setattr(oracle.fiber, "count_cmts", off_by_one)
    report = verify(THREE)
    assert other in seen
    assert report["all_equal"]
    assert report["partition_check"] is False


def test_verify_refuses_before_building_trees(monkeypatch):
    def fail(b):
        raise AssertionError("verify built trees before refusing")

    monkeypatch.setattr(oracle.fiber, "enumerate_cmts", fail)
    monkeypatch.setattr(oracle.fiber, "enumerate_merge_trees", fail)
    with pytest.raises(ScaleCapExceeded):
        verify(nested(7))
