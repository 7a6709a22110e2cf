import random
import sys

import pytest

import persfiber.core as core
import persfiber.oracle as oracle
from persfiber import (
    CardinalityMismatch,
    DuplicateBirth,
    DuplicateValue,
    NotAlternating,
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
    with pytest.raises(DuplicateBirth, match="^bars 2 and 3 share birth 2$"):
        verify(validate_barcode([(1, None), (2, 7), (2, 6)]))


def test_verify_nested_five_bars():
    report = verify(nested(5))
    assert report["brute_count"] == 16 * 24
    assert report["all_equal"] and report["partition_check"], report


def test_verify_generates_the_candidates_once(monkeypatch):
    calls = []
    original = oracle._by_order

    def counting(minima, maxima):
        calls.append(1)
        return original(minima, maxima)

    monkeypatch.setattr(oracle, "_by_order", counting)
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
    def fail(*args, **kwargs):
        raise AssertionError("verify built trees before refusing")

    monkeypatch.setattr(oracle.fiber, "_trees", fail)
    monkeypatch.setattr(oracle.fiber, "enumerate_cmts", fail)
    monkeypatch.setattr(oracle.fiber, "enumerate_merge_trees", fail)
    with pytest.raises(ScaleCapExceeded):
        verify(nested(7))


def test_verify_builds_one_barcode_per_fiber(monkeypatch):
    b = nested(5)
    candidates = len(all_functions(b.births, b.finite_deaths))
    fibers = len(oracle._fibers(b.births, b.finite_deaths))
    # Rows handed to _validate_rows plus sequences validated alone, which a batch's fallback adds again:
    # nested(5)'s orders of 120 candidates all pass the column path, so each candidate counts once.
    calls = {"_validate_rows": 0, "validate_critical_sequence": 0, "validate_barcode": 0}
    for name in calls:
        original = getattr(core, name)

        def counting(*args, _name=name, _original=original, **kwargs):
            calls[_name] += len(args[0]) if _name == "_validate_rows" else 1
            return _original(*args, **kwargs)

        # rebind every module-level name of the validator, wherever it was imported
        for module in [m for key, m in sys.modules.items() if key.split(".")[0] == "persfiber"]:
            for attr, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, attr, counting)
    assert verify(nested(5))["partition_check"]
    assert calls["_validate_rows"] + calls["validate_critical_sequence"] == candidates
    assert calls["validate_barcode"] <= fibers + 1  # plus the input, built by nested(5)


@pytest.mark.parametrize(
    "spoil, error",
    [
        (lambda v: (v[1], v[0]) + v[2:], NotAlternating),  # opens on a maximum
        (lambda v: v[:2] + (v[0],) + v[3:], DuplicateValue),  # repeats its first minimum
    ],
    ids=["not-alternating", "repeated-value"],
)
def test_verify_refuses_a_broken_candidate_as_the_validator_does(monkeypatch, spoil, error):
    original = oracle._by_order
    spoiled = []

    def broken(minima, maxima):
        for i, (px, raws) in enumerate(original(minima, maxima)):
            if i == 1:  # the second order gains one bad candidate, after its valid ones
                spoiled.append(spoil(raws[0]))
                raws = raws + spoiled
            yield px, raws

    monkeypatch.setattr(oracle, "_by_order", broken)
    with pytest.raises(error) as caught:
        verify(NESTED)
    with pytest.raises(error) as expected:
        core.validate_critical_sequence(spoiled[0])
    assert str(caught.value) == str(expected.value)
    assert caught.value.position == expected.value.position is not None


def _names(code):
    """Global and attribute names used by a function's code, nested code included."""
    names = set(code.co_names)
    for const in code.co_consts:
        if hasattr(const, "co_names"):
            names |= _names(const)
    return names


def test_brute_force_never_consults_plans_or_the_formula():
    for name in ("_by_order", "all_functions", "_births", "_fibers", "brute_fiber"):
        fn = getattr(oracle, name)
        assert "fiber" not in _names(fn.__code__), fn.__name__
        # the brute force pairs its candidates itself, not with the sweep the forward direction uses
        assert not {"_sweep", "_elder"} & _names(fn.__code__), fn.__name__
