import dataclasses
import math
import pickle
import random
import sys

import pytest

from persfiber import fiber
from persfiber import (
    DegenerateBarcode,
    DuplicateBirth,
    DuplicateDeath,
    DuplicateValue,
    InvalidPlan,
    NoInfiniteBar,
    count_cmts,
    count_merge_trees,
    elder_rule,
    enumerate_cmts,
    enumerate_functions,
    enumerate_merge_trees,
    forget_chirality,
    validate_barcode,
    validate_critical_sequence,
)
from persfiber.core import ChiralMergeTree, MergeTree, canonical_form
from persfiber.fiber import (
    AttachmentPlan,
    _product,
    attachment_plans,
    check_function_realizable,
    containers,
    materialize,
    same_stratum,
)

NESTED = validate_barcode([(1, None), (2, 7), (3, 6), (4, 5)])
TWO = validate_barcode([(1, None), (2, 7)])
THREE = validate_barcode([(1, None), (2, 7), (3, 6)])
LONE = validate_barcode([(4, None)])


def canon(trees):
    return [canonical_form(t) for t in trees]


def random_barcode(rng, n):
    vals = rng.sample(range(1, 400), 2 * (n - 1))
    bars = [(0, None)]
    for i in range(n - 1):
        a, b = vals[2 * i], vals[2 * i + 1]
        bars.append((min(a, b), max(a, b)))
    return validate_barcode(bars, distinct_births=True)


# --- choice counts


def test_containing_sets_of_nested_barcode():
    assert containers(NESTED) == [[], [1], [1, 2], [1, 2, 3]]
    assert containers(validate_barcode([(1, None), (5, 7), (2, 4)])) == [[], [1], [1]]


def test_counts_of_nested_barcode():
    assert fiber._mu_pass(NESTED) == [0, 1, 2, 3]
    assert count_merge_trees(NESTED) == 6
    assert count_cmts(NESTED) == 48


def test_the_product_tree_equals_math_prod():
    rng = random.Random(17)
    lists = [[], [7], [0, 5], [3, 1 << 200, 5]]
    lists += [[rng.randint(0, 10 ** rng.randint(1, 30)) for _ in range(rng.randint(0, 300))] for _ in range(200)]
    for factors in lists:
        assert _product(list(factors)) == math.prod(factors)


def test_counts_of_small_barcodes():
    assert (count_merge_trees(LONE), count_cmts(LONE)) == (1, 1)
    assert (count_merge_trees(TWO), count_cmts(TWO)) == (1, 2)
    assert (count_merge_trees(THREE), count_cmts(THREE)) == (2, 8)


# --- plans


def test_plan_order_is_deterministic():
    plans = attachment_plans(NESTED, chiral=False)
    assert len(plans) == 6
    assert plans[0] == AttachmentPlan((1, 1, 1))
    assert plans[-1] == AttachmentPlan((1, 2, 3))
    assert not plans[0].chiral

    chiral = attachment_plans(NESTED, chiral=True)
    assert len(chiral) == 48
    assert chiral[0] == AttachmentPlan((1, 1, 1), ("L", "L", "L"))
    assert chiral[1] == AttachmentPlan((1, 1, 1), ("L", "L", "R"))
    assert chiral[-1] == AttachmentPlan((1, 2, 3), ("R", "R", "R"))
    assert chiral[0].chiral


def test_materialize_single_bar():
    assert materialize(LONE, AttachmentPlan(())) == MergeTree(4)
    assert materialize(LONE, AttachmentPlan((), ())) == ChiralMergeTree(4)


def test_every_plan_realizes_its_barcode():
    for plan in attachment_plans(NESTED, chiral=False):
        tree = materialize(NESTED, plan)
        barcode, _ = elder_rule(tree)
        assert barcode == NESTED
    for plan in attachment_plans(NESTED, chiral=True):
        assert elder_rule(forget_chirality(materialize(NESTED, plan)))[0] == NESTED


# --- enumeration


@pytest.mark.parametrize(
    "plan, message, position",
    [
        # bar 4 = [4, 5) cannot carry bar 3 = [3, 6)
        (AttachmentPlan((1, 4, 1)), "parent 4 of bar 3 does not strictly contain it", 3),
        (AttachmentPlan((0, 1, 1)), "parent 0 of bar 2 does not strictly contain it", 2),
        (AttachmentPlan((1, 1, 5)), "parent 5 of bar 4 does not strictly contain it", 4),
        (AttachmentPlan((1, 1)), "a plan for 4 bars needs 3 parents, got 2", None),
        (AttachmentPlan((1, 2, 3), ("L", "X", "R")), "side of bar 3 must be 'L' or 'R', got 'X'", 3),
        (AttachmentPlan((1, 2, 3), ("L", "R")), "got 2 sides for 3 parents", None),
        (AttachmentPlan((1.0, 1, 1)), "parent 1.0 of bar 2 does not strictly contain it", 2),
        # a bool is an int, but not a bar index
        (AttachmentPlan((True, 1, 1)), "parent True of bar 2 does not strictly contain it", 2),
    ],
    ids=["parent-not-containing", "parent-0", "parent-5", "missing-bar", "unknown-side", "short-sides",
         "parent-float", "parent-bool"],
)
def test_materialize_rejects_a_malformed_plan(plan, message, position):
    with pytest.raises(InvalidPlan) as err:
        materialize(NESTED, plan)
    assert str(err.value) == message and err.value.position == position


def test_enumerate_merge_trees_two_bars():
    trees = enumerate_merge_trees(TWO)
    assert trees == [MergeTree(7, (MergeTree(1), MergeTree(2)))]


def test_enumerate_merge_trees_three_bars():
    assert canon(enumerate_merge_trees(THREE)) == [
        "(7 (1) (6 (2) (3)))",
        "(7 (2) (6 (1) (3)))",
    ]


def test_enumerate_cmts_two_bars():
    assert canon(enumerate_cmts(TWO)) == ["(7 (1) (2))", "(7 (2) (1))"]


def test_enumerate_lone_bar():
    assert enumerate_merge_trees(LONE) == [MergeTree(4)]
    assert enumerate_cmts(LONE) == [ChiralMergeTree(4)]


def test_enumerated_trees_are_pairwise_distinct():
    mts = enumerate_merge_trees(NESTED)
    cmts = enumerate_cmts(NESTED)
    assert len(mts) == 6
    assert len(cmts) == 48
    assert len(set(canon(mts))) == 6
    assert len(set(canon(cmts))) == 48


def nested(n):
    return validate_barcode([(0, None)] + [(i, 2 * n - i) for i in range(1, n)])


def test_a_barcode_outside_the_generic_hypotheses_is_refused_by_name():
    # No bar at all, no infinite bar, or tied deaths: validation refuses, so count and enumerate never see it.
    for bars in ([], [(0, 5), (1, 3), (6, 9)], [(0, 9), (1, 5), (2, 5)]):
        with pytest.raises(NoInfiniteBar):
            validate_barcode(bars)
    for bars in ([(0, None), (1, 5), (2, 5)], [(0, None), (1, 5), (1, 5)]):
        with pytest.raises(DuplicateDeath, match=r"^bars 2 and 3 share death 5$"):
            validate_barcode(bars)
    with pytest.raises(TypeError):
        validate_barcode([(0, 9), (1, 5), (2, 5)], generic=False)


def test_a_second_count_reuses_the_choice_counts(monkeypatch):
    passes = []
    original = fiber._mu_pass

    def counting(b):
        passes.append(b)
        return original(b)

    monkeypatch.setattr(fiber, "_mu_pass", counting)
    b = nested(6)
    assert (count_cmts(b), count_merge_trees(b), count_cmts(b)) == (3840, 120, 3840)
    assert passes == [b]
    twin = nested(6)  # equal, but another object: it runs its own pass
    assert count_merge_trees(twin) == 120 and len(passes) == 2 and passes[1] is twin


def test_a_counted_barcode_keeps_its_dataclass_contract():
    counted, fresh = nested(5), nested(5)
    assert count_cmts(counted) == 384
    assert counted == fresh and hash(counted) == hash(fresh) and repr(counted) == repr(fresh)
    assert len({counted, fresh}) == 1 and dataclasses.asdict(counted) == dataclasses.asdict(fresh)
    for b in (counted, fresh):
        back = pickle.loads(pickle.dumps(b))
        assert back == fresh and hash(back) == hash(fresh) and repr(back) == repr(fresh)
        assert (count_cmts(back), count_merge_trees(back)) == (384, 24)


@pytest.mark.parametrize("enumerate_trees", [enumerate_cmts, enumerate_merge_trees])
def test_enumerators_build_each_distinct_subtree_once(enumerate_trees):
    trees = enumerate_trees(nested(6))
    vertices = {id(v): v for t in trees for v in t.vertices()}
    assert len(vertices) == len({canonical_form(v) for v in vertices.values()})


def test_enumeration_is_sound():
    for t in enumerate_cmts(NESTED):
        assert elder_rule(forget_chirality(t))[0] == NESTED
    for t in enumerate_merge_trees(NESTED):
        assert elder_rule(t)[0] == NESTED


def test_enumerate_functions_two_bars():
    fns = enumerate_functions(TWO)
    assert [f.values for f in fns] == [(1, 7, 2), (2, 7, 1)]


def test_enumerate_functions_nested():
    fns = enumerate_functions(NESTED)
    assert len(fns) == 48
    assert fns[0].values == (1, 5, 4, 6, 3, 7, 2)
    assert fns[-1].values == (4, 5, 3, 6, 2, 7, 1)
    assert len({f.values for f in fns}) == 48


def test_enumerate_functions_is_valid_by_construction(monkeypatch):
    b = validate_barcode([(1, None), (2, 9), (3, 8), (4, 7), (5, 6)])
    expected = enumerate_functions(b)
    calls = []

    def counting(values):
        calls.append(values)
        return validate_critical_sequence(values)

    # rebind every module-level name of the validator, wherever it was imported
    for module in [m for key, m in sys.modules.items() if key.split(".")[0] == "persfiber"]:
        for attr, value in list(vars(module).items()):
            if value is validate_critical_sequence:
                monkeypatch.setattr(module, attr, counting)
    fns = enumerate_functions(b)
    assert calls == []
    assert fns == expected
    assert [f.values for f in fns] == sorted(f.values for f in fns)
    assert len(fns) == count_cmts(b) == 384
    monkeypatch.undo()
    assert all(f == validate_critical_sequence(f.values) for f in fns)


def test_enumerate_functions_needs_two_minima():
    with pytest.raises(DegenerateBarcode):
        enumerate_functions(LONE)


def test_enumerate_functions_needs_distinct_births():
    with pytest.raises(DuplicateBirth):
        enumerate_functions(validate_barcode([(1, None), (2, 7), (2, 6)]))


def test_the_realizability_gate_revalidates_only_tied_births(monkeypatch):
    calls = []
    original = fiber.validate_barcode

    def counting(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(fiber, "validate_barcode", counting)
    for b in (TWO, THREE, NESTED, validate_barcode([(1, None), (5, 8), (2, 6)])):
        check_function_realizable(b)
    assert calls == []
    with pytest.raises(DuplicateBirth, match=r"^bars 3 and 4 share birth 2$"):
        check_function_realizable(validate_barcode([(1, None), (3, 9), (2, 7), (2, 6)]))
    assert len(calls) == 1


def test_enumerate_functions_rejects_birth_death_collision():
    # [2, 5) dies exactly where [5, 8) is born; no function with pairwise
    # distinct critical values can carry both
    b = validate_barcode([(1, None), (5, 8), (2, 5)], distinct_births=True)
    with pytest.raises(DuplicateValue):
        enumerate_functions(b)


def test_six_bar_enumeration_matches_formula():
    b = validate_barcode(
        [(0, None), (1, 20), (2, 10), (3, 9), (11, 19), (12, 18)],
        distinct_births=True,
    )
    assert count_merge_trees(b) == 36
    assert count_cmts(b) == 1152
    cmts = enumerate_cmts(b)
    assert len(cmts) == 1152
    assert len(set(canon(cmts))) == 1152
    assert elder_rule(forget_chirality(cmts[0]))[0] == b
    assert elder_rule(forget_chirality(cmts[-1]))[0] == b


# --- strata


def test_containment_poset_of_nested_barcode():
    c = containers(NESTED)
    assert len(c) == 4
    assert [(j, k) for j, ks in enumerate(c, 1) for k in ks] == [(2, 1), (3, 1), (3, 2), (4, 1), (4, 2), (4, 3)]
    assert 2 in c[4 - 1]
    assert 4 not in c[2 - 1]


def test_containment_poset_of_disjoint_bars():
    c = containers(validate_barcode([(1, None), (5, 7), (2, 4)]))
    assert len(c) == 3
    assert [(j, k) for j, ks in enumerate(c, 1) for k in ks] == [(2, 1), (3, 1)]


def test_containment_poset_of_lone_bar():
    assert containers(LONE) == [[]]


def test_mu_counts_the_strict_up_set():
    for b in (NESTED, TWO, THREE):
        c = containers(b)
        assert fiber._mu_pass(b) == [
            sum(k in c[j - 1] for k in range(1, b.N + 1)) for j in range(1, b.N + 1)
        ]


def test_same_stratum_ignores_heights():
    shifted = validate_barcode([(0, None), (1, 9), (2, 8), (3, 7)])
    assert same_stratum(NESTED, shifted)
    assert same_stratum(NESTED, NESTED)


def test_same_stratum_distinguishes_nesting_patterns():
    fan = validate_barcode([(1, None), (2, 4), (5, 7), (8, 9)])
    assert not same_stratum(NESTED, fan)
    assert not same_stratum(NESTED, TWO)


def test_same_stratum_implies_same_counts():
    rng = random.Random(23)
    pairs = [(random_barcode(rng, 4), random_barcode(rng, 4)) for _ in range(40)]
    hits = 0
    for b1, b2 in pairs:
        if same_stratum(b1, b2):
            hits += 1
            assert count_merge_trees(b1) == count_merge_trees(b2)
            assert count_cmts(b1) == count_cmts(b2)
    assert hits > 0


def test_rescaling_heights_keeps_the_stratum():
    scaled = validate_barcode([(10, None), (20, 70), (30, 60), (40, 50)])
    assert same_stratum(NESTED, scaled)
    assert count_cmts(scaled) == count_cmts(NESTED)
