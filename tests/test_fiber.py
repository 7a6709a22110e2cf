import random

import pytest

from persfiber import fiber
from persfiber import (
    DegenerateBarcode,
    DuplicateBirth,
    DuplicateValue,
    InvalidPlan,
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
    attachment_plans,
    containment_poset,
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
    assert fiber._containers(NESTED) == [[], [1], [1, 2], [1, 2, 3]]
    assert fiber._containers(validate_barcode([(1, None), (5, 7), (2, 4)])) == [[], [1], [1]]


def test_counts_of_nested_barcode():
    assert fiber._choice_counts(NESTED) == [0, 1, 2, 3]
    assert count_merge_trees(NESTED) == 6
    assert count_cmts(NESTED) == 48


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
    "plan",
    [
        AttachmentPlan((1, 4, 1)),  # bar 4 = [4, 5) cannot carry bar 3 = [3, 6)
        AttachmentPlan((0, 1, 1)),
        AttachmentPlan((1, 1, 5)),
        AttachmentPlan((1, 1)),
        AttachmentPlan((1, 2, 3), ("L", "X", "R")),
        AttachmentPlan((1, 2, 3), ("L", "R")),
    ],
    ids=["parent-not-containing", "parent-0", "parent-5", "missing-bar", "unknown-side", "short-sides"],
)
def test_materialize_rejects_a_malformed_plan(plan):
    with pytest.raises(InvalidPlan):
        materialize(NESTED, plan)


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


def test_enumerate_functions_validates_every_output(monkeypatch):
    b = validate_barcode([(1, None), (2, 9), (3, 8), (4, 7), (5, 6)])
    expected = enumerate_functions(b)
    calls = []

    def counting(values):
        calls.append(values)
        return validate_critical_sequence(values)

    monkeypatch.setattr(fiber, "validate_critical_sequence", counting)
    fns = enumerate_functions(b)
    assert len(calls) == count_cmts(b) == 384
    assert fns == expected
    assert [f.values for f in fns] == sorted(f.values for f in fns)


def test_enumerate_functions_needs_two_minima():
    with pytest.raises(DegenerateBarcode):
        enumerate_functions(LONE)


def test_enumerate_functions_needs_distinct_births():
    with pytest.raises(DuplicateBirth):
        enumerate_functions(validate_barcode([(1, None), (2, 7), (2, 6)]))


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
    p = containment_poset(NESTED)
    assert p.n == 4
    assert p.relation == frozenset(
        {(2, 1), (3, 1), (3, 2), (4, 1), (4, 2), (4, 3)}
    )
    assert p.less(4, 2)
    assert not p.less(2, 4)


def test_containment_poset_of_disjoint_bars():
    p = containment_poset(validate_barcode([(1, None), (5, 7), (2, 4)]))
    assert p.n == 3
    assert p.relation == frozenset({(2, 1), (3, 1)})


def test_containment_poset_of_lone_bar():
    p = containment_poset(LONE)
    assert (p.n, p.relation) == (1, frozenset())


def test_mu_counts_the_strict_up_set():
    for b in (NESTED, TWO, THREE):
        p = containment_poset(b)
        assert fiber._choice_counts(b) == [
            sum(p.less(j, k) for k in range(1, b.N + 1)) for j in range(1, b.N + 1)
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
