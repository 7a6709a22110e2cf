"""End-to-end acceptance checks.

Each test prints one PASS/FAIL line (run with -s to see them) and asserts
exact integer agreement; the first four also assert their time budgets.
"""
import random
import time
from collections import Counter
from itertools import combinations_with_replacement

import pytest

from persfiber import (
    barcode_of_sequence,
    cmt_to_sequence,
    count_cmts,
    count_merge_trees,
    elder_rule,
    enumerate_cmts,
    enumerate_functions,
    enumerate_merge_trees,
    forget_chirality,
    merge_tree_of_sequence,
    rank,
    validate_barcode,
)
from persfiber.core import canonical_form
from persfiber.oracle import all_functions, brute_fiber
from persfiber.trees import in_order

SEED = 20260819

NESTED = validate_barcode([(1, None), (2, 7), (3, 6), (4, 5)])


def report(n, ok, detail):
    print(f"criterion {n}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {n} failed: {detail}"


def random_barcode(rng, n):
    vals = rng.sample(range(1, 400), 2 * (n - 1))
    bars = [(0, None)]
    for i in range(n - 1):
        a, b = vals[2 * i], vals[2 * i + 1]
        bars.append((min(a, b), max(a, b)))
    return validate_barcode(bars, distinct_births=True)


@pytest.fixture(scope="module")
def random_suite():
    rng = random.Random(SEED)
    return [random_barcode(rng, 2 + i % 4) for i in range(200)]


@pytest.fixture(scope="module")
def cmt_suite(random_suite):
    return [(b, enumerate_cmts(b)) for b in random_suite]


def small_functions():
    out = []
    for k in (2, 3, 4):
        out.extend(all_functions(range(1, k + 1), range(k + 1, 2 * k)))
    return out


def test_criterion_1_nested_example_counts():
    t0 = time.perf_counter()
    counts_ok = count_cmts(NESTED) == 48 and count_merge_trees(NESTED) == 6
    cmts = enumerate_cmts(NESTED)
    cmt_forms = {canonical_form(t) for t in cmts}
    brute = brute_fiber(NESTED)
    brute_forms = {canonical_form(merge_tree_of_sequence(f)) for f in brute}
    elapsed = time.perf_counter() - t0
    ok = (
        counts_ok
        and len(cmts) == 48
        and len(cmt_forms) == 48
        and len(brute) == 48
        and brute_forms == cmt_forms
        and elapsed < 1.0
    )
    report(
        1,
        ok,
        f"48 chiral / 6 unordered realizations, brute force bijective, {elapsed:.3f}s",
    )


def test_criterion_2_fibers_partition_all_functions():
    t0 = time.perf_counter()
    fns = all_functions({1, 2, 3, 4}, {5, 6, 7})
    arising = {}
    for f in fns:
        arising.setdefault(barcode_of_sequence(f)[0], [])
    fibers = {b: brute_fiber(b) for b in arising}
    seen = set()
    disjoint = True
    for members in fibers.values():
        for f in members:
            if f.values in seen:
                disjoint = False
            seen.add(f.values)
    sizes_match = all(len(members) == count_cmts(b) for b, members in fibers.items())
    total = sum(len(members) for members in fibers.values())
    elapsed = time.perf_counter() - t0
    ok = (
        len(fns) == 144
        and disjoint
        and total == 144
        and seen == {f.values for f in fns}
        and sizes_match
        and elapsed < 1.0
    )
    report(
        2,
        ok,
        f"{len(fibers)} fibers partition all {total} functions, "
        f"each at its formula size, {elapsed:.3f}s",
    )


def test_criterion_3_formula_vs_oracle(random_suite):
    t0 = time.perf_counter()
    agree = all(
        count_cmts(b) == len(brute_fiber(b)) == len(enumerate_functions(b))
        for b in random_suite
    )
    elapsed = time.perf_counter() - t0
    ok = agree and len(random_suite) == 200 and elapsed < 60.0
    report(
        3,
        ok,
        f"formula == enumeration == brute force on 200 random barcodes, {elapsed:.2f}s",
    )


def test_criterion_4_elder_rank_identity():
    t0 = time.perf_counter()
    checked = 0
    ok = True
    for k in (2, 3, 4):
        top = 2 * k - 1
        levels = sorted({0.5} | {v for v in range(1, top + 1)} | {v + 0.5 for v in range(1, top + 1)})
        pairs = list(combinations_with_replacement(levels, 2))
        for f in all_functions(range(1, k + 1), range(k + 1, 2 * k)):
            bars = barcode_of_sequence(f)[0].bars
            for r, t in pairs:
                expected = sum(1 for bar in bars if bar.birth <= r and t < bar.death)
                if rank(f, r, t) != expected:
                    ok = False
            checked += 1
    elapsed = time.perf_counter() - t0
    ok = ok and checked == 158 and elapsed < 30.0
    report(4, ok, f"rank == bar count over [r, t] for {checked} functions, {elapsed:.2f}s")


def test_criterion_5_round_trips(cmt_suite):
    fns = small_functions()
    forward = all(cmt_to_sequence(merge_tree_of_sequence(f)) == f for f in fns)
    backward = all(
        merge_tree_of_sequence(cmt_to_sequence(t)) == t
        for _, cmts in cmt_suite
        for t in cmts
    )
    trees = sum(len(cmts) for _, cmts in cmt_suite)
    ok = forward and backward and len(fns) == 158
    report(5, ok, f"{len(fns)} sequences and {trees} trees round-trip exactly")


def test_criterion_6_elder_map_agreement(cmt_suite):
    corpus = small_functions()
    corpus.extend(cmt_to_sequence(t) for _, cmts in cmt_suite for t in cmts)
    ok = all(
        barcode_of_sequence(f)[0] == elder_rule(forget_chirality(merge_tree_of_sequence(f)))[0]
        for f in corpus
    )
    report(6, ok, f"sweep and elder rule agree on {len(corpus)} functions")


def test_criterion_7_chirality_factor(cmt_suite):
    ok = True
    classes = 0
    for b, cmts in list(cmt_suite) + [(NESTED, enumerate_cmts(NESTED))]:
        forgotten = Counter(canonical_form(forget_chirality(t)) for t in cmts)
        expected = 2 ** (b.N - 1)
        if any(count != expected for count in forgotten.values()):
            ok = False
        if set(forgotten) != {canonical_form(t) for t in enumerate_merge_trees(b)}:
            ok = False
        classes += len(forgotten)
    report(7, ok, f"each of {classes} unordered classes appears exactly 2^(N-1) times")


def test_criterion_8_leaves_at_odd_positions(cmt_suite):
    ok = True
    trees = 0
    for _, cmts in list(cmt_suite) + [(NESTED, enumerate_cmts(NESTED))]:
        for t in cmts:
            trees += 1
            for i, v in enumerate(in_order(t), 1):
                if v.is_leaf != (i % 2 == 1):
                    ok = False
    report(8, ok, f"leaf positions are exactly the odd ones in {trees} trees")
