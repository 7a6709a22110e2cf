"""Heights are only copied and compared, and the comparisons are counted.

`Exact` is an int whose arithmetic raises, so any stage that computes with a
height fails here; every output must still carry the `Exact` objects it was
given. `Counted` is an int that counts its comparisons, which measures the
algorithms' work exactly and on any machine: the bounds below are the counts
measured on these inputs with a 2x margin, so a later change that claims less
work can cite the counts instead of wall times.
"""
import math
import random
from functools import cache

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
    validate_critical_sequence,
    verify,
)
from persfiber.core import ChiralMergeTree, MergeTree, canonical_form, tree_from_dict, tree_to_dict
from persfiber.fiber import attachment_plans, same_stratum
from persfiber.trees import to_dot


class Exact(int):
    """A height that may only be copied and compared."""


def _refuse(*args):
    raise AssertionError("arithmetic on a height")


for _name in ("add", "sub", "mul", "truediv", "floordiv", "mod", "divmod", "pow"):
    setattr(Exact, f"__{_name}__", _refuse)
    setattr(Exact, f"__r{_name}__", _refuse)
Exact.__neg__ = Exact.__abs__ = Exact.__float__ = _refuse


def _heights(t):
    return [v.height for v in t.vertices()]


def test_arithmetic_on_a_witness_raises():
    x = Exact(3)
    for op in (lambda: x + 1, lambda: 1 - x, lambda: x * 2, lambda: x / 2, lambda: x // 2, lambda: x % 2,
               lambda: x ** 2, lambda: 2 ** x, lambda: -x, lambda: abs(x), lambda: float(x), lambda: math.isfinite(x)):
        with pytest.raises(AssertionError):
            op()
    assert x < 4 < math.inf and x == 3 and hash(x) == hash(3)


def test_every_stage_only_copies_and_compares_heights():
    f = validate_critical_sequence(tuple(map(Exact, (1, 9, 2, 8, 3, 7, 4))))
    assert all(type(v) is Exact for v in f.values)

    b, owner = barcode_of_sequence(f)
    assert all(type(h) is Exact for bar in b.bars for h in (bar.birth, bar.death) if h != math.inf)
    assert b == validate_barcode([(1, None), (2, 9), (3, 8), (4, 7)])
    t = merge_tree_of_sequence(f)
    u = forget_chirality(t)
    assert all(type(h) is Exact for tree in (t, u) for h in _heights(tree))
    assert elder_rule(t) == elder_rule(u) == (b, owner)
    assert canonical_form(t) == "(9 (1) (8 (2) (7 (3) (4))))"
    assert canonical_form(u) == "(9 (1) (8 (2) (7 (3) (4))))"
    assert to_dot(t).count("[label=") == 7
    for tree in (t, u):
        doc = tree_to_dict(tree)
        assert tree_from_dict(doc) == tree
        assert all(type(h) is Exact for h in _heights(tree_from_dict(doc)))
    back = cmt_to_sequence(t)
    assert back == f and all(type(v) is Exact for v in back.values)
    assert rank(f, Exact(2), Exact(8)) == 2

    assert (count_cmts(b), count_merge_trees(b)) == (48, 6)
    functions, cmts, mts = enumerate_functions(b), enumerate_cmts(b), enumerate_merge_trees(b)
    assert (len(functions), len(cmts), len(mts)) == (48, 48, 6)
    assert all(type(v) is Exact for g in functions for v in g.values)
    assert all(type(h) is Exact for tree in cmts + mts for h in _heights(tree))
    assert len(attachment_plans(b, chiral=True)) == 48 and len(attachment_plans(b, chiral=False)) == 6
    assert same_stratum(b, b)
    report = verify(b)
    assert report["all_equal"] is True and report["partition_check"] is True


class Counted(int):
    """A height that counts every comparison made on it."""

    comparisons = 0

    def __lt__(self, other):
        Counted.comparisons += 1
        return int.__lt__(self, other)

    def __le__(self, other):
        Counted.comparisons += 1
        return int.__le__(self, other)

    def __gt__(self, other):
        Counted.comparisons += 1
        return int.__gt__(self, other)

    def __ge__(self, other):
        Counted.comparisons += 1
        return int.__ge__(self, other)

    def __eq__(self, other):
        Counted.comparisons += 1
        return int.__eq__(self, other)

    def __ne__(self, other):
        Counted.comparisons += 1
        return int.__ne__(self, other)

    __hash__ = int.__hash__


def _comparisons(fn, arg):
    Counted.comparisons = 0
    fn(arg)
    return Counted.comparisons


@cache
def random_sequence(k):
    """A seeded random critical sequence of k minima on the values 0..2k-2, as Counted heights."""
    values = list(range(2 * k - 1))
    random.Random(k).shuffle(values)
    for i in range(len(values) - 1):  # wiggle sort: even indices become local minima
        if (i % 2 == 0) == (values[i] > values[i + 1]):
            values[i], values[i + 1] = values[i + 1], values[i]
    return validate_critical_sequence(tuple(map(Counted, values)))


# Comparisons / (k log2 k) measured at k = 1,000 / 4,000 / 16,000, doubled:
C_BARCODE = 6.4  # barcode_of_sequence: 31,550 / 150,201 / 697,102 (3.17 / 3.14 / 3.12)
C_TREE = 2.2  # merge_tree_of_sequence: 10,622 / 50,554 / 234,099 (1.07 / 1.06 / 1.05)
C_COUNT = 0.2  # count_cmts: 999 / 3,999 / 15,999 (0.100 / 0.084 / 0.072)


@pytest.mark.parametrize("k", [1_000, 4_000, 16_000])
@pytest.mark.parametrize("stage, c", [("barcode", C_BARCODE), ("tree", C_TREE), ("count", C_COUNT)])
def test_forward_and_count_comparisons_are_n_log_n(stage, c, k):
    f = random_sequence(k)
    if stage == "count":
        n = _comparisons(count_cmts, barcode_of_sequence(f)[0])
    else:
        n = _comparisons(barcode_of_sequence if stage == "barcode" else merge_tree_of_sequence, f)
    assert n <= c * k * math.log2(k)


# Comparisons / n for the n = 2k - 1 values, measured at k = 1,000 / 4,000 / 16,000, doubled:
C_RANK = 1.64  # rank with r = k // 2, t = 3k // 2: 1,631 / 6,507 / 26,104 (0.82 / 0.81 / 0.82)
C_VALIDATE = 2.0  # validate_critical_sequence, per position as Counted is an int subclass: 1,998 / 7,998 / 31,998 (1.00)


@pytest.mark.parametrize("k", [1_000, 4_000, 16_000])
def test_rank_and_validation_comparisons_are_linear(k):
    f = random_sequence(k)
    n = len(f.values)
    assert _comparisons(lambda g: rank(g, Counted(k // 2), Counted(3 * k // 2)), f) <= C_RANK * n
    assert _comparisons(validate_critical_sequence, f.values) <= C_VALIDATE * n


# Comparisons per result / (N log2 count) at nested N = 5 / 6 / 7, doubled. enumerate_cmts:
# 1,118 / 10,407 / 118,949 comparisons for 384 / 3,840 / 46,080 trees (0.068 / 0.038 / 0.024).
C_ENUMERATE_CMTS = 0.14
# enumerate_functions, mostly its final sort: 8,426 / 109,289 / 1,591,113 comparisons
# for 384 / 3,840 / 46,080 functions (0.511 / 0.398 / 0.318).
C_ENUMERATE_FUNCTIONS = 1.03
# enumerate_merge_trees: 246 / 1,087 / 5,837 comparisons for 24 / 120 / 720 trees (0.447 / 0.219 / 0.122).
C_ENUMERATE_MERGE_TREES = 0.9


def nested(N):
    """[0, inf) and [i, 20N - i) for i = 1..N-1, as Counted heights."""
    return validate_barcode([(Counted(0), None)] + [(Counted(i), Counted(20 * N - i)) for i in range(1, N)])


@pytest.mark.parametrize("N", [5, 6, 7])
@pytest.mark.parametrize("enumerate_, count_, c", [
    (enumerate_cmts, count_cmts, C_ENUMERATE_CMTS),
    (enumerate_functions, count_cmts, C_ENUMERATE_FUNCTIONS),
    (enumerate_merge_trees, count_merge_trees, C_ENUMERATE_MERGE_TREES),
], ids=["cmts", "functions", "merge_trees"])
def test_enumerate_comparisons_per_result(enumerate_, count_, c, N):
    b = nested(N)
    count = count_(b)
    n = _comparisons(enumerate_, b)
    assert n / count <= c * N * math.log2(count)


# Vertices built, counted through __post_init__, at nested N = 5 / 6 / 7 against the bound N + (N - 1) * count:
# enumerate_cmts 559 / 5,202 / 59,471 (1.46 / 1.35 / 1.29 per tree), enumerate_merge_trees 64 / 274 / 1,461 (2.67 / 2.28 / 2.03).
@pytest.mark.parametrize("N", [5, 6, 7])
@pytest.mark.parametrize("enumerate_, count_", [
    (enumerate_cmts, count_cmts), (enumerate_merge_trees, count_merge_trees),
], ids=["cmts", "merge_trees"])
def test_enumeration_builds_o_n_vertices_per_result(monkeypatch, enumerate_, count_, N):
    b = nested(N)
    built = []
    for cls in (MergeTree, ChiralMergeTree):
        monkeypatch.setattr(cls, "__post_init__", lambda v, _check=cls.__post_init__: built.append(v) or _check(v))
    trees = enumerate_(b)
    assert len(trees) == count_(b) and len(trees) <= len(built) <= N + (N - 1) * len(trees)  # a root per tree
