"""The forward direction and the counts on inputs far deeper than the recursion limit."""
import math
import tracemalloc

import pytest

from persfiber import (
    barcode_of_sequence,
    cmt_to_sequence,
    count_cmts,
    count_merge_trees,
    elder_rule,
    enumerate_functions,
    enumerate_merge_trees,
    forget_chirality,
    merge_tree_of_sequence,
    rank,
    validate_barcode,
    validate_critical_sequence,
)
from persfiber import core, fiber
from persfiber.core import DuplicateDeath, EvenLength, canonical_form, tree_from_dict, tree_to_dict
from persfiber.fiber import AttachmentPlan, check_function_realizable, materialize, same_stratum
from persfiber.trees import to_dot

K = 10**5


def zigzag(k):
    """Minima 0..k-1 interleaved with rising maxima: a merge tree that is a chain of depth k-1."""
    values = []
    for i in range(k - 1):
        values += [i, k + i]
    return values + [k - 1]


@pytest.fixture(scope="module", params=[False, True], ids=["zigzag", "mirrored"])
def deep(request):
    """A zigzag of K minima, plain or mirrored, with (tree, its dict round trip) for both tree kinds.

    The trees are the chiral merge tree and its forget_chirality; the three tests below share one build.
    """
    values = zigzag(K)
    f = validate_critical_sequence(values[::-1] if request.param else values)
    t = merge_tree_of_sequence(f)
    return f, [(tree, tree_from_dict(tree_to_dict(tree))) for tree in (t, forget_chirality(t))]


def test_forward_round_trip_on_deep_zigzag(deep):
    f, ((t, _), (unordered, _)) = deep
    barcode, _ = barcode_of_sequence(f)
    assert elder_rule(unordered)[0] == barcode
    assert preorder(unordered) == preorder(t)
    assert cmt_to_sequence(t) == f
    # Staggered bars: only the essential bar contains each finite one.
    assert count_merge_trees(barcode) == 1
    assert count_cmts(barcode) == 2 ** (K - 1)
    # At t = K + K//4 the maxima K..t join the minima 0..K//4 + 1 into one component, and every
    # later minimum is alone (mirrored: the same, from the right). Of those, the joined one and
    # the K//2 - K//4 - 1 lone minima from K//4 + 2 to r = K//2 hold a minimum at or below r.
    assert rank(f, K // 2, K + K // 4) == 1 + (K // 2 - K // 4 - 1)


def preorder(t):
    """(height, leaf?) of every vertex in pre-order: it pins the tree down, independently of ==."""
    return [(v.height, v.is_leaf) for v in t.vertices()]


def test_tree_documents_and_dot_of_deep_zigzag(deep):
    for tree, back in deep[1]:
        assert type(back) is type(tree)
        assert preorder(back) == preorder(tree)
        assert to_dot(tree).count("[label=") == 2 * K - 1


def test_deep_trees_compare_hash_and_print(deep):
    for tree, back in deep[1]:
        assert back == tree
        assert hash(back) == hash(tree)
        assert len({tree, back}) == 1
        assert repr(tree).startswith(f"{type(tree).__name__}(height=")


def test_count_of_large_nested_barcode():
    n = 20000
    nested = validate_barcode([(0, None)] + [(i, 2 * n - i) for i in range(1, n)])
    assert count_merge_trees(nested) == math.factorial(n - 1)


def test_same_stratum_of_large_nested_barcode():
    # One bar per search level: the search is 1,199 bars deep.
    n = 1200
    nested = validate_barcode([(0, None)] + [(i, 2 * n - i) for i in range(1, n)])
    assert same_stratum(nested, nested)


def test_materialize_of_deep_chain_encodes_nothing(monkeypatch):
    # Every bar on its predecessor, side L: a chain 4,000 deep. Keeping each vertex's encoding peaks near 1 MB too,
    # as a lone chain's old forms are freed as it grows; building none is the faster path.
    def fail(*args):
        raise AssertionError("materialize wrote a canonical form")

    monkeypatch.setattr(fiber, "_encoding", fail)
    n = 4000
    nested = validate_barcode([(0, None)] + [(i, 2 * n - i) for i in range(1, n)])
    plan = AttachmentPlan(tuple(range(1, n)), ("L",) * (n - 1))
    tracemalloc.start()
    try:
        tree = materialize(nested, plan)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 10 * 2**20
    assert elder_rule(forget_chirality(tree))[0] == nested


def test_enumerate_merge_trees_of_deep_zigzag():
    # The single merge tree is a chain of depth k-1, far beyond the recursion limit.
    f = validate_critical_sequence(zigzag(1500))
    barcode, _ = barcode_of_sequence(f)
    (tree,) = enumerate_merge_trees(barcode)
    assert canonical_form(tree) == canonical_form(forget_chirality(merge_tree_of_sequence(f)))


def test_valid_plain_input_never_reaches_the_diagnosis(monkeypatch):
    # The whole-tuple checks accept valid int/float input of every length, however long.
    diagnose = core._diagnose
    calls = []
    monkeypatch.setattr(core, "_diagnose", lambda vals, n: calls.append(n) or diagnose(vals, n))
    n = 6
    nested = validate_barcode([(0, None)] + [(i, 2 * n - i) for i in range(1, n)])
    assert len(enumerate_functions(nested)) == 3840
    ints = zigzag(2048)
    floats = [v + 0.5 for v in ints]
    mixed = [v + 0.5 if i % 2 else v for i, v in enumerate(ints)]
    for values in (ints, floats, mixed):
        assert validate_critical_sequence(values).values == tuple(values)
    assert calls == []
    with pytest.raises(EvenLength):  # a failure does take the diagnosis
        validate_critical_sequence(ints[:-1])
    assert calls == [4094]


def test_valid_barcodes_never_reach_the_diagnosis(monkeypatch):
    # The whole-list checks accept the forward direction's barcodes, and a barcode's own bars, at any size.
    diagnose = core._diagnose_barcode
    calls = []
    monkeypatch.setattr(core, "_diagnose_barcode", lambda bars, *flags: calls.append(len(bars)) or diagnose(bars, *flags))
    ints = zigzag(2048)
    floats = [v + 0.5 for v in ints]
    mixed = [v + 0.5 if i % 2 else v for i, v in enumerate(ints)]
    for values in (ints, floats, mixed):
        f = validate_critical_sequence(values)
        barcode, _ = barcode_of_sequence(f)
        assert elder_rule(forget_chirality(merge_tree_of_sequence(f)))[0] == barcode
        assert sorted(bar.birth for bar in barcode.bars) == sorted(f.values[0::2])
    n = 6
    check_function_realizable(validate_barcode([(0, None)] + [(i, 2 * n - i) for i in range(1, n)]))
    assert calls == []
    with pytest.raises(DuplicateDeath):  # a failure does take the diagnosis
        validate_barcode([(0, None), (1, 5), (2, 5)])
    assert calls == [3]
