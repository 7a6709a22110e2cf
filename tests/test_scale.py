"""The forward direction and the counts on inputs far deeper than the recursion limit."""
import math

import pytest

from persfiber import (
    barcode_of_sequence,
    cmt_to_sequence,
    count_cmts,
    count_merge_trees,
    elder_rule,
    enumerate_merge_trees,
    forget_chirality,
    merge_tree_of_sequence,
    validate_barcode,
    validate_critical_sequence,
)
from persfiber.core import canonical_form

K = 10**5


def zigzag(k):
    """Minima 0..k-1 interleaved with rising maxima: a merge tree that is a chain of depth k-1."""
    values = []
    for i in range(k - 1):
        values += [i, k + i]
    return values + [k - 1]


@pytest.mark.parametrize("mirrored", [False, True], ids=["zigzag", "mirrored"])
def test_forward_round_trip_on_deep_zigzag(mirrored):
    values = zigzag(K)
    f = validate_critical_sequence(values[::-1] if mirrored else values)
    barcode, _ = barcode_of_sequence(f)
    t = merge_tree_of_sequence(f)
    assert elder_rule(forget_chirality(t))[0] == barcode
    assert cmt_to_sequence(t) == f
    # Staggered bars: only the essential bar contains each finite one.
    assert count_merge_trees(barcode) == 1
    assert count_cmts(barcode) == 2 ** (K - 1)


def test_count_of_large_nested_barcode():
    n = 20000
    nested = validate_barcode([(0, None)] + [(i, 2 * n - i) for i in range(1, n)])
    assert count_merge_trees(nested) == math.factorial(n - 1)


def test_enumerate_merge_trees_of_deep_zigzag():
    # The single merge tree is a chain of depth k-1, far beyond the recursion limit.
    f = validate_critical_sequence(zigzag(1500))
    barcode, _ = barcode_of_sequence(f)
    (tree,) = enumerate_merge_trees(barcode)
    assert canonical_form(tree) == canonical_form(forget_chirality(merge_tree_of_sequence(f)))
