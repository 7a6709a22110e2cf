"""The cyclic collector is paused inside the ten builders and restored after them, counted rather than timed.

Each builder turns the collector off while it runs if it was on, and on again when it returns or raises;
a collector that is already off stays off. The pause is safe because what the builders make is acyclic:
after each of them gc.collect() finds nothing to free.
"""
import gc
import random
import sys
import threading
from contextlib import contextmanager

import pytest

from persfiber import (
    DegenerateBarcode,
    DuplicateBirth,
    DuplicateDeath,
    InvalidDocument,
    KindMismatch,
    barcode_of_sequence,
    elder_rule,
    enumerate_cmts,
    enumerate_functions,
    enumerate_merge_trees,
    forget_chirality,
    merge_tree_of_sequence,
    validate_barcode,
    validate_critical_sequence,
    verify,
)
from persfiber.core import MergeTree, tree_from_dict, tree_to_dict


def nested(n):
    return validate_barcode([(0, None)] + [(i, 2 * n - i) for i in range(1, n)])


def zigzag(k):
    """Minima 0..k-1 interleaved with rising maxima: a merge tree that is a chain of depth k-1."""
    return validate_critical_sequence([v for i in range(k - 1) for v in (i, k + i)] + [k - 1])


def random_function(k, seed):
    r = random.Random(seed)
    lo, hi = r.sample(range(k), k), r.sample(range(k, 2 * k - 1), k - 1)
    return validate_critical_sequence([v for pair in zip(lo, hi) for v in pair] + [lo[-1]])


F = random_function(3000, 3)
TREE = merge_tree_of_sequence(F)
NESTED5 = nested(5)
TIED = validate_barcode([(1, None), (2, 7), (2, 6)])
# Two deaths tied at 5: the elder rule's bars fail validation.
TIED_DEATHS = MergeTree(9, (MergeTree(5, (MergeTree(1), MergeTree(2))), MergeTree(5, (MergeTree(3), MergeTree(4)))))

# (entry point, an argument it returns on, one it raises on, what it raises); a wrong type where no refusal is named.
ENTRY_POINTS = [
    (barcode_of_sequence, F, None, AttributeError),
    (merge_tree_of_sequence, F, None, AttributeError),
    (forget_chirality, TREE, forget_chirality(TREE), KindMismatch),
    (elder_rule, TREE, TIED_DEATHS, DuplicateDeath),
    (enumerate_functions, NESTED5, TIED, DuplicateBirth),
    (enumerate_merge_trees, NESTED5, None, AttributeError),
    (enumerate_cmts, NESTED5, None, AttributeError),
    (tree_to_dict, TREE, F, KindMismatch),
    (tree_from_dict, tree_to_dict(TREE), {"height": True}, InvalidDocument),
    (verify, NESTED5, validate_barcode([(4, None)]), DegenerateBarcode),
]
IDS = [call.__name__ for call, *_ in ENTRY_POINTS]


@contextmanager
def collector(enabled):
    """Run the block with the collector in the given state, and leave it on afterwards."""
    (gc.enable if enabled else gc.disable)()
    try:
        yield
    finally:
        gc.enable()


@pytest.mark.parametrize("enabled", [True, False], ids=["enabled", "disabled"])
@pytest.mark.parametrize("call, ok, bad, error", ENTRY_POINTS, ids=IDS)
def test_the_collector_state_is_restored_on_return_and_on_raise(call, ok, bad, error, enabled):
    with collector(enabled):
        call(ok)
        assert gc.isenabled() is enabled
        with pytest.raises(error):
            call(bad)
        assert gc.isenabled() is enabled


@pytest.mark.parametrize("call, ok", [(call, ok) for call, ok, *_ in ENTRY_POINTS], ids=IDS)
def test_nothing_a_builder_makes_is_cyclic(call, ok):
    with collector(True):
        gc.collect()
        call(ok)
        assert gc.collect() == 0


def collections_inside(calls, run):
    """Generations of the collections that start during run() while one of calls' own frames is on the stack."""
    codes = {getattr(call, "__wrapped__", call).__code__ for call in calls}
    seen = []

    def hook(phase, info):
        frame = sys._getframe(1)
        while phase == "start" and frame is not None:
            if frame.f_code in codes:
                seen.append(info["generation"])
                return
            frame = frame.f_back

    with collector(True):
        gc.callbacks.append(hook)
        try:
            run()
        finally:
            gc.callbacks.remove(hook)
    return seen


def test_no_collection_starts_inside_the_builders():
    b = nested(7)
    assert collections_inside([enumerate_cmts], lambda: enumerate_cmts(b)) == []
    f = zigzag(2048)

    def forward():
        barcode_of_sequence(f)
        elder_rule(forget_chirality(merge_tree_of_sequence(f)))

    chain = [barcode_of_sequence, merge_tree_of_sequence, forget_chirality, elder_rule]
    assert collections_inside(chain, forward) == []


def test_concurrent_calls_leave_the_collector_on():
    """Each call may find the collector on or paused by the other; after both it is on."""
    barrier, b, errors = threading.Barrier(2, timeout=30), nested(6), []

    def work():
        try:
            barrier.wait()
            for _ in range(5):
                assert len(enumerate_functions(b)) == 3840
        except BaseException as exc:  # reported by the main thread
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)  # switch threads often, so that the pauses interleave
    try:
        with collector(True):
            threads = [threading.Thread(target=work) for _ in range(2)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
            assert not any(t.is_alive() for t in threads)
            assert errors == []
            assert gc.isenabled()
    finally:
        sys.setswitchinterval(interval)
