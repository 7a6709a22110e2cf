"""Seeded benchmark inputs and reference answers, built without persfiber.

Nothing here imports the package under test. The generators take a
``random.Random`` so that one seed always gives the same inputs, and the
reference functions compute the paper's invariants directly (the product
formula, strict containment, bar counting for the rank function) so that
the benchmark's checks never depend on a stored output of the code it
measures.

A function is given by its alternating critical values (minima at the even
0-based positions). A barcode is a list of ``(birth, death)`` pairs with
``None`` as the infinite death.
"""
from __future__ import annotations

import bisect
import math
import random


def rng_for(workload: str, seed: int, cycle: int) -> random.Random:
    """Independent stream for one cycle of one workload (str seeds hash stably)."""
    return random.Random(f"{workload}/{seed}/{cycle}")


def log_uniform_sizes(rng: random.Random, count: int, lo: int, hi: int) -> list[int]:
    """`count` sizes drawn log-uniformly from [lo, hi], one per equal-width stratum.

    Stratifying keeps the total work of a cycle nearly the same for every
    seed, so seeds change the inputs without changing the cost of a run.
    """
    span = math.log(hi / lo)
    return [
        min(hi, max(lo, round(lo * math.exp(span * (i + rng.random()) / count))))
        for i in range(count)
    ]


def random_sequence(k: int, rng: random.Random) -> list[int]:
    """Critical values of a random walk with k minima, as distinct integers.

    The walk alternates up and down steps; ranking its heights (ties broken
    at random) and mapping the ranks onto a random increasing set of
    integers keeps the alternation and makes every value distinct.
    """
    n = 2 * k - 1
    walk = [0]
    for i in range(1, n):
        step = rng.randint(1, 2 * k)
        walk.append(walk[-1] + step if i % 2 else walk[-1] - step)
    order = sorted(range(n), key=lambda i: (walk[i], rng.random()))
    heights = sorted(rng.sample(range(4 * n), n))
    values = [0] * n
    for rank_of, i in enumerate(order):
        values[i] = heights[rank_of]
    return values


def zigzag(k: int) -> list[int]:
    """Minima 0..k-1 interleaved with rising maxima: a merge-tree chain of depth k-1.

    Reversed, it is the same chain leaning the other way.
    """
    values = []
    for i in range(k - 1):
        values += [i, k + i]
    values.append(k - 1)
    return values


def nested_barcode(n: int) -> list[tuple[int, int | None]]:
    """{[0,inf), [1,4n-1), [2,4n-2), ...}: every bar inside all earlier ones."""
    return [(0, None)] + [(i, 4 * n - i) for i in range(1, n)]


def random_barcode(n: int, rng: random.Random) -> list[tuple[int, int | None]]:
    """Generic barcode with n bars and 2n-1 distinct values, so a function realizes it.

    The smallest value is the essential birth; the others are paired by a
    uniform random matching, each pair giving one finite bar.
    """
    values = sorted(rng.sample(range(1, 8 * n), 2 * n - 1))
    rest = values[1:]
    rng.shuffle(rest)
    bars: list[tuple[int, int | None]] = [(values[0], None)]
    for i in range(0, len(rest), 2):
        lo, hi = sorted(rest[i : i + 2])
        bars.append((lo, hi))
    return bars


def birth_death_patterns(n: int) -> list[str]:
    """Every order of births ("b") and deaths ("d") among the values of a generic n-bar barcode.

    The essential birth comes first, and every prefix holds more births than
    deaths, so that each death can close an earlier finite birth.
    """
    out = []

    def extend(prefix: str, births: int, deaths: int):
        if births == n and deaths == n - 1:
            out.append(prefix)
            return
        if births < n:
            extend(prefix + "b", births + 1, deaths)
        if deaths < births - 1:
            extend(prefix + "d", births, deaths + 1)

    extend("b", 1, 0)
    return out


def barcode_with_pattern(pattern: str, rng: random.Random) -> list[tuple[int, int | None]]:
    """Random generic barcode whose sorted values follow `pattern`.

    The values are a random increasing set of integers; each death closes a
    finite birth drawn uniformly from those still open below it.
    """
    values = sorted(rng.sample(range(1, 8 * len(pattern)), len(pattern)))
    bars: list[tuple[int, int | None]] = [(values[0], None)]
    open_births: list[int] = []
    for value, kind in zip(values[1:], pattern[1:]):
        if kind == "b":
            open_births.append(value)
        else:
            bars.append((open_births.pop(rng.randrange(len(open_births))), value))
    return bars


# Barcode of the known count/enumerate disagreement: the death 3 equals a birth.
UNREALIZABLE_BARCODE: list[tuple[int, int | None]] = [(1, None), (2, 3), (3, 5)]


# ---------------------------------------------------------------------------
# reference answers


def canonical_bars(bars) -> list[tuple]:
    """Essential bar first, then finite bars by descending death (ties: birth)."""
    inf = math.inf
    return sorted(bars, key=lambda bd: (-(inf if bd[1] is None else bd[1]), bd[0]))


def choice_counts(bars) -> list[int]:
    """mu for each finite bar: the number of bars strictly containing it.

    Taken in death-descending order, a bar is strictly contained in exactly
    the earlier bars born no later than it (deaths are distinct).
    """
    ordered = canonical_bars(bars)
    births = [ordered[0][0]]
    out = []
    for birth, _ in ordered[1:]:
        out.append(bisect.bisect_right(births, birth))
        bisect.insort(births, birth)
    return out


def count_merge_trees(bars) -> int:
    """The paper's product formula."""
    return math.prod(choice_counts(bars))


def count_cmts(bars) -> int:
    """Product formula times one factor of two per finite bar."""
    return 2 ** (len(bars) - 1) * count_merge_trees(bars)


def realizable_by_function(bars) -> bool:
    """A function needs 2N-1 pairwise distinct critical values."""
    values = [b for b, _ in bars] + [d for _, d in bars if d is not None]
    return len(values) == len(set(values)) and len(bars) >= 2


def containment(bars) -> list[list[int]]:
    """Sorted [j, k] pairs, 1-based in canonical order, with bar k strictly containing bar j."""
    inf = math.inf
    ordered = [(b, inf if d is None else d) for b, d in canonical_bars(bars)]
    return sorted(
        [j, k]
        for j, (bj, dj) in enumerate(ordered, 1)
        for k, (bk, dk) in enumerate(ordered, 1)
        if j != k and bk <= bj and dj <= dk
    )


def bars_alive(bars, r, t) -> int:
    """Bar counting: bars born by r that are still alive at t."""
    return sum(1 for b, d in bars if b <= r and (d is None or t < d))


def sequence_bars_consistent(values, bars) -> bool:
    """Births are the minima, finite deaths the maxima, the global minimum lives forever."""
    births = sorted(b for b, _ in bars)
    deaths = sorted(d for _, d in bars if d is not None)
    essential = [b for b, d in bars if d is None]
    return (
        births == sorted(values[0::2])
        and deaths == sorted(values[1::2])
        and essential == [min(values)]
    )


def level_pairs(values, rng: random.Random, count: int) -> list[tuple[int, int]]:
    """`count` level pairs r <= t drawn from the function's own values."""
    return [tuple(sorted(rng.sample(values, 2))) for _ in range(count)]


def in_order_heights(doc: dict) -> list | None:
    """In-order heights of a chiral tree document, or None if a child is not below its parent."""
    out = []
    stack: list[tuple[dict, bool]] = [(doc, False)]
    while stack:
        node, visited = stack.pop()
        if visited or "left" not in node:
            out.append(node["height"])
            continue
        left, right = node["left"], node["right"]
        if not (left["height"] < node["height"] and right["height"] < node["height"]):
            return None
        stack += [(right, False), (node, True), (left, False)]
    return out
