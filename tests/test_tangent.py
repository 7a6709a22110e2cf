"""The count summed over every barcode on 2N-1 values is the tangent number E_{2N-1}.

Every alternating sequence of {1, ..., 2N-1} has exactly one barcode, and
the chiral merge trees of a barcode index its functions' graph-equivalence
classes. So the chiral counts of all barcodes on those values add up to the
number of up-down permutations of 2N-1 elements: the tangent number E_{2N-1}
(Andre 1879; OEIS A000182). The check reaches past the brute force's cap of
6 minima and uses no plans or enumerators; E comes from the Seidel-Entringer
boustrophedon, which shares nothing with persfiber. For N <= 5 the functions
enumerate_functions lists over those barcodes are checked to be exactly the
up-down permutations, and the brute force's fibers over every split of the
values into minima and maxima to meet every barcode.

Run as a script with N to print the sum for one N: `python test_tangent.py 8`.
"""
import sys
from itertools import combinations

import pytest

from persfiber import count_cmts, enumerate_functions, oracle, validate_barcode, validate_critical_sequence


def euler_zigzag(n):
    """E_n, the number of up-down permutations of n elements, by the Seidel-Entringer boustrophedon."""
    row = [1]
    for _ in range(n):
        nxt = [0]
        for x in reversed(row):
            nxt.append(nxt[-1] + x)
        row = nxt
    return row[-1]


def all_barcodes(N, height=int):
    """Every barcode on the values 1..2N-1, each value mapped through `height`.

    Sweep the values from 2N-1 down to 2: each either opens a bar as its
    death or closes any open bar as its birth. 1 is the essential birth.
    That gives (2N-3)!! barcodes.
    """
    out = []

    def sweep(v, open_deaths, bars):
        if v == 1:  # every bar is closed: the guard below leaves at most v - 1 open on entry
            out.append(validate_barcode([(height(1), None)] + bars))
            return
        if len(open_deaths) < v - 2:  # the values 2..v-1 left can still close every open bar and this one
            sweep(v - 1, open_deaths + [v], bars)
        for i, d in enumerate(open_deaths):
            sweep(v - 1, open_deaths[:i] + open_deaths[i + 1:], bars + [(height(v), height(d))])

    sweep(2 * N - 1, [], [])
    return out


def mixed(v):
    return float(v) if v % 2 else v


def test_boustrophedon_gives_the_tangent_numbers():
    assert [euler_zigzag(2 * N - 1) for N in range(1, 9)] == [
        1, 2, 16, 272, 7_936, 353_792, 22_368_256, 1_903_757_312]


@pytest.mark.parametrize("height", [int, mixed], ids=["ints", "mixed"])
@pytest.mark.parametrize("N", range(2, 8))
def test_chiral_counts_sum_to_the_tangent_number(N, height):
    barcodes = all_barcodes(N, height)
    double_factorial = 1
    for odd in range(1, 2 * N - 2, 2):
        double_factorial *= odd
    assert len(barcodes) == len(set(barcodes)) == double_factorial
    assert sum(map(count_cmts, barcodes)) == euler_zigzag(2 * N - 1)


@pytest.mark.parametrize("height", [int, mixed], ids=["ints", "mixed"])
@pytest.mark.parametrize("N", range(2, 6))
def test_enumerated_functions_sum_to_the_tangent_number(N, height):
    fns = [f for b in all_barcodes(N, height) for f in enumerate_functions(b)]
    assert len(fns) == euler_zigzag(2 * N - 1)
    # Alternating and pairwise distinct too, so they are exactly the up-down permutations.
    assert all(f == validate_critical_sequence(f.values) for f in fns)
    assert len({f.values for f in fns}) == len(fns)


@pytest.mark.parametrize("height", [int, mixed], ids=["ints", "mixed"])
@pytest.mark.parametrize("N", range(2, 6))
def test_brute_force_fibers_cover_every_barcode(N, height):
    """Over every split of 1..2N-1 into minima (1 among them) and N-1 maxima, the brute force meets every barcode."""
    rest = [height(v) for v in range(2, 2 * N)]
    found = set()
    for maxima in combinations(rest, N - 1):
        found |= oracle._fibers([height(1)] + [v for v in rest if v not in maxima], maxima).keys()
    assert found == set(all_barcodes(N, height))


if __name__ == "__main__":
    print(sum(map(count_cmts, all_barcodes(int(sys.argv[1])))))
