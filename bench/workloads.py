"""The library workloads: what one op calls, what it is checked against, and why.

Each workload builds its inputs one cycle at a time from the seed. A cycle
has a fixed composition (sizes drawn per stratum), so every seed costs
about the same and the run-to-run spread comes from the program, not from
the draw. Checks run after the op's timer stops and compare against the
paper's invariants computed in ``inputs``.
"""
from __future__ import annotations

import math
import random

import inputs

# Known failures of the code at the time the benchmark was defined. An op
# that fails exactly this way is reported under the name, not as an
# unexpected failure; any other failure of the same op is unexpected.
ZIGZAG_RECURSION = "zigzag_recursion"


class Workload:
    """name, warmup(), cycle(seed, c), op(pf, item), check(pf, item, out) -> problem or None."""

    def known(self, item, exc):
        """Name of the known failure that `exc` on `item` is, or None."""
        return None


class Forward(Workload):
    """Function -> barcode and merge tree, then count and rank.

    Why: the quadratic sweep, the tree build and the O(N^2) ``mu`` dominate,
    while enumeration and the oracle are idle. The k=2048 zigzag is the deep
    chain that recursive tree walks cannot handle.
    """

    name = "forward"
    # k is log-uniform on [2, 1024]; counting a random k=2048 sequence alone
    # takes over a second, which would leave too few ops in a run.
    RANDOM_PER_CYCLE = 31
    K_MIN, K_MAX = 2, 1024
    ZIGZAG_K = 2048
    LEVEL_PAIRS = 3

    def _item(self, tag, values, rng):
        return {"tag": tag, "values": values, "levels": inputs.level_pairs(values, rng, self.LEVEL_PAIRS)}

    def warmup(self):
        rng = random.Random(0)
        return self._item("warmup", inputs.random_sequence(8, rng), rng)

    def cycle(self, seed, c):
        rng = inputs.rng_for(self.name, seed, c)
        items = [
            self._item(f"random-k{k}", inputs.random_sequence(k, rng), rng)
            for k in inputs.log_uniform_sizes(rng, self.RANDOM_PER_CYCLE, self.K_MIN, self.K_MAX)
        ]
        items.append(self._item(f"zigzag-k{self.ZIGZAG_K}", inputs.zigzag(self.ZIGZAG_K), rng))
        rng.shuffle(items)
        return items

    def op(self, pf, item):
        f = pf.validate_critical_sequence(item["values"])
        barcode, leaf_to_bar = pf.barcode_of_sequence(f)
        tree = pf.merge_tree_of_sequence(f)
        elder, _ = pf.elder_rule(pf.forget_chirality(tree))
        back = pf.cmt_to_sequence(tree)
        counts = (pf.count_cmts(barcode), pf.count_merge_trees(barcode))
        ranks = [pf.rank(f, r, t) for r, t in item["levels"]]
        return barcode, leaf_to_bar, elder, back, counts, ranks

    def check(self, pf, item, out):
        barcode, leaf_to_bar, elder, back, counts, ranks = out
        values = item["values"]
        bars = [(b.birth, None if b.is_essential else b.death) for b in barcode.bars]
        if not inputs.sequence_bars_consistent(values, bars):
            return "barcode births/deaths are not the minima/maxima"
        if elder != barcode:
            return "elder rule of the merge tree differs from the sweep"
        if tuple(back.values) != tuple(values):
            return "in-order traversal of the merge tree is not the input"
        if any(barcode.bars[leaf_to_bar[p] - 1].birth != values[p - 1] for p in range(1, len(values) + 1, 2)):
            return "leaf_to_bar maps a minimum to a bar with another birth"
        if counts != (inputs.count_cmts(bars), inputs.count_merge_trees(bars)):
            return f"counts {counts} differ from the product formula"
        expected = [inputs.bars_alive(bars, r, t) for r, t in item["levels"]]
        if ranks != expected:
            return f"rank {ranks} differs from bar counting {expected}"
        return None

    def known(self, item, exc):
        if item["tag"].startswith("zigzag") and isinstance(exc, RecursionError):
            return ZIGZAG_RECURSION
        return None


class Enumerate(Workload):
    """Barcode -> every function and every merge tree realizing it.

    Why: building trees, ``materialize``, ``canonical_form`` and ``in_order``
    dominate; the sweep runs only inside the checks.
    """

    name = "enumerate"
    NESTED_N = 6
    # For each N in 3..7 and each power of two P up to 2^7 that N allows,
    # one random barcode with exactly P merge trees (P * 2^(N-1) functions).
    # The count of a random barcode is heavy-tailed and sets the cost of the
    # op, so fixing the counts makes every seed cost the same; the cap keeps
    # one op (at most 128 * 2^6 = 8192 functions) well under a second.
    TOP_POWER = 7
    SAMPLE = 3                   # results per op whose barcode is recomputed

    def warmup(self):
        return {"tag": "warmup", "bars": inputs.nested_barcode(4), "sample_seed": 0}

    def cycle(self, seed, c):
        rng = inputs.rng_for(self.name, seed, c)
        items = [{"tag": f"nested-N{self.NESTED_N}", "bars": inputs.nested_barcode(self.NESTED_N)}]
        for n in range(3, 8):
            for power in range(self.TOP_POWER + 1):
                if 2**power > math.factorial(n - 1):
                    break
                while True:
                    bars = inputs.random_barcode(n, rng)
                    if inputs.count_merge_trees(bars) == 2**power:
                        break
                items.append({"tag": f"random-N{n}-P{2**power}", "bars": bars})
        for item in items:
            item["sample_seed"] = rng.randrange(2**32)
        rng.shuffle(items)
        return items

    def op(self, pf, item):
        b = pf.validate_barcode(item["bars"], distinct_births=True)
        return b, pf.enumerate_functions(b), pf.enumerate_merge_trees(b)

    def check(self, pf, item, out):
        b, functions, trees = out
        bars = item["bars"]
        if len(functions) != inputs.count_cmts(bars):
            return f"{len(functions)} functions, formula says {inputs.count_cmts(bars)}"
        if len(trees) != inputs.count_merge_trees(bars):
            return f"{len(trees)} merge trees, formula says {inputs.count_merge_trees(bars)}"
        if len({tuple(f.values) for f in functions}) != len(functions):
            return "a function is listed twice"
        if len({_tree_key(t) for t in trees}) != len(trees):
            return "two listed merge trees are isomorphic"
        rng = random.Random(item["sample_seed"])
        for f in rng.sample(functions, min(self.SAMPLE, len(functions))):
            if pf.barcode_of_sequence(f)[0] != b:
                return f"the sweep barcode of {f.values} is not the input"
        for t in rng.sample(trees, min(self.SAMPLE, len(trees))):
            if pf.elder_rule(t)[0] != b:
                return "the elder rule of a listed merge tree is not the input"
        return None


def _tree_key(t):
    """Isomorphism key of an unordered merge tree (children sorted)."""
    if not t.children:
        return (t.height,)
    return (t.height,) + tuple(sorted(_tree_key(c) for c in t.children))


class Oracle(Workload):
    """verify(): formula against enumeration against brute force.

    Why: the same core and persistence layers as ``forward``, reached through
    many tiny calls instead of a few large ones, so per-call overhead shows;
    it also exposes how often verify regenerates its candidates.
    """

    name = "oracle"
    # Every order of births and deaths for N = 3, 4 and 5, each with a random
    # matching: verify's cost is set by that order (it fixes the candidate
    # set), from 20 ms to 2 s at N=5, so covering every order in every cycle
    # keeps the cost of a cycle the same for every seed. These repeats put
    # p50 inside the N=3 ops and p90 inside the costliest N=4 order, each a
    # group of ops of equal cost, rather than on the edge between groups.
    REPEATS = {3: 43, 4: 12, 5: 1}

    def warmup(self):
        return {"tag": "warmup", "bars": inputs.nested_barcode(3)}

    def cycle(self, seed, c):
        rng = inputs.rng_for(self.name, seed, c)
        items = [{"tag": f"N{n}-{pattern}", "bars": inputs.barcode_with_pattern(pattern, rng)}
                 for n, repeats in self.REPEATS.items()
                 for pattern in inputs.birth_death_patterns(n) for _ in range(repeats)]
        rng.shuffle(items)
        return items

    def op(self, pf, item):
        return pf.verify(pf.validate_barcode(item["bars"], distinct_births=True))

    def check(self, pf, item, out):
        return verify_report_errors(item["bars"], out)


def verify_report_errors(bars, report):
    """What is wrong with a verify() report on a realizable barcode, or None."""
    cmts, mts = inputs.count_cmts(bars), inputs.count_merge_trees(bars)
    expected = {
        "formula_cmt_count": cmts, "enumerated_cmt_count": cmts, "brute_count": cmts,
        "formula_mt_count": mts, "enumerated_mt_count": mts, "dedup_mt_from_cmts": mts,
        "all_equal": True, "partition_check": True,
    }
    wrong = {k: report.get(k) for k, v in expected.items() if report.get(k) != v}
    return f"verify reported {wrong}" if wrong else None


LIBRARY = {w.name: w for w in (Forward(), Enumerate(), Oracle())}
