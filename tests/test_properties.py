"""Property tests: the one-pass choice counts, the sweep, rank, the enumerators, materialize, the validators, the oracle and tree ==/hash/repr against their references."""
import math
from dataclasses import field, make_dataclass
from enum import IntEnum
from itertools import permutations, product
from operator import itemgetter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from persfiber import (
    barcode_of_sequence,
    cmt_to_sequence,
    count_cmts,
    count_merge_trees,
    elder_rule,
    enumerate_cmts,
    enumerate_functions,
    forget_chirality,
    merge_tree_of_sequence,
    rank,
    validate_barcode,
    validate_critical_sequence,
)
from persfiber.core import (
    Barcode,
    BarNotContainedInEssential,
    ChiralMergeTree,
    CriticalSequence,
    DuplicateBirth,
    DuplicateDeath,
    DuplicateValue,
    EmptyBar,
    EvenLength,
    Interval,
    InvalidDocument,
    MergeTree,
    MultipleInfiniteBars,
    NoInfiniteBar,
    NotAlternating,
    TooShort,
    ValidationError,
    _require_height,
    canonical_form,
    tree_from_dict,
    tree_to_dict,
)
from persfiber.fiber import (
    AttachmentPlan,
    _choices,
    _mu_pass,
    _trees,
    attachment_plans,
    check_function_realizable,
    containers,
    enumerate_merge_trees,
    materialize,
)
from persfiber.oracle import (
    MAX_MINIMA,
    CardinalityMismatch,
    ScaleCapExceeded,
    _births,
    _by_order,
    _fibers,
    all_functions,
    brute_fiber,
    verify,
)

heights = st.one_of(st.integers(-30, 30), st.floats(-30, 30, allow_nan=False))


@st.composite
def barcodes(draw):
    """Generic barcodes with up to 13 bars, births drawn from 1..20 and deaths from 21..40."""
    births = draw(st.lists(st.integers(1, 20), max_size=12))
    deaths = draw(st.lists(st.integers(21, 40), min_size=len(births), max_size=len(births), unique=True))
    return validate_barcode([(0, None)] + list(zip(births, deaths)))


@st.composite
def tied_barcodes(draw):
    """Generic barcodes with N = 1..6 bars on heights 0..12, each an int or a float.

    Births come from a small range, so they often tie; a death equal to
    another bar's birth is forced half the time. Deaths stay pairwise
    distinct and above the essential birth 0, so the barcode stays generic.
    """
    n = draw(st.integers(1, 6))
    deaths = draw(st.lists(st.integers(2, 12), min_size=n - 1, max_size=n - 1, unique=True))
    bars = [[draw(st.integers(1, d - 1)), d] for d in deaths]
    if n >= 3 and draw(st.booleans()):
        i, j = draw(st.permutations(range(n - 1)))[:2]
        if bars[i][1] < bars[j][1]:
            bars[j][0] = bars[i][1]
    mixed = lambda v: draw(st.sampled_from([v, float(v)]))
    return validate_barcode([(mixed(0), None)] + [(mixed(birth), mixed(death)) for birth, death in bars])


def _wiggle(values):
    """One pass of wiggle sort on distinct values: even indices become local minima."""
    for i in range(len(values) - 1):
        if (i % 2 == 0) == (values[i] > values[i + 1]):
            values[i], values[i + 1] = values[i + 1], values[i]
    return values


@st.composite
def sequences(draw, max_size=41):
    """Alternating critical sequences with ints and floats mixed."""
    values = draw(st.lists(heights, min_size=3, max_size=max_size, unique=True))
    return validate_critical_sequence(_wiggle(values[: len(values) - 1 + len(values) % 2]))


def containing_set(b, j):
    """Reference: indices of the bars strictly containing bar j, by definition."""
    return {k for k, bar in enumerate(b.bars, 1)
            if bar.birth <= j.birth and j.death <= bar.death and (bar.birth, bar.death) != (j.birth, j.death)}


@settings(deadline=None)
@given(st.one_of(barcodes(), tied_barcodes()))
def test_one_pass_mu_matches_containing_set(b):
    expected = [containing_set(b, j) for j in b.bars]
    assert _mu_pass(b) == [len(ks) for ks in expected]
    assert containers(b) == [sorted(s) for s in expected]
    assert count_merge_trees(b) == math.prod(len(ks) for ks in expected[1:])


@settings(deadline=None)
@given(sequences())
def test_sweep_barcode_is_elder_rule_of_merge_tree(f):
    t = merge_tree_of_sequence(f)
    assert elder_rule(t) == elder_rule(forget_chirality(t)) == barcode_of_sequence(f)
    # Both number the bars by one sort and list each owner in bar order, so the owner maps agree key order included.
    owners = list(barcode_of_sequence(f)[1].items())
    assert owners == list(elder_rule(t)[1].items()) == list(elder_rule(forget_chirality(t))[1].items())
    assert [j for _, j in owners] == list(range(1, len(owners) + 1))


@settings(deadline=None)
@given(sequences())
def test_merge_tree_round_trip_and_leaf_to_bar(f):
    assert cmt_to_sequence(merge_tree_of_sequence(f)) == f
    barcode, leaf_to_bar = barcode_of_sequence(f)
    assert sorted(leaf_to_bar) == list(range(1, len(f.values) + 1, 2))
    for pos, index in leaf_to_bar.items():
        assert barcode.bars[index - 1].birth == f.values[pos - 1]


def _level_components(f, level):
    """Reference: components of the sublevel set at `level`, as lists of minimum positions."""
    comps = []
    cur = None
    for i, y in enumerate(f.values, 1):
        if i % 2 == 1:
            if y <= level:
                if cur is None:
                    cur = []
                cur.append(i)
        elif y > level and cur is not None:
            comps.append(cur)
            cur = None
    if cur is not None:
        comps.append(cur)
    return comps


def _reference_rank(f, r, t):
    """Reference: components at level t that hold a minimum at or below r, from the full listing."""
    return sum(1 for comp in _level_components(f, t) if any(f.values[i - 1] <= r for i in comp))


@settings(deadline=None, max_examples=300)
@given(st.data())
def test_rank_matches_the_component_listing(data):
    f = data.draw(sequences())
    cuts = sorted(set(f.values))
    between = [(a + b) / 2 for a, b in zip(cuts, cuts[1:])] + [cuts[0] - 1, cuts[-1] + 1]
    level = st.sampled_from(cuts + between + [-math.inf, math.inf])
    r, t = sorted((data.draw(level), data.draw(level)))
    if data.draw(st.booleans()):
        t = r
    assert rank(f, r, t) == _reference_rank(f, r, t)


# A barcode swept from a sequence is realizable by a function; 11 values are N = 6 bars.
@settings(deadline=None)
@given(sequences(max_size=11))
def test_enumerate_functions_is_in_order_of_every_chiral_tree(f):
    b, _ = barcode_of_sequence(f)
    functions = enumerate_functions(b)
    assert functions == sorted((cmt_to_sequence(t) for t in enumerate_cmts(b)), key=lambda s: s.values)
    assert f in functions
    assert all(barcode_of_sequence(g)[0] == b for g in functions)


@settings(deadline=None)
@given(sequences(max_size=9))
def test_enumerate_functions_matches_brute_force(f):
    b, _ = barcode_of_sequence(f)
    assert brute_fiber(b) == enumerate_functions(b)


def _unchecked(cls, **fields):
    """An instance of a frozen dataclass with its fields set as given, so a reference never runs the validators."""
    obj = object.__new__(cls)
    for name, value in fields.items():
        object.__setattr__(obj, name, value)
    return obj


def _reference_validate(values):
    """The per-value validator that the bulk checks replaced, kept as the reference."""
    vals = tuple(values)
    for i, v in enumerate(vals, 1):
        _require_height(v, where="critical value", position=i)
    n = len(vals)
    if n % 2 == 0:
        raise EvenLength(f"need an odd number of critical values, got {n}")
    if n < 3:
        raise TooShort(f"need at least 3 critical values, got {n}")
    first_at = {}
    for i, v in enumerate(vals, 1):
        if v in first_at:
            raise DuplicateValue(
                f"value {v!r} at position {i} repeats position {first_at[v]}", position=i
            )
        first_at[v] = i
    for i in range(2, n + 1):
        prev, cur = vals[i - 2], vals[i - 1]
        if i % 2 == 0 and not prev < cur:
            raise NotAlternating(f"position {i} is not a local maximum", position=i)
        if i % 2 == 1 and not prev > cur:
            raise NotAlternating(f"position {i} is not a local minimum", position=i)
    return _unchecked(CriticalSequence, values=vals)


Level = IntEnum("Level", [("LOW", -3), ("HIGH", 40)])
ODD_VALUES = [
    True, False, math.nan, math.inf, -math.inf, "7", None, 10**400, -(10**400),
    7, 7.0, 0, -0.0, 0.0, Level.LOW, Level.HIGH,
]


@st.composite
def near_critical_values(draw):
    """Wiggle-sorted distinct int/float lists, mostly of odd length, then a few entries spoiled.

    A spoil puts an odd value at a position (bool, NaN, an infinity, str,
    None, an int too large for a float, an IntEnum), copies another entry's
    value as an equal int or float, or swaps two neighbours.
    """
    values = draw(st.lists(heights, max_size=13, unique=True))
    if draw(st.booleans()):
        values = values[: len(values) - 1 + len(values) % 2]
    _wiggle(values)
    for _ in range(draw(st.integers(0, 3)) if values else 0):
        i = draw(st.integers(0, len(values) - 1))
        j = draw(st.integers(0, len(values) - 1))
        kind = draw(st.sampled_from(["odd", "equal", "swap"]))
        if kind == "odd":
            values[i] = draw(st.sampled_from(ODD_VALUES))
        elif kind == "equal" and type(values[j]) is int and abs(values[j]) < 2**53:
            values[i] = float(values[j])
        elif kind == "equal" and type(values[j]) is float and math.isfinite(values[j]):
            values[i] = int(values[j]) if values[j].is_integer() else values[j]
        elif kind == "swap" and i + 1 < len(values):
            values[i], values[i + 1] = values[i + 1], values[i]
    return values


def _outcome(validate, values):
    try:
        s = validate(values)
    except Exception as e:
        return type(e), str(e), getattr(e, "position", None)
    return [(type(v), v) for v in s.values]


@settings(deadline=None, max_examples=500)
@given(near_critical_values())
def test_bulk_validator_matches_reference(values):
    assert _outcome(validate_critical_sequence, values) == _outcome(_reference_validate, values)


SPOILS = ["swap", "repeat", math.nan, math.inf, -math.inf, True, False, Level.LOW, Level.HIGH]


@st.composite
def long_critical_values(draw):
    """Int-only, float-only or mixed wiggle-sorted lists of length 1..301, some spoiled.

    Half the draws stay as drawn (valid whenever the length is odd and at
    least 3). The others spoil one position, the last one as often as any
    random one: a swap with the left neighbour, a copy of another entry's
    value (an int as an int or a float), NaN, an infinity, a bool or an
    IntEnum member.
    """
    n = draw(st.integers(1, 301))
    kind = draw(st.sampled_from(["int", "float", "mixed"]))
    rnd = draw(st.randoms(use_true_random=False))
    ints = rnd.sample(range(-5 * n, 5 * n), n)
    float_share = {"int": 0, "float": 1, "mixed": 0.5}[kind]
    values = _wiggle([v + 0.5 if rnd.random() < float_share else v for v in ints])  # v + 0.5 equals no int
    if draw(st.booleans()):
        i = draw(st.one_of(st.just(n - 1), st.integers(0, n - 1)))
        spoil = draw(st.sampled_from(SPOILS))
        if spoil == "swap":
            values[i - 1], values[i] = values[i], values[i - 1]
        elif spoil == "repeat":  # an int comes back as an equal int or float
            w = values[rnd.randrange(n)]
            values[i] = float(w) if type(w) is int and rnd.random() < 0.5 else w
        else:
            values[i] = spoil
    return values


@settings(deadline=None, max_examples=300)
@given(long_critical_values())
def test_accept_path_matches_reference_at_every_length(values):
    assert _outcome(validate_critical_sequence, values) == _outcome(_reference_validate, values)


def _reference_validate_barcode(bars, *, distinct_births=False):
    """The per-bar validator that the whole-list checks front, kept as the reference."""
    raw = []
    for i, bar in enumerate(bars, 1):
        if isinstance(bar, Interval):
            birth, death = bar.birth, bar.death
        else:
            try:
                birth, death = bar
            except (TypeError, ValueError):
                raise InvalidDocument(f"bar {i} is not a (birth, death) pair", position=i) from None
        _require_height(birth, where=f"bar {i} birth", position=i)
        if death is None:
            death = math.inf
        elif isinstance(death, bool) or not isinstance(death, (int, float)):
            raise InvalidDocument(f"bar {i} death: expected a number or None, got {death!r}", position=i)
        elif isinstance(death, float) and math.isnan(death):
            raise InvalidDocument(f"bar {i} death must not be NaN", position=i)
        if not birth < death:
            raise EmptyBar(f"bar {i}: birth {birth!r} is not below death {death!r}", position=i)
        raw.append((birth, death))
    raw.sort(key=lambda bd: bd[0])
    raw.sort(key=lambda bd: bd[1], reverse=True)
    essential = [i for i, (_, d) in enumerate(raw, 1) if d == math.inf]
    if not essential:
        raise NoInfiniteBar("a generic barcode carries exactly one infinite bar, found none")
    if len(essential) > 1:
        raise MultipleInfiniteBars(f"found {len(essential)} infinite bars, expected one")
    for j in range(2, len(raw)):
        if raw[j][1] == raw[j - 1][1]:
            raise DuplicateDeath(f"bars {j} and {j + 1} share death {raw[j][1]!r}", position=j + 1)
    b1 = raw[0][0]
    for j, (b, _) in enumerate(raw[1:], 2):
        if not b1 < b:
            raise BarNotContainedInEssential(
                f"bar {j} is born at {b!r}, not strictly after the essential birth {b1!r}", position=j)
    if distinct_births:
        first_at = {}
        for j, (b, _) in enumerate(raw, 1):
            if b in first_at:
                raise DuplicateBirth(f"bars {first_at[b]} and {j} share birth {b!r}", position=j)
            first_at[b] = j
    return _unchecked(Barcode, bars=tuple(Interval(b, d) for b, d in raw))


BAR_ODDITIES = [True, False, math.nan, math.inf, -math.inf, None, "7", 10**400, -(10**400), Level.LOW, Level.HIGH, -0.0]


def _twin(w):
    """An equal float for a small int and an equal int for an integral float; any other value itself."""
    if type(w) is int and abs(w) < 2**53:
        return float(w)
    if type(w) is float and w.is_integer():
        return int(w)
    return w


@st.composite
def near_barcodes(draw):
    """Generic barcodes of mixed int/float heights, mostly as 2-tuples, then a few entries spoiled.

    Births are the lower half of distinct values and deaths the upper half,
    so the draw is valid before the spoils; the essential death is None or
    inf. A spoil puts an odd value at a birth or a death (bool, NaN, ±inf,
    None, str, ±10**400 beside floats, an IntEnum, -0.0); copies another
    bar's birth or death, or the lowest birth, itself or as its int/float
    twin (1 and 1.0 tie); swaps a bar's ends; or repeats a bar. Each bar then
    comes as a tuple, a list, an Interval, or a 1- or 3-tuple.
    """
    n = draw(st.integers(0, 8))
    values = sorted(draw(st.lists(heights, min_size=2 * n, max_size=2 * n, unique=True)))
    bars = [[b, d] for b, d in zip(values[:n], draw(st.permutations(values[n:])))]
    if bars:
        bars[0][1] = draw(st.sampled_from([None, math.inf]))
    bars = draw(st.permutations(bars))
    for _ in range(draw(st.integers(0, 3)) if bars else 0):
        i, j = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
        end = draw(st.integers(0, 1))
        kind = draw(st.sampled_from(["odd", "copy", "copy-lowest", "swap", "repeat"]))
        if kind == "odd":
            bars[i][end] = draw(st.sampled_from(BAR_ODDITIES))
        elif kind.startswith("copy"):
            w, end = (values[0], 0) if kind == "copy-lowest" else (bars[j][draw(st.integers(0, 1))], end)
            bars[i][end] = _twin(w) if draw(st.booleans()) else w
        elif kind == "swap":
            bars[i].reverse()
        else:
            bars.append(list(bars[j]))
    shapes = st.sampled_from(["tuple"] * 6 + ["list", "interval", "1-tuple", "3-tuple"])
    shape = {"tuple": tuple, "list": list, "interval": lambda bd: Interval(*bd),
             "1-tuple": lambda bd: (bd[0],), "3-tuple": lambda bd: (*bd, 0)}
    same = draw(st.sampled_from([None, "tuple", "interval"]))  # one shape for all the bars, or a mix
    return [shape[same or draw(shapes)](bar) for bar in bars]


def _barcode_outcome(validate, bars, **flags):
    try:
        b = validate(iter(bars), **flags)
    except Exception as e:
        return type(e), str(e), getattr(e, "position", None)
    return [(type(x), type(x.birth), repr(x.birth), type(x.death), repr(x.death)) for x in b.bars]


@settings(deadline=None, max_examples=800)
@given(near_barcodes())
def test_barcode_accept_path_matches_reference(bars):
    for distinct_births in (True, False):
        flags = {"distinct_births": distinct_births}
        assert _barcode_outcome(validate_barcode, bars, **flags) == _barcode_outcome(_reference_validate_barcode, bars, **flags)


def _reference_all_functions(minima, maxima):
    """The filter over every interleaving that all_functions replaced, kept as the reference."""
    mins = tuple(sorted(minima))
    maxs = tuple(sorted(maxima))
    out = []
    for pm in permutations(mins):
        for px in permutations(maxs):
            vals = [None] * (len(pm) + len(px))
            vals[0::2] = pm
            vals[1::2] = px
            if all(px[i] > pm[i] and px[i] > pm[i + 1] for i in range(len(px))):
                out.append(validate_critical_sequence(vals))
    out.sort(key=lambda s: s.values)
    return out


@st.composite
def critical_values(draw, most=5):
    """k = 2..most minima and k - 1 maxima, ints and floats mixed, pairwise distinct.

    Half the draws put the k lowest values at the minima, so every
    interleaving alternates; the other half split the values at random, which
    often leaves no alternating arrangement at all.
    """
    k = draw(st.integers(2, most))
    values = draw(st.lists(heights, min_size=2 * k - 1, max_size=2 * k - 1, unique=True))
    if draw(st.booleans()):
        values.sort()
    return values[:k], values[k:]


def _typed(functions):
    return [[(type(v), v) for v in f.values] for f in functions]


def _typed_bars(b):
    return [(type(h), h) for bar in b.bars for h in (bar.birth, bar.death)]


@settings(deadline=None)
@given(critical_values())
def test_all_functions_matches_the_interleaving_filter(split):
    assert _typed(all_functions(*split)) == _typed(_reference_all_functions(*split))


def _generated(generate, split):
    """The typed values generate(*split) returns, or the class and message of its refusal."""
    try:
        return _typed(generate(*split))
    except ValidationError as exc:
        return type(exc), str(exc)


NAN_AND_INF_SPLITS = [
    ([math.nan, 1], [5]), ([1, 2, 3], [math.nan, 9]), ([1, 2, 3], [9, math.nan]),  # NaN orders against nothing
    ([-math.inf, 1], [5]), ([1, 2], [math.inf]), ([-math.inf, 1, 2], [math.inf, 5]),  # the validator refuses these
    ([math.inf, 1], [5]), ([1, 2], [-math.inf]), ([1, 2, 3], [math.inf, -math.inf]),  # no arrangement alternates
    ([-math.inf, 2.0, 1], [3.5, 7]),
]


@pytest.mark.parametrize("split", NAN_AND_INF_SPLITS)
def test_all_functions_matches_the_interleaving_filter_on_values_hypothesis_does_not_draw(split):
    assert _generated(all_functions, split) == _generated(_reference_all_functions, split)


def _grouped(minima, maxima):
    """The members of every group _fibers returns, sorted by values as all_functions sorts them."""
    return sorted((f for fs in _fibers(minima, maxima).values() for f in fs), key=lambda f: f.values)


@pytest.mark.parametrize("split", NAN_AND_INF_SPLITS)
def test_fibers_refuse_and_accept_as_all_functions_does(split):
    # _fibers validates each order's candidates as generated, not in all_functions' sorted order.
    assert _generated(_grouped, split) == _generated(all_functions, split)


EQUAL_VALUES_OF_TWO_TYPES = [([0.0, -0.0], [3]), ([-0.0, 1], [0.0]), ([2, 1], [2.0]), ([2.0, 1, 2], [5, 6])]


@pytest.mark.parametrize("split", EQUAL_VALUES_OF_TWO_TYPES)
def test_all_functions_refuses_equal_values_of_two_types(split):
    # The reference has no up-front check and may find nothing instead, so the refusal itself is pinned.
    assert _generated(all_functions, split) == (DuplicateValue, "minima and maxima must be pairwise distinct overall")


def _reference_by_order(minima, maxima):
    """The fill of the minimum slots from scratch for every order of the maxima, which _by_order's one fill per
    pattern of below sets replaced, kept as the reference."""
    mins = tuple(sorted(minima))
    maxs = tuple(sorted(maxima))
    if len(mins) != len(maxs) + 1 or len(mins) < 2:
        raise CardinalityMismatch(
            f"need one more minimum than maxima and at least 2 minima, got {len(mins)} and {len(maxs)}"
        )
    if len(mins) > MAX_MINIMA:
        raise ScaleCapExceeded(f"brute force is capped at {MAX_MINIMA} minima, got {len(mins)}")
    pool = list(mins) + list(maxs)
    if len(set(pool)) != len(pool):
        raise DuplicateValue("minima and maxima must be pairwise distinct overall")
    for px in permutations(maxs):
        beside = list(zip((px[0],) + px, px + (px[-1],)))
        order = sorted(range(len(mins)), key=lambda j: min(beside[j]))
        placed = [()]
        for left, right in map(beside.__getitem__, order):
            below = [x for x in mins if x < left and x < right]
            placed = [p + (x,) for p in placed for x in below if x not in p]
        at = [order.index(i // 2) if i % 2 == 0 else len(mins) + i // 2 for i in range(len(pool))]
        yield px, list(map(itemgetter(*at), (p + px for p in placed)))


def _orders(generate, split):
    """Each order generate(*split) yields as the ids of its px and of its rows' values, or the class and message of
    its refusal: both place the very objects they were given."""
    try:
        return [[tuple(map(id, row)) for row in (px, *rows)] for px, rows in generate(*split)]
    except ValidationError as exc:
        return type(exc), str(exc)


@settings(deadline=None)
@given(critical_values(most=6))
def test_by_order_matches_the_fill_of_every_order(split):
    assert _orders(_by_order, split) == _orders(_reference_by_order, split)


@pytest.mark.parametrize("split", NAN_AND_INF_SPLITS + EQUAL_VALUES_OF_TWO_TYPES)
def test_by_order_matches_the_fill_of_every_order_on_values_hypothesis_does_not_draw(split):
    assert _orders(_by_order, split) == _orders(_reference_by_order, split)


@settings(deadline=None)
@given(critical_values())
def test_fibers_match_grouping_by_sweep_barcode(split):
    expected = {}
    for f in all_functions(*split):
        expected.setdefault(barcode_of_sequence(f)[0], []).append(f)
    groups = _fibers(*split)
    # The groups come in no particular order: compare them as a mapping from typed bars to sorted typed members.
    def typed(grouped):
        return {tuple(_typed_bars(b)): _typed(sorted(fs, key=lambda f: f.values)) for b, fs in grouped.items()}

    assert len(groups) == len(expected) and typed(groups) == typed(expected)


@settings(deadline=None)
@given(critical_values())
def test_births_match_the_sweep(split):
    orders = list(_by_order(*split))
    deaths = sorted(orders[0][0])
    rank = {z: r for r, z in enumerate(deaths)}
    for px, raws in orders:
        births = _births(px, rank, tuple(zip(*raws))) if raws else []
        for f, born in zip(raws, births, strict=True):
            pairs = [(type(h), h) for pair in (*zip(born, deaths), (min(f[0::2]), math.inf)) for h in pair]
            # the sweep's bars by ascending death, the essential bar last
            bars = reversed(barcode_of_sequence(validate_critical_sequence(f))[0].bars)
            assert pairs == [(type(h), h) for bar in bars for h in (bar.birth, bar.death)]


def _reference_enumerate_functions(b):
    """The product loop that the level-by-level build replaced, kept as the reference."""
    check_function_realizable(b)
    choices = [
        [(b.bars[k - 1].birth, right, pair)
         for k in parents
         for right, pair in ((0, (bar.birth, bar.death)), (1, (bar.death, bar.birth)))]
        for bar, parents in zip(b.bars[1:], containers(b)[1:])
    ]
    out = []
    for combo in product(*choices):
        seq = [b.bars[0].birth]
        for parent_birth, right, pair in combo:
            i = seq.index(parent_birth) + right
            seq[i:i] = pair
        out.append(tuple(seq))
    out.sort()
    return [validate_critical_sequence(seq) for seq in out]


@st.composite
def realizable_barcodes(draw):
    """Generic barcodes with distinct births and N = 2..6 bars, ints and floats mixed.

    The lowest of 2N - 1 distinct heights is the essential birth; the others
    are paired at random into finite bars, so every bar lies inside the
    essential one and no height repeats.
    """
    n = draw(st.integers(2, 6))
    values = sorted(draw(st.lists(heights, min_size=2 * n - 1, max_size=2 * n - 1, unique=True)))
    rest = draw(st.permutations(values[1:]))
    return validate_barcode([(values[0], None)] + [tuple(sorted(rest[i:i + 2])) for i in range(0, len(rest), 2)])


@settings(deadline=None)
@given(realizable_barcodes())
def test_enumerate_functions_matches_the_product_loop(b):
    assert _typed(enumerate_functions(b)) == _typed(_reference_enumerate_functions(b))


def _reference_plans(b, chiral):
    """Every attachment plan by its definition: per finite bar a containing bar, parent by parent, L before R."""
    sides = ("L", "R") if chiral else (None,)
    per_bar = [[(k, s) for k in sorted(containing_set(b, j)) for s in sides] for j in b.bars[1:]]
    return [AttachmentPlan(tuple(k for k, _ in combo), tuple(s for _, s in combo) if chiral else None)
            for combo in product(*per_bar)]


def _reference_materialize(b, plan):
    """The chain builder that the one in-order builder replaced, kept as the reference (valid plans only)."""
    hanging = {k: [] for k in range(1, b.N + 1)}
    for i, k in enumerate(plan.parents):
        hanging[k].append((i + 2, plan.sides[i] if plan.chiral else None))
    built = {}
    # A bar dies below its parent, so it has the larger index: building the
    # youngest bar's chain first finds every attached chain already built.
    for k in range(b.N, 0, -1):
        node = (ChiralMergeTree if plan.chiral else MergeTree)(b.bars[k - 1].birth)
        for j, side in reversed(hanging[k]):  # up the chain, lowest death first
            death, attached = b.bars[j - 1].death, built.pop(j)
            if not plan.chiral:
                node = MergeTree(death, (node, attached))
            elif side == "L":
                node = ChiralMergeTree(death, attached, node)
            else:
                node = ChiralMergeTree(death, node, attached)
        built[k] = node
    return built[1]


def _reprs(trees):
    return [repr(t) for t in trees]


@settings(deadline=None)
@given(tied_barcodes())
def test_materialize_matches_the_chain_builder(b):
    for chiral in (False, True):
        plans = attachment_plans(b, chiral=chiral)
        assert plans == _reference_plans(b, chiral)
        for plan in plans:
            tree, expected = materialize(b, plan), _reference_materialize(b, plan)
            assert tree == expected and repr(tree) == repr(expected)


@settings(deadline=None)
@given(tied_barcodes())
def test_tree_enumerators_match_the_chain_builder(b):
    for enumerate_trees, chiral in ((enumerate_merge_trees, False), (enumerate_cmts, True)):
        expected = sorted((_reference_materialize(b, p) for p in _reference_plans(b, chiral)), key=canonical_form)
        trees = enumerate_trees(b)
        assert trees == expected and _reprs(trees) == _reprs(expected)
        assert len(trees) == (count_cmts(b) if chiral else count_merge_trees(b))


@settings(deadline=None)
@given(tied_barcodes())
def test_built_trees_come_in_plan_order_with_their_canonical_forms(b):
    # Before the enumerators sort, the i-th tree is the i-th plan's, and each carries its own encoding.
    for chiral in (False, True):
        built = _trees(b, _choices(b, chiral=chiral), chiral=chiral)
        expected = [_reference_materialize(b, p) for p in _reference_plans(b, chiral)]
        trees = [t for t, _, _ in built]
        assert trees == expected and _reprs(trees) == _reprs(expected)
        assert [(h, code) for _, h, code in built] == [(t.height, canonical_form(t)) for t in trees]


@settings(deadline=None)
@given(tied_barcodes())
def test_dedup_is_the_canonical_form_of_each_forgotten_tree(b):
    # Built as merge trees, the chiral plans give the forgotten chiral trees, and each reads its own form.
    cmts = [t for t, _, _ in _trees(b, _choices(b, chiral=True), chiral=True)]
    built = _trees(b, _choices(b, chiral=True), chiral=False)
    mts = [t for t, _, _ in built]
    forgotten = [forget_chirality(t) for t in cmts]
    assert mts == forgotten and _reprs(mts) == _reprs(forgotten)
    expected = [canonical_form(t) for t in mts]
    assert [code for _, _, code in built] == expected
    assert [h for _, h, _ in built] == [t.height for t in cmts]
    assert sorted(cmts, key=canonical_form) == enumerate_cmts(b)
    try:
        check_function_realizable(b)  # exactly the barcodes verify accepts, up to its cap
    except ValidationError:
        return
    if b.N <= 5:  # verify's brute force is slow at six bars
        assert verify(b)["dedup_mt_from_cmts"] == len(set(expected))


# The tree classes as the dataclass decorator generates them: ==, hash and repr recurse.
ReferenceMergeTree = make_dataclass(
    "MergeTree", [("height", object), ("children", tuple, field(default=()))], frozen=True)
ReferenceChiralMergeTree = make_dataclass(
    "ChiralMergeTree", [("height", object), ("left", object, field(default=None)),
                        ("right", object, field(default=None))], frozen=True)


def _reference_tree(t):
    if isinstance(t, MergeTree):
        return ReferenceMergeTree(t.height, tuple(map(_reference_tree, t.children)))
    return ReferenceChiralMergeTree(t.height, *map(_reference_tree, t.children))


@st.composite
def small_trees(draw):
    """Trees of both kinds on at most 7 vertices with heights 0..6, each an int or a float, so equal trees recur."""
    values = draw(st.lists(st.integers(0, 6).flatmap(lambda v: st.sampled_from([v, float(v)])),
                           min_size=1, max_size=7, unique=True))
    if len(values) < 3:
        t = ChiralMergeTree(values[0])
    else:
        t = merge_tree_of_sequence(validate_critical_sequence(_wiggle(values[: len(values) - 1 + len(values) % 2])))
    return forget_chirality(t) if draw(st.booleans()) else t


@settings(deadline=None, max_examples=300)
@given(small_trees(), small_trees())
def test_tree_eq_hash_repr_match_the_dataclass_methods(t1, t2):
    r1, r2 = _reference_tree(t1), _reference_tree(t2)
    assert repr(t1) == repr(r1)
    assert (t1 == t2) == (r1 == r2)
    assert (t1 != t2) == (r1 != r2)
    if t1 == t2:
        assert hash(t1) == hash(t2)
    copy = tree_from_dict(tree_to_dict(t1))  # a lone leaf decodes as chiral whatever its kind
    assert (copy == t1) == (type(copy) is type(t1))
    if type(copy) is type(t1):
        assert hash(copy) == hash(t1) and repr(copy) == repr(t1)
