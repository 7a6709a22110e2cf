"""Domain values: critical sequences, barcodes, and merge trees.

Heights are whatever numbers the input carried (int or float). They are only
ever copied and compared, never combined arithmetically, so validation and
canonical forms are exact. An infinite death is stored as math.inf and
serialized as JSON null.
"""
from __future__ import annotations

import functools
import gc
import math
import operator
from dataclasses import dataclass
from itertools import chain, repeat
from typing import Callable, Iterable, Iterator, Sequence, Union

Height = Union[int, float]


def _gc_paused(build: Callable) -> Callable:
    """build, with the cyclic collector off while it runs if it was on, and on again after it returns or raises."""
    @functools.wraps(build)
    def paused(*args, **kwargs):
        if not gc.isenabled():  # off by the caller, or by an outer or concurrent paused call: left off
            return build(*args, **kwargs)
        gc.disable()
        try:
            return build(*args, **kwargs)
        finally:
            gc.enable()
    return paused


class ValidationError(ValueError):
    """Base for every input-contract violation raised by this package.

    When the violation has a location, `position` holds the 1-based index of
    the first offending entry.
    """

    def __init__(self, message: str, *, position: int | None = None):
        super().__init__(message)
        self.position = position


class EvenLength(ValidationError):
    pass


class TooShort(ValidationError):
    pass


class NotAlternating(ValidationError):
    pass


class DuplicateValue(ValidationError):
    pass


class Plateau(ValidationError):
    pass


class BoundaryNotMin(ValidationError):
    pass


class NoInfiniteBar(ValidationError):
    pass


class MultipleInfiniteBars(ValidationError):
    pass


class DuplicateDeath(ValidationError):
    pass


class BarNotContainedInEssential(ValidationError):
    pass


class DuplicateBirth(ValidationError):
    pass


class EmptyBar(ValidationError):
    pass


class KindMismatch(ValidationError):
    pass


class InvalidDocument(ValidationError):
    """Malformed JSON document: wrong shape, wrong key, a non-number height, or past json's limits, read or written."""


class InvalidTree(ValidationError):
    """Structural tree violation: bad arity or a child at or above its parent."""


def _require_height(v: object, *, where: str, position: int | None = None) -> Height:
    # bool is an int subclass; JSON true/false must not sneak in as heights.
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        raise InvalidDocument(f"{where}: expected a number, got {v!r}", position=position)
    if isinstance(v, float) and not math.isfinite(v):
        raise InvalidDocument(f"{where}: heights must be finite, got {v!r}", position=position)
    return v


def height_token(h: Height) -> str:
    """Text form of a height such that equal heights share one token.

    Integral floats print as ints (the conversion is value-exact), so 7 and
    7.0 encode identically inside canonical forms.
    """
    if isinstance(h, float) and h.is_integer():
        return str(int(h))
    try:
        return repr(h)
    except ValueError:  # an int past sys.get_int_max_str_digits(), which no float equals
        return hex(h)


# ---------------------------------------------------------------------------
# critical sequences


@dataclass(frozen=True, slots=True)
class CriticalSequence:
    """Alternating critical values y_1..y_{2k-1} of a function on [0, 1].

    Odd positions (1-based) are the local minima, even positions the local
    maxima; the two boundary values are minima. This is the canonical
    representative of a function up to orientation-preserving
    reparametrization of the interval.
    """

    values: tuple[Height, ...]

    def __post_init__(self):
        object.__setattr__(self, "values", validate_critical_sequence(self.values).values)


def validate_critical_sequence(values: Sequence[Height]) -> CriticalSequence:
    """Check the alternation contract and wrap the values.

    Raises InvalidDocument, EvenLength, TooShort, DuplicateValue or
    NotAlternating, in that order of precedence; InvalidDocument,
    DuplicateValue and NotAlternating carry the first offending 1-based
    position. Valid plain int/float input passes one conjunction of whole-tuple
    builtin checks; anything else takes the per-position diagnosis, which
    raises the first failure or accepts (int subclasses, huge ints).
    """
    vals = tuple(values)
    n = len(vals)
    types = set(map(type, vals))
    try:
        # Plain, pairwise distinct, NaN-free values, so `not a < b` means a > b: the `<` of
        # each neighbour pair against the rise/fall pattern checks alternation at any length.
        if (n % 2 and n >= 3 and types <= {int, float}
                and (float not in types or all(map(math.isfinite, vals)))
                and len(set(vals)) == n
                and list(map(operator.lt, vals, vals[1:])) == [True, False] * (n // 2)):
            return _wrap_all([vals])[0]
    except OverflowError:  # an int too large for a float
        pass
    return _diagnose(vals, n)


def _diagnose(vals: tuple, n: int) -> CriticalSequence:
    for i, v in enumerate(vals, 1):
        _require_height(v, where="critical value", position=i)
    if n % 2 == 0:
        raise EvenLength(f"need an odd number of critical values, got {n}")
    if n < 3:
        raise TooShort(f"need at least 3 critical values, got {n}")
    first_at: dict[Height, int] = {}
    for i, v in enumerate(vals, 1):
        if v in first_at:
            raise DuplicateValue(f"value {v!r} at position {i} repeats position {first_at[v]}", position=i)
        first_at[v] = i
    for i in range(2, n + 1):
        prev, cur = vals[i - 2], vals[i - 1]
        if not (prev < cur if i % 2 == 0 else prev > cur):
            raise NotAlternating(f"position {i} is not a local {'maximum' if i % 2 == 0 else 'minimum'}", position=i)
    return _wrap_all([vals])[0]


def _validate_rows(rows: list[tuple], columns: tuple[tuple, ...]) -> list[CriticalSequence]:
    """list(map(validate_critical_sequence, rows)) for tuples, its fast path run once over their columns, zip(*rows)."""
    n = len(columns)
    try:
        if (n % 2 and n >= 3
                and (types := set(map(type, chain.from_iterable(columns)))) <= {int, float}
                and set(map(len, rows)) == set(map(len, map(set, rows))) == {n}
                and (float not in types or all(map(math.isfinite, chain.from_iterable(columns))))
                and all(map(all, map(map, (operator.lt, operator.gt) * (n // 2), columns, columns[1:])))):
            return _wrap_all(rows)
    except OverflowError:  # an int too large for a float
        pass
    return list(map(validate_critical_sequence, rows))


# Sets the slot as the frozen dataclass's generated __init__ does, without the call, on valid tuples.
def _wrap_all(rows: list[tuple]) -> list[CriticalSequence]:
    out = list(map(object.__new__, repeat(CriticalSequence, len(rows))))
    any(map(CriticalSequence.values.__set__, out, rows))  # __set__ returns None, so any runs it on every pair
    return out


def reduce_breakpoints(points: Sequence[tuple[Height, Height]]) -> CriticalSequence:
    """Collapse a piecewise-linear graph on [0, 1] to its critical sequence.

    `points` are (x, y) breakpoints with x strictly increasing from 0 to 1.
    Interior breakpoints that are not strict local extrema are dropped; the
    result must then pass validate_critical_sequence. Plateaus (equal adjacent
    y) and boundary points that are local maxima are hard errors, not
    smoothed.
    """
    pts = list(points)
    if len(pts) < 2:
        raise InvalidDocument(f"need at least 2 breakpoints, got {len(pts)}")
    xs: list[Height] = []
    ys: list[Height] = []
    for i, p in enumerate(pts, 1):
        try:
            x, y = p
        except (TypeError, ValueError):
            raise InvalidDocument(f"breakpoint {i} is not an (x, y) pair", position=i) from None
        xs.append(_require_height(x, where="breakpoint x", position=i))
        ys.append(_require_height(y, where="breakpoint y", position=i))
    if xs[0] != 0 or xs[-1] != 1:
        raise InvalidDocument("breakpoints must start at x = 0 and end at x = 1")
    for i in range(1, len(xs)):
        if not xs[i - 1] < xs[i]:
            raise InvalidDocument(f"x values must be strictly increasing (position {i + 1})", position=i + 1)
    for i in range(1, len(ys)):
        if ys[i - 1] == ys[i]:
            raise Plateau(f"equal y at breakpoints {i} and {i + 1}", position=i + 1)
    reduced = [ys[0]]
    for prev, y, nxt in zip(ys, ys[1:], ys[2:]):
        if (y < prev) != (nxt < y):  # strict local extremum
            reduced.append(y)
    reduced.append(ys[-1])
    if not reduced[0] < reduced[1]:
        raise BoundaryNotMin("left endpoint is a local maximum", position=1)
    if not reduced[-1] < reduced[-2]:
        raise BoundaryNotMin("right endpoint is a local maximum", position=len(reduced))
    return validate_critical_sequence(reduced)


# ---------------------------------------------------------------------------
# barcodes


@dataclass(frozen=True, slots=True)
class Interval:
    """Half-open bar [birth, death); death == math.inf marks the essential bar."""

    birth: Height
    death: Height

    @property
    def is_essential(self) -> bool:
        return self.death == math.inf


@dataclass(frozen=True)
class Barcode:
    """Sorted generic degree-0 barcode, as validate_barcode builds it: bar j is bars[j - 1], bar 1 the essential one."""

    bars: tuple[Interval, ...]

    def __post_init__(self):
        if validate_barcode(self.bars).bars != self.bars:
            raise InvalidDocument("bars must be validate_barcode's Intervals, in its order")

    @property
    def N(self) -> int:
        return len(self.bars)

    @property
    def births(self) -> tuple[Height, ...]:
        return tuple(b.birth for b in self.bars)

    @property
    def finite_deaths(self) -> tuple[Height, ...]:
        return tuple(b.death for b in self.bars[1:])


BarLike = Union[Interval, tuple]
_BIRTH, _DEATH = operator.itemgetter(0), operator.itemgetter(1)


def _unpack_bar(bar: BarLike, i: int) -> tuple[Height, Height]:
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
    return birth, death


def validate_barcode(bars: Iterable[BarLike], *, distinct_births: bool = False) -> Barcode:
    """Sort bars canonically and check the hypotheses of the counting results.

    Every barcode must be generic, as the paper's counts assume: exactly one
    infinite bar, pairwise distinct finite deaths, every finite bar strictly
    inside the essential one. There is no switch to skip this. With
    `distinct_births` additionally: pairwise distinct births (needed to count
    functions rather than trees). Valid 2-tuples or Intervals of int/float
    heights pass one conjunction of whole-list checks; the rest takes the
    per-bar diagnosis, which raises, in this order, InvalidDocument or
    EmptyBar at the first bad bar, NoInfiniteBar, MultipleInfiniteBars,
    DuplicateDeath, BarNotContainedInEssential, DuplicateBirth.
    """
    bars = [(bar.birth, bar.death) if isinstance(bar, Interval) else bar for bar in bars]
    if set(map(type, bars)) == {tuple} and set(map(len, bars)) == {2}:
        births = [b for b, _ in bars]
        deaths = [math.inf if d is None else d for _, d in bars]
        # Between plain numbers, b < d is False at any NaN and at a +inf birth; min() catches -inf.
        # Generic: distinct deaths, and the bar alone born lowest is the infinite one.
        if (set(map(type, births)) <= {int, float} and set(map(type, deaths)) <= {int, float}
                and all(map(operator.lt, births, deaths)) and -math.inf < (low := min(births))
                and len(set(deaths)) == len(bars) and births.count(low) == 1
                and deaths[births.index(low)] == math.inf
                and (not distinct_births or len(set(births)) == len(bars))):
            # The deaths are pairwise distinct, so the death order alone is the diagnosis's two-pass order.
            return _intervals(sorted(zip(births, deaths), key=_DEATH, reverse=True))
    return _diagnose_barcode(bars, distinct_births)


def _diagnose_barcode(bars: list, distinct_births: bool) -> Barcode:
    raw: list[tuple[Height, Height]] = []
    for i, bar in enumerate(bars, 1):
        birth, death = _unpack_bar(bar, i)
        if not birth < death:
            raise EmptyBar(f"bar {i}: birth {birth!r} is not below death {death!r}", position=i)
        raw.append((birth, death))
    # Stable two-pass sort: birth ascending, then death descending. The
    # essential bar (death inf) lands first without arithmetic on heights.
    raw.sort(key=_BIRTH)
    raw.sort(key=_DEATH, reverse=True)
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
                f"bar {j} is born at {b!r}, not strictly after the essential birth {b1!r}",
                position=j,
            )
    if distinct_births:
        first_at: dict[Height, int] = {}
        for j, (b, _) in enumerate(raw, 1):
            if b in first_at:
                raise DuplicateBirth(
                    f"bars {first_at[b]} and {j} share birth {b!r}", position=j
                )
            first_at[b] = j
    return _intervals(raw)


def _intervals(raw: list, _new=object.__new__, _birth=Interval.birth.__set__,
               _death=Interval.death.__set__) -> Barcode:
    # Sets the fields as the frozen dataclasses' generated __init__ do, without the calls or their checks.
    bars = []
    for b, d in raw:
        bars.append(bar := _new(Interval))
        _birth(bar, b)
        _death(bar, d)
    barcode = _new(Barcode)
    object.__setattr__(barcode, "bars", tuple(bars))
    return barcode


# ---------------------------------------------------------------------------
# merge trees


class _Walks:
    """Pre-order walks, ==, hash and repr shared by both tree kinds, through their `children`.

    The dataclass-generated __eq__, __hash__ and __repr__ recurse once per
    level; these do not, so they work at any depth.
    """

    __slots__ = ()

    def vertices(self) -> Iterator["Tree"]:
        stack = [self]
        while stack:
            node = stack.pop()
            yield node
            stack.extend(reversed(node.children))

    def _listing(self) -> Iterator[tuple]:
        """(class, height, leaf?) of every vertex in pre-order; no listing is a proper prefix of another."""
        return ((v.__class__, v.height, v.is_leaf) for v in self.vertices())

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return all(map(operator.eq, self._listing(), other._listing()))

    def __hash__(self) -> int:
        return hash(tuple(self._listing()))

    def __repr__(self) -> str:
        """The dataclass text, as one token list joined once; nested f-strings would be quadratic in depth."""
        out: list[str] = []
        stack: list = [self]  # vertices still to print, and the text that goes between and after subtrees
        while stack:
            v = stack.pop()
            if type(v) is str:
                out.append(v)
                continue
            leaf_tail, opening, middle, closing = v._REPR
            out += (v.__class__.__qualname__, "(height=", repr(v.height), leaf_tail if v.is_leaf else opening)
            if not v.is_leaf:
                stack += (closing, v.children[1], middle, v.children[0])
        return "".join(out)


@dataclass(frozen=True, eq=False, repr=False, slots=True, init=False)
class MergeTree(_Walks):
    """Rooted full binary merge tree; the order of `children` carries no meaning.

    The root's unbounded upward edge is implicit. Every vertex sits strictly
    above both children; construction from a function keeps all vertex heights
    pairwise distinct.
    """

    height: Height
    children: tuple["MergeTree", ...] = ()
    _REPR = (", children=())", ", children=(", ", ", "))")  # leaf tail; around and between children

    def __init__(self, height: Height, children: tuple["MergeTree", ...] = ()):
        _set_height(self, height)
        _set_children(self, children)
        self.__post_init__()

    def __post_init__(self):
        if len(self.children) not in (0, 2):
            raise InvalidTree(f"a merge tree vertex has 0 or 2 children, got {len(self.children)}")
        for c in self.children:
            if not c.height < self.height:
                raise InvalidTree(
                    f"child at height {c.height!r} not strictly below parent {self.height!r}"
                )

    @property
    def is_leaf(self) -> bool:
        return not self.children


@dataclass(frozen=True, eq=False, repr=False, slots=True, init=False)
class ChiralMergeTree(_Walks):
    """Merge tree with a left/right order on the children of every vertex."""

    height: Height
    left: "ChiralMergeTree | None" = None
    right: "ChiralMergeTree | None" = None
    _REPR = (", left=None, right=None)", ", left=", ", right=", ")")

    def __init__(self, height: Height, left: "ChiralMergeTree | None" = None, right: "ChiralMergeTree | None" = None):
        _set_chiral_height(self, height)
        _set_left(self, left)
        _set_right(self, right)
        self.__post_init__()

    def __post_init__(self):
        if (self.left is None) != (self.right is None):
            raise InvalidTree("a chiral vertex has both children or neither")
        for c in (self.left, self.right):
            if c is not None and not c.height < self.height:
                raise InvalidTree(
                    f"child at height {c.height!r} not strictly below parent {self.height!r}"
                )

    @property
    def is_leaf(self) -> bool:
        return self.left is None

    @property
    def children(self) -> tuple["ChiralMergeTree", ...]:
        """() for a leaf, else (left, right)."""
        return () if self.left is None else (self.left, self.right)


# The trees' __init__ set the slots as the frozen dataclass's generated one would, then check.
_set_height, _set_children = MergeTree.height.__set__, MergeTree.children.__set__
_set_chiral_height, _set_left, _set_right = (
    ChiralMergeTree.height.__set__, ChiralMergeTree.left.__set__, ChiralMergeTree.right.__set__)
Tree = Union[MergeTree, ChiralMergeTree]


def _fold(root: object, kids: Callable, leaf: Callable, join: Callable):
    """Fold a binary tree bottom-up with an explicit stack, so at any depth.

    The order is that of recursion: vertices are entered in pre-order, left
    subtree first. On entry kids(v) gives () for a leaf, whose value is then
    leaf(v), or (left, right); once both subtrees are done the vertex's value
    is join(v, left value, right value). Returns the root's value.
    """
    done: list = []  # values of the finished subtrees, the right one on top
    stack = [root]  # join itself marks a vertex whose two subtrees are done
    while stack:
        v = stack.pop()
        if v is join:
            right = done.pop()
            done[-1] = join(stack.pop(), done[-1], right)
            continue
        children = kids(v)
        if children:
            left, right = children
            stack += (v, join, right, left)
        else:
            done.append(leaf(v))
    return done[0]


_children = operator.attrgetter("children")


def _encoding(height: Height, chiral: bool, first: tuple = (), second: tuple = ()) -> tuple[Height, str]:
    """(height, canonical form) of a vertex from its children's; unordered ones go smaller first."""
    if not first:
        return height, f"({height_token(height)})"
    if not chiral and second < first:
        first, second = second, first
    return height, f"({height_token(height)} {first[1]} {second[1]})"


def canonical_form(tree: Tree) -> str:
    """Nested parenthesized encoding; equal encodings iff isomorphic trees.

    Chiral trees encode verbatim as "(h left right)". Unordered trees sort the
    two child subtrees (by height, then by encoding), so any representation of
    the same tree encodes identically. A lone leaf at height 5 encodes "(5)".
    An int past the int-to-str digit limit (4,300 digits by default) encodes as its hex().
    """
    if not isinstance(tree, (MergeTree, ChiralMergeTree)):
        raise KindMismatch(f"not a merge tree: {tree!r}")
    chiral = isinstance(tree, ChiralMergeTree)
    return _fold(tree, _children, lambda v: _encoding(v.height, chiral),
                 lambda v, first, second: _encoding(v.height, chiral, first, second))[1]


# ---------------------------------------------------------------------------
# JSON documents


def sequence_from_dict(doc: object) -> CriticalSequence:
    """Decode {"critical_values": [...]}, or the {"breakpoints": [[x, y], ...]} graph reconstruct writes."""
    if not isinstance(doc, dict) or len(doc) != 1 or not doc.keys() <= {"critical_values", "breakpoints"}:
        raise InvalidDocument('expected an object with the single key "critical_values" or "breakpoints"')
    (key, vals), = doc.items()
    if not isinstance(vals, list):
        raise InvalidDocument(f'"{key}" must be an array')
    return validate_critical_sequence(vals) if key == "critical_values" else reduce_breakpoints(vals)


def barcode_to_dict(b: Barcode) -> dict:
    return {
        "bars": [
            {"birth": bar.birth, "death": None if bar.is_essential else bar.death}
            for bar in b.bars
        ]
    }


def barcode_from_dict(doc: object) -> Barcode:
    if not isinstance(doc, dict) or set(doc) != {"bars"}:
        raise InvalidDocument('expected an object with the single key "bars"')
    bars = doc["bars"]
    if not isinstance(bars, list):
        raise InvalidDocument('"bars" must be an array')
    pairs = []
    for i, bar in enumerate(bars, 1):
        if not isinstance(bar, dict) or set(bar) != {"birth", "death"}:
            raise InvalidDocument(f'bar {i} must be an object with keys "birth" and "death"', position=i)
        pairs.append((bar["birth"], bar["death"]))
    return validate_barcode(pairs)


@_gc_paused
def tree_to_dict(t: Tree) -> dict:
    if isinstance(t, ChiralMergeTree):
        join = lambda v, left, right: {"height": v.height, "left": left, "right": right}
    elif isinstance(t, MergeTree):
        join = lambda v, left, right: {"height": v.height, "children": [left, right]}
    else:
        raise KindMismatch(f"not a merge tree: {t!r}")
    return _fold(t, _children, lambda v: {"height": v.height}, join)


@_gc_paused
def tree_from_dict(doc: object) -> Tree:
    """Decode a tree document; the root's keys pick the kind.

    A root with "children" decodes as an unordered tree, any other root
    (including a single leaf, where the kinds coincide) as a chiral one. A
    vertex carrying the other kind's keys is an unknown-key InvalidDocument,
    so a document mixing the kinds is refused. Structural violations raise
    InvalidTree, shape problems InvalidDocument.
    """
    if isinstance(doc, dict) and "children" in doc:
        return _fold(doc, _unordered_kids, lambda d: MergeTree(d["height"]),
                     lambda d, left, right: MergeTree(d["height"], (left, right)))
    return _fold(doc, _chiral_kids, lambda d: ChiralMergeTree(d["height"]),
                 lambda d, left, right: ChiralMergeTree(d["height"], left, right))


def _check_vertex(doc: object, allowed: set[str]) -> None:
    if not isinstance(doc, dict):
        raise InvalidDocument(f"tree vertex must be an object, got {doc!r}")
    if "height" not in doc:
        raise InvalidDocument('tree vertex is missing "height"')
    extra = set(doc) - allowed
    if extra:
        raise InvalidDocument(f"tree vertex carries unknown keys {sorted(extra)}")
    _require_height(doc["height"], where="tree height")


def _chiral_kids(doc: object) -> tuple:
    _check_vertex(doc, {"height", "left", "right"})
    if ("left" in doc) != ("right" in doc):
        raise InvalidDocument('chiral vertex must carry both "left" and "right" or neither')
    return (doc["left"], doc["right"]) if "left" in doc else ()


def _unordered_kids(doc: object) -> list:
    _check_vertex(doc, {"height", "children"})
    kids = doc.get("children", [])
    if not isinstance(kids, list):
        raise InvalidDocument('"children" must be an array')
    if len(kids) not in (0, 2):
        raise InvalidDocument(f"a vertex has 0 or 2 children, got {len(kids)}")
    return kids
