"""Domain values: critical sequences, barcodes, and merge trees.

Heights are whatever numbers the input carried (int or float). They are only
ever copied and compared, never combined arithmetically, so validation and
canonical forms are exact. An infinite death is stored as math.inf and
serialized as JSON null.
"""
from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence, Union

Height = Union[int, float]


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
    """Malformed JSON document: wrong shape, wrong key, or a non-number height."""


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
    return repr(h)


# ---------------------------------------------------------------------------
# critical sequences


@dataclass(frozen=True)
class CriticalSequence:
    """Alternating critical values y_1..y_{2k-1} of a function on [0, 1].

    Odd positions (1-based) are the local minima, even positions the local
    maxima; the two boundary values are minima. This is the canonical
    representative of a function up to orientation-preserving
    reparametrization of the interval.
    """

    values: tuple[Height, ...]

    @property
    def k(self) -> int:
        """Number of local minima."""
        return (len(self.values) + 1) // 2

    @property
    def minima(self) -> tuple[Height, ...]:
        return self.values[0::2]

    @property
    def maxima(self) -> tuple[Height, ...]:
        return self.values[1::2]

    def __len__(self) -> int:
        return len(self.values)


def validate_critical_sequence(values: Sequence[Height]) -> CriticalSequence:
    """Check the alternation contract and wrap the values.

    Raises InvalidDocument, EvenLength, TooShort, DuplicateValue or
    NotAlternating, in that order of precedence; InvalidDocument,
    DuplicateValue and NotAlternating carry the first offending 1-based
    position. Each check runs over the whole tuple with builtins; the
    per-position loop that locates the failure runs only when a check fails.
    """
    vals = tuple(values)
    types = set(map(type, vals))
    try:
        plain = types <= {int, float} and (float not in types or all(map(math.isfinite, vals)))
    except OverflowError:  # an int too large for a float; the loop accepts it
        plain = False
    if not plain:  # int subclasses also take the loop, which accepts them
        for i, v in enumerate(vals, 1):
            _require_height(v, where="critical value", position=i)
    n = len(vals)
    if n % 2 == 0:
        raise EvenLength(f"need an odd number of critical values, got {n}")
    if n < 3:
        raise TooShort(f"need at least 3 critical values, got {n}")
    if len(set(vals)) != n:
        first_at: dict[Height, int] = {}
        for i, v in enumerate(vals, 1):
            if v in first_at:
                raise DuplicateValue(
                    f"value {v!r} at position {i} repeats position {first_at[v]}", position=i
                )
            first_at[v] = i
    if not (all(map(operator.lt, vals[0::2], vals[1::2]))
            and all(map(operator.gt, vals[1::2], vals[2::2]))):
        for i in range(2, n + 1):
            prev, cur = vals[i - 2], vals[i - 1]
            if i % 2 == 0 and not prev < cur:
                raise NotAlternating(f"position {i} is not a local maximum", position=i)
            if i % 2 == 1 and not prev > cur:
                raise NotAlternating(f"position {i} is not a local minimum", position=i)
    return CriticalSequence(vals)


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
    for i in range(1, len(ys) - 1):
        down_in = ys[i] < ys[i - 1]
        down_out = ys[i + 1] < ys[i]
        if down_in != down_out:  # strict local extremum
            reduced.append(ys[i])
    reduced.append(ys[-1])
    if not reduced[0] < reduced[1]:
        raise BoundaryNotMin("left endpoint is a local maximum", position=1)
    if not reduced[-1] < reduced[-2]:
        raise BoundaryNotMin("right endpoint is a local maximum", position=len(reduced))
    return validate_critical_sequence(reduced)


# ---------------------------------------------------------------------------
# barcodes


@dataclass(frozen=True)
class Interval:
    """Half-open bar [birth, death); death == math.inf marks the essential bar.

    `index` is the 1-based position after canonical sorting (essential bar
    first, then finite bars by descending death).
    """

    birth: Height
    death: Height
    index: int = 0

    @property
    def is_essential(self) -> bool:
        return self.death == math.inf

    def strictly_contains(self, other: "Interval") -> bool:
        return (
            self.birth <= other.birth
            and other.death <= self.death
            and (self.birth, self.death) != (other.birth, other.death)
        )


@dataclass(frozen=True)
class Barcode:
    """Sorted degree-0 barcode; bars[0] is the essential bar when generic."""

    bars: tuple[Interval, ...]

    @property
    def N(self) -> int:
        return len(self.bars)

    @property
    def essential(self) -> Interval:
        return self.bars[0]

    @property
    def births(self) -> tuple[Height, ...]:
        return tuple(b.birth for b in self.bars)

    @property
    def finite_deaths(self) -> tuple[Height, ...]:
        return tuple(b.death for b in self.bars if not b.is_essential)


BarLike = Union[Interval, tuple]


def _unpack_bar(bar: BarLike, i: int) -> tuple[Height, Height]:
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
    return birth, death


def validate_barcode(
    bars: Iterable[BarLike], *, generic: bool = True, distinct_births: bool = False
) -> Barcode:
    """Sort bars canonically and check the hypotheses of the counting results.

    With `generic` (the default): exactly one infinite bar, pairwise distinct
    finite deaths, every finite bar strictly inside the essential one. With
    `distinct_births` additionally: pairwise distinct births (needed to count
    functions rather than trees). Without `generic` only per-bar sanity
    (birth < death) is enforced; such barcodes are containers, not inputs to
    the counting machinery.
    """
    raw: list[tuple[Height, Height]] = []
    for i, bar in enumerate(bars, 1):
        birth, death = _unpack_bar(bar, i)
        if not birth < death:
            raise EmptyBar(f"bar {i}: birth {birth!r} is not below death {death!r}", position=i)
        raw.append((birth, death))
    # Stable two-pass sort: birth ascending, then death descending. The
    # essential bar (death inf) lands first without arithmetic on heights.
    raw.sort(key=lambda bd: bd[0])
    raw.sort(key=lambda bd: bd[1], reverse=True)
    if generic:
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
    return Barcode(tuple(Interval(b, d, index=i) for i, (b, d) in enumerate(raw, 1)))


# ---------------------------------------------------------------------------
# merge trees


@dataclass(frozen=True)
class MergeTree:
    """Rooted full binary merge tree; the order of `children` carries no meaning.

    The root's unbounded upward edge is implicit. Every vertex sits strictly
    above both children; construction from a function keeps all vertex heights
    pairwise distinct.
    """

    height: Height
    children: tuple["MergeTree", ...] = ()

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

    def vertices(self) -> Iterator["MergeTree"]:
        stack = [self]
        while stack:
            node = stack.pop()
            yield node
            stack.extend(reversed(node.children))

    def leaves(self) -> Iterator["MergeTree"]:
        return (v for v in self.vertices() if v.is_leaf)


@dataclass(frozen=True)
class ChiralMergeTree:
    """Merge tree with a left/right order on the children of every vertex."""

    height: Height
    left: "ChiralMergeTree | None" = None
    right: "ChiralMergeTree | None" = None

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

    def vertices(self) -> Iterator["ChiralMergeTree"]:
        stack = [self]
        while stack:
            node = stack.pop()
            yield node
            if not node.is_leaf:
                stack += (node.right, node.left)

    def leaves(self) -> Iterator["ChiralMergeTree"]:
        return (v for v in self.vertices() if v.is_leaf)


Tree = Union[MergeTree, ChiralMergeTree]

CanonicalEncoding = str


def canonical_form(tree: Tree) -> CanonicalEncoding:
    """Nested parenthesized encoding; equal encodings iff isomorphic trees.

    Chiral trees encode verbatim as "(h left right)". Unordered trees sort the
    two child subtrees (by height, then by encoding), so any representation of
    the same tree encodes identically. A lone leaf at height 5 encodes "(5)".
    """
    if not isinstance(tree, (MergeTree, ChiralMergeTree)):
        raise KindMismatch(f"not a merge tree: {tree!r}")
    chiral = isinstance(tree, ChiralMergeTree)
    done: list[tuple[Height, str]] = []  # finished subtrees, the left one on top
    stack: list = [tree]  # None marks a vertex whose two subtrees are done
    while stack:
        node = stack.pop()
        if node is None:
            node = stack.pop()
            first, second = done.pop(), done.pop()
            if not chiral and second < first:
                first, second = second, first
            done.append((node.height, f"({height_token(node.height)} {first[1]} {second[1]})"))
        elif node.is_leaf:
            done.append((node.height, f"({height_token(node.height)})"))
        else:
            stack += (node, None, *((node.left, node.right) if chiral else node.children))
    return done[0][1]


def is_isomorphic(t1: Tree, t2: Tree) -> bool:
    """Isomorphism test in the matching category; mixed kinds are an error."""
    if not isinstance(t1, (MergeTree, ChiralMergeTree)):
        raise KindMismatch(f"not a merge tree: {t1!r}")
    if type(t1) is not type(t2):
        raise KindMismatch(f"cannot compare {type(t1).__name__} with {type(t2).__name__}")
    return canonical_form(t1) == canonical_form(t2)


# ---------------------------------------------------------------------------
# JSON documents


def sequence_to_dict(s: CriticalSequence) -> dict:
    return {"critical_values": list(s.values)}


def sequence_from_dict(doc: object) -> CriticalSequence:
    if not isinstance(doc, dict) or set(doc) != {"critical_values"}:
        raise InvalidDocument('expected an object with the single key "critical_values"')
    vals = doc["critical_values"]
    if not isinstance(vals, list):
        raise InvalidDocument('"critical_values" must be an array')
    return validate_critical_sequence(vals)


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


def tree_to_dict(t: Tree) -> dict:
    if isinstance(t, ChiralMergeTree):
        if t.is_leaf:
            return {"height": t.height}
        return {"height": t.height, "left": tree_to_dict(t.left), "right": tree_to_dict(t.right)}
    if isinstance(t, MergeTree):
        if t.is_leaf:
            return {"height": t.height}
        return {"height": t.height, "children": [tree_to_dict(c) for c in t.children]}
    raise KindMismatch(f"not a merge tree: {t!r}")


def tree_from_dict(doc: object) -> Tree:
    """Decode a tree document; the root's keys pick the kind.

    A root with "children" decodes as an unordered tree, any other root
    (including a single leaf, where the kinds coincide) as a chiral one. A
    vertex carrying the other kind's keys is an unknown-key InvalidDocument,
    so a document mixing the kinds is refused. Structural violations raise
    InvalidTree, shape problems InvalidDocument.
    """
    if isinstance(doc, dict) and "children" in doc:
        return _unordered_from_dict(doc)
    return _chiral_from_dict(doc)


def _check_vertex(doc: object, allowed: set[str]) -> Height:
    if not isinstance(doc, dict):
        raise InvalidDocument(f"tree vertex must be an object, got {doc!r}")
    if "height" not in doc:
        raise InvalidDocument('tree vertex is missing "height"')
    extra = set(doc) - allowed
    if extra:
        raise InvalidDocument(f"tree vertex carries unknown keys {sorted(extra)}")
    return _require_height(doc["height"], where="tree height")


def _chiral_from_dict(doc: object) -> ChiralMergeTree:
    h = _check_vertex(doc, {"height", "left", "right"})
    if ("left" in doc) != ("right" in doc):
        raise InvalidDocument('chiral vertex must carry both "left" and "right" or neither')
    if "left" not in doc:
        return ChiralMergeTree(h)
    return ChiralMergeTree(h, _chiral_from_dict(doc["left"]), _chiral_from_dict(doc["right"]))


def _unordered_from_dict(doc: object) -> MergeTree:
    h = _check_vertex(doc, {"height", "children"})
    kids = doc.get("children", [])
    if not isinstance(kids, list):
        raise InvalidDocument('"children" must be an array')
    if len(kids) not in (0, 2):
        raise InvalidDocument(f"a vertex has 0 or 2 children, got {len(kids)}")
    return MergeTree(h, tuple(_unordered_from_dict(k) for k in kids))
