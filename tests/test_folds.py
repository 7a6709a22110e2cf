"""The bottom-up tree fold against the recursive walks it replaced, and a guard against recursion.

The references below are the recursive tree codecs, DOT writer, chiral
walks and poset search that `core._fold`, the left-link walk of `in_order`,
the sweep of `forget_chirality` and the stack search of `same_stratum` replaced.
They are kept here, verbatim in behaviour, so the iterative versions can be
held to the same values, the same errors and the same order of errors. The
poset search reads its own relation, by the definition of strict containment
over all pairs, so it shares no code with `same_stratum`.
"""
import ast
import copy
import json
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import persfiber
from persfiber import validate_barcode
from persfiber.core import (
    ChiralMergeTree,
    InvalidDocument,
    KindMismatch,
    MergeTree,
    ValidationError,
    _require_height,
    canonical_form,
    height_token,
    tree_from_dict,
    tree_to_dict,
)
from persfiber.fiber import same_stratum
from persfiber.trees import in_order, to_dot

# --- recursive references


def ref_tree_to_dict(t):
    if isinstance(t, ChiralMergeTree):
        if t.is_leaf:
            return {"height": t.height}
        return {"height": t.height, "left": ref_tree_to_dict(t.left), "right": ref_tree_to_dict(t.right)}
    if isinstance(t, MergeTree):
        if t.is_leaf:
            return {"height": t.height}
        return {"height": t.height, "children": [ref_tree_to_dict(c) for c in t.children]}
    raise KindMismatch(f"not a merge tree: {t!r}")


def ref_tree_from_dict(doc):
    if isinstance(doc, dict) and "children" in doc:
        return _ref_unordered_from_dict(doc)
    return _ref_chiral_from_dict(doc)


def _ref_check_vertex(doc, allowed):
    if not isinstance(doc, dict):
        raise InvalidDocument(f"tree vertex must be an object, got {doc!r}")
    if "height" not in doc:
        raise InvalidDocument('tree vertex is missing "height"')
    extra = set(doc) - allowed
    if extra:
        raise InvalidDocument(f"tree vertex carries unknown keys {sorted(extra)}")
    return _require_height(doc["height"], where="tree height")


def _ref_chiral_from_dict(doc):
    h = _ref_check_vertex(doc, {"height", "left", "right"})
    if ("left" in doc) != ("right" in doc):
        raise InvalidDocument('chiral vertex must carry both "left" and "right" or neither')
    if "left" not in doc:
        return ChiralMergeTree(h)
    return ChiralMergeTree(h, _ref_chiral_from_dict(doc["left"]), _ref_chiral_from_dict(doc["right"]))


def _ref_unordered_from_dict(doc):
    h = _ref_check_vertex(doc, {"height", "children"})
    kids = doc.get("children", [])
    if not isinstance(kids, list):
        raise InvalidDocument('"children" must be an array')
    if len(kids) not in (0, 2):
        raise InvalidDocument(f"a vertex has 0 or 2 children, got {len(kids)}")
    return MergeTree(h, tuple(_ref_unordered_from_dict(k) for k in kids))


def ref_to_dot(t):
    lines = ["digraph mergetree {", "  node [shape=circle];"]
    counter = 0

    def walk(node):
        nonlocal counter
        name = f"v{counter}"
        counter += 1
        lines.append(f'  {name} [label="{height_token(node.height)}"];')
        kids = (node.left, node.right) if isinstance(node, ChiralMergeTree) else node.children
        kid_names = [walk(kid) for kid in kids if kid is not None]
        for kn in kid_names:
            lines.append(f"  {name} -> {kn};")
        if isinstance(node, ChiralMergeTree) and len(kid_names) == 2:
            lines.append(f"  {{ rank=same; {kid_names[0]} -> {kid_names[1]} [style=invis]; }}")
        return name

    walk(t)
    lines.append("}")
    return "\n".join(lines) + "\n"


def ref_canonical_form(t):
    if t.is_leaf:
        return f"({height_token(t.height)})"
    if isinstance(t, ChiralMergeTree):
        first, second = t.left, t.right
    else:
        first, second = sorted(t.children, key=lambda c: (c.height, ref_canonical_form(c)))
    return f"({height_token(t.height)} {ref_canonical_form(first)} {ref_canonical_form(second)})"


def ref_in_order(t):
    if t.is_leaf:
        return [t]
    return ref_in_order(t.left) + [t] + ref_in_order(t.right)


def ref_forget_chirality(t):
    if t.is_leaf:
        return MergeTree(t.height)
    return MergeTree(t.height, (ref_forget_chirality(t.left), ref_forget_chirality(t.right)))


def ref_less(b):
    """(j, k) for every bar j strictly inside bar k, by definition over all pairs."""
    bars = list(enumerate(b.bars, 1))
    return {(j, k) for j, x in bars for k, y in bars
            if y.birth <= x.birth and x.death <= y.death and (y.birth, y.death) != (x.birth, x.death)}


def ref_signatures(b, less):
    """(bars above, bars below) of every bar 1..N, counted pair by pair."""
    bars = range(1, b.N + 1)
    return {j: (sum((j, k) in less for k in bars), sum((k, j) in less for k in bars)) for j in bars}


def ref_same_stratum(b1, b2):
    if b1.N != b2.N:
        return False
    less1, less2 = ref_less(b1), ref_less(b2)
    sig1, sig2 = ref_signatures(b1, less1), ref_signatures(b2, less2)
    if sorted(sig1.values()) != sorted(sig2.values()):
        return False
    assigned, used = {1: 1}, {1}

    def extend(j):
        if j > b1.N:
            return True
        for cand in range(2, b2.N + 1):
            if cand in used or sig2[cand] != sig1[j]:
                continue
            if not all(
                ((j, other) in less1) == ((cand, img) in less2) and ((other, j) in less1) == ((img, cand) in less2)
                for other, img in assigned.items()
            ):
                continue
            assigned[j] = cand
            used.add(cand)
            if extend(j + 1):
                return True
            del assigned[j]
            used.discard(cand)
        return False

    return extend(2)


# --- no function recurses


def test_no_function_in_the_package_calls_itself():
    """Walks keep their own stacks; a self-call by name, nested functions included, is recursion."""
    calls = []
    for path in sorted(Path(persfiber.__file__).parent.glob("*.py")):
        for fn in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            for node in ast.walk(fn):
                callee = node.func if isinstance(node, ast.Call) else None
                by_name = isinstance(callee, ast.Name) and callee.id == fn.name
                as_method = (isinstance(callee, ast.Attribute) and callee.attr == fn.name
                             and isinstance(callee.value, ast.Name) and callee.value.id in ("self", "cls"))
                if by_name or as_method:
                    calls.append(f"{path.name}:{node.lineno} {fn.name}")
    assert calls == []


# --- trees, documents and mutations

# Ints and floats mixed, with ties between siblings such as 1 and 1.0.
steps = st.sampled_from([1, 1.0, 0.5, 2])


shapes = st.recursive(st.just(()), lambda kids: st.tuples(kids, kids), max_leaves=12)


@st.composite
def trees(draw):
    """A tree of either kind; each vertex sits a drawn step above its higher child."""
    chiral = draw(st.booleans())
    cls = ChiralMergeTree if chiral else MergeTree

    def build(shape):
        if not shape:
            return cls(draw(st.sampled_from([0, 0.0, 1, -1.5])))
        left, right = build(shape[0]), build(shape[1])
        h = max(left.height, right.height) + draw(steps)
        h = draw(st.sampled_from([h, float(h)])) if float(h).is_integer() else h
        return cls(h, left, right) if chiral else cls(h, (left, right))

    return build(draw(shapes))


def _doc_vertices(doc):
    """The object vertices of a document in breadth-first order, each as (vertex, container, key)."""
    out = [(doc, None, None)]
    for v, _, _ in out:  # grows while it is read
        slots = [(v["children"], j) for j in range(len(v.get("children", [])))]
        slots += [(v, side) for side in ("left", "right") if side in v]
        out += [(slot[key], slot, key) for slot, key in slots if isinstance(slot[key], dict)]
    return out


MUTATIONS = ["key", "arity", "height", "missing", "not-object", "above-parent", "other-kind"]


def _mutate(doc, kind, index, root_height):
    """Apply one mutation to the vertex at `index` (modulo the count); return the document."""
    vertices = _doc_vertices(doc)
    v, slot, key = vertices[index % len(vertices)]
    if kind == "key":
        v["bogus"] = 1
    elif kind == "arity":
        if "children" in doc:  # an unordered document: one or three children
            v["children"] = v.get("children", []) + [{"height": -9}]
        elif "right" in v:
            del v["right"]
        else:
            v["left"] = {"height": -9}
    elif kind == "height":
        v["height"] = ["x", True, None, float("inf")][index % 4]
    elif kind == "missing":
        v.pop("height", None)
    elif kind == "not-object":
        if slot is None:
            return [doc]
        slot[key] = [3, None, "v", []][index % 4]
    elif kind == "above-parent":
        v["height"] = root_height + 1 + index % 2
    else:
        v["left" if "children" in doc else "children"] = []
    return doc


def _outcome(decode, doc):
    try:
        t = decode(doc)
    except ValidationError as exc:
        return type(exc).__name__, str(exc), exc.position
    return "ok", repr(t)


@settings(max_examples=300, deadline=None)
@given(trees())
def test_codecs_dot_and_canonical_form_match_the_recursive_references(t):
    doc = tree_to_dict(t)
    assert json.dumps(doc) == json.dumps(ref_tree_to_dict(t))
    decoded = tree_from_dict(doc)
    assert repr(decoded) == repr(ref_tree_from_dict(doc))
    assert repr(decoded) == repr(t) or t.is_leaf  # a lone leaf decodes as chiral
    assert to_dot(t) == ref_to_dot(t)
    assert canonical_form(t) == ref_canonical_form(t)


@settings(max_examples=300, deadline=None)
@given(trees().filter(lambda t: isinstance(t, ChiralMergeTree)))
def test_elder_rule_of_a_chiral_tree_is_that_of_its_forgotten_form(t):
    """Chirality plays no part in the elder rule: same barcode and positions, or the same refusal, tied leaves included."""
    def outcome(tree):
        try:
            return persfiber.elder_rule(tree)
        except ValidationError as exc:  # a leaf tied with the lowest one is not born after the essential bar
            return type(exc).__name__, str(exc)

    assert outcome(t) == outcome(persfiber.forget_chirality(t))


@settings(max_examples=300, deadline=None)
@given(trees().filter(lambda t: isinstance(t, ChiralMergeTree)))
def test_in_order_and_forget_chirality_match_the_recursive_references(t):
    """Equal internal heights in different subtrees, and int/float twins, are what the sweep's rebuild must get right."""
    assert list(map(id, in_order(t))) == list(map(id, ref_in_order(t)))
    assert repr(persfiber.forget_chirality(t)) == repr(ref_forget_chirality(t))


@settings(max_examples=500, deadline=None)
@given(trees(), st.lists(st.tuples(st.sampled_from(MUTATIONS), st.integers(0, 40)), min_size=1, max_size=3))
def test_decoders_fail_like_the_recursive_references(t, mutations):
    doc = tree_to_dict(t)
    for kind, index in mutations:
        if isinstance(doc, dict):
            doc = _mutate(doc, kind, index, t.height)
    assert _outcome(tree_from_dict, copy.deepcopy(doc)) == _outcome(ref_tree_from_dict, doc)


@pytest.mark.parametrize("chiral", [True, False], ids=["chiral", "unordered"])
def test_an_invalid_left_subtree_is_found_before_a_malformed_right_one(chiral):
    def vertex(h, *kids):
        if not kids:
            return {"height": h}
        return {"height": h, "left": kids[0], "right": kids[1]} if chiral else {"height": h, "children": list(kids)}

    left = vertex(5, vertex(20), vertex(1))  # a child above its parent: InvalidTree
    right = vertex(6, vertex(2), vertex(3))
    right["bogus"] = 1  # an unknown key: InvalidDocument
    doc = vertex(10, left, right)
    expected = ("InvalidTree", "child at height 20 not strictly below parent 5", None)
    assert _outcome(tree_from_dict, doc) == _outcome(ref_tree_from_dict, doc) == expected


# --- poset search


@st.composite
def small_barcodes(draw):
    n = draw(st.integers(1, 6))
    births = draw(st.lists(st.integers(1, 6), min_size=n - 1, max_size=n - 1))
    deaths = draw(st.lists(st.integers(7, 14), min_size=n - 1, max_size=n - 1, unique=True))
    return validate_barcode([(0, None)] + list(zip(births, deaths)))


# Pairs in the same stratum that the search reaches only after backtracking.
BACKTRACKS = [
    ([(0, None), (6, 14), (4, 13), (6, 12), (3, 11), (3, 10)], [(0, None), (5, 13), (5, 12), (3, 10), (2, 9), (3, 7)]),
    ([(0, None), (2, 14), (5, 13), (1, 12), (1, 10), (4, 7)], [(0, None), (4, 14), (4, 13), (1, 12), (5, 11), (1, 9)]),
]


# Same (above, below) signatures, different posets: the signatures alone would pair them.
SIGNATURE_TWINS = ([(0, None), (7, 17), (2, 14), (7, 13), (3, 11), (7, 10), (4, 9)],
                   [(0, None), (3, 16), (5, 13), (5, 12), (1, 11), (6, 10), (4, 9)])


@settings(max_examples=300, deadline=None)
@given(small_barcodes(), small_barcodes())
@example(*map(validate_barcode, BACKTRACKS[0]))
@example(*map(validate_barcode, BACKTRACKS[1]))
@example(*map(validate_barcode, SIGNATURE_TWINS))
def test_same_stratum_matches_the_recursive_search(b1, b2):
    assert same_stratum(b1, b2) == ref_same_stratum(b1, b2)
    assert same_stratum(b1, b1) and ref_same_stratum(b1, b1)
