import contextlib
import decimal
import io
import json
import math
import sys
import tempfile
import weakref
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from persfiber import (
    ValidationError,
    enumerate_cmts,
    enumerate_merge_trees,
    forget_chirality,
    merge_tree_of_sequence,
    validate_barcode,
    validate_critical_sequence,
    verify,
)
from persfiber.core import barcode_from_dict, sequence_from_dict, tree_from_dict, tree_to_dict
from persfiber.cli import main
from persfiber.oracle import all_functions

FN = {"critical_values": [1, 7, 2]}
BC2 = {"bars": [{"birth": 1, "death": None}, {"birth": 2, "death": 7}]}
BC4 = {
    "bars": [
        {"birth": 1, "death": None},
        {"birth": 2, "death": 7},
        {"birth": 3, "death": 6},
        {"birth": 4, "death": 5},
    ]
}

# Tied births: trees are counted and listed, functions are refused.
TIED = {
    "bars": [
        {"birth": 1, "death": None},
        {"birth": 2, "death": 7},
        {"birth": 2, "death": 6},
    ]
}


@pytest.fixture
def write(tmp_path):
    def _write(doc, name="doc.json"):
        path = tmp_path / name
        path.write_text(json.dumps(doc))
        return str(path)

    return _write


def run(capsys, argv):
    code = main(argv)
    out, err = capsys.readouterr()
    return code, out, err


# --- happy paths


def test_barcode_command(write, capsys):
    code, out, err = run(capsys, ["barcode", write(FN)])
    assert (code, err) == (0, "")
    assert json.loads(out) == BC2


def test_barcode_command_reads_stdin(capsys, monkeypatch):
    monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(FN)))
    code, out, _ = run(capsys, ["barcode", "-"])
    assert code == 0
    assert json.loads(out) == BC2


def test_tree_command(write, capsys):
    code, out, _ = run(capsys, ["tree", write(FN)])
    assert code == 0
    assert json.loads(out) == {"height": 7, "left": {"height": 1}, "right": {"height": 2}}


def test_tree_command_dot(write, capsys):
    code, out, _ = run(capsys, ["tree", "--dot", write(FN)])
    assert code == 0
    assert out.startswith("digraph mergetree {")
    assert "rank=same" in out


def test_elder_command_chiral(write, capsys):
    doc = {"height": 7, "left": {"height": 1}, "right": {"height": 2}}
    code, out, _ = run(capsys, ["elder", write(doc)])
    assert code == 0
    assert json.loads(out) == BC2


def test_elder_command_unordered(write, capsys):
    doc = {"height": 7, "children": [{"height": 2}, {"height": 1}]}
    code, out, _ = run(capsys, ["elder", write(doc)])
    assert code == 0
    assert json.loads(out) == BC2


def test_count_command_modes(write, capsys):
    path = write(BC4)
    assert run(capsys, ["count", "--chiral", path]) == (0, "48\n", "")
    assert run(capsys, ["count", path]) == (0, "48\n", "")  # chiral is the default
    assert run(capsys, ["count", "--merge-trees", path]) == (0, "6\n", "")
    assert run(capsys, ["count", "--functions", path]) == (0, "48\n", "")


@pytest.mark.parametrize("mode, n, digits", [
    ("--merge-trees", 1559, 4300), ("--merge-trees", 1560, 4303), ("--merge-trees", 1601, 4434),
    ("--chiral", 1424, 4300), ("--chiral", 1425, 4303),
])
def test_count_prints_counts_past_the_int_digit_limit(write, capsys, mode, n, digits):
    # str() refuses an int of more than 4,300 digits; nested N counts (N-1)! merge trees, 2^(N-1) (N-1)! chiral ones
    doc = {"bars": [{"birth": 0, "death": None}] + [{"birth": i, "death": 2 * n - i} for i in range(1, n)]}
    code, out, err = run(capsys, ["count", mode, write(doc)])
    assert (code, err) == (0, "")
    expected = math.factorial(n - 1) * (2 ** (n - 1) if mode == "--chiral" else 1)
    assert len(out.strip()) == digits and decimal.Decimal(out.strip()) == expected


def test_count_prints_a_count_of_tens_of_thousands_of_digits_exactly(write, capsys):
    # Past 4,096 bits the count is converted by halves; nested N=20,000 has 19,999! merge trees, 77,333 digits.
    n = 20_000
    doc = {"bars": [{"birth": 0, "death": None}] + [{"birth": i, "death": 2 * n - i} for i in range(1, n)]}
    code, out, err = run(capsys, ["count", "--merge-trees", write(doc)])
    assert (code, err) == (0, "")
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        expected = str(math.factorial(n - 1))
    finally:
        sys.set_int_max_str_digits(limit)
    assert out == expected + "\n"


def test_enumerate_functions_command(write, capsys):
    code, out, _ = run(capsys, ["enumerate", "--functions", write(BC2)])
    assert code == 0
    assert json.loads(out) == [[1, 7, 2], [2, 7, 1]]


def test_enumerate_trees_command(write, capsys):
    code, out, _ = run(capsys, ["enumerate", "--merge-trees", write(BC2)])
    assert code == 0
    assert json.loads(out) == [
        {"height": 7, "children": [{"height": 1}, {"height": 2}]}
    ]
    code, out, _ = run(capsys, ["enumerate", "--chiral", write(BC2)])
    assert code == 0
    assert json.loads(out) == [
        {"height": 7, "left": {"height": 1}, "right": {"height": 2}},
        {"height": 7, "left": {"height": 2}, "right": {"height": 1}},
    ]


@pytest.mark.parametrize("mode, listed", [("--chiral", 384), ("--merge-trees", 24)])
def test_enumerate_holds_one_tree_document_at_a_time(write, capsys, monkeypatch, mode, listed):
    # json converts each tree as it reaches it: when it converts one, no earlier tree's document is still alive.
    class Document(dict):  # a dict that a weak reference can follow
        pass

    documents, alive = [], []

    def convert(tree):
        alive.append(sum(doc() is not None for doc in documents))
        doc = Document(tree_to_dict(tree))
        documents.append(weakref.ref(doc))
        return doc

    monkeypatch.setattr("persfiber.cli.tree_to_dict", convert)
    nested5 = {"bars": [{"birth": 0, "death": None}] + [{"birth": i, "death": 10 - i} for i in range(1, 5)]}
    code, out, _ = run(capsys, ["enumerate", mode, write(nested5)])
    assert code == 0 and len(json.loads(out)) == listed
    assert alive == [0] * listed


@pytest.mark.parametrize(
    "doc, mode, expected",
    [
        (BC4, "chiral", 48),
        (BC4, "merge-trees", 6),
        (BC4, "functions", 48),
        (TIED, "chiral", 8),
        (TIED, "merge-trees", 2),
        (TIED, "functions", "DuplicateBirth"),
    ],
    ids=["four-bar-chiral", "four-bar-merge-trees", "four-bar-functions",
         "tied-chiral", "tied-merge-trees", "tied-functions"],
)
def test_count_equals_the_length_of_enumerate(write, capsys, doc, mode, expected):
    # Either both answer and agree, or both refuse with the same error class.
    path = write(doc)
    counted = run(capsys, ["count", f"--{mode}", path])
    listed = run(capsys, ["enumerate", f"--{mode}", path])
    if isinstance(expected, int):
        assert counted == (0, f"{expected}\n", "")
        assert (listed[0], listed[2], len(json.loads(listed[1]))) == (0, "", expected)
    else:
        assert (counted[:2], listed[:2]) == ((1, ""), (1, ""))
        assert counted[2].split(":")[0] == listed[2].split(":")[0] == expected


def test_reconstruct_command(write, capsys):
    doc = {"height": 7, "left": {"height": 1}, "right": {"height": 2}}
    code, out, _ = run(capsys, ["reconstruct", write(doc)])
    assert code == 0
    assert json.loads(out) == {"breakpoints": [[0.0, 1], [0.5, 7], [1.0, 2]]}


def small_corpus():
    for k in (2, 3, 4):
        yield from all_functions(range(1, k + 1), range(k + 1, 2 * k))


def test_reconstruct_reads_back_through_barcode(write, capsys):
    # tree -> reconstruct -> barcode gives the barcode of the function the tree came from.
    for f in small_corpus():
        function = write({"critical_values": list(f.values)}, "f.json")
        _, tree, _ = run(capsys, ["tree", function])
        code, graph, err = run(capsys, ["reconstruct", write(json.loads(tree), "t.json")])
        assert (code, err) == (0, "")
        assert run(capsys, ["barcode", write(json.loads(graph), "g.json")]) == run(capsys, ["barcode", function])


def test_rank_command(write, capsys):
    path = write(FN)
    assert run(capsys, ["rank", path, "--r", "3", "--t", "5"]) == (0, "2\n", "")
    assert run(capsys, ["rank", path, "--r", "3", "--t", "8"]) == (0, "1\n", "")


def test_strata_command(write, capsys):
    code, out, _ = run(capsys, ["strata", write(BC4, "a.json"), write(BC2, "b.json")])
    assert code == 0
    assert json.loads(out) == {
        "same_stratum": False,
        "posets": [
            {"n": 4, "relations": [[2, 1], [3, 1], [3, 2], [4, 1], [4, 2], [4, 3]]},
            {"n": 2, "relations": [[2, 1]]},
        ],
    }


def test_verify_command(write, capsys):
    code, out, _ = run(capsys, ["verify", write(BC4)])
    assert code == 0
    report = json.loads(out)
    assert list(report) == [
        "formula_cmt_count",
        "enumerated_cmt_count",
        "brute_count",
        "formula_mt_count",
        "enumerated_mt_count",
        "dedup_mt_from_cmts",
        "all_equal",
        "partition_check",
    ]
    assert report["all_equal"] is True
    assert report["partition_check"] is True


def test_emitted_documents_parse_back(write, capsys):
    _, out, _ = run(capsys, ["barcode", write(FN)])
    barcode_from_dict(json.loads(out))
    _, out, _ = run(capsys, ["tree", write(FN)])
    tree_from_dict(json.loads(out))
    _, out, _ = run(capsys, ["enumerate", "--functions", write(BC4, "bc.json")])
    for values in json.loads(out):
        sequence_from_dict({"critical_values": values})


# --- failure paths


def test_validation_failure_exits_one(write, capsys):
    code, out, err = run(capsys, ["barcode", write({"critical_values": [3, 1, 4]})])
    assert (code, out) == (1, "")
    assert err == "NotAlternating: position 2 is not a local maximum\n"


def test_count_functions_rejects_tied_births(write, capsys):
    doc = {
        "bars": [
            {"birth": 1, "death": None},
            {"birth": 2, "death": 7},
            {"birth": 2, "death": 6},
        ]
    }
    path = write(doc)
    for argv in (["count", "--functions"], ["enumerate", "--functions"], ["verify"]):
        assert run(capsys, argv + [path]) == (1, "", "DuplicateBirth: bars 2 and 3 share birth 2\n")
    # the same barcode is fine when counting trees
    code, out, _ = run(capsys, ["count", "--chiral", write(doc)])
    assert (code, out) == (0, "8\n")


def test_count_functions_refuses_what_enumerate_refuses(write, capsys):
    # [2, 3) dies where [3, 5) is born: no function with pairwise distinct
    # critical values carries both, so neither subcommand may answer
    doc = {
        "bars": [
            {"birth": 1, "death": None},
            {"birth": 2, "death": 3},
            {"birth": 3, "death": 5},
        ]
    }
    path = write(doc)
    for command in ("count", "enumerate"):
        code, out, err = run(capsys, [command, "--functions", path])
        assert (code, out) == (1, "")
        assert err.startswith("DuplicateValue:")


def test_count_functions_rejects_lone_bar(write, capsys):
    # count --functions, enumerate --functions and verify share one realizability rule.
    path = write({"bars": [{"birth": 4, "death": None}]})
    for argv in (["count", "--functions"], ["enumerate", "--functions"], ["verify"]):
        code, _, err = run(capsys, argv + [path])
        assert code == 1, argv
        assert err.startswith("DegenerateBarcode:"), (argv, err)


@pytest.mark.parametrize("bars, line", [
    ([(4, None)], "DegenerateBarcode: a single-bar barcode has no piecewise-linear realization"),
    ([(1, None), (2, 7), (2, 6)], "DuplicateBirth: bars 2 and 3 share birth 2"),
    ([(1, None), (2, 7), (3, 4), (4, 6)], "DuplicateValue: death 4 collides with the birth of bar 3"),
], ids=["lone-bar", "tied-births", "death-on-a-birth"])
def test_library_verify_refuses_what_the_cli_refuses(bars, line, write, capsys):
    code, out, err = run(capsys, ["verify", write({"bars": [{"birth": b, "death": d} for b, d in bars]})])
    assert (code, out, err) == (1, "", line + "\n")
    with pytest.raises(ValidationError) as exc:
        verify(validate_barcode(bars))
    assert f"{type(exc.value).__name__}: {exc.value}" == line


def test_reconstruct_rejects_unordered_tree(write, capsys):
    doc = {"height": 7, "children": [{"height": 1}, {"height": 2}]}
    code, _, err = run(capsys, ["reconstruct", write(doc)])
    assert code == 1
    assert err.startswith("KindMismatch:")


def test_missing_file_exits_one(tmp_path, capsys):
    code, _, err = run(capsys, ["barcode", str(tmp_path / "absent.json")])
    assert code == 1
    assert "absent.json" in err


def test_unparseable_json_exits_one(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    code, _, err = run(capsys, ["barcode", str(path)])
    assert code == 1
    assert err.startswith("JSONDecodeError:")


def test_undecodable_file_exits_one(tmp_path, capsys):
    path = tmp_path / "utf16.json"
    path.write_bytes(b"\xff\xfe" + json.dumps(FN).encode("utf-16-le"))
    code, out, err = run(capsys, ["barcode", str(path)])
    assert (code, out) == (1, "")
    assert err.startswith("UnicodeDecodeError:")


NINES = "9" * 5000  # past the 4,300 digits that int() takes from a string
DEEP = 20_000  # past the nesting every supported json reader takes: the recursion limit, or a C limit of 10,000


def _deep_tree(depth):
    """A chiral tree document nested depth objects deep: a leaf at 0.5 beside each vertex of a left chain."""
    opening = "".join(f'{{"height": {h}, "left": ' for h in range(depth, 0, -1))
    return opening + '{"height": 0}' + ', "right": {"height": 0.5}}' * depth


@pytest.mark.parametrize("command, text, levels", [
    ("barcode", f'{{"critical_values": [1, {NINES}, 2]}}', []),
    ("count", f'{{"bars": [{{"birth": 1, "death": null}}, {{"birth": 2, "death": {NINES}}}]}}', []),
    ("rank", json.dumps(FN), ["--r", NINES, "--t", "5"]),
    ("barcode", '{"critical_values": ' + "[" * DEEP + "]" * DEEP + "}", []),
    ("elder", _deep_tree(DEEP), []),
], ids=["digits-value", "digits-death", "digits-level", "deep-array", "deep-tree"])
def test_input_past_the_json_readers_limits_is_refused_by_name(tmp_path, capsys, command, text, levels):
    path = tmp_path / "doc.json"
    path.write_text(text)
    code, out, err = run(capsys, [command, str(path), *levels])
    assert (code, out) == (1, "")
    assert len(err.splitlines()) == 1 and err.startswith("InvalidDocument: ")


def _zigzag(k):
    """Minima 0..k-1 interleaved with rising maxima: its chiral tree is a chain k-1 deep."""
    return [v for i in range(k - 1) for v in (i, k + i)] + [k - 1]


def _staggered(n):
    """{[0, inf)} and [i, n + i) for i = 1..n-1: its fiber is one merge tree, n-1 levels deep."""
    return {"bars": [{"birth": 0, "death": None}] + [{"birth": i, "death": n + i} for i in range(1, n)]}


# Past the nesting every supported json writer takes, as for DEEP: a chain DEEP deep, and an unordered chain
# DEEP // 2 deep, whose children arrays are levels too.
@pytest.mark.parametrize("argv, doc", [
    (["tree"], {"critical_values": _zigzag(DEEP + 1)}),
    (["tree"], {"critical_values": _zigzag(DEEP + 1)[::-1]}),
    (["enumerate", "--merge-trees"], _staggered(DEEP // 2 + 1)),
], ids=["zigzag", "zigzag-mirrored", "staggered"])
def test_output_past_the_json_writers_limit_is_refused_by_name(write, capsys, argv, doc):
    code, out, err = run(capsys, [*argv, write(doc)])
    assert (code, out) == (1, "")
    assert len(err.splitlines()) == 1 and err.startswith("InvalidDocument: RecursionError: ")


def test_trees_well_inside_the_json_writers_limit_are_written(write, capsys, monkeypatch):
    code, out, _ = run(capsys, ["enumerate", "--merge-trees", write(_staggered(300))])
    assert code == 0 and len(json.loads(out)) == 1
    function = write({"critical_values": _zigzag(601)}, "f.json")
    code, tree, _ = run(capsys, ["tree", function])
    assert code == 0
    monkeypatch.setattr("sys.stdin", io.StringIO(tree))
    assert run(capsys, ["elder", "-"]) == run(capsys, ["barcode", function])


def test_reconstruct_refuses_a_lone_leaf_as_too_short(write, capsys):
    line = "TooShort: need at least 3 critical values, got 1\n"
    assert run(capsys, ["reconstruct", write({"height": 3})]) == (1, "", line)


def test_rank_rejects_non_numeric_levels(write, capsys):
    code, _, err = run(capsys, ["rank", write(FN), "--r", "low", "--t", "5"])
    assert code == 1
    assert err.startswith("InvalidDocument:")
    for levels in (["--r", "NaN", "--t", "5"], ["--r", "1", "--t", "NaN"]):
        code, _, err = run(capsys, ["rank", write(FN), *levels])
        assert code == 1
        assert err.strip() == "InvalidDocument: not a number: 'NaN'"


def test_rank_takes_infinite_levels(write, capsys):
    assert run(capsys, ["rank", write(FN), "--r=-Infinity", "--t", "Infinity"]) == (0, "0\n", "")
    assert run(capsys, ["rank", write(FN), "--r", "1", "--t", "Infinity"]) == (0, "1\n", "")


@pytest.mark.parametrize("level, rank", [("-Infinity", "0"), ("-1e3", "1"), ("-3", "1")])
def test_rank_takes_negative_levels_after_a_space(write, capsys, level, rank):
    path = write({"critical_values": [-1000, 7, -2]})
    assert run(capsys, ["rank", path, "--r", level, "--t", "5"]) == (0, f"{rank}\n", "")
    assert run(capsys, ["rank", path, "--t", "5", "--r", level]) == (0, f"{rank}\n", "")
    assert run(capsys, ["rank", path, "--r", level, "--t", level]) == (0, f"{rank}\n", "")
    assert run(capsys, ["rank", path, "--r", level, "--t", "5"]) == run(capsys, ["rank", path, f"--r={level}", "--t=5"])


@pytest.mark.parametrize("level", ["-.5e3", "-NaN", "-inf"])
def test_rank_refuses_other_negative_spellings_after_a_space_by_name(write, capsys, level):
    line = f"InvalidDocument: not a number: {level!r}\n"
    assert run(capsys, ["rank", write(FN), "--r", level, "--t", "10"]) == (1, "", line)
    assert run(capsys, ["rank", write(FN), "--r", "1", "--t", level]) == (1, "", line)
    # An option name, a prefix of one or "--" after --r is still a usage error, not a level.
    for option in ("--t", "--he", "--", "-h"):
        with pytest.raises(SystemExit) as exc:
            main(["rank", write(FN), "--r", option, "--t", "10"])
        assert exc.value.code == 2
        capsys.readouterr()


def test_usage_errors_exit_two(capsys):
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2
    capsys.readouterr()
    with pytest.raises(SystemExit) as exc:
        main(["count", "--chiral", "--merge-trees", "x.json"])
    assert exc.value.code == 2


# --- the contract over every subcommand: exit 0, or exit 1 with one named line and nothing on stdout


def _names(cls):
    return {cls.__name__}.union(*map(_names, cls.__subclasses__()))


REFUSALS = _names(ValidationError) | {"JSONDecodeError", "UnicodeDecodeError"} | _names(OSError)


def _rarely(common, rare, one_in=10):
    return st.integers(1, one_in).flatmap(lambda i: rare if i == 1 else common)


def _mixed(values):
    """Each value as an int or as a float."""
    return st.tuples(*(st.sampled_from([v, float(v)]) for v in values)).map(list)


def _wiggle(values):
    """values reordered by one pass of swaps to alternate minimum, maximum, ...: distinct values stay valid."""
    values = list(values)
    for i in range(len(values) - 1):
        if (values[i] > values[i + 1]) == (i % 2 == 0):
            values[i], values[i + 1] = values[i + 1], values[i]
    return values


def _tree_of(drawn):
    values, unordered = drawn
    tree = merge_tree_of_sequence(validate_critical_sequence(values))
    return tree_to_dict(forget_chirality(tree) if unordered else tree)


NUMBERS = st.integers(0, 9).flatmap(lambda v: st.sampled_from([v, float(v)]))  # int/float mixes, and ties
HEIGHTS = _rarely(NUMBERS, st.sampled_from([True, None, "7", [], math.nan, math.inf]))
ALTERNATING = st.integers(1, 4).flatmap(lambda m: st.permutations(range(2 * m + 1))).map(_wiggle).flatmap(_mixed)
VALUES = _rarely(ALTERNATING, st.lists(HEIGHTS, max_size=7), one_in=3).map(lambda v: {"critical_values": v})
TREES = st.one_of(
    st.tuples(ALTERNATING, st.booleans()).map(_tree_of),
    st.recursive(
        st.fixed_dictionaries({"height": HEIGHTS}),
        lambda kids: st.one_of(
            st.fixed_dictionaries({"height": HEIGHTS, "left": kids, "right": kids}),
            st.fixed_dictionaries({"height": HEIGHTS, "children": st.lists(kids, min_size=1, max_size=3)}),
        ),
        max_leaves=6,
    ),
)


@st.composite
def _barcodes(draw, most=7):
    """At most `most` bars (7, as enumerate has no cap yet): mostly valid, often with tied births, and now and then one
    flaw: no essential bar, two bars dying together, a bar born with the essential one or dying where it is born."""
    base = draw(NUMBERS)
    bars = [{"birth": base, "death": None}]
    for death in draw(st.permutations(range(2, 16)))[:draw(st.integers(0, most - 1))]:
        birth, death = draw(_mixed([base + draw(st.integers(1, death - 1)), base + death]))
        bars.append({"birth": birth, "death": death})
    last = bars[-1]
    flawed = st.sampled_from([
        bars[1:],
        bars + [last],
        bars + [{"birth": base, "death": last["death"]}],
        bars + [{"birth": last["birth"], "death": last["birth"]}],
    ])
    stray = st.fixed_dictionaries({"birth": HEIGHTS, "death": st.none() | HEIGHTS}).map(lambda bar: bars + [bar])
    return {"bars": draw(_rarely(st.just(bars), flawed | stray))}


def _files(docs):
    """The bytes of a file holding one of docs, or rarely of no document (None stands for a missing file)."""
    return _rarely(docs.map(lambda doc: json.dumps(doc).encode()), st.sampled_from([
        None, b"{not json", b"\xff\xfe" + json.dumps(FN).encode("utf-16-le"),
        f'{{"critical_values": [1, {NINES}, 2]}}'.encode(), ("[" * DEEP + "]" * DEEP).encode(),
    ]))


BARCODES = _barcodes()
SMALL_BARCODES = _barcodes(most=4).map(lambda doc: json.dumps(doc).encode())  # of 4 bars or fewer, often one stratum
FUNCTION = _files(_rarely(VALUES, st.one_of(TREES, BARCODES), one_in=5))
TREE = _files(_rarely(TREES, VALUES, one_in=5))
BARCODE = _files(_rarely(BARCODES, TREES, one_in=5))
LEVEL = _rarely(NUMBERS.map(json.dumps), st.sampled_from(["low", "NaN", "-inf", "-Infinity", "1e400", "", NINES]))
MODE = st.sampled_from(["--chiral", "--merge-trees", "--functions"])
CALLS = _rarely(
    st.one_of(
        st.tuples(st.sampled_from(["barcode", "tree", "tree --dot"]), FUNCTION),
        st.tuples(st.sampled_from(["elder", "reconstruct"]), TREE),
        st.tuples(st.sampled_from(["count", "enumerate"]), MODE, BARCODE),
        st.tuples(st.just("rank"), FUNCTION, LEVEL.map("--r={}".format), LEVEL.map("--t={}".format)),
        st.tuples(st.just("strata"), BARCODE, BARCODE),
        st.tuples(st.just("verify"), BARCODE),
    ),
    # Deep trees, past json's writer's limit through Python 3.11 and inside it from 3.12: tree and
    # enumerate --merge-trees write them or refuse them by name, the rest answer.
    st.one_of(
        st.tuples(
            st.sampled_from(["tree", "tree --dot", "barcode"]),
            st.integers(2000, 3000).map(lambda k: json.dumps({"critical_values": _zigzag(k)}).encode()),
        ),
        st.tuples(
            st.sampled_from(["count", "enumerate"]), st.just("--merge-trees"),
            st.integers(600, 1500).map(lambda n: json.dumps(_staggered(n)).encode()),
        ),
    ),
    one_in=20,
)


def _main(*call, tmp=None):
    """main's exit code, stdout and stderr on a call of strings, split at spaces, and documents' bytes, put in files
    in tmp or in a fresh directory."""
    with contextlib.nullcontext(tmp) if tmp else tempfile.TemporaryDirectory() as tmp:
        argv = []
        for i, part in enumerate(call):
            if isinstance(part, str):
                argv += part.split()
            else:  # a document, written to a file; None stands for a missing one
                path = Path(tmp, f"{i}.json")
                if part is not None:
                    path.write_bytes(part)
                argv.append(str(path))
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    return code, out.getvalue(), err.getvalue()


@settings(deadline=None, max_examples=200)
@given(call=CALLS)
@example(call=("tree", json.dumps({"critical_values": _zigzag(DEEP + 1)}).encode()))
@example(call=("enumerate", "--merge-trees", json.dumps(_staggered(1000)).encode()))
def test_every_subcommand_answers_or_refuses_on_one_named_line(call):
    code, out, err = _main(*call)
    assert code in (0, 1)
    if code == 0:
        assert err == ""
    else:
        assert out == ""
        assert err.endswith("\n") and err.count("\n") == 1, err
        name, sep, _ = err.partition(": ")
        assert sep and name in REFUSALS, err


# --- the contract between subcommands: where one answers, those that restate it agree


@settings(deadline=None, max_examples=100)
@given(barcode=BARCODE, function=FUNCTION, pair=st.tuples(*[SMALL_BARCODES] * 2))
def test_subcommands_that_restate_one_answer_agree(barcode, function, pair):
    for mode in ("--chiral", "--merge-trees", "--functions"):
        with tempfile.TemporaryDirectory() as tmp:  # one path, named in both refusals of a missing file
            code, out, err = _main("count", mode, barcode, tmp=tmp)
            listed, items, why = _main("enumerate", mode, barcode, tmp=tmp)
        assert (code, err) == (listed, why)
        assert code == 1 or int(out) == len(json.loads(items))
    code, tree, _ = _main("tree", function)
    if code == 0:
        barcode_out = _main("barcode", function)
        assert barcode_out[0] == 0
        assert _main("elder", tree.encode()) == barcode_out
        code, graph, _ = _main("reconstruct", tree.encode())
        assert code == 0 and _main("barcode", graph.encode()) == barcode_out
    code, strata, _ = _main("strata", *pair)
    if code == 0 and json.loads(strata)["same_stratum"]:
        for mode in ("--chiral", "--merge-trees"):
            counts = [_main("count", mode, b) for b in pair]
            assert counts[0] == counts[1] and counts[0][0] == 0


# --- what json writes: the bytes of json.dumps on the documents tree_to_dict builds


def _written(build, doc):
    """What the CLI must print for doc: json.dumps of build's tree documents and a newline, or nothing if refused."""
    try:
        return json.dumps(build(doc)) + "\n"
    except ValidationError:
        return ""


# The tree and the enumerate properties draw apart, so shrinking one input never reruns the other's commands.
@settings(deadline=None, max_examples=100)
@given(values=ALTERNATING)
def test_tree_document_is_written_byte_for_byte_as_json_dumps_writes_it(values):
    function = {"critical_values": values}
    assert _main("tree", json.dumps(function).encode())[1] == _written(
        lambda f: tree_to_dict(merge_tree_of_sequence(sequence_from_dict(f))), function)


@settings(deadline=None, max_examples=100)
@given(barcode=_barcodes(most=6))
def test_tree_documents_are_written_byte_for_byte_as_json_dumps_writes_them(barcode):
    for mode, enumerate_trees in (("--chiral", enumerate_cmts), ("--merge-trees", enumerate_merge_trees)):
        assert _main("enumerate", mode, json.dumps(barcode).encode())[1] == _written(
            lambda b: list(map(tree_to_dict, enumerate_trees(barcode_from_dict(b)))), barcode)
