import io
import json

import pytest

from persfiber.core import barcode_from_dict, sequence_from_dict, tree_from_dict
from persfiber.cli import main

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


def test_reconstruct_command(write, capsys):
    doc = {"height": 7, "left": {"height": 1}, "right": {"height": 2}}
    code, out, _ = run(capsys, ["reconstruct", write(doc)])
    assert code == 0
    assert json.loads(out) == {"breakpoints": [[0.0, 1], [0.5, 7], [1.0, 2]]}


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


def test_rank_rejects_non_numeric_levels(write, capsys):
    code, _, err = run(capsys, ["rank", write(FN), "--r", "low", "--t", "5"])
    assert code == 1
    assert err.startswith("InvalidDocument:")


def test_usage_errors_exit_two(capsys):
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2
    capsys.readouterr()
    with pytest.raises(SystemExit) as exc:
        main(["count", "--chiral", "--merge-trees", "x.json"])
    assert exc.value.code == 2
