"""Command-line front end.

Every subcommand reads JSON from a file path (or - for stdin) and writes
JSON (or DOT, or a bare integer) to stdout. Exit status: 0 on success, 1
when the input fails validation (the error name goes to stderr), 2 on usage
errors.
"""
from __future__ import annotations

import argparse
import json
import sys

from . import fiber, oracle, persistence, trees
from .core import (
    ChiralMergeTree,
    InvalidDocument,
    KindMismatch,
    ValidationError,
    barcode_from_dict,
    barcode_to_dict,
    sequence_from_dict,
    tree_from_dict,
    tree_to_dict,
)


def _load(path: str) -> object:
    if path == "-":
        return json.load(sys.stdin)
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def _emit(doc: object) -> None:
    print(json.dumps(doc))


def _parse_level(text: str) -> float:
    try:
        value = json.loads(text)
    except json.JSONDecodeError:
        raise InvalidDocument(f"not a number: {text!r}") from None
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise InvalidDocument(f"not a number: {text!r}")
    return value


def cmd_barcode(args: argparse.Namespace) -> int:
    seq = sequence_from_dict(_load(args.function))
    barcode, _ = persistence.barcode_of_sequence(seq)
    _emit(barcode_to_dict(barcode))
    return 0


def cmd_tree(args: argparse.Namespace) -> int:
    seq = sequence_from_dict(_load(args.function))
    tree = trees.merge_tree_of_sequence(seq)
    if args.dot:
        sys.stdout.write(trees.to_dot(tree))
    else:
        _emit(tree_to_dict(tree))
    return 0


def cmd_elder(args: argparse.Namespace) -> int:
    tree = tree_from_dict(_load(args.tree))
    if isinstance(tree, ChiralMergeTree):
        tree = trees.forget_chirality(tree)
    barcode, _ = trees.elder_rule(tree)
    _emit(barcode_to_dict(barcode))
    return 0


def cmd_count(args: argparse.Namespace) -> int:
    barcode = barcode_from_dict(_load(args.barcode))
    if args.mode == "merge-trees":
        print(fiber.count_merge_trees(barcode))
    else:
        if args.mode == "functions":
            fiber.check_function_realizable(barcode)
        print(fiber.count_cmts(barcode))
    return 0


def cmd_enumerate(args: argparse.Namespace) -> int:
    barcode = barcode_from_dict(_load(args.barcode))
    if args.mode == "merge-trees":
        out = [tree_to_dict(t) for t in fiber.enumerate_merge_trees(barcode)]
    elif args.mode == "functions":
        out = [list(f.values) for f in fiber.enumerate_functions(barcode)]
    else:
        out = [tree_to_dict(t) for t in fiber.enumerate_cmts(barcode)]
    _emit(out)
    return 0


def cmd_reconstruct(args: argparse.Namespace) -> int:
    tree = tree_from_dict(_load(args.tree))
    if not isinstance(tree, ChiralMergeTree):
        raise KindMismatch("reconstruction needs a chiral tree; an unordered one underdetermines the function")
    seq = trees.cmt_to_sequence(tree)
    n = len(seq.values)
    _emit({"breakpoints": [[i / (n - 1), y] for i, y in enumerate(seq.values)]})
    return 0


def cmd_rank(args: argparse.Namespace) -> int:
    seq = sequence_from_dict(_load(args.function))
    r = _parse_level(args.r)
    t = _parse_level(args.t)
    print(persistence.rank(seq, r, t))
    return 0


def cmd_strata(args: argparse.Namespace) -> int:
    b1 = barcode_from_dict(_load(args.barcode1))
    b2 = barcode_from_dict(_load(args.barcode2))
    out = {"same_stratum": fiber.same_stratum(b1, b2), "posets": []}
    for b in (b1, b2):
        poset = fiber.containment_poset(b)
        out["posets"].append({"n": poset.n, "relations": sorted(list(p) for p in poset.relation)})
    _emit(out)
    return 0


def cmd_verify(args: argparse.Namespace) -> int:
    barcode = barcode_from_dict(_load(args.barcode))
    fiber.check_function_realizable(barcode)
    _emit(oracle.verify(barcode))
    return 0


def _add_mode_flags(p: argparse.ArgumentParser) -> None:
    group = p.add_mutually_exclusive_group()
    group.add_argument(
        "--chiral", dest="mode", action="store_const", const="chiral",
        help="chiral merge trees (the default)",
    )
    group.add_argument(
        "--merge-trees", dest="mode", action="store_const", const="merge-trees",
        help="unordered merge trees",
    )
    group.add_argument(
        "--functions", dest="mode", action="store_const", const="functions",
        help="function representatives (needs pairwise distinct births)",
    )
    p.set_defaults(mode="chiral")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="persfiber",
        description="Degree-0 persistence of piecewise-linear interval functions "
        "and exact enumeration of everything realizing a barcode.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("barcode", help="barcode of a critical sequence")
    p.add_argument("function", help="critical-sequence JSON file, or - for stdin")
    p.set_defaults(func=cmd_barcode)

    p = sub.add_parser("tree", help="chiral merge tree of a critical sequence")
    p.add_argument("function", help="critical-sequence JSON file, or - for stdin")
    p.add_argument("--dot", action="store_true", help="emit Graphviz instead of JSON")
    p.set_defaults(func=cmd_tree)

    p = sub.add_parser("elder", help="barcode of a merge tree (elder rule)")
    p.add_argument("tree", help="tree JSON file, or - for stdin")
    p.set_defaults(func=cmd_elder)

    p = sub.add_parser("count", help="how many realizations a barcode has")
    p.add_argument("barcode", help="barcode JSON file, or - for stdin")
    _add_mode_flags(p)
    p.set_defaults(func=cmd_count)

    p = sub.add_parser("enumerate", help="list every realization of a barcode")
    p.add_argument("barcode", help="barcode JSON file, or - for stdin")
    _add_mode_flags(p)
    p.set_defaults(func=cmd_enumerate)

    p = sub.add_parser("reconstruct", help="piecewise-linear function realizing a chiral tree")
    p.add_argument("tree", help="tree JSON file, or - for stdin")
    p.set_defaults(func=cmd_reconstruct)

    p = sub.add_parser("rank", help="components at level t containing one at level r")
    p.add_argument("function", help="critical-sequence JSON file, or - for stdin")
    p.add_argument("--r", required=True, help="lower level")
    p.add_argument("--t", required=True, help="upper level")
    p.set_defaults(func=cmd_rank)

    p = sub.add_parser("strata", help="compare the containment posets of two barcodes")
    p.add_argument("barcode1", help="barcode JSON file, or - for stdin")
    p.add_argument("barcode2", help="barcode JSON file")
    p.set_defaults(func=cmd_strata)

    p = sub.add_parser("verify", help="cross-check formula, enumeration and brute force")
    p.add_argument("barcode", help="barcode JSON file, or - for stdin")
    p.set_defaults(func=cmd_verify)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValidationError, json.JSONDecodeError, UnicodeDecodeError, OSError) as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
