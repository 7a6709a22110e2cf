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
    InvalidDocument,
    ValidationError,
    barcode_from_dict,
    barcode_to_dict,
    sequence_from_dict,
    tree_from_dict,
    tree_to_dict,
)


def _json(call, *args):
    """Make one json call. json's two limits, an int past sys.get_int_max_str_digits() (ValueError) and nesting past
    the recursion limit (RecursionError), read or written, become InvalidDocument, which keeps the class name."""
    try:
        return call(*args)
    except (json.JSONDecodeError, UnicodeDecodeError):
        raise
    except (ValueError, RecursionError) as exc:
        raise InvalidDocument(f"{type(exc).__name__}: {exc}") from None


def _load(path: str) -> object:
    if path == "-":
        return _json(json.load, sys.stdin)
    with open(path, encoding="utf-8") as fh:
        return _json(json.load, fh)


def _emit(doc: object) -> None:
    print(_json(json.dumps, doc))


def _print_count(n: int) -> None:
    # str(n) refuses ints past sys.get_int_max_str_digits() (4,300 by default) and Decimal(n) is quadratic: split n
    # into halves down to 4,096 bits, recombined exactly. Imported here: it adds 2 ms to every other subcommand.
    import decimal

    parts, widths = [n], [4096]
    while n >> widths[-1]:
        widths.append(2 * widths[-1])
    for w in reversed(widths[:-1]):  # split every part into its low and high w bits
        parts = [h for p in parts for h in (p & ((1 << w) - 1), p >> w)]
    with decimal.localcontext() as ctx:  # so wide that no sum or product rounds
        ctx.prec, ctx.Emax, ctx.traps[decimal.Inexact] = decimal.MAX_PREC, decimal.MAX_EMAX, True
        parts = list(map(decimal.Decimal, parts))
        for two_w in (decimal.Decimal(2) ** w for w in widths[:-1]):
            parts = [lo + hi * two_w for lo, hi in zip(parts[0::2], parts[1::2])]
        print(parts[0])


def _parse_level(text: str) -> float:
    try:
        value = _json(json.loads, text)
    except json.JSONDecodeError:
        raise InvalidDocument(f"not a number: {text!r}") from None
    # json takes NaN, which orders against nothing; +-Infinity are real levels
    if isinstance(value, bool) or not isinstance(value, (int, float)) or value != value:
        raise InvalidDocument(f"not a number: {text!r}")
    return value


def cmd_barcode(args: argparse.Namespace) -> None:
    seq = sequence_from_dict(_load(args.function))
    barcode, _ = persistence.barcode_of_sequence(seq)
    _emit(barcode_to_dict(barcode))


def cmd_tree(args: argparse.Namespace) -> None:
    seq = sequence_from_dict(_load(args.function))
    tree = trees.merge_tree_of_sequence(seq)
    if args.dot:
        sys.stdout.write(trees.to_dot(tree))
    else:
        _emit(tree_to_dict(tree))


def cmd_elder(args: argparse.Namespace) -> None:
    barcode, _ = trees.elder_rule(tree_from_dict(_load(args.tree)))
    _emit(barcode_to_dict(barcode))


def cmd_count(args: argparse.Namespace) -> None:
    barcode = barcode_from_dict(_load(args.barcode))
    if args.mode == "merge-trees":
        _print_count(fiber.count_merge_trees(barcode))
    else:
        if args.mode == "functions":
            fiber.check_function_realizable(barcode)
        _print_count(fiber.count_cmts(barcode))


def cmd_enumerate(args: argparse.Namespace) -> None:
    barcode = barcode_from_dict(_load(args.barcode))
    if args.mode == "merge-trees":
        out = [tree_to_dict(t) for t in fiber.enumerate_merge_trees(barcode)]
    elif args.mode == "functions":
        out = [f.values for f in fiber.enumerate_functions(barcode)]
    else:
        out = [tree_to_dict(t) for t in fiber.enumerate_cmts(barcode)]
    _emit(out)


def cmd_reconstruct(args: argparse.Namespace) -> None:
    seq = trees.cmt_to_sequence(tree_from_dict(_load(args.tree)))
    n = len(seq.values)
    _emit({"breakpoints": [[i / (n - 1), y] for i, y in enumerate(seq.values)]})


def cmd_rank(args: argparse.Namespace) -> None:
    seq = sequence_from_dict(_load(args.function))
    r = _parse_level(args.r)
    t = _parse_level(args.t)
    print(persistence.rank(seq, r, t))


def cmd_strata(args: argparse.Namespace) -> None:
    b1 = barcode_from_dict(_load(args.barcode1))
    b2 = barcode_from_dict(_load(args.barcode2))
    out = {"same_stratum": fiber.same_stratum(b1, b2), "posets": []}
    for b in (b1, b2):
        relations = [[j, k] for j, ks in enumerate(fiber.containers(b), 1) for k in ks]
        out["posets"].append({"n": b.N, "relations": relations})
    _emit(out)


def cmd_verify(args: argparse.Namespace) -> None:
    _emit(oracle.verify(barcode_from_dict(_load(args.barcode))))


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

    p = sub.add_parser("elder", help="barcode of a merge tree of either kind (elder rule)")
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
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    rank_options = parser._subparsers._group_actions[0].choices["rank"]._option_string_actions
    for i in range(len(argv) - 1, 0, -1):  # argparse takes a level starting with - (-1e3, -inf) for an option
        flag, level = argv[i - 1:i + 1]
        # As argparse reads it, a value starting with "--" or with one of rank's short options (-h) stays an option.
        if flag in ("--r", "--t") and level[:1] == "-" and level[:2] != "--" and level[:2] not in rank_options:
            argv[i - 1:i + 1] = [f"{flag}={level}"]
    args = parser.parse_args(argv)
    try:
        args.func(args)
    except (ValidationError, json.JSONDecodeError, UnicodeDecodeError, OSError) as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
