"""persfiber benchmark: one workload, one seed, end-to-end or per-layer metrics.

    python3 bench/run.py --workload forward --seed 1 --seconds 20 --trace 0

Run from the root of a checkout; persfiber is imported from ``src`` (the
package need not be installed). The workloads and why each exists:

- ``forward``: function -> barcode, merge tree, elder rule, in-order
  round trip, counts and rank. Stresses the sweep, the tree build and mu.
- ``enumerate``: barcode -> every function and merge tree realizing it.
  Stresses tree construction, materialize, canonical_form and in_order.
- ``oracle``: verify() on small barcodes. The same core and persistence
  layers as forward, through many tiny calls; stresses the brute force.
- ``cli``: closed-loop chains over all nine subcommands of
  ``python -m persfiber.cli``. Stresses start-up, import, argparse, JSON.

Each run first measures set-up several times in fresh processes (import of
persfiber plus one small warm-up op; for cli, one whole invocation) and
reports the median as ``setup_s``. It then runs the workload in a child
process for at least ``--seconds`` of timed work and at least 100 ops, in
whole cycles, and checks every op's output against the paper's invariants
outside the timed interval.

With ``--trace 0`` the last line of stdout carries the end-to-end metrics:
setup_s, ops_per_s (successful ops over the timed wall time), op_p50_ms,
op_p90_ms (over every attempted op) and peak_rss_mb (ru_maxrss of the
workload process; for cli, the largest over its invocations). With
``--trace 1`` the same ops run once more with every listed persfiber
function wrapped, and the last line carries the per-layer metrics instead,
with trace.overhead_ratio, the traced over the untraced timed wall time.

Failures the code is known to have are named, not hidden: an op that fails
in exactly that way is counted in ``known_failures`` and in
``fail_ratio`` on the report line, and not in ``failed`` of the result
line, which counts only unexpected failures and sets ``correct`` to false.
Exit status is 0 whenever a result line is printed, and 2 without one
(for instance when the checkout has no ``src/persfiber``).
"""
from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKLOADS = ("forward", "enumerate", "oracle", "cli")
SETUP_SAMPLES = 9
RUN_TIMEOUT_S = 170

sys.path.insert(0, str(BENCH))
from cli_workload import environment  # noqa: E402
from tracer import FUNCTIONS, SIZED  # noqa: E402

CLI_COMMANDS = ["barcode", "tree", "elder", "count", "enumerate", "reconstruct", "rank", "strata", "verify"]
END_TO_END = {"setup_s": "s", "ops_per_s": "1/s", "op_p50_ms": "ms", "op_p90_ms": "ms", "peak_rss_mb": "MB"}


def per_layer_units() -> dict[str, str]:
    units = {}
    for key in FUNCTIONS:
        units[f"{key}.calls"] = "count"
        units[f"{key}.self_s"] = "s"
    for key in SIZED:
        units[f"{key}.size_exponent"] = "1"
    units.update({
        "core.tree_nodes": "count",
        "fiber.results": "count",
        "fiber.tree_nodes_per_result": "nodes/result",
        "oracle.candidates_generated": "count",
        "oracle.candidates_distinct": "count",
        "oracle.useful_ratio": "ratio",
        "cli.interpreter_ms": "ms",
        "cli.import_ms": "ms",
    })
    for command in CLI_COMMANDS:
        units[f"cli.{command}.p50_ms"] = "ms"
    units["trace.overhead_ratio"] = "ratio"
    return units


class BenchmarkError(RuntimeError):
    pass


def child(args: list[str], deadline: float) -> dict:
    """Run bench/child.py with `args` and return its JSON report.

    The child gets its own process group, so that on a timeout the CLI
    invocation it may be waiting for is stopped with it.
    """
    timeout = deadline - perf_counter()
    if timeout <= 0:
        raise BenchmarkError("out of time before the workload process started")
    with subprocess.Popen([sys.executable, str(BENCH / "child.py"), *args], stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True, env=environment(), cwd=ROOT,
                          start_new_session=True) as proc:
        try:
            out, err = proc.communicate(timeout=timeout)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            raise BenchmarkError(f"workload process timed out: {args}") from None
    if proc.returncode != 0:
        raise BenchmarkError(f"workload process {args} exited {proc.returncode}:\n{err[-2000:]}")
    return json.loads(out.splitlines()[-1])


def measure_setup(workload: str, deadline: float) -> float:
    """Median set-up time over fresh processes."""
    setup_args = ["--workload", workload, "--setup-only"]
    child(setup_args, deadline)  # the first import compiles bytecode; not a sample
    return statistics.median(child(setup_args, deadline)["setup_s"] for _ in range(SETUP_SAMPLES))


def summarize(workload: str, report: dict, setup_s: float | None) -> tuple[dict, dict]:
    run = report["untraced"]
    latencies = run["latencies"]
    known = sum(run["known"].values())
    summary = {
        "workload": workload,
        "ops": run["attempted"],
        "ok": run["ok"],
        "failed": run["failed"],
        "known_failures": run["known"],
        "skipped": run["skipped"],
        "fail_ratio": (run["failed"] + known) / run["attempted"],
        "cycles": run["cycles"],
        "timed_s": run["timed_s"],
        "wall_s": run["wall_s"],
        "wall_p50_ms": 1000 * run["wall_p50_s"],
        "speed": run["speed"],
        "failures": run["failures"],
    }
    if setup_s is not None:
        summary["setup_samples"] = SETUP_SAMPLES
        values = {
            "setup_s": setup_s,
            "ops_per_s": run["ok"] / run["timed_s"],
            "op_p50_ms": 1000 * statistics.median(latencies),
            "op_p90_ms": 1000 * statistics.quantiles(latencies, n=10)[8],
            "peak_rss_mb": report["rss_kb"] / 1024,
        }
        return {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END.items()}, summary

    layers = {name: value for name, (value, _) in report["layers"].items()}
    layers["trace.overhead_ratio"] = report["traced"]["timed_s"] / run["timed_s"]
    units = per_layer_units()
    summary["absent"] = report["absent"]
    summary["not_exercised"] = sorted(name for name in units if name not in layers)
    summary["traced_failed"] = report["traced"]["failed"]
    return {name: {"value": layers.get(name, 0), "unit": unit} for name, unit in units.items()}, summary


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="persfiber benchmark (see the module docstring).")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "persfiber" / "__init__.py").is_file():
        print(f"no persfiber package under {ROOT / 'src'}; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    deadline = perf_counter() + RUN_TIMEOUT_S
    try:
        setup_s = None if args.trace else measure_setup(args.workload, deadline)
        report = child(["--workload", args.workload, "--seed", str(args.seed), "--seconds", str(args.seconds),
                        "--trace", str(args.trace)], deadline)
    except (BenchmarkError, ValueError, KeyError) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 2
    metrics, summary = summarize(args.workload, report, setup_s)
    traced_failed = summary.get("traced_failed", 0)
    print("report " + json.dumps(summary))
    for name, m in metrics.items():
        print(f"  {name:48s} {m['value']:>14.6g} {m['unit']}")
    print(json.dumps({
        "correct": summary["failed"] == 0 and traced_failed == 0,
        "attempted": summary["ops"],
        "failed": summary["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
