"""One workload process: set up, run the timed loop, check every op, report.

Run by ``run.py`` with ``PYTHONPATH`` pointing at the checkout's ``src``;
prints one JSON object on stdout. The library workloads call persfiber in
this process; the cli workload is a single closed-loop client that runs one
``python -m persfiber.cli`` invocation at a time.

    python3 bench/child.py --workload forward --seed 1 --seconds 20 --trace 0
    python3 bench/child.py --workload forward --setup-only
"""
from __future__ import annotations

import argparse
import json
import os
import resource
import sys
from time import perf_counter

import workloads
from tally import PROBE_NOMINAL_S, Tally, probe_seconds


def run_library_pass(pf, wl, seed, seconds=None, cycles=None, tracer=None) -> Tally:
    """Run whole cycles: until `seconds` of timed work, or exactly `cycles` cycles."""
    tally = Tally()
    started = perf_counter()
    while True:
        for item in wl.cycle(seed, tally.cycles):
            if tracer:
                tracer.enabled = True
            error = None
            start = perf_counter()
            try:
                out = wl.op(pf, item)
            except Exception as exc:  # an op that raises is a failed op, and the run goes on
                error = exc
            elapsed = perf_counter() - start
            if tracer:
                tracer.enabled = False
                tracer.end_op()
            if error is not None:
                name = wl.known(item, error)
                if name:
                    tally.add(elapsed, "known", name)
                else:
                    tally.add(elapsed, "failed", f"{item['tag']}: {type(error).__name__}: {error}")
                continue
            try:
                problem = wl.check(pf, item, out)
            except Exception as exc:
                problem = f"check raised {type(exc).__name__}: {exc}"
            if problem:
                tally.add(elapsed, "failed", f"{item['tag']}: {problem}")
            else:
                tally.add(elapsed, "ok")
        tally.cycles += 1
        if (cycles is not None and tally.cycles >= cycles) or (cycles is None and tally.done(seconds, started)):
            return tally


def library(args) -> dict:
    wl = workloads.LIBRARY[args.workload]
    start = perf_counter()
    import persfiber as pf
    wl.op(pf, wl.warmup())
    setup_s = perf_counter() - start
    if args.setup_only:
        return {"setup_s": setup_s * PROBE_NOMINAL_S / probe_seconds(), "setup_wall_s": setup_s}
    tally = run_library_pass(pf, wl, args.seed, seconds=args.seconds)
    result = {"untraced": tally.report(), "rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss}
    if args.trace:
        from tracer import Tracer, layer_metrics
        tracer = Tracer()
        tracer.install()
        traced = run_library_pass(pf, wl, args.seed, cycles=tally.cycles, tracer=tracer)
        tracer.uninstall()
        result["traced"] = traced.report()
        result["layers"] = layer_metrics(tracer.state)
        result["absent"] = tracer.state["absent"]
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*workloads.LIBRARY, "cli"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)
    # One CPU for the workload, its invocations and the calibration probe,
    # so the probe measures the speed of the CPU the ops actually ran on.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    if args.workload == "cli":
        import cli_workload
        result = cli_workload.run(args)
    else:
        result = library(args)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
