"""The cli workload: closed-loop chains over all nine subcommands.

Why: it is the only workload where interpreter start-up, import, argparse
and JSON dominate. One client runs one invocation at a time and waits for
it (closed loop, a single client on a 2-CPU machine).

Each cycle runs a function chain on a small random function and on the
k=2048 zigzag and its mirror image, and a barcode chain on a small random
barcode and on {[1,inf), [2,3), [3,5)}, which no function realizes. The
slow zigzag ops (barcode, tree, tree --dot) are a fifth of a cycle, so p90
falls inside them rather than on the edge between them and the rest.

- function chain: ``barcode``; ``tree`` and ``tree --dot``; ``elder`` of
  the tree, which must equal ``barcode``; ``reconstruct``, which must give
  the function back; ``rank`` against bar counting. ``elder`` and
  ``reconstruct`` read the tree that ``tree`` printed, so they are skipped
  when ``tree`` failed.
- barcode chain: ``count`` and ``enumerate`` in all three modes, which must
  agree with each other and with the product formula (or both refuse in
  function mode when no function realizes the barcode); ``strata`` of the
  barcode with itself; ``verify``.
"""
from __future__ import annotations

import json
import os
import re
import resource
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import inputs
import workloads
from tally import PROBE_NOMINAL_S, Tally, probe_seconds

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORK = ROOT / ".bench_tmp"
INVOCATION_TIMEOUT_S = 60
PROBES = 5  # bare start-up and import samples for the traced run

ZIGZAG_K = 2048
RANDOM_K = (4, 32)
RANDOM_N = 4
COUNT_FUNCTIONS_DISAGREES = "count_functions_disagrees_with_enumerate"
MODES = ("--chiral", "--merge-trees", "--functions")


def environment() -> dict:
    """This environment with the checkout's src first on PYTHONPATH."""
    src = str(ROOT / "src")
    path = os.environ.get("PYTHONPATH")
    return dict(os.environ, PYTHONPATH=src + os.pathsep + path if path else src)


class Client:
    """Runs invocations one at a time and records each as one op."""

    def __init__(self, workdir: Path, tally: Tally, stats_dir: Path | None = None):
        self.workdir = workdir
        self.tally = tally
        self.stats_dir = stats_dir
        self.states: list[dict] = []
        self.env = environment()

    def write(self, name: str, doc) -> str:
        path = self.workdir / name
        path.write_text(doc if isinstance(doc, str) else json.dumps(doc))
        return str(path)

    def invoke(self, args: list[str]):
        if self.stats_dir is None:
            cmd = [sys.executable, "-m", "persfiber.cli", *args]
        else:
            stats = self.stats_dir / "stats.json"
            cmd = [sys.executable, str(BENCH / "clitrace.py"), str(stats), *args]
        start = perf_counter()
        proc = subprocess.run(cmd, capture_output=True, text=True, env=self.env,
                              cwd=self.workdir, timeout=INVOCATION_TIMEOUT_S)
        elapsed = perf_counter() - start
        if self.stats_dir is not None:
            self.states.append(json.loads(stats.read_text()))
            stats.unlink()
        return proc, elapsed

    def op(self, args: list[str], judge):
        """Run one invocation, then judge it: judge(proc) -> None, a failure text, or ("known", name)."""
        proc, elapsed = self.invoke(args)
        return proc, elapsed, _judged(judge, proc)

    def record(self, command: str, elapsed: float, verdict, label: str):
        if verdict is None:
            self.tally.add(elapsed, "ok", command=command)
        elif isinstance(verdict, tuple):
            self.tally.add(elapsed, "known", verdict[1], command=command)
        else:
            self.tally.add(elapsed, "failed", f"{label}: {verdict}", command=command)


def _refused(proc) -> bool:
    """Exit 1 with a named validation error, not a traceback."""
    return proc.returncode == 1 and re.match(r"[A-Za-z_]\w*: ", proc.stderr) is not None


def _judged(judge, proc):
    try:
        return judge(proc)
    except (ValueError, KeyError, TypeError) as exc:  # unparsable or misshapen output
        return f"output not understood: {type(exc).__name__}: {exc}"


def _bars_of(doc) -> list[tuple]:
    return sorted((b["birth"], b["death"]) for b in doc["bars"])


def function_chain(client: Client, label: str, values: list[int], r, t):
    fn = client.write(f"{label}.fn.json", {"critical_values": values})
    n = len(values)

    def judge_barcode(proc):
        if proc.returncode != 0:
            return f"exit {proc.returncode}: {proc.stderr[-200:]}"
        bars = _bars_of(json.loads(proc.stdout))
        return None if inputs.sequence_bars_consistent(values, bars) else "births/deaths are not the minima/maxima"

    proc, elapsed, verdict = client.op(["barcode", fn], judge_barcode)
    client.record("barcode", elapsed, verdict, f"{label} barcode")
    bars = _bars_of(json.loads(proc.stdout)) if verdict is None else None

    def judge_tree(dot: bool):
        def judge(proc):
            if proc.returncode == 1 and "RecursionError" in proc.stderr and label.startswith("zigzag"):
                return ("known", workloads.ZIGZAG_RECURSION)
            if proc.returncode != 0:
                return f"exit {proc.returncode}: {proc.stderr[-200:]}"
            if dot:
                labels = proc.stdout.count("[label=")
                return None if labels == n else f"{labels} labelled vertices, expected {n}"
            heights = inputs.in_order_heights(json.loads(proc.stdout))
            return None if heights == values else "in-order heights are not the function"
        return judge

    proc, elapsed, verdict = client.op(["tree", fn], judge_tree(False))
    client.record("tree", elapsed, verdict, f"{label} tree")
    tree = client.write(f"{label}.tree.json", proc.stdout) if verdict is None else None
    _, elapsed, verdict = client.op(["tree", "--dot", fn], judge_tree(True))
    client.record("tree", elapsed, verdict, f"{label} tree --dot")

    if tree is None:
        client.tally.skipped += 2
    else:
        def judge_elder(proc):
            if proc.returncode != 0:
                return f"exit {proc.returncode}: {proc.stderr[-200:]}"
            return None if _bars_of(json.loads(proc.stdout)) == bars else "elder barcode differs from barcode"

        _, elapsed, verdict = client.op(["elder", tree], judge_elder)
        client.record("elder", elapsed, verdict, f"{label} elder")

        def judge_reconstruct(proc):
            if proc.returncode != 0:
                return f"exit {proc.returncode}: {proc.stderr[-200:]}"
            points = json.loads(proc.stdout)["breakpoints"]
            if [y for _, y in points] != values:
                return "reconstructed heights are not the function"
            xs = [x for x, _ in points]
            return None if xs[0] == 0 and xs[-1] == 1 and xs == sorted(set(xs)) else "x values not increasing on [0, 1]"

        _, elapsed, verdict = client.op(["reconstruct", tree], judge_reconstruct)
        client.record("reconstruct", elapsed, verdict, f"{label} reconstruct")

    def judge_rank(proc):
        if proc.returncode != 0:
            return f"exit {proc.returncode}: {proc.stderr[-200:]}"
        if bars is None:
            return "no barcode to count bars against"
        expected = inputs.bars_alive(bars, r, t)
        got = int(proc.stdout)
        return None if got == expected else f"rank {got}, bar counting {expected}"

    _, elapsed, verdict = client.op(["rank", fn, "--r", str(r), "--t", str(t)], judge_rank)
    client.record("rank", elapsed, verdict, f"{label} rank")


def barcode_chain(client: Client, label: str, bars: list[tuple]):
    path = client.write(f"{label}.bc.json", {"bars": [{"birth": b, "death": d} for b, d in bars]})
    realizable = inputs.realizable_by_function(bars)
    expected = {"--chiral": inputs.count_cmts(bars), "--merge-trees": inputs.count_merge_trees(bars),
                "--functions": inputs.count_cmts(bars) if realizable else None}
    values = sorted([b for b, _ in bars] + [d for _, d in bars if d is not None])

    runs = {}
    for mode in MODES:
        runs["count", mode] = client.invoke(["count", mode, path])
        runs["enumerate", mode] = client.invoke(["enumerate", mode, path])
    for mode in MODES:
        want = expected[mode]
        (count, t_count), (listing, t_list) = runs["count", mode], runs["enumerate", mode]
        if want is None:
            verdict = None if _refused(count) else f"counted {count.stdout.strip()} for a barcode no function realizes"
            if verdict and count.returncode == 0 and _refused(listing):
                verdict = ("known", COUNT_FUNCTIONS_DISAGREES)
            client.record("count", t_count, verdict, f"{label} count {mode}")
            verdict = None if _refused(listing) else f"enumerate did not refuse: exit {listing.returncode}"
            client.record("enumerate", t_list, verdict, f"{label} enumerate {mode}")
            continue

        def judge_count(proc):
            if proc.returncode != 0:
                return f"exit {proc.returncode}: {proc.stderr[-200:]}"
            return None if int(proc.stdout) == want else f"count {proc.stdout.strip()}, formula {want}"

        def judge_listing(proc):
            if proc.returncode != 0:
                return f"exit {proc.returncode}: {proc.stderr[-200:]}"
            items = json.loads(proc.stdout)
            if len(items) != want:
                return f"{len(items)} listed, formula {want}"
            if mode == "--functions" and any(sorted(f) != values for f in items):
                return "a listed function does not use the barcode's values"
            return None

        client.record("count", t_count, _judged(judge_count, count), f"{label} count {mode}")
        client.record("enumerate", t_list, _judged(judge_listing, listing), f"{label} enumerate {mode}")

    relations = inputs.containment(bars)

    def judge_strata(proc):
        if proc.returncode != 0:
            return f"exit {proc.returncode}: {proc.stderr[-200:]}"
        doc = json.loads(proc.stdout)
        poset = {"n": len(bars), "relations": relations}
        ok = doc["same_stratum"] is True and doc["posets"] == [poset, poset]
        return None if ok else f"strata reported {doc}"

    _, elapsed, verdict = client.op(["strata", path, path], judge_strata)
    client.record("strata", elapsed, verdict, f"{label} strata")

    def judge_verify(proc):
        if not realizable:
            return None if _refused(proc) else f"verify did not refuse: exit {proc.returncode}"
        if proc.returncode != 0:
            return f"exit {proc.returncode}: {proc.stderr[-200:]}"
        return workloads.verify_report_errors(bars, json.loads(proc.stdout))

    _, elapsed, verdict = client.op(["verify", path], judge_verify)
    client.record("verify", elapsed, verdict, f"{label} verify")


def run_cycle(client: Client, seed: int, c: int):
    rng = inputs.rng_for("cli", seed, c)
    k = inputs.log_uniform_sizes(rng, 1, *RANDOM_K)[0]
    chains = [
        ("fn", f"random-k{k}", inputs.random_sequence(k, rng)),
        ("fn", f"zigzag-k{ZIGZAG_K}", inputs.zigzag(ZIGZAG_K)),
        ("fn", f"zigzag-mirrored-k{ZIGZAG_K}", inputs.zigzag(ZIGZAG_K)[::-1]),
        ("bc", f"random-N{RANDOM_N}", inputs.random_barcode(RANDOM_N, rng)),
        ("bc", "unrealizable", inputs.UNREALIZABLE_BARCODE),
    ]
    for kind, label, data in chains:
        if kind == "fn":
            r, t = inputs.level_pairs(data, rng, 1)[0]
            function_chain(client, f"{label}-c{c}", data, r, t)
        else:
            barcode_chain(client, f"{label}-c{c}", data)


def run_pass(workdir: Path, seed: int, seconds=None, cycles=None, traced=False):
    tally = Tally()
    client = Client(workdir, tally, stats_dir=workdir if traced else None)
    started = perf_counter()
    while True:
        run_cycle(client, seed, tally.cycles)
        tally.cycles += 1
        if (cycles is not None and tally.cycles >= cycles) or (cycles is None and tally.done(seconds, started)):
            return tally, client.states


def _startup_ms(code: str, env: dict) -> float:
    """Median calibrated time, in ms, of `python -c code`."""
    samples = []
    for _ in range(PROBES):
        start = perf_counter()
        subprocess.run([sys.executable, "-c", code], check=True, env=env, timeout=INVOCATION_TIMEOUT_S)
        samples.append((perf_counter() - start) * PROBE_NOMINAL_S / probe_seconds())
    return 1000 * statistics.median(samples)


def run(args) -> dict:
    workdir = WORK / str(os.getpid())
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        if args.setup_only:
            client = Client(workdir, Tally())
            fn = client.write("warmup.fn.json", {"critical_values": inputs.random_sequence(8, inputs.rng_for("cli", 0, -1))})
            proc, elapsed = client.invoke(["barcode", fn])
            if proc.returncode != 0:
                raise RuntimeError(f"warm-up invocation failed: {proc.stderr[-400:]}")
            return {"setup_s": elapsed * PROBE_NOMINAL_S / probe_seconds(), "setup_wall_s": elapsed}
        tally, _ = run_pass(workdir, args.seed, seconds=args.seconds)
        untraced = tally.report()
        # Every reaped invocation is a child of this process, and nothing else is.
        result = {"untraced": untraced, "rss_kb": resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss}
        if args.trace:
            from tracer import empty_state, layer_metrics, merge_state
            traced, states = run_pass(workdir, args.seed, cycles=tally.cycles, traced=True)
            state = empty_state()
            for s in states:
                merge_state(state, s)
            layers = layer_metrics(state)
            env = environment()
            interpreter = _startup_ms("pass", env)
            layers["cli.interpreter_ms"] = (interpreter, "ms")
            layers["cli.import_ms"] = (_startup_ms("import persfiber.cli", env) - interpreter, "ms")
            for command, p50 in untraced["p50_by_command"].items():
                layers[f"cli.{command}.p50_ms"] = (1000 * p50, "ms")
            result.update(traced=traced.report(), layers=layers, absent=state["absent"])
        return result
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        if WORK.exists() and not any(WORK.iterdir()):
            WORK.rmdir()
