"""Outcome and latency bookkeeping for one pass of a workload.

The machines this runs on are shared, and their speed drifts by a quarter
or more over tens of seconds, which moves every wall time of a run
together. So a tally also times a fixed pure-Python calibration loop (the
probe) at least every PROBE_EVERY_S, and reports each op's wall time
scaled by PROBE_NOMINAL_S over the probe time measured around it:
calibrated seconds, the time the op would take on a machine where the
probe takes PROBE_NOMINAL_S. Raw wall times are reported next to them.
"""
from __future__ import annotations

import statistics
from collections import Counter
from time import perf_counter

MIN_OPS = 100      # so that p90 has at least ten samples beyond it
WALL_CAP_S = 120   # stop starting cycles after this much wall time, whatever the count
FAILURES_SHOWN = 5
PROBE_NOMINAL_S = 0.002  # about the probe's time on the 2-CPU machine the benchmark was defined on
PROBE_EVERY_S = 0.25


def probe_seconds() -> float:
    """Best of three timings of a fixed loop of tuple building, sorting and dict updates."""
    best = float("inf")
    for _ in range(3):
        start = perf_counter()
        rows = [(i * 7919 % 1009, str(i)) for i in range(3000)]
        rows.sort()
        totals: dict[int, int] = {}
        for key, text in rows:
            totals[key] = totals.get(key, 0) + len(text)
        best = min(best, perf_counter() - start)
    return best


class Tally:
    """Outcome and latency of every op of one pass."""

    def __init__(self):
        self.wall: list[float] = []
        self.probe_of: list[int] = []   # index of the last probe before each op
        self.probes = [probe_seconds()]
        self.last_probe = perf_counter()
        self.commands: list[str | None] = []
        self.ok = 0
        self.failed = 0
        self.skipped = 0
        self.known: Counter = Counter()
        self.failures: list[str] = []
        self.cycles = 0

    def add(self, seconds: float, status: str, detail: str | None = None, command: str | None = None):
        """Record one op, after its timer stopped.

        status is "ok", "failed" (detail says why) or "known" (detail names
        the known failure).
        """
        self.wall.append(seconds)
        self.probe_of.append(len(self.probes) - 1)
        self.commands.append(command)
        if status == "ok":
            self.ok += 1
        elif status == "known":
            self.known[detail] += 1
        else:
            self.failed += 1
            if len(self.failures) < FAILURES_SHOWN:
                self.failures.append(detail)
        if perf_counter() - self.last_probe >= PROBE_EVERY_S:
            self.probes.append(probe_seconds())
            self.last_probe = perf_counter()

    @property
    def attempted(self) -> int:
        return len(self.wall)

    def done(self, seconds: float, started: float) -> bool:
        """Whole cycles only, until the wall time and the op count are both reached."""
        enough = sum(self.wall) >= seconds and self.attempted >= MIN_OPS
        return enough or perf_counter() - started >= WALL_CAP_S

    def report(self) -> dict:
        self.probes.append(probe_seconds())
        scale = [2 * PROBE_NOMINAL_S / (self.probes[i] + self.probes[i + 1]) for i in range(len(self.probes) - 1)]
        latencies = [s * scale[i] for s, i in zip(self.wall, self.probe_of)]
        by_command: dict[str, list[float]] = {}
        for command, seconds in zip(self.commands, latencies):
            if command is not None:
                by_command.setdefault(command, []).append(seconds)
        return {
            "attempted": self.attempted,
            "ok": self.ok,
            "failed": self.failed,
            "known": dict(self.known),
            "skipped": self.skipped,
            "failures": self.failures,
            "cycles": self.cycles,
            "wall_s": sum(self.wall),
            "wall_p50_s": statistics.median(self.wall),
            "timed_s": sum(latencies),
            "latencies": latencies,
            "speed": PROBE_NOMINAL_S / statistics.median(self.probes),
            "p50_by_command": {c: statistics.median(v) for c, v in by_command.items()},
        }
