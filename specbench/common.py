"""Shared plumbing of the benchmark: paths, clocks, spans, statistics.

Everything here is benchmark-side.  The program under test is imported
from ``<checkout>/src`` and is never modified; spans wrap calls into its
public functions from the outside.
"""

from __future__ import annotations

import gc
import hashlib
import json
import os
import random
import resource
import statistics
import subprocess
import sys
import time
from contextlib import contextmanager
from typing import Callable, Dict, List, Optional, Sequence, Tuple

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
#: Scratch space for stores, service state and span logs (git-ignored).
WORK_ROOT = os.path.join(ROOT, ".specbench")

clock = time.perf_counter

#: Start-ups timed per run for ``setup_s``, spread across the measured
#: loop (after one untimed warm start), so their median spans host phases.
SETUP_PROBES = 10
#: A percentile is reported only with at least this many samples beyond it.
MIN_BEYOND = 10


def program_env() -> dict:
    """Environment for child processes: the checkout's sources importable,
    temporary files kept inside the checkout."""
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    env["TMPDIR"] = WORK_ROOT
    return env


def workload_rng(seed: int, label: str) -> random.Random:
    """A seeded stream per (run seed, purpose): inputs depend on nothing else."""
    digest = hashlib.sha256(f"{seed}:{label}".encode()).digest()
    return random.Random(int.from_bytes(digest[:8], "big"))


# ----------------------------------------------------------------------
# spans
# ----------------------------------------------------------------------

class Tracer:
    """In-memory span recorder; written out once, when the run ends.

    A span is (name, start, end, parent).  ``self_ms`` of a name is its
    total duration minus the time its direct children cover.
    """

    def __init__(self) -> None:
        self.spans: List[Tuple[str, float, float, int]] = []
        self._stack: List[int] = [-1]

    @contextmanager
    def span(self, name: str):
        index = len(self.spans)
        self.spans.append((name, clock(), 0.0, self._stack[-1]))
        self._stack.append(index)
        try:
            yield
        finally:
            self._stack.pop()
            name_, t0, _, parent = self.spans[index]
            self.spans[index] = (name_, t0, clock(), parent)

    def totals_ms(self, name: str) -> Tuple[float, int]:
        """(summed duration in ms, span count) of every span called ``name``."""
        durations = [t1 - t0 for n, t0, t1, _ in self.spans if n == name]
        return sum(durations) * 1e3, len(durations)

    def self_ms(self, name: str) -> float:
        child_time: Dict[int, float] = {}
        for _, t0, t1, parent in self.spans:
            if parent >= 0:
                child_time[parent] = child_time.get(parent, 0.0) + (t1 - t0)
        return sum((t1 - t0) - child_time.get(i, 0.0)
                   for i, (n, t0, t1, _) in enumerate(self.spans)
                   if n == name) * 1e3

    def mean_ms(self, name: str) -> float:
        total, count = self.totals_ms(name)
        return total / count if count else 0.0

    def write(self, path: str) -> None:
        os.makedirs(os.path.dirname(path), exist_ok=True)
        origin = self.spans[0][1] if self.spans else 0.0
        with open(path, "w", encoding="utf-8") as handle:
            for index, (name, t0, t1, parent) in enumerate(self.spans):
                handle.write(json.dumps({
                    "id": index, "parent": parent, "name": name,
                    "t0_ms": round((t0 - origin) * 1e3, 4),
                    "dur_ms": round((t1 - t0) * 1e3, 4)}) + "\n")


class NullTracer(Tracer):
    """The untraced path: same interface, records nothing."""

    @contextmanager
    def span(self, name: str):
        yield


def stage_timers(core, names: Sequence[Tuple[str, object, str]]
                 ) -> Dict[str, float]:
    """Wrap stage methods on ONE core instance with accumulating timers.

    ``names`` holds (metric stem, owner object, method name).  Only the
    instance attributes change; the class, and so every other core, keeps
    the unmodified kernel.
    """
    spent = {stem: 0.0 for stem, _, _ in names}
    for stem, owner, method in names:
        inner = getattr(owner, method)

        def timed(*args, _inner=inner, _stem=stem):
            t0 = clock()
            try:
                return _inner(*args)
            finally:
                spent[_stem] += clock() - t0

        setattr(owner, method, timed)
    return spent


# ----------------------------------------------------------------------
# statistics
# ----------------------------------------------------------------------

def percentiles(samples: Sequence[float]) -> Dict[str, Optional[float]]:
    """Median and the highest percentile with MIN_BEYOND samples beyond it.

    Returns ``{"n", "p50", "tail", "tail_pct"}``; a value is ``None`` when
    too few samples lie beyond it to report it.
    """
    ordered = sorted(samples)
    n = len(ordered)
    out: Dict[str, Optional[float]] = {"n": n, "p50": None, "tail": None,
                                       "tail_pct": None}
    if n >= 2 * MIN_BEYOND:
        out["p50"] = statistics.median(ordered)
    if n > MIN_BEYOND:
        rank = n - MIN_BEYOND          # 1-based rank of the tail sample
        out["tail"] = ordered[rank - 1]
        out["tail_pct"] = 100.0 * rank / n
    return out


def geomean(values: Sequence[float]) -> float:
    return statistics.geometric_mean(values) if values else 0.0


def fingerprint(payload) -> str:
    """Digest of exact simulated counts: equal across runs of one seed."""
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def host_ref_ms(trials: int = 5) -> float:
    """A fixed pure-Python burst, for reading results across machines.

    Recorded only; it never divides an end-to-end metric.
    """
    times = []
    for _ in range(trials):
        t0 = clock()
        acc, table = 0, {}
        for i in range(150_000):
            acc = (acc * 31 + i) & 0xFFFFFFFF
            table[i & 1023] = acc
        times.append((clock() - t0) * 1e3)
    return statistics.median(times)


def peak_rss_mb(who: int = resource.RUSAGE_SELF) -> float:
    return resource.getrusage(who).ru_maxrss / 1024.0


def cpu_s() -> float:
    return time.process_time()


# ----------------------------------------------------------------------
# passes and set-up
# ----------------------------------------------------------------------

def run_passes(seconds: float, one_pass: Callable[[int], None],
               max_passes: Optional[int] = None) -> Tuple[int, float]:
    """Run whole passes over a fixed input list for about ``seconds``.

    Every pass runs the same inputs, so a slower host runs fewer passes,
    never different inputs.  Stops when another pass would overshoot the
    deadline by more than stopping now falls short of it.  Returns the
    number of passes and the wall seconds they took.
    """
    count, t0 = 0, clock()
    while True:
        one_pass(count)
        count += 1
        elapsed = clock() - t0
        if max_passes is not None and count >= max_passes:
            return count, elapsed
        if elapsed + elapsed / count / 2 >= seconds:
            return count, elapsed


class ClosedLoop:
    """State of one closed loop over a fixed op list (untraced or traced).

    Subclasses implement :meth:`one_pass`: they call :meth:`start_pass`
    first and :meth:`op_done` after each op, and book every ``Core.run``
    through :meth:`book_run`.  Op ``i`` of every pass is the same work, so
    its times across passes sample one quantity at different moments.
    """

    def __init__(self) -> None:
        self.records: List[dict] = []       # one per op, every pass
        self.run_s: Dict[str, float] = {}   # Core.run seconds per defense
        self.run_cycles: Dict[str, int] = {}
        self.op_times: List[List[Tuple[float, float]]] = []  # [pass][op]
        #: Called between ops, off the clock (the set-up probes).
        self.between_ops: Callable[[], None] = lambda: None
        self._mark = (0.0, 0.0)

    def one_pass(self, index: int, tracer: Tracer) -> None:
        raise NotImplementedError

    def start_pass(self) -> None:
        """Open a pass.  Each pass starts from a collected heap, so the
        garbage one pass leaves does not move the next one's peak memory."""
        gc.collect()
        self.op_times.append([])
        self._mark = (clock(), cpu_s())

    def op_done(self) -> None:
        """Close the current op: its time runs from the end of the previous
        op (or the pass start), so per-pass work such as program generation
        is booked to the op that follows it."""
        wall, cpu = clock(), cpu_s()
        self.op_times[-1].append((wall - self._mark[0], cpu - self._mark[1]))
        self.between_ops()
        self._mark = (clock(), cpu_s())

    def book_run(self, defense: str, seconds: float, cycles: int) -> None:
        self.run_s[defense] = self.run_s.get(defense, 0.0) + seconds
        self.run_cycles[defense] = self.run_cycles.get(defense, 0) + cycles

    def pass_time(self, which: int) -> float:
        """Seconds per pass with each op at its fastest repetition across
        passes (``which``: 0 wall, 1 CPU)."""
        return sum(min(times[which] for times in per_op)
                   for per_op in zip(*self.op_times))


def measure_closed_loop(make: Callable[[], ClosedLoop], seconds: float,
                        trace: bool, setup: Optional["SetupProbe"]) -> dict:
    """Run the untraced loop (and, when tracing, the same passes traced).

    Returns the loops, the tracer, and the metrics every closed loop has:
    end-to-end ``ops_per_s`` from the fastest repetition of each op (see
    :meth:`ClosedLoop.pass_time`), ``peak_rss_mb`` and, untraced,
    ``setup_s`` from start-ups spread across the loop; per-layer
    ``cpu_ms_per_op`` and the simulator's time per cycle.
    """
    untraced = make()
    if setup is not None:
        setup.warm()
        interval = seconds / (SETUP_PROBES + 1)
        next_due = [clock()]

        def probe() -> None:
            if clock() >= next_due[0] and len(setup.times) < SETUP_PROBES:
                setup.sample()
                next_due[0] = clock() + interval

        untraced.between_ops = probe
    passes, loop_s = run_passes(seconds / 2 if trace else seconds,
                                lambda i: untraced.one_pass(i, NullTracer()))
    while setup is not None and len(setup.times) < SETUP_PROBES:
        setup.sample()          # the loop ended before the last was due
    rss = peak_rss_mb()
    ops_per_pass = len(untraced.records) // passes
    wall, cpu = untraced.pass_time(0), untraced.pass_time(1)
    cycles = sum(untraced.run_cycles.values())
    run_s = sum(untraced.run_s.values())
    layers = {"sim_cycles_per_s": cycles / run_s,
              "pipeline.ns_per_cycle": run_s * 1e9 / cycles,
              "cpu_ms_per_op": cpu * 1e3 / ops_per_pass}
    for defense, spent in untraced.run_s.items():
        layers[f"defenses.{defense.replace('+', '_')}.ns_per_cycle"] = (
            spent * 1e9 / untraced.run_cycles[defense])
    end_to_end = {"ops_per_s": ops_per_pass / wall, "peak_rss_mb": rss}
    details = [
        f"{ops_per_pass} ops per pass, {passes} passes in {loop_s:.3f} s; "
        "pass wall seconds " + " ".join(
            f"{sum(w for w, _ in times):.3f}" for times in untraced.op_times),
        f"ops_per_s from each op's fastest repetition: {wall:.3f} s per "
        "pass",
        f"sim_cycles_per_s {cycles / run_s:.1f} ({cycles} cycles in "
        f"{run_s:.3f} s of Core.run)"]
    if setup is not None:
        end_to_end["setup_s"] = setup.median()
        details.append(setup.describe())
    out = {"untraced": untraced, "traced": None, "tracer": None,
           "end_to_end": end_to_end, "per_layer": layers, "details": details}
    if trace:
        traced, tracer = make(), Tracer()
        _, traced_s = run_passes(float("inf"),
                                 lambda i: traced.one_pass(i, tracer),
                                 max_passes=passes)
        layers["telemetry.tracing_overhead"] = traced_s / loop_s
        out.update(traced=traced, tracer=tracer)
    return out


class SetupProbe:
    """Timed start-ups of ``argv``: from spawn until ``until_ready`` returns.

    :meth:`warm` runs one untimed start-up (it pays one-off byte-code
    compilation); each :meth:`sample` times one more.  The caller spreads
    the samples across its run so their median spans the host's phases.
    ``stop`` ends each child, which is then waited for (killed if it
    outlives a minute).
    """

    def __init__(self, argv: List[str],
                 until_ready: Callable[[subprocess.Popen], None],
                 stop: Callable[[subprocess.Popen], None]) -> None:
        self.argv, self.until_ready, self.stop = argv, until_ready, stop
        self.times: List[float] = []

    def _start_up(self) -> float:
        t0 = clock()
        proc = subprocess.Popen(self.argv, stdout=subprocess.PIPE,
                                stderr=subprocess.DEVNULL, cwd=ROOT,
                                env=program_env(), text=True)
        try:
            self.until_ready(proc)
            elapsed = clock() - t0
            self.stop(proc)
            proc.wait(timeout=60)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
            proc.stdout.close()
        return elapsed

    def warm(self) -> None:
        self._start_up()

    def sample(self) -> None:
        self.times.append(self._start_up())

    def median(self) -> float:
        return statistics.median(self.times)

    def describe(self) -> str:
        return (f"setup_s is the median of {len(self.times)} start-ups "
                "spread across the run: " + " ".join(
                    f"{t:.3f}" for t in self.times))


def workload_probe(workload: str, seed: int) -> SetupProbe:
    """Start-ups of a fresh interpreter until the workload reports its
    first op can run (``run.py --probe-setup``)."""
    argv = [sys.executable, os.path.join(ROOT, "specbench", "run.py"),
            "--probe-setup", "--workload", workload, "--seed", str(seed)]

    def until_ready(proc: subprocess.Popen) -> None:
        line = proc.stdout.readline()
        if line.strip() != "ready":
            raise RuntimeError(f"set-up probe failed: {line!r}")

    return SetupProbe(argv, until_ready, stop=lambda proc: None)
