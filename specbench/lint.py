"""Workload ``lint-service``: an open loop against ``python -m repro.service``.

One client process sends a seeded schedule over two connections (computed
requests on one, cache hits on the other) to a live service, static tier
only.  The schedule is a run of 3-second blocks with fixed shares:

- three fresh programs, due 1 s apart so a fresh lint never waits for
  another: a fuzz candidate (``repro.fuzz``), a mid-size SPEC program
  (511.povray_r, 32 KB of data) and a one-function edit of the modular
  bench fixture, whose other functions hit the worker's summary cache;
- exact repeats of programs sent at least one block earlier (the same
  count of each kind, at seeded times), which the verdict cache answers.
  Their number is the smallest that gives the hit latencies a p95 with
  ten samples beyond it (p95 is the tail the service's own latency
  histograms report); it is a sample count, not a traffic model.

Two static workers are pinned, so the client, the service and the one
worker usually busy fit two cores, and the pool stays under half busy.
Each request is timed from when it was due.

The open loop's throughput only echoes its schedule, so ``ops_per_s``
comes from a closed-loop capacity phase after it: rounds of one fresh
program per kind sent at once to the two workers, with one timed service
start-up (``setup_s``) between rounds.  The capacity programs are the
same in every run.  The verdict tables of every answer are checked
against in-process whole-program ``find_gadgets``.
"""

from __future__ import annotations

import asyncio
import json
import math
import os
import signal
import socket
import statistics
import subprocess
import sys
from typing import Dict, List, Tuple

import repro.analysis.gadgets as gadgets_mod
from repro.analysis.cfg import build_cfg
from repro.analysis.gadgets import find_gadgets, leaks_under
from repro.analysis.modular import SummaryCache, modular_analysis
from repro.analysis.modular.fixtures import BENCH_FUNCTIONS, bench_program
from repro.analysis.options import AnalysisOptions
from repro.analysis.taint import analyze
from repro.config import DefenseKind
from repro.fuzz.generator import build, sample_spec
from repro.isa.assembler import assemble
from repro.isa.disasm import disassemble
from repro.workloads import SPEC_BY_NAME
from repro.workloads.generator import generate

from common import (MIN_BEYOND, ROOT, SETUP_PROBES, SetupProbe, Tracer,
                    clock, percentiles, program_env, workload_rng)

BLOCK_S = 3.0
KINDS = ("fuzz", "spec", "edit")
#: The hit-latency tail to report with MIN_BEYOND samples beyond it.
HIT_TAIL = 0.95
#: Closed-loop capacity rounds, one timed service start-up after each.
CAPACITY_ROUNDS = SETUP_PROBES
STATIC_WORKERS = 2
LATENCY_LIMIT_MS = 1000.0
SPEC_PROFILE = "511.povray_r"
SPIN_S = 0.002


def service_argv(state_dir: str) -> List[str]:
    return [sys.executable, "-m", "repro.service", "--state-dir", state_dir,
            "--static-workers", str(STATIC_WORKERS), "--dynamic-workers", "1",
            "--max-queue", "64", "--max-per-client", "32"]


# ----------------------------------------------------------------------
# inputs
# ----------------------------------------------------------------------

def _draw(kind: str, rng) -> Tuple[str, list]:
    """One program of ``kind`` as (source, secret ranges)."""
    if kind == "fuzz":
        candidate = build(sample_spec(rng))
        return (candidate.source_text,
                [list(r) for r in candidate.secret_ranges])
    if kind == "spec":
        program = generate(SPEC_BY_NAME[SPEC_PROFILE],
                           seed=rng.randrange(1 << 30),
                           target_instructions=500,
                           mte_instrumented=True).program
        return disassemble(program), []
    program, ranges = bench_program(
        edits={rng.randrange(BENCH_FUNCTIONS): rng.randrange(1, 1000)})
    return disassemble(program), [list(r) for r in ranges]


def make_inputs(seed: int, blocks: int) -> Dict[str, list]:
    """Fresh programs per kind: item 0 warms the service, item b+1 is the
    fresh request of block b, and the CAPACITY_ROUNDS items after those
    are the capacity rounds'.  Each item is (source, secret ranges); no
    source occurs twice.

    The capacity programs are the same for every seed, as spec-sweep's
    are: each run starts a fresh service, so they are fresh in every run,
    and the capacity rounds carry the same work from run to run.
    """
    base, ranges = bench_program()
    items: Dict[str, list] = {"base": [(disassemble(base),
                                        [list(r) for r in ranges])]}
    taken = {items["base"][0][0]}

    def fresh(kind: str, rng, count: int) -> list:
        drawn: list = []
        while len(drawn) < count:
            item = _draw(kind, rng)
            if item[0] not in taken:
                taken.add(item[0])
                drawn.append(item)
        return drawn

    capacity = {kind: fresh(kind, workload_rng(0, f"lint-capacity-{kind}"),
                            CAPACITY_ROUNDS) for kind in KINDS}
    for kind in KINDS:
        items[kind] = (fresh(kind, workload_rng(seed, f"lint-{kind}"),
                             blocks + 1) + capacity[kind])
    return items


def hits_per_kind(blocks: int) -> int:
    """Repeats per kind and block: the fewest that put MIN_BEYOND hits
    beyond the HIT_TAIL percentile."""
    needed = MIN_BEYOND / (1.0 - HIT_TAIL)
    return math.ceil(round(needed / (blocks * len(KINDS)), 6))


def make_schedule(seed: int, blocks: int) -> List[dict]:
    """(due offset, kind, item, fresh) per request, sorted by due time."""
    rng = workload_rng(seed, "lint-schedule")
    repeats = hits_per_kind(blocks)
    schedule = []
    for block in range(blocks):
        start = block * BLOCK_S
        kinds = list(KINDS)
        rng.shuffle(kinds)
        for slot, kind in enumerate(kinds):
            schedule.append({"due": start + slot * BLOCK_S / len(KINDS),
                             "kind": kind, "item": block + 1, "fresh": True})
        sent_before = max(1, block)      # items of blocks <= block - 2
        for kind in KINDS:
            for _ in range(repeats):
                schedule.append({"due": start + rng.random() * BLOCK_S,
                                 "kind": kind,
                                 "item": rng.randrange(sent_before),
                                 "fresh": False})
    schedule.sort(key=lambda r: r["due"])
    for index, request in enumerate(schedule):
        request["id"] = f"r{index}"
    return schedule


def request_line(request_id: str, item: Tuple[str, list]) -> bytes:
    source, ranges = item
    return (json.dumps({"id": request_id, "op": "lint", "source": source,
                        "secret_ranges": ranges}) + "\n").encode()


# ----------------------------------------------------------------------
# the service process
# ----------------------------------------------------------------------

def _wait_listening(proc: subprocess.Popen) -> int:
    line = proc.stdout.readline()
    try:
        return int(json.loads(line)["port"])
    except (ValueError, KeyError, TypeError):
        raise RuntimeError(f"service did not start: {line!r}")


def _ping(port: int) -> None:
    with socket.create_connection(("127.0.0.1", port), timeout=30) as sock:
        sock.sendall(b'{"id": "ping", "op": "ping"}\n')
        reply = sock.makefile("rb").readline()
    if not json.loads(reply).get("pong"):
        raise RuntimeError(f"service ping failed: {reply!r}")


def _stop(proc: subprocess.Popen) -> None:
    if proc.poll() is None:
        proc.send_signal(signal.SIGTERM)
    try:
        proc.wait(timeout=30)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()


def service_probe(work_dir: str) -> SetupProbe:
    """Start-ups of the service, from spawn until ``ping`` answers."""
    def until_ready(proc: subprocess.Popen) -> None:
        _ping(_wait_listening(proc))

    return SetupProbe(service_argv(os.path.join(work_dir, "setup")),
                      until_ready, _stop)


def _cpu_s(pid: int) -> float:
    """CPU seconds of a process plus its reaped children."""
    with open(f"/proc/{pid}/stat", encoding="ascii") as handle:
        fields = handle.read().rsplit(")", 1)[1].split()
    return sum(int(v) for v in fields[11:15]) / os.sysconf("SC_CLK_TCK")


def _peak_rss_kb(pid: int) -> int:
    """Peak resident set of a live process (``VmHWM``)."""
    with open(f"/proc/{pid}/status", encoding="ascii") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise RuntimeError(f"no VmHWM for process {pid}")


# ----------------------------------------------------------------------
# the client
# ----------------------------------------------------------------------

async def _client(port: int, items: Dict[str, list], schedule: List[dict],
                  capacity: List[List[dict]], setup: SetupProbe,
                  pid: int) -> dict:
    conns = [await asyncio.open_connection("127.0.0.1", port, limit=1 << 22)
             for _ in range(2)]
    done: Dict[str, Tuple[float, dict]] = {}
    waiters: Dict[str, asyncio.Future] = {}
    fresh_ids = {r["id"] for r in schedule if r["fresh"]}
    cpu_marks: List[float] = []         # service CPU after each 3rd fresh

    async def read(reader: asyncio.StreamReader) -> None:
        while True:
            line = await reader.readline()
            if not line:
                return
            now = clock()
            response = json.loads(line)
            done[response.get("id", "")] = (now, response)
            if response.get("id") in fresh_ids:
                fresh_ids.discard(response["id"])
                if len(fresh_ids) % len(KINDS) == 0:
                    cpu_marks.append(_cpu_s(pid))
            waiter = waiters.pop(response.get("id", ""), None)
            if waiter is not None and not waiter.done():
                waiter.set_result(None)

    readers = [asyncio.create_task(read(reader)) for reader, _ in conns]

    async def call(request_id: str, line: bytes) -> None:
        waiters[request_id] = asyncio.get_running_loop().create_future()
        conns[0][1].write(line)
        await conns[0][1].drain()
        await asyncio.wait_for(waiters[request_id], 120)

    # Warm-up, off the clock: the fixture base fills the summary cache and
    # item 0 of each kind is what the first blocks repeat.
    await call("warm-base", request_line("warm-base", items["base"][0]))
    for kind in KINDS:
        await call(f"warm-{kind}", request_line(f"warm-{kind}",
                                                items[kind][0]))

    lines = [request_line(r["id"], items[r["kind"]][r["item"]])
             for r in schedule]
    cpu_marks.append(_cpu_s(pid))
    origin = clock() + 0.05
    late = []
    for request, line in zip(schedule, lines):
        due = origin + request["due"]
        # Sleep to just short of the due time, then yield to the loop until
        # it arrives: the timer wheel alone fires up to a millisecond late.
        delay = due - clock() - SPIN_S
        if delay > 0:
            await asyncio.sleep(delay)
        while clock() < due:
            await asyncio.sleep(0)
        late.append((clock() - due) * 1e3)
        writer = conns[0 if request["fresh"] else 1][1]
        writer.write(line)
        await writer.drain()
    deadline = clock() + 120
    while len([r for r in schedule if r["id"] in done]) < len(schedule) \
            and clock() < deadline:
        await asyncio.sleep(0.01)
    # Capacity, a closed loop: each round's three fresh programs go out at
    # once to the two workers; a timed service start-up follows each round,
    # so the start-ups spread across the phase.
    round_s = []
    for requests in capacity:
        t0 = clock()
        await asyncio.gather(*(
            call(r["id"], request_line(r["id"], items[r["kind"]][r["item"]]))
            for r in requests))
        round_s.append(clock() - t0)
        setup.sample()
    peak_kb = _peak_rss_kb(pid)
    for reader, writer in conns:
        writer.close()
    await asyncio.gather(*readers, return_exceptions=True)
    # CPU per block: between consecutive marks lie exactly three computed
    # answers (one block's worth, whatever their order) and about a block
    # of cache hits.
    per_block = [b - a for a, b in zip(cpu_marks, cpu_marks[1:])]
    return {"done": done, "origin": origin, "late": late,
            "round_s": round_s, "block_cpu_s": per_block,
            "peak_rss_mb": peak_kb / 1024.0}


# ----------------------------------------------------------------------
# checks and replay
# ----------------------------------------------------------------------

def _verdicts(source: str, ranges: list) -> dict:
    gadgets = find_gadgets(assemble(source), [tuple(r) for r in ranges])
    return {d.value: any(leaks_under(g, d) for g in gadgets)
            for d in DefenseKind}


def _replay(sources: List[Tuple[str, list]], tracer: Tracer
            ) -> Tuple[float, float]:
    """Lint each source in-process twice, plain and then phase by phase
    under spans (the gadget pass's own window and taint calls become child
    spans).  Returns (plain seconds, traced seconds)."""

    real = (gadgets_mod.analyze, gadgets_mod.compute_windows)

    def spanned(name, inner):
        def call(*args, **kwargs):
            with tracer.span(name):
                return inner(*args, **kwargs)
        return call

    plain_s = traced_s = 0.0
    for source, ranges in sources:
        program, ranges = assemble(source), [tuple(r) for r in ranges]
        t0 = clock()
        gadgets_mod.find_gadgets(program, ranges)
        t1 = clock()
        gadgets_mod.analyze = spanned("analysis.taint", real[0])
        gadgets_mod.compute_windows = spanned("analysis.windows", real[1])
        try:
            with tracer.span("analysis.cfg"):
                cfg = build_cfg(program)
            with tracer.span("analysis.taint"):
                taint = analyze(program, ranges, cfg=cfg)
            with tracer.span("analysis.gadgets"):
                gadgets_mod.find_gadgets(program, ranges, taint=taint)
        finally:
            gadgets_mod.analyze, gadgets_mod.compute_windows = real
        t2 = clock()
        plain_s += t1 - t0
        traced_s += t2 - t1
    return plain_s, traced_s


def _summary_hit_ratio(sources: List[Tuple[str, list]], path: str) -> float:
    """Replay the service worker's summary-cache use over ``sources``."""

    hits = misses = 0
    for source, ranges in sources:
        program, ranges = assemble(source), [tuple(r) for r in ranges]
        cache = SummaryCache(path)
        options = AnalysisOptions.summary_backed(cache=cache)
        run_ = modular_analysis(program, ranges, options=options)
        find_gadgets(program, ranges, taint=run_.result, options=options)
        cache.flush()
        hits, misses = hits + cache.hits, misses + cache.misses
    return hits / (hits + misses)


# ----------------------------------------------------------------------
# the workload
# ----------------------------------------------------------------------

def run(seed: int, seconds: float, trace: bool, work_dir: str) -> dict:
    blocks = max(1, int(seconds // BLOCK_S))
    items = make_inputs(seed, blocks)
    schedule = make_schedule(seed, blocks)
    capacity = [[{"id": f"cap{n}-{kind}", "kind": kind,
                  "item": blocks + 1 + n, "fresh": True} for kind in KINDS]
                for n in range(CAPACITY_ROUNDS)]
    setup = service_probe(work_dir)
    setup.warm()
    proc = subprocess.Popen(service_argv(os.path.join(work_dir, "service")),
                            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                            cwd=ROOT, env=program_env(), text=True)
    try:
        port = _wait_listening(proc)
        loop = asyncio.run(_client(port, items, schedule, capacity, setup,
                                   proc.pid))
    finally:
        _stop(proc)
        proc.stdout.close()

    # Checks, off the clock.
    references: Dict[str, dict] = {}
    failed, reasons = 0, []
    records = []
    capacity_ids = set()
    for requests in capacity:
        capacity_ids.update(r["id"] for r in requests)
    for request in schedule + [r for rs in capacity for r in rs]:
        source, ranges = items[request["kind"]][request["item"]]
        if source not in references:
            references[source] = _verdicts(source, ranges)
        answer = loop["done"].get(request["id"])
        problem = ""
        if answer is None:
            problem = "no response"
        elif not answer[1].get("ok"):
            problem = f"refused: {answer[1].get('error', {}).get('kind')}"
        elif answer[1].get("verdicts") != references[source]:
            problem = "verdict table differs from find_gadgets"
        if problem:
            failed += 1
            reasons.append(f"{request['id']} ({request['kind']}): {problem}")
        elif request["id"] not in capacity_ids:
            records.append((request, answer))
    attempted = len(schedule) + len(capacity_ids)
    open_loop = len(schedule)
    origin = loop["origin"]
    last = max((loop["done"][r["id"]][0] for r in schedule
                if r["id"] in loop["done"]), default=origin)
    window_s = last - origin
    misses = [(r, a) for r, a in records if not a[1].get("cached")]
    hits = [(r, a) for r, a in records if a[1].get("cached")]

    def latency_ms(entry) -> float:
        request, (done_at, _) = entry
        return (done_at - (origin + request["due"])) * 1e3

    miss_lat = percentiles([latency_ms(e) for e in misses])
    hit_lat = percentiles([latency_ms(e) for e in hits])
    within = sum(1 for e in records if latency_ms(e) <= LATENCY_LIMIT_MS)
    late = sorted(loop["late"])

    def fmt(stats: dict) -> str:
        if stats["p50"] is None:
            return f"n={stats['n']}: too few samples for a percentile"
        return (f"n={stats['n']} p50={stats['p50']:.2f} ms, "
                f"p{stats['tail_pct']:.1f}={stats['tail']:.2f} ms")

    details = [
        f"{blocks} blocks of {BLOCK_S:.0f} s: {len(schedule)} requests, "
        f"{len(misses)} computed, {len(hits)} from the verdict cache",
        f"miss latency {fmt(miss_lat)}",
        f"hit latency {fmt(hit_lat)}",
        f"within {LATENCY_LIMIT_MS:.0f} ms: {within}/{open_loop}; "
        f"{len(records) / window_s:.3f} correct answers/s over the "
        f"{window_s:.3f} s schedule; "
        f"generator late p50={late[len(late) // 2]:.3f} ms "
        f"max={late[-1]:.3f} ms",
        f"capacity: {CAPACITY_ROUNDS} rounds of {len(KINDS)} fresh lints, "
        "round seconds " + " ".join(f"{t:.3f}" for t in loop["round_s"])
        + " (ops_per_s uses the lower quartile)",
        setup.describe(),
        *reasons[:10],
    ]

    end_to_end = {
        "ops_per_s": len(KINDS) / statistics.quantiles(
            loop["round_s"], n=4, method="inclusive")[0],
        "peak_rss_mb": loop["peak_rss_mb"],
    }
    if not trace:
        end_to_end["setup_s"] = setup.median()

    layers = {
        "cpu_ms_per_op": statistics.median(loop["block_cpu_s"]) * 1e3
        / (len(schedule) // blocks),
        "miss_p50_ms": miss_lat["p50"] or 0.0,
        "miss_tail_ms": miss_lat["tail"] or 0.0,
        "hit_p50_ms": hit_lat["p50"] or 0.0,
        "hit_tail_ms": hit_lat["tail"] or 0.0,
        "slo_share": within / open_loop,
        "client.late_ms": late[-1],
        "service.cache_hit_ratio": len(hits) / max(1, len(records)),
        "service.rejected_share": sum(
            1 for r in schedule
            if not loop["done"].get(r["id"], (0, {}))[1].get("ok"))
        / open_loop,
        "service.static_busy_share": sum(
            a[1]["timings"]["analysis_ms"] + a[1]["timings"]["other_ms"]
            for _, a in misses) / 1e3 / (STATIC_WORKERS * window_s),
    }
    for name, field in (("service.queue_wait_ms", "queue_wait_ms"),
                        ("service.worker_analysis_ms", "analysis_ms"),
                        ("service.dispatch_ms", "other_ms")):
        layers[name] = statistics.median(
            [a[1]["timings"][field] for _, a in misses] or [0.0])

    if trace:
        fresh = [items["base"][0]] + [items[k][0] for k in KINDS] + [
            items[r["kind"]][r["item"]] for r in schedule if r["fresh"]]
        tracer = Tracer()
        plain_s, traced_s = _replay(fresh, tracer)
        layers["telemetry.tracing_overhead"] = traced_s / plain_s
        for phase in ("cfg", "taint", "windows"):
            layers[f"analysis.{phase}_ms"] = (
                tracer.totals_ms(f"analysis.{phase}")[0] / len(fresh))
        layers["analysis.gadgets_ms"] = (
            tracer.self_ms("analysis.gadgets") / len(fresh))
        layers["analysis.modular_hit_ratio"] = _summary_hit_ratio(
            fresh, os.path.join(work_dir, "replay-summaries.jsonl"))
        span_path = os.path.join(os.path.dirname(work_dir),
                                 f"spans-lint-service-{seed}.jsonl")
        tracer.write(span_path)
        details.append(f"in-process replay of {len(fresh)} fresh sources; "
                       f"spans written to {span_path}")
    return {"attempted": attempted, "failed": failed,
            "end_to_end": end_to_end, "per_layer": layers,
            "details": details, "fingerprint": None, "traced_fp": None}
