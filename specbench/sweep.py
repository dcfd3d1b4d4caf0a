"""Workload ``spec-sweep``: Figure-6-style cells, a closed loop in-process.

A cell is one (SPEC profile, defense) pair: build a system, run the
program once to warm the modelled caches, run it again measured, and
append the row to a campaign ``ResultStore``.  A pass generates each
profile's programs and runs every cell once; the loop repeats whole passes.

The profiles' footprints span the modelled caches: 32 KB (the L1D size),
128 KB (L2-resident), 1 MB (the L2 size) and 2 MB (spills the L2).
The programs use generator seed 0, the seed the repo's figures use; the
run seed orders the defenses within each profile.  Drawing programs from
the run seed was measured to move a program's cycle count by a 6-18%
coefficient of variation per profile, which would swamp the bound on
``ops_per_s``.
"""

from __future__ import annotations

import os
from dataclasses import asdict
from typing import Dict, List, Tuple

from repro.campaign.store import ResultStore
from repro.config import CORTEX_A76, DefenseKind
from repro.system import build_system
from repro.workloads import SPEC_BY_NAME
from repro.workloads.generator import generate

from common import (ClosedLoop, Tracer, NullTracer, clock, fingerprint,
                    geomean, measure_closed_loop, stage_timers,
                    workload_probe, workload_rng)

PROFILES = ("511.povray_r", "500.perlbench_r", "510.parest_r",
            "520.omnetpp_r")
DEFENSES = ("none", "fence", "stt", "ghostminion", "specasan")
INSTRUCTIONS = 500
GENERATOR_SEED = 0
#: The one cell whose measured core carries the stage timers (traced only).
STAGED_CELL = ("510.parest_r", "specasan")
STAGES = ("fetch", "dispatch", "issue", "lsq", "writeback", "commit",
          "broadcast")
MEMORY_COUNTS = {"memory.l1d_hits": "l1_hits", "memory.lfb_hits": "lfb_hits",
                 "memory.dram_fetches": "dram_fetches",
                 "mte.tag_checks": "tag_checks",
                 "mte.tag_mismatches": "tag_mismatches"}


def prepare(seed: int) -> List[Tuple[str, List[str]]]:
    """The cell order: profiles by footprint, defenses seeded within each.

    Profiles stay in footprint order because the peak RSS depends on which
    garbage is alive when the collector runs: with the profiles shuffled it
    moved by 7% between seeds."""
    rng = workload_rng(seed, "spec-sweep")
    order = []
    for profile in PROFILES:
        defenses = list(DEFENSES)
        rng.shuffle(defenses)
        order.append((profile, defenses))
    return order


def _program(profile: str, mte: bool):
    return generate(SPEC_BY_NAME[profile], seed=GENERATOR_SEED,
                    target_instructions=INSTRUCTIONS,
                    mte_instrumented=mte).program


class _Sweep(ClosedLoop):
    def __init__(self, order, work_dir: str):
        super().__init__()
        self.order = order
        self.work_dir = work_dir
        self.appends: List[float] = []
        self.stages: Dict[str, float] = {}
        self.staged_cycles = 0

    def one_pass(self, index: int, tracer: Tracer) -> None:
        store_dir = os.path.join(self.work_dir, f"pass{index}")
        os.makedirs(store_dir, exist_ok=True)
        store = ResultStore(store_dir)
        appends = []
        self.start_pass()
        for profile, defenses in self.order:
            programs = {}
            for mte in (False, True):
                with tracer.span("workloads.generate"):
                    programs[mte] = _program(profile, mte)
            for defense in defenses:
                kind = DefenseKind(defense)
                program = programs[kind.uses_specasan]
                with tracer.span("cell"):
                    with tracer.span("system.build"):
                        system = build_system(CORTEX_A76.with_defense(kind))
                        core = system.prepare(program)
                    self._run(tracer, core, defense)
                    with tracer.span("system.build"):
                        before = asdict(system.hierarchy.stats)
                        core = system.prepare(program)
                    staged = (not isinstance(tracer, NullTracer)
                              and (profile, defense) == STAGED_CELL)
                    if staged:
                        spent = stage_timers(core, [
                            ("fetch", core, "_fetch"),
                            ("dispatch", core, "_dispatch"),
                            ("issue", core, "_issue"),
                            ("lsq", core.lsq, "tick"),
                            ("writeback", core, "_writeback"),
                            ("commit", core, "_commit"),
                            ("broadcast", core, "_deliver_unsafe_broadcasts"),
                        ])
                    self._run(tracer, core, defense)
                    if staged:
                        self.stages = spent
                        self.staged_cycles = core.cycle
                    result = system.result()
                    stats_dump = system.stats_registry().dump()
                    row = {"cell_id": f"{profile}/{defense}", "status": "ok",
                           "row": {"cycles": result.cycles,
                                   "instructions": result.instructions,
                                   "ipc": result.ipc,
                                   "restricted_fraction":
                                       result.stats.restricted_fraction,
                                   "halted": result.halted,
                                   "stats": stats_dump}}
                    t0 = clock()
                    with tracer.span("campaign.store_append"):
                        store.append(row)
                    appends.append(clock() - t0)
                after = asdict(system.hierarchy.stats)
                self.records.append({
                    "pass": index, "profile": profile, "defense": defense,
                    "mte": kind.uses_specasan, "halted": result.halted,
                    "fault": result.fault is not None,
                    "registers": [result.registers[r] for r in range(31)],
                    "cycles": result.cycles,
                    "committed": result.stats.committed,
                    "squashed": result.stats.squashed,
                    "restricted": result.stats.restricted_committed,
                    **{name: after[field] - before[field]
                       for name, field in MEMORY_COUNTS.items()}})
                self.op_done()
        self.appends = appends

    def _run(self, tracer: Tracer, core, defense: str) -> None:
        with tracer.span("pipeline.run"):
            t0 = clock()
            core.run()
            self.book_run(defense, clock() - t0, core.cycle)


def _check(sweep: _Sweep) -> Tuple[int, List[str]]:
    """Compare every cell's final registers with the reference Interpreter
    (computed here, off the clock).  Returns (failed cells, reasons)."""
    from repro.isa.interpreter import Interpreter

    references: Dict[Tuple[str, bool], List[int]] = {}
    failed, reasons = 0, []
    for cell in sweep.records:
        key = (cell["profile"], cell["mte"])
        if key not in references:
            reference = Interpreter(_program(*key))
            reference.run()
            references[key] = list(reference.regs[:31])
        problem = ("faulted" if cell["fault"] else
                   "did not halt" if not cell["halted"] else
                   "registers differ from the Interpreter"
                   if cell["registers"] != references[key] else "")
        if problem:
            failed += 1
            reasons.append(f"{cell['profile']}/{cell['defense']} "
                           f"pass {cell['pass']}: {problem}")
    return failed, reasons


def _exact_counts(cells: List[dict]) -> Dict[str, float]:
    """Simulated statistics of one pass: identical on every run."""
    first = [c for c in cells if c["pass"] == 0]
    counts: Dict[str, float] = {
        "pipeline.cycles": sum(c["cycles"] for c in first),
        "pipeline.committed": sum(c["committed"] for c in first),
        "pipeline.squashed": sum(c["squashed"] for c in first),
    }
    counts["pipeline.ipc"] = counts["pipeline.committed"] / counts[
        "pipeline.cycles"]
    for name in MEMORY_COUNTS:
        counts[name] = sum(c[name] for c in first)
    counts["defenses.restricted_fraction"] = (
        sum(c["restricted"] for c in first) / counts["pipeline.committed"])
    by_cell = {(c["profile"], c["defense"]): c["cycles"] for c in first}
    counts["defenses.specasan_norm_time"] = geomean(
        [by_cell[(p, "specasan")] / by_cell[(p, "none")] for p in PROFILES])
    return counts


def run(seed: int, seconds: float, trace: bool, work_dir: str) -> dict:
    order = prepare(seed)
    loop = measure_closed_loop(
        lambda: _Sweep(order, work_dir), seconds, trace,
        None if trace else workload_probe("spec-sweep", seed))
    untraced, traced, tracer = loop["untraced"], loop["traced"], loop["tracer"]
    counts = _exact_counts(untraced.records)
    failed, reasons = _check(untraced)
    details = [f"{INSTRUCTIONS} instructions per program, one warm run per "
               "cell", *loop["details"], *reasons[:10]]
    layers = dict(loop["per_layer"], **counts)
    traced_fp = None
    if traced is not None:
        traced_fp = fingerprint(_exact_counts(traced.records))
        layers["workloads.generate_ms"] = tracer.mean_ms("workloads.generate")
        layers["system.build_ms"] = (tracer.totals_ms("system.build")[0]
                                     / tracer.totals_ms("cell")[1])
        layers["campaign.store_append_ms"] = tracer.mean_ms(
            "campaign.store_append")
        layers["campaign.store_append_first_ms"] = traced.appends[0] * 1e3
        layers["campaign.store_append_last_ms"] = traced.appends[-1] * 1e3
        for stage in STAGES:
            layers[f"pipeline.{stage}_ns_per_cycle"] = (
                traced.stages[stage] * 1e9 / traced.staged_cycles)
        span_path = os.path.join(os.path.dirname(work_dir),
                                 f"spans-spec-sweep-{seed}.jsonl")
        tracer.write(span_path)
        details.append(f"spans written to {span_path}; stage timers on the "
                       f"measured core of {'/'.join(STAGED_CELL)} "
                       f"({traced.staged_cycles} cycles)")
        failed_t, reasons_t = _check(traced)
        failed += failed_t
        details.extend(reasons_t[:10])
    attempted = len(untraced.records) + (
        len(traced.records) if traced is not None else 0)
    return {"attempted": attempted, "failed": failed,
            "end_to_end": loop["end_to_end"], "per_layer": layers,
            "details": details, "fingerprint": fingerprint(counts),
            "traced_fp": traced_fp}

