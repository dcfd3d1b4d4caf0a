"""Workload ``attack-matrix``: every Table-1 cell, a closed loop in-process.

A pass runs all 120 PoC runs behind the 66 Table-1 cells (11 attacks x the
unsafe baseline + 5 defenses) through ``run_attack_program``, each on a
fresh system; the run seed sets only their order.  Many short runs make
system construction and MTE tagging a large share of the work, so a kernel
change that moves cost into per-core set-up shows here even when it helps
``spec-sweep``.

The benchmark wraps ``repro.attacks.common.build_system`` to see each
run's system: it times ``prepare`` and ``Core.run`` from the outside and
reads the simulated statistics afterwards.
"""

from __future__ import annotations

import os
from typing import Dict, List, Tuple

import repro.attacks.common as attacks_common
from repro.attacks import TABLE1_ROWS, build_variants
from repro.attacks.matrix import (EXPECTED, TABLE1_DEFENSES, Mitigation,
                                  classify)
from repro.config import DefenseKind

from common import (ClosedLoop, Tracer, clock, fingerprint,
                    measure_closed_loop, workload_probe, workload_rng)

COUNTS = ("pipeline.cycles", "pipeline.committed", "pipeline.squashed",
          "memory.l1d_hits", "memory.lfb_hits", "memory.dram_fetches",
          "mte.tag_checks", "mte.tag_mismatches")


def prepare(seed: int) -> List[Tuple[str, int, str]]:
    """The seeded order of (attack, variant index, defense) runs; the PoC
    programs themselves are built here, before the first op."""
    runs = []
    for attack in TABLE1_ROWS:
        for index, _ in enumerate(build_variants(attack)):
            for defense in ["none"] + [d.value for d in TABLE1_DEFENSES]:
                runs.append((attack, index, defense))
    workload_rng(seed, "attack-matrix").shuffle(runs)
    return runs


class _Matrix(ClosedLoop):
    def __init__(self, runs):
        super().__init__()
        self.runs = runs
        self.variants = {attack: build_variants(attack)
                         for attack in TABLE1_ROWS}

    def one_pass(self, index: int, tracer: Tracer) -> None:
        real_build = attacks_common.build_system
        seen: List[tuple] = []           # (system, Core.run seconds) per run

        def observed_build(*args, **kwargs):
            with tracer.span("system.build"):
                system = real_build(*args, **kwargs)
            prepare_system = system.prepare

            def observed_prepare(program):
                with tracer.span("system.build"):
                    core = prepare_system(program)
                run_core = core.run

                def observed_run(*run_args, **run_kwargs):
                    with tracer.span("pipeline.run"):
                        t0 = clock()
                        try:
                            return run_core(*run_args, **run_kwargs)
                        finally:
                            seen.append((system, clock() - t0))

                core.run = observed_run
                return core

            system.prepare = observed_prepare
            return system

        attacks_common.build_system = observed_build
        self.start_pass()
        try:
            for attack, variant, defense in self.runs:
                with tracer.span("attack"):
                    outcome = attacks_common.run_attack_program(
                        self.variants[attack][variant], DefenseKind(defense))
                (system, run_s), = seen
                seen.clear()
                core, mem = system.core, system.hierarchy.stats
                del core.run, system.prepare    # drop the wrappers' cycles
                self.book_run(defense, run_s, core.cycle)
                self.records.append({
                    "pass": index, "attack": attack, "variant": variant,
                    "defense": defense, "outcome": outcome,
                    "leaked": outcome.leaked,
                    "restricted": core.stats.restricted_committed,
                    "pipeline.cycles": core.cycle,
                    "pipeline.committed": core.stats.committed,
                    "pipeline.squashed": core.stats.squashed,
                    "memory.l1d_hits": mem.l1_hits,
                    "memory.lfb_hits": mem.lfb_hits,
                    "memory.dram_fetches": mem.dram_fetches,
                    "mte.tag_checks": mem.tag_checks,
                    "mte.tag_mismatches": mem.tag_mismatches})
                self.op_done()
        finally:
            attacks_common.build_system = real_build


def _check(matrix: _Matrix) -> Tuple[int, List[str]]:
    """Classify each pass's cells and compare with the paper's Table 1.

    A cell that classifies differently from ``EXPECTED`` fails all of its
    runs; a baseline run that does not leak fails on its own.
    """
    cells: Dict[Tuple[int, str, str], List[dict]] = {}
    for outcome in matrix.records:
        key = (outcome["pass"], outcome["attack"], outcome["defense"])
        cells.setdefault(key, []).append(outcome)
    columns = [d.value for d in TABLE1_DEFENSES]
    failed, reasons = 0, []
    for (index, attack, defense), outcomes in sorted(cells.items()):
        if defense == "none":
            quiet = [o for o in outcomes if not o["leaked"]]
            failed += len(quiet)
            reasons += [f"pass {index}: {attack} variant {o['variant']} did "
                        "not leak under the unsafe baseline" for o in quiet]
            continue
        got = classify([o["outcome"] for o in outcomes])
        want: Mitigation = EXPECTED[attack][columns.index(defense)]
        if got is not want:
            failed += len(outcomes)
            reasons.append(f"pass {index}: {attack} under {defense} is "
                           f"{got.value}, Table 1 says {want.value}")
    return failed, reasons


def _exact_counts(outcomes: List[dict]) -> Dict[str, float]:
    first = [o for o in outcomes if o["pass"] == 0]
    counts: Dict[str, float] = {name: sum(o[name] for o in first)
                                for name in COUNTS}
    counts["pipeline.ipc"] = counts["pipeline.committed"] / counts[
        "pipeline.cycles"]
    counts["defenses.restricted_fraction"] = (
        sum(o["restricted"] for o in first) / counts["pipeline.committed"])
    counts["attacks.leaked_runs"] = sum(o["leaked"] for o in first)
    return counts


def run(seed: int, seconds: float, trace: bool, work_dir: str) -> dict:
    runs = prepare(seed)
    loop = measure_closed_loop(
        lambda: _Matrix(runs), seconds, trace,
        None if trace else workload_probe("attack-matrix", seed))
    untraced, traced, tracer = loop["untraced"], loop["traced"], loop["tracer"]
    counts = _exact_counts(untraced.records)
    failed, reasons = _check(untraced)
    details = [f"{len(runs)} PoC runs per pass (66 Table-1 cells)",
               *loop["details"], *reasons[:10]]
    layers = dict(loop["per_layer"], **counts)
    traced_fp = None
    if traced is not None:
        traced_fp = fingerprint(_exact_counts(traced.records))
        attempts = tracer.totals_ms("attack")
        build_ms = tracer.totals_ms("system.build")[0]
        layers["system.build_ms"] = build_ms / attempts[1]
        layers["attacks.run_ms"] = tracer.mean_ms("pipeline.run")
        layers["attacks.build_share"] = build_ms / attempts[0]
        span_path = os.path.join(os.path.dirname(work_dir),
                                 f"spans-attack-matrix-{seed}.jsonl")
        tracer.write(span_path)
        details.append(f"spans written to {span_path}")
        failed_t, reasons_t = _check(traced)
        failed += failed_t
        details.extend(reasons_t[:10])
    attempted = len(untraced.records) + (
        len(traced.records) if traced is not None else 0)
    return {"attempted": attempted, "failed": failed,
            "end_to_end": loop["end_to_end"], "per_layer": layers,
            "details": details, "fingerprint": fingerprint(counts),
            "traced_fp": traced_fp}

