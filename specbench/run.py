"""Benchmark entry point: one workload, one seed, one JSON result line.

    python3 specbench/run.py --workload spec-sweep --seed 1 --seconds 25 \\
        --trace 0

``--trace 0`` measures the end-to-end metrics of BENCHMARK.json with no
spans; ``--trace 1`` runs identical inputs untraced and traced and reports
the per-layer metrics.  The last stdout line is the result object; the
lines before it are details (sample counts, the simulated-statistics
fingerprint, failed checks).  Run from the root of a checkout: the program
is imported from ``src/``; a directory without it is refused (exit 2).
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import tempfile

import common

WORKLOADS = {"spec-sweep": "sweep", "attack-matrix": "matrix",
             "lint-service": "lint"}


def _declared() -> dict:
    with open(os.path.join(common.ROOT, "BENCHMARK.json"),
              encoding="utf-8") as handle:
        return json.load(handle)


def _module(workload: str):
    return __import__(WORKLOADS[workload])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe-setup", action="store_true",
                        help="internal: import and prepare, print 'ready'")
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(common.SRC, "repro", "__init__.py")):
        print(f"no program sources at {common.SRC}: run from the root of a "
              "checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, common.SRC)
    module = _module(args.workload)
    if args.probe_setup:
        module.prepare(args.seed)
        print("ready", flush=True)
        return 0

    declared = _declared()
    os.makedirs(common.WORK_ROOT, exist_ok=True)
    tempfile.tempdir = common.WORK_ROOT
    work_dir = tempfile.mkdtemp(prefix=f"{args.workload}-",
                                dir=common.WORK_ROOT)
    try:
        host_ref = common.host_ref_ms()
        result = module.run(args.seed, args.seconds, bool(args.trace),
                            work_dir)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    details = list(result["details"])
    correct = result["failed"] == 0
    if result["fingerprint"] is not None:
        details.append(f"fingerprint {result['fingerprint']} "
                       "(exact simulated counts of one pass)")
        if result["traced_fp"] not in (None, result["fingerprint"]):
            correct = False
            details.append(f"traced pass fingerprint {result['traced_fp']} "
                           "differs: tracing changed the simulation")
    values = dict(result["end_to_end"], **result["per_layer"])
    values["host.ref_ms"] = host_ref
    declared_names = {m["name"] for m in declared["end_to_end"]
                      + declared["per_layer"]}
    undeclared = {name for name, value in values.items()
                  if value is not None} - declared_names
    if undeclared:
        raise RuntimeError(f"metrics missing from BENCHMARK.json: "
                           f"{sorted(undeclared)}")
    if args.trace:
        wanted = declared["per_layer"]
        missing = [m["name"] for m in wanted if m["name"] not in values]
        if missing:
            details.append(f"reported as 0, the layer does no such work on "
                           f"{args.workload}: {', '.join(missing)}")
    else:
        wanted = declared["end_to_end"]
        details.append("also measured (per-layer, no bound): " + ", ".join(
            f"{m['name']} = {values[m['name']]:.6g} {m['unit']}"
            for m in declared["per_layer"] if m["name"] in values))
    metrics = {m["name"]: {"value": float(values.get(m["name"]) or 0.0),
                           "unit": m["unit"]} for m in wanted}
    for line in details:
        print(line)
    for name, metric in metrics.items():
        print(f"  {name} = {metric['value']:.6g} {metric['unit']}")
    print(f"ops: {result['attempted'] - result['failed']} correct, "
          f"{result['failed']} failed, {result['attempted']} attempted")
    print(json.dumps({"correct": correct, "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
