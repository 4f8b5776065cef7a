#!/usr/bin/env python3
"""The subadd benchmark: one command, four workloads, checked outputs.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload fullbox-scan --seed 1 --seconds 20 --trace 0

``--trace 0`` prints the end-to-end metrics of ``BENCHMARK.json``;
``--trace 1`` makes the separate traced run and prints the per-layer
metrics.  A readable report and a ``notes`` JSON line (machine,
versions, percentiles, failures) come first; the last stdout line is the
result object.  Exit status 0 only when every output check held.

This process imports nothing of the toolkit.  It starts fresh
interpreters (``worker.py``): several that only set up, for ``setup_s``,
and one that measures, so that no set-up process counts towards the
measured peak memory.  See ``NOTES.md`` for what is measured and why.
"""

import argparse
import json
import os
import re
import statistics
import subprocess
import sys

from paths import ROOT, child_env

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("cli-cold", "atlas-sweep", "fullbox-scan", "cone-exact")
#: Fresh set-ups per run; ``setup_s`` is their median.
SETUP_RUNS = 5
#: Calibration-loop time (ms) that defines the reference host speed: the
#: timing metrics are scaled by CALIB_NOMINAL_MS / the calibration time
#: measured alongside them (NOTES.md, "Host speed").
CALIB_NOMINAL_MS = 10.0
HOST_SCALED = ("op_p50_ms", "op_tail_ms", "ops_per_s")
#: ``-X importtime`` repetitions in the traced run.
IMPORT_RUNS = 3
IMPORT_MODULES = ("subadd", "numpy", "mpmath", "sympy", "subadd.cli", "subadd.search", "subadd.cone")
CHILD_TIMEOUT_S = 170


class BenchError(Exception):
    pass


def run_child(argv, what):
    """Run a child to completion (killed and reaped on timeout); return
    its stdout and stderr."""
    try:
        proc = subprocess.run(
            argv, cwd=ROOT, env=child_env(), capture_output=True, text=True,
            timeout=CHILD_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{what} did not finish in {CHILD_TIMEOUT_S} s") from exc
    if proc.returncode != 0:
        raise BenchError(f"{what} exited {proc.returncode}:\n{proc.stderr[-4000:]}")
    return proc.stdout, proc.stderr


def worker(args, mode):
    argv = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", args.workload,
            "--seed", str(args.seed), "--seconds", str(args.seconds), "--mode", mode]
    if args.smoke:
        argv.append("--smoke")
    stdout, _ = run_child(argv, f"{mode} worker")
    return json.loads(stdout.strip().splitlines()[-1])


def import_times():
    """Median cumulative import time (ms) per module, from ``-X importtime``
    in fresh interpreters importing ``subadd.cli``.  A module the chain
    does not import costs it 0 ms."""
    samples = {m: [] for m in IMPORT_MODULES}
    line = re.compile(r"^import time:\s*\d+\s*\|\s*(\d+)\s*\|\s*(\S+)\s*$")
    for _ in range(IMPORT_RUNS):
        _, stderr = run_child(
            [sys.executable, "-X", "importtime", "-c", "import subadd.cli"], "import probe"
        )
        seen = {}
        for text in stderr.splitlines():
            match = line.match(text)
            if match and match.group(2) in samples:
                seen[match.group(2)] = int(match.group(1)) / 1e3
        for module in IMPORT_MODULES:
            if module in seen:
                samples[module].append(seen[module])
    return {m: statistics.median(v) if v else 0.0 for m, v in samples.items()}


def machine_notes():
    notes = {"nproc": os.cpu_count()}
    try:
        notes["nproc_usable"] = len(os.sched_getaffinity(0))
    except AttributeError:
        pass
    try:
        out = subprocess.run(["lscpu"], capture_output=True, text=True, timeout=10).stdout
    except (OSError, subprocess.TimeoutExpired):
        out = ""
    for text in out.splitlines():
        key, _, value = text.partition(":")
        if key.strip() in ("Model name", "L2 cache", "L3 cache"):
            notes[key.strip()] = value.strip()
    return notes


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def end_to_end(args, spec):
    runs = 1 if args.smoke else SETUP_RUNS
    setups = [worker(args, "setup")["setup_s"] for _ in range(runs - 1)]
    res = worker(args, "run")
    setups.append(res["setup_s"])
    values = {
        "setup_s": statistics.median(setups),
        "op_p50_ms": res["op_p50_ms"],
        "op_tail_ms": res["op_tail_ms"],
        "ops_per_s": res["ops_per_s"],
        "peak_rss_mb": res["peak_rss_mb"],
        "success_ratio": 1.0 - res["failed"] / res["attempted"],
    }
    scale = CALIB_NOMINAL_MS / res["calib_ms"]
    as_measured = {name: values[name] for name in HOST_SCALED}
    for name in HOST_SCALED:
        values[name] *= 1.0 / scale if name == "ops_per_s" else scale
    notes = {
        "as_measured": as_measured,
        "calib_ms": res["calib_ms"],
        "calib_samples": res["calib_samples"],
        "setup_s_samples": setups,
        "ops_timed": res["ops"],
        "timed_wall_s": res["wall_s"],
        "latency_samples": res["samples"],
        "op_tail": f"p{res['tail_pct']:g}, {res['tail_beyond']} of {res['samples']} samples beyond it",
        "peak_rss_of": "child processes (RUSAGE_CHILDREN)" if args.workload == "cli-cold"
        else "the measuring process (RUSAGE_SELF)",
        "fail_ratio": res["failed"] / res["attempted"],
    }
    return values, spec["end_to_end"], res, notes


def per_layer(args, spec):
    res = worker(args, "trace")
    imports = import_times()
    values = dict(res["metrics"])
    for module, ms in imports.items():
        values[f"import.{module}_ms"] = ms
    for sub, ms in res["cli_warm_ms"].items():
        values[f"cli.run_ms.{sub}"] = ms
    values["cli.overhead_ms"] = statistics.median(
        res["cli_cold_ms"][sub] - res["cli_warm_ms"][sub] for sub in res["cli_warm_ms"]
    ) - imports["subadd.cli"]
    notes = {
        "traced_ops": res["ops"],
        "untraced_s": res["untraced_s"],
        "traced_s": res["traced_s"],
        "metric_source": res["metric_source"],
        "cli_cold_ms": res["cli_cold_ms"],
        "spans_file": res["spans_file"],
    }
    return values, spec["per_layer"], res, notes


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true", help="tiny sizes, for the self-test")
    args = ap.parse_args()

    if not os.path.isfile(os.path.join(ROOT, "src", "subadd", "__init__.py")):
        print(f"error: no toolkit source under {ROOT}/src; run from a full checkout",
              file=sys.stderr)
        return 2
    try:
        spec = load_spec()
        measure = per_layer if args.trace else end_to_end
        values, declared, res, notes = measure(args, spec)
    except (BenchError, OSError, ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    missing = [m["name"] for m in declared if m["name"] not in values]
    if missing:
        print(f"error: metrics not measured: {missing}", file=sys.stderr)
        return 2
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared}
    correct = res["incorrect"] == 0

    print(f"subadd benchmark: workload {args.workload}, seed {args.seed}, "
          f"{args.seconds:g} s, trace {args.trace}")
    for name, metric in metrics.items():
        print(f"  {name:<40} {metric['value']:>16.6g} {metric['unit']}")
    print(f"  {'fail_ratio':<40} {res['failed'] / res['attempted']:>16.6g} "
          f"({res['failed']} failed of {res['attempted']} attempted)")
    for name, value in notes.get("as_measured", {}).items():
        print(f"  {name + ' (as measured)':<40} {value:>16.6g}")
    print(f"  correct: {correct}")
    for detail in res["failure_details"]:
        print(f"  failure: {detail}")
    notes.update(
        workload=args.workload,
        seed=args.seed,
        machine=machine_notes(),
        versions=res["versions"],
        failures_by_status=res["failures_by_status"],
        workload_notes=res["workload_notes"],
        roofline="not reported: kernel arrays cannot reach 4x the host's last-level "
                 "cache here, so only computed bytes are given",
    )
    print("notes: " + json.dumps(notes, sort_keys=True))
    print(json.dumps({
        "correct": correct,
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
