#!/usr/bin/env python3
"""Time the scan kernel through :func:`subadd.search.scan_gap_min` and
write ``BENCH_kernel.json``.

Usage::

    python3 tools/kernel_bench.py LABEL=SRC_DIR [LABEL=SRC_DIR ...] [--out PATH]
    OPENBLAS_NUM_THREADS=1 python3 tools/kernel_bench.py before=../old/src \
        after=src --out BENCH_kernel_blas1.json
    python3 tools/kernel_bench.py before=../old/src after=src \
        --out BENCH_kernel_memory.json

Each of ``ROUNDS`` rounds starts one fresh interpreter per ``SRC_DIR``,
with ``SRC_DIR`` first on ``PYTHONPATH``, taking the checkouts in turn and
reversing their order every other round.  The interpreter imports numpy
before the toolkit, as a library caller may, so OpenBLAS runs with the
thread count that ``OPENBLAS_NUM_THREADS`` gives it, or its default when
the variable is unset, not with the toolkit's single-thread pin.  It scans
each case once untimed, then ``REPEATS`` times timed with
``time.perf_counter`` and ``time.process_time``, so numpy's import and
first-call set-up are not counted.  The cases, all at order 2 on the
flagship triple ``(1.2, 0.05, 0.05)``:

- ``fullbox-801``, ``fullbox-1601``, ``fullbox-2401``: the box
  ``[-8, 8]^2`` at refine depth 3, the ``fullbox-scan`` configuration;
- ``window-401``: the default violation window at ``grid_n`` 401 and its
  default depth 2, the scan inside ``find_violation``;
- ``clipped-1601``: one level at ``grid_n`` 1601 over ``[-0.8, 0.8] x
  [-8, -7.05]``, the refined full-box level clipped at ``y = -8`` that the
  anchor ``(5.0, 0.15, TABLE_ALPHA)`` meets: ``dy/(a*dx) = 19/64``, a
  lattice period of 83;
- ``deep-2401``: level 3 of ``fullbox-2401`` alone, the box ``0.016``
  wide around the level-2 argmin, where block bounds of the range
  ``(min u + min v) - max fs`` still computed 74% of the nodes;
- ``fullbox-10001``: the full box at ``grid_n`` 10001 and depth 0, one
  level whose 64-row tiles are wide enough for OpenBLAS to split the
  outer-sum product over threads.  It runs last, so that BLAS workers
  still spinning after it cannot show in another case's CPU time.

Per label and case the record holds the median and quartiles of the
``ROUNDS * REPEATS`` times in ms, the kernel evaluations per second at
the median (``(depth + 1) * grid_n**2`` grid nodes covered per scan, each
evaluated or excluded by its block's bound), the share of those nodes
the kernel computed (the entries of its outer-sum products, counted by a
spy on ``numpy.matmul`` in one more scan; every case runs on the lattice
path, one product per evaluated span), the process CPU time over
wall time of the timed scans (above 1 when BLAS threads work alongside
the main one), and ``peak_alloc_mib``, the peak of Python-tracked
allocations (``tracemalloc``, MiB) of one more untimed scan, run after
clearing the kernel's block-bound layout cache so that building the
layouts counts, the largest over the rounds.  It also holds the host
(``lscpu``), the Python and numpy versions, ``OPENBLAS_NUM_THREADS`` as
the children saw it, and whether every label returned the same
``ScanReport`` for each case.  A run with two labels takes about 10 s on
a 2-core Xeon VM.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
ROUNDS = 10
REPEATS = 5

#: name: (grid_n, refine_depth, box); ``None`` is the default violation window.
CASES = {
    "fullbox-801": (801, 3, (-8.0, 8.0, -8.0, 8.0)),
    "fullbox-1601": (1601, 3, (-8.0, 8.0, -8.0, 8.0)),
    "fullbox-2401": (2401, 3, (-8.0, 8.0, -8.0, 8.0)),
    "window-401": (401, 2, None),
    "clipped-1601": (1601, 0, (-0.8, 0.8, -8.0, -7.05)),
    "deep-2401": (
        2401, 0, (-0.032666666666666504, -0.016666666666666503,
                  -1.1445999999999996, -1.1285999999999996),
    ),
    "fullbox-10001": (10001, 0, (-8.0, 8.0, -8.0, 8.0)),
}

#: Run by each fresh interpreter: ``{"numpy": version, "cases": {name:
#: {"seconds": [...], "cpu_seconds": [...], "evaluations": n, "computed":
#: n, "peak": bytes, "report": repr}}}`` on stdout.
CHILD = """
import json, sys, time, tracemalloc
import numpy
from subadd import Params, ScanConfig, scan_gap_min, violation_scan_config
from subadd import search
cases, repeats = json.loads(sys.argv[1]), int(sys.argv[2])
p = Params(mu=1.2, sigma=0.05, alpha=0.05)
matmul, computed = numpy.matmul, [0]

def counting(lhs, rhs, out):
    computed[0] += out.size
    return matmul(lhs, rhs, out=out)

out = {}
for name, (n, depth, box) in cases.items():
    if box is None:
        cfg = violation_scan_config(p, grid_n=n, refine_depth=depth)
    else:
        cfg = ScanConfig(box=tuple(box), grid_n=n, refine_depth=depth)
    report = scan_gap_min(2.0, p, cfg)
    seconds, cpu_seconds = [], []
    for _ in range(repeats):
        t0, c0 = time.perf_counter(), time.process_time()
        scan_gap_min(2.0, p, cfg)
        seconds.append(time.perf_counter() - t0)
        cpu_seconds.append(time.process_time() - c0)
    computed[0], numpy.matmul = 0, counting
    try:
        scan_gap_min(2.0, p, cfg)
    finally:
        numpy.matmul = matmul
    search._bound_layout.cache_clear()
    tracemalloc.start()
    try:
        scan_gap_min(2.0, p, cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    out[name] = dict(
        seconds=seconds, cpu_seconds=cpu_seconds, evaluations=report.evaluations,
        computed=computed[0], peak=peak, report=repr(report),
    )
print(json.dumps({"numpy": numpy.__version__, "cases": out}))
"""


def host() -> dict:
    """CPU model and count from ``lscpu``, or what ``platform`` knows."""
    info = {"machine": platform.machine(), "cpus": os.cpu_count()}
    try:
        text = subprocess.run(
            ["lscpu"], capture_output=True, text=True, check=True
        ).stdout
    except (OSError, subprocess.CalledProcessError):
        return info
    for line in text.splitlines():
        key, _, value = line.partition(":")
        if key.strip() in ("Model name", "CPU(s)", "Thread(s) per core"):
            info[key.strip()] = value.strip()
    return info


def run_child(src: str) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(Path(src).resolve())] + [p for p in [env.get("PYTHONPATH")] if p]
    )
    out = subprocess.run(
        [sys.executable, "-c", CHILD, json.dumps(CASES), str(REPEATS)],
        env=env, capture_output=True, text=True, check=True,
    )
    return json.loads(out.stdout.splitlines()[-1])


def summary(
    seconds: list, cpu_seconds: list, evaluations: int, computed: int, peak: int
) -> dict:
    q1, median, q3 = statistics.quantiles(seconds, n=4, method="inclusive")
    return {
        "median_ms": round(median * 1e3, 3),
        "q1_ms": round(q1 * 1e3, 3),
        "q3_ms": round(q3 * 1e3, 3),
        "evals_per_s": round(evaluations / median),
        "computed_share": round(computed / evaluations, 4),
        "cpu_per_wall": round(sum(cpu_seconds) / sum(seconds), 3),
        "peak_alloc_mib": round(peak / 2**20, 3),
        "evaluations": evaluations,
        "samples": len(seconds),
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("sources", nargs="+", metavar="LABEL=SRC_DIR")
    ap.add_argument("--out", default=str(ROOT / "BENCH_kernel.json"))
    args = ap.parse_args(argv)
    sources = dict(s.split("=", 1) for s in args.sources)
    if len(sources) != len(args.sources) or not all(sources):
        ap.error("give each SRC_DIR once, as LABEL=SRC_DIR with distinct labels")

    seconds = {label: {name: [] for name in CASES} for label in sources}
    cpu_seconds = {label: {name: [] for name in CASES} for label in sources}
    counts, reports, numpy_versions = {}, {name: set() for name in CASES}, set()
    computed = {label: {} for label in sources}
    peaks = {label: {name: 0 for name in CASES} for label in sources}
    for r in range(ROUNDS):
        order = list(sources) if r % 2 == 0 else list(reversed(sources))
        for label in order:
            child = run_child(sources[label])
            numpy_versions.add(child["numpy"])
            for name, case in child["cases"].items():
                seconds[label][name] += case["seconds"]
                cpu_seconds[label][name] += case["cpu_seconds"]
                counts[name] = case["evaluations"]
                computed[label][name] = case["computed"]
                peaks[label][name] = max(peaks[label][name], case["peak"])
                reports[name].add(case["report"])
        print(f"round {r + 1} of {ROUNDS} done", file=sys.stderr)

    record = {
        "tool": "tools/kernel_bench.py",
        "host": host(),
        "python": platform.python_version(),
        "numpy": sorted(numpy_versions),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "rounds": ROUNDS,
        "repeats": REPEATS,
        "cases": {
            name: {"grid_n": n, "refine_depth": depth, "box": box or "violation window"}
            for name, (n, depth, box) in CASES.items()
        },
        "same_reports": all(len(r) == 1 for r in reports.values()),
        "results": {
            label: {
                name: summary(
                    s, cpu_seconds[label][name], counts[name], computed[label][name],
                    peaks[label][name],
                )
                for name, s in cases.items()
            }
            for label, cases in seconds.items()
        },
    }
    Path(args.out).write_text(json.dumps(record, indent=2) + "\n")
    for label, cases in record["results"].items():
        for name, s in cases.items():
            print(
                f"{label:>13} {name:>13}: {s['median_ms']:9.3f} ms "
                f"[{s['q1_ms']:.3f}, {s['q3_ms']:.3f}] "
                f"{s['evals_per_s'] / 1e6:7.1f}M evals/s, "
                f"{s['computed_share']:6.1%} computed, "
                f"CPU/wall {s['cpu_per_wall']:.2f}, "
                f"peak {s['peak_alloc_mib']:.2f} MiB"
            )
    print(f"same reports: {record['same_reports']}; wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
