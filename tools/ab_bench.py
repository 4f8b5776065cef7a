#!/usr/bin/env python3
"""Time one layer of the toolkit on one or more checkouts, taking them in
turn, and write ``BENCH_<layer>.json``.

Usage::

    python3 tools/ab_bench.py LAYER LABEL=SRC_DIR [LABEL=SRC_DIR ...] [--base REV] \
        [--rounds N] [--out PATH]
    python3 tools/ab_bench.py cone before=../old/src after=src
    python3 tools/ab_bench.py cone --base HEAD~1 after=src
    OPENBLAS_NUM_THREADS=1 python3 tools/ab_bench.py kernel before=../old/src \
        after=src --out BENCH_kernel_blas1.json
    python3 tools/ab_bench.py cli-cold after=src --rounds 1 --out /tmp/cli_cold.json

Each ``SRC_DIR`` is copied, without any ``__pycache__``, to a scratch
directory of its own, and every child interpreter runs from that
directory with the copy first on ``PYTHONPATH``, in the caller's
environment otherwise (``cli-cold`` sets the bytecode variables itself;
whether the other layers' children compile the toolkit or read its
cached bytecode can move a kernel case by a quarter).  ``--base REV``
adds the label ``base``, taken first: the ``src`` of revision ``REV`` of
this repository, checked out with ``git worktree add`` under the scratch
directory and removed on exit.  Each of
``--rounds`` rounds (default 10) runs the layer once per label, taking
the labels in turn and reversing their order every other round.

``LAYER`` is one of:

- ``cli-cold``: the ``cli-cold`` workload's six commands, ``CLI_COMMANDS``
  in ``perfbench/workloads.py`` (read from this checkout), each as
  ``python -m subadd.cli ARGS`` in a fresh interpreter, under two
  bytecode conditions in turn: ``no-bytecode``
  (``PYTHONDONTWRITEBYTECODE=1``, as the benchmark's interpreters run, so
  every command compiles the ``subadd`` modules it imports) and
  ``warm-cache`` (``PYTHONPYCACHEPREFIX`` set to a directory of the
  label's own, filled by one untimed run of each command before the first
  round).  One sample is the wall time of one interpreter, start to exit;
  the case ``<condition> round`` is the sum over the six (six operations).
  A command whose exit code is not the documented one is reported.
- ``cone``: one fresh interpreter builds ``make_generators(60, 5)`` and a
  pool of ``POOL`` pairs of elements drawn with seed ``SEED`` as the
  ``cone-exact`` benchmark draws them (1 to 3 generators, coefficients
  ``p/q`` with ``1 <= p, q <= 50``), runs each case once over the pool
  untimed, then ``REPEATS`` times timed; one sample is one pass over the
  pool divided by its size.  The cases: ``check_subadditive_pair``;
  ``sum``, ``x + y``, the sum that check builds once;
  ``round_trip``, ``apply_f_inv(apply_f(x))``; ``element``,
  ``ConeElement(coeffs)`` from the drawn, unsorted pairs; and
  ``element_value_interval``.
- ``kernel``: one fresh interpreter imports numpy before the toolkit, as
  a library caller may, so OpenBLAS runs with the thread count that
  ``OPENBLAS_NUM_THREADS`` gives it, not with the toolkit's single-thread
  pin.  Each of ``KERNEL_CASES`` scans, at order 2, the first triples of
  the ``atlas-sweep`` pool of seed ``ATLAS_SEED`` (read from this
  checkout's ``perfbench/workloads.py``): the flagship ``(1.2, 0.05,
  0.05)`` alone, or 16 of them for ``atlas-windows-16``, whose windows
  have several lattice shapes, so that its timed scans show the
  block-bound layout cache's traffic.  ``window-3`` is the flagship's
  violation window at ``grid_n`` 3 and refine depth 2: three kernel calls
  of nine nodes each, so its time is the fixed cost of three levels, what
  every level pays before its work grows with the grid.  Each case runs
  once untimed, then ``REPEATS`` times timed, one sample per run; one
  operation is one grid node covered, evaluated or excluded by its
  block's bound, ``grid_n**2`` per level run.  One more run, with a spy on ``numpy.matmul``, counts
  the nodes the kernel computed (the entries of its outer-sum products);
  one more, after clearing the layout cache so that building the layouts
  counts, gives the ``tracemalloc`` peak.  The clearing works on a
  ``src`` with the byte-capped cache and on one with the older
  ``functools.lru_cache``.

The record holds the host (``lscpu``), the Python and numpy versions,
``OPENBLAS_NUM_THREADS`` and ``PYTHONDONTWRITEBYTECODE`` as the
children saw them, the layer's settings,
``same_results`` (whether every label gave the same result digest for
every case: the commands' stdout, the cone's witnesses, round trips,
sums, elements and enclosures, the kernel's ``ScanReport``), the wrong exit
codes as ``[label, case, code]``, and per label and case: the median,
quartiles and IQR of the samples in ms (rounded to 1 ns), the sample
count, the operations per second at the median, how many rounds the
label was the fastest of (by the sum of its samples in the round), and
those sums, ``round_ms``.  Kernel cases add the evaluations per scan,
``computed_share``, ``cpu_per_wall`` (process CPU time over wall time of
the timed scans; above 1 when BLAS threads work beside the main one) and
``peak_alloc_mib``, the largest peak over the rounds.

The exit status is 1 when the labels' result digests differ or an exit
code is wrong, 2 on a usage error, and 0 otherwise.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from importlib.metadata import version
from pathlib import Path
from typing import Callable, NamedTuple

ROOT = Path(__file__).resolve().parent.parent
ROUNDS = 10
REPEATS = 5
ATLAS_SEED = 101
POOL = 4096
SEED = 61
CONDITIONS = ("no-bytecode", "warm-cache")

#: name: (grid_n, refine_depth, box, triples), scanning the first
#: ``triples`` of the ``atlas-sweep`` pool of seed ``ATLAS_SEED``; box
#: ``None`` is each triple's default violation window.  ``fullbox-*`` at
#: depth 3 is the ``fullbox-scan`` configuration; ``window-401`` the scan
#: inside ``find_violation``, ``atlas-windows-16`` the same for the pool's
#: first 16 triples (14 lattice shapes); ``window-3`` the same window at
#: ``grid_n`` 3, whose three levels of nine nodes each cost what a level
#: costs whatever its size; ``clipped-1601`` the
#: refined full-box level clipped at ``y = -8`` that the anchor
#: ``(5.0, 0.15, TABLE_ALPHA)`` meets, a lattice period of 83;
#: ``deep-2401`` level 3 of ``fullbox-2401`` alone, around the level-2
#: argmin.  ``fullbox-10001`` has tiles wide enough for OpenBLAS to split
#: the product over threads; it runs last, so that BLAS workers still
#: spinning after it cannot show in another case's CPU time.
KERNEL_CASES = {
    "fullbox-801": (801, 3, (-8.0, 8.0, -8.0, 8.0), 1),
    "fullbox-1601": (1601, 3, (-8.0, 8.0, -8.0, 8.0), 1),
    "fullbox-2401": (2401, 3, (-8.0, 8.0, -8.0, 8.0), 1),
    "window-3": (3, 2, None, 1),
    "window-401": (401, 2, None, 1),
    "atlas-windows-16": (401, 2, None, 16),
    "clipped-1601": (1601, 0, (-0.8, 0.8, -8.0, -7.05), 1),
    "deep-2401": (
        2401, 0, (-0.032666666666666504, -0.016666666666666503,
                  -1.1445999999999996, -1.1285999999999996), 1,
    ),
    "fullbox-10001": (10001, 0, (-8.0, 8.0, -8.0, 8.0), 1),
}

#: Each child prints ``{case: {"ms": [...], "ops": n, "digest": hex, ...}}``
#: as its last line of stdout.
CONE_CHILD = """
import hashlib, json, random, sys, time
from fractions import Fraction
from subadd.cone import ConeElement, make_generators
pool, repeats, seed = int(sys.argv[1]), int(sys.argv[2]), int(sys.argv[3])
cone = make_generators(60, 5)
rng = random.Random(seed)
ids = cone.generator_ids()

def draw():
    chosen = rng.sample(ids, rng.randint(1, 3))
    return tuple((g, Fraction(rng.randint(1, 50), rng.randint(1, 50))) for g in chosen)

raw = [(draw(), draw()) for _ in range(pool)]
pairs = [(ConeElement(a), ConeElement(b)) for a, b in raw]
cases = {
    "check_subadditive_pair": lambda: [cone.check_subadditive_pair(x, y) for x, y in pairs],
    "sum": lambda: [x + y for x, y in pairs],
    "round_trip": lambda: [cone.apply_f_inv(cone.apply_f(x)) for x, _ in pairs],
    "element": lambda: [ConeElement(a) for a, _ in raw],
    "element_value_interval": lambda: [cone.element_value_interval(x) for x, _ in pairs],
}
out = {}
for name, run in cases.items():
    digest = hashlib.sha256(repr(run()).encode()).hexdigest()
    ms = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        run()
        ms.append((time.perf_counter() - t0) / pool * 1e3)
    out[name] = dict(ms=ms, ops=1, digest=digest)
print(json.dumps(out))
"""

KERNEL_CHILD = """
import hashlib, json, sys, time, tracemalloc
import numpy
from subadd import Params, ScanConfig, scan_gap_min, violation_scan_config
from subadd import search
cases, repeats = json.loads(sys.argv[1]), int(sys.argv[2])
matmul, computed = numpy.matmul, [0]

def counting(lhs, rhs, out):
    computed[0] += out.size
    return matmul(lhs, rhs, out=out)

def clear_layouts():
    if hasattr(search, "_layouts"):
        search._layouts.clear()
    else:  # a src whose layout cache is a functools.lru_cache
        search._bound_layout.cache_clear()

out = {}
for name, (n, depth, box, triples) in cases.items():
    scans = []
    for triple in triples:
        p = Params(*triple)
        if box is None:
            cfg = violation_scan_config(p, grid_n=n, refine_depth=depth)
        else:
            cfg = ScanConfig(box=tuple(box), grid_n=n, refine_depth=depth)
        scans.append((p, cfg))

    def run():
        return [scan_gap_min(2.0, p, cfg) for p, cfg in scans]

    reports = run()
    ms, cpu_ms = [], []
    for _ in range(repeats):
        t0, c0 = time.perf_counter(), time.process_time()
        run()
        ms.append((time.perf_counter() - t0) * 1e3)
        cpu_ms.append((time.process_time() - c0) * 1e3)
    computed[0], numpy.matmul = 0, counting
    try:
        run()
    finally:
        numpy.matmul = matmul
    clear_layouts()
    tracemalloc.start()
    try:
        run()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    out[name] = dict(
        ms=ms, cpu_ms=cpu_ms, ops=sum(r.evaluations for r in reports),
        computed=computed[0], peak=peak,
        digest=hashlib.sha256(repr(reports).encode()).hexdigest(),
    )
print(json.dumps(out))
"""


class Layer(NamedTuple):
    """What one layer adds to the harness.

    ``run(env, work)`` runs one round of one label, with ``env`` its child
    environment and ``work`` its scratch directory, and returns ``{case:
    {"ms": [samples], "ops": operations per sample, "digest": optional,
    "wrong_exit": optional code}}``; ``header()`` gives the record's layer
    settings; ``prepare(env, work)`` runs once per label before the first
    round; ``fields(cases)`` adds summary fields from one label's per-round
    dicts of one case."""

    run: Callable
    header: Callable = dict
    prepare: Callable = lambda env, work: None
    fields: Callable = lambda cases: {}


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


def summary(ms: list, ops: float) -> dict:
    """Median, quartiles and IQR of ``ms``, its size and the operations per
    second at the median, each sample being ``ops`` operations."""
    if len(ms) > 1:
        q1, median, q3 = statistics.quantiles(ms, n=4, method="inclusive")
    else:
        q1 = median = q3 = ms[0]
    return {
        "median_ms": round(median, 6),
        "q1_ms": round(q1, 6),
        "q3_ms": round(q3, 6),
        "iqr_ms": round(q3 - q1, 6),
        "samples": len(ms),
        "ops_per_s": round(ops / median * 1e3, 3),
    }


def run_child(script: str, args: list, env: dict, work: Path) -> dict:
    out = subprocess.run(
        [sys.executable, "-c", script, *map(str, args)],
        cwd=work, env=env, capture_output=True, text=True, check=True,
    )
    return json.loads(out.stdout.splitlines()[-1])


@functools.cache
def workloads():
    """This checkout's ``perfbench/workloads.py``."""
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]
    import workloads

    return workloads


def cli_commands() -> tuple:
    """The ``cli-cold`` workload's commands, with their documented exit codes."""
    return workloads().CLI_COMMANDS


def kernel_cases() -> dict:
    """``KERNEL_CASES`` with each case's count of triples replaced by the
    triples ``(mu, sigma, alpha)`` themselves."""
    pool = workloads().triple_pool(
        ATLAS_SEED, workloads().load_frozen(), max(c[3] for c in KERNEL_CASES.values())
    )
    return {
        name: (n, depth, box, [(p.mu, p.sigma, p.alpha) for p in pool[:triples]])
        for name, (n, depth, box, triples) in KERNEL_CASES.items()
    }


def kernel_round(env: dict, work: Path) -> dict:
    return run_child(KERNEL_CHILD, [json.dumps(kernel_cases()), REPEATS], env, work)


def cli_env(env: dict, work: Path, condition: str) -> dict:
    env = {k: v for k, v in env.items()
           if k not in ("PYTHONDONTWRITEBYTECODE", "PYTHONPYCACHEPREFIX")}
    if condition == "no-bytecode":
        return {**env, "PYTHONDONTWRITEBYTECODE": "1"}
    return {**env, "PYTHONPYCACHEPREFIX": str(work / "pycache")}


def cli_command(args, env: dict, work: Path) -> tuple:
    """``(ms, process)`` of one fresh interpreter running ``subadd.cli ARGS``."""
    t0 = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "subadd.cli", *args],
        cwd=work, env=env, capture_output=True, text=True, timeout=300,
    )
    return (time.perf_counter() - t0) * 1e3, proc


def cli_prepare(env: dict, work: Path) -> None:
    for args, _ in cli_commands():
        cli_command(args, cli_env(env, work, "warm-cache"), work)


def cli_round(env: dict, work: Path) -> dict:
    cases = {}
    for condition in CONDITIONS:
        total = 0.0
        for args, expected in cli_commands():
            ms, proc = cli_command(args, cli_env(env, work, condition), work)
            total += ms
            case = cases[f"{condition} {args[0]}"] = {
                "ms": [ms], "ops": 1,
                "digest": hashlib.sha256(proc.stdout.encode()).hexdigest(),
            }
            if proc.returncode != expected:
                case["wrong_exit"] = proc.returncode
        cases[f"{condition} round"] = {"ms": [total], "ops": len(cli_commands())}
    return cases


def kernel_fields(cases: list) -> dict:
    wall = sum(sum(c["ms"]) for c in cases)
    return {
        "evaluations": cases[0]["ops"],
        "computed_share": round(cases[0]["computed"] / cases[0]["ops"], 4),
        "cpu_per_wall": round(sum(sum(c["cpu_ms"]) for c in cases) / wall, 3),
        "peak_alloc_mib": round(max(c["peak"] for c in cases) / 2**20, 3),
    }


LAYERS = {
    "cli-cold": Layer(
        cli_round,
        lambda: {"commands": [" ".join(a) for a, _ in cli_commands()],
                 "conditions": CONDITIONS},
        cli_prepare,
    ),
    "cone": Layer(
        functools.partial(run_child, CONE_CHILD, [POOL, REPEATS, SEED]),
        lambda: {"repeats": REPEATS, "pool": POOL, "seed": SEED,
                 "cone": "make_generators(60, 5)"},
    ),
    "kernel": Layer(
        kernel_round,
        lambda: {"repeats": REPEATS, "atlas_seed": ATLAS_SEED, "cases": {
            name: {"grid_n": n, "refine_depth": depth, "box": box or "violation window",
                   "triples": triples}
            for name, (n, depth, box, triples) in KERNEL_CASES.items()
        }},
        fields=kernel_fields,
    ),
}


def git(*args: str) -> subprocess.CompletedProcess:
    return subprocess.run(["git", "-C", str(ROOT), *args], capture_output=True, text=True)


@contextlib.contextmanager
def worktree(rev: str, scratch: Path):
    """The ``src`` of ``rev``, checked out with ``git worktree add`` under
    ``scratch``; the worktree is removed on exit."""
    tree = scratch / "base"
    added = git("worktree", "add", "--detach", str(tree), rev)
    if added.returncode:
        raise RuntimeError(f"git worktree add {rev} failed: {added.stderr.strip()}")
    try:
        yield tree / "src"
    finally:
        git("worktree", "remove", "--force", str(tree))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("layer", choices=LAYERS)
    ap.add_argument("sources", nargs="+", metavar="LABEL=SRC_DIR")
    ap.add_argument("--base", metavar="REV",
                    help="also time REV's src, from a git worktree, as label base")
    ap.add_argument("--rounds", type=int, default=ROUNDS)
    ap.add_argument("--out", help="default: BENCH_<layer>.json at the repository root")
    args = ap.parse_args(argv)
    sources = dict(s.partition("=")[::2] for s in args.sources)
    if (len(sources) != len(args.sources) or not all(sources)
            or not all(map(os.path.isdir, sources.values()))):
        ap.error("give each SRC_DIR, a directory, as LABEL=SRC_DIR with distinct labels")
    if args.rounds < 1:
        ap.error("--rounds must be >= 1")
    if args.base is not None and (
        "base" in sources or git("rev-parse", "--verify", "--quiet",
                                 f"{args.base}^{{commit}}").returncode
    ):
        ap.error("--base needs a revision of this repository and no other label base")
    out = Path(args.out or ROOT / f"BENCH_{args.layer.replace('-', '_')}.json")
    layer = LAYERS[args.layer]

    digests, wrong_exits = {}, []
    with contextlib.ExitStack() as stack:
        scratch = stack.enter_context(tempfile.TemporaryDirectory(prefix="ab_bench_"))
        if args.base is not None:
            sources = {"base": stack.enter_context(worktree(args.base, Path(scratch))),
                       **sources}
        rounds = {label: {} for label in sources}  # label -> case -> per-round dicts
        works, envs = {}, {}
        for i, (label, src) in enumerate(sources.items()):
            work = works[label] = Path(scratch) / str(i)
            shutil.copytree(src, work / "src", ignore=shutil.ignore_patterns("__pycache__"))
            envs[label] = {**os.environ, "PYTHONPATH": os.pathsep.join(
                [str(work / "src")] + [p for p in [os.environ.get("PYTHONPATH")] if p]
            )}
            layer.prepare(envs[label], work)
        for r in range(args.rounds):
            for label in list(sources) if r % 2 == 0 else list(reversed(sources)):
                for name, case in layer.run(envs[label], works[label]).items():
                    rounds[label].setdefault(name, []).append(case)
                    digests.setdefault(name, set()).add(case.get("digest"))
                    if "wrong_exit" in case:
                        wrong_exits.append([label, name, case["wrong_exit"]])
            print(f"round {r + 1} of {args.rounds} done", file=sys.stderr)

    results = {label: {} for label in sources}
    for name in digests:
        sums = {label: [sum(c["ms"]) for c in rounds[label][name]] for label in sources}
        fastest = [min(sources, key=lambda label: sums[label][r]) for r in range(args.rounds)]
        for label in sources:
            cases = rounds[label][name]
            results[label][name] = {
                **summary([ms for c in cases for ms in c["ms"]], cases[0]["ops"]),
                "wins": fastest.count(label),
                "round_ms": [round(s, 6) for s in sums[label]],
                **layer.fields(cases),
            }
    record = {
        "tool": "tools/ab_bench.py",
        "layer": args.layer,
        "host": host(),
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "PYTHONDONTWRITEBYTECODE": os.environ.get("PYTHONDONTWRITEBYTECODE"),
        "rounds": args.rounds,
        **layer.header(),
        "same_results": all(len(d) == 1 for d in digests.values()),
        "wrong_exit_codes": wrong_exits,
        "results": results,
    }
    out.write_text(json.dumps(record, indent=2) + "\n")
    for label, cases in results.items():
        for name, s in cases.items():
            print(
                f"{label:>8} {name:>22}: {s['median_ms']:10.6g} ms "
                f"[{s['q1_ms']:.6g}, {s['q3_ms']:.6g}] {s['ops_per_s']:10.4g} ops/s, "
                f"{s['wins']}/{args.rounds} wins"
            )
    print(
        f"same results: {record['same_results']}; "
        f"wrong exit codes: {len(wrong_exits)}; wrote {out}"
    )
    return 1 if wrong_exits or not record["same_results"] else 0


if __name__ == "__main__":
    sys.exit(main())
