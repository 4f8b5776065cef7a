#!/usr/bin/env python3
"""Time the six ``cli-cold`` commands in fresh interpreters and write
``BENCH_cli_cold.json``.

Usage::

    python3 tools/cli_cold_bench.py LABEL=SRC_DIR [LABEL=SRC_DIR ...] [--out PATH]
    python3 tools/cli_cold_bench.py before=../old/src after=src
    python3 tools/cli_cold_bench.py after=src --rounds 1 --out /tmp/cli_cold.json

Each ``SRC_DIR`` is copied, without any ``__pycache__``, to a scratch
directory, and every command runs as ``python -m subadd.cli ARGS`` with
that copy first on ``PYTHONPATH``, from a scratch working directory.  A
round runs, under each of two bytecode conditions in turn, the six
commands once per label, taking the labels in turn and reversing their
order every other round (``--rounds``, default 10).  The conditions:

- ``no-bytecode``: ``PYTHONDONTWRITEBYTECODE=1``, as the benchmark's
  interpreters run, so every command compiles the ``subadd`` modules it
  imports; the standard library and numpy read their installed bytecode;
- ``warm-cache``: ``PYTHONPYCACHEPREFIX`` set to a directory of the
  label's own, filled by one untimed run of each command before the first
  round, so every command reads all of its bytecode from there.

The commands and their documented exit codes are read from the
``cli-cold`` workload, ``CLI_COMMANDS`` in ``perfbench/workloads.py``
(imported with this checkout's ``src``); a run whose exit code differs,
or whose stdout differs between labels, is reported.  One sample
is the wall time of one command's interpreter, start to exit, as the
workload measures it; a round's total is the sum over the six.

``BENCH_cli_cold.json`` holds, per condition and label, the median and
interquartile range of each command's time and of the round totals, the
round totals themselves, the operations per second at the median total
(six commands per round), and how many rounds each label was the fastest
of.  It also holds the host (``lscpu``) and the Python version.  Ten
rounds with two labels take about a minute on a 2-core Xeon VM.
"""

from __future__ import annotations

import argparse
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
from pathlib import Path

from kernel_bench import host

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]
#: The ``cli-cold`` workload's commands, with their documented exit codes.
from workloads import CLI_COMMANDS as COMMANDS  # noqa: E402

ROUNDS = 10
CONDITIONS = ("no-bytecode", "warm-cache")


def run_command(args, env, cwd) -> tuple:
    """``(seconds, exit code, stdout digest)`` of one fresh interpreter."""
    t0 = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "subadd.cli", *args],
        cwd=cwd, env=env, capture_output=True, text=True, timeout=300,
    )
    seconds = time.perf_counter() - t0
    return seconds, proc.returncode, hashlib.sha256(proc.stdout.encode()).hexdigest()


def environments(src: Path, cache: Path) -> dict:
    """The child environment of each condition for the copy ``src``."""
    base = {k: v for k, v in os.environ.items()
            if k not in ("PYTHONDONTWRITEBYTECODE", "PYTHONPYCACHEPREFIX")}
    base["PYTHONPATH"] = os.pathsep.join(
        [str(src)] + [p for p in [os.environ.get("PYTHONPATH")] if p]
    )
    return {
        "no-bytecode": {**base, "PYTHONDONTWRITEBYTECODE": "1"},
        "warm-cache": {**base, "PYTHONPYCACHEPREFIX": str(cache)},
    }


def summary(ms: list) -> dict:
    if len(ms) > 1:
        q1, median, q3 = statistics.quantiles(ms, n=4, method="inclusive")
    else:
        q1 = median = q3 = ms[0]
    return {
        "median_ms": round(median, 2),
        "q1_ms": round(q1, 2),
        "q3_ms": round(q3, 2),
        "iqr_ms": round(q3 - q1, 2),
        "samples": len(ms),
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("sources", nargs="+", metavar="LABEL=SRC_DIR")
    ap.add_argument("--out", default=str(ROOT / "BENCH_cli_cold.json"))
    ap.add_argument("--rounds", type=int, default=ROUNDS)
    args = ap.parse_args(argv)
    sources = dict(s.split("=", 1) for s in args.sources)
    if len(sources) != len(args.sources) or not all(sources):
        ap.error("give each SRC_DIR once, as LABEL=SRC_DIR with distinct labels")
    if args.rounds < 1:
        ap.error("--rounds must be >= 1")

    names = [a[0] for a, _ in COMMANDS]
    ms = {c: {label: {n: [] for n in names} for label in sources} for c in CONDITIONS}
    totals = {c: {label: [] for label in sources} for c in CONDITIONS}
    wrong_exits = []
    digests = {n: set() for n in names}
    with tempfile.TemporaryDirectory(prefix="cli_cold_bench_") as scratch:
        scratch = Path(scratch)
        envs = {}
        for i, (label, src) in enumerate(sources.items()):
            copy = scratch / f"src{i}"
            shutil.copytree(src, copy, ignore=shutil.ignore_patterns("__pycache__"))
            envs[label] = environments(copy, scratch / f"pycache{i}")
            for command, _ in COMMANDS:  # fill the warm cache
                run_command(command, envs[label]["warm-cache"], scratch)
        for r in range(args.rounds):
            order = list(sources) if r % 2 == 0 else list(reversed(sources))
            for condition in CONDITIONS:
                for label in order:
                    total = 0.0
                    for command, expected in COMMANDS:
                        seconds, code, digest = run_command(
                            command, envs[label][condition], scratch
                        )
                        ms[condition][label][command[0]].append(seconds * 1e3)
                        total += seconds * 1e3
                        digests[command[0]].add(digest)
                        if code != expected:
                            wrong_exits.append([label, condition, command[0], code])
                    totals[condition][label].append(round(total, 2))
            print(f"round {r + 1} of {args.rounds} done", file=sys.stderr)

    conditions = {}
    for condition in CONDITIONS:
        per_round = totals[condition]
        wins = {label: 0 for label in sources}
        for r in range(args.rounds):
            wins[min(sources, key=lambda label: per_round[label][r])] += 1
        results = {}
        for label in sources:
            total = summary(per_round[label])
            results[label] = {
                "commands": {n: summary(v) for n, v in ms[condition][label].items()},
                "round_total": total,
                "ops_per_s": round(len(COMMANDS) / total["median_ms"] * 1e3, 3),
            }
        conditions[condition] = {
            "results": results, "round_totals_ms": per_round, "wins": wins,
        }
    record = {
        "tool": "tools/cli_cold_bench.py",
        "host": host(),
        "python": platform.python_version(),
        "rounds": args.rounds,
        "commands": [" ".join(a) for a, _ in COMMANDS],
        "same_output": all(len(d) == 1 for d in digests.values()),
        "wrong_exit_codes": wrong_exits,
        "conditions": conditions,
    }
    Path(args.out).write_text(json.dumps(record, indent=2) + "\n")
    for condition, data in conditions.items():
        for label, res in data["results"].items():
            cells = " ".join(
                f"{n} {s['median_ms']:.0f}" for n, s in res["commands"].items()
            )
            t = res["round_total"]
            print(
                f"{condition:>11} {label:>8}: {cells} | round {t['median_ms']:.0f} ms "
                f"(IQR {t['iqr_ms']:.0f}), {res['ops_per_s']:.2f} ops/s, "
                f"{data['wins'][label]}/{args.rounds} wins"
            )
    print(
        f"same output: {record['same_output']}; "
        f"wrong exit codes: {len(wrong_exits)}; wrote {args.out}"
    )
    return 1 if wrong_exits or not record["same_output"] else 0


if __name__ == "__main__":
    sys.exit(main())
