#!/usr/bin/env python3
"""Time the exact cone's operations and write ``BENCH_cone.json``.

Usage::

    python3 tools/cone_bench.py LABEL=SRC_DIR [LABEL=SRC_DIR ...] [--out PATH]
    python3 tools/cone_bench.py before=../old/src after=src
    python3 tools/cone_bench.py after=src --rounds 1 --out /tmp/cone.json

Each of ``--rounds`` rounds (default 10) starts one fresh interpreter per
``SRC_DIR``, with ``SRC_DIR`` first on ``PYTHONPATH``, taking the
checkouts in turn and reversing their order every other round.  The
interpreter builds ``make_generators(60, 5)`` and a pool of ``POOL``
seeded pairs of elements, drawn as the ``cone-exact`` benchmark draws
them (1 to 3 generators, coefficients ``p/q`` with ``1 <= p, q <= 50``).
It runs each case once over the pool untimed, then ``REPEATS`` times timed
with ``time.perf_counter``; one sample is the time of one pass divided by
the pool size.  The cases:

- ``check_subadditive_pair``: ``cone.check_subadditive_pair(x, y)``;
- ``round_trip``: ``cone.apply_f_inv(cone.apply_f(x))``;
- ``element``: ``ConeElement(coeffs)`` from the drawn, unsorted pairs;
- ``element_value_interval``: ``cone.element_value_interval(x)``.

``BENCH_cone.json`` holds, per label and case, the median and quartiles
of the per-operation time in microseconds and the operations per second
at the median.  It also holds the host (``lscpu``), the Python version
and whether every label returned the same witnesses, round trips,
elements and enclosures (a digest of their ``repr``).  A run with two
labels takes about a minute on a 2-core Xeon VM.
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

from kernel_bench import host

ROOT = Path(__file__).resolve().parent.parent
ROUNDS = 10
REPEATS = 5
POOL = 4096
SEED = 61
CASES = ("check_subadditive_pair", "round_trip", "element", "element_value_interval")

#: Run by each fresh interpreter: ``{"cases": {name: {"seconds": [...],
#: "digest": hex}}}`` on stdout, each second a per-operation time.
CHILD = """
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
    "round_trip": lambda: [cone.apply_f_inv(cone.apply_f(x)) for x, _ in pairs],
    "element": lambda: [ConeElement(a) for a, _ in raw],
    "element_value_interval": lambda: [cone.element_value_interval(x) for x, _ in pairs],
}
out = {}
for name, run in cases.items():
    digest = hashlib.sha256(repr(run()).encode()).hexdigest()
    seconds = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        run()
        seconds.append((time.perf_counter() - t0) / pool)
    out[name] = dict(seconds=seconds, digest=digest)
print(json.dumps({"cases": out}))
"""


def run_child(src: str) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(Path(src).resolve())] + [p for p in [env.get("PYTHONPATH")] if p]
    )
    out = subprocess.run(
        [sys.executable, "-c", CHILD, str(POOL), str(REPEATS), str(SEED)],
        env=env, capture_output=True, text=True, check=True,
    )
    return json.loads(out.stdout.splitlines()[-1])


def summary(seconds: list) -> dict:
    q1, median, q3 = statistics.quantiles(seconds, n=4, method="inclusive")
    return {
        "median_us": round(median * 1e6, 2),
        "q1_us": round(q1 * 1e6, 2),
        "q3_us": round(q3 * 1e6, 2),
        "ops_per_s": round(1 / median),
        "samples": len(seconds),
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("sources", nargs="+", metavar="LABEL=SRC_DIR")
    ap.add_argument("--out", default=str(ROOT / "BENCH_cone.json"))
    ap.add_argument("--rounds", type=int, default=ROUNDS)
    args = ap.parse_args(argv)
    sources = dict(s.split("=", 1) for s in args.sources)
    if len(sources) != len(args.sources) or not all(sources):
        ap.error("give each SRC_DIR once, as LABEL=SRC_DIR with distinct labels")
    if args.rounds < 1:
        ap.error("--rounds must be >= 1")

    seconds = {label: {name: [] for name in CASES} for label in sources}
    digests = {name: set() for name in CASES}
    for r in range(args.rounds):
        order = list(sources) if r % 2 == 0 else list(reversed(sources))
        for label in order:
            for name, case in run_child(sources[label])["cases"].items():
                seconds[label][name] += case["seconds"]
                digests[name].add(case["digest"])
        print(f"round {r + 1} of {args.rounds} done", file=sys.stderr)

    record = {
        "tool": "tools/cone_bench.py",
        "host": host(),
        "python": platform.python_version(),
        "rounds": args.rounds,
        "repeats": REPEATS,
        "pool": POOL,
        "seed": SEED,
        "cone": "make_generators(60, 5)",
        "same_results": all(len(d) == 1 for d in digests.values()),
        "results": {
            label: {name: summary(s) for name, s in cases.items()}
            for label, cases in seconds.items()
        },
    }
    Path(args.out).write_text(json.dumps(record, indent=2) + "\n")
    for label, cases in record["results"].items():
        for name, s in cases.items():
            print(
                f"{label:>13} {name:>22}: {s['median_us']:8.2f} us "
                f"[{s['q1_us']:.2f}, {s['q3_us']:.2f}] {s['ops_per_s']:>9,} ops/s"
            )
    print(f"same results: {record['same_results']}; wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
