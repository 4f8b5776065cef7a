#!/usr/bin/env python3
"""Record :func:`subadd.search.scan_block` calls with their results, and
replay a record against a checkout to show that the kernel still returns
them bit for bit.

Usage::

    python3 tools/scan_block_replay.py record SRC_DIR OUT.json   # e.g. an old checkout's src/
    python3 tools/scan_block_replay.py replay OUT.json src
    python3 tools/scan_block_replay.py sample OUT.json tests/scan_block_replay.json

``record`` imports the toolkit from ``SRC_DIR``, puts a spy on the module
attribute ``search.scan_block`` (which ``scan_gap_min`` looks up at call
time) and runs three sources, with the triples of this checkout's
``perfbench/workloads.py``:

- ``fullbox``: ``scan_gap_min`` at order 2 over the ``fullbox-scan`` pools
  of seeds 1 to 20, at ``grid_n`` 801, 1601 and 2401 and refine depth 3;
- ``atlas``: ``find_violation(2, p)`` over the ``atlas-sweep`` pools of
  seeds 101 and 202;
- ``violation-matrix``: ``find_violation`` over the
  ``tools/violation_matrix.py`` cases, the same pools at orders 1 to 3.

Each distinct call is kept once, with the source that met it first: its
12 arguments (floats as ``float.hex``) and its result as
``[float.hex(value), i, j]``, so the sign of a zero counts.  A record of
the three sources holds 6,258 calls and takes about 10 s on a 2-core
Xeon VM.

``replay`` calls ``scan_block`` from ``SRC_DIR`` with every recorded
argument tuple and prints the number of calls, the number whose result
differs, and the first few differences; it exits 1 if any differs.

``sample`` writes a fixture for the test suite: every call on the node
path, every bounded call (at least ``_BOUND_MIN_COLS`` = 512 columns) on
a lattice of period above 3, and seeded draws of the others,
``FULLBOX_DRAWS`` from the ``fullbox`` source and ``OTHER_DRAWS`` from
the other two.
"""

from __future__ import annotations

import json
import random
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
FULLBOX_SEEDS = range(1, 21)
FULLBOX_DRAWS = 150
OTHER_DRAWS = 100
SAMPLE_SEED = 20261019


def _encode(args) -> list:
    return [a.hex() if isinstance(a, float) else a for a in args]


def decode(args) -> tuple:
    """Arguments of a recorded call: ``float.hex`` strings back to floats."""
    return tuple(float.fromhex(a) if isinstance(a, str) else a for a in args)


def result_key(result) -> list:
    value, i, j = result
    return [float(value).hex(), int(i), int(j)]


def _import(src: str):
    sys.path[:0] = [str(Path(src).resolve()), str(ROOT / "perfbench"), str(ROOT / "tools")]
    import violation_matrix
    import workloads
    from subadd import search

    return search, workloads, violation_matrix


def record(src: str, out: str) -> int:
    search, workloads, violation_matrix = _import(src)
    calls, source = {}, [None]
    kernel = search.scan_block

    def spy(*args):
        result = kernel(*args)
        key = json.dumps(_encode(args))
        if key not in calls:
            calls[key] = {"source": source[0], "args": _encode(args),
                          "result": result_key(result)}
        return result

    search.scan_block = spy
    frozen = workloads.load_frozen()
    source[0] = "fullbox"
    for seed in FULLBOX_SEEDS:
        for p in workloads.triple_pool(seed, frozen, workloads.SCAN_TRIPLES):
            for n in workloads.SCAN_GRIDS:
                cfg = search.ScanConfig(workloads.FULL_BOX, n, workloads.SCAN_DEPTH)
                search.scan_gap_min(2.0, p, cfg)
    pools = [workloads.triple_pool(seed, frozen, workloads.ATLAS_POOL)
             for seed in violation_matrix.SEEDS]
    source[0] = "atlas"
    for pool in pools:
        for p in pool:
            search.find_violation(2, p)
    source[0] = "violation-matrix"
    for pool in pools:
        for order in violation_matrix.ORDERS:
            for p in pool:
                search.find_violation(order, p)

    Path(out).write_text(json.dumps(list(calls.values())) + "\n")
    counts = {}
    for call in calls.values():
        counts[call["source"]] = counts.get(call["source"], 0) + 1
    print(f"{len(calls)} calls {counts}; wrote {out}")
    return 0


def replay(path: str, src: str) -> int:
    search, _, _ = _import(src)
    calls = json.loads(Path(path).read_text())
    differ = []
    for call in calls:
        got = result_key(search.scan_block(*decode(call["args"])))
        if got != call["result"]:
            differ.append((call, got))
    print(f"{len(calls)} calls replayed, {len(differ)} differ")
    for call, got in differ[:10]:
        print(f"  {call['source']} {call['args']}: recorded {call['result']}, got {got}")
    return 1 if differ else 0


def sample(path: str, out: str) -> int:
    sys.path[:0] = [str(ROOT / "src")]
    from subadd import search

    calls = json.loads(Path(path).read_text())
    chosen, fullbox, rest = [], [], []
    for call in calls:
        a, _, _, _, _, dx, _, dy, _, _, j0, j1 = decode(call["args"])
        ratio = search._lattice_ratio(
            a, dx, dy, 1.0 - search._RATIO_TOL, period=search._LATTICE_PERIOD
        )
        if ratio is None or (j1 - j0 >= search._BOUND_MIN_COLS and sum(ratio) > 3):
            chosen.append(call)
        else:
            (fullbox if call["source"] == "fullbox" else rest).append(call)
    rng = random.Random(SAMPLE_SEED)
    chosen += rng.sample(fullbox, FULLBOX_DRAWS) + rng.sample(rest, OTHER_DRAWS)
    Path(out).write_text("[\n" + ",\n".join(map(json.dumps, chosen)) + "\n]\n")
    print(f"{len(chosen)} of {len(calls)} calls; wrote {out}")
    return 0


def main() -> int:
    commands = {"record": record, "replay": replay, "sample": sample}
    if len(sys.argv) == 4 and sys.argv[1] in commands:
        return commands[sys.argv[1]](*sys.argv[2:])
    print(__doc__, file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main())
