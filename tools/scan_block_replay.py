#!/usr/bin/env python3
"""Record :func:`subadd.search.scan_block` calls with their results, and
replay a record against a checkout to show that the kernel still returns
them bit for bit; write the test suite's kernel fixtures from a record.

Usage::

    python3 tools/scan_block_replay.py record SRC_DIR OUT.json   # e.g. an old checkout's src/
    python3 tools/scan_block_replay.py replay OUT.json src
    python3 tools/scan_block_replay.py sample OUT.json tests/scan_block_replay.json

``record`` imports the toolkit from ``SRC_DIR``, puts spies on the module
attributes ``search.scan_block`` and ``search._lattice_ratio`` (which
``scan_gap_min`` and the kernel look up at call time) and runs three
sources, with the triples of this checkout's ``perfbench/workloads.py``:

- ``fullbox``: ``scan_gap_min`` at order 2 over the ``fullbox-scan`` pools
  of seeds 1 to 20, at ``grid_n`` 801, 1601 and 2401 and refine depth 3
  (the ``tools/violation_matrix.py`` full-box scans);
- ``atlas``: ``find_violation(2, p)`` over the ``atlas-sweep`` pools of
  seeds 101 and 202;
- ``violation-matrix``: ``find_violation`` over the
  ``tools/violation_matrix.py`` cases, the same pools at orders 1 to 3.

Each distinct kernel call is kept once, under ``"calls"``, with the
source that met it first: its 12 arguments (floats as ``float.hex``) and
its result as ``[float.hex(value), i, j]``, so the sign of a zero counts.
Each ``_lattice_ratio`` call's ``r = dy/(a*dx)`` is kept under
``"lattice_ratios"`` with its ``keep`` and ``reach``, so a test can call
the function again with ``a = dx = 1`` and ``dy = r`` at the kernel's
period: the record maps ``"keep reach"`` (as ``float.hex``) to the sorted
``float.hex`` of the distinct ratios.  The spy takes the arguments of
this checkout's ``_lattice_ratio``; a checkout whose ``_lattice_ratio``
still takes a ``period`` is recorded with that checkout's copy of this
tool.  A record of the three sources holds 6,258 calls and 1,825 ratios
and takes about 10 s on a 2-core Xeon VM.

``replay`` calls ``scan_block`` from ``SRC_DIR`` with every recorded
argument tuple and prints the number of calls, the number whose result
differs, and the first few differences; it exits 1 if any differs.

``sample`` writes the test suite's two fixtures.  To ``OUT.json`` go every
call on the node path, every call of at least ``WIDE_COLS`` (512) columns
on a lattice of period above 3, and seeded draws of the others, ``FULLBOX_DRAWS`` from the ``fullbox`` source and ``OTHER_DRAWS``
from the other two.  Beside it, to ``lattice_ratios.json``, go the
record's ratios.

The committed fixtures are reference data, kept as they were sampled:
``tests/scan_block_replay.json`` at commit ``514d316`` and
``tests/lattice_ratios.json`` at ``435dfab``.  Each commit's copy of this
tool, from ``514d316`` to ``7ea95a9``, records and samples the first byte
for byte, and ``7ea95a9``'s, the first to write the ratios, the second.
Later records differ because ``8ddd700`` snaps node placement onto the
kernel's lattices: 53 of the 6,258 recorded calls get other steps, 16 of
them leave the node path, and ``sample``, which keeps every node-path
call, writes 281 calls where the fixture holds 297 (178 shared, as the
seeded draws fall on other calls).  The snapped levels meet 25 ratios at
the kernel's ``keep`` where the fixture holds 23 others, and 2 more at
the snap's ``keep``.  Every fixture call still replays bit for bit, and
every fixture ratio still gets the loop's ``(m, l)``.
"""

from __future__ import annotations

import json
import math
import random
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
#: Fewest columns of a lattice call that ``sample`` always keeps.
WIDE_COLS = 512
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
    calls, source, ratios = {}, [None], {}
    kernel, lattice_ratio = search.scan_block, search._lattice_ratio

    def spy(*args):
        result = kernel(*args)
        key = json.dumps(_encode(args))
        if key not in calls:
            calls[key] = {"source": source[0], "args": _encode(args),
                          "result": result_key(result)}
        return result

    def ratio_spy(a, dx, dy, keep, reach=search._RATIO_TOL):
        adx = a * dx
        ratios.setdefault((keep, reach), set()).add(dy / adx if adx > 0.0 else math.nan)
        return lattice_ratio(a, dx, dy, keep, reach)

    search.scan_block, search._lattice_ratio = spy, ratio_spy
    source[0] = "fullbox"
    for _ in violation_matrix.fullbox_scans(search, workloads):
        pass
    frozen = workloads.load_frozen()
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

    lattice_ratios = {
        f"{keep.hex()} {reach.hex()}": sorted(r.hex() for r in rs)
        for (keep, reach), rs in sorted(ratios.items())
    }
    Path(out).write_text(json.dumps(
        {"calls": list(calls.values()), "lattice_ratios": lattice_ratios}
    ) + "\n")
    counts = {}
    for call in calls.values():
        counts[call["source"]] = counts.get(call["source"], 0) + 1
    n_ratios = sum(map(len, lattice_ratios.values()))
    print(f"{len(calls)} calls {counts}, {n_ratios} ratios; wrote {out}")
    return 0


def replay(path: str, src: str) -> int:
    search, _, _ = _import(src)
    calls = json.loads(Path(path).read_text())["calls"]
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

    record = json.loads(Path(path).read_text())
    calls, chosen, fullbox, rest = record["calls"], [], [], []
    for call in calls:
        a, _, _, _, _, dx, _, dy, _, _, j0, j1 = decode(call["args"])
        ratio = search._lattice_ratio(a, dx, dy, 1.0 - search._RATIO_TOL)
        if ratio is None or (j1 - j0 >= WIDE_COLS and sum(ratio) > 3):
            chosen.append(call)
        else:
            (fullbox if call["source"] == "fullbox" else rest).append(call)
    rng = random.Random(SAMPLE_SEED)
    chosen += rng.sample(fullbox, FULLBOX_DRAWS) + rng.sample(rest, OTHER_DRAWS)
    Path(out).write_text("[\n" + ",\n".join(map(json.dumps, chosen)) + "\n]\n")
    ratios_out = Path(out).with_name("lattice_ratios.json")
    ratios_out.write_text(json.dumps(record["lattice_ratios"], indent=0) + "\n")
    print(f"{len(chosen)} of {len(calls)} calls; wrote {out} and {ratios_out}")
    return 0


def main() -> int:
    commands = {"record": record, "replay": replay, "sample": sample}
    if len(sys.argv) == 4 and sys.argv[1] in commands:
        return commands[sys.argv[1]](*sys.argv[2:])
    print(__doc__, file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main())
