#!/usr/bin/env python3
"""Record every ratio that :func:`subadd.search._lattice_ratio` meets in
the benchmark's scans and write ``tests/lattice_ratios.json``.

Usage::

    python3 tools/lattice_ratios.py [--out PATH]

The cases are those of two recorded workloads, with this checkout's
``src`` and ``perfbench/workloads.py``:

- ``scan_gap_min`` at order 2 over the ``fullbox-scan`` pools of seeds 1
  to 20, at every grid size of the workload and its refine depth;
- ``find_violation`` over the ``tools/violation_matrix.py`` cases: the
  ``atlas-sweep`` pools of seeds 101 and 202 at orders 1, 2 and 3.

Each call's ``r = dy/(a*dx)`` is recorded with its ``keep`` and
``reach``, so a test can call the function again with ``a = dx = 1``
and ``dy = r`` at any period.  The record maps ``"keep reach"`` (as
``float.hex``) to the sorted ``float.hex`` of the distinct ratios.  A run
takes about 10 s on a 2-core Xeon VM.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
FULLBOX_SEEDS = range(1, 21)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out", default=str(ROOT / "tests" / "lattice_ratios.json"))
    args = ap.parse_args(argv)
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench"), str(ROOT / "tools")]
    import violation_matrix
    import workloads
    from subadd import search

    seen = {}
    lattice_ratio = search._lattice_ratio

    def spy(a, dx, dy, keep, reach=search._RATIO_TOL, **kwargs):
        adx = a * dx
        r = dy / adx if adx > 0.0 else math.nan
        seen.setdefault((keep, reach), set()).add(r)
        return lattice_ratio(a, dx, dy, keep, reach, **kwargs)

    search._lattice_ratio = spy
    frozen = workloads.load_frozen()
    for seed in FULLBOX_SEEDS:
        for p in workloads.triple_pool(seed, frozen, workloads.SCAN_TRIPLES):
            for n in workloads.SCAN_GRIDS:
                cfg = search.ScanConfig(workloads.FULL_BOX, n, workloads.SCAN_DEPTH)
                search.scan_gap_min(2.0, p, cfg)
    for seed in violation_matrix.SEEDS:
        pool = workloads.triple_pool(seed, frozen, workloads.ATLAS_POOL)
        for order in violation_matrix.ORDERS:
            for p in pool:
                search.find_violation(order, p)

    record = {
        f"{keep.hex()} {reach.hex()}": sorted(r.hex() for r in ratios)
        for (keep, reach), ratios in sorted(seen.items())
    }
    Path(args.out).write_text(json.dumps(record, indent=0) + "\n")
    print(f"{sum(map(len, record.values()))} ratios; wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
