#!/usr/bin/env python3
"""Record :func:`subadd.search.find_violation` over the ``atlas-sweep``
triple pools, so two checkouts can be diffed.

Usage::

    python3 tools/violation_matrix.py SRC_DIR > before.txt   # e.g. an old checkout's src/
    python3 tools/violation_matrix.py src > after.txt
    diff before.txt after.txt

The toolkit is imported from ``SRC_DIR``; the triples come from this
checkout's ``perfbench/workloads.triple_pool`` (the pools of seeds 101
and 202, which start with the six anchors), so both runs see the same
inputs.  Each case ``(seed, order, index)`` runs ``find_violation`` at
the default window and prints one line, ``None`` or the confirmed
margin and point as ``repr`` floats, so the files differ exactly where a
finding or one of its bits does.  A run takes about 7 s on a 2-core
Xeon VM.
"""

from __future__ import annotations

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEEDS = (101, 202)
ORDERS = (1, 2, 3)


def main() -> int:
    if len(sys.argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    sys.path[:0] = [str(Path(sys.argv[1]).resolve()), str(ROOT / "perfbench")]
    import workloads
    from subadd import search

    frozen = workloads.load_frozen()
    for seed in SEEDS:
        pool = workloads.triple_pool(seed, frozen, workloads.ATLAS_POOL)
        for order in ORDERS:
            for index, p in enumerate(pool):
                v = search.find_violation(order, p)
                found = "None" if v is None else f"{v.margin!r}, {v.point.x!r}, {v.point.y!r}"
                print(f"({seed}, {order}, {index}) → {found}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
