#!/usr/bin/env python3
"""Record :func:`subadd.search.find_violation` and
:func:`subadd.certificate.certify_S2` over the ``atlas-sweep`` triple
pools, so two checkouts can be diffed, and compare two records.

Usage::

    python3 tools/violation_matrix.py SRC_DIR > before.txt   # e.g. an old checkout's src/
    python3 tools/violation_matrix.py src > after.txt
    python3 tools/violation_matrix.py --compare before.txt after.txt

The toolkit is imported from ``SRC_DIR``; the triples come from this
checkout's ``perfbench/workloads.triple_pool`` (each pool starts with
the six anchors), so both runs see the same inputs.

- Each case ``(seed, order, index)``, over the pools of seeds 101 and
  202, runs ``find_violation`` at the default window and prints one
  line, ``None`` or the confirmed margin and point as ``repr`` floats,
  so the files differ exactly where a finding or one of its bits does.
- Each case ``(seed, certify, index)``, over the pools of seeds 101 to
  505, runs ``certify_S2`` as an ``atlas-sweep`` operation does and
  prints the overall verdict and the five condition verdicts, or the
  type of the toolkit error it raised (``RangeError`` in the overflow
  band).

A run takes about 6 s on a 2-core Xeon VM, 0.2 s of it in the certificates.

``--compare`` reads two such records and prints whether they hold the
same hit cases; over the cases hit in both, how many margins of the
second are smaller than, equal to and larger than the first's (exact
float comparison); the largest relative margin change; the largest move
of the point (max-norm); and the certificate cases whose lines differ.
It exits 1 when the hit sets differ, a margin is smaller, or a
certificate line differs.
"""

from __future__ import annotations

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEEDS = (101, 202)
CERT_SEEDS = (101, 202, 303, 404, 505)
ORDERS = (1, 2, 3)
CERTIFY = "certify"


def record(src: str) -> int:
    sys.path[:0] = [str(Path(src).resolve()), str(ROOT / "perfbench")]
    import workloads
    from subadd import certificate, errors, search

    frozen = workloads.load_frozen()
    for seed in CERT_SEEDS:
        pool = workloads.triple_pool(seed, frozen, workloads.ATLAS_POOL)
        for index, p in enumerate(pool):
            try:
                report = certificate.certify_S2(p)
            except errors.ToolkitError as exc:
                found = type(exc).__name__
            else:
                found = " ".join(
                    [report.verdict.name]
                    + [f"{c.name}={c.verdict.name}" for c in report.conditions]
                )
            print(f"({seed}, {CERTIFY}, {index}) → {found}")
    for seed in SEEDS:
        pool = workloads.triple_pool(seed, frozen, workloads.ATLAS_POOL)
        for order in ORDERS:
            for index, p in enumerate(pool):
                v = search.find_violation(order, p)
                found = "None" if v is None else f"{v.margin!r}, {v.point.x!r}, {v.point.y!r}"
                print(f"({seed}, {order}, {index}) → {found}")
    return 0


def read(path: str) -> tuple:
    """``{case: None or (margin, x, y)}`` of one record's searches and
    ``{case: line}`` of its certificates."""
    cases, certs = {}, {}
    for line in Path(path).read_text(encoding="utf-8").splitlines():
        case, found = line.split(" → ")
        if f", {CERTIFY}, " in case:
            certs[case] = found
        elif found == "None":
            cases[case] = None
        else:
            cases[case] = tuple(map(float, found.split(", ")))
    return cases, certs


def compare(before_path: str, after_path: str) -> int:
    (before, certs_b), (after, certs_a) = read(before_path), read(after_path)
    if before.keys() != after.keys() or certs_b.keys() != certs_a.keys():
        print("the records hold different cases")
        return 1
    hits_b = {c for c, v in before.items() if v is not None}
    hits_a = {c for c, v in after.items() if v is not None}
    print(f"hit cases: {len(hits_b)} before, {len(hits_a)} after, "
          f"{'equal' if hits_b == hits_a else 'NOT equal'}")
    for what, cases in (("only before", hits_b - hits_a), ("only after", hits_a - hits_b)):
        if cases:
            print(f"  {what}: {', '.join(sorted(cases))}")
    smaller = equal = larger = 0
    rel = move = 0.0
    worst_rel = worst_move = None
    for case in sorted(hits_b & hits_a):
        (mb, xb, yb), (ma, xa, ya) = before[case], after[case]
        smaller += ma < mb
        equal += ma == mb
        larger += ma > mb
        r = abs(ma - mb) / abs(mb)
        d = max(abs(xa - xb), abs(ya - yb))
        if r > rel:
            rel, worst_rel = r, case
        if d > move:
            move, worst_move = d, case
    print(f"margins after vs before: {smaller} smaller, {equal} equal, {larger} larger")
    print(f"largest relative margin change: {rel:.3g}" + (f" at {worst_rel}" if worst_rel else ""))
    print(f"largest point move: {move:.3g}" + (f" at {worst_move}" if worst_move else ""))
    differ = sorted(c for c in certs_b if certs_b[c] != certs_a[c])
    raised = sum(" " not in found for found in certs_a.values())
    print(f"certificate cases: {len(certs_b)}, {len(differ)} differ; "
          f"{raised} raise after")
    for case in differ:
        print(f"  {case}: {certs_b[case]} → {certs_a[case]}")
    return 0 if hits_b == hits_a and smaller == 0 and not differ else 1


def main() -> int:
    if len(sys.argv) == 2 and not sys.argv[1].startswith("-"):
        return record(sys.argv[1])
    if len(sys.argv) == 4 and sys.argv[1] == "--compare":
        return compare(sys.argv[2], sys.argv[3])
    print(__doc__, file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main())
