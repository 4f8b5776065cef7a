"""Deterministic grid scanning, the Newton polish, high-precision
confirmation, and the stored-table reproduction.

The last test cross-checks the certificate against the violation finder
over randomly drawn certified triples: every triple that a slope criterion
proves non-2-subadditive, the flagship among them, must yield a confirmed
violation.  See the README's "Known discrepancies".
"""

import json
import math
import random
import sys
import threading
import tracemalloc
from fractions import Fraction
from pathlib import Path

import mpmath
import numpy as np
import pytest

import _frozen
from subadd import search
from subadd.analytic_core import HighPrecision, Order, Params, Point, f_prime, gap
from subadd.certificate import Verdict, certify_S2
from subadd.errors import InputError
from subadd.search import (
    MAX_GRID_N,
    MAX_REFINE_DEPTH,
    ScanConfig,
    ScanReport,
    TableRow,
    Violation,
    find_violation,
    reproduce_table,
    scan_block,
    scan_gap_min,
    verify_point,
    violation_scan_config,
)

FULL_BOX = (-8.0, 8.0, -8.0, 8.0)


# ---------------------------------------------------------------------------
# configuration validation
# ---------------------------------------------------------------------------


def test_scan_config_validation():
    with pytest.raises(InputError):
        ScanConfig(box=(1.0, -1.0, 0.0, 1.0), grid_n=11, refine_depth=0)
    with pytest.raises(InputError):
        ScanConfig(box=(0.0, 1.0, 0.0, 1.0), grid_n=1, refine_depth=0)
    with pytest.raises(InputError):
        ScanConfig(box=(0.0, 1.0, 0.0, 1.0), grid_n=11, refine_depth=-1)
    with pytest.raises(TypeError, match="tolerance"):  # no threshold field
        ScanConfig(box=(0.0, 1.0, 0.0, 1.0), grid_n=11, refine_depth=0, tolerance=0.0)
    with pytest.raises(InputError):
        ScanConfig(box=(0.0, math.inf, 0.0, 1.0), grid_n=11, refine_depth=0)


def test_scan_config_rejects_grid_n_above_cap():
    box = (0.0, 1.0, 0.0, 1.0)
    assert ScanConfig(box=box, grid_n=MAX_GRID_N).grid_n == MAX_GRID_N
    for n in (MAX_GRID_N + 1, 1_000_000):
        with pytest.raises(InputError):
            ScanConfig(box=box, grid_n=n)
        with pytest.raises(InputError):
            violation_scan_config(Params(mu=1.2, sigma=0.05, alpha=0.05), grid_n=n)


def test_scan_config_rejects_refine_depth_above_cap():
    box = (0.0, 1.0, 0.0, 1.0)
    assert 20 <= MAX_REFINE_DEPTH < 308  # 10.0 ** level stays finite
    cfg = ScanConfig(box=box, grid_n=3, refine_depth=MAX_REFINE_DEPTH)
    assert cfg.refine_depth == MAX_REFINE_DEPTH
    assert scan_gap_min(2.0, Params(1.2, 0.05, 0.05), cfg).evaluations == 9 * (
        MAX_REFINE_DEPTH + 1
    )
    for depth in (MAX_REFINE_DEPTH + 1, 400):
        with pytest.raises(InputError, match="refine_depth"):
            ScanConfig(box=box, grid_n=3, refine_depth=depth)
        with pytest.raises(InputError, match="refine_depth"):
            violation_scan_config(Params(1.2, 0.05, 0.05), refine_depth=depth)


def test_scan_config_real_number_checks():
    box = (0.0, 1.0, 0.0, 1.0)
    for bad in (
        dict(box=(False, 1.0, 0.0, 1.0)),
        dict(box=("x", 1.0, 0.0, 1.0)),
        dict(box=(0.0, True, 0.0, 1.0)),
        dict(box=(0.0, 1.0, 0.0, "tight")),
    ):
        with pytest.raises(InputError, match="must be a real number"):
            ScanConfig(**bad)


def test_violation_window_refuses_sigma_below_float_resolution():
    # mu +- 10 sigma rounds to mu: the window would be empty.
    with pytest.raises(InputError, match="sigma=1e-200"):
        violation_scan_config(Params(mu=1.2, sigma=1e-200, alpha=0.05))


@pytest.mark.parametrize("grid_n", [0, 1, -3, "401", 2.5, True])
def test_violation_scan_config_validates_grid_n_first(cert_params, grid_n):
    """grid_n is checked before the window divides by it."""
    with pytest.raises(InputError, match="grid_n"):
        violation_scan_config(cert_params, grid_n=grid_n)


# ---------------------------------------------------------------------------
# determinism and bookkeeping
# ---------------------------------------------------------------------------


def test_scan_bitwise_deterministic(cert_params):
    cfg = ScanConfig(box=FULL_BOX, grid_n=201, refine_depth=2)
    one = scan_gap_min(2.0, cert_params, cfg)
    two = scan_gap_min(2.0, cert_params, cfg)
    assert one.min_gap == two.min_gap
    assert one.argmin == two.argmin
    assert one.evaluations == two.evaluations


def test_scan_evaluation_count(cert_params):
    for depth in (0, 1, 3):
        cfg = ScanConfig(box=(-1.0, 1.0, -1.0, 1.0), grid_n=51, refine_depth=depth)
        rep = scan_gap_min(2.0, cert_params, cfg)
        assert rep.evaluations == (depth + 1) * 51 * 51


def test_scan_survives_levels_shrunk_to_a_point(cert_params):
    """Deep levels are narrower than one ulp of their centre, so their
    steps round to 0 (here ``dy`` from level 17 on, ``dx`` at level 19).
    Level 20's box is level 19's point, so the scan stops after 20
    levels."""
    cfg = ScanConfig(box=FULL_BOX, grid_n=41, refine_depth=20)
    rep = scan_gap_min(2.0, cert_params, cfg)
    assert rep.evaluations == 20 * 41 * 41
    assert rep.min_gap == gap(2.0, "f", rep.argmin.x, rep.argmin.y, cert_params)


def test_scan_argmin_inside_box_and_value_reproducible(cert_params):
    from subadd.analytic_core import gap

    cfg = ScanConfig(box=FULL_BOX, grid_n=401, refine_depth=1)
    rep = scan_gap_min(2.0, cert_params, cfg)
    x_lo, x_hi, y_lo, y_hi = cfg.box
    assert x_lo <= rep.argmin.x <= x_hi
    assert y_lo <= rep.argmin.y <= y_hi
    # The reported minimum is the scalar gap re-evaluated at the argmin.
    assert rep.min_gap == gap(2.0, "f", rep.argmin.x, rep.argmin.y, cert_params)


def test_kernel_block_partition_equality(cert_params):
    """Scanning a grid in one block or as a 2x2 partition (combined by the
    documented (value, i, j) tie-break) gives identical results."""
    p = cert_params
    n = 101
    x0, dx = -2.0, 4.0 / (n - 1)
    y0, dy = -2.0, 4.0 / (n - 1)
    whole = scan_block(2.0, p.mu, p.sigma, p.alpha, x0, dx, y0, dy, 0, n, 0, n)
    parts = []
    half = n // 2
    for i0, i1 in ((0, half), (half, n)):
        for j0, j1 in ((0, half), (half, n)):
            parts.append(
                scan_block(2.0, p.mu, p.sigma, p.alpha, x0, dx, y0, dy, i0, i1, j0, j1)
            )
    best = min(parts, key=lambda t: (t[0], t[1], t[2]))
    assert best == whole


def test_kernel_empty_block(cert_params):
    p = cert_params
    out = scan_block(2.0, p.mu, p.sigma, p.alpha, 0.0, 0.1, 0.0, 0.1, 5, 5, 0, 10)
    assert out == (math.inf, -1, -1)


def test_mirror_box_bitwise_equality(cert_params):
    """The working function is even, so scanning a box and its mirror image
    visits pointwise-negated nodes and must find the bitwise-identical
    minimum.  Box endpoints and steps are exact dyadics so the mirrored
    grid nodes are exact negations."""
    n = 129  # 128 steps
    cfg_pos = ScanConfig(
        box=(0.0, 0.125, 0.875, 1.375), grid_n=n, refine_depth=0
    )  # dx = 2^-10, dy = 2^-8: exact
    cfg_neg = ScanConfig(box=(-0.125, 0.0, -1.375, -0.875), grid_n=n, refine_depth=0)
    rep_pos = scan_gap_min(2.0, cert_params, cfg_pos)
    rep_neg = scan_gap_min(2.0, cert_params, cfg_neg)
    assert rep_pos.min_gap == rep_neg.min_gap
    assert rep_pos.argmin.x == -rep_neg.argmin.x
    assert rep_pos.argmin.y == -rep_neg.argmin.y


# ---------------------------------------------------------------------------
# lattice kernel against a brute-force reference
# ---------------------------------------------------------------------------


def test_lattice_ratio_recognises_small_periods():
    """``dy/(a*dx) = l/m`` is recognised to a few ulps for small periods
    and refused when the period would exceed the kernel's; the snapping
    window picks the largest ratio below ``r``."""
    exact = lambda r: search._lattice_ratio(1.0, 1.0, r, 1.0 - search._RATIO_TOL)
    assert exact(1.0) == (1, 1)
    assert exact(0.5) == (2, 1)
    assert exact(0.5 * (1.0 - 2.0**-52)) == (2, 1)
    assert exact(1.0 / 2.5) == (5, 2)
    assert exact(1.0 / 3.0) == (3, 1)
    assert exact(5.0) == (1, 5)
    assert exact(8e6) is None and exact(1e-6 / 32.0) is None
    assert exact(math.pi) is None
    assert search._lattice_ratio(2.0, 0.1, 1.0025, 399 / 400) == (1, 5)
    assert search._lattice_ratio(2.0, 0.1, 1.0025, 799 / 800) is None
    # A level whose box has shrunk to a point has no lattice.
    assert search._lattice_ratio(2.0, 0.0, 0.1, 0.5) is None
    # Nor does a ratio near the largest double, where r * m overflows.
    assert exact(sys.float_info.max) is None and exact(1e307) is None
    assert search._lattice_ratio(2.0, 1e-3, 1e307, 0.5) is None


def _loop_lattice_ratio(
    a, dx, dy, keep, reach=search._RATIO_TOL, period=search._LATTICE_PERIOD
):
    """Reference: the former ``_lattice_ratio``, which tried every ``m``
    below ``period`` with ``l = floor(hi*m)`` in float64."""
    adx = a * dx
    r = dy / adx if adx > 0.0 else math.nan
    if not 0.0 < r < math.inf:
        return None
    best = None
    lo, hi = r * keep, min(r * (1.0 + reach), period)
    for m in range(1, period):
        l = min(math.floor(hi * m), period - m)
        if l >= 1 and l >= lo * m and (best is None or l * best[0] > best[1] * m):
            best = (m, l)
    return best


def _vector_lattice_ratios(r, keep, reach, period=search._LATTICE_PERIOD):
    """``_loop_lattice_ratio(1.0, 1.0, r[k], keep[k], reach[k], period)``
    for every ``k``, the loop over ``m`` vectorised with numpy: the same
    float64 products and ``floor``, the same bounds, and the first ``m``
    of the largest ``l/m`` (distinct ratios ``l/m`` with ``m`` below the
    period differ by far more than their float64 rounding)."""
    r, keep, reach = (np.asarray(v, dtype=np.float64)[:, None] for v in (r, keep, reach))
    m = np.arange(1, period, dtype=np.float64)
    with np.errstate(over="ignore", invalid="ignore"):
        lo, hi = r * keep, np.minimum(r * (1.0 + reach), period)
        # In place: the arrays are len(r) x (period - 1).
        l = np.floor(hi * m, out=hi * m)
        np.minimum(l, period - m, out=l)
        ratio = np.maximum(lo * m, 1.0, out=lo * m)
        ok = l >= ratio
        np.divide(l, m, out=ratio)
        ratio[~ok] = -1.0
    best = ratio.argmax(axis=1)
    rows = np.arange(len(best))
    found = (ratio[rows, best] > 0.0) & (0.0 < r[:, 0]) & (r[:, 0] < math.inf)
    ls = np.where(found, l[rows, best], 0.0).astype(np.int64)
    pairs = zip((best + 1).tolist(), ls.tolist())
    return [pair if hit else None for pair, hit in zip(pairs, found.tolist())]


_PERIODS = [search._LATTICE_PERIOD]


def _seeded_ratio_cases(count):
    """``(r, keep, reach)``: half log-uniform ratios, half within a few
    ulps of some ``l/m`` with ``m + l`` up to 140; ``keep`` is the
    kernel's or the snap's at ``grid_n`` 1601 or 801, ``reach`` the
    kernel's or the snap's."""
    rng = random.Random(20261019)
    keeps = [1.0 - search._RATIO_TOL, 1599 / 1600, 799 / 800]
    reaches = [search._RATIO_TOL, search._SNAP_REACH]
    cases = []
    for _ in range(count):
        if rng.random() < 0.5:
            r = math.exp(rng.uniform(-7.0, 7.0))
        else:
            m = rng.randint(1, 139)
            l = rng.randint(1, 140 - m)
            r = l / m * (1.0 + rng.randint(-8, 8) * 2.0**-52)
        cases.append((r, rng.choice(keeps), rng.choice(reaches)))
    return cases


@pytest.mark.parametrize("period", _PERIODS)
def test_lattice_ratio_walk_equals_the_loop_on_seeded_ratios(period):
    """The Stern–Brocot walk returns the loop's ``(m, l)`` at the kernel's
    period."""
    cases = _seeded_ratio_cases(100_000)
    for start in range(0, len(cases), 2_500):
        chunk = cases[start:start + 2_500]
        wants = _vector_lattice_ratios(*zip(*chunk), period=period)
        for (r, keep, reach), want in zip(chunk, wants):
            assert search._lattice_ratio(1.0, 1.0, r, keep, reach) == want, (
                r.hex(), keep, reach,
            )


@pytest.mark.parametrize("period", _PERIODS)
def test_lattice_ratio_walk_equals_the_loop_on_recorded_ratios(period):
    """Every ratio the ``fullbox-scan`` pools (seeds 1 to 20) and the
    ``tools/violation_matrix.py`` cases meet, as recorded at commit
    ``435dfab``, gets the loop's ``(m, l)``, and so does the vectorised
    loop that the seeded test takes as reference.  The fixture is kept as
    reference data: ``tools/scan_block_replay.py`` records other ratios
    since node placement snaps onto the lattices (``8ddd700``; see the
    tool's docstring)."""
    path = Path(__file__).with_name("lattice_ratios.json")
    record = json.loads(path.read_text())
    assert sum(map(len, record.values())) > 1000
    for key, ratios in record.items():
        keep, reach = map(float.fromhex, key.split())
        rs = list(map(float.fromhex, ratios))
        vector = _vector_lattice_ratios(rs, [keep] * len(rs), [reach] * len(rs), period)
        for r, vectorised in zip(rs, vector):
            want = _loop_lattice_ratio(1.0, 1.0, r, keep, reach, period)
            assert search._lattice_ratio(1.0, 1.0, r, keep, reach) == want
            assert vectorised == want, r.hex()


@pytest.mark.parametrize("period", _PERIODS)
@pytest.mark.parametrize(
    "r", [0.0, 5e-324, 1e-300, 1e308, sys.float_info.max, math.inf, math.nan]
)
def test_lattice_ratio_refuses_extreme_ratios(period, r):
    """Zero, subnormal, huge, infinite and NaN ratios have no lattice and
    raise nothing, whatever ``keep`` and ``reach``."""
    for keep, reach in [(1.0 - search._RATIO_TOL, search._RATIO_TOL), (0.5, 1.0)]:
        assert _loop_lattice_ratio(1.0, 1.0, r, keep, reach, period) is None
        assert _vector_lattice_ratios([r], [keep], [reach], period) == [None]
        assert search._lattice_ratio(1.0, 1.0, r, keep, reach) is None


def test_lattice_ratio_compares_exactly():
    """The walk compares ``l/m`` with ``hi``'s exact value.  The double
    nearest 1/3 lies below it, so with no reach 1/3 is refused; the loop
    took it, since ``hi*3`` rounds up to 1."""
    third = 1.0 / 3.0
    assert _loop_lattice_ratio(1.0, 1.0, third, 0.99, 0.0) == (3, 1)
    assert search._lattice_ratio(1.0, 1.0, third, 0.99, 0.0) is None
    got = search._lattice_ratio(1.0, 1.0, third, 0.9, 0.0)
    assert got is not None and Fraction(got[1], got[0]) < Fraction(third)
    # Where hi is exactly a short ratio, the walk lands on it.
    assert search._lattice_ratio(1.0, 1.0, 19 / 64, 0.99, 0.0) == (64, 19)
    for r in (0.5, 0.75, 3.0, 19 / 64, 1 / 128):
        want = _loop_lattice_ratio(1.0, 1.0, r, 0.99, 0.0)
        assert search._lattice_ratio(1.0, 1.0, r, 0.99, 0.0) == want


def _record_levels(monkeypatch):
    """Record the arguments of every kernel call ``scan_gap_min`` makes."""
    calls = []
    kernel = search.scan_block

    def spy(*args):
        out = kernel(*args)
        calls.append((args, out))
        return out

    monkeypatch.setattr(search, "scan_block", spy)
    return calls


def _brute_gaps(args, p):
    """The gap at every node ``(x0 + i*dx, y0 + j*dy)`` of one kernel
    call, evaluated one node at a time on the scalar path."""
    a, _, _, _, x0, dx, y0, dy, i0, i1, j0, j1 = args
    return {
        (i, j): gap(a, "f", x0 + i * dx, y0 + j * dy, p)
        for i in range(i0, i1)
        for j in range(j0, j1)
    }


#: (order, box): the full box at the orders whose lattice periods are
#: (m, l) = (1, 1), (2, 1), (5, 2) and (3, 1); a box whose minimum sits on
#: its top edge, so refined levels are clipped; the two extreme aspect
#: ratios, whose lattice would be longer than the grid; and the default
#: violation window (``None``) at orders 1 to 3.
_REFERENCE_CASES = [
    (1.0, FULL_BOX),
    (2.0, FULL_BOX),
    (2.5, FULL_BOX),
    (3.0, FULL_BOX),
    (2.0, (0.01, 0.04, 1.0, 1.13)),
    (2.0, (0.0, 1e-6, -8.0, 8.0)),
    (2.0, (-8.0, 8.0, 0.0, 1e-6)),
    (1.0, None),
    (2.0, None),
    (3.0, None),
]


@pytest.mark.parametrize("a, box", _REFERENCE_CASES)
def test_kernel_matches_brute_force(monkeypatch, cert_params, a, box):
    """On every refinement level the kernel's minimum, and the gap at its
    argmin, equal the directly evaluated node gaps to 1e-12."""
    calls = _record_levels(monkeypatch)
    if box is None:
        cfg = violation_scan_config(cert_params, grid_n=31, refine_depth=2)
    else:
        cfg = ScanConfig(box=box, grid_n=31, refine_depth=2)
    scan_gap_min(a, cert_params, cfg)
    assert len(calls) == 3
    for args, (value, bi, bj) in calls:
        gaps = _brute_gaps(args, cert_params)
        assert abs(value - min(gaps.values())) <= 1e-12
        assert abs(value - gaps[bi, bj]) <= 1e-12


#: Boxes where the plain step ``(hi - lo)/(n - 1)`` puts the last node one
#: rounding beyond ``hi`` (on one axis or the other), the clipped top-edge
#: box, and the violation window.
_INSIDE_CASES = [
    (2.0, (-0.25, 1.25, -0.9338064475556429, 1.0453500656034733), 32),
    (2.5, (-0.9338064475556429, 1.0453500656034733, -0.25, 1.25), 32),
    (3.0, (-5.035672578387038, -1.2875380992494443, -3.4942260758971404,
           0.2485942951196667), 43),
    (2.0, (0.01, 0.04, 1.0, 1.13), 31),
    (2.0, None, 41),
]


@pytest.mark.parametrize("a, box, n", _INSIDE_CASES)
def test_refined_scan_nodes_inside_box(monkeypatch, cert_params, a, box, n):
    """Every node of every level lies in the scanned box, and the y-nodes
    still reach to within one plain y-step of each level's top edge."""
    calls = _record_levels(monkeypatch)
    if box is None:
        cfg = violation_scan_config(cert_params, grid_n=n, refine_depth=3)
    else:
        cfg = ScanConfig(box=box, grid_n=n, refine_depth=3)
    rep = scan_gap_min(a, cert_params, cfg)
    x_lo, x_hi, y_lo, y_hi = cfg.box
    assert x_lo <= rep.argmin.x <= x_hi and y_lo <= rep.argmin.y <= y_hi
    idx = np.arange(n, dtype=np.float64)
    for level, (args, _) in enumerate(calls):
        _, _, _, _, x0, dx, y0, dy, _, _, _, _ = args
        xs, ys = x0 + idx * dx, y0 + idx * dy
        assert x_lo <= xs.min() and xs.max() <= x_hi
        assert y_lo <= ys.min() and ys.max() <= y_hi
        if level == 0:
            plain = (y_hi - y_lo) / (n - 1)
            assert dy <= plain and ys.max() >= y_hi - plain


def test_top_edge_box_clips_refined_levels(monkeypatch, cert_params):
    """The clipped-level cases above do clip: the minimum of this box is
    on its top edge, so refined boxes end at ``y_hi``."""
    calls = _record_levels(monkeypatch)
    box = (0.01, 0.04, 1.0, 1.13)
    rep = scan_gap_min(2.0, cert_params, ScanConfig(box=box, grid_n=31, refine_depth=2))
    assert rep.argmin.y > 1.129
    for args, _ in calls[1:]:
        _, _, _, _, _, _, y0, dy, _, _, _, _ = args
        assert y0 + 30 * dy > 1.129


@pytest.mark.parametrize(
    "a, box",
    [(2.5, FULL_BOX), (2.0, (0.0, 1e-6, -8.0, 8.0)), (1.0, (0.0, 0.1, 0.7, 1.7))],
)
def test_kernel_uneven_partition_equality(cert_params, a, box):
    """Blocks of uneven shape, taller than one row tile, combine to the
    whole-grid answer on the lattice and on the node path alike."""
    p = cert_params
    n = 157
    x0, y0 = box[0], box[2]
    dx, dy = (box[1] - box[0]) / (n - 1), (box[3] - box[2]) / (n - 1)
    args = (a, p.mu, p.sigma, p.alpha, x0, dx, y0, dy)
    whole = scan_block(*args, 0, n, 0, n)
    cuts_i, cuts_j = (0, 3, 70, 140, n), (0, 1, 90, n)
    parts = [
        scan_block(*args, i0, i1, j0, j1)
        for i0, i1 in zip(cuts_i, cuts_i[1:])
        for j0, j1 in zip(cuts_j, cuts_j[1:])
    ]
    assert min(parts) == whole


def test_kernel_skips_non_finite_gaps(cert_params):
    """Rows from ``x = 9e307`` on overflow to NaN gaps; a tile holding
    both kinds still yields the minimum of its finite part."""
    p = cert_params
    args = (2.0, p.mu, p.sigma, p.alpha, 0.0, 1e307, 0.0, 0.1)
    with np.errstate(all="ignore"):
        whole = scan_block(*args, 0, 30, 0, 10)
        assert scan_block(*args, 9, 30, 0, 10) == (math.inf, -1, -1)
        assert whole == scan_block(*args, 0, 9, 0, 10)
    assert math.isfinite(whole[0]) and whole[1] >= 0


def test_violation_window_scan_runs_on_the_lattice(monkeypatch):
    """The default violation window is ``k`` x-spans tall, so every level
    of its scan runs on the lattice, level 0 with ``dy/(a*dx) = k/a``, at
    orders 1 to 3.  With ``alpha = sigma``, as for the flagship, the
    refined boxes are not clipped or stay on a lattice when they are (a
    clipped level changes its aspect ratio and may leave the lattice).
    The fifth triple's level-2 box is not clipped, but the rounding of its
    edges leaves ``dy/(a*dx)`` about 1e-13 below ``k/a``.  The last has
    ``k = 95``, so its periods ``k + a`` are above 64."""
    calls = _record_levels(monkeypatch)
    triples = [(1.2, sigma, sigma) for sigma in (0.05, 0.03, 0.0731, 0.15)]
    triples.append((4.430756707065987, 0.03738979789817797, 0.10535597392288625))
    triples.append((4.828365624446715, 0.47028011464613806, 0.3468698910308188))
    for mu, sigma, alpha in triples:
        p = Params(mu=mu, sigma=sigma, alpha=alpha)
        cfg = violation_scan_config(p)
        k = math.ceil(200.0 * sigma * 401 / 400)
        for a in (1, 2, 3):
            calls.clear()
            scan_gap_min(a, p, cfg)
            assert len(calls) == cfg.refine_depth + 1
            ratios = [
                search._lattice_ratio(a, args[5], args[7], 1.0 - search._RATIO_TOL)
                for args, _ in calls
            ]
            g = math.gcd(k, a)
            assert ratios[0] == (a // g, k // g) and None not in ratios, (sigma, a)


def test_violation_scan_snaps_refined_levels_onto_the_kernel_lattice(monkeypatch):
    """The node placement snaps onto every period the kernel runs on.
    This triple's level-1 box at order 2 has ``dy/(a*dx) = 21.45``
    (429/20, a period of 449); no ratio with ``m + l <= 64`` lies within
    one y-step below it, but 107/5 does, so every level of the scan runs
    on the lattice."""
    calls = _record_levels(monkeypatch)
    p = Params(1.2168041952520823, 0.12643367597772254, 0.013861336259216993)
    assert find_violation(2, p) is None
    ratios = [
        search._lattice_ratio(2.0, args[5], args[7], 1.0 - search._RATIO_TOL)
        for args, _ in calls
    ]
    assert len(ratios) == violation_scan_config(p).refine_depth + 1
    assert ratios[1] == (5, 107) and None not in ratios, ratios


@pytest.mark.parametrize("box", [FULL_BOX, (0.0, 1e-6, -8.0, 8.0)])
def test_kernel_peak_memory_is_row_tiled(cert_params, box):
    """One 2001^2 kernel call allocates far less than one n^2 array
    (31 MB), on the lattice path and on the node path."""
    p = cert_params
    n = 2001
    dx, dy = (box[1] - box[0]) / (n - 1), (box[3] - box[2]) / (n - 1)
    tracemalloc.start()
    try:
        out = scan_block(
            2.0, p.mu, p.sigma, p.alpha, box[0], dx, box[2], dy, 0, n, 0, n
        )
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert out[1] >= 0
    assert peak < 32 * 2**20


def _recorded_calls():
    """``(args, result)`` of each call in ``scan_block_replay.json``, the
    arguments decoded, the result as recorded."""
    calls = json.loads(Path(__file__).with_name("scan_block_replay.json").read_text())
    for call in calls:
        args = tuple(float.fromhex(a) if isinstance(a, str) else a for a in call["args"])
        yield args, call["result"]


def test_long_lattice_level_holds_fs_and_chunk_sized_temporaries():
    """The first recorded call is the level of period 83 clipped at
    ``grid_n`` 1601: 132,801 lattice points.  With its layout built for
    the call, it allocates ``fs`` (1.0 MiB), the row-tile buffer (0.8
    MiB) and chunk-sized temporaries, less than 3 MiB; one pass over the
    whole lattice took 7.19 MiB.  Its result is the recorded one."""
    args, result = next(_recorded_calls())
    assert search._lattice_ratio(args[0], args[5], args[7], 1.0 - search._RATIO_TOL) == (64, 19)
    search._layouts.clear()
    tracemalloc.start()
    try:
        value, i, j = scan_block(*args)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert [value.hex(), i, j] == result
    assert peak < 3 * 2**20, peak


def _at_chunk(monkeypatch, chunk, run):
    """``run()`` with ``_LATTICE_CHUNK`` set to ``chunk``, and the layouts,
    which hold its groups, built anew."""
    monkeypatch.setattr(search, "_LATTICE_CHUNK", chunk)
    search._layouts.clear()
    try:
        return run()
    finally:
        search._layouts.clear()


def _period(args):
    """The lattice period ``m + l`` of a ``scan_block`` call, 0 on the
    node path."""
    ratio = search._lattice_ratio(args[0], args[5], args[7], 1.0 - search._RATIO_TOL)
    return sum(ratio or ())


def test_lattice_chunk_changes_no_bit(monkeypatch):
    """``fs``, the block bounds and the result of every recorded lattice
    call of period above 3 are the same, bit for bit, with the lattice in one
    chunk and in chunks of 2**10 points; so are the bounds of seeded
    random blocks (see ``_random_bound_inputs``) in one chunk and with
    every chunk of ``w`` its own group."""
    bounds, seen = search._block_bounds, []

    def spy(*args):
        lb = bounds(*args)
        seen.append(args[3].tobytes() + lb.tobytes())
        return lb

    monkeypatch.setattr(search, "_block_bounds", spy)
    calls = [(args, result) for args, result in _recorded_calls() if _period(args) > 3]

    def scans():
        seen.clear()
        results = [scan_block(*args) for args, _ in calls]
        return [[v.hex(), i, j] for v, i, j in results], list(seen)

    one_chunk = _at_chunk(monkeypatch, 2**30, scans)
    assert one_chunk == _at_chunk(monkeypatch, 2**10, scans)
    assert one_chunk[0] == [result for _, result in calls]
    assert len(seen) == len(calls) > 10

    rng = random.Random(20261021)
    with np.errstate(over="ignore", invalid="ignore"):
        blocks = [_random_bound_inputs(rng)[:5] for _ in range(60)]

        def block_bounds():
            return [bounds(np, *block).tobytes() for block in blocks]

        assert _at_chunk(monkeypatch, 2**30, block_bounds) == _at_chunk(
            monkeypatch, 1, block_bounds
        )


def test_clipped_level_runs_on_a_longer_lattice(monkeypatch):
    """At ``grid_n`` 1601 the anchor ``(5.0, 0.15, TABLE_ALPHA)``'s level-1
    box is clipped at ``y = -8``, with ``dy/(a*dx) = 19/64``, a period of
    83.  Every level evaluates ``f`` at no more than about
    ``(_LATTICE_PERIOD + 2)*n`` points, where the node path would take
    ``n**2``; that one at its ``2*n`` nodes and the ``83*(n - 1) + 1``
    points of its lattice.  The report is the one the node path gave, bit
    for bit."""
    n = 1601
    counts = []
    evaluator = search._evaluator

    def counting(lib, fn, *params):
        f = evaluator(lib, fn, *params)
        counts.append(0)

        def counted(t):
            counts[-1] += np.size(t)
            return f(t)

        return counted

    monkeypatch.setattr(search, "_evaluator", counting)
    p = Params(5.0, 0.15, search.TABLE_ALPHA)
    rep = scan_gap_min(2.0, p, ScanConfig(box=FULL_BOX, grid_n=n, refine_depth=3))
    assert len(counts) == 4
    assert max(counts) <= (search._LATTICE_PERIOD + 2) * n, counts
    assert counts[1] == 2 * n + 83 * (n - 1) + 1, counts
    got = (rep.min_gap.hex(), rep.argmin.x.hex(), rep.argmin.y.hex(), rep.evaluations)
    assert got == ("0x0.0p+0", "0x0.0p+0", "-0x1.f666666666666p+2", 4 * n * n)


def _broadcast_add_scan_block(a, mu, sigma, alpha, x0, dx, y0, dy, i0, i1, j0, j1):
    """Reference kernel: the nodes, lattice, row tiles and tie-break of
    ``scan_block``, with both outer sums taken by numpy's broadcast
    ``np.add``, scanning every node in row order.  Returns ``(value, i,
    j)``, whether any gap of the block was NaN or infinite, and how many
    row tiles hold a node of the minimum value."""
    if i1 <= i0 or j1 <= j0:
        return (math.inf, -1, -1), False, 0
    with np.errstate(over="ignore", invalid="ignore"):
        f = search._evaluator(np, "f", mu, sigma, alpha)
        ni, nj = i1 - i0, j1 - j0
        xs = x0 + np.arange(i0, i1, dtype=np.float64) * dx
        ys = y0 + np.arange(j0, j1, dtype=np.float64) * dy
        afx, fy = a * f(xs), f(ys)
        ratio = search._lattice_ratio(a, dx, dy, 1.0 - search._RATIO_TOL)
        if ratio is not None:
            m, l = ratio
            ks = np.arange(m * i0 + l * j0, m * (i1 - 1) + l * (j1 - 1) + 1.0)
            fs = f((a * x0 + y0) + ks * (a * dx / m))
            node_k = m * np.arange(ni)[:, None] + l * np.arange(nj)[None, :]
        best, non_finite, tile_minima = (math.inf, -1, -1), False, []
        for r0 in range(0, ni, search._BLOCK_ROWS):
            r1 = min(ni, r0 + search._BLOCK_ROWS)
            if ratio is not None:
                fs_b = fs[node_k[r0:r1]]
            else:
                fs_b = f(np.add(a * xs[r0:r1, None], ys[None, :]))
            gaps = np.add(afx[r0:r1, None], fy[None, :]) - fs_b
            finite = np.isfinite(gaps)
            non_finite |= not finite.all()
            gaps[~finite] = np.inf
            flat = int(np.argmin(gaps))
            value = float(gaps.flat[flat])
            tile_minima.append(value)
            if value < best[0]:
                bi, bj = divmod(flat, nj)
                best = (value, i0 + r0 + bi, j0 + bj)
    return best, non_finite, tile_minima.count(best[0]) if best[1] >= 0 else 0


def _random_kernel_block(rng):
    """Arguments of one seeded ``scan_block`` call: a lattice ratio or a
    random one; row counts around the 64-row tile, single rows and
    columns; now and then a tiny ``sigma`` or nodes near the float
    range, where gaps overflow to inf and NaN.  A share of the lattice
    ratios have periods ``m + l`` of 65 to 128, which the kernel runs on
    its longer lattices, and some have periods above 128, which take the
    node path."""
    a = rng.choice([1.0, 2.0, 2.5, 3.0, rng.uniform(0.2, 4.0)])
    mu = rng.uniform(0.3, 10.0)
    if rng.random() < 0.15:
        sigma = 10.0 ** -rng.uniform(150.0, 300.0)
    else:
        sigma = mu * rng.uniform(0.01, 0.5)
    alpha = sigma * rng.uniform(0.03, 3.0)
    scale = 1e307 if rng.random() < 0.15 else 1.0
    dx = 2.0 ** -rng.randint(2, 8) * scale
    # A node on x = 0 in some blocks, where the gap is exactly zero.
    if rng.random() < 0.5:
        x0 = -rng.randint(0, 60) * dx
    else:
        x0 = rng.uniform(-8.0, 8.0) * scale
    # Some blocks span several row tiles and 512 or more columns; most of
    # their lattices are short, as in the full-box scans that prune most.
    wide = rng.random() < 0.25
    kind = rng.random()
    if kind < 0.5:
        m = rng.randint(1, 10)
        dy = a * dx * rng.randint(1, 4 if wide else 64 - m) / m
    elif kind < 0.75:
        period = rng.randint(65, 128) if rng.random() < 0.7 else rng.randint(129, 200)
        m = rng.randint(1, period - 1)
        while math.gcd(m, period) != 1:
            m = rng.randint(1, period - 1)
        dy = a * dx * (period - m) / m
    else:
        dy = rng.uniform(0.001, 0.3) * scale
    # A node on y = 0 in some blocks: at order 1 the gap is zero there too,
    # in every row tile.
    if rng.random() < 0.25:
        y0 = -rng.randint(0, 60) * dy
    else:
        y0 = rng.uniform(-8.0, 8.0) * scale
    if wide:
        ni, nj = rng.randint(65, 400), rng.randint(512, 1200)
    else:
        ni = rng.choice([1, 2, 63, 64, 65, 129, rng.randint(1, 140)])
        nj = rng.choice([1, 2, 3, rng.randint(1, 300)])
    i0, j0 = rng.randint(0, 100), rng.randint(0, 100)
    return (a, mu, sigma, alpha, x0, dx, y0, dy, i0, i0 + ni, j0, j0 + nj)


def test_kernel_outer_sum_is_the_broadcast_add(monkeypatch):
    """``scan_block`` forms its outer sums as a rank-2 matrix product and
    skips the blocks its bounds rule out; on seeded random blocks, both
    paths, 1-row tail tiles, single rows and columns, overflowing gaps,
    skipped tiles and blocks (in narrow lattice blocks of at most 300
    columns too), and minima tied across row tiles, it returns the
    reference's ``(value, i, j)`` exactly, the sign of ``value``
    included."""
    computed = []  # entries of each kernel outer-sum product
    np_matmul = np.matmul

    def matmul(lhs, rhs, out):
        computed.append(out.size)
        return np_matmul(lhs, rhs, out=out)

    rng = random.Random(20261018)
    seen = dict.fromkeys(
        ("lattice", "node", "period 65 to 128", "period above 128",
         "non-finite", "none finite", "zero", "skipped", "narrow lattice",
         "narrow skipped", "tied across tiles"),
        0,
    )
    for _ in range(500):
        args = _random_kernel_block(rng)
        computed.clear()
        with monkeypatch.context() as patch:
            patch.setattr(np, "matmul", matmul)
            got = scan_block(*args)
        want, non_finite, tiles_at_min = _broadcast_add_scan_block(*args)
        assert got == want, args
        assert math.copysign(1.0, got[0]) == math.copysign(1.0, want[0]), args
        assert tuple(map(type, got)) == (float, int, int), args
        a, dx, dy = args[0], args[5], args[7]
        tol = 1.0 - search._RATIO_TOL
        lattice = search._lattice_ratio(a, dx, dy, tol)
        seen["lattice" if lattice else "node"] += 1
        seen["period 65 to 128"] += bool(lattice) and sum(lattice) > 64
        longer = _loop_lattice_ratio(a, dx, dy, tol, period=256)
        seen["period above 128"] += not lattice and bool(longer)
        seen["non-finite"] += non_finite
        seen["none finite"] += want[1] < 0
        seen["zero"] += want[0] == 0.0
        # The lattice path forms one product per tile it evaluates.
        nodes = (args[9] - args[8]) * (args[11] - args[10])
        skipped = bool(lattice) and sum(computed) < nodes
        narrow = bool(lattice) and args[11] - args[10] < 512
        seen["skipped"] += skipped
        seen["narrow lattice"] += narrow
        seen["narrow skipped"] += narrow and skipped
        seen["tied across tiles"] += tiles_at_min > 1
    assert min(seen.values()) >= 10, seen


@pytest.mark.parametrize("nan_row", [None, 1])
def test_bounded_loop_keeps_blocks_whose_bound_is_not_above_the_minimum(
    monkeypatch, nan_row
):
    """A synthetic ``f`` with exact gaps ``f(x_i) + f(y_j) - f(x_i + y_j)``
    in {0, 1} on a 192 x 512 lattice block.  Row 0 holds the first
    minimiser, where each block's bound is the minimum 0 less the bound's
    margin, or NaN when row ``nan_row`` is NaN; row 128's tile holds the
    minimum too, and the loose bound of -1 on its last block makes that
    block the seed evaluated first (unless a NaN bound comes first, as
    ``np.argmin`` returns the first NaN); the middle tile's bound of 1
    skips it.  The kernel must still return row 0."""
    y0 = 10_000.0

    def f(t):
        out = np.where(t < y0, 1.0, 0.0)
        out[(t == 0.0) | (t == 128.0)] = 0.0
        if nan_row is not None:
            out[t == nan_row] = math.nan
        out[t == y0 + 641.0] = 1.0  # f(x_i + y_j) at i + j = 641
        return out

    monkeypatch.setattr(search, "_evaluator", lambda lib, fn, *params: f)
    args = (1.0, 0.0, 0.0, 0.0, 0.0, 1.0, y0, 1.0, 0, 192, 0, 512)
    want, _, tiles_at_min = _broadcast_add_scan_block(*args)
    assert want == (0.0, 0, 0) and tiles_at_min == 2
    assert scan_block(*args) == want


def _range_bounds(np, u, v, fs, m, l):
    """The plain range bound ``(min u + min v) - max fs`` of every tile x
    block, which equals the block's minimum where it is attained."""
    size = search._BLOCK_ROWS
    out = np.empty((-(-u.size // size), -(-v.size // size)))
    for t, r0 in enumerate(range(0, u.size, size)):
        for b, c0 in enumerate(range(0, v.size, size)):
            r1, c1 = min(u.size, r0 + size), min(v.size, c0 + size)
            top = fs[m * r0 + l * c0 : m * (r1 - 1) + l * (c1 - 1) + 1].max()
            out[t, b] = (u[r0:r1].min() + v[c0:c1].min()) - top
    return out


@pytest.mark.parametrize("nan_row", [None, 1])
def test_bounded_loop_keeps_blocks_whose_bound_equals_the_minimum(monkeypatch, nan_row):
    """The synthetic ``f`` of the test above, with the block bounds
    replaced by the plain range bound: each block of row 0's tile then has
    a bound of exactly the minimum 0 (or NaN), row 128's tile a bound of
    -1, which makes one of its blocks the seed evaluated first (unless a
    NaN bound comes first), and the middle tile a bound of 1.  The loop
    must keep the blocks whose bound equals the running minimum, and
    return row 0."""
    y0 = 10_000.0

    def f(t):
        out = np.where(t < y0, 1.0, 0.0)
        out[(t == 0.0) | (t == 128.0)] = 0.0
        if nan_row is not None:
            out[t == nan_row] = math.nan
        out[t == y0 + 641.0] = 1.0
        return out

    monkeypatch.setattr(search, "_evaluator", lambda lib, fn, *params: f)
    monkeypatch.setattr(search, "_block_bounds", _range_bounds)
    args = (1.0, 0.0, 0.0, 0.0, 0.0, 1.0, y0, 1.0, 0, 192, 0, 512)
    u = f(np.arange(192.0))
    v = f(y0 + np.arange(512.0))
    fs = f(y0 + np.arange(191.0 + 512))
    lows = _range_bounds(np, u, v, fs, 1, 1).min(axis=1)
    assert lows[1:].tolist() == [1.0, -1.0]
    assert math.isnan(lows[0]) if nan_row else lows[0] == 0.0
    assert scan_block(*args) == (0.0, 0, 0)


def _random_bound_inputs(rng):
    """``(u, v, fs, m, l)`` of one block, as ``scan_block`` builds them
    from a random lattice of period ``m + l`` in 2 to 128: from the smooth
    working function or a step function, over 1 to 200 rows and 1 to 300
    columns, so that edge tiles and blocks are partial; now and then with
    NaN or +-inf entries, scaled to near the float range or into the
    subnormals, or with every ``v`` the same.  The last item says whether
    the inputs are the working function's, unscaled."""
    period = rng.choice([2, 3, 4, 5, rng.randint(6, 64), rng.randint(65, 128)])
    m = rng.randint(1, period - 1)
    while math.gcd(m, period) != 1:
        m = rng.randint(1, period - 1)
    l = period - m
    ni, nj = rng.randint(1, 200), rng.randint(1, 300)
    a = rng.choice([1.0, 2.0, 3.0, rng.uniform(0.2, 4.0)])
    dx = rng.uniform(1e-5, 0.05)
    x0, y0 = rng.uniform(-8.0, 8.0), rng.uniform(-8.0, 8.0)
    xs = x0 + np.arange(ni) * dx
    ys = y0 + np.arange(nj) * (a * dx * l / m)
    ss = (a * x0 + y0) + np.arange(m * (ni - 1) + l * (nj - 1) + 1) * (a * dx / m)
    smooth = rng.random() < 0.7
    if smooth:
        mu = rng.uniform(0.3, 5.0)
        sigma = mu * rng.uniform(0.01, 0.5)
        f = search._evaluator(np, "f", mu, sigma, sigma * rng.uniform(0.03, 3.0))
    else:
        steps = rng.uniform(0.5, 50.0)
        f = lambda t: np.floor(steps * t) % 3.0  # noqa: E731
    u, v, fs = a * f(xs), f(ys), f(ss)
    if rng.random() < 0.1:
        v[:] = v[0]
    scale = rng.random()
    if scale < 0.1:
        u, v, fs = u * 1e306, v * 1e306, fs * 1e306
    elif scale < 0.2:
        u, v, fs = u * 2.0**-1070, v * 2.0**-1070, fs * 2.0**-1070
    for w in (u, v, fs):
        if rng.random() < 0.1:
            w[rng.randrange(w.size)] = rng.choice([math.nan, math.inf, -math.inf])
    return u, v, fs, m, l, smooth and scale >= 0.2


def test_block_bounds_are_below_every_gap_of_their_block():
    """On seeded random blocks (see ``_random_bound_inputs``), no gap
    ``fl(fl(u_i + v_j) - fs_k)`` of a tile x block lies below the block's
    bound, and a block with a NaN input has a NaN bound, which the loop
    never prunes.  On more than 80% of the blocks of the unscaled working
    function with more than one row and column (91% here), the bound is
    above the plain range bound."""
    rng = random.Random(20261019)
    seen = dict.fromkeys(
        ("NaN bound", "infinite input", "edge tile", "edge block",
         "period 65 to 128", "huge", "subnormal", "tighter"),
        0,
    )
    smooth_blocks = 0
    for _ in range(400):
        u, v, fs, m, l, smooth = _random_bound_inputs(rng)
        with np.errstate(over="ignore", invalid="ignore"):
            lb = search._block_bounds(np, u, v, fs, m, l)
            k = m * np.arange(u.size)[:, None] + l * np.arange(v.size)
            gaps = (u[:, None] + v[None, :]) - fs[k]
            plain = _range_bounds(np, u, v, fs, m, l)
        assert lb.shape == plain.shape
        big = np.abs(np.concatenate((u, v, fs)))
        seen["period 65 to 128"] += m + l > 64
        seen["huge"] += bool(np.nanmax(big) > 1e300)
        seen["subnormal"] += bool(0.0 < np.nanmax(big) < 2.0**-1022)
        size = search._BLOCK_ROWS
        for t, r0 in enumerate(range(0, u.size, size)):
            for b, c0 in enumerate(range(0, v.size, size)):
                r1, c1 = min(u.size, r0 + size), min(v.size, c0 + size)
                block = gaps[r0:r1, c0:c1]
                lattice = fs[m * r0 + l * c0 : m * (r1 - 1) + l * (c1 - 1) + 1]
                inputs = np.concatenate((u[r0:r1], v[c0:c1], lattice))
                assert not (block < lb[t, b]).any(), (m, l, t, b)
                if np.isnan(inputs).any():
                    assert math.isnan(lb[t, b])
                seen["NaN bound"] += math.isnan(lb[t, b])
                seen["infinite input"] += bool(np.isinf(inputs).any())
                seen["edge tile"] += r1 - r0 < size
                seen["edge block"] += c1 - c0 < size
                if smooth and r1 - r0 > 1 and c1 - c0 > 1 and np.isfinite(inputs).all():
                    smooth_blocks += 1
                    seen["tighter"] += bool(lb[t, b] > plain[t, b])
    assert min(seen.values()) >= 10, seen
    assert seen["tighter"] > 0.8 * smooth_blocks, (seen, smooth_blocks)


@pytest.mark.parametrize("m, l", [(2, 1), (3, 4), (19, 64), (37, 64), (1, 127)])
def test_block_bounds_reach_the_last_lattice_point_of_every_block(m, l):
    """``u = v = 0`` and ``fs`` 0 but for a 1 at the last lattice point of
    one block, the node of its last row and column, where its minimum gap
    -1 lies: for each block in turn, its bound must be at most -1."""
    ni, nj = 300, 700
    u, v = np.zeros(ni), np.zeros(nj)
    rows = np.minimum(np.arange(0, ni, 64) + 63, ni - 1)
    cols = np.minimum(np.arange(0, nj, 64) + 63, nj - 1)
    for t, r in enumerate(rows):
        for b, c in enumerate(cols):
            fs = np.zeros(m * (ni - 1) + l * (nj - 1) + 1)
            fs[m * r + l * c] = 1.0
            assert search._block_bounds(np, u, v, fs, m, l)[t, b] <= -1.0, (t, b)


def test_block_bounds_are_the_same_with_a_cold_and_a_warm_layout_cache():
    """``_block_bounds`` returns the same array, bit for bit (NaN
    included), whether its shape's layout is built for the call or taken
    from the cache, also after other shapes have used the cache."""
    rng = random.Random(20261020)
    with np.errstate(over="ignore", invalid="ignore"):
        inputs = [_random_bound_inputs(rng)[:5] for _ in range(60)]
        cold = []
        for u, v, fs, m, l in inputs:
            search._layouts.clear()
            cold.append(search._block_bounds(np, u, v, fs, m, l))
            [cached] = search._layouts.values()
            warm = search._block_bounds(np, u, v, fs, m, l)
            assert list(search._layouts.values()) == [cached]
            assert warm.tobytes() == cold[-1].tobytes()
        # Again, each shape's layout cached among the others.
        for (u, v, fs, m, l), want in zip(inputs, cold):
            got = search._block_bounds(np, u, v, fs, m, l)
            assert got.shape == want.shape and got.tobytes() == want.tobytes()


def test_layout_cache_holds_at_most_its_byte_cap(monkeypatch):
    """Under a cap of four layouts' bytes, scans of eight grid shapes keep
    at most the cap cached, the latest shapes, and a repeated shape is a
    hit.  The default cap holds the largest layout, period 128 at
    ``MAX_GRID_N``, so that its scan's levels share it."""
    assert search._build_layout(MAX_GRID_N, MAX_GRID_N, 1, 127)[1] <= search._LAYOUT_BYTES
    cap = 4 * search._build_layout(64, 512, 2, 1)[1]
    monkeypatch.setattr(search, "_LAYOUT_BYTES", cap)
    search._layouts.clear()
    build, built = search._build_layout, []

    def spy(*shape):
        built.append(shape)
        return build(*shape)

    monkeypatch.setattr(search, "_build_layout", spy)
    dx = 16.0 / 800
    for k in range(8):
        # Order 2 with dy = dx: the lattice (2, 1).
        args = (2.0, 1.2, 0.05, 0.05, -8.0, dx, -8.0, dx, 0, 64 + k, 0, 512 + k)
        assert scan_block(*args) == scan_block(*args)
        assert built == [(64 + i, 512 + i, 2, 1) for i in range(k + 1)]
        assert sum(size for _, size in search._layouts.values()) <= cap
        assert list(search._layouts)[-1] == built[-1]
    assert 1 < len(search._layouts) < 8
    search._layouts.clear()


def test_a_layout_above_the_cap_is_correct_and_read_only(monkeypatch):
    """A layout of more bytes than the cap is built, used and dropped: the
    cache stays empty, the bounds equal those of a cached layout, bit for
    bit, and the layout cannot be written."""
    rng = random.Random(20261022)
    with np.errstate(over="ignore", invalid="ignore"):
        u, v, fs, m, l = _random_bound_inputs(rng)[:5]
        search._layouts.clear()
        want = search._block_bounds(np, u, v, fs, m, l).tobytes()
        monkeypatch.setattr(search, "_LAYOUT_BYTES", 100)
        assert search._block_bounds(np, u, v, fs, m, l).tobytes() == want
    assert not search._layouts
    layout = search._bound_layout(130, 600, 3, 5)
    assert not search._layouts
    for a in layout[1:]:
        assert not a.flags.writeable


def test_layout_cache_serves_threads(monkeypatch):
    """Six threads look up twelve shapes under a cap of about four layouts,
    with a short switch interval: no lookup raises or returns another
    shape's layout, and the cache ends within its cap.  An eviction loop
    that iterates over the live cache raised in 4 of 6 runs of this test."""
    shapes = [(64 + k, 70 + 3 * k, 2, 1) for k in range(12)]
    tiles = {shape: search._build_layout(*shape)[0][0] for shape in shapes}
    monkeypatch.setattr(search, "_LAYOUT_BYTES", 4 * search._build_layout(*shapes[-1])[1])
    search._layouts.clear()
    errors = []

    def lookups(seed):
        rng = random.Random(seed)
        try:
            for _ in range(600):
                shape = rng.choice(shapes)
                assert search._bound_layout(*shape)[0] == tiles[shape]
        except Exception as exc:  # reported by the main thread
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=lookups, args=(seed,)) for seed in range(6)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert errors == []
    assert sum(size for _, size in search._layouts.values()) <= search._LAYOUT_BYTES
    search._layouts.clear()


def test_cached_layouts_are_read_only():
    """No array of a cached layout can be written, so that no caller can
    change the bounds of a later scan through one."""
    search._layouts.clear()
    layout = search._bound_layout(130, 600, 3, 5)
    arrays = [a for a in layout if isinstance(a, np.ndarray)]
    assert len(arrays) == len(layout) - 1
    for a in arrays:
        assert not a.flags.writeable
        with pytest.raises(ValueError):
            a.flat[0] = 0
    assert search._bound_layout(130, 600, 3, 5) is layout


def test_find_violation_bounds_every_lattice_level(monkeypatch):
    """At the flagship, each of the violation window's three levels runs on
    the lattice path and computes its block bounds once."""
    kernel, bounds, calls = search.scan_block, search._block_bounds, []

    def spy_kernel(*args):
        calls.append(_period(args))
        return kernel(*args)

    def spy_bounds(*args):
        calls.append("bounds")
        return bounds(*args)

    monkeypatch.setattr(search, "scan_block", spy_kernel)
    monkeypatch.setattr(search, "_block_bounds", spy_bounds)
    assert find_violation(2.0, Params(1.2, 0.05, 0.05)) is not None
    assert len(calls) == 6 and calls[1::2] == ["bounds"] * 3, calls
    assert all(period > 0 for period in calls[::2]), calls


@pytest.mark.parametrize(
    "box, n, depth, most",
    [(None, 401, 2, 135_424), (FULL_BOX, 801, 3, 254_080)],
    ids=["violation-window", "fullbox-801"],
)
def test_bounded_scans_compute_no_more_nodes_than_recorded(monkeypatch, box, n, depth, most):
    """The block bounds' pruning does not weaken.  A spy on
    ``numpy.matmul``, which the kernel calls with ``out=`` for every
    outer-sum product (``tools/ab_bench.py`` counts ``computed_share``
    the same way), counts the nodes two flagship scans at order 2
    compute: its default violation window (3 levels of 401**2 nodes) and
    the full box at ``grid_n`` 801, depth 3 (4 levels).  Each count is at
    most the one recorded with this test, 135,424 of 482,403 and 254,080
    of 2,566,404 nodes, and above zero, so that the products still take
    that route."""
    computed, np_matmul = [], np.matmul

    def matmul(lhs, rhs, out):
        computed.append(out.size)
        return np_matmul(lhs, rhs, out=out)

    p = Params(1.2, 0.05, 0.05)
    if box is None:
        cfg = violation_scan_config(p, grid_n=n, refine_depth=depth)
    else:
        cfg = ScanConfig(box=box, grid_n=n, refine_depth=depth)
    monkeypatch.setattr(np, "matmul", matmul)
    report = scan_gap_min(2.0, p, cfg)
    assert report.evaluations == (depth + 1) * n * n
    assert 0 < sum(computed) <= most, sum(computed)


def test_kernel_replays_recorded_calls_bit_for_bit():
    """A seeded sample of the ``scan_block`` calls that
    ``tools/scan_block_replay.py`` recorded at commit ``514d316`` (a fresh
    record samples other calls since node placement snaps onto the
    lattices; see the tool's docstring) from the ``fullbox-scan`` pools
    (seeds 1 to 20), the ``atlas-sweep`` pools and the
    ``tools/violation_matrix.py`` cases: every call on the node path,
    every call of 512 columns or more on a lattice of period above 3, and
    draws of the others.  Each returns its recorded ``(value, i, j)``,
    compared as ``float.hex``, so the sign of a zero counts.  Every
    lattice call is bounded."""
    calls = list(_recorded_calls())
    bounded = 0
    for args, result in calls:
        value, i, j = scan_block(*args)
        assert [value.hex(), i, j] == result, args
        bounded += _period(args) > 0
    assert len(calls) > 250 and bounded > 150, (len(calls), bounded)


# ---------------------------------------------------------------------------
# frozen scan minima
# ---------------------------------------------------------------------------


def test_full_box_scan_hits_frozen_bracket(cert_params):
    cfg = ScanConfig(box=FULL_BOX, grid_n=801, refine_depth=2)
    rep = scan_gap_min(2.0, cert_params, cfg)
    lo, hi = _frozen.SCAN2_CERT_MIN_BRACKET
    assert lo <= rep.min_gap <= hi


# ---------------------------------------------------------------------------
# violation hunting
# ---------------------------------------------------------------------------


def test_violation_window_shape():
    """``x`` in ``[0.1/n, 0.1]``; ``y`` centred on ``mu``, covering ``mu
    +- 10 sigma``, less than 0.1 taller than ``20 sigma`` and an integer
    number ``k = ceil(200*sigma*n/(n-1))`` of x-spans tall.  The last two
    ``sigma`` make ``k`` exact at ``n`` = 41 and 2, where ``k`` x-spans
    round to just under ``20 sigma``."""
    for n in (401, 41, 2):
        for sigma in (0.05, 0.03, 0.0731, 0.15, 0.3, 1e-9, 7.0, 35 * 40 / 8200, 0.2025):
            p = Params(mu=1.2, sigma=sigma, alpha=0.05)
            x_lo, x_hi, y_lo, y_hi = violation_scan_config(p, grid_n=n).box
            assert x_lo == 0.1 / n and x_hi == 0.1
            assert y_lo <= p.mu - 10.0 * sigma and y_hi >= p.mu + 10.0 * sigma
            assert (y_hi - y_lo) - 20.0 * sigma < 0.1
            assert abs((y_lo + y_hi) / 2.0 - p.mu) <= 1e-15 * (y_hi - y_lo) + 4e-16
            k = math.ceil(200.0 * sigma * n / (n - 1))
            assert abs((y_hi - y_lo) / (x_hi - x_lo) - k) <= 1e-12 * k


@pytest.mark.parametrize("a", [1, 2, 3])
def test_find_violation_matches_frozen(cert_params, a):
    v = find_violation(a, cert_params)
    assert isinstance(v, Violation)
    lo, hi = _frozen.VIOLATION_MARGIN_BRACKETS[a]
    assert lo <= v.margin <= hi
    hx, hy = _frozen.VIOLATION_POINT_HINTS[a]
    assert abs(v.point.x - hx) < 5e-3
    assert abs(v.point.y - hy) < 5e-3
    assert v.order.a == float(a)
    assert v.params == cert_params


def test_violation_soundness(cert_params):
    """A returned violation is confirmed: the float64 gap at the reported
    point is negative and matches -margin to 1e-9 relative."""
    from subadd.analytic_core import gap

    for a in (1, 2, 3):
        v = find_violation(a, cert_params)
        coarse = gap(a, "f", v.point.x, v.point.y, cert_params)
        assert coarse < 0.0
        assert abs(coarse + v.margin) <= 1e-9 * max(1.0, v.margin)
        assert verify_point(a, cert_params, v.point.x, v.point.y) == v.margin


def test_search_reaches_layers_through_module_attributes(monkeypatch, cert_params):
    """find_violation and verify_point look up search.scan_block, search.gap
    and search.HighPrecision when called, so rebinding those attributes
    (as the traced benchmark run does) sees every call.  search.gap runs
    once per search, the scan's re-evaluation at its argmin: the polish
    evaluates the gap through analytic_core's unvalidated tree."""
    calls = {"scan_block": 0, "HighPrecision": 0, "hp_gap": 0}
    probes = []  # (x, y) of every search.gap call
    real_block, real_gap, real_hp = search.scan_block, search.gap, search.HighPrecision

    def block(*args):
        calls["scan_block"] += 1
        return real_block(*args)

    def probe(a, fn, x, y, p=None):
        probes.append((x, y))
        return real_gap(a, fn, x, y, p)

    class CountingHighPrecision(real_hp):
        def __init__(self, *args, **kwargs):
            calls["HighPrecision"] += 1
            super().__init__(*args, **kwargs)

        def gap(self, *args, **kwargs):
            calls["hp_gap"] += 1
            return super().gap(*args, **kwargs)

    monkeypatch.setattr(search, "scan_block", block)
    monkeypatch.setattr(search, "gap", probe)
    monkeypatch.setattr(search, "HighPrecision", CountingHighPrecision)

    v = find_violation(2, cert_params)
    assert v is not None
    assert calls["scan_block"] == search._DEFAULT_REFINE_DEPTH + 1
    assert len(probes) == 1
    assert calls["HighPrecision"] == calls["hp_gap"] == 1

    calls.update(dict.fromkeys(calls, 0))
    probes.clear()
    assert verify_point(2, cert_params, v.point.x, v.point.y) == v.margin
    assert calls == {"scan_block": 0, "HighPrecision": 1, "hp_gap": 1} and not probes


#: The flagship triple, then the five reference-table rows.
_ANCHORS = [Params(_frozen.CERT_MU, _frozen.CERT_SIGMA, _frozen.CERT_ALPHA)] + [
    Params(mu, sigma, _frozen.TABLE_ALPHA) for mu, sigma, *_ in _frozen.TABLE_ROWS
]


#: ``(point.x, point.y, margin)`` of ``find_violation(order, anchor)`` at
#: the default window, or ``None``, keyed by ``(anchor, order)``.
_PINNED_VIOLATIONS = {
    (0, 1): (0.051602222166900906, 1.1351610201996363, 0.010877777731301972),
    (0, 2): (0.024693601075866576, 1.1365913836096029, 0.010271416966923502),
    (0, 3): (0.016221001773830793, 1.1370549176137776, 0.010076468372080299),
    (1, 1): (0.07666719970349982, 1.4176578942559732, 0.06580353946471455),
    (1, 2): (0.037517103187944545, 1.4189037781911646, 0.06446779429436142),
    (1, 3): (0.024829949389695637, 1.4193158418828125, 0.06402070680106853),
    (2, 1): (0.1, 1.872426187687866, 0.02493632447847704),
    (2, 2): (0.048869010821579864, 1.8738771376541614, 0.02268196121006157),
    (2, 3): (0.031782274192660546, 1.8754003989558823, 0.021945173568736893),
    (3, 1): (0.09635679727569842, 2.374865327536398, 0.019974623524852634),
    (3, 2): (0.04474431384759178, 2.379190110316581, 0.018003186448421592),
    (3, 3): (0.029078560650361362, 2.380590327344188, 0.01738325071894511),
    (4, 1): (0.08981595080704682, 2.8790518877461353, 0.016508616625898382),
    (4, 2): (0.04160346517730511, 2.8831357730622664, 0.014789464904362233),
    (4, 3): (0.027013689912617638, 2.884457938513424, 0.014252170836448764),
    (5, 1): None,
    (5, 2): None,
    (5, 3): None,
}


@pytest.mark.parametrize("case", sorted(_PINNED_VIOLATIONS))
def test_find_violation_pinned_bits(case):
    """The search's output on the six anchors, bit for bit: a faster scan
    or polish must not move a single bit of a finding, and a change that
    does move one re-captures these values on purpose."""
    anchor, order = case
    p = _ANCHORS[anchor]
    pinned = _PINNED_VIOLATIONS[case]
    want = None
    if pinned is not None:
        x, y, margin = pinned
        want = Violation(order=Order(order), params=p, point=Point(x, y), margin=margin)
    assert repr(find_violation(order, p)) == repr(want)


#: ``(order, (mu, sigma, alpha))`` whose default-window scan minimum lies
#: between -1e-9 and 0: ``alpha`` just past the onset of violation at orders
#: 1 to 3, and the flagship triple at order 1e-8.
_SUB_NANO_VIOLATIONS = [
    (1.0, (1.2, 0.05, 0.031258887505531324)),
    (2.0, (1.2, 0.05, 0.03133529059886933)),
    (3.0, (1.2, 0.05, 0.031349483823776246)),
    (1e-8, (_frozen.CERT_MU, _frozen.CERT_SIGMA, _frozen.CERT_ALPHA)),
]


@pytest.mark.parametrize("a, triple", _SUB_NANO_VIOLATIONS)
def test_find_violation_confirms_margins_below_1e_9(a, triple):
    """A negative scan minimum is a candidate however small it is: each
    of these margins is below 1e-9, is confirmed, and holds at 256 bits."""
    p = Params(*triple)
    v = find_violation(a, p)
    assert v is not None and 0.0 < v.margin < 1e-9
    assert verify_point(a, p, v.point.x, v.point.y, prec_bits=256) > 0.0


@pytest.mark.parametrize("box", [None, FULL_BOX, (-0.1, 0.1, -3.0, 3.0)])
def test_newton_polish_stays_in_the_box_and_keeps_the_gap(monkeypatch, box):
    """For the six anchors at orders 1 to 3, the polished point handed to
    confirmation lies in the scan box, and its float64 gap is at most the
    scan argmin's.  ``None`` is the default window; ``FULL_BOX`` straddles
    the kink of ``f`` at 0."""
    polished = []
    confirm = search.verify_point

    def spy(a, p, x, y):
        polished.append((x, y))
        return confirm(a, p, x, y)

    monkeypatch.setattr(search, "verify_point", spy)
    for p in _ANCHORS:
        cfg = violation_scan_config(p) if box is None else ScanConfig(box=box)
        x_lo, x_hi, y_lo, y_hi = cfg.box
        for a in (1, 2, 3):
            polished.clear()
            report = scan_gap_min(a, p, cfg)
            find_violation(a, p, cfg)
            if not report.min_gap < 0.0:
                assert not polished
                continue
            (x, y), = polished
            assert x_lo <= x <= x_hi and y_lo <= y <= y_hi, (p, a)
            assert gap(a, "f", x, y, p) <= report.min_gap, (p, a)


def test_newton_polish_holds_the_window_edge():
    """Anchor 2's order-1 optimum lies beyond the window's edge x = 0.1:
    the polish ends on that edge, where the gradient still pushes
    outward, with a margin at least the earlier golden-section polish's
    0.02493632447847704."""
    p = _ANCHORS[2]
    v = find_violation(1, p)
    assert v.point.x == violation_scan_config(p).box[1] == 0.1
    assert f_prime(v.point.x, p) < f_prime(v.point.x + v.point.y, p)
    assert v.margin >= 0.02493632447847704


def test_newton_polish_keeps_its_point_where_derivatives_fail():
    """At the kink (``x``, ``y`` or ``a*x + y`` exactly 0) the polish
    keeps its start, from where one-sided derivatives would move it
    (with ``x`` held on its edge, in the second case).  With ``sigma**2``
    subnormal its derivatives are not finite, and with ``sigma**2 = 0``
    they would divide by zero: the search then confirms the scan's node,
    where ``x + y = mu`` sits on the bump."""
    p = Params(1.2, 0.05, 0.05)
    for a, x, y, box in (
        (1.0, -1.1, 1.1, FULL_BOX),
        (2.0, -0.59, 0.0, (-0.59, 8.0, -8.0, 8.0)),
        (2.0, 0.0, 1.0, FULL_BOX),
    ):
        v = gap(a, "f", x, y, p)
        assert search._newton_polish(a, p, box, x, y, v) == (x, y)
    cfg = ScanConfig(box=(0.25, 0.35, 0.95, 1.05), grid_n=2)
    for sigma in (1e-160, 1e-170):
        v = find_violation(1, Params(1.2, sigma, 0.5), cfg)
        assert v.point == Point(0.25, 0.95) and v.margin > 0.39


def test_find_violation_none_when_bump_too_small():
    # With a tiny bump weight the working function stays subadditive on the
    # hunt window: the base profile's positive gap dominates.
    p = Params(mu=1.2, sigma=0.05, alpha=0.001)
    assert find_violation(2, p) is None


def test_verify_point_frozen_values(cert_params):
    m3 = verify_point(3, cert_params, 0.016, 1.137)
    assert m3 == float(-_frozen.as_mpf(_frozen.GAP3_AT_WITNESS_CERT))
    m2 = verify_point(2, cert_params, 0.0247, 1.1366)
    assert m2 == float(-_frozen.as_mpf(_frozen.GAP2_AT_MIXED_POINT_CERT))
    assert verify_point(2, cert_params, 0.0, 0.0) == 0.0


def test_verify_point_precision_stability(cert_params):
    a = verify_point(2, cert_params, 0.0247, 1.1366, prec_bits=128)
    b = verify_point(2, cert_params, 0.0247, 1.1366, prec_bits=400)
    assert a == b  # both converged well past float64


def _record_precisions(monkeypatch):
    """The precision of every ``HighPrecision`` that ``search`` builds,
    in a list that fills as it builds them."""
    used = []

    class Recording(HighPrecision):
        def __init__(self, prec_bits):
            used.append(prec_bits)
            super().__init__(prec_bits)

    monkeypatch.setattr(search, "HighPrecision", Recording)
    return used


def test_verify_point_works_out_its_precision_from_the_point(monkeypatch, cert_params):
    """``prec_bits`` is a floor, raised by one bit for each doubling of
    ``max(|a*x|, |y|, |a*x + y|)`` from 64 on: every point below 64
    runs at exactly ``prec_bits``.  Bad arguments are refused before any
    precision is worked out."""
    used = _record_precisions(monkeypatch)
    for a, x, y, prec_bits, bits in (
        (2, 0.0247, 1.1366, 128, 128),
        (2, 0.0247, 1.1366, 400, 400),
        (1, 32.0, 32.0 - 2.0**-47, 128, 128),  # a*x + y just below 64
        (1, 32.0, 32.0, 128, 129),  # a*x + y = 64
        (3, -40.0, 63.5, 128, 129),  # |a*x| = 120
        (2, 1e40, 1e40, 128, 257),  # 3e40 = 1.38 * 2**134
        (2, 1e40, 1e40, 300, 300),
        (1, -1e100, 1e100, 128, 455),  # a*x + y = 0; |y| in [2**332, 2**333)
    ):
        used.clear()
        verify_point(a, cert_params, x, y, prec_bits=prec_bits)
        assert used == [bits], (a, x, y, prec_bits)
    used.clear()
    for a, x, y in ((2, math.inf, 1.0), (2, 1e308, 1e308), (0, 1.0, 1.0)):
        with pytest.raises(InputError):
            verify_point(a, cert_params, x, y)
    assert not used


@pytest.mark.parametrize("prec_bits", ["x", 10**400, 127])
def test_verify_point_checks_prec_bits_before_it_evaluates(monkeypatch, prec_bits):
    """A bad precision floor is refused before any evaluation, at a point
    whose own precision would be valid."""
    used = _record_precisions(monkeypatch)
    with pytest.raises(InputError, match="prec_bits"):
        verify_point(2.0, Params(1.2, 0.05, 0.001), 0.02, 1.1, prec_bits=prec_bits)
    assert not used


def _far_points(rng, count):
    """``count`` points whose coordinates have random signs and
    magnitudes log-uniform from 1e-3 to 1e300."""
    return [
        tuple(rng.choice((-1.0, 1.0)) * 10.0 ** rng.uniform(-3.0, 300.0) for _ in "xy")
        for _ in range(count)
    ]


def test_verify_point_equals_8192_bits_far_from_the_origin(cert_params):
    """Far from the origin the gap's terms cancel, and 128 bits lose the
    margin: at the flagship's ``(1e40, 1e40)`` they read ``-128.0``.
    ``verify_point`` equals an 8,192-bit evaluation rounded to float64
    there and on seeded points with coordinates up to 1e300, at three
    triples and orders, where 128 bits alone miss some of them."""
    assert verify_point(2, cert_params, 1e40, 1e40) == -183.10819515085555
    assert float(-HighPrecision(8192).gap(2, "f", 1e40, 1e40, cert_params)) == (
        -183.10819515085555
    )
    assert float(-HighPrecision(128).gap(2, "f", 1e40, 1e40, cert_params)) == -128.0
    rng = random.Random(20261021)
    missed = 0
    for p, a in (
        (cert_params, 2),
        (Params(1.5, 0.05, search.TABLE_ALPHA), 3),
        (Params(2.0, 0.10, search.TABLE_ALPHA), 1),
    ):
        for x, y in _far_points(rng, 5):
            want = float(-HighPrecision(8192).gap(a, "f", x, y, p))
            assert verify_point(a, p, x, y) == want, (p, a, x.hex(), y.hex())
            missed += float(-HighPrecision(128).gap(a, "f", x, y, p)) != want
    assert missed >= 5


# ---------------------------------------------------------------------------
# stored-table reproduction
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def table_rows():
    return reproduce_table(grid_n=801, refine_depth=2)


def test_table_shape_and_stored_fields(table_rows):
    assert len(table_rows) == 5
    for row, ref in zip(table_rows, _frozen.TABLE_ROWS):
        mu, sigma, x_star, y_star, stored = ref
        assert isinstance(row, TableRow)
        assert (row.mu, row.sigma) == (mu, sigma)
        assert row.alpha == _frozen.TABLE_ALPHA
        assert (row.x_star, row.y_star) == (x_star, y_star)
        assert row.expected_margin == stored


def test_table_recomputed_margins_match_high_precision(table_rows):
    for row, frozen_margin in zip(table_rows, _frozen.TABLE_MARGIN3_RECOMPUTED):
        assert row.margin == float(_frozen.as_mpf(frozen_margin))


def test_table_recomputed_margins_disagree_with_stored(table_rows):
    """None of the five stored margins reproduces: row 1's recomputed
    order-3 margin is positive but ~17x the stored value, rows 2-5 come
    out negative (no violation at the stored witness at all)."""
    for row in table_rows:
        assert abs(row.margin - row.expected_margin) > 1e-4
    assert table_rows[0].margin > 0.0
    for row in table_rows[1:]:
        assert row.margin < 0.0


def test_table_scan_minima_match_frozen_brackets(table_rows):
    for row, (lo, hi) in zip(table_rows, _frozen.SCAN2_TABLE_MIN_BRACKETS):
        assert lo <= row.scan_min_gap <= hi


# ---------------------------------------------------------------------------
# certificate consistency: a slope criterion decides which certified
# triples must carry a violation
# ---------------------------------------------------------------------------


def _slope_excess(p):
    """``f'(t*) - f'(0+)`` at ``t* = mu - sigma/sqrt(2)`` in high precision.

    ``f'(0+) = 2 + 2 alpha mu h(0) / sigma^2`` is the right-hand limit of
    ``f'(t) = 1 + 1/(1+t) + 2 alpha (mu - t) h(t) / sigma^2``; ``t*`` is
    where the bump's slope ``h'`` peaks."""
    hp = HighPrecision(128)
    t_star = p.mu - p.sigma / math.sqrt(2.0)
    with mpmath.workprec(hp.prec_bits):
        sig = mpmath.mpf(p.sigma)
        slope_at_zero = 2 + 2 * mpmath.mpf(p.alpha) * mpmath.mpf(p.mu) * hp.eval_h(
            0.0, p
        ) / (sig * sig)
        return hp.f_prime(t_star, p) - slope_at_zero


def test_certified_triples_have_no_violation(cert_params):
    """CERTIFIED does not mean 2-subadditive (``certificate.CAVEAT``): a
    certified triple whose slope rises above its slope at the origin
    provably carries a violation, and ``find_violation`` must confirm it.

    For ``y > 0``, ``gap_2(x, y) / x -> 2 (f'(0+) - f'(y))`` as
    ``x -> 0+``, so a positive slope excess ``f'(t*) - f'(0+)`` at any
    ``t* > 0`` proves that the gap is negative near ``(0+, t*)``.  Of the
    21 certified triples drawn here (the flagship first), 19 have a
    positive excess (0.049 to 0.39 at ``t* = mu - sigma/sqrt(2)``) and a
    confirmed violation whose margin re-confirms at twice the precision.
    The other two (excess -0.030 and -0.022) are not asserted on: a search
    that finds nothing proves nothing.
    """
    triples = [cert_params]
    rng = random.Random(20260818)
    while len(triples) < 21:
        sigma = rng.uniform(0.04, 0.08)
        mu = rng.uniform(1.15, 1.45)
        alpha = rng.uniform(0.5, 0.95) * sigma * 1.166
        p = Params(mu=mu, sigma=sigma, alpha=alpha)
        if certify_S2(p).verdict is Verdict.CERTIFIED:
            triples.append(p)

    proven = [p for p in triples if _slope_excess(p) > 0]
    assert len(proven) == 19
    assert proven[0] == cert_params

    unconfirmed = []
    for p in proven:
        v = find_violation(2, p)
        if v is None:
            unconfirmed.append(p)
            continue
        assert v.margin > 0.0
        assert verify_point(2, p, v.point.x, v.point.y, prec_bits=256) == v.margin
    assert not unconfirmed, (
        f"{len(unconfirmed)}/19 triples with a proven violation were not "
        f"confirmed, e.g. {unconfirmed[0]}"
    )
