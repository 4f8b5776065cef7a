"""Deterministic grid scanning, the Newton polish, high-precision
confirmation, and the stored-table reproduction.

The last test cross-checks the certificate against the violation finder
over randomly drawn certified triples: every triple that a slope criterion
proves non-2-subadditive, the flagship among them, must yield a confirmed
violation.  See the README's "Known discrepancies".
"""

import math
import random
import sys
import tracemalloc

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
    with pytest.raises(InputError):
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
        dict(box=box, tolerance=True),
        dict(box=box, tolerance="tight"),
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
    steps round to 0 (here ``dx == dy == 0`` from level 18 on)."""
    cfg = ScanConfig(box=FULL_BOX, grid_n=41, refine_depth=20)
    rep = scan_gap_min(2.0, cert_params, cfg)
    assert rep.evaluations == 21 * 41 * 41
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
    and refused when the period would exceed one row tile; the snapping
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
    The last triple's level-2 box is not clipped, but the rounding of its
    edges leaves ``dy/(a*dx)`` about 1e-13 below ``k/a``."""
    calls = _record_levels(monkeypatch)
    triples = [(1.2, sigma, sigma) for sigma in (0.05, 0.03, 0.0731, 0.15)]
    triples.append((4.430756707065987, 0.03738979789817797, 0.10535597392288625))
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


@pytest.mark.parametrize("box", [None, FULL_BOX, (-0.1, 0.1, -3.0, 3.0)])
def test_newton_polish_stays_in_the_box_and_keeps_the_gap(monkeypatch, box):
    """For the six anchors at orders 1 to 3, the polished point handed to
    confirmation lies in the scan box, and its float64 gap is at most the
    scan argmin's.  ``None`` is the default window; ``FULL_BOX`` straddles
    the kink of ``f`` at 0."""
    polished = []
    confirm = search.verify_point

    def spy(a, p, x, y, prec_bits):
        polished.append((x, y))
        return confirm(a, p, x, y, prec_bits)

    monkeypatch.setattr(search, "verify_point", spy)
    for p in _ANCHORS:
        cfg = violation_scan_config(p) if box is None else ScanConfig(box=box)
        x_lo, x_hi, y_lo, y_hi = cfg.box
        for a in (1, 2, 3):
            polished.clear()
            report = scan_gap_min(a, p, cfg)
            find_violation(a, p, cfg)
            if not report.min_gap < -cfg.tolerance:
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
