"""Deterministic grid scanning, golden-section refinement, high-precision
confirmation, and the stored-table reproduction.

The last test cross-checks the certificate against the violation finder
over randomly drawn certified triples: every triple that a slope criterion
proves non-2-subadditive, the flagship among them, must yield a confirmed
violation.  See the README's "Known discrepancies".
"""

import math
import random

import mpmath
import pytest

import _frozen
from subadd.analytic_core import HighPrecision, Params
from subadd.certificate import Verdict, certify_S2
from subadd.errors import InputError
from subadd.search import (
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


def test_violation_window_shape(cert_params):
    cfg = violation_scan_config(cert_params, grid_n=401)
    x_lo, x_hi, y_lo, y_hi = cfg.box
    assert x_lo == 0.1 / 401 and x_hi == 0.1
    assert y_lo == cert_params.mu - 10.0 * cert_params.sigma
    assert y_hi == cert_params.mu + 10.0 * cert_params.sigma


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
