"""Region-wise sufficient conditions and the combined certificate.

The final test here cross-checks the flagship CERTIFIED triple against a
dense numerical scan: the order-2 gap stays nonnegative on the outer and
small regions, and its minimum is a confirmed violation in the mixed
region, whose published condition rests on a refuted bound (see the
README's "Known discrepancies").  The condition checks themselves are kept
faithful to their published statements.
"""

import math
import random
import sys

import mpmath
import pytest

import _frozen
from subadd import certificate
from subadd.analytic_core import HighPrecision, Params, _evaluator, _gap, classify_region
from subadd.errors import RangeError
from subadd.certificate import (
    CAVEAT,
    CertificateReport,
    ConditionResult,
    Verdict,
    certify_S2,
    check_region_A,
    check_region_B,
    check_region_C,
)
from subadd.intervals import Interval, Tristate
from subadd.search import ScanConfig, scan_gap_min, verify_point

CONDITION_NAMES = ("A_alpha", "B_mu", "B_alpha", "C_mu", "C_alpha")


# ---------------------------------------------------------------------------
# the flagship triple: every condition holds, overall verdict CERTIFIED
# ---------------------------------------------------------------------------


def test_flagship_certified(cert_params):
    report = certify_S2(cert_params)
    assert isinstance(report, CertificateReport)
    assert report.verdict is Verdict.CERTIFIED
    assert tuple(c.name for c in report.conditions) == CONDITION_NAMES
    assert all(c.verdict is Tristate.TRUE for c in report.conditions)
    assert report.caveat == CAVEAT
    assert report.params == cert_params


def test_flagship_interval_bounds_contain_frozen(cert_params):
    report = certify_S2(cert_params)
    by_name = {c.name: c for c in report.conditions}

    c_alpha = by_name["C_alpha"]
    assert c_alpha.rhs.contains(float(_frozen.as_mpf(_frozen.REGION_C_RHS_CERT)))
    assert c_alpha.lhs.contains(cert_params.alpha)

    b_mu = by_name["B_mu"]
    assert b_mu.lhs.contains(float(_frozen.as_mpf(_frozen.REGION_B1_RHS_CERT)))
    assert b_mu.rhs.contains(cert_params.mu)

    b_alpha = by_name["B_alpha"]
    assert b_alpha.rhs.contains(float(_frozen.as_mpf(_frozen.REGION_B2_RHS_CERT)))


def test_conditions_are_tight_intervals(cert_params):
    report = certify_S2(cert_params)
    for cond in report.conditions:
        assert isinstance(cond, ConditionResult)
        assert isinstance(cond.lhs, Interval)
        if cond.rhs is not None:
            assert isinstance(cond.rhs, Interval)
            assert cond.rhs.width() < 1e-6 * max(1.0, abs(cond.rhs.hi))


# ---------------------------------------------------------------------------
# worked examples for the individual region checks
# ---------------------------------------------------------------------------


def test_region_A_rejects_huge_alpha():
    cond = check_region_A(Params(mu=1.2, sigma=0.05, alpha=10.0))
    assert cond.name == "A_alpha"
    assert cond.verdict is Tristate.FALSE


def test_region_B_needs_mu_clear_of_one():
    conds = check_region_B(Params(mu=1.05, sigma=0.05, alpha=0.05))
    by_name = {c.name: c for c in conds}
    assert by_name["B_mu"].verdict is Tristate.FALSE


def test_region_B_true_at_table_row():
    conds = check_region_B(Params(mu=2.0, sigma=0.10, alpha=0.117783036))
    assert tuple(c.verdict for c in conds) == (Tristate.TRUE, Tristate.TRUE)


def test_region_B_alpha_unknown_when_phi_can_vanish():
    # (mu - 1)/sigma = 0.5 puts phi's argument where 4z^2 - 2 < 0, so the
    # published bound has no positive denominator and the check must report
    # UNKNOWN with no right-hand side rather than guess.
    conds = check_region_B(Params(mu=1.05, sigma=0.1, alpha=0.01))
    by_name = {c.name: c for c in conds}
    assert by_name["B_alpha"].verdict is Tristate.UNKNOWN
    assert by_name["B_alpha"].rhs is None


def test_region_C_needs_mu_above_half():
    conds = check_region_C(Params(mu=0.4, sigma=0.1, alpha=0.01))
    by_name = {c.name: c for c in conds}
    assert by_name["C_mu"].verdict is Tristate.FALSE


def test_region_C_rejects_nearline_alpha(nearline_params):
    conds = check_region_C(nearline_params)
    by_name = {c.name: c for c in conds}
    assert by_name["C_alpha"].verdict is Tristate.FALSE


def test_nearline_not_certified(nearline_params):
    # alpha exceeds the outer-region bound by ~3.4e-10 (the damping factor
    # exp(-(mu/sigma)^2) ~ 1e-391 makes that bound essentially the constant
    # itself) and overshoots the mixed-region bound outright, so the
    # conjunction must come out NOT_CERTIFIED.
    report = certify_S2(nearline_params)
    assert report.verdict is Verdict.NOT_CERTIFIED
    by_name = {c.name: c for c in report.conditions}
    assert by_name["C_alpha"].verdict is Tristate.FALSE
    assert by_name["A_alpha"].verdict is Tristate.FALSE
    excess = float(_frozen.as_mpf(_frozen.NEARLINE_ALPHA_EXCESS))
    rhs = by_name["A_alpha"].rhs
    assert rhs.contains(nearline_params.alpha - excess)


def test_far_off_params_not_certified():
    report = certify_S2(Params(mu=0.1, sigma=10.0, alpha=50.0))
    assert report.verdict is Verdict.NOT_CERTIFIED


def test_boundary_alpha_yields_unknown():
    # Choose alpha as the float closest to the mixed-region threshold
    # sigma * sqrt(e/2); the outward-rounded enclosures then overlap and
    # the comparison can be neither affirmed nor refuted.
    mu, sigma = 1.2, 0.05
    alpha = sigma * math.sqrt(math.e / 2.0)
    report = certify_S2(Params(mu=mu, sigma=sigma, alpha=alpha))
    by_name = {c.name: c for c in report.conditions}
    assert by_name["C_alpha"].verdict is Tristate.UNKNOWN
    assert report.verdict is Verdict.UNKNOWN
    other = [c.verdict for c in report.conditions if c.name != "C_alpha"]
    assert all(v is Tristate.TRUE for v in other)


# ---------------------------------------------------------------------------
# verdict-consistency invariants
# ---------------------------------------------------------------------------


def test_report_always_complete_and_consistent():
    rng = random.Random(20260818)
    for _ in range(200):
        p = Params(
            mu=rng.uniform(0.2, 4.0),
            sigma=rng.uniform(0.02, 0.5),
            alpha=rng.uniform(1e-4, 1.0),
        )
        report = certify_S2(p)
        assert tuple(c.name for c in report.conditions) == CONDITION_NAMES
        verdicts = [c.verdict for c in report.conditions]
        if report.verdict is Verdict.CERTIFIED:
            assert all(v is Tristate.TRUE for v in verdicts)
        elif report.verdict is Verdict.NOT_CERTIFIED:
            assert any(v is Tristate.FALSE for v in verdicts)
        else:
            assert any(v is Tristate.UNKNOWN for v in verdicts)
            assert not any(v is Tristate.FALSE for v in verdicts)


def test_alpha_monotonicity():
    """Shrinking alpha never degrades any alpha-comparison verdict."""
    rank = {Tristate.TRUE: 2, Tristate.UNKNOWN: 1, Tristate.FALSE: 0}
    rng = random.Random(20260819)
    for _ in range(100):
        mu = rng.uniform(1.1, 3.0)
        sigma = rng.uniform(0.03, 0.3)
        hi = rng.uniform(1e-3, 1.0)
        lo = hi * rng.uniform(0.05, 0.95)
        rep_hi = certify_S2(Params(mu=mu, sigma=sigma, alpha=hi))
        rep_lo = certify_S2(Params(mu=mu, sigma=sigma, alpha=lo))
        for name in ("A_alpha", "B_alpha", "C_alpha"):
            v_hi = next(c.verdict for c in rep_hi.conditions if c.name == name)
            v_lo = next(c.verdict for c in rep_lo.conditions if c.name == name)
            assert rank[v_lo] >= rank[v_hi]


# ---------------------------------------------------------------------------
# an independent 200-bit reference for the four bounds
# ---------------------------------------------------------------------------


def _reference_bounds(mu, sigma):
    """``({condition name: bound}, phi((mu - 1)/sigma))`` at 200 bits,
    written out here rather than run through the package's expression
    trees.  The ``B_mu`` entry is its left-hand side, and the ``B_alpha``
    bound is ``None`` where ``phi <= 0``."""
    with mpmath.workprec(200):
        mu, sigma = mpmath.mpf(mu), mpmath.mpf(sigma)
        z = (mu - 1) / sigma
        phi = (4 * z**2 - 2) * mpmath.exp(-(z**2))
        return {
            "A_alpha": mpmath.log(mpmath.mpf(9) / 8)
            / (1 + 2 * mpmath.exp(-((mu / sigma) ** 2))),
            "B_mu": 1 + sigma * mpmath.sqrt(mpmath.mpf(3) / 2),
            "B_alpha": 17 * sigma**2 / (54 * phi) if phi > 0 else None,
            "C_alpha": sigma * mpmath.sqrt(mpmath.e / 2),
        }, phi


def _reference_cases():
    """300 seeded ``(mu, sigma, alpha)``: 120 in the atlas-sweep ranges,
    30 with ``mu/sigma`` in [0.3, 5] (``h(0)`` far from 0), 50 with
    ``z = (mu-1)/sigma`` near ``1/sqrt(2)`` (where ``phi`` changes sign),
    50 with ``z`` in [26, 26.8] (``phi`` near 1e-300, just
    short of the overflow band) and 50 with ``mu/sigma`` in [26.5, 28]
    (``h(0)`` subnormal or zero).  Of every four, one alpha is uniform in
    [0.005, 0.15] and three sit a relative 1e-11 to 1e-3 above or below
    the A, B or C alpha bound (uniform too where that bound is undefined
    or beyond 1e300)."""
    rng = random.Random(20261018)
    out = []
    for k in range(300):
        sigma = rng.uniform(0.03, 0.15)
        if k < 120:
            mu = rng.uniform(1.0, 5.0)
        elif k < 150:
            mu = sigma * rng.uniform(0.3, 5.0)
        elif k < 200:
            mu = 1.0 + sigma * (math.sqrt(0.5) + rng.uniform(-1e-3, 1e-3))
        elif k < 250:
            mu = 1.0 + sigma * rng.uniform(26.0, 26.8)
        else:
            mu = sigma * rng.uniform(26.5, 28.0)
        bounds, _ = _reference_bounds(mu, sigma)
        near = (None, "A_alpha", "B_alpha", "C_alpha")[k % 4]
        if near is None or not bounds[near] or bounds[near] > 1e300:
            alpha = rng.uniform(0.005, 0.15)
        else:
            step = rng.choice((-1, 1)) * 10 ** rng.uniform(-11, -3)
            alpha = float(bounds[near] * (1 + step))
        out.append(Params(mu=mu, sigma=sigma, alpha=alpha))
    return out


def test_bounds_contain_independent_reference():
    """Every ``A_alpha``, ``B_alpha`` and ``C_alpha`` right-hand side and
    the ``B_mu`` left-hand side contains its 200-bit reference value, and
    each alpha condition's verdict is the reference comparison wherever
    ``alpha`` is farther than 1e-12 (relative) from the bound.

    A triple in the overflow band near ``z = 27`` raises
    :class:`RangeError`; its reference ``B_alpha`` bound is then beyond
    what a double holds, up to the enclosure's width."""
    decided = 0
    for p in _reference_cases():
        bounds, phi = _reference_bounds(p.mu, p.sigma)
        try:
            report = certify_S2(p)
        except RangeError:
            assert bounds["B_alpha"] > 0.5 * sys.float_info.max, p
            continue
        by_name = {c.name: c for c in report.conditions}
        assert by_name["B_mu"].lhs.lo <= bounds["B_mu"] <= by_name["B_mu"].lhs.hi, p
        for name in ("A_alpha", "B_alpha", "C_alpha"):
            cond, bound = by_name[name], bounds[name]
            if cond.rhs is None:
                # The enclosure of phi reaches 0 only where phi nearly does.
                assert name == "B_alpha" and phi < 1e-12, p
                assert cond.verdict is Tristate.UNKNOWN
                continue
            assert bound is not None, p
            assert cond.rhs.lo <= bound <= cond.rhs.hi, (p, name)
            if abs(p.alpha - bound) > 1e-12 * bound:
                expected = Tristate.TRUE if p.alpha <= bound else Tristate.FALSE
                assert cond.verdict is expected, (p, name)
                decided += 1
    assert decided > 800


# ---------------------------------------------------------------------------
# soundness cross-check: where the certificate's argument holds and where not
# ---------------------------------------------------------------------------


def test_certificate_soundness_cross_check(cert_params):
    """CERTIFIED means the five inequalities hold (``CAVEAT``), not that the
    order-2 gap is nonnegative; a dense scan shows where the two differ.

    Scans at resolution 1e-2 of boxes lying wholly inside the outer region
    ``A`` (``|x| >= 1/2``) and the small region ``B`` stay nonnegative
    (minima about 0.1012 and exactly 0.0).  The minimiser of the full-box
    ``[-8, 8]^2`` scan lies in the mixed region ``C`` alone, where the
    argument rests on the refuted ``psi(z) >= 2z`` link, and its negative
    gap (about -0.00967 at ``(-0.02, -1.14)``) is confirmed in high
    precision at 128 and 256 bits.  The gap is even in ``(x, y)``, and the
    mirror image of that basin holds the oracle's
    ``GAP2_AT_MIXED_POINT_CERT`` = -0.010271409... at
    ``x = 0.0247, y = 1.1366``.
    """
    report = certify_S2(cert_params)
    assert report.verdict is Verdict.CERTIFIED

    region_boxes = (
        (0.5, 8.0, -8.0, 8.0),  # A, x > 0
        (-8.0, -0.5, -8.0, 8.0),  # A, x < 0
        (-0.25, 0.25, -0.5, 0.5),  # B: 2|x| + |y| <= 1 throughout
    )
    for box in region_boxes:
        cfg = ScanConfig(box=box, grid_n=1601, refine_depth=0)
        scan = scan_gap_min(2.0, cert_params, cfg)
        assert scan.min_gap >= -1e-9, f"box {box}: gap {scan.min_gap} at {scan.argmin}"

    cfg = ScanConfig(box=(-8.0, 8.0, -8.0, 8.0), grid_n=1601, refine_depth=0)
    scan = scan_gap_min(2.0, cert_params, cfg)
    x, y = scan.argmin.x, scan.argmin.y
    flags = classify_region(x, y)
    assert flags.in_C and not flags.in_A and not flags.in_B
    margin = verify_point(2, cert_params, x, y, prec_bits=128)
    assert margin > 0.0
    assert verify_point(2, cert_params, x, y, prec_bits=256) == margin
    assert abs(scan.min_gap + margin) <= 1e-9 * max(1.0, margin)


def _interval_gap(a, p, x, y):
    """The gap tree over the certificate's interval namespace, every
    argument and parameter a point :class:`Interval`."""
    point = Interval.point
    w = _evaluator(certificate._I, "f", point(p.mu), point(p.sigma), point(p.alpha))
    return _gap(point(a), w, point(x), point(y))


def test_interval_gap_tree_encloses_the_1000_bit_gap(cert_params):
    """On seeded ``(p, a, x, y)`` the float64 interval enclosure of the gap
    contains its 1,000-bit value, and at the flagship's confirmed order-2
    point it lies strictly below 0: a violation margin can come from an
    enclosure instead of a high-precision evaluation."""
    hp = HighPrecision(1000)
    rng = random.Random(20261021)
    for _ in range(200):
        p = Params(rng.uniform(1.0, 3.0), rng.uniform(0.03, 0.2), rng.uniform(0.01, 0.2))
        a = rng.choice((1.0, 2.0, 3.0, rng.uniform(0.5, 4.0)))
        x, y = rng.uniform(-0.6, 0.6), rng.uniform(-4.0, 4.0)
        enclosure = _interval_gap(a, p, x, y)
        value = hp.gap(a, "f", x, y, p)
        assert enclosure.lo <= value <= enclosure.hi, (p, a, x, y)
    x, y = 0.024693601075866576, 1.1365913836096029
    enclosure = _interval_gap(2.0, cert_params, x, y)
    assert enclosure.lo <= hp.gap(2.0, "f", x, y, cert_params) <= enclosure.hi
    assert enclosure.hi < 0.0
    assert -enclosure.hi <= verify_point(2, cert_params, x, y) <= -enclosure.lo
