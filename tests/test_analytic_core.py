"""Scalar evaluators, the gap functional, region classification, the
high-precision mirror, and the documented inequality battery.

``test_psi_two_z_claim`` asserts that a published comparative claim,
``psi(z) >= 2z`` on the mixed region, is false at every sampled point, and
that the chain holds with the proven constant ``2 log(9/8)`` in place of 2.
See the README's "Known discrepancies".
"""

import math
import random

import mpmath
import pytest

import _frozen
from conftest import ulps_apart
from subadd import analytic_core
from subadd.analytic_core import (
    GAP_FUNCTION_HANDLES,
    HighPrecision,
    Order,
    Params,
    Point,
    classify_region,
    eval_C,
    eval_f,
    eval_g,
    eval_h,
    eval_lambda,
    eval_phi,
    eval_psi,
    f_prime,
    gap,
    h_prime,
    h_second,
    order_value,
)
from subadd.errors import DomainError, InputError, RangeError

TOL = 1e-12


def _sample(rng, lo=-10.0, hi=10.0):
    return rng.uniform(lo, hi)


# ---------------------------------------------------------------------------
# float64 evaluators vs frozen oracle values
# ---------------------------------------------------------------------------


def test_g_at_one_matches_frozen():
    assert ulps_apart(eval_g(1.0), float(_frozen.as_mpf(_frozen.G_AT_1))) <= 2


def test_constant_is_log_nine_eighths_bitwise():
    assert eval_C() == math.log(1.125)
    assert eval_C() == _frozen.C_FLOAT


def test_lambda_at_half_close_to_constant():
    # Different formula paths for the same real number; allow 2 ulps.
    assert ulps_apart(eval_lambda(0.5), eval_C()) <= 2


def test_lambda_at_one_matches_frozen():
    assert ulps_apart(eval_lambda(1.0), float(_frozen.as_mpf(_frozen.LAMBDA_AT_1))) <= 2


def test_phi_at_four_matches_frozen():
    assert ulps_apart(eval_phi(4.0), float(_frozen.as_mpf(_frozen.PHI_AT_4))) <= 2


def test_psi_at_quarter_matches_frozen():
    assert (
        ulps_apart(eval_psi(0.25), float(_frozen.as_mpf(_frozen.PSI_AT_QUARTER))) <= 2
    )


def test_h_at_origin_is_tiny_but_nonzero(cert_params):
    v = eval_h(0.0, cert_params)
    assert v > 0.0
    assert abs(v / float(_frozen.as_mpf(_frozen.H0_CERT)) - 1.0) < 1e-12


def test_f_prime_at_one_matches_frozen(cert_params):
    v = f_prime(1.0, cert_params)
    assert abs(v - float(_frozen.as_mpf(_frozen.F_PRIME_AT_1_CERT))) < 1e-14


def test_h_second_at_one_matches_frozen(cert_params):
    v = h_second(1.0, cert_params)
    assert abs(v / float(_frozen.as_mpf(_frozen.H_SECOND_AT_1_CERT)) - 1.0) < 1e-12


def test_f_second_matches_frozen_in_float64_and_high_precision(cert_params):
    """The ``f''`` tree at the frozen point ``t = 1``:
    ``g''(1) + alpha*h''(1) = -1/4 + alpha*h''(1)``, to 1e-12 relative in
    float64 and to 1e-24 at 128 bits."""
    p = cert_params
    with mpmath.workprec(200):
        want = -mpmath.mpf(1) / 4 + p.alpha * _frozen.as_mpf(_frozen.H_SECOND_AT_1_CERT)
    fl = analytic_core._f_second(math, 1.0, p.mu, p.sigma, p.alpha)
    assert abs(fl / float(want) - 1.0) < 1e-12
    hp = HighPrecision(128)._run(analytic_core._f_second, 1.0, p.mu, p.sigma, p.alpha)
    assert abs(hp - want) < 1e-24


def test_h_prime_bounded_by_closed_form(cert_params):
    sup = float(_frozen.as_mpf(_frozen.HPRIME_SUP_CERT))
    assert abs(math.sqrt(2.0 / math.e) / cert_params.sigma - sup) < 1e-12
    rng = random.Random(7)
    for _ in range(5000):
        x = rng.uniform(1e-9, 10.0)
        assert abs(h_prime(x, cert_params)) <= sup * (1.0 + 1e-12)


# ---------------------------------------------------------------------------
# domains and input validation
# ---------------------------------------------------------------------------


def test_params_validation():
    with pytest.raises(InputError):
        Params(mu=-1.0, sigma=0.05, alpha=0.05)
    with pytest.raises(InputError):
        Params(mu=1.2, sigma=0.0, alpha=0.05)
    with pytest.raises(InputError):
        Params(mu=1.2, sigma=0.05, alpha=math.inf)
    with pytest.raises(InputError):
        Params(mu="wide", sigma=0.05, alpha=0.05)


def test_point_and_order_validation():
    with pytest.raises(InputError):
        Point(x=math.nan, y=0.0)
    with pytest.raises(InputError):
        Order(a=0.0)
    with pytest.raises(InputError):
        Order(a=-2.0)
    assert order_value(2) == 2.0
    assert order_value(Order(a=3.0)) == 3.0


def test_real_number_checks_refuse_bool():
    for build in (
        lambda: Params(mu=True, sigma=0.05, alpha=0.05),
        lambda: Params(mu=1.2, sigma=0.05, alpha=False),
        lambda: Order(True),
        lambda: order_value(True),
        lambda: Point(True, 0.0),
        lambda: Point(0.0, False),
        lambda: gap(2.0, "g", True, 0.5),
    ):
        with pytest.raises(InputError, match="must be a real number"):
            build()


def test_real_number_checks_refuse_ints_beyond_float_range():
    # float() overflows on these; repr() refuses the second (over 4300
    # digits), so the message gives the bit length.
    for big, bits in ((10**400, 1329), (10**5000, 16610)):
        for build in (
            lambda: Params(big, 1.0, 1.0),
            lambda: eval_g(big),
            lambda: Order(big),
            lambda: HighPrecision().eval_g(big),
        ):
            message = f"must be a real number.*an int of {bits} bits"
            with pytest.raises(InputError, match=message):
                build()


def test_float64_derivatives_refuse_underflowing_sigma():
    # sigma**2 is 0 in float64 here; HighPrecision still evaluates.
    p = Params(mu=1.2, sigma=1e-200, alpha=0.05)
    hp = HighPrecision()
    for fn, hp_fn in (
        (f_prime, hp.f_prime),
        (h_prime, hp.h_prime),
        (h_second, hp.h_second),
    ):
        with pytest.raises(RangeError, match="sigma"):
            fn(1.0, p)
        assert mpmath.isfinite(hp_fn(1.0, p))
    # a sigma whose square is still a normal double is evaluated
    assert f_prime(1.0, Params(mu=1.2, sigma=1e-150, alpha=0.05)) == 1.5


def test_float64_phi_is_zero_where_z_squared_overflows():
    """``(4 z^2 - 2) exp(-z^2)`` is inf * 0 in float64 once ``z * z``
    overflows; phi is below the smallest subnormal long before, so the
    float64 value is +0.0, not NaN.  High precision stays positive."""
    p = Params(1.2, 1e-100, 0.05)
    for value in (eval_phi(1e200), h_second(1e250, p), eval_phi(1e154), eval_phi(30.0)):
        assert value == 0.0 and math.copysign(1.0, value) == 1.0
    hp = HighPrecision()
    for value in (hp.eval_phi(1e200), hp.h_second(1e250, p)):
        assert mpmath.isfinite(value) and value > 0


def test_profile_domains():
    with pytest.raises(DomainError):
        eval_phi(-0.1)
    with pytest.raises(DomainError):
        eval_lambda(-0.1)
    with pytest.raises(DomainError):
        eval_psi(-0.1)
    with pytest.raises(DomainError):
        eval_psi(1.0)
    with pytest.raises(DomainError):
        f_prime(0.0, Params(1.2, 0.05, 0.05))
    with pytest.raises(DomainError):
        h_prime(-1.0, Params(1.2, 0.05, 0.05))
    with pytest.raises(DomainError):
        h_second(0.0, Params(1.2, 0.05, 0.05))


def test_gap_handle_validation(cert_params):
    with pytest.raises(InputError):
        gap(2.0, "bogus", 0.1, 0.2, cert_params)
    for handle in ("f", "h", "h-h0"):
        with pytest.raises(InputError):
            gap(2.0, handle, 0.1, 0.2, None)
    # The base profile needs no parameters.
    assert gap(2.0, "g", 0.1, 0.2) == pytest.approx(
        2.0 * eval_g(0.1) + eval_g(0.2) - eval_g(0.4), abs=1e-15
    )
    assert set(GAP_FUNCTION_HANDLES) == {"f", "g", "h", "h-h0"}


def test_gap_overflow_guard(cert_params):
    with pytest.raises(InputError):
        gap(1e308, "g", 1e308, 1e308)


@pytest.mark.parametrize(
    "a, fn, x, y",
    [
        (2, "f", 1e308, 1e308),
        (1, "g", 1.7e308, 1.7e308),
        (1e308, "h-h0", 10.0, 0.0),
        (3, "h", -1e308, -1.7e308),
    ],
)
def test_gap_overflow_is_refused_alike_in_both_paths(cert_params, a, fn, x, y):
    """Where ``a*x + y`` overflows float64, ``gap`` and
    ``HighPrecision.gap`` raise the same :class:`InputError`: the
    high-precision path would otherwise evaluate ``w`` at a point that the
    float64 path cannot name (at ``(2, 1e308, 1e308)`` it returned 0.0)."""
    with pytest.raises(InputError) as fl:
        gap(a, fn, x, y, cert_params)
    with pytest.raises(InputError) as hp:
        HighPrecision().gap(a, fn, x, y, cert_params)
    assert str(hp.value) == str(fl.value)
    assert "a*x + y overflowed" in str(fl.value)


# ---------------------------------------------------------------------------
# structural identities
# ---------------------------------------------------------------------------


def test_even_symmetry_exact(cert_params):
    rng = random.Random(11)
    for _ in range(10_000):
        x = _sample(rng)
        assert eval_f(x, cert_params) == eval_f(-x, cert_params)
        assert eval_g(x) == eval_g(-x)
        assert eval_h(x, cert_params) == eval_h(-x, cert_params)


def test_normalisation_at_origin(cert_params):
    assert eval_g(0.0) == 0.0
    assert eval_f(0.0, cert_params) == 0.0
    assert gap(2.0, "f", 0.0, 0.0, cert_params) == 0.0


def test_region_cover(cert_params):
    rng = random.Random(13)
    for _ in range(100_000):
        flags = classify_region(_sample(rng), _sample(rng))
        assert flags.in_A or flags.in_B or flags.in_C


def test_region_boundaries_overlap():
    # |x| = 1/2 on the dividing line belongs to the outer region and,
    # depending on y, to one of the others.
    assert classify_region(0.5, 0.0).in_A
    assert classify_region(0.5, 0.0).in_B
    assert classify_region(0.5, 0.5).in_C
    assert classify_region(0.0, 1.0).in_B and classify_region(0.0, 1.0).in_C


def test_gap_decomposition(cert_params):
    """gap through the working function splits exactly into the base-profile
    part plus alpha times the pinned-bump part."""
    rng = random.Random(17)
    a = cert_params.alpha
    for _ in range(10_000):
        x, y = _sample(rng), _sample(rng)
        g2f = gap(2.0, "f", x, y, cert_params)
        g2g = gap(2.0, "g", x, y)
        g2p = gap(2.0, "h-h0", x, y, cert_params)
        assert abs(g2f - g2g - a * g2p) <= TOL
        # The pinned-bump gap equals the raw-bump gap minus 2 h(0).
        g2h = gap(2.0, "h", x, y, cert_params)
        h0 = eval_h(0.0, cert_params)
        assert abs(g2p - (g2h - 2.0 * h0)) <= TOL


# ---------------------------------------------------------------------------
# the inequality battery (sampled at the documented sizes)
# ---------------------------------------------------------------------------


def _pairs_in_region(rng, n, predicate):
    """n random pairs of [-10,10]^2 satisfying predicate(flags)."""
    out = []
    while len(out) < n:
        x, y = _sample(rng), _sample(rng)
        if predicate(classify_region(x, y)):
            out.append((x, y))
    return out


def test_base_profile_order1_gap_nonnegative():
    rng = random.Random(19)
    for _ in range(10_000):
        x, y = _sample(rng), _sample(rng)
        assert gap(1.0, "g", x, y) >= -TOL


def test_base_profile_order2_gap_minorised_by_lambda():
    rng = random.Random(23)
    for _ in range(10_000):
        x, y = _sample(rng), _sample(rng)
        assert gap(2.0, "g", x, y) >= eval_lambda(abs(x)) - TOL


def test_outer_region_gap_minorised_by_constant():
    rng = random.Random(29)
    C = eval_C()
    for x, y in _pairs_in_region(rng, 10_000, lambda f: f.in_A):
        assert gap(2.0, "g", x, y) >= C - TOL


def test_small_and_mixed_region_quadratic_minorant():
    rng = random.Random(31)
    for x, y in _pairs_in_region(rng, 10_000, lambda f: f.in_B or f.in_C):
        assert gap(2.0, "g", x, y) >= 0.375 * x * x - TOL


def test_mixed_region_gap_minorised_by_psi():
    rng = random.Random(37)
    for x, y in _pairs_in_region(rng, 10_000, lambda f: f.in_C):
        assert gap(2.0, "g", x, y) >= eval_psi(abs(x)) - TOL


def test_psi_two_z_claim():
    """The mixed-region chain, with the constant that is actually proven.

    The published chain reads ``gap_2(g)(x, y) >= psi(|x|) >= 2|x|``.  Its
    second link is false for every ``0 < z < 1``: ``log(1+z) < z`` and
    ``log(1-z) < 0`` give ``psi(z) < 2z`` (oracle ``PSI_AT_QUARTER``:
    ``psi(0.25) = 0.1586... < 0.5``), and the end-to-end bound falls with
    it (oracle ``GAP2_G_AT_0p01_1``: ``gap_2(g)(0.01, 1.0) = 0.00995... <
    0.02``).  The sharp replacement is ``psi(z) >= 2 log(9/8) z`` on
    ``[0, 1/2]``: ``psi'' = -2/(1+z)^2 - 1/(1-z)^2 < 0`` makes psi concave,
    so it lies above its chord from ``psi(0) = 0`` to
    ``psi(1/2) = log(9/8)``; equality at ``z = 1/2`` makes the constant
    sharp.  On the seed-37 sample the refutation holds at every point and
    the true chain's smallest slack is about 2.4e-5.
    """
    C = eval_C()
    # the published link is refuted, witnessed by the oracle
    psi_quarter = eval_psi(0.25)
    assert ulps_apart(psi_quarter, float(_frozen.as_mpf(_frozen.PSI_AT_QUARTER))) <= 2
    assert psi_quarter < 0.5
    witness = gap(2.0, "g", 0.01, 1.0)
    assert classify_region(0.01, 1.0).in_C
    assert _frozen.rel_err(witness, _frozen.GAP2_G_AT_0p01_1) <= 1e-13
    assert _frozen.close_to_frozen(
        HighPrecision(128).gap(2, "g", 0.01, 1.0), _frozen.GAP2_G_AT_0p01_1
    )
    assert witness < 2.0 * 0.01
    assert witness >= 2.0 * C * 0.01
    # the chord constant is tight at |x| = 1/2
    assert ulps_apart(eval_psi(0.5), C) <= 2

    rng = random.Random(37)  # same sample as the psi-minorant test
    for x, y in _pairs_in_region(rng, 10_000, lambda f: f.in_C):
        z = abs(x)
        psi = eval_psi(z)
        assert psi < 2.0 * z
        assert gap(2.0, "g", x, y) >= psi - TOL
        assert psi >= 2.0 * C * z - TOL


def test_bump_gap_globally_bounded(cert_params):
    rng = random.Random(41)
    others = (Params(2.0, 0.1, 0.117783036), Params(5.0, 0.15, 0.117783036))
    for p in (cert_params,) + others:
        for _ in range(10_000):
            x, y = _sample(rng), _sample(rng)
            v = gap(2.0, "h", x, y, p)
            assert -1.0 - TOL <= v <= 3.0 + TOL


def test_lambda_nondecreasing_on_grid():
    prev = eval_lambda(0.0)
    assert prev == 0.0
    for k in range(1, 10_000):
        cur = eval_lambda(100.0 * k / 9_999)
        assert cur >= prev - TOL
        prev = cur


# ---------------------------------------------------------------------------
# high-precision mirror
# ---------------------------------------------------------------------------


def test_high_precision_requires_128_bits():
    with pytest.raises(InputError):
        HighPrecision(64)
    with pytest.raises(InputError):
        HighPrecision(127)
    with pytest.raises(InputError):
        HighPrecision("lots")
    # The cap: mpmath overflows from 10**400 bits, and a 2**62-bit
    # evaluation does not finish in 20 s.
    assert HighPrecision(analytic_core.MAX_PREC_BITS).prec_bits == 65_536
    for bits in (analytic_core.MAX_PREC_BITS + 1, 2**62, 10**400):
        with pytest.raises(InputError, match="prec_bits must be <= 65536"):
            HighPrecision(bits)


def test_high_precision_frozen_values(cert_params):
    hp = HighPrecision(200)
    assert _frozen.close_to_frozen(hp.eval_g(1.0), _frozen.G_AT_1)
    assert _frozen.close_to_frozen(hp.eval_C(), _frozen.C_EXACT)
    assert _frozen.close_to_frozen(hp.eval_lambda(1.0), _frozen.LAMBDA_AT_1)
    assert _frozen.rel_err(hp.eval_phi(4.0), _frozen.PHI_AT_4) < 1e-22
    assert _frozen.close_to_frozen(hp.eval_psi(0.25), _frozen.PSI_AT_QUARTER)
    assert _frozen.rel_err(hp.eval_h(0.0, cert_params), _frozen.H0_CERT) < 1e-22
    assert _frozen.close_to_frozen(
        hp.f_prime(1.0, cert_params), _frozen.F_PRIME_AT_1_CERT
    )


def test_high_precision_gap_frozen_values(cert_params):
    hp = HighPrecision(200)
    assert _frozen.close_to_frozen(
        hp.gap(3.0, "f", 0.016, 1.137, cert_params), _frozen.GAP3_AT_WITNESS_CERT
    )
    assert _frozen.close_to_frozen(
        hp.gap(2.0, "f", 0.016, 1.137, cert_params), _frozen.GAP2_AT_WITNESS_CERT
    )
    assert _frozen.close_to_frozen(
        hp.gap(2.0, "f", 0.0247, 1.1366, cert_params),
        _frozen.GAP2_AT_MIXED_POINT_CERT,
    )


def test_high_precision_independent_of_extra_bits(cert_params):
    """Raising the precision changes results far below the frozen tolerance
    (i.e. 128 bits is already converged at the comparison scale)."""
    v128 = HighPrecision(128).gap(2.0, "f", 0.0247, 1.1366, cert_params)
    v300 = HighPrecision(300).gap(2.0, "f", 0.0247, 1.1366, cert_params)
    with mpmath.workprec(320):
        assert abs(mpmath.mpf(v128) - mpmath.mpf(v300)) < mpmath.mpf("1e-35")


def test_high_precision_agrees_with_float_path(cert_params):
    hp = HighPrecision(160)
    rng = random.Random(43)
    for _ in range(300):
        x, y = _sample(rng, -3.0, 3.0), _sample(rng, -3.0, 3.0)
        coarse = gap(2.0, "f", x, y, cert_params)
        fine = float(hp.gap(2.0, "f", x, y, cert_params))
        assert abs(coarse - fine) <= 1e-12 * max(1.0, abs(fine))


def test_high_precision_validates_like_float_path(cert_params):
    hp = HighPrecision(128)
    with pytest.raises(InputError):
        hp.gap(2.0, "bogus", 0.1, 0.2, cert_params)
    with pytest.raises(InputError):
        hp.gap(2.0, "f", 0.1, 0.2, None)
    with pytest.raises(DomainError):
        hp.eval_psi(1.0)
    with pytest.raises(DomainError):
        hp.eval_phi(-1.0)
    with pytest.raises(DomainError):
        hp.f_prime(-1.0, cert_params)


def _close(fl, hp_value, *terms):
    """``hp_value`` rounded to float is within 4 ulps of ``fl``, counted at
    the scale of the terms the formula sums (a difference of nearly equal
    terms cannot be correct to a few ulps of itself in float64)."""
    scale = sum(abs(t) for t in terms)
    return abs(fl - float(hp_value)) <= 4 * math.ulp(scale)


def test_every_high_precision_method_matches_float_path():
    """Each HighPrecision method, rounded to float, equals its float64
    counterpart to a few ulps at sampled points, at 128 and 200 bits: the
    two paths feed the same trees the same arguments and parameters.  The
    128- and 200-bit values differ somewhere for every method, so neither
    path silently runs in float64."""
    triples = [
        Params(1.2, 0.05, 0.05),
        Params(1.5, 0.05, 0.117783036),
        Params(2.0, 0.3, 0.4),
        Params(0.5, 0.4, 0.3),  # h(0) = 0.21, so "h" and "h-h0" differ
    ]
    rng = random.Random(61)
    hp128, hp200 = HighPrecision(128), HighPrecision(200)
    split = {}  # method -> some point gave different 128- and 200-bit values

    def check(name, fl, args, *terms):
        v128 = getattr(hp128, name)(*args)
        v200 = getattr(hp200, name)(*args)
        assert _close(fl, v128, *terms), (name, args, fl, v128)
        assert _close(fl, v200, *terms), (name, args, fl, v200)
        split[name] = split.get(name, False) or v128 != v200

    check("eval_C", eval_C(), (), eval_C())
    for z in [0.0, 0.25, 0.5, 1 / math.sqrt(2), 0.99] + [rng.uniform(0, 4) for _ in range(20)]:
        e = math.exp(-z * z)
        check("eval_phi", eval_phi(z), (z,), (4 * z * z + 2) * e)
        check("eval_lambda", eval_lambda(z), (z,), 2 * math.log1p(z), math.log1p(2 * z))
        if z < 1.0:
            check("eval_psi", eval_psi(z), (z,), 2 * math.log1p(z), math.log1p(-z))
    for p in triples:
        mu, sigma, alpha = p.mu, p.sigma, p.alpha
        ring = [mu + k * sigma / 4 for k in range(-12, 13)]
        xs = ring + [-t for t in ring] + [rng.uniform(-4, 4) for _ in range(25)]
        h0 = eval_h(0.0, p)
        for x in xs:
            g, h = eval_g(x), eval_h(x, p)
            check("eval_g", g, (x,), g)
            check("eval_h", h, (x, p), 1.0)
            check("eval_f", eval_f(x, p), (x, p), g, alpha * h, alpha * h0)
            if x != 0.0:
                check("h_second", h_second(x, p), (x, p), 2 / sigma**2)
            if x > 0:
                bump = 2 * alpha * (mu - x) * h / sigma**2
                check("f_prime", f_prime(x, p), (x, p), 1.0, 1 / (1 + x), bump)
                check("h_prime", h_prime(x, p), (x, p), 1 / sigma)
        ws = {
            "f": lambda t: eval_f(t, p),
            "g": eval_g,
            "h": lambda t: eval_h(t, p),
            "h-h0": lambda t: eval_h(t, p) - h0,
        }
        # a bound on |w'|, for the float64 rounding of a*x + y
        lip = {"f": 2 + alpha / sigma, "g": 2.0, "h": 1 / sigma, "h-h0": 1 / sigma}
        for _ in range(40):
            x, y = rng.uniform(-3, 3), rng.uniform(-3, 3)
            x = x / 50 if rng.random() < 0.5 else x  # the violation window's scale
            for a in (1.0, 2.0, 2.5, 3.0):
                s = a * x + y
                for fn in GAP_FUNCTION_HANDLES:
                    w = ws[fn]
                    terms = (a * w(x), w(y), w(s), lip[fn] * (abs(a * x) + abs(s)))
                    check("gap", gap(a, fn, x, y, p), (a, fn, x, y, p), *terms)
    assert split == dict.fromkeys(split, True) and len(split) == 11


def test_high_precision_f_and_gap_compose_from_g_and_h():
    """At 200 bits, eval_f and gap equal their definitions composed from
    eval_g and eval_h to 2**-190: a parameter or h(0) left in float64
    inside either method is off by about 1e-17 and fails.  The dyadic
    points make ``a*x + y`` exact in binary64."""
    hp = HighPrecision(200)
    tol = mpmath.mpf(2) ** -190
    for p in (Params(0.5, 0.4, 0.3), Params(1.2, 0.05, 0.05)):
        with mpmath.workprec(200):
            h0 = hp.eval_h(0.0, p)
            w = {
                "g": hp.eval_g,
                "h": lambda t: hp.eval_h(t, p),
                "h-h0": lambda t: hp.eval_h(t, p) - h0,
                "f": lambda t: hp.eval_g(t) + p.alpha * (hp.eval_h(t, p) - h0),
            }
            for x in (-0.75, 0.015625, 0.4375, 1.5):
                assert abs(hp.eval_f(x, p) - w["f"](x)) <= tol
                for a, y in ((1.0, 0.5), (2.0, -0.3125), (3.0, 1.125)):
                    for fn in GAP_FUNCTION_HANDLES:
                        want = a * w[fn](x) + w[fn](y) - w[fn](a * x + y)
                        assert abs(hp.gap(a, fn, x, y, p) - want) <= tol * 8, (fn, a, x, y)
