"""Oracles for the supporting statements: the three-point curvature
probe, the curvature, monotonicity and concavity checks decided on
interval enclosures, the symmetrization check that reduces to
monotonicity, exact semigroup membership, and the two-valued step-function
example."""

import math
import random
from fractions import Fraction

import pytest

import _frozen
from subadd import statement_oracles
from subadd.analytic_core import (
    HighPrecision,
    Params,
    _evaluator,
    _f_prime,
    _f_second,
    _g_second,
    _gap,
    _h_second,
    gap,
    h_second,
)
from subadd.certificate import Verdict, _I, certify_S2
from subadd.errors import DomainError, InputError, PreconditionError, RangeError
from subadd.intervals import Interval, Tristate
from subadd.search import TABLE_ALPHA, TABLE_REFERENCE_ROWS
from subadd.statement_oracles import (
    RationalityCase,
    SemigroupStatus,
    check_monotone_f,
    check_rolle_identity,
    check_symmetrization,
    check_tau_concavity,
    indicator_case_table,
    indicator_example_check,
    rolle_probe,
    semigroup_member,
    semigroup_search,
)


# ---------------------------------------------------------------------------
# curvature probe
# ---------------------------------------------------------------------------


def test_probe_value_for_base_profile_matches_frozen():
    v = rolle_probe("g", 0.5)
    assert abs(v - float(_frozen.as_mpf(_frozen.ROLLE_V_G_HALF))) < 1e-14
    # r''(u) = -1/(1+u)^2 ranges over (-1, -4/9) on (0, 0.5).
    assert -1.0 < v < -4.0 / 9.0


def test_probe_is_exact_on_quadratics():
    # The probe is the normalised second central difference; for
    # r(u) = u^2 it returns the second derivative exactly, any t.
    def probe_of_square(t):
        r = lambda u: u * u
        return 4.0 * (r(0.0) - 2.0 * r(t / 2.0) + r(t)) / (t * t)

    for t in (0.25, 0.5, 1.0, 2.0, 4.0):  # dyadic: arithmetic is exact
        assert probe_of_square(t) == 2.0


def test_probe_errors():
    with pytest.raises(DomainError):
        rolle_probe("g", 0.0)
    with pytest.raises(DomainError):
        rolle_probe("g", -1.0)
    with pytest.raises(InputError):
        rolle_probe("g", math.inf)
    with pytest.raises(InputError):
        rolle_probe("q", 1.0)
    with pytest.raises(InputError):
        rolle_probe("f", 1.0, None)  # parameterised handles need params
    with pytest.raises(InputError):
        rolle_probe("h", 1.0, None)


def test_probe_and_tau_take_any_real_but_bool(cert_params):
    assert rolle_probe("g", Fraction(1, 2)) == rolle_probe("g", 0.5)
    with pytest.raises(DomainError):
        rolle_probe("g", Fraction(-1, 2))
    with pytest.raises(InputError):
        rolle_probe("g", True)
    with pytest.raises(InputError):
        check_tau_concavity(cert_params, True)


def test_curvature_identity_examples(cert_params):
    assert check_rolle_identity("h", 1.0, cert_params) is Tristate.TRUE
    assert check_rolle_identity("g", 0.5) is Tristate.TRUE
    assert check_rolle_identity("f", 0.75, cert_params) is Tristate.TRUE


def test_curvature_identity_refuses_a_t_its_rounding_cannot_resolve(cert_params):
    # At t = 1e-8 the second difference cancels: the probe's enclosure is
    # about 4e-6 wide, wider than the range of r'' on [0, t] (about 2e-8
    # for g''), so neither side of r'' can be refuted.  At
    # 1e-160 t*t is subnormal (the probe read 0.0), at 1e-170 it is 0
    # (ZeroDivisionError): both raise before any enclosure.
    for fn in ("g", "f"):
        assert check_rolle_identity(fn, 1e-8, cert_params) is Tristate.UNKNOWN
        for t in (1e-160, 1e-170):
            with pytest.raises(RangeError, match="not a normal double"):
                check_rolle_identity(fn, t, cert_params)
    for t in (1e-160, 1e-170):
        with pytest.raises(RangeError, match="not a normal double"):
            rolle_probe("g", t)
    # at 1e-5 the enclosure still decides, and the CLI's t values do
    assert check_rolle_identity("g", 1e-5) is Tristate.TRUE
    assert check_rolle_identity("f", 1e-5, cert_params) is Tristate.TRUE
    for fn, t in (("f", 0.75), ("g", 0.5), ("h", 1.25)):
        assert check_rolle_identity(fn, t, cert_params) is Tristate.TRUE


def test_curvature_identity_random_tuples(cert_params):
    rng = random.Random(20260818)
    certified = [cert_params]
    while len(certified) < 10:
        p = Params(
            mu=rng.uniform(1.15, 1.45),
            sigma=rng.uniform(0.04, 0.08),
            alpha=rng.uniform(0.02, 0.05),
        )
        if certify_S2(p).verdict is Verdict.CERTIFIED:
            certified.append(p)
    for k in range(100):
        fn = ("f", "g", "h")[k % 3]
        t = rng.uniform(0.05, 3.0)
        p = certified[k % len(certified)]
        assert check_rolle_identity(fn, t, p) is Tristate.TRUE, (fn, t, p)


def test_curvature_identity_fails_on_a_bump_narrower_than_the_samples():
    """Sampling fails here, and the enclosures do not.  At t = 1 the
    probe's midpoint t/2 sits on the bump's peak, mu = 0.5, so
    v = 4 (0 - 2 + 0) = -8 for h.  Of 10,000 half-offset nodes of (0, 1)
    the nearest lies 5e-5 = 5 sigma away, where h'' is positive: none sees
    the trough of -2 / sigma**2, so a sampled range misses v.  Bisection
    finds the trough, at t = 1.25 too, and for sigma = 1e-9."""
    p = Params(mu=0.5, sigma=1e-5, alpha=1.0)
    v = rolle_probe("h", 1.0, p)
    assert v == -8.0
    assert min(h_second((k + 0.5) / 10_000, p) for k in range(10_000)) > v
    for q, t in ((p, 1.0), (p, 1.25), (Params(mu=0.5, sigma=1e-9, alpha=1.0), 1.0)):
        for fn in ("h", "f"):
            assert check_rolle_identity(fn, t, q) is Tristate.TRUE, (fn, t, q)


def test_curvature_identity_is_unknown_where_the_bump_underflows():
    # With the bump 37.5 sigma beyond t = 1.25, h and h'' underflow to 0 on
    # [0, t]: their enclosures are [0, tiny] and the probe's straddles 0,
    # so no point of r'' is proven below it.  g'' dominates f''.
    p = Params(mu=5.0, sigma=0.1, alpha=0.05)
    assert check_rolle_identity("h", 1.25, p) is Tristate.UNKNOWN
    assert check_rolle_identity("f", 1.25, p) is Tristate.TRUE


def test_an_enclosure_that_overflows_reads_unknown():
    # ((x - mu) / sigma)**2 exceeds the double range: at 1e312 for the
    # probe's h(t) here, at 1e600 in f' on [0, 1] below.  The float64 trees
    # read those h as 0; an overflowed enclosure bounds nothing.
    far = Params(mu=1000.0, sigma=1e-153, alpha=1.0)
    for fn in ("f", "h"):
        assert check_rolle_identity(fn, 1.0, far) is Tristate.UNKNOWN
    assert check_monotone_f(Params(mu=1e300, sigma=1.0, alpha=1.0)) is Tristate.UNKNOWN
    # sigma**2 overflows in f' at sigma = 1e300; the 2,000-point sampler
    # that symmetrization used to be answered True here.
    assert check_symmetrization(Params(mu=1.2, sigma=1e300, alpha=0.05)) is Tristate.UNKNOWN


def test_a_positive_f_second_refutes_curvature_and_concavity(monkeypatch, cert_params):
    # With f'' enclosed in [1, 2] on every cell, r'' > v is proven on
    # [0, t] for the negative probe of f, and the concavity's second
    # derivative is at least 6 at every point.
    assert rolle_probe("f", 0.75, cert_params) < 0.0
    monkeypatch.setattr(
        statement_oracles, "_f_second", lambda lib, r, *q: Interval(1.0, 2.0)
    )
    assert check_rolle_identity("f", 0.75, cert_params) is Tristate.FALSE
    assert check_tau_concavity(cert_params, 1.0) is Tristate.FALSE


def test_enclosures_contain_high_precision_values():
    """The three checks decide on interval enclosures of these trees.  On
    seeded cells, for the flagship and two table rows, each cell's
    enclosure and each point's contains the 200-bit value of the same
    tree at the cell's ends and midpoint; so does the order-2 and order-3
    gap's on 2-D cells."""
    hp = HighPrecision(200)
    rng = random.Random(20261020)
    table_alpha = 0.117783036
    for mu, sigma, alpha in ((1.2, 0.05, 0.05), (1.5, 0.05, table_alpha), (5.0, 0.15, table_alpha)):
        p = Params(mu, sigma, alpha)
        trees = (
            (_f_prime, (mu, sigma, alpha)),
            (_f_second, (mu, sigma, alpha)),
            (_h_second, (mu, sigma)),
            (_g_second, ()),
        )
        f = _evaluator(_I, "f", *map(Interval.point, (mu, sigma, alpha)))
        for _ in range(40):
            a = rng.uniform(0.0, mu + 1.0)
            b = a + 10.0 ** rng.uniform(-9.0, 0.0)
            for tree, args in trees:
                q = tuple(map(Interval.point, args))
                cell = tree(_I, Interval(a, b), *q)
                for x in (a, 0.5 * (a + b), b):
                    exact = hp._run(tree, x, *args)
                    point = tree(_I, Interval.point(x), *q)
                    assert cell.lo <= exact <= cell.hi, (tree.__name__, p, a, b, x)
                    assert point.lo <= exact <= point.hi, (tree.__name__, p, x)
            x0, y0 = rng.uniform(-2.0, 2.0), rng.uniform(-8.0, 8.0)
            x1, y1 = (c + 10.0 ** rng.uniform(-9.0, 0.0) for c in (x0, y0))
            for order in (2.0, 3.0):
                cell = _gap(order, f, Interval(x0, x1), Interval(y0, y1))
                for x, y in ((x0, y0), (0.5 * (x0 + x1), 0.5 * (y0 + y1)), (x1, y1)):
                    exact = hp.gap(order, "f", x, y, p)
                    assert cell.lo <= exact <= cell.hi, (p, order, x, y)


def test_sigma_squared_underflow_is_refused_by_the_derivative_checks_only():
    p = Params(mu=1.0, sigma=1e-200, alpha=1.0)
    # The probe evaluates r alone, which needs no sigma**2.
    assert rolle_probe("h", 1.0, p) == 4.0
    for fn in ("h", "f"):
        with pytest.raises(RangeError, match="h_second: sigma\\*\\*2 underflows"):
            check_rolle_identity(fn, 1.0, p)
    for check in (check_monotone_f, check_symmetrization):
        with pytest.raises(RangeError, match="f_prime: sigma\\*\\*2 underflows"):
            check(Params(mu=1.2, sigma=1e-200, alpha=0.05))


# ---------------------------------------------------------------------------
# monotonicity, symmetrization, concavity
# ---------------------------------------------------------------------------


def test_monotone_examples(cert_params):
    assert check_monotone_f(cert_params) is Tristate.TRUE
    assert check_monotone_f(Params(mu=1.0, sigma=0.3, alpha=1.0)) is Tristate.TRUE


def test_monotone_refuses_small_mu():
    with pytest.raises(PreconditionError):
        check_monotone_f(Params(mu=0.9, sigma=0.1, alpha=0.1))


def test_symmetrization_holds(cert_params):
    table = [Params(mu, sigma, TABLE_ALPHA) for mu, sigma, *_ in TABLE_REFERENCE_ROWS]
    for p in (cert_params, *table):
        assert check_symmetrization(p) is Tristate.TRUE, p
    # The public gap as an independent float64 reference on 10,000 seeded
    # points of the small region.
    rng = random.Random(20240)
    checked = 0
    while checked < 10_000:
        x, y = rng.uniform(-0.5, 0.5), rng.uniform(-1.0, 1.0)
        if 2.0 * abs(x) + abs(y) > 1.0:
            continue
        checked += 1
        assert gap(2.0, "f", x, y, cert_params) >= gap(
            2.0, "f", abs(x), abs(y), cert_params
        ) - 1e-10, (x, y)


def test_symmetrization_refuses_small_mu():
    with pytest.raises(PreconditionError, match="symmetrization is claimed for mu >= 1 only"):
        check_symmetrization(Params(mu=0.5, sigma=0.1, alpha=0.1))


def test_symmetrization_answers_as_monotonicity(monkeypatch, cert_params):
    # Symmetrization on the small region is f nondecreasing on [0, 1]:
    # the two oracles decide the same f' > 0 and must agree on every
    # triple, whichever answer it gets (sigma past about 1e154 overflows
    # the enclosures of f').
    rng = random.Random(34)
    answers = set()
    for _ in range(60):
        p = Params(
            mu=rng.uniform(1.0, 5.0),
            sigma=10.0 ** rng.uniform(-3.0, 300.0),
            alpha=10.0 ** rng.uniform(-3.0, 1.5),
        )
        answer = check_symmetrization(p)
        assert answer is check_monotone_f(p), p
        answers.add(answer)
    assert answers == {Tristate.TRUE, Tristate.UNKNOWN}
    # A negative f' refutes both; f' = 0 refutes neither, since a constant
    # f is nondecreasing.
    for f_prime, answer in (
        (Interval(-2.0, -1.0), Tristate.FALSE), (Interval.point(0.0), Tristate.UNKNOWN)
    ):
        monkeypatch.setattr(statement_oracles, "_f_prime", lambda lib, t, *q: f_prime)
        assert check_symmetrization(cert_params) is answer
        assert check_monotone_f(cert_params) is answer


def test_gap_even_under_joint_sign_flip(cert_params):
    # Flipping both signs negates a*x + y, and the working function is
    # even, so the gap is bitwise unchanged.
    hp = HighPrecision(200)
    q = (cert_params.mu, cert_params.sigma, cert_params.alpha)

    def symmetrization_identity(lib, x, y, mu, sigma, alpha):
        # Both sides at 200 bits, where 2x + y is exact.
        f = _evaluator(lib, "f", mu, sigma, alpha)
        lhs = _gap(2, f, x, y) - _gap(2, f, abs(x), abs(y))
        return lhs - (f(2 * abs(x) + abs(y)) - f(abs(2 * x + y)))

    rng = random.Random(5)
    for _ in range(2_000):
        x, y = rng.uniform(-2, 2), rng.uniform(-2, 2)
        assert gap(2.0, "f", -x, -y, cert_params) == gap(2.0, "f", x, y, cert_params)
        # f is even, so gap(x, y) - gap(|x|, |y|) = f(2|x| + |y|) - f(|2x + y|),
        # the identity that reduces symmetrization to monotonicity.
        assert abs(hp._run(symmetrization_identity, x, y, *q)) < 1e-50, (x, y)


def test_tau_concavity_examples(cert_params):
    assert check_tau_concavity(cert_params, 1.0) is Tristate.TRUE
    assert check_tau_concavity(cert_params, 0.2) is Tristate.TRUE


def test_tau_chord_starts_at_zero(cert_params):
    # The chord parametrisation at x = 0: 2 f(0) + f(t) - f(t) = 0 exactly.
    for t in (0.2, 0.5, 1.0):
        assert gap(2.0, "f", 0.0, t, cert_params) == 0.0


def test_tau_concavity_domain_errors(cert_params):
    for bad_t in (0.0, -0.5, 1.5):
        with pytest.raises(DomainError):
            check_tau_concavity(cert_params, bad_t)
    with pytest.raises(InputError):
        check_tau_concavity(cert_params, math.nan)


def test_tau_concavity_refuses_uncertified_small_region():
    # B_mu fails outright here.
    with pytest.raises(PreconditionError):
        check_tau_concavity(Params(mu=1.05, sigma=0.05, alpha=0.05), 1.0)
    # B_alpha is UNKNOWN here (the bound's denominator straddles zero).
    with pytest.raises(PreconditionError):
        check_tau_concavity(Params(mu=1.05, sigma=0.1, alpha=0.01), 1.0)


# ---------------------------------------------------------------------------
# exact semigroup membership
# ---------------------------------------------------------------------------


def test_semigroup_member_examples():
    assert semigroup_member(3, (1, 2), 5) is True
    assert semigroup_member(5, (2, 4), 10) is False
    assert semigroup_member(2, (1,), 5) is True


def test_semigroup_search_found_with_witness():
    status, counts = semigroup_search(
        Fraction(7, 6), (Fraction(1, 2), Fraction(1, 3)), 5
    )
    assert status is SemigroupStatus.FOUND
    assert counts is not None and len(counts) == 2
    assert sum(counts) <= 5
    assert counts[0] * Fraction(1, 2) + counts[1] * Fraction(1, 3) == Fraction(7, 6)


def test_semigroup_search_proven_absent():
    status, counts = semigroup_search(Fraction(1, 5), (Fraction(1, 2), Fraction(1, 3)), 50)
    assert status is SemigroupStatus.PROVEN_ABSENT
    assert counts is None
    status, _ = semigroup_search(5, (2, 4), 10)
    assert status is SemigroupStatus.PROVEN_ABSENT


def test_semigroup_budget_exhaustion():
    status, counts = semigroup_search(50, (1,), 60, budget=100)
    assert status is SemigroupStatus.BUDGET_EXHAUSTED
    assert counts is None
    with pytest.raises(InputError):
        semigroup_member(Fraction(3_000_000), (1, 3), 10)


def test_semigroup_member_monotone_in_budget():
    rng = random.Random(20260819)
    for _ in range(50):
        target = Fraction(rng.randint(1, 30), rng.randint(1, 6))
        gens = tuple(
            Fraction(rng.randint(1, 9), rng.randint(1, 4)) for _ in range(rng.randint(1, 3))
        )
        answers = [semigroup_member(target, gens, k) for k in range(1, 8)]
        for prev, cur in zip(answers, answers[1:]):
            assert cur >= prev  # True never reverts to False


def test_semigroup_input_validation():
    with pytest.raises(InputError):
        semigroup_member(1.5, (Fraction(1, 2),), 3)  # floats are ambiguous
    with pytest.raises(InputError):
        semigroup_member(Fraction(1, 2), (0.25,), 3)
    with pytest.raises(InputError):
        semigroup_member(Fraction(-1, 2), (Fraction(1, 2),), 3)
    with pytest.raises(InputError):
        semigroup_member(Fraction(1, 2), (), 3)
    with pytest.raises(InputError):
        semigroup_member(Fraction(1, 2), (Fraction(1, 2),), 0)
    for bad_budget in (0, "x", 2.5, None):
        with pytest.raises(InputError):
            semigroup_search(Fraction(1, 2), (Fraction(1, 2),), 3, bad_budget)
    for bad, got in ((math.inf, "inf"), (10**5000, "an int of 16610 bits")):
        with pytest.raises(InputError, match=f"must be a sequence, got {got}"):
            semigroup_search(Fraction(1, 2), bad, 3)
    # Exact strings are accepted.
    assert semigroup_member("3/2", ("1/2",), 5) is True


@pytest.mark.parametrize("bad", [0.5, True, False, "1/0", "half", "1.5e"])
def test_semigroup_search_rejects_inexact_rationals(bad):
    """Target and generators go through ``errors.require_fraction``:
    floats, bools and strings that are not rationals raise InputError."""
    with pytest.raises(InputError):
        semigroup_search(bad, (Fraction(1, 2),), 3)
    with pytest.raises(InputError):
        semigroup_search(Fraction(1, 2), (Fraction(1, 4), bad), 3)


# ---------------------------------------------------------------------------
# step-function example
# ---------------------------------------------------------------------------


def test_indicator_checks():
    assert indicator_example_check(1) is False
    assert indicator_example_check(2) is True
    assert indicator_example_check(3) is True


def test_indicator_rejects_other_orders():
    with pytest.raises(InputError):
        indicator_example_check(4)
    with pytest.raises(InputError):
        indicator_example_check(0)
    with pytest.raises(InputError):
        indicator_example_check(True)
    with pytest.raises(InputError):
        indicator_case_table(2.0)


def test_indicator_case_table_forcing_rules():
    rows = indicator_case_table(2)
    assert len(rows) == 4
    by_pattern = {(r[0], r[1]): r for r in rows}
    assert by_pattern[(True, True)][2] is RationalityCase.FORCED_RATIONAL
    assert by_pattern[(True, False)][2] is RationalityCase.FORCED_IRRATIONAL
    assert by_pattern[(False, True)][2] is RationalityCase.FORCED_IRRATIONAL
    assert by_pattern[(False, False)][2] is RationalityCase.FREE
    # The free pattern is the tight one at order 2: worst case 3 <= 2*1+1.
    x_irr_y_irr = by_pattern[(False, False)]
    assert x_irr_y_irr[3] == 3 and x_irr_y_irr[4] == 3 and x_irr_y_irr[5] is True


def test_indicator_case_table_order_one_fails_only_on_free_case():
    rows = indicator_case_table(1)
    bad = [r for r in rows if not r[5]]
    assert len(bad) == 1
    assert (bad[0][0], bad[0][1]) == (False, False)
    assert bad[0][3] == 3 and bad[0][4] == 2
