"""Sampling oracles for the supporting statements: the three-point
curvature probe, monotonicity/symmetrization/concavity checks, exact
semigroup membership, and the two-valued step-function example."""

import math
import random
from fractions import Fraction

import pytest

import _frozen
from subadd.analytic_core import Params, gap
from subadd.certificate import Verdict, certify_S2
from subadd.errors import DomainError, InputError, PreconditionError
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
    for bad_n in (0, 2.5, True):
        with pytest.raises(InputError):
            check_rolle_identity("g", 0.5, None, bad_n)


def test_probe_and_tau_take_any_real_but_bool(cert_params):
    assert rolle_probe("g", Fraction(1, 2)) == rolle_probe("g", 0.5)
    with pytest.raises(DomainError):
        rolle_probe("g", Fraction(-1, 2))
    with pytest.raises(InputError):
        rolle_probe("g", True)
    with pytest.raises(InputError):
        check_tau_concavity(cert_params, True)


def test_curvature_identity_examples(cert_params):
    assert check_rolle_identity("h", 1.0, cert_params)
    assert check_rolle_identity("g", 0.5)
    assert check_rolle_identity("f", 0.75, cert_params)


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
        assert check_rolle_identity(fn, t, p, n=2_000), (fn, t, p)


# ---------------------------------------------------------------------------
# monotonicity, symmetrization, concavity
# ---------------------------------------------------------------------------


def test_monotone_examples(cert_params):
    assert check_monotone_f(cert_params)
    assert check_monotone_f(Params(mu=1.0, sigma=0.3, alpha=1.0))


def test_monotone_refuses_small_mu():
    with pytest.raises(PreconditionError):
        check_monotone_f(Params(mu=0.9, sigma=0.1, alpha=0.1))


def test_monotone_validates_sample_count(cert_params):
    # n = 0 would check no point and answer True.
    for bad_n in (0, -1, 2.5, True):
        with pytest.raises(InputError):
            check_monotone_f(cert_params, bad_n)


def test_symmetrization_holds(cert_params):
    assert check_symmetrization(cert_params, n=10_000)


def test_symmetrization_refuses_small_mu():
    with pytest.raises(PreconditionError):
        check_symmetrization(Params(mu=0.5, sigma=0.1, alpha=0.1))


def test_gap_even_under_joint_sign_flip(cert_params):
    # Flipping both signs negates a*x + y, and the working function is
    # even, so the gap is bitwise unchanged.
    rng = random.Random(5)
    for _ in range(2_000):
        x, y = rng.uniform(-2, 2), rng.uniform(-2, 2)
        assert gap(2.0, "f", -x, -y, cert_params) == gap(2.0, "f", x, y, cert_params)
        # On the nonnegative quadrant, symmetrization is the identity.
        assert gap(2.0, "f", abs(x), abs(y), cert_params) == gap(
            2.0, "f", abs(x), abs(y), cert_params
        )


def test_tau_concavity_examples(cert_params):
    assert check_tau_concavity(cert_params, 1.0)
    assert check_tau_concavity(cert_params, 0.2)


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
