"""Exact-rational cone construction: knee scale factors with integer
certificates, the piecewise-linear bijection, pairwise subadditivity
witnesses, and the boundary behaviour of the induced value functional
(image values approaching 1 from below along the base rays, and
approaching 0 along the reserve ray)."""

import math
import random
from fractions import Fraction

import mpmath
import pytest

import _frozen
from subadd.cone import (
    MAX_GENERATORS,
    Cone,
    ConeElement,
    Generator,
    GeneratorId,
    GeneratorKind,
    WitnessCase,
    _nth_prime,
    make_generators,
    q_of,
)
from subadd.errors import ConstructionBugError, InputError
from subadd.intervals import Interval

BASE = GeneratorKind.BASE
RESERVE = GeneratorKind.RESERVE


def B(n):
    return GeneratorId(kind=BASE, index=n)


def R(k):
    return GeneratorId(kind=RESERVE, index=k)


@pytest.fixture(scope="module")
def cone():
    return make_generators(20, 5)


@pytest.fixture(scope="module")
def small_cone():
    return make_generators(3, 1)


# ---------------------------------------------------------------------------
# knee scale factor
# ---------------------------------------------------------------------------


def test_q_of_matches_frozen_samples():
    for n, prime, q in _frozen.CONE_Q_SAMPLES:
        assert q_of(n) == q
        # the frozen prime is the one the builder assigns to base ray n
        gid = B(n)
        assert make_generators(max(n, 1), 1).generator(gid).prime == prime


def test_q_of_integer_certificate():
    # q is the unique integer with (2^n - 1)^2 p < q^2 < 4^n p — both
    # inequalities strict because a prime times a nonzero square is never
    # a perfect square.
    for n in range(1, 26):
        cone = make_generators(n, 1)
        p = cone.generator(B(n)).prime
        q = q_of(n)
        assert (2**n - 1) ** 2 * p < q * q < 4**n * p


def test_q_of_validation():
    with pytest.raises(InputError):
        q_of(0)
    with pytest.raises(InputError):
        q_of(-3)
    with pytest.raises(InputError):
        q_of(2.0)
    with pytest.raises(InputError):
        q_of(True)
    assert q_of(MAX_GENERATORS) > 0
    with pytest.raises(InputError):
        q_of(MAX_GENERATORS + 1)


def test_cone_q_of_requires_known_ray(small_cone):
    assert small_cone.q_of(3) == 24
    with pytest.raises(InputError):
        small_cone.q_of(4)  # not a base ray of this cone


# ---------------------------------------------------------------------------
# builder
# ---------------------------------------------------------------------------


def test_builder_interleaves_primes(cone):
    # base rays take the odd-position primes 2, 5, 11, ..., reserve rays
    # the even-position ones 3, 7, 13, ...
    assert [cone.generator(B(n)).prime for n in (1, 2, 3)] == [2, 5, 11]
    assert [cone.generator(R(k)).prime for k in (1, 2, 3)] == [3, 7, 13]
    assert cone.generator(B(1)).coef == Fraction(1, 2)
    assert cone.generator(B(3)).coef == Fraction(1, 8)
    assert cone.generator(R(2)).coef == 1


def _trial_division_primes(count):
    found = []
    candidate = 2
    while len(found) < count:
        for p in found:
            if p * p > candidate:
                found.append(candidate)
                break
            if candidate % p == 0:
                break
        else:
            found.append(candidate)
        candidate += 1
    return found


def test_nth_prime_matches_trial_division():
    # BASE n uses prime(2n - 1) and RESERVE k prime(2k), so the largest
    # index any allowed cone asks for is 2 * MAX_GENERATORS.
    largest = 2 * MAX_GENERATORS
    reference = _trial_division_primes(largest)
    assert [_nth_prime(i) for i in range(1, 501)] == reference[:500]
    assert _nth_prime(1000) == 7919
    assert _nth_prime(largest) == reference[-1]


def test_builder_primes_of_sixty_base_cone():
    cone = make_generators(60, 5)
    assert [cone.generator(B(n)).prime for n in range(1, 61)] == [
        2, 5, 11, 17, 23, 31, 41, 47, 59, 67, 73, 83, 97, 103, 109, 127,
        137, 149, 157, 167, 179, 191, 197, 211, 227, 233, 241, 257, 269, 277,
        283, 307, 313, 331, 347, 353, 367, 379, 389, 401, 419, 431, 439, 449,
        461, 467, 487, 499, 509, 523, 547, 563, 571, 587, 599, 607, 617, 631,
        643, 653,
    ]
    assert [cone.generator(R(k)).prime for k in range(1, 6)] == [3, 7, 13, 19, 29]


def test_builder_validation():
    with pytest.raises(InputError):
        make_generators(0, 1)
    with pytest.raises(InputError):
        make_generators(3, 0)
    with pytest.raises(InputError):
        make_generators(-1, 2)
    with pytest.raises(InputError):
        make_generators(2.5, 1)
    with pytest.raises(InputError):
        make_generators(MAX_GENERATORS + 1, 1)
    with pytest.raises(InputError):
        make_generators(1, MAX_GENERATORS + 1)
    with pytest.raises(InputError):
        make_generators(100_000_000, 5)


def test_cone_rejects_duplicate_primes():
    g1 = Generator(gid=B(1), prime=2, coef=Fraction(1, 2))
    g2 = Generator(gid=R(1), prime=2, coef=Fraction(1))
    with pytest.raises(InputError):
        Cone([g1, g2])


def test_cone_rejects_duplicate_ids():
    g1 = Generator(gid=B(1), prime=2, coef=Fraction(1, 2))
    g2 = Generator(gid=B(1), prime=3, coef=Fraction(1, 2))
    with pytest.raises(InputError):
        Cone([g1, g2])


def test_generator_value_intervals(cone):
    # base ray n has value 1/(2^n sqrt(p_n)); reserve ray k has 1/sqrt(p_k)
    with mpmath.workprec(120):
        v1 = 1 / (2 * mpmath.sqrt(2))
        assert cone.generator(B(1)).value_interval().contains(float(v1))
    r1 = cone.generator(R(1)).value_interval()
    assert r1.contains(float(_frozen.as_mpf(_frozen.INV_SQRT_3)))
    assert r1.width() < 20 * math.ulp(r1.hi)


def test_generator_ids_sorted_once(cone):
    """The ids are sorted at construction; every call returns that tuple."""
    ids = cone.generator_ids()
    assert ids == tuple(sorted(ids, key=lambda g: g.sort_key()))
    assert ids[:2] == (B(1), B(2)) and len(ids) == 25
    assert cone.generator_ids() is ids


def test_unknown_generator_lookup(cone):
    with pytest.raises(InputError):
        cone.generator(B(21))
    with pytest.raises(InputError):
        cone.generator(R(6))


# ---------------------------------------------------------------------------
# elements
# ---------------------------------------------------------------------------


def test_element_validation():
    with pytest.raises(InputError):
        ConeElement(coeffs=())
    with pytest.raises(InputError):
        ConeElement(coeffs=((B(1), Fraction(0)),))
    with pytest.raises(InputError):
        ConeElement(coeffs=((B(1), Fraction(-1, 2)),))
    with pytest.raises(InputError):
        ConeElement(coeffs=((B(1), Fraction(1)), (B(1), Fraction(2))))
    with pytest.raises(InputError):
        ConeElement(coeffs=(("b1", Fraction(1)),))


@pytest.mark.parametrize("bad", [0.5, True, "1/0", "half", "-1/2", 0])
def test_element_rejects_inexact_or_nonpositive_coefficients(bad):
    """Coefficients go through ``errors.require_fraction`` plus the
    cone's own ``> 0`` check."""
    with pytest.raises(InputError):
        ConeElement(coeffs=((B(1), bad),))


def test_element_accepts_exact_coefficients():
    x = ConeElement(coeffs=((B(1), 2), (B(2), "3/4"), (R(1), Fraction(1, 3))))
    assert x.to_dict() == {
        B(1): Fraction(2),
        B(2): Fraction(3, 4),
        R(1): Fraction(1, 3),
    }


def test_element_normalisation_and_addition():
    x = ConeElement(coeffs=((R(1), Fraction(1, 3)), (B(2), 2), (B(1), "1/2")))
    assert x.support() == (B(1), B(2), R(1))  # sorted: base rays first
    assert x.to_dict()[B(1)] == Fraction(1, 2)
    y = ConeElement(coeffs=((B(2), Fraction(1)),))
    z = x + y
    assert z.to_dict()[B(2)] == Fraction(3)
    assert z.to_dict()[R(1)] == Fraction(1, 3)


def test_single_base_ray_detection():
    assert ConeElement(coeffs=((B(4), Fraction(7, 2)),)).single_base_ray() == B(4)
    assert ConeElement(coeffs=((R(1), Fraction(1)),)).single_base_ray() is None
    two = ConeElement(coeffs=((B(1), Fraction(1)), (B(2), Fraction(1))))
    assert two.single_base_ray() is None
    mixed = ConeElement(coeffs=((B(1), Fraction(1)), (R(1), Fraction(1))))
    assert mixed.single_base_ray() is None


# ---------------------------------------------------------------------------
# the piecewise-linear map
# ---------------------------------------------------------------------------


def test_map_knees_single_base_ray(small_cone):
    q3 = small_cone.q_of(3)
    assert q3 == 24
    # below the knee: multiply by q
    x = ConeElement(coeffs=((B(3), Fraction(1, 2)),))
    assert small_cone.apply_f(x).to_dict()[B(3)] == Fraction(q3, 2)
    # above the knee: shift by q - 1
    y = ConeElement(coeffs=((B(3), Fraction(7, 2)),))
    assert small_cone.apply_f(y).to_dict()[B(3)] == Fraction(7, 2) + q3 - 1
    # at the knee the two branches agree: q * 1 == 1 + q - 1
    z = ConeElement(coeffs=((B(3), Fraction(1)),))
    assert small_cone.apply_f(z).to_dict()[B(3)] == Fraction(q3)


def test_map_fixes_everything_else(small_cone):
    fixtures = [
        ConeElement(coeffs=((R(1), Fraction(2, 7)),)),
        ConeElement(coeffs=((B(1), Fraction(1)), (B(2), Fraction(3)))),
        ConeElement(coeffs=((B(2), Fraction(1, 5)), (R(1), Fraction(4)))),
    ]
    for x in fixtures:
        assert small_cone.apply_f(x) == x
        assert small_cone.apply_f_inv(x) == x


def test_map_round_trips_exactly(cone):
    rng = random.Random(20260818)
    ids = cone.generator_ids()
    for _ in range(1_000):
        k = rng.randint(1, 3)
        support = rng.sample(ids, k)
        coeffs = tuple(
            (gid, Fraction(rng.randint(1, 50), rng.randint(1, 50))) for gid in support
        )
        x = ConeElement(coeffs=coeffs)
        assert cone.apply_f_inv(cone.apply_f(x)) == x
        assert cone.apply_f(cone.apply_f_inv(x)) == x


def test_map_expands_on_base_rays(cone):
    # On a base ray the mapped coefficient is >= the original (q >= 2):
    # q r >= r below the knee, r + (q-1) >= r above.
    rng = random.Random(20260819)
    for _ in range(1_000):
        n = rng.randint(1, 20)
        r = Fraction(rng.randint(1, 400), rng.randint(1, 100))
        x = ConeElement(coeffs=((B(n), r),))
        s = cone.apply_f(x).to_dict()[B(n)]
        assert s >= r
        assert s >= min(2 * r, r + 1)  # q >= 2 makes both branches expand


# ---------------------------------------------------------------------------
# pairwise subadditivity witnesses
# ---------------------------------------------------------------------------


def test_witness_same_ray(small_cone):
    x = ConeElement(coeffs=((B(3), Fraction(1, 2)),))
    y = ConeElement(coeffs=((B(3), Fraction(1)),))
    w = small_cone.check_subadditive_pair(x, y)
    assert w.case_tag is WitnessCase.SAME_RAY
    assert w.is_valid()
    # f(x) + f(y) - f(x+y) = 12 + 24 - (3/2 + 23) = 23/2 on this ray
    assert dict(w.slacks)[B(3)] == Fraction(23, 2)


def test_witness_cross_ray(small_cone):
    x = ConeElement(coeffs=((B(1), Fraction(2)),))
    y = ConeElement(coeffs=((B(2), Fraction(3)),))
    w = small_cone.check_subadditive_pair(x, y)
    assert w.case_tag is WitnessCase.CROSS_RAY
    assert w.is_valid()
    # the sum leaves both rays, so f(x+y) = x+y and each slack is the
    # one-ray expansion f(r) - r >= 0
    slacks = dict(w.slacks)
    assert slacks[B(1)] == Fraction(2) + q_of(1) - 1 - Fraction(2)
    assert slacks[B(2)] == Fraction(3) + q_of(2) - 1 - Fraction(3)


def test_witness_ray_plus_offray(small_cone):
    x = ConeElement(coeffs=((B(2), Fraction(1, 3)),))
    y = ConeElement(coeffs=((R(1), Fraction(5)),))
    w = small_cone.check_subadditive_pair(x, y)
    assert w.case_tag is WitnessCase.RAY_PLUS_OFFRAY
    assert w.is_valid()
    slacks = dict(w.slacks)
    assert slacks[B(2)] == Fraction(1, 3) * q_of(2) - Fraction(1, 3)
    assert slacks[R(1)] == 0


def test_witness_both_offray(small_cone):
    x = ConeElement(coeffs=((R(1), Fraction(1)),))
    y = ConeElement(coeffs=((R(1), Fraction(2)),))
    w = small_cone.check_subadditive_pair(x, y)
    assert w.case_tag is WitnessCase.BOTH_OFFRAY
    assert w.is_valid()
    assert all(s == 0 for _, s in w.slacks)


def test_witness_fuzz_never_negative(cone):
    rng = random.Random(771077)
    ids = cone.generator_ids()
    seen = set()
    for _ in range(10_000):
        elems = []
        for _ in range(2):
            k = rng.randint(1, 3)
            support = rng.sample(ids, k)
            coeffs = tuple(
                (gid, Fraction(rng.randint(1, 60), rng.randint(1, 60)))
                for gid in support
            )
            elems.append(ConeElement(coeffs=coeffs))
        w = cone.check_subadditive_pair(elems[0], elems[1])  # raises if negative
        assert w.is_valid()
        seen.add(w.case_tag)
    assert seen == set(WitnessCase)


# ---------------------------------------------------------------------------
# boundary behaviour of the value functional
# ---------------------------------------------------------------------------


def test_limsup_rows_certified_below_one(cone):
    rows = cone.limsup_sequence(20)
    assert len(rows) == 20
    for j, (n, value, image) in enumerate(rows, start=1):
        assert n == j
        assert isinstance(value, Interval) and isinstance(image, Interval)
        # image q_n/(2^n sqrt(p_n)) is certified inside (1 - 2^-n, 1)
        assert image.hi < 1.0
        assert image.lo > 1.0 - 0.5**n
        # and exceeds the ray's own value (the map expands)
        assert image.lo > value.hi


def test_limsup_values_match_frozen(cone):
    rows = cone.limsup_sequence(20)
    picks = {1: 0, 2: 1, 3: 2, 10: 3, 20: 4}
    for n, value, image in rows:
        if n in picks:
            frozen = _frozen.as_mpf(_frozen.CONE_PQ_SAMPLES[picks[n]])
            assert image.contains(float(frozen))
    # the n = 20 distance from 1 matches the frozen gap
    _, _, image20 = rows[19]
    gap20 = float(_frozen.as_mpf(_frozen.CONE_GAP_AT_20))
    assert image20.hi > 1.0 - gap20 - 1e-18
    assert 1.0 - image20.lo > gap20 - 1e-18
    assert 1.0 - image20.lo < 0.5**20


def test_limsup_validation(cone):
    with pytest.raises(InputError):
        cone.limsup_sequence(0)
    with pytest.raises(InputError):
        cone.limsup_sequence(21)  # only 20 base rays
    with pytest.raises(InputError):
        cone.limsup_sequence(2.0)


def test_liminf_rows_decrease_to_zero(cone):
    rows = cone.liminf_sequence(600)
    assert len(rows) == 600
    prev_hi = math.inf
    for k, value, image in rows:
        assert value == image  # reserve-ray elements are fixed points
        assert value.hi < prev_hi
        prev_hi = value.hi
    k600, value600, _ = rows[-1]
    assert k600 == 600
    assert value600.contains(float(_frozen.as_mpf(_frozen.LIMINF_AT_600)))
    assert value600.hi < 1e-3


def test_liminf_validation(cone):
    with pytest.raises(InputError):
        cone.liminf_sequence(0)
    base_only = Cone([Generator(gid=B(1), prime=2, coef=Fraction(1, 2))])
    with pytest.raises(InputError):
        base_only.liminf_sequence(5)


def test_upper_bound_check(cone):
    assert cone.upper_bound_check(Fraction(1, 2), 200)
    assert cone.upper_bound_check(Fraction(1, 100), 1_000)
    assert cone.upper_bound_check("1/7", 100)
    assert cone.upper_bound_check(0.5, 50)  # exactly representable float


def test_upper_bound_check_validation(cone):
    for bad_eps in (
        Fraction(0), Fraction(1), Fraction(3, 2), Fraction(-1, 2), "x",
        math.inf, -math.inf,
    ):
        with pytest.raises(InputError):
            cone.upper_bound_check(bad_eps, 10)
    with pytest.raises(InputError):
        cone.upper_bound_check(Fraction(1, 2), 0)
    with pytest.raises(InputError):
        cone.upper_bound_check(Fraction(1, 2), 2.0)


# ---------------------------------------------------------------------------
# value enclosures
# ---------------------------------------------------------------------------


def test_element_value_enclosures_contain_exact_value(cone):
    rng = random.Random(41)
    ids = cone.generator_ids()
    with mpmath.workprec(160):
        for _ in range(300):
            k = rng.randint(1, 4)
            support = rng.sample(ids, k)
            coeffs = tuple(
                (gid, Fraction(rng.randint(1, 30), rng.randint(1, 30)))
                for gid in support
            )
            x = ConeElement(coeffs=coeffs)
            enc = cone.element_value_interval(x)
            exact = mpmath.mpf(0)
            for gid, c in x.to_dict().items():
                gen = cone.generator(gid)
                scale = c * gen.coef
                exact += (
                    mpmath.mpf(scale.numerator)
                    / scale.denominator
                    / mpmath.sqrt(mpmath.mpf(gen.prime))
                )
            assert enc.lo <= float(exact) <= enc.hi
            assert enc.width() < 1e-12 * max(1.0, enc.hi)


def test_element_value_rejects_foreign_rays(small_cone):
    x = ConeElement(coeffs=((B(4), Fraction(1)),))
    with pytest.raises(InputError):
        small_cone.element_value_interval(x)
    with pytest.raises(InputError):
        small_cone.apply_f(x)
