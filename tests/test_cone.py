"""Exact-rational cone construction: knee scale factors with integer
certificates, the piecewise-linear bijection, pairwise subadditivity
witnesses, and the boundary behaviour of the induced value functional
(image values approaching 1 from below along the base rays, and
approaching 0 along the reserve ray)."""

import dataclasses
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
    _generator,
    _nth_prime,
    _value_interval,
    make_generators,
    q_of,
)
from subadd.errors import ConstructionBugError, InputError, RangeError
from subadd.intervals import Interval, Tristate, certainly_le, iadd
from subadd.serialize import from_jsonable, to_jsonable

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
    # n is checked by the one rule the module-level q_of uses, with this
    # cone's BASE count as the cap
    for bad, message in (
        (4, "n must be <= 3, got 4"),  # not a base ray of this cone
        (0, "n must be >= 1, got 0"),
        (True, "n must be an int, got True"),
        (2.0, "n must be an int, got 2.0"),
    ):
        with pytest.raises(InputError) as info:
            small_cone.q_of(bad)
        assert str(info.value) == message


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


def test_cone_is_built_from_its_two_counts():
    # the counts alone fix every generator: Cone and make_generators agree
    # in ids, generators and scales, ids in sorted order
    for n, k in ((1, 1), (3, 1), (20, 5), (60, 5)):
        cone = Cone(n, k)
        built = make_generators(n, k)
        ids = tuple(map(B, range(1, n + 1))) + tuple(map(R, range(1, k + 1)))
        assert cone.generator_ids() == built.generator_ids() == ids
        assert [cone.generator(g) for g in ids] == [built.generator(g) for g in ids]
        assert [cone.q_of(i) for i in range(1, n + 1)] == [
            built.q_of(i) for i in range(1, n + 1)
        ]
        assert (cone.n_base, cone.n_reserve) == (n, k)
    # no cone takes a list of generators, so none holds a generator that
    # the certificate behind q_of does not cover
    gens = [make_generators(1, 1).generator(B(1)), Generator(R(1), 7, Fraction(1))]
    for bad in ((gens, 1), (1, gens), (gens[0], 1)):
        with pytest.raises(InputError, match="must be an int"):
            Cone(*bad)
    # q_of and the cone take the prime from the one rule, _generator
    for n in (1, 2, 7, 60, MAX_GENERATORS):
        rule = _generator(B(n))
        assert Cone(n, 1).generator(B(n)) == rule
        assert rule.coef == Fraction(1, 2**n)
        m = (2**n - 1) ** 2 * rule.prime
        assert q_of(n) == math.isqrt(m) + 1
    assert _generator(R(4)) == Generator(R(4), _nth_prime(8), Fraction(1))


def test_cone_refuses_generators_that_are_not_a_sequence():
    # repr() refuses ints of more than 4300 digits, so the message gives
    # the bit length.
    for bad, got in ((math.inf, "inf"), (10**5000, "an int of 16610 bits")):
        with pytest.raises(InputError, match=f"must be a sequence, got {got}"):
            ConeElement(bad)


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


def test_generator_id_contract():
    """Ids built separately are one key: equal, with equal hashes.  The
    cached hash and sort key are not fields, so neither the dataclass
    fields nor the JSON carry them."""
    for kind in GeneratorKind:
        for i in (1, 2, 60, MAX_GENERATORS):
            a, b = GeneratorId(kind, i), GeneratorId(kind=kind, index=i)
            assert a is not b and a == b and hash(a) == hash(b)
            assert {a: 1}[b] == 1
            back = from_jsonable(to_jsonable(a))
            assert back == a and hash(back) == hash(a)
    assert B(1) != R(1) and B(1) != B(2)
    assert [f.name for f in dataclasses.fields(GeneratorId)] == ["kind", "index"]
    assert to_jsonable(B(3)) == {
        "__kind__": "GeneratorId",
        "kind": {"__enum__": "GeneratorKind", "value": "BASE"},
        "index": 3,
    }
    assert repr(B(3)) == "GeneratorId(kind=<GeneratorKind.BASE: 'BASE'>, index=3)"
    assert (B(5).sort_key(), R(2).sort_key()) == ((0, 5), (1, 2))


def test_unknown_generator_lookup(cone):
    with pytest.raises(InputError):
        cone.generator(B(21))
    with pytest.raises(InputError):
        cone.generator(R(6))


# ---------------------------------------------------------------------------
# elements
# ---------------------------------------------------------------------------


_B1 = "GeneratorId(kind=<GeneratorKind.BASE: 'BASE'>, index=1)"
_B4 = "GeneratorId(kind=<GeneratorKind.BASE: 'BASE'>, index=4)"
_R1 = "GeneratorId(kind=<GeneratorKind.RESERVE: 'RESERVE'>, index=1)"
_R2 = "GeneratorId(kind=<GeneratorKind.RESERVE: 'RESERVE'>, index=2)"
_EXACT = "must be an exact rational (Fraction, int, or 'p/q' string)"


def test_element_validation():
    for coeffs, message in (
        ((), "a cone element must have at least one generator"),
        (((B(1), 0.5),), f"coefficient of {_B1} {_EXACT}, got 0.5"),
        (((B(1), True),), f"coefficient of {_B1} {_EXACT}, got True"),
        (((B(1), Fraction(0)),), f"coefficient of {_B1} must be > 0, got 0"),
        (((B(1), 0),), f"coefficient of {_B1} must be > 0, got 0"),
        (((R(1), Fraction(-1, 2)),), f"coefficient of {_R1} must be > 0, got -1/2"),
        (((R(1), "-1/2"),), f"coefficient of {_R1} must be > 0, got -1/2"),
        (((B(1), "half"),), f"coefficient of {_B1} is not a valid rational: 'half'"),
        (
            ((B(1), Fraction(1)), (B(1), Fraction(2))),
            f"duplicate generator {_B1} in element",
        ),
        ((("b1", 1),), "coefficient key must be a GeneratorId instance, got 'b1'"),
        (
            (1, 2),
            "coeffs must be a mapping or iterable of (GeneratorId, Fraction) "
            "pairs, got (1, 2)",
        ),
    ):
        with pytest.raises(InputError) as info:
            ConeElement(coeffs)
        assert str(info.value) == message


@pytest.mark.parametrize("bad", [0.5, True, "1/0", "half", "-1/2", 0])
def test_element_rejects_inexact_or_nonpositive_coefficients(bad):
    """Coefficients go through ``errors.require_fraction`` plus the
    cone's own ``> 0`` check."""
    with pytest.raises(InputError):
        ConeElement(coeffs=((B(1), bad),))


def test_map_and_pair_error_messages(small_cone):
    """Each public entry point names the argument it refuses."""
    ok = ConeElement(((B(1), Fraction(1)),))
    far = ConeElement(((B(4), Fraction(1)),))
    far_y = ConeElement(((B(1), Fraction(1)), (R(2), Fraction(1, 2))))
    c = small_cone
    for call, message in (
        (lambda: c.apply_f("x"), "x must be a ConeElement instance, got 'x'"),
        (lambda: c.apply_f(far), f"x uses unknown generator {_B4}"),
        (lambda: c.apply_f_inv(3), "y must be a ConeElement instance, got 3"),
        (lambda: c.apply_f_inv(far_y), f"y uses unknown generator {_R2}"),
        (
            lambda: c.check_subadditive_pair(None, ok),
            "x must be a ConeElement instance, got None",
        ),
        (
            lambda: c.check_subadditive_pair(ok, {B(1): 1}),
            f"y must be a ConeElement instance, got {{{_B1}: 1}}",
        ),
        (lambda: c.check_subadditive_pair(far, ok), f"x uses unknown generator {_B4}"),
        (lambda: c.check_subadditive_pair(ok, far_y), f"y uses unknown generator {_R2}"),
        (lambda: c.element_value_interval(far), f"x uses unknown generator {_B4}"),
    ):
        with pytest.raises(InputError) as info:
            call()
        assert str(info.value) == message


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


def test_map_is_not_monotone():
    """The map is a subadditive bijection, not an order-isomorphism: ``x =
    p_1`` is certainly below ``y = p_1 + r_1/1000``, yet ``f(x) = q_1 p_1``
    is certainly above ``f(y) = y``."""
    cone = make_generators(3, 2)
    x = ConeElement(coeffs=((B(1), Fraction(1)),))
    y = ConeElement(coeffs=((B(1), Fraction(1)), (R(1), Fraction(1, 1000))))
    fx, fy = cone.apply_f(x), cone.apply_f(y)
    assert fy == y
    value = cone.element_value_interval
    assert certainly_le(value(x), value(y)) is Tristate.TRUE
    assert certainly_le(value(fx), value(fy)) is Tristate.FALSE
    for z, about in [(x, 0.35355), (y, 0.35413), (fx, 0.70711)]:
        assert value(z).lo == pytest.approx(about, abs=1e-5)


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


def _random_element(ids, rng):
    """Drawn as the cone-exact benchmark draws: 1 to 3 generators,
    coefficients p/q with 1 <= p, q <= 50."""
    chosen = rng.sample(ids, rng.randint(1, 3))
    return ConeElement(
        tuple((gid, Fraction(rng.randint(1, 50), rng.randint(1, 50))) for gid in chosen)
    )


def test_witnesses_match_an_independent_slack_oracle():
    """Every witness equals, slack for slack and with its case tag, the
    slacks recomputed here from the knee formula: ``K(r) + K(s) - K(r +
    s)`` on a shared BASE ray, else ``K(r) - r`` on each BASE-ray
    summand's generator and 0 on every other generator of the support.
    ``q_n`` comes from its integer certificate on trial-division primes."""
    n_base, n_reserve = 60, 5
    cone = make_generators(n_base, n_reserve)
    primes = _trial_division_primes(2 * n_base)
    q = {}
    for n in range(1, n_base + 1):
        low = (2**n - 1) ** 2 * primes[2 * n - 2]
        q[n] = math.isqrt(low) + 1
        assert (q[n] - 1) ** 2 <= low < q[n] ** 2 < 4**n * primes[2 * n - 2]

    def knee(n, r):
        return q[n] * r if r <= 1 else r + q[n] - 1

    def ray(x):
        (gid, r), *rest = x.coeffs
        return (gid.index, r) if not rest and gid.kind is BASE else None

    rng = random.Random(26026)
    ids = cone.generator_ids()
    seen = set()
    for _ in range(2_000):
        x, y = _random_element(ids, rng), _random_element(ids, rng)
        rx, ry = ray(x), ray(y)
        dx, dy = x.to_dict(), y.to_dict()
        support = sorted(set(dx) | set(dy), key=lambda g: (g.kind is RESERVE, g.index))
        if rx and ry and rx[0] == ry[0]:
            n, r, s = rx[0], rx[1], ry[1]
            tag = WitnessCase.SAME_RAY
            expected = ((B(n), knee(n, r) + knee(n, s) - knee(n, r + s)),)
        else:
            tag = (
                WitnessCase.CROSS_RAY if rx and ry
                else WitnessCase.RAY_PLUS_OFFRAY if rx or ry
                else WitnessCase.BOTH_OFFRAY
            )
            gain = {}
            for rn in (rx, ry):
                if rn:
                    gain[B(rn[0])] = knee(*rn) - rn[1]
            expected = tuple((g, gain.get(g, Fraction(0))) for g in support)
        w = cone.check_subadditive_pair(x, y)
        assert w.case_tag is tag
        assert w.slacks == expected
        assert all(type(s) is Fraction for _, s in w.slacks)
        seen.add(tag)
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
    with pytest.raises(InputError, match="N must be <= 20, got 21"):
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
    # the row count is capped: a huge N is refused at once, not run
    for huge in (10_001, 10**5000):
        with pytest.raises(InputError, match="N must be <= 10000"):
            cone.liminf_sequence(huge)


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
    for huge in (10_001, 10**5000):
        with pytest.raises(InputError, match="samples must be <= 10000"):
            cone.upper_bound_check(Fraction(1, 2), huge)


def test_ray_facts_hold_on_every_base_ray(cone):
    facts = cone.ray_facts()
    assert [f.n for f in facts] == list(range(1, 21))
    for f in facts:
        assert f.holds()
        assert (f.prime, f.q) == (cone.generator(B(f.n)).prime, q_of(f.n))
    assert cone.upper_bound_check(Fraction(1, 2))  # samples defaults to 1


def test_a_scale_one_too_small_fails_the_limsup_fact():
    c = make_generators(20, 1)
    for n in range(1, 21):
        c._scales[n] -= 1
    for f in c.ray_facts():
        assert f.knee_ok and f.below_one
        assert not f.limsup_ok and not f.holds()
    # a smaller scale still bounds the map near zero
    assert c.upper_bound_check(Fraction(1, 2))


def test_a_scale_one_too_large_fails_the_upper_bound():
    # q_1 = 2 is the only integer in (sqrt(2), 2 sqrt(2)), and 3^2 > 4 * 2.
    # On the other BASE rays that window, ((2^n - 1) sqrt(prime), 2^n
    # sqrt(prime)), is sqrt(prime) >= sqrt(5) wide, so q_n + 1 may lie in it.
    c = make_generators(3, 1)
    c._scales[1] += 1
    first = c.ray_facts()[0]
    assert first.knee_ok and first.limsup_ok
    assert not first.below_one and not first.holds()
    assert not c.upper_bound_check(Fraction(1, 2))
    c._scales[1] = 0
    assert not c.ray_facts()[0].knee_ok
    assert not c.upper_bound_check(Fraction(1, 2))


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


def _summed_value_intervals(cone, x):
    """``x``'s enclosure as the ``iadd`` from 0 of the terms'
    :func:`_value_interval`, each recomputing ``1 / sqrt(prime)``: as
    ``(lo.hex(), hi.hex())``, or the type of the error raised; a term that
    ``float()`` cannot convert counts as a :class:`RangeError`."""
    try:
        total = Interval.point(0.0)
        for gid, c in x.coeffs:
            gen = cone.generator(gid)
            total = iadd(total, _value_interval(c * gen.coef, gen.prime))
    except OverflowError:
        return RangeError
    except Exception as exc:
        return type(exc)
    return total.lo.hex(), total.hi.hex()


def _enclosure_bits(cone, x):
    """``cone.element_value_interval(x)`` in the form of the above."""
    try:
        enc = cone.element_value_interval(x)
    except Exception as exc:
        return type(exc)
    return enc.lo.hex(), enc.hi.hex()


def test_cached_enclosures_match_value_interval():
    """The cone keeps each generator's ``1 / sqrt(prime)`` enclosure; its
    enclosures equal, bit for bit, the sums of :func:`_value_interval`
    that recompute that factor per coefficient."""
    cone = make_generators(60, 5)
    rng = random.Random(26027)
    ids = cone.generator_ids()
    for gid in ids:
        for _ in range(20):
            c = Fraction(rng.randint(1, 10**6), rng.randint(1, 10**6))
            x = ConeElement(((gid, c),))
            assert _enclosure_bits(cone, x) == _summed_value_intervals(cone, x)
    for _ in range(500):
        x = _random_element(ids, rng)
        assert _enclosure_bits(cone, x) == _summed_value_intervals(cone, x)


#: Coefficients at the edges of the float64 range: exact doubles (dyadic
#: rationals, the largest double), rationals that round to a double's
#: neighbour, round up to the largest double or overflow, and ones that
#: underflow to subnormals or to zero.
_EDGE_COEFFICIENTS = (
    Fraction(3, 8),
    Fraction(2**53 - 1),
    Fraction(2**53 + 1),
    Fraction(1, 2**60),
    Fraction(10**300),
    Fraction(10**308, 7),
    Fraction(2**1024 - 2**970),
    Fraction(2**1024 - 2**970 + 1),
    Fraction(2**1024 - 2**969),
    Fraction(10**400),
    Fraction(1, 10**300),
    Fraction(1, 2**1074),
    Fraction(3, 2**1075),
    Fraction(1, 10**330),
)


def test_enclosures_match_value_interval_at_the_float64_edges():
    """Bit for bit, or the same error, on every edge coefficient of every
    generator, on pairs of them, and on sums that overflow though each
    term is finite."""
    cone = make_generators(60, 5)
    ids = cone.generator_ids()
    outcomes = set()
    for gid in ids:
        for c in _EDGE_COEFFICIENTS:
            x = ConeElement(((gid, c),))
            got = _enclosure_bits(cone, x)
            assert got == _summed_value_intervals(cone, x), (gid, c)
            outcomes.add(got if isinstance(got, type) else "finite")
    rng = random.Random(7)
    for _ in range(400):
        pair = rng.sample(ids, 2)
        x = ConeElement(tuple((gid, rng.choice(_EDGE_COEFFICIENTS)) for gid in pair))
        assert _enclosure_bits(cone, x) == _summed_value_intervals(cone, x), x
    near_max = Fraction(17 * 10**307)
    overflow = ConeElement(((R(1), near_max), (R(2), near_max), (B(1), 2 * near_max)))
    assert _summed_value_intervals(cone, overflow) is RangeError
    assert _enclosure_bits(cone, overflow) is RangeError
    assert outcomes == {"finite", RangeError}


def test_element_value_rejects_foreign_rays(small_cone):
    x = ConeElement(coeffs=((B(4), Fraction(1)),))
    with pytest.raises(InputError):
        small_cone.element_value_interval(x)
    with pytest.raises(InputError):
        small_cone.apply_f(x)
