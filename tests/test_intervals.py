"""Interval arithmetic: construction, outward rounding, containment, and
the three-valued comparison."""

import math
import operator
import random
from fractions import Fraction

import mpmath
import pytest

import _frozen
from subadd.errors import DomainError, InputError, RangeError, SingularityError
from subadd.serialize import from_jsonable
from subadd.intervals import (
    Interval,
    Tristate,
    certainly_le,
    iadd,
    idiv,
    iexp,
    ilog,
    ilog1p,
    imul,
    isq,
    isqrt,
    isub,
)

# ---------------------------------------------------------------------------
# construction
# ---------------------------------------------------------------------------


def test_point_and_accessors():
    iv = Interval.point(1.5)
    assert iv.lo == iv.hi == 1.5
    assert iv.width() == 0.0
    assert iv.contains(1.5)
    assert not iv.contains(1.5000001)


def test_int_endpoints_normalise_to_float():
    big = 2**53 * 3  # an int above 2**53 that a float holds exactly
    for args, lo, hi in (
        ((1, 2), 1.0, 2.0),
        ((1, 2.5), 1.0, 2.5),
        ((-3.0, 4), -3.0, 4.0),
        ((big, big), float(big), float(big)),
    ):
        iv = Interval(*args)
        assert type(iv.lo) is float and type(iv.hi) is float
        assert iv.lo == lo and iv.hi == hi
    assert Interval.point(7) == Interval(7.0, 7.0)


def test_reversed_endpoints_rejected():
    with pytest.raises(InputError):
        Interval(2.0, 1.0)


def test_nonfinite_endpoints_rejected():
    with pytest.raises(RangeError):
        Interval(0.0, math.inf)
    with pytest.raises(RangeError):
        Interval(math.nan, 1.0)


def test_non_numeric_endpoints_rejected():
    # Endpoints are floats, or ints a float equals: nothing is rounded or
    # coerced on the way in, directly, through point(), or as an operand.
    for args in (
        ("0", 1.0),
        (True, 2),
        (0.0, False),
        (2**53 + 1, 2**53 + 1),
        (Fraction(1, 3), 1.0),
        (10**400, 10**401),
        (10**5000, 10**5000),
    ):
        with pytest.raises(InputError):
            Interval(*args)
    for value in (Fraction(1, 3), "0.5", True, 2**53 + 1):
        with pytest.raises(InputError):
            Interval.point(value)
        with pytest.raises(InputError):
            Interval(1.0, 2.0) + value
    with pytest.raises(InputError):
        from_jsonable({"__kind__": "Interval", "lo": True, "hi": 2})


# ---------------------------------------------------------------------------
# arithmetic operations: worked examples
# ---------------------------------------------------------------------------


def test_add_contains_exact_sum():
    out = iadd(Interval(1.0, 2.0), Interval(3.0, 4.0))
    assert out.lo <= 4.0 and out.hi >= 6.0


def test_mul_sign_straddle():
    out = imul(Interval(-1.0, 1.0), Interval(-1.0, 1.0))
    assert out.lo <= -1.0 and out.hi >= 1.0


def test_sub_basic():
    out = isub(Interval(1.0, 2.0), Interval(0.5, 0.75))
    assert out.lo <= 0.25 and out.hi >= 1.5


def test_div_third_tight_and_contains():
    out = idiv(Interval.point(1.0), Interval.point(3.0))
    # Exact containment of the real 1/3, checked in exact rational
    # arithmetic; width at most 4 representable steps.
    assert Fraction(out.lo) <= Fraction(1, 3) <= Fraction(out.hi)
    assert out.width() <= 4.0 * math.ulp(out.hi)


def test_div_by_interval_containing_zero():
    for bad in (Interval(-1.0, 1.0), Interval(0.0, 2.0), Interval(-2.0, 0.0)):
        with pytest.raises(SingularityError):
            idiv(Interval.point(1.0), bad)


# ---------------------------------------------------------------------------
# elementary maps: worked examples
# ---------------------------------------------------------------------------


def test_exp_of_zero():
    out = iexp(Interval.point(0.0))
    assert out.contains(1.0)
    assert out.width() <= 8.0 * math.ulp(1.0)


def test_exp_underflow_clamps_to_zero():
    out = iexp(Interval.point(-800.0))
    assert out.lo == 0.0
    assert 0.0 < out.hi < 1e-300


def test_exp_overflow_raises():
    with pytest.raises(RangeError):
        iexp(Interval.point(1000.0))


def test_log_of_nine_eighths():
    out = ilog(Interval.point(1.125))
    exact = _frozen.as_mpf(_frozen.C_EXACT)
    assert out.lo <= exact <= out.hi


def test_log_domain():
    with pytest.raises(DomainError):
        ilog(Interval(0.0, 1.0))
    with pytest.raises(DomainError):
        ilog(Interval(-2.0, -1.0))
    for bad in (Interval(-1.0, 0.5), Interval(-3.0, -2.0), Interval.point(-1.0)):
        with pytest.raises(DomainError):
            ilog1p(bad)


def test_sqrt_contains_and_domain():
    out = isqrt(Interval.point(4.0))
    assert out.contains(2.0)
    with pytest.raises(DomainError):
        isqrt(Interval(-1.0, 1.0))


def test_square_splits_at_zero():
    out = isq(Interval(-2.0, 1.0))
    assert out.lo <= 0.0 <= out.hi
    assert out.hi >= 4.0
    sharp = isq(Interval(1.0, 2.0))
    assert sharp.lo >= 1.0 - 4.0 * math.ulp(1.0)
    assert sharp.hi <= 4.0 + 8.0 * math.ulp(4.0)


# ---------------------------------------------------------------------------
# three-valued comparison
# ---------------------------------------------------------------------------


def test_certainly_le_examples():
    assert certainly_le(Interval(1.0, 2.0), Interval(3.0, 4.0)) is Tristate.TRUE
    assert certainly_le(Interval(1.0, 3.0), Interval(2.0, 4.0)) is Tristate.UNKNOWN
    assert certainly_le(Interval(5.0, 6.0), Interval(1.0, 2.0)) is Tristate.FALSE


def test_certainly_le_boundary_touch_is_true():
    assert certainly_le(Interval(1.0, 2.0), Interval(2.0, 3.0)) is Tristate.TRUE


def test_certainly_le_antisymmetric_on_disjoint():
    rng = random.Random(1001)
    for _ in range(2000):
        a = rng.uniform(-50.0, 50.0)
        w1 = abs(rng.gauss(0.0, 1.0))
        gap = abs(rng.gauss(0.0, 1.0)) + 1e-9
        w2 = abs(rng.gauss(0.0, 1.0))
        x = Interval(a, a + w1)
        y = Interval(a + w1 + gap, a + w1 + gap + w2)
        assert certainly_le(x, y) is Tristate.TRUE
        assert certainly_le(y, x) is Tristate.FALSE


def test_certainly_le_never_true_both_ways_unless_points():
    rng = random.Random(1002)
    for _ in range(2000):
        x = Interval(*sorted((rng.uniform(-5, 5), rng.uniform(-5, 5))))
        y = Interval(*sorted((rng.uniform(-5, 5), rng.uniform(-5, 5))))
        fwd = certainly_le(x, y)
        rev = certainly_le(y, x)
        if fwd is Tristate.TRUE and rev is Tristate.TRUE:
            assert x.lo == x.hi == y.lo == y.hi


# ---------------------------------------------------------------------------
# containment fuzz: 1e5 random operations against exact arithmetic
# ---------------------------------------------------------------------------


def _rand_interval(rng, lo=-20.0, hi=20.0):
    a, b = sorted((rng.uniform(lo, hi), rng.uniform(lo, hi)))
    return Interval(a, b)


def _ends(v):
    """The endpoints of an interval, or a float alone, as Fractions."""
    if isinstance(v, Interval):
        return Fraction(v.lo), Fraction(v.hi)
    return (Fraction(v),)


def test_containment_fuzz_arithmetic():
    """70k random +, -, *, / cases, and 4,375 of each operator form
    (``x op y``, ``x op c`` and ``c op x`` with a float ``c``, ``-x`` and
    ``x * x``): the exact rational result of every endpoint/sample
    combination stays inside the returned interval."""
    rng = random.Random(20260818)
    ops_rng = random.Random(20260821)
    for k in range(17_500):
        x = _rand_interval(rng)
        y = _rand_interval(rng)
        fx = Fraction(rng.uniform(x.lo, x.hi))
        fy = Fraction(rng.uniform(y.lo, y.hi))
        fx = min(max(fx, Fraction(x.lo)), Fraction(x.hi))
        fy = min(max(fy, Fraction(y.lo)), Fraction(y.hi))

        out = iadd(x, y)
        assert Fraction(out.lo) <= fx + fy <= Fraction(out.hi)

        out = isub(x, y)
        assert Fraction(out.lo) <= fx - fy <= Fraction(out.hi)

        out = imul(x, y)
        assert Fraction(out.lo) <= fx * fy <= Fraction(out.hi)

        if not (y.lo <= 0.0 <= y.hi) and fy != 0:
            out = idiv(x, y)
            assert Fraction(out.lo) <= fx / fy <= Fraction(out.hi)

        if k % 4:
            continue
        c = ops_rng.uniform(-20.0, 20.0)
        fc = Fraction(c)
        cases = [(-x, -fx), (x * x, fx * fx)]
        for op in (operator.add, operator.sub, operator.mul, operator.truediv):
            for (left, fl), (right, fr) in (
                ((x, fx), (y, fy)),
                ((x, fx), (c, fc)),
                ((c, fc), (x, fx)),
            ):
                ends = _ends(right)
                if op is operator.truediv and min(ends) <= 0 <= max(ends):
                    continue
                cases.append((op(left, right), op(fl, fr)))
        for out, exact in cases:
            assert Fraction(out.lo) <= exact <= Fraction(out.hi)
        assert x * x == isq(x)


def test_containment_fuzz_elementary():
    """37.5k random exp/log/log1p/sqrt/square cases against a 120-bit
    oracle."""
    rng = random.Random(20260819)
    rng2 = random.Random(20260822)
    with mpmath.workprec(120):
        for k in range(7_500):
            x = _rand_interval(rng, -40.0, 40.0)
            t = rng.uniform(x.lo, x.hi)
            t = min(max(t, x.lo), x.hi)
            mp_t = mpmath.mpf(t)

            out = iexp(x)
            assert out.lo <= mpmath.exp(mp_t) <= out.hi

            out = isq(x)
            assert out.lo <= mp_t * mp_t <= out.hi

            pos = Interval(abs(x.lo) + 1e-12, abs(x.lo) + 1e-12 + x.width())
            tp = min(max(rng.uniform(pos.lo, pos.hi), pos.lo), pos.hi)
            out = ilog(pos)
            assert out.lo <= mpmath.log(mpmath.mpf(tp)) <= out.hi
            out = isqrt(pos)
            assert out.lo <= mpmath.sqrt(mpmath.mpf(tp)) <= out.hi

            # log1p on (-1, 40], half of the cases reaching to within
            # 2**-30 of -1, where log1p falls steeply.
            lo = -1.0 + 2.0 ** -rng2.uniform(1.0, 30.0) if k % 2 else -0.5
            above = _rand_interval(rng2, lo, 40.0)
            ta = min(max(rng2.uniform(above.lo, above.hi), above.lo), above.hi)
            out = ilog1p(above)
            assert out.lo <= mpmath.log1p(mpmath.mpf(ta)) <= out.hi


def test_widening_never_narrows():
    """Output width is at least the exact image width for every operation,
    in function form, and in operator form for every other case."""
    rng = random.Random(20260820)
    ops_rng = random.Random(20260823)
    for k in range(4000):
        x = _rand_interval(rng, -10.0, 10.0)
        y = _rand_interval(rng, -10.0, 10.0)

        out = iadd(x, y)
        assert Fraction(out.hi) - Fraction(out.lo) >= (
            Fraction(x.hi) + Fraction(y.hi) - Fraction(x.lo) - Fraction(y.lo)
        )

        out = imul(x, y)
        cands = [
            Fraction(x.lo) * Fraction(y.lo),
            Fraction(x.lo) * Fraction(y.hi),
            Fraction(x.hi) * Fraction(y.lo),
            Fraction(x.hi) * Fraction(y.hi),
        ]
        assert Fraction(out.lo) <= min(cands) and Fraction(out.hi) >= max(cands)

        pos = Interval(0.25 + x.width(), 0.25 + x.width() + y.width())
        out = isqrt(pos)
        assert out.hi >= math.sqrt(pos.hi) - 2 * math.ulp(out.hi)
        assert out.lo <= math.sqrt(pos.lo)

        if k % 2:
            continue
        # Operator forms: + - * / (away from a zero divisor) are monotone
        # in each operand, so endpoint results span the exact image.
        c = ops_rng.uniform(-10.0, 10.0)
        for op in (operator.add, operator.sub, operator.mul, operator.truediv):
            for left, right in ((x, y), (x, c), (c, x)):
                lefts, rights = _ends(left), _ends(right)
                if op is operator.truediv and min(rights) <= 0 <= max(rights):
                    continue
                out = op(left, right)
                cands = [op(a, b) for a in lefts for b in rights]
                assert Fraction(out.lo) <= min(cands) and Fraction(out.hi) >= max(cands)
        out = -x
        assert (out.lo, out.hi) == (-x.hi, -x.lo)
        out = x * x
        squares = [t * t for t in _ends(x)]
        low = 0 if x.lo <= 0.0 <= x.hi else min(squares)
        assert Fraction(out.lo) <= low and Fraction(out.hi) >= max(squares)
