"""Outward-rounded interval arithmetic over binary64.

Python has no portable access to the FPU rounding mode, so every operation
here computes endpoints in round-to-nearest and then *widens outward* by a
fixed number of ``math.nextafter`` steps: two steps per endpoint for the
exactly-rounded arithmetic operations (``+ - * /``), four per endpoint for
the elementary maps (``exp``, ``log``, ``log1p``, ``sqrt``, squaring),
whose libm implementations may be off by an ulp.  The guarantee maintained
throughout is *containment*: if each input interval contains the exact
real operand, the output interval contains the exact real result.  Widths
are therefore a few ulps larger than optimal — a deliberate trade of
tightness for a soundness argument that does not depend on libm being
correctly rounded.

Monotonicity is used for the elementary maps (all five are monotone on the
relevant pieces; squaring is split at zero), so endpoint evaluation plus
widening is sufficient.

:class:`Interval` also takes the operators ``+ - * /``, with their
reflected forms, so the expression trees of :mod:`subadd.analytic_core`
run on intervals unchanged.  Each operator calls the function of the same
operation here (``x * x`` on one object calls :func:`isq`); unary ``-`` is
exact.  An operand that is not an :class:`Interval` is lifted through
:meth:`Interval.point`, so it must be an exact endpoint: a ``float``, or
an ``int`` (not ``bool``) that converts to ``float`` without rounding.
Anything else raises :class:`InputError` instead of being rounded.

Comparisons are three-valued: :func:`certainly_le` answers ``TRUE`` only
when the intervals prove the inequality, ``FALSE`` only when they refute
it, and ``UNKNOWN`` when they overlap.  ``UNKNOWN`` never silently maps to
a boolean.
"""

from __future__ import annotations

import enum
import math
import sys
from dataclasses import dataclass

from .errors import DomainError, InputError, RangeError, SingularityError

__all__ = [
    "Interval",
    "Tristate",
    "iadd",
    "isub",
    "imul",
    "idiv",
    "iexp",
    "ilog",
    "ilog1p",
    "isqrt",
    "isq",
    "certainly_le",
]

_INF = math.inf

# Widening steps: arithmetic results are correctly rounded (1/2 ulp error),
# elementary libm maps are assumed possibly 1-2 ulp off; both get a margin
# of safety on top.
_ARITH_STEPS = 2
_MAP_STEPS = 4


class Tristate(enum.Enum):
    """Outcome of an interval comparison: proven, refuted, or undecided."""

    TRUE = "TRUE"
    FALSE = "FALSE"
    UNKNOWN = "UNKNOWN"


def _endpoint(value: object) -> float:
    """``value`` if a float, or an ``int`` (not ``bool``) converted exactly."""
    # int == float and int <= float compare exactly.
    if isinstance(value, float) or (
        type(value) is int and abs(value) <= sys.float_info.max and float(value) == value
    ):
        return float(value)
    # repr() refuses ints of more than 4300 digits.
    got = f"an int of {value.bit_length()} bits" if type(value) is int else repr(value)
    raise InputError(
        f"interval endpoints must be floats or ints equal to one, got {got}"
    )


def _lift(value: object) -> "Interval":
    return value if isinstance(value, Interval) else Interval.point(value)


@dataclass(frozen=True)
class Interval:
    """A closed interval ``[lo, hi]`` with finite binary64 endpoints.

    Degenerate intervals (``lo == hi``) represent exactly known values.
    Construction validates the endpoints (see the module docstring), their
    finiteness and their order; the functions and operators of this module
    are the intended way to derive new intervals.
    """

    lo: float
    hi: float

    def __post_init__(self) -> None:
        lo, hi = self.lo, self.hi
        if type(lo) is not float or type(hi) is not float:
            lo, hi = _endpoint(lo), _endpoint(hi)
            object.__setattr__(self, "lo", lo)
            object.__setattr__(self, "hi", hi)
        if not (math.isfinite(lo) and math.isfinite(hi)):
            raise RangeError(f"interval endpoints must be finite, got [{lo}, {hi}]")
        if lo > hi:
            raise InputError(f"interval endpoints out of order: [{lo}, {hi}]")

    @classmethod
    def point(cls, x: float) -> "Interval":
        """Degenerate interval containing exactly the endpoint ``x``."""
        return cls(x, x)

    def width(self) -> float:
        return self.hi - self.lo

    def contains(self, x: float) -> bool:
        return self.lo <= x <= self.hi

    def __repr__(self) -> str:  # compact, unambiguous
        return f"Interval({self.lo!r}, {self.hi!r})"

    def __add__(self, other: object) -> "Interval":
        return iadd(self, _lift(other))

    __radd__ = __add__

    def __sub__(self, other: object) -> "Interval":
        return isub(self, _lift(other))

    def __rsub__(self, other: object) -> "Interval":
        return isub(_lift(other), self)

    def __mul__(self, other: object) -> "Interval":
        if other is self:
            return isq(self)
        return imul(self, _lift(other))

    __rmul__ = __mul__

    def __truediv__(self, other: object) -> "Interval":
        return idiv(self, _lift(other))

    def __rtruediv__(self, other: object) -> "Interval":
        return idiv(_lift(other), self)

    def __neg__(self) -> "Interval":
        return Interval(-self.hi, -self.lo)


def _down(x: float, steps: int) -> float:
    """Step ``x`` toward -inf ``steps`` times (outward for a lower bound)."""
    for _ in range(steps):
        x = math.nextafter(x, -_INF)
    return x


def _up(x: float, steps: int) -> float:
    """Step ``x`` toward +inf ``steps`` times (outward for an upper bound)."""
    for _ in range(steps):
        x = math.nextafter(x, _INF)
    return x


def _mk(lo: float, hi: float) -> Interval:
    """Build a result interval, translating overflow into RangeError."""
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise RangeError(f"interval operation overflowed: [{lo}, {hi}]")
    return Interval(lo, hi)


def iadd(x: Interval, y: Interval) -> Interval:
    """Interval sum ``x + y`` with outward rounding."""
    return _mk(_down(x.lo + y.lo, _ARITH_STEPS), _up(x.hi + y.hi, _ARITH_STEPS))


def isub(x: Interval, y: Interval) -> Interval:
    """Interval difference ``x - y`` with outward rounding."""
    return _mk(_down(x.lo - y.hi, _ARITH_STEPS), _up(x.hi - y.lo, _ARITH_STEPS))


def imul(x: Interval, y: Interval) -> Interval:
    """Interval product ``x * y`` with outward rounding."""
    cands = (x.lo * y.lo, x.lo * y.hi, x.hi * y.lo, x.hi * y.hi)
    return _mk(_down(min(cands), _ARITH_STEPS), _up(max(cands), _ARITH_STEPS))


def idiv(x: Interval, y: Interval) -> Interval:
    """Interval quotient ``x / y``; ``y`` must not contain zero."""
    if y.lo <= 0.0 <= y.hi:
        raise SingularityError(f"division by an interval containing zero: {y}")
    cands = (x.lo / y.lo, x.lo / y.hi, x.hi / y.lo, x.hi / y.hi)
    return _mk(_down(min(cands), _ARITH_STEPS), _up(max(cands), _ARITH_STEPS))


def iexp(x: Interval) -> Interval:
    """Interval exponential.  Underflow flushes the lower endpoint to zero
    (``exp`` is positive, so ``[0, tiny]`` still contains the true value);
    overflow raises :class:`RangeError`."""
    try:
        raw_lo = math.exp(x.lo)
        raw_hi = math.exp(x.hi)
    except OverflowError as exc:
        raise RangeError(f"exp overflowed on {x}") from exc
    lo = max(0.0, _down(raw_lo, _MAP_STEPS))
    hi = _up(raw_hi, _MAP_STEPS)
    return _mk(lo, hi)


def ilog(x: Interval) -> Interval:
    """Interval natural logarithm; requires ``x.lo > 0``."""
    if x.lo <= 0.0:
        raise DomainError(f"log requires a strictly positive interval, got {x}")
    return _mk(_down(math.log(x.lo), _MAP_STEPS), _up(math.log(x.hi), _MAP_STEPS))


def ilog1p(x: Interval) -> Interval:
    """Interval ``log(1 + x)``; requires ``x.lo > -1``."""
    if x.lo <= -1.0:
        raise DomainError(f"log1p requires an interval above -1, got {x}")
    return _mk(_down(math.log1p(x.lo), _MAP_STEPS), _up(math.log1p(x.hi), _MAP_STEPS))


def isqrt(x: Interval) -> Interval:
    """Interval square root; requires ``x.lo >= 0``."""
    if x.lo < 0.0:
        raise DomainError(f"sqrt requires a nonnegative interval, got {x}")
    lo = max(0.0, _down(math.sqrt(x.lo), _MAP_STEPS))
    hi = _up(math.sqrt(x.hi), _MAP_STEPS)
    return _mk(lo, hi)


def isq(x: Interval) -> Interval:
    """Interval square ``x**2``, split at zero so the result is sharp on
    sign-definite inputs and ``[0, max]`` on straddling inputs."""
    a, b = x.lo, x.hi
    if a >= 0.0:
        raw_lo, raw_hi = a * a, b * b
    elif b <= 0.0:
        raw_lo, raw_hi = b * b, a * a
    else:
        raw_lo, raw_hi = 0.0, max(a * a, b * b)
    lo = max(0.0, _down(raw_lo, _MAP_STEPS))
    hi = _up(raw_hi, _MAP_STEPS)
    return _mk(lo, hi)


def certainly_le(x: Interval, y: Interval) -> Tristate:
    """Three-valued ``x <= y``.

    ``TRUE``  iff every value of ``x`` is <= every value of ``y``
    (``x.hi <= y.lo``); ``FALSE`` iff every value of ``x`` exceeds every
    value of ``y`` (``x.lo > y.hi``); ``UNKNOWN`` otherwise.
    """
    if x.hi <= y.lo:
        return Tristate.TRUE
    if x.lo > y.hi:
        return Tristate.FALSE
    return Tristate.UNKNOWN
