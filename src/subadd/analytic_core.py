"""Evaluation of the working function family and its gap functional.

The family under study is ``f = g + alpha * (h - h(0))`` where

- ``g(x) = |x| + log(1 + |x|)`` is an even, strictly increasing *base
  profile* with ``g(0) = 0``;
- ``h(x) = exp(-(((|x| - mu) / sigma) ** 2))`` is an even *ring bump*: a
  smooth bump of height 1 located a distance ``mu`` from the origin on
  both sides, with width scale ``sigma``;
- ``alpha > 0`` scales the bump, and subtracting ``h(0)`` pins ``f(0) = 0``.

For an order ``a > 0``, the *gap functional* of a function ``w`` is::

    gap_a(x, y) = a * w(x) + w(y) - w(a * x + y)

``w`` is a-subadditive exactly when its gap is nonnegative everywhere, so a
*negative* gap value is a concrete violation witness and ``-gap`` is the
violation margin.

The plane splits into three (overlapping, closed) regions used by the
certificate module:

- outer region  A: ``|x| >= 1/2``;
- small region  B: ``2|x| + |y| <= 1``;
- mixed region  C: ``|x| <= 1/2`` and ``2|x| + |y| >= 1``.

Their union is the whole plane.  Helper profiles for the certificate:
``phi(z) = (4 z^2 - 2) exp(-z^2)`` (the bump's second-derivative profile),
``lambda(z) = 2 log(1+z) - log(1+2z)`` (the base profile's order-2 gap
along ``y = 0``), ``psi(z) = log((1+z)^2 (1-z))`` (a lower bound for the
base profile's gap in the mixed region), and the constant
``C = lambda(1/2) = log(9/8)``.

Float64 evaluation here is the single source of truth for the scan kernels:
both the compiled and the fallback kernel reproduce these exact expression
trees, so argument-for-argument they agree with :func:`eval_f` bit-for-bit
modulo (at most) last-ulp differences in vectorised ``exp``.

:class:`HighPrecision` mirrors every evaluation in arbitrary-precision
arithmetic (128 bits minimum).  Parameters are binary64 by design: the
high-precision path lifts the *exact* double values, so both paths evaluate
the same mathematical function and differ only in evaluation error.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Union

import mpmath

from .errors import DomainError, InputError, require_int

__all__ = [
    "Params",
    "Point",
    "RegionFlags",
    "Order",
    "HighPrecision",
    "eval_g",
    "eval_h",
    "eval_f",
    "eval_phi",
    "eval_lambda",
    "eval_psi",
    "eval_C",
    "gap",
    "classify_region",
    "f_prime",
    "h_prime",
    "h_second",
    "GAP_FUNCTION_HANDLES",
]

#: Valid ``fn`` handles for :func:`gap`: the full function, the base
#: profile alone, the raw bump, and the pinned bump ``h - h(0)``.
GAP_FUNCTION_HANDLES = ("f", "g", "h", "h-h0")


def _as_float(value: object, what: str) -> float:
    try:
        out = float(value)  # type: ignore[arg-type]
    except (TypeError, ValueError) as exc:
        raise InputError(f"{what} must be a real number, got {value!r}") from exc
    return out


@dataclass(frozen=True)
class Params:
    """Parameters ``(mu, sigma, alpha)`` of the family; all strictly
    positive finite binary64 values.

    ``mu``    -- distance of the ring bump from the origin;
    ``sigma`` -- width scale of the bump;
    ``alpha`` -- height scale applied to the pinned bump.
    """

    mu: float
    sigma: float
    alpha: float

    def __post_init__(self) -> None:
        for name in ("mu", "sigma", "alpha"):
            val = _as_float(getattr(self, name), name)
            object.__setattr__(self, name, val)
            if not math.isfinite(val) or val <= 0.0:
                raise InputError(f"{name} must be finite and > 0, got {val}")


@dataclass(frozen=True)
class Point:
    """A point ``(x, y)`` of the plane with finite coordinates."""

    x: float
    y: float

    def __post_init__(self) -> None:
        for name in ("x", "y"):
            val = _as_float(getattr(self, name), name)
            object.__setattr__(self, name, val)
            if not math.isfinite(val):
                raise InputError(f"{name} must be finite, got {val}")


@dataclass(frozen=True)
class RegionFlags:
    """Membership flags of a plane point in the three closed regions.

    The regions overlap on their boundaries and cover the plane, so at
    least one flag is always set.
    """

    in_A: bool
    in_B: bool
    in_C: bool


@dataclass(frozen=True)
class Order:
    """The order ``a > 0`` of the subadditivity inequality
    ``f(a*x + y) <= a*f(x) + f(y)``."""

    a: float

    def __post_init__(self) -> None:
        val = _as_float(self.a, "a")
        object.__setattr__(self, "a", val)
        if not math.isfinite(val) or val <= 0.0:
            raise InputError(f"order a must be finite and > 0, got {val}")


OrderLike = Union[Order, float, int]


def order_value(a: OrderLike) -> float:
    """Normalise an order given as :class:`Order` or a bare number."""
    if isinstance(a, Order):
        return a.a
    return Order(_as_float(a, "a")).a


def _require_finite(value: float, what: str) -> float:
    value = _as_float(value, what)
    if not math.isfinite(value):
        raise InputError(f"{what} must be finite, got {value}")
    return value


def _require_params(p: Optional[Params]) -> Params:
    if not isinstance(p, Params):
        raise InputError(f"params must be a Params instance, got {p!r}")
    return p


# ---------------------------------------------------------------------------
# float64 evaluation
# ---------------------------------------------------------------------------


def eval_g(x: float) -> float:
    """Base profile ``g(x) = |x| + log(1 + |x|)``.

    Even, ``g(0) = 0``, strictly increasing in ``|x|``, and 1-subadditive
    (its order-1 gap is nonnegative everywhere).
    """
    ax = abs(_require_finite(x, "x"))
    return ax + math.log1p(ax)


def eval_h(x: float, p: Params) -> float:
    """Ring bump ``h(x) = exp(-(((|x| - mu) / sigma) ** 2))``.

    Even, valued in ``(0, 1]``, peaking at ``|x| = mu``.  For very distant
    ring positions (``mu / sigma`` beyond roughly 27) the value at the
    origin falls below the smallest positive double and flushes to zero;
    for all parameter scales used in practice it is a normal number.
    """
    p = _require_params(p)
    ax = abs(_require_finite(x, "x"))
    z = (ax - p.mu) / p.sigma
    return math.exp(-(z * z))


def eval_f(x: float, p: Params) -> float:
    """Working function ``f(x) = g(x) + alpha * (h(x) - h(0))``.

    Even, continuous, ``f(0) = 0``.
    """
    p = _require_params(p)
    return eval_g(x) + p.alpha * (eval_h(x, p) - eval_h(0.0, p))


def eval_phi(z: float) -> float:
    """Second-derivative profile of the bump:
    ``phi(z) = (4 z^2 - 2) * exp(-z^2)`` for ``z >= 0``.

    Negative on ``[0, 1/sqrt(2))``, zero at ``1/sqrt(2)``, positive
    beyond; ``phi(0) = -2`` is its minimum.
    """
    z = _require_finite(z, "z")
    if z < 0.0:
        raise DomainError(f"phi requires z >= 0, got {z}")
    return (4.0 * (z * z) - 2.0) * math.exp(-(z * z))


def eval_lambda(z: float) -> float:
    """Order-2 gap of the base profile along ``y = 0``:
    ``lambda(z) = 2 log(1+z) - log(1+2z)`` for ``z >= 0``.

    Nonnegative and nondecreasing, ``lambda(0) = 0``.
    """
    z = _require_finite(z, "z")
    if z < 0.0:
        raise DomainError(f"lambda requires z >= 0, got {z}")
    return 2.0 * math.log1p(z) - math.log1p(2.0 * z)


def eval_psi(z: float) -> float:
    """Mixed-region minorant of the base profile's order-2 gap:
    ``psi(z) = log((1+z)^2 * (1-z))`` for ``0 <= z < 1``.

    Computed as ``2 log1p(z) + log1p(-z)``.  Note ``psi(z) = z - (3/2) z^2
    + O(z^3)``, so psi grows strictly *slower* than ``2 z`` near zero; see
    the README's "Known discrepancies" for the consequences.
    """
    z = _require_finite(z, "z")
    if not 0.0 <= z < 1.0:
        raise DomainError(f"psi requires 0 <= z < 1, got {z}")
    return 2.0 * math.log1p(z) + math.log1p(-z)


def eval_C() -> float:
    """The constant ``C = lambda(1/2) = log(9/8)``, computed as
    ``log(1.125)`` (1.125 is exact in binary64)."""
    return math.log(1.125)


def _w_factory(fn: str, p: Optional[Params]):
    """Resolve a gap-function handle to a unary float64 evaluator."""
    if fn == "g":
        return eval_g
    if fn not in GAP_FUNCTION_HANDLES:
        raise InputError(
            f"unknown function handle {fn!r}; expected one of "
            f"{GAP_FUNCTION_HANDLES}"
        )
    pp = _require_params(p)
    if fn == "f":
        return lambda t: eval_f(t, pp)
    if fn == "h":
        return lambda t: eval_h(t, pp)
    # fn == "h-h0": the pinned bump
    return lambda t: eval_h(t, pp) - eval_h(0.0, pp)


def gap(a: OrderLike, fn: str, x: float, y: float, p: Optional[Params] = None) -> float:
    """Gap functional ``a * w(x) + w(y) - w(a*x + y)`` in float64.

    ``fn`` selects ``w``: ``"f"``, ``"g"``, ``"h"``, or ``"h-h0"``;
    ``p`` is required for every handle except ``"g"``.  A nonnegative gap
    at all points is equivalent to ``w`` being a-subadditive; a negative
    value is a violation with margin ``-gap``.
    """
    av = order_value(a)
    x = _require_finite(x, "x")
    y = _require_finite(y, "y")
    w = _w_factory(fn, p)
    s = av * x + y
    if not math.isfinite(s):
        raise InputError(f"a*x + y overflowed for a={av}, x={x}, y={y}")
    return (av * w(x) + w(y)) - w(s)


def classify_region(x: float, y: float) -> RegionFlags:
    """Membership of ``(x, y)`` in the closed regions A, B, C.

    A: ``|x| >= 1/2``; B: ``2|x| + |y| <= 1``; C: ``|x| <= 1/2`` and
    ``2|x| + |y| >= 1``.  All inequalities non-strict; the union covers
    the plane.
    """
    ax = abs(_require_finite(x, "x"))
    ay = abs(_require_finite(y, "y"))
    s = 2.0 * ax + ay
    return RegionFlags(in_A=ax >= 0.5, in_B=s <= 1.0, in_C=(ax <= 0.5 and s >= 1.0))


def f_prime(t: float, p: Params) -> float:
    """Derivative of the working function on ``t > 0``:
    ``f'(t) = 1 + 1/(1+t) + (2 alpha / sigma^2) (mu - t) h(t)``.

    (``f`` is even with a kink at 0, so only the positive axis is exposed;
    use oddness ``f'(-t) = -f'(t)`` if needed.)
    """
    p = _require_params(p)
    t = _require_finite(t, "t")
    if t <= 0.0:
        raise DomainError(f"f_prime requires t > 0, got {t}")
    return (
        1.0
        + 1.0 / (1.0 + t)
        + 2.0 * p.alpha * (p.mu - t) * eval_h(t, p) / (p.sigma * p.sigma)
    )


def h_prime(x: float, p: Params) -> float:
    """Derivative of the bump on ``x > 0``:
    ``h'(x) = 2 h(x) (mu - x) / sigma^2``.

    Bounded in magnitude by ``sqrt(2/e) / sigma``; extend oddly for
    ``x < 0`` (the bump has a kink at 0 whenever ``mu > 0``).
    """
    p = _require_params(p)
    x = _require_finite(x, "x")
    if x <= 0.0:
        raise DomainError(f"h_prime requires x > 0, got {x}")
    return 2.0 * eval_h(x, p) * (p.mu - x) / (p.sigma * p.sigma)


def h_second(x: float, p: Params) -> float:
    """Second derivative of the bump away from the kink (``x != 0``):
    ``h''(x) = phi(||x| - mu| / sigma) / sigma^2``."""
    p = _require_params(p)
    x = _require_finite(x, "x")
    if x == 0.0:
        raise DomainError("h_second is undefined at the kink x = 0")
    z = abs(abs(x) - p.mu) / p.sigma
    return eval_phi(z) / (p.sigma * p.sigma)


# ---------------------------------------------------------------------------
# high-precision mirror
# ---------------------------------------------------------------------------


class HighPrecision:
    """Arbitrary-precision mirror of the float64 evaluators.

    All arithmetic runs at ``prec_bits`` bits of mantissa (128 minimum) via
    mpmath.  Floating-point inputs are lifted exactly (every binary64 value
    is exactly representable), so results differ from the float64 path only
    by that path's rounding error.  Methods return ``mpmath.mpf`` values;
    convert with ``float(...)`` when a double is wanted.
    """

    def __init__(self, prec_bits: int = 128) -> None:
        self.prec_bits = require_int(prec_bits, "prec_bits", 128)

    # -- lifting -----------------------------------------------------------

    @staticmethod
    def _lift(x: float, what: str) -> mpmath.mpf:
        return mpmath.mpf(_require_finite(x, what))

    # -- mp-native cores (arguments already mpf, precision already set) -----

    @staticmethod
    def _g_mp(t):
        at = abs(t)
        return at + mpmath.log1p(at)

    @staticmethod
    def _h_mp(t, p: Params):
        z = (abs(t) - mpmath.mpf(p.mu)) / mpmath.mpf(p.sigma)
        return mpmath.exp(-(z * z))

    def _f_mp(self, t, p: Params):
        return self._g_mp(t) + mpmath.mpf(p.alpha) * (
            self._h_mp(t, p) - self._h_mp(mpmath.mpf(0), p)
        )

    # -- evaluators --------------------------------------------------------

    def eval_g(self, x: float):
        with mpmath.workprec(self.prec_bits):
            return self._g_mp(self._lift(x, "x"))

    def eval_h(self, x: float, p: Params):
        p = _require_params(p)
        with mpmath.workprec(self.prec_bits):
            return self._h_mp(self._lift(x, "x"), p)

    def eval_f(self, x: float, p: Params):
        p = _require_params(p)
        with mpmath.workprec(self.prec_bits):
            return self._f_mp(self._lift(x, "x"), p)

    def eval_phi(self, z: float):
        zf = _require_finite(z, "z")
        if zf < 0.0:
            raise DomainError(f"phi requires z >= 0, got {zf}")
        with mpmath.workprec(self.prec_bits):
            zz = mpmath.mpf(zf)
            return (4 * zz * zz - 2) * mpmath.exp(-(zz * zz))

    def eval_lambda(self, z: float):
        zf = _require_finite(z, "z")
        if zf < 0.0:
            raise DomainError(f"lambda requires z >= 0, got {zf}")
        with mpmath.workprec(self.prec_bits):
            zz = mpmath.mpf(zf)
            return 2 * mpmath.log1p(zz) - mpmath.log1p(2 * zz)

    def eval_psi(self, z: float):
        zf = _require_finite(z, "z")
        if not 0.0 <= zf < 1.0:
            raise DomainError(f"psi requires 0 <= z < 1, got {zf}")
        with mpmath.workprec(self.prec_bits):
            zz = mpmath.mpf(zf)
            return 2 * mpmath.log1p(zz) + mpmath.log1p(-zz)

    def eval_C(self):
        with mpmath.workprec(self.prec_bits):
            return mpmath.log(mpmath.mpf(9) / 8)

    def gap(self, a: OrderLike, fn: str, x: float, y: float, p: Optional[Params] = None):
        av = order_value(a)
        xf = _require_finite(x, "x")
        yf = _require_finite(y, "y")
        if fn not in GAP_FUNCTION_HANDLES:
            raise InputError(
                f"unknown function handle {fn!r}; expected one of "
                f"{GAP_FUNCTION_HANDLES}"
            )
        if fn != "g":
            p = _require_params(p)

        def w(t):  # t is an mpf; never demote to float64
            if fn == "g":
                return self._g_mp(t)
            if fn == "f":
                return self._f_mp(t, p)
            if fn == "h":
                return self._h_mp(t, p)
            return self._h_mp(t, p) - self._h_mp(mpmath.mpf(0), p)

        with mpmath.workprec(self.prec_bits):
            aa = mpmath.mpf(av)
            xx = mpmath.mpf(xf)
            yy = mpmath.mpf(yf)
            s = aa * xx + yy
            return (aa * w(xx) + w(yy)) - w(s)

    def f_prime(self, t: float, p: Params):
        p = _require_params(p)
        tf = _require_finite(t, "t")
        if tf <= 0.0:
            raise DomainError(f"f_prime requires t > 0, got {tf}")
        with mpmath.workprec(self.prec_bits):
            tt = mpmath.mpf(tf)
            sig = mpmath.mpf(p.sigma)
            return (
                1
                + 1 / (1 + tt)
                + 2 * mpmath.mpf(p.alpha) * (mpmath.mpf(p.mu) - tt)
                * self.eval_h(tf, p) / (sig * sig)
            )

    def h_prime(self, x: float, p: Params):
        p = _require_params(p)
        xf = _require_finite(x, "x")
        if xf <= 0.0:
            raise DomainError(f"h_prime requires x > 0, got {xf}")
        with mpmath.workprec(self.prec_bits):
            sig = mpmath.mpf(p.sigma)
            return (
                2 * self.eval_h(xf, p) * (mpmath.mpf(p.mu) - mpmath.mpf(xf))
                / (sig * sig)
            )

    def h_second(self, x: float, p: Params):
        p = _require_params(p)
        xf = _require_finite(x, "x")
        if xf == 0.0:
            raise DomainError("h_second is undefined at the kink x = 0")
        with mpmath.workprec(self.prec_bits):
            sig = mpmath.mpf(p.sigma)
            z = abs(abs(mpmath.mpf(xf)) - mpmath.mpf(p.mu)) / sig
            return (4 * z * z - 2) * mpmath.exp(-(z * z)) / (sig * sig)
