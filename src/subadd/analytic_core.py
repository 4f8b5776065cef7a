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

Each formula (``g``, ``h``, ``f``, ``phi``, ``lambda``, ``psi``, ``f'``,
``h'``, ``h''``, ``g''``, ``f''`` and the gap) is one private expression
tree over a numeric namespace, and one tree serves all four: ``math``
for the public float64 functions and the polish in :mod:`subadd.search`,
``numpy`` for its scan kernel, ``mpmath`` for :class:`HighPrecision`,
and :mod:`subadd.intervals` (``exp=iexp``, ``log1p=ilog1p``, with
:class:`~subadd.intervals.Interval` operands) for the certificate in
:mod:`subadd.certificate`, which evaluates ``h(0)``, ``phi`` and ``C``
with them, and for :mod:`subadd.statement_oracles`, which encloses
``f'``, ``f''``, ``g''`` and ``h''`` over intervals of ``x``.  A
namespace needs only ``exp`` and ``log1p``, and its numbers ``+ - * /``
and ``abs``.

The public functions and the high-precision methods share their
validation as well, so they accept and reject exactly the same arguments.

:class:`HighPrecision` evaluates in arbitrary-precision arithmetic (128
bits minimum).  Parameters are binary64 by design: the high-precision path
lifts the *exact* double values, so both paths evaluate the same
mathematical function and differ only in evaluation error.

This module imports neither numpy nor mpmath: :mod:`subadd.search` loads
numpy on its first scan, and :class:`HighPrecision` loads mpmath on its
first evaluation.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import Optional, Union

from .errors import (
    DomainError,
    InputError,
    RangeError,
    describe,
    require_finite,
    require_instance,
    require_int,
    require_positive,
)

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
    "MIN_PREC_BITS",
    "MAX_PREC_BITS",
]

#: Valid ``fn`` handles for :func:`gap`: the full function, the base
#: profile alone, the raw bump, and the pinned bump ``h - h(0)``.
GAP_FUNCTION_HANDLES = ("f", "g", "h", "h-h0")

#: Smallest accepted working precision of :class:`HighPrecision`, in bits
#: of mantissa.
MIN_PREC_BITS = 128
#: Largest accepted working precision.  A :func:`~subadd.search.verify_point`
#: at the cap takes about 2.5 s, and one at four times it about 30 s (2-core
#: Xeon VM); from ``10**400`` bits on, mpmath fails with ``OverflowError``.
MAX_PREC_BITS = 65_536


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
            object.__setattr__(self, name, require_positive(getattr(self, name), name))


@dataclass(frozen=True)
class Point:
    """A point ``(x, y)`` of the plane with finite coordinates."""

    x: float
    y: float

    def __post_init__(self) -> None:
        for name in ("x", "y"):
            object.__setattr__(self, name, require_finite(getattr(self, name), name))


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
        object.__setattr__(self, "a", require_positive(self.a, "order a"))


OrderLike = Union[Order, float, int]


def order_value(a: OrderLike) -> float:
    """Normalise an order given as :class:`Order` or a bare number."""
    if isinstance(a, Order):
        return a.a
    return Order(a).a


def _float64_sigma(p: Params, fn: str) -> float:
    """``p.sigma`` for a float64 derivative, which divides by ``sigma**2``:
    :class:`RangeError` when that square is not a normal double."""
    if p.sigma * p.sigma < sys.float_info.min:
        raise RangeError(
            f"{fn}: sigma**2 underflows in float64 for sigma={p.sigma!r}; "
            f"use HighPrecision"
        )
    return p.sigma


def _require_z(z: float, fn: str, below: float = math.inf) -> float:
    """The argument of phi and lambda (``z >= 0``) or of psi (``0 <= z < 1``)."""
    z = require_finite(z, "z")
    if not 0.0 <= z < below:
        rule = "z >= 0" if below == math.inf else "0 <= z < 1"
        raise DomainError(f"{fn} requires {rule}, got {z}")
    return z


def _require_positive(t: float, p: Optional[Params], fn: str, what: str):
    """``(t, p)`` for f_prime and h_prime, defined on ``t > 0``."""
    p = require_instance(p, Params, "params")
    t = require_finite(t, what)
    if t <= 0.0:
        raise DomainError(f"{fn} requires {what} > 0, got {t}")
    return t, p


def _require_off_kink(x: float, p: Optional[Params]):
    """``(x, p)`` for h_second, defined for ``x != 0``."""
    p = require_instance(p, Params, "params")
    x = require_finite(x, "x")
    if x == 0.0:
        raise DomainError("h_second is undefined at the kink x = 0")
    return x, p


def _require_gap_args(a: OrderLike, fn: str, x: float, y: float, p: Optional[Params]):
    """``(a, x, y, q)`` for a gap; ``q`` is ``(mu, sigma, alpha)``, or
    empty for the handle ``"g"``, which ignores ``p``.  ``a*x + y`` must
    be finite in float64."""
    av = order_value(a)
    x = require_finite(x, "x")
    y = require_finite(y, "y")
    if fn not in GAP_FUNCTION_HANDLES:
        raise InputError(
            f"unknown function handle {describe(fn)}; expected one of "
            f"{GAP_FUNCTION_HANDLES}"
        )
    q = ()
    if fn != "g":
        p = require_instance(p, Params, "params")
        q = (p.mu, p.sigma, p.alpha)
    if not math.isfinite(av * x + y):
        raise InputError(f"a*x + y overflowed for a={av}, x={x}, y={y}")
    return av, x, y, q


# ---------------------------------------------------------------------------
# expression trees
# ---------------------------------------------------------------------------
# Each formula is written once, without validation, over the numeric
# namespace ``lib``: ``math`` for float64 scalars, ``numpy`` for the scan
# kernel's arrays, ``mpmath`` for HighPrecision, whose arguments and
# parameters are mpf at the working precision, and an interval namespace
# for the certificate and the statement oracles, whose parameters are
# Intervals.  The even profiles take ``r = |t|``.


def _g(lib, r):
    return r + lib.log1p(r)


def _h(lib, r, mu, sigma):
    z = (r - mu) / sigma
    return lib.exp(-(z * z))


def _f(lib, r, mu, sigma, alpha, h0):
    # g and h stay bound until the sum: on the kernel's tiles of 801 and
    # more columns this runs 10-15% faster than one nested expression
    # (same operations and bits; 2-core Xeon VM).
    g = _g(lib, r)
    h = _h(lib, r, mu, sigma)
    return g + alpha * (h - h0)


def _phi(lib, z):
    return (4.0 * (z * z) - 2.0) * lib.exp(-(z * z))


def _lambda(lib, z):
    return 2.0 * lib.log1p(z) - lib.log1p(2.0 * z)


def _psi(lib, z):
    return 2.0 * lib.log1p(z) + lib.log1p(-z)


def _f_prime(lib, t, mu, sigma, alpha):
    return 1.0 + 1.0 / (1.0 + t) + 2.0 * alpha * (mu - t) * _h(lib, t, mu, sigma) / (
        sigma * sigma
    )


def _h_prime(lib, x, mu, sigma):
    return 2.0 * _h(lib, x, mu, sigma) * (mu - x) / (sigma * sigma)


def _h_second(lib, x, mu, sigma):
    return _phi(lib, abs(abs(x) - mu) / sigma) / (sigma * sigma)


def _g_second(lib, r):
    return -1.0 / ((1.0 + r) * (1.0 + r))


def _f_second(lib, r, mu, sigma, alpha):
    return _g_second(lib, r) + alpha * _h_second(lib, r, mu, sigma)


def _evaluator(lib, fn: str, mu=None, sigma=None, alpha=None):
    """The unary ``w(t)`` of a handle in :data:`GAP_FUNCTION_HANDLES`;
    ``h(0)`` is computed once, here."""
    if fn == "g":
        return lambda t: _g(lib, abs(t))
    if fn == "h":
        return lambda t: _h(lib, abs(t), mu, sigma)
    h0 = _h(lib, 0.0, mu, sigma)
    if fn == "f":
        return lambda t: _f(lib, abs(t), mu, sigma, alpha, h0)
    return lambda t: _h(lib, abs(t), mu, sigma) - h0


def _gap(a, w, x, y):
    return (a * w(x) + w(y)) - w(a * x + y)


def _phi_float64(value: float) -> float:
    """A float64 value of ``phi(z)`` or of ``h'' = phi(z) / sigma**2``,
    with NaN read as ``+0.0``.

    The trees give NaN exactly when ``z * z`` overflows, as ``inf * 0``.
    There both values lie far below the smallest subnormal (``phi`` does
    from ``z`` about 27.5 on), so ``+0.0`` is the correctly rounded one."""
    return 0.0 if math.isnan(value) else value


# ---------------------------------------------------------------------------
# float64 evaluation
# ---------------------------------------------------------------------------


def eval_g(x: float) -> float:
    """Base profile ``g(x) = |x| + log(1 + |x|)``.

    Even, ``g(0) = 0``, strictly increasing in ``|x|``, and 1-subadditive
    (its order-1 gap is nonnegative everywhere).
    """
    return _g(math, abs(require_finite(x, "x")))


def eval_h(x: float, p: Params) -> float:
    """Ring bump ``h(x) = exp(-(((|x| - mu) / sigma) ** 2))``.

    Even, valued in ``(0, 1]``, peaking at ``|x| = mu``.  For very distant
    ring positions (``mu / sigma`` beyond roughly 27) the value at the
    origin falls below the smallest positive double and flushes to zero;
    for all parameter scales used in practice it is a normal number.
    """
    p = require_instance(p, Params, "params")
    return _h(math, abs(require_finite(x, "x")), p.mu, p.sigma)


def eval_f(x: float, p: Params) -> float:
    """Working function ``f(x) = g(x) + alpha * (h(x) - h(0))``.

    Even, continuous, ``f(0) = 0``.
    """
    p = require_instance(p, Params, "params")
    r = abs(require_finite(x, "x"))
    return _f(math, r, p.mu, p.sigma, p.alpha, _h(math, 0.0, p.mu, p.sigma))


def eval_phi(z: float) -> float:
    """Second-derivative profile of the bump:
    ``phi(z) = (4 z^2 - 2) * exp(-z^2)`` for ``z >= 0``.

    Negative on ``[0, 1/sqrt(2))``, zero at ``1/sqrt(2)``, positive
    beyond; ``phi(0) = -2`` is its minimum.
    """
    return _phi_float64(_phi(math, _require_z(z, "phi")))


def eval_lambda(z: float) -> float:
    """Order-2 gap of the base profile along ``y = 0``:
    ``lambda(z) = 2 log(1+z) - log(1+2z)`` for ``z >= 0``.

    Nonnegative and nondecreasing, ``lambda(0) = 0``.
    """
    return _lambda(math, _require_z(z, "lambda"))


def eval_psi(z: float) -> float:
    """Mixed-region minorant of the base profile's order-2 gap:
    ``psi(z) = log((1+z)^2 * (1-z))`` for ``0 <= z < 1``.

    Computed as ``2 log1p(z) + log1p(-z)``.  Note ``psi(z) = z - (3/2) z^2
    + O(z^3)``, so psi grows strictly *slower* than ``2 z`` near zero; see
    the README's "Known discrepancies" for the consequences.
    """
    return _psi(math, _require_z(z, "psi", 1.0))


def eval_C() -> float:
    """The constant ``C = lambda(1/2) = log(9/8)``, computed as
    ``log(1.125)`` (1.125 is exact in binary64)."""
    return math.log(1.125)


def gap(a: OrderLike, fn: str, x: float, y: float, p: Optional[Params] = None) -> float:
    """Gap functional ``a * w(x) + w(y) - w(a*x + y)`` in float64.

    ``fn`` selects ``w``: ``"f"``, ``"g"``, ``"h"``, or ``"h-h0"``;
    ``p`` is required for every handle except ``"g"``.  A nonnegative gap
    at all points is equivalent to ``w`` being a-subadditive; a negative
    value is a violation with margin ``-gap``.
    """
    av, x, y, q = _require_gap_args(a, fn, x, y, p)
    return _gap(av, _evaluator(math, fn, *q), x, y)


def classify_region(x: float, y: float) -> RegionFlags:
    """Membership of ``(x, y)`` in the closed regions A, B, C.

    A: ``|x| >= 1/2``; B: ``2|x| + |y| <= 1``; C: ``|x| <= 1/2`` and
    ``2|x| + |y| >= 1``.  All inequalities non-strict; the union covers
    the plane.
    """
    ax = abs(require_finite(x, "x"))
    ay = abs(require_finite(y, "y"))
    s = 2.0 * ax + ay
    return RegionFlags(in_A=ax >= 0.5, in_B=s <= 1.0, in_C=(ax <= 0.5 and s >= 1.0))


def f_prime(t: float, p: Params) -> float:
    """Derivative of the working function on ``t > 0``:
    ``f'(t) = 1 + 1/(1+t) + (2 alpha / sigma^2) (mu - t) h(t)``.

    (``f`` is even with a kink at 0, so only the positive axis is exposed;
    use oddness ``f'(-t) = -f'(t)`` if needed.)
    """
    t, p = _require_positive(t, p, "f_prime", "t")
    return _f_prime(math, t, p.mu, _float64_sigma(p, "f_prime"), p.alpha)


def h_prime(x: float, p: Params) -> float:
    """Derivative of the bump on ``x > 0``:
    ``h'(x) = 2 h(x) (mu - x) / sigma^2``.

    Bounded in magnitude by ``sqrt(2/e) / sigma``; extend oddly for
    ``x < 0`` (the bump has a kink at 0 whenever ``mu > 0``).
    """
    x, p = _require_positive(x, p, "h_prime", "x")
    return _h_prime(math, x, p.mu, _float64_sigma(p, "h_prime"))


def h_second(x: float, p: Params) -> float:
    """Second derivative of the bump away from the kink (``x != 0``):
    ``h''(x) = phi(||x| - mu| / sigma) / sigma^2``."""
    x, p = _require_off_kink(x, p)
    return _phi_float64(_h_second(math, x, p.mu, _float64_sigma(p, "h_second")))


# ---------------------------------------------------------------------------
# high-precision mirror
# ---------------------------------------------------------------------------


class HighPrecision:
    """Arbitrary-precision mirror of the float64 evaluators.

    All arithmetic runs at ``prec_bits`` bits of mantissa (from
    :data:`MIN_PREC_BITS`, 128, to :data:`MAX_PREC_BITS`, 65,536) via
    mpmath, through the same expression trees and validation as the
    float64 functions.  Floating-point inputs are lifted exactly (every
    binary64 value is exactly representable), so results differ from the
    float64 path only by that path's rounding error.  Methods return
    ``mpmath.mpf`` values; convert with ``float(...)`` when a double is
    wanted.  mpmath is imported by the first evaluation, not by this module
    or the constructor.
    """

    def __init__(self, prec_bits: int = MIN_PREC_BITS) -> None:
        self.prec_bits = require_int(
            prec_bits, "prec_bits", MIN_PREC_BITS, MAX_PREC_BITS
        )

    def _run(self, tree, *args):
        """``tree(mpmath, *args)`` at ``prec_bits``, each argument lifted to mpf."""
        import mpmath

        with mpmath.workprec(self.prec_bits):
            return tree(mpmath, *map(mpmath.mpf, args))

    def eval_g(self, x: float):
        return self._run(_g, abs(require_finite(x, "x")))

    def eval_h(self, x: float, p: Params):
        p = require_instance(p, Params, "params")
        return self._run(_h, abs(require_finite(x, "x")), p.mu, p.sigma)

    def eval_f(self, x: float, p: Params):
        p = require_instance(p, Params, "params")
        x = require_finite(x, "x")
        return self._run(
            lambda lib, x, *q: _evaluator(lib, "f", *q)(x), x, p.mu, p.sigma, p.alpha
        )

    def eval_phi(self, z: float):
        return self._run(_phi, _require_z(z, "phi"))

    def eval_lambda(self, z: float):
        return self._run(_lambda, _require_z(z, "lambda"))

    def eval_psi(self, z: float):
        return self._run(_psi, _require_z(z, "psi", 1.0))

    def eval_C(self):
        return self._run(_lambda, 0.5)

    def gap(self, a: OrderLike, fn: str, x: float, y: float, p: Optional[Params] = None):
        av, x, y, q = _require_gap_args(a, fn, x, y, p)
        return self._run(
            lambda lib, a, x, y, *q: _gap(a, _evaluator(lib, fn, *q), x, y), av, x, y, *q
        )

    def f_prime(self, t: float, p: Params):
        t, p = _require_positive(t, p, "f_prime", "t")
        return self._run(_f_prime, t, p.mu, p.sigma, p.alpha)

    def h_prime(self, x: float, p: Params):
        x, p = _require_positive(x, p, "h_prime", "x")
        return self._run(_h_prime, x, p.mu, p.sigma)

    def h_second(self, x: float, p: Params):
        x, p = _require_off_kink(x, p)
        return self._run(_h_second, x, p.mu, p.sigma)
