"""Oracles for the supporting analytic statements.

Each oracle decides one statement that the certificate's soundness story
leans on.  The four analytic checks run the expression trees of
:mod:`subadd.analytic_core` on the certificate's interval namespace and
answer a :class:`~subadd.intervals.Tristate`: ``TRUE`` when outward-rounded
enclosures prove the statement, ``FALSE`` when they refute it at a point,
and ``UNKNOWN`` when :data:`_CELLS` bisections settle neither or an
enclosure overflows.  No sample count or tolerance enters them.  The
checks:

- :func:`check_rolle_identity` — the three-point curvature probe
  ``v = 4 (r(0) - 2 r(t/2) + r(t)) / t^2`` lies in the range of ``r''`` on
  ``[0, t]``, as the mean value theorem says it must for C^2 functions;
- :func:`check_monotone_f` — ``f' > 0`` on ``[0, 1]``, so the working
  function increases there (claimed for ``mu >= 1``; other parameters may
  refute it, which the check reports honestly as ``FALSE``);
- :func:`check_tau_concavity` — along the segment ``y = t - 2x`` the gap
  restricted to ``x in [0, t/2]`` is concave: its second derivative
  ``2 f''(x) + 4 f''(t - 2x)`` is negative there (claimed under both
  small-region certificate conditions, which are preconditions here);
- :func:`check_symmetrization` — the order-2 gap on the small region is
  minimised on the positive quadrant: ``gap(x, y) >= gap(|x|, |y|)``.
  Since ``f`` is even this is exactly ``f`` nondecreasing on ``[0, 1]``,
  decided by the same ``f' > 0`` bisection (claimed for ``mu >= 1``);
- :func:`semigroup_member` / :func:`semigroup_search` — exact decision of
  membership of a rational target in the additive semigroup generated by
  rational generators with a bounded number of terms;
- :func:`indicator_example_check` — the two-valued step function (3 on
  rationals, 1 on irrationals) satisfies the order-2 and order-3
  inequalities but fails order-1, decided by exhaustive worst-case
  analysis over rationality patterns.

Raises :class:`~subadd.errors.PreconditionError` when a statement's
stated hypothesis does not hold for the supplied parameters — the answer
would be meaningless rather than ``False``.
"""

from __future__ import annotations

import enum
import heapq
import math
import sys
from typing import Callable, Optional, Sequence, Tuple

from .analytic_core import (
    Params,
    _evaluator,
    _f_prime,
    _f_second,
    _float64_sigma,
    _g_second,
    _h_second,
)
from .certificate import _I, check_region_B
from .errors import (
    DomainError,
    InputError,
    PreconditionError,
    RangeError,
    describe,
    require_finite,
    require_fraction,
    require_instance,
    require_int,
    require_sequence,
)
from .intervals import Interval, Tristate

__all__ = [
    "RationalityCase",
    "SemigroupStatus",
    "rolle_probe",
    "check_rolle_identity",
    "check_monotone_f",
    "check_symmetrization",
    "check_tau_concavity",
    "semigroup_search",
    "semigroup_member",
    "indicator_case_table",
    "indicator_example_check",
]

_ROLLE_HANDLES = ("f", "g", "h")
#: The most cells :func:`_decide` splits before it answers ``UNKNOWN``.
_CELLS = 256
_ZERO = Interval.point(0.0)


class RationalityCase(enum.Enum):
    """Whether ``a*x + y`` is forced rational, forced irrational, or can be
    either, given the rationality pattern of ``(x, y)``."""

    FORCED_RATIONAL = "FORCED_RATIONAL"
    FORCED_IRRATIONAL = "FORCED_IRRATIONAL"
    FREE = "FREE"


class SemigroupStatus(enum.Enum):
    """Outcome of the exact semigroup search."""

    FOUND = "FOUND"
    PROVEN_ABSENT = "PROVEN_ABSENT"
    BUDGET_EXHAUSTED = "BUDGET_EXHAUSTED"


def _decide(lo: float, hi: float, enclose: Callable, c: Interval) -> Tristate:
    """Whether ``w(x) > c`` for every ``x`` in ``[lo, hi]``, where
    ``enclose(X)`` encloses ``w`` on the :class:`Interval` ``X`` and ``c``
    encloses the bound.

    Moore–Skelboe bisection: the cell with the least lower bound is split
    first.  ``TRUE`` once that bound exceeds ``c`` (so every cell's does),
    ``FALSE`` once ``w`` at a cell's midpoint is below ``c``, and
    ``UNKNOWN`` after :data:`_CELLS` splits or when an enclosure
    overflows, since it then bounds nothing.
    """
    try:
        cells = [(enclose(Interval(lo, hi)).lo, lo, hi)]
        for _ in range(_CELLS):
            bound, a, b = heapq.heappop(cells)
            if bound > c.hi:
                return Tristate.TRUE
            m = 0.5 * (a + b)
            if enclose(Interval.point(m)).hi < c.lo:
                return Tristate.FALSE
            for u, v in ((a, m), (m, b)):
                heapq.heappush(cells, (enclose(Interval(u, v)).lo, u, v))
    except RangeError:
        pass
    return Tristate.UNKNOWN


def rolle_probe(fn: str, t: float, p: Optional[Params] = None) -> float:
    """The three-point curvature probe
    ``v = 4 (r(0) - 2 r(t/2) + r(t)) / t^2`` for ``t > 0``.  Raises
    :class:`RangeError` when ``t * t`` is not a normal double (``t``
    below about 1.5e-154 or above about 1.3e154)."""
    t, q = _probe_args(fn, t, p)
    return _probe(math, fn, t, q)


def _probe_args(fn: str, t: float, p: Optional[Params]):
    """``(t, q)`` for the probe of handle ``fn``: ``t`` validated, and
    ``q`` the parameters ``(mu, sigma, alpha)``, empty for ``"g"``."""
    t = require_finite(t, "t")
    if t <= 0.0:
        raise DomainError(f"rolle probe requires t > 0, got {t}")
    if fn not in _ROLLE_HANDLES:
        raise InputError(
            f"unknown function handle {describe(fn)}; expected one of {_ROLLE_HANDLES}"
        )
    p = None if fn == "g" else require_instance(p, Params, "params")
    t2 = t * t
    if not sys.float_info.min <= t2 < math.inf:
        raise RangeError(f"rolle probe: t*t = {t2!r} is not a normal double, t = {t!r}")
    return t, () if p is None else (p.mu, p.sigma, p.alpha)


def _probe(lib, fn: str, t, q):
    """The probe over ``lib``, whose numbers ``t`` and ``q`` are: floats
    for ``math``, Intervals for ``_I`` (``0.0 * t`` is their zero)."""
    r = _evaluator(lib, fn, *q)
    return 4.0 * (r(0.0 * t) - 2.0 * r(t / 2.0) + r(t)) / (t * t)


def check_rolle_identity(fn: str, t: float, p: Optional[Params] = None) -> Tristate:
    """Decide whether the curvature probe lies in the range of ``r''`` on
    ``[0, t]``.

    The mean value theorem gives ``v = r''(xi)`` for some interior ``xi``.
    :func:`_probe` encloses the exact ``v``; ``TRUE`` when enclosures of
    ``r''`` refute both ``r'' > v`` and ``r'' < v`` on ``[0, t]``, which
    gives a point on each side of ``v`` and so, by continuity, the value
    itself; ``FALSE`` when they prove either; ``UNKNOWN`` otherwise.  An
    ``UNKNOWN`` is expected where the probe's enclosure is too wide (its
    second difference cancels: ``t = 1e-8``), and for ``"h"`` where the
    bump lies about 27 sigma or more beyond ``t``, as ``h`` and ``h''``
    underflow to 0 on ``[0, t]``.  Raises :class:`RangeError` as
    :func:`rolle_probe` does, and for ``"f"`` and ``"h"``, whose ``r''``
    divides by ``sigma**2``, when that square is not a normal double.
    """
    t, q = _probe_args(fn, t, p)
    if q:  # r'' divides by sigma**2; check it before any interval arithmetic
        _float64_sigma(p, "h_second")
    q = tuple(map(Interval.point, q))
    r2 = {"f": lambda x: _f_second(_I, x, *q), "g": lambda x: _g_second(_I, x),
          "h": lambda x: _h_second(_I, x, *q[:2])}[fn]
    try:
        v = _probe(_I, fn, Interval.point(t), q)
    except RangeError:
        return Tristate.UNKNOWN
    sides = (_decide(0.0, t, r2, v), _decide(0.0, t, lambda x: -r2(x), -v))
    if Tristate.TRUE in sides:
        return Tristate.FALSE
    return Tristate.TRUE if sides == (Tristate.FALSE, Tristate.FALSE) else Tristate.UNKNOWN


def _f_increasing(p: Params, claim: str) -> Tristate:
    """Decide ``f' > 0`` on ``[0, 1]`` for a ``claim`` made for ``mu >= 1``."""
    p = require_instance(p, Params, "params")
    if p.mu < 1.0:
        raise PreconditionError(f"{claim} is claimed for mu >= 1 only, got mu={p.mu}")
    q = tuple(map(Interval.point, (p.mu, _float64_sigma(p, "f_prime"), p.alpha)))
    return _decide(0.0, 1.0, lambda x: _f_prime(_I, x, *q), _ZERO)


def check_monotone_f(p: Params) -> Tristate:
    """Decide ``f' > 0`` on ``[0, 1]``, so that the working function
    increases there: ``TRUE`` when enclosures of the ``f'`` tree prove it,
    ``FALSE`` at a point where ``f' < 0``, ``UNKNOWN`` otherwise.

    The claim is local to the unit interval — with ``mu >= 1`` the bump
    term ``(mu - t) h(t)`` is still nonnegative on ``[0, 1]``, which is
    what makes the statement unconditional; past the bump peak ``f`` may
    genuinely decrease when ``alpha`` is large.

    Precondition ``mu >= 1`` (the statement's hypothesis); other parameter
    combinations raise :class:`PreconditionError` rather than answering.
    ``f'`` divides by ``sigma**2``: :class:`RangeError` when that square
    is not a normal double.
    """
    return _f_increasing(p, "monotonicity")


def check_symmetrization(p: Params) -> Tristate:
    """Decide ``gap(2, f, x, y) >= gap(2, f, |x|, |y|)`` on the small
    region ``2|x| + |y| <= 1``.

    ``f`` is even, so there ``gap(x, y) - gap(|x|, |y|) = f(2|x| + |y|) -
    f(|2x + y|)`` with ``|2x + y| <= 2|x| + |y| <= 1``, and every pair
    ``0 <= u <= v <= 1`` occurs, at ``x = (u + v)/4``, ``y = -(v - u)/2``.
    The statement is exactly "``f`` is nondecreasing on ``[0, 1]``",
    decided as :func:`check_monotone_f` decides ``f' > 0`` (``FALSE`` at a
    point where ``f' < 0``), with its precondition ``mu >= 1`` and its
    :class:`RangeError`.
    """
    return _f_increasing(p, "symmetrization")


def check_tau_concavity(p: Params, t: float) -> Tristate:
    """Decide concavity of ``x -> gap(2, f, x, t - 2x)`` on ``[0, t/2]``:
    ``TRUE`` when enclosures prove its second derivative
    ``2 f''(x) + 4 f''(t - 2x)`` negative there, ``FALSE`` at a point where
    it is ``> 0``, ``UNKNOWN`` otherwise.

    ``t`` must lie in ``(0, 1]``.  Preconditions: both small-region
    certificate conditions hold (``TRUE``); otherwise the concavity
    statement carries no claim and :class:`PreconditionError` is raised.
    """
    p = require_instance(p, Params, "params")
    t = require_finite(t, "t")
    if not 0.0 < t <= 1.0:
        raise DomainError(f"tau concavity requires t in (0, 1], got {t}")
    b_mu, b_alpha = check_region_B(p)
    if b_mu.verdict is not Tristate.TRUE or b_alpha.verdict is not Tristate.TRUE:
        raise PreconditionError(
            "tau concavity is claimed only under both small-region "
            f"conditions; got {b_mu.name}={b_mu.verdict.name}, "
            f"{b_alpha.name}={b_alpha.verdict.name}"
        )
    q = tuple(map(Interval.point, (p.mu, p.sigma, p.alpha)))
    f2 = lambda x: _f_second(_I, x, *q)
    return _decide(0.0, t / 2.0, lambda x: -(2.0 * f2(x) + 4.0 * f2(t - 2.0 * x)), _ZERO)


# ---------------------------------------------------------------------------
# exact semigroup membership
# ---------------------------------------------------------------------------


def semigroup_search(
    target,
    generators: Sequence,
    max_terms: int,
    budget: int = 5_000_000,
) -> Tuple[SemigroupStatus, Optional[Tuple[int, ...]]]:
    """Exact search for ``target = sum c_i * generators[i]`` with
    nonnegative integer ``c_i`` and ``sum c_i <= max_terms``.

    Everything is scaled to integers over the common denominator and
    decided by a minimum-term-count dynamic program, so the answer is
    exact: ``FOUND`` comes with one witness count vector, and
    ``PROVEN_ABSENT`` means *no* combination within ``max_terms`` terms
    exists (either unreachable outright, or reachable only with more
    terms).  ``BUDGET_EXHAUSTED`` is returned when the scaled table would
    exceed ``budget`` cells; no claim is made in that case.
    """
    tgt = require_fraction(target, "target")
    if tgt <= 0:
        raise InputError(f"target must be > 0, got {describe(tgt, str)}")
    require_int(max_terms, "max_terms", 1)
    require_int(budget, "budget", 1)
    gens = [
        require_fraction(g, f"generators[{i}]")
        for i, g in enumerate(require_sequence(generators, "generators"))
    ]
    if not gens:
        raise InputError("generators must be nonempty")
    if any(g <= 0 for g in gens):
        raise InputError(f"generators must be > 0, got {describe(gens, str)}")

    denom = tgt.denominator
    for g in gens:
        denom = denom * g.denominator // math.gcd(denom, g.denominator)
    t_int = int(tgt * denom)
    g_int = [int(g * denom) for g in gens]

    if (t_int + 1) * (len(g_int) + 1) > budget:
        return SemigroupStatus.BUDGET_EXHAUSTED, None

    inf = max_terms + 1
    dp = [inf] * (t_int + 1)
    parent = [-1] * (t_int + 1)
    dp[0] = 0
    for value in range(1, t_int + 1):
        for gi, g in enumerate(g_int):
            if g <= value and dp[value - g] + 1 < dp[value]:
                dp[value] = dp[value - g] + 1
                parent[value] = gi
    if dp[t_int] > max_terms:
        return SemigroupStatus.PROVEN_ABSENT, None
    counts = [0] * len(g_int)
    value = t_int
    while value > 0:
        gi = parent[value]
        counts[gi] += 1
        value -= g_int[gi]
    return SemigroupStatus.FOUND, tuple(counts)


def semigroup_member(target, generators: Sequence, max_terms: int) -> bool:
    """Boolean wrapper of :func:`semigroup_search`.

    Raises :class:`InputError` when the exact decision would exceed the
    default budget — a ``bool`` answer would otherwise be a guess.
    """
    status, _ = semigroup_search(target, generators, max_terms)
    if status is SemigroupStatus.BUDGET_EXHAUSTED:
        raise InputError(
            "semigroup instance too large for the exact decision budget; "
            "call semigroup_search with a larger budget"
        )
    return status is SemigroupStatus.FOUND


# ---------------------------------------------------------------------------
# indicator-function example
# ---------------------------------------------------------------------------

_RATIONAL_VALUE = 3
_IRRATIONAL_VALUE = 1


def indicator_case_table(a: int):
    """Worst-case analysis of ``w(a*x + y) <= a*w(x) + w(y)`` for the step
    function ``w = 3 on rationals, 1 on irrationals``, over the four
    rationality patterns of ``(x, y)``.

    Returns rows ``(x_rational, y_rational, case, worst_lhs, rhs, ok)``.
    With integer ``a``: rational+rational forces a rational sum;
    mixed patterns force an irrational sum; irrational+irrational leaves
    the sum free (the adversary picks, so the worst case is rational).
    """
    require_int(a, "a", 1, 3)
    rows = []
    for x_rat in (True, False):
        for y_rat in (True, False):
            if x_rat and y_rat:
                case = RationalityCase.FORCED_RATIONAL
            elif x_rat != y_rat:
                case = RationalityCase.FORCED_IRRATIONAL
            else:
                case = RationalityCase.FREE
            if case is RationalityCase.FORCED_IRRATIONAL:
                worst_lhs = _IRRATIONAL_VALUE
            else:  # rational possible: adversary achieves the larger value
                worst_lhs = _RATIONAL_VALUE
            rhs = a * (_RATIONAL_VALUE if x_rat else _IRRATIONAL_VALUE) + (
                _RATIONAL_VALUE if y_rat else _IRRATIONAL_VALUE
            )
            rows.append((x_rat, y_rat, case, worst_lhs, rhs, worst_lhs <= rhs))
    return tuple(rows)


def indicator_example_check(a: int) -> bool:
    """Whether the step function satisfies the order-``a`` inequality for
    every rationality pattern (``a`` in {1, 2, 3}).

    True for ``a = 2`` (tight: 3 <= 3 on the free pattern) and ``a = 3``;
    False for ``a = 1`` (3 > 2 on the free pattern).
    """
    return all(row[5] for row in indicator_case_table(a))
