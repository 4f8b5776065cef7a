"""Region-wise sufficient conditions for 2-subadditivity, checked rigorously.

The certificate evaluates five published sufficient conditions on the
parameters ``(mu, sigma, alpha)`` — one for the outer region A, two for the
small region B, two for the mixed region C — entirely in outward-rounded
interval arithmetic, so a ``TRUE`` verdict is a machine-checked proof that
the stated inequality holds for the exact binary64 parameter values.
``h(0)``, ``phi`` and ``C`` come from the expression trees of
:mod:`subadd.analytic_core`, run on :class:`~subadd.intervals.Interval`
operands with ``exp=iexp`` and ``log1p=ilog1p``; the constants are
enclosed once, at import.

The five conditions (each of the form ``lhs <= rhs``):

- ``A_alpha``:  ``alpha <= C / (1 + 2 h(0))``, that is
  ``C / (1 + 2 exp(-(mu/sigma)^2))``, with ``C = lambda(1/2) = log(9/8)``;
- ``B_mu``:     ``1 + sigma sqrt(3/2) <= mu``;
- ``B_alpha``:  ``alpha <= 17 sigma^2 / (54 phi((mu-1)/sigma))``, evaluated
  only when the interval enclosure of ``phi`` is certainly positive
  (otherwise the condition is reported ``UNKNOWN`` with ``rhs=None``);
- ``C_mu``:     ``1/2 <= mu``;
- ``C_alpha``:  ``alpha <= sigma sqrt(e/2)``.

Honesty note: these are *sufficient-condition checks*, and the verdict
``CERTIFIED`` means exactly "all five inequalities are proven for these
parameters" — see the README's "Known discrepancies" for the documented
gap between these published conditions and actual order-2 behaviour in
the mixed region, which the search module exposes.

``NOT_CERTIFIED`` likewise never claims a violation exists; it only
records that at least one inequality is refuted.  Use the search module
to look for actual violations.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from types import SimpleNamespace
from typing import Optional, Tuple

from .analytic_core import Params, _h, _lambda, _phi
from .errors import require_instance
from .intervals import Interval, Tristate, certainly_le, iexp, ilog1p, isqrt

__all__ = [
    "Verdict",
    "ConditionResult",
    "CertificateReport",
    "check_region_A",
    "check_region_B",
    "check_region_C",
    "certify_S2",
    "CAVEAT",
]

#: Fixed caveat attached to every report.
CAVEAT = (
    "NOT_CERTIFIED means the sufficient conditions were not established "
    "for these parameters; it does not by itself prove the function fails "
    "2-subadditivity. Conversely CERTIFIED asserts only that the five "
    "published inequalities hold; see the README's 'Known discrepancies' "
    "section before relying on them."
)

#: The interval namespace of the expression trees in ``analytic_core``, and
#: the enclosures of the constants ``C = lambda(1/2) = log(9/8)``,
#: ``sqrt(3/2)`` and ``sqrt(e/2)``.
_I = SimpleNamespace(exp=iexp, log1p=ilog1p)
_C = _lambda(_I, Interval.point(0.5))
_SQRT_3_2 = isqrt(Interval.point(1.5))
_SQRT_E_2 = isqrt(iexp(Interval.point(1.0)) / 2.0)


class Verdict(enum.Enum):
    """Overall certificate verdict."""

    CERTIFIED = "CERTIFIED"
    NOT_CERTIFIED = "NOT_CERTIFIED"
    UNKNOWN = "UNKNOWN"


@dataclass(frozen=True)
class ConditionResult:
    """One checked inequality ``lhs <= rhs``.

    ``rhs`` is ``None`` exactly when the bound itself could not be
    rigorously evaluated (degenerate ``B_alpha`` case); the verdict is then
    ``UNKNOWN``.  Otherwise ``verdict == certainly_le(lhs, rhs)``.
    """

    name: str
    lhs: Interval
    rhs: Optional[Interval]
    verdict: Tristate


@dataclass(frozen=True)
class CertificateReport:
    """Result of :func:`certify_S2`: the five conditions and the verdict.

    ``verdict`` is ``CERTIFIED`` iff every condition is ``TRUE``,
    ``NOT_CERTIFIED`` iff at least one is ``FALSE``, and ``UNKNOWN``
    otherwise (some condition undecided, none refuted).
    """

    params: Params
    conditions: Tuple[ConditionResult, ...]
    verdict: Verdict
    caveat: str = CAVEAT


def check_region_A(p: Params) -> ConditionResult:
    """Outer-region condition ``A_alpha``:
    ``alpha <= C / (1 + 2 h(0))``, with ``h(0) = exp(-(mu/sigma)^2)``."""
    p = require_instance(p, Params, "params")
    h0 = _h(_I, 0.0, Interval.point(p.mu), Interval.point(p.sigma))
    bound = _C / (1.0 + 2.0 * h0)
    lhs = Interval.point(p.alpha)
    return ConditionResult("A_alpha", lhs, bound, certainly_le(lhs, bound))


def check_region_B(p: Params) -> Tuple[ConditionResult, ConditionResult]:
    """Small-region conditions ``B_mu`` and ``B_alpha``.

    ``B_mu``: ``1 + sigma sqrt(3/2) <= mu``.
    ``B_alpha``: ``alpha <= 17 sigma^2 / (54 phi((mu-1)/sigma))`` — only
    decidable when the enclosure of ``phi`` is certainly positive; when it
    is not, the bound is meaningless and the result carries ``rhs=None``
    and verdict ``UNKNOWN``.
    """
    p = require_instance(p, Params, "params")
    mu, sigma = Interval.point(p.mu), Interval.point(p.sigma)

    lhs1 = 1.0 + sigma * _SQRT_3_2
    cond1 = ConditionResult("B_mu", lhs1, mu, certainly_le(lhs1, mu))

    phi = _phi(_I, (mu - 1.0) / sigma)
    lhs2 = Interval.point(p.alpha)
    if phi.lo > 0.0:
        bound = 17.0 * (sigma * sigma) / (54.0 * phi)
        cond2 = ConditionResult("B_alpha", lhs2, bound, certainly_le(lhs2, bound))
    else:
        cond2 = ConditionResult("B_alpha", lhs2, None, Tristate.UNKNOWN)
    return cond1, cond2


def check_region_C(p: Params) -> Tuple[ConditionResult, ConditionResult]:
    """Mixed-region conditions ``C_mu`` (``1/2 <= mu``) and ``C_alpha``
    (``alpha <= sigma sqrt(e/2)``)."""
    p = require_instance(p, Params, "params")
    mu = Interval.point(p.mu)

    lhs1 = Interval.point(0.5)
    cond1 = ConditionResult("C_mu", lhs1, mu, certainly_le(lhs1, mu))

    bound = Interval.point(p.sigma) * _SQRT_E_2
    lhs2 = Interval.point(p.alpha)
    cond2 = ConditionResult("C_alpha", lhs2, bound, certainly_le(lhs2, bound))
    return cond1, cond2


def certify_S2(p: Params) -> CertificateReport:
    """Evaluate all five sufficient conditions for 2-subadditivity.

    Returns a report whose verdict is ``CERTIFIED`` iff every condition is
    proven, ``NOT_CERTIFIED`` iff at least one is refuted, ``UNKNOWN``
    otherwise.  The report always carries the standing caveat.
    """
    a = check_region_A(p)
    b1, b2 = check_region_B(p)
    c1, c2 = check_region_C(p)
    conditions = (a, b1, b2, c1, c2)
    if all(c.verdict is Tristate.TRUE for c in conditions):
        verdict = Verdict.CERTIFIED
    elif any(c.verdict is Tristate.FALSE for c in conditions):
        verdict = Verdict.NOT_CERTIFIED
    else:
        verdict = Verdict.UNKNOWN
    return CertificateReport(params=p, conditions=conditions, verdict=verdict)
