"""Region-wise sufficient conditions for 2-subadditivity, checked rigorously.

The certificate evaluates five published sufficient conditions on the
parameters ``(mu, sigma, alpha)`` — one for the outer region A, two for the
small region B, two for the mixed region C — entirely in outward-rounded
interval arithmetic, so a ``TRUE`` verdict is a machine-checked proof that
the stated inequality holds for the exact binary64 parameter values.

The five conditions (each of the form ``lhs <= rhs``):

- ``A_alpha``:  ``alpha <= C / (1 + 2 exp(-(mu/sigma)^2))`` with
  ``C = log(9/8)``;
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
from typing import Optional, Tuple

from .analytic_core import Params, _require_params
from .intervals import (
    Interval,
    Tristate,
    certainly_le,
    iadd,
    idiv,
    iexp,
    ilog,
    imul,
    isq,
    isqrt,
    isub,
)

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

_ZERO = Interval.point(0.0)
_ONE = Interval.point(1.0)
_TWO = Interval.point(2.0)


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


def _ipt(x: float) -> Interval:
    return Interval.point(x)


def _iC() -> Interval:
    """Enclosure of C = log(9/8); 1.125 is exact in binary64."""
    return ilog(_ipt(1.125))


def _iphi(z: Interval) -> Interval:
    """Enclosure of the even profile ``phi(z) = (4 z^2 - 2) exp(-z^2)``
    over an interval that may contain negative values (evenness reduces to
    ``|z|``)."""
    if z.lo >= 0.0:
        az = z
    elif z.hi <= 0.0:
        az = isub(_ZERO, z)
    else:
        az = Interval(0.0, max(-z.lo, z.hi))
    zz = isq(az)
    return imul(isub(imul(Interval.point(4.0), zz), _TWO), iexp(isub(_ZERO, zz)))


def check_region_A(p: Params) -> ConditionResult:
    """Outer-region condition ``A_alpha``:
    ``alpha <= C / (1 + 2 exp(-(mu/sigma)^2))``."""
    p = _require_params(p)
    q = idiv(_ipt(p.mu), _ipt(p.sigma))
    damp = iexp(isub(_ZERO, isq(q)))
    bound = idiv(_iC(), iadd(_ONE, imul(_TWO, damp)))
    lhs = _ipt(p.alpha)
    return ConditionResult("A_alpha", lhs, bound, certainly_le(lhs, bound))


def check_region_B(p: Params) -> Tuple[ConditionResult, ConditionResult]:
    """Small-region conditions ``B_mu`` and ``B_alpha``.

    ``B_mu``: ``1 + sigma sqrt(3/2) <= mu``.
    ``B_alpha``: ``alpha <= 17 sigma^2 / (54 phi((mu-1)/sigma))`` — only
    decidable when the enclosure of ``phi`` is certainly positive; when it
    is not, the bound is meaningless and the result carries ``rhs=None``
    and verdict ``UNKNOWN``.
    """
    p = _require_params(p)
    mu = _ipt(p.mu)
    sigma = _ipt(p.sigma)

    lhs1 = iadd(_ONE, imul(sigma, isqrt(Interval.point(1.5))))
    cond1 = ConditionResult("B_mu", lhs1, mu, certainly_le(lhs1, mu))

    z = idiv(isub(mu, _ONE), sigma)
    phi = _iphi(z)
    lhs2 = _ipt(p.alpha)
    if phi.lo > 0.0:
        bound = idiv(
            imul(Interval.point(17.0), isq(sigma)),
            imul(Interval.point(54.0), phi),
        )
        cond2 = ConditionResult("B_alpha", lhs2, bound, certainly_le(lhs2, bound))
    else:
        cond2 = ConditionResult("B_alpha", lhs2, None, Tristate.UNKNOWN)
    return cond1, cond2


def check_region_C(p: Params) -> Tuple[ConditionResult, ConditionResult]:
    """Mixed-region conditions ``C_mu`` (``1/2 <= mu``) and ``C_alpha``
    (``alpha <= sigma sqrt(e/2)``)."""
    p = _require_params(p)
    mu = _ipt(p.mu)

    lhs1 = Interval.point(0.5)
    cond1 = ConditionResult("C_mu", lhs1, mu, certainly_le(lhs1, mu))

    bound = imul(_ipt(p.sigma), isqrt(idiv(iexp(_ONE), _TWO)))
    lhs2 = _ipt(p.alpha)
    cond2 = ConditionResult("C_alpha", lhs2, bound, certainly_le(lhs2, bound))
    return cond1, cond2


def certify_S2(p: Params) -> CertificateReport:
    """Evaluate all five sufficient conditions for 2-subadditivity.

    Returns a report whose verdict is ``CERTIFIED`` iff every condition is
    proven, ``NOT_CERTIFIED`` iff at least one is refuted, ``UNKNOWN``
    otherwise.  The report always carries the standing caveat.
    """
    p = _require_params(p)
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
