"""Exception taxonomy for the toolkit.

Every error raised deliberately by this package derives from
:class:`ToolkitError`, so callers can catch one type at the boundary.  The
subclasses separate *caller* mistakes (bad argument values, malformed
configuration) from *mathematical* failure modes (leaving a function's
domain, numeric overflow, division by an interval straddling zero) and from
*internal* defects detected by self-checks.

It also holds, once, each argument rule the modules share:
:func:`require_int`, :func:`require_fraction`, :func:`require_real`,
:func:`require_finite`, :func:`require_positive` and
:func:`require_instance`.  Each returns the checked value or raises
:class:`InputError` naming the argument; the package exports the first two.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Optional

__all__ = [
    "ToolkitError",
    "InputError",
    "DomainError",
    "RangeError",
    "SingularityError",
    "PreconditionError",
    "ConstructionBugError",
    "require_int",
    "require_fraction",
]


class ToolkitError(Exception):
    """Base class for all errors raised by this package."""


class InputError(ToolkitError):
    """A caller-supplied argument or configuration value is invalid."""


class DomainError(ToolkitError):
    """An argument lies outside the mathematical domain of a function."""


class RangeError(ToolkitError):
    """A computation left the representable floating-point range."""


class SingularityError(ToolkitError):
    """An operation hit a singular configuration (e.g. dividing by an
    interval that contains zero)."""


class PreconditionError(ToolkitError):
    """A documented precondition of a higher-level check does not hold, so
    the check's answer would be meaningless rather than false."""


class ConstructionBugError(ToolkitError):
    """An internal self-check failed; indicates a defect in this package,
    not in the caller's input."""


def require_int(
    value: object, what: str, lo: Optional[int] = None, hi: Optional[int] = None
) -> int:
    """Return ``value`` if it is an ``int`` (``bool`` excluded) within the
    inclusive bounds ``[lo, hi]`` (``None`` leaves a side open); raise
    :class:`InputError` naming ``what`` otherwise."""
    if not isinstance(value, int) or isinstance(value, bool):
        raise InputError(f"{what} must be an int, got {value!r}")
    if lo is not None and value < lo:
        raise InputError(f"{what} must be >= {lo}, got {value}")
    if hi is not None and value > hi:
        raise InputError(f"{what} must be <= {hi}, got {value}")
    return value


def require_fraction(value: object, what: str) -> Fraction:
    """Return ``value`` as an exact :class:`~fractions.Fraction`.

    Accepts a ``Fraction``, an ``int`` (``bool`` excluded) or a ``'p/q'``
    string; raise :class:`InputError` naming ``what`` otherwise.  Floats
    are refused because every caller decides exactly."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int) and not isinstance(value, bool):
        return Fraction(value)
    if isinstance(value, str):
        try:
            return Fraction(value)
        except (ValueError, ZeroDivisionError) as exc:
            raise InputError(f"{what} is not a valid rational: {value!r}") from exc
    raise InputError(
        f"{what} must be an exact rational (Fraction, int, or 'p/q' "
        f"string), got {value!r}"
    )


def require_real(value: object, what: str) -> float:
    """``value`` as a float; anything ``float()`` refuses, and ``bool``,
    raises :class:`InputError` naming ``what``."""
    if type(value) is not bool:
        try:
            return float(value)  # type: ignore[arg-type]
        except (TypeError, ValueError):
            pass
        except OverflowError as exc:
            # repr() refuses ints of more than 4300 digits.
            got = (
                f"an int of {value.bit_length()} bits"
                if isinstance(value, int)
                else f"a {type(value).__name__} out of range"
            )
            raise InputError(
                f"{what} must be a real number within the float range, got {got}"
            ) from exc
    raise InputError(f"{what} must be a real number, got {value!r}")


def require_finite(value: object, what: str, got: object = None) -> float:
    """``value`` as a finite float; a given ``got`` stands for it in the message."""
    value = require_real(value, what)
    if not math.isfinite(value):
        raise InputError(f"{what} must be finite, got {value if got is None else got}")
    return value


def require_positive(value: object, what: str) -> float:
    """``value`` as a finite float ``> 0`` (see :func:`require_real`)."""
    value = require_real(value, what)
    if not (math.isfinite(value) and value > 0.0):
        raise InputError(f"{what} must be finite and > 0, got {value}")
    return value


def require_instance(value: object, cls: type, what: str):
    """``value`` if an instance of ``cls``, else :class:`InputError` naming ``what``."""
    if not isinstance(value, cls):
        name = cls.__name__
        article = "an" if name[0] in "AEIOU" else "a"
        raise InputError(f"{what} must be {article} {name} instance, got {value!r}")
    return value
