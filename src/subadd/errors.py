"""Exception taxonomy for the toolkit.

Every error raised deliberately by this package derives from
:class:`ToolkitError`, so callers can catch one type at the boundary.  The
subclasses separate *caller* mistakes (bad argument values, malformed
configuration) from *mathematical* failure modes (leaving a function's
domain, numeric overflow, division by an interval straddling zero) and from
*internal* defects detected by self-checks.

It also holds, once, each argument rule the modules share:
:func:`require_int`, :func:`require_fraction`, :func:`require_real`,
:func:`require_finite`, :func:`require_positive`,
:func:`require_instance` and :func:`require_sequence`.  Each returns the
checked value or raises :class:`InputError` naming the argument; the
package exports the first two.  Messages print a caller's value through
:func:`describe`, which also prints ints too long for ``repr()``.
"""

from __future__ import annotations

import math
import re
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


def describe(value: object, show=repr) -> str:
    """``show(value)`` for an error message.  ``repr()`` and ``str()``
    refuse ints of more than 4,300 digits, and values that hold one: such an
    int prints as "an int of N bits", any other such value by its type."""
    try:
        return show(value)
    except ValueError:
        if isinstance(value, int):
            return f"an int of {value.bit_length()} bits"
        return f"a {type(value).__name__} too long to print"


def require_int(
    value: object, what: str, lo: Optional[int] = None, hi: Optional[int] = None
) -> int:
    """Return ``value`` if it is an ``int`` (``bool`` excluded) within the
    inclusive bounds ``[lo, hi]`` (``None`` leaves a side open); raise
    :class:`InputError` naming ``what`` otherwise."""
    if not isinstance(value, int) or isinstance(value, bool):
        raise InputError(f"{what} must be an int, got {describe(value)}")
    if lo is not None and value < lo:
        raise InputError(f"{what} must be >= {lo}, got {describe(value)}")
    if hi is not None and value > hi:
        raise InputError(f"{what} must be <= {hi}, got {describe(value)}")
    return value


_RATIONAL_STRING = re.compile(r"[+-]?[0-9]+(/[0-9]+)?")


def require_fraction(value: object, what: str) -> Fraction:
    """Return ``value`` as an exact :class:`~fractions.Fraction`.

    Accepts a ``Fraction``, an ``int`` (``bool`` excluded) or a string of
    the form ``'p'`` or ``'p/q'``: an optional sign and ASCII digits,
    optionally ``/`` and digits, with surrounding whitespace; raise
    :class:`InputError` naming ``what`` otherwise.  Floats are refused
    because every caller decides exactly.  Other strings ``Fraction``
    would read are refused before any number is built: it turns
    ``'1e999999999'`` into ``10**999999999``, which takes minutes."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int) and not isinstance(value, bool):
        return Fraction(value)
    if isinstance(value, str):
        try:
            if not _RATIONAL_STRING.fullmatch(value.strip()):
                raise ValueError("not of the form p or p/q")
            return Fraction(value)
        except (ValueError, ZeroDivisionError) as exc:
            raise InputError(f"{what} is not a valid rational: {value!r}") from exc
    raise InputError(
        f"{what} must be an exact rational (Fraction, int, or 'p/q' "
        f"string), got {describe(value)}"
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
    raise InputError(f"{what} must be a real number, got {describe(value)}")


def require_finite(value: object, what: str, got: object = None) -> float:
    """``value`` as a finite float; a given ``got`` stands for it in the message."""
    value = require_real(value, what)
    if not math.isfinite(value):
        got = value if got is None else got
        raise InputError(f"{what} must be finite, got {describe(got, str)}")
    return value


def require_positive(value: object, what: str) -> float:
    """``value`` as a finite float ``> 0`` (see :func:`require_real`)."""
    value = require_real(value, what)
    if not (math.isfinite(value) and value > 0.0):
        raise InputError(f"{what} must be finite and > 0, got {value}")
    return value


def require_sequence(value: object, what: str) -> tuple:
    """The items of ``value`` as a tuple; a value that is not iterable
    raises :class:`InputError` naming ``what``."""
    try:
        items = iter(value)  # type: ignore[call-overload]
    except TypeError:
        raise InputError(f"{what} must be a sequence, got {describe(value)}") from None
    return tuple(items)


def require_instance(value: object, cls: type, what: str):
    """``value`` if an instance of ``cls``, else :class:`InputError` naming ``what``."""
    if not isinstance(value, cls):
        name = cls.__name__
        article = "an" if name[0] in "AEIOU" else "a"
        raise InputError(
            f"{what} must be {article} {name} instance, got {describe(value)}"
        )
    return value
