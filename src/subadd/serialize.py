"""Loss-free JSON encoding for the toolkit's result objects.

``to_jsonable`` maps any public dataclass or enum (one named in the
package's ``__all__``), ``Fraction``, or nested container of those to
plain dicts/lists/strings/numbers; ``from_jsonable`` inverts it exactly.
Dataclasses and Fractions are tagged with a ``"__kind__"`` key; enums are
encoded as ``{"__enum__": name, "value": member-name}``.  Floats are
passed through as-is (JSON round-trips binary64 exactly via repr);
rationals go through exact ``"p/q"`` strings.  Tuples are encoded as JSON
arrays and decoded back to tuples, matching the dataclasses' field types.

One rule, :func:`_public`, says which classes JSON carries, in both
directions: a class named in the ``__all__`` of the library module that
defines it.  Encoding asks only the object's own module, so it loads no
other module; decoding looks each kind up by name in the lazy ``subadd``
namespace, which loads the library modules only up to the kind's own.
"""

from __future__ import annotations

import dataclasses
import enum
import sys
from fractions import Fraction
from typing import Any, Dict, Optional

import subadd

from .errors import InputError, describe, require_fraction

__all__ = ["to_jsonable", "from_jsonable"]


def _public(cls: type) -> bool:
    """Whether ``cls`` is named in the ``__all__`` of the library module
    that defines it: the one rule, for both directions, of which classes
    JSON carries."""
    package, _, module = cls.__module__.rpartition(".")
    if package != __package__ or module not in subadd._LIBRARY:
        return False
    found = sys.modules[cls.__module__]
    return cls.__name__ in found.__all__ and getattr(found, cls.__name__) is cls


def _kind(name: Any, test) -> Optional[type]:
    """The public class the package names ``name``, if ``test`` holds for
    it; the lazy namespace loads the library modules up to its own."""
    cls = getattr(subadd, name, None) if isinstance(name, str) else None
    if isinstance(cls, type) and test(cls) and _public(cls):
        return cls
    return None


def to_jsonable(obj: Any) -> Any:
    """Recursively convert ``obj`` to JSON-serializable builtins."""
    if obj is None or isinstance(obj, (bool, int, float, str)):
        return obj
    if isinstance(obj, Fraction):
        return {"__kind__": "Fraction", "value": f"{obj.numerator}/{obj.denominator}"}
    if isinstance(obj, enum.Enum) and _public(type(obj)):
        return {"__enum__": type(obj).__name__, "value": obj.name}
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        name = type(obj).__name__
        if not _public(type(obj)):
            raise InputError(f"cannot encode unregistered dataclass {name}")
        out: Dict[str, Any] = {"__kind__": name}
        for field in dataclasses.fields(obj):
            out[field.name] = to_jsonable(getattr(obj, field.name))
        return out
    if isinstance(obj, (list, tuple)):
        return [to_jsonable(v) for v in obj]
    if isinstance(obj, dict):
        encoded = {}
        for k, v in obj.items():
            if not isinstance(k, str):
                raise InputError(f"dict keys must be strings, got {k!r}")
            encoded[k] = to_jsonable(v)
        return encoded
    raise InputError(f"cannot encode object of type {type(obj).__name__}")


def from_jsonable(data: Any) -> Any:
    """Invert :func:`to_jsonable`."""
    if data is None or isinstance(data, (bool, int, float, str)):
        return data
    if isinstance(data, list):
        return tuple(from_jsonable(v) for v in data)
    if isinstance(data, dict):
        if "__enum__" in data:
            name = data["__enum__"]
            cls = _kind(name, lambda cls: issubclass(cls, enum.Enum))
            if cls is None:
                raise InputError(f"unknown enum kind {describe(name)}")
            member = data.get("value")
            if not (isinstance(member, str) and member in cls.__members__):
                raise InputError(f"unknown member {describe(member)} of enum {name}")
            return cls[member]
        if "__kind__" in data:
            name = data["__kind__"]
            if name == "Fraction":
                return require_fraction(data.get("value"), "Fraction payload value")
            cls = _kind(name, dataclasses.is_dataclass)
            if cls is None:
                raise InputError(f"unknown dataclass kind {describe(name)}")
            kwargs = {
                k: from_jsonable(v) for k, v in data.items() if k != "__kind__"
            }
            try:
                return cls(**kwargs)
            except TypeError as exc:
                raise InputError(f"bad payload for {name}: {exc}") from exc
        return {k: from_jsonable(v) for k, v in data.items()}
    raise InputError(f"cannot decode object of type {type(data).__name__}")
