"""Loss-free JSON encoding for the toolkit's result objects.

``to_jsonable`` maps any public dataclass or enum (one named in the
package's ``__all__``), ``Fraction``, or nested container of those to
plain dicts/lists/strings/numbers; ``from_jsonable`` inverts it exactly.
Dataclasses and Fractions are tagged with a ``"__kind__"`` key; enums are
encoded as ``{"__enum__": name, "value": member-name}``.  Floats are
passed through as-is (JSON round-trips binary64 exactly via repr);
rationals go through exact ``"p/q"`` strings.  Tuples are encoded as JSON
arrays and decoded back to tuples, matching the dataclasses' field types.
"""

from __future__ import annotations

import dataclasses
import enum
from fractions import Fraction
from typing import Any, Dict, Type

import subadd

from .errors import InputError

__all__ = ["to_jsonable", "from_jsonable"]

#: The package's public classes; its dataclasses and enums are encodable.
_CLASSES = [
    cls for cls in (getattr(subadd, name) for name in subadd.__all__)
    if isinstance(cls, type)
]
_DATACLASSES: Dict[str, Type] = {
    cls.__name__: cls for cls in _CLASSES if dataclasses.is_dataclass(cls)
}
_ENUMS: Dict[str, Type] = {
    cls.__name__: cls for cls in _CLASSES if issubclass(cls, enum.Enum)
}


def to_jsonable(obj: Any) -> Any:
    """Recursively convert ``obj`` to JSON-serializable builtins."""
    if obj is None or isinstance(obj, (bool, int, float, str)):
        return obj
    if isinstance(obj, Fraction):
        return {"__kind__": "Fraction", "value": f"{obj.numerator}/{obj.denominator}"}
    for name, cls in _ENUMS.items():
        if isinstance(obj, cls):
            return {"__enum__": name, "value": obj.name}
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        name = type(obj).__name__
        if name not in _DATACLASSES:
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
            cls = _ENUMS.get(name)
            if cls is None:
                raise InputError(f"unknown enum kind {name!r}")
            try:
                return cls[data["value"]]
            except KeyError as exc:
                raise InputError(
                    f"unknown member {data.get('value')!r} of enum {name}"
                ) from exc
        if "__kind__" in data:
            name = data["__kind__"]
            if name == "Fraction":
                try:
                    return Fraction(data["value"])
                except (KeyError, ValueError, ZeroDivisionError) as exc:
                    raise InputError(f"bad Fraction payload {data!r}") from exc
            cls = _DATACLASSES.get(name)
            if cls is None:
                raise InputError(f"unknown dataclass kind {name!r}")
            kwargs = {
                k: from_jsonable(v) for k, v in data.items() if k != "__kind__"
            }
            try:
                return cls(**kwargs)
            except TypeError as exc:
                raise InputError(f"bad payload for {name}: {exc}") from exc
        return {k: from_jsonable(v) for k, v in data.items()}
    raise InputError(f"cannot decode object of type {type(data).__name__}")
