"""Verification toolkit for a-subadditive functions.

A function ``f`` is *a-subadditive* for a fixed order ``a > 0`` when
``f(a*x + y) <= a*f(x) + f(y)`` for all real ``x, y``.  This package works
with a concrete two-parameter family — a symmetric, concave-type base
profile plus a scaled ring bump — and provides:

- ``analytic_core``: float64 and high-precision evaluation of the family,
  its gap functional, derivatives, and the plane regions used by the
  certificate;
- ``intervals``: outward-rounded interval arithmetic with three-valued
  comparisons;
- ``certificate``: region-wise sufficient conditions for 2-subadditivity,
  evaluated rigorously, with an honest tri-state verdict;
- ``search``: deterministic grid scanning and refinement for violations of
  a-subadditivity, with high-precision confirmation of any hit;
- ``statement_oracles``: numeric spot-checks of the supporting analytic
  statements (mean-value identities, monotonicity, symmetrization,
  concavity, a semigroup membership test, an indicator-function example);
- ``cone``: an exact rational construction mapping a countable positive
  cone into the subadditive world via per-generator knee maps;
- ``cli``: a ``subadd`` command exposing all of the above.

Each library module's ``__all__`` is the one list of its public names:
the package re-exports them, and its ``__all__`` joins them.  ``cli`` and
``serialize`` are not re-exported.

The namespace is lazy (PEP 562): ``import subadd`` loads no library
module.  The first access of a name, ``subadd.Cone`` say, looks for it in
the library modules already loaded, then imports the others in the order
of ``_LIBRARY`` until one lists it; the name is then bound here, so later
accesses are plain lookups.  A walk that finds a name in no module has
loaded them all, so it binds every public name (as ``__all__`` does), and
each later unknown name is refused without a lookup.  The package's other
modules (``cli``, ``serialize``) are not searched for: ``from subadd
import cli`` loads the CLI alone.  ``subadd.__all__``, ``dir(subadd)`` and
``from subadd import *`` load every library module and bind every name.
So a command loads only the modules it runs: ``subadd certify`` never
compiles the search or the cone, and ``subadd cone`` never compiles the
search, the certificate or the oracles.
"""

import importlib
import importlib.util
import sys

__version__ = "1.0.0"

#: The library modules, in the order their ``__all__`` lists join.
_LIBRARY = (
    "errors",
    "intervals",
    "analytic_core",
    "certificate",
    "search",
    "statement_oracles",
    "cone",
)


def _modules(loaded_first: bool = False):
    """The library modules, each imported when reached; with
    ``loaded_first``, those already loaded come first."""
    names = [f"{__name__}.{module}" for module in _LIBRARY]
    if loaded_first:
        names.sort(key=lambda name: name not in sys.modules)
    for name in names:
        yield sys.modules.get(name) or importlib.import_module(name)


def __getattr__(name: str):
    if name in _LIBRARY:
        return importlib.import_module(f"{__name__}.{name}")
    namespace = globals()
    if name == "__all__":
        public = ["__version__"]
        for found in _modules():
            public += found.__all__
            for each in found.__all__:
                namespace.setdefault(each, getattr(found, each))
        namespace["__all__"] = public
        return public
    # A dunder, or a submodule outside the library (``from subadd import
    # cli`` imports it once this raises), is no library name.
    if (
        "__all__" not in namespace
        and not name.startswith("__")
        and name.isidentifier()
        and importlib.util.find_spec(f"{__name__}.{name}") is None
    ):
        for found in _modules(loaded_first=True):
            if name in found.__all__:
                namespace[name] = getattr(found, name)
                return namespace[name]
        __getattr__("__all__")
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    public = globals().get("__all__") or __getattr__("__all__")
    return sorted(set(globals()) | set(public))
