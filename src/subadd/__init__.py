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
"""

from .errors import *
from .intervals import *
from .analytic_core import *
from .certificate import *
from .search import *
from .statement_oracles import *
from .cone import *

__version__ = "1.0.0"

# Each ``from .m import *`` above also binds the submodule ``m`` here.
__all__ = [
    "__version__",
    *errors.__all__,
    *intervals.__all__,
    *analytic_core.__all__,
    *certificate.__all__,
    *search.__all__,
    *statement_oracles.__all__,
    *cone.__all__,
]
