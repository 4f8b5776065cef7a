"""Argument caps and the reference window, stated once without imports.

The modules that enforce these re-export them as public names
(:mod:`subadd.search` the grid caps and ``FULL_BOX``, :mod:`subadd.cone`
the generator cap).  The CLI reads them here for its help texts and
defaults, so that building its parser loads none of those modules.
"""

#: Largest accepted ``grid_n``.  A level costs ``grid_n**2`` gap
#: evaluations: 1e8 at the cap, seconds of work, where ``grid_n`` 1e5
#: would take hours.  The toolkit and its tests use at most 2401.
MAX_GRID_N = 10_001

#: Largest accepted ``refine_depth``.  Level ``k`` scans a box ``10**-k``
#: the size of the original, so from about level 17 a box of unit scale
#: is narrower than one ulp of its centre and each further level rescans
#: one point at ``grid_n**2`` evaluations; ``10.0 ** 309`` overflows.
MAX_REFINE_DEPTH = 30

#: The reference window ``[-8, 8]^2`` as a ``box``:
#: :func:`~subadd.search.reproduce_table` scans it, and so does
#: ``subadd scan`` by default.
FULL_BOX = (-8.0, 8.0, -8.0, 8.0)

#: Largest generator count accepted by :class:`~subadd.cone.Cone` and
#: largest BASE index accepted by :func:`~subadd.cone.q_of`.  BASE
#: generator ``n`` carries the exact coefficient ``2^-n``, so the cap
#: bounds coefficient size, and it bounds the prime cache at
#: ``prime(2 * MAX_GENERATORS)``.
MAX_GENERATORS = 1000
