"""Deterministic violation search for the a-subadditivity gap.

Pipeline:

1. **Grid scan** (:func:`scan_gap_min`): evaluate the gap functional on an
   ``n x n`` grid over a rectangle, then repeatedly re-grid a 10x smaller
   box centred on the running argmin (clipped to the original rectangle),
   keeping the best node seen (ties broken lexicographically).  All node
   arithmetic runs in the NumPy kernel :func:`scan_block` under the
   contract below; the report's ``min_gap`` is re-evaluated at the argmin
   with :func:`subadd.analytic_core.gap`, the scalar path every other
   layer uses.

   Node placement.  Each level takes ``dx = (x1 - x0)/(n - 1)`` and the
   y-step rounded *down* onto the lattice of ``a*dx``: the largest
   ``dy <= (y1 - y0)/(n - 1)`` with ``dy/(a*dx) = l/m`` for integers
   ``m + l <= 128``, the kernel's period (see "Lattice path"), provided
   the top row of nodes stays within one unsnapped y-step of ``y1``;
   otherwise the plain step.  Where rounding a refined box's edges leaves
   ``dy/(a*dx)`` below ``l/m`` by between ``2**-44`` and ``2**-30``
   relative, ``dx`` is rounded down onto the lattice instead, to
   ``m*(dy/l)/a``.  Either step is then shrunk by ulps until the last node
   ``x0 + (n-1)*dx`` (resp. ``y0 + (n-1)*dy``) lies inside the box, so
   every node of every level, clipped levels included, lies inside the
   rectangle.  The full box at orders 1, 2, 2.5 and 3 needs no snapping
   (``l/m`` = 1, 1/2, 2/5, 1/3).

2. **Newton polish** (inside :func:`find_violation`): projected Newton
   descent on the float64 gap ``G = a*f(x) + f(y) - f(s)``, ``s = a*x +
   y``, from the scan's argmin, with ``G_x = a*(f'(x) - f'(s))``,
   ``G_y = f'(y) - f'(s)``, ``G_xx = a*f''(x) - a**2*f''(s)``, ``G_xy =
   -a*f''(s)`` and ``G_yy = f''(y) - f''(s)`` from the ``f'`` and ``f''``
   trees.  Steps are clipped to the box; a coordinate on an edge that the
   gradient pushes outward is held while the other takes the 1-D step.
   A step is taken only if it lowers the float64 gap, else halved (at
   most 30 times); once the model's gain is below the gap's rounding
   noise (``2**-48 * |f(s)|``), a last step is taken on the model alone
   if it stays in the box and the gap at most the scan's.  The polish
   keeps its point at the kink (``x``, ``y`` or ``s`` zero), at a
   non-finite derivative, at a Hessian that is not positive definite and
   when ``sigma**2`` is 0.  It takes at most 20 steps; on the
   ``atlas-sweep`` pools, two.

3. **High-precision confirmation**: a scan minimum is a candidate exactly
   when it is negative, as the paper's ``gap_a(x, y) >= 0`` names no
   threshold.  The polished candidate's margin ``-gap`` is recomputed by
   :func:`verify_point` with :class:`subadd.analytic_core.HighPrecision`,
   at 128 bits or, far from the origin, as many more as the point's size
   needs.  A violation is reported only when that margin, rounded to
   float64, is strictly positive, so float64 noise can never manufacture a
   false violation.

The default violation box searches ``x`` in ``(0, 0.1]`` and ``y`` at
least ten bump-widths either side of the ring (``mu - 10 sigma`` to ``mu
+ 10 sigma``): for this family, small positive ``x`` with ``a*x + y``
landing just inside the ring peak while ``y`` sits in the dip is the
violation mechanism, so this window is where genuine violations
concentrate (the reference witnesses follow the same pattern).  The
y-span is widened, by less than 0.1, to an integer multiple ``k`` of the
x-span, so that ``dy/(a*dx) = k/a`` and the scan runs on the lattice path
at orders 1, 2 and 3 for ``sigma`` up to about 0.6.

:func:`reproduce_table` re-derives the five stored reference parameter
rows: it recomputes each row's order-3 margin at the stored witness point
in high precision and corroborates order-2 behaviour with a scan.  The
recomputed margins do **not** match the stored reference margins — see the
README's "Known discrepancies".

Kernel contract.  ``scan_block(a, mu, sigma, alpha, x0, dx, y0, dy, i0,
i1, j0, j1)`` minimises the order-``a`` gap of the working function over
every node ``(x0 + i*dx, y0 + j*dy)`` for ``i in [i0, i1)``, ``j in [j0,
j1)``, each node either evaluated or excluded by an exact lower bound
(see "Block bounds"), and returns ``(min_gap, best_i, best_j)``, where
``(best_i, best_j)`` is the first row-major node attaining the minimum,
or ``(inf, -1, -1)`` if no node produced a finite value.

- Node coordinates are computed as ``x0 + i*dx`` (multiply, then add)
  with absolute indices; ``f`` calls ``analytic_core``'s tree with
  ``numpy`` (``h(0)`` by ``np.exp``) and the gap is
  ``(a*f(x) + f(y)) - f(s)``.
- Lattice path.  When ``dy/(a*dx)`` equals ``l/m`` to within ``2**-44``
  relative for coprime ``m + l <= 128``, two row tiles (derived from
  ``a``, ``dx`` and ``dy`` alone, by a Stern–Brocot walk), every
  ``a*x_i + y_j`` lies on one 1-D lattice and ``s`` is taken as ``(a*x0
  + y0) + k*delta`` with ``delta = a*dx/m`` and the absolute lattice
  index ``k = m*i + l*j``.  ``f`` is evaluated once per lattice point of
  the block, about ``(m + l)*n`` calls, and each node reads its value
  through a read-only strided view of them, an ``np.ndarray`` built on
  their buffer.  ``s`` differs from the directly computed ``a*x_i + y_j``
  by a few roundings.
- One ``f`` pass.  ``f`` is elementwise, so the kernel evaluates it in
  one call over the nodes ``[x_i, y_j]`` and, when the lattice is at most
  ``_LATTICE_CHUNK`` points, the lattice after them: one pass per level,
  with the bits of one call per array.  A longer lattice takes one more
  call per chunk.
- Node path.  Otherwise (no period ``m + l <= 128``, as for the box
  ``(0, 1e-6, -8, 8)``), ``s = a*x_i + y_j`` and ``f(s)`` are computed per
  node, one row tile at a time.
- Outer sums.  ``a*f(x_i) + f(y_j)``, and on the node path ``a*x_i +
  y_j``, are formed as the matrix product of ``L = [u, 1]`` (n x 2) and
  ``R = [1; v]`` (2 x n), built once per call.  Each entry is ``u_i*1 +
  1*v_j``: both products are exact and the sum is rounded once, so it
  equals ``u_i + v_j`` bit for bit however BLAS orders or splits the
  product, and whatever its thread count.  The one exception, ``-0 +
  -0`` giving ``+0``, cannot change a result: ``f`` never returns
  ``-0``, nodes are never ``-0``, and the minimum and argmin treat
  ``+-0`` as equal.  The product runs in SIMD, numpy's broadcast add
  does not.
- The ``n^2`` part is tiled in row blocks of 64 rows into one reused
  buffer, and the lattice path's ``f`` values ``fs`` number at most
  ``128*n``, so peak memory is O(n), not O(n^2), on both paths; the block
  bounds below let the loop skip whole 64 x 64 blocks of it.  A lattice
  call holds ``fs``, the row-tile buffer (``64*n`` entries) and O(chunk)
  temporaries: a lattice longer than a chunk is evaluated into ``fs``,
  and the bounds' envelope pass runs over it, ``_LATTICE_CHUNK`` (2**14)
  points at a time, so no other array is as long as the lattice.
- Block bounds.  On the lattice path, each 64-row tile x 64-column block
  gets a float64 lower bound ``lb`` on its gaps ``fl(fl(u_i + v_j) -
  fs_k)`` (see "Outer sums"), ``u = a*f(x)``, ``v = f(y)``.  Block ``(t,
  b)``, rows ``[r0, r1)`` and columns ``[c0, c1)``, starts its lattice
  range at ``kA = 64*(m*t + l*b)``.  The range of every block with that start lies in
  the window ``[kA, kB]``, ``kB = min(kA + 63*(m + l), nk - 1)`` for
  ``nk`` lattice points: a whole block's range is its window, and an
  edge block's is shorter, which keeps its bound sound and may lower it.
  For any slope ``c``, since ``k - kA = m*(i - r0) + l*(j - c0)``::

      u_i + v_j - fs_k = (u_i - c*m*(i - r0)) + (v_j - c*l*(j - c0))
                         + (-fs_k + c*(k - kA))

  exactly.  The kernel takes the window's ``c = (fs[kB] - fs[kA])/(kB -
  kA)`` and bounds each bracket from linear envelopes, computed in one
  pass over ``w = [u, v, -fs]``, built one group of whole chunks (the
  chunks that start in one stretch of ``_LATTICE_CHUNK`` entries) at a
  time: per chunk of ``w`` (64 points of ``u``, a tile's rows; 64 of
  ``v``, a block's columns; ``size = 64*max(1, (m + l)//4)`` of ``-fs``,
  about a quarter of a window and at least 64), its end-to-end slope
  ``d`` and ``low``, the minimum of ``w_p - d*p`` over its offsets
  ``p``.  On a chunk, for any slope ``s``, ``w_p - s*p >= low
  + min(0, (d - s)*span)``.  The first two brackets take ``s = c*m`` and
  ``s = c*l`` on the tile's and the block's chunk; the third takes ``s =
  -c`` on each chunk of ``-fs`` that meets the window, shifted by ``c``
  times the chunk's offset from ``kA``, and the least of these.  So ``c``
  and the third bracket are computed once per window, not per block (112
  windows for 1,444 blocks at 2401 columns and order 2), and each block
  gathers its tile's, its block's and its window's values.  The index
  arrays of that gather depend only on the shape ``(ni, nj, m, l)``; they
  stay cached, read-only, so that the levels of a scan share them, up to
  ``_LAYOUT_BYTES`` (8 MiB, the cache's worst case) in all.
  Near a minimum ``G_x`` and ``G_y`` both vanish, so the bound misses the
  block's minimum by O(h*|grad G| + h**2*|f''|), where the range bound
  ``(min u + min v) - max fs`` missed it by O(h*|f'|).

  Margin.  Each operation is an add or subtract, a product with an
  integer or a power of two, or a min/max; the slopes ``d`` and ``c`` are
  divided once (``c`` as ``-c``, the slope of ``-fs``), and the identity
  holds for whatever floats they are.  So each rounding errs by at most
  ``2**-53`` of its result (an add or subtract below the normal range, or
  such a product, is exact), and every result, and every rounding error
  carried through a product with a count of lattice steps, is at most
  ``5*W + 2*L``, with ``W`` the largest ``|u|`` of the tile plus the
  largest ``|v|`` of the block plus the largest ``|fs|`` of the window's
  chunks, and ``L = |c|*(kB - kA + 2*size)``: the window holds the
  block's lattice range and its chunks start less than ``size`` before
  ``kA``, so no count exceeds ``kB - kA + size``.  The bound takes 22
  roundings and the gap two more, together less than ``2**-46*(W + L)``;
  ``lb`` subtracts ``2**-37*(W + L)``, 512 times that.  If any
  intermediate overflows, so does ``8*(W + L)``, and ``lb`` is ``-inf``
  or NaN.  So ``gap >= lb``: no node of a block with ``lb > best`` can
  equal or beat the running minimum ``best``.
- Loop.  One loop visits the row tiles in row order.  Without bounds (the
  node path) each tile evaluates every column.  With bounds, the block of
  lowest bound is evaluated first, alone, and folded into ``best``, so
  that the first tile already has a finite ``best`` to skip blocks
  against; then a tile whose smallest bound is above ``best`` is skipped,
  and any other evaluates only the contiguous column span of its blocks
  with ``not lb > best`` (so a NaN bound, which any NaN input of the
  block gives, never prunes).  On the seed-3 ``fullbox-scan`` pool a refined level at 2401
  computes 0.6 to 4.4% of its nodes.
- Results are bit-reproducible, and any block partition of the index
  rectangle gives bit-identical values: the path depends only on ``a``,
  ``dx`` and ``dy``, and lattice indices are absolute.
- Row-major first-occurrence tie-breaking equals the lexicographically
  smallest ``(i, j)`` among minimisers, which makes block-wise reduction
  associative (combine block results by ``(value, i, j)`` tuple-minimum).
  The kernel combines its own tiles that way, so the seed block and the
  skipped blocks leave ``(value, i, j)`` bit for bit as a scan of every
  node gives it.
- NaN and infinite gaps (overflow artefacts) never win, and the overflow
  that makes them raises no NumPy warning.
"""

from __future__ import annotations

import functools
import math
import os
from collections import OrderedDict
from dataclasses import dataclass
from typing import Optional, Tuple

from ._limits import FULL_BOX, MAX_GRID_N, MAX_REFINE_DEPTH
from .analytic_core import (
    MAX_PREC_BITS,
    MIN_PREC_BITS,
    HighPrecision,
    Order,
    OrderLike,
    Params,
    Point,
    _evaluator,
    _f_prime,
    _f_second,
    _gap,
    _require_gap_args,
    gap,
    order_value,
)
from .errors import (
    InputError,
    RangeError,
    describe,
    require_finite,
    require_instance,
    require_int,
)


@functools.cache
def _load_numpy():
    """Import numpy with a single OpenBLAS thread unless the caller set
    ``OPENBLAS_NUM_THREADS``; runs on the first :func:`scan_block` call.

    Only the scan kernel uses numpy, so importing the package does not
    load it, and commands that never scan (``certify``, ``oracles``,
    ``cone``) start without it.  The toolkit's one BLAS call is the
    kernel's outer sum, a rank-2 matrix product whose result does not
    depend on the thread count.  OpenBLAS starts a worker pool when it
    loads, and an idle worker spins before it sleeps: about 70 ms of wall
    time and CPU added to every cold command that scans, varying with what
    else the host runs (2-core Xeon VM); one thread also keeps the product
    on one core.  OpenBLAS reads the variable once, at load, so it is set
    for this import only.  Without effect if numpy was imported first.
    """
    pin = "OPENBLAS_NUM_THREADS" not in os.environ
    if pin:
        os.environ["OPENBLAS_NUM_THREADS"] = "1"
    try:
        import numpy
    finally:
        if pin:
            del os.environ["OPENBLAS_NUM_THREADS"]
    return numpy


__all__ = [
    "MAX_GRID_N",
    "MAX_REFINE_DEPTH",
    "FULL_BOX",
    "ScanConfig",
    "ScanReport",
    "Violation",
    "TableRow",
    "scan_gap_min",
    "find_violation",
    "verify_point",
    "reproduce_table",
    "violation_scan_config",
    "TABLE_REFERENCE_ROWS",
    "TABLE_ALPHA",
]

#: Most Newton steps per polish.  On the atlas-sweep pools every polish
#: takes two: one from the scan's node, then one trusted to the model.
_NEWTON_STEPS = 20
#: Most halvings of one Newton step before the polish keeps its point.
_NEWTON_HALVINGS = 30
#: Relative float64 rounding of a gap value, taken as ``2**-48`` of
#: ``|f(a*x + y)|``: a predicted gain below it is noise to the gap.
_GAP_NOISE = 2.0**-48

#: Defaults for the violation search.
_DEFAULT_GRID_N = 401
_DEFAULT_REFINE_DEPTH = 2

#: Rows per tile of a scan's O(n^2) part, and columns per block of the
#: block bounds.
_BLOCK_ROWS = 64
#: Lattice points per chunk.  ``scan_block`` evaluates ``f`` over a
#: lattice of at most this many points in the one pass that also takes
#: the level's nodes, and over a longer one this many points at a time;
#: ``_block_bounds`` runs its envelope pass over groups of whole chunks of
#: about as many, so a level's temporaries are O(chunk) beside ``fs``
#: itself.  Every period-3 full-box lattice (7,201 points at ``grid_n``
#: 2401) is one chunk, and so are 1,890 of the 1,901 distinct
#: violation-window lattices of the ``atlas-sweep`` pools of seeds 101 and
#: 202 (the longest: 46,801 points, period 117).  The period-83 level
#: clipped at ``grid_n`` 1601 (132,801 points) is nine.  In one pass over
#: its whole lattice, its call peaked at 7.19 MiB of allocations
#: (tracemalloc, cold layout cache); in chunks of 2**11 to 2**14 points at
#: 2.37 to 2.40 MiB, of which ``fs`` is 1.01 and the row-tile buffer 0.78;
#: in chunks of 2**15 at 2.61 and of 2**16 at 4.11.
_LATTICE_CHUNK = 2**14
#: Longest lattice period ``m + l`` the kernel runs on.  Its lattice holds
#: at most ``_LATTICE_PERIOD * n`` points, still O(n); a level clipped at
#: ``grid_n`` 1601 needs 83.
_LATTICE_PERIOD = 2 * _BLOCK_ROWS
#: Relative slack within which ``dy / (a*dx)`` counts as equal to ``l/m``.
_RATIO_TOL = 2.0 ** -44
#: How far below ``l/m`` a level's ``dy / (a*dx)`` may lie for ``dx`` to be
#: rounded onto the lattice: above the rounding of refined box edges (1e-13
#: at level 2), below the 2.5e-4 relative between two ratios with ``m + l
#: <= 128`` (62/63 and 63/64).
_SNAP_REACH = 2.0 ** -30
#: The block bounds subtract ``_BOUND_SLACK * 8*(W + L)``, 512 times their
#: rounding error (see "Margin" in the module docstring).
_BOUND_SLACK = 2.0 ** -40
#: Most bytes of block-bound layouts kept cached, the least recently used
#: dropped first.  A violation-window layout takes about 33 kB (the
#: flagship's takes 130 µs to build); the ``atlas-sweep`` pool of seed 101
#: meets 46 window shapes (1.5 MB), so 914 of its 960 levels reuse one.
#: The ``fullbox-scan`` shapes take 0.6 MB, and the largest, 6.7 MB
#: (``MAX_GRID_N``, period 128), fits, so its scan's levels share it too.
#: A hit moves its layout to the back and returns; only a build walks the
#: cache to evict.
_LAYOUT_BYTES = 8 * 2**20
#: Shape ``(ni, nj, m, l)`` to ``(layout, bytes)``, least recently used first.
_layouts: OrderedDict = OrderedDict()
#: The cap that the last eviction pass kept ``_layouts`` within; a hit
#: passes again only when ``_LAYOUT_BYTES`` has since been lowered.
_layouts_cap = _LAYOUT_BYTES
#: Distinct argument tuples of :func:`_lattice_ratio` kept with their walk:
#: a ``fullbox-scan`` pool meets 37, in 198 calls.
_RATIO_CACHE = 256

#: Stored reference rows: (mu, sigma, x_star, y_star, stored_margin), all
#: sharing TABLE_ALPHA.  ``stored_margin`` is the reference value this
#: package attempts (and documentedly fails) to reproduce.
TABLE_ALPHA = 0.117783036
TABLE_REFERENCE_ROWS: Tuple[Tuple[float, float, float, float, float], ...] = (
    (1.5, 0.05, 0.00675, 1.45367, 0.001664770),
    (2.0, 0.10, 0.01050, 1.95491, 0.000326430),
    (2.5, 0.10, 0.00900, 2.45647, 0.000183238),
    (3.0, 0.10, 0.00750, 2.95886, 0.000105165),
    (5.0, 0.15, 0.00750, 4.96456, 0.000053255),
)


@dataclass(frozen=True)
class ScanConfig:
    """Grid-scan configuration.

    ``box`` is ``(x_lo, x_hi, y_lo, y_hi)`` with finite ordered endpoints;
    ``2 <= grid_n <= MAX_GRID_N`` nodes per axis; ``0 <= refine_depth <=
    MAX_REFINE_DEPTH`` extra shrink rounds.  A scan minimum is a
    violation candidate exactly when it is negative; the high-precision
    confirmation, not a threshold, decides the rest.
    """

    box: Tuple[float, float, float, float]
    grid_n: int = _DEFAULT_GRID_N
    refine_depth: int = _DEFAULT_REFINE_DEPTH

    def __post_init__(self) -> None:
        box = self.box
        if not (isinstance(box, tuple) and len(box) == 4):
            raise InputError(f"box must be a 4-tuple, got {describe(box)}")
        box = tuple(require_finite(v, "box endpoints", box) for v in box)
        object.__setattr__(self, "box", box)
        x_lo, x_hi, y_lo, y_hi = box
        if not (x_lo < x_hi and y_lo < y_hi):
            raise InputError(f"box endpoints must be ordered, got {box}")
        require_int(self.grid_n, "grid_n", 2, MAX_GRID_N)
        require_int(self.refine_depth, "refine_depth", 0, MAX_REFINE_DEPTH)


@dataclass(frozen=True)
class ScanReport:
    """Result of :func:`scan_gap_min`.

    ``min_gap`` is the gap re-evaluated at ``argmin`` on the interpreted
    float64 path; ``evaluations`` counts the grid nodes the kernel
    covered, each either evaluated or excluded by its block's bound (see
    "Block bounds" in the module docstring): ``grid_n**2`` per level run,
    ``refine_depth + 1`` levels unless the box collapsed to a point.
    """

    order: Order
    params: Params
    min_gap: float
    argmin: Point
    evaluations: int


@dataclass(frozen=True)
class Violation:
    """A confirmed a-subadditivity violation: ``margin`` is the
    high-precision value of ``-gap`` at ``point`` and is strictly
    positive."""

    order: Order
    params: Params
    point: Point
    margin: float


@dataclass(frozen=True)
class TableRow:
    """One re-derived reference row.

    ``margin`` is the recomputed high-precision order-3 margin at the
    stored witness; ``scan_min_gap`` the order-2 scan minimum over
    ``[-8, 8]^2``; ``expected_margin`` the stored reference margin."""

    mu: float
    sigma: float
    alpha: float
    x_star: float
    y_star: float
    margin: float
    scan_min_gap: float
    expected_margin: float


@functools.lru_cache(maxsize=_RATIO_CACHE)
def _lattice_ratio(
    a: float,
    dx: float,
    dy: float,
    keep: float,
    reach: float = _RATIO_TOL,
) -> Optional[Tuple[int, int]]:
    """The ``(m, l)`` with ``m + l <= _LATTICE_PERIOD`` whose ratio ``l/m``
    is the largest in ``[r*keep, r*(1 + reach)]``, ``r = dy/(a*dx)``
    (lowest terms), or ``None`` if no ratio lies there.

    The largest ``l/m <= hi = r*(1 + reach)`` is the best lower rational
    approximation of ``hi`` with ``m + l <= _LATTICE_PERIOD``.  It is found
    by a Stern–Brocot descent towards ``hi``'s exact value, which keeps two
    neighbours ``l/m <= hi < u/v`` and takes each run of steps in one
    direction as one batch.  Every ratio strictly between two neighbours
    has ``m + l`` at least the sum of theirs, so the descent stops when the
    next mediant's sum is above the period, with ``l/m`` the answer.  The
    comparison with ``hi`` is exact; a loop over ``m`` taking ``l =
    floor(hi*m)`` in float64 would also accept an ``l/m`` that ``hi*m``
    rounds up to.
    """
    adx = a * dx
    r = dy / adx if adx > 0.0 else math.nan
    if not 0.0 < r < math.inf:
        return None
    period = _LATTICE_PERIOD
    # l/m < period anyway; the cap keeps hi finite.
    lo, hi = r * keep, min(r * (1.0 + reach), period)
    p, q = hi.as_integer_ratio()
    l, m, u, v = 0, 1, 1, 0
    while True:
        # Step l/m towards u/v while the mediant stays <= p/q ...
        k = min((p * m - q * l) // (q * u - p * v), (period - l - m) // (u + v))
        l, m = l + k * u, m + k * v
        # ... then u/v towards l/m while it stays > p/q.
        j = (period - u - v) // (l + m)
        if p * m > q * l:
            j = min(j, (q * u - p * v - 1) // (p * m - q * l))
        if j == 0:
            break
        u, v = u + j * l, v + j * m
    if l == 0 or l < lo * m:
        return None
    return m, l


def _fit_step(lo: float, hi: float, n: int, step: float) -> float:
    """Shrink ``step`` until the last node ``lo + (n-1)*step`` is at most
    ``hi``, so that rounding never places a node outside the box."""
    cut = 2.0 ** -53
    while lo + (n - 1) * step > hi:
        step *= 1.0 - cut
        cut *= 2.0
    return step


def _outer_sum(np, u, v):
    """``L = [u, 1]`` and ``R = [1; v]``, so that ``L[r0:r1] @ R`` is the
    outer sum ``u[r0:r1, None] + v[None, :]`` (see "Outer sums" in the
    module docstring)."""
    lhs = np.ones((u.size, 2))
    lhs[:, 0] = u
    rhs = np.ones((2, v.size))
    rhs[1] = v
    return lhs, rhs


def _bound_layout(ni: int, nj: int, m: int, l: int):
    """The index arrays of :func:`_block_bounds` for ``ni`` rows, ``nj``
    columns and the lattice ``(m, l)``, cached: they depend on nothing
    else, so the levels of a scan share them (see ``_LAYOUT_BYTES``)."""
    global _layouts_cap
    shape = (ni, nj, m, l)
    entry = _layouts.get(shape)
    if entry is not None:
        try:
            _layouts.move_to_end(shape)
        except KeyError:  # another thread dropped it meanwhile
            pass
        if _LAYOUT_BYTES >= _layouts_cap:
            return entry[0]
    else:
        entry = _layouts[shape] = _build_layout(*shape)
    # The newest layouts that fit stay; a snapshot, as scans may use threads.
    _layouts_cap, held = _LAYOUT_BYTES, 0
    for key, (_, size) in reversed(list(_layouts.items())):
        held += size
        if held > _LAYOUT_BYTES:
            _layouts.pop(key, None)
    return entry[0]


def _build_layout(ni: int, nj: int, m: int, l: int):
    """``(layout, bytes)`` for :func:`_bound_layout`: the groups of whole
    chunks as a tuple, then read-only arrays.  The largest, the offset of
    each entry of ``w`` in its chunk, is uint16, since a chunk holds at
    most 2048 entries, and is built without a full-length temporary."""
    np = _load_numpy()
    nk = m * (ni - 1) + l * (nj - 1) + 1
    size = _BLOCK_ROWS * max(1, (m + l) // 4)
    tiles, blocks = -(-ni // _BLOCK_ROWS), -(-nj // _BLOCK_ROWS)
    # Chunks of w = [u, v, -fs]: one per tile, one per block, then chunks
    # of fs of size points, about a quarter of a block's lattice range.
    fs0, n_uv = ni + nj, tiles + blocks
    starts = np.concatenate((
        np.arange(0, ni, _BLOCK_ROWS),
        np.arange(ni, fs0, _BLOCK_ROWS),
        np.arange(fs0, fs0 + nk, size),
    ))
    counts = np.diff(starts, append=fs0 + nk)
    span = counts - 1
    offset = np.empty(fs0 + nk, dtype=np.uint16)
    for lo, hi, step in ((0, ni, _BLOCK_ROWS), (ni, fs0, _BLOCK_ROWS), (fs0, fs0 + nk, size)):
        whole = lo + (hi - lo) // step * step
        offset[lo:whole].reshape(-1, step)[:] = np.arange(step)
        offset[whole:hi] = np.arange(hi - whole)
    # Groups of whole chunks: the chunks that start in one stretch of
    # _LATTICE_CHUNK entries of w, as (first chunk, end chunk, first
    # entry, end entry).
    c_a = np.flatnonzero(np.diff(starts // _LATTICE_CHUNK, prepend=-1))
    c_b = np.append(c_a[1:], starts.size)
    groups = tuple(zip(
        c_a.tolist(), c_b.tolist(), starts[c_a].tolist(),
        np.append(starts, fs0 + nk)[c_b].tolist(),
    ))
    # Each chunk's first entry in its group.
    first = starts - starts[c_a].repeat(c_b - c_a)
    # Block (t, b) starts at lattice index 64*(m*t + l*b); blocks of one
    # start k_a share the window [k_a, k_b], which holds their ranges.
    k_a, inv = np.unique(
        _BLOCK_ROWS * (m * np.arange(tiles)[:, None] + l * np.arange(blocks)),
        return_inverse=True,
    )
    k_b = np.minimum(k_a + (_BLOCK_ROWS - 1) * (m + l), nk - 1)
    # The chunks of fs that meet each window, one row per chunk offset from
    # the window's first; past its last chunk, that one again.
    q_a, q_b = k_a // size, k_b // size
    q = np.minimum(q_a + np.arange(int((q_b - q_a).max()) + 1)[:, None], q_b)
    chunks = n_uv + q
    # Each block's tile (row 0) and column block (row 1), as chunks of w.
    pick = np.stack(np.broadcast_arrays(
        np.arange(tiles)[:, None], tiles + np.arange(blocks)
    ))
    arrays = (
        counts,
        offset,
        first,
        # The last entry (row 0) and the first (row 1) of each chunk, in
        # its group, and the divisor of its slope d.
        np.stack((first + span, first)),
        np.maximum(span, 1).astype(np.float64),
        # The first (row 0) and the last (row 1) point of each window, in
        # fs, and the divisor of its slope e = -c.
        np.stack((k_a, k_b)),
        np.maximum(k_b - k_a, 1).astype(np.float64),
        chunks,
        span[chunks].astype(np.float64),
        # Each window's k_a less its chunks' first indices, and its width
        # plus two chunks (the margin's L over |c|).
        (k_a - size * q).astype(np.float64),
        (k_b - k_a + 2 * size).astype(np.float64),
        # m and l as a column, for e*m and e*l in one product.
        np.array([[m], [l]], dtype=np.float64),
        pick,
        span[pick].astype(np.float64),
        inv.reshape(tiles, blocks),
    )
    # Cached: no caller may change them, through a view either.
    for a in arrays:
        a.flags.writeable = False
    return (groups,) + arrays, sum(a.nbytes for a in arrays)


def _block_bounds(np, u, v, fs, m, l):
    """``lb[t, b]``, a lower bound on every gap of row tile ``t`` x column
    block ``b``, from the split of the gap into three brackets about the
    slope ``c`` of ``fs`` over the block's window (see "Block bounds" in
    the module docstring); NaN where an input of the block is NaN."""
    layout = _bound_layout(u.size, v.size, m, l)
    groups, counts, offset, first, edges, divisor, window, window_divisor = layout[:8]
    chunks, chunk_span, shift, width, ml, pick, pick_span, inv = layout[8:]
    ni, fs0 = u.size, u.size + v.size
    # One envelope pass over w = [u, v, -fs], a group of chunks at a time.
    # Rows of env: each chunk's slope d; its low, the least w_p - d*p; and
    # its largest |w|.
    env = np.empty((3, counts.size))
    d, low, top = env
    for c_a, c_b, s_a, s_b in groups:
        w = np.concatenate((
            u[s_a:s_b],
            v[max(s_a - ni, 0) : max(s_b - ni, 0)],
            np.negative(fs[max(s_a - fs0, 0) : max(s_b - fs0, 0)]),
        ))
        at = w.take(edges[:, c_a:c_b])
        d_g = np.divide(np.subtract(at[0], at[1], out=at[0]), divisor[c_a:c_b], out=d[c_a:c_b])
        t = d_g.repeat(counts[c_a:c_b])
        t = np.subtract(w, np.multiply(t, offset[s_a:s_b], out=t), out=t)
        np.minimum.reduceat(t, first[c_a:c_b], out=low[c_a:c_b])
        np.maximum.reduceat(np.abs(w, out=t), first[c_a:c_b], out=top[c_a:c_b])
    # Per window: the slope e of -fs (e = -c); the fs bracket, the least
    # bound over its chunks of -fs at slope e, each shifted by c times its
    # offset from k_a; the largest |fs| of its chunks; the margin's L; and
    # e*m and e*l, for the u and v brackets' slopes c*m = -e*m and c*l =
    # -e*l.
    at = fs.take(window)
    e = np.divide(np.subtract(at[0], at[1], out=at[0]), window_divisor, out=at[0])
    d_f, low_f, top_f = env.take(chunks, axis=1)
    fs_bracket = np.multiply(np.subtract(d_f, e, out=d_f), chunk_span, out=d_f)
    fs_bracket = np.minimum(0.0, fs_bracket, out=fs_bracket)
    fs_bracket += low_f
    fs_bracket += e * shift
    per_window = np.empty((5, e.size))
    np.minimum.reduce(fs_bracket, axis=0, out=per_window[0])
    np.maximum.reduce(top_f, axis=0, out=per_window[1])
    np.multiply(np.abs(e), width, out=per_window[2])
    np.multiply(e, ml, out=per_window[3:])
    # Per block: its window's values, and the u and v brackets from its
    # tile (row 0 of pick) and its column block (row 1) at the slopes
    # c*m and c*l.
    per_block = per_window.take(inv, axis=1)
    d_uv, low_uv, top_uv = env.take(pick, axis=1)
    uv_bracket = np.add(d_uv, per_block[3:], out=d_uv)
    uv_bracket *= pick_span
    uv_bracket = np.minimum(0.0, uv_bracket, out=uv_bracket)
    uv_bracket += low_uv
    lb = np.add(uv_bracket[0], uv_bracket[1], out=uv_bracket[0])
    lb += per_block[0]
    # The margin 2**-37*(W + L); 8*(W + L) overflows if any term above did.
    scale = np.add(top_uv[0], top_uv[1], out=top_uv[0])
    scale += per_block[1]
    scale += per_block[2]
    scale *= 8.0
    scale *= _BOUND_SLACK
    lb -= scale
    return lb


def _axis(np, origin, step, lo, hi, out):
    """``origin + k*step`` for ``k`` in ``[lo, hi)`` (multiply, then add),
    written into ``out``."""
    np.multiply(np.arange(lo, hi, dtype=np.float64), step, out=out)
    return np.add(out, origin, out=out)


def scan_block(
    a: float,
    mu: float,
    sigma: float,
    alpha: float,
    x0: float,
    dx: float,
    y0: float,
    dy: float,
    i0: int,
    i1: int,
    j0: int,
    j1: int,
):
    """Scan one index block; see the module docstring for the contract."""
    np = _load_numpy()
    if i1 <= i0 or j1 <= j0:
        return np.inf, -1, -1
    # Overflow (tiny sigma, huge nodes) makes the inf and NaN gaps that
    # never win; it is not worth a warning.
    with np.errstate(over="ignore", invalid="ignore"):
        f = _evaluator(np, "f", mu, sigma, alpha)

        ni, nj = i1 - i0, j1 - j0
        ratio = _lattice_ratio(a, dx, dy, 1.0 - _RATIO_TOL)
        if ratio is not None:
            # f(a*x_i + y_j) = f(s0 + k*delta) with k = m*i + l*j: evaluate
            # the lattice once, from the block's first to its last k.
            m, l = ratio
            delta = a * dx / m
            s0, k0 = a * x0 + y0, m * i0 + l * j0
            nk = m * (ni - 1) + l * (nj - 1) + 1
        # One pass of f over the nodes [xs, ys] and, when it is one chunk,
        # the lattice after them.
        fused = ratio is not None and nk <= _LATTICE_CHUNK
        pts = np.empty(ni + nj + (nk if fused else 0))
        xs = _axis(np, x0, dx, i0, i1, pts[:ni])
        ys = _axis(np, y0, dy, j0, j1, pts[ni : ni + nj])
        if fused:
            _axis(np, s0, delta, k0, k0 + nk, pts[ni + nj :])
        fv = f(pts)
        afx, fy = fv[:ni], fv[ni : ni + nj]
        afx *= a
        f_lhs, f_rhs = _outer_sum(np, afx, fy)

        if fused:
            fs = fv[ni + nj :]
        elif ratio is not None:

            def lattice_f(c):
                """``f`` over the chunk of the lattice from ``k0 + c``."""
                end = min(nk, c + _LATTICE_CHUNK)
                return f(_axis(np, s0, delta, k0 + c, k0 + end, np.empty(end - c)))

            # The first chunk's values grow in place into fs, and each
            # later chunk is written into it.  An fs taken before the first
            # chunk instead doubled the minor page faults of an atlas-sweep
            # operation (107 against 57, seed-601 pool).
            fs = lattice_f(0)
            fs.resize(nk, refcheck=False)
            for c in range(_LATTICE_CHUNK, nk, _LATTICE_CHUNK):
                fs[c : c + _LATTICE_CHUNK] = lattice_f(c)
        else:
            s_lhs, s_rhs = _outer_sum(np, a * xs, ys)
        if ratio is not None:
            # Node (i, j) of the block reads fs[m*(i - i0) + l*(j - j0)].
            fs_nodes = np.ndarray(
                (ni, nj), buffer=fs, strides=(m * fs.itemsize, l * fs.itemsize)
            )
            fs_nodes.flags.writeable = False
            bounds = _block_bounds(np, afx, fy, fs, m, l)

        buf = np.empty(min(ni, _BLOCK_ROWS) * nj)

        def span_min(r0, c0, c1):
            """``(value, i, j)`` over rows ``[r0, r0 + 64)`` of the block
            and columns ``[c0, c1)``."""
            r1 = min(ni, r0 + _BLOCK_ROWS)
            gaps = buf[: (r1 - r0) * (c1 - c0)].reshape(r1 - r0, c1 - c0)
            if ratio is not None:
                fs_b = fs_nodes[r0:r1, c0:c1]
            else:
                np.matmul(s_lhs[r0:r1], s_rhs, out=gaps)
                fs_b = f(gaps)
            np.matmul(f_lhs[r0:r1], f_rhs[:, c0:c1], out=gaps)
            np.subtract(gaps, fs_b, out=gaps)

            # First row-major occurrence of the minimum; NaN and +-inf never
            # win.  argmin stops at a NaN, so mask only when it returns one.
            flat = gaps.argmin()
            value = gaps.item(flat)
            if not math.isfinite(value):
                np.copyto(gaps, np.inf, where=~np.isfinite(gaps))
                flat = gaps.argmin()
                value = gaps.item(flat)
            bi, bj = divmod(int(flat), c1 - c0)
            return value, i0 + r0 + bi, j0 + c0 + bj

        best = (np.inf, -1, -1)
        if ratio is not None:
            # The block of lowest bound first, alone: the first tile then
            # already skips blocks, where with no finite minimum it would keep
            # them all.
            t, b = divmod(int(bounds.argmin()), bounds.shape[1])
            c0 = b * _BLOCK_ROWS
            best = min(best, span_min(t * _BLOCK_ROWS, c0, min(nj, c0 + _BLOCK_ROWS)))
            lows = bounds.min(axis=1).tolist()
        for t, r0 in enumerate(range(0, ni, _BLOCK_ROWS)):
            c0, c1 = 0, nj
            if ratio is not None:
                # Only blocks whose bound is not above the running minimum can
                # hold a node that equals or beats it; a NaN bound keeps its
                # block (and makes its tile's lowest bound NaN).
                if lows[t] > best[0]:
                    continue
                keep = (~(bounds[t] > best[0])).nonzero()[0]
                c0, c1 = int(keep[0]) * _BLOCK_ROWS, (int(keep[-1]) + 1) * _BLOCK_ROWS
            best = min(best, span_min(r0, c0, min(nj, c1)))
        return best


def scan_gap_min(a: OrderLike, p: Params, cfg: ScanConfig) -> ScanReport:
    """Deterministic refined grid scan of the order-``a`` gap minimum.

    See the module docstring for the refinement, node-placement and
    tie-breaking rules.  Refinement stops once a level's box is the
    previous level's, a point on both axes; a box that still shrinks on
    one axis (the full box at ``grid_n`` 3, depth 30) keeps every level.
    """
    av = order_value(a)
    p = require_instance(p, Params, "params")
    cfg = require_instance(cfg, ScanConfig, "config")
    x_lo, x_hi, y_lo, y_hi = cfg.box
    n = cfg.grid_n

    best: Optional[Tuple[float, float, float]] = None  # (raw gap, x, y)
    evaluations, box = 0, None
    for level in range(cfg.refine_depth + 1):
        if level == 0:
            bx0, bx1, by0, by1 = x_lo, x_hi, y_lo, y_hi
        else:
            shrink = 10.0 ** level
            wx = (x_hi - x_lo) / shrink
            wy = (y_hi - y_lo) / shrink
            cx, cy = best[1], best[2]
            bx0 = max(x_lo, cx - wx / 2.0)
            bx1 = min(x_hi, cx + wx / 2.0)
            by0 = max(y_lo, cy - wy / 2.0)
            by1 = min(y_hi, cy + wy / 2.0)
        if (bx0, bx1, by0, by1) == box:  # later levels rescan the same nodes
            break
        box = (bx0, bx1, by0, by1)
        dx = _fit_step(bx0, bx1, n, (bx1 - bx0) / (n - 1))
        dy = (by1 - by0) / (n - 1)
        # Snap dy down onto the lattice of a*dx when that costs less than
        # one y-step of the box's height.  Rounding the edges c +- w/2 can
        # leave dy/(a*dx) just below l/m, out of the kernel's reach: then
        # round dx down onto the lattice instead; the second check is the
        # kernel's own.
        ratio = _lattice_ratio(av, dx, dy, (n - 2) / (n - 1), _SNAP_REACH)
        if ratio is not None:
            m, l = ratio
            step = l * (av * dx / m)
            if step <= dy:
                dy = step
            elif _lattice_ratio(av, dx, dy, 1.0 - _RATIO_TOL) is None:
                dx = _fit_step(bx0, bx1, n, m * (dy / l) / av)
        dy = _fit_step(by0, by1, n, dy)
        raw, bi, bj = scan_block(
            av, p.mu, p.sigma, p.alpha, bx0, dx, by0, dy, 0, n, 0, n
        )
        evaluations += n * n
        if bi < 0:
            raise RangeError(
                "grid scan produced no finite gap values; the box is too "
                "extreme for float64 evaluation"
            )
        # Node coordinates: same expression as the kernel (i*dx, then +x0).
        cand = (raw, bx0 + bi * dx, by0 + bj * dy)
        if best is None or cand < best:
            best = cand

    argmin = Point(best[1], best[2])
    min_gap = gap(av, "f", argmin.x, argmin.y, p)
    return ScanReport(
        order=Order(av),
        params=p,
        min_gap=min_gap,
        argmin=argmin,
        evaluations=evaluations,
    )


def violation_scan_config(
    p: Params,
    grid_n: int = _DEFAULT_GRID_N,
    refine_depth: int = _DEFAULT_REFINE_DEPTH,
) -> ScanConfig:
    """Default violation-hunting window for ``p``: ``x`` in ``(0, 0.1]``
    (starting at the first positive node ``0.1/grid_n``) and ``y`` around
    the ring, ``k`` times as tall as the x-span for the smallest integer
    ``k`` that covers ten bump-widths either side of ``mu``
    (``k = ceil(200*sigma*n/(n-1))``, less than 0.1 taller than
    ``20*sigma``).

    With ``dy/dx = k`` every unclipped level runs on the lattice path at
    orders 1, 2 and 3 while ``k + a <= 128`` (``sigma`` up to about 0.6).
    """
    p = require_instance(p, Params, "params")
    n = require_int(grid_n, "grid_n", 2, MAX_GRID_N)
    x_lo = 0.1 / n
    ring_lo, ring_hi = p.mu - 10.0 * p.sigma, p.mu + 10.0 * p.sigma
    if not ring_lo < ring_hi:
        raise InputError(
            f"sigma={p.sigma!r} is too small for a float64 violation window "
            f"around mu={p.mu!r}"
        )
    k = 200.0 * p.sigma * n / (n - 1)
    if k < 2.0**53:  # larger floats are integers already, or inf
        k = math.ceil(k)
    half = k * (0.1 - x_lo) / 2.0
    # min/max: rounding must not leave mu +- 10 sigma outside the window
    y_lo, y_hi = min(p.mu - half, ring_lo), max(p.mu + half, ring_hi)
    return ScanConfig(
        box=(x_lo, 0.1, y_lo, y_hi),
        grid_n=grid_n,
        refine_depth=refine_depth,
    )


def _newton_polish(a: float, p: Params, box, x: float, y: float, v: float):
    """Projected Newton descent on the float64 gap from ``(x, y)``, where
    it is ``v``; returns the final point, inside ``box``.  See step 2 of
    the module docstring."""
    mu, sigma, alpha = p.mu, p.sigma, p.alpha
    if sigma * sigma == 0.0:  # f' and f'' divide by it
        return x, y
    w = _evaluator(math, "f", mu, sigma, alpha)
    x_lo, x_hi, y_lo, y_hi = box
    start, floor = v, _GAP_NOISE * abs(w(a * x + y))

    def f1(t):  # f' is odd
        return math.copysign(_f_prime(math, abs(t), mu, sigma, alpha), t)

    def f2(t):  # f'' is even
        return _f_second(math, abs(t), mu, sigma, alpha)

    def into_box(dx, dy):
        return min(max(x + dx, x_lo), x_hi), min(max(y + dy, y_lo), y_hi)

    for _ in range(_NEWTON_STEPS):
        s = a * x + y
        if x == 0.0 or y == 0.0 or s == 0.0:  # the kink of f
            break
        f1s, f2s = f1(s), f2(s)
        gx, gy = a * (f1(x) - f1s), f1(y) - f1s
        hxx, hxy, hyy = a * f2(x) - a * a * f2s, -a * f2s, f2(y) - f2s
        if not all(map(math.isfinite, (gx, gy, hxx, hxy, hyy))):
            break
        # A coordinate on an edge that the gradient pushes outward stays.
        free_x = not (x <= x_lo and gx > 0.0 or x >= x_hi and gx < 0.0)
        free_y = not (y <= y_lo and gy > 0.0 or y >= y_hi and gy < 0.0)
        det = hxx * hyy - hxy * hxy
        if free_x and free_y and hxx > 0.0 and det > 0.0:
            dx, dy = (hxy * gy - hyy * gx) / det, (hxy * gx - hxx * gy) / det
        elif free_x and not free_y and hxx > 0.0:
            dx, dy = -gx / hxx, 0.0
        elif free_y and not free_x and hyy > 0.0:
            dx, dy = 0.0, -gy / hyy
        else:  # no free coordinate, or the Hessian is not positive definite
            break
        if -0.5 * (gx * dx + gy * dy) <= floor:
            # The model's gain is below the gap's rounding noise: trust the
            # model for one last step if the box does not cut it, and stop.
            nx, ny = into_box(dx, dy)
            if (nx, ny) == (x + dx, y + dy) and _gap(a, w, nx, ny) <= start:
                x, y = nx, ny
            break
        for _ in range(_NEWTON_HALVINGS):
            nx, ny = into_box(dx, dy)
            nv = _gap(a, w, nx, ny)
            if nv < v:
                x, y, v = nx, ny, nv
                break
            dx, dy = dx / 2.0, dy / 2.0
        else:
            break
    return x, y


def find_violation(
    a: OrderLike,
    p: Params,
    cfg: Optional[ScanConfig] = None,
) -> Optional[Violation]:
    """Search for an order-``a`` subadditivity violation of the working
    function.

    Scans ``cfg`` (default: :func:`violation_scan_config`), polishes a
    negative scan minimum with projected Newton steps on the gap's
    analytic gradient and Hessian, and confirms the final point in high
    precision; no threshold enters, so a margin of any size is found if
    the scan sees it.  Returns
    ``None`` when no candidate emerges or when confirmation fails; a
    returned :class:`Violation` always carries a strictly positive
    high-precision margin.
    """
    av = order_value(a)
    if cfg is None:
        cfg = violation_scan_config(p)
    report = scan_gap_min(av, p, cfg)
    if not report.min_gap < 0.0:
        return None

    bx, by = _newton_polish(
        av, p, cfg.box, report.argmin.x, report.argmin.y, report.min_gap
    )
    margin = verify_point(av, p, bx, by)
    if not margin > 0:
        return None
    return Violation(order=Order(av), params=p, point=Point(bx, by), margin=margin)


def verify_point(
    a: OrderLike, p: Params, x: float, y: float, prec_bits: int = MIN_PREC_BITS
) -> float:
    """High-precision violation margin ``-gap`` at one point (positive
    means the inequality fails there), rounded to float64.

    ``prec_bits`` is a floor.  The gap's terms are of the size of ``m =
    max(|a*x|, |y|, |a*x + y|)`` and cancel down to a few units, so each
    doubling of ``m`` past 64 costs one more bit: with ``2**(e-1) <= m <
    2**e``, the evaluation runs at ``max(prec_bits, MIN_PREC_BITS +
    max(0, e - 6))`` bits, and every point with ``m < 64`` at
    ``prec_bits``.
    """
    require_int(prec_bits, "prec_bits", MIN_PREC_BITS, MAX_PREC_BITS)
    av, x, y, _ = _require_gap_args(a, "f", x, y, p)
    e = math.frexp(max(abs(av * x), abs(y), abs(av * x + y)))[1]
    bits = max(prec_bits, MIN_PREC_BITS + max(0, e - 6))
    return float(-HighPrecision(bits).gap(av, "f", x, y, p))


def reproduce_table(
    grid_n: int = _DEFAULT_GRID_N,
    refine_depth: int = _DEFAULT_REFINE_DEPTH,
) -> Tuple[TableRow, ...]:
    """Re-derive the five stored reference rows.

    Per row: recompute the order-3 margin at the stored witness point in
    high precision, and scan the order-2 gap over ``[-8, 8]^2`` to probe
    the row's claimed 2-subadditivity.  Returns rows carrying both the
    recomputed and the stored margins; callers decide what to make of the
    mismatch (see the README's "Known discrepancies").
    """
    rows = []
    for mu, sigma, x_star, y_star, expected in TABLE_REFERENCE_ROWS:
        p = Params(mu=mu, sigma=sigma, alpha=TABLE_ALPHA)
        margin = verify_point(3.0, p, x_star, y_star)
        scan = scan_gap_min(
            2.0,
            p,
            ScanConfig(box=FULL_BOX, grid_n=grid_n, refine_depth=refine_depth),
        )
        rows.append(
            TableRow(
                mu=mu,
                sigma=sigma,
                alpha=TABLE_ALPHA,
                x_star=x_star,
                y_star=y_star,
                margin=margin,
                scan_min_gap=scan.min_gap,
                expected_margin=expected,
            )
        )
    return tuple(rows)
