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
   ``m + l <= 64``, provided the top row of nodes stays within one
   unsnapped y-step of ``y1``; otherwise the plain step.  Where rounding
   a refined box's edges leaves ``dy/(a*dx)`` below ``l/m`` by between
   ``2**-44`` and ``2**-30`` relative, ``dx`` is rounded down onto the
   lattice instead, to ``m*(dy/l)/a``.  Either step is
   then shrunk by ulps until the last node ``x0 + (n-1)*dx`` (resp.
   ``y0 + (n-1)*dy``) lies inside the box, so every node of every level,
   clipped levels included, lies inside the rectangle.  The full box at
   orders 1, 2, 2.5 and 3 needs no snapping (``l/m`` = 1, 1/2, 2/5,
   1/3).

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

3. **High-precision confirmation**: the candidate's margin ``-gap`` is
   recomputed by :func:`verify_point` with
   :class:`subadd.analytic_core.HighPrecision` (128 bits minimum).  A
   violation is reported only when that margin, rounded to float64, is
   strictly positive, so float64 noise can never manufacture a false
   violation.

The default violation box searches ``x`` in ``(0, 0.1]`` and ``y`` at
least ten bump-widths either side of the ring (``mu - 10 sigma`` to ``mu
+ 10 sigma``): for this family, small positive ``x`` with ``a*x + y``
landing just inside the ring peak while ``y`` sits in the dip is the
violation mechanism, so this window is where genuine violations
concentrate (the reference witnesses follow the same pattern).  The
y-span is widened, by less than 0.1, to an integer multiple ``k`` of the
x-span, so that ``dy/(a*dx) = k/a`` and the scan runs on the lattice path
at orders 1, 2 and 3 for ``sigma`` up to about 0.3.

:func:`reproduce_table` re-derives the five stored reference parameter
rows: it recomputes each row's order-3 margin at the stored witness point
in high precision and corroborates order-2 behaviour with a scan.  The
recomputed margins do **not** match the stored reference margins — see the
README's "Known discrepancies".

Kernel contract.  ``scan_block(a, mu, sigma, alpha, x0, dx, y0, dy, i0,
i1, j0, j1)`` evaluates the order-``a`` gap of the working function at
every node ``(x0 + i*dx, y0 + j*dy)`` for ``i in [i0, i1)``, ``j in [j0,
j1)`` and returns ``(min_gap, best_i, best_j)``, where ``(best_i,
best_j)`` is the first row-major node attaining the minimum, or
``(inf, -1, -1)`` if no node produced a finite value.

- Node coordinates are computed as ``x0 + i*dx`` (multiply, then add)
  with absolute indices; ``f`` calls ``analytic_core``'s tree with
  ``numpy`` (``h(0)`` by ``np.exp``) and the gap is
  ``(a*f(x) + f(y)) - f(s)``.
- Lattice path.  When ``dy/(a*dx)`` equals ``l/m`` to within ``2**-44``
  relative for coprime ``m + l <= 64`` (derived from ``a``, ``dx`` and
  ``dy`` alone), every ``a*x_i + y_j`` lies on one 1-D lattice and ``s``
  is taken as ``(a*x0 + y0) + k*delta`` with ``delta = a*dx/m`` and the
  absolute lattice index ``k = m*i + l*j``.  ``f`` is evaluated once per
  lattice point of the block, about ``(m + l)*n`` calls, and each node
  reads its value through a strided view.  ``s`` differs from the
  directly computed ``a*x_i + y_j`` by a few roundings.
- Node path.  Otherwise (a lattice longer than one row tile, as for the
  box ``(0, 1e-6, -8, 8)``), ``s = a*x_i + y_j`` and ``f(s)`` are computed
  per node, one row tile at a time.
- The ``n^2`` part is tiled in row blocks of 64 rows into one reused
  buffer, so peak memory is O(64*n), not O(n^2), on both paths.
- Results are bit-reproducible, and any block partition of the index
  rectangle gives bit-identical values: the path depends only on ``a``,
  ``dx`` and ``dy``, and lattice indices are absolute.
- Row-major first-occurrence tie-breaking equals the lexicographically
  smallest ``(i, j)`` among minimisers, which makes block-wise reduction
  associative (combine block results by ``(value, i, j)`` tuple-minimum).
- NaN and infinite gaps (overflow artefacts) never win, and the overflow
  that makes them raises no NumPy warning.
"""

from __future__ import annotations

import functools
import math
import os
from dataclasses import dataclass
from typing import Optional, Tuple

from .analytic_core import (
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
    gap,
    order_value,
)
from .errors import (
    InputError,
    RangeError,
    require_finite,
    require_instance,
    require_int,
    require_positive,
)


@functools.cache
def _load_numpy():
    """Import numpy with a single OpenBLAS thread unless the caller set
    ``OPENBLAS_NUM_THREADS``; runs on the first :func:`scan_block` call.

    Only the scan kernel uses numpy, so importing the package does not
    load it, and commands that never scan (``certify``, ``oracles``,
    ``cone``) start without it.  The toolkit makes no BLAS call, yet
    OpenBLAS starts a worker pool when it loads, and an idle worker spins
    before it sleeps: about 70 ms of wall time and CPU added to every cold
    command that scans, varying with what else the host runs (2-core Xeon
    VM).  OpenBLAS reads the variable once, at load, so it is set for
    this import only.  Without effect if numpy was imported first.
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
_DEFAULT_TOLERANCE = 1e-9

#: Largest accepted ``grid_n``.  A level costs ``grid_n**2`` gap
#: evaluations: 1e8 at the cap, seconds of work, where ``grid_n`` 1e5
#: would take hours.  The toolkit and its tests use at most 2401.
MAX_GRID_N = 10_001

#: Largest accepted ``refine_depth``.  Level ``k`` scans a box ``10**-k``
#: the size of the original, so from about level 17 a box of unit scale
#: is narrower than one ulp of its centre and each further level rescans
#: one point at ``grid_n**2`` evaluations; ``10.0 ** 309`` overflows.
MAX_REFINE_DEPTH = 30

#: The reference window ``[-8, 8]^2`` as a ``box``: :func:`reproduce_table`
#: scans it, and so does ``subadd scan`` by default.
FULL_BOX = (-8.0, 8.0, -8.0, 8.0)

#: Rows per tile of a scan's O(n^2) part, and the bound on the lattice
#: period ``m + l`` (so the lattice is no longer than one tile).
_BLOCK_ROWS = 64
#: Relative slack within which ``dy / (a*dx)`` counts as equal to ``l/m``.
_RATIO_TOL = 2.0 ** -44
#: How far below ``l/m`` a level's ``dy / (a*dx)`` may lie for ``dx`` to be
#: rounded onto the lattice: above the rounding of refined box edges (1e-13
#: at level 2), below the 2.4e-4 between two ratios with ``m + l <= 64``.
_SNAP_REACH = 2.0 ** -30

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
    MAX_REFINE_DEPTH`` extra shrink rounds; ``tolerance > 0`` is the
    negativity threshold below which a scan minimum is treated as a
    violation candidate.
    """

    box: Tuple[float, float, float, float]
    grid_n: int = _DEFAULT_GRID_N
    refine_depth: int = _DEFAULT_REFINE_DEPTH
    tolerance: float = _DEFAULT_TOLERANCE

    def __post_init__(self) -> None:
        box = self.box
        if not (isinstance(box, tuple) and len(box) == 4):
            raise InputError(f"box must be a 4-tuple, got {box!r}")
        box = tuple(require_finite(v, "box endpoints", box) for v in box)
        object.__setattr__(self, "box", box)
        x_lo, x_hi, y_lo, y_hi = box
        if not (x_lo < x_hi and y_lo < y_hi):
            raise InputError(f"box endpoints must be ordered, got {box}")
        require_int(self.grid_n, "grid_n", 2, MAX_GRID_N)
        require_int(self.refine_depth, "refine_depth", 0, MAX_REFINE_DEPTH)
        tol = require_positive(self.tolerance, "tolerance")
        object.__setattr__(self, "tolerance", tol)


@dataclass(frozen=True)
class ScanReport:
    """Result of :func:`scan_gap_min`.

    ``min_gap`` is the gap re-evaluated at ``argmin`` on the interpreted
    float64 path; ``evaluations`` counts kernel gap evaluations, which is
    exactly ``(refine_depth + 1) * grid_n**2``.
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


def _lattice_ratio(
    a: float, dx: float, dy: float, keep: float, reach: float = _RATIO_TOL
) -> Optional[Tuple[int, int]]:
    """The ``(m, l)`` with ``m + l <= _BLOCK_ROWS`` whose ratio ``l/m`` is
    the largest in ``[r*keep, r*(1 + reach)]``, ``r = dy/(a*dx)``
    (lowest terms), or ``None`` if no ratio lies there."""
    adx = a * dx
    r = dy / adx if adx > 0.0 else math.nan
    if not 0.0 < r < math.inf:
        return None
    best = None
    # l <= _BLOCK_ROWS - m anyway; the cap keeps hi * m finite.
    lo, hi = r * keep, min(r * (1.0 + reach), _BLOCK_ROWS)
    for m in range(1, _BLOCK_ROWS):
        l = min(math.floor(hi * m), _BLOCK_ROWS - m)
        if l >= 1 and l >= lo * m and (best is None or l * best[0] > best[1] * m):
            best = (m, l)
    return best


def _fit_step(lo: float, hi: float, n: int, step: float) -> float:
    """Shrink ``step`` until the last node ``lo + (n-1)*step`` is at most
    ``hi``, so that rounding never places a node outside the box."""
    cut = 2.0 ** -53
    while lo + (n - 1) * step > hi:
        step *= 1.0 - cut
        cut *= 2.0
    return step


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
        xs = x0 + np.arange(i0, i1, dtype=np.float64) * dx
        ys = y0 + np.arange(j0, j1, dtype=np.float64) * dy
        afx = a * f(xs)
        fy = f(ys)

        ratio = _lattice_ratio(a, dx, dy, 1.0 - _RATIO_TOL)
        if ratio is not None:
            # f(a*x_i + y_j) = f(s0 + k*delta) with k = m*i + l*j: evaluate
            # the lattice once, from the block's first to its last k.
            m, l = ratio
            delta = a * dx / m
            k0 = m * i0 + l * j0
            ks = np.arange(k0, m * (i1 - 1) + l * (j1 - 1) + 1, dtype=np.float64)
            fs = f((a * x0 + y0) + ks * delta)
            # Node (i, j) of the block reads fs[m*(i - i0) + l*(j - j0)].
            fs_nodes = np.lib.stride_tricks.as_strided(
                fs, shape=(ni, nj), strides=(m * fs.itemsize, l * fs.itemsize),
                writeable=False,
            )
        else:
            ax = a * xs

        buf = np.empty((min(ni, _BLOCK_ROWS), nj))
        best = (np.inf, -1, -1)
        for r0 in range(0, ni, _BLOCK_ROWS):
            r1 = min(ni, r0 + _BLOCK_ROWS)
            gaps = buf[: r1 - r0]
            if ratio is not None:
                fs_b = fs_nodes[r0:r1]
            else:
                np.add(ax[r0:r1, None], ys[None, :], out=gaps)
                fs_b = f(gaps)
            np.add(afx[r0:r1, None], fy[None, :], out=gaps)
            np.subtract(gaps, fs_b, out=gaps)

            # First row-major occurrence of the minimum; NaN and +-inf never
            # win.  argmin stops at a NaN, so mask only when it returns one.
            flat = int(np.argmin(gaps))
            if not math.isfinite(gaps.flat[flat]):
                np.copyto(gaps, np.inf, where=~np.isfinite(gaps))
                flat = int(np.argmin(gaps))
            value = float(gaps.flat[flat])
            if value < best[0]:
                bi, bj = divmod(flat, nj)
                best = (value, i0 + r0 + bi, j0 + bj)
        return best


def scan_gap_min(a: OrderLike, p: Params, cfg: ScanConfig) -> ScanReport:
    """Deterministic refined grid scan of the order-``a`` gap minimum.

    See the module docstring for the refinement, node-placement and
    tie-breaking rules.
    """
    av = order_value(a)
    p = require_instance(p, Params, "params")
    cfg = require_instance(cfg, ScanConfig, "config")
    x_lo, x_hi, y_lo, y_hi = cfg.box
    n = cfg.grid_n

    best: Optional[Tuple[float, float, float]] = None  # (raw gap, x, y)
    evaluations = 0
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
        dx = _fit_step(bx0, bx1, n, (bx1 - bx0) / (n - 1))
        dy = (by1 - by0) / (n - 1)
        # Snap dy down onto the lattice of a*dx when that costs less than
        # one y-step of the box's height.  Rounding the edges c +- w/2 can
        # leave dy/(a*dx) just below l/m, out of the kernel's reach: then
        # round dx down onto the lattice instead.
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
    tolerance: float = _DEFAULT_TOLERANCE,
) -> ScanConfig:
    """Default violation-hunting window for ``p``: ``x`` in ``(0, 0.1]``
    (starting at the first positive node ``0.1/grid_n``) and ``y`` around
    the ring, ``k`` times as tall as the x-span for the smallest integer
    ``k`` that covers ten bump-widths either side of ``mu``
    (``k = ceil(200*sigma*n/(n-1))``, less than 0.1 taller than
    ``20*sigma``).

    With ``dy/dx = k`` every unclipped level runs on the lattice path at
    orders 1, 2 and 3 while ``k + a <= 64`` (``sigma`` up to about 0.3).
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
        tolerance=tolerance,
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
    prec_bits: int = MIN_PREC_BITS,
) -> Optional[Violation]:
    """Search for an order-``a`` subadditivity violation of the working
    function.

    Scans ``cfg`` (default: :func:`violation_scan_config`), polishes any
    candidate below ``-cfg.tolerance`` with projected Newton steps on the
    gap's analytic gradient and Hessian, and confirms the final point in
    high precision.  Returns
    ``None`` when no candidate emerges or when confirmation fails; a
    returned :class:`Violation` always carries a strictly positive
    high-precision margin.
    """
    av = order_value(a)
    if cfg is None:
        cfg = violation_scan_config(p)
    report = scan_gap_min(av, p, cfg)
    if not report.min_gap < -cfg.tolerance:
        return None

    bx, by = _newton_polish(
        av, p, cfg.box, report.argmin.x, report.argmin.y, report.min_gap
    )
    margin = verify_point(av, p, bx, by, prec_bits)
    if not margin > 0:
        return None
    return Violation(order=Order(av), params=p, point=Point(bx, by), margin=margin)


def verify_point(
    a: OrderLike, p: Params, x: float, y: float, prec_bits: int = MIN_PREC_BITS
) -> float:
    """High-precision violation margin ``-gap`` at one point (positive
    means the inequality fails there), rounded to float64."""
    return float(-HighPrecision(prec_bits).gap(a, "f", x, y, p))


def reproduce_table(
    grid_n: int = _DEFAULT_GRID_N,
    refine_depth: int = _DEFAULT_REFINE_DEPTH,
    prec_bits: int = MIN_PREC_BITS,
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
        margin = verify_point(3.0, p, x_star, y_star, prec_bits=prec_bits)
        scan = scan_gap_min(
            2.0,
            p,
            ScanConfig(
                box=FULL_BOX,
                grid_n=grid_n,
                refine_depth=refine_depth,
                tolerance=_DEFAULT_TOLERANCE,
            ),
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
