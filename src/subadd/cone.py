"""Exact subadditive bijection of a countable positive cone via knee maps.

Construction.  Take countably many *generators*, each an explicit positive
irrational:

- BASE generator ``n`` (n >= 1) has value ``2^-n / sqrt(prime(2n-1))``;
- RESERVE generator ``k`` (k >= 1) has value ``1 / sqrt(prime(2k))``

(``prime(i)`` is the i-th prime; BASE takes the odd positions and RESERVE
the even ones, so all generators use distinct primes).  A cone is built
from its two counts alone, ``Cone(n_base, n_reserve)``, holding BASE
``1..n_base`` and RESERVE ``1..n_reserve``: each generator's prime and
coefficient follow from its id by the rule above, stated once, so the
certificate behind :func:`q_of` holds for every BASE generator of every
cone.  Both counts are capped at :data:`MAX_GENERATORS`.  Because rational
multiples of square roots of distinct primes are linearly independent over
the rationals, every element of the generated cone — a finite sum
``sum r_i * gen_i`` with strictly positive rational ``r_i`` — has a
*unique* coefficient vector.  All cone arithmetic here is exact
(``fractions.Fraction``); real values enter only through outward-rounded
interval enclosures and exact integer comparisons.

The map.  Each BASE generator ``n`` carries a *scale* ``q_n``: the smallest
integer with ``p_n * q_n > 1 - 2^-n`` where ``p_n`` is the generator's
value.  Certified exactly: ``q = isqrt((2^n - 1)^2 * prime) + 1`` together
with the two strict integer inequalities ``(2^n - 1)^2 * prime < q^2 <
4^n * prime`` proves ``1 - 2^-n < p_n q_n < 1`` with no rounding anywhere
(strictness is automatic: a prime times a nonzero square is never a
square).  The map acts on the *ray* of each BASE generator — elements
``r * p_n`` with a single-entry coefficient vector — by the knee map::

    K_n(r) = q_n * r          if r <= 1       (i.e. the element <= p_n)
             r + (q_n - 1)    if r >  1

(continuous, strictly increasing, piecewise linear with one knee, slope
``q_n`` then 1, ``K_n(0) = 0``) and *fixes everything else* pointwise:
multi-generator elements and RESERVE rays map to themselves.
:meth:`Cone.apply_f` implements this; :meth:`Cone.apply_f_inv` inverts it
exactly, so the map is a bijection of the cone.  It is not monotone: it
stretches each BASE ray and fixes the elements beside it, so ``x = p_1``
(about 0.35355) lies below ``y = p_1 + r_1/1000`` (about 0.35413, ``r_1``
the value of RESERVE generator 1), yet ``f(x) = q_1 p_1`` (about 0.70711)
lies above ``f(y) = y``.

The proof, per generator.  By linear independence ``x + y`` lies on BASE
ray ``n`` only if ``x`` and ``y`` both do, so the map is subadditive once
each knee map is, and a bijection once each knee map is.  Three exact
integer facts per BASE generator settle it, and :meth:`Cone.ray_facts`
decides them:

- ``q_n >= 1``: ``K_n`` is concave with ``K_n(0) = 0`` (so subadditive on
  its ray) and ``K_n(r) >= r`` (so ``f(x) + f(y) >= x + y = f(x + y)``
  when the sum leaves the rays), and strictly increasing and onto the
  positive rationals (so the map is a bijection);
- ``(2^n - 1)^2 * prime < q_n^2``, i.e. ``p_n q_n > 1 - 2^-n``: the limsup;
- ``q_n^2 < 4^n * prime``, i.e. ``p_n q_n < 1``: with ``q_n >= 1`` it
  bounds the map near zero, since ``K_n(r) = min(q_n r, r + q_n - 1)``
  makes the sup of ``f`` over BASE-ray ``n`` elements of value below
  ``eps`` equal ``min(q_n eps, eps + p_n (q_n - 1)) < 1 + eps``, and off
  those rays ``f(x) = x`` (:meth:`Cone.upper_bound_check`).

:meth:`Cone.check_subadditive_pair` shows one pair's case of the lemma: the
per-generator slack vector of ``f(x) + f(y) - f(x + y)``, every entry a
nonnegative exact rational.  The BASE rays show the map's wild behaviour
near zero: ``p_n -> 0`` while ``f(p_n) = q_n p_n -> 1`` from below
(:meth:`Cone.limsup_sequence`), and the reserve sequence ``x_k = (1/k) *``
(RESERVE generator 1) tends to 0 with ``f(x_k) = x_k``
(:meth:`Cone.liminf_sequence`).  So the map has no limit at 0: liminf 0,
limsup 1.

Scope.  The paper's theorem covers any positive rational cone that is not
finitely generated; this module builds one such cone, the rational span
of the generators above.
"""

from __future__ import annotations

import enum
import math
from collections.abc import Mapping
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Optional, Tuple

from ._limits import MAX_GENERATORS
from .errors import (
    ConstructionBugError,
    InputError,
    RangeError,
    describe,
    require_finite,
    require_fraction,
    require_instance,
    require_int,
    require_sequence,
)
from .intervals import Interval, iadd, idiv, imul, isqrt

__all__ = [
    "GeneratorKind",
    "GeneratorId",
    "Generator",
    "ConeElement",
    "WitnessCase",
    "SubadditivityWitness",
    "RayFacts",
    "Cone",
    "make_generators",
    "q_of",
    "MAX_GENERATORS",
]

#: Largest row count of :meth:`Cone.liminf_sequence`, which at the cap
#: takes about 0.55 s in a process of about 19 MB peak RSS (2-core Xeon VM,
#: Python 3.11); also the largest ``samples`` that
#: :meth:`Cone.upper_bound_check` accepts and no longer uses.
_MAX_COUNT = 10_000

#: Primes found so far, in order; grown on demand by :func:`_nth_prime`.
_PRIMES: List[int] = [2, 3]


def _nth_prime(i: int) -> int:
    """The ``i``-th prime (``_nth_prime(1) == 2``), by trial division of odd
    candidates against the cached primes up to their square root."""
    primes = _PRIMES
    candidate = primes[-1] + 2
    while len(primes) < i:
        for p in primes:
            if p * p > candidate:
                primes.append(candidate)
                break
            if candidate % p == 0:
                break
        candidate += 2
    return primes[i - 1]


class GeneratorKind(enum.Enum):
    """BASE generators shrink like ``2^-n`` and carry the knee maps;
    RESERVE generators are order-1 and their rays are fixed pointwise."""

    BASE = "BASE"
    RESERVE = "RESERVE"


@dataclass(frozen=True)
class GeneratorId:
    """Identity of a generator: its family and 1-based index.

    Ids key every coefficient dict, so the sort key and its hash are
    computed once, here.  Neither is a field, so neither is in the JSON;
    equal ids have equal keys, so the hash agrees with ``==``."""

    kind: GeneratorKind
    index: int

    def __post_init__(self) -> None:
        require_instance(self.kind, GeneratorKind, "kind")
        require_int(self.index, "index", 1)
        key = (0 if self.kind is GeneratorKind.BASE else 1, self.index)
        object.__setattr__(self, "_key", key)
        object.__setattr__(self, "_hash", hash(key))

    def __hash__(self) -> int:
        return self._hash

    def sort_key(self) -> Tuple[int, int]:
        return self._key


@dataclass(frozen=True)
class Generator:
    """A generator and its exact value ``coef / sqrt(prime)`` (``coef`` is
    ``2^-n`` for BASE ``n``, ``1`` for RESERVE)."""

    gid: GeneratorId
    prime: int
    coef: Fraction

    def value_interval(self) -> Interval:
        """Outward-rounded enclosure of the (irrational) real value."""
        return _value_interval(self.coef, self.prime)


def _generator(gid: GeneratorId) -> Generator:
    """The construction's rule: BASE ``n`` has prime ``prime(2n-1)`` and
    coefficient ``2^-n``; RESERVE ``k`` has prime ``prime(2k)`` and
    coefficient 1."""
    i = gid.index
    if gid.kind is GeneratorKind.BASE:
        return Generator(gid, _nth_prime(2 * i - 1), Fraction(1, 2**i))
    return Generator(gid, _nth_prime(2 * i), Fraction(1))


def _fraction_interval(fr: Fraction) -> Interval:
    """Tight outward enclosure of an exact rational: ``float(fr)`` is
    correctly rounded to nearest, so one representable step each way
    contains the true value (zero steps when the value is a double)."""
    f = float(fr)
    if Fraction(f) == fr:
        return Interval.point(f)
    return Interval(math.nextafter(f, -math.inf), math.nextafter(f, math.inf))


def _inv_sqrt(prime: int) -> Interval:
    """Outward-rounded enclosure of ``1 / sqrt(prime)``."""
    return idiv(Interval.point(1.0), isqrt(Interval.point(float(prime))))


def _value_interval(coef: Fraction, prime: int) -> Interval:
    """Outward-rounded enclosure of ``coef / sqrt(prime)``, as
    ``coef * (1 / sqrt(prime))``."""
    return imul(_fraction_interval(coef), _inv_sqrt(prime))


def _by_sort_key(item: Tuple[GeneratorId, Fraction]) -> Tuple[int, int]:
    return item[0].sort_key()


@dataclass(frozen=True, slots=True)
class ConeElement:
    """A cone element as its unique sparse coefficient vector: a sorted,
    nonempty tuple of ``(GeneratorId, positive Fraction)`` pairs.

    Construct from a mapping or an iterable of pairs; coefficients must be
    exact rationals > 0 (floats are rejected — the cone is exact).
    """

    coeffs: Tuple[Tuple[GeneratorId, Fraction], ...]

    def __post_init__(self) -> None:
        raw = self.coeffs
        if isinstance(raw, Mapping):
            items = list(raw.items())
        else:
            try:
                items = [(gid, c) for gid, c in require_sequence(raw, "coeffs")]
            except (TypeError, ValueError) as exc:
                raise InputError(
                    f"coeffs must be a mapping or iterable of (GeneratorId, "
                    f"Fraction) pairs, got {describe(raw)}"
                ) from exc
        if not items:
            raise InputError("a cone element must have at least one generator")
        seen: Dict[GeneratorId, Fraction] = {}
        for gid, c in items:
            require_instance(gid, GeneratorId, "coefficient key")
            if gid in seen:
                raise InputError(f"duplicate generator {describe(gid, str)} in element")
            if not (isinstance(c, Fraction) and c > 0):
                # the message names gid, so it is built only on this path
                what = f"coefficient of {describe(gid, str)}"
                c = require_fraction(c, what)
                if c <= 0:
                    raise InputError(f"{what} must be > 0, got {describe(c, str)}")
            seen[gid] = c
        ordered = tuple(sorted(seen.items(), key=_by_sort_key))
        object.__setattr__(self, "coeffs", ordered)

    def to_dict(self) -> Dict[GeneratorId, Fraction]:
        return dict(self.coeffs)

    def support(self) -> Tuple[GeneratorId, ...]:
        return tuple(gid for gid, _ in self.coeffs)

    def single_base_ray(self) -> Optional[GeneratorId]:
        """The BASE generator whose ray this element lies on, or ``None``
        when the element is off every BASE ray (multi-generator support or
        a RESERVE ray)."""
        if len(self.coeffs) == 1 and self.coeffs[0][0].kind is GeneratorKind.BASE:
            return self.coeffs[0][0]
        return None

    @classmethod
    def _trusted(cls, coeffs: Tuple[Tuple[GeneratorId, Fraction], ...]) -> "ConeElement":
        # An element from coefficients already sorted and valid, without
        # ``__post_init__``'s checks.
        element = object.__new__(cls)
        object.__setattr__(element, "coeffs", coeffs)
        return element

    def __add__(self, other: "ConeElement") -> "ConeElement":
        """The sum, coefficient by coefficient, sorted by
        :meth:`GeneratorId.sort_key`.  Two elements' ids are valid and
        their coefficients exact and positive, so the sum's are too and it
        is built without ``__post_init__``'s checks."""
        if not isinstance(other, ConeElement):
            return NotImplemented
        merged = dict(self.coeffs)
        for gid, c in other.coeffs:
            merged[gid] = merged[gid] + c if gid in merged else c
        return ConeElement._trusted(tuple(sorted(merged.items(), key=_by_sort_key)))


class WitnessCase(enum.Enum):
    """Shape of a subadditivity-check pair, after the four proof cases:
    both on the same BASE ray; on two different BASE rays; one on a BASE
    ray and one off; both off every BASE ray (RESERVE rays included)."""

    SAME_RAY = "SAME_RAY"
    CROSS_RAY = "CROSS_RAY"
    RAY_PLUS_OFFRAY = "RAY_PLUS_OFFRAY"
    BOTH_OFFRAY = "BOTH_OFFRAY"


@dataclass(frozen=True)
class SubadditivityWitness:
    """Per-generator slack of ``f(x) + f(y) - f(x + y)``: every entry is an
    exact nonnegative rational, which certifies the real inequality because
    generator values are positive."""

    case_tag: WitnessCase
    slacks: Tuple[Tuple[GeneratorId, Fraction], ...]

    def is_valid(self) -> bool:
        return all(s >= 0 for _, s in self.slacks)


@dataclass(frozen=True)
class RayFacts:
    """The exact integer facts of BASE generator ``n`` (value ``p_n``,
    ``prime``, scale ``q``) that the module docstring's proof rests on, as
    :meth:`decide` decides them:

    - ``knee_ok``: ``q >= 1``, so ``K_n`` is concave, strictly increasing
      and onto, with ``K_n(0) = 0`` and ``K_n(r) >= r``;
    - ``limsup_ok``: ``(2^n - 1)^2 * prime < q^2``, i.e. ``p_n q > 1 - 2^-n``;
    - ``below_one``: ``q^2 < 4^n * prime``, i.e. ``p_n q < 1``.
    """

    n: int
    prime: int
    q: int
    knee_ok: bool
    limsup_ok: bool
    below_one: bool

    @classmethod
    def decide(cls, n: int, prime: int, q: int) -> "RayFacts":
        low, high = (2**n - 1) ** 2 * prime, 4**n * prime
        return cls(n, prime, q, q >= 1, low < q * q, q * q < high)

    def holds(self) -> bool:
        return self.knee_ok and self.limsup_ok and self.below_one


def q_of(n: int) -> int:
    """The certified scale of BASE generator ``n``: the smallest integer
    ``q`` with ``p_n * q > 1 - 2^-n``, i.e. the smallest integer in the
    open interval ``((2^n - 1) sqrt(prime), 2^n sqrt(prime))``, which is
    ``isqrt((2^n - 1)^2 * prime) + 1``.

    Certification is exact integer arithmetic: ``(2^n - 1)^2 * prime <
    q^2 < 4^n * prime`` (both strict because a prime times a nonzero
    square is never a square).  These two inequalities are equivalent to
    ``1 - 2^-n < p_n q < 1``.  ``n`` must lie in ``[1, MAX_GENERATORS]``.
    """
    require_int(n, "n", 1, MAX_GENERATORS)
    prime = _generator(GeneratorId(GeneratorKind.BASE, n)).prime
    q = math.isqrt((2**n - 1) ** 2 * prime) + 1
    if not RayFacts.decide(n, prime, q).holds():
        raise ConstructionBugError(
            f"scale certification failed for n={n}: prime={prime}, q={q}"
        )
    return q


class Cone:
    """A finitely generated instance of the construction: BASE generators
    ``1..n_base`` and RESERVE generators ``1..n_reserve``, each count in
    ``[1, MAX_GENERATORS]``.  Primes and coefficients follow from the ids
    (see the module docstring), and every BASE scale :func:`q_of` and
    every generator's ``1 / sqrt(prime)`` enclosure is computed here, once.
    All coefficient arithmetic is exact; the only approximate outputs are
    outward-rounded interval enclosures of real values.
    """

    def __init__(self, n_base: int, n_reserve: int) -> None:
        self.n_base = require_int(n_base, "n_base", 1, MAX_GENERATORS)
        self.n_reserve = require_int(n_reserve, "n_reserve", 1, MAX_GENERATORS)
        self._ids = tuple(
            [GeneratorId(GeneratorKind.BASE, n) for n in range(1, n_base + 1)]
            + [GeneratorId(GeneratorKind.RESERVE, k) for k in range(1, n_reserve + 1)]
        )
        self._by_id = {gid: _generator(gid) for gid in self._ids}
        self._inv_sqrt = {gid: _inv_sqrt(g.prime) for gid, g in self._by_id.items()}
        self._scales = {n: q_of(n) for n in range(1, n_base + 1)}

    # -- introspection ------------------------------------------------------

    def generator(self, gid: GeneratorId) -> Generator:
        gen = self._by_id.get(gid)
        if gen is None:
            raise InputError(f"unknown generator {describe(gid, str)}")
        return gen

    def generator_ids(self) -> Tuple[GeneratorId, ...]:
        return self._ids

    def q_of(self, n: int) -> int:
        """Certified scale of BASE generator ``n`` of this cone."""
        return self._scales[require_int(n, "n", 1, self.n_base)]

    def element_value_interval(self, x: ConeElement) -> Interval:
        """Outward-rounded enclosure of the real value of ``x``: from 0,
        ``iadd`` each term, :func:`_value_interval`'s ``imul(coefficient,
        1 / sqrt(prime))`` with the factor cached, so the two agree bit for
        bit.  Raises :class:`RangeError` when a term's exact value or the
        sum is beyond the float64 range."""
        x = self._check_element(x, "x")
        total = Interval.point(0.0)
        for gid, c in x.coeffs:
            try:
                scaled = _fraction_interval(c * self._by_id[gid].coef)
            except OverflowError:
                raise RangeError(
                    f"the term of {gid} is beyond the float64 range"
                ) from None
            total = iadd(total, imul(scaled, self._inv_sqrt[gid]))
        return total

    # -- the knee map -------------------------------------------------------

    @staticmethod
    def _knee(q: int, r: Fraction) -> Fraction:
        if r <= 1:
            return q * r
        return r + (q - 1)

    @staticmethod
    def _knee_inv(q: int, s: Fraction) -> Fraction:
        if s <= q:
            return s / q
        return s - (q - 1)

    def _check_element(self, x: ConeElement, what: str) -> ConeElement:
        require_instance(x, ConeElement, what)
        for gid, _ in x.coeffs:
            if gid not in self._by_id:
                raise InputError(f"{what} uses unknown generator {describe(gid, str)}")
        return x

    def _ray(self, x: ConeElement, knee) -> ConeElement:
        # ``knee`` (the map or its inverse) on a single-BASE-ray element of
        # this cone; ``x`` itself off the rays.
        gid = x.single_base_ray()
        if gid is None:
            return x
        return ConeElement(((gid, knee(self._scales[gid.index], x.coeffs[0][1])),))

    def apply_f(self, x: ConeElement) -> ConeElement:
        """The map: knee on single-BASE-ray elements, identity off the
        rays (multi-generator elements and RESERVE rays are fixed)."""
        return self._ray(self._check_element(x, "x"), self._knee)

    def apply_f_inv(self, y: ConeElement) -> ConeElement:
        """Exact inverse of :meth:`apply_f`."""
        return self._ray(self._check_element(y, "y"), self._knee_inv)

    # -- certification ------------------------------------------------------

    def check_subadditive_pair(
        self, x: ConeElement, y: ConeElement
    ) -> SubadditivityWitness:
        """Certify ``f(x + y) <= f(x) + f(y)`` for this pair.

        Classifies the pair (same BASE ray / two BASE rays / one on, one
        off / both off) and returns the per-generator slack vector of
        ``f(x) + f(y) - f(x + y)`` (exact rationals, all >= 0), each
        coordinate computed from the map's own images.  The map keeps each
        element's support, so the witness's support is that of ``x + y``,
        built once, in its sorted order.  On the
        same ray the slack is the knee map's concavity slack
        ``K(r) + K(s) - K(r + s)``; in every other case the sum leaves
        the BASE rays, so ``f(x + y) = x + y`` and the slack per mapped
        coordinate is ``K(r) - r >= 0``.  A negative slack is
        mathematically impossible and raises :class:`ConstructionBugError`.
        """
        x = self._check_element(x, "x")
        y = self._check_element(y, "y")
        fx = self._ray(x, self._knee).to_dict()
        fy = self._ray(y, self._knee).to_dict()
        zero = Fraction(0)
        slacks = []
        for gid, fs in self._ray(x + y, self._knee).coeffs:
            slack = fx.get(gid, zero) + fy.get(gid, zero) - fs
            if slack < 0:
                raise ConstructionBugError(
                    f"negative slack {slack} on {gid} for x={x.coeffs}, "
                    f"y={y.coeffs}"
                )
            slacks.append((gid, slack))
        bx = x.single_base_ray()
        by = y.single_base_ray()
        if bx is not None and by is not None:
            tag = WitnessCase.SAME_RAY if bx == by else WitnessCase.CROSS_RAY
        elif bx is not None or by is not None:
            tag = WitnessCase.RAY_PLUS_OFFRAY
        else:
            tag = WitnessCase.BOTH_OFFRAY
        return SubadditivityWitness(case_tag=tag, slacks=tuple(slacks))

    def ray_facts(self) -> Tuple[RayFacts, ...]:
        """The per-generator proof: :class:`RayFacts` of BASE generators
        ``1..n_base``, each decided by exact integer comparisons of this
        cone's scale ``q_n``."""
        return tuple(
            RayFacts.decide(n, self._by_id[GeneratorId(GeneratorKind.BASE, n)].prime, q)
            for n, q in self._scales.items()
        )

    # -- boundary behaviour at zero ------------------------------------------

    def limsup_sequence(
        self, N: int
    ) -> Tuple[Tuple[int, Interval, Interval], ...]:
        """The approach-one sequence: rows ``(n, value(p_n),
        value(f(p_n)))`` for ``n = 1..N``, where ``p_n`` is BASE generator
        ``n`` itself and ``f(p_n) = q_n p_n``.  The exact integer
        certificate behind :func:`q_of` proves ``1 - 2^-n < q_n p_n < 1``
        for every row; the returned intervals are display enclosures of
        the two real values.  ``N`` must lie in ``[1, n_base]``."""
        require_int(N, "N", 1, self.n_base)
        rows = []
        one = Fraction(1)
        for n in range(1, N + 1):
            gid = GeneratorId(GeneratorKind.BASE, n)
            p_n = ConeElement(((gid, one),))
            image = self.apply_f(p_n)
            rows.append(
                (
                    n,
                    self.element_value_interval(p_n),
                    self.element_value_interval(image),
                )
            )
        return tuple(rows)

    def liminf_sequence(self, N: int) -> Tuple[Tuple[int, Interval, Interval], ...]:
        """The approach-zero sequence with unmoved values: rows ``(k,
        value(x_k), value(f(x_k)))`` for ``x_k = (1/k) *`` (RESERVE
        generator 1), whose real value is ``1 / (k sqrt(prime(2)))``.  The
        map fixes each ``x_k``; this is re-verified exactly per row.
        ``N`` must lie in ``[1, 10,000]``."""
        require_int(N, "N", 1, _MAX_COUNT)
        gid = GeneratorId(GeneratorKind.RESERVE, 1)
        rows = []
        for k in range(1, N + 1):
            x_k = ConeElement(((gid, Fraction(1, k)),))
            image = self.apply_f(x_k)
            if image != x_k:
                raise ConstructionBugError("reserve ray is not fixed by the map")
            value = self.element_value_interval(x_k)
            rows.append((k, value, self.element_value_interval(image)))
        return tuple(rows)

    def upper_bound_check(self, eps, samples: int = 1) -> bool:
        """Decide ``value(f(x)) < 1 + eps`` for every element ``x`` of value
        below ``eps``, from :meth:`ray_facts`: on BASE ray ``n`` the sup of
        ``f`` over such elements is ``min(q_n eps, eps + p_n (q_n - 1))``,
        which ``q_n >= 1`` and ``p_n q_n < 1`` put below ``eps + 1 - p_n <
        1 + eps``; off the BASE rays ``f(x) = x < eps``.  So ``True`` is a
        proof, by exact integer comparisons alone.

        ``eps`` must lie in ``(0, 1)``: a finite float, whose binary value
        is taken exactly, or an exact rational as
        :func:`~subadd.errors.require_fraction` accepts it.  ``samples``
        must lie in ``[1, 10,000]``; it is checked and not used.
        """
        require_int(samples, "samples", 1, _MAX_COUNT)
        eps_frac = (
            Fraction(require_finite(eps, "eps"))
            if isinstance(eps, float)
            else require_fraction(eps, "eps")
        )
        if not 0 < eps_frac < 1:
            raise InputError(f"eps must lie in (0, 1), got {describe(eps, str)}")
        return all(f.knee_ok and f.below_one for f in self.ray_facts())


def make_generators(n_base: int, n_reserve: int) -> Cone:
    """The standard cone instance, ``Cone(n_base, n_reserve)``: BASE
    generators ``1..n_base`` (values ``2^-n / sqrt(prime(2n-1))``: primes
    2, 5, 11, ...) and RESERVE generators ``1..n_reserve`` (values
    ``1 / sqrt(prime(2k))``: primes 3, 7, 13, ...).  Both counts must lie
    in ``[1, MAX_GENERATORS]``."""
    return Cone(n_base, n_reserve)
