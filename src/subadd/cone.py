"""Exact order-isomorphism of a countable positive cone via knee maps.

Construction.  Take countably many *generators*, each an explicit positive
irrational:

- BASE generator ``n`` (n >= 1) has value ``2^-n / sqrt(prime(2n-1))``;
- RESERVE generator ``k`` (k >= 1) has value ``1 / sqrt(prime(2k))``

(``prime(i)`` is the i-th prime; BASE takes the odd positions and RESERVE
the even ones, so all generators use distinct primes).  Generator counts
and indices are capped at :data:`MAX_GENERATORS`.  Because rational
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
exactly, so the map is an order bijection of the cone.

Why it matters.  ``K_n`` is concave with ``K_n(0) = 0``, hence subadditive
on its ray, and ``K_n(r) >= r``; together these certify real-number
subadditivity of the whole map pair-by-pair
(:meth:`Cone.check_subadditive_pair` returns the per-generator slack
vector of ``f(x) + f(y) - f(x + y)``, every entry a nonnegative exact
rational).  Meanwhile the BASE rays show the map's wild behaviour near
zero: ``p_n -> 0`` while ``f(p_n) = q_n p_n -> 1`` from below
(:meth:`Cone.limsup_sequence`), and the reserve sequence ``x_k = (1/k) *``
(RESERVE generator 1) tends to 0 with ``f(x_k) = x_k``
(:meth:`Cone.liminf_sequence`).  So the map has no limit at 0: liminf 0,
limsup 1.
"""

from __future__ import annotations

import enum
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from .errors import (
    ConstructionBugError,
    InputError,
    require_fraction,
    require_instance,
    require_int,
)
from .intervals import Interval, iadd, idiv, imul, isqrt

__all__ = [
    "GeneratorKind",
    "GeneratorId",
    "Generator",
    "ConeElement",
    "WitnessCase",
    "SubadditivityWitness",
    "Cone",
    "make_generators",
    "q_of",
    "MAX_GENERATORS",
]

_UPPER_BOUND_SEED = 771077

#: Largest generator count accepted by :func:`make_generators` and largest
#: BASE index accepted by :func:`q_of`.  BASE generator ``n`` carries the
#: exact coefficient ``2^-n``, so the cap bounds coefficient size, and it
#: bounds the prime cache at ``prime(2 * MAX_GENERATORS)``.
MAX_GENERATORS = 1000

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
    """Identity of a generator: its family and 1-based index."""

    kind: GeneratorKind
    index: int

    def __post_init__(self) -> None:
        require_instance(self.kind, GeneratorKind, "kind")
        require_int(self.index, "index", 1)

    def sort_key(self) -> Tuple[int, int]:
        return (0 if self.kind is GeneratorKind.BASE else 1, self.index)


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


def _fraction_interval(fr: Fraction) -> Interval:
    """Tight outward enclosure of an exact rational: ``float(fr)`` is
    correctly rounded to nearest, so one representable step each way
    contains the true value (zero steps when the value is a double)."""
    f = float(fr)
    if Fraction(f) == fr:
        return Interval.point(f)
    return Interval(math.nextafter(f, -math.inf), math.nextafter(f, math.inf))


def _value_interval(coef: Fraction, prime: int) -> Interval:
    """Outward-rounded enclosure of ``coef / sqrt(prime)``, as
    ``coef * (1 / sqrt(prime))``."""
    return imul(
        _fraction_interval(coef),
        idiv(Interval.point(1.0), isqrt(Interval.point(float(prime)))),
    )


@dataclass(frozen=True)
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
                items = [(gid, c) for gid, c in raw]
            except (TypeError, ValueError) as exc:
                raise InputError(
                    f"coeffs must be a mapping or iterable of (GeneratorId, "
                    f"Fraction) pairs, got {raw!r}"
                ) from exc
        if not items:
            raise InputError("a cone element must have at least one generator")
        seen: Dict[GeneratorId, Fraction] = {}
        for gid, c in items:
            require_instance(gid, GeneratorId, "coefficient key")
            if gid in seen:
                raise InputError(f"duplicate generator {gid} in element")
            coeff = require_fraction(c, f"coefficient of {gid}")
            if coeff <= 0:
                raise InputError(f"coefficient of {gid} must be > 0, got {coeff}")
            seen[gid] = coeff
        ordered = tuple(sorted(seen.items(), key=lambda kv: kv[0].sort_key()))
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

    def __add__(self, other: "ConeElement") -> "ConeElement":
        if not isinstance(other, ConeElement):
            return NotImplemented
        merged = self.to_dict()
        for gid, c in other.coeffs:
            merged[gid] = merged.get(gid, Fraction(0)) + c
        return ConeElement(tuple(merged.items()))


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
    prime = _nth_prime(2 * n - 1)
    m = (2**n - 1) ** 2 * prime
    q = math.isqrt(m) + 1
    if not (m < q * q and q * q < 4**n * prime):
        raise ConstructionBugError(
            f"scale certification failed for n={n}: prime={prime}, q={q}"
        )
    return q


class Cone:
    """A finitely generated instance of the construction.

    Build with :func:`make_generators`.  All coefficient arithmetic is
    exact; the only approximate outputs are outward-rounded interval
    enclosures of real values.
    """

    def __init__(self, generators: Sequence[Generator]) -> None:
        if not generators:
            raise InputError("a cone needs at least one generator")
        self._by_id: Dict[GeneratorId, Generator] = {}
        primes = set()
        for gen in generators:
            require_instance(gen, Generator, "generator")
            if gen.gid in self._by_id:
                raise InputError(f"duplicate generator {gen.gid}")
            if gen.prime in primes:
                raise InputError(
                    f"duplicate prime {gen.prime}: generator values must be "
                    f"linearly independent"
                )
            primes.add(gen.prime)
            self._by_id[gen.gid] = gen
        self._ids = tuple(sorted(self._by_id, key=lambda g: g.sort_key()))
        self._scales: Dict[GeneratorId, int] = {}
        self.n_base = sum(1 for gid in self._by_id if gid.kind is GeneratorKind.BASE)
        self.n_reserve = len(self._by_id) - self.n_base

    # -- introspection ------------------------------------------------------

    def generator(self, gid: GeneratorId) -> Generator:
        gen = self._by_id.get(gid)
        if gen is None:
            raise InputError(f"unknown generator {gid}")
        return gen

    def generator_ids(self) -> Tuple[GeneratorId, ...]:
        return self._ids

    def q_of(self, n: int) -> int:
        """Certified scale of BASE generator ``n`` of this cone."""
        gid = GeneratorId(GeneratorKind.BASE, n)
        self.generator(gid)  # must exist in this cone
        q = self._scales.get(gid)
        if q is None:
            q = q_of(n)
            self._scales[gid] = q
        return q

    def element_value_interval(self, x: ConeElement) -> Interval:
        """Outward-rounded enclosure of the real value of ``x``."""
        x = self._check_element(x, "x")
        total = Interval.point(0.0)
        for gid, c in x.coeffs:
            gen = self._by_id[gid]
            total = iadd(total, _value_interval(c * gen.coef, gen.prime))
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
                raise InputError(f"{what} uses unknown generator {gid}")
        return x

    def apply_f(self, x: ConeElement) -> ConeElement:
        """The map: knee on single-BASE-ray elements, identity off the
        rays (multi-generator elements and RESERVE rays are fixed)."""
        x = self._check_element(x, "x")
        gid = x.single_base_ray()
        if gid is None:
            return x
        r = x.coeffs[0][1]
        return ConeElement(((gid, self._knee(self.q_of(gid.index), r)),))

    def apply_f_inv(self, y: ConeElement) -> ConeElement:
        """Exact inverse of :meth:`apply_f`."""
        y = self._check_element(y, "y")
        gid = y.single_base_ray()
        if gid is None:
            return y
        s = y.coeffs[0][1]
        return ConeElement(((gid, self._knee_inv(self.q_of(gid.index), s)),))

    # -- certification ------------------------------------------------------

    def check_subadditive_pair(
        self, x: ConeElement, y: ConeElement
    ) -> SubadditivityWitness:
        """Certify ``f(x + y) <= f(x) + f(y)`` for this pair.

        Classifies the pair (same BASE ray / two BASE rays / one on, one
        off / both off) and returns the per-generator slack vector of
        ``f(x) + f(y) - f(x + y)`` (exact rationals, all >= 0).  On the
        same ray the slack is the knee map's concavity slack
        ``K(r) + K(s) - K(r + s)``; in every other case the sum leaves
        the BASE rays, so ``f(x + y) = x + y`` and the slack per mapped
        coordinate is ``K(r) - r >= 0``.  A negative slack is
        mathematically impossible and raises :class:`ConstructionBugError`.
        """
        x = self._check_element(x, "x")
        y = self._check_element(y, "y")
        fx = self.apply_f(x).to_dict()
        fy = self.apply_f(y).to_dict()
        fs = self.apply_f(x + y).to_dict()
        support = sorted(set(fx) | set(fy) | set(fs), key=lambda g: g.sort_key())
        zero = Fraction(0)
        slacks = []
        for gid in support:
            slack = fx.get(gid, zero) + fy.get(gid, zero) - fs.get(gid, zero)
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

    # -- boundary behaviour at zero ------------------------------------------

    def limsup_sequence(
        self, N: int
    ) -> Tuple[Tuple[int, Interval, Interval], ...]:
        """The approach-one sequence: rows ``(n, value(p_n),
        value(f(p_n)))`` for ``n = 1..N``, where ``p_n`` is BASE generator
        ``n`` itself and ``f(p_n) = q_n p_n``.  The exact integer
        certificate behind :func:`q_of` proves ``1 - 2^-n < q_n p_n < 1``
        for every row; the returned intervals are display enclosures of
        the two real values."""
        require_int(N, "N", 1)
        if N > self.n_base:
            raise InputError(f"N={N} exceeds the {self.n_base} BASE generators")
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
        map fixes each ``x_k``; this is re-verified exactly per row."""
        require_int(N, "N", 1)
        if self.n_reserve < 1:
            raise InputError("liminf sequence needs at least one RESERVE generator")
        gid = GeneratorId(GeneratorKind.RESERVE, 1)
        self.generator(gid)
        rows = []
        for k in range(1, N + 1):
            x_k = ConeElement(((gid, Fraction(1, k)),))
            image = self.apply_f(x_k)
            if image != x_k:
                raise ConstructionBugError("reserve ray is not fixed by the map")
            value = self.element_value_interval(x_k)
            rows.append((k, value, self.element_value_interval(image)))
        return tuple(rows)

    def upper_bound_check(self, eps, samples: int) -> bool:
        """Certify ``value(f(x)) < 1 + eps`` on ``samples`` seeded-random
        small elements (exact value < ``eps``; a mix of BASE-ray, RESERVE-
        ray, and two-generator off-ray shapes, knee branch included).

        ``eps`` must be a rational in ``(0, 1)``.  Each sample is checked
        by exact comparison of the outward enclosure's upper endpoint
        against ``1 + eps``, so a ``True`` answer is rigorous.  The
        construction makes failure impossible: on a BASE ray,
        ``f(x) <= x + p_n (q_n - 1) < x + 1 - p_n < 1 + eps`` whenever
        ``x < eps``; off the rays ``f(x) = x < eps``.
        """
        require_int(samples, "samples", 1)
        try:
            eps_frac = Fraction(eps)
        except (TypeError, ValueError, OverflowError) as exc:
            raise InputError(f"eps must be a rational number, got {eps!r}") from exc
        if not 0 < eps_frac < 1:
            raise InputError(f"eps must lie in (0, 1), got {eps}")
        base_ids = [
            gid for gid in self.generator_ids() if gid.kind is GeneratorKind.BASE
        ]
        other_ids = [
            gid for gid in self.generator_ids() if gid.kind is GeneratorKind.RESERVE
        ]
        if not base_ids:
            raise InputError("upper bound check needs BASE generators")
        rng = random.Random(_UPPER_BOUND_SEED)
        bound = 1 + eps_frac

        def small_coeff(gid: GeneratorId, t: Fraction) -> Fraction:
            # Exact value of {gid: r} is r * coef / sqrt(prime) with
            # coef = 2^-n (BASE) or 1 (RESERVE); r = t * eps / coef gives
            # value t * eps / sqrt(prime) < eps whenever t < 1.
            return t * eps_frac / self._by_id[gid].coef

        for _ in range(samples):
            shape = rng.randrange(3)
            if shape == 0 or not other_ids:  # single BASE ray (knee branch mix)
                gid = base_ids[rng.randrange(len(base_ids))]
                t = Fraction(rng.randint(1, 999), 1000)
                x = ConeElement(((gid, small_coeff(gid, t)),))
            elif shape == 1:  # single RESERVE ray
                gid = other_ids[rng.randrange(len(other_ids))]
                t = Fraction(rng.randint(1, 999), 1000)
                x = ConeElement(((gid, small_coeff(gid, t)),))
            else:  # two-generator off-ray element
                ids = rng.sample(self.generator_ids(), 2)
                t1 = Fraction(rng.randint(1, 499), 1000)
                t2 = Fraction(rng.randint(1, 499), 1000)
                x = ConeElement(
                    (
                        (ids[0], small_coeff(ids[0], t1)),
                        (ids[1], small_coeff(ids[1], t2)),
                    )
                )
            enclosure = self.element_value_interval(self.apply_f(x))
            if not Fraction(enclosure.hi) < bound:
                return False
        return True


def make_generators(n_base: int, n_reserve: int) -> Cone:
    """Build the standard cone instance: BASE generators ``1..n_base``
    (values ``2^-n / sqrt(prime(2n-1))``: primes 2, 5, 11, ...) and
    RESERVE generators ``1..n_reserve`` (values ``1 / sqrt(prime(2k))``:
    primes 3, 7, 13, ...).  Both counts must lie in ``[1, MAX_GENERATORS]``."""
    require_int(n_base, "n_base", 1, MAX_GENERATORS)
    require_int(n_reserve, "n_reserve", 1, MAX_GENERATORS)
    gens = []
    for n in range(1, n_base + 1):
        gens.append(
            Generator(
                gid=GeneratorId(GeneratorKind.BASE, n),
                prime=_nth_prime(2 * n - 1),
                coef=Fraction(1, 2**n),
            )
        )
    for k in range(1, n_reserve + 1):
        gens.append(
            Generator(
                gid=GeneratorId(GeneratorKind.RESERVE, k),
                prime=_nth_prime(2 * k),
                coef=Fraction(1),
            )
        )
    return Cone(gens)
