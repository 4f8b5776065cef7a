"""Hostile scalars at every public entry point.

Each scalar parameter of each public function, constructor and entry
method gets ``inf``, ``-inf``, ``nan``, ``True``, ``"x"``, ``None`` and
``10**400``, the others keeping valid values.  The call must return a
result or raise a :class:`~subadd.errors.ToolkitError`; any other
exception is a leak.  ``10**400`` is skipped for counts with no upper
bound, where it is a legitimately huge request.
"""

import math
from fractions import Fraction
from functools import partial

import pytest

import subadd
from subadd import (
    ConeElement,
    GeneratorId,
    GeneratorKind,
    HighPrecision,
    Interval,
    Params,
    ScanConfig,
    ToolkitError,
    make_generators,
)

HOSTILE = (math.inf, -math.inf, math.nan, True, "x", None)
HUGE = 10**400

P = Params(mu=1.2, sigma=0.05, alpha=0.05)
CFG = ScanConfig(box=(-0.1, 0.1, 0.9, 1.4), grid_n=21, refine_depth=0)
CONE = make_generators(3, 1)
X = ConeElement({GeneratorId(GeneratorKind.BASE, 1): Fraction(1, 2)})
Y = ConeElement({GeneratorId(GeneratorKind.RESERVE, 1): Fraction(1, 3)})
HP = HighPrecision()
HALF = Fraction(1, 2)

#: name: (callable, valid values of the scalar parameters under attack,
#: the counts among them with no upper bound).  Parameters left out are
#: sequences, or, for the two exported checks, the rule's own statement.
ENTRIES = {
    "require_int": (partial(subadd.require_int, what="n"), dict(value=1), ()),
    "require_fraction": (partial(subadd.require_fraction, what="q"), dict(value=1), ()),
    "Interval": (Interval, dict(lo=0.0, hi=1.0), ()),
    "Interval.point": (Interval.point, dict(x=0.5), ()),
    "Params": (Params, dict(mu=1.2, sigma=0.05, alpha=0.05), ()),
    "Point": (subadd.Point, dict(x=0.0, y=1.0), ()),
    "Order": (subadd.Order, dict(a=2.0), ()),
    "HighPrecision": (HighPrecision, dict(prec_bits=128), ("prec_bits",)),
    "eval_g": (subadd.eval_g, dict(x=0.5), ()),
    "eval_h": (subadd.eval_h, dict(x=0.5, p=P), ()),
    "eval_f": (subadd.eval_f, dict(x=0.5, p=P), ()),
    "eval_phi": (subadd.eval_phi, dict(z=0.5), ()),
    "eval_lambda": (subadd.eval_lambda, dict(z=0.5), ()),
    "eval_psi": (subadd.eval_psi, dict(z=0.5), ()),
    "eval_C": (subadd.eval_C, dict(), ()),
    "gap": (subadd.gap, dict(a=2.0, fn="f", x=0.01, y=1.1, p=P), ()),
    "classify_region": (subadd.classify_region, dict(x=0.1, y=0.2), ()),
    "f_prime": (subadd.f_prime, dict(t=0.5, p=P), ()),
    "h_prime": (subadd.h_prime, dict(x=0.5, p=P), ()),
    "h_second": (subadd.h_second, dict(x=0.5, p=P), ()),
    "HighPrecision.eval_g": (HP.eval_g, dict(x=0.5), ()),
    "HighPrecision.eval_h": (HP.eval_h, dict(x=0.5, p=P), ()),
    "HighPrecision.eval_f": (HP.eval_f, dict(x=0.5, p=P), ()),
    "HighPrecision.eval_phi": (HP.eval_phi, dict(z=0.5), ()),
    "HighPrecision.eval_lambda": (HP.eval_lambda, dict(z=0.5), ()),
    "HighPrecision.eval_psi": (HP.eval_psi, dict(z=0.5), ()),
    "HighPrecision.gap": (HP.gap, dict(a=2.0, fn="f", x=0.01, y=1.1, p=P), ()),
    "HighPrecision.f_prime": (HP.f_prime, dict(t=0.5, p=P), ()),
    "HighPrecision.h_prime": (HP.h_prime, dict(x=0.5, p=P), ()),
    "HighPrecision.h_second": (HP.h_second, dict(x=0.5, p=P), ()),
    "check_region_A": (subadd.check_region_A, dict(p=P), ()),
    "check_region_B": (subadd.check_region_B, dict(p=P), ()),
    "check_region_C": (subadd.check_region_C, dict(p=P), ()),
    "certify_S2": (subadd.certify_S2, dict(p=P), ()),
    "ScanConfig": (
        partial(ScanConfig, box=(-0.1, 0.1, 0.9, 1.4)),
        dict(grid_n=21, refine_depth=0, tolerance=1e-9),
        (),
    ),
    "scan_gap_min": (subadd.scan_gap_min, dict(a=2.0, p=P, cfg=CFG), ()),
    "find_violation": (
        subadd.find_violation, dict(a=2.0, p=P, cfg=CFG, prec_bits=128), ("prec_bits",)
    ),
    "verify_point": (
        subadd.verify_point,
        dict(a=2.0, p=P, x=0.01, y=1.1, prec_bits=128),
        ("prec_bits",),
    ),
    "reproduce_table": (
        subadd.reproduce_table,
        dict(grid_n=21, refine_depth=0, prec_bits=128),
        ("prec_bits",),
    ),
    "violation_scan_config": (
        subadd.violation_scan_config,
        dict(p=P, grid_n=21, refine_depth=0, tolerance=1e-9),
        (),
    ),
    "rolle_probe": (subadd.rolle_probe, dict(fn="f", t=0.5, p=P), ()),
    "check_rolle_identity": (
        subadd.check_rolle_identity, dict(fn="f", t=0.5, p=P, n=50), ("n",)
    ),
    "check_monotone_f": (subadd.check_monotone_f, dict(p=P, n=50), ("n",)),
    "check_symmetrization": (subadd.check_symmetrization, dict(p=P, n=50), ("n",)),
    "check_tau_concavity": (
        subadd.check_tau_concavity, dict(p=P, t=0.5, n=11), ("n",)
    ),
    "semigroup_search": (
        partial(subadd.semigroup_search, generators=(HALF,)),
        dict(target=HALF, max_terms=3, budget=1000),
        (),
    ),
    "semigroup_member": (
        partial(subadd.semigroup_member, generators=(HALF,)),
        dict(target=HALF, max_terms=3),
        (),
    ),
    "indicator_case_table": (subadd.indicator_case_table, dict(a=2), ()),
    "indicator_example_check": (subadd.indicator_example_check, dict(a=2), ()),
    "GeneratorId": (GeneratorId, dict(kind=GeneratorKind.BASE, index=1), ()),
    "make_generators": (subadd.make_generators, dict(n_base=3, n_reserve=1), ()),
    "q_of": (subadd.q_of, dict(n=3), ()),
    "Cone.generator": (CONE.generator, dict(gid=X.support()[0]), ()),
    "Cone.q_of": (CONE.q_of, dict(n=2), ()),
    "Cone.element_value_interval": (CONE.element_value_interval, dict(x=X), ()),
    "Cone.apply_f": (CONE.apply_f, dict(x=X), ()),
    "Cone.apply_f_inv": (CONE.apply_f_inv, dict(y=X), ()),
    "Cone.check_subadditive_pair": (CONE.check_subadditive_pair, dict(x=X, y=Y), ()),
    "Cone.limsup_sequence": (CONE.limsup_sequence, dict(N=3), ("N",)),
    "Cone.liminf_sequence": (CONE.liminf_sequence, dict(N=3), ("N",)),
    "Cone.upper_bound_check": (
        CONE.upper_bound_check, dict(eps=HALF, samples=20), ("samples",)
    ),
}

#: Callable public names the table leaves out, with the reason.
EXCLUDED = {
    **dict.fromkeys(
        ("ToolkitError", "InputError", "DomainError", "RangeError",
         "SingularityError", "PreconditionError", "ConstructionBugError"),
        "exception classes take any message",
    ),
    **dict.fromkeys(
        ("Tristate", "Verdict", "RationalityCase", "SemigroupStatus",
         "GeneratorKind", "WitnessCase"),
        "enum lookup: an unknown value raises ValueError by the Enum protocol",
    ),
    **dict.fromkeys(
        ("iadd", "isub", "imul", "idiv", "iexp", "ilog", "ilog1p", "isqrt",
         "isq", "certainly_le"),
        "Interval primitives take Interval operands by signature",
    ),
    **dict.fromkeys(
        ("RegionFlags", "ConditionResult", "CertificateReport", "ScanReport",
         "Violation", "TableRow", "Generator", "SubadditivityWitness"),
        "result records store what they are given and check nothing",
    ),
    "ConeElement": "its one parameter is a sequence of pairs",
    "Cone": "its one parameter is a sequence of generators",
}


def test_table_covers_every_callable_public_name():
    public = {n for n in subadd.__all__ if callable(getattr(subadd, n))}
    listed = {name.split(".")[0] for name in ENTRIES} | set(EXCLUDED)
    assert public == listed
    assert not set(EXCLUDED) & set(ENTRIES)


@pytest.mark.parametrize("name", sorted(ENTRIES))
def test_hostile_scalars_raise_toolkit_errors_only(name):
    call, valid, uncapped = ENTRIES[name]
    call(**valid)  # the valid call itself must work
    leaks = []
    for param in valid:
        values = HOSTILE if param in uncapped else HOSTILE + (HUGE,)
        for value in values:
            try:
                call(**{**valid, param: value})
            except ToolkitError:
                pass
            except Exception as exc:  # any other type is a leak
                leaks.append(f"{param}={value!r:.20}: {type(exc).__name__}: {exc}")
    assert not leaks, "\n".join(leaks)
