"""The package namespace: the union of the library modules' ``__all__``."""

import subadd
from subadd import (
    analytic_core,
    certificate,
    cone,
    errors,
    intervals,
    search,
    statement_oracles,
)

#: The library modules, in the order the package imports them.
LIBRARY = (errors, intervals, analytic_core, certificate, search, statement_oracles, cone)

#: The names the package exported when its ``__all__`` was a hand-kept
#: list, by defining module; each must still resolve to the same object.
FORMER_EXPORTS = {
    errors: (
        "ToolkitError", "InputError", "DomainError", "RangeError",
        "SingularityError", "PreconditionError", "ConstructionBugError",
    ),
    intervals: (
        "Interval", "Tristate", "iadd", "isub", "imul", "idiv", "iexp",
        "ilog", "isqrt", "isq", "certainly_le",
    ),
    analytic_core: (
        "Params", "Point", "RegionFlags", "Order", "HighPrecision", "eval_g",
        "eval_h", "eval_f", "eval_phi", "eval_lambda", "eval_psi", "eval_C",
        "gap", "classify_region", "f_prime", "h_prime", "h_second",
    ),
    certificate: (
        "Verdict", "ConditionResult", "CertificateReport", "CAVEAT",
        "check_region_A", "check_region_B", "check_region_C", "certify_S2",
    ),
    search: (
        "ScanConfig", "ScanReport", "Violation", "TableRow", "scan_gap_min",
        "find_violation", "verify_point", "reproduce_table",
        "violation_scan_config",
    ),
    statement_oracles: (
        "RationalityCase", "SemigroupStatus", "rolle_probe",
        "check_rolle_identity", "check_monotone_f", "check_symmetrization",
        "check_tau_concavity", "semigroup_search", "semigroup_member",
        "indicator_case_table", "indicator_example_check",
    ),
    cone: (
        "GeneratorKind", "GeneratorId", "Generator", "ConeElement",
        "WitnessCase", "SubadditivityWitness", "Cone", "make_generators",
        "q_of",
    ),
}


def test_namespace_is_the_union_of_the_module_lists():
    expected = ["__version__"] + [name for m in LIBRARY for name in m.__all__]
    assert subadd.__all__ == expected
    assert len(set(expected)) == len(expected)
    for module in LIBRARY:
        for name in module.__all__:
            assert getattr(subadd, name) is getattr(module, name), name


def test_former_exports_resolve_to_the_same_objects():
    for module, names in FORMER_EXPORTS.items():
        for name in names:
            assert name in subadd.__all__
            assert getattr(subadd, name) is getattr(module, name), name
    assert subadd.__version__ == "1.0.0"

