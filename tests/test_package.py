"""The package namespace: the union of the library modules' ``__all__``."""

import subadd
from conftest import fresh_json
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



# ---------------------------------------------------------------------------
# the lazy namespace, each case in a fresh interpreter
# ---------------------------------------------------------------------------

#: Prints the ``subadd`` modules a fresh interpreter has loaded.
_LOADED = "sorted(m for m in sys.modules if m.startswith('subadd'))"


def test_import_loads_no_library_module():
    assert fresh_json(f"import json, sys, subadd; print(json.dumps({_LOADED}))") == [
        "subadd"
    ]


def test_first_access_of_a_late_name():
    """``Cone`` is named by the last library module: its first access
    imports the modules in turn until one lists it, then binds it."""
    probe = (
        "import json, sys, subadd\n"
        "cone = subadd.Cone\n"
        "from subadd.cone import Cone\n"
        f"print(json.dumps([cone is Cone, vars(subadd)['Cone'] is Cone, {_LOADED}]))"
    )
    same, bound, loaded = fresh_json(probe)
    assert same and bound
    assert "subadd.cone" in loaded and "subadd.cli" not in loaded


def test_first_access_looks_in_loaded_modules_first():
    probe = (
        "import json, sys\n"
        "import subadd.cone, subadd\n"
        "gid = subadd.GeneratorId\n"
        f"print(json.dumps({_LOADED}))"
    )
    assert fresh_json(probe) == [
        "subadd", "subadd._limits", "subadd.cone", "subadd.errors", "subadd.intervals"
    ]


def test_star_import_binds_every_public_name():
    probe = (
        "import json\n"
        "from subadd import *\n"
        "import subadd\n"
        "names = [n for n in subadd.__all__ if globals().get(n) is not getattr(subadd, n)]\n"
        "print(json.dumps([subadd.__all__, names]))"
    )
    names, unbound = fresh_json(probe)
    assert names == subadd.__all__
    assert unbound == []


def test_dir_lists_every_public_name_and_library_module():
    probe = "import json, subadd; print(json.dumps(dir(subadd)))"
    listed = fresh_json(probe)
    assert listed == sorted(listed)
    assert set(subadd.__all__) <= set(listed)
    assert {m.__name__.rpartition(".")[2] for m in LIBRARY} <= set(listed)


def test_unknown_names_raise_attribute_error():
    probe = (
        "import json, sys, subadd\n"
        "missed = []\n"
        "for name in ('__wrapped__', 'no_such_name', 'cli', 'serialize'):\n"
        "    try:\n"
        "        getattr(subadd, name)\n"
        "    except AttributeError:\n"
        "        missed.append(name)\n"
        f"print(json.dumps([missed, {_LOADED}]))"
    )
    missed, loaded = fresh_json(probe)
    # cli and serialize are submodules, not re-exported names.
    assert missed == ["__wrapped__", "no_such_name", "cli", "serialize"]
    assert "subadd.cli" not in loaded and "subadd.serialize" not in loaded
