"""Loss-free JSON round trips for every result object the CLI emits."""

import dataclasses
import enum
import json
import math
from fractions import Fraction

import pytest

import subadd
from subadd import serialize
from subadd.analytic_core import Order, Params, Point, RegionFlags
from subadd.certificate import certify_S2
from subadd.cone import (
    ConeElement,
    Generator,
    GeneratorId,
    GeneratorKind,
    make_generators,
)
from subadd.errors import InputError, describe
from subadd.intervals import Interval, Tristate
from subadd.search import (
    ScanConfig,
    ScanReport,
    TableRow,
    Violation,
    find_violation,
    scan_gap_min,
)
from subadd.serialize import from_jsonable, to_jsonable
from subadd.statement_oracles import RationalityCase, SemigroupStatus

from conftest import fresh_json

LIBRARY_MODULES = [getattr(subadd, m) for m in subadd._LIBRARY]


def round_trip(obj):
    """Encode, push through real JSON text, decode."""
    return from_jsonable(json.loads(json.dumps(to_jsonable(obj))))


# ---------------------------------------------------------------------------
# scalars and containers
# ---------------------------------------------------------------------------


def test_scalars_pass_through():
    for v in (None, True, False, 0, -17, 1.5, "text", math.pi):
        assert round_trip(v) == v
    # binary64 survives the text round trip bit-for-bit
    assert round_trip(0.1) == 0.1
    assert round_trip(1e-300) == 1e-300


def test_fraction_exact():
    fr = Fraction(355, 113)
    assert round_trip(fr) == fr
    big = Fraction(2**200 + 1, 3**100)
    assert round_trip(big) == big


def test_lists_become_tuples():
    assert round_trip([1, 2, [3, 4]]) == (1, 2, (3, 4))
    assert round_trip((1, 2)) == (1, 2)


def test_string_keyed_dicts():
    d = {"a": Fraction(1, 2), "b": (1.0, None)}
    assert round_trip(d) == {"a": Fraction(1, 2), "b": (1.0, None)}


def test_non_string_keys_rejected():
    with pytest.raises(InputError):
        to_jsonable({1: "a"})


def test_unsupported_types_rejected():
    with pytest.raises(InputError):
        to_jsonable({1, 2, 3})
    with pytest.raises(InputError):
        to_jsonable(object())


def test_unknown_kinds_rejected():
    with pytest.raises(InputError):
        from_jsonable({"__kind__": "Mystery", "x": 1})
    with pytest.raises(InputError):
        from_jsonable({"__enum__": "Mystery", "value": "A"})
    with pytest.raises(InputError):
        from_jsonable({"__enum__": "Tristate", "value": "MAYBE"})
    for bad in ("1/0", None, [1, 2], "1e999999999", 0.5):
        with pytest.raises(InputError):
            from_jsonable({"__kind__": "Fraction", "value": bad})
    with pytest.raises(InputError):
        from_jsonable({"__enum__": "Verdict", "value": ["x"]})
    with pytest.raises(InputError):
        from_jsonable({"__enum__": ["x"], "value": "A"})
    with pytest.raises(InputError):
        from_jsonable({"__kind__": ["x"]})
    with pytest.raises(InputError):
        from_jsonable({"__kind__": "Params", "mu": 1.2})  # missing fields


# ---------------------------------------------------------------------------
# enums and dataclasses
# ---------------------------------------------------------------------------


def test_enum_round_trips():
    for member in (Tristate.TRUE, Tristate.FALSE, Tristate.UNKNOWN):
        assert round_trip(member) is member
    assert round_trip(GeneratorKind.BASE) is GeneratorKind.BASE
    for cls in (RationalityCase, SemigroupStatus):
        for member in cls:
            assert round_trip(member) is member


def _dataclasses_and_enums(values):
    return {
        v for v in values
        if isinstance(v, type) and (dataclasses.is_dataclass(v) or issubclass(v, enum.Enum))
    }


def _exported_kinds():
    """The dataclasses and enums the package's ``__all__`` names."""
    return _dataclasses_and_enums(getattr(subadd, name) for name in subadd.__all__)


@dataclasses.dataclass
class _Unlisted:
    x: int = 1


class _UnlistedEnum(enum.Enum):
    A = "A"


def test_registry_is_the_public_dataclasses_and_enums():
    """Every dataclass and enum the package exports decodes by its name;
    every other one, in the package's modules or outside them, is refused
    both ways with the message it always had."""
    from subadd import cli

    exported = _exported_kinds()
    modules = [*LIBRARY_MODULES, cli, serialize]
    classes = _dataclasses_and_enums(v for m in modules for v in vars(m).values())
    assert exported <= classes and cli.RunConfig in classes
    for cls in classes | {_Unlisted, _UnlistedEnum}:
        name = cls.__name__
        assert serialize._public(cls) == (cls in exported), name
        if issubclass(cls, enum.Enum):
            instance = next(iter(cls))
            payload = {"__enum__": name, "value": instance.name}
            refusals = (f"cannot encode object of type {name}", "unknown enum kind")
        else:
            instance = cls.__new__(cls)
            # A field no dataclass has: a known kind fails on the payload.
            payload = {"__kind__": name, "__not_a_field__": 0}
            refusals = (f"cannot encode unregistered dataclass {name}", "unknown dataclass kind")
        if cls in exported and isinstance(instance, enum.Enum):
            assert round_trip(instance) is instance
        elif cls in exported:
            with pytest.raises(InputError, match=f"^bad payload for {name}: "):
                from_jsonable(payload)
        else:
            for call, arg, message in zip(
                (to_jsonable, from_jsonable), (instance, payload),
                (refusals[0], f"{refusals[1]} {describe(name)}"),
            ):
                with pytest.raises(InputError) as refused:
                    call(arg)
                assert str(refused.value) == message


def test_core_dataclasses_round_trip(cert_params):
    for obj in (
        cert_params,
        Point(x=0.25, y=-1.5),
        Order(a=2.0),
        RegionFlags(in_A=False, in_B=True, in_C=True),
        Interval(lo=1.0, hi=2.0),
        ScanConfig(box=(-1.0, 1.0, -2.0, 2.0), grid_n=11, refine_depth=1),
    ):
        back = round_trip(obj)
        assert back == obj
        assert type(back) is type(obj)


def test_certificate_report_round_trip(cert_params):
    report = certify_S2(cert_params)
    assert round_trip(report) == report


def test_certificate_report_with_unknown_bound_round_trip():
    # The degenerate small-region case carries rhs=None.
    report = certify_S2(Params(mu=1.05, sigma=0.1, alpha=0.01))
    by_name = {c.name: c for c in report.conditions}
    assert by_name["B_alpha"].rhs is None
    assert round_trip(report) == report


def test_scan_report_round_trip(cert_params):
    rep = scan_gap_min(
        2.0, cert_params, ScanConfig(box=(-2.0, 2.0, -2.0, 2.0), grid_n=41, refine_depth=1)
    )
    back = round_trip(rep)
    assert isinstance(back, ScanReport)
    assert back == rep
    assert back.min_gap == rep.min_gap  # bitwise


def test_violation_round_trip(cert_params):
    v = find_violation(2, cert_params)
    back = round_trip(v)
    assert isinstance(back, Violation)
    assert back == v


def test_table_row_round_trip():
    row = TableRow(
        mu=1.5,
        sigma=0.05,
        alpha=0.117783036,
        x_star=0.00675,
        y_star=1.45367,
        margin=0.0278,
        scan_min_gap=-0.064,
        expected_margin=0.001664770,
    )
    assert round_trip(row) == row


def test_cone_records_round_trip():
    cone = make_generators(3, 1)
    gid = GeneratorId(kind=GeneratorKind.BASE, index=2)
    gen = cone.generator(gid)
    assert round_trip(gid) == gid
    back_gen = round_trip(gen)
    assert isinstance(back_gen, Generator)
    assert back_gen == gen
    assert back_gen.coef == Fraction(1, 4)

    x = ConeElement(
        coeffs=(
            (gid, Fraction(7, 3)),
            (GeneratorId(kind=GeneratorKind.RESERVE, index=1), Fraction(1, 2)),
        )
    )
    assert round_trip(x) == x

    w = cone.check_subadditive_pair(x, x)
    back_w = round_trip(w)
    assert back_w == w
    assert back_w.case_tag is w.case_tag


def test_nested_payload_round_trip(cert_params):
    payload = {
        "config": {"params": cert_params, "order": Order(a=2.0)},
        "rows": [(1, Interval(lo=0.5, hi=0.75)), (2, None)],
        "alpha": Fraction(1, 20),
    }
    back = round_trip(payload)
    assert back["config"]["params"] == cert_params
    assert back["rows"] == ((1, Interval(lo=0.5, hi=0.75)), (2, None))
    assert back["alpha"] == Fraction(1, 20)


# ---------------------------------------------------------------------------
# the registry is built on first decode
# ---------------------------------------------------------------------------


def _one_of_every_kind(cert_params):
    """A payload holding an instance of every registered kind."""
    cone = make_generators(3, 1)
    gid = GeneratorId(kind=GeneratorKind.BASE, index=2)
    x = ConeElement(((gid, Fraction(7, 3)),))
    config = ScanConfig(box=(-1.0, 1.0, -1.0, 1.0), grid_n=5, refine_depth=0)
    return {
        "report": certify_S2(cert_params),
        "config": config,
        "element": x,
        "flags": RegionFlags(in_A=False, in_B=True, in_C=True),
        "scan": scan_gap_min(2.0, cert_params, config),
        "violation": Violation(Order(2.0), cert_params, Point(0.0, 1.2), 0.01),
        "row": TableRow(1.5, 0.05, 0.1, 0.0, 1.4, 0.02, -0.06, 0.001),
        "generator": cone.generator(gid),
        "witness": cone.check_subadditive_pair(x, x),
        "facts": cone.ray_facts()[0],
        "enums": [Tristate.UNKNOWN, *RationalityCase, *SemigroupStatus],
    }


def _kinds(encoded):
    """The ``__kind__`` and ``__enum__`` names in an encoded payload."""
    if isinstance(encoded, list):
        return set().union(*map(_kinds, encoded))
    if isinstance(encoded, dict):
        own = {encoded[k] for k in ("__kind__", "__enum__") if k in encoded}
        return own.union(*map(_kinds, encoded.values()))
    return set()


def test_every_registered_kind_decodes_in_a_fresh_interpreter(cert_params):
    encoded = to_jsonable(_one_of_every_kind(cert_params))
    assert _kinds(encoded) == {"Fraction", *(cls.__name__ for cls in _exported_kinds())}
    probe = (
        "import json, sys\n"
        "from subadd.serialize import from_jsonable, to_jsonable\n"
        "before = sorted(m for m in sys.modules if m.startswith('subadd'))\n"
        f"decoded = from_jsonable(json.loads({json.dumps(encoded)!r}))\n"
        "print(json.dumps([before, to_jsonable(decoded), repr(decoded)]))"
    )
    before, again, text = fresh_json(probe)
    assert before == ["subadd", "subadd.errors", "subadd.serialize"]
    assert again == encoded
    assert text == repr(from_jsonable(encoded))


def test_decoding_loads_the_library_modules_up_to_each_kinds_own():
    """Decoding ``subadd certify --format json`` finds each kind in the
    lazy namespace: it loads the certificate and the library modules
    before it, and none after."""
    from subadd import cli

    args = cli.build_parser().parse_args(["certify", "--format", "json"])
    code, output = cli.run(cli.build_config(args))
    assert code == 0
    probe = (
        "import json, sys\n"
        "from subadd.serialize import from_jsonable\n"
        f"decoded = from_jsonable(json.loads({output!r}))\n"
        "assert type(decoded).__name__ == 'CertificateReport'\n"
        "print(json.dumps(sorted(m for m in sys.modules if m.startswith('subadd'))))"
    )
    modules = ("analytic_core", "certificate", "errors", "intervals", "serialize")
    assert fresh_json(probe) == ["subadd", *(f"subadd.{m}" for m in modules)]


def test_unregistered_dataclasses_are_refused_in_a_fresh_interpreter():
    """``cli.RunConfig``, a dataclass of another module, and one that
    borrows a registered name are all refused, before any decode and
    without loading a library module the object does not come from."""
    probe = (
        "import dataclasses, json, sys\n"
        "from subadd.cli import build_config, build_parser\n"
        "from subadd.errors import InputError\n"
        "from subadd.serialize import to_jsonable\n"
        "@dataclasses.dataclass\n"
        "class Thing:\n"
        "    x: int = 1\n"
        "@dataclasses.dataclass\n"
        "class Params:\n"
        "    mu: float = 1.2\n"
        "errors = []\n"
        "for obj in (build_config(build_parser().parse_args(['certify'])), Thing(), Params()):\n"
        "    try:\n"
        "        to_jsonable({'x': obj})\n"
        "    except InputError as exc:\n"
        "        errors.append(str(exc))\n"
        "print(json.dumps([errors, sorted(m for m in sys.modules if m.startswith('subadd'))]))"
    )
    errors, loaded = fresh_json(probe)
    assert errors == [
        f"cannot encode unregistered dataclass {name}"
        for name in ("RunConfig", "Thing", "Params")
    ]
    assert "subadd.search" not in loaded and "subadd.cone" not in loaded


def test_unregistered_dataclasses_are_refused():
    from subadd.cli import build_config, build_parser

    @dataclasses.dataclass
    class Point:  # borrows a registered name
        x: float = 0.0

    for obj in (build_config(build_parser().parse_args(["cone"])), Point()):
        with pytest.raises(InputError, match="unregistered dataclass"):
            to_jsonable(obj)
