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
from subadd.errors import InputError
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
    with pytest.raises(InputError):
        from_jsonable({"__kind__": "Fraction", "value": "1/0"})
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


def test_registry_is_the_public_dataclasses_and_enums():
    """Every dataclass and enum the package exports is encodable, and
    nothing else is registered."""
    public = [getattr(subadd, name) for name in subadd.__all__]
    classes = [v for v in public if isinstance(v, type)]
    assert serialize._DATACLASSES == {
        c.__name__: c for c in classes if dataclasses.is_dataclass(c)
    }
    assert serialize._ENUMS == {c.__name__: c for c in classes if issubclass(c, enum.Enum)}


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
