"""The shipping gate: eight end-to-end checks, one per release criterion,
each printing a single ``ACCEPTANCE k: PASS/FAIL`` line.

Three criteria check published claims that the toolkit refutes, and pass
when the refutation is reproduced exactly (see the README's "Known
discrepancies"):

* criterion 3 — the re-derived reference-table margins match the 200-bit
  oracle, and none of the stored margins is reproduced;
* criterion 4 — the flagship triple and table rows 1-4 have negative
  order-2 gap minima inside their frozen brackets, each confirmed in high
  precision (the mixed-region sufficient condition is not in fact
  sufficient); row 5 scans clean;
* criterion 6 — the documented chain on the mixed region holds with the
  proven constant, ``psi(z) >= 2 log(9/8) z``, while the published
  ``psi(z) >= 2z`` is false at every sampled point.
"""

import math
import random
import time
from fractions import Fraction

import pytest

import _frozen
from subadd import statement_oracles
from subadd.analytic_core import (
    HighPrecision,
    Params,
    classify_region,
    eval_C,
    eval_f,
    eval_h,
    eval_lambda,
    eval_psi,
    gap,
)
from subadd.certificate import Verdict, certify_S2
from subadd.cone import ConeElement, GeneratorId, GeneratorKind, make_generators
from subadd.errors import PreconditionError
from subadd.intervals import Tristate
from subadd.search import (
    ScanConfig,
    Violation,
    find_violation,
    scan_gap_min,
    verify_point,
)

FLAGSHIP = Params(mu=1.2, sigma=0.05, alpha=0.05)
TABLE_ALPHA = 0.117783036
TABLE = (
    (1.5, 0.05, 0.00675, 1.45367, 0.001664770),
    (2.0, 0.10, 0.01050, 1.95491, 0.000326430),
    (2.5, 0.10, 0.00900, 2.45647, 0.000183238),
    (3.0, 0.10, 0.00750, 2.95886, 0.000105165),
    (5.0, 0.15, 0.00750, 4.96456, 0.000053255),
)


def _report(capsys, k, ok, label):
    with capsys.disabled():
        print(f"\nACCEPTANCE {k}: {'PASS' if ok else 'FAIL'} - {label}")


def test_criterion_1_flagship_certified(capsys):
    t0 = time.perf_counter()
    report = certify_S2(FLAGSHIP)
    elapsed = time.perf_counter() - t0
    ok = (
        report.verdict is Verdict.CERTIFIED
        and len(report.conditions) == 5
        and all(c.verdict is Tristate.TRUE for c in report.conditions)
        and elapsed < 1.0
    )
    _report(capsys, 1, ok, "five conditions TRUE and CERTIFIED on (1.2, 0.05, 0.05)")
    assert report.verdict is Verdict.CERTIFIED
    assert all(c.verdict is Tristate.TRUE for c in report.conditions)
    assert elapsed < 1.0


def test_criterion_2_order3_violation_margin(capsys):
    t0 = time.perf_counter()
    margin = verify_point(3, FLAGSHIP, 0.016, 1.137)
    elapsed = time.perf_counter() - t0
    ok = 0.0100 < margin < 0.0102 and margin > 0.01 and elapsed < 1.0
    _report(
        capsys, 2, ok, "high-precision margin at (0.016, 1.137) in (0.0100, 0.0102)"
    )
    assert 0.0100 < margin < 0.0102
    assert margin > 0.01
    assert elapsed < 1.0


def test_criterion_3_reference_table_margins(capsys):
    """The order-3 margins re-derived at the stored witnesses match the
    200-bit oracle (``TABLE_MARGIN3_RECOMPUTED``) to 1e-6, and no stored
    margin is reproduced: row 1 comes out about 17x the stored value and
    rows 2-5 with the opposite sign (no violation at the stored point)."""
    t0 = time.perf_counter()
    margins = []
    for mu, sigma, x_star, y_star, _ in TABLE:
        p = Params(mu=mu, sigma=sigma, alpha=TABLE_ALPHA)
        margins.append(verify_point(3, p, x_star, y_star))
    elapsed = time.perf_counter() - t0
    oracle = [float(_frozen.as_mpf(m)) for m in _frozen.TABLE_MARGIN3_RECOMPUTED]
    off_oracle = [
        (row[0], m, o) for row, m, o in zip(TABLE, margins, oracle) if abs(m - o) > 1e-6
    ]
    stored = [row[4] for row in TABLE]
    ratio = margins[0] / stored[0]
    flipped = [m < 0.0 < s for m, s in zip(margins[1:], stored[1:])]
    ok = not off_oracle and 16.0 < ratio < 17.5 and all(flipped) and elapsed < 10.0
    _report(
        capsys,
        3,
        ok,
        "re-derived margins match the oracle; stored margins refuted "
        "(row 1 ~17x, rows 2-5 opposite sign)",
    )
    assert elapsed < 10.0
    assert not off_oracle, f"re-derived margins off the oracle: {off_oracle}"
    assert 16.0 < ratio < 17.5, f"row 1 recomputed/stored ratio {ratio}"
    assert all(flipped), f"rows 2-5 margins {margins[1:]} vs stored {stored[1:]}"


def test_criterion_4_order2_scan_corroboration(capsys):
    """Full-box order-2 scans of the flagship and the five table triples
    land in their frozen minimum brackets; every negative minimum is a
    violation confirmed in high precision at its argmin, and only table
    row 5 scans clean."""
    configs = [FLAGSHIP] + [
        Params(mu=mu, sigma=sigma, alpha=TABLE_ALPHA) for mu, sigma, *_ in TABLE
    ]
    brackets = (_frozen.SCAN2_CERT_MIN_BRACKET,) + _frozen.SCAN2_TABLE_MIN_BRACKETS
    cfg = ScanConfig(box=(-8.0, 8.0, -8.0, 8.0), grid_n=801, refine_depth=3)
    reports = []
    slowest = 0.0
    for p in configs:
        t0 = time.perf_counter()
        reports.append(scan_gap_min(2, p, cfg))
        slowest = max(slowest, time.perf_counter() - t0)
    outside = [
        (p, rep.min_gap, bracket)
        for p, rep, bracket in zip(configs, reports, brackets)
        if not bracket[0] <= rep.min_gap <= bracket[1]
    ]
    unconfirmed = []
    for p, rep in zip(configs, reports):
        if rep.min_gap < 0.0:
            margin = verify_point(2, p, rep.argmin.x, rep.argmin.y)
            if not margin > 0.0:
                unconfirmed.append((p, rep.min_gap, margin))
    clean_row5 = reports[-1].min_gap >= -1e-9
    ok = not outside and not unconfirmed and clean_row5 and slowest < 60.0
    _report(
        capsys,
        4,
        ok,
        "order-2 scan minima in frozen brackets; flagship and rows 1-4 "
        "violations confirmed, row 5 clean",
    )
    assert slowest < 60.0
    assert not outside, f"scan minima outside their frozen brackets: {outside}"
    assert not unconfirmed, f"negative minima not confirmed: {unconfirmed}"
    assert clean_row5, f"row 5 min_gap={reports[-1].min_gap!r}"


def test_criterion_5_order1_violation(capsys):
    v = find_violation(1, FLAGSHIP)
    ok = isinstance(v, Violation) and v.margin > 1e-4
    _report(capsys, 5, ok, "order-1 violation confirmed with margin > 1e-4")
    assert isinstance(v, Violation)
    assert v.margin > 1e-4
    # sanity: the float64 gap agrees in sign at the confirmed point
    assert gap(1, "f", v.point.x, v.point.y, FLAGSHIP) < 0.0


def test_criterion_6_documented_invariants(capsys):
    t0 = time.perf_counter()
    failures = []

    def check(name, fn):
        try:
            if not fn():
                failures.append(name)
        except Exception as exc:  # a refusal or crash also fails the gate
            failures.append(f"{name} (raised {type(exc).__name__}: {exc})")

    rng = random.Random(20260818)
    tol = 1e-12

    def draw():
        return rng.uniform(-10.0, 10.0), rng.uniform(-10.0, 10.0)

    def draw_in(predicate):
        while True:
            x, y = draw()
            if predicate(classify_region(x, y)):
                return x, y

    check(
        "order-1 base-profile gap nonnegative (1e4 pairs)",
        lambda: all(gap(1, "g", *draw()) >= -tol for _ in range(10_000)),
    )
    check(
        "order-2 base-profile gap >= lambda(|x|) (1e4 pairs)",
        lambda: all(
            (lambda xy: gap(2, "g", *xy) >= eval_lambda(abs(xy[0])) - tol)(draw())
            for _ in range(10_000)
        ),
    )
    check(
        "outer-region gap >= log(9/8) (1e4 pairs)",
        lambda: all(
            (lambda xy: gap(2, "g", *xy) >= eval_C() - tol)(
                draw_in(lambda f: f.in_A)
            )
            for _ in range(10_000)
        ),
    )
    check(
        "small+mixed-region gap >= (3/8) x^2 (1e4 pairs)",
        lambda: all(
            (lambda xy: gap(2, "g", *xy) >= 0.375 * xy[0] * xy[0] - tol)(
                draw_in(lambda f: f.in_B or f.in_C)
            )
            for _ in range(10_000)
        ),
    )

    def mixed_chain():
        # psi is concave with psi(0) = 0 and psi(1/2) = log(9/8), so
        # psi(z) >= 2 log(9/8) z on [0, 1/2]; the published 2|x| is refuted.
        c = eval_C()
        witness = gap(2, "g", 0.01, 1.0)
        if not (
            _frozen.rel_err(witness, _frozen.GAP2_G_AT_0p01_1) <= 1e-13
            and witness < 0.02
        ):
            return False
        for _ in range(10_000):
            x, y = draw_in(lambda f: f.in_C)
            z = abs(x)
            psi = eval_psi(z)
            if not (
                psi < 2.0 * z
                and gap(2, "g", x, y) >= psi - tol
                and psi >= 2.0 * c * z - tol
            ):
                return False
        return abs(eval_psi(0.5) - c) <= 2.0 * math.ulp(c)

    check(
        "mixed-region chain gap >= psi(|x|) >= 2 log(9/8)|x|, refuting 2|x| "
        "(1e4 pairs)",
        mixed_chain,
    )

    def bump_band():
        for p in (FLAGSHIP, Params(2.0, 0.1, 0.3), Params(5.0, 0.15, 1.0)):
            for _ in range(10_000):
                v = gap(2, "h", *draw(), p)
                if not (-1.0 - tol <= v <= 3.0 + tol):
                    return False
        return True

    check("bump gap within [-1, 3] (1e4 pairs, several Params)", bump_band)
    check(
        "lambda nondecreasing on [0, 100] (1e4 grid)",
        lambda: all(
            eval_lambda(100.0 * (k + 1) / 9_999) >= eval_lambda(100.0 * k / 9_999) - tol
            for k in range(9_999)
        ),
    )
    check(
        "even symmetry exact (1e4 points)",
        lambda: all(
            (lambda x: eval_f(x, FLAGSHIP) == eval_f(-x, FLAGSHIP))(draw()[0])
            for _ in range(10_000)
        ),
    )
    check(
        "region cover (1e5 points)",
        lambda: all(
            (lambda f: f.in_A or f.in_B or f.in_C)(classify_region(*draw()))
            for _ in range(100_000)
        ),
    )

    def decomposition():
        a = FLAGSHIP.alpha
        h0 = eval_h(0.0, FLAGSHIP)
        for _ in range(10_000):
            x, y = draw()
            lhs = gap(2, "f", x, y, FLAGSHIP)
            rhs = gap(2, "g", x, y) + a * (gap(2, "h", x, y, FLAGSHIP) - 2.0 * h0)
            if abs(lhs - rhs) > tol:
                return False
        return True

    check("gap decomposition identity (1e4 pairs)", decomposition)

    # supporting-statement invariants
    def rolle_tuples():
        certified = [FLAGSHIP]
        while len(certified) < 10:
            p = Params(
                mu=rng.uniform(1.15, 1.45),
                sigma=rng.uniform(0.04, 0.08),
                alpha=rng.uniform(0.02, 0.05),
            )
            if certify_S2(p).verdict is Verdict.CERTIFIED:
                certified.append(p)
        for k in range(100):
            fn = ("f", "g", "h")[k % 3]
            t = rng.uniform(0.05, 3.0)
            if statement_oracles.check_rolle_identity(
                fn, t, certified[k % len(certified)]
            ) is not Tristate.TRUE:
                return False
        return True

    check("curvature-probe identity (100 random tuples)", rolle_tuples)

    def semigroup_monotone():
        for _ in range(30):
            target = Fraction(rng.randint(1, 30), rng.randint(1, 6))
            gens = tuple(
                Fraction(rng.randint(1, 9), rng.randint(1, 4))
                for _ in range(rng.randint(1, 3))
            )
            answers = [
                statement_oracles.semigroup_member(target, gens, k)
                for k in range(1, 8)
            ]
            if any(a and not b for a, b in zip(answers, answers[1:])):
                return False
        return True

    check("semigroup membership monotone in budget", semigroup_monotone)
    check(
        "step-function example (TRUE at a=2, FALSE at a=1)",
        lambda: statement_oracles.indicator_example_check(2) is True
        and statement_oracles.indicator_example_check(1) is False,
    )

    def refusal_discipline():
        try:
            statement_oracles.check_monotone_f(Params(mu=0.9, sigma=0.1, alpha=0.1))
        except PreconditionError:
            return True
        return False

    check("hypothesis refusal below mu = 1", refusal_discipline)

    elapsed = time.perf_counter() - t0
    ok = not failures and elapsed < 30.0
    _report(
        capsys,
        6,
        ok,
        "documented invariant battery at stated sizes, mixed-region chain "
        "at its proven constant",
    )
    assert elapsed < 30.0
    assert not failures, f"invariants failed: {failures}"


def test_criterion_7_cone_construction(capsys):
    t0 = time.perf_counter()
    cone = make_generators(20, 5)
    ok = True

    # (a) integer-certified scale factors: the image of base ray n lies in
    # (1 - 2^-n, 1), equivalently (2^n - 1)^2 p < q^2 < 4^n p.
    rows = cone.limsup_sequence(20)
    for n, _, image in rows:
        p = cone.generator(GeneratorId(GeneratorKind.BASE, n)).prime
        q = cone.q_of(n)
        ok = ok and (2**n - 1) ** 2 * p < q * q < 4**n * p
        ok = ok and image.hi < 1.0 and image.lo > 1.0 - 0.5**n

    # (b) exact subadditivity witnesses, 1e4 random pairs, zero failures
    rng = random.Random(771077)
    ids = cone.generator_ids()

    def element():
        support = rng.sample(ids, rng.randint(1, 3))
        return ConeElement(
            tuple(
                (gid, Fraction(rng.randint(1, 60), rng.randint(1, 60)))
                for gid in support
            )
        )

    witness_failures = 0
    for _ in range(10_000):
        try:
            if not cone.check_subadditive_pair(element(), element()).is_valid():
                witness_failures += 1
        except Exception:
            witness_failures += 1
    ok = ok and witness_failures == 0

    # (c) exact bijection round trip on 1e3 elements
    round_trip_failures = 0
    for _ in range(1_000):
        x = element()
        if cone.apply_f_inv(cone.apply_f(x)) != x:
            round_trip_failures += 1
    ok = ok and round_trip_failures == 0

    # (d) limsup evidence: 1 - f(p_20) < 2^-20, certified by the enclosure
    _, _, image20 = rows[19]
    ok = ok and image20.lo > 1.0 - 0.5**20 and image20.hi < 1.0

    # (e) liminf sequence below 1e-3 by k = 600
    liminf = cone.liminf_sequence(600)
    ok = ok and liminf[-1][1].hi < 1e-3

    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 30.0
    _report(capsys, 7, ok, "cone scales certified, witnesses exact, limits bracketed")
    assert witness_failures == 0
    assert round_trip_failures == 0
    assert image20.lo > 1.0 - 0.5**20 and image20.hi < 1.0
    assert liminf[-1][1].hi < 1e-3
    assert elapsed < 30.0
    assert ok


def test_criterion_8_negative_certification_honesty(capsys):
    report = certify_S2(Params(mu=1.5, sigma=0.05, alpha=0.117783036))
    by_name = {c.name: c for c in report.conditions}
    ok = (
        report.verdict is Verdict.NOT_CERTIFIED
        and by_name["C_alpha"].verdict is Tristate.FALSE
    )
    _report(capsys, 8, ok, "table parameters refused: mixed-region bound FALSE")
    assert report.verdict is Verdict.NOT_CERTIFIED
    assert by_name["C_alpha"].verdict is Tristate.FALSE
