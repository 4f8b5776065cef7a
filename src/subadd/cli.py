"""The ``subadd`` command-line interface.

Subcommands::

    certify   evaluate the five sufficient conditions (exit 0 iff CERTIFIED)
    scan      deterministic grid scan of the gap minimum (exit 0 iff clear)
    violate   full violation search with high-precision confirmation
              (exit 1 iff a violation is confirmed, 0 when none is found)
    table     re-derive the stored reference rows (exit 0 iff reproduced)
    oracles   run the supporting-statement oracle battery (exit 0 iff all pass)
    cone      build the exact cone construction and self-check it

Common flags: ``--mu/--sigma/--alpha`` (defaults 1.2/0.05/0.05), ``--a``
(default 2.0), ``--format`` {text,json,csv}, ``--precision-bits`` (>= 128),
and ``--config FILE`` pointing at a ``key = value`` file.  Precedence is
built-in defaults < config file < explicit flags.

Exit codes: 0 = affirmative/clean result, 1 = negative result or internal
failure (not certified, violation found, table mismatch, oracle failure),
2 = invalid input (bad flags, bad config file, bad parameter values).
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import random
import sys
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

from . import statement_oracles
from .analytic_core import Order, Params
from .certificate import Verdict, certify_S2
from .cone import (
    MAX_GENERATORS,
    Cone,
    ConeElement,
    GeneratorId,
    GeneratorKind,
    make_generators,
)
from .errors import (
    DomainError,
    InputError,
    PreconditionError,
    ToolkitError,
    require_int,
)
from .intervals import Interval
from .search import (
    MAX_GRID_N,
    MAX_REFINE_DEPTH,
    ScanConfig,
    find_violation,
    reproduce_table,
    scan_gap_min,
    violation_scan_config,
)
from .serialize import to_jsonable

__all__ = ["RunConfig", "build_parser", "run", "main"]

_SUBCOMMANDS = ("certify", "scan", "violate", "table", "oracles", "cone")
_FORMATS = ("text", "json", "csv")

_DEFAULT_MU = 1.2
_DEFAULT_SIGMA = 0.05
_DEFAULT_ALPHA = 0.05
_DEFAULT_ORDER = 2.0
_DEFAULT_PRECISION = 128

#: Per-subcommand scan defaults: (box, grid_n, refine_depth, tolerance).
#: ``box=None`` means "derive the violation window from the parameters".
_SCAN_DEFAULTS = {
    "scan": ((-8.0, 8.0, -8.0, 8.0), 801, 3, 1e-9),
    "violate": (None, 401, 2, 1e-9),
    "table": ((-8.0, 8.0, -8.0, 8.0), 401, 2, 1e-9),
}

_DEFAULT_N_BASE = 20
_DEFAULT_N_RESERVE = 2
_CONE_PAIRS = 200
_CONE_SEED = 20260818
_CONE_EPS = Fraction(1, 2)

#: Absolute agreement required for a reference-table margin to count as
#: reproduced (the stored margins carry ~7 significant digits).
_TABLE_MATCH_TOL = 1e-6

_CONFIG_KEYS = (
    "mu",
    "sigma",
    "alpha",
    "a",
    "box",
    "grid-n",
    "refine-depth",
    "tolerance",
    "format",
    "precision-bits",
    "n-base",
    "n-reserve",
)


@dataclass(frozen=True)
class RunConfig:
    """Fully resolved invocation: what :func:`run` executes.

    ``scan`` is the resolved grid configuration for the subcommands that
    scan (``scan``, ``violate``, ``table``) and ``None`` otherwise.
    """

    subcommand: str
    params: Params
    order: Order
    scan: Optional[ScanConfig] = None
    output_format: str = "text"
    precision_bits: int = _DEFAULT_PRECISION
    n_base: int = _DEFAULT_N_BASE
    n_reserve: int = _DEFAULT_N_RESERVE

    def __post_init__(self) -> None:
        if self.subcommand not in _SUBCOMMANDS:
            raise InputError(
                f"unknown subcommand {self.subcommand!r}; "
                f"expected one of {', '.join(_SUBCOMMANDS)}"
            )
        if not isinstance(self.params, Params):
            raise InputError(f"params must be a Params instance, got {self.params!r}")
        if not isinstance(self.order, Order):
            raise InputError(f"order must be an Order instance, got {self.order!r}")
        if self.scan is not None and not isinstance(self.scan, ScanConfig):
            raise InputError(f"scan must be a ScanConfig or None, got {self.scan!r}")
        if self.output_format not in _FORMATS:
            raise InputError(
                f"format must be one of {', '.join(_FORMATS)}, "
                f"got {self.output_format!r}"
            )
        require_int(self.precision_bits, "precision-bits", 128)
        require_int(self.n_base, "n-base", 1, MAX_GENERATORS)
        require_int(self.n_reserve, "n-reserve", 1, MAX_GENERATORS)


# ---------------------------------------------------------------------------
# argument and config-file parsing
# ---------------------------------------------------------------------------


def _parse_box(text: object, where: str = "box") -> Tuple[float, float, float, float]:
    parts = [s.strip() for s in str(text).split(",")]
    if len(parts) != 4:
        raise InputError(f"{where} must be 'x_lo,x_hi,y_lo,y_hi', got {text!r}")
    try:
        vals = tuple(float(s) for s in parts)
    except ValueError as exc:
        raise InputError(f"{where}: entries must be numbers, got {text!r}") from exc
    return vals  # ScanConfig validates ordering and finiteness


def _cfg_float(text: str, key: str) -> float:
    try:
        return float(text)
    except ValueError as exc:
        raise InputError(f"config key {key!r}: not a number: {text!r}") from exc


def _cfg_int(text: str, key: str) -> int:
    try:
        return int(text, 10)
    except ValueError as exc:
        raise InputError(f"config key {key!r}: not an integer: {text!r}") from exc


def _parse_config_file(path: str) -> Dict[str, str]:
    """Read a ``key = value`` file (``#`` comments, blank lines allowed)."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise InputError(f"cannot read config file {path!r}: {exc}") from exc
    out: Dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        key, sep, value = line.partition("=")
        key = key.strip().replace("_", "-")
        value = value.strip()
        if not sep or not key:
            raise InputError(f"{path}:{lineno}: expected 'key = value', got {raw!r}")
        if key not in _CONFIG_KEYS:
            raise InputError(
                f"{path}:{lineno}: unknown key {key!r}; valid keys: "
                f"{', '.join(_CONFIG_KEYS)}"
            )
        out[key] = value
    return out


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--mu", type=float, default=None, help="ring centre (> 0)")
    common.add_argument("--sigma", type=float, default=None, help="ring width (> 0)")
    common.add_argument("--alpha", type=float, default=None, help="bump weight (> 0)")
    common.add_argument(
        "--a", type=float, default=None, help="subadditivity order (> 0, default 2)"
    )
    common.add_argument(
        "--config", default=None, metavar="FILE", help="key = value defaults file"
    )
    common.add_argument(
        "--format", choices=_FORMATS, default=None, help="output format"
    )
    common.add_argument(
        "--precision-bits",
        type=int,
        default=None,
        help="working precision for confirmations (>= 128)",
    )

    scanopts = argparse.ArgumentParser(add_help=False)
    scanopts.add_argument(
        "--box", default=None, metavar="X0,X1,Y0,Y1", help="search rectangle"
    )
    grid_help = f"nodes per axis (2 to {MAX_GRID_N})"
    depth_help = f"extra 10x refinement rounds (0 to {MAX_REFINE_DEPTH})"
    scanopts.add_argument("--grid-n", type=int, default=None, help=grid_help)
    scanopts.add_argument(
        "--refine-depth", type=int, default=None, help=depth_help
    )
    scanopts.add_argument(
        "--tolerance", type=float, default=None, help="violation threshold on -gap"
    )

    gridonly = argparse.ArgumentParser(add_help=False)
    gridonly.add_argument("--grid-n", type=int, default=None, help=grid_help)
    gridonly.add_argument(
        "--refine-depth", type=int, default=None, help=depth_help
    )

    coneopts = argparse.ArgumentParser(add_help=False)
    coneopts.add_argument(
        "--n-base",
        type=int,
        default=None,
        help=f"number of BASE generators (1 to {MAX_GENERATORS})",
    )
    coneopts.add_argument(
        "--n-reserve",
        type=int,
        default=None,
        help=f"number of RESERVE generators (1 to {MAX_GENERATORS})",
    )

    parser = argparse.ArgumentParser(
        prog="subadd",
        description="Verification toolkit for a-subadditive functions.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)
    sub.add_parser(
        "certify",
        parents=[common],
        help="check the five sufficient conditions rigorously",
    )
    sub.add_parser(
        "scan", parents=[common, scanopts], help="grid-scan the gap minimum"
    )
    sub.add_parser(
        "violate",
        parents=[common, scanopts],
        help="search for and confirm a subadditivity violation",
    )
    sub.add_parser(
        "table", parents=[common, gridonly], help="re-derive the reference rows"
    )
    sub.add_parser(
        "oracles", parents=[common], help="run the supporting-statement oracles"
    )
    sub.add_parser(
        "cone", parents=[common, coneopts], help="build and self-check the cone map"
    )
    return parser


def build_config(args: argparse.Namespace) -> RunConfig:
    """Resolve flags + config file + defaults into a :class:`RunConfig`."""
    filecfg = _parse_config_file(args.config) if args.config else {}

    def pick(flag_value, key, parse, default):
        if flag_value is not None:
            return flag_value
        if key in filecfg:
            return parse(filecfg[key], key)
        return default

    params = Params(
        mu=pick(args.mu, "mu", _cfg_float, _DEFAULT_MU),
        sigma=pick(args.sigma, "sigma", _cfg_float, _DEFAULT_SIGMA),
        alpha=pick(args.alpha, "alpha", _cfg_float, _DEFAULT_ALPHA),
    )
    order = Order(pick(args.a, "a", _cfg_float, _DEFAULT_ORDER))
    fmt = pick(args.format, "format", lambda v, k: v, "text")
    prec = pick(args.precision_bits, "precision-bits", _cfg_int, _DEFAULT_PRECISION)

    scan = None
    if args.subcommand in _SCAN_DEFAULTS:
        dbox, dgrid, ddepth, dtol = _SCAN_DEFAULTS[args.subcommand]
        grid_n = pick(getattr(args, "grid_n", None), "grid-n", _cfg_int, dgrid)
        depth = pick(
            getattr(args, "refine_depth", None), "refine-depth", _cfg_int, ddepth
        )
        if args.subcommand == "table":
            # the reference scan window and threshold are part of the
            # re-derivation recipe; only the grid resolution is tunable
            tol = dtol
            box = dbox
        else:
            tol = pick(getattr(args, "tolerance", None), "tolerance", _cfg_float, dtol)
            box = pick(getattr(args, "box", None), "box", lambda v, k: v, dbox)
            if isinstance(box, str):
                box = _parse_box(box)
        if box is None:
            scan = violation_scan_config(
                params, grid_n=grid_n, refine_depth=depth, tolerance=tol
            )
        else:
            scan = ScanConfig(
                box=tuple(box), grid_n=grid_n, refine_depth=depth, tolerance=tol
            )

    return RunConfig(
        subcommand=args.subcommand,
        params=params,
        order=order,
        scan=scan,
        output_format=fmt,
        precision_bits=prec,
        n_base=pick(
            getattr(args, "n_base", None), "n-base", _cfg_int, _DEFAULT_N_BASE
        ),
        n_reserve=pick(
            getattr(args, "n_reserve", None), "n-reserve", _cfg_int, _DEFAULT_N_RESERVE
        ),
    )


# ---------------------------------------------------------------------------
# rendering helpers
# ---------------------------------------------------------------------------


def _fmt_interval(iv: Optional[Interval]) -> str:
    if iv is None:
        return "(not evaluable)"
    return f"[{iv.lo!r}, {iv.hi!r}]"


def _fmt_params(p: Params) -> str:
    return f"mu={p.mu!r} sigma={p.sigma!r} alpha={p.alpha!r}"


def _json_dumps(payload) -> str:
    return json.dumps(to_jsonable(payload), indent=2)


def _csv_dumps(header: Sequence[str], rows: Sequence[Sequence[object]]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue().rstrip("\n")


# ---------------------------------------------------------------------------
# subcommand runners (each returns (exit_code, output_text))
# ---------------------------------------------------------------------------


def _run_certify(config: RunConfig) -> Tuple[int, str]:
    report = certify_S2(config.params)
    code = 0 if report.verdict is Verdict.CERTIFIED else 1
    if config.output_format == "json":
        return code, _json_dumps(report)
    if config.output_format == "csv":
        rows = [
            (
                c.name,
                c.lhs.lo,
                c.lhs.hi,
                "" if c.rhs is None else c.rhs.lo,
                "" if c.rhs is None else c.rhs.hi,
                c.verdict.name,
            )
            for c in report.conditions
        ]
        return code, _csv_dumps(
            ("condition", "lhs_lo", "lhs_hi", "rhs_lo", "rhs_hi", "verdict"), rows
        )
    lines = [f"parameters: {_fmt_params(config.params)}"]
    for c in report.conditions:
        lines.append(
            f"condition {c.name}: lhs={_fmt_interval(c.lhs)} "
            f"rhs={_fmt_interval(c.rhs)} -> {c.verdict.name}"
        )
    lines.append(f"verdict: {report.verdict.name}")
    lines.append(f"note: {report.caveat}")
    return code, "\n".join(lines)


def _run_scan(config: RunConfig) -> Tuple[int, str]:
    report = scan_gap_min(config.order, config.params, config.scan)
    candidate = report.min_gap < -config.scan.tolerance
    code = 1 if candidate else 0
    if config.output_format == "json":
        payload = {
            "config": config.scan,
            "report": report,
            "violation_candidate": candidate,
        }
        return code, _json_dumps(payload)
    if config.output_format == "csv":
        row = (
            report.order.a,
            config.params.mu,
            config.params.sigma,
            config.params.alpha,
            report.min_gap,
            report.argmin.x,
            report.argmin.y,
            report.evaluations,
        )
        return code, _csv_dumps(
            ("a", "mu", "sigma", "alpha", "min_gap", "x", "y", "evaluations"), [row]
        )
    b = config.scan.box
    lines = [
        f"order a={report.order.a!r}, parameters: {_fmt_params(config.params)}",
        (
            f"scan box [{b[0]!r}, {b[1]!r}] x [{b[2]!r}, {b[3]!r}], "
            f"grid {config.scan.grid_n}, refine depth {config.scan.refine_depth} "
            f"({report.evaluations} evaluations)"
        ),
        f"min gap: {report.min_gap!r} at x={report.argmin.x!r} y={report.argmin.y!r}",
    ]
    if candidate:
        lines.append(
            f"result: VIOLATION CANDIDATE (min gap < -{config.scan.tolerance!r}); "
            f"run 'subadd violate' to confirm in high precision"
        )
    else:
        lines.append(
            f"result: no violation candidate at tolerance {config.scan.tolerance!r}"
        )
    return code, "\n".join(lines)


def _run_violate(config: RunConfig) -> Tuple[int, str]:
    violation = find_violation(
        config.order, config.params, config.scan, prec_bits=config.precision_bits
    )
    code = 1 if violation is not None else 0
    if config.output_format == "json":
        payload = {
            "params": config.params,
            "order": config.order,
            "config": config.scan,
            "violation": violation,
        }
        return code, _json_dumps(payload)
    if config.output_format == "csv":
        header = ("a", "mu", "sigma", "alpha", "x", "y", "margin")
        rows = []
        if violation is not None:
            rows.append(
                (
                    violation.order.a,
                    config.params.mu,
                    config.params.sigma,
                    config.params.alpha,
                    violation.point.x,
                    violation.point.y,
                    violation.margin,
                )
            )
        return code, _csv_dumps(header, rows)
    if violation is None:
        return code, (
            f"no violation found for a={config.order.a!r} with "
            f"{_fmt_params(config.params)} (scanned box "
            f"{config.scan.box}, tolerance {config.scan.tolerance!r})"
        )
    return code, "\n".join(
        [
            f"CONFIRMED violation of {violation.order.a!r}-subadditivity:",
            f"  parameters: {_fmt_params(config.params)}",
            f"  point: x={violation.point.x!r} y={violation.point.y!r}",
            (
                f"  margin: {violation.margin!r} "
                f"(high-precision -gap at {config.precision_bits} bits; "
                f"positive means the inequality fails)"
            ),
        ]
    )


def _run_table(config: RunConfig) -> Tuple[int, str]:
    rows = reproduce_table(
        grid_n=config.scan.grid_n,
        refine_depth=config.scan.refine_depth,
        prec_bits=config.precision_bits,
    )
    verdicts = []
    for r in rows:
        margin_match = abs(r.margin - r.expected_margin) <= _TABLE_MATCH_TOL
        order2_clear = r.scan_min_gap >= -config.scan.tolerance
        verdicts.append((margin_match, order2_clear))
    all_ok = all(m and c for m, c in verdicts)
    code = 0 if all_ok else 1
    if config.output_format == "json":
        payload = {
            "rows": rows,
            "margin_tolerance": _TABLE_MATCH_TOL,
            "margin_match": [m for m, _ in verdicts],
            "order2_clear": [c for _, c in verdicts],
            "all_reproduced": all_ok,
        }
        return code, _json_dumps(payload)
    if config.output_format == "csv":
        out_rows = [
            (
                r.mu,
                r.sigma,
                r.alpha,
                r.x_star,
                r.y_star,
                r.margin,
                r.expected_margin,
                m,
                r.scan_min_gap,
                c,
            )
            for r, (m, c) in zip(rows, verdicts)
        ]
        return code, _csv_dumps(
            (
                "mu",
                "sigma",
                "alpha",
                "x_star",
                "y_star",
                "margin",
                "expected_margin",
                "margin_match",
                "scan_min_gap",
                "order2_clear",
            ),
            out_rows,
        )
    lines = [
        "re-derived reference rows (margin = recomputed order-3 margin at the "
        "stored witness; scan_min_gap = order-2 scan minimum over [-8,8]^2):"
    ]
    for r, (m, c) in zip(rows, verdicts):
        lines.append(
            f"  mu={r.mu!r} sigma={r.sigma!r}: margin={r.margin!r} "
            f"(stored {r.expected_margin!r}, "
            f"{'match' if m else 'MISMATCH'}), "
            f"order-2 scan min={r.scan_min_gap!r} "
            f"({'clear' if c else 'NEGATIVE'})"
        )
    lines.append(
        "result: all rows reproduced"
        if all_ok
        else "result: NOT REPRODUCED — see the README's 'Known discrepancies'"
    )
    return code, "\n".join(lines)


def _run_oracles(config: RunConfig) -> Tuple[int, str]:
    p = config.params
    results: List[Tuple[str, str, str]] = []

    def record(name: str, fn, detail: str) -> None:
        try:
            ok = fn()
        except PreconditionError as exc:
            results.append((name, "skipped", str(exc)))
        else:
            results.append((name, "pass" if ok else "fail", detail))

    for handle, t in (("f", 0.75), ("g", 0.5), ("h", 1.25)):
        record(
            f"rolle-identity-{handle}",
            lambda handle=handle, t=t: statement_oracles.check_rolle_identity(
                handle, t, p
            ),
            f"interior-slope probe at t={t} lies in the sampled range",
        )
    record(
        "monotone-increasing-f",
        lambda: statement_oracles.check_monotone_f(p),
        "derivative positive and nondecreasing on the sampled ray",
    )
    record(
        "symmetrization-reduction",
        lambda: statement_oracles.check_symmetrization(p),
        "gap(x, y) >= gap(|x|, |y|) on sampled small-region pairs",
    )
    record(
        "tau-concavity",
        lambda: statement_oracles.check_tau_concavity(p, 1.0),
        "restricted profile has nonpositive second differences",
    )
    demo_gens = (Fraction(1, 2), Fraction(1, 3))
    record(
        "semigroup-membership-positive",
        lambda: statement_oracles.semigroup_member(Fraction(7, 6), demo_gens, 5)
        is True,
        "7/6 reachable from {1/2, 1/3} within 5 terms",
    )
    record(
        "semigroup-membership-negative",
        lambda: statement_oracles.semigroup_member(Fraction(1, 5), demo_gens, 5)
        is False,
        "1/5 provably unreachable from {1/2, 1/3}",
    )
    for a, expected in ((1, False), (2, True), (3, True)):
        record(
            f"indicator-order-{a}",
            lambda a=a, expected=expected: statement_oracles.indicator_example_check(a)
            is expected,
            f"step-function example is {'' if expected else 'not '}"
            f"{a}-subadditive as expected",
        )

    failed = [name for name, status, _ in results if status == "fail"]
    code = 0 if not failed else 1
    if config.output_format == "json":
        payload = {
            "params": p,
            "oracles": [
                {"oracle": name, "status": status, "detail": detail}
                for name, status, detail in results
            ],
            "all_passed": not failed,
        }
        return code, _json_dumps(payload)
    if config.output_format == "csv":
        return code, _csv_dumps(("oracle", "status", "detail"), results)
    lines = [f"parameters: {_fmt_params(p)}"]
    for name, status, detail in results:
        lines.append(f"oracle {name}: {status.upper()} ({detail})")
    lines.append(
        f"result: {len(results) - len(failed)}/{len(results)} passed"
        + (f", failures: {', '.join(failed)}" if failed else "")
    )
    return code, "\n".join(lines)


def _random_cone_element(cone: Cone, rng: random.Random) -> ConeElement:
    ids = cone.generator_ids()
    count = rng.randint(1, min(3, len(ids)))
    chosen = rng.sample(range(len(ids)), count)
    return ConeElement(
        tuple(
            (ids[i], Fraction(rng.randint(1, 50), rng.randint(1, 50)))
            for i in chosen
        )
    )


def _run_cone(config: RunConfig) -> Tuple[int, str]:
    cone = make_generators(config.n_base, config.n_reserve)
    limsup = cone.limsup_sequence(config.n_base)
    liminf = cone.liminf_sequence(10)

    rng = random.Random(_CONE_SEED)
    pairs_valid = 0
    round_trips_exact = 0
    for _ in range(_CONE_PAIRS):
        x = _random_cone_element(cone, rng)
        y = _random_cone_element(cone, rng)
        if cone.check_subadditive_pair(x, y).is_valid():
            pairs_valid += 1
        if cone.apply_f_inv(cone.apply_f(x)) == x:
            round_trips_exact += 1
    upper_ok = cone.upper_bound_check(_CONE_EPS, _CONE_PAIRS)
    all_ok = (
        pairs_valid == _CONE_PAIRS
        and round_trips_exact == _CONE_PAIRS
        and upper_ok
    )
    code = 0 if all_ok else 1

    scale_rows = [
        (
            n,
            cone.generator(GeneratorId(GeneratorKind.BASE, n)).prime,
            cone.q_of(n),
            value,
            image,
        )
        for n, value, image in limsup
    ]
    if config.output_format == "json":
        payload = {
            "n_base": config.n_base,
            "n_reserve": config.n_reserve,
            "scales": [
                {"n": n, "prime": prime, "q": q, "value": value, "image": image}
                for n, prime, q, value, image in scale_rows
            ],
            "liminf": [
                {"k": k, "value": value, "image": image}
                for k, value, image in liminf
            ],
            "pairs_checked": _CONE_PAIRS,
            "pairs_valid": pairs_valid,
            "round_trips_exact": round_trips_exact,
            "upper_bound_ok": upper_ok,
            "all_ok": all_ok,
        }
        return code, _json_dumps(payload)
    if config.output_format == "csv":
        rows = [
            (n, prime, q, value.lo, value.hi, image.lo, image.hi)
            for n, prime, q, value, image in scale_rows
        ]
        return code, _csv_dumps(
            ("n", "prime", "q", "value_lo", "value_hi", "image_lo", "image_hi"),
            rows,
        )
    lines = [
        f"cone: {config.n_base} BASE + {config.n_reserve} RESERVE generators",
        "scale certificates (integer-exact, image of BASE ray n in "
        "(1 - 2^-n, 1)):",
    ]
    for n, prime, q, value, image in scale_rows:
        lines.append(
            f"  n={n}: prime={prime} q={q} value~{_fmt_interval(value)} "
            f"image~{_fmt_interval(image)}"
        )
    ks = ", ".join(f"k={k}: <={value.hi!r}" for k, value, _ in liminf[:4])
    lines.append(f"reserve ray is fixed pointwise; approach-zero values {ks} ...")
    lines.append(
        f"subadditivity witnesses: {pairs_valid}/{_CONE_PAIRS} random pairs valid"
    )
    lines.append(f"exact round-trips: {round_trips_exact}/{_CONE_PAIRS}")
    lines.append(
        f"small-element image bound (< 1 + {_CONE_EPS}): "
        f"{'PASS' if upper_ok else 'FAIL'}"
    )
    lines.append(f"result: {'all checks passed' if all_ok else 'CHECKS FAILED'}")
    return code, "\n".join(lines)


_RUNNERS = {
    "certify": _run_certify,
    "scan": _run_scan,
    "violate": _run_violate,
    "table": _run_table,
    "oracles": _run_oracles,
    "cone": _run_cone,
}


def run(config: RunConfig) -> Tuple[int, str]:
    """Execute a resolved invocation; returns ``(exit_code, output_text)``."""
    if not isinstance(config, RunConfig):
        raise InputError(f"config must be a RunConfig, got {config!r}")
    return _RUNNERS[config.subcommand](config)


def main(argv: Optional[Sequence[str]] = None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        code = exc.code
        return 0 if code is None else int(code)
    try:
        config = build_config(args)
        code, output = run(config)
    except (InputError, DomainError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ToolkitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if output:
        print(output)
    return code


if __name__ == "__main__":
    sys.exit(main())
