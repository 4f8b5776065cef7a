"""The ``subadd`` command-line interface.

Subcommands::

    certify   evaluate the five sufficient conditions (exit 0 iff CERTIFIED)
    scan      deterministic grid scan of the gap minimum (exit 0 iff clear)
    violate   full violation search with high-precision confirmation
              (exit 1 iff a violation is confirmed, 0 when none is found)
    table     re-derive the stored reference rows (exit 0 iff reproduced)
    oracles   run the supporting-statement oracle battery (exit 0 iff all pass)
    cone      build the exact cone construction and self-check it

Every option is one row of ``_OPTIONS``: the flag ``--NAME`` and the key
``NAME`` of the ``--config FILE`` (a ``key = value`` file, ``_`` allowed
for ``-``), its reader, and the subcommands that take it.  A value comes
from the flag, else the config file, else the default; a subcommand
ignores, and does not parse, the config keys it does not take.  Common
flags: ``--mu/--sigma/--alpha`` (defaults 1.2/0.05/0.05), ``--a``
(default 2.0), ``--format`` {text,json,csv} and ``--precision-bits``
(>= 128).  ``scan`` grids ``[-8, 8]^2`` at 801 nodes and 3 refinements;
``violate`` and ``table`` take their scan defaults from
:mod:`subadd.search`.

Each runner returns one record ``(exit_code, json_payload, csv_header,
csv_rows, text_lines)`` and :func:`run` renders the ``--format`` asked for.

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
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

from . import statement_oracles
from .analytic_core import MIN_PREC_BITS, Order, Params
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
    require_instance,
    require_int,
)
from .intervals import Interval
from .search import (
    FULL_BOX,
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

_SUBCOMMANDS = {
    "certify": "check the five sufficient conditions rigorously",
    "scan": "grid-scan the gap minimum",
    "violate": "search for and confirm a subadditivity violation",
    "table": "re-derive the reference rows",
    "oracles": "run the supporting-statement oracles",
    "cone": "build and self-check the cone map",
}
_FORMATS = ("text", "json", "csv")

#: Defaults by keyword; RunConfig's fields and :mod:`subadd.search` give
#: the rest.  ``table`` rescans the reference window at the reference
#: tolerance: only its grid is tunable.
_DEFAULTS = {"mu": 1.2, "sigma": 0.05, "alpha": 0.05, "a": 2.0}
_SCAN_DEFAULTS = {
    "scan": {"box": FULL_BOX, "grid_n": 801, "refine_depth": 3},
    "table": {"box": FULL_BOX},
}

_CONE_PAIRS = 200
_CONE_SEED = 20260818
_CONE_EPS = Fraction(1, 2)

#: Absolute agreement required for a reference-table margin to count as
#: reproduced (the stored margins carry ~7 significant digits).
_TABLE_MATCH_TOL = 1e-6


class _Option(NamedTuple):
    """One option: the flag ``--name`` and the config-file key ``name``.

    ``read`` is the flag's type and the config file's reader (``None``: a
    flag only); ``takes`` lists the subcommands that take it; ``kwargs``
    go to ``add_argument``.
    """

    name: str
    read: Optional[type]
    takes: Tuple[str, ...]
    kwargs: Dict[str, object]

    @property
    def dest(self) -> str:
        return self.kwargs.get("dest", self.name.replace("-", "_"))


_ALL = tuple(_SUBCOMMANDS)
_WINDOW = ("scan", "violate")
_GRID = ("scan", "violate", "table")
_OPTIONS = (
    _Option("mu", float, _ALL, dict(help="ring centre (> 0)")),
    _Option("sigma", float, _ALL, dict(help="ring width (> 0)")),
    _Option("alpha", float, _ALL, dict(help="bump weight (> 0)")),
    _Option("a", float, _ALL, dict(help="subadditivity order (> 0, default 2)")),
    _Option(
        "config", None, _ALL, dict(metavar="FILE", help="key = value defaults file")
    ),
    _Option(
        "format", str, _ALL,
        dict(choices=_FORMATS, dest="output_format", help="output format"),
    ),
    _Option(
        "precision-bits", int, _ALL,
        dict(help=f"working precision for confirmations (>= {MIN_PREC_BITS})"),
    ),
    _Option(
        "box", str, _WINDOW, dict(metavar="X0,X1,Y0,Y1", help="search rectangle")
    ),
    _Option("grid-n", int, _GRID, dict(help=f"nodes per axis (2 to {MAX_GRID_N})")),
    _Option(
        "refine-depth", int, _GRID,
        dict(help=f"extra 10x refinement rounds (0 to {MAX_REFINE_DEPTH})"),
    ),
    _Option("tolerance", float, _WINDOW, dict(help="violation threshold on -gap")),
    _Option(
        "n-base", int, ("cone",),
        dict(help=f"number of BASE generators (1 to {MAX_GENERATORS})"),
    ),
    _Option(
        "n-reserve", int, ("cone",),
        dict(help=f"number of RESERVE generators (1 to {MAX_GENERATORS})"),
    ),
)
#: The config-file keys: every option with a reader.
_KEYS = {o.name: o for o in _OPTIONS if o.read is not None}
_NOT_A = {float: "not a number", int: "not an integer"}


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
    precision_bits: int = MIN_PREC_BITS
    n_base: int = 20
    n_reserve: int = 2

    def __post_init__(self) -> None:
        if self.subcommand not in _SUBCOMMANDS:
            raise InputError(
                f"unknown subcommand {self.subcommand!r}; "
                f"expected one of {', '.join(_SUBCOMMANDS)}"
            )
        require_instance(self.params, Params, "params")
        require_instance(self.order, Order, "order")
        if self.scan is not None:
            require_instance(self.scan, ScanConfig, "scan")
        if self.output_format not in _FORMATS:
            raise InputError(
                f"format must be one of {', '.join(_FORMATS)}, "
                f"got {self.output_format!r}"
            )
        require_int(self.precision_bits, "precision-bits", MIN_PREC_BITS)
        require_int(self.n_base, "n-base", 1, MAX_GENERATORS)
        require_int(self.n_reserve, "n-reserve", 1, MAX_GENERATORS)


# ---------------------------------------------------------------------------
# argument and config-file parsing
# ---------------------------------------------------------------------------


def _parse_box(text: str) -> Tuple[float, float, float, float]:
    parts = [s.strip() for s in text.split(",")]
    if len(parts) != 4:
        raise InputError(f"box must be 'x_lo,x_hi,y_lo,y_hi', got {text!r}")
    try:
        return tuple(float(s) for s in parts)  # ScanConfig checks the values
    except ValueError as exc:
        raise InputError(f"box: entries must be numbers, got {text!r}") from exc


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
        if not sep or not key:
            raise InputError(f"{path}:{lineno}: expected 'key = value', got {raw!r}")
        if key not in _KEYS:
            raise InputError(
                f"{path}:{lineno}: unknown key {key!r}; valid keys: {', '.join(_KEYS)}"
            )
        out[key] = value.strip()
    return out


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="subadd",
        description="Verification toolkit for a-subadditive functions.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)
    for name, help_text in _SUBCOMMANDS.items():
        subparser = sub.add_parser(name, help=help_text)
        for opt in _OPTIONS:
            if name in opt.takes:
                subparser.add_argument("--" + opt.name, type=opt.read, **opt.kwargs)
    return parser


def build_config(args: argparse.Namespace) -> RunConfig:
    """Resolve flags + config file + defaults into a :class:`RunConfig`.

    Each value is read when it is needed, in the order below, so that
    errors come in a fixed order and a subcommand never parses a config
    value it does not take.
    """
    sub = args.subcommand
    filecfg = _parse_config_file(args.config) if args.config else {}
    defaults = {**_DEFAULTS, **_SCAN_DEFAULTS.get(sub, {})}

    def pick(*names: str) -> Dict[str, object]:
        """``{keyword: value}`` for ``names``: flag > config file > default;
        a name without any of these is left out."""
        out = {}
        for name in names:
            opt = _KEYS[name]
            value = None
            if sub in opt.takes:
                value = getattr(args, opt.dest)
                if value is None and name in filecfg:
                    try:
                        value = opt.read(filecfg[name])
                    except ValueError as exc:
                        raise InputError(
                            f"config key {name!r}: {_NOT_A[opt.read]}: "
                            f"{filecfg[name]!r}"
                        ) from exc
            if value is None:
                value = defaults.get(opt.dest)
            if value is not None:
                out[opt.dest] = value
        return out

    params = Params(**pick("mu", "sigma", "alpha"))
    order = Order(**pick("a"))
    output = pick("format", "precision-bits")
    scan = None
    if sub in _GRID:
        grid = pick("grid-n", "refine-depth", "tolerance", "box")
        if isinstance(grid.get("box"), str):
            grid["box"] = _parse_box(grid["box"])
        if "box" in grid:
            scan = ScanConfig(**grid)
        else:
            scan = violation_scan_config(params, **grid)
    return RunConfig(sub, params, order, scan, **output, **pick("n-base", "n-reserve"))


# ---------------------------------------------------------------------------
# subcommand runners: each returns (exit_code, json_payload, csv_header,
# csv_rows, text_lines), and run() renders the format asked for
# ---------------------------------------------------------------------------


def _fmt_interval(iv: Optional[Interval]) -> str:
    if iv is None:
        return "(not evaluable)"
    return f"[{iv.lo!r}, {iv.hi!r}]"


def _fmt_params(p: Params) -> str:
    return f"mu={p.mu!r} sigma={p.sigma!r} alpha={p.alpha!r}"


def _run_certify(config: RunConfig):
    report = certify_S2(config.params)
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
    lines = [
        f"parameters: {_fmt_params(config.params)}",
        *(
            f"condition {c.name}: lhs={_fmt_interval(c.lhs)} "
            f"rhs={_fmt_interval(c.rhs)} -> {c.verdict.name}"
            for c in report.conditions
        ),
        f"verdict: {report.verdict.name}",
        f"note: {report.caveat}",
    ]
    header = ("condition", "lhs_lo", "lhs_hi", "rhs_lo", "rhs_hi", "verdict")
    code = 0 if report.verdict is Verdict.CERTIFIED else 1
    return code, report, header, rows, lines


def _run_scan(config: RunConfig):
    report = scan_gap_min(config.order, config.params, config.scan)
    p, cfg = config.params, config.scan
    candidate = report.min_gap < -cfg.tolerance
    payload = {"config": cfg, "report": report, "violation_candidate": candidate}
    header = ("a", "mu", "sigma", "alpha", "min_gap", "x", "y", "evaluations")
    row = (
        report.order.a,
        p.mu,
        p.sigma,
        p.alpha,
        report.min_gap,
        report.argmin.x,
        report.argmin.y,
        report.evaluations,
    )
    b = cfg.box
    lines = [
        f"order a={report.order.a!r}, parameters: {_fmt_params(p)}",
        (
            f"scan box [{b[0]!r}, {b[1]!r}] x [{b[2]!r}, {b[3]!r}], "
            f"grid {cfg.grid_n}, refine depth {cfg.refine_depth} "
            f"({report.evaluations} evaluations)"
        ),
        f"min gap: {report.min_gap!r} at x={report.argmin.x!r} y={report.argmin.y!r}",
        (
            f"result: VIOLATION CANDIDATE (min gap < -{cfg.tolerance!r}); "
            f"run 'subadd violate' to confirm in high precision"
            if candidate
            else f"result: no violation candidate at tolerance {cfg.tolerance!r}"
        ),
    ]
    return (1 if candidate else 0), payload, header, [row], lines


def _run_violate(config: RunConfig):
    p, cfg = config.params, config.scan
    violation = find_violation(config.order, p, cfg, prec_bits=config.precision_bits)
    payload = {
        "params": p, "order": config.order, "config": cfg, "violation": violation
    }
    header = ("a", "mu", "sigma", "alpha", "x", "y", "margin")
    if violation is None:
        lines = [
            f"no violation found for a={config.order.a!r} with "
            f"{_fmt_params(p)} (scanned box "
            f"{cfg.box}, tolerance {cfg.tolerance!r})"
        ]
        return 0, payload, header, [], lines
    v = violation
    row = (v.order.a, p.mu, p.sigma, p.alpha, v.point.x, v.point.y, v.margin)
    lines = [
        f"CONFIRMED violation of {v.order.a!r}-subadditivity:",
        f"  parameters: {_fmt_params(p)}",
        f"  point: x={v.point.x!r} y={v.point.y!r}",
        (
            f"  margin: {v.margin!r} "
            f"(high-precision -gap at {config.precision_bits} bits; "
            f"positive means the inequality fails)"
        ),
    ]
    return 1, payload, header, [row], lines


def _run_table(config: RunConfig):
    rows = reproduce_table(
        grid_n=config.scan.grid_n,
        refine_depth=config.scan.refine_depth,
        prec_bits=config.precision_bits,
    )
    match = [abs(r.margin - r.expected_margin) <= _TABLE_MATCH_TOL for r in rows]
    clear = [r.scan_min_gap >= -config.scan.tolerance for r in rows]
    all_ok = all(match) and all(clear)
    payload = {
        "rows": rows,
        "margin_tolerance": _TABLE_MATCH_TOL,
        "margin_match": match,
        "order2_clear": clear,
        "all_reproduced": all_ok,
    }
    header = (
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
    )
    out_rows = [
        (r.mu, r.sigma, r.alpha, r.x_star, r.y_star, r.margin, r.expected_margin,
         m, r.scan_min_gap, c)
        for r, m, c in zip(rows, match, clear)
    ]
    lines = [
        "re-derived reference rows (margin = recomputed order-3 margin at the "
        "stored witness; scan_min_gap = order-2 scan minimum over [-8,8]^2):",
        *(
            f"  mu={r.mu!r} sigma={r.sigma!r}: margin={r.margin!r} "
            f"(stored {r.expected_margin!r}, "
            f"{'match' if m else 'MISMATCH'}), "
            f"order-2 scan min={r.scan_min_gap!r} "
            f"({'clear' if c else 'NEGATIVE'})"
            for r, m, c in zip(rows, match, clear)
        ),
        "result: all rows reproduced"
        if all_ok
        else "result: NOT REPRODUCED — see the README's 'Known discrepancies'",
    ]
    return (0 if all_ok else 1), payload, header, out_rows, lines


def _run_oracles(config: RunConfig):
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
    payload = {
        "params": p,
        "oracles": [
            {"oracle": name, "status": status, "detail": detail}
            for name, status, detail in results
        ],
        "all_passed": not failed,
    }
    lines = [
        f"parameters: {_fmt_params(p)}",
        *(
            f"oracle {name}: {status.upper()} ({detail})"
            for name, status, detail in results
        ),
        f"result: {len(results) - len(failed)}/{len(results)} passed"
        + (f", failures: {', '.join(failed)}" if failed else ""),
    ]
    return (1 if failed else 0), payload, ("oracle", "status", "detail"), results, lines


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


def _run_cone(config: RunConfig):
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
    header = ("n", "prime", "q", "value_lo", "value_hi", "image_lo", "image_hi")
    rows = [
        (n, prime, q, value.lo, value.hi, image.lo, image.hi)
        for n, prime, q, value, image in scale_rows
    ]
    ks = ", ".join(f"k={k}: <={value.hi!r}" for k, value, _ in liminf[:4])
    lines = [
        f"cone: {config.n_base} BASE + {config.n_reserve} RESERVE generators",
        "scale certificates (integer-exact, image of BASE ray n in "
        "(1 - 2^-n, 1)):",
        *(
            f"  n={n}: prime={prime} q={q} value~{_fmt_interval(value)} "
            f"image~{_fmt_interval(image)}"
            for n, prime, q, value, image in scale_rows
        ),
        f"reserve ray is fixed pointwise; approach-zero values {ks} ...",
        f"subadditivity witnesses: {pairs_valid}/{_CONE_PAIRS} random pairs valid",
        f"exact round-trips: {round_trips_exact}/{_CONE_PAIRS}",
        f"small-element image bound (< 1 + {_CONE_EPS}): "
        f"{'PASS' if upper_ok else 'FAIL'}",
        f"result: {'all checks passed' if all_ok else 'CHECKS FAILED'}",
    ]
    return (0 if all_ok else 1), payload, header, rows, lines


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
    require_instance(config, RunConfig, "config")
    code, payload, header, rows, lines = _RUNNERS[config.subcommand](config)
    if config.output_format == "json":
        return code, json.dumps(to_jsonable(payload), indent=2)
    if config.output_format == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)
        return code, buf.getvalue().rstrip("\n")
    return code, "\n".join(lines)


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
