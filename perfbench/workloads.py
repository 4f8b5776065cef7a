"""The four benchmark workloads: inputs from a seed, one operation, checks.

Every workload is a closed loop with one client: the measuring process
issues operation ``k + 1`` only after operation ``k`` has returned.  An
operation returns its latency (seconds) and an :class:`Outcome`; the
latency covers the calls into the toolkit, the correctness check after
them does not count towards it.

Each workload draws a fixed pool of ``pool_size`` inputs from the seed,
and operation ``k`` takes input ``k % pool_size``, so the inputs, and the
outcomes counted for them, depend on the seed alone and not on how many
operations a run's time allows.

Layer functions are always reached through their module attribute
(``search.find_violation``, not a local alias), so the traced run can
rebind those attributes and see every call.
"""

from __future__ import annotations

import importlib.util
import json
import os
import random
import subprocess
import sys
import time
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Tuple

from subadd import analytic_core, certificate, cone, search, serialize
from subadd.analytic_core import Params
from subadd.errors import RangeError, ToolkitError

from paths import ROOT, child_env


#: Parameter box of the sweep: spanned by the flagship triple and the five
#: reference-table rows.
MU_RANGE = (1.0, 5.0)
SIGMA_RANGE = (0.03, 0.15)
ALPHA_RANGE = (0.005, 0.15)


def load_frozen():
    """The test suite's frozen reference values, read in place."""
    path = os.path.join(ROOT, "tests", "_frozen.py")
    spec = importlib.util.spec_from_file_location("_perfbench_frozen", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@dataclass
class Outcome:
    """``ok``; ``known_defect`` (a documented failure mode of the program:
    counts as failed, not as a wrong answer); ``wrong`` (a check did not
    hold); ``error`` (an unexpected exception)."""

    status: str = "ok"
    detail: str = ""

    @property
    def failed(self) -> bool:
        return self.status != "ok"

    @property
    def incorrect(self) -> bool:
        return self.status in ("wrong", "error")


def anchors(frozen) -> List[Params]:
    """The flagship triple followed by the five reference-table rows."""
    out = [Params(frozen.CERT_MU, frozen.CERT_SIGMA, frozen.CERT_ALPHA)]
    out += [Params(mu, sigma, frozen.TABLE_ALPHA) for mu, sigma, *_ in frozen.TABLE_ROWS]
    return out


def draw_params(rng: random.Random) -> Params:
    return Params(
        mu=rng.uniform(*MU_RANGE),
        sigma=rng.uniform(*SIGMA_RANGE),
        alpha=rng.uniform(*ALPHA_RANGE),
    )


def triple_pool(seed: int, frozen, size: int) -> List[Params]:
    """The anchors, then uniform seeded triples, ``size`` in all."""
    rng = random.Random(seed)
    out = anchors(frozen)
    while len(out) < size:
        out.append(draw_params(rng))
    return out[:size]


def _error(exc: BaseException) -> Outcome:
    return Outcome("error", f"{type(exc).__name__}: {exc}")


# ---------------------------------------------------------------------------
# cli-cold
# ---------------------------------------------------------------------------

#: (arguments, documented exit code).  ``table`` and ``scan`` exit 1 and
#: ``violate`` exits 1 by design: the README's known discrepancies.
CLI_COMMANDS: Tuple[Tuple[Tuple[str, ...], int], ...] = (
    (("certify", "--format", "json"), 0),
    (("scan",), 1),
    (("violate", "--format", "json"), 1),
    (("table",), 1),
    (("oracles",), 0),
    (("cone",), 0),
)


def check_cli_output(args: Tuple[str, ...], code: int, expected: int, stdout: str) -> Outcome:
    if code != expected:
        return Outcome("wrong", f"{' '.join(args)}: exit {code}, expected {expected}")
    if "json" in args:
        try:
            payload = json.loads(stdout)
            decoded = serialize.from_jsonable(payload)
        except (ValueError, ToolkitError) as exc:
            return Outcome("wrong", f"{args[0]}: JSON does not decode: {exc!r}")
        if serialize.to_jsonable(decoded) != payload:
            return Outcome("wrong", f"{args[0]}: JSON does not round-trip")
        if args[0] == "certify" and not isinstance(decoded, certificate.CertificateReport):
            return Outcome("wrong", "certify: JSON is not a CertificateReport")
        if args[0] == "violate" and not isinstance(decoded.get("violation"), search.Violation):
            return Outcome("wrong", "violate: JSON carries no Violation")
    return Outcome()


class CliCold:
    """Fresh interpreters running ``python -m subadd.cli <cmd>``."""

    name = "cli-cold"
    tail_pct = 75.0
    sample_ops = 1
    rss_who = "children"
    trace_ops = len(CLI_COMMANDS)

    def __init__(self, seed: int, frozen, smoke: bool = False) -> None:
        self.commands = CLI_COMMANDS
        self.round_size = self.pool_size = len(self.commands)
        self.env = child_env()
        self.cold_ms: Dict[str, List[float]] = {}

    def op(self, k: int) -> Tuple[float, Outcome]:
        args, expected = self.commands[k % len(self.commands)]
        t0 = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, "-m", "subadd.cli", *args],
            cwd=ROOT,
            env=self.env,
            capture_output=True,
            text=True,
            timeout=120,
        )
        dt = time.perf_counter() - t0
        self.cold_ms.setdefault(args[0], []).append(dt * 1e3)
        return dt, check_cli_output(args, proc.returncode, expected, proc.stdout)

    def final_checks(self) -> List[Outcome]:
        return []


# ---------------------------------------------------------------------------
# atlas-sweep
# ---------------------------------------------------------------------------


#: Triples in a run's pool: one pass takes 8 to 11 s on a 2-core Xeon VM.
#: About 1% of them fall in the ``certify_S2`` overflow band (see NOTES.md).
ATLAS_POOL = 320
ATLAS_SMOKE_POOL = 8


class AtlasSweep:
    """``certify_S2``, ``find_violation(2, p)`` and a 256-bit
    ``verify_point`` on any hit, for a seeded pool of triples; one
    triple is one operation."""

    name = "atlas-sweep"
    tail_pct = 90.0
    rss_who = "self"
    #: Triples take ~15 ms without a violation candidate and ~35 ms with
    #: one, in near-even shares, so a per-triple median would jump between
    #: the two modes.  A latency sample is the mean over a tile of four
    #: consecutive triples instead.
    sample_ops = 4
    round_size = 4
    trace_ops = 100

    def __init__(self, seed: int, frozen, smoke: bool = False) -> None:
        self.pool_size = ATLAS_SMOKE_POOL if smoke else ATLAS_POOL
        self.triples = triple_pool(seed, frozen, self.pool_size)
        self.margin_bracket = frozen.VIOLATION_MARGIN_BRACKETS[2]
        #: (mu - 1)/sigma of every triple whose certificate raised
        self.defect_z: List[float] = []

    def op(self, k: int) -> Tuple[float, Outcome]:
        i = k % self.pool_size
        p = self.triples[i]
        outcome = Outcome()
        verdict = None
        t0 = time.perf_counter()
        try:
            verdict = certificate.certify_S2(p).verdict
        except RangeError as exc:
            # Known defect: phi((mu-1)/sigma) is subnormal near z = 27 and
            # the B_alpha bound overflows.  The triple's search still runs.
            outcome = Outcome("known_defect", f"certify_S2: {exc}")
        try:
            violation = search.find_violation(2, p)
            margin = None
            if violation is not None:
                margin = search.verify_point(
                    2, p, violation.point.x, violation.point.y, prec_bits=256
                )
        except Exception as exc:
            return time.perf_counter() - t0, _error(exc)
        dt = time.perf_counter() - t0
        if outcome.status == "known_defect":
            self.defect_z.append((p.mu - 1.0) / p.sigma)
        if margin is not None and not margin > 0:
            return dt, Outcome("wrong", f"{p}: violation margin {margin!r} at 256 bits")
        if i == 0:
            lo, hi = self.margin_bracket
            if verdict is not certificate.Verdict.CERTIFIED:
                return dt, Outcome("wrong", f"flagship verdict {verdict}")
            if margin is None or not lo <= margin <= hi:
                return dt, Outcome("wrong", f"flagship margin {margin!r} outside {lo, hi}")
        return dt, outcome

    def final_checks(self) -> List[Outcome]:
        return []


# ---------------------------------------------------------------------------
# fullbox-scan
# ---------------------------------------------------------------------------

FULL_BOX = (-8.0, 8.0, -8.0, 8.0)
SCAN_DEPTH = 3  # the `subadd scan` defaults
SCAN_GRIDS = (801, 1601, 2401)
SMOKE_GRIDS = (41, 81, 121)
BRACKET_GRID = 801
#: The six anchors and two seeded triples; one pass over the pool (every
#: triple at every grid size) takes about 12 s on a 2-core Xeon VM.
SCAN_TRIPLES = 8


class FullboxScan:
    """Order-2 ``scan_gap_min`` over [-8, 8]^2 at refine depth 3; every
    triple of the pool is scanned at each grid size in turn."""

    name = "fullbox-scan"
    tail_pct = 75.0
    sample_ops = 1
    rss_who = "self"
    trace_ops = 2 * len(SCAN_GRIDS)

    def __init__(self, seed: int, frozen, smoke: bool = False) -> None:
        self.grids = SMOKE_GRIDS if smoke else SCAN_GRIDS
        self.round_size = len(self.grids)
        self.pool_size = SCAN_TRIPLES * len(self.grids)
        self.triples = triple_pool(seed, frozen, SCAN_TRIPLES)
        brackets = (frozen.SCAN2_CERT_MIN_BRACKET,) + tuple(frozen.SCAN2_TABLE_MIN_BRACKETS)
        self.brackets = dict(enumerate(brackets))
        self.configs = {
            n: search.ScanConfig(box=FULL_BOX, grid_n=n, refine_depth=SCAN_DEPTH)
            for n in self.grids
        }
        self.bitwise = "not run"

    def op(self, k: int) -> Tuple[float, Outcome]:
        t_index, g_index = divmod(k % self.pool_size, len(self.grids))
        p = self.triples[t_index]
        n = self.grids[g_index]
        t0 = time.perf_counter()
        try:
            report = search.scan_gap_min(2.0, p, self.configs[n])
        except Exception as exc:
            return time.perf_counter() - t0, _error(exc)
        dt = time.perf_counter() - t0
        x_lo, x_hi, y_lo, y_hi = FULL_BOX
        if report.evaluations != (SCAN_DEPTH + 1) * n * n:
            return dt, Outcome("wrong", f"{p} n={n}: {report.evaluations} evaluations")
        x, y = report.argmin.x, report.argmin.y
        if not (x_lo <= x <= x_hi and y_lo <= y <= y_hi):
            return dt, Outcome("wrong", f"{p} n={n}: argmin ({x}, {y}) outside the box")
        if report.min_gap != analytic_core.gap(2.0, "f", x, y, p):
            return dt, Outcome("wrong", f"{p} n={n}: min_gap is not gap(argmin)")
        if n == BRACKET_GRID and t_index in self.brackets:
            lo, hi = self.brackets[t_index]
            if not lo <= report.min_gap <= hi:
                return dt, Outcome(
                    "wrong", f"anchor {t_index}: min_gap {report.min_gap!r} outside {lo, hi}"
                )
        return dt, Outcome()

    def final_checks(self) -> List[Outcome]:
        """Compiled-vs-fallback bitwise agreement on the flagship's 801^2
        full-box grid, when the compiled kernel is importable."""
        try:
            from subadd import _gridscan  # type: ignore[attr-defined]
        except ImportError:
            self.bitwise = "skipped: subadd._gridscan is not importable"
            return []
        from subadd import _gridscan_py

        p = self.triples[0]
        n = BRACKET_GRID
        x_lo, x_hi, y_lo, y_hi = FULL_BOX
        args = (2.0, p.mu, p.sigma, p.alpha, x_lo, (x_hi - x_lo) / (n - 1),
                y_lo, (y_hi - y_lo) / (n - 1), 0, n, 0, n)
        compiled = _gridscan.scan_block(*args)
        fallback = _gridscan_py.scan_block(*args)
        if tuple(compiled) != tuple(fallback):
            self.bitwise = f"FAILED: compiled {compiled!r} != fallback {fallback!r}"
            return [Outcome("wrong", self.bitwise)]
        self.bitwise = "pass: min_gap and argmin bitwise-identical"
        return [Outcome()]


# ---------------------------------------------------------------------------
# cone-exact
# ---------------------------------------------------------------------------

CONE_BASE = 60
CONE_RESERVE = 5
CONE_POOL = 4096
CONE_EPS = Fraction(1, 2)
CONE_UPPER_SAMPLES = 200


def random_element(c, rng: random.Random):
    """1 to 3 generators, coefficients p/q with 1 <= p, q <= 50."""
    ids = c.generator_ids()
    chosen = rng.sample(ids, rng.randint(1, 3))
    return cone.ConeElement(
        tuple((gid, Fraction(rng.randint(1, 50), rng.randint(1, 50))) for gid in chosen)
    )


def limsup_row_ok(c, n: int, image) -> bool:
    """``q_n p_n`` in ``(1 - 2^-n, 1)``: exact integer certificate
    ``(2^n - 1)^2 prime < q^2 < 4^n prime`` with ``q`` the smallest such
    integer, and the enclosure meets that interval."""
    prime = c.generator(cone.GeneratorId(cone.GeneratorKind.BASE, n)).prime
    q = c.q_of(n)
    low = (2**n - 1) ** 2 * prime
    certified = low < q * q < 4**n * prime and (q - 1) ** 2 <= low
    meets = Fraction(image.lo) < 1 and Fraction(image.hi) > 1 - Fraction(1, 2**n)
    return certified and meets


class ConeExact:
    """``check_subadditive_pair`` plus the exact ``apply_f`` round trip on
    seeded random elements of ``make_generators(60, 5)``."""

    name = "cone-exact"
    #: A 0.1 ms operation's p99 and beyond are set by a second or two of
    #: slow host or a collector pause within the run, not by the cone
    #: arithmetic (NOTES.md, "Fixed tail percentiles").
    tail_pct = 90.0
    sample_ops = 1
    rss_who = "self"
    round_size = 1
    pool_size = CONE_POOL
    trace_ops = 5000

    def __init__(self, seed: int, frozen, smoke: bool = False) -> None:
        self.q_samples = frozen.CONE_Q_SAMPLES
        self.cone = cone.make_generators(CONE_BASE, CONE_RESERVE)
        rng = random.Random(seed)
        self.pairs = [
            (random_element(self.cone, rng), random_element(self.cone, rng))
            for _ in range(CONE_POOL)
        ]

    def op(self, k: int) -> Tuple[float, Outcome]:
        x, y = self.pairs[k % self.pool_size]
        c = self.cone
        t0 = time.perf_counter()
        try:
            witness = c.check_subadditive_pair(x, y)
            back = c.apply_f_inv(c.apply_f(x))
        except Exception as exc:
            return time.perf_counter() - t0, _error(exc)
        dt = time.perf_counter() - t0
        if not witness.is_valid():
            return dt, Outcome("wrong", f"invalid witness for {x}, {y}")
        if back != x:
            return dt, Outcome("wrong", f"round trip of {x} gave {back}")
        return dt, Outcome()

    def final_checks(self) -> List[Outcome]:
        c = self.cone
        out = []
        ok = c.upper_bound_check(CONE_EPS, CONE_UPPER_SAMPLES)
        out.append(Outcome() if ok else Outcome("wrong", "upper_bound_check(1/2) failed"))
        rows = c.limsup_sequence(CONE_BASE)
        bad = [n for n, _, image in rows if not limsup_row_ok(c, n, image)]
        out.append(Outcome("wrong", f"limsup rows {bad}") if bad else Outcome())
        base = cone.GeneratorKind.BASE
        wrong_q = [
            (n, prime, q)
            for n, prime, q in self.q_samples
            if c.q_of(n) != q or c.generator(cone.GeneratorId(base, n)).prime != prime
        ]
        out.append(Outcome("wrong", f"q_n differs at {wrong_q}") if wrong_q else Outcome())
        return out


WORKLOADS = {w.name: w for w in (CliCold, AtlasSweep, FullboxScan, ConeExact)}


def tail_rank(n: int, pct: float) -> int:
    """1-based nearest-rank index of the ``pct`` percentile of ``n`` values
    (integer arithmetic, so 99.9 of 10000 is rank 9990 exactly)."""
    return max(1, -(-round(pct * 10) * n // 1000))


def tail_min_samples(pct: float) -> int:
    """Fewest samples that leave at least ten beyond the ``pct`` percentile."""
    n = 10
    while n - tail_rank(n, pct) < 10:
        n += 1
    return n


def percentile(sorted_values: List[float], pct: float) -> float:
    """Nearest-rank percentile of an ascending list."""
    return sorted_values[tail_rank(len(sorted_values), pct) - 1]
