"""Spans around the toolkit's layer boundaries, recorded from outside.

:func:`instrument` rebinds, for the duration of a ``with`` block, the
names one layer calls in another (``subadd.search.scan_block``,
``subadd.search.gap``, ``subadd.search.HighPrecision``, the ``Cone``
methods, ...) to wrappers that record a span per call.  No source file of
the toolkit changes.  Scalar ``gap`` probes are too fine for a span each:
they are counted and their time summed.

A span is ``(id, parent, trace, name, start, end)``; ``trace`` is the id of
the root span (one benchmark operation) it belongs to.  Spans stay in
memory until :meth:`Tracer.write` writes them out.  Self time is a span's
duration minus the time its child spans cover.
"""

from __future__ import annotations

import contextlib
import functools
import json
import time
import tracemalloc
from collections import defaultdict
from fractions import Fraction
from typing import Callable, Dict, List, Optional

import subadd.certificate
import subadd.cli
import subadd.cone
import subadd.search
import subadd.serialize
import subadd.statement_oracles


class Tracer:
    def __init__(self, phase: str) -> None:
        self.phase = phase
        self.spans: List[tuple] = []
        self._stack: List[tuple] = []  # (id, trace, name, start)
        self.counts: Dict[str, float] = defaultdict(int)
        self.peaks: Dict[str, float] = defaultdict(float)

    def begin(self, name: str) -> None:
        sid = len(self.spans) + len(self._stack)
        trace = self._stack[0][0] if self._stack else sid
        self._stack.append((sid, trace, name, time.perf_counter()))

    def end(self) -> None:
        sid, trace, name, start = self._stack.pop()
        parent = self._stack[-1][0] if self._stack else None
        self.spans.append((sid, parent, trace, name, start, time.perf_counter()))

    @contextlib.contextmanager
    def span(self, name: str):
        self.begin(name)
        try:
            yield
        finally:
            self.end()

    def aggregate(self) -> Dict[str, Dict[str, float]]:
        """Per span name: ``calls``, ``total_s`` and ``self_s``."""
        child_s: Dict[int, float] = defaultdict(float)
        for sid, parent, _, _, start, end in self.spans:
            if parent is not None:
                child_s[parent] += end - start
        out: Dict[str, Dict[str, float]] = {}
        for sid, _, _, name, start, end in self.spans:
            agg = out.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            agg["calls"] += 1
            agg["total_s"] += end - start
            agg["self_s"] += end - start - child_s[sid]
        return out

    def children_named(self, name: str, child: str) -> int:
        """How many ``name`` spans have at least one direct ``child`` span."""
        ids = {s[0] for s in self.spans if s[3] == name}
        return len({s[1] for s in self.spans if s[3] == child and s[1] in ids})

    def write(self, fh) -> None:
        for sid, parent, trace, name, start, end in self.spans:
            fh.write(json.dumps({
                "phase": self.phase, "id": sid, "parent": parent, "trace": trace,
                "name": name, "start": start, "end": end,
            }) + "\n")


# ---------------------------------------------------------------------------
# wrappers
# ---------------------------------------------------------------------------


def _spanned(tr: Tracer, name: str, fn: Callable, after: Optional[Callable] = None):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        tr.begin(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            tr.end()
        if after is not None:
            after(result, args)
        return result

    return wrapper


def _counted(tr: Tracer, name: str, fn: Callable):
    counts = tr.counts

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        t0 = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            counts[name + ".s"] += time.perf_counter() - t0
            counts[name + ".calls"] += 1

    return wrapper


def _scan_block(tr: Tracer, fn: Callable):
    """Kernel span, plus evaluation count and traced peak allocation.
    tracemalloc runs only inside the call, so it slows nothing else."""

    @functools.wraps(fn)
    def wrapper(a, mu, sigma, alpha, x0, dx, y0, dy, i0, i1, j0, j1):
        tracemalloc.start()
        tr.begin("scan_block")
        try:
            return fn(a, mu, sigma, alpha, x0, dx, y0, dy, i0, i1, j0, j1)
        finally:
            tr.end()
            peak = tracemalloc.get_traced_memory()[1]
            tracemalloc.stop()
            tr.counts["scan_block.evals"] += (i1 - i0) * (j1 - j0)
            tr.peaks["scan_block.peak_alloc_b"] = max(tr.peaks["scan_block.peak_alloc_b"], peak)

    return wrapper


def _high_precision(tr: Tracer, cls):
    class TracedHighPrecision(cls):
        def gap(self, *args, **kwargs):
            with tr.span("hp_gap"):
                return super().gap(*args, **kwargs)

    return TracedHighPrecision


def _oracle_label(fn_name: str, args) -> str:
    """The CLI battery's label for one oracle call."""
    if fn_name == "check_rolle_identity":
        return f"rolle-identity-{args[0]}"
    if fn_name == "semigroup_member":
        return "semigroup-membership-" + ("positive" if args[0] == Fraction(7, 6) else "negative")
    if fn_name == "indicator_example_check":
        return f"indicator-order-{args[0]}"
    return {
        "check_monotone_f": "monotone-increasing-f",
        "check_symmetrization": "symmetrization-reduction",
        "check_tau_concavity": "tau-concavity",
    }[fn_name]


ORACLE_FUNCTIONS = (
    "check_rolle_identity",
    "check_monotone_f",
    "check_symmetrization",
    "check_tau_concavity",
    "semigroup_member",
    "indicator_example_check",
)


def _oracle(tr: Tracer, fn_name: str, fn: Callable):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        with tr.span("oracles." + _oracle_label(fn_name, args)):
            return fn(*args, **kwargs)

    return wrapper


def _count_verdict(tr: Tracer):
    def after(report, args):
        tr.counts["certify_S2." + report.verdict.name.lower()] += 1

    return after


def _count_confirmed(tr: Tracer):
    def after(violation, args):
        tr.counts["find_violation.confirmed"] += violation is not None

    return after


def _count_valid(tr: Tracer):
    def after(witness, args):
        tr.counts["cone.pairs"] += 1
        tr.counts["cone.pairs_valid"] += witness.is_valid()

    return after


def _count_errors(tr: Tracer, name: str, fn: Callable):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        try:
            return fn(*args, **kwargs)
        except Exception:
            tr.counts[name + ".errors"] += 1
            raise

    return wrapper


CONE_METHODS = (
    "check_subadditive_pair",
    "apply_f",
    "apply_f_inv",
    "element_value_interval",
    "upper_bound_check",
    "limsup_sequence",
)


@contextlib.contextmanager
def instrument(tr: Tracer):
    """Rebind the layer-crossing names to traced wrappers; restore on exit."""
    search, cli, cone = subadd.search, subadd.cli, subadd.cone
    oracles, certificate, serialize = (
        subadd.statement_oracles, subadd.certificate, subadd.serialize,
    )
    certify = _count_errors(
        tr, "certify_S2",
        _spanned(tr, "certify_S2", certificate.certify_S2, _count_verdict(tr)),
    )
    find = _spanned(tr, "find_violation", search.find_violation, _count_confirmed(tr))
    scan = _spanned(tr, "scan_gap_min", search.scan_gap_min)
    make = _spanned(tr, "make_generators", cone.make_generators)
    patches = [
        (search, "scan_block", _scan_block(tr, search.scan_block)),
        (search, "gap", _counted(tr, "gap", search.gap)),
        (search, "HighPrecision", _high_precision(tr, search.HighPrecision)),
        (search, "scan_gap_min", scan),
        (cli, "scan_gap_min", scan),
        (search, "find_violation", find),
        (cli, "find_violation", find),
        (certificate, "certify_S2", certify),
        (cli, "certify_S2", certify),
        (cone, "make_generators", make),
        (cli, "make_generators", make),
        (cone, "q_of", _counted(tr, "q_of", cone.q_of)),
        (cli, "to_jsonable", _spanned(tr, "to_jsonable", cli.to_jsonable)),
        (serialize, "from_jsonable", _spanned(tr, "from_jsonable", serialize.from_jsonable)),
    ]
    for name in CONE_METHODS:
        after = _count_valid(tr) if name == "check_subadditive_pair" else None
        patches.append((cone.Cone, name, _spanned(tr, name, getattr(cone.Cone, name), after)))
    for name in ORACLE_FUNCTIONS:
        patches.append((oracles, name, _oracle(tr, name, getattr(oracles, name))))

    saved = [(owner, name, owner.__dict__[name]) for owner, name, _ in patches]
    try:
        for owner, name, wrapper in patches:
            setattr(owner, name, wrapper)
        yield tr
    finally:
        for owner, name, original in reversed(saved):
            setattr(owner, name, original)


# ---------------------------------------------------------------------------
# per-layer metrics
# ---------------------------------------------------------------------------

ORACLE_LABELS = (
    "rolle-identity-f", "rolle-identity-g", "rolle-identity-h",
    "monotone-increasing-f", "symmetrization-reduction", "tau-concavity",
    "semigroup-membership-positive", "semigroup-membership-negative",
    "indicator-order-1", "indicator-order-2", "indicator-order-3",
)


def _ms(seconds: float) -> float:
    return seconds * 1e3


def layer_groups(tr: Tracer) -> Dict[str, Dict[str, float]]:
    """Metric groups, each keyed by the call it measures; a group whose
    call never happened in ``tr`` is absent."""
    agg = tr.aggregate()
    c = tr.counts
    groups: Dict[str, Dict[str, float]] = {}

    def have(name):
        return name in agg

    if have("scan_block"):
        sb = agg["scan_block"]
        evals = c["scan_block.evals"]
        groups["scan_block"] = {
            "scan_block.calls": sb["calls"],
            "scan_block.evals": evals,
            "scan_block.self_ms": _ms(sb["self_s"]),
            "scan_block.evals_per_s": evals / sb["self_s"],
            "scan_block.bytes_computed": 8.0 * evals,
            "scan_block.peak_alloc_mb": tr.peaks["scan_block.peak_alloc_b"] / 2**20,
        }
    if have("scan_gap_min"):
        groups["scan_gap_min"] = {"scan_gap_min.self_ms": _ms(agg["scan_gap_min"]["self_s"])}
    if have("find_violation"):
        candidates = tr.children_named("find_violation", "hp_gap")
        confirmed = c["find_violation.confirmed"]
        groups["find_violation"] = {
            "find_violation.self_ms": _ms(agg["find_violation"]["self_s"]),
            "find_violation.candidates": candidates,
            "find_violation.confirmed": confirmed,
            "find_violation.confirm_ratio": confirmed / candidates if candidates else 0.0,
        }
    if c["gap.calls"]:
        groups["gap"] = {"gap.calls": c["gap.calls"], "gap.ms": _ms(c["gap.s"])}
    if have("hp_gap"):
        groups["hp_gap"] = {
            "hp_gap.calls": agg["hp_gap"]["calls"],
            "hp_gap.ms": _ms(agg["hp_gap"]["total_s"]),
        }
    if have("certify_S2"):
        groups["certify_S2"] = {
            "certify_S2.calls": agg["certify_S2"]["calls"],
            "certify_S2.ms": _ms(agg["certify_S2"]["total_s"]),
            **{
                f"certify_S2.{v}": c[f"certify_S2.{v}"]
                for v in ("certified", "not_certified", "unknown", "errors")
            },
        }
    if have("make_generators"):
        groups["make_generators"] = {
            "make_generators.ms": _ms(agg["make_generators"]["total_s"]),
            "q_of.calls": c["q_of.calls"],
        }
    if have("check_subadditive_pair"):
        groups["check_subadditive_pair"] = {
            "check_subadditive_pair.calls": agg["check_subadditive_pair"]["calls"],
            "check_subadditive_pair.ms": _ms(agg["check_subadditive_pair"]["total_s"]),
            "cone.pairs_valid_ratio": c["cone.pairs_valid"] / c["cone.pairs"],
        }
    if have("apply_f") and have("apply_f_inv"):
        groups["apply_f"] = {
            "apply_f.calls": agg["apply_f"]["calls"],
            "apply_f.ms": _ms(agg["apply_f"]["total_s"]),
            "apply_f_inv.ms": _ms(agg["apply_f_inv"]["total_s"]),
        }
    if have("element_value_interval"):
        groups["element_value_interval"] = {
            "element_value_interval.calls": agg["element_value_interval"]["calls"],
            "element_value_interval.ms": _ms(agg["element_value_interval"]["total_s"]),
        }
    for name in ("upper_bound_check", "limsup_sequence"):
        if have(name):
            groups[name] = {f"{name}.ms": _ms(agg[name]["total_s"])}
    if all(have("oracles." + label) for label in ORACLE_LABELS):
        groups["oracles"] = {
            f"oracles.{label}.ms": _ms(agg["oracles." + label]["total_s"])
            for label in ORACLE_LABELS
        }
    for name in ("to_jsonable", "from_jsonable"):
        if have(name):
            groups[name] = {f"{name}.ms": _ms(agg[name]["total_s"])}
    return groups
