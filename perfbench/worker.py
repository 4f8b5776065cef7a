"""Measuring process of the benchmark: one workload, one mode.

Started by ``run.py`` as a fresh interpreter; prints one JSON object as
its last stdout line.  Modes:

- ``setup``: import the toolkit, build the workload's inputs from the
  seed, run one untimed warm-up operation, report the time that took;
- ``run``: the same set-up, then a closed loop of operations for
  ``--seconds`` (and at least one pass over the input pool and enough
  operations for the workload's tail percentile), ended on a round
  boundary of the input cycle, then the workload's untimed final checks;
- ``trace``: the same set-up, then a fixed number of operations twice,
  untraced and traced, then a traced warm pass over every CLI subcommand
  that reaches the layers the workload does not.
"""

import time

_T0 = time.perf_counter()  # set-up is timed from here, before the toolkit loads

import argparse  # noqa: E402
import array  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402

import numpy  # noqa: E402

import workloads as W  # noqa: E402

#: A run never measures past this, whatever the minimum op count asks.
MAX_MEASURE_S = 120.0
#: Host-speed calibration (NOTES.md, "Host speed"): a fixed pure-Python
#: loop, timed every CALIB_EVERY_S between operations of the timed phase.
CALIB_LOOP = 130_000
CALIB_EVERY_S = 0.5
#: Untraced repetitions of each warm CLI run in the traced mode.
WARM_REPS = 3
OUT_DIR = os.path.join(W.ROOT, ".perfbench_out")


class Tally:
    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.incorrect = 0
        self.by_status = {}
        self.details = []

    def add(self, outcome: W.Outcome) -> None:
        self.attempted += 1
        if outcome.failed:
            self.failed += 1
            self.by_status[outcome.status] = self.by_status.get(outcome.status, 0) + 1
            if len(self.details) < 10:
                self.details.append(f"{outcome.status}: {outcome.detail}")
        self.incorrect += outcome.incorrect

    def as_dict(self) -> dict:
        return {
            "attempted": self.attempted,
            "failed": self.failed,
            "incorrect": self.incorrect,
            "failures_by_status": self.by_status,
            "failure_details": self.details,
        }


def calibration_ms() -> float:
    """One timing of the calibration loop, in ms: about 10 ms on a 2-core
    Xeon VM when its shared host is not loaded."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(CALIB_LOOP):
        acc += i * i % 7
    return (time.perf_counter() - t0) * 1e3


def peak_rss_mb(who: str) -> float:
    which = resource.RUSAGE_CHILDREN if who == "children" else resource.RUSAGE_SELF
    return resource.getrusage(which).ru_maxrss / 1024.0  # Linux reports KiB


def measure(wl, seconds: float, min_samples: int) -> dict:
    """Closed loop until ``seconds`` have passed, ``min_samples`` latency
    samples exist and the input pool has been covered once, ended on a
    round boundary.  A latency sample is the mean latency of
    ``wl.sample_ops`` consecutive operations.  The calibration loop runs
    between operations; its time is left out of the timed phase.

    Each pool input counts once in the tally, with its first outcome; a
    later operation on the same input must repeat that outcome's status,
    or it counts as a wrong output of its own."""
    tally = Tally()
    first = []  # status of the first outcome of each pool input
    samples = array.array("d")  # 8 bytes a sample: memory barely grows with speed
    calib = array.array("d")
    t0 = next_calib = time.perf_counter()
    paused = 0.0
    k = 0
    pending = 0.0
    while True:
        dt, outcome = wl.op(k)
        i = k % wl.pool_size
        k += 1
        pending += dt
        if k % wl.sample_ops == 0:
            samples.append(pending / wl.sample_ops)
            pending = 0.0
        if i == len(first):
            first.append(outcome.status)
            tally.add(outcome)
        elif outcome.status != first[i]:
            tally.add(W.Outcome(
                "wrong", f"input {i} gave {outcome.status} on a repeat, {first[i]} at first"
            ))
        now = time.perf_counter()
        if now >= next_calib:
            calib.append(calibration_ms())
            next_calib = time.perf_counter()
            paused += next_calib - now
            next_calib += CALIB_EVERY_S
        elapsed = time.perf_counter() - t0 - paused
        if k % wl.round_size == 0 and (
            (elapsed >= seconds and len(samples) >= min_samples and k >= wl.pool_size)
            or elapsed >= MAX_MEASURE_S
        ):
            break
    wall = time.perf_counter() - t0 - paused
    for outcome in wl.final_checks():
        tally.add(outcome)
    ordered = numpy.sort(numpy.frombuffer(samples))  # no per-sample float objects
    return {
        "ops": k,
        "samples": len(samples),
        "wall_s": wall,
        "op_p50_ms": float(numpy.median(ordered)) * 1e3,
        "op_tail_ms": float(W.percentile(ordered, wl.tail_pct)) * 1e3,
        "tail_pct": wl.tail_pct,
        "tail_beyond": len(ordered) - W.tail_rank(len(ordered), wl.tail_pct),
        "ops_per_s": k / wall,
        "peak_rss_mb": peak_rss_mb(wl.rss_who),
        "calib_ms": statistics.median(calib),
        "calib_samples": len(calib),
        **tally.as_dict(),
    }


def warm_cli(tp, tally: Tally) -> dict:
    """Warm in-process ``subadd.cli.run`` per subcommand: the median of
    untraced repetitions, then one traced run for the layer spans."""
    from subadd import cli, serialize
    import tracing

    warm_ms = {}
    for args, expected in W.CLI_COMMANDS:
        config = cli.build_config(cli.build_parser().parse_args(list(args)))
        times = []
        for _ in range(WARM_REPS):
            t0 = time.perf_counter()
            cli.run(config)
            times.append((time.perf_counter() - t0) * 1e3)
        warm_ms[args[0]] = statistics.median(times)
        with tracing.instrument(tp), tp.span("cli.run." + args[0]):
            code, output = cli.run(config)
            tally.add(W.check_cli_output(args, code, expected, output))
            if "json" in args:
                serialize.from_jsonable(json.loads(output))
    return warm_ms


def cold_cli(tp, tally: Tally) -> dict:
    """One cold call per subcommand, each under its own span."""
    calls = W.CliCold(0, None)
    for k, (args, _) in enumerate(calls.commands):
        with tp.span("cli.cold." + args[0]):
            tally.add(calls.op(k)[1])
    return {sub: ms[0] for sub, ms in calls.cold_ms.items()}


def trace(wl, seed: int, smoke: bool) -> dict:
    """The traced run: fixed operations untraced then traced, then the
    probe; each metric group comes from the workload when it made that
    call, otherwise from the probe."""
    import tracing

    n_ops = max(wl.round_size, wl.trace_ops // (10 if smoke else 1))
    tally = Tally()

    t0 = time.perf_counter()
    for k in range(n_ops):
        tally.add(wl.op(k)[1])
    untraced_s = time.perf_counter() - t0

    tw = tracing.Tracer("workload")
    with tracing.instrument(tw):
        t0 = time.perf_counter()
        for k in range(n_ops):
            with tw.span("op." + wl.name):
                tally.add(wl.op(k)[1])
        traced_s = time.perf_counter() - t0
        for outcome in wl.final_checks():
            tally.add(outcome)

    tp = tracing.Tracer("probe")
    warm_ms = warm_cli(tp, tally)
    if isinstance(wl, W.CliCold):
        cold_ms = {sub: statistics.median(v) for sub, v in wl.cold_ms.items()}
    else:
        cold_ms = cold_cli(tp, tally)

    from_workload = tracing.layer_groups(tw)
    from_probe = tracing.layer_groups(tp)
    metrics, source = {}, {}
    for group in sorted(set(from_workload) | set(from_probe)):
        source[group] = "workload" if group in from_workload else "probe"
        metrics.update(from_workload.get(group) or from_probe[group])
    metrics["trace.overhead_pct"] = (traced_s / untraced_s - 1.0) * 100.0

    os.makedirs(OUT_DIR, exist_ok=True)
    spans_path = os.path.join(OUT_DIR, f"spans-{wl.name}-seed{seed}.jsonl")
    with open(spans_path, "w", encoding="utf-8") as fh:
        tw.write(fh)
        tp.write(fh)
    return {
        "ops": n_ops,
        "untraced_s": untraced_s,
        "traced_s": traced_s,
        "metrics": metrics,
        "metric_source": source,
        "cli_warm_ms": warm_ms,
        "cli_cold_ms": cold_ms,
        "spans_file": os.path.relpath(spans_path, W.ROOT),
        **tally.as_dict(),
    }


def versions() -> dict:
    import platform

    import mpmath

    out = {"python": platform.python_version(), "numpy": numpy.__version__,
           "mpmath": mpmath.__version__}
    # sympy and the backend switch are slated for removal (ROADMAP items 2
    # and 3); the benchmark must keep running without them.
    try:
        import sympy
        out["sympy"] = sympy.__version__
    except ImportError:
        out["sympy"] = None
    try:
        from subadd._backend import BACKEND_NAME
        out["backend"] = BACKEND_NAME
    except ImportError:
        out["backend"] = None
    return out


def workload_notes(wl) -> dict:
    notes = {}
    if isinstance(wl, W.AtlasSweep):
        notes["certify_S2_range_errors_at_z"] = sorted({round(z, 3) for z in wl.defect_z})
    if isinstance(wl, W.FullboxScan):
        notes["bitwise_check"] = wl.bitwise
    return notes


def main() -> int:
    ap = argparse.ArgumentParser(description="benchmark measuring process")
    ap.add_argument("--workload", required=True, choices=sorted(W.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--mode", choices=("setup", "run", "trace"), required=True)
    ap.add_argument("--smoke", action="store_true", help="tiny sizes, for the self-test")
    args = ap.parse_args()

    wl = W.WORKLOADS[args.workload](args.seed, W.load_frozen(), smoke=args.smoke)
    wl.op(0)  # untimed warm-up
    out = {"setup_s": time.perf_counter() - _T0}
    if args.mode == "run":
        min_samples = 1 if args.smoke else W.tail_min_samples(wl.tail_pct)
        out.update(measure(wl, args.seconds, min_samples))
    elif args.mode == "trace":
        out.update(trace(wl, args.seed, args.smoke))
    if args.mode != "setup":
        out["versions"] = versions()
        out["workload_notes"] = workload_notes(wl)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
