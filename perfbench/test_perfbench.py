"""Self-test of the benchmark at tiny sizes.

Run from the repository root::

    python3 -m pytest -q perfbench/test_perfbench.py

It checks that every metric named in ``BENCHMARK.json`` is emitted for
every workload, in both modes, and that a deliberately wrong expectation
(exit code, bracket, frozen value) trips the correctness gate.
"""

import json
import os
import subprocess
import sys
import types

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

import run  # noqa: E402
import worker  # noqa: E402
import workloads as W  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    SPEC = json.load(_fh)


def _bench(workload, trace):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", "7", "--seconds", "0.2", "--trace", str(trace), "--smoke"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
@pytest.mark.parametrize("trace", [0, 1])
def test_every_named_metric_is_emitted(workload, trace):
    result = _bench(workload, trace)
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in declared
    }
    for m in result["metrics"].values():
        assert isinstance(m["value"], (int, float))


def test_workload_names_match_the_spec():
    assert sorted(w["name"] for w in SPEC["workloads"]) == sorted(W.WORKLOADS)
    assert tuple(w["name"] for w in SPEC["workloads"]) == run.WORKLOADS


@pytest.fixture(scope="module")
def frozen():
    return W.load_frozen()


def _wrong(frozen, **changes):
    return types.SimpleNamespace(**{**vars(frozen), **changes})


def test_wrong_exit_code_trips_the_gate(monkeypatch, frozen):
    monkeypatch.setattr(W, "CLI_COMMANDS", ((("certify", "--format", "json"), 1),))
    res = worker.measure(W.CliCold(1, frozen), seconds=0.0, min_samples=1)
    assert res["incorrect"] == 1 and res["failed"] == 1


def test_wrong_scan_bracket_trips_the_gate(frozen):
    bad = _wrong(frozen, SCAN2_CERT_MIN_BRACKET=(0.0, 1.0))
    _, outcome = W.FullboxScan(1, bad).op(0)  # the flagship at grid 801
    assert outcome.incorrect and "anchor 0" in outcome.detail
    _, outcome = W.FullboxScan(1, frozen).op(0)
    assert outcome.status == "ok"


def test_wrong_margin_bracket_trips_the_gate(frozen):
    bad = _wrong(frozen, VIOLATION_MARGIN_BRACKETS={2: (1.0, 2.0)})
    _, outcome = W.AtlasSweep(1, bad).op(0)
    assert outcome.incorrect and "flagship margin" in outcome.detail


def test_wrong_cone_scale_trips_the_gate(frozen):
    bad = _wrong(frozen, CONE_Q_SAMPLES=((1, 2, 3),))
    wl = W.ConeExact(1, bad)
    assert [o.status for o in wl.final_checks()] == ["ok", "ok", "wrong"]


def test_known_defect_is_a_failure_but_not_a_wrong_answer(frozen):
    wl = W.AtlasSweep(1, frozen)
    # (mu - 1)/sigma = 27 puts phi in the subnormal range: the certificate
    # raises RangeError there.
    wl.triples[6] = W.Params(mu=1.0 + 27.0 * 0.1, sigma=0.1, alpha=0.05)
    _, outcome = wl.op(6)
    assert outcome.status == "known_defect" and not outcome.incorrect


class _Flaky:
    """A two-input pool whose input 1 fails only on its repeat."""

    name = "flaky"
    pool_size = round_size = sample_ops = 2
    tail_pct = 50.0
    rss_who = "self"

    def op(self, k):
        status = "error" if k == 3 else "ok"
        return 0.001, W.Outcome(status, "repeat differs" if k == 3 else "")

    def final_checks(self):
        return []


def test_pool_inputs_count_once_and_repeats_must_agree():
    res = worker.measure(_Flaky(), seconds=0.0, min_samples=2)
    assert res["ops"] == 4
    # two inputs counted once, plus the repeat of input 1 that changed
    assert res["attempted"] == 3 and res["failed"] == 1 and res["incorrect"] == 1
    assert res["calib_samples"] >= 1 and res["calib_ms"] > 0


def test_incorrect_run_exits_nonzero(monkeypatch, capsys):
    fake = {
        "setup_s": 0.5, "ops": 1, "samples": 1, "wall_s": 1.0, "op_p50_ms": 1.0,
        "op_tail_ms": 1.0, "tail_pct": 75.0, "tail_beyond": 0, "ops_per_s": 1.0,
        "peak_rss_mb": 50.0, "attempted": 2, "failed": 1, "incorrect": 1,
        "calib_ms": 10.0, "calib_samples": 1,
        "failures_by_status": {"wrong": 1}, "failure_details": ["wrong: test"],
        "versions": {}, "workload_notes": {},
    }
    monkeypatch.setattr(run, "worker", lambda args, mode: fake)
    monkeypatch.setattr(sys, "argv", ["run.py", "--workload", "cone-exact", "--seed", "1",
                                      "--seconds", "1"])
    assert run.main() == 1
    last = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert last["correct"] is False and last["failed"] == 1


def test_tail_rank_leaves_ten_samples_beyond():
    for pct in (75.0, 90.0, 99.9):
        n = W.tail_min_samples(pct)
        assert n - W.tail_rank(n, pct) >= 10
        assert (n - 1) - W.tail_rank(n - 1, pct) < 10
    assert W.tail_rank(10000, 99.9) == 9990
