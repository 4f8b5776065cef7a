"""Command-line interface: exit-status contract (0 affirmative /
1 negative / 2 input error), output formats, JSON re-parseability,
configuration precedence, and stderr discipline."""

import csv
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import subadd

from subadd.analytic_core import Order, Params
from subadd.certificate import CertificateReport, certify_S2
from subadd import cli
from subadd.cli import RunConfig, build_config, build_parser, main
from subadd.intervals import Interval
from subadd.search import MAX_GRID_N, MAX_REFINE_DEPTH, ScanConfig, Violation
from subadd.serialize import from_jsonable


def run_cli(capsys, *argv):
    """Invoke main() in-process; returns (exit_code, stdout, stderr)."""
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------------------
# certify
# ---------------------------------------------------------------------------


def test_certify_default_is_certified(capsys):
    code, out, err = run_cli(capsys, "certify")
    assert code == 0
    assert "verdict: CERTIFIED" in out
    assert "condition A_alpha" in out and "condition C_alpha" in out
    assert err == ""


def test_certify_json_reparses_to_report(capsys, cert_params):
    code, out, err = run_cli(capsys, "certify", "--format", "json")
    assert code == 0
    decoded = from_jsonable(json.loads(out))
    assert isinstance(decoded, CertificateReport)
    assert decoded == certify_S2(cert_params)


def test_certify_csv_lists_five_conditions(capsys):
    code, out, _ = run_cli(capsys, "certify", "--format", "csv")
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == ["condition", "lhs_lo", "lhs_hi", "rhs_lo", "rhs_hi", "verdict"]
    assert [r[0] for r in rows[1:]] == ["A_alpha", "B_mu", "B_alpha", "C_mu", "C_alpha"]
    assert all(r[5] == "TRUE" for r in rows[1:])


def test_certify_negative_exit(capsys):
    code, out, _ = run_cli(
        capsys, "certify", "--mu", "1.5", "--alpha", "0.117783036"
    )
    assert code == 1
    assert "NOT_CERTIFIED" in out


def test_certify_unknown_verdict_exit(capsys):
    # alpha placed exactly on the mixed-region threshold: outward rounding
    # makes the comparison undecidable, and undecided is not affirmative.
    import math

    alpha = 0.05 * math.sqrt(math.e / 2.0)
    code, out, _ = run_cli(capsys, "certify", "--alpha", repr(alpha))
    assert code == 1
    assert "verdict: UNKNOWN" in out


def test_certify_bad_params_exit_2(capsys):
    code, out, err = run_cli(capsys, "certify", "--mu", "-1")
    assert code == 2
    assert out == ""
    assert err.startswith("error:")


# ---------------------------------------------------------------------------
# scan
# ---------------------------------------------------------------------------


def test_scan_flags_violation_candidate(capsys):
    code, out, _ = run_cli(
        capsys, "scan", "--box=-0.1,0.1,0.9,1.4", "--grid-n", "201",
        "--refine-depth", "1",
    )
    assert code == 1
    assert "VIOLATION CANDIDATE" in out


def test_scan_clean_box_exits_zero(capsys):
    code, out, _ = run_cli(
        capsys, "scan", "--box=2,3,2,3", "--grid-n", "101", "--refine-depth", "0"
    )
    assert code == 0
    assert "no violation candidate" in out


def test_scan_json_payload_reparses(capsys):
    code, out, _ = run_cli(
        capsys, "scan", "--box=-1,1,-1,1", "--grid-n", "51", "--refine-depth", "0",
        "--format", "json",
    )
    payload = from_jsonable(json.loads(out))
    assert isinstance(payload["config"], ScanConfig)
    assert payload["config"].grid_n == 51
    assert payload["report"].evaluations == 51 * 51
    assert isinstance(payload["violation_candidate"], bool)


def test_scan_rejects_malformed_box(capsys):
    code, _, err = run_cli(capsys, "scan", "--box=1,2,3")
    assert code == 2
    assert "box" in err


# ---------------------------------------------------------------------------
# violate
# ---------------------------------------------------------------------------


def test_violate_confirms_and_reports_margin(capsys):
    code, out, _ = run_cli(capsys, "violate", "--format", "json")
    assert code == 1  # violation found: the negative outcome for the claim
    payload = from_jsonable(json.loads(out))
    v = payload["violation"]
    assert isinstance(v, Violation)
    assert payload["order"] == Order(a=2.0)
    assert 0.010264 <= v.margin <= 0.010279


def test_violate_order_three(capsys):
    code, out, _ = run_cli(capsys, "violate", "--a", "3")
    assert code == 1
    assert "CONFIRMED violation" in out
    assert "3.0-subadditivity" in out


def test_violate_none_found_exits_zero(capsys):
    code, out, _ = run_cli(capsys, "violate", "--alpha", "0.001")
    assert code == 0
    assert "no violation found" in out


def test_violate_csv_row(capsys):
    code, out, _ = run_cli(capsys, "violate", "--format", "csv")
    assert code == 1
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == ["a", "mu", "sigma", "alpha", "x", "y", "margin"]
    assert len(rows) == 2
    assert float(rows[1][6]) > 0.01


# ---------------------------------------------------------------------------
# table
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def table_csv_run():
    import subadd.cli as cli_mod

    buf_argv = ["table", "--grid-n", "201", "--refine-depth", "1", "--format", "csv"]
    import contextlib

    out_io = io.StringIO()
    with contextlib.redirect_stdout(out_io):
        code = cli_mod.main(buf_argv)
    return code, out_io.getvalue()


def test_table_not_reproduced(table_csv_run):
    code, out = table_csv_run
    assert code == 1  # stored rows do not reproduce


def test_table_csv_column_order(table_csv_run):
    _, out = table_csv_run
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0][:6] == ["mu", "sigma", "alpha", "x_star", "y_star", "margin"]
    assert len(rows) == 6
    mus = [float(r[0]) for r in rows[1:]]
    assert mus == [1.5, 2.0, 2.5, 3.0, 5.0]


# ---------------------------------------------------------------------------
# oracles
# ---------------------------------------------------------------------------


def test_oracles_all_pass(capsys):
    code, out, _ = run_cli(capsys, "oracles")
    assert code == 0
    assert "result: 11/11 passed" in out


def test_oracles_json_statuses(capsys):
    code, out, _ = run_cli(capsys, "oracles", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["all_passed"] is True
    names = [entry["oracle"] for entry in payload["oracles"]]
    assert "rolle-identity-g" in names
    assert "semigroup-membership-positive" in names
    assert "indicator-order-2" in names
    assert all(entry["status"] == "pass" for entry in payload["oracles"])


def test_oracles_skip_when_hypothesis_fails(capsys):
    # mu < 1 makes three oracles refuse; refusals are not failures.
    code, out, _ = run_cli(capsys, "oracles", "--mu", "0.9", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    statuses = {e["oracle"]: e["status"] for e in payload["oracles"]}
    assert statuses["monotone-increasing-f"] == "skipped"
    assert statuses["symmetrization-reduction"] == "skipped"
    assert statuses["tau-concavity"] == "skipped"
    assert statuses["indicator-order-2"] == "pass"


# ---------------------------------------------------------------------------
# cone
# ---------------------------------------------------------------------------


def test_cone_small_run_passes(capsys):
    code, out, _ = run_cli(capsys, "cone", "--n-base", "6", "--n-reserve", "1")
    assert code == 0
    assert "result: all checks passed" in out
    assert "n=6:" in out


def test_cone_json_intervals_decode(capsys):
    code, out, _ = run_cli(
        capsys, "cone", "--n-base", "4", "--n-reserve", "1", "--format", "json"
    )
    assert code == 0
    payload = from_jsonable(json.loads(out))
    assert payload["all_ok"] is True
    assert len(payload["scales"]) == 4
    row = payload["scales"][3]
    assert row["n"] == 4
    assert isinstance(row["image"], Interval)
    assert row["image"].hi < 1.0
    assert row["image"].lo > 1.0 - 0.5**4


def test_cone_rejects_zero_generators(capsys):
    code, _, err = run_cli(capsys, "cone", "--n-base", "0")
    assert code == 2
    assert "n-base" in err


def test_cone_rejects_generator_count_above_cap(capsys):
    code, _, err = run_cli(capsys, "cone", "--n-base", "100000000")
    assert code == 2
    assert "n-base" in err
    code, _, err = run_cli(capsys, "cone", "--n-reserve", "100000000")
    assert code == 2
    assert "n-reserve" in err


def test_scan_rejects_grid_n_above_cap(capsys):
    for sub in ("scan", "violate", "table"):
        code, out, err = run_cli(capsys, sub, "--grid-n", "1000000")
        assert code == 2
        assert "grid_n" in err and not out
    code, _, err = run_cli(capsys, "scan", "--grid-n", str(MAX_GRID_N + 1))
    assert code == 2
    assert str(MAX_GRID_N) in err


def test_scan_rejects_refine_depth_above_cap(capsys):
    for sub in ("scan", "violate", "table"):
        code, out, err = run_cli(capsys, sub, "--grid-n", "3", "--refine-depth", "400")
        assert code == 2
        assert "refine_depth" in err and not out
    code, _, err = run_cli(capsys, "scan", "--refine-depth", str(MAX_REFINE_DEPTH + 1))
    assert code == 2
    assert str(MAX_REFINE_DEPTH) in err


@pytest.mark.parametrize("grid_n", ["0", "1"])
def test_violate_rejects_grid_n_below_two(capsys, grid_n):
    code, out, err = run_cli(capsys, "violate", "--grid-n", grid_n)
    assert code == 2
    assert not out
    assert err.startswith("error: grid_n") and err.count("\n") == 1


def _subadd_env():
    """This environment, with this checkout's ``subadd`` on the path of a
    child interpreter."""
    src = str(Path(subadd.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return env


def _cold_cli(*argv):
    """Run ``python -m subadd.cli`` in a fresh interpreter; returns
    (exit_code, stdout, stderr)."""
    proc = subprocess.run(
        [sys.executable, "-m", "subadd.cli", *argv],
        env=_subadd_env(), capture_output=True, text=True,
    )
    return proc.returncode, proc.stdout, proc.stderr


@pytest.mark.parametrize(
    "sub, code, message",
    [
        ("oracles", 1, "sigma**2 underflows in float64 for sigma=1e-200"),
        ("violate", 2, "sigma=1e-200 is too small for a float64 violation window"),
    ],
)
def test_tiny_sigma_fails_with_one_error_line(sub, code, message):
    got, out, err = _cold_cli(sub, "--sigma", "1e-200")
    assert got == code
    assert out == ""
    assert "Traceback" not in err
    assert err.count("error:") == 1 and err.count("\n") == 1
    assert err.startswith("error: ") and message in err


def test_tiny_sigma_scan_writes_nothing_to_stderr():
    """``h`` overflows inside the scan kernel for such a ``sigma``; the
    inf and NaN gaps never win, and no NumPy warning reaches stderr."""
    got, out, err = _cold_cli(
        "scan", "--sigma", "1e-200", "--grid-n", "51", "--refine-depth", "0"
    )
    assert (got, err) == (0, "")
    assert out.splitlines() == [
        "order a=2.0, parameters: mu=1.2 sigma=1e-200 alpha=0.05",
        "scan box [-8.0, 8.0] x [-8.0, 8.0], grid 51, refine depth 0 (2601 evaluations)",
        "min gap: 0.0 at x=0.0 y=1.2799999999999994",
        "result: no violation candidate at tolerance 1e-09",
    ]


def test_huge_box_scan_runs_without_traceback():
    """A box ``1e307`` tall makes ``dy/(a*dx)`` near the largest double;
    the lattice test finds no ratio and the scan reports."""
    got, out, err = _cold_cli(
        "scan", "--box=0.004,0.1,-1e307,1e307", "--grid-n", "21", "--refine-depth", "0"
    )
    assert (got, err) == (0, "")
    assert out.splitlines()[1:] == [
        "scan box [0.004, 0.1] x [-1e+307, 1e+307], grid 21, refine depth 0 (441 evaluations)",
        "min gap: 0.0 at x=0.004 y=-1e+307",
        "result: no violation candidate at tolerance 1e-09",
    ]


# ---------------------------------------------------------------------------
# import hygiene
# ---------------------------------------------------------------------------


#: Everything the CLI may load beyond the standard library: the two
#: runtime dependencies (mpmath uses gmpy2 when it is installed) and the
#: package's own modules.
_CLI_THIRD_PARTY = {"numpy", "mpmath", "gmpy2"}
_CLI_PACKAGE_MODULES = {
    "subadd",
    "subadd.analytic_core",
    "subadd.certificate",
    "subadd.cli",
    "subadd.cone",
    "subadd.errors",
    "subadd.intervals",
    "subadd.search",
    "subadd.serialize",
    "subadd.statement_oracles",
}
#: Per case, the third-party modules it may load and those it must.
#: Importing the package or the CLI, and the subcommands that neither scan
#: nor evaluate in high precision, load none; ``scan`` loads numpy for its
#: kernel, and ``violate`` and ``table`` confirm in mpmath as well.
_CLI_IMPORT_CASES = {
    "import subadd": (set(), set()),
    "import subadd.cli": (set(), set()),
    "certify": (set(), set()),
    "oracles": (set(), set()),
    "cone": (set(), set()),
    "scan": ({"numpy"}, {"numpy"}),
    "violate": (_CLI_THIRD_PARTY, {"numpy", "mpmath"}),
    "table": (_CLI_THIRD_PARTY, {"numpy", "mpmath"}),
}


def _fresh_interpreter(probe, blas_threads=None):
    """stdout of ``probe`` run by a fresh interpreter that imports this
    checkout's ``subadd``; ``OPENBLAS_NUM_THREADS`` is ``blas_threads``, or
    unset when None."""
    env = _subadd_env()
    env.pop("OPENBLAS_NUM_THREADS", None)
    if blas_threads is not None:
        env["OPENBLAS_NUM_THREADS"] = blas_threads
    out = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True
    )
    return out.stdout


def _modules_loaded_by(case):
    """Modules a fresh interpreter loads for ``case``: an import statement,
    or a subcommand run at its defaults through ``cli.main``."""
    if not case.startswith("import "):
        case = (
            "from subadd.cli import main\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            f"    assert main([{case!r}]) in (0, 1)"
        )
    probe = (
        "import contextlib, io, json, sys\n"
        "before = set(sys.modules)\n"
        f"{case}\n"
        "print(json.dumps(sorted(set(sys.modules) - before)))"
    )
    return set(json.loads(_fresh_interpreter(probe)))


def test_cli_import_loads_only_runtime_dependencies():
    for case, (allowed, required) in _CLI_IMPORT_CASES.items():
        loaded = _modules_loaded_by(case)
        package = {m for m in loaded if m == "subadd" or m.startswith("subadd.")}
        assert package <= _CLI_PACKAGE_MODULES
        outside = {m.split(".")[0] for m in loaded - package} - set(sys.stdlib_module_names)
        assert outside <= _CLI_THIRD_PARTY
        assert required <= outside <= allowed, case


def _threads_after_first_scan(blas_threads):
    """(numpy loaded, OS thread count, OPENBLAS_NUM_THREADS) seen by a
    fresh interpreter after ``import subadd.cli`` and one tiny scan; the
    variable is unset when ``blas_threads`` is None."""
    probe = (
        "import json, os, sys; import subadd.cli; "
        "from subadd import FULL_BOX, Params, ScanConfig, scan_gap_min; "
        "scan_gap_min(2.0, Params(1.2, 0.05, 0.05), "
        "ScanConfig(FULL_BOX, grid_n=3, refine_depth=0)); "
        "print(json.dumps(['numpy' in sys.modules, len(os.listdir('/proc/self/task')), "
        "os.environ.get('OPENBLAS_NUM_THREADS')]))"
    )
    return tuple(json.loads(_fresh_interpreter(probe, blas_threads)))


@pytest.mark.skipif(not os.path.isdir("/proc/self/task"), reason="needs Linux /proc")
def test_cli_import_starts_no_blas_threads():
    # The toolkit makes no BLAS call: the first scan loads numpy, leaves
    # the process single-threaded and does not leak the setting into the
    # environment; a count the caller set is kept.
    assert _threads_after_first_scan(None) == (True, 1, None)
    assert _threads_after_first_scan("2")[2] == "2"


# ---------------------------------------------------------------------------
# argparse-level behaviour
# ---------------------------------------------------------------------------


def test_help_exits_zero(capsys):
    code, out, _ = run_cli(capsys, "--help")
    assert code == 0
    assert "certify" in out and "cone" in out


def test_unknown_subcommand_exits_two(capsys):
    code, _, err = run_cli(capsys, "frobnicate")
    assert code == 2
    assert "invalid choice" in err


def test_unknown_flag_exits_two(capsys):
    code, _, err = run_cli(capsys, "certify", "--bogus", "1")
    assert code == 2


def test_invalid_format_exits_two(capsys):
    code, _, err = run_cli(capsys, "certify", "--format", "xml")
    assert code == 2


def test_low_precision_exits_two(capsys):
    code, _, err = run_cli(capsys, "violate", "--precision-bits", "64")
    assert code == 2
    assert "precision-bits" in err


# ---------------------------------------------------------------------------
# configuration file and precedence
# ---------------------------------------------------------------------------


def test_config_file_sets_defaults(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        "# defaults for the nearline triple\n"
        "mu = 1.5\n"
        "alpha = 0.117783036\n"
        "format = json\n"
    )
    code, out, _ = run_cli(capsys, "certify", "--config", str(cfg))
    assert code == 1
    report = from_jsonable(json.loads(out))
    assert report.params == Params(mu=1.5, sigma=0.05, alpha=0.117783036)


def test_flags_override_config_file(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("mu = 1.5\nalpha = 0.117783036\nformat = json\n")
    code, out, _ = run_cli(
        capsys, "certify", "--config", str(cfg), "--alpha", "0.05", "--mu", "1.2"
    )
    assert code == 0
    report = from_jsonable(json.loads(out))
    assert report.params == Params(mu=1.2, sigma=0.05, alpha=0.05)


def test_config_underscore_keys_accepted(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("grid_n = 51\nrefine_depth = 0\nbox = -1,1,-1,1\n")
    args = build_parser().parse_args(["scan", "--config", str(cfg)])
    config = build_config(args)
    assert config.scan.grid_n == 51
    assert config.scan.refine_depth == 0
    assert config.scan.box == (-1.0, 1.0, -1.0, 1.0)


def test_config_unknown_key_exits_two(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("muu = 1.5\n")
    code, _, err = run_cli(capsys, "certify", "--config", str(cfg))
    assert code == 2
    assert "unknown key" in err


def test_config_malformed_line_exits_two(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("mu 1.5\n")
    code, _, err = run_cli(capsys, "certify", "--config", str(cfg))
    assert code == 2


def test_config_missing_file_exits_two(capsys):
    code, _, err = run_cli(capsys, "certify", "--config", "/nonexistent/run.cfg")
    assert code == 2
    assert "cannot read config file" in err


def test_config_bad_number_exits_two(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("mu = wide\n")
    code, _, err = run_cli(capsys, "certify", "--config", str(cfg))
    assert code == 2
    assert "not a number" in err


#: One valid value per config key, away from every default.
_KEY_VALUES = {
    "mu": "1.3",
    "sigma": "0.06",
    "alpha": "0.04",
    "a": "3",
    "format": "json",
    "precision-bits": "160",
    "box": "-0.1,0.1,0.9,1.4",
    "grid-n": "41",
    "refine-depth": "1",
    "tolerance": "1e-6",
    "n-base": "4",
    "n-reserve": "3",
}


def _config_from(argv, tmp_path, text):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(text)
    return build_config(build_parser().parse_args([*argv, "--config", str(cfg)]))


def test_key_values_cover_every_config_key():
    assert set(_KEY_VALUES) == set(cli._KEYS) and len(_KEY_VALUES) == 12


@pytest.mark.parametrize(
    "sub, key",
    [(sub, opt.name) for opt in cli._KEYS.values() for sub in opt.takes],
)
def test_flag_and_config_key_give_the_same_config(tmp_path, sub, key):
    value = _KEY_VALUES[key]
    by_flag = build_config(build_parser().parse_args([sub, f"--{key}={value}"]))
    by_file = _config_from([sub], tmp_path, f"{key} = {value}\n")
    assert isinstance(by_flag, RunConfig)
    assert by_flag == by_file
    assert by_flag != build_config(build_parser().parse_args([sub]))


@pytest.mark.parametrize("sub", list(cli._SUBCOMMANDS))
def test_config_setting_every_key_is_accepted_by_every_subcommand(
    tmp_path, capsys, sub
):
    cfg = tmp_path / "all.cfg"
    cfg.write_text("".join(f"{k} = {v}\n" for k, v in _KEY_VALUES.items()))
    code, out, err = run_cli(capsys, sub, "--config", str(cfg))
    assert code in (0, 1) and err == ""
    json.loads(out)  # format = json applies to every subcommand


@pytest.mark.parametrize("sub", list(cli._SUBCOMMANDS))
def test_config_keys_a_subcommand_does_not_take_are_not_parsed(tmp_path, sub):
    ignored = [k for k, opt in cli._KEYS.items() if sub not in opt.takes]
    text = "".join(f"{k} = not-a-value\n" for k in ignored)
    assert _config_from([sub], tmp_path, text) == build_config(
        build_parser().parse_args([sub])
    )


def test_certify_ignores_a_fractional_grid_n(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("grid-n = 4.5\n")
    code, out, err = run_cli(capsys, "certify", "--config", str(cfg))
    assert code == 0 and "verdict: CERTIFIED" in out and err == ""
