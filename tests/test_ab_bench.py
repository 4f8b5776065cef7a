"""The A/B bench harness ``tools/ab_bench.py``: its argument errors, its
summary rule, the alternation of labels and its exit status, checked on a
stub layer that starts no toolkit process."""

import importlib.util
import json
import os
import subprocess
from pathlib import Path

import pytest

_spec = importlib.util.spec_from_file_location(
    "ab_bench", Path(__file__).resolve().parent.parent / "tools" / "ab_bench.py"
)
ab_bench = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(ab_bench)


@pytest.fixture
def sources(tmp_path):
    """Source directories ``A`` and ``B``: each holds a file naming its
    label and a ``__pycache__`` that the harness must not copy."""
    for label in "AB":
        (tmp_path / label / "__pycache__").mkdir(parents=True)
        (tmp_path / label / "label.txt").write_text(label)
    return tmp_path


def stub(monkeypatch, seen, digest=lambda label: "same", wrong_exit=None):
    """Install layer ``stub``: one case, one sample per round, ``A`` always
    faster; it appends to ``seen`` the label of each copy it runs on."""

    def run(env, work):
        src = Path(env["PYTHONPATH"].split(os.pathsep)[0])
        assert not (src / "__pycache__").exists()
        label = (src / "label.txt").read_text()
        seen.append(label)
        case = {"ms": [1.0 if label == "A" else 2.0], "ops": 2, "digest": digest(label)}
        if wrong_exit is not None:
            case["wrong_exit"] = wrong_exit
        return {"case": case}

    monkeypatch.setitem(ab_bench.LAYERS, "stub", ab_bench.Layer(run))


def bench(sources, tmp_path, *extra):
    out = tmp_path / "out.json"
    code = ab_bench.main(
        ["stub", f"A={sources / 'A'}", f"B={sources / 'B'}", "--out", str(out), *extra]
    )
    return code, json.loads(out.read_text())


@pytest.mark.parametrize("argv", [
    ["cone", "a={A}", "a={B}"],
    ["cone", "{A}"],
    ["cone", "a={A}", "--rounds", "0"],
    ["no-such-layer", "a={A}"],
    ["cone", "a={A}", "--base", "no-such-revision"],
    ["cone", "base={A}", "--base", "HEAD"],
], ids=["duplicate-label", "missing-equals", "zero-rounds", "unknown-layer",
        "unknown-base", "base-label-taken"])
def test_argument_errors_exit_2(sources, argv):
    argv = [a.format(A=sources / "A", B=sources / "B") for a in argv]
    with pytest.raises(SystemExit) as exc:
        ab_bench.main(argv)
    assert exc.value.code == 2


def test_summary_rule():
    assert ab_bench.summary([5.0, 1.0, 4.0, 2.0, 3.0], 2) == {
        "median_ms": 3.0, "q1_ms": 2.0, "q3_ms": 4.0, "iqr_ms": 2.0,
        "samples": 5, "ops_per_s": 666.667,
    }
    # cli-cold at --rounds 1 has one sample per case
    assert ab_bench.summary([4.0], 6) == {
        "median_ms": 4.0, "q1_ms": 4.0, "q3_ms": 4.0, "iqr_ms": 0.0,
        "samples": 1, "ops_per_s": 1500.0,
    }
    # times keep 1 ns: a 5 us cone operation keeps its digits
    assert ab_bench.summary([0.0051234567], 1)["median_ms"] == 0.005123


def test_labels_alternate_and_are_summarised(monkeypatch, sources, tmp_path):
    seen = []
    stub(monkeypatch, seen)
    code, record = bench(sources, tmp_path, "--rounds", "3")
    assert code == 0
    assert seen == ["A", "B", "B", "A", "A", "B"]
    assert record["layer"] == "stub" and record["rounds"] == 3
    assert record["same_results"] is True and record["wrong_exit_codes"] == []
    a, b = record["results"]["A"]["case"], record["results"]["B"]["case"]
    assert (a["median_ms"], a["samples"], a["ops_per_s"]) == (1.0, 3, 2000.0)
    assert (a["wins"], b["wins"]) == (3, 0)
    assert b["round_ms"] == [2.0, 2.0, 2.0]


def test_different_digests_exit_1(monkeypatch, sources, tmp_path):
    stub(monkeypatch, [], digest=lambda label: label)
    code, record = bench(sources, tmp_path, "--rounds", "1")
    assert code == 1 and record["same_results"] is False


def test_wrong_exit_code_exits_1(monkeypatch, sources, tmp_path):
    stub(monkeypatch, [], wrong_exit=3)
    code, record = bench(sources, tmp_path, "--rounds", "1")
    assert code == 1 and record["same_results"] is True
    assert record["wrong_exit_codes"] == [["A", "case", 3], ["B", "case", 3]]


def test_base_is_a_worktree_of_the_revision_removed_on_exit(monkeypatch, sources, tmp_path):
    """``--base HEAD`` times HEAD's ``src`` as label ``base``, first in
    each even round, from a ``git worktree`` that is gone afterwards."""
    root = ab_bench.ROOT

    def git(*args):
        return subprocess.run(["git", "-C", str(root), *args], capture_output=True,
                              text=True, check=True).stdout

    def count(listing):
        return sum(line.startswith("worktree ") for line in listing.splitlines())

    try:
        before = git("worktree", "list", "--porcelain")
        head_cone = git("show", "HEAD:src/subadd/cone.py")
    except (OSError, subprocess.CalledProcessError):
        pytest.skip("needs a git checkout with git on PATH")
    seen, trees = [], []

    def run(env, work):
        src = Path(env["PYTHONPATH"].split(os.pathsep)[0])
        label_file = src / "label.txt"
        if label_file.exists():
            seen.append(label_file.read_text())
        else:
            assert (src / "subadd" / "cone.py").read_text() == head_cone
            seen.append("base")
        trees.append(git("worktree", "list", "--porcelain"))
        return {"case": {"ms": [1.0], "ops": 1, "digest": "same"}}

    monkeypatch.setitem(ab_bench.LAYERS, "stub", ab_bench.Layer(run))
    out = tmp_path / "out.json"
    code = ab_bench.main(["stub", f"A={sources / 'A'}", "--base", "HEAD", "--rounds", "2",
                          "--out", str(out)])
    record = json.loads(out.read_text())
    assert code == 0 and record["same_results"] is True
    assert list(record["results"]) == ["base", "A"]
    assert seen == ["base", "A", "A", "base"]
    assert [count(t) for t in trees] == [count(before) + 1] * 4
    assert git("worktree", "list", "--porcelain") == before
