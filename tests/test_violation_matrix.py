"""The record reader and the comparison of ``tools/violation_matrix.py``,
on small synthetic records: each exit rule of ``--compare``."""

import importlib.util
from pathlib import Path

import pytest

_spec = importlib.util.spec_from_file_location(
    "violation_matrix",
    Path(__file__).resolve().parent.parent / "tools" / "violation_matrix.py",
)
violation_matrix = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(violation_matrix)

CERT = "CERTIFIED A_alpha=TRUE B_mu=TRUE B_alpha=TRUE C_mu=TRUE C_alpha=TRUE"

#: One record of each kind of line: two certificates (one raised), a
#: confirmed hit, a miss, and a full-box scan.
RECORD = {
    "(101, certify, 0)": CERT,
    "(101, certify, 1)": "RangeError",
    "(101, 2, 0)": "0.010271416966923502, 0.024693601075866576, 1.1365913836096029",
    "(101, 2, 1)": "None",
    "(1, scan-801, 0)": "0.0, 0.0, -5.28",
}


def write(path, record):
    path.write_text("".join(f"{case} → {found}\n" for case, found in record.items()))
    return str(path)


def test_read_splits_a_record_by_kind(tmp_path):
    cases, certs, scans = violation_matrix.read(write(tmp_path / "r.txt", RECORD))
    assert cases == {
        "(101, 2, 0)": (0.010271416966923502, 0.024693601075866576, 1.1365913836096029),
        "(101, 2, 1)": None,
    }
    assert certs == {"(101, certify, 0)": CERT, "(101, certify, 1)": "RangeError"}
    assert scans == {"(1, scan-801, 0)": "0.0, 0.0, -5.28"}


@pytest.mark.parametrize(
    "change, code, says",
    [
        ({}, 0, "margins after vs before: 0 smaller, 1 equal, 0 larger"),
        (
            {"(101, 2, 0)": "0.0103, 0.024693601075866576, 1.1365913836096029"},
            0,
            "margins after vs before: 0 smaller, 0 equal, 1 larger",
        ),
        ({"(101, 2, 0)": "None"}, 1, "hit cases: 1 before, 0 after, NOT equal"),
        ({"(101, 2, 1)": "0.001, 0.05, 1.2"}, 1, "hit cases: 1 before, 2 after, NOT equal"),
        (
            {"(101, 2, 0)": "0.0102, 0.024693601075866576, 1.1365913836096029"},
            1,
            "margins after vs before: 1 smaller, 0 equal, 0 larger",
        ),
        (
            {"(101, certify, 0)": CERT.replace("C_alpha=TRUE", "C_alpha=UNKNOWN")},
            1,
            "certificate cases: 2, 1 differ; 1 raise after",
        ),
        ({"(101, certify, 1)": CERT}, 1, "certificate cases: 2, 1 differ; 0 raise after"),
        ({"(1, scan-801, 0)": "-1e-05, 0.02, 1.13"}, 1, "full-box scan cases: 1, 1 differ"),
    ],
    ids=[
        "equal", "larger-margin", "lost-hit", "new-hit", "smaller-margin",
        "certificate-verdict", "certificate-raises", "scan-line",
    ],
)
def test_compare_exit_rules(tmp_path, capsys, change, code, says):
    before = write(tmp_path / "before.txt", RECORD)
    after = write(tmp_path / "after.txt", {**RECORD, **change})
    assert violation_matrix.compare(before, after) == code
    assert says in capsys.readouterr().out.splitlines()


def test_compare_refuses_records_of_different_cases(tmp_path, capsys):
    before = write(tmp_path / "before.txt", RECORD)
    after = write(tmp_path / "after.txt", {**RECORD, "(202, 2, 0)": "None"})
    assert violation_matrix.compare(before, after) == 1
    assert capsys.readouterr().out == "the records hold different cases\n"
