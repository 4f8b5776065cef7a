#!/usr/bin/env python3
"""Record the ``subadd`` command's stdout, stderr and exit code over a
fixed matrix of invocations, so two checkouts can be diffed.

Usage::

    python3 tools/cli_matrix.py SRC_DIR > before.txt   # e.g. an old checkout's src/
    python3 tools/cli_matrix.py src > after.txt
    diff before.txt after.txt

Each invocation runs ``python -m subadd.cli`` in a fresh interpreter with
``SRC_DIR`` on ``PYTHONPATH``, from a scratch directory that holds the
config files below, so that the paths in messages are the same on every
run.  The matrix covers every subcommand in every format, config files
(valid, unknown key, malformed line, missing file, bad values, keys a
subcommand does not take), input errors and each ``--help``.
"""

from __future__ import annotations

import os
import subprocess
import sys
import tempfile
from pathlib import Path

SUBCOMMANDS = ("certify", "scan", "violate", "table", "oracles", "cone")

#: Small grids keep the scanning subcommands quick where the grid is not
#: what a case is about.
QUICK = {
    "certify": [],
    "scan": ["--grid-n", "101", "--refine-depth", "1"],
    "violate": ["--grid-n", "101", "--refine-depth", "1"],
    "table": ["--grid-n", "51", "--refine-depth", "0"],
    "oracles": [],
    "cone": ["--n-base", "5", "--n-reserve", "1"],
}

ALL_KEYS = """\
# every key, each at a valid value
mu = 1.2
sigma = 0.05
alpha = 0.05
a = 2
box = -0.1,0.1,0.9,1.4
grid-n = 61
refine-depth = 1
tolerance = 1e-9
format = json
precision-bits = 160
n-base = 4
n-reserve = 1
"""

CONFIGS = {
    "all.cfg": ALL_KEYS,
    "underscore.cfg": "grid_n = 51\nrefine_depth = 0\nn_base = 3\nprecision_bits = 128\n",
    "nearline.cfg": "mu = 1.5\nalpha = 0.117783036\nformat = csv\n",
    "unknown.cfg": "mu = 1.5\nmuu = 1.5\n",
    "malformed.cfg": "# comment\n\nmu 1.5\n",
    "badnum.cfg": "mu = wide\n",
    "badint.cfg": "grid-n = 4.5\n",
    "badscan.cfg": "box = a,b,c,d\ntolerance = loose\nrefine-depth = deep\n",
    "badformat.cfg": "format = xml\n",
    "lowprec.cfg": "precision-bits = 64\n",
    "order.cfg": "a = 3\nsigma = -1\n",
    "othercmd.cfg": "grid-n = 4.5\nn-base = 0\nn-reserve = many\n",
    "empty.cfg": "",
}


def cases():
    for sub in SUBCOMMANDS:
        for fmt in ("text", "json", "csv"):
            yield [sub, *QUICK[sub], "--format", fmt]
    yield ["certify"]
    yield ["scan", "--grid-n", "201"]
    yield ["violate"]
    yield ["table"]
    yield ["cone"]
    yield ["--help"]
    yield []
    for sub in SUBCOMMANDS:
        yield [sub, "--help"]
    for name in CONFIGS:
        for sub in SUBCOMMANDS:
            yield [sub, *QUICK[sub], "--config", name]
    yield ["certify", "--config", "missing.cfg"]
    yield ["certify", "--config", "nearline.cfg", "--mu", "1.2", "--alpha", "0.05"]
    yield ["scan", "--config", "all.cfg", "--format", "text", "--grid-n", "41"]
    # input errors
    yield ["frobnicate"]
    yield ["certify", "--bogus", "1"]
    yield ["certify", "--format", "xml"]
    yield ["certify", "--mu", "x"]
    yield ["certify", "--mu", "-1"]
    yield ["certify", "--sigma", "0", "--alpha", "nan"]
    yield ["certify", "--a", "0"]
    yield ["certify", "--a", "inf"]
    yield ["certify", "--mu", "1e999"]
    yield ["certify", "--mu", "1.5", "--alpha", "0.117783036"]
    yield ["violate", "--precision-bits", "64"]
    yield ["violate", "--a", "3"]
    yield ["violate", "--alpha", "0.001", "--format", "csv"]
    yield ["violate", "--box=-0.1,0.1,0.9,1.4", "--tolerance", "1e-6"]
    yield ["table", "--box=0,1,0,1"]
    yield ["scan", "--grid-n", "2.5"]
    yield ["scan", "--box=1,2,3"]
    yield ["scan", "--box=0,inf,0,1"]
    yield ["scan", "--box=1,0,0,1"]
    yield ["scan", "--box=a,b,c,d"]
    yield ["scan", "--tolerance", "-1"]
    yield ["scan", "--tolerance", "nan"]
    yield ["scan", "--box=0,1,nan,1"]
    yield ["scan", "--box=2,3,2,3", "--grid-n", "101", "--refine-depth", "0"]
    yield ["oracles", "--mu", "0.9", "--format", "json"]
    for sub in ("scan", "violate", "table"):
        yield [sub, "--grid-n", "1000000"]
        yield [sub, "--grid-n", "3", "--refine-depth", "400"]
        yield [sub, "--grid-n", "1"]
    yield ["cone", "--n-base", "0"]
    yield ["cone", "--n-reserve", "100000000"]


def main() -> int:
    if len(sys.argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    src = str(Path(sys.argv[1]).resolve())
    env = dict(os.environ, PYTHONPATH=src)
    with tempfile.TemporaryDirectory() as work:
        for name, text in CONFIGS.items():
            Path(work, name).write_text(text, encoding="utf-8")
        count = 0
        for argv in cases():
            proc = subprocess.run(
                [sys.executable, "-m", "subadd.cli", *argv],
                cwd=work, env=env, capture_output=True, text=True,
            )
            count += 1
            print(f"### subadd {' '.join(argv)}")
            print(f"exit: {proc.returncode}")
            print("--- stdout")
            print(proc.stdout, end="")
            print("--- stderr")
            print(proc.stderr, end="")
        print(f"### {count} invocations")
    return 0


if __name__ == "__main__":
    sys.exit(main())
