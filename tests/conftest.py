"""Shared fixtures: the two reference parameter triples and small helpers."""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import subadd
from subadd import Params


@pytest.fixture(scope="session")
def cert_params():
    """The triple that satisfies all five certificate conditions."""
    return Params(mu=1.2, sigma=0.05, alpha=0.05)


@pytest.fixture(scope="session")
def nearline_params():
    """The triple whose alpha sits just above two of the bounds."""
    return Params(mu=1.5, sigma=0.05, alpha=0.117783036)


def ulps_apart(a: float, b: float) -> int:
    """Number of representable doubles strictly between a and b (0 when
    equal), walked with nextafter; capped at 64 to keep failures cheap."""
    if a == b:
        return 0
    lo, hi = (a, b) if a < b else (b, a)
    steps = 0
    x = lo
    while x < hi and steps <= 64:
        x = math.nextafter(x, math.inf)
        steps += 1
    return steps


def subadd_env():
    """This environment, with this checkout's ``subadd`` on the path of a
    child interpreter."""
    src = str(Path(subadd.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return env


def fresh_json(probe: str):
    """Run ``probe`` in a fresh interpreter that imports this checkout's
    ``subadd``; its last stdout line, parsed as JSON."""
    out = subprocess.run(
        [sys.executable, "-c", probe], env=subadd_env(), capture_output=True,
        text=True, check=True,
    )
    return json.loads(out.stdout.splitlines()[-1])
