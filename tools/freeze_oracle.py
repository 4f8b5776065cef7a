#!/usr/bin/env python3
"""Regenerate or check the frozen oracle constants in ``tests/_frozen.py``.

Every formula is written out here from scratch and evaluated with mpmath at
200 bits; nothing is imported from the package, so agreement between this
script and the package is meaningful two-sided evidence.  Parameters and
evaluation points are binary64 literals lifted exactly, matching the
package's high-precision convention.

Usage::

    python3 tools/freeze_oracle.py           # print fresh constants
    python3 tools/freeze_oracle.py --check   # compare against tests/_frozen.py

``--check`` exits 0 iff every stored constant agrees with the fresh value
to within one unit in its own last significant digit (with an absolute
floor of 1e-20 x scale, the test suite's comparison contract).
"""

from __future__ import annotations

import argparse
import math
import sys
from pathlib import Path

from mpmath import exp, log, log1p, mpf, nstr, sqrt, workprec

PREC_BITS = 200
DIGITS = 25

# Inputs (binary64 by design; these are data, not derived oracles).
CERT = (1.2, 0.05, 0.05)
NEARLINE_ALPHA = 0.117783036
TABLE_ROWS = (
    (1.5, 0.05, 0.00675, 1.45367),
    (2.0, 0.10, 0.01050, 1.95491),
    (2.5, 0.10, 0.00900, 2.45647),
    (3.0, 0.10, 0.00750, 2.95886),
    (5.0, 0.15, 0.00750, 4.96456),
)
CONE_SAMPLE_INDICES = (1, 2, 3, 10, 20)


def first_primes(count: int):
    """The first ``count`` primes by plain trial division, independent of
    the package's own prime helper."""
    found = []
    candidate = 2
    while len(found) < count:
        if all(candidate % p for p in found if p * p <= candidate):
            found.append(candidate)
        candidate += 1
    return found


def compute_constants():
    """Return ``{name: mpf-or-int}`` for every derived oracle constant."""
    out = {}
    with workprec(PREC_BITS):
        mu, sigma, alpha = (mpf(v) for v in CERT)

        def g(t):
            at = abs(t)
            return at + log1p(at)

        def h(t, mu=mu, sigma=sigma):
            z = (abs(t) - mu) / sigma
            return exp(-(z * z))

        def f(t, mu=mu, sigma=sigma, alpha=alpha):
            return g(t) + alpha * (h(t, mu, sigma) - h(mpf(0), mu, sigma))

        def gap(a, w, x, y):
            a = mpf(a)
            s = a * mpf(x) + mpf(y)
            return (a * w(mpf(x)) + w(mpf(y))) - w(s)

        def phi(z):
            return (4 * z * z - 2) * exp(-(z * z))

        out["G_AT_1"] = g(mpf(1.0))
        out["C_EXACT"] = log(mpf(9) / 8)
        out["LAMBDA_AT_1"] = 2 * log1p(mpf(1)) - log1p(mpf(2))
        out["PHI_AT_4"] = phi(mpf(4.0))
        out["PSI_AT_QUARTER"] = 2 * log1p(mpf(0.25)) + log1p(mpf(-0.25))
        out["GAP2_G_AT_0p01_1"] = gap(2.0, g, 0.01, 1.0)

        out["H0_CERT"] = h(mpf(0))
        out["H_AT_1p185_CERT"] = h(mpf(1.185))
        out["F_AT_1p185_CERT"] = f(mpf(1.185))
        out["F_AT_1p137_CERT"] = f(mpf(1.137))
        out["F_AT_0p016_CERT"] = f(mpf(0.016))
        one = mpf(1.0)
        out["F_PRIME_AT_1_CERT"] = (
            1 + 1 / (1 + one) + 2 * alpha * (mu - one) * h(one) / (sigma * sigma)
        )
        out["H_SECOND_AT_1_CERT"] = phi(abs(abs(one) - mu) / sigma) / (sigma * sigma)

        out["GAP3_AT_WITNESS_CERT"] = gap(3.0, f, 0.016, 1.137)
        out["GAP2_AT_WITNESS_CERT"] = gap(2.0, f, 0.016, 1.137)
        out["GAP2_AT_MIXED_POINT_CERT"] = gap(2.0, f, 0.0247, 1.1366)

        out["HPRIME_SUP_CERT"] = sqrt(2 / exp(mpf(1))) / sigma
        out["REGION_C_RHS_CERT"] = sigma * sqrt(exp(mpf(1)) / 2)
        out["REGION_B1_RHS_CERT"] = 1 + sigma * sqrt(mpf(3) / 2)
        out["REGION_B2_RHS_CERT"] = (
            17 * sigma * sigma / (54 * phi((mu - 1) / sigma))
        )
        out["NEARLINE_ALPHA_EXCESS"] = mpf(NEARLINE_ALPHA) - log(mpf(9) / 8)

        t = mpf(0.5)
        out["ROLLE_V_G_HALF"] = 4 * (g(mpf(0)) - 2 * g(t / 2) + g(t)) / (t * t)

        for i, (rmu, rsigma, xs, ys) in enumerate(TABLE_ROWS):
            m, s, a_ = mpf(rmu), mpf(rsigma), mpf(NEARLINE_ALPHA)

            def frow(tt, m=m, s=s, a_=a_):
                return g(tt) + a_ * (h(tt, m, s) - h(mpf(0), m, s))

            out[f"TABLE_MARGIN3_RECOMPUTED[{i}]"] = -gap(3.0, frow, xs, ys)
            out[f"TABLE_GAP2_AT_WITNESS[{i}]"] = gap(2.0, frow, xs, ys)

        primes = first_primes(40)  # 1-indexed below
        for j, n in enumerate(CONE_SAMPLE_INDICES):
            p = primes[(2 * n - 1) - 1]
            m_int = (2**n - 1) ** 2 * p
            q = math.isqrt(m_int) + 1
            assert m_int < q * q < 4**n * p, f"scale certificate failed at n={n}"
            out[f"CONE_Q_SAMPLES[{j}]"] = (n, p, q)
            out[f"CONE_PQ_SAMPLES[{j}]"] = q / (mpf(2) ** n * sqrt(mpf(p)))
        n20 = CONE_SAMPLE_INDICES[-1]
        p20 = primes[(2 * n20 - 1) - 1]
        q20 = math.isqrt((2**n20 - 1) ** 2 * p20) + 1
        out["CONE_GAP_AT_20"] = 1 - q20 / (mpf(2) ** n20 * sqrt(mpf(p20)))

        out["LIMINF_AT_600"] = 1 / (600 * sqrt(mpf(3)))
        out["INV_SQRT_3"] = 1 / sqrt(mpf(3))
    return out


def _sig_digits(decimal_string: str) -> int:
    mantissa = decimal_string.strip().lstrip("+-").split("e")[0].split("E")[0]
    digits = mantissa.replace(".", "").lstrip("0")
    return max(1, len(digits))


def _agrees(fresh, stored_string: str) -> bool:
    """Stored string within one unit of its own last digit of the fresh
    value (absolute floor 1e-20 x scale)."""
    with workprec(300):
        ref = mpf(stored_string)
        scale = max(1, abs(ref))
        if ref == 0:
            unit = mpf("1e-20")
        else:
            magnitude = math.floor(float(log(abs(ref), 10)))
            unit = mpf(10) ** (magnitude - (_sig_digits(stored_string) - 1))
        tol = max(unit, mpf("1e-20") * scale)
        return abs(mpf(fresh) - ref) <= tol


def _stored_values(frozen):
    """Flatten tests/_frozen.py into the same naming scheme as
    :func:`compute_constants`."""
    out = {}
    scalars = (
        "G_AT_1",
        "C_EXACT",
        "LAMBDA_AT_1",
        "PHI_AT_4",
        "PSI_AT_QUARTER",
        "GAP2_G_AT_0p01_1",
        "H0_CERT",
        "H_AT_1p185_CERT",
        "F_AT_1p185_CERT",
        "F_AT_1p137_CERT",
        "F_AT_0p016_CERT",
        "F_PRIME_AT_1_CERT",
        "H_SECOND_AT_1_CERT",
        "GAP3_AT_WITNESS_CERT",
        "GAP2_AT_WITNESS_CERT",
        "GAP2_AT_MIXED_POINT_CERT",
        "HPRIME_SUP_CERT",
        "REGION_C_RHS_CERT",
        "REGION_B1_RHS_CERT",
        "REGION_B2_RHS_CERT",
        "NEARLINE_ALPHA_EXCESS",
        "ROLLE_V_G_HALF",
        "CONE_GAP_AT_20",
        "LIMINF_AT_600",
        "INV_SQRT_3",
    )
    for name in scalars:
        out[name] = getattr(frozen, name)
    for i in range(len(frozen.TABLE_MARGIN3_RECOMPUTED)):
        out[f"TABLE_MARGIN3_RECOMPUTED[{i}]"] = frozen.TABLE_MARGIN3_RECOMPUTED[i]
    for i in range(len(frozen.TABLE_GAP2_AT_WITNESS)):
        out[f"TABLE_GAP2_AT_WITNESS[{i}]"] = frozen.TABLE_GAP2_AT_WITNESS[i]
    for j in range(len(frozen.CONE_Q_SAMPLES)):
        out[f"CONE_Q_SAMPLES[{j}]"] = frozen.CONE_Q_SAMPLES[j]
    for j in range(len(frozen.CONE_PQ_SAMPLES)):
        out[f"CONE_PQ_SAMPLES[{j}]"] = frozen.CONE_PQ_SAMPLES[j]
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--check",
        action="store_true",
        help="compare against tests/_frozen.py instead of printing",
    )
    args = parser.parse_args(argv)

    fresh = compute_constants()
    if not args.check:
        for name, value in fresh.items():
            if isinstance(value, tuple):
                print(f"{name} = {value}")
            else:
                print(f'{name} = "{nstr(value, DIGITS)}"')
        return 0

    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tests"))
    import _frozen  # noqa: E402

    stored = _stored_values(_frozen)
    failures = []
    for name, fresh_value in fresh.items():
        if name not in stored:
            failures.append(f"{name}: missing from tests/_frozen.py")
            continue
        stored_value = stored[name]
        if isinstance(fresh_value, tuple):
            ok = tuple(stored_value) == fresh_value
        else:
            ok = _agrees(fresh_value, str(stored_value))
        status = "OK" if ok else "MISMATCH"
        print(f"{name}: {status}")
        if not ok:
            failures.append(
                f"{name}: stored {stored_value!r} vs fresh {nstr(fresh_value, DIGITS)}"
            )
    print()
    if failures:
        print(f"{len(failures)} mismatch(es):")
        for line in failures:
            print(f"  {line}")
        return 1
    print(f"all {len(fresh)} constants verified")
    return 0


if __name__ == "__main__":
    sys.exit(main())
