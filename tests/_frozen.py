"""Frozen reference values for the test suite.

Every constant here was produced by an independent arbitrary-precision
computation (mpmath at 200 bits; regenerate with ``tools/freeze_oracle.py``)
of the same mathematical expressions the package implements.  Parameters are
binary64, lifted exactly, so these decimals are the true values of the exact
mathematical functions at the exact double inputs, correct to the digits
shown (25 significant digits unless noted).

Tests compare:
- high-precision results against these strings with tolerance 1e-20 (scaled);
- float64 results against these strings with a few-ulp tolerances;
- search results against the bracket constants (local minima of smooth
  basins: any convergent refinement lands inside the bracket).
"""

from __future__ import annotations

# The flagship parameter triple (mu, sigma, alpha) used throughout.
CERT_MU = 1.2
CERT_SIGMA = 0.05
CERT_ALPHA = 0.05

# The near-boundary triple for the honesty check of the certificate
# (alpha exceeds the outer-region bound by ~3.44e-10 and the mixed-region
# bound by a wide margin).
NEARLINE_MU = 1.5
NEARLINE_SIGMA = 0.05
NEARLINE_ALPHA = 0.117783036

# --- point values (200-bit oracle, 25 significant digits) -----------------

# g(1) = 1 + log 2
G_AT_1 = "1.693147180559945309417232"

# lambda(1/2) = log(9/8), the overlap constant C
C_EXACT = "0.1177830356563834545387941"
# float64 math.log(1.125) (the float path's value of eval_C), exact double
C_FLOAT = 0.11778303565638346

# lambda(1) = 2 log 2 - log 3
LAMBDA_AT_1 = "0.2876820724517809274392190"

# phi(0) = -2 exactly; phi(4) = 62 * exp(-16)
PHI_AT_4 = "6.977180832594065099854061e-6"

# psi(0.25) = 2 log(1.25) + log(0.75): a witness that psi(z) < 2z
PSI_AT_QUARTER = "0.1586050301766385840933712"

# gap(2, g, 0.01, 1.0), about log(1.01): a mixed-region point where the
# base-profile gap falls below 2|x| = 0.02 (the refuted chain's end-to-end
# bound) yet stays above 2 log(9/8) |x| (the true chain's bound)
GAP2_G_AT_0p01_1 = "0.009950330853168083054321117"

# Values at the flagship triple
H0_CERT = "7.020667798505482986516866e-251"  # h(0) = exp(-(mu/sigma)^2); NOT zero
H_AT_1p185_CERT = "0.9139311852712292673681823"
F_AT_1p185_CERT = "2.012312387811115016947687"
F_AT_1p137_CERT = "1.906623757385923813988865"
F_AT_0p016_CERT = "0.03187334915629014990605147"
F_PRIME_AT_1_CERT = "1.500000900281397754080662"
H_SECOND_AT_1_CERT = "0.002790872333037648918797317"

# gap(3, f, 0.016, 1.137) and gap(2, f, 0.016, 1.137) at the flagship triple
GAP3_AT_WITNESS_CERT = "-0.01006858295632066972311591"
GAP2_AT_WITNESS_CERT = "-0.00693872760082951961830673"

# gap(2, f, 0.0247, 1.1366): the order-2 nonnegativity failure of the
# flagship triple (mixed region), confirmed at 200 bits.
GAP2_AT_MIXED_POINT_CERT = "-0.010271409160720156396"

# Certificate bound values at the flagship triple
HPRIME_SUP_CERT = "17.15527769921413497729458"  # sqrt(2/e)/sigma
REGION_C_RHS_CERT = "0.05829109953992810831989444"  # sigma*sqrt(e/2)
REGION_B1_RHS_CERT = "1.061237243569579455854282"  # 1 + sigma*sqrt(3/2)
REGION_B2_RHS_CERT = "112.8015821749048659214692"  # 17 sigma^2/(54 phi((mu-1)/sigma))

# How far the near-boundary alpha exceeds C: 0.117783036 - log(9/8)
NEARLINE_ALPHA_EXCESS = "3.436165391982477384371544e-10"

# Curvature probe 4*(g(0) - 2*g(t/2) + g(t))/t^2 at t = 0.5 (20 digits)
ROLLE_V_G_HALF = "-0.65315191232408207287"

# --- reference table (five parameter rows, shared alpha) -------------------

TABLE_ALPHA = 0.117783036
# (mu, sigma, x_star, y_star, stored_margin)
TABLE_ROWS = (
    (1.5, 0.05, 0.00675, 1.45367, 0.001664770),
    (2.0, 0.10, 0.01050, 1.95491, 0.000326430),
    (2.5, 0.10, 0.00900, 2.45647, 0.000183238),
    (3.0, 0.10, 0.00750, 2.95886, 0.000105165),
    (5.0, 0.15, 0.00750, 4.96456, 0.000053255),
)

# Recomputed order-3 margins -gap(3, f, x_star, y_star) at the table rows
# (200-bit oracle).  They do NOT match the stored margins; rows 2-5 are not
# violations at all at their stated points.
TABLE_MARGIN3_RECOMPUTED = (
    "0.02785288499836081900221959",
    "-0.00121813359974028565355309",
    "-0.001941671072144424594938255",
    "-0.002431695132278622207981632",
    "-0.01312940702745874654647529",
)

# Order-2 gaps at the table points (200-bit): rows 1-4 are order-2
# violations at (or near) their own stated points; row 5 is not.
TABLE_GAP2_AT_WITNESS = (
    "-0.01865337647403025914342055",
    "-0.001219622698216875844647214",
    "-0.0001738001596482969498819284",
    "0.00060245046796587104301368",
    "0.008204484908230995480353403",
)

# --- scan brackets ---------------------------------------------------------

# Full-box scan ([-8, 8]^2, 801 x 801, 3 refinement rounds) minima: value
# brackets wide enough to absorb last-ulp differences between platforms'
# exp/log1p, narrow enough to pin the basin.
SCAN2_CERT_MIN_BRACKET = (-0.010273, -0.010270)
SCAN2_TABLE_MIN_BRACKETS = (
    (-0.06448, -0.06445),
    (-0.022684, -0.022680),
    (-0.018005, -0.018001),
    (-0.014791, -0.014787),
    (-1e-12, 1e-12),
)

# Refined violation margins at the flagship triple (high-precision values
# of the basin bottoms; brackets absorb refinement-path differences).
VIOLATION_MARGIN_BRACKETS = {
    1: (0.010870, 0.010885),  # oracle: 0.010877777731086849631
    2: (0.010264, 0.010279),  # oracle: 0.010271416953508275426
    3: (0.010070, 0.010083),  # oracle: 0.010076468367988920008
}
VIOLATION_POINT_HINTS = {
    1: (0.0516024, 1.1351609),
    2: (0.0246928, 1.1365924),
    3: (0.0162213, 1.1370544),
}

# --- cone constants --------------------------------------------------------

# (index, prime, q) for the shrinking-generator scale factors: q is the
# smallest integer with q > (2^n - 1) / sqrt(prime(2n-1)) ... equivalently
# the smallest q with p_n * q > 1 - 2^-n.
CONE_Q_SAMPLES = (
    (1, 2, 2),
    (2, 5, 7),
    (3, 11, 24),
    (10, 67, 8374),
    (20, 167, 13550576),
)
# p_n * q_n for those samples (200-bit; all in (1 - 2^-n, 1))
CONE_PQ_SAMPLES = (
    "0.7071067811865475244",
    "0.78262379212492639374",
    "0.90453403373329086794",
    "0.99906926468720697365",
    "0.99999909620470943835",
)
# 1 - p_20 * q_20 (must be < 2^-20 = 9.5367431640625e-7)
CONE_GAP_AT_20 = "9.03795290562e-7"

# liminf sequence: value at k = 600 is 1/(600*sqrt(3))
LIMINF_AT_600 = "0.00096225044864937627418"
INV_SQRT_3 = "0.57735026918962576451"


# mpmath is imported by the helpers below, not here: the benchmark reads
# these constants, and its exact-cone and scan workloads never use mpmath.


def as_mpf(decimal_string: str):
    """Parse a frozen decimal at high precision."""
    from mpmath import mpf, workprec

    with workprec(300):
        return mpf(decimal_string)


def close_to_frozen(value, decimal_string: str, tol: float = 1e-20) -> bool:
    """|value - frozen| <= tol * max(1, |frozen|), evaluated at 300 bits."""
    from mpmath import mpf, workprec

    with workprec(300):
        ref = mpf(decimal_string)
        return abs(mpf(value) - ref) <= mpf(tol) * max(1, abs(ref))


def rel_err(value, decimal_string: str) -> float:
    """Relative error of ``value`` against a frozen decimal."""
    from mpmath import mpf, workprec

    with workprec(300):
        ref = mpf(decimal_string)
        scale = max(1, abs(ref))
        return float(abs(mpf(value) - ref) / scale)
