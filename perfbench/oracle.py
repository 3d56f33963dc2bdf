"""Reference values and checks that do not use latmat.

Every check returns None when the output is correct and a one-line reason
otherwise.  References come from published tables, closed forms, or numpy
(gcd/lcm, min/max and LAPACK eigvalsh); nothing here imports latmat.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

# Published six-digit c_n column of the constants table.
TABLE1_CN = {1: 1.0, 2: 0.381966, 3: 0.198062, 4: 0.0870031, 5: 0.0370683, 6: 0.0148276}
TABLE1_TOL = 1e-5
# c_6 and the K(6) mask that attains it, pinned from an exhaustive scan.
C6_PINNED = 0.014827585246472258
C6_WITNESS_BITS = 22189
# C_6 is attained by the all-ones unit lower triangular matrix.
C6_MAX_WITNESS_BITS = (1 << 15) - 1
K6_MASKS = 1 << 15

# The Jacobi solver stops once the off-diagonal Frobenius norm is at most
# 1e-12 * ||M||_F, which by Weyl's inequality bounds each eigenvalue's
# distance from the diagonal.  Rounding adds at most about n * eps * ||M||_F
# per sweep, over at most 50 sweeps.
JACOBI_STOP = 1e-12
JACOBI_MAX_SWEEPS = 50
EPS = float(np.finfo(np.float64).eps)
MATRIX_RTOL = 1e-12
# Closed-form constants (t_n, thm52) agree with latmat's to this relative error.
CLOSED_FORM_RTOL = 1e-12


def eig_tol(m: np.ndarray) -> float:
    """Allowed eigenvalue disagreement for a symmetric matrix m."""
    n = m.shape[0]
    return (JACOBI_STOP + JACOBI_MAX_SWEEPS * n * EPS) * float(np.linalg.norm(m))


def closed_form_Cn(n: int) -> float:
    """Largest Gram eigenvalue of the all-ones unit lower triangular n x n matrix."""
    return 1.0 / (4.0 * math.sin(math.pi / (4 * n + 2)) ** 2)


def t_n(n: int) -> float:
    return math.sqrt(n * (n + 1) * (n * n + n + 1) / 6)


def thm52(n: int) -> float:
    return (6.0 / (n**4 + 2 * n**3 + 2 * n**2 + n)) ** ((n - 1) / 2.0)


def thm53(n: int) -> float:
    if n % 2 == 0:
        denom = n**4 + 56 * n**2 + 48 * n
    else:
        denom = n**4 + 50 * n**2 + 48 * n - 51
    return (48.0 / denom) ** ((n - 1) / 2.0)


def mask_gram(n: int, bits: int) -> np.ndarray:
    """Gram matrix X X^T of the K(n) member with the given strictly-lower bits."""
    x = np.eye(n)
    rows, cols = np.tril_indices(n, -1)
    for k, (i, j) in enumerate(zip(rows, cols)):
        x[i, j] = (bits >> k) & 1
    return x @ x.T


def divisors(m: int) -> np.ndarray:
    """All divisors of m, ascending."""
    small = [d for d in range(1, math.isqrt(m) + 1) if m % d == 0]
    return np.array(small + [m // d for d in reversed(small) if d * d != m], dtype=np.int64)


def power_matrix(labels, alpha: float, beta: float, order: str) -> np.ndarray:
    """meet(x_i, x_j)**alpha * join(x_i, x_j)**beta, divisibility or chain order."""
    a = np.asarray(labels, dtype=np.int64)
    if order == "divisors":
        meet = np.gcd.outer(a, a)
        join = np.lcm.outer(a, a)
    else:
        meet = np.minimum.outer(a, a)
        join = np.maximum.outer(a, a)
    return meet.astype(np.float64) ** alpha * join.astype(np.float64) ** beta


def check_matrix(got: np.ndarray, ref: np.ndarray):
    if got.shape != ref.shape:
        return f"matrix shape {got.shape} != reference {ref.shape}"
    err = float(np.abs(got - ref).max())
    if err > MATRIX_RTOL * float(np.abs(ref).max()):
        return f"matrix differs from the numpy gcd/lcm reference by {err:.3e}"
    return None


def check_eigenvalues(got, ref_matrix: np.ndarray):
    ref = np.linalg.eigvalsh(ref_matrix)
    got = np.sort(np.asarray(got, dtype=np.float64))
    if got.shape != ref.shape:
        return f"{got.size} eigenvalues, expected {ref.size}"
    err = float(np.abs(got - ref).max())
    if err > eig_tol(ref_matrix):
        return f"eigenvalues differ from eigvalsh by {err:.3e} > {eig_tol(ref_matrix):.3e}"
    return None


def check_kappa(got: float, ref_matrix: np.ndarray):
    ref = float(np.abs(np.linalg.eigvalsh(ref_matrix)).min())
    if abs(got - ref) > eig_tol(ref_matrix):
        return f"smallest |eigenvalue| {got!r} differs from eigvalsh {ref!r}"
    return None


# -- Mobius convolutions and the reports built on them ----------------------
#
# Every family here has f = identity and gamma = delta = 0, on a poset that
# is either all divisors of `top` or the chain 1 < 2 < ... < top.  On both,
# the convolutions of f**e have closed forms:
#   down(x) = x^e * prod_{p | x} (1 - p^-e)        chain: x^e - (x-1)^e
#   up(x)   = x^e * prod_{p | top/x} (1 - p^e)     chain: x^e - (x+1)^e
# A float sum of k signed terms is off by at most k * eps times the sum of
# their magnitudes, which is the same product with 1 + instead of 1 -.


def prime_divisors(n: int) -> list:
    out, p = [], 2
    while p * p <= n:
        if n % p == 0:
            out.append(p)
            while n % p == 0:
                n //= p
        p += 1
    return out + [n] if n > 1 else out


class Family:
    """The poset, S, and exponents of one combined-matrix family."""

    def __init__(self, labels, alpha: float, beta: float, order: str, top: int):
        self.labels = [int(x) for x in labels]
        self.alpha, self.beta, self.order, self.top = alpha, beta, order, top
        self.size = len(divisors(top)) if order == "divisors" else top

    def matrix(self) -> np.ndarray:
        return power_matrix(self.labels, self.alpha, self.beta, self.order)

    def conv(self, side: str, x: int):
        """(value, tolerance) of the meet-side (down) or join-side (up)
        convolution at x, with exponent alpha - beta resp. beta - alpha."""
        return (down_conv if side == "meet" else up_conv)(self, x)

    def conv_tol(self, magnitude: float) -> float:
        return (self.size + 8) * EPS * magnitude

    def is_whole_poset(self) -> bool:
        whole = divisors(self.top).tolist() if self.order == "divisors" else list(range(1, self.top + 1))
        return self.labels == whole


def down_conv(fam: Family, x: int):
    e = fam.alpha - fam.beta
    if fam.order == "chain":
        terms = [float(x) ** e, -(float(x - 1) ** e)] if x > 1 else [1.0]
        return sum(terms), fam.conv_tol(sum(abs(t) for t in terms))
    ps = prime_divisors(x)
    value = float(x) ** e * math.prod(1.0 - p ** -e for p in ps)
    return value, fam.conv_tol(float(x) ** e * math.prod(1.0 + p ** -e for p in ps))


def up_conv(fam: Family, x: int):
    e = fam.beta - fam.alpha
    if fam.order == "chain":
        terms = [float(x) ** e, -(float(x + 1) ** e)] if x < fam.top else [float(x) ** e]
        return sum(terms), fam.conv_tol(sum(abs(t) for t in terms))
    ps = prime_divisors(fam.top // x)
    value = float(x) ** e * math.prod(1.0 - p**e for p in ps)
    return value, fam.conv_tol(float(x) ** e * math.prod(1.0 + p**e for p in ps))


def _fpow_exponent(fam: Family, side: str) -> float:
    # the last factor of a bound, and the outer factor of a region's H
    return 2.0 * (fam.beta if side == "meet" else fam.alpha)


def check_bound(fam: Family, rep: dict, c_ref: float, c_rtol: float):
    """One lower-bound report: min_conv, min_fpow, bound = c * both, and
    bound <= the eigvalsh kappa, with `holds` saying so."""
    side = rep["side"]
    convs = [fam.conv(side, x) for x in fam.labels]
    min_conv, conv_tol = min(v for v, _ in convs), max(t for _, t in convs)
    if abs(rep["min_conv"] - min_conv) > conv_tol:
        return f"min_conv {rep['min_conv']!r} != closed form {min_conv!r}"
    min_fpow = min(float(x) ** _fpow_exponent(fam, side) for x in fam.labels)
    if abs(rep["min_fpow"] - min_fpow) > 8 * EPS * min_fpow:
        return f"min_fpow {rep['min_fpow']!r} != {min_fpow!r}"
    bound = c_ref * min_conv * min_fpow
    if abs(rep["bound"] - bound) > abs(bound) * (c_rtol + conv_tol / abs(min_conv) + 16 * EPS):
        return f"bound {rep['bound']!r} != c * min_conv * min_fpow = {bound!r}"
    ref = fam.matrix()
    err = check_kappa(rep["true_kappa"], ref)
    if err:
        return err
    kappa = float(np.abs(np.linalg.eigvalsh(ref)).min())
    if bound > kappa + eig_tol(ref):
        return f"bound {bound!r} exceeds the eigvalsh kappa {kappa!r}"
    if not rep["holds"]:
        return "the report says the bound does not hold"
    return None


def check_region(fam: Family, rep: dict, C_ref: float, C_rtol: float):
    """One inclusion-region report on S = the whole poset, listed in
    ascending order, where d_i is the convolution at x_i: d, H, the
    eigenvalues, and that the discs contain the eigvalsh spectrum."""
    if not fam.is_whole_poset():
        raise ValueError("the region reference covers S = the whole poset only")
    side = rep["side"]
    d = rep["d_values"]
    if len(d) != len(fam.labels):
        return f"{len(d)} d values, expected {len(fam.labels)}"
    convs = [fam.conv(side, x) for x in fam.labels]
    for x, got, (ref, tol) in zip(fam.labels, d, convs):
        if abs(got - ref) > tol:
            return f"d at {x} is {float(got)!r}, closed form {ref!r}"
    max_d = max(abs(v) for v, _ in convs)
    d_tol = max(t for _, t in convs)
    max_fpow = max(float(x) ** _fpow_exponent(fam, side) for x in fam.labels)
    h = C_ref * max_fpow * max_d
    h_tol = h * (C_rtol + d_tol / max_d + 16 * EPS)
    if abs(rep["H"] - h) > h_tol:
        return f"H {rep['H']!r} != C * max fpow * max |d| = {h!r}"
    ref = fam.matrix()
    err = check_eigenvalues(rep["eigenvalues"], ref)
    if err:
        return err
    # discs centred at x^(alpha+beta) with outer value H
    centres = np.array([float(x) ** (fam.alpha + fam.beta) for x in fam.labels])
    tol = eig_tol(ref) + h_tol
    for lam in np.linalg.eigvalsh(ref):
        if not np.any(np.abs(lam - centres) <= h - np.abs(centres) + tol):
            return f"eigenvalue {lam!r} lies in no disc"
    if not rep["contained"]:
        return "the report says the region does not contain the spectrum"
    return None


def check_c6(value: float):
    if abs(value - TABLE1_CN[6]) > TABLE1_TOL:
        return f"c_6 {value!r} is not the published {TABLE1_CN[6]}"
    g = mask_gram(6, C6_WITNESS_BITS)
    if abs(value - C6_PINNED) > eig_tol(g):
        return f"c_6 {value!r} differs from the pinned {C6_PINNED!r}"
    return None


def check_C6(value: float):
    ref = closed_form_Cn(6)
    if abs(value - ref) > eig_tol(mask_gram(6, C6_MAX_WITNESS_BITS)):
        return f"C_6 {value!r} differs from 1/(4 sin^2(pi/26)) = {ref!r}"
    return None


def check_scan(rmin, rmax):
    """Both results of one exhaustive K(6) scan."""
    for r, bits, pick in ((rmin, C6_WITNESS_BITS, 0), (rmax, C6_MAX_WITNESS_BITS, -1)):
        if r.witness.bits != bits:
            return f"{r.extremum} witness bits {r.witness.bits} != {bits}"
        if r.matrices_scanned != K6_MASKS:
            return f"scanned {r.matrices_scanned} masks, expected {K6_MASKS}"
        gram = mask_gram(6, bits)
        if abs(r.value - np.linalg.eigvalsh(gram)[pick]) > eig_tol(gram):
            return f"{r.extremum} value {r.value!r} is not the witness's eigvalsh eigenvalue"
    return check_c6(rmin.value) or check_C6(rmax.value)


# -- CLI report text -------------------------------------------------------

BOUNDS_KEYS = ("side", "bound", "c_value", "c_provenance", "min_conv", "min_fpow", "true_kappa", "holds")
REGION_KEYS = ("side", "C_value", "C_provenance", "H", "d_values", "eigenvalues", "contained")


def parse_reports(text: str):
    """Split `key: value` report text into one dict per `side:` block."""
    reports = []
    for line in text.splitlines():
        key, sep, value = line.partition(": ")
        if not sep or key.endswith("-side"):
            continue
        if key == "side":
            reports.append({})
        if reports:
            reports[-1][key] = value
    return reports


def parse_exponent(token: str) -> float:
    return float(Fraction(token))


def cli_family(argv) -> Family:
    """Family named by `--poset chain:n | divisors:<all divisors of m>` and `--exp a,b,0,0`."""
    opts = {}
    for k, arg in enumerate(argv):
        if arg.startswith("--"):
            name, eq, value = arg.partition("=")
            opts[name] = value if eq else argv[k + 1]
    alpha, beta, gamma, delta = (parse_exponent(t) for t in opts["--exp"].split(","))
    if gamma or delta:
        raise ValueError("the reference covers gamma = delta = 0 only")
    kind, _, rest = opts["--poset"].partition(":")
    if kind == "chain":
        return Family(range(1, int(rest) + 1), alpha, beta, "chain", int(rest))
    labels = sorted(int(t) for t in rest.split(","))
    fam = Family(labels, alpha, beta, "divisors", labels[-1])
    if not fam.is_whole_poset():
        raise ValueError("the reference covers divisor posets of all divisors of m only")
    return fam


def _floats(text: str) -> list:
    return [float(v) for v in text.split(",")]


def check_cli(kind: str, argv, code: int, text: str):
    """Exit code, report keys, provenance and values of one CLI run."""
    if code != 0:
        return f"exit code {code}: {text.strip()[-200:]}"
    if kind == "table1":
        return check_table1_text(text)
    reports = parse_reports(text)
    if not reports:
        return "no report in the output"
    fam = cli_family(argv)
    for rep in reports:
        keys = BOUNDS_KEYS if kind == "bounds" else REGION_KEYS
        missing = [k for k in keys if k not in rep]
        if missing:
            return f"report lacks {missing}"
        if kind == "bounds":
            if rep["c_provenance"] != "exact":
                return f"c_provenance is {rep['c_provenance']!r}"
            values = {k: float(rep[k]) for k in ("bound", "min_conv", "min_fpow", "true_kappa")}
            values.update(side=rep["side"], holds=rep["holds"] == "true")
            c_rtol = eig_tol(mask_gram(6, C6_WITNESS_BITS)) / C6_PINNED
            err = check_c6(float(rep["c_value"])) or check_bound(fam, values, C6_PINNED, c_rtol)
        else:
            if rep["C_provenance"] != "exact":
                return f"C_provenance is {rep['C_provenance']!r}"
            values = {
                "side": rep["side"],
                "H": float(rep["H"]),
                "d_values": _floats(rep["d_values"]),
                "eigenvalues": _floats(rep["eigenvalues"]),
                "contained": rep["contained"] == "true",
            }
            big_c = closed_form_Cn(6)
            C_rtol = eig_tol(mask_gram(6, C6_MAX_WITNESS_BITS)) / big_c
            err = check_C6(float(rep["C_value"])) or check_region(fam, values, big_c, C_rtol)
        if err:
            return f"{rep['side']} side: {err}"
    return None


def check_table1_text(text: str):
    rows = {}
    for line in text.splitlines()[1:]:
        parts = line.split()
        rows[int(parts[0])] = [float(v) for v in parts[1:]]
    if sorted(rows) != sorted(TABLE1_CN):
        return f"table rows {sorted(rows)} != {sorted(TABLE1_CN)}"
    for n, (lo_tn, lo_n0, cn) in rows.items():
        # the table prints six significant digits
        for got, ref, name in ((lo_tn, thm52(n), "thm52"), (lo_n0, thm53(n), "thm53"), (cn, TABLE1_CN[n], "c_n")):
            if abs(got - ref) > 1e-5 * abs(ref):
                return f"table row {n} {name} {got!r} != {ref!r}"
    return None
