"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v` (add -s to see the lines live).
"""

import math
import time

import numpy as np
import pytest

import latmat
from latmat import CombinedSpec, PosetFunction, combined_matrix, matrices_close

from conftest import euler_phi

TABLE1_CN = {
    1: 1.0,
    2: 0.381966,
    3: 0.198062,
    4: 0.0870031,
    5: 0.0370683,
    6: 0.0148276,
    7: 0.00581700,
}
TABLE1_LOWER_TN = {
    1: 1.0,
    2: 0.377964,
    3: 0.0384615,
    4: 0.00170747,
    5: 4.16233e-5,
    6: 6.36185e-7,
    7: 6.64148e-9,
}
TABLE1_LOWER_N0 = {
    1: 1.0,
    2: 0.377964,
    3: 0.0769231,
    4: 0.00674936,
    5: 5.40833e-4,
    6: 2.05280e-5,
    7: 8.16298e-7,
}


def _report(num, desc, ok):
    print(f"[criterion {num}] {desc}: {'PASS' if ok else 'FAIL'}")
    assert ok, f"criterion {num} failed: {desc}"


def _within_6_digits(value, listed):
    # one unit in the sixth significant digit of the listed value
    ulp = 10.0 ** (math.floor(math.log10(abs(listed))) - 5)
    return abs(value - listed) <= ulp


def test_criterion_1_cn_search_and_runtime(scan_table):
    ok = True
    for n, listed in TABLE1_CN.items():
        got = scan_table["results"][n][0].value
        ok &= abs(got - listed) <= 1e-5
    ok &= scan_table["elapsed"] <= 60.0
    _report(1, f"searched c_n matches the published column, 1e-5 abs, "
               f"{scan_table['elapsed']:.1f}s <= 60s", ok)


def test_criterion_2_closed_form_lower_bounds():
    ok = True
    for n in range(1, 8):
        ok &= _within_6_digits(latmat.cn_lower_bound_from_tn(n), TABLE1_LOWER_TN[n])
        ok &= _within_6_digits(latmat.cn_lower_bound_from_n0(n), TABLE1_LOWER_N0[n])
    _report(2, "both closed-form lower bound columns match to 6 significant digits", ok)


def test_criterion_3_conjecture_verification(scan_table):
    ok = True
    for n in range(2, 8):
        c_n = scan_table["results"][n][0].value
        ok &= abs(c_n - latmat.kappa_y0(n)) <= 1e-9
    _report(3, "searched minimum equals the conjectured witness value for n = 2..7", ok)


def _soundness_instances(rng):
    """Deterministic stream of (CombinedSpec, side) instances satisfying the
    lower-bound hypotheses: chains, diamonds, full divisor lattices and
    gcd/lcm closures, with semimultiplicative-by-construction functions."""
    pool_m = [12, 18, 20, 24, 30, 36, 40, 45, 48, 60]
    while True:
        kind = rng.integers(0, 4)
        alpha = float(rng.uniform(0.4, 2.5))
        beta = alpha - float(rng.uniform(0.4, 1.6))
        gamma = float(rng.uniform(-1.0, 1.0))
        if kind == 0:  # chain, strictly increasing positive values
            n = int(rng.integers(2, 7))
            p = latmat.chain_poset(n)
            vals = np.cumsum(rng.uniform(0.2, 1.5, size=n)) + 1.0
            f = PosetFunction(p, vals)
            s = p.subset(p.elements)
        elif kind == 1:  # diamond with f(b) f(c) = f(a) f(d)
            p = latmat.from_cover_relations(
                "abcd", [("a", "b"), ("a", "c"), ("b", "d"), ("c", "d")]
            )
            x, y = rng.uniform(1.2, 4.0, size=2)
            f = PosetFunction.from_mapping(p, {"a": 1.0, "b": x, "c": y, "d": x * y})
            s = p.subset(p.elements)
        elif kind == 2:  # full divisor lattice, f = N**u
            m = int(pool_m[rng.integers(0, len(pool_m))])
            p = latmat.divisor_poset(latmat.divisors_of(m))
            u = float(rng.uniform(0.3, 1.5))
            f = PosetFunction(p, [float(d) ** u for d in p.elements])
            size = int(rng.integers(2, 8))
            members = rng.choice(len(p), size=min(size, len(p)), replace=False)
            s = p.subset([p.elements[i] for i in sorted(members)])
        else:  # gcd/lcm closure of a random set (hypotheses checked below)
            base = rng.choice(np.arange(2, 61), size=int(rng.integers(2, 5)), replace=False)
            p = latmat.divisor_lattice(int(v) for v in base)
            if len(p) > 40:
                continue
            u = float(rng.uniform(0.3, 1.5))
            f = PosetFunction(p, [float(d) ** u for d in p.elements])
            size = int(rng.integers(2, min(8, len(p) + 1)))
            members = rng.choice(len(p), size=size, replace=False)
            s = p.subset([p.elements[i] for i in sorted(members)])
        spec = CombinedSpec(alpha, beta, gamma, gamma, s, f)
        yield spec, "meet"
        yield spec, "join"


def test_criterion_4_bound_soundness_sweep(cn_values):
    rng = np.random.default_rng(20240612)
    t0 = time.perf_counter()
    produced = 0
    violations = 0
    gen = _soundness_instances(rng)
    while produced < 200:
        spec, side = next(gen)
        n = len(spec.subset)
        c = latmat.ConstantValue(cn_values[n], "exact")
        fn = latmat.lower_bound_meet if side == "meet" else latmat.lower_bound_join
        try:
            report = fn(spec, c)
        except latmat.HypothesisError:
            continue  # instance fails this side's hypotheses; not a sound case
        produced += 1
        if not report.holds:
            violations += 1
    elapsed = time.perf_counter() - t0
    ok = violations == 0 and elapsed <= 60.0
    _report(4, f"200 randomized instances, {violations} violations, {elapsed:.1f}s <= 60s", ok)


def test_criterion_5_region_soundness(Cn_values):
    ok = True
    # lcm/gcd reciprocal matrices on the meet closed set {1..n}
    for n in range(2, 8):
        cval = latmat.ConstantValue(Cn_values[n], "exact")
        report = latmat.region_meet_closed(latmat.gcd_power_family(n, -1.0, 1.0), cval)
        ok &= report.contained
    # gcd/lcm reciprocal matrices on join closed divisor sets
    for m in (8, 12, 16, 18, 20):
        spec = latmat.divisor_closed_family(m, 1.0, -1.0)
        cval = latmat.ConstantValue(Cn_values[len(spec.subset)], "exact")
        ok &= latmat.region_join_closed(spec, cval).contained
    # (gcd/lcm)**alpha matrices; alpha = 1/2 has the published closed interval
    for n in range(2, 8):
        cval = latmat.ConstantValue(Cn_values[n], "exact")
        for alpha in (0.5, 1.0):
            spec = latmat.gcd_power_family(n, alpha, -alpha)
            report = latmat.region_meet_closed(spec, cval)
            ok &= report.contained
            if alpha == 0.5:
                lo, hi = latmat.totient_reciprocal_interval(n, cval)
                ok &= lo == pytest.approx(2.0 - cval.value * (n - 1), rel=1e-15)
                ok &= hi == pytest.approx(cval.value * (n - 1), rel=1e-15)
                eigs = report.eigenvalues
                ok &= bool(lo - 1e-9 <= eigs.min() and eigs.max() <= hi + 1e-9)
                rlo, rhi = latmat.interval_from_discs(report)
                ok &= lo - 1e-12 <= rlo and rhi <= hi + 1e-12
    _report(5, "reciprocal and power-ratio spectra stay inside the reported regions", ok)


def _reconstruction_cases(rng):
    yield latmat.chain_poset(2), None
    yield latmat.chain_poset(5), None
    yield latmat.from_cover_relations(
        "abcd", [("a", "b"), ("a", "c"), ("b", "d"), ("c", "d")]
    ), {"a": 1.0, "b": 2.0, "c": 3.0, "d": 6.0}
    produced = 0
    while produced < 50:
        m = int(rng.integers(2, 720))
        divs = latmat.divisors_of(m)
        if len(divs) > 24:
            continue
        produced += 1
        yield latmat.divisor_poset(divs), None


def test_criterion_6_factorization_reconstruction():
    rng = np.random.default_rng(7031)
    ok = True
    for p, mapping in _reconstruction_cases(rng):
        f = PosetFunction.identity(p) if mapping is None else PosetFunction.from_mapping(p, mapping)
        s = p.subset(p.elements)
        a = latmat.factor_ideal(s, f, 1.0)
        ok &= matrices_close(a @ a.T, latmat.meet_matrix(s, f, 1.0))
        b = latmat.factor_filter(s, f, -1.0)
        ok &= matrices_close(b @ b.T, latmat.join_matrix(s, f, -1.0))
        e, d = latmat.factor_meet_closed(s, f, 1.0)
        ok &= matrices_close(e @ np.diag(d) @ e.T, latmat.meet_matrix(s, f, 1.0))
        e, d = latmat.factor_join_closed(s, f, 1.0)
        ok &= matrices_close(e.T @ np.diag(d) @ e, latmat.join_matrix(s, f, 1.0))
        spec = CombinedSpec(2.0, 1.0, 0.5, 0.5, s, f)
        m = combined_matrix(spec)
        ok &= matrices_close(latmat.structure_meet(spec).product(), m)
        ok &= matrices_close(latmat.structure_join(spec).product(), m)
        p1, p2 = latmat.ideal_block_split(spec)
        ok &= matrices_close(p1 + p2, m)
        ok &= latmat.eigen_symmetric(p2).min >= -1e-10
    _report(6, "all factorizations reconstruct to 1e-10 and the split remainder is PSD", ok)


def test_criterion_7_closed_form_consistency(Cn_values):
    ok = True
    for n in range(1, 51):
        summed = sum((2 * (n - k) + 1) * k * k for k in range(1, n + 1))
        ok &= n * (n + 1) * (n * n + n + 1) == 6 * summed
        ok &= latmat.t_n(n) == pytest.approx(math.sqrt(summed), rel=1e-15)
    for n in range(2, 41):
        direct = latmat.n0_frobenius(n)
        closed = latmat.n0_frobenius_closed_form(n)
        ok &= abs(direct - closed) <= 1e-12 * max(1.0, closed)
    for n in range(1, 8):
        ok &= Cn_values[n] <= latmat.t_n(n) + 1e-12
    _report(7, "exact summation forms, norm closed forms, and the upper bound chain", ok)


def test_criterion_8_unit_determinants():
    ok = True
    for n in range(1, 6):
        for mask in latmat.enumerate_kn(n):
            eigs = latmat.eigen_symmetric(mask.gram().astype(float)).eigenvalues
            if abs(float(np.prod(eigs)) - 1.0) > 1e-8:
                ok = False
    _report(8, "every unit triangular Gram matrix has determinant 1 (n <= 5, full enumeration)", ok)


def test_criterion_9_smith_determinant():
    ok = True
    for n in range(1, 11):
        p = latmat.divisor_poset(range(1, n + 1))
        s = p.subset(p.elements)
        m = latmat.meet_matrix(s, PosetFunction.identity(p))
        det = float(np.prod(latmat.eigen_symmetric(m).eigenvalues))
        want = 1.0
        for i in range(1, n + 1):
            want *= euler_phi(i)
        ok &= abs(det - want) <= 1e-6 * max(1.0, abs(want))
    _report(9, "gcd-matrix eigenvalue product equals the totient product (n <= 10)", ok)


def test_table1_monotonicity(scan_table):
    values = [scan_table["results"][n][0].value for n in range(1, 8)]
    assert all(a > b for a, b in zip(values, values[1:]))


def test_constant_ordering_chain(cn_values, Cn_values):
    for n in range(1, 8):
        assert latmat.cn_lower_bound_from_tn(n) <= latmat.cn_lower_bound_from_n0(n) + 1e-15
        assert latmat.cn_lower_bound_from_n0(n) <= cn_values[n] + 1e-12
        assert cn_values[n] <= 1.0 + 1e-12 <= Cn_values[n] + 1e-12
        assert Cn_values[n] <= latmat.t_n(n) + 1e-12


def test_full_enumeration_positive_definite(scan_table):
    # the searched minimum over K(5) is positive, so every Gram matrix is PD
    assert scan_table["results"][5][0].value > 0.0
