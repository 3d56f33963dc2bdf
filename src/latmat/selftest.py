"""Built-in invariant suite behind the `latmat selftest` subcommand.

Each check re-derives an identity the library relies on and compares against
an independent computation.  Kept fast enough to run after installation, so
the certified c_n searches stop at n = 5.
"""

from __future__ import annotations

import math

import numpy as np

from . import bounds, constants, matrices
from .incidence import PosetFunction, down_convolution, is_semimultiplicative, up_convolution
from .matrices import CombinedSpec, combined_matrix, matrices_close
from .poset import chain_poset, divisor_lattice, divisor_poset, divisors_of, from_cover_relations
from .spectra import eigen_symmetric


def _mobius_cases():
    d60 = divisor_poset(divisors_of(60))
    diamond = from_cover_relations("abcd", [("a", "b"), ("a", "c"), ("b", "d"), ("c", "d")])
    return (d60, PosetFunction.identity(d60)), (diamond, PosetFunction(diamond, [1, 2, 3, 6]))


def _check_mobius():
    for p, _ in _mobius_cases():
        mu, zeta, eye = p.mobius().matrix, p.leq_matrix.astype(np.int64), np.eye(len(p), dtype=np.int64)
        if not (np.array_equal(zeta @ mu, eye) and np.array_equal(mu @ zeta, eye)):
            return False
    return True


def _check_convolutions_by_mobius():
    # the substitution behind the bounds, against the public Mobius table in ints
    for p, f in _mobius_cases():
        mu, s = p.mobius().matrix.astype(object), p.subset(p.elements[1:-1])
        for a in (0, 1, 2):
            fa = np.array([int(v) ** a for v in f.values], dtype=object)
            for conv, want in ((down_convolution(f, a, s), fa @ mu), (up_convolution(f, a, s), fa @ mu.T)):
                if conv.values.tolist() != [float(want[i]) for i in conv.domain.indices]:
                    return False
    return True


def _check_gcd_oracle():
    p = divisor_poset(divisors_of(120))
    for x in p.elements:
        for y in p.elements:
            if p.meet(x, y) != math.gcd(x, y) or p.join(x, y) != x * y // math.gcd(x, y):
                return False
    return True


def _check_totient_convolution():
    p = divisor_poset(range(1, 61))
    s = p.subset(p.elements)
    f = PosetFunction.identity(p)
    for alpha in (1, 2):
        conv = down_convolution(f, alpha, s)
        for label, got in zip(conv.domain.labels, conv.values):
            want = float(label) ** alpha
            for q in {k for k in range(2, label + 1) if label % k == 0 and all(k % d for d in range(2, k))}:
                want *= 1.0 - q ** (-alpha)
            if abs(got - want) > 1e-9 * max(1.0, abs(want)):
                return False
    return True


def _check_factorizations():
    cases = [(p, PosetFunction.identity(p)) for p in (chain_poset(5), divisor_lattice([36, 8]))]
    for p, f in cases + [_mobius_cases()[1]]:  # and the diamond, f = 1, 2, 3, 6
        s = p.subset(p.elements)
        a = matrices.factor_ideal(s, f, 1.0)
        if not matrices_close(a @ a.T, matrices.meet_matrix(s, f, 1.0)):
            return False
        # exponent -1 keeps the up-convolution positive for increasing f
        b = matrices.factor_filter(s, f, -1.0)
        if not matrices_close(b @ b.T, matrices.join_matrix(s, f, -1.0)):
            return False
        e, d = matrices.factor_meet_closed(s, f, 1.0)
        if not matrices_close(e @ np.diag(d) @ e.T, matrices.meet_matrix(s, f, 1.0)):
            return False
        e, d = matrices.factor_join_closed(s, f, 1.0)
        if not matrices_close(e.T @ np.diag(d) @ e, matrices.join_matrix(s, f, 1.0)):
            return False
    return True


def _check_structure_theorems():
    spec = bounds.divisor_closed_family(12, -1.0, 1.0)
    m = combined_matrix(spec)
    return matrices_close(matrices.structure_meet(spec).product(), m) and matrices_close(
        matrices.structure_join(spec).product(), m
    )


def _check_block_split():
    spec = bounds.gcd_power_family(6, 2.0, 1.0)
    m = combined_matrix(spec)
    p1, p2 = matrices.ideal_block_split(spec)
    if not matrices_close(p1 + p2, m):
        return False
    return eigen_symmetric(p2).min >= -1e-10


def _check_hadamard():
    rng = np.random.default_rng(7)
    a = rng.normal(size=(4, 4))
    b = rng.normal(size=(4, 4))
    c = np.diag(rng.normal(size=4))
    d = np.diag(rng.normal(size=4))
    return matrices.hadamard_diag_identity_check(a, b, c, d)


def _check_eigensolver():
    s = eigen_symmetric(np.array([[1.0, 1.0], [1.0, 2.0]]))
    gold = np.array([(3 - math.sqrt(5)) / 2, (3 + math.sqrt(5)) / 2])
    if np.abs(s.eigenvalues - gold).max() > 1e-12:
        return False
    rng = np.random.default_rng(11)
    m = rng.normal(size=(12, 12))
    m = m + m.T
    spec = eigen_symmetric(m)
    return abs(spec.eigenvalues.sum() - np.trace(m)) <= 1e-9 * max(1.0, abs(np.trace(m)))


def _check_chain_product():
    # the product route against one N x N Jacobi, on the 24 divisors of 360
    spec = bounds.divisor_closed_family(360, 0.5, -0.5)
    got, want = spec._chain_product(), eigen_symmetric(combined_matrix(spec)).eigenvalues
    return got is not None and np.abs(got.eigenvalues - want).max() <= 1e-12 * np.abs(want).max()


def _check_closed_forms():
    for n in range(1, 51):
        constants.t_n(n)  # raises if the two exact forms disagree
    for n in range(2, 41):
        direct = constants.n0_frobenius(n)
        closed = constants.n0_frobenius_closed_form(n)
        if abs(direct - closed) > 1e-12 * max(1.0, closed):
            return False
    return True


def _check_bound_equality_case():
    p = divisor_poset([1, 2])
    spec = CombinedSpec(1.0, 0.0, 0.0, 0.0, p.subset([1, 2]), PosetFunction.identity(p))
    c = bounds.resolve_c(2, "exact")
    report = bounds.lower_bound_meet(spec, c)
    return report.holds and abs(report.bound - report.true_kappa) <= 1e-12


def _check_bound_soundness_sample():
    for n in (3, 4, 5):
        c = bounds.resolve_c(n, "exact")
        spec = bounds.gcd_power_family(n, 1.0, 0.0)
        if not bounds.lower_bound_meet(spec, c).holds:
            return False
        spec = bounds.divisor_closed_family(2 ** (n - 1), 1.0, 0.0)
        if not bounds.lower_bound_join(spec, c).holds:
            return False
    return True


def _check_region_sample():
    spec = bounds.gcd_power_family(5, 0.5, -0.5)
    report = bounds.region_meet_closed(spec, bounds.resolve_C(5, "exact"))
    if not report.contained:
        return False
    lo, hi = bounds.interval_from_discs(report)
    return lo <= report.eigenvalues.min() and report.eigenvalues.max() <= hi


def _check_conjecture_small():
    return all(constants.verify_conjecture(n).holds for n in range(2, 6))


def _check_gram_determinants():
    for mask in constants.enumerate_kn(4):
        eigs = eigen_symmetric(mask.gram().astype(np.float64)).eigenvalues
        if abs(float(np.prod(eigs)) - 1.0) > 1e-8:
            return False
    return True


def _check_semimultiplicative():
    p = divisor_poset(divisors_of(36))
    return is_semimultiplicative(PosetFunction.identity(p))


CHECKS = [
    ("mobius matrix inverts zeta on both sides", _check_mobius),
    ("convolutions equal f^a times the mobius matrix", _check_convolutions_by_mobius),
    ("divisor meets/joins vs gcd/lcm", _check_gcd_oracle),
    ("down-convolution totient identity", _check_totient_convolution),
    ("square-root and diagonal factorizations", _check_factorizations),
    ("structure factorizations", _check_structure_theorems),
    ("ideal block split and PSD remainder", _check_block_split),
    ("hadamard diagonal identity", _check_hadamard),
    ("jacobi eigensolver", _check_eigensolver),
    ("divisor lattice spectra from prime chains", _check_chain_product),
    ("exact closed forms", _check_closed_forms),
    ("bound equality witness", _check_bound_equality_case),
    ("bound soundness sample", _check_bound_soundness_sample),
    ("region soundness sample", _check_region_sample),
    ("conjectured witness, n <= 5", _check_conjecture_small),
    ("unit gram determinants, n = 4", _check_gram_determinants),
    ("identity is semimultiplicative", _check_semimultiplicative),
]


def run(stream) -> bool:
    all_ok = True
    for name, fn in CHECKS:
        try:
            ok = bool(fn())
        except Exception as exc:
            ok = False
            stream.write(f"FAIL {name}: {exc!r}\n")
        else:
            stream.write(f"{'PASS' if ok else 'FAIL'} {name}\n")
        all_ok &= ok
    stream.write("selftest: " + ("all checks passed\n" if all_ok else "FAILURES\n"))
    return all_ok
