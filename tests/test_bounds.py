import math
from fractions import Fraction

import numpy as np
import pytest

import latmat
from latmat import (
    CombinedSpec,
    ConstantValue,
    HypothesisError,
    PosetFunction,
    interval_from_discs,
    lower_bound_join,
    lower_bound_meet,
    region_join_closed,
    region_meet_closed,
)

from conftest import euler_phi, jordan_totient, prime_factors


def c_exact(n):
    return latmat.resolve_c(n, "exact")


def C_exact(n):
    return latmat.resolve_C(n, "exact")


# -- lower bounds ----------------------------------------------------------------


def test_two_by_two_equality_case():
    # the searched minimizer at n = 2 is exactly the Gram of this gcd matrix,
    # so the bound is attained
    p = latmat.divisor_poset([1, 2])
    spec = CombinedSpec(1.0, 0.0, 0.0, 0.0, p.subset([1, 2]), PosetFunction.identity(p))
    report = lower_bound_meet(spec, c_exact(2))
    assert report.holds
    assert report.min_conv == 1.0  # phi(1) = phi(2) = 1
    assert report.min_fpow == 1.0
    assert abs(report.bound - report.true_kappa) <= 1e-12
    assert report.true_kappa == pytest.approx((3 - math.sqrt(5)) / 2, abs=1e-12)


def test_gcd_power_family_bound_formula():
    # bound factors must match the multiplicative closed form of the
    # convolution and the min of the squared-value powers
    for n, alpha, beta in [(5, 1.0, 0.0), (6, 2.0, 1.0), (4, 1.5, -0.5)]:
        spec = latmat.gcd_power_family(n, alpha, beta)
        report = lower_bound_meet(spec, c_exact(n))
        want_min_conv = min(jordan_totient(i, alpha - beta) for i in range(1, n + 1))
        want_min_fpow = min(1.0, float(n) ** (2 * beta))
        assert report.min_conv == pytest.approx(want_min_conv, rel=1e-12)
        assert report.min_fpow == pytest.approx(want_min_fpow, rel=1e-12)
        assert report.bound == pytest.approx(
            c_exact(n).value * want_min_conv * want_min_fpow, rel=1e-12
        )
        assert report.bound > 0.0
        assert report.holds


def test_join_bound_singleton_equality():
    p = latmat.divisor_poset([1, 2, 3, 4, 6, 12])
    f = PosetFunction.identity(p)
    spec = CombinedSpec(2.0, 1.0, 0.5, 0.5, p.subset([12]), f)
    report = lower_bound_join(spec, ConstantValue(1.0, "exact"))  # c_1 = 1
    # S = {top}: the filter collapses and the bound is attained exactly
    assert report.true_kappa == pytest.approx(144.0, rel=1e-12)
    assert report.bound == pytest.approx(144.0, rel=1e-12)
    assert report.holds


def test_join_bound_on_divisor_closed_set():
    spec = latmat.divisor_closed_family(12, 1.0, 0.0)
    report = lower_bound_join(spec, c_exact(6))
    assert report.holds
    assert report.bound <= report.true_kappa


def test_join_bound_equals_meet_bound_on_dual():
    # dualizing swaps meets with joins, so the join-side bound on P must
    # agree with the meet-side bound on the dual with alpha and beta swapped
    p = latmat.divisor_poset([1, 2, 3, 4, 6, 12])
    f = PosetFunction.identity(p)
    spec = CombinedSpec(2.0, 1.0, 0.5, 0.5, p.subset(p.elements), f)
    join_report = lower_bound_join(spec, c_exact(6))

    d = p.dual()
    fd = PosetFunction.identity(d)
    dual_spec = CombinedSpec(1.0, 2.0, 0.5, 0.5, d.subset(d.elements), fd)
    meet_report = lower_bound_meet(dual_spec, c_exact(6))

    assert join_report.bound == pytest.approx(meet_report.bound, rel=1e-12)
    assert join_report.true_kappa == pytest.approx(meet_report.true_kappa, rel=1e-10)


def test_meet_bound_requires_gamma_equal_delta():
    p = latmat.divisor_poset([1, 2])
    spec = CombinedSpec(1.0, 0.0, 1.0, 0.0, p.subset([1, 2]), PosetFunction.identity(p))
    with pytest.raises(HypothesisError, match="gamma = delta"):
        lower_bound_meet(spec, c_exact(2))


def test_meet_bound_requires_nonzero_f():
    p = latmat.divisor_poset([1, 2])
    f = PosetFunction.from_mapping(p, {1: 0.0, 2: 2.0})
    spec = CombinedSpec(1.0, 0.0, 0.0, 0.0, p.subset([1, 2]), f)
    with pytest.raises(HypothesisError, match="nowhere-zero"):
        lower_bound_meet(spec, c_exact(2))


def test_meet_bound_requires_semimultiplicative():
    p = latmat.divisor_poset([1, 2, 3, 6])
    f = PosetFunction.from_mapping(p, {1: 1.0, 2: 2.0, 3: 3.0, 6: 7.0})
    spec = CombinedSpec(1.0, 0.0, 0.0, 0.0, p.subset(p.elements), f)
    with pytest.raises(HypothesisError, match="semimultiplicative"):
        lower_bound_meet(spec, c_exact(4))


def test_meet_bound_positivity_violation_names_element():
    p = latmat.chain_poset(3)
    f = PosetFunction.from_mapping(p, {1: 1.0, 2: 3.0, 3: 2.0})
    spec = CombinedSpec(1.0, 0.0, 0.0, 0.0, p.subset(p.elements), f)
    with pytest.raises(HypothesisError, match="down-convolution.*violated at 3"):
        lower_bound_meet(spec, c_exact(3))


def test_join_bound_positivity_violation():
    p = latmat.chain_poset(3)
    f = PosetFunction.identity(p)
    spec = CombinedSpec(0.0, 1.0, 0.0, 0.0, p.subset(p.elements), f)
    with pytest.raises(HypothesisError, match="up-convolution"):
        lower_bound_join(spec, c_exact(3))


# The hypotheses are checked on S and its ideal or filter only: the cases below
# were not applicable while they were checked on the whole poset.


def _assert_both_sides_sound(spec, c):
    kappa = float(np.abs(np.linalg.eigvalsh(latmat.combined_matrix(spec))).min())
    for lower_bound in (lower_bound_meet, lower_bound_join):
        report = lower_bound(spec, c)
        assert report.holds
        assert report.true_kappa == pytest.approx(kappa, rel=1e-10)
        assert 0.0 < report.bound <= kappa


def test_bounds_need_semimultiplicativity_only_on_the_pairs_of_s():
    # f breaks f(x)f(y) = f(x meet y)f(x join y) only at 60 = lcm(4, 15), which
    # is not the meet or the join of any pair of S = {1..6}
    p = latmat.divisor_lattice(range(1, 7))  # the divisors of 60
    vals = {x: float(x) for x in p.elements}
    vals[60] = 61.0
    f = PosetFunction.from_mapping(p, vals)
    s = p.subset(range(1, 7))
    assert not latmat.is_semimultiplicative(f)
    assert latmat.is_semimultiplicative(f, s)
    for alpha, beta in ((1.0, 0.0), (2.0, 1.0)):
        _assert_both_sides_sound(CombinedSpec(alpha, beta, 0.0, 0.0, s, f), c_exact(6))


def test_bounds_need_meets_and_joins_only_on_the_pairs_of_s():
    # S is a diamond 0 < a, b < c; above c sits a bowtie (u, v below both w and
    # z), so u and v have no join and the poset is not a lattice
    p = latmat.from_cover_relations(
        ["0", "a", "b", "c", "u", "v", "w", "z", "1"],
        [("0", "a"), ("0", "b"), ("a", "c"), ("b", "c"), ("c", "u"), ("c", "v"),
         ("u", "w"), ("v", "w"), ("u", "z"), ("v", "z"), ("w", "1"), ("z", "1")],
    )
    assert not p.is_lattice()
    values = {"0": 1, "a": 2, "b": 3, "c": 6, "u": 12, "v": 12, "w": 24, "z": 24, "1": 48}
    f = PosetFunction.from_mapping(p, values)
    s = p.subset(["0", "a", "b", "c"])
    for alpha, beta in ((1.0, 0.0), (2.0, 1.0), (1.5, 0.5)):
        _assert_both_sides_sound(CombinedSpec(alpha, beta, 0.0, 0.0, s, f), c_exact(4))


def test_bounds_need_a_nonzero_f_only_on_s_and_its_closure():
    # f vanishes at 12, which is outside the order ideal of S = {1, 2, 4} but
    # inside its order filter
    p = latmat.divisor_poset([1, 2, 3, 4, 6, 12])
    f = PosetFunction.from_mapping(p, {1: 1.0, 2: 2.0, 3: 3.0, 4: 4.0, 6: 6.0, 12: 0.0})
    spec = CombinedSpec(1.0, 0.0, 0.0, 0.0, p.subset([1, 2, 4]), f)
    kappa = float(np.abs(np.linalg.eigvalsh(latmat.combined_matrix(spec))).min())
    report = lower_bound_meet(spec, c_exact(3))
    assert report.holds and 0.0 < report.bound <= kappa
    with pytest.raises(HypothesisError, match="nowhere-zero on S and its order filter; f vanishes at 12"):
        lower_bound_join(spec, c_exact(3))


def test_bounds_run_where_the_int64_mobius_table_overflows():
    # a bottom, 57 antichains of three, each below every element of the next,
    # and a top: |mu(bottom, x)| doubles per layer, past what the int64 Mobius
    # table holds; the convolutions substitute on the order relation instead
    layers = [[f"{k}.{i}" for i in range(3)] for k in range(57)]
    covers = [("0", x) for x in layers[0]] + [(x, "1") for x in layers[-1]]
    covers += [(x, y) for lower, upper in zip(layers, layers[1:]) for x in lower for y in upper]
    p = latmat.from_cover_relations(["0", *sum(layers, []), "1"], covers)
    with pytest.raises(RuntimeError, match="too large for exact int64"):
        p.mobius()
    values = {x: 4.0 ** (k + 1) for k, layer in enumerate(layers) for x in layer}
    f = PosetFunction.from_mapping(p, {"0": 1.0, "1": 4.0**58, **values})
    for bound, members in ((lower_bound_meet, ["0", "0.0", "1.0", "2.0"]), (lower_bound_join, ["55.0", "56.0", "1"])):
        spec = CombinedSpec(1.0, 0.0, 0.0, 0.0, p.subset(members), f)
        assert bound(spec, c_exact(len(members))).holds


def test_negative_integer_exponent_bound_is_correctly_rounded():
    # the join side of gcd(i, j) on S = {1..20} convolves x**-1 over the
    # divisors of L = lcm(1..20): x**-1 * prod over p | L/x of (1 - 1/p)
    top = math.lcm(*range(1, 21))
    exact = min(Fraction(1, x) * math.prod(1 - Fraction(1, q) for q in prime_factors(top // x)) for x in range(1, 21))
    report = lower_bound_join(latmat.gcd_power_family(20, 1.0, 0.0), ConstantValue(1.0, "user"))
    assert report.min_conv == float(exact) == 0.00950133457873396


def test_each_spec_is_solved_once(monkeypatch):
    # both sides of a bound, and both regions, share the spec's one spectrum
    calls = []
    solve = latmat.spectra.jacobi_eigenvalues
    monkeypatch.setattr(latmat.spectra, "jacobi_eigenvalues", lambda a, tol: calls.append(1) or solve(a, tol))
    spec = latmat.gcd_power_family(6, 1.0, 0.0)
    lower_bound_meet(spec, ConstantValue(0.1, "user"))
    lower_bound_join(spec, ConstantValue(0.1, "user"))
    assert len(calls) == 1
    spec = latmat.divisor_closed_family(12, -1.0, 1.0)
    meet = region_meet_closed(spec, ConstantValue(3.0, "user"))
    assert len(calls) == 3  # one chain per prime of 12 = 2^2 * 3
    join = region_join_closed(spec, ConstantValue(3.0, "user"))
    assert len(calls) == 3
    assert meet.eigenvalues is join.eigenvalues and not meet.eigenvalues.flags.writeable
    assert latmat.combined_matrix(spec) is not latmat.combined_matrix(spec)


def test_exact_c_never_solves_for_C_n(monkeypatch):
    def refuse(n):
        raise AssertionError("a lower bound does not need C_n")

    monkeypatch.setattr(latmat.constants, "search_Cn", refuse)
    monkeypatch.setattr(latmat.constants, "_scan_cache", {})
    assert latmat.resolve_c(6, "exact").value == 0.014827585246472258  # perfbench's pinned c_6


def test_bound_report_rendering():
    p = latmat.divisor_poset([1, 2])
    spec = CombinedSpec(1.0, 0.0, 0.0, 0.0, p.subset([1, 2]), PosetFunction.identity(p))
    text = lower_bound_meet(spec, c_exact(2)).render()
    for key in ("side:", "bound:", "c_value:", "c_provenance:", "min_conv:", "min_fpow:", "true_kappa:", "holds:"):
        assert key in text


def test_constant_resolvers():
    assert latmat.resolve_c(3, "thm52").value == pytest.approx(0.0384615, abs=1e-7)
    assert latmat.resolve_c(3, "thm53").provenance == "thm53"
    assert latmat.resolve_c(3, "y0").value == pytest.approx(0.198062, abs=1e-6)
    assert latmat.resolve_c(5, "0.25").value == 0.25
    assert latmat.resolve_c(5, "0.25").provenance == "user"
    assert latmat.resolve_C(4, "tn").value == latmat.t_n(4)
    with pytest.raises(ValueError, match="selector"):
        latmat.resolve_c(3, "bogus")
    with pytest.raises(ValueError, match="selector"):
        latmat.resolve_C(3, "bogus")


# -- inclusion regions -------------------------------------------------------------


def test_reciprocal_region_meet_closed():
    # lcm/gcd entries; every disc is centered at 1
    for n in (3, 5, 7):
        spec = latmat.gcd_power_family(n, -1.0, 1.0)
        report = region_meet_closed(spec, C_exact(n))
        assert all(c == 1.0 for c, _ in report.discs)
        assert report.contained
        lo, hi = interval_from_discs(report)
        assert lo <= report.eigenvalues.min() <= report.eigenvalues.max() <= hi


def test_reciprocal_region_join_closed():
    # gcd/lcm entries on a divisor closed set
    for m in (8, 12, 18):
        spec = latmat.divisor_closed_family(m, 1.0, -1.0)
        report = region_join_closed(spec, C_exact(len(spec.subset)))
        assert all(c == 1.0 for c, _ in report.discs)
        assert report.contained


def test_meet_matrix_region_special_case():
    # alpha=1, beta=0: the condition holds trivially and the region contains
    # the gcd-matrix spectrum
    spec = latmat.gcd_power_family(6, 1.0, 0.0)
    report = region_meet_closed(spec, C_exact(6))
    assert report.contained
    centers = [c for c, _ in report.discs]
    assert centers == [float(k) for k in range(1, 7)]


def test_join_matrix_region_special_case():
    spec = latmat.divisor_closed_family(12, 0.0, 1.0)
    report = region_join_closed(spec, C_exact(6))
    assert report.contained


def test_wintner_region_d_values_are_jordan():
    for n in (4, 6, 7):
        for alpha in (0.5, 1.0):
            spec = latmat.gcd_power_family(n, alpha, -alpha)
            report = region_meet_closed(spec, C_exact(n))
            want = [jordan_totient(i, 2 * alpha) for i in range(1, n + 1)]
            assert np.allclose(report.d_values, want, rtol=1e-12)
            assert report.contained


def test_totient_reciprocal_interval():
    n = 6
    cval = C_exact(n)
    spec = latmat.gcd_power_family(n, 0.5, -0.5)
    report = region_meet_closed(spec, cval)
    assert np.allclose(report.d_values, [euler_phi(i) for i in range(1, n + 1)])
    lo, hi = latmat.totient_reciprocal_interval(n, cval)
    assert lo == pytest.approx(2.0 - cval.value * (n - 1))
    assert hi == pytest.approx(cval.value * (n - 1))
    # the closed form majorizes the reported region
    rlo, rhi = interval_from_discs(report)
    assert lo <= rlo and rhi <= hi
    assert lo <= report.eigenvalues.min() <= report.eigenvalues.max() <= hi
    with pytest.raises(ValueError):
        latmat.totient_reciprocal_interval(1, cval)


def test_gcd_power_interval_closed_form():
    # the disc union collapses to [2 min(1, n^(a+b)) - H, H]
    for n, alpha, beta in [(5, 2.0, 1.0), (5, 1.0, -2.0)]:
        spec = latmat.gcd_power_family(n, alpha, beta)
        report = region_meet_closed(spec, C_exact(n))
        lo, hi = interval_from_discs(report)
        h = report.h_value
        want_lo = 2.0 * min(1.0, float(n) ** (alpha + beta)) - h
        assert hi == pytest.approx(h, rel=1e-12)
        assert lo == pytest.approx(want_lo, rel=1e-12)
        assert report.contained


def test_region_requires_meet_closed():
    p = latmat.divisor_poset([1, 2, 3, 4, 6, 12])
    f = PosetFunction.identity(p)
    spec = CombinedSpec(1.0, 0.0, 0.0, 0.0, p.subset([2, 3]), f)
    with pytest.raises(HypothesisError, match="meet closed"):
        region_meet_closed(spec, ConstantValue(3.0, "user"))


def test_region_requires_join_closed():
    p = latmat.divisor_poset(range(1, 7))
    f = PosetFunction.identity(p)
    spec = CombinedSpec(0.0, 1.0, 0.0, 0.0, p.subset([2, 3]), f)
    with pytest.raises(HypothesisError, match="join closed"):
        region_join_closed(spec, ConstantValue(3.0, "user"))


def test_region_condition_violation_names_pair(diamond):
    f = PosetFunction.from_mapping(diamond, {"a": 1.0, "b": 2.0, "c": 3.0, "d": 10.0})
    s = diamond.subset(diamond.elements)
    spec = CombinedSpec(1.0, 1.0, 0.0, 0.0, s, f)
    with pytest.raises(HypothesisError, match=r"fails for the pair \('c', 'b'\)"):
        region_meet_closed(spec, ConstantValue(5.0, "user"))


def test_semimultiplicative_satisfies_condition(diamond):
    # semimultiplicative by construction: f(b) f(c) = f(a) f(d)
    f = PosetFunction.from_mapping(diamond, {"a": 1.0, "b": 2.0, "c": 3.0, "d": 6.0})
    s = diamond.subset(diamond.elements)
    for beta in (-2.0, 1.0, 3.0):
        spec = CombinedSpec(1.0, beta, 0.0, 0.0, s, f)
        region_meet_closed(spec, ConstantValue(10.0, "user"))  # must not raise
    g = latmat.g_matrix(s, f, 5.0)
    assert np.allclose(g, 1.0, atol=1e-12)


def test_interval_from_discs_single_and_empty():
    rep = latmat.RegionReport(
        "meet",
        [(1.0, 0.5)],
        np.array([1.0]),
        1.5,
        ConstantValue(1.0, "user"),
        np.array([1.0]),
        True,
    )
    assert interval_from_discs(rep) == (0.5, 1.5)
    rep_neg = latmat.RegionReport(
        "meet",
        [(1.0, -0.25), (2.0, -0.1)],
        np.array([1.0]),
        0.0,
        ConstantValue(1.0, "user"),
        np.array([]),
        True,
    )
    with pytest.raises(ValueError, match="empty"):
        interval_from_discs(rep_neg)


def test_region_report_rendering():
    spec = latmat.gcd_power_family(3, -1.0, 1.0)
    text = region_meet_closed(spec, C_exact(3)).render()
    for key in ("side:", "C_value:", "C_provenance:", "H:", "d_values:", "eigenvalues:", "contained:", "discs"):
        assert key in text


# -- randomized soundness (small local sweep; the full one is in acceptance) -------


def test_soundness_sweep_small():
    rng = np.random.default_rng(99)
    checked = 0
    while checked < 30:
        n_chain = int(rng.integers(2, 6))
        vals = np.cumsum(rng.uniform(0.2, 2.0, size=n_chain)) + 1.0
        p = latmat.chain_poset(n_chain)
        f = PosetFunction(p, vals)
        alpha = float(rng.uniform(0.5, 2.5))
        beta = alpha - float(rng.uniform(0.5, 1.5))
        gamma = float(rng.uniform(-1.0, 1.0))
        spec = CombinedSpec(alpha, beta, gamma, gamma, p.subset(p.elements), f)
        c = c_exact(n_chain)
        assert lower_bound_meet(spec, c).holds
        assert lower_bound_join(spec, c).holds
        checked += 1
