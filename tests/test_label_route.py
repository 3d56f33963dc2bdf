"""Divisor posets answered from their labels, against the relation route.

A ``Poset`` built from the same labels and the same relation has no labels
to read, so it takes the relation route at every step: meets and joins from
packed down-sets, convolutions by forward substitution, ideals, filters and
blocks from the dense relation.  Both routes must agree bit for bit.
"""

import math
import sys
from dataclasses import replace

import numpy as np
import pytest

import latmat
from latmat import CombinedSpec, Poset, PosetFunction, bounds, incidence
from latmat.poset import PosetError

from conftest import convolution_double_sum

BOUND_PAIRS = ((1.0, 0.0), (2.0, 1.0), (0.5, -0.5), (1.5, 0.5))
REGION_PAIRS = ((1.0, 0.0), (0.0, 1.0), (0.5, -0.5), (-1.0, 1.0), (1.5, -0.5))
C_USER = bounds.ConstantValue(0.5, "user")


@pytest.fixture
def twin(monkeypatch):
    """twin(spec): the spec on a relation-backed copy of its poset.  Only
    CombinedSpec._chain_product still sees the original's chains on the copy,
    so a whole divisor lattice is solved by the same product route on both."""
    chains = {}
    real = Poset._chains.func

    def patched(p):
        if p not in chains:
            return real(p)
        return chains[p] if sys._getframe(1).f_code is CombinedSpec._chain_product.__code__ else None

    monkeypatch.setattr(Poset, "_chains", property(patched))

    def make(spec):
        p = spec.f.parent
        q = Poset(p.elements, p.leq_matrix, _validate=False)
        chains[q] = real(p)
        return replace(spec, subset=q.subset(spec.subset.labels), f=PosetFunction(q, spec.f.values))

    return make


def _outcome(compute):
    try:
        return compute()
    except (latmat.HypothesisError, latmat.LatticeError, latmat.FactorizationError) as exc:
        return type(exc).__name__, str(exc)


def results(spec, c_value):
    s, f, a, b = spec.subset, spec.f, spec.alpha, spec.beta
    out = {"meet": s.pair_indices("meet"), "join": s.pair_indices("join")}
    for name, conv, exponent in (("down", incidence.down_convolution, a - b), ("up", incidence.up_convolution, b - a)):
        got = _outcome(lambda: conv(f, exponent, s))
        out[name] = got if isinstance(got, tuple) else (got.domain.labels, got.values)
    out["spectrum"] = (spec.spectrum.eigenvalues, spec.spectrum.iterations, spec.spectrum.offdiag_residual)
    for report in (bounds.lower_bound_meet, bounds.lower_bound_join, bounds.region_meet_closed, bounds.region_join_closed):
        got = _outcome(lambda: report(spec, c_value))
        out[report.__name__] = got if isinstance(got, tuple) else vars(got)
    return out


def assert_identical(x, y, where=""):
    if isinstance(x, dict):
        assert x.keys() == y.keys(), where
        for key in x:
            assert_identical(x[key], y[key], f"{where}.{key}")
    elif isinstance(x, (tuple, list)):
        assert type(x) is type(y) and len(x) == len(y), where
        for k, (u, v) in enumerate(zip(x, y)):
            assert_identical(u, v, f"{where}[{k}]")
    elif isinstance(x, np.ndarray):
        assert x.dtype == y.dtype and x.shape == y.shape and x.tobytes() == y.tobytes(), where
    else:
        assert x == y, where


def assert_routes_agree(spec, twin, c_value=C_USER):
    assert spec.f.parent._chains is not None
    label = results(spec, c_value)
    assert "_leq" not in vars(spec.f.parent)  # the label route never formed the relation
    assert_identical(label, results(twin(spec), c_value))


@pytest.mark.parametrize("alpha, beta", BOUND_PAIRS)
def test_gcd_power_family_routes_agree(alpha, beta, twin):
    for n in range(1, 29):
        assert_routes_agree(bounds.gcd_power_family(n, alpha, beta), twin)


@pytest.mark.parametrize("alpha, beta", BOUND_PAIRS + REGION_PAIRS)
@pytest.mark.parametrize("m", [720, 2520, 10080])
def test_whole_divisor_lattice_routes_agree(m, alpha, beta, twin):
    spec = bounds.divisor_closed_family(m, alpha, beta)
    assert_routes_agree(spec, twin, bounds.resolve_C(len(spec.subset), "tn"))


@pytest.mark.parametrize(
    "text, chains",
    [
        ("divisors: 1 2 4 6 12", None),  # mu(1, 6) = 0, where the integer mu(6) = 1
        ("elements: 1 2 3 4 6 12\ncovers:\n1 2\n1 3\n2 4\n2 6\n3 6\n4 12\n6 12\n", None),
        ("divisors: 1 4 16", [[1, 4, 16]]),
        ("divisors: 1 2 3 4 6 12", [[1, 2, 4], [1, 3]]),
    ],
    ids=["not-a-product", "covers-copy", "generator-4", "divisors-of-12"],
)
def test_which_posets_take_the_label_route(text, chains):
    p = latmat.parse_poset(text)
    assert p._chains == chains
    s, f = p.subset(p.elements), PosetFunction.identity(p)
    for direction, conv in (("down", incidence.down_convolution), ("up", incidence.up_convolution)):
        got = conv(f, 1.0, s)
        want = [convolution_double_sum(p, f.values, 1.0, w, direction) for w in got.domain.labels]
        assert got.values.tolist() == pytest.approx(want, rel=1e-12)
    if text.endswith("1 2 4 6 12"):
        assert incidence.down_convolution(f, 1.0, s).entry(6) == 6 - 2  # not 6 - 2 - 3 + 1


def test_covers_copy_of_divisors_of_12_matches_the_label_route():
    p = latmat.divisor_poset(latmat.divisors_of(12))
    q = latmat.parse_poset(latmat.format_poset(p))
    for alpha, beta in BOUND_PAIRS + REGION_PAIRS:
        specs = [latmat.divisor_closed_family(12, alpha, beta)]
        specs.append(replace(specs[0], subset=q.subset(q.elements), f=PosetFunction.identity(q)))
        # the covers copy takes one 6 x 6 solve, not the product route
        got, want = (results(replace(sp, subset=sp.subset.parent.subset([1, 2, 3, 4, 6])), C_USER) for sp in specs)
        assert_identical(got, want)


@pytest.mark.parametrize("alpha, beta", BOUND_PAIRS[:1])
def test_generator_four_matches_the_relation_route(alpha, beta, twin):
    p = latmat.divisor_poset([1, 4, 16])
    spec = CombinedSpec(alpha, beta, 0.0, 0.0, p.subset(p.elements), PosetFunction.identity(p))
    assert_routes_agree(spec, twin)


def test_gcd_power_family_lattice_is_the_gcd_lcm_closure():
    for n in range(1, 29):
        got = bounds.gcd_power_family(n, 1.0, 0.0).f.parent
        want = latmat.divisor_lattice(range(1, n + 1))
        assert got.elements == want.elements
        assert np.array_equal(got.leq_matrix, want.leq_matrix)
    with pytest.raises(PosetError, match=r"must be below 2\*\*63") as caught:
        bounds.gcd_power_family(43, 1.0, 0.0)
    with pytest.raises(PosetError) as closure:
        latmat.divisor_lattice(range(1, 44))
    assert str(caught.value) == str(closure.value)


def test_bounds_on_gcd_power_family_32_never_form_the_relation(monkeypatch):
    def refuse(self):
        raise AssertionError("the dense relation was formed")

    monkeypatch.setattr(Poset, "_leq", property(refuse))
    spec = bounds.gcd_power_family(32, 1.0, 0.0)
    assert len(spec.f.parent) == 18432
    assert spec.f.parent.leq(4, 12) and not spec.f.parent.leq(12, 4)
    c = bounds.resolve_c(32, "thm52")
    for report in (bounds.lower_bound_meet(spec, c), bounds.lower_bound_join(spec, c)):
        assert report.holds and report.true_kappa > 0.0


@pytest.mark.parametrize("alpha, beta", REGION_PAIRS + BOUND_PAIRS)
@pytest.mark.parametrize("m", [720, 2520, 10080])
def test_union_blocks_are_the_per_chain_matrices(m, alpha, beta, monkeypatch):
    spec = bounds.divisor_closed_family(m, alpha, beta)
    solved = []
    solve = latmat.matrices.eigen_symmetric
    monkeypatch.setattr(latmat.matrices, "eigen_symmetric", lambda a: solved.append(a) or solve(a))
    spec.spectrum
    f, want = spec.f, []
    for chain in spec.f.parent._chains:  # each chain as a poset of its own, as the product route once did
        q = latmat.divisor_poset(chain)
        want.append(latmat.combined_matrix(replace(spec, subset=q.subset(chain), f=PosetFunction(q, [f(x) for x in chain]))))
    assert len(solved) == len(want)
    for got, ref in zip(solved, want):
        assert got.tobytes() == ref.tobytes()


@pytest.mark.parametrize("alpha, beta", REGION_PAIRS)
@pytest.mark.parametrize("m", [720, 2520, 10080])
def test_region_discs_match_the_loop(m, alpha, beta):
    spec = bounds.divisor_closed_family(m, alpha, beta)
    tn = bounds.resolve_C(len(spec.subset), "tn").value
    verdicts = set()
    # from discs that hold no eigenvalue to discs that hold them all
    for scale in np.geomspace(1e-8, 1.0, 17):
        cval = bounds.ConstantValue(scale * tn, "user")
        for region, b in ((bounds.region_meet_closed, beta), (bounds.region_join_closed, alpha)):
            report = region(spec, cval)
            fs = [spec.f.value_at(i) for i in spec.subset.indices]
            fpow = max(latmat.real_power(abs(v), 2.0 * (b - spec.gamma)) for v in fs)
            h = cval.value * fpow * float(np.abs(report.d_values).max())
            diag_exp = spec.alpha + spec.beta - 2.0 * spec.gamma
            discs = [(latmat.real_power(v, diag_exp), h - latmat.real_power(abs(v), diag_exp)) for v in fs]
            contained = all(
                any(abs(lam - c) - r <= bounds.REPORT_TOL * max(1.0, abs(lam)) for c, r in discs)
                for lam in report.eigenvalues
            )
            assert report.h_value == h
            assert report.discs == discs
            assert report.contained is contained
            verdicts.add(contained)
    assert verdicts == {False, True}


def test_exact_power_budget_refuses_before_any_power():
    with pytest.raises(ValueError, match="more than 65536"):
        incidence.exact_powers(np.array([2.0, 3.0]), 10**308)
    with pytest.raises(ValueError, match="more than 65536"):
        incidence.exact_powers(np.array([2.0, 3.0]), -(10**308))
    num, den = incidence.exact_powers(np.array([0.0, 1.0, -1.0]), 10**308)  # 0, 1 and 1 bit at most
    assert num.tolist() == [0, 1, 1] and den == 1
    within = incidence.EXACT_POWER_BITS // 2  # 3 has two bits
    num, den = incidence.exact_powers(np.array([2.0, 3.0]), -within)
    assert num == 1 and den.tolist() == [2**within, 3**within]
    with pytest.raises(ValueError, match="use a smaller exponent"):
        incidence.exact_powers(np.array([2.0, 3.0]), within + 1)


def test_exact_power_budget_reaches_the_matrix_and_the_convolutions():
    spec = latmat.divisor_closed_family(12, 100000.0, 0.0)
    with pytest.raises(ValueError, match="use a smaller exponent"):
        latmat.combined_matrix(spec)
    with pytest.raises(ValueError, match="use a smaller exponent"):
        incidence.down_convolution(spec.f, 100000.0, spec.subset)
    assert math.isfinite(latmat.combined_matrix(latmat.divisor_closed_family(12, 250.0, -250.0))[1, 2])


def _refuse_tables(monkeypatch, n, union):
    """Make every pair table or relation block of more than n entries raise,
    but the pair tables of the chain union; and any incidence matrix E."""
    pairs, block = latmat.ElementSubset.pair_indices, Poset._block

    def pair_indices(self, bound):
        if len(self) ** 2 > n and set(self.labels) != union:
            raise AssertionError(f"a {len(self)} x {len(self)} {bound} table was formed")
        return pairs(self, bound)

    def refuse_block(self, rows, cols):
        if np.size(rows) * np.size(cols) > n:
            raise AssertionError(f"a {np.size(rows)} x {np.size(cols)} block was formed")
        return block(self, rows, cols)

    def refuse_incidence(s):
        raise AssertionError("the incidence matrix was formed")

    monkeypatch.setattr(latmat.ElementSubset, "pair_indices", pair_indices)
    monkeypatch.setattr(Poset, "_block", refuse_block)
    monkeypatch.setattr(latmat.matrices, "incidence_matrix", refuse_incidence)


@pytest.mark.parametrize("alpha, beta", REGION_PAIRS)
def test_whole_lattice_regions_form_no_table(alpha, beta, monkeypatch):
    chains = latmat.divisor_poset(latmat.divisors_of(10080))._chains
    _refuse_tables(monkeypatch, 72, {1}.union(*chains))
    spec = bounds.divisor_closed_family(10080, alpha, beta)
    c = bounds.resolve_C(len(spec.subset), "tn")
    for region in (bounds.region_meet_closed, bounds.region_join_closed):
        report = region(spec, c)
        assert report.d_values.shape == (72,) and report.contained in (True, False)
    assert "_leq" not in vars(spec.f.parent)


@pytest.mark.parametrize("alpha, beta", [(1.0, 0.0), (-1.0, 1.0)])
def test_whole_divisor_lattice_of_2304_elements_routes_agree(alpha, beta, twin):
    spec = bounds.divisor_closed_family(9777287520, alpha, beta)
    assert len(spec.subset) == 2304
    assert_routes_agree(spec, twin, bounds.resolve_C(2304, "tn"))


def _regions(spec, c_value=C_USER):
    out = []
    for region in (bounds.region_meet_closed, bounds.region_join_closed):
        try:
            out.append(vars(region(spec, c_value)))
        except ValueError as exc:
            out.append((type(exc).__name__, str(exc)))
    return out


def _zero_at_6(p):
    return PosetFunction(p, [0.0 if x == 6 else float(x) for x in p.elements])


def _plus_one(p):
    return PosetFunction(p, [x + 1.0 for x in p.elements])


@pytest.mark.parametrize(
    "m, alpha, beta, make_f, labels, want",
    [
        # f(x) = x + 1 is positive but not multiplicative
        (720, 0.5, -0.5, _plus_one, None, [None, "the region condition |f(meet)f(join)/(f(x_i)f(x_j))|^e <= 1 fails for the pair (3, 2)"]),
        # an f with a zero
        (720, 1.0, 0.0, _zero_at_6, None, [None, "zero base with a negative exponent"]),
        (720, -1.0, 1.0, _zero_at_6, None, ["f vanishes at the meet of 6 and 6, which requires alpha >= 0"] * 2),
        (720, 0.5, -0.5, _zero_at_6, None, ["f vanishes at the join of 3 and 2, which requires beta >= 0"] * 2),
        # a proper subset S, meet closed but not join closed
        (720, 1.0, 0.0, PosetFunction.identity, latmat.divisors_of(720)[:-1], [None, "the join-side region requires a join closed set"]),
        # the meet side's beta past the rounding bound's premise, |beta| * 4k * 2**-53 <= 1e-12 / 8 for k = 3
        (30, 1.0, 100.0, PosetFunction.identity, None, [None, None]),
    ],
    ids=["not-multiplicative", "zero-1-0", "zero-neg-alpha", "zero-neg-beta", "proper-subset", "beta-past-premise"],
)
def test_regions_off_the_whole_lattice_route_take_the_table(m, alpha, beta, make_f, labels, want, twin, monkeypatch):
    # want: the table route's outcome on each side, error texts included
    p = latmat.divisor_poset(latmat.divisors_of(m))
    spec = CombinedSpec(alpha, beta, 0.0, 0.0, p.subset(labels or p.elements), make_f(p))
    ratios, real = [], bounds.pair_ratios
    monkeypatch.setattr(bounds, "pair_ratios", lambda s, f: ratios.append(len(s)) or real(s, f))
    got = _regions(spec)
    if m == 30:  # the table for the meet side only, whose exponent is beta
        assert ratios == [8]
        _regions(replace(spec, beta=90.0))  # within the premise
        assert ratios == [8]
    assert [g[1] if isinstance(g, tuple) else None for g in got] == want
    assert_identical(got, _regions(twin(spec)))
