"""Divisor posets answered from their labels, against the relation route.

A ``Poset`` built from the same labels and the same relation has no labels
to read, so it takes the relation route at every step: meets and joins from
packed down-sets, convolutions by forward substitution, ideals, filters and
blocks from the dense relation.  Both routes must agree bit for bit.
"""

import functools
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
    and the copied f as chain multiplicative, so a whole divisor lattice is
    solved by the same product route on both; every other step on the copy
    takes the relation route."""
    originals = {}  # copy -> original, for the poset and for f

    def only_in_the_product_route(cls, name, elsewhere):
        real = vars(cls)[name].func

        def patched(x):
            if x not in originals:
                return real(x)
            return real(originals[x]) if sys._getframe(1).f_code is CombinedSpec._chain_product.__code__ else elsewhere

        monkeypatch.setattr(cls, name, property(patched))

    only_in_the_product_route(Poset, "_chains", None)
    only_in_the_product_route(PosetFunction, "_chain_multiplicative", False)

    def make(spec):
        p = spec.f.parent
        q = Poset(p.elements, p.leq_matrix, _validate=False)
        f = PosetFunction(q, spec.f.values)
        originals[q], originals[f] = p, spec.f
        return replace(spec, subset=q.subset(spec.subset.labels), f=f)

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


def chain_labels(p):
    """The labels 1, q, ..., q^e of each chain of p."""
    return [[p.label_of(i) for i in members] for members in p._chains.members()]


@pytest.mark.parametrize(
    "text, generators, caps",
    [
        ("divisors: 1 2 4 6 12", None, None),  # mu(1, 6) = 0, where the integer mu(6) = 1
        ("elements: 1 2 3 4 6 12\ncovers:\n1 2\n1 3\n2 4\n2 6\n3 6\n4 12\n6 12\n", None, None),
        ("divisors: 1 4 16", (4,), (2,)),
        ("divisors: 1 2 3 4 6 12", (2, 3), (2, 1)),
        ("divisors: 1", (), ()),
    ],
    ids=["not-a-product", "covers-copy", "generator-4", "divisors-of-12", "one"],
)
def test_which_posets_take_the_label_route(text, generators, caps):
    p = latmat.parse_poset(text)
    if generators is None:
        assert p._chains is None
    else:
        chains = p._chains
        assert (chains.q, chains.e) == (generators, caps)
        assert chains.exponents.shape == (len(p), len(generators))
        for i, x in enumerate(p.elements):  # x is the product of its generators' powers, at its code
            assert x == math.prod(q**k for q, k in zip(generators, chains.exponents[i].tolist()))
            assert chains.index[chains.exponents[i] @ chains.strides] == i
    s, f = p.subset(p.elements), PosetFunction.identity(p)
    for direction, conv in (("down", incidence.down_convolution), ("up", incidence.up_convolution)):
        got = conv(f, 1.0, s)
        want = [convolution_double_sum(p, f.values, 1.0, w, direction) for w in got.domain.labels]
        assert got.values.tolist() == pytest.approx(want, rel=1e-12)
    if text.endswith("1 2 4 6 12"):
        assert incidence.down_convolution(f, 1.0, s).entry(6) == 6 - 2  # not 6 - 2 - 3 + 1


@pytest.mark.parametrize("labels", [latmat.divisors_of(1), latmat.divisors_of(12), latmat.divisors_of(720), [1, 4, 16]])
def test_chain_pair_tables_are_gcd_and_lcm(labels):
    p = latmat.divisor_poset(labels)
    assert p._chains is not None
    for subset in (labels, labels[::2], labels[::-1]):
        s = latmat.ElementSubset(p, [p.index_of(x) for x in subset], validate=False)
        meets, joins = s.pair_indices("meet"), s.pair_indices("join")
        assert meets.dtype == joins.dtype == np.intp
        for a, x in enumerate(subset):
            for b, y in enumerate(subset):
                assert p.label_of(meets[a, b]) == math.gcd(x, y)
                assert p.label_of(joins[a, b]) == math.lcm(x, y)
    assert "_leq" not in vars(p)


@pytest.mark.parametrize("direction", ["down", "up"])
def test_substitution_convolutions_read_only_their_domain_block(direction):
    # {2d : d | 720} has no 1, so no chains: its convolutions take the forward substitution
    p = latmat.divisor_poset([2 * d for d in latmat.divisors_of(720)])
    assert p._chains is None
    labels = p.elements[:6] if direction == "down" else p.elements[-6:]
    conv = incidence.down_convolution if direction == "down" else incidence.up_convolution
    got = conv(PosetFunction.identity(p), 1.0, p.subset(labels))
    assert "_leq" not in vars(p)
    q = Poset(p.elements, p.leq_matrix, _validate=False)  # the relation route
    want = conv(PosetFunction.identity(q), 1.0, q.subset(labels))
    assert got.domain.labels == want.domain.labels
    assert got.values.tobytes() == want.values.tobytes()


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
    for chain in chain_labels(spec.f.parent):  # each chain as a poset of its own, as the product route once did
        q = latmat.divisor_poset(chain)
        want.append(latmat.combined_matrix(replace(spec, subset=q.subset(chain), f=PosetFunction(q, [f(x) for x in chain]))))
    assert len(solved) == len(want)
    for got, ref in zip(solved, want):
        assert got.tobytes() == ref.tobytes()


def _assert_region_is_the_loop(spec, report, cval, b):
    """The report's H, discs and verdict against one literal loop over every
    eigenvalue and every disc."""
    fs = spec.f.values[list(spec.subset.indices)].tolist()
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
            _assert_region_is_the_loop(spec, report, cval, b)
            verdicts.add(report.contained)
    assert verdicts == {False, True}


@pytest.mark.parametrize("alpha, beta", [(1.0, 0.0), (2.0, 1.0)])
def test_region_negative_centers_match_the_loop(alpha, beta):
    # f = 1, -2, -3, 6 is semimultiplicative on the divisors of 6, and alpha + beta is
    # integral, so centers of both signs, whose radii are H - |center|
    p = latmat.divisor_poset([1, 2, 3, 6])
    spec = CombinedSpec(alpha, beta, 0.0, 0.0, p.subset(p.elements), PosetFunction(p, [1.0, -2.0, -3.0, 6.0]))
    verdicts = set()
    for scale in np.geomspace(1e-3, 1.0, 7):
        cval = bounds.ConstantValue(scale * latmat.t_n(4), "user")
        for region, b in ((bounds.region_meet_closed, beta), (bounds.region_join_closed, alpha)):
            report = region(spec, cval)
            assert min(center for center, _ in report.discs) < 0.0
            _assert_region_is_the_loop(spec, report, cval, b)
            verdicts.add(report.contained)
    assert verdicts == {False, True}


@pytest.mark.parametrize("scale, contained", [(0.01, True), (0.005, False)])
def test_region_eigenvalues_outside_the_widest_disc_meet_every_disc(scale, contained):
    # f = (-1)^i x on the divisors of 12 puts centers of both signs; at 0.01 t_6 the
    # meet side's eigenvalue -36.895 lies outside the widest disc (center 1, radius
    # 36.475) but inside the disc at -2, so only the pass over every disc holds it
    p = latmat.divisor_poset(latmat.divisors_of(12))
    f = PosetFunction(p, [(-1) ** i * x for i, x in enumerate(p.elements)])
    spec = CombinedSpec(0.0, 1.0, 0.0, 0.0, p.subset(p.elements), f)
    cval = bounds.ConstantValue(scale * latmat.t_n(6), "user")
    report = bounds.region_meet_closed(spec, cval)
    _assert_region_is_the_loop(spec, report, cval, 1.0)
    assert report.contained is contained
    center, radius = max(report.discs, key=lambda disc: disc[1])
    assert center == 1.0
    outside = [lam for lam in report.eigenvalues if abs(lam - center) - radius > bounds.REPORT_TOL * max(1.0, abs(lam))]
    assert min(report.eigenvalues) in outside  # the widest disc alone would give False
    assert abs(min(report.eigenvalues) + 36.895) < 1e-3


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
    _refuse_tables(monkeypatch, 72, {1}.union(*chain_labels(latmat.divisor_poset(latmat.divisors_of(10080)))))
    spec = bounds.divisor_closed_family(10080, alpha, beta)
    c = bounds.resolve_C(len(spec.subset), "tn")
    for region in (bounds.region_meet_closed, bounds.region_join_closed):
        report = region(spec, c)
        assert report.d_values.shape == (72,) and report.contained in (True, False)
    assert "_leq" not in vars(spec.f.parent)


def test_no_region_forms_the_incidence_matrix(monkeypatch):
    def refuse_incidence(s):
        raise AssertionError("the incidence matrix was formed")

    monkeypatch.setattr(latmat.matrices, "incidence_matrix", refuse_incidence)
    d360 = latmat.divisor_poset(latmat.divisors_of(360))
    relation = Poset(d360.elements, d360.leq_matrix, _validate=False)
    d720 = latmat.divisor_poset(latmat.divisors_of(720))
    cases = [  # S meet and join closed: the divisors of 180 in a relation-route poset, then a whole lattice
        (relation.subset(latmat.divisors_of(180)), PosetFunction.identity(relation)),
        (d720.subset(d720.elements), _plus_one(d720)),  # not multiplicative
    ]
    for s, f in cases:
        assert s.parent._chains is None or not f._chain_multiplicative
        sides = set()
        for alpha, beta in REGION_PAIRS:
            for report in _regions(CombinedSpec(alpha, beta, 0.0, 0.0, s, f)):
                if isinstance(report, dict):
                    assert report["d_values"].shape == (len(s),)
                    sides.add(report["side"])
        assert sides == {"meet", "join"}


@pytest.mark.parametrize("alpha, beta", BOUND_PAIRS)
def test_whole_lattice_lower_bounds_form_no_table(alpha, beta, monkeypatch):
    # no semimultiplicativity table: the rounding bound proves it for a chain multiplicative f
    _refuse_tables(monkeypatch, 2304, {1}.union(*chain_labels(latmat.divisor_poset(latmat.divisors_of(9777287520)))))
    spec = bounds.divisor_closed_family(9777287520, alpha, beta)
    c = bounds.resolve_c(2304, "thm52")
    for lower_bound in (bounds.lower_bound_meet, bounds.lower_bound_join):
        report = lower_bound(spec, c)
        assert report.holds and report.true_kappa > 0.0
    assert "_leq" not in vars(spec.f.parent)


def test_chain_proof_checks_form_no_pair_table(monkeypatch):
    # within the rounding proof's premises neither is_semimultiplicative nor the
    # region's ratio condition reaches a pair ratio or a meet or join table
    def refuse(*args):
        raise AssertionError("a pair table was formed")

    for owner, name in ((Poset, "_pairs"), (incidence, "pair_ratios"), (bounds, "pair_ratios")):
        monkeypatch.setattr(owner, name, refuse)
    spec = bounds.divisor_closed_family(9777287520, 1.0, 0.0)
    p = spec.f.parent
    assert latmat.is_semimultiplicative(spec.f)
    assert latmat.is_semimultiplicative(spec.f, p.subset(p.elements[5:]))
    for exponent in (-1.0, -0.5, 0.5, 1.0, 1.5):
        bounds._check_ratio_condition(spec, exponent)
    # off the premises both take the table: f + 1 is not multiplicative, and
    # the exponent 1e6 is past |exponent| * 4k * 2**-53 <= 1e-12 / 8
    with pytest.raises(AssertionError, match="pair table"):
        latmat.is_semimultiplicative(PosetFunction(p, spec.f.values + 1.0))
    with pytest.raises(AssertionError, match="pair table"):
        bounds._check_ratio_condition(spec, 1e6)


def test_chain_multiplicativity_is_decided_once_per_function(monkeypatch):
    calls, real = [], vars(PosetFunction)["_chain_multiplicative"].func
    counted = functools.cached_property(lambda f: calls.append(f) or real(f))
    counted.__set_name__(PosetFunction, "_chain_multiplicative")
    monkeypatch.setattr(PosetFunction, "_chain_multiplicative", counted)
    for alpha, beta in BOUND_PAIRS + REGION_PAIRS:
        spec = bounds.divisor_closed_family(10080, alpha, beta)
        spec.spectrum
        for region in (bounds.region_meet_closed, bounds.region_join_closed):
            region(spec, bounds.resolve_C(72, "tn"))
        for lower_bound in (bounds.lower_bound_meet, bounds.lower_bound_join):
            _outcome(lambda: lower_bound(spec, bounds.resolve_c(72, "thm52")))
        assert calls == [spec.f]
        calls.clear()


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
