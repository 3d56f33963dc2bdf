from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import latmat
from latmat import PosetFunction, PowerDomainError, down_convolution, up_convolution

from conftest import convolution_double_sum, euler_phi, jordan_totient, random_posets


# -- power rules ---------------------------------------------------------------


def test_zero_to_zero_is_one():
    assert latmat.real_power(0.0, 0.0) == 1.0


def test_zero_positive_exponent():
    assert latmat.real_power(0.0, 2.5) == 0.0


def test_zero_negative_exponent_errors():
    with pytest.raises(PowerDomainError, match="negative exponent"):
        latmat.real_power(0.0, -1.0)


def test_negative_base_integer_exponent():
    assert latmat.real_power(-2.0, 2.0) == 4.0
    assert latmat.real_power(-2.0, 3.0) == -8.0
    assert latmat.real_power(-2.0, 0.0) == 1.0


def test_negative_base_fractional_exponent_errors():
    with pytest.raises(PowerDomainError, match="non-integer"):
        latmat.real_power(-2.0, 0.5)


def test_reciprocal_power():
    assert latmat.real_power(2.0, -1.0) == 0.5


def test_power_value_on_function():
    p = latmat.divisor_poset([1, 2, 4])
    f = PosetFunction.identity(p)
    assert latmat.power_value(f, 4, -1.0) == 0.25


# -- function construction ------------------------------------------------------


def test_identity_requires_numeric_labels(diamond):
    with pytest.raises(ValueError, match="numeric"):
        PosetFunction.identity(diamond)


def test_from_mapping_missing_value(diamond):
    with pytest.raises(ValueError, match="no value"):
        PosetFunction.from_mapping(diamond, {"a": 1.0})


def test_builtin_names():
    p = latmat.chain_poset(3)
    assert PosetFunction.from_name(p, "N")(3) == 3.0
    assert PosetFunction.from_name(p, "const:2.5")(1) == 2.5
    with pytest.raises(ValueError, match="unknown built-in"):
        PosetFunction.from_name(p, "mystery")


def test_parse_function_file(diamond):
    f = latmat.parse_function(diamond, "# comment\na 1\nb 2\nc 3\nd 6\n")
    assert f("a") == 1.0 and f("d") == 6.0
    with pytest.raises(ValueError, match="line 2"):
        latmat.parse_function(diamond, "a 1\nb\n")
    with pytest.raises(ValueError, match="duplicate"):
        latmat.parse_function(diamond, "a 1\na 2\nb 1\nc 1\nd 1\n")


# -- convolutions ---------------------------------------------------------------


def test_down_convolution_chain_124():
    p = latmat.divisor_poset([1, 2, 4])
    s = p.subset([1, 2, 4])
    conv = down_convolution(PosetFunction.identity(p), 1.0, s)
    # 4*1 + 2*(-1) + 1*0 = 2 = phi(4)
    assert conv.entry(4) == 2.0
    assert conv.entry(1) == 1.0
    assert conv.entry(2) == 1.0


def test_down_convolution_bottom_entry(divisors12):
    f = PosetFunction.constant(divisors12, 3.0)
    conv = down_convolution(f, 2.0, divisors12.subset([1]))
    assert conv.entry(1) == 9.0  # single-term sum f(bottom)**alpha


def test_up_convolution_chain_entry():
    p = latmat.chain_poset(3)
    conv = up_convolution(PosetFunction.identity(p), 1.0, p.subset([1, 2, 3]))
    assert conv.entry(2) == -1.0  # 2 - 3
    assert conv.entry(3) == 3.0  # top entry is f(top)**alpha


def test_convolutions_match_double_sum_oracle(divisors12, diamond):
    fvals_d = {"a": 1.0, "b": 2.0, "c": 5.0, "d": 10.0}
    cases = [
        (divisors12, [float(x) for x in divisors12.elements], 1.0),
        (divisors12, [float(x) for x in divisors12.elements], -2.0),
        (diamond, [fvals_d[x] for x in diamond.elements], 2.0),
    ]
    for p, vals, alpha in cases:
        f = PosetFunction(p, vals)
        s = p.subset(p.elements)
        down = down_convolution(f, alpha, s)
        up = up_convolution(f, alpha, s)
        for w in p.elements:
            want = convolution_double_sum(p, np.array(vals), alpha, w, "down")
            assert down.entry(w) == pytest.approx(want, abs=1e-12, rel=1e-12)
            want = convolution_double_sum(p, np.array(vals), alpha, w, "up")
            assert up.entry(w) == pytest.approx(want, abs=1e-12, rel=1e-12)


def test_up_convolution_equals_down_on_dual(divisors12, m3):
    m3_values = {"0": 1.0, "a": 2.0, "b": 3.0, "c": 5.0, "1": 7.0}
    cases = [
        (divisors12, {x: float(x) for x in divisors12.elements}, [2, 3]),
        (m3, m3_values, ["a", "b"]),
        (m3, m3_values, ["0"]),
    ]
    for p, values, members in cases:
        up = up_convolution(PosetFunction.from_mapping(p, values), 1.0, p.subset(members))

        d = p.dual()
        down = down_convolution(PosetFunction.from_mapping(d, values), 1.0, d.subset(members))
        assert set(up.domain.labels) == set(down.domain.labels)
        for w in up.domain.labels:
            assert up.entry(w) == down.entry(w)


def test_convolutions_reject_function_on_another_poset():
    f = PosetFunction.identity(latmat.divisor_poset(latmat.divisors_of(12)))
    s = latmat.divisor_poset([1, 2, 4, 8, 16, 32]).subset([2])
    with pytest.raises(ValueError, match="different posets"):
        down_convolution(f, 1.0, s)
    with pytest.raises(ValueError, match="different posets"):
        up_convolution(f, 1.0, s)


def test_down_convolution_requires_bottom():
    p = latmat.divisor_poset([2, 3, 6])
    f = PosetFunction.identity(p)
    with pytest.raises(latmat.LatticeError, match="bottom"):
        down_convolution(f, 1.0, p.subset([6]))


def test_jordan_totient_identity():
    # down-convolution of the identity over {1..n} equals the multiplicative
    # closed form, for every entry
    n = 200
    p = latmat.divisor_poset(range(1, n + 1))
    s = p.subset(p.elements)
    f = PosetFunction.identity(p)
    for alpha in (1, 2, 3):
        conv = down_convolution(f, float(alpha), s)
        for m in p.elements:
            want = jordan_totient(m, alpha)
            assert conv.entry(m) == pytest.approx(want, rel=1e-12, abs=1e-9)


def test_euler_phi_special_case():
    p = latmat.divisor_poset(range(1, 40))
    conv = down_convolution(PosetFunction.identity(p), 1.0, p.subset(p.elements))
    for m in p.elements:
        assert conv.entry(m) == euler_phi(m)


def test_mobius_inversion_roundtrip(divisors12):
    # summing the convolution over the interval below w recovers f(w)**alpha
    f = PosetFunction.identity(divisors12)
    for alpha in (1.0, 2.0, -1.0):
        conv = down_convolution(f, alpha, divisors12.subset(divisors12.elements))
        for w in divisors12.elements:
            total = sum(conv.entry(z) for z in divisors12.elements if divisors12.leq(z, w))
            want = latmat.real_power(float(w), alpha)
            assert total == pytest.approx(want, rel=1e-12)


def test_exact_integer_path_matches_float():
    p = latmat.divisor_poset(range(1, 31))
    s = p.subset(p.elements)
    f_int = PosetFunction.identity(p)
    f_float = PosetFunction(p, [v * 1.0 for v in p.elements])
    exact = down_convolution(f_int, 2.0, s)
    # perturbing integrality forces the float path; results must agree
    assert f_float.is_integer_valued
    wide = down_convolution(PosetFunction(p, f_float.values + 0.0), 2.0, s)
    assert np.allclose(exact.values, wide.values, rtol=1e-12)


# -- substitution against the Mobius table and exact references -------------------


@st.composite
def bounded_cases(draw, values=st.one_of(st.integers(1, 30), st.floats(0.1, 50.0))):
    """A random poset with a bottom and a top adjoined, an f with the given
    values, and a member set of one to four elements."""
    p = draw(random_posets())
    covers = list(p.covers) + [("bot", x) for x in p.elements] + [(x, "top") for x in p.elements]
    q = latmat.from_cover_relations(["bot", *p.elements, "top"], covers + [("bot", "top")])
    f = PosetFunction(q, draw(st.lists(values, min_size=len(q), max_size=len(q))))
    return f, q.subset(draw(st.lists(st.sampled_from(q.elements), min_size=1, max_size=4, unique=True)))


def _mobius_terms(f, alpha, conv, exact):
    """The terms f(z)**alpha * mu(z, w) of each entry w of a convolution, from
    the public Mobius table (mu(w, z) on the up side), as domain x domain: in
    floats, or in Fractions of the powers the library substitutes (exact for
    integer-valued f and an integer exponent, else the float powers)."""
    mu = conv.domain.parent.mobius().matrix
    idx = list(conv.domain.indices)
    block = mu[np.ix_(idx, idx)] if conv.direction == "down" else mu.T[np.ix_(idx, idx)]
    if exact and f.is_integer_valued and alpha == int(alpha):
        fa = [Fraction(int(v)) ** int(alpha) for v in f.values[idx]]
    else:
        fa = [Fraction(latmat.real_power(v, alpha)) if exact else latmat.real_power(v, alpha) for v in f.values[idx]]
    return np.array(fa, dtype=object if exact else np.float64)[:, None] * block


def _correctly_rounded(f, alpha, conv):
    return conv.values.tolist() == [float(x) for x in _mobius_terms(f, alpha, conv, exact=True).sum(axis=0)]


@settings(max_examples=80, deadline=None)
@given(bounded_cases(), st.sampled_from((0.0, 1.0, 2.0, 3.0, -1.0, -2.0, 0.5, -1.5, 2.5)))
def test_substitution_matches_the_mobius_route(case, alpha):
    f, s = case
    for conv in (down_convolution(f, alpha, s), up_convolution(f, alpha, s)):
        terms = _mobius_terms(f, alpha, conv, exact=False)
        assert np.all(np.abs(conv.values - terms.sum(axis=0)) <= 1e-13 * np.abs(terms).sum(axis=0))
        assert _correctly_rounded(f, alpha, conv)


@settings(max_examples=80, deadline=None)
@given(bounded_cases(st.integers(-9, 9).filter(bool)), st.integers(-3, 3))
def test_exact_path_is_correctly_rounded(case, k):
    # integer f and an integer exponent of either sign: each entry is the
    # float nearest to its exact rational value
    f, s = case
    for conv in (down_convolution(f, float(k), s), up_convolution(f, float(k), s)):
        assert _correctly_rounded(f, float(k), conv)


def test_exact_path_on_divisors_of_720():
    p = latmat.divisor_poset(latmat.divisors_of(720))
    f = PosetFunction.identity(p)
    s = p.subset([12, 30, 48])
    for k in range(-3, 4):
        for conv in (down_convolution(f, float(k), s), up_convolution(f, float(k), s)):
            assert _correctly_rounded(f, float(k), conv)


def test_zero_value_in_the_domain():
    p = latmat.chain_poset(3)
    f = PosetFunction(p, [0.0, 2.0, 5.0])
    s = p.subset([1, 2, 3])
    assert down_convolution(f, 0.0, s).values.tolist() == [1.0, 0.0, 0.0]  # 0**0 = 1
    assert down_convolution(f, 2.0, s).values.tolist() == [0.0, 4.0, 21.0]
    for alpha in (-1.0, -0.5):
        with pytest.raises(PowerDomainError, match="zero base with a negative exponent"):
            down_convolution(f, alpha, s)


# -- semimultiplicativity --------------------------------------------------------


def test_identity_semimultiplicative_on_divisor_lattice(divisors12):
    assert latmat.is_semimultiplicative(PosetFunction.identity(divisors12))


def test_any_function_semimultiplicative_on_chain():
    p = latmat.chain_poset(5)
    rng = np.random.default_rng(3)
    f = PosetFunction(p, rng.uniform(0.1, 9.0, size=5))
    assert latmat.is_semimultiplicative(f)


def test_semimultiplicative_counterexample(divisors12):
    vals = {x: float(x) for x in divisors12.elements}
    vals[4] = 7.0  # breaks f(4) f(6) = f(2) f(12)
    f = PosetFunction.from_mapping(divisors12, vals)
    assert not latmat.is_semimultiplicative(f)


def test_semimultiplicative_requires_lattice():
    p = latmat.divisor_poset([2, 3])
    f = PosetFunction.identity(p)
    with pytest.raises(latmat.LatticeError):
        latmat.is_semimultiplicative(f)
    # a mismatch at (2, 3) comes before the missing join of 2 and 5 in pair
    # order; the missing join must still raise rather than return False
    p = latmat.divisor_poset([1, 2, 3, 4, 5, 6, 12])
    vals = {x: float(x) for x in p.elements}
    vals[6] = 99.0
    with pytest.raises(latmat.LatticeError, match="no common upper bound of 2 and 5"):
        latmat.is_semimultiplicative(PosetFunction.from_mapping(p, vals))
