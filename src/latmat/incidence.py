"""Real-valued functions on poset elements and their Mobius convolutions,
computed without Mobius values: by forward substitution on the zeta
relation, or, on a product of chains, by one difference per generator.

Power evaluation follows the 0**0 = 1 convention throughout; zero base with
a negative exponent and negative base with a non-integer exponent are domain
errors rather than NaNs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, reduce

import numpy as np

from .poset import ElementSubset, Poset, _parse_label

SEMIMULT_TOL = 1e-9
EXACT_POWER_BITS = 1 << 16  # the most bits one exact power may take


class PowerDomainError(ValueError):
    """Power of a function value is undefined over the reals."""


def real_power(base: float, exponent: float) -> float:
    """base**exponent with 0**0 = 1; raises PowerDomainError when undefined."""
    if base == 0.0:
        if exponent == 0.0:
            return 1.0
        if exponent > 0.0:
            return 0.0
        raise PowerDomainError("zero base with a negative exponent")
    if base < 0.0 and exponent != int(exponent):
        raise PowerDomainError(
            f"negative base {base} with non-integer exponent {exponent}"
        )
    try:
        return float(base ** int(exponent) if base < 0.0 else base**exponent)
    except OverflowError:
        raise ValueError(f"{base!r}**{exponent!r} is past float64's range; use a smaller exponent") from None


def powers_by_value(values: np.ndarray, power) -> np.ndarray:
    """power(v) for every entry v of values, called once per distinct value
    and in order of first appearance, so the entry that raises is the first
    such one in row-major order.  Float results come back as a float array,
    Python ints as an integer array, or as an object array past 64 bits."""
    distinct, first, where = np.unique(values, return_index=True, return_inverse=True)
    order = np.argsort(first)
    raised = np.array([power(v) for v in distinct[order].tolist()])
    return raised[np.argsort(order)][where].reshape(np.shape(values))


class PosetFunction:
    """A map from the elements of a poset to real values."""

    def __init__(self, parent: Poset, values):
        values = np.asarray(values, dtype=np.float64)
        if values.shape != (len(parent),):
            raise ValueError("need exactly one value per poset element")
        if not np.isfinite(values).all():
            raise ValueError("function values must be finite")
        self.parent = parent
        self.values = values
        self.values.setflags(write=False)

    @classmethod
    def from_mapping(cls, parent: Poset, mapping) -> "PosetFunction":
        try:
            vals = [mapping[x] for x in parent.elements]
        except KeyError as exc:
            raise ValueError(f"no value given for element {exc.args[0]!r}") from None
        return cls(parent, vals)

    @classmethod
    def identity(cls, parent: Poset) -> "PosetFunction":
        """f(x) = x on numerically labeled posets (the stock divisor-poset choice)."""
        try:
            vals = [float(x) for x in parent.elements]
        except (TypeError, ValueError):
            raise ValueError("identity function requires numeric element labels") from None
        return cls(parent, vals)

    @classmethod
    def constant(cls, parent: Poset, c: float) -> "PosetFunction":
        return cls(parent, np.full(len(parent), float(c)))

    @classmethod
    def from_name(cls, parent: Poset, name: str) -> "PosetFunction":
        """Resolve a built-in function name: 'N' or 'const:c'."""
        if name == "N":
            return cls.identity(parent)
        if name.startswith("const:"):
            try:
                return cls.constant(parent, float(name[len("const:") :]))
            except ValueError:
                raise ValueError(f"bad constant in function name {name!r}") from None
        raise ValueError(f"unknown built-in function {name!r}")

    def __call__(self, label) -> float:
        return float(self.values[self.parent.index_of(label)])

    def value_at(self, index: int) -> float:
        return float(self.values[index])

    @property
    def is_integer_valued(self) -> bool:
        return bool(np.all(self.values == np.rint(self.values)))

    @cached_property
    def _chain_multiplicative(self) -> bool:
        """Whether the poset is a product of chains (``Poset._chains``), f > 0, and
        each f(x) is, exactly in float64, the product of f at x's chain members in
        chain order, from 1.0.  Every whole-lattice route reads this one answer."""
        chains = self.parent._chains
        if chains is None or (self.values <= 0.0).any():
            return False
        with np.errstate(over="ignore"):  # an overflowed product is inf, so unequal to any finite f
            products = reduce(np.multiply.outer, [self.values[m] for m in chains.members()], np.ones(()))
        return np.array_equal(products.ravel(), self.values[chains.index])  # both in code order


def parse_function(parent: Poset, text: str) -> PosetFunction:
    """Parse the 'label value' per-line function file format."""
    mapping = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        toks = line.split()
        if len(toks) != 2:
            raise ValueError(f"line {lineno}: expected 'label value'")
        label = _parse_label(toks[0])
        try:
            value = float(toks[1])
        except ValueError:
            raise ValueError(f"line {lineno}: bad value {toks[1]!r}") from None
        if label in mapping:
            raise ValueError(f"line {lineno}: duplicate label {label!r}")
        mapping[label] = value
    return PosetFunction.from_mapping(parent, mapping)


def load_function(parent: Poset, path) -> PosetFunction:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_function(parent, fh.read())


@dataclass(frozen=True, repr=False)
class ConvolutionVector:
    """Values of a Mobius convolution over an ideal or a filter.

    ``domain`` is the order ideal (direction 'down') or order filter
    (direction 'up') of the generating subset, in its members-first order;
    ``values`` is aligned with ``domain.indices``.
    """

    direction: str
    exponent: float
    domain: ElementSubset
    values: np.ndarray

    def entry(self, label) -> float:
        i = self.domain.parent.index_of(label)
        try:
            pos = self.domain.indices.index(i)
        except ValueError:
            raise ValueError(f"{label!r} is outside the convolution domain") from None
        return float(self.values[pos])

    @property
    def entries(self) -> dict:
        return dict(zip(self.domain.labels, self.values.tolist()))

    def __repr__(self) -> str:
        return f"ConvolutionVector({self.direction}, exponent={self.exponent}, {self.entries})"


def exact_powers(values: np.ndarray, k: int):
    """values**k for integer-valued values as (numerator, denominator) in Python
    ints, (v**k, 1) or (1, v**-k), one power per distinct value (0**0 = 1).
    Raises ValueError, before it forms any power, when one would take more
    than EXACT_POWER_BITS bits, |k| * bit_length(max |v|)."""
    top = int(round(float(np.abs(values).max(initial=0.0))))
    if top > 1 and abs(k) * top.bit_length() > EXACT_POWER_BITS:
        raise ValueError(
            f"the exact power {top}**{abs(k)} would take about {abs(k) * top.bit_length()} bits, "
            f"more than {EXACT_POWER_BITS}; use a smaller exponent"
        )
    p = powers_by_value(values, lambda v: int(round(v)) ** abs(k)).astype(object)
    return (p, 1) if k >= 0 else (1, p)


def exact_quotient(num, den, what: str) -> np.ndarray:
    """num / den in float64, each entry a correctly rounded quotient of Python ints;
    raises ValueError, naming what, where one is past float64's range."""
    try:
        return (num / den).astype(np.float64)
    except OverflowError:
        raise ValueError(f"{what} is past float64's range; use a smaller exponent") from None


def float_product(factors, shape=()) -> np.ndarray:
    """The product of (array, multiplies) factors, each multiplied in or divided out in
    order, on np.frexp mantissas and int64 binary exponents with one np.ldexp at the end:
    no partial product leaves float64's range, an entry whose plain float partial products
    are normal keeps their bits, and one past float64's range is inf for the caller."""
    mantissa, exponent = np.ones(shape), np.zeros(shape, dtype=np.int64)
    for values, multiplies in factors:
        m, e = np.frexp(values)
        mantissa, exponent = (mantissa * m, exponent + e) if multiplies else (mantissa / m, exponent - e)
    with np.errstate(over="ignore"):
        return np.ldexp(mantissa, exponent)


def pair_ratios(s: ElementSubset, f: PosetFunction):
    """f(x_a meet x_b) f(x_a join x_b) / f(x_a) / f(x_b) over the member pairs by
    ``float_product`` (inf past float64), and where f(x_a) = 0 or f(x_b) = 0."""
    fs = f.values[list(s.indices)]
    meet, join = f.values[s.pair_indices("meet")], f.values[s.pair_indices("join")]
    with np.errstate(divide="ignore", invalid="ignore"):  # the ratio there is inf or nan
        ratio = float_product([(meet, True), (join, True), (fs[:, None], False), (fs[None, :], False)])
    return ratio, (fs == 0.0)[:, None] | (fs == 0.0)[None, :]


def down_convolution(f: PosetFunction, alpha: float, s: ElementSubset) -> ConvolutionVector:
    """The g on the order ideal of S whose sum over w <= x is f(x)**alpha:
    g(w) is the sum of f(z)**alpha * mu(z, w) over z below w."""
    return _convolution("down", f, alpha, s.order_ideal())


def up_convolution(f: PosetFunction, alpha: float, s: ElementSubset) -> ConvolutionVector:
    """The down-convolution on the order dual (relation leq.T): the g on the order
    filter of S whose sum over w >= x is f(x)**alpha, g(w) = sum of mu(w, z) f(z)**alpha."""
    return _convolution("up", f, alpha, s.order_filter())


def _convolution(direction: str, f: PosetFunction, alpha: float, domain) -> ConvolutionVector:
    """g(x) = f(x)**alpha - the sum of g(w) over the w below x (above x, direction "up")
    in the domain, an ideal (a filter).  The powers are exact rationals (integer-valued f,
    integer exponent) or floats, which are dyadic: g is solved in Python ints over one
    common denominator, so it is exact, and each entry is rounded once."""
    if f.parent is not domain.parent:
        raise ValueError("function and subset live on different posets")
    p = domain.parent
    idx = np.asarray(domain.indices, dtype=np.intp)
    values = f.values[idx]  # powers in domain order: the first to raise is the first member's
    if f.is_integer_valued and alpha == int(alpha):
        num, den = exact_powers(values, int(alpha))
        if np.any(den == 0):
            raise PowerDomainError("zero base with a negative exponent")
    else:  # each float power is a dyadic rational
        powers = powers_by_value(values, lambda v: real_power(v, alpha)).tolist()
        num, den = np.array([v.as_integer_ratio() for v in powers], dtype=object).reshape(-1, 2).T
    common = math.lcm(*np.ravel(den).tolist())
    g = num * (common // den)
    chains = p._chains
    if chains is not None:
        # mu(x, y) = mu(y/x): one difference per generator q, g(x) -= g(x/q) on the ideal and
        # g(x) -= g(x*q) on the filter, where x/q (x*q) has x's code minus (plus) q's stride
        exponents, position = chains.exponents[idx], np.empty(len(p), dtype=np.intp)
        position[idx] = np.arange(idx.size)  # of each domain element in the domain
        code = exponents @ chains.strides
        for j, step in enumerate((-1 if direction == "down" else 1) * chains.strides):
            has = np.flatnonzero(exponents[:, j] > 0 if direction == "down" else exponents[:, j] < chains.e[j])
            g[has] -= g[position[chains.index[code[has] + step]]]
    else:  # forward substitution along a linear extension of the domain, on its block of the relation
        where = np.argsort(idx)[:: -1 if direction == "up" else 1]  # domain positions, extension order
        block = p._block(idx[where], idx[where])
        below = block.T if direction == "down" else block  # below[k, j]: the j-th is below the k-th
        np.fill_diagonal(below, False)
        solved = g[where]
        for k, row in enumerate(below):
            solved[k] -= sum(solved[row])
        g[where] = solved
    values = exact_quotient(g, common, f"the {direction}-convolution of f**{alpha!r}")
    return ConvolutionVector(direction, float(alpha), domain, values)


def is_semimultiplicative(f: PosetFunction, s: ElementSubset | None = None) -> bool:
    """Check f(x)f(y) = f(meet)f(join) for every pair of members of s (default:
    every element of f's poset), to the relative tolerance SEMIMULT_TOL: a pair whose
    products pass float64 by |f(meet)f(join) / f(x) / f(y) - 1|, the same test where
    |f(x)f(y)| >= 1.  A pair without a unique meet or join raises LatticeError."""
    if s is None:
        s = ElementSubset(f.parent, range(len(f.parent)), validate=False)
    if s.parent is not f.parent:
        raise ValueError("function and subset live on different posets")
    fs, meet, join = f.values[list(s.indices)], f.values[s.pair_indices("meet")], f.values[s.pair_indices("join")]
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):  # a pair past float64 is decided by its ratio
        lhs, rhs = np.outer(fs, fs), meet * join
        mismatch = np.abs(lhs - rhs) > SEMIMULT_TOL * np.maximum(1.0, np.abs(lhs))
        past = ~(np.isfinite(lhs) & np.isfinite(rhs))
        if past.any():  # rhs / lhs, inf (a mismatch) where lhs = 0
            mismatch[past] = ~(np.abs(pair_ratios(s, f)[0][past] - 1.0) <= SEMIMULT_TOL)
    return not np.triu(mismatch, 1).any()
