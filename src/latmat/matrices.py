"""Meet, join and combined meet-and-join matrices, and their factorizations.

Matrices are plain float64 numpy arrays (row-major).  Entries are evaluated
in exact integer/rational arithmetic whenever the function values and all
exponents are integral, and widened to float only at the end; otherwise each
is one product of real powers, formed on mantissas and binary exponents.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

from .incidence import (
    PosetFunction,
    PowerDomainError,
    down_convolution,
    exact_powers,
    exact_quotient,
    float_product,
    pair_ratios,
    powers_by_value,
    real_power,
    up_convolution,
)
from .poset import ElementSubset
from .spectra import SpectraError, Spectrum, eigen_symmetric

MATRIX_EQ_TOL = 1e-10


class ExistenceError(ValueError):
    """The requested combined matrix does not exist for these exponents."""


class FactorizationError(ValueError):
    """A factorization precondition fails (closure or sign conditions)."""


def matrices_close(a, b, rel: float = MATRIX_EQ_TOL) -> bool:
    """Entrywise closeness, relative to the largest absolute entry."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.shape != b.shape:
        return False
    scale = max(float(np.abs(a).max(initial=0.0)), float(np.abs(b).max(initial=0.0)))
    if scale == 0.0:
        return True
    return float(np.abs(a - b).max()) <= rel * scale


@dataclass(frozen=True)
class CombinedSpec:
    """Exponent quadruple (alpha, beta, gamma, delta) with the set S and f.

    The matrix has entries
        f(meet)^alpha * f(join)^beta / (f(x_i)^gamma * f(x_j)^delta).
    Meets are only evaluated when alpha != 0 and joins when beta != 0, so
    e.g. a pure meet matrix never requires joins to exist.
    """

    alpha: float
    beta: float
    gamma: float
    delta: float
    subset: ElementSubset
    f: PosetFunction

    def validate(self) -> None:
        """Check the existence conditions for the exponent quadruple."""
        f = self.f
        s = self.subset
        if f.parent is not s.parent:
            raise ValueError("function and subset live on different posets")
        if (self.gamma != 0.0 or self.delta != 0.0) and np.any(f.values[list(s.indices)] == 0.0):
            raise ExistenceError(
                "f vanishes on a member of S, which requires gamma = delta = 0"
            )
        for exponent, name, bound in ((self.alpha, "alpha", "meet"), (self.beta, "beta", "join")):
            if exponent >= 0.0 or f._chain_multiplicative:  # f > 0 on a lattice: no meet or join vanishes
                continue
            vanishing = f.values[s.pair_indices(bound)] == 0.0
            for a, b in np.argwhere(np.tril(vanishing))[:1]:
                raise ExistenceError(
                    f"f vanishes at the {bound} of {s.labels[a]!r} and "
                    f"{s.labels[b]!r}, which requires {name} >= 0"
                )

    @property
    def is_symmetric_case(self) -> bool:
        return self.gamma == self.delta

    @cached_property
    def spectrum(self) -> Spectrum:
        """Spectrum of the combined matrix, solved once per spec (all its
        inputs are immutable); the eigenvalue array is read-only, since every
        caller shares it.  When S is every element of a product of chains,
        gamma = delta and f passes ``PosetFunction._chain_multiplicative``,
        each entry is a product over the generators, as the meet and join
        take the min and max of each exponent: the matrix is, up to a
        permutation, the Kronecker product of one (e+1) x (e+1) chain matrix
        per generator, so its eigenvalues are all products of the chains'.
        Only the chains are solved there, and `iterations` and
        `offdiag_residual` are their largest."""
        spectrum = self._chain_product() or eigen_symmetric(combined_matrix(self))
        spectrum.eigenvalues.flags.writeable = False
        return spectrum

    def _chain_product(self) -> Spectrum | None:
        """The spectrum from the prime chains, or None where ``spectrum`` says they do not apply.
        Each chain matrix is a principal block of the combined matrix on the union of
        the chains, a subset of the poset, since each chain is meet and join closed."""
        s, f, p = self.subset, self.f, self.subset.parent
        if len(s) != len(p) or self.gamma != self.delta or f.parent is not p or not f._chain_multiplicative:
            return None
        chains = p._chains.members()  # the poset indices of 1, q, ..., q^e for each generator q
        union = np.unique(np.concatenate([[0], *chains]))  # with k = 0, the bottom alone
        m = combined_matrix(replace(self, subset=ElementSubset(p, union, validate=False)))
        parts = [eigen_symmetric(m[np.ix_(block, block)]) for block in (np.searchsorted(union, c) for c in chains)]
        products = float_product([(e, True) for e in np.ix_(*[part.eigenvalues for part in parts])])
        if not np.isfinite(products).all():
            raise SpectraError("a product of chain eigenvalues is not finite in float64")
        residual = max((part.offdiag_residual for part in parts), default=0.0)
        return Spectrum(np.sort(products, axis=None), max((part.iterations for part in parts), default=0), residual)


def combined_matrix(spec: CombinedSpec) -> np.ndarray:
    """Build the combined meet-and-join matrix for the given spec.

    Each factor is a power of f, taken once per distinct value and gathered
    over the member pairs' meets, joins or members; with gamma = delta the
    upper triangle is mirrored, so the matrix is exactly symmetric.  Exact
    mode divides Python ints once per entry; the float path is one
    ``incidence.float_product`` of the meet, join, x_i and x_j powers, so an
    entry in the subnormal range is rounded a second time, by its ldexp.
    """
    spec.validate()
    s, f = spec.subset, spec.f
    n = len(s)
    exact = f.is_integer_valued and all(float(e) == int(e) for e in (spec.alpha, spec.beta, spec.gamma, spec.delta))
    members = f.values[list(s.indices)]
    # (values, exponent, whether values**exponent multiplies the entry or divides it)
    factors = (
        (lambda: f.values[s.pair_indices("meet")], spec.alpha, True),
        (lambda: f.values[s.pair_indices("join")], spec.beta, True),
        (lambda: members[:, None], spec.gamma, False),
        (lambda: members[None, :], spec.delta, False),
    )
    if exact:  # a numerator and a denominator in Python ints; validate leaves no zero to divide by
        num = den = np.ones((n, n), dtype=object)
    powers = []  # the float path's (power, multiplies), in the order applied
    for values, exponent, multiplies in factors:
        if exponent == 0.0:
            continue
        if exact:
            top, bottom = exact_powers(values(), int(exponent))
            num, den = (num * top, den * bottom) if multiplies else (num * bottom, den * top)
            continue
        power = powers_by_value(values(), lambda v: real_power(v, exponent))
        if not multiplies and np.any(power == 0.0):  # f**exponent below float64's range
            raise PowerDomainError("division by a vanishing f power")
        powers.append((power, multiplies))
    if exact:
        out = exact_quotient(num, den, "an entry of the combined matrix")
    else:
        out = float_product(powers, (n, n))
        if not np.isfinite(out).all():
            raise ValueError("an entry of the combined matrix is past float64's range; use a smaller exponent")
    if spec.is_symmetric_case:
        lower = np.tril_indices(n, -1)
        out[lower] = out.T[lower]
    return out


def meet_matrix(s: ElementSubset, f: PosetFunction, alpha: float = 1.0) -> np.ndarray:
    """Matrix with entries f(x_i meet x_j)**alpha."""
    return combined_matrix(CombinedSpec(float(alpha), 0.0, 0.0, 0.0, s, f))


def join_matrix(s: ElementSubset, f: PosetFunction, alpha: float = 1.0) -> np.ndarray:
    """Matrix with entries f(x_i join x_j)**alpha."""
    return combined_matrix(CombinedSpec(0.0, float(alpha), 0.0, 0.0, s, f))


def g_matrix(s: ElementSubset, f: PosetFunction, exponent: float) -> np.ndarray:
    """Comparability-masked power-ratio matrix used by the structure theorems.

    Entry is 1 for comparable pairs, else
    (f(meet) f(join) / (f(x_i) f(x_j)))**exponent.
    """
    n = len(s)
    out = np.ones((n, n))
    if exponent == 0.0:
        return out
    below = s.parent._block(s.indices, s.indices)
    apart = ~(below | below.T)
    ratio, undefined = pair_ratios(s, f)
    for a, b in np.argwhere(apart & undefined)[:1]:
        raise PowerDomainError(
            f"ratio undefined: f vanishes at {s.labels[a]!r} or {s.labels[b]!r}"
        )
    out[apart] = powers_by_value(ratio[apart], lambda v: real_power(v, exponent))
    return out


# -- square-root factorizations over ideals and filters ----------------------


def factor_ideal(s: ElementSubset, f: PosetFunction, alpha: float = 1.0) -> np.ndarray:
    """n x m factor A with A A^T equal to the meet matrix of f**alpha.

    Columns run over the order ideal of S (members of S first); the entry in
    row i, column j is sqrt of the down-convolution at w_j when w_j lies
    below x_i, else zero.
    """
    return _root_factor(s, down_convolution(f, alpha, s))


def factor_filter(s: ElementSubset, f: PosetFunction, alpha: float = 1.0) -> np.ndarray:
    """n x m factor A with A A^T equal to the join matrix of f**alpha: the
    ideal factor on the order dual, columns over the order filter of S."""
    return _root_factor(s, up_convolution(f, alpha, s))


def _root_factor(s: ElementSubset, conv) -> np.ndarray:
    # entries down to -1e-12 * scale are roundoff from cancellation, read as 0
    scale = max(1.0, float(np.abs(conv.values).max(initial=0.0)))
    for k in np.flatnonzero(conv.values < -1e-12 * scale)[:1]:
        raise FactorizationError(
            f"convolution entry at {conv.domain.labels[k]!r} is negative ({conv.values[k]}); "
            "the square-root factorization needs nonnegative entries"
        )
    p, domain = s.parent, conv.domain.indices
    # [i, j]: w_j lies below x_i (above it, on the filter)
    beyond = p._block(domain, s.indices).T if conv.direction == "down" else p._block(s.indices, domain)
    return beyond * np.sqrt(np.maximum(conv.values, 0.0))


def incidence_matrix(s: ElementSubset) -> np.ndarray:
    """E with e_ij = 1 iff x_j lies below x_i; unit lower triangular under
    the canonical subset ordering."""
    return s.parent._block(s.indices, s.indices).T.astype(np.float64)


def factor_meet_closed(s: ElementSubset, f: PosetFunction, alpha: float = 1.0):
    """(E, d) with E diag(d) E^T equal to the meet matrix of f**alpha.

    Requires S meet closed; d is closed_d's.
    """
    d = closed_d(s, f, alpha, "meet")  # raises before E is formed
    return incidence_matrix(s), d


def factor_join_closed(s: ElementSubset, f: PosetFunction, alpha: float = 1.0):
    """(E, d) with E^T diag(d) E equal to the join matrix of f**alpha.

    Requires S join closed; d is closed_d's.
    """
    d = closed_d(s, f, alpha, "join")  # raises before E is formed
    return incidence_matrix(s), d


def closed_d(s: ElementSubset, f: PosetFunction, alpha: float, side: str) -> np.ndarray:
    """The d of the diagonal factorization of the meet (side "meet") or join
    ("join") matrix of f**alpha on a meet (join) closed S, with no E: d_i
    collects the down-convolution over the elements below x_i and below no
    earlier member (the up-convolution over those above x_i and above no
    later member).  When S is every element in poset order, each is its own
    first and last member, so d is the convolution itself."""
    if not (s.is_meet_closed() if side == "meet" else s.is_join_closed()):
        raise FactorizationError(f"set is not {side} closed")
    conv = (down_convolution if side == "meet" else up_convolution)(f, alpha, s)
    if s.indices == tuple(range(len(s.parent))):
        return conv.values
    block, domain = s.parent._block, conv.domain.indices
    if side == "meet":  # [k, i]: w_k lies below x_i
        first = block(domain, s.indices).argmax(axis=1)
    else:  # [k, i]: w_k lies above x_(n-1-i)
        first = len(s) - 1 - block(s.indices[::-1], domain).T.argmax(axis=1)
    return np.bincount(first, weights=conv.values, minlength=len(s))


# -- structure factorizations -------------------------------------------------


@dataclass(frozen=True)
class StructureFactors:
    """Factors F^left (core o G) F^right of a combined matrix.

    ``f_values`` holds the diagonal of F (the f values on S); the power of a
    diagonal matrix is taken entrywise through the real-power rules.
    """

    f_values: np.ndarray
    left_exponent: float
    right_exponent: float
    core: np.ndarray
    g: np.ndarray

    def _diag(self, exponent: float) -> np.ndarray:
        return powers_by_value(self.f_values, lambda v: real_power(v, exponent))

    def product(self) -> np.ndarray:
        left, right = self._diag(self.left_exponent), self._diag(self.right_exponent)
        return float_product([(left[:, None], True), (self.core * self.g, True), (right[None, :], True)])


def structure_meet(spec: CombinedSpec) -> StructureFactors:
    """Meet-oriented structure factorization of the combined matrix.

    M = F^(beta-gamma) (meet matrix of f^(alpha-beta) o G_beta) F^(beta-delta).
    """
    return _structure(spec, meet_matrix, spec.alpha, spec.beta)


def structure_join(spec: CombinedSpec) -> StructureFactors:
    """Join-oriented structure factorization of the combined matrix.

    M = F^(alpha-gamma) (join matrix of f^(beta-alpha) o G_alpha) F^(alpha-delta),
    the meet-oriented form on the order dual (alpha and beta swapped).
    """
    return _structure(spec, join_matrix, spec.beta, spec.alpha)


def _structure(spec: CombinedSpec, core_matrix, a: float, b: float) -> StructureFactors:
    """The meet-oriented form for (alpha, beta) = (a, b); the join side passes its dual."""
    spec.validate()
    s = spec.subset
    core = core_matrix(s, spec.f, a - b)
    g = g_matrix(s, spec.f, b)
    return StructureFactors(spec.f.values[list(s.indices)], b - spec.gamma, b - spec.delta, core, g)


def ideal_block_split(spec: CombinedSpec):
    """The two positive-semidefinite pieces of the ideal-based decomposition.

    For gamma = delta the combined matrix equals P1 + P2 where
    P1 = (F^(beta-gamma) B)(F^(beta-gamma) B)^T over the columns of S and
    P2 is the same over the remaining ideal columns.  Returns (P1, P2).
    """
    if spec.gamma != spec.delta:
        raise ValueError("the block split needs gamma = delta")
    s, f = spec.subset, spec.f
    a = factor_ideal(s, f, spec.alpha - spec.beta)
    a *= powers_by_value(f.values[list(s.indices)], lambda v: real_power(v, spec.beta - spec.gamma))[:, None]
    b, c = a[:, : len(s)], a[:, len(s) :]
    return b @ b.T, c @ c.T


def hadamard_diag_identity_check(a, b, c, d) -> bool:
    """Verify C (A o B) D = B o (C A D) for diagonal C and D, to 1e-12 relative."""
    a, b, c, d = (np.asarray(m, dtype=np.float64) for m in (a, b, c, d))
    for m in (a, b, c, d):
        if m.shape != a.shape or m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValueError("all four matrices must be square and same-sized")
    for m in (c, d):
        if np.any(m != np.diag(np.diag(m))):
            raise ValueError("third and fourth matrices must be diagonal")
    lhs = c @ (a * b) @ d
    rhs = b * (c @ a @ d)
    return matrices_close(lhs, rhs, rel=1e-12)


# -- matrix text output -------------------------------------------------------


def format_matrix(m, style: str = "csv") -> str:
    """Render a matrix as CSV (17 significant digits, round-trip safe) or as
    aligned columns ('pretty')."""
    m = np.asarray(m, dtype=np.float64)
    if style == "csv":
        return "\n".join(",".join(f"{v:.17g}" for v in row) for row in m) + "\n"
    if style == "pretty":
        cells = [[f"{v:.6g}" for v in row] for row in m]
        width = max((len(c) for row in cells for c in row), default=1)
        return "\n".join("  ".join(c.rjust(width) for c in row) for row in cells) + "\n"
    raise ValueError(f"unknown matrix format {style!r}")


def parse_matrix_csv(text: str) -> np.ndarray:
    rows = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        try:
            rows.append([float(tok) for tok in line.split(",")])
        except ValueError:
            raise ValueError(f"line {lineno}: bad matrix entry") from None
    if not rows:
        raise ValueError("no matrix rows found")
    width = len(rows[0])
    if any(len(r) != width for r in rows):
        raise ValueError("matrix rows have inconsistent lengths")
    return np.array(rows)
