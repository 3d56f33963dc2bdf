"""Eigenvalue lower bounds and inclusion regions for combined matrices.

Two families of results are implemented, each paired with a direct spectrum
computation so every report carries a verdict:

* lower bounds for the smallest absolute eigenvalue of a positive definite
  combined matrix, one route through the order ideal (meet side) and one
  through the order filter (join side);
* disc-union inclusion regions for the eigenvalues when the index set is
  meet closed or join closed.

Both take the extremal constant (c_n resp. C_n) as an explicit input with a
provenance tag, mirroring how the constants are substituted in practice:
exact search values for small n, the conjectured witness value, or the
closed-form bounds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import constants
from .incidence import (
    PosetFunction,
    down_convolution,
    is_semimultiplicative,
    powers_by_value,
    real_power,
    up_convolution,
)
from .matrices import CombinedSpec, FactorizationError, closed_d, pair_ratios
from .poset import ElementSubset, LatticeError, PosetError, divisor_poset, divisors_of

REPORT_TOL = 1e-9
CONDITION_TOL = 1e-12


class HypothesisError(ValueError):
    """A stated hypothesis of a bound or region result is violated."""


@dataclass(frozen=True)
class ConstantValue:
    """An extremal constant together with where it came from.

    Provenance tokens: 'exact' (the certified c_n search, or C_n's closed
    form), 'y0' (conjectured witness), 'thm52'/'thm53' (the two closed-form
    lower bounds), 'tn' (closed-form upper bound), or 'user'.
    """

    value: float
    provenance: str


def resolve_c(n: int, choice: str) -> ConstantValue:
    """Resolve a c-constant selector: exact | y0 | thm52 | thm53 | number."""
    if choice == "exact":
        return ConstantValue(constants.search_cn(n).value, "exact")
    if choice == "y0":
        return ConstantValue(constants.kappa_y0(n), "y0")
    if choice == "thm52":
        return ConstantValue(constants.cn_lower_bound_from_tn(n), "thm52")
    if choice == "thm53":
        return ConstantValue(constants.cn_lower_bound_from_n0(n), "thm53")
    return _user_constant("c", choice)


def resolve_C(n: int, choice: str) -> ConstantValue:
    """Resolve a C-constant selector: exact | tn | number.

    exact is the closed form of the MIN matrix's largest eigenvalue
    (constants.search_Cn), with no scan, no eigensolve and no size cap.
    """
    if choice == "exact":
        return ConstantValue(constants.search_Cn(n).value, "exact")
    if choice == "tn":
        return ConstantValue(constants.t_n(n), "tn")
    return _user_constant("C", choice)


def _user_constant(name: str, choice: str) -> ConstantValue:
    """A constant given as a number, which must be finite and positive, as c_n and C_n are."""
    try:
        value = float(choice)
    except ValueError:
        raise ValueError(f"unknown {name} constant selector {choice!r}") from None
    if not math.isfinite(value):
        raise ValueError(f"{name} constant {choice!r} is not a finite number")
    if value <= 0.0:
        raise ValueError(f"{name} constant {choice!r} is not positive")
    return ConstantValue(value, "user")


@dataclass(frozen=True)
class BoundReport:
    """A computed lower bound next to the directly computed spectrum."""

    side: str  # "meet" | "join"
    bound: float
    c_value: ConstantValue
    min_conv: float
    min_fpow: float
    true_kappa: float
    holds: bool

    def render(self) -> str:
        lines = [
            f"side: {self.side}",
            f"bound: {self.bound:.17g}",
            f"c_value: {self.c_value.value:.17g}",
            f"c_provenance: {self.c_value.provenance}",
            f"min_conv: {self.min_conv:.17g}",
            f"min_fpow: {self.min_fpow:.17g}",
            f"true_kappa: {self.true_kappa:.17g}",
            f"holds: {str(self.holds).lower()}",
        ]
        return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class RegionReport:
    """An eigenvalue inclusion region (union of closed discs) and the spectrum."""

    side: str
    discs: list  # (center, radius) pairs; negative radius marks an empty disc
    d_values: np.ndarray
    h_value: float
    c_value: ConstantValue
    eigenvalues: np.ndarray
    contained: bool

    def render(self) -> str:
        lines = [
            f"side: {self.side}",
            f"C_value: {self.c_value.value:.17g}",
            f"C_provenance: {self.c_value.provenance}",
            f"H: {self.h_value:.17g}",
            "d_values: " + ",".join(f"{v:.17g}" for v in self.d_values),
            "eigenvalues: " + ",".join(f"{v:.17g}" for v in self.eigenvalues),
            f"contained: {str(self.contained).lower()}",
            "discs (center,radius):",
        ]
        lines += [f"{c:.17g},{r:.17g}" for c, r in self.discs]
        return "\n".join(lines) + "\n"


def _require_symmetric_case(spec: CombinedSpec) -> None:
    if spec.gamma != spec.delta:
        raise HypothesisError(
            "spectral statements need gamma = delta (the matrix must be symmetric)"
        )


def _require_nonzero_semimultiplicative(spec: CombinedSpec, domain, closure: str) -> None:
    # with both, the combined matrix is D A D for A the meet matrix of a power
    # of f on S, so the theorem needs nothing outside S and its ideal or filter
    f = spec.f
    for k in np.flatnonzero(f.values[list(domain.indices)] == 0.0)[:1]:
        raise HypothesisError(
            f"the lower bound requires an f that is nowhere-zero on S and its "
            f"{closure}; f vanishes at {domain.labels[k]!r}"
        )
    if not _ratio_within_rounding(f, 0.0) and not is_semimultiplicative(f, spec.subset):
        raise HypothesisError(
            "the lower bound requires a semimultiplicative f "
            "(f(x)f(y) = f(meet)f(join) for all pairs of S)"
        )


def lower_bound_meet(spec: CombinedSpec, c_value: ConstantValue) -> BoundReport:
    """Meet-side lower bound for the smallest eigenvalue of the combined matrix.

    Needs gamma = delta, f(x)f(y) = f(x meet y)f(x join y) for every pair of
    S, a bottom, an f nowhere zero on S and its order ideal, and a strictly
    positive down-convolution of f**(alpha-beta) on that ideal; nothing is
    asked of the rest of the poset.  The bound is c * min over S of that
    convolution * min over S of (f(x)^2)**(beta-gamma).
    """
    return _lower_bound(spec, c_value, "meet", down_convolution, spec.alpha, spec.beta)


def lower_bound_join(spec: CombinedSpec, c_value: ConstantValue) -> BoundReport:
    """Join-side twin of lower_bound_meet: the same bound on the order dual.

    Needs a top, an f nowhere zero on S and its order filter, and a strictly
    positive up-convolution of f**(beta-alpha) on that filter; the last
    factor becomes (f(x)^2)**(alpha-gamma).
    """
    return _lower_bound(spec, c_value, "join", up_convolution, spec.beta, spec.alpha)


# The cores below take the meet side's (alpha, beta) as (a, b); the join side
# passes the order dual's: (beta, alpha), up for down, join for meet.
_CLOSURE = {"meet": ("order ideal", ElementSubset.order_ideal),
            "join": ("order filter", ElementSubset.order_filter)}


def _lower_bound(spec: CombinedSpec, c_value, side, convolution, a, b) -> BoundReport:
    _require_symmetric_case(spec)
    spec.validate()
    s = spec.subset
    closure, domain = _CLOSURE[side]
    try:  # meets and joins of the pairs of S, and a bottom or a top
        _require_nonzero_semimultiplicative(spec, domain(s), closure)
        conv = convolution(spec.f, a - b, s)
    except LatticeError as exc:
        raise HypothesisError(str(exc)) from None
    for k in np.flatnonzero(conv.values <= 0.0)[:1]:
        raise HypothesisError(
            f"the {side}-side lower bound requires a strictly positive "
            f"{conv.direction}-convolution on the {closure}; "
            f"violated at {conv.domain.labels[k]!r} (value {conv.values[k]})"
        )
    min_conv = float(conv.values[: len(s)].min())
    min_fpow = min(real_power(spec.f.value_at(i) ** 2, b - spec.gamma) for i in s.indices)
    bound = c_value.value * min_conv * min_fpow
    true_kappa = float(np.abs(spec.spectrum.eigenvalues).min())
    holds = bound <= true_kappa + REPORT_TOL * max(1.0, abs(true_kappa))
    return BoundReport(side, bound, c_value, min_conv, min_fpow, true_kappa, holds)


def _check_ratio_condition(spec: CombinedSpec, exponent: float) -> None:
    """|f(meet)f(join)/(f(x_i)f(x_j))| ** exponent <= 1 for all pairs."""
    if exponent == 0.0:
        return
    s = spec.subset
    ratio, undefined = pair_ratios(s, spec.f)
    for a, b in np.argwhere(np.tril(undefined))[:1]:
        raise HypothesisError(
            f"the region condition is undefined: f vanishes at "
            f"{s.labels[a]!r} or {s.labels[b]!r}"
        )
    powered = powers_by_value(np.abs(ratio), lambda v: real_power(v, exponent))
    for a, b in np.argwhere(np.tril(powered > 1.0 + CONDITION_TOL))[:1]:
        raise HypothesisError(
            "the region condition |f(meet)f(join)/(f(x_i)f(x_j))|^e <= 1 "
            f"fails for the pair ({s.labels[a]!r}, {s.labels[b]!r})"
        )


def _ratio_within_rounding(f: PosetFunction, exponent: float) -> bool:
    """Whether f passes ``PosetFunction._chain_multiplicative`` and the bound
    below proves, with no pair table, for every pair of the lattice and so of
    any S inside it, the region's ratio condition at this exponent and f's
    semimultiplicativity to SEMIMULT_TOL.  Premises, checked here in O(N),
    for k generators: f(1) = 1; every f value lies in [2**-511, 2**512), so
    every product of two is normal; and |exponent| * 4k * u <= CONDITION_TOL
    / 8, u = 2**-53, which exponent 0 meets.

    Proof.  f(x) is the float product r_k of f at x's chain members x_j,
    r_0 = 1.0, r_j = fl(r_(j-1) f(x_j)).  As f(1) = 1, r_j is f at the label
    x_1...x_j (the later factors f(1) multiply exactly), so every r_j is
    normal and r_j = r_(j-1) f(x_j) (1 + d_j) with |d_j| <= u, d_1 = 0: f(x) is
    the exact product P(x) times k-1 such factors.  The meet and the join
    take each chain's smaller and larger member of x and y, so
    P(meet) P(join) = P(x) P(y) exactly.  pair_ratios forms
    fl(fl(f(meet) f(join)) / fl(f(x) f(y))), whose products are normal and
    whose quotient is near 1, so each rounds once more with |d| <= u.  The
    computed ratio is then 4k-1 factors (1 + d)**(+-1), and
    |ratio - 1| <= g = (4k-1)u / (1 - (4k-1)u) (Higham, Accuracy and Stability
    of Numerical Algorithms, Lemma 3.1).  The labels are below 2**63, so
    k <= 15 and |ln ratio| <= g / (1 - g) <= 1.01 * 4k * u, and the exact
    ratio**exponent is at most exp(1.01 * CONDITION_TOL / 8) < 1 + 0.13 *
    CONDITION_TOL.  real_power returns C pow()'s value; even 1000 ulp of error
    near 1 (2.3e-13) leaves it below the float 1 + CONDITION_TOL that the
    table compares with, and f > 0 leaves no ratio undefined, so no pair of
    the table would fail.  is_semimultiplicative compares lhs = fl(f(x) f(y))
    with rhs = fl(f(meet) f(join)), each P(x) P(y) times 2k-1 factors (1 + d),
    so their difference, exact by Sterbenz, is at most 2g'|lhs| / (1 - g') <
    61u |lhs| for g' = (2k-1)u / (1 - (2k-1)u): far below SEMIMULT_TOL |lhs|.
    """
    fs = f.values
    return (
        f._chain_multiplicative
        and abs(exponent) * 4 * len(f.parent._chains.q) * 2.0**-53 <= CONDITION_TOL / 8
        and fs[0] == 1.0
        and 2.0**-511 <= fs.min()
        and fs.max() < 2.0**512
    )


def _finish_region(spec: CombinedSpec, side, c_value, d, fpow_exponent) -> RegionReport:
    fs = spec.f.values[list(spec.subset.indices)]
    max_fpow = float(powers_by_value(np.abs(fs), lambda v: real_power(v, fpow_exponent)).max())
    h = c_value.value * max_fpow * float(np.abs(d).max())
    diag_exp = spec.alpha + spec.beta - 2.0 * spec.gamma
    centers = powers_by_value(fs, lambda v: real_power(v, diag_exp))
    radii = h - (centers if (fs >= 0.0).all() else powers_by_value(np.abs(fs), lambda v: real_power(v, diag_exp)))
    eigs = spec.spectrum.eigenvalues
    slack = REPORT_TOL * np.maximum(1.0, np.abs(eigs))
    # Each radius is H - |center|, so the widest disc holds what any disc whose center has its
    # sign holds: only the eigenvalues outside it (for f >= 0, near its rim) meet every disc.
    widest = int(radii.argmax())
    outside = ~(np.abs(eigs - centers[widest]) - radii[widest] <= slack)  # and every NaN
    contained = all(
        (np.abs(lam - centers) - radii <= tol).any() for lam, tol in zip(eigs[outside], slack[outside])
    )
    discs = list(zip(centers.tolist(), radii.tolist()))
    return RegionReport(side, discs, d, h, c_value, eigs, contained)


def region_meet_closed(spec: CombinedSpec, c_value: ConstantValue) -> RegionReport:
    """Disc-union eigenvalue region for a meet closed index set.

    Discs are centered at f(x_k)**(alpha+beta-2 gamma) with common outer
    value H = C * max |f|^(2(beta-gamma)) * max |d_i|, where d is that of
    factor_meet_closed for f**(alpha-beta).
    """
    return _region(spec, c_value, "meet", spec.alpha, spec.beta)


def region_join_closed(spec: CombinedSpec, c_value: ConstantValue) -> RegionReport:
    """Disc-union eigenvalue region for a join closed index set: the meet
    closed region on the order dual, with alpha and beta swapped."""
    return _region(spec, c_value, "join", spec.beta, spec.alpha)


def _region(spec: CombinedSpec, c_value, side, a, b) -> RegionReport:
    """The region for the meet side's (alpha, beta) = (a, b); the join side
    passes its dual.

    d comes from ``matrices.closed_d``, with no incidence matrix E.  The
    ratio condition is proved by ``_ratio_within_rounding`` where its
    premises hold, and read off the pair table of the ratios otherwise.
    """
    _require_symmetric_case(spec)
    spec.validate()
    try:
        d = closed_d(spec.subset, spec.f, a - b, side)
    except FactorizationError:  # the set is not closed
        raise HypothesisError(f"the {side}-side region requires a {side} closed set") from None
    if not _ratio_within_rounding(spec.f, b):
        _check_ratio_condition(spec, b)
    return _finish_region(spec, side, c_value, d, 2.0 * (b - spec.gamma))


def interval_from_discs(report: RegionReport):
    """Smallest real interval covering the non-empty discs of a region."""
    live = [(c, r) for c, r in report.discs if r >= 0.0]
    if not live:
        raise ValueError("all discs are empty; the region covers nothing")
    lo = min(c - r for c, r in live)
    hi = max(c + r for c, r in live)
    return lo, hi


# -- stock families -----------------------------------------------------------


def gcd_power_family(n: int, alpha: float, beta: float) -> CombinedSpec:
    """Spec for the n x n matrix with entries gcd(i,j)**alpha * lcm(i,j)**beta.

    S = {1..n} inside the divisor lattice generated by it (so all pairwise
    lcm values exist), f the identity, gamma = delta = 0.  That lattice is
    the divisors of lcm(1..n).
    """
    if n < 1:
        raise PosetError("closure needs positive integers")
    top = math.lcm(*range(1, n + 1))
    if top >= 2**63:
        raise PosetError("the lcm of the closure's inputs must be below 2**63")
    lattice = divisor_poset(divisors_of(top))
    s = lattice.subset(range(1, n + 1))
    f = PosetFunction.identity(lattice)
    return CombinedSpec(float(alpha), float(beta), 0.0, 0.0, s, f)


def divisor_closed_family(m: int, alpha: float, beta: float) -> CombinedSpec:
    """Spec on S = all divisors of m (both meet and join closed), f identity."""
    lattice = divisor_poset(divisors_of(m))
    s = lattice.subset(lattice.elements)
    f = PosetFunction.identity(lattice)
    return CombinedSpec(float(alpha), float(beta), 0.0, 0.0, s, f)


def totient_reciprocal_interval(n: int, c_value: ConstantValue):
    """Closed-form eigenvalue interval for the (gcd/lcm)**(1/2) matrix on {1..n}.

    The disc radii involve the maximum totient value below n, which is at
    most n-1; majorizing by n-1 gives the interval
    [2 - C*(n-1), C*(n-1)].
    """
    if n < 2:
        raise ValueError("the closed-form interval needs n >= 2")
    h = c_value.value * (n - 1)
    return 2.0 - h, h
