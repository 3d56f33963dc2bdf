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
    CONDITION_TOL,
    PosetFunction,
    _ratio_within_rounding,
    down_convolution,
    is_semimultiplicative,
    pair_ratios,
    powers_by_value,
    real_power,
    up_convolution,
)
from .matrices import CombinedSpec, FactorizationError, closed_d
from .poset import LatticeError, PosetError, divisor_poset, divisors_of

REPORT_TOL = 1e-9


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


def _report(core, spec: CombinedSpec, c_value, side, a, b):
    """Every report's prologue: gamma = delta and the spec's existence conditions, then
    the side's core on (a, b), the meet side's (alpha, beta) or the join side's dual
    (beta, alpha).  A missing meet, join, bottom or top fails a hypothesis of each."""
    if spec.gamma != spec.delta:
        raise HypothesisError(
            "spectral statements need gamma = delta (the matrix must be symmetric)"
        )
    try:
        spec.validate()
        return core(spec, c_value, side, a, b)
    except LatticeError as exc:
        raise HypothesisError(str(exc)) from None


def _require_nonzero_semimultiplicative(spec: CombinedSpec, domain, closure: str) -> None:
    # with both, the combined matrix is D A D for A the meet matrix of a power
    # of f on S, so the theorem needs nothing outside S and its ideal or filter
    f = spec.f
    for k in np.flatnonzero(f.values[list(domain.indices)] == 0.0)[:1]:
        raise HypothesisError(
            f"the lower bound requires an f that is nowhere-zero on S and its "
            f"{closure}; f vanishes at {domain.labels[k]!r}"
        )
    if not is_semimultiplicative(f, spec.subset):
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
    convolution * min over S of |f(x)|**(2(beta-gamma)).
    """
    return _report(_lower_bound, spec, c_value, "meet", spec.alpha, spec.beta)


def lower_bound_join(spec: CombinedSpec, c_value: ConstantValue) -> BoundReport:
    """Join-side twin of lower_bound_meet: the same bound on the order dual.

    Needs a top, an f nowhere zero on S and its order filter, and a strictly
    positive up-convolution of f**(beta-alpha) on that filter; the last
    factor becomes |f(x)|**(2(alpha-gamma)).
    """
    return _report(_lower_bound, spec, c_value, "join", spec.beta, spec.alpha)


def _lower_bound(spec: CombinedSpec, c_value, side, a, b) -> BoundReport:
    """The lower bound on the meet side, or on the join side with up for down."""
    s = spec.subset
    if side == "meet":
        closure, domain, convolution = "order ideal", s.order_ideal(), down_convolution
    else:
        closure, domain, convolution = "order filter", s.order_filter(), up_convolution
    _require_nonzero_semimultiplicative(spec, domain, closure)
    conv = convolution(spec.f, a - b, s)
    for k in np.flatnonzero(conv.values <= 0.0)[:1]:
        raise HypothesisError(
            f"the {side}-side lower bound requires a strictly positive "
            f"{conv.direction}-convolution on the {closure}; "
            f"violated at {conv.domain.labels[k]!r} (value {conv.values[k]})"
        )
    min_conv = float(conv.values[: len(s)].min())
    min_fpow = _extreme_fpow(spec, b, largest=False)
    bound = c_value.value * min_conv * min_fpow
    true_kappa = float(np.abs(spec.spectrum.eigenvalues).min())
    holds = bound <= true_kappa + REPORT_TOL * max(1.0, abs(true_kappa))
    return BoundReport(side, bound, c_value, min_conv, min_fpow, true_kappa, holds)


def _extreme_fpow(spec: CombinedSpec, b: float, largest: bool) -> float:
    """The largest (or least) |f(x)|**(2(b - gamma)) over S: one real_power at the
    largest or least |f| on S, as the power is monotone in |f|, rising for a
    nonnegative exponent."""
    fs, e = np.abs(spec.f.values[list(spec.subset.indices)]), 2.0 * (b - spec.gamma)
    return real_power(float(fs.max() if (e >= 0.0) == largest else fs.min()), e)


def _check_ratio_condition(spec: CombinedSpec, exponent: float) -> None:
    """|f(meet)f(join)/(f(x_i)f(x_j))| ** exponent <= 1 for all pairs: at once
    where ``incidence._ratio_within_rounding`` proves it, else from the pair table."""
    if exponent == 0.0 or _ratio_within_rounding(spec.f, exponent):
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


def region_meet_closed(spec: CombinedSpec, c_value: ConstantValue) -> RegionReport:
    """Disc-union eigenvalue region for a meet closed index set.

    Discs are centered at f(x_k)**(alpha+beta-2 gamma) with common outer
    value H = C * max |f|^(2(beta-gamma)) * max |d_i|, where d is that of
    factor_meet_closed for f**(alpha-beta).
    """
    return _report(_region, spec, c_value, "meet", spec.alpha, spec.beta)


def region_join_closed(spec: CombinedSpec, c_value: ConstantValue) -> RegionReport:
    """Disc-union eigenvalue region for a join closed index set: the meet
    closed region on the order dual, with alpha and beta swapped."""
    return _report(_region, spec, c_value, "join", spec.beta, spec.alpha)


def _region(spec: CombinedSpec, c_value, side, a, b) -> RegionReport:
    """The region on either side.  d comes from ``matrices.closed_d``, with no
    incidence matrix E.  H's power of |f| is taken at the extreme |f| on S,
    as the lower bound's min_fpow is.
    """
    try:
        d = closed_d(spec.subset, spec.f, a - b, side)
    except FactorizationError:  # the set is not closed
        raise HypothesisError(f"the {side}-side region requires a {side} closed set") from None
    _check_ratio_condition(spec, b)
    h = c_value.value * _extreme_fpow(spec, b, largest=True) * float(np.abs(d).max())
    diag_exp = spec.alpha + spec.beta - 2.0 * spec.gamma
    centers = powers_by_value(spec.f.values[list(spec.subset.indices)], lambda v: real_power(v, diag_exp))
    radii = h - np.abs(centers)  # |f**k| = |f|**k: float ** negates |f|**k for a negative f
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
