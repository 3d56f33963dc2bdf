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
from .matrices import (
    CombinedSpec,
    FactorizationError,
    factor_join_closed,
    factor_meet_closed,
    pair_ratios,
)
from .poset import ElementSubset, LatticeError, divisor_lattice, divisor_poset, divisors_of

REPORT_TOL = 1e-9
CONDITION_TOL = 1e-12


class HypothesisError(ValueError):
    """A stated hypothesis of a bound or region result is violated."""


@dataclass(frozen=True)
class ConstantValue:
    """An extremal constant together with where it came from.

    Provenance tokens: 'exact' (exhaustive search), 'y0' (conjectured
    witness), 'thm52'/'thm53' (the two closed-form lower bounds), 'tn'
    (closed-form upper bound), or 'user'.
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
    try:
        return ConstantValue(float(choice), "user")
    except ValueError:
        raise ValueError(f"unknown c constant selector {choice!r}") from None


def resolve_C(n: int, choice: str) -> ConstantValue:
    """Resolve a C-constant selector: exact | tn | number.

    exact is the closed form of the MIN matrix's largest eigenvalue
    (constants.search_Cn), with no scan, no eigensolve and no size cap.
    """
    if choice == "exact":
        return ConstantValue(constants.search_Cn(n).value, "exact")
    if choice == "tn":
        return ConstantValue(constants.t_n(n), "tn")
    try:
        return ConstantValue(float(choice), "user")
    except ValueError:
        raise ValueError(f"unknown C constant selector {choice!r}") from None


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
    if not is_semimultiplicative(f, spec.subset):
        raise HypothesisError(
            "the lower bound requires a semimultiplicative f "
            "(f(x)f(y) = f(meet)f(join) for all pairs of S)"
        )


def _holds(bound: float, true_kappa: float) -> bool:
    return bound <= true_kappa + REPORT_TOL * max(1.0, abs(true_kappa))


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
    for label, value in zip(conv.domain.labels, conv.values):
        if value <= 0.0:
            raise HypothesisError(
                f"the {side}-side lower bound requires a strictly positive "
                f"{conv.direction}-convolution on the {closure}; "
                f"violated at {label!r} (value {value})"
            )
    min_conv = float(conv.values[: len(s)].min())
    min_fpow = min(real_power(spec.f.value_at(i) ** 2, b - spec.gamma) for i in s.indices)
    bound = c_value.value * min_conv * min_fpow
    true_kappa = float(np.abs(spec.spectrum.eigenvalues).min())
    return BoundReport(
        side, bound, c_value, min_conv, min_fpow, true_kappa, _holds(bound, true_kappa)
    )


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


def _finish_region(spec: CombinedSpec, side, c_value, d, fpow_exponent) -> RegionReport:
    s = spec.subset
    f = spec.f
    max_fpow = max(real_power(abs(f.value_at(i)), fpow_exponent) for i in s.indices)
    h = c_value.value * max_fpow * float(np.abs(d).max())
    diag_exp = spec.alpha + spec.beta - 2.0 * spec.gamma
    discs = []
    for i in s.indices:
        center = real_power(f.value_at(i), diag_exp)
        radius = h - real_power(abs(f.value_at(i)), diag_exp)
        discs.append((center, radius))
    eigs = spec.spectrum.eigenvalues
    contained = all(
        any(abs(lam - c) - r <= REPORT_TOL * max(1.0, abs(lam)) for c, r in discs)
        for lam in eigs
    )
    return RegionReport(side, discs, d, h, c_value, eigs, contained)


def region_meet_closed(spec: CombinedSpec, c_value: ConstantValue) -> RegionReport:
    """Disc-union eigenvalue region for a meet closed index set.

    Discs are centered at f(x_k)**(alpha+beta-2 gamma) with common outer
    value H = C * max |f|^(2(beta-gamma)) * max |d_i|, where d is that of
    factor_meet_closed for f**(alpha-beta).
    """
    return _region(spec, c_value, "meet", factor_meet_closed, spec.alpha, spec.beta)


def region_join_closed(spec: CombinedSpec, c_value: ConstantValue) -> RegionReport:
    """Disc-union eigenvalue region for a join closed index set: the meet
    closed region on the order dual, with alpha and beta swapped."""
    return _region(spec, c_value, "join", factor_join_closed, spec.beta, spec.alpha)


def _region(spec: CombinedSpec, c_value, side, factor, a, b) -> RegionReport:
    _require_symmetric_case(spec)
    spec.validate()
    try:
        _, d = factor(spec.subset, spec.f, a - b)
    except FactorizationError:  # the set is not closed
        raise HypothesisError(f"the {side}-side region requires a {side} closed set") from None
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
    lcm values exist), f the identity, gamma = delta = 0.
    """
    lattice = divisor_lattice(range(1, n + 1))
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
