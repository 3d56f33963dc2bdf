"""Command-line front end.

Exit codes: 0 success, 2 validation or hypothesis errors (the message names
the violated condition), 1 internal errors, including an eigensolve that did
not converge.
"""

from __future__ import annotations

import argparse
import math
import sys
from fractions import Fraction

import numpy as np

from . import bounds, constants, matrices
from ._kernels import SpectraError
from .incidence import PosetFunction, load_function
from .matrices import CombinedSpec, combined_matrix, format_matrix, matrices_close
from .poset import Poset, _parse_label, chain_poset, divisor_poset, load_poset


def _parse_exponent(token: str) -> float:
    token = token.strip()
    if "/" in token:
        try:
            return float(Fraction(token))
        except OverflowError:  # a fraction past float64's range
            return math.inf
    return float(token)


def _parse_exponents(text: str):
    parts = text.split(",")
    if len(parts) != 4:
        raise ValueError("--exp needs four comma-separated exponents a,b,g,d")
    try:
        values = tuple(_parse_exponent(p) for p in parts)
    except (ValueError, ZeroDivisionError):
        raise ValueError(f"bad exponent list {text!r}") from None
    for token, value in zip(parts, values):
        if not math.isfinite(value):
            raise ValueError(f"exponent {token.strip()!r} in --exp is not a finite number")
    return values


def _load_poset_arg(arg: str) -> Poset:
    if arg.startswith("divisors:"):
        try:
            ints = [int(t) for t in arg[len("divisors:") :].split(",") if t.strip()]
        except ValueError:
            raise ValueError(f"bad divisor list in {arg!r}") from None
        if not ints:
            raise ValueError("empty divisor list")
        return divisor_poset(ints)
    if arg.startswith("chain:"):
        try:
            return chain_poset(int(arg[len("chain:") :]))
        except ValueError:
            raise ValueError(f"bad chain length in {arg!r}") from None
    return load_poset(arg)


def _load_function_arg(p: Poset, arg: str) -> PosetFunction:
    if arg == "N" or arg.startswith("const:"):
        return PosetFunction.from_name(p, arg)
    return load_function(p, arg)


def _parse_set_arg(p: Poset, arg: str | None):
    if arg is None:
        return p.subset(p.elements)
    labels = [_parse_label(tok.strip()) for tok in arg.split(",") if tok.strip()]
    if not labels:
        raise ValueError("--set is empty")
    return p.subset(labels)


def _build_spec(args) -> CombinedSpec:
    p = _load_poset_arg(args.poset)
    s = _parse_set_arg(p, args.set)
    f = _load_function_arg(p, args.func)
    a, b, g, d = _parse_exponents(args.exp)
    return CombinedSpec(a, b, g, d, s, f)


def _add_matrix_args(sp):
    sp.add_argument("--poset", required=True, help="poset file, divisors:d1,d2,... or chain:n")
    sp.add_argument("--set", default=None, help="comma-separated member labels (default: all)")
    sp.add_argument("--func", default="N", help="N, const:c, or a function file")
    sp.add_argument("--exp", required=True, help="exponents a,b,g,d (fractions like 1/2 allowed)")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="latmat",
        description="meet/join/combined matrices over finite lattices: "
        "construction, factorizations, eigenvalue bounds, extremal constants",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("build", help="construct a combined matrix and print it")
    _add_matrix_args(sp)
    sp.add_argument("--format", choices=("csv", "pretty"), default="csv")

    sp = sub.add_parser("factor", help="factor a matrix and report the reconstruction residual")
    _add_matrix_args(sp)
    sp.add_argument("--format", choices=("csv", "pretty"), default="csv")
    sp.add_argument(
        "--via",
        required=True,
        choices=("ideal", "filter", "meet-closed", "join-closed", "structure-meet", "structure-join"),
    )

    sp = sub.add_parser("bounds", help="lower bounds for the smallest eigenvalue (both sides)")
    _add_matrix_args(sp)
    sp.add_argument("--c", default="exact", help="exact | y0 | thm52 | thm53 | value")

    sp = sub.add_parser("region", help="eigenvalue inclusion regions for a closed set (both sides)")
    _add_matrix_args(sp)
    sp.add_argument("--C", default="exact", help="exact | tn | value")

    sp = sub.add_parser("constants", help="closed-form constants for a given size")
    sp.add_argument("--n", type=int, required=True)

    sp = sub.add_parser("search", help="certified extremal-eigenvalue search over K(n)")
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--extremum", choices=("min", "max", "both"), default="both")
    sp.add_argument("--ledger", default=None, help="CSV ledger to append results to")
    sp.add_argument("--i-know", action="store_true", help="waive the c_n search's size cap of n = 60")

    sp = sub.add_parser("verify-conjecture", help="certify whether the conjectured witness attains c_n")
    sp.add_argument("--n", type=int, required=True)

    sp = sub.add_parser("table1", help="constants table: both lower bounds and c_n")
    sp.add_argument("--n", type=int, required=True, help="largest n (at most 7)")

    sub.add_parser("selftest", help="run the built-in invariant suite")
    return ap


def _cmd_build(args) -> int:
    spec = _build_spec(args)
    sys.stdout.write(format_matrix(combined_matrix(spec), args.format))
    return 0


def _meet_side(spec):
    return spec.subset, spec.f, spec.alpha


def _join_side(spec):
    return spec.subset, spec.f, spec.beta


def _gram(a):
    return {"A": a}, a @ a.T


def _meet_closed(factors):
    e, d = factors
    return {"E": e, "D": np.diag(d)}, e @ np.diag(d) @ e.T


def _join_closed(factors):
    e, d = factors
    return {"E": e, "D": np.diag(d)}, e.T @ np.diag(d) @ e


def _structure(fac):
    return {"core": fac.core, "G": fac.g}, fac.product()


# --via: (operands taken from the spec, factor, its printed blocks and their
# product, the matrix that product must equal).  The factor and the target
# take the same operands: S, f and the route side's exponent, or the spec.
_FACTOR_ROUTES = {
    "ideal": (_meet_side, matrices.factor_ideal, _gram, matrices.meet_matrix),
    "filter": (_join_side, matrices.factor_filter, _gram, matrices.join_matrix),
    "meet-closed": (_meet_side, matrices.factor_meet_closed, _meet_closed, matrices.meet_matrix),
    "join-closed": (_join_side, matrices.factor_join_closed, _join_closed, matrices.join_matrix),
    "structure-meet": (lambda spec: (spec,), matrices.structure_meet, _structure, combined_matrix),
    "structure-join": (lambda spec: (spec,), matrices.structure_join, _structure, combined_matrix),
}


def _cmd_factor(args) -> int:
    spec = _build_spec(args)
    operands, factor, reconstruct, target = _FACTOR_ROUTES[args.via]
    blocks, rec = reconstruct(factor(*operands(spec)))
    target = target(*operands(spec))
    scale = max(np.abs(target).max(), np.abs(rec).max(), 1e-300)
    residual = float(np.abs(target - rec).max()) / scale
    for name, block in blocks.items():
        sys.stdout.write(f"# {name}\n")
        sys.stdout.write(format_matrix(block, args.format))
    sys.stdout.write(f"residual: {residual:.3e}\n")
    sys.stdout.write(f"reconstructs: {str(matrices_close(target, rec)).lower()}\n")
    return 0


def _cmd_bounds(args) -> int:
    spec = _build_spec(args)
    c = bounds.resolve_c(len(spec.subset), args.c)
    return _report_both_sides(spec, c, bounds.lower_bound_meet, bounds.lower_bound_join)


def _cmd_region(args) -> int:
    spec = _build_spec(args)
    c = bounds.resolve_C(len(spec.subset), args.C)
    return _report_both_sides(spec, c, bounds.region_meet_closed, bounds.region_join_closed)


def _report_both_sides(spec, c_value, meet_report, join_report) -> int:
    """Print each side's report, or why its hypotheses fail, meet side first;
    exit 0 if either side applies, else 2."""
    produced = 0
    for name, report in (("meet", meet_report), ("join", join_report)):
        try:
            sys.stdout.write(report(spec, c_value).render())
            produced += 1
        except bounds.HypothesisError as exc:
            sys.stdout.write(f"{name}-side: not applicable: {exc}\n")
    return 0 if produced else 2


def _cmd_constants(args) -> int:
    n = args.n
    out = [
        f"n: {n}",
        f"t_n: {constants.t_n(n):.17g}",
        f"cn_lower_bound_thm52: {constants.cn_lower_bound_from_tn(n):.17g}",
        f"cn_lower_bound_thm53: {constants.cn_lower_bound_from_n0(n):.17g}",
        f"n0_frobenius: {constants.n0_frobenius(n):.17g}",
        f"n0_frobenius_closed_form: {constants.n0_frobenius_closed_form(n):.17g}",
        f"kappa_y0: {constants.kappa_y0(n):.17g}",
    ]
    sys.stdout.write("\n".join(out) + "\n")
    return 0


def _cmd_search(args) -> int:
    # only the sides asked: C_n has a closed form and no cap, c_n a search
    wanted = []
    if args.extremum in ("min", "both"):
        wanted.append(constants.search_cn(args.n, args.n if args.i_know else None))
    if args.extremum in ("max", "both"):
        wanted.append(constants.search_Cn(args.n))
    for r in wanted:
        sys.stdout.write(
            f"n: {r.n}\nextremum: {r.extremum}\nvalue: {r.value:.17g}\n"
            f"witness_bits: {r.witness.bits}\nscanned: {r.matrices_scanned}\n"
        )
        if args.ledger is not None:
            constants.append_ledger(args.ledger, r)
    return 0


def _cmd_verify_conjecture(args) -> int:
    chk = constants.verify_conjecture(args.n)
    sys.stdout.write(
        f"n: {chk.n}\nc_n: {chk.c_n:.17g}\nkappa_y0: {chk.kappa_y0:.17g}\n"
        f"holds: {str(chk.holds).lower()}\nnodes: {chk.nodes}\nmargin: {chk.margin:.17g}\n"
    )
    return 0 if chk.holds else 1


def _cmd_table1(args) -> int:
    rows = constants.table1(args.n)
    sys.stdout.write(constants.format_table1(rows))
    return 0


def _cmd_selftest(_args) -> int:
    from . import selftest  # only this command needs it, and every other would compile it

    return 0 if selftest.run(sys.stdout) else 1


_HANDLERS = {
    "build": _cmd_build,
    "factor": _cmd_factor,
    "bounds": _cmd_bounds,
    "region": _cmd_region,
    "constants": _cmd_constants,
    "search": _cmd_search,
    "verify-conjecture": _cmd_verify_conjecture,
    "table1": _cmd_table1,
    "selftest": _cmd_selftest,
}


def run(argv=None) -> int:
    """Parse arguments, dispatch, and map errors to exit codes."""
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:  # argparse exits 2 on bad flags already
        return int(exc.code or 0)
    try:
        return _HANDLERS[args.command](args)
    except SpectraError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 1
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # pragma: no cover - defensive
        print(f"internal error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
