"""Command-line front end.

Exit codes: 0 success, 2 validation or hypothesis errors (the message names
the violated condition), 1 internal errors, including an eigensolve that did
not converge.
"""

from __future__ import annotations

import argparse
import os
import sys
from fractions import Fraction

import numpy as np

from . import bounds, constants, matrices, selftest
from ._kernels import SpectraError, backend_name
from .incidence import PosetFunction, load_function
from .matrices import CombinedSpec, combined_matrix, format_matrix, matrices_close
from .poset import Poset, chain_poset, divisor_poset, load_poset


def _parse_exponent(token: str) -> float:
    token = token.strip()
    if "/" in token:
        return float(Fraction(token))
    return float(token)


def _parse_exponents(text: str):
    parts = text.split(",")
    if len(parts) != 4:
        raise ValueError("--exp needs four comma-separated exponents a,b,g,d")
    try:
        return tuple(_parse_exponent(p) for p in parts)
    except (ValueError, ZeroDivisionError):
        raise ValueError(f"bad exponent list {text!r}") from None


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
    labels = []
    for tok in arg.split(","):
        tok = tok.strip()
        if not tok:
            continue
        try:
            labels.append(int(tok))
        except ValueError:
            labels.append(tok)
    if not labels:
        raise ValueError("--set is empty")
    return p.subset(labels)


def _build_spec(args) -> CombinedSpec:
    p = _load_poset_arg(args.poset)
    s = _parse_set_arg(p, args.set)
    f = _load_function_arg(p, args.func)
    a, b, g, d = _parse_exponents(args.exp)
    return CombinedSpec(a, b, g, d, s, f)


def _add_matrix_args(sp, need_exp=True):
    sp.add_argument("--poset", required=True, help="poset file, divisors:d1,d2,... or chain:n")
    sp.add_argument("--set", default=None, help="comma-separated member labels (default: all)")
    sp.add_argument("--func", default="N", help="N, const:c, or a function file")
    if need_exp:
        sp.add_argument("--exp", required=True, help="exponents a,b,g,d (fractions like 1/2 allowed)")
    sp.add_argument("--format", choices=("csv", "pretty"), default="csv")
    sp.add_argument("--tol", type=float, default=None, help="tolerance override where applicable")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="latmat",
        description="meet/join/combined matrices over finite lattices: "
        "construction, factorizations, eigenvalue bounds, extremal constants",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("build", help="construct a combined matrix and print it")
    _add_matrix_args(sp)

    sp = sub.add_parser("factor", help="factor a matrix and report the reconstruction residual")
    _add_matrix_args(sp)
    sp.add_argument(
        "--via",
        required=True,
        choices=("ideal", "filter", "meet-closed", "join-closed", "structure-meet", "structure-join"),
    )

    sp = sub.add_parser("bounds", help="lower bounds for the smallest eigenvalue (both sides)")
    _add_matrix_args(sp)
    sp.add_argument("--c", default="exact", help="exact | y0 | thm52 | thm53 | value")

    sp = sub.add_parser("region", help="eigenvalue inclusion region for a closed set")
    _add_matrix_args(sp)
    sp.add_argument("--C", default="exact", help="exact | tn | value")
    sp.add_argument("--side", choices=("meet", "join", "auto"), default="auto")

    sp = sub.add_parser("constants", help="closed-form constants for a given size")
    sp.add_argument("--n", type=int, required=True)

    sp = sub.add_parser("search", help="certified extremal-eigenvalue search over K(n)")
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--extremum", choices=("min", "max", "both"), default="both")
    sp.add_argument("--jobs", type=int, default=1, help="scan every mask over this many processes")
    sp.add_argument("--checkpoint-dir", default=None, help="scan every mask, checkpointing here")
    sp.add_argument("--ledger", default=None, help="CSV ledger to append results to")
    sp.add_argument(
        "--i-know",
        action="store_true",
        help="waive the size cap: n = 60 for the search, and for a scan "
        "(exponential in n(n-1)/2) n = 8 or LATMAT_MAX_N",
    )

    sp = sub.add_parser("verify-conjecture", help="certify whether the conjectured witness attains c_n")
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--jobs", type=int, default=1)
    sp.add_argument("--checkpoint-dir", default=None)

    sp = sub.add_parser("table1", help="constants table: both lower bounds and c_n")
    sp.add_argument("--n", type=int, required=True, help="largest n (at most 7)")
    sp.add_argument("--jobs", type=int, default=1)

    sub.add_parser("selftest", help="run the built-in invariant suite")
    return ap


def _cmd_build(args) -> int:
    spec = _build_spec(args)
    sys.stdout.write(format_matrix(combined_matrix(spec), args.format))
    return 0


def _cmd_factor(args) -> int:
    spec = _build_spec(args)
    s, f = spec.subset, spec.f
    tol = args.tol if args.tol is not None else matrices.MATRIX_EQ_TOL
    if args.via == "ideal":
        a = matrices.factor_ideal(s, f, spec.alpha)
        rec = a @ a.T
        blocks = {"A": a}
    elif args.via == "filter":
        a = matrices.factor_filter(s, f, spec.beta)
        rec = a @ a.T
        blocks = {"A": a}
    elif args.via == "meet-closed":
        e, d = matrices.factor_meet_closed(s, f, spec.alpha)
        rec = e @ np.diag(d) @ e.T
        blocks = {"E": e, "D": np.diag(d)}
    elif args.via == "join-closed":
        e, d = matrices.factor_join_closed(s, f, spec.beta)
        rec = e.T @ np.diag(d) @ e
        blocks = {"E": e, "D": np.diag(d)}
    elif args.via == "structure-meet":
        fac = matrices.structure_meet(spec)
        rec = fac.product()
        blocks = {"core": fac.core, "G": fac.g}
        m = combined_matrix(spec)
    else:
        fac = matrices.structure_join(spec)
        rec = fac.product()
        blocks = {"core": fac.core, "G": fac.g}
        m = combined_matrix(spec)

    if args.via in ("ideal", "filter"):
        # these two factor the pure meet/join matrix of the relevant exponent
        exp = spec.alpha if args.via == "ideal" else spec.beta
        target = (
            matrices.meet_matrix(s, f, exp)
            if args.via == "ideal"
            else matrices.join_matrix(s, f, exp)
        )
    elif args.via in ("meet-closed", "join-closed"):
        exp = spec.alpha if args.via == "meet-closed" else spec.beta
        target = (
            matrices.meet_matrix(s, f, exp)
            if args.via == "meet-closed"
            else matrices.join_matrix(s, f, exp)
        )
    else:
        target = m
    scale = max(np.abs(target).max(), np.abs(rec).max(), 1e-300)
    residual = float(np.abs(target - rec).max()) / scale
    for name, block in blocks.items():
        sys.stdout.write(f"# {name}\n")
        sys.stdout.write(format_matrix(block, args.format))
    sys.stdout.write(f"residual: {residual:.3e}\n")
    sys.stdout.write(f"reconstructs: {str(matrices_close(target, rec, rel=tol)).lower()}\n")
    return 0


def _cmd_bounds(args) -> int:
    spec = _build_spec(args)
    c = bounds.resolve_c(len(spec.subset), args.c)
    produced = 0
    for name, fn in (("meet", bounds.lower_bound_meet), ("join", bounds.lower_bound_join)):
        try:
            report = fn(spec, c)
        except bounds.HypothesisError as exc:
            sys.stdout.write(f"{name}-side: not applicable: {exc}\n")
            continue
        sys.stdout.write(report.render())
        produced += 1
    return 0 if produced else 2


def _cmd_region(args) -> int:
    spec = _build_spec(args)
    cval = bounds.resolve_C(len(spec.subset), args.C)
    sides = []
    if args.side in ("meet", "auto"):
        sides.append(("meet", bounds.region_meet_closed))
    if args.side in ("join", "auto"):
        sides.append(("join", bounds.region_join_closed))
    produced = 0
    errors = []
    for name, fn in sides:
        try:
            report = fn(spec, cval)
        except bounds.HypothesisError as exc:
            if args.side == "auto":
                errors.append(f"{name}-side: not applicable: {exc}")
                continue
            raise
        sys.stdout.write(report.render())
        produced += 1
    for msg in errors:
        sys.stdout.write(msg + "\n")
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
    cap = None
    if args.i_know:
        cap = max(constants.search_cap(), args.n)
    rmin, rmax = constants.full_scan(
        args.n, jobs=args.jobs, checkpoint_dir=args.checkpoint_dir, cap=cap
    )
    ledger = args.ledger
    if ledger is None and args.checkpoint_dir is not None:
        ledger = os.path.join(args.checkpoint_dir, "results.csv")
    wanted = {"min": [rmin], "max": [rmax], "both": [rmin, rmax]}[args.extremum]
    for r in wanted:
        sys.stdout.write(
            f"n: {r.n}\nextremum: {r.extremum}\nvalue: {r.value:.17g}\n"
            f"witness_bits: {r.witness.bits}\nscanned: {r.matrices_scanned}\n"
        )
        if ledger is not None:
            constants.append_ledger(ledger, r)
    return 0


def _cmd_verify_conjecture(args) -> int:
    chk = constants.verify_conjecture(
        args.n, jobs=args.jobs, checkpoint_dir=args.checkpoint_dir
    )
    sys.stdout.write(
        f"n: {chk.n}\nc_n: {chk.c_n:.17g}\nkappa_y0: {chk.kappa_y0:.17g}\n"
        f"holds: {str(chk.holds).lower()}\nnodes: {chk.nodes}\nmargin: {chk.margin:.17g}\n"
    )
    return 0 if chk.holds else 1


def _cmd_table1(args) -> int:
    rows = constants.table1(args.n, jobs=args.jobs)
    sys.stdout.write(constants.format_table1(rows))
    return 0


def _cmd_selftest(_args) -> int:
    sys.stdout.write(f"backend: {backend_name()}\n")
    ok = selftest.run(sys.stdout)
    return 0 if ok else 1


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
