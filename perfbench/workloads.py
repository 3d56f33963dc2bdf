"""The benchmark's workloads: seeded op lists, one op, and its oracle check.

Ops come in rounds, and rounds in cycles.  A run is made of the whole
cycles that come closest to --seconds at this commit, and at least a
workload's `min_cycles` (rounds_to_run).  Every round of gcd-bounds and
divisor-region holds each size class once, and the exponent pairs rotate
through a Latin square, so every cycle holds each (size, pair) op once and
every run the same mix of ops whatever the seed; the seed picks the order.
Each op builds its poset or spec afresh, as every command line invocation
does, so lazy tables are never warm across ops.

The mix is chosen so that the median op and the tail op (the 11th slowest,
see run.tail) each fall inside a size class with many ops in every run, not
on the edge between two classes: there, which op a percentile picks would
jump with the machine's noise.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import random
import subprocess
import sys
from fractions import Fraction

import oracle
from cli_child import SPANS_MARKER
from setup_probe import BENCH_DIR, ROOT, SRC

ROUNDS = 60  # a multiple of every workload's cycle


def make_rounds(workload, seed: int):
    """The workload's rounds of ops for this seed, and a hash of them."""
    rounds = workload.rounds(random.Random(seed))
    digest = hashlib.sha256(json.dumps(rounds, sort_keys=True).encode()).hexdigest()
    return rounds, digest


def rounds_to_run(workload, seconds: float) -> int:
    """The whole cycles that come closest to `seconds` at this commit, and at
    least `min_cycles`.

    `cycle_s` is a cycle's op time measured on a 2-vCPU Xeon VM with the
    numpy backend.  The work of a run is fixed by `seconds` alone, so every
    run of a workload times the same mix of ops, whatever the machine's speed.
    """
    return workload.cycle * max(workload.min_cycles, round(seconds / workload.cycle_s))


def latin_rounds(rng, sizes, pairs, rounds=ROUNDS):
    """Rounds of (size, pair) ops, one op per size in each round; any
    len(pairs) consecutive rounds hold every (size, pair) combination
    exactly once.  Needs no more sizes than pairs."""
    p = len(pairs)
    relabel = rng.sample(list(pairs), p)
    out = []
    for r in range(rounds):
        ops = [(size, relabel[(i + r) % p]) for i, size in enumerate(sizes)]
        rng.shuffle(ops)
        out.append(ops)
    return out


def _exp(text: str) -> float:
    return float(Fraction(text))


class ScanK6:
    """Each op is one uncached exhaustive scan of the 32,768 masks of K(6)."""

    name = "scan-k6"
    in_process = True
    cycle = 1
    min_cycles = 1
    cycle_s = 1.25
    warmup = {"n": 5}

    def rounds(self, rng):
        return [[{"n": 6}] for _ in range(ROUNDS)]

    def run(self, latmat, op, tracer):
        return latmat.full_scan(op["n"])

    def check(self, latmat, op, result):
        return oracle.check_scan(*result)


class GcdBounds:
    """gcd(i,j)^a lcm(i,j)^b on S = {1..n}: both lower-bound routes.

    n = 14..16 gives gcd/lcm closures of 192 and 240 elements around an S of
    at most 16, so lattice tables and the semimultiplicativity test dominate.
    Two thirds of the ops are on 192 elements, which holds the median; the
    240-element third holds the tail.  n = 17 and 18 (480 elements) are
    left out: an op there takes four times as long as at n = 16, so a run
    holds too few of them for a steady tail, and the median would fall
    between size classes.
    Every pair has a > b and satisfies both routes' hypotheses.
    """

    name = "gcd-bounds"
    in_process = True
    warmup = {"n": 6, "alpha": "1", "beta": "0"}
    sizes = (14, 15, 16)
    pairs = (("1", "0"), ("2", "1"), ("3/2", "1/2"), ("1", "1/2"), ("1/2", "-1/2"))
    cycle = len(pairs)
    min_cycles = 1
    cycle_s = 3.5

    def rounds(self, rng):
        return [
            [{"n": n, "alpha": a, "beta": b} for n, (a, b) in ops]
            for ops in latin_rounds(rng, self.sizes, self.pairs)
        ]

    def run(self, latmat, op, tracer):
        n = op["n"]
        spec = latmat.gcd_power_family(n, _exp(op["alpha"]), _exp(op["beta"]))
        c = latmat.resolve_c(n, "thm52")
        return spec, c, latmat.lower_bound_meet(spec, c), latmat.lower_bound_join(spec, c)

    def check(self, latmat, op, result):
        spec, c, *reports = result
        n = op["n"]
        # the gcd/lcm closure of 1..n is the set of all divisors of lcm(1..n)
        fam = oracle.Family(range(1, n + 1), _exp(op["alpha"]), _exp(op["beta"]), "divisors", math.lcm(*range(1, n + 1)))
        err = oracle.check_matrix(latmat.combined_matrix(spec), fam.matrix())
        if err:
            return err
        c_ref = oracle.thm52(n)
        if abs(c.value - c_ref) > oracle.CLOSED_FORM_RTOL * c_ref:
            return f"c {c.value!r} != closed form {c_ref!r}"
        for rep in reports:
            fields = {k: getattr(rep, k) for k in ("side", "bound", "min_conv", "min_fpow", "true_kappa", "holds")}
            err = oracle.check_bound(fam, fields, c_ref, oracle.CLOSED_FORM_RTOL)
            if err:
                return f"{rep.side} side: {err}"
        return None


class DivisorRegion:
    """Inclusion regions on S = all divisors of m, both sides.

    m has 30, 48 or 72 divisors, S is the whole lattice, so the eigensolve
    of one N x N matrix dominates; exponents include negative and fractional
    ones.  The three sizes take about 0.13, 0.3 and 0.75 s an op, so the
    median falls inside the middle size and the tail inside the largest.
    """

    name = "divisor-region"
    in_process = True
    warmup = {"m": 12, "alpha": "1", "beta": "0"}
    sizes = (720, 2520, 10080)
    pairs = (("1", "0"), ("0", "1"), ("1/2", "-1/2"), ("-1", "1"), ("3/2", "-1/2"))
    cycle = len(pairs)
    # at least 15 ops per size, so that the tail (the 11th slowest op) is
    # never the fastest op of the largest size
    min_cycles = 3
    cycle_s = 6.0

    def rounds(self, rng):
        return [
            [{"m": m, "alpha": a, "beta": b} for m, (a, b) in ops]
            for ops in latin_rounds(rng, self.sizes, self.pairs)
        ]

    def run(self, latmat, op, tracer):
        spec = latmat.divisor_closed_family(op["m"], _exp(op["alpha"]), _exp(op["beta"]))
        cval = latmat.resolve_C(len(spec.subset), "tn")
        return spec, cval, latmat.region_meet_closed(spec, cval), latmat.region_join_closed(spec, cval)

    def check(self, latmat, op, result):
        spec, cval, *reports = result
        labels = oracle.divisors(op["m"])
        if list(spec.subset.labels) != labels.tolist():
            return "S is not the divisor set of m"
        fam = oracle.Family(labels, _exp(op["alpha"]), _exp(op["beta"]), "divisors", op["m"])
        err = oracle.check_matrix(latmat.combined_matrix(spec), fam.matrix())
        if err:
            return err
        C_ref = oracle.t_n(len(labels))
        if abs(cval.value - C_ref) > oracle.CLOSED_FORM_RTOL * C_ref:
            return f"C {cval.value!r} != t_n {C_ref!r}"
        for rep in reports:
            fields = {
                "side": rep.side,
                "H": rep.h_value,
                "d_values": rep.d_values,
                "eigenvalues": rep.eigenvalues,
                "contained": rep.contained,
            }
            err = oracle.check_region(fam, fields, C_ref, oracle.CLOSED_FORM_RTOL)
            if err:
                return f"{rep.side} side: {err}"
        return None


DIV12 = "divisors:1,2,3,4,6,12"
BOUNDS_CASES = (("chain:6", "1,0,0,0"), ("chain:6", "1/2,-1/2,0,0"), (DIV12, "2,0,0,0"), (DIV12, "1,0,0,0"))
REGION_CASES = ((DIV12, "-1,1,0,0"), (DIV12, "1/2,-1/2,0,0"), ("chain:6", "1,0,0,0"))


class CliExact:
    """One fresh `latmat` process per op that resolves an exact constant on a
    6-element S, so each process rescans K(6)."""

    name = "cli-exact"
    in_process = False
    cycle = 1
    # 16 ops, so that the tail (the 11th slowest op) is not the 2nd fastest
    min_cycles = 4
    cycle_s = 6.5
    warmup = {"kind": "constants", "argv": ["constants", "--n", "3"]}

    def rounds(self, rng):
        out = []
        for _ in range(ROUNDS):
            ops = [
                {"kind": "bounds", "argv": ["bounds", "--poset", p, "--func", "N", f"--exp={e}", "--c", "exact"]}
                for p, e in rng.sample(BOUNDS_CASES, 2)
            ]
            p, e = rng.choice(REGION_CASES)
            ops.append({"kind": "region", "argv": ["region", "--poset", p, "--func", "N", f"--exp={e}", "--C", "exact"]})
            ops.append({"kind": "table1", "argv": ["table1", "--n", "6"]})
            rng.shuffle(ops)
            out.append(ops)
        return out

    def run(self, latmat, op, tracer):
        """Returns (exit code, output, peak RSS in KiB); the child's spans go to the tracer."""
        if tracer is None:
            cmd = [sys.executable, "-m", "latmat.cli", *op["argv"]]
        else:
            cmd = [sys.executable, os.path.join(BENCH_DIR, "cli_child.py"), *op["argv"]]
        env = dict(os.environ, PYTHONPATH=SRC)
        proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, env=env, cwd=ROOT)
        try:
            out = proc.stdout.read().decode()
        finally:
            proc.stdout.close()
            # wait4 reaps the child and returns its own peak RSS
            _, status, usage = os.wait4(proc.pid, 0)
            proc.returncode = os.waitstatus_to_exitcode(status)
        lines = []
        for line in out.splitlines():
            if line.startswith(SPANS_MARKER):
                if tracer is not None:
                    tracer.adopt(json.loads(line[len(SPANS_MARKER) :]))
            else:
                lines.append(line)
        return proc.returncode, "\n".join(lines) + "\n", usage.ru_maxrss

    def check(self, latmat, op, result):
        code, text, _rss = result
        return oracle.check_cli(op["kind"], op["argv"], code, text)


WORKLOADS = {w.name: w for w in (ScanK6(), GcdBounds(), DivisorRegion(), CliExact())}
