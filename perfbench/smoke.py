"""Smoke test of the benchmark itself.

    python3 perfbench/smoke.py

For every workload: one op (cli-exact: one of each command) passes its
oracle check, one traced pass yields layer self times that add up to the
op time, and the same ops count as failed once one reference in oracle.py
is corrupted, for each reference the workload is checked against, so no
part of the oracle can pass vacuously.  Exits 0 when all of that holds.
"""

from __future__ import annotations

import sys
from contextlib import contextmanager

import oracle
import run
import spans
import workloads
from setup_probe import import_latmat

SHIFT = 1e-6  # far beyond every tolerance in oracle.py

# The references each workload's check must depend on.
DETECTS = {
    "scan-k6": ("c_n", "C_n"),
    "gcd-bounds": ("closed forms", "matrix", "convolution"),
    "divisor-region": ("closed forms", "matrix", "convolution"),
    "cli-exact": ("c_n", "C_n", "matrix", "convolution"),
}


def _scaled(fn):
    return lambda *args: fn(*args) * (1 + SHIFT)


def _value_scaled(fn):
    """A (value, tolerance) reference with the value shifted."""

    def bad(*args):
        value, tol = fn(*args)
        return value * (1 + SHIFT), tol

    return bad


def _bad_matrix(*args, matrix=oracle.power_matrix):
    m = matrix(*args)
    m[0, 0] += SHIFT * abs(m).max()
    return m


CORRUPTIONS = {
    "c_n": {
        "C6_PINNED": oracle.C6_PINNED * (1 + SHIFT),
        "TABLE1_CN": {**oracle.TABLE1_CN, 6: oracle.TABLE1_CN[6] * (1 + 1e3 * SHIFT)},
    },
    "C_n": {"closed_form_Cn": _scaled(oracle.closed_form_Cn)},
    "closed forms": {"thm52": _scaled(oracle.thm52), "t_n": _scaled(oracle.t_n)},
    "matrix": {"power_matrix": _bad_matrix},
    "convolution": {"down_conv": _value_scaled(oracle.down_conv), "up_conv": _value_scaled(oracle.up_conv)},
}


@contextmanager
def corrupted(name):
    patch = CORRUPTIONS[name]
    saved = {key: getattr(oracle, key) for key in patch}
    for key, value in patch.items():
        setattr(oracle, key, value)
    try:
        yield
    finally:
        for key, value in saved.items():
            setattr(oracle, key, value)


def smoke_ops(name, workload):
    first = workloads.make_rounds(workload, 0)[0][0]
    if name == "cli-exact":
        return list({op["kind"]: op for op in first}.values())
    return first[:1]


def main() -> int:
    latmat = import_latmat()
    problems = []
    for name, workload in workloads.WORKLOADS.items():
        before = len(problems)
        ops = [smoke_ops(name, workload)]

        stats = run.run_rounds(workload, latmat, ops, 1)
        if stats.failed:
            problems.append(f"{name}: clean ops failed: {stats.errors}")

        tracer = spans.Tracer()
        stats = run.run_rounds(workload, latmat, ops, 1, tracer)
        layers = spans.layer_metrics(tracer.spans, len(stats.traced))
        op_ms = 1e3 * sum(stats.traced) / len(stats.traced)
        if stats.failed or abs(layers["trace.self_sum_ms"] - op_ms) > 0.01 * op_ms:
            problems.append(f"{name}: traced op: self times {layers['trace.self_sum_ms']:.3f} ms vs op {op_ms:.3f} ms")

        for reference in DETECTS[name]:
            with corrupted(reference):
                stats = run.run_rounds(workload, latmat, ops, 1)
            if not stats.failed:
                problems.append(f"{name}: a corrupted {reference} reference was not counted as a failure")
        print(f"{name}: {'ok' if len(problems) == before else 'FAIL'}", flush=True)
    for line in problems:
        print(line, file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
