"""latmat benchmark: closed-loop workloads over the public API.

    python3 perfbench/run.py --workload gcd-bounds --seed 1 --seconds 20 --trace 0

Run from the repository root; latmat is imported from ./src.  One client
sends each op only after the previous one completed, in this one process
(cli-exact ops are child processes, one at a time), with no extra threads.
The op list is generated from --seed before timing starts, and --seconds
fixes how many rounds of it a run times (workloads.rounds_to_run); every op is
checked against an oracle that does not use latmat (oracle.py) as soon as
it is timed, outside the timing, and then dropped.

--trace 0 prints the end-to-end metrics.  --trace 1 times the calls into
each layer with wrappers installed at run time (spans.py) on every other
round, reports per-layer means per op and the tracing overhead, and writes
the spans to .bench_out/.  Both print a stamp of the environment and the
inputs, then, as the last line, one JSON object with the keys correct,
attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time

import spans
import workloads
from setup_probe import BENCH_DIR, ROOT, import_latmat

OUT_DIR = os.path.join(ROOT, ".bench_out")
SETUP_PROBES = 9
# The gated peak RSS is read after this many rounds, so that it does not
# depend on --seconds: memory that latmat holds until the cyclic garbage
# collector runs would otherwise make it grow with the number of ops in the
# run.  The traced run also reports the end-of-run peak, ungated.
RSS_ROUNDS = 2
MAX_ERRORS_SHOWN = 5
# A run stops early once its ops took this long, so that it ends within the
# three minutes a run may take even if latmat becomes several times slower.
BUSY_CAP_S = 120.0

E2E_UNITS = {
    "setup_s": "s",
    "op_p50_ms": "ms",
    "op_tail_ms": "ms",
    "ops_per_s": "1/s",
    "correct_ratio": "ratio",
    "peak_rss_mb": "MB",
}
LAYER_UNITS = {
    "poset.build_ms": "ms",
    "poset.mobius_ms": "ms",
    "poset.elements": "count",
    "poset.self_ms": "ms",
    "incidence.semimult_ms": "ms",
    "incidence.semimult_calls": "count",
    "incidence.conv_ms": "ms",
    "incidence.self_ms": "ms",
    "matrices.build_ms": "ms",
    "matrices.entries": "count",
    "matrices.self_ms": "ms",
    "spectra.eig_ms": "ms",
    "spectra.eig_calls": "count",
    "spectra.sweeps": "count",
    "spectra.rotations_computed": "count",
    "spectra.self_ms": "ms",
    "kernels.scan_ms": "ms",
    "kernels.masks": "count",
    "kernels.masks_per_s": "1/s",
    "kernels.jacobi_ms": "ms",
    "kernels.self_ms": "ms",
    "constants.scan_ms": "ms",
    "constants.masks_covered": "count",
    "constants.self_ms": "ms",
    "bounds.report_ms": "ms",
    "bounds.resolve_ms": "ms",
    "bounds.self_ms": "ms",
    "bounds.not_applicable_ratio": "ratio",
    "cli.import_ms": "ms",
    "cli.run_ms": "ms",
    "cli.self_ms": "ms",
    "bench.self_ms": "ms",
    "trace.op_ms": "ms",
    "trace.self_sum_ms": "ms",
    "trace.overhead_pct": "%",
    "fail_ratio": "ratio",
    "peak_rss_end_mb": "MB",
}


def tail(times):
    """Highest percentile with at least 10 samples beyond it: (value, percentile).

    With fewer than 11 samples no such percentile exists; the maximum is
    reported as the 100th.
    """
    ordered = sorted(times)
    n = len(ordered)
    if n < 11:
        return ordered[-1], 100.0
    return ordered[n - 11], 100.0 * (n - 10) / n


class Stats:
    def __init__(self):
        self.times = []  # seconds per op, every timed op
        self.traced = []  # seconds per op in traced rounds
        self.untraced = []  # and in the other rounds
        self.correct = 0
        self.errors = []
        self.rss_kb = 0  # the gated peak: after RSS_ROUNDS rounds in process
        self.rss_end_kb = 0  # the peak at the end of the run
        self.rounds = 0

    @property
    def attempted(self) -> int:
        return len(self.times)

    @property
    def failed(self) -> int:
        return self.attempted - self.correct


def run_op(workload, latmat, op, tracer, stats: Stats) -> float:
    """Time one op, then check its result outside the timing and the spans.

    The result is dropped on return, so no more than one op's result is
    alive at a time.  Returns the op's wall time in seconds.
    """
    if tracer is not None:
        span = tracer.begin_op()
    t0 = time.perf_counter()
    try:
        result = workload.run(latmat, op, tracer)
    except Exception as exc:  # a raising op is a failed op
        result = exc
    dt = time.perf_counter() - t0
    if tracer is not None:
        tracer.end(span)
        tracer.paused = True
    try:
        if isinstance(result, Exception):
            err = f"raised {type(result).__name__}: {result}"
        else:
            if not workload.in_process:
                stats.rss_kb = max(stats.rss_kb, result[2])
            try:
                err = workload.check(latmat, op, result)
            except Exception as exc:  # an unreadable output is a wrong output
                err = f"check raised {type(exc).__name__}: {exc}"
    finally:
        if tracer is not None:
            tracer.paused = False
    stats.times.append(dt)
    (stats.untraced if tracer is None else stats.traced).append(dt)
    if err is None:
        stats.correct += 1
    elif len(stats.errors) < MAX_ERRORS_SHOWN:
        stats.errors.append({"op": op, "error": err})
    return dt


def run_rounds(workload, latmat, rounds, n_rounds, tracer=None, probes=None) -> Stats:
    """Run the first `n_rounds` rounds, or fewer once the op time passes BUSY_CAP_S.

    With a tracer, even-numbered rounds are traced and odd ones are not.
    Set-up probes run between rounds, outside the op timings.
    """
    stats = Stats()
    busy = 0.0
    while stats.rounds < n_rounds and busy < BUSY_CAP_S:
        traced = tracer is not None and stats.rounds % 2 == 0
        if traced:
            tracer.install()
        try:
            for op in rounds[stats.rounds % len(rounds)]:
                busy += run_op(workload, latmat, op, tracer if traced else None, stats)
        finally:
            if traced:
                tracer.uninstall()
        stats.rounds += 1
        if workload.in_process and stats.rounds <= RSS_ROUNDS:
            stats.rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        if probes is not None:
            probes.catch_up(stats.rounds / n_rounds)
    if probes is not None:
        probes.catch_up(1.0)  # after a stop at BUSY_CAP_S
    in_process = workload.in_process
    stats.rss_end_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss if in_process else stats.rss_kb
    return stats


class SetupProbes:
    """Set-up time: fresh interpreters that import latmat and generate the ops.

    The probes are spread over the run, between rounds, so that the median
    covers the same stretch of machine time as the op timings.
    """

    def __init__(self, workload_name: str, seed: int):
        self.cmd = [sys.executable, os.path.join(BENCH_DIR, "setup_probe.py"), workload_name, str(seed)]
        self.walls = []  # seconds per probe
        self.imports = []  # latmat import ms per probe

    def catch_up(self, fraction: float) -> None:
        while len(self.walls) < math.ceil(SETUP_PROBES * min(fraction, 1.0)):
            t0 = time.perf_counter()
            proc = subprocess.run(self.cmd, capture_output=True, text=True, cwd=ROOT, timeout=120)
            self.walls.append(time.perf_counter() - t0)
            if proc.returncode != 0:
                sys.exit(f"error: setup probe failed: {proc.stderr.strip()}")
            self.imports.append(json.loads(proc.stdout.splitlines()[-1])["import_ms"])


def git_stamp():
    """(commit, dirty) of the checkout, or (None, None) outside a git work tree."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        top = subprocess.run(
            ["git", "-C", ROOT, "rev-parse", "--show-toplevel", "HEAD"],
            capture_output=True, text=True, env=env, timeout=30,
        )
        if top.returncode != 0:
            return None, None
        toplevel, commit = top.stdout.split()
        if os.path.realpath(toplevel) != os.path.realpath(ROOT):
            return None, None
        status = subprocess.run(
            ["git", "-C", ROOT, "status", "--porcelain", "--untracked-files=no"],
            capture_output=True, text=True, env=env, timeout=30,
        )
        return commit, bool(status.stdout.strip())
    except (OSError, ValueError, subprocess.TimeoutExpired):
        return None, None


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def environment(latmat) -> dict:
    import numpy

    commit, dirty = git_stamp()
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "numba_importable": importlib.util.find_spec("numba") is not None,
        "latmat_backend": latmat.backend_name(),
        "git_commit": commit,
        "git_dirty": dirty,
    }


def end_to_end(stats: Stats, setup_walls) -> tuple:
    tail_value, tail_pct = tail(stats.times)
    metrics = {
        "setup_s": statistics.median(setup_walls),
        "op_p50_ms": 1e3 * statistics.median(stats.times),
        "op_tail_ms": 1e3 * tail_value,
        "ops_per_s": stats.correct / sum(stats.times),
        "correct_ratio": stats.correct / stats.attempted,
        "peak_rss_mb": stats.rss_kb / 1024.0,
    }
    return metrics, {"op_tail_percentile": tail_pct, "samples": stats.attempted}


def per_layer(stats: Stats, tracer, setup_imports, in_process) -> tuple:
    traced_ops = len(stats.traced)
    metrics = spans.layer_metrics(tracer.spans, traced_ops)
    if in_process:
        # no child process: the import happens in set-up, timed by the probes
        metrics["cli.import_ms"] = statistics.median(setup_imports)
    metrics["trace.op_ms"] = 1e3 * statistics.fmean(stats.traced)
    # traced against untraced ops_per_s, as the relative slow-down in percent
    metrics["trace.overhead_pct"] = (
        100.0 * (statistics.fmean(stats.traced) / statistics.fmean(stats.untraced) - 1.0)
        if stats.untraced
        else 0.0
    )
    metrics["fail_ratio"] = stats.failed / stats.attempted
    metrics["peak_rss_end_mb"] = stats.rss_end_kb / 1024.0
    for name in tracer.absent_metrics:
        metrics.pop(name, None)
    extra = {"traced_ops": traced_ops, "untraced_ops": len(stats.untraced), "absent": sorted(tracer.absent_metrics)}
    return {k: metrics[k] for k in LAYER_UNITS if k in metrics}, extra


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    latmat = import_latmat()
    workload = workloads.WORKLOADS[args.workload]
    probes = SetupProbes(args.workload, args.seed)
    rounds, digest = workloads.make_rounds(workload, args.seed)
    workload.run(latmat, workload.warmup, None)  # first-call costs stay out of the timings

    tracer = spans.Tracer() if args.trace else None
    n_rounds = workloads.rounds_to_run(workload, args.seconds)
    stats = run_rounds(workload, latmat, rounds, n_rounds, tracer, probes)

    report = {
        "workload": args.workload,
        "seed": args.seed,
        "ops_sha256": digest,
        "seconds": args.seconds,
        "trace": args.trace,
        "rounds": stats.rounds,
        "rounds_planned": n_rounds,
        "environment": environment(latmat),
        "errors": stats.errors,
    }
    if args.trace:
        metrics, extra = per_layer(stats, tracer, probes.imports, workload.in_process)
        units = LAYER_UNITS
        os.makedirs(OUT_DIR, exist_ok=True)
        path = os.path.join(OUT_DIR, f"spans-{args.workload}-seed{args.seed}.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(tracer.dump(), fh)
        report.update(extra, spans_file=os.path.relpath(path, ROOT))
    else:
        metrics, extra = end_to_end(stats, probes.walls)
        units = E2E_UNITS
        report.update(extra)
    print(json.dumps({"report": report}))
    for name, value in metrics.items():
        print(f"{name:>28}  {value:16.6f}  {units[name]}")
    print(
        json.dumps(
            {
                "correct": stats.failed == 0,
                "attempted": stats.attempted,
                "failed": stats.failed,
                "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
