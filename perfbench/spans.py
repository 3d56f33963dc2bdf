"""Spans around calls into latmat's layers, installed from outside the package.

`Tracer.install` replaces each target function, wherever a loaded latmat
module holds it, with a wrapper that records a span (name, layer, start,
end, parent) and a few counts read off the result.  `uninstall` puts the
originals back.  Spans stay in memory; `layer_metrics` turns them into
per-op means.  A target that a later refactor removed is reported as absent
instead of failing the run.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time

# (module, attribute, span name).  The layer is the part of the span name
# before the dot, named after the module.
TARGETS = (
    ("latmat.poset", "gcd_lcm_closure", "poset.build"),
    ("latmat.poset", "divisor_lattice", "poset.build"),
    ("latmat.poset", "divisor_poset", "poset.build"),
    ("latmat.poset", "chain_poset", "poset.build"),
    ("latmat.poset", "Poset.mobius", "poset.mobius"),
    ("latmat.incidence", "is_semimultiplicative", "incidence.semimult"),
    ("latmat.incidence", "down_convolution", "incidence.conv"),
    ("latmat.incidence", "up_convolution", "incidence.conv"),
    ("latmat.matrices", "combined_matrix", "matrices.build"),
    ("latmat.spectra", "eigen_symmetric", "spectra.eig"),
    ("latmat._kernels", "scan_mask_range", "kernels.scan"),
    ("latmat._kernels", "jacobi_eigenvalues", "kernels.jacobi"),
    ("latmat.constants", "full_scan", "constants.scan"),
    ("latmat.constants", "search_cn", "constants.search"),
    ("latmat.constants", "search_Cn", "constants.search"),
    ("latmat.constants", "table1", "constants.table1"),
    ("latmat.bounds", "gcd_power_family", "bounds.family"),
    ("latmat.bounds", "divisor_closed_family", "bounds.family"),
    ("latmat.bounds", "resolve_c", "bounds.resolve"),
    ("latmat.bounds", "resolve_C", "bounds.resolve"),
    ("latmat.bounds", "lower_bound_meet", "bounds.report"),
    ("latmat.bounds", "lower_bound_join", "bounds.report"),
    ("latmat.bounds", "region_meet_closed", "bounds.report"),
    ("latmat.bounds", "region_join_closed", "bounds.report"),
    ("latmat.cli", "run", "cli.run"),
)


def _poset_counts(result):
    return {"poset.elements": len(result)} if hasattr(result, "leq_matrix") else None


def _eig_counts(result):
    n = len(result.eigenvalues)
    return {
        "spectra.sweeps": result.iterations,
        "spectra.rotations_computed": result.iterations * n * (n - 1) // 2,
    }


# Counts read off a span's result, summed over outermost spans of that name.
COUNTERS = {
    "poset.build": _poset_counts,
    "matrices.build": lambda m: {"matrices.entries": int(m.size)},
    "spectra.eig": _eig_counts,
    "kernels.scan": lambda part: {"kernels.masks": int(part[4])},
    "constants.scan": lambda pair: {"constants.masks_covered": int(pair[0].matrices_scanned)},
}

# Inclusive time of outermost spans, as `<metric>_ms`.
TIMED = (
    "poset.build",
    "poset.mobius",
    "incidence.semimult",
    "incidence.conv",
    "matrices.build",
    "spectra.eig",
    "kernels.scan",
    "kernels.jacobi",
    "constants.scan",
    "bounds.report",
    "bounds.resolve",
    "cli.run",
)
COUNTED = (
    "poset.elements",
    "matrices.entries",
    "spectra.sweeps",
    "spectra.rotations_computed",
    "kernels.masks",
    "constants.masks_covered",
)
CALLS = {"incidence.semimult": "incidence.semimult_calls", "spectra.eig": "spectra.eig_calls"}
LAYERS = ("poset", "incidence", "matrices", "spectra", "kernels", "constants", "bounds", "cli", "bench")
# Metrics that depend on a target; they are absent when it is.
DEPENDS = {
    "poset.build": ("poset.build_ms", "poset.elements"),
    "poset.mobius": ("poset.mobius_ms",),
    "incidence.semimult": ("incidence.semimult_ms", "incidence.semimult_calls"),
    "incidence.conv": ("incidence.conv_ms",),
    "matrices.build": ("matrices.build_ms", "matrices.entries"),
    "spectra.eig": ("spectra.eig_ms", "spectra.eig_calls", "spectra.sweeps", "spectra.rotations_computed"),
    "kernels.scan": ("kernels.scan_ms", "kernels.masks", "kernels.masks_per_s"),
    "kernels.jacobi": ("kernels.jacobi_ms",),
    "constants.scan": ("constants.scan_ms", "constants.masks_covered"),
    "bounds.report": ("bounds.report_ms", "bounds.not_applicable_ratio"),
    "bounds.resolve": ("bounds.resolve_ms",),
    "cli.run": ("cli.run_ms",),
}


class Tracer:
    """In-memory span recorder; one per run."""

    def __init__(self):
        # each span: [name, layer, start, end, parent, op, counts, error]
        self.spans = []
        self._stack = []
        self._saved = []
        self._missing = set()
        self._found = set()
        self.op = -1
        self.paused = False  # while set, the wrappers record nothing

    def begin(self, name, layer=None) -> int:
        parent = self._stack[-1] if self._stack else None
        layer = layer or name.split(".", 1)[0]
        self.spans.append([name, layer, time.perf_counter(), None, parent, self.op, None, None])
        self._stack.append(len(self.spans) - 1)
        return len(self.spans) - 1

    def begin_op(self) -> int:
        """Open the root span of the next op; the benchmark's own time is layer `bench`."""
        self.op += 1
        return self.begin("op", layer="bench")

    def end(self, idx, counts=None, error=None) -> None:
        span = self.spans[idx]
        span[3] = time.perf_counter()
        span[6] = counts
        span[7] = error
        self._stack.pop()

    def adopt(self, spans) -> None:
        """Attach spans recorded by a child process under the open span.

        time.perf_counter reads the system-wide monotonic clock on Linux, so
        child timestamps fall inside the parent's span.
        """
        base = len(self.spans)
        top = self._stack[-1] if self._stack else None
        for name, layer, start, end, parent, _op, counts, error in spans:
            parent = top if parent is None else parent + base
            self.spans.append([name, layer, start, end, parent, self.op, counts, error])

    def _wrap(self, name, fn):
        counter = COUNTERS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self.paused:
                return fn(*args, **kwargs)
            idx = self.begin(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                self.end(idx, error=type(exc).__name__)
                raise
            try:
                counts = counter(result) if counter else None
            except (AttributeError, TypeError, IndexError):
                counts = None  # the result changed shape; the counts read as zero
            self.end(idx, counts)
            return result

        return wrapper

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer is already installed")
        for module_name, attr, name in TARGETS:
            try:
                owner = importlib.import_module(module_name)
                for part in attr.split(".")[:-1]:
                    owner = getattr(owner, part)
                original = getattr(owner, attr.rsplit(".", 1)[-1])
            except (ImportError, AttributeError):
                self._missing.add(name)
                continue
            self._found.add(name)
            wrapper = self._wrap(name, original)
            key = attr.rsplit(".", 1)[-1]
            if "." in attr:
                holders = [owner]
            else:
                # modules that imported the function by name hold their own reference
                holders = [
                    mod
                    for mod_name, mod in list(sys.modules.items())
                    if (mod_name == "latmat" or mod_name.startswith("latmat."))
                    and getattr(mod, key, None) is original
                ]
            for holder in holders:
                self._saved.append((holder, key, original))
                setattr(holder, key, wrapper)

    def uninstall(self) -> None:
        for holder, key, original in reversed(self._saved):
            setattr(holder, key, original)
        self._saved = []

    @property
    def absent_metrics(self) -> set:
        """Metrics whose every target was missing when the tracer was installed."""
        return {m for name in self._missing - self._found for m in DEPENDS.get(name, ())}

    def dump(self):
        keys = ("name", "layer", "start", "end", "parent", "op", "counts", "error")
        return [dict(zip(keys, span)) for span in self.spans]


def layer_metrics(spans, ops: int) -> dict:
    """Per-op means of span times and counts over `ops` traced ops.

    Self time is a span's duration minus its children's; summed over all
    layers (the benchmark's own `bench` layer included) it equals the summed
    op time.
    """
    child_time = [0.0] * len(spans)
    for name, layer, start, end, parent, *_ in spans:
        if parent is not None:
            child_time[parent] += end - start
    self_by_layer = dict.fromkeys(LAYERS, 0.0)
    inclusive = {}
    calls = {}
    counts = {}
    reports = refused = 0
    for k, (name, layer, start, end, parent, _op, cnt, error) in enumerate(spans):
        self_by_layer[layer] = self_by_layer.get(layer, 0.0) + (end - start) - child_time[k]
        if name == "bounds.report":
            reports += 1
            refused += error == "HypothesisError"
        p = parent
        while p is not None and spans[p][0] != name:
            p = spans[p][4]
        if p is not None:
            continue  # nested in a span of the same name
        inclusive[name] = inclusive.get(name, 0.0) + end - start
        calls[name] = calls.get(name, 0) + 1
        for key, value in (cnt or {}).items():
            counts[key] = counts.get(key, 0) + value

    ops = max(ops, 1)
    out = {}
    for name in TIMED:
        out[f"{name}_ms"] = 1e3 * inclusive.get(name, 0.0) / ops
    for name, metric in CALLS.items():
        out[metric] = calls.get(name, 0) / ops
    for metric in COUNTED:
        out[metric] = counts.get(metric, 0) / ops
    if "cli.import" in inclusive:
        out["cli.import_ms"] = 1e3 * inclusive["cli.import"] / ops
    scan_s = inclusive.get("kernels.scan", 0.0)
    out["kernels.masks_per_s"] = counts.get("kernels.masks", 0) / scan_s if scan_s else 0.0
    out["bounds.not_applicable_ratio"] = refused / reports if reports else 0.0
    for layer in LAYERS:
        out[f"{layer}.self_ms"] = 1e3 * self_by_layer[layer] / ops
    out["trace.self_sum_ms"] = 1e3 * sum(self_by_layer.values()) / ops
    return out
