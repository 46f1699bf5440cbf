"""Span recorder and wrapper installer for the traced run.

Wrappers are installed from here at run time; no file of the program is
edited.  Each wrapper rebinds one public function or method of ``xsect``
on its defining module and on every ``xsect`` module that imported it,
records a span (name, operation, parent, start, end) and the counts
named in ``PER_LAYER`` at the same boundary.  Per-point methods
(``*.shift``) only count calls, because they run millions of times.
Self times are computed from the spans when the run ends.
"""

from __future__ import annotations

import functools
import gzip
import inspect
import sys
import time
from collections import defaultdict

import numpy as np

# Every per-layer metric, in the order BENCHMARK.json lists them.
PER_LAYER = (
    ("linalg.real_jordan_form.calls", "count"),
    ("linalg.real_jordan_form.self_s", "s"),
    ("linalg.flow_batch.matrices", "count"),
    ("linalg.flow_batch.self_s", "s"),
    ("linalg.integer_power.calls", "count"),
    ("linalg.integer_power.self_s", "s"),
    ("linalg.one_parameter_power.calls", "count"),
    ("linalg.one_parameter_power.self_s", "s"),
    ("classify.calls", "count"),
    ("classify.self_s", "s"),
    ("sections.build.calls", "count"),
    ("sections.build.self_s", "s"),
    ("sections.solve.points", "count"),
    ("sections.solve.self_s", "s"),
    ("sections.membership.points", "count"),
    ("sections.membership.self_s", "s"),
    ("sections.refused.points", "count"),
    ("sections.refused.eig_order_points", "count"),
    ("shaping.membership.points", "count"),
    ("shaping.membership.self_s", "s"),
    ("shaping.solve.points", "count"),
    ("shaping.solve.self_s", "s"),
    ("shaping.shift.calls", "count"),
    ("shaping.shift.distinct", "count"),
    ("shaping.measure_estimate.self_s", "s"),
    ("verify.discrete.samples", "count"),
    ("verify.discrete.probe_points", "count"),
    ("verify.discrete.hits", "count"),
    ("verify.discrete.self_s", "s"),
    ("verify.continuous.samples", "count"),
    ("verify.continuous.self_s", "s"),
    ("verify.orbit_integral.self_s", "s"),
    ("wavelet.dual_points.points", "count"),
    ("wavelet.dual_points.self_s", "s"),
    ("wavelet.translation_counts.rows", "count"),
    ("wavelet.translation_counts.probes", "count"),
    ("wavelet.translation_counts.self_s", "s"),
    ("wavelet.is_multiwavelet.samples", "count"),
    ("wavelet.is_multiwavelet.self_s", "s"),
    ("wavelet.shift.calls", "count"),
    ("wavelet.shift.distinct", "count"),
    ("wavelet.selector.calls", "count"),
    ("wavelet.selector.self_s", "s"),
    ("wavelet.partition.self_s", "s"),
    ("wavelet.build_inf.self_s", "s"),
    ("wavelet.region_membership.points", "count"),
    ("wavelet.region_membership.self_s", "s"),
    ("cli.requests", "count"),
    ("cli.main.self_s", "s"),
    ("cli.render_json.bytes", "count"),
    ("cli.render_json.self_s", "s"),
    ("trace.overhead_s", "s"),
)

# Operations whose label contains this tag use one of the two eigen-order
# inputs; their refusals are reported separately.
EIG_ORDER_TAG = "eig_order"

_NAME, _OP, _PARENT, _START, _END = range(5)


class Recorder:
    """In-memory spans and counters of one traced run (single-threaded)."""

    def __init__(self):
        self.spans = []  # [name, op, parent index or -1, start_ns, end_ns]
        self.stack = []
        self.counts = defaultdict(int)
        self.refused_by_op = defaultdict(int)
        self.op = "setup"
        self.active = True

    def begin(self, name):
        idx = len(self.spans)
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([name, self.op, parent, time.perf_counter_ns(), 0])
        self.stack.append(idx)
        return idx

    def end(self, idx):
        self.spans[idx][_END] = time.perf_counter_ns()
        self.stack.pop()

    def parent_name(self, idx):
        parent = self.spans[idx][_PARENT]
        return self.spans[parent][_NAME] if parent >= 0 else None

    def write(self, path):
        """Write the spans as gzipped tab-separated lines."""
        with gzip.open(path, "wt") as fh:
            fh.write("index\tname\top\tparent\tstart_ns\tend_ns\n")
            for i, (name, op, parent, start, end) in enumerate(self.spans):
                fh.write(f"{i}\t{name}\t{op}\t{parent}\t{start}\t{end}\n")


def self_times(spans):
    """Per-span self time in ns: the span's duration minus the part of its
    interval covered by its direct children."""
    children = defaultdict(list)
    for i, span in enumerate(spans):
        if span[_PARENT] >= 0:
            children[span[_PARENT]].append(i)
    out = []
    for i, span in enumerate(spans):
        start, end = span[_START], span[_END]
        covered = 0
        cursor = start
        for lo, hi in sorted((spans[c][_START], spans[c][_END]) for c in children.get(i, ())):
            lo, hi = max(lo, cursor), min(hi, end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out.append(end - start - covered)
    return out


def aggregate(recorder):
    """Per-layer metrics from the recorded spans and counters."""
    selfs = self_times(recorder.spans)
    self_s = defaultdict(float)
    calls = defaultdict(int)
    for span, s in zip(recorder.spans, selfs):
        self_s[span[_NAME]] += s / 1e9
        calls[span[_NAME]] += 1
    counts = recorder.counts
    out = {}
    for name, _unit in PER_LAYER:
        if name.endswith(".self_s"):
            out[name] = self_s.get(name[: -len(".self_s")], 0.0)
        elif name.endswith(".calls") and name[: -len(".calls")] in SPAN_NAMES:
            out[name] = calls.get(name[: -len(".calls")], 0)
        elif name == "cli.requests":
            out[name] = calls.get("cli.main", 0)
        elif name == "sections.refused.eig_order_points":
            out[name] = sum(v for op, v in recorder.refused_by_op.items() if EIG_ORDER_TAG in op)
        else:
            out[name] = counts.get(name, 0)
    return out


# ---------------------------------------------------------------------------
# counting hooks: (recorder, span index, bound arguments, result) -> None


def _rows(x):
    return int(np.atleast_2d(np.asarray(x)).shape[0])


def _count_arg(metric, arg, measure=int):
    def hook(rec, idx, bound, out):
        rec.counts[metric] += measure(bound.arguments[arg])
    return hook


def _flow_batch(rec, idx, bound, out):
    # one_parameter_power_batch calls jordan_flow_batch: count matrices once
    if rec.parent_name(idx) != "linalg.flow_batch":
        rec.counts["linalg.flow_batch.matrices"] += int(np.asarray(bound.arguments["ts"]).shape[0])


def _section_solve(rec, idx, bound, out):
    rec.counts["sections.solve.points"] += _rows(bound.arguments["points"])
    refused = int(np.count_nonzero(out[2]))
    rec.counts["sections.refused.points"] += refused
    rec.refused_by_op[rec.op] += refused


def _membership(metric):
    """Count points, and credit probes and hits to a verifying parent."""
    def hook(rec, idx, bound, out):
        rows = _rows(bound.arguments["points"])
        rec.counts[metric] += rows
        parent = rec.parent_name(idx)
        if parent == "verify.discrete":
            rec.counts["verify.discrete.probe_points"] += rows
            rec.counts["verify.discrete.hits"] += int(np.count_nonzero(out[0] & ~out[1]))
        elif parent == "wavelet.translation_counts":
            rec.counts["wavelet.translation_counts.probes"] += rows
    return hook


def _render_bytes(rec, idx, bound, out):
    rec.counts["cli.render_json.bytes"] += len(out.encode())


# (module, attribute path, span name, hook); a dotted path names a method
SPANS = (
    ("xsect.linalg", "real_jordan_form", "linalg.real_jordan_form", None),
    ("xsect.linalg", "jordan_flow_batch", "linalg.flow_batch", _flow_batch),
    ("xsect.linalg", "one_parameter_power_batch", "linalg.flow_batch", _flow_batch),
    ("xsect.linalg", "integer_power", "linalg.integer_power", None),
    ("xsect.linalg", "one_parameter_power", "linalg.one_parameter_power", None),
    ("xsect.classify", "classify_continuous", "classify", None),
    ("xsect.classify", "classify_discrete", "classify", None),
    ("xsect.sections", "build_continuous_section", "sections.build", None),
    ("xsect.sections", "build_discrete_section", "sections.build", None),
    ("xsect.sections", "CrossSection.solve", "sections.solve", _section_solve),
    ("xsect.sections", "CrossSection.membership", "sections.membership", _membership("sections.membership.points")),
    ("xsect.shaping", "ShapedSection.solve", "shaping.solve", _count_arg("shaping.solve.points", "points", _rows)),
    ("xsect.shaping", "ShapedSection.membership", "shaping.membership",
     _membership("shaping.membership.points")),
    ("xsect.shaping", "ShapedSection.measure_estimate", "shaping.measure_estimate", None),
    ("xsect.verify", "check_discrete_tiling", "verify.discrete", _count_arg("verify.discrete.samples", "samples")),
    ("xsect.verify", "check_continuous_tiling", "verify.continuous",
     _count_arg("verify.continuous.samples", "samples")),
    ("xsect.verify", "orbit_integral", "verify.orbit_integral", None),
    ("xsect.wavelet", "Lattice.ordered_dual_points", "wavelet.dual_points", None),
    ("xsect.wavelet", "Lattice.dual_points_within", "wavelet.dual_points", None),
    ("xsect.wavelet", "translation_counts", "wavelet.translation_counts",
     _count_arg("wavelet.translation_counts.rows", "xis", _rows)),
    ("xsect.wavelet", "is_multiwavelet_set", "wavelet.is_multiwavelet",
     _count_arg("wavelet.is_multiwavelet.samples", "samples")),
    ("xsect.wavelet", "coset_selector_U", "wavelet.selector", None),
    ("xsect.wavelet", "_SelectorRegion.membership", "wavelet.selector", None),
    ("xsect.wavelet", "partition_multiwavelet_set", "wavelet.partition", None),
    ("xsect.wavelet", "build_order_infinity_set", "wavelet.build_inf", None),
    ("xsect.cli", "main", "cli.main", None),
    ("xsect.cli", "render_json", "cli.render_json", _render_bytes),
) + tuple(
    ("xsect.wavelet", f"{cls}.membership", "wavelet.region_membership",
     _membership("wavelet.region_membership.points"))
    for cls in ("BoxUnion", "PredicateRegion", "SaturatedRegion", "_DomainPieceSaturation",
                "DilationShiftedSection", "ConeSection")
)

SPAN_NAMES = {name for _, _, name, _ in SPANS}

# generator functions: one span per resumption, one count per yielded point
GENERATORS = (("xsect.wavelet", "Lattice.dual_points_in_order", "wavelet.dual_points", "wavelet.dual_points.points"),)

# per-point methods: counted, no span; ``distinct`` counts the cache misses,
# which are the calls of the function that computes a shift
COUNTERS = (
    ("xsect.shaping", "ShapedSection.shift", "shaping.shift.calls"),
    ("xsect.shaping", "ShapedSection._compute_shift", "shaping.shift.distinct"),
    ("xsect.wavelet", "DilationShiftedSection.shift", "wavelet.shift.calls"),
    ("xsect.wavelet", "_slab_shift", "wavelet.shift.distinct"),
)


def _span_wrapper(rec, fn, name, hook):
    sig = inspect.signature(fn) if hook is not None else None

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if not rec.active:
            return fn(*args, **kwargs)
        idx = rec.begin(name)
        try:
            out = fn(*args, **kwargs)
        finally:
            rec.end(idx)
        if hook is not None:
            bound = sig.bind(*args, **kwargs)
            bound.apply_defaults()
            hook(rec, idx, bound, out)
        return out

    return wrapper


def _generator_wrapper(rec, fn, name, metric):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        gen = fn(*args, **kwargs)
        if not rec.active:
            return gen

        def resumed():
            while True:
                idx = rec.begin(name)
                try:
                    item = next(gen)
                except StopIteration:
                    return
                finally:
                    rec.end(idx)
                rec.counts[metric] += 1
                yield item

        return resumed()

    return wrapper


def _counter_wrapper(rec, fn, metric):
    counts = rec.counts

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if rec.active:
            counts[metric] += 1
        return fn(*args, **kwargs)

    return wrapper


def _resolve(module_name, path):
    """(owner, attribute, original) or None when the target is gone."""
    owner = sys.modules.get(module_name)
    parts = path.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part, None)
    if owner is None:
        return None
    if len(parts) > 1:
        original = owner.__dict__.get(parts[-1])
    else:
        original = getattr(owner, parts[-1], None)
    return None if original is None else (owner, parts[-1], original)


def install(rec):
    """Install every wrapper; returns (uninstall function, missing targets).

    A function is rebound wherever an ``xsect`` module holds it, so calls
    through ``from .linalg import integer_power`` are traced too.  Targets
    that no longer exist are skipped and reported, and their metrics read 0.
    """
    undo = []
    missing = []
    plan = [(m, p, _span_wrapper, (name, hook)) for m, p, name, hook in SPANS]
    plan += [(m, p, _generator_wrapper, (name, metric)) for m, p, name, metric in GENERATORS]
    plan += [(m, p, _counter_wrapper, (metric,)) for m, p, metric in COUNTERS]
    modules = [mod for key, mod in list(sys.modules.items()) if key == "xsect" or key.startswith("xsect.")]
    for module_name, path, make, extra in plan:
        found = _resolve(module_name, path)
        if found is None:
            missing.append(f"{module_name}:{path}")
            continue
        owner, attr, original = found
        wrapper = make(rec, original, *extra)
        if "." in path:
            setattr(owner, attr, wrapper)
            undo.append((owner, attr, original))
            continue
        for mod in modules:
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, wrapper)
                    undo.append((mod, key, original))

    def uninstall():
        for owner, attr, original in reversed(undo):
            setattr(owner, attr, original)

    return uninstall, missing
