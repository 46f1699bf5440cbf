"""Measurement of one run: passes, per-call timing, metrics and report."""

import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

import inputs
import spans
import workloads

IMPORT_SAMPLES = 7  # fresh interpreters, one after another
BUILD_SAMPLES = 5
# Seconds one pass takes at the seed commit on the reference machine (see
# README).  The number of passes follows from --seconds and these alone,
# never from how fast the code under test runs.
NOMINAL_PASS_S = {"tiling": 9.0, "wavelet": 15.0, "cli": 7.0}
# tiling spends most of a pass in a few calls of 0.05 to 3 s whose fastest
# pass needs a third sample to be steady; wavelet (longer passes) and the
# 1000 short requests of cli do with two
MIN_PASSES = {"tiling": 3, "wavelet": 2, "cli": 2}
TRACE_PASSES = 2  # of each kind, untraced and traced, alternating
_IMPORT_CODE = "import time; t = time.perf_counter(); import xsect, xsect.cli; print(time.perf_counter() - t)"


def run(args, root):
    """Run one workload and print its report; returns the exit code."""
    work = os.path.join(root, ".perfbench")
    os.makedirs(work, exist_ok=True)
    tmp = tempfile.mkdtemp(prefix="inputs-", dir=work)
    try:
        if args.workload == "tiling":
            inp = inputs.tiling_inputs(args.seed)
            setup, one_pass = workloads.tiling_setup, workloads.tiling_pass
        elif args.workload == "wavelet":
            inp = inputs.wavelet_inputs(args.seed)
            setup, one_pass = workloads.wavelet_setup, workloads.wavelet_pass
        else:
            inp = inputs.cli_inputs(args.seed, tmp)
            setup, one_pass = workloads.cli_setup, workloads.cli_pass
        if args.trace:
            result = _traced(args, work, inp, setup, one_pass)
        else:
            result = _measured(args, os.path.join(root, "src"), inp, setup, one_pass)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    print(json.dumps(result))
    return 0


def beyond_percentile(count, q):
    """Samples ranked above the nearest-rank ``q``-th percentile (integer q)."""
    return count - max(1, -(-count * q // 100))


def percentile_with_tail(values, q, min_beyond=10):
    """Nearest-rank ``q``-th percentile, or None unless at least
    ``min_beyond`` samples lie beyond it."""
    ordered = sorted(values)
    beyond = beyond_percentile(len(ordered), q)
    if not ordered or beyond < min_beyond:
        return None
    return ordered[len(ordered) - beyond - 1]


def _fresh_import_seconds(src, count, reference):
    """Import times, each in a fresh interpreter, scaled to the reference speed."""
    env = dict(os.environ, PYTHONPATH=src)
    out = []
    for _ in range(count):
        before = reference.reading()
        done = subprocess.run([sys.executable, "-c", _IMPORT_CODE], env=env, capture_output=True, text=True,
                              timeout=120, check=True)
        out.append(reference.scale(float(done.stdout.strip().splitlines()[-1]), before))
    return out


def pass_count(workload, seconds):
    return max(MIN_PASSES[workload], int(seconds // NOMINAL_PASS_S[workload]))


def _build(setup, inp, reference):
    """(objects, build seconds scaled to the reference speed)."""
    before = reference.reading()
    t0 = time.perf_counter()
    objs = setup(inp)
    return objs, reference.scale(time.perf_counter() - t0, before)


def _one_pass(setup, inp, one_pass, reference, recorder=None):
    """Build the workload's objects afresh, so that no pass finds caches
    warmed by another, then run one pass; returns (build seconds, Run)."""
    objs, build_s = _build(setup, inp, reference)
    run = workloads.Run(recorder=recorder, reference=reference)
    one_pass(run, objs, inp)
    return build_s, run


def per_operation_fastest(runs):
    """(label, units, fastest seconds) of each operation across passes.

    Every pass makes the same calls in the same order, so the i-th call of
    each pass is one operation.  The machine is shared: other tenants slow
    single passes by up to 30% and never speed one up, so the fastest pass
    of each call estimates its cost with the least interference.  The
    number of passes is fixed per workload, so this minimum is taken over
    as many samples whatever the speed of the code."""
    per_pass = [r.calls for r in runs]
    if len({len(calls) for calls in per_pass}) != 1:
        raise RuntimeError("passes made different calls")
    return [(calls[0][0], calls[0][1], min(dt for _, _, dt in calls)) for calls in zip(*per_pass)]


def _measured(args, src, inp, setup, one_pass):
    reference = workloads.Reference()
    imports = _fresh_import_seconds(src, IMPORT_SAMPLES, reference)
    passes = pass_count(args.workload, args.seconds)
    builds = [_build(setup, inp, reference)[1] for _ in range(max(0, BUILD_SAMPLES - passes))]
    runs = []
    for _ in range(passes):
        build_s, run = _one_pass(setup, inp, one_pass, reference)
        builds.append(build_s)
        runs.append(run)
    ops = per_operation_fastest(runs)

    def rate(kind):
        units = sum(u[kind] for _, u, _ in ops if kind in u)
        secs = sum(dt for _, u, dt in ops if kind in u)
        return units / secs

    metrics = {
        "setup_s": (statistics.median(imports) + statistics.median(builds), "s"),
        "wall_s": (sum(dt for _, _, dt in ops), "s"),
        "points_per_s": (rate("points"), "1/s"),
        "verify_samples_per_s": (rate("verify"), "1/s"),
        "wavelet_samples_per_s": (rate("wavelet"), "1/s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    extra = {}
    latencies = [v for r in runs for v in r.latencies_ms]
    if latencies:
        extra["request_p50_ms"] = (statistics.median(latencies), "ms")
        extra["request_p99_ms"] = (percentile_with_tail(latencies, 99), "ms")
        extra["requests_per_s"] = (len(latencies) / (sum(latencies) / 1e3), "1/s")
    attempted = sum(r.attempted for r in runs)
    failures = [f for r in runs for f in r.failures.values()]
    extra["failed_ratio"] = (len(failures) / attempted, "ratio")
    submitted = sum(r.submitted for r in runs)
    refused = sum(r.refused for r in runs)
    if submitted:
        extra["refused_ratio"] = (refused / submitted, "ratio")

    print(f"perfbench workload={args.workload} seed={args.seed} passes={len(runs)} "
          f"import_samples={len(imports)} build_samples={len(builds)}")
    print("  import seconds: " + ", ".join(_fmt(v) for v in imports))
    for name, (value, unit) in {**metrics, **extra}.items():
        print(f"  {name:24s} {_fmt(value)} {unit}")
    print("  library seconds per pass, scaled (raw): "
          + ", ".join(f"{_fmt(r.lib_s)} ({_fmt(r.raw_s)})" for r in runs))
    if latencies:
        print(f"  request latency: {len(latencies)} requests, "
              f"{beyond_percentile(len(latencies), 99)} beyond p99; median by kind:")
        kinds = [k for r in runs for k in r.latency_kinds]
        for kind in sorted(set(kinds)):
            values = [v for v, k in zip(latencies, kinds) if k == kind]
            print(f"    {kind:14s} {len(values):5d} x {_fmt(statistics.median(values))} ms")
    print(f"  operations: {attempted} attempted, {len(failures)} failed; slowest, fastest seconds per pass:")
    by_label = {}
    for label, _, dt in ops:
        by_label[label] = by_label.get(label, 0.0) + dt
    for label, secs in sorted(by_label.items(), key=lambda kv: -kv[1])[:8]:
        print(f"    {label:40s} {secs:.3f}")
    if submitted:
        print(f"  points: {submitted} submitted, {refused} refused")
        _print_refused(runs)
    _print_defects(runs[0])
    for label, reason in failures[:20]:
        print(f"  FAILED {label}: {reason}")
    return {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def _traced(args, work, inp, setup, one_pass):
    """Untraced and traced passes, alternating, each from a fresh set-up;
    the traced set-up is recorded too.  The per-layer metrics are those of
    the faster traced pass, and trace.overhead_s is the fastest traced
    minus the fastest untraced library time."""
    reference = workloads.Reference()
    plains, traced_runs, best = [], [], None
    for _ in range(TRACE_PASSES):
        plains.append(_one_pass(setup, inp, one_pass, reference)[1])
        rec = spans.Recorder()
        uninstall, missing = spans.install(rec)
        try:
            traced = _one_pass(setup, inp, one_pass, reference, recorder=rec)[1]
        finally:
            uninstall()
        traced_runs.append(traced)
        if best is None or traced.lib_s < best[1].lib_s:
            best = (rec, traced)  # the spans of the slower pass are dropped
    rec, traced = best
    plain = min(plains, key=lambda r: r.lib_s)
    metrics = spans.aggregate(rec)
    metrics["trace.overhead_s"] = traced.lib_s - plain.lib_s
    path = os.path.join(work, f"spans-{args.workload}-seed{args.seed}.tsv.gz")
    rec.write(path)

    print(f"perfbench workload={args.workload} seed={args.seed} trace=1 spans={len(rec.spans)} -> {path}")
    print(f"  untraced wall_s {_fmt(plain.lib_s)} s, traced wall_s {_fmt(traced.lib_s)} s (scaled to the reference speed)")
    for name, unit in spans.PER_LAYER:
        print(f"  {name:36s} {_fmt(metrics[name])} {unit}")
    _print_refused([traced])
    layer = sorted(((v, op) for op, v in rec.refused_by_op.items() if v), reverse=True)
    if layer:
        print("  refused inside the sections layer, by operation (includes internal scans):")
    for v, op in layer:
        print(f"    {op:40s} {v}")
    for target in missing:
        print(f"  not traced (target missing): {target}")
    _print_defects(traced)
    every = plains + traced_runs
    failures = [f for r in every for f in r.failures.values()]
    for label, reason in failures[:20]:
        print(f"  FAILED {label}: {reason}")
    units = dict(spans.PER_LAYER)
    return {
        "correct": not failures,
        "attempted": sum(r.attempted for r in every),
        "failed": len(failures),
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k, _ in spans.PER_LAYER},
    }


def _print_defects(run):
    if run.defects:
        print("  known-defect probes (outcome kept, not checked; see README):")
    for label, outcome in run.defects.items():
        if isinstance(outcome, Exception):
            print(f"    {label:40s} refused: {type(outcome).__name__}: {outcome}")
        else:
            print(f"    {label:40s} passed={outcome.passed} histogram={dict(sorted(outcome.histogram.items()))} "
                  f"refused={outcome.skipped_null} of {outcome.samples}")


def _print_refused(runs):
    by_op = {}
    for r in runs:
        for label, count in r.refused_by_op.items():
            by_op[label] = by_op.get(label, 0) + count
    if by_op:
        print("  submitted points refused, by operation:")
    for label, count in sorted(by_op.items(), key=lambda kv: -kv[1]):
        print(f"    {label:40s} {count}")


def _fmt(value):
    if value is None:
        return "n/a"
    return f"{value:.6g}" if isinstance(value, float) else str(value)
