"""The three workloads: set-up, one pass, and the output checks.

A pass is a closed loop with one caller: each library call starts after
the previous one returned.  Only the library calls are timed; the output
checks run afterwards, untimed and (in a traced run) unrecorded.  The
library is always reached through module attributes, so the wrappers of
a traced run see every call.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import time

import numpy as np

import xsect.cli
import xsect.errors as errors
import xsect.sections as sections
import xsect.shaping as shaping
import xsect.verify as verify
import xsect.wavelet as wavelet


# Errors by which the library refuses points it cannot evaluate reliably.
# A point-level call that raises one of them refuses its whole batch; any
# other raise is an unexpected failure.
REFUSALS = (errors.ExceptionalPoint, errors.Overflow)
REFUSAL_CODES = tuple(e.code for e in REFUSALS)
# integer_power declines |k| > 1e6 with a ValueError of this text; the
# Gaussian batch of the shear meets it on about 1 seed in 20
POWER_LIMIT = "exceeds the supported range"


def is_refusal(exc):
    return isinstance(exc, REFUSALS) or (isinstance(exc, ValueError) and POWER_LIMIT in str(exc))


class Reference:
    """The speed of the machine now, read from a fixed NumPy kernel.

    The machine is shared, and other tenants change the speed of its cores
    by up to half, in spells of a few seconds to minutes.  A timed call is
    therefore scaled by ``NOMINAL_S`` over the kernel's time around it: the
    mean of the readings just before and just after the call.  A reading
    is taken before a call when the last one is older than ``STALE_S``,
    and again after it when the call outlasted that age, so a long call is
    bracketed and a run of short calls shares a reading.  The kernel never
    runs inside a timed interval.
    """

    NOMINAL_S = 0.002  # the kernel's time on this machine when it runs fast
    STALE_S = 0.5

    def __init__(self):
        rng = np.random.default_rng(0)
        self._a = rng.normal(size=(20_000, 2))
        self._m = np.array([[1.1, 0.2], [0.3, 0.9]])
        self._at = -math.inf
        self._reading = None

    def _kernel_seconds(self):
        best = math.inf
        for _ in range(3):
            t0 = time.perf_counter()
            b = self._a
            for _ in range(4):
                b = np.floor(np.sin(b @ self._m) * 3.0)
            best = min(best, time.perf_counter() - t0)
        return best

    def reading(self):
        if time.perf_counter() - self._at > self.STALE_S:
            self._reading = self._kernel_seconds()
            self._at = time.perf_counter()
        return self._reading

    def scale(self, raw, before):
        """``raw`` seconds of a call that started after reading ``before``."""
        return raw * self.NOMINAL_S / ((before + self.reading()) / 2)


class Run:
    """Times library calls and collects output-check failures.

    Every timed call is one operation.  An operation fails when it raises
    or when one of its checks fails; failures never abort the run.  With a
    ``reference``, call times are scaled to the machine's reference speed
    (see :class:`Reference`); ``raw_s`` keeps the unscaled library time.
    """

    def __init__(self, recorder=None, reference=None):
        self.recorder = recorder
        self.reference = reference
        self.raw_s = 0.0
        self.calls = []  # (label, units, seconds) per operation, in call order
        self.latencies_ms = []
        self.latency_kinds = []
        self.attempted = 0
        self.failures = {}  # op id -> (label, reason)
        self.submitted = 0
        self.refused_by_op = {}  # label -> submitted points refused
        self.defects = {}  # label -> report or refusal of a known-defect probe

    @property
    def refused(self):
        return sum(self.refused_by_op.values())

    def refuse(self, label, count):
        if count:
            self.refused_by_op[label] = self.refused_by_op.get(label, 0) + count

    def call(self, label, units, fn, *args, refusable=0, **kwargs):
        """Time ``fn(*args, **kwargs)``; returns (op id, result or None).

        ``refusable`` is the number of points the call submits; when it
        raises a refusal they all count as refused, not as a failure."""
        self.attempted += 1
        op = self.attempted
        if self.recorder is not None:
            self.recorder.op = label
        before = self.reference.reading() if self.reference is not None else None
        t0 = time.perf_counter()
        try:
            out, raised = fn(*args, **kwargs), None
        except Exception as exc:  # recorded, never propagated: the run goes on
            out, raised = None, exc
        raw = time.perf_counter() - t0
        self.raw_s += raw
        dt = raw if before is None else self.reference.scale(raw, before)
        if raised is None:
            self.calls.append((label, units, dt))
            return op, out
        self.calls.append((label, {}, dt))
        if refusable and is_refusal(raised):
            self.refuse(label, refusable)
        else:
            self.fail(op, label, f"raised {type(raised).__name__}: {raised}")
        return op, None

    @property
    def lib_s(self):
        return sum(dt for _, _, dt in self.calls)

    def fail(self, op, label, reason):
        self.failures.setdefault(op, (label, reason))

    def check(self, op, label, ok, reason):
        if not ok:
            self.fail(op, label, reason)

    @contextlib.contextmanager
    def checking(self):
        """Output checks call the library too; keep them out of the trace."""
        rec = self.recorder
        if rec is None:
            yield
            return
        rec.active = False
        try:
            yield
        finally:
            rec.active = True


# ---------------------------------------------------------------------------
# tiling


def tiling_setup(inp):
    objs = {}
    for label, a in inp["discrete"].items():
        objs[label] = sections.build_discrete_section(a)
    for label, b in inp["continuous"].items():
        objs[label] = sections.build_continuous_section(b)
    objs["shaped_finite"] = shaping.to_finite_measure(sections.build_discrete_section(inp["shaped"]["finite"]))
    objs["shaped_bounded"] = shaping.to_bounded(sections.build_discrete_section(inp["shaped"]["bounded"]))
    orbit = {label: sections.build_continuous_section(b) for label, b in inp["orbit"].items()}
    return objs, orbit


def _gaussian(x):
    x = np.asarray(x, dtype=float)
    return math.exp(-float(x @ x) / 2.0) / (2 * math.pi) ** (x.shape[-1] / 2)


def _check_solution(run, op, label, region, ks, reps, exc, member, mexc):
    """Representatives are members and re-solve to parameter 0; for a
    discrete region, membership agrees with tile index 0."""
    continuous = getattr(region, "mode", "discrete") == "continuous"
    ok = ~exc
    with run.checking():
        rep_member, rep_exc = region.membership(reps[ok])
        params, _, re_exc = region.solve(reps[ok])
    bad = int(np.count_nonzero(~rep_member & ~rep_exc))
    run.check(op, label, bad == 0, f"{bad} representatives are not members")
    again = params[~re_exc]
    if continuous:
        worst = float(np.max(np.abs(again), initial=0.0))
        run.check(op, label, worst <= 1e-6, f"re-solved flow time {worst:.3e} != 0")
    else:
        bad = int(np.count_nonzero(again != 0))
        run.check(op, label, bad == 0, f"{bad} representatives re-solve to a nonzero tile index")
        both = ok & ~mexc
        bad = int(np.count_nonzero(member[both] != (ks[both] == 0)))
        run.check(op, label, bad == 0, f"{bad} points disagree between membership and tile index 0")


def tiling_check(run, label, units, check, region, **kwargs):
    """One timed tiling verification whose report must pass."""
    op, report = run.call(label, units, check, region, **kwargs)
    if report is not None:
        run.check(op, label, report.passed, f"tiling report did not pass: {report.histogram}")


def defect_probe(run, label, check, region, **kwargs):
    """One timed tiling verification on an input that meets a known library
    defect.  Its outcome is kept in ``run.defects`` and printed, but not
    checked: the report fails until the defect is fixed, and the benchmark
    must run without failed operations.  The outcome is the report, or the
    refusal that ends the check when the wrong witness sends one sample to
    a tile index whose power overflows (about 1 seed in 8); any other
    raise fails.  The call counts in ``wall_s`` only: its verdict is not
    checked, so its samples stay out of the sample rates."""

    def probe(*args, **kw):
        try:
            return check(*args, **kw)
        except Exception as exc:
            if not is_refusal(exc):
                raise
            # kept without its frames, which would hold the check's arrays
            return exc.with_traceback(None)

    _, outcome = run.call(label, {}, probe, region, **kwargs)
    if outcome is not None:
        run.defects[label] = outcome


# Discrete solves that one far-out point refuses as a whole (Overflow of
# A^-k on the eigen-order input, the 1e6 power limit on the shear) go in
# chunks: a refusal then costs one chunk, and the points solved vary little
# between seeds instead of losing the whole batch on about half of them.
SOLVE_CHUNK = {"eig_order_discrete": 10_000, "real_modulus_one_nilpotent": 10_000}


def tiling_pass(run, built, inp):
    objs, orbit = built
    seed = inp["check_seed"]
    for label, region in objs.items():
        pts = inp["points"][label]
        run.submitted += 2 * len(pts)
        step = SOLVE_CHUNK.get(label, len(pts))
        solved = []
        for start in range(0, len(pts), step):
            chunk = pts[start : start + step]
            op, out = run.call(f"solve:{label}", {"points": len(chunk)}, region.solve, chunk, refusable=len(chunk))
            if out is not None:
                run.refuse(f"solve:{label}", int(np.count_nonzero(out[2])))
                solved.append((op, start, chunk, out))
        _, memb = run.call(f"membership:{label}", {"points": len(pts)}, region.membership, pts,
                           refusable=len(pts))
        if memb is not None:
            run.refuse(f"membership:{label}", int(np.count_nonzero(memb[1])))
            for op, start, chunk, out in solved:
                part = slice(start, start + len(chunk))
                _check_solution(run, op, f"solve:{label}", region, *out, memb[0][part], memb[1][part])

    for name in ("modulus_not_one", "complex_modulus_not_one", "real_modulus_one_nilpotent",
                 "complex_modulus_one_nilpotent", "shaped_finite", "shaped_bounded"):
        tiling_check(run, f"check_discrete:{name}", {"verify": 10_000, "wavelet": 10_000},
                     verify.check_discrete_tiling, objs[name], samples=10_000, seed=seed)
    # the eigen-order witness defect: about half the samples are refused and
    # half of the rest count 0; sampled from the workload seed
    defect_probe(run, "check_discrete:eig_order_discrete", verify.check_discrete_tiling, objs["eig_order_discrete"], samples=10_000, seed=inp["probe_seed"])
    for name in ("real_nonzero", "complex_nonzero", "zero_nilpotent", "imaginary_nilpotent",
                 "eig_order_generator"):
        tiling_check(run, f"check_continuous:{name}", {"verify": 10_000}, verify.check_continuous_tiling,
                     objs[name], samples=10_000, seed=seed, grid_subsample=50)

    op, est = run.call("measure_estimate:shaped_finite", {}, objs["shaped_finite"].measure_estimate,
                       samples=200_000, seed=seed)
    if est is not None:
        run.check(op, "measure_estimate", 0.0 < est.estimate and est.estimate + est.tail_bound <= 1.0 + est.bound,
                  f"measure estimate {est.estimate} +/- {est.bound} exceeds 1")
    for label, section in orbit.items():
        op, value = run.call(f"orbit_integral:{label}", {}, verify.orbit_integral, _gaussian, section,
                             decay_radius=8.0)
        if value is not None:
            run.check(op, f"orbit_integral:{label}", abs(value - 1.0) < 0.01, f"integral {value} != 1")


# ---------------------------------------------------------------------------
# wavelet


def wavelet_setup(inp):
    return {name: wavelet.BoxUnion.build(boxes) for name, boxes in inp["regions"].items()}


def _boxes(region):
    return [(list(lo), list(hi)) for lo, hi in region.boxes]


def wavelet_pass(run, regions, inp):
    # fresh lattices: dual-point enumeration is cached per Lattice object
    z1 = wavelet.Lattice(inp["lattices"]["z1"])
    z2 = wavelet.Lattice(inp["lattices"]["z2"])
    m = inp["matrices"]
    s1, s2, s3 = inp["check_seeds"]

    for label, args, samples, seed in (
        ("shannon", (regions["shannon"], m["two"], z1, 1), 500, s1),
        ("doubled", (regions["doubled"], m["two"], z1, 2), 500, s2),
        ("annulus", (regions["annulus"], 2.0 * np.eye(2), z2, 3), 200, s3),
    ):
        label = f"is_multiwavelet:{label}"
        op, report = run.call(label, {"verify": samples, "wavelet": samples},
                              wavelet.is_multiwavelet_set, *args, samples=samples, seed=seed)
        if report is not None:
            run.check(op, label, report.passed, f"not a multi-wavelet set: {report.histogram}")

    op, parts = run.call("partition:doubled", {}, wavelet.partition_multiwavelet_set, regions["doubled"], z1, 2)
    if parts is not None:
        run.check(op, "partition:doubled", [_boxes(p) for p in parts] == [[([1.0], [2.0])], [([-2.0], [-1.0])]],
                  f"unexpected pieces {[_boxes(p) for p in parts]}")
    op, annulus_parts = run.call("partition:annulus", {}, wavelet.partition_multiwavelet_set,
                                 regions["annulus"], z2, 3)
    if annulus_parts is not None:
        total = sum(p.measure() for p in annulus_parts)
        run.check(op, "partition:annulus", len(annulus_parts) == 3 and abs(total - 3.0) < 1e-12,
                  f"{len(annulus_parts)} pieces of total measure {total}")

    op, k1 = run.call("build_inf:two", {}, wavelet.build_order_infinity_set, m["two"], z1, pieces=8)
    if k1 is not None:
        with run.checking():
            got = [k1.piece_boxes_1d(i) for i in range(1, 9)]
        want = [(2 ** (i + 2) - 4, 2 ** (i + 2) - 2) for i in range(1, 9)]
        run.check(op, "build_inf:two", got == want, f"1-D pieces {got} != {want}")
    op, ks = run.call("build_inf:spiral", {}, wavelet.build_order_infinity_set, m["spiral"], z2, pieces=4)
    if ks is not None:
        run.check(op, "build_inf:spiral", len(ks.certificates) == 4, "missing certificates")
    op, cone = run.call("build_inf:shear", {}, wavelet.build_order_infinity_set, m["shear"], z2, pieces=10)
    if cone is not None:
        run.check(op, "build_inf:shear", len(cone.certificates) >= 10, "missing certificates")

    if k1 is not None:
        _dilation_sweep(run, "sweep:two", k1, inp["sweep_1d"], np.array([[2.0]]), 40)
    if ks is not None:
        _dilation_sweep(run, "sweep:spiral", ks, inp["sweep_spiral"], m["spiral"], 30)

    if k1 is not None:
        op, pieces = run.call("partition:inf", {}, wavelet.partition_multiwavelet_set, k1, z1, math.inf, pieces=3)
        for i, (piece, rows) in enumerate(zip(pieces or (), inp["inf_rows"])):
            _translation_counts(run, f"translation_counts:inf{i}", piece, z1, rows, radius=80.0)
    for i, (piece, rows) in enumerate(zip(annulus_parts or (), inp["annulus_rows"])):
        # radius 8 covers every dual translate that can reach [-1,1)^2 from a
        # Gaussian row (|row| < 6.5)
        _translation_counts(run, f"translation_counts:annulus{i}", piece, z2, rows, radius=8.0)


def _dilation_sweep(run, label, region, pts, a, half_width):
    counts = np.zeros(len(pts), dtype=int)
    ops = []
    power = np.linalg.matrix_power(np.linalg.inv(a), half_width)
    shifted = pts @ power
    for _ in range(2 * half_width + 1):
        op, out = run.call(label, {"points": len(pts), "wavelet": len(pts)}, region.membership, shifted)
        ops.append(op)
        if out is not None:
            counts += (out[0] & ~out[1]).astype(int)
        shifted = shifted @ a
    bad = int(np.count_nonzero(counts != 1))
    for op in ops:
        run.check(op, label, bad == 0, f"{bad} points have dilation count != 1: {np.unique(counts).tolist()}")


def _translation_counts(run, label, piece, lattice, rows, radius):
    units = {"wavelet": len(rows)}
    op, counts = run.call(label, units, wavelet.translation_counts, piece, lattice, rows, radius=radius)
    if counts is not None:
        # every probe (row + candidate) goes through the region's membership;
        # the candidates are cached on the lattice by the call just timed
        with run.checking():
            units["points"] = len(rows) * len(lattice.dual_points_within(radius))
        bad = int(np.count_nonzero(counts != 1))
        run.check(op, label, bad == 0, f"{bad} rows have translation count != 1")


# ---------------------------------------------------------------------------
# cli

# request kind -> throughput kinds its points count towards
_CLI_UNITS = {"solve": "points", "verify": "verify", "dimfn": "wavelet"}


def cli_setup(requests):
    """The CLI builds every library object per request: nothing to set up."""
    return None


def cli_pass(run, _objs, requests):
    for req in requests:
        label = f"cli:{req['name']}"
        buf = io.StringIO()
        points = req.get("points", 0)
        units = {_CLI_UNITS[req["kind"]]: points} if req["kind"] in _CLI_UNITS else {}
        with contextlib.redirect_stdout(buf):
            op, code = run.call(label, units, xsect.cli.main, req["argv"])
        run.latencies_ms.append(run.calls[-1][2] * 1e3)
        run.latency_kinds.append(req["kind"])
        _check_request(run, op, label, req, code, buf.getvalue())


def _check_request(run, op, label, req, code, text):
    if code is None:
        return  # raised: already a failure
    try:
        doc = json.loads(text.strip().splitlines()[-1])
    except (ValueError, IndexError) as exc:
        run.fail(op, label, f"output is not JSON: {exc}")
        return
    if code not in req["expected"]:
        run.fail(op, label, f"exit code {code}, expected {req['expected']}: {doc.get('error', '')}")
        return
    if code == 1 and doc.get("code") not in REFUSAL_CODES:
        run.fail(op, label, f"exit code 1 without a refusal: {doc}")
        return
    points = req.get("points", 0)
    run.submitted += points
    if req["kind"] == "solve" and code == 1:
        run.refuse(label, points)
    elif req["kind"] == "verify":
        run.refuse(label, int(doc["report"]["skipped_null"]))
