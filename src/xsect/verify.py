"""Seeded numerical verification of tiling identities and orbit integration.

The discrete check counts, for Gaussian-sampled points, how many powers
``xi A^k`` land in the candidate set; a cross-section gives multiplicity
exactly 1.  A cross-section under its own matrix is probed only in each
sample's gauge bracket of ``k`` (``_Case.gauge``); reshaped sections, other
regions and ``exhaustive=True`` take the full scan.  The continuous check
exploits that sweeping a continuous section over unit time yields a
discrete cross-section: the time set
``{t : xi A^t in T}`` is an interval of length exactly 1, whose endpoints
come from the closed-form solve and are cross-checked by bisection
refinement of the membership indicator.

Orbit integration evaluates ``integral of f over R^n`` on the section's
flow chart, with its closed-form Jacobian weight: ``alpha delta^t``
(scaling), ``-s beta delta^t`` (rotating), and for the nilpotent cases,
which substitute ``u = t s`` and ``u = t p``, ``delta^(u/s)`` (shear) and
``-beta delta^(u/p)`` (rotating shear).  :func:`jacobian_check` compares
each weight with central finite differences of the same chart.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import BudgetExceeded, Overflow, QuadratureDivergence
from .linalg import flow_rows, integer_power, jordan_power_batch, jordan_power_rows
from .sections import CrossSection, derive_discrete_section
from .shaping import ShapedSection


@dataclass(frozen=True)
class TilingReport:
    kind: str
    samples: int
    seed: int
    passed: bool
    histogram: dict
    failures: list = field(default_factory=list)
    scan: dict = field(default_factory=dict)
    skipped_null: int = 0
    extras: dict = field(default_factory=dict)

    def to_json(self) -> dict:
        return {
            "kind": self.kind,
            "samples": self.samples,
            "seed": self.seed,
            "passed": self.passed,
            "histogram": {str(k): int(v) for k, v in sorted(self.histogram.items())},
            "failures": self.failures[:20],
            "scan": self.scan,
            "skipped_null": self.skipped_null,
            "extras": self.extras,
        }


def _tally(pts, counts):
    """Histogram of the hit counts, and the first 20 samples not hit exactly once."""
    histogram = {int(c): int(np.count_nonzero(counts == c)) for c in np.unique(counts)}
    bad = np.flatnonzero(counts != 1)[:20]
    failures = [{"point": [float(x) for x in pts[i]], "count": int(counts[i])} for i in bad]
    return histogram, failures


def _few_refused(skipped, samples) -> bool:
    """A verdict needs at least 95% of the samples: a check that refuses
    more (null set, overflow or float resolution) verifies too little."""
    return skipped <= samples // 20


def check_discrete_tiling(region, a=None, *, samples=10_000, seed=0, k_range=None, exhaustive=False) -> TilingReport:
    """Count orbit hits ``#{k : xi A^k in region}`` over Gaussian samples.

    ``region`` needs a vectorized ``membership`` method; cross-sections
    and reshaped sections also provide ``solve``, whose predicted tile
    indices extend the scan: every sample is scanned over the base
    window plus, for heavy-tailed predictions outside it, a 60-wide
    window around its own predicted index.  ``exhaustive`` passes on to
    :func:`dilation_counts`.  Failures (multiplicity != 1) are reported
    in-band, never raised.
    """
    if a is None:
        a = region.matrix
    a = np.asarray(a, dtype=float)
    rng = np.random.default_rng(seed)
    pts = rng.normal(size=(samples, a.shape[0]))

    k_lo, k_hi = k_range if k_range is not None else (-60, 60)
    skipped = 0
    predictions = None
    if hasattr(region, "solve"):
        ks, _, exc = region.solve(pts)
        if exc.any():
            skipped = int(exc.sum())
            pts, ks = pts[~exc], ks[~exc]
        predictions = ks.astype(int)

    counts = dilation_counts(region, a, pts, k_lo, k_hi, exhaustive=exhaustive)
    far = np.zeros(0, dtype=int)
    if predictions is not None:
        # the counter counts hits of xi A^k; the solver's tile index kp means
        # a hit at k = -kp, so heavy-tailed samples get a window around -kp
        far = np.flatnonzero((-predictions < k_lo + 2) | (-predictions > k_hi - 2))
        counts[far] += dilation_counts(region, a, pts[far], -60, 60, centres=-predictions[far], skip=(k_lo, k_hi),
                                       exhaustive=exhaustive)
    histogram, failures = _tally(pts, counts)
    return TilingReport(
        kind="discrete_tiling",
        samples=samples,
        seed=seed,
        passed=not failures and _few_refused(skipped, samples),
        histogram=histogram,
        failures=failures,
        scan={"k_lo": int(k_lo), "k_hi": int(k_hi), "outlier_windows": len(far)},
        skipped_null=skipped,
    )


def dilation_counts(region, a, pts, k_lo, k_hi, *, centres=None, skip=None, exhaustive=False) -> np.ndarray:
    """``#{k_lo <= j <= k_hi : xi A^j in region}`` for each row ``xi`` of
    ``pts``; with ``centres``, row ``i`` takes ``A^(c_i + j)`` instead,
    leaving out the exponents in the closed range ``skip`` (if given).

    Each ``A^k`` is a power of its own (:func:`_powers`): a product
    carried along with the points loses the contracting directions of a
    non-normal ``A``.  A discrete cross-section under its own matrix is
    probed only in each row's gauge bracket (:func:`_bracket`).  Otherwise,
    or if ``exhaustive``, every ``k`` is probed: a membership call takes one
    power of all rows, or, for centred windows, a stretch of (row, k) pairs.
    """
    pts = np.atleast_2d(np.asarray(pts, dtype=float))
    bracket = None if exhaustive else _bracket(region, a, pts)
    if centres is None and bracket is None:
        counts = np.zeros(len(pts), dtype=int)
        for power in _powers(region, a, np.arange(k_lo, k_hi + 1))[1]:
            member, exc = region.membership(pts @ power)
            counts += member & ~exc
        return counts
    lo, hi = (k_lo, k_hi) if centres is None else (np.add(centres, k_lo), np.add(centres, k_hi))
    if bracket is not None:
        lo, hi = np.maximum(bracket[0], lo), np.minimum(bracket[1], hi)
    return _pair_counts(region, a, pts, lo, hi, (1, 0) if skip is None else skip)


def _bracket(region, a, pts):
    """Per row, the ``k`` range ``[floor(min) - 1, ceil(max) + 1]`` of
    ``{k : g + k*rate in [lo, hi]}``, outside which ``xi A^k`` misses the
    section, and an empty range where ``g`` is not finite; None unless
    :func:`_powers` takes exact Jordan powers and the case has a gauge."""
    if not (isinstance(region, CrossSection) and region.mode == "discrete" and np.array_equal(a, region.matrix)):
        return None
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        gauge = region.kind.gauge(region, region.jordan.to_jordan(pts)[:, region.block.offset :])
        if gauge is None:
            return None
        g, rate, lo, hi = gauge
        ends = np.sort([(lo - g) / rate, (hi - g) / rate], axis=0)
        ends = np.where(np.isfinite(ends).all(axis=0), np.clip(ends, -1e15, 1e15), [[1e15], [-1e15]])
    return (np.floor(ends[0]) - 1).astype(int), (np.ceil(ends[1]) + 1).astype(int)


def _pair_counts(region, a, pts, lo, hi, skip):
    """``#{lo_i <= k <= hi_i, k outside skip : xi_i A^k in region}``.  The
    pairs are sorted by ``k``; the rows of one ``k`` are shifted as in the
    full scan, ``pts[rows] @ A^k``, and a membership call takes the shifted
    rows of consecutive ``k`` until they are as many as a full-scan call's,
    which keeps the working set near the full scan's."""
    grid = lo[:, None] + np.arange(np.max(hi - lo, initial=-1) + 1)
    mask = (grid <= hi[:, None]) & ((grid < skip[0]) | (grid > skip[1]))
    order = np.argsort(grid[mask], kind="stable")
    rows = np.nonzero(mask)[0][order]
    k = grid[mask][order]
    del grid, mask, order
    exps, powers = _powers(region, a, k)
    stops = np.searchsorted(k, exps, side="right")
    counts, first, batch = np.zeros(len(pts), dtype=int), 0, []
    for start, stop, power in zip(np.r_[0, stops[:-1]], stops, powers):
        batch.append(pts[rows[start:stop]] @ power)
        if stop - first >= len(pts) or stop == len(k):
            member, exc = region.membership(np.concatenate(batch))
            counts += np.bincount(rows[first:stop], weights=member & ~exc, minlength=len(pts)).astype(int)
            first, batch = stop, []
    return counts


def _powers(region, a, exponents):
    """The distinct ``exponents`` in increasing order, and ``A^k`` for each:
    ``Q J^k P`` with exact block powers for a (reshaped) discrete section
    under its own matrix, else :func:`_power_table`.  Float powers of the
    rounded ``A`` are off by about ``k^2 eps``: at the far tile indices of a
    shear (``|k|`` of 10^4 to 10^6) they miscount samples."""
    section = region.base if isinstance(region, ShapedSection) else region
    with np.errstate(over="ignore", invalid="ignore"):
        if isinstance(section, CrossSection) and section.mode == "discrete" and np.array_equal(a, region.matrix):
            exps, form = np.unique(exponents), section.jordan
            jk = jordan_power_batch(form, exps, integer=not section.kind.flows)
            powers = form.conjugator_inverse @ jk @ form.conjugator
        else:
            exps, powers = _power_table(a, exponents)
    bad = ~np.isfinite(powers).all(axis=(1, 2))
    if bad.any():
        raise Overflow(f"A^{exps[bad][np.argmin(np.abs(exps[bad]))]} overflows the floating-point range")
    return exps, powers


def _power_table(a, exponents):
    """The distinct ``exponents`` in increasing order, and ``A^k`` for each.

    Each run of consecutive exponents on one side of zero starts at its end
    nearest zero and walks outward by doubling, ``A^(s+i+m) = A^(s+i) A^m``:
    like :func:`integer_power`, it multiplies powers of one sign only, so
    the two agree to rounding.
    """
    exps = np.unique(exponents)
    powers = np.empty((len(exps), len(a), len(a)))
    breaks = np.flatnonzero((np.diff(exps) != 1) | (exps[1:] == 0)) + 1
    for run in np.split(np.arange(len(exps)), breaks) if len(exps) else ():
        if exps[run[0]] < 0:
            run = run[::-1]  # walk outward from the end nearest zero
        start = int(exps[run[0]])
        walk = np.empty((len(run), len(a), len(a)))
        jump = a if start >= 0 else integer_power(a, -1)
        walk[0] = jump if start == -1 else integer_power(a, start)
        have = 1
        while have < len(run):
            take = min(have, len(run) - have)
            walk[have : have + take] = walk[:take] @ jump
            have, jump = have + take, jump @ jump
        powers[run] = walk
    return exps, powers


# halvings of each edge bracket (2e-3 wide) in the continuous check: past
# float resolution for flow times of order one
_BISECT_ITERS = 46
# the continuous check: half-width of the time window searched for further
# section hits, its dense grid step, and the tolerance on the refined length
_WINDOW = 5.0
_GRID_STEP = 1e-3
_QUAD_TOL = 1e-6


def _bisect(derived, points, t_false, t_true):
    """Bisect between a non-member time and a member time, per sample."""
    a = t_false.copy()
    b = t_true.copy()
    for _ in range(_BISECT_ITERS):
        mid = 0.5 * (a + b)
        member, _ = derived.membership(flow_rows(derived.jordan, points, mid))
        a = np.where(member, a, mid)
        b = np.where(member, mid, b)
    return 0.5 * (a + b)


def check_continuous_tiling(section: CrossSection, *, samples=10_000, seed=0,
                            grid_subsample=200) -> TilingReport:
    """Verify the unit-time sweep identity and uniqueness of flow times.

    For each Gaussian sample the set ``{t : xi A^t in T}`` (``T`` the
    swept discrete section) is the interval ``[t_c, t_c + 1)`` with
    ``t_c`` the closed-form flow time.  Both endpoints are re-found by
    bisection of the membership indicator and the refined length must be
    1 within ``_QUAD_TOL``, else :class:`QuadratureDivergence` is raised.
    Uniqueness of the section hit is checked on every sample through the
    case's branch candidates inside the window, and by a dense
    membership grid on a subsample.
    """
    if section.mode != "continuous":
        raise ValueError("check_continuous_tiling expects a continuous section")
    derived = derive_discrete_section(section)
    rng = np.random.default_rng(seed)
    pts = rng.normal(size=(samples, section.n))
    ts, _, exc = section.solve(pts)
    skipped = int(exc.sum())
    pts, ts = pts[~exc], ts[~exc]

    # flowing by t leaves remaining flow time t_c - t, so the swept-set hit
    # interval is [t_c, t_c + 1): closed left edge, open right edge
    left = ts
    right = ts + 1.0
    eps = 1e-3
    # bisection brackets around each edge
    left_found = _bisect(derived, pts, left - eps, left + eps)
    right_found = _bisect(derived, pts, right + eps, right - eps)
    lengths = right_found - left_found
    length_dev = float(np.max(np.abs(lengths - 1.0))) if len(lengths) else 0.0
    edge_dev = float(max(np.max(np.abs(left_found - left)), np.max(np.abs(right_found - right)))) if len(pts) else 0.0
    if length_dev > _QUAD_TOL:
        raise QuadratureDivergence(
            f"refined sweep length deviates from 1 by {length_dev:.3e} (> {_QUAD_TOL})"
        )

    # uniqueness: branch candidates within the window
    counts = _branch_candidate_counts(section, pts, ts, _WINDOW)
    histogram, failures = _tally(pts, counts)

    # dense grid on a subsample: the swept membership must form one run
    runs_bad = 0
    sub = pts[: min(grid_subsample, len(pts))]
    sub_t = ts[: len(sub)]
    grid = np.arange(-_WINDOW, _WINDOW + _GRID_STEP / 2, _GRID_STEP)
    for i in range(len(sub)):
        times = sub_t[i] + grid
        rows = np.repeat(sub[i : i + 1], len(times), axis=0)
        member, _ = derived.membership(flow_rows(derived.jordan, rows, times))
        transitions = int(np.count_nonzero(np.diff(member.astype(int)) != 0))
        if transitions > 2 or not member.any():
            runs_bad += 1
    passed = not failures and runs_bad == 0 and _few_refused(skipped, samples)
    return TilingReport(
        kind="continuous_tiling",
        samples=samples,
        seed=seed,
        passed=passed,
        histogram=histogram,
        failures=failures,
        scan={"window": _WINDOW, "grid_step": _GRID_STEP, "grid_subsample": len(sub)},
        skipped_null=skipped,
        extras={
            "max_length_deviation": length_dev,
            "max_edge_deviation": edge_dev,
            "grid_runs_bad": runs_bad,
        },
    )


def _branch_candidate_counts(section, pts, ts, window):
    """Count window times carrying each sample into the section.

    Rotation-free cases have a single candidate (the hit function is
    strictly monotone in t); rotating cases admit one candidate per
    angular period and the radial interval must select exactly one."""
    period = section.kind.branch_period(section.params)
    if period is None:
        offsets = np.array([0.0])
    else:
        m_max = int(math.floor(window / period))
        offsets = np.arange(-m_max, m_max + 1) * period
    counts = np.zeros(len(pts), dtype=int)
    for off in offsets:
        member, _ = section.membership(flow_rows(section.jordan, pts, ts + off))
        counts += member.astype(int)
    return counts


# ---------------------------------------------------------------------------
# orbit integration (change of variables along the flow)


def orbit_integral(f, section: CrossSection, *, decay_radius, budget=10**7,
                   epsabs=1e-8, epsrel=1e-6) -> float:
    """Integrate ``f`` over R^n in the section's flow coordinates.

    ``f`` maps an ambient row vector to a scalar and must be negligible
    outside the ball of radius ``decay_radius``; the parameter domains
    are truncated accordingly.  The integrand is ``f(x) |weight| |det P|``
    on the section's chart (``x = point @ P``).  Raises
    :class:`BudgetExceeded` when the evaluation budget runs out, and
    :class:`DimensionTooHigh` for a chart without integration ranges.
    """
    if section.mode != "continuous":
        raise ValueError("orbit_integral expects a continuous section")
    from scipy import integrate  # here: it takes most of the package's import time
    chart = section.kind.chart(section, float(decay_radius))
    ranges = chart.ranges()[::-1]  # nquad takes the innermost variable first
    conj = section.jordan.conjugator
    scale = abs(float(np.linalg.det(conj)))
    if np.allclose(conj, np.eye(section.n), rtol=0.0, atol=1e-12):
        conj = None  # a canonical generator: the point is already ambient
    point, weight, mirrored = chart.point, chart.weight, chart.mirrored
    evals = 0

    def integrand(*args):
        nonlocal evals
        evals += 1
        if evals > budget:
            raise BudgetExceeded(f"orbit integral exceeded the evaluation budget ({budget})", evaluations=evals)
        params = args[::-1]
        x = point(params)
        if conj is not None:
            x = x @ conj
        value = f(x) + f(-x) if mirrored else f(x)
        return value * abs(weight(params)) * scale

    value, _ = integrate.nquad(integrand, ranges, opts={"epsabs": epsabs, "epsrel": epsrel, "limit": 80})
    return float(value)


# ---------------------------------------------------------------------------
# Jacobian validation


# central-difference step of the Jacobian check
_JACOBIAN_STEP = 1e-5


def jacobian_check(section: CrossSection, *, points=100, seed=0) -> float:
    """Max relative deviation between the closed-form Jacobian weight of the
    section's chart and a central finite-difference determinant of its
    ``point``, at ``points`` drawn parameter vectors.

    Evaluated in Jordan coordinates on the chart that :func:`orbit_integral`
    integrates, whose weights are ``alpha delta^t`` (scaling),
    ``-s beta delta^t`` (rotating), ``delta^(u/s)`` (shear, ``u = t s``)
    and ``-beta delta^(u/p)`` (rotating shear, ``u = t p``).  Each drawn
    ``point`` is also compared with the kernel flow of its section point,
    so a wrong closed form counts as a deviation.
    """
    if section.mode != "continuous":
        raise ValueError("jacobian_check expects a continuous section")
    rng = np.random.default_rng(seed)
    chart = section.kind.chart(section)
    steps = _JACOBIAN_STEP * np.eye(section.n)
    worst = 0.0
    for _ in range(points):
        p = chart.draw(rng)
        c, t = chart.origin(p)
        flowed = jordan_power_rows(section.jordan, c, [t])[0]
        worst = max(worst, float(np.max(np.abs(chart.point(p) - flowed)) / max(np.max(np.abs(flowed)), 1.0)))
        fd = float(np.linalg.det([(chart.point(p + h) - chart.point(p - h)) / (2 * _JACOBIAN_STEP) for h in steps]))
        cf = chart.weight(p)
        worst = max(worst, abs(fd - cf) / max(abs(cf), 1e-300))
    return worst
