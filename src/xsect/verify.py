"""Seeded numerical verification of tiling identities and orbit integration.

The discrete check counts, for Gaussian-sampled points, how many powers
``xi A^k`` land in the candidate set; a cross-section gives multiplicity
exactly 1.  A discrete set that solves under its own matrix (a section,
the order-infinity cone, a reshaped or an order-infinity pushed set) meets
each orbit once, at minus the tile index its ``solve`` gives, so a sample
is probed only at that hit and one power on each side, and a refused
sample over the base window.  Both checks move a sample along its orbit
one way: its Jordan coordinates times an exact block power (a tile count)
or flow (a flow time), read by ``jordan_membership``.  Other regions take
the base window in ambient powers, stacked into membership calls of at
least ``_SCAN_ROWS`` rows: a small sample is counted in a few large calls
rather than one call per power.

The continuous check exploits that sweeping a continuous section over
unit time yields a discrete cross-section: the time set
``{t : xi A^t in T}`` is an interval of length exactly 1, whose endpoints
come from the closed-form solve.  Each endpoint is confirmed by reads of
the membership indicator, on rows flowed in Jordan coordinates, at both
ends of brackets around it of a widening ladder of half-widths: the
adjacent floats, then each decade from 1e-13 up to the tolerance 1e-6.
An edge is confirmed by the first bracket whose outer end reads
non-member and inner end member; each rung reads both edges of every
sample not yet confirmed in one batch.  An edge that no rung confirms, or
a length that the two half-widths do not hold within the tolerance of 1,
is refused.  That interval is the orbit's only hit when the flow time obeys
the cocycle ``t(xi A^s) = t(xi) - s``: every sample is flowed to a few
random times in a window around its hit, where the solve must read the
remaining flow time and the swept membership must hold exactly inside
the interval.

Orbit integration evaluates ``integral of f over R^n`` on the section's
flow chart, with its closed-form Jacobian weight: ``alpha delta^t``
(scaling), ``-s beta delta^t`` (rotating), and for the nilpotent cases,
which substitute ``u = t s`` and ``u = t p``, ``delta^(u/s)`` (shear) and
``-beta delta^(u/p)`` (rotating shear).  The chart's ranges map the unit
cube onto the decay ball's parameters, a free coordinate over the ball's
exact chord, and ``scipy.integrate.cubature`` integrates over the cube,
evaluating the chart on arrays of points and ``f`` row by row; a cubature
that does not converge raises :class:`BudgetExceeded`.
:func:`jacobian_check` compares each weight with central finite
differences of the same chart, on one batch of drawn points.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import BudgetExceeded, Overflow, QuadratureDivergence, UsageError
from .linalg import integer_power, jordan_power_rows
from .sections import CrossSection, PushedSection, _solve_core, derive_discrete_section, power_rows


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


# powers k_lo..k_hi of the base and outlier windows of every dilation count
K_RANGE = (-60, 60)
# row floor of a membership call of the dilation and translation counters:
# a box union's call has a fixed cost as large as that of its first 500 rows
_SCAN_ROWS = 8192


def check_discrete_tiling(region, *, samples=10_000, seed=0) -> TilingReport:
    """Count orbit hits ``#{k : xi A^k in region}`` over Gaussian samples,
    ``A`` being ``region.matrix``, with :func:`scan_dilations`.

    ``region`` is a discrete set with a vectorized ``membership``; a
    continuous section raises ``ValueError`` (:func:`derive_discrete_section`
    sweeps it into a discrete one), and fewer than one sample
    :class:`UsageError`.  The rows the scan refuses to solve are dropped and
    counted as skipped.  ``outlier_windows`` counts the rows whose hit lies
    within 2 of the base window's edge or past it.  Failures (multiplicity
    != 1) are reported in-band, never raised.
    """
    if getattr(region, "mode", "discrete") != "discrete":
        raise ValueError("check_discrete_tiling expects a discrete set: derive_discrete_section sweeps a "
                         "continuous section into one")
    _require_samples(samples)
    a = np.asarray(region.matrix, dtype=float)
    rng = np.random.default_rng(seed)
    pts = rng.normal(size=(samples, a.shape[0]))
    counts, windows, refused = scan_dilations(region, a, pts)
    skipped = int(refused.sum())
    histogram, failures = _tally(pts[~refused], counts[~refused])
    return TilingReport(
        kind="discrete_tiling",
        samples=samples,
        seed=seed,
        passed=not failures and _few_refused(skipped, samples),
        histogram=histogram,
        failures=failures,
        scan={"k_lo": K_RANGE[0], "k_hi": K_RANGE[1], "outlier_windows": windows},
        skipped_null=skipped,
    )


def _require_samples(samples):
    """A check of no sample has no verdict."""
    if samples < 1:
        raise UsageError(f"a tiling check needs at least 1 sample, got {samples}")


def _frame(region):
    """The section in whose Jordan coordinates ``region`` solves: a pushed
    set's base, else the section itself."""
    return region.base if isinstance(region, PushedSection) else region


def _moved_membership(region, coords, ps):
    """Membership in ``region`` of the Jordan rows ``coords`` of its
    :func:`_frame` moved by the action at ``ps``: ``c @ J^k`` for tile
    counts, the flow ``c @ exp(tJ)`` for flow times.  A row moved past the
    float range is a refused non-member."""
    return region.jordan_membership(power_rows(_frame(region), coords, ps))[0]


def scan_dilations(region, a, pts):
    """``#{k : xi A^k in region}`` per row of ``pts``, the number of outlier
    windows (hits within 2 of the base window's edge or past it), and the
    rows refused.  A discrete set that solves under ``a`` as its own matrix
    meets each orbit once, at ``h = -kp`` for the row's tile index ``kp``:
    the row is probed at ``h`` and one power on each side, which absorb the
    rounding at a tile edge, and a refused row over the base window
    ``K_RANGE``, in Jordan coordinates (:func:`_window_counts`).  Every row
    of another region takes the ambient base window (:func:`dilation_counts`)."""
    pts = np.atleast_2d(np.asarray(pts, dtype=float))
    section = _frame(region)
    if not (isinstance(section, CrossSection) and region.mode == "discrete" and np.array_equal(a, region.matrix)):
        return dilation_counts(region, a, pts), 0, np.zeros(len(pts), dtype=bool)
    k_lo, k_hi = K_RANGE
    ks, _, refused = region.solve(pts)
    hits = -np.where(refused, 0, ks).astype(int)
    far = (hits < k_lo + 2) | (hits > k_hi - 2)
    lo, hi = np.where(refused, k_lo, hits - 1), np.where(refused, k_hi, hits + 1)
    return _window_counts(region, section._coords(pts), lo, hi), int(np.count_nonzero(far)), refused


def _window_counts(region, coords, lo, hi) -> np.ndarray:
    """``#{lo_i <= k <= hi_i : xi_i A^k in region}`` for the rows ``xi_i`` of
    ``coords``, Jordan coordinates of :func:`_frame`; a window is empty where
    ``hi_i < lo_i``.  A membership call takes ``_SCAN_ROWS`` probes, each a
    row moved by its own exact block power (:func:`_moved_membership`)."""
    widths = np.maximum(hi - lo + 1, 0)
    rows = np.repeat(np.arange(len(coords)), widths)
    ks = np.repeat(lo - (np.cumsum(widths) - widths), widths) + np.arange(len(rows))
    counts = np.zeros(len(coords))
    for start in range(0, len(rows), _SCAN_ROWS):
        at = rows[start : start + _SCAN_ROWS]
        member = _moved_membership(region, coords[at], ks[start : start + _SCAN_ROWS])
        counts += np.bincount(at, weights=member, minlength=len(coords))
    return counts.astype(int)


def dilation_counts(region, a, pts) -> np.ndarray:
    """``#{k : xi A^k in region}`` over the base window ``K_RANGE`` for each
    row ``xi`` of ``pts``, probing every ``k`` with ambient powers of ``a``.

    Each ``A^k`` is a power of its own (:func:`_window_powers`): a product
    carried along with the points loses the contracting directions of a
    non-normal ``A``.  A membership call takes all rows under consecutive
    powers until it holds at least ``_SCAN_ROWS`` rows (one power each when
    the rows alone are that many).
    """
    pts = np.atleast_2d(np.asarray(pts, dtype=float))
    counts = np.zeros(len(pts), dtype=int)
    powers = _window_powers(a)
    step = -(-_SCAN_ROWS // max(len(pts), 1))  # powers per call
    for start in range(0, len(powers), step):
        window = powers[start : start + step]
        member, exc = region.membership(np.concatenate([pts @ power for power in window]))
        counts += (member & ~exc).reshape(len(window), len(pts)).sum(axis=0)
    return counts


def _window_powers(a):
    """``A^k`` for each ``k`` of ``K_RANGE``, in increasing order; a power
    past the float range raises :class:`Overflow`, naming the smallest
    ``|k|`` that overflows.

    Each side of zero walks outward by doubling, from ``A^0`` by ``A`` and
    from ``A^-1`` by ``A^-1``: like :func:`integer_power`, it multiplies
    powers of one sign only, so the two agree to rounding.
    """
    k_lo, k_hi = K_RANGE
    with np.errstate(over="ignore", invalid="ignore"):
        inverse = integer_power(a, -1)
        powers = np.concatenate([_doubling_walk(inverse, inverse, -k_lo)[::-1],
                                 _doubling_walk(np.eye(len(a)), a, k_hi + 1)])
    ks = np.arange(k_lo, k_hi + 1)[~np.isfinite(powers).all(axis=(1, 2))]
    if len(ks):
        raise Overflow(f"A^{ks[np.argmin(np.abs(ks))]} overflows the floating-point range")
    return powers


def _doubling_walk(first, step, count):
    """``first @ step^i`` for ``i < count``: the walk so far times the
    next doubling of ``step``, ``A^(s+i+m) = A^(s+i) A^m``."""
    walk = np.empty((count,) + first.shape)
    walk[0], have = first, 1
    while have < count:
        take = min(have, count - have)
        walk[have : have + take] = walk[:take] @ step
        have, step = have + take, step @ step
    return walk


# the continuous check: half-width of the flow-time window of its uniqueness
# checks, the offsets drawn per sample inside it, and the tolerance on the
# sweep's length and edges and on the flow-time cocycle
_WINDOW = 5.0
_OFFSETS = 6
_QUAD_TOL = 1e-6
# half-widths of the brackets that confirm an edge of the sweep, narrowest
# first; 0 stands for the two floats adjacent to the edge.  The length bound
# is the sum of both edges' half-widths, so each decade up to the tolerance is
# a rung: an edge off by less than 1e-7 still passes
_RUNGS = (0.0, 1e-13, 1e-12, 1e-11, 1e-10, 1e-9, 1e-8, 1e-7, _QUAD_TOL)


def _confirmed_half_widths(derived, coords, edges, outward):
    """The half-width of the narrowest bracket of ``_RUNGS`` around each of
    ``edges`` across which membership in ``derived`` flips, for the Jordan rows
    ``coords``: its end on the ``outward`` side (+/-1) reads non-member and its
    other end member.  It is inf where no rung confirms the edge.  Each rung
    reads both ends of the rows it has not yet confirmed in one call."""
    half, rows = np.full(len(edges), np.inf), np.arange(len(edges))
    for r in _RUNGS:
        if not len(rows):
            break
        edge, out = edges[rows], outward[rows]
        if r:
            ends = edge + out * r, edge - out * r
        else:
            ends = np.nextafter(edge, out * np.inf), np.nextafter(edge, -out * np.inf)
        outside, inside = _moved_membership(derived, np.tile(coords[rows], (2, 1)),
                                            np.concatenate(ends)).reshape(2, -1)
        confirmed = ~outside & inside
        half[rows[confirmed]] = np.maximum(np.abs(ends[0] - edge), np.abs(ends[1] - edge))[confirmed]
        rows = rows[~confirmed]
    return half


def check_continuous_tiling(section: CrossSection, *, samples=10_000, seed=0,
                            grid_subsample=None) -> TilingReport:
    """Verify the unit-time sweep identity and uniqueness of flow times.

    For each Gaussian sample the set ``{t : xi A^t in T}`` (``T`` the
    swept discrete section) is the interval ``[t_c, t_c + 1)`` with
    ``t_c`` the closed-form flow time.  Each endpoint is confirmed where
    membership flips across the narrowest bracket of ``_RUNGS`` around it
    (:func:`_confirmed_half_widths`), the left and right edges of all samples
    in one batch per rung.  ``extras["max_edge_deviation"]`` is the widest
    confirmed half-width, a bound on the distance from a closed-form edge to
    its flip; ``extras["max_length_deviation"]`` bounds the swept length's
    distance from 1 by both edges' half-widths.  An edge that no rung
    confirms, or a length bound past ``_QUAD_TOL``, raises
    :class:`QuadratureDivergence`.

    Uniqueness of the section hit is checked on every sample: through the
    case's branch candidates inside the window (the histogram), and by the
    flow-time cocycle at ``_OFFSETS`` offsets drawn in ``+/-_WINDOW``
    (:func:`_cocycle_failures`).  A sample whose cocycle fails counts in
    ``extras["cocycle_failures"]`` and fails the check; a refused flowed
    row counts in ``extras["refused_offsets"]`` and fails nothing.  The
    samples are flowed in Jordan coordinates; a flow past the float range
    is a refused non-member.  ``grid_subsample`` is accepted and ignored:
    it sized the dense membership grid that the cocycle replaced.  Fewer
    than one sample raises :class:`UsageError`.
    """
    if section.mode != "continuous":
        raise ValueError("check_continuous_tiling expects a continuous section")
    _require_samples(samples)
    derived = derive_discrete_section(section)
    rng = np.random.default_rng(seed)
    pts = rng.normal(size=(samples, section.n))
    coords = section._coords(pts)
    ts, _, exc, _ = _solve_core(section, coords)
    skipped = int(exc.sum())
    pts, ts, coords = pts[~exc], ts[~exc], coords[~exc]
    offsets = rng.uniform(-_WINDOW, _WINDOW, size=(len(pts), _OFFSETS))

    # flowing by t leaves remaining flow time t_c - t, so the swept-set hit
    # interval is [t_c, t_c + 1): closed left edge, open right edge
    left, right = ts, ts + 1.0
    n = len(pts)
    half = _confirmed_half_widths(derived, np.concatenate([coords, coords]), np.concatenate([left, right]),
                                  np.repeat([-1.0, 1.0], n))
    unconfirmed = int(np.count_nonzero(np.isinf(half)))
    if unconfirmed:
        raise QuadratureDivergence(f"{unconfirmed} sweep edges confirm at no half-width up to {_QUAD_TOL} "
                                   f"around the closed-form flow time")
    # each flip lies within its half-width of its edge, so the swept length
    # lies within the sum of both of the closed-form length right - left
    length_dev = float(np.max(np.abs(right - left - 1.0) + half[:n] + half[n:], initial=0.0))
    if length_dev > _QUAD_TOL:
        raise QuadratureDivergence(f"sweep length is confirmed only within {length_dev:.3e} of 1 (> {_QUAD_TOL})")
    edge_dev = float(np.max(half, initial=0.0))

    # uniqueness: branch candidates within the window, and the cocycle
    counts = _branch_candidate_counts(section, coords, ts, _WINDOW)
    histogram, failures = _tally(pts, counts)
    cocycle_failures, cocycle_dev, refused = _cocycle_failures(section, derived, coords, ts, offsets)
    passed = not failures and cocycle_failures == 0 and _few_refused(skipped, samples)
    return TilingReport(
        kind="continuous_tiling",
        samples=samples,
        seed=seed,
        passed=passed,
        histogram=histogram,
        failures=failures,
        scan={"window": _WINDOW, "offsets": _OFFSETS},
        skipped_null=skipped,
        extras={
            "max_length_deviation": length_dev,
            "max_edge_deviation": edge_dev,
            "cocycle_failures": cocycle_failures,
            "max_cocycle_deviation": cocycle_dev,
            "refused_offsets": refused,
        },
    )


def _cocycle_failures(section, derived, coords, ts, offsets):
    """The number of samples, in Jordan coordinates with flow times ``ts``,
    that fail the cocycle at their row of ``offsets``; the largest cocycle
    deviation; and the number of flowed rows refused.

    Each sample is flowed to ``t_c + s`` for each offset ``s``.  Since a
    continuous section is its points of flow time 0, the swept membership
    along an orbit is the one run ``[t_c, t_c + 1)`` exactly when the flowed
    row's flow time is ``-s``: its solve must be ``-s`` within ``_QUAD_TOL``,
    and its membership in the swept set ``derived`` must be ``0 <= s < 1``
    where ``s`` lies more than ``_QUAD_TOL`` from both edges.  A row that
    either refuses is left out of both."""
    width = offsets.shape[1]
    s = offsets.ravel()
    rows = power_rows(section, np.repeat(coords, width, axis=0), np.repeat(ts, width) + s)
    flow_times, _, refused, _ = _solve_core(section, rows)
    member, exceptional = derived.jordan_membership(rows)
    refused |= exceptional
    deviation = np.where(refused, 0.0, np.abs(flow_times + s))
    inside = (s >= 0.0) & (s < 1.0)
    off_edge = np.minimum(np.abs(s), np.abs(s - 1.0)) > _QUAD_TOL
    wrong = (deviation > _QUAD_TOL) | (~refused & off_edge & (member != inside))
    failures = int(np.count_nonzero(wrong.reshape(offsets.shape).any(axis=1)))
    return failures, float(deviation.max(initial=0.0)), int(np.count_nonzero(refused))


def _branch_candidate_counts(section, coords, ts, window):
    """Count window times carrying each sample, in Jordan coordinates, into
    the section.

    Rotation-free cases have a single candidate (the hit function is
    strictly monotone in t); rotating cases admit one candidate per
    angular period and the radial interval must select exactly one."""
    period = section.kind.branch_period(section.params)
    if period is None:
        offsets = np.array([0.0])
    else:
        m_max = int(math.floor(window / period))
        offsets = np.arange(-m_max, m_max + 1) * period
    counts = np.zeros(len(coords), dtype=int)
    for off in offsets:
        counts += _moved_membership(section, coords, ts + off)
    return counts


# ---------------------------------------------------------------------------
# orbit integration (change of variables along the flow)


def orbit_integral(f, section: CrossSection, *, decay_radius, budget=10**7,
                   epsabs=1e-8, epsrel=1e-6) -> float:
    """Integrate ``f`` over R^n in the section's flow coordinates.

    ``f`` maps an ambient row vector to a scalar and must be negligible
    outside the ball of radius ``decay_radius``; the parameter domains
    are truncated accordingly.  The integrand is ``f(x) |weight| |det P|``
    on the section's chart (``x = point @ P``), pulled back to the unit
    cube by the chart's ``ranges`` and integrated there by
    ``scipy.integrate.cubature`` with ``atol=epsabs`` and ``rtol=epsrel``:
    the ``gk15`` product rule up to three variables, ``genz-malik`` from
    four.  A chart with ``slabs`` is integrated piece by piece along its
    outermost variable.  The chart is evaluated on arrays of cube points;
    ``f`` is called row by row, and not on a row whose interval is empty.

    ``budget`` bounds the evaluations of the integrand and, through them,
    the cubature's subdivisions.  Raises :class:`BudgetExceeded` when it
    runs out or the cubature does not converge, and
    :class:`DimensionTooHigh` for a chart without integration ranges.
    """
    if section.mode != "continuous":
        raise ValueError("orbit_integral expects a continuous section")
    from scipy.integrate import cubature  # here: it takes most of the package's import time
    chart = section.kind.chart(section, float(decay_radius))
    conj = section.jordan.conjugator
    scale = abs(float(np.linalg.det(conj)))
    evals, seen = 0, {}

    def pulled(y):
        """The integrand at the rows ``y`` of the cube."""
        p, volume = chart.ranges(y)
        live = np.flatnonzero(volume)
        p = p[live]
        x = chart.point(p) @ conj
        values = np.fromiter(map(f, x), float, len(x))
        if chart.mirrored:
            values += np.fromiter(map(f, -x), float, len(x))
        out = np.zeros(len(y))
        out[live] = values * np.abs(chart.weight(p)) * volume[live] * scale
        return out

    def integrand(y):
        # a rule's error estimate evaluates its nodes again, with those of its
        # lower rule: the rows of the previous call are looked up, bit for bit
        nonlocal evals, seen
        keys = list(map(bytes, y))
        fresh = np.array([key not in seen for key in keys], dtype=bool)
        evals += int(np.count_nonzero(fresh))
        if evals > budget:
            raise BudgetExceeded(f"orbit integral exceeded the evaluation budget ({budget})", evaluations=evals)
        out = np.empty(len(y))
        if fresh.any():
            out[fresh] = pulled(y[fresh])
        out[~fresh] = [seen[key] for key, new in zip(keys, fresh) if not new]
        seen = dict(zip(keys, out))
        return out

    # fresh evaluations a region takes at most: Gauss-Kronrod's product rule
    # and its lower Gauss rule, 15^n + 7^n nodes; from n = 4 on Genz-Malik,
    # 2^n + 2n^2 + 2n + 1 nodes holding its lower rule's (the 4-D rotating
    # shear spends more than 10^7 evaluations on gk15)
    n = section.n
    rule, nodes = ("gk15", 15**n + 7**n) if n < 4 else ("genz-malik", 2**n + 2 * n * n + 2 * n + 1)
    edges = np.linspace(0.0, 1.0, chart.slabs + 1)
    total = 0.0
    for lo, hi in zip(edges[:-1], edges[1:]):
        # a subdivision evaluates 2^n regions: the budget left caps the subdivisions too
        result = cubature(integrand, np.r_[lo, np.zeros(n - 1)], np.r_[hi, np.ones(n - 1)], rule=rule,
                          atol=epsabs / chart.slabs, rtol=epsrel,
                          max_subdivisions=max(budget - evals, 0) // (2**n * nodes))
        if result.status != "converged":
            raise BudgetExceeded(f"orbit integral did not converge within the evaluation budget ({budget}); "
                                 f"error estimate {float(result.error):.3e}", evaluations=evals)
        total += float(result.estimate)
    return total


# ---------------------------------------------------------------------------
# Jacobian validation


# central-difference step of the Jacobian check
_JACOBIAN_STEP = 1e-5


def jacobian_check(section: CrossSection, *, points=100, seed=0) -> float:
    """Max relative deviation between the closed-form Jacobian weight of the
    section's chart and a central finite-difference determinant of its
    ``point``, at ``points`` drawn parameter vectors, evaluated as one batch.

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
    p = chart.draw(rng, points)
    flowed = jordan_power_rows(section.jordan, *chart.origin(p))
    gap = np.max(np.abs(chart.point(p) - flowed), axis=1, initial=0.0)
    gap /= np.maximum(np.max(np.abs(flowed), axis=1, initial=0.0), 1.0)
    steps = _JACOBIAN_STEP * np.eye(section.n)
    fd = np.linalg.det(np.stack([chart.point(p + h) - chart.point(p - h) for h in steps], axis=1) / (2 * _JACOBIAN_STEP))
    cf = chart.weight(p)
    dev = np.abs(fd - cf) / np.maximum(np.abs(cf), 1e-300)
    return float(max(np.max(gap, initial=0.0), np.max(dev, initial=0.0)))
