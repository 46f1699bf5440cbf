"""Explicit cross-sections for the eight existence cases, with membership
tests and closed-form orbit solving.

All sets are described in Jordan coordinates of the acting matrix; an
ambient point is mapped through the conjugator before any predicate is
evaluated, so the constructions are valid for arbitrary (non-canonical)
input matrices.  Only the coordinates of the witness block are ever
constrained; every other coordinate (including the higher chain
coordinates of the witness block itself) is free.

Parameter conventions of :func:`solve_orbit`:

* continuous mode returns the flow time ``t`` with ``gamma @ A^t in S``
  (so the representative is ``gamma @ A^t``);
* discrete mode returns the tile index ``k`` with ``gamma in S @ A^k``
  (representative ``gamma @ A^-k``).

Both are the unique parameter of their kind, and a section is the set of
points whose parameter is 0.  A discrete section's interval bounds are
half-open exactly as constructed.  A continuous section is a hypersurface,
on which a float can sit only approximately: a point is in it when its
flow time ``t`` moves it at most ``tol * max(rho, 1)``, that is when
``|t| * rate * rho <= tol * max(rho, 1)``, with ``rho`` the witness radius
and ``rate`` the case's speed along the orbit per unit of ``rho``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

from .classify import classify_continuous, classify_discrete
from .errors import DimensionTooHigh, ExceptionalPoint, NoSection
from .linalg import (
    DEFAULT_TOL,
    RealJordanForm,
    finite_rows,
    integer_power,  # noqa: F401  kept importable here: perfbench's tracer rebinds it in this module
    jordan_flow_batch,
    jordan_power_rows,
    matrix_from_json,
    matrix_to_json,
    one_parameter_power,
    row_norms,
)

TWO_PI = 2.0 * math.pi


@dataclass(frozen=True)
class OrbitSolution:
    parameter: float
    representative: np.ndarray


def _angle(x, y):
    """Polar angle of row pairs, wrapped into [0, 2*pi)."""
    phi = np.arctan2(y, x)
    phi = np.where(phi < 0, phi + TWO_PI, phi)
    return np.where(phi >= TWO_PI, 0.0, phi)


def _rotate_rows(x, y, theta):
    """Apply the row rotation ``(x, y) @ [[cos, sin], [-sin, cos]]``."""
    c, s = np.cos(theta), np.sin(theta)
    return x * c - y * s, x * s + y * c


@dataclass(frozen=True)
class CrossSection:
    """One of the explicit cross-section constructions.

    ``params`` carries the case data (eigenvalue parameters and the
    derived interval bounds); ``base`` is set only for mode='discrete',
    case='derived_from_continuous' and holds the continuous section the
    set was swept from.
    """

    mode: str
    case: str
    jordan: RealJordanForm
    block_index: int
    params: dict
    tol: float
    base: "CrossSection | None" = None

    @property
    def kind(self) -> "_Case":
        """The case object: null set, predicate, orbit parameter, sampler."""
        return _CASES[self.case]

    @cached_property
    def matrix(self) -> np.ndarray:
        """The acting matrix: A for discrete mode, the generator B for
        continuous mode.  A derived discrete section acts under exp(B).
        Cached, never serialized."""
        return self.kind.matrix(self)

    @property
    def n(self) -> int:
        return self.jordan.n

    @property
    def block(self):
        return self.jordan.blocks[self.block_index]

    def null_set(self) -> dict:
        """The declared measure-zero exceptional set, as coordinate data."""
        return self.kind.null_set(self)

    # -- evaluation -------------------------------------------------------

    def membership(self, points):
        """Vectorized membership: (member, exceptional) boolean arrays.

        ``points`` is an (m, n) stack of ambient row vectors.  Points in
        the declared null set are flagged exceptional and reported as
        non-members; scalar wrappers turn that flag into an error.
        """
        return self.jordan_membership(self._coords(points))

    def jordan_membership(self, coords):
        """:meth:`membership` of an (m, n) stack of Jordan coordinates; a row
        that is not finite, such as one flowed past the float range, is
        refused (:func:`_refused`)."""
        coords, _, exceptional, rho = _refused(self, coords)
        return self.kind.member(self, coords[:, self.block.offset :], exceptional, rho) & ~exceptional, exceptional

    def solve(self, points):
        """Vectorized orbit solve: (parameter array, representatives, exceptional)."""
        params, rep_coords, exceptional, _ = _solve_core(self, self._coords(points))
        with np.errstate(over="ignore", invalid="ignore"):  # a representative past the float range reads inf or nan
            reps = self.jordan.from_jordan(rep_coords)
        reps[exceptional] = np.nan
        return params, reps, exceptional

    def _coords(self, points):
        """Jordan coordinates of an (m, n) stack of ambient rows; a row that
        is not finite, or maps past the float range, is refused later
        (:func:`_refused`)."""
        with np.errstate(over="ignore", invalid="ignore"):
            return self.jordan.to_jordan(np.atleast_2d(np.asarray(points, dtype=float)))

    def sample(self, rng, count):
        """Draw points from the section (free coordinates standard normal)."""
        coords = rng.normal(size=(count, self.n))
        self.kind.sample(self, coords, rng)
        return self.jordan.from_jordan(coords)

    def to_json(self) -> dict:
        obj = {
            "mode": self.mode,
            "case": self.case,
            "matrix": matrix_to_json(self.jordan.matrix),
            "block_index": self.block_index,
            "params": dict(self.params),
            "tol": self.tol,
        }
        obj.update(self.kind.json_tags)
        return obj


def build_continuous_section(b, tol=DEFAULT_TOL) -> CrossSection:
    """Construct a cross-section for ``gamma -> gamma exp(tB)``.

    Case real_nonzero pins the block's leading coordinate to +/-1;
    complex_nonzero takes the radial segment [1, Lambda) on the zero-angle
    ray of the leading pair (working with -B internally when the real
    part is negative, which reverses reported flow times but not the
    set); zero_nilpotent zeroes the second chain coordinate; the
    imaginary nilpotent case keeps the leading pair on angle zero and
    boxes the third coordinate into [0, 2*pi*p/beta).
    """
    verdict = classify_continuous(b, tol=tol)
    if not verdict.exists:
        raise NoSection("the exponential of this generator is conjugate-orthogonal")
    return _build(verdict, tol)


def build_discrete_section(a, tol=DEFAULT_TOL) -> CrossSection:
    """Construct a cross-section for ``gamma -> gamma A^k``.

    When the witness eigenvalue has modulus below one the construction
    is applied along the inverse action (orbits are identical), so the
    stored radial data always describes the expanding direction.
    """
    verdict = classify_discrete(a, tol=tol)
    if not verdict.exists:
        raise NoSection("matrix is conjugate to an orthogonal matrix")
    return _build(verdict, tol)


def _build(verdict, tol):
    kind, form = _CASES[verdict.case], verdict.jordan
    return CrossSection(
        mode=kind.mode,
        case=verdict.case,
        jordan=form,
        block_index=verdict.witness_block,
        params=kind.params(form.blocks[verdict.witness_block]),
        tol=tol,
    )


def derive_discrete_section(section: CrossSection) -> CrossSection:
    """The discrete cross-section swept from a continuous one:
    ``T = {gamma A^t : gamma in S, 0 <= t < 1}`` for ``A = exp(B)``."""
    if section.mode != "continuous":
        raise ValueError("derive_discrete_section expects a continuous section")
    # same Jordan form, witness block and tolerance as the base
    return replace(section, mode="discrete", case="derived_from_continuous",
                   params=dict(section.params), base=section)


# ---------------------------------------------------------------------------
# the case table


@dataclass(frozen=True)
class _Case:
    """One existence case.

    ``pinned`` counts the leading witness coordinates whose joint
    vanishing is the declared null set: 1 for a real witness block, 2
    for a complex pair.  The witness radius ``rho`` (``radius``: ``|x1|``,
    or ``|z1|`` for a pair), the null-set data and, in the sliceable
    cases, the free dimensions all follow from it.

    ``radius``, ``member``, ``parameter`` and ``gauge`` read ``w``, the
    Jordan coordinates from the witness block on (``w[:, 0]`` is ``x1``);
    ``exceptional`` is the null-set mask, so the formulas never divide by a
    vanishing witness coordinate; ``rho`` is the witness radius that
    :func:`_refused` read with that mask, so ``parameter`` and ``gauge``
    never compute it again.  A continuous case's ``parameter`` is the flow
    time ``t`` with ``gamma @ A^t in S``, and ``S`` the points of flow
    time 0 (``member``): ``|t| * rate * rho <= tol * max(rho, 1)``, where
    ``rate * rho`` is the speed of the flow at ``gamma`` along the witness
    block's orbit, so that the left side is the distance to ``S`` along the
    orbit, to first order.

    A discrete section is a fundamental domain of ``gamma -> gamma A^k``, and
    each discrete case states it once, as ``gauge``: ``(u, s)``, a phase
    ``u`` that the action at ``p`` moves to exactly ``u + p*s``, ``s = +/-1``,
    with ``S = {0 <= u < 1}``.  The tile index ``k`` with ``gamma in S @ A^k``
    is then ``s * floor(u)`` (``parameter``), and ``S`` the points of tile
    index 0 (``member``).  ``gauge`` is read through ``parameter`` only.  The
    two sliceable cases build it on ``phases``, which also gives the radial
    phase of the representative ``gamma A^-k``, with no power formed.
    """

    name: str
    mode: str
    pinned: int | None

    sliceable = False  # radial slab geometry, shared by shaping and wavelets
    cone = False  # membership is the ratio cone 0 <= x2/x1 < 1
    json_tags = ()

    def params(self, blk) -> dict:
        return {}

    def matrix(self, section):
        return section.jordan.matrix

    def null_set(self, section) -> dict:
        off = section.block.offset
        kind = "coordinate_zero" if self.pinned == 1 else "pair_zero"
        return {"kind": kind, "indices": list(range(off, off + self.pinned))}

    def radius(self, section, w):
        """The witness radius ``rho``: ``|x1|``, or ``|z1|`` for a pair."""
        return np.abs(w[:, 0]) if self.pinned == 1 else np.hypot(w[:, 0], w[:, 1])

    def rate(self, params) -> float:
        """Flow speed along the witness orbit per unit of ``rho``."""
        return 1.0

    def norm_limit(self, section) -> float:
        """The largest row norm whose orbit parameter stays in the float range."""
        return math.inf

    def member(self, section, w, exceptional, rho):
        """Orbit parameter 0: tile index 0, or flow time 0 at the tolerance."""
        with np.errstate(invalid="ignore"):  # a refused row's index may leave int64: it is masked out
            t = self.parameter(section, w, exceptional, rho)
        if self.mode == "discrete":
            return t == 0
        with np.errstate(over="ignore"):  # a distance past the float range reads inf: a non-member
            return np.abs(t) * (self.rate(section.params) * rho) <= section.tol * np.maximum(rho, 1.0)

    def parameter(self, section, w, exceptional, rho):
        u, s = self.gauge(section, w, exceptional, rho)
        return (s * np.floor(u)).astype(int)

    @property
    def flows(self) -> bool:
        """The form is that of a generator ``B``: the action at ``p`` is ``exp(pB)``."""
        return self.mode == "continuous"

    def slab_measure(self, params) -> float:
        raise ValueError(f"no slab measure for case {self.name!r}")

    def branch_period(self, params):
        """Flow-time period of the section-hit candidates, None if unique."""
        return None


def _nonzero(rng, m):
    v = rng.normal(size=m)
    return np.where(np.abs(v) < 1e-3, 1.0 + np.abs(v), v)


# ---------------------------------------------------------------------------
# flow charts of the continuous cases


class _Chart:
    """Flow coordinates of a continuous section, on arrays: each row of an
    (m, d) parameter array ``p`` names a section point ``c`` and a flow time
    ``t`` (``origin``), and ``point`` is ``c @ exp(tJ)`` in Jordan
    coordinates; these cover R^n up to a null set.  A row lists the
    outermost integration variable first and the free coordinates last.
    ``weight`` is the signed Jacobian determinant of ``point``, ``delta^t``
    included.  ``ranges`` maps the unit cube [0, 1]^d affinely onto
    parameters covering the decay ball of ambient radius ``radius``, each
    variable's interval given by the outer ones: a free coordinate spans
    the ball's chord (``chord``).  A ``mirrored`` chart covers half of R^n,
    ``x -> -x`` the rest.

    The substituted charts of the nilpotent witnesses take ``u = t x1`` in
    place of ``t`` and give ``point`` in closed form on the pure block,
    whose trace is 0: there ``delta = 1``."""

    mirrored = False
    slabs = 1  # pieces of the outermost variable that are integrated apart
    # the flow time starts where the lead radius is ``core`` (``time_range``):
    # on a rotating chart the disc it cuts holds about 4e-10 of a Gaussian
    core = 1e-5

    def __init__(self, section, radius=None):
        vars(self).update(section.params)  # alpha, beta, log_span, ... as attributes
        self.form, self.off, self.radius = section.jordan, section.block.offset, radius
        self.free = np.array([d for d in range(section.n) if not self.off <= d < self.off + self.span], dtype=np.intp)
        self.pure = not self.free.size
        self.trace = float(np.trace(section.matrix))

    def origin(self, p):
        lead, t = self.lead(p)
        c = np.zeros((len(p), self.form.n))
        c[:, self.off : self.off + self.span] = lead
        c[:, self.free] = p[:, self.span :]
        return c, t

    def point(self, p):
        return jordan_power_rows(self.form, *self.origin(p))

    def draw(self, rng, m):
        return rng.uniform(-2.0, 2.0, (m, self.form.n))

    def reach(self, pure=False):
        """Radius of the decay ball in Jordan coordinates; ``pure`` refuses free coordinates."""
        if pure and not self.pure:
            raise DimensionTooHigh(f"orbit_integral integrates this case on its pure {self.span}x{self.span} block only")
        return self.radius * float(np.linalg.norm(self.form.conjugator_inverse, 2))

    def time_range(self):
        return tuple(sorted((math.log(self.core) / self.alpha, math.log(1.5 * self.reach()) / self.alpha)))

    def ranges(self, y):
        """``p`` for the rows ``y`` of the unit cube, and the map's Jacobian:
        column k spans the k-th of ``intervals``, an interval or a function
        of the outer columns ``p[:, :k]``, then the free coordinates their
        chords."""
        p, volume = np.empty_like(y), np.ones(len(y))
        for k, bound in enumerate(self.intervals + [self.chord] * self.free.size):
            lo, hi = bound(p[:, :k]) if callable(bound) else bound
            p[:, k] = lo + (hi - lo) * y[:, k]
            volume *= hi - lo
        return p, volume

    def chord(self, p):
        """The range of the next free coordinate at the outer columns ``p``:
        the projection of the ball ``|c exp(tJ) P| <= R`` with the earlier
        coordinates of ``c`` fixed, widened by 1 on each side, and empty
        where it misses the ball.  ``x0`` is the fixed part of ``x`` and
        ``v`` the rows of ``exp(tJ) P`` at the open coordinates, normalized;
        the least-squares fit ``x0 + a v`` has residual ``|r|``, and the
        first open coordinate reaches ``sqrt((R^2 - |r|^2) [(v v^T)^-1]_00)``
        from its centre."""
        i = p.shape[1] - self.span
        lead, t = self.lead(p)
        w = jordan_flow_batch(self.form, t) @ self.form.conjugator
        x0 = np.einsum("mj,mjn->mn", np.hstack([lead, p[:, self.span :]]),
                       w[:, np.r_[self.off : self.off + self.span, self.free[:i]]])
        v = w[:, self.free[i:]]
        norms = np.linalg.norm(v, axis=2)
        v = v / norms[..., None]
        inv = np.linalg.inv(v @ v.transpose(0, 2, 1))
        proj = np.einsum("mkn,mn->mk", v, x0)
        fit = np.einsum("mkl,ml->mk", inv, proj)
        slack = self.radius**2 - np.einsum("mn,mn->m", x0, x0) + np.einsum("mk,mk->m", proj, fit)
        centre = -fit[:, 0] / norms[:, 0]
        half = np.where(slack >= 0.0, np.sqrt(np.maximum(slack, 0.0) * inv[:, 0, 0]) / norms[:, 0] + 1.0, 0.0)
        return centre - half, centre + half


class _ScalingChart(_Chart):
    """``(t, free...) -> (1, free) @ exp(tJ)``, weight ``alpha delta^t``."""

    span, mirrored = 1, True
    core = 1e-8  # the cut slab |w_1| < core holds about core * 0.8 of a Gaussian

    def lead(self, p):
        return np.ones((len(p), 1)), p[:, 0]

    def weight(self, p):
        return self.alpha * np.exp(self.trace * p[:, 0])

    @cached_property
    def intervals(self):
        return [self.time_range()]


class _RotatingChart(_Chart):
    """``(t, s, free...) -> (s, 0, free) @ exp(tJ)``, ``1 <= s < Lambda``,
    weight ``-s beta delta^t``."""

    span = 2

    def lead(self, p):
        return np.column_stack((p[:, 1], np.zeros(len(p)))), p[:, 0]

    def weight(self, p):
        return -p[:, 1] * self.beta * np.exp(self.trace * p[:, 0])

    @cached_property
    def intervals(self):
        return [self.time_range(), (1.0, math.exp(self.log_span))]

    @cached_property
    def slabs(self):
        """One piece, or a quarter turn of flow time per piece under a
        conjugator that is not conformal: the decay ball is then an ellipse
        in Jordan coordinates, so the integrand peaks twice a turn, more
        sharply as ``t`` grows, and a rule spread over many turns misses
        peaks and reports convergence."""
        if np.linalg.cond(self.form.conjugator) < 1.0 + 1e-9:
            return 1
        lo, hi = self.intervals[0]
        return math.ceil(4.0 * (hi - lo) * self.beta / TWO_PI)

    def draw(self, rng, m):
        p = super().draw(rng, m)
        p[:, 1] = rng.uniform(1.0, math.exp(self.log_span), m)
        return p


class _ShearChart(_Chart):
    """``(s, u, free...) -> (s, 0, free) @ exp((u/s) J)``, which is ``(s, u)``
    on the pure block, also as ``s -> 0``; weight ``delta^(u/s)``."""

    span = 2

    def lead(self, p):
        return np.column_stack((p[:, 0], np.zeros(len(p)))), p[:, 1] / p[:, 0]

    def point(self, p):
        return p.copy() if self.pure else super().point(p)

    def weight(self, p):
        return np.ones(len(p)) if self.pure else np.exp(self.trace * p[:, 1] / p[:, 0])

    @cached_property
    def intervals(self):
        r = 1.5 * self.reach(pure=True)
        return [(-r, r), (-r - 1.0, r + 1.0)]

    def draw(self, rng, m):
        p = super().draw(rng, m)
        p[:, 0] = rng.uniform(0.5, 2.0, m) * rng.choice([-1.0, 1.0], m)
        return p


class _RotatingShearChart(_Chart):
    """``(p, s, q, u, free...) -> (p, 0, q, s, free) @ exp((u/p) J)`` with
    ``0 <= q < 2 pi p / beta``, weight ``-beta delta^(u/p)``."""

    span = 4

    def lead(self, p):
        return np.column_stack((p[:, 0], np.zeros(len(p)), p[:, 2], p[:, 1])), p[:, 3] / p[:, 0]

    def point(self, p):
        if not self.pure:
            return super().point(p)
        pv, s, q, u = p.T
        theta = self.beta * u / pv
        c, sn = np.cos(theta), np.sin(theta)
        w = u + q
        return np.column_stack((pv * c, pv * sn, w * c - s * sn, w * sn + s * c))

    def weight(self, p):
        return np.full(len(p), -self.beta) if self.pure else -self.beta * np.exp(self.trace * p[:, 3] / p[:, 0])

    @cached_property
    def intervals(self):
        beta, reach = self.beta, self.reach(pure=True)

        def u_range(p):
            # support of f: (u+q)^2 + s^2 + p^2 <= (Jordan radius)^2
            slack = (1.2 * reach) ** 2 - p[:, 1] ** 2 - p[:, 0] ** 2
            w = np.where(slack > 0.0, np.sqrt(np.maximum(slack, 0.0)) + 0.5, 0.0)
            return -p[:, 2] - w, -p[:, 2] + w

        return [(1e-12, 1.5 * reach), (-1.5 * reach, 1.5 * reach), lambda p: (0.0, TWO_PI * p[:, 0] / beta), u_range]

    def draw(self, rng, m):
        p = super().draw(rng, m)
        p[:, 0] = rng.uniform(0.5, 2.0, m)
        p[:, 2] = rng.uniform(0.0, TWO_PI * p[:, 0] / self.beta)
        return p


class _RealNonzero(_Case):
    """The leading coordinate of a real block pinned to +/-1."""

    chart = _ScalingChart

    def params(self, blk):
        return {"alpha": blk.alpha}

    def rate(self, params):
        return abs(params["alpha"])

    def parameter(self, section, w, exceptional, rho):
        return -np.log(np.where(exceptional, 1.0, rho)) / section.params["alpha"]

    def sample(self, section, coords, rng):
        coords[:, section.block.offset] = rng.choice([-1.0, 1.0], size=coords.shape[0])


class _ComplexNonzero(_Case):
    """The radial segment [1, Lambda) on the zero-angle ray of the pair."""

    chart = _RotatingChart

    def params(self, blk):
        mu = abs(blk.alpha)
        return dict(
            alpha=blk.alpha,
            beta=blk.beta,
            mu=mu,
            log_span=TWO_PI * mu / blk.beta,  # ln of the radial ratio Lambda
        )

    def rate(self, params):
        return params["beta"]

    def parameter(self, section, w, exceptional, rho):
        alpha, beta, mu = section.params["alpha"], section.params["beta"], section.params["mu"]
        sigma = 1.0 if alpha > 0 else -1.0
        phi = _angle(w[:, 0], w[:, 1])
        logr = np.log(np.where(exceptional, 1.0, rho))
        c0 = beta * logr / (TWO_PI * mu) - sigma * phi / TWO_PI
        m = -sigma * np.floor(c0)
        return (-phi + TWO_PI * m) / beta

    def sample(self, section, coords, rng):
        off = section.block.offset
        coords[:, off] = np.exp(rng.uniform(0.0, section.params["log_span"], coords.shape[0]))
        coords[:, off + 1] = 0.0

    def branch_period(self, params):
        return TWO_PI / params["beta"]


class _ZeroNilpotent(_Case):
    """The second chain coordinate of a nilpotent zero block set to 0."""

    chart = _ShearChart

    def parameter(self, section, w, exceptional, rho):
        return -w[:, 1] / np.where(exceptional, 1.0, w[:, 0])

    def sample(self, section, coords, rng):
        off = section.block.offset
        coords[:, off] = _nonzero(rng, coords.shape[0])
        coords[:, off + 1] = 0.0


class _ImaginaryNilpotent(_Case):
    """The leading pair on angle zero, the third coordinate boxed into
    [0, 2*pi*p/beta)."""

    chart = _RotatingShearChart

    def params(self, blk):
        return {"beta": blk.beta}

    rate = _ComplexNonzero.rate

    def parameter(self, section, w, exceptional, rho):
        return _rotating_shear_flow_time(section.params["beta"], w, exceptional, rho, w[:, 2], w[:, 3])

    def norm_limit(self, section):
        """:func:`_rotating_shear_flow_time` reads the row on a scale of up to
        ``2 pi / min(beta, 1)`` times its norm: the span ``2 pi p / beta``,
        and the phase, half a span plus a coordinate.  Half the float range
        over that scale keeps both finite."""
        return np.finfo(float).max * min(section.params["beta"], 1.0) / (2.0 * TWO_PI)

    def sample(self, section, coords, rng):
        off = section.block.offset
        m = coords.shape[0]
        p = np.abs(rng.normal(size=m)) + 0.1
        coords[:, off] = p
        coords[:, off + 1] = 0.0
        coords[:, off + 2] = rng.uniform(0.0, 1.0, m) * (TWO_PI / section.params["beta"]) * p

    branch_period = _ComplexNonzero.branch_period


class _ModulusNotOne(_Case):
    """The radial shell 1 <= |x1| < Lambda of a real witness."""

    sliceable = True
    turns = False  # the slab is a band in |x1|, whatever the tile index

    def params(self, blk):
        lam = blk.re
        big = max(abs(lam), 1.0 / abs(lam))
        return dict(lam=lam, log_span=math.log(big), expanding=abs(lam) > 1.0)

    def phases(self, section, w, exceptional, rho):
        """``(u, s, wrap)``: the gauge ``log|x1| / log_span``, to which ``A``
        adds ``log|lam| / log_span = s = +/-1``, and the radial phase ``wrap``,
        here ``u`` itself: the representative ``w A^-k`` has ``log|x1| /
        log_span = wrap - floor(wrap)``."""
        u = np.log(np.where(exceptional, 1.0, rho)) / section.params["log_span"]
        return u, 1 if section.params["expanding"] else -1, u

    def gauge(self, section, w, exceptional, rho):
        """``(u, s)`` of :meth:`phases`."""
        return self.phases(section, w, exceptional, rho)[:2]

    def sample(self, section, coords, rng):
        m = coords.shape[0]
        span = section.params["log_span"]
        coords[:, section.block.offset] = rng.choice([-1.0, 1.0], size=m) * np.exp(rng.uniform(0.0, span, m))

    # -- slab geometry ------------------------------------------------------

    def slab_measure(self, params):
        """Measure of the constrained part, in Jordan coordinates."""
        lam_big = math.exp(params["log_span"])
        return 2.0 * (lam_big - 1.0)

    def core_radius(self, params):
        """Sup-norm radius of the constrained coordinates."""
        return math.exp(params["log_span"])

    def slab_growth(self, params):
        """Scaling of the radial coordinate per step of the expanding action."""
        return math.exp(params["log_span"])


class _ComplexModulusNotOne(_Case):
    """The spiral slab ``0 <= log r - (phi/omega) mu < log Lambda`` with
    ``phi < omega`` of a complex witness."""

    sliceable = True
    turns = True  # the slab winds around the origin once per tile index

    def params(self, blk):
        r = blk.modulus
        beta = blk.argument
        expanding = r > 1.0
        mu = abs(math.log(r))
        omega = beta if expanding else TWO_PI - beta
        return dict(beta=beta, mu=mu, omega=omega, log_span=TWO_PI * mu / omega, expanding=expanding)

    def phases(self, section, w, exceptional, rho):
        """``(u, s, wrap)``: the gauge, the flow phase ``(phi + 2 pi m) / omega``
        with ``phi`` the pair's angle by :func:`_angle` and ``m = floor(wrap)``
        the slab of the log-radial index ``log rho - (phi/omega) mu`` (``A``
        turns ``phi`` by ``beta``, ``s * omega`` modulo 2 pi, and moves the
        index a slab as ``phi`` wraps), and the radial phase ``wrap``, the
        index over ``log_span``: the representative ``w A^-k`` has the index
        ``(wrap - floor(wrap)) * log_span``."""
        phi = _angle(w[:, 0], w[:, 1])
        logs = np.log(np.where(exceptional, 1.0, rho)) - (phi / section.params["omega"]) * section.params["mu"]
        wrap = logs / section.params["log_span"]
        u = (phi + TWO_PI * np.floor(wrap)) / section.params["omega"]
        return u, 1 if section.params["expanding"] else -1, wrap

    gauge = _ModulusNotOne.gauge

    def sample(self, section, coords, rng):
        off = section.block.offset
        m = coords.shape[0]
        mu, omega = section.params["mu"], section.params["omega"]
        logs = rng.uniform(0.0, section.params["log_span"], m)
        t = rng.uniform(0.0, 1.0, m)
        r = np.exp(logs + t * mu)
        phi = t * omega
        coords[:, off] = r * np.cos(phi)
        coords[:, off + 1] = r * np.sin(phi)

    # -- slab geometry ------------------------------------------------------

    def slab_measure(self, params):
        # exact area integral times a safety factor of 2: the shift
        # inequality only needs an upper bound
        mu, omega = params["mu"], params["omega"]
        lam_big = math.exp(params["log_span"])
        exact = (lam_big**2 - 1.0) * (omega / (4.0 * mu)) * (math.exp(2.0 * mu) - 1.0)
        return 2.0 * exact

    def core_radius(self, params):
        return math.exp(params["log_span"] + params["mu"])

    def slab_growth(self, params):
        return math.exp(params["mu"])


class _RealModulusOneNilpotent(_Case):
    """The cone ``0 <= x2/x1 < 1`` of a nilpotent block with eigenvalue +/-1."""

    cone = True

    def params(self, blk):
        return {"lam": 1.0 if blk.re > 0 else -1.0}

    def gauge(self, section, w, exceptional, rho):
        """``x2/x1``, to which ``A`` adds ``1/lam = lam``."""
        return w[:, 1] / np.where(exceptional, 1.0, w[:, 0]), section.params["lam"]

    def sample(self, section, coords, rng):
        off = section.block.offset
        s = _nonzero(rng, coords.shape[0])
        coords[:, off] = s
        coords[:, off + 1] = s * rng.uniform(0.0, 1.0, coords.shape[0])


class _ComplexModulusOneNilpotent(_Case):
    """The rotating-shear set of a nilpotent block with |eigenvalue| 1."""

    def params(self, blk):
        return {"beta": blk.argument}

    norm_limit = _ImaginaryNilpotent.norm_limit

    def gauge(self, section, w, exceptional, rho):
        """Minus the flow time of :func:`_rotating_shear_flow_time`, read in the
        flow coordinates: those differ from the Jordan coordinates by one
        rotation of the second pair."""
        beta = section.params["beta"]
        d3, d4 = _rotate_rows(w[:, 2], w[:, 3], beta)
        return -_rotating_shear_flow_time(beta, w, exceptional, rho, d3, d4), 1

    def sample(self, section, coords, rng):
        off = section.block.offset
        m = coords.shape[0]
        beta = section.params["beta"]
        p = np.abs(rng.normal(size=m)) + 0.1
        q = rng.uniform(0.0, 1.0, m) * (TWO_PI / beta) * p
        s = rng.normal(size=m)
        t = rng.uniform(0.0, 1.0, m)
        # flow coordinates, then undo the shear correction of the second pair
        theta = beta * t
        x1, x2 = _rotate_rows(p, np.zeros(m), theta)
        d3, d4 = _rotate_rows(q + t * p, s, theta)
        c3, c4 = _rotate_rows(d3, d4, -beta)
        coords[:, off], coords[:, off + 1] = x1, x2
        coords[:, off + 2], coords[:, off + 3] = c3, c4


class _DerivedFromContinuous(_Case):
    """The unit-time sweep ``{gamma A^t : gamma in S, 0 <= t < 1}`` of the
    continuous section ``S = section.base``: its null set is the base's,
    and its phase is minus the base's flow time ``t``."""

    json_tags = (("derived", True),)
    flows = True  # A = exp(B), and the Jordan form is that of B

    def matrix(self, section):
        return one_parameter_power(section.jordan, 1.0)

    def null_set(self, section):
        return section.base.null_set()

    def radius(self, section, w):
        return section.base.kind.radius(section.base, w)

    def norm_limit(self, section):
        return section.base.kind.norm_limit(section.base)

    def gauge(self, section, w, exceptional, rho):
        return -section.base.kind.parameter(section.base, w, exceptional, rho), 1

    def sample(self, section, coords, rng):
        base = section.base
        base.kind.sample(base, coords, rng)
        coords[:] = power_rows(base, coords, rng.uniform(0.0, 1.0, coords.shape[0]))


_CASES = {
    case.name: case
    for case in (
        _RealNonzero("real_nonzero", "continuous", 1),
        _ComplexNonzero("complex_nonzero", "continuous", 2),
        _ZeroNilpotent("zero_nilpotent", "continuous", 1),
        _ImaginaryNilpotent("imaginary_nilpotent", "continuous", 2),
        _ModulusNotOne("modulus_not_one", "discrete", 1),
        _ComplexModulusNotOne("complex_modulus_not_one", "discrete", 2),
        _RealModulusOneNilpotent("real_modulus_one_nilpotent", "discrete", 1),
        _ComplexModulusOneNilpotent("complex_modulus_one_nilpotent", "discrete", 2),
        _DerivedFromContinuous("derived_from_continuous", "discrete", None),  # the base's
    )
}


def _rotating_shear_flow_time(beta, w, exceptional, rho, x3, x4):
    """Unique flow time ``t`` with ``point @ M(t)`` in the imaginary nilpotent
    section, where ``M`` is the 4x4 rotation-with-shear flow of rate ``beta``,
    for the leading pair ``w[:, :2]`` of witness radius ``rho`` and the second
    pair ``(x3, x4)``; a refused row reads the pair ``(1, x2)``'s angle and
    radius 1."""
    p = np.where(exceptional, 1.0, rho)
    phi = np.arctan2(w[:, 1], np.where(exceptional, 1.0, w[:, 0]))
    t1 = -phi / beta
    y3, _ = _rotate_rows(x3, x4, beta * t1)
    span = TWO_PI * p / beta
    w = t1 * p + y3
    kk = -np.floor(w / span)
    return t1 + kk * (TWO_PI / beta)


# ---------------------------------------------------------------------------
# membership and orbit solving


def _refused(section, coords):
    """``(c, null, refused, rho)`` for rows of Jordan coordinates ``coords``,
    from one reading of their norms and their witness radius ``rho``: the
    rows ``c`` read; the null band ``rho <= tol * max(||c||, 1)``; it and, in
    a continuous section, the resolution band; and ``rho``.  This is the only
    reading of a row's float range: a row with a non-finite entry is read as
    the origin, which lies in every case's null set, so it is refused like
    one, with no float warning.

    An ambient vector resolves each Jordan coordinate only to about
    ``eps * cond(Q) * ||c||``.  Where that noise exceeds the tolerance
    ``tol * max(rho, 1)`` of a continuous section, membership is undecidable
    and the row is refused like a null-set point.  A finite row whose
    squares overflow is read scaled by its largest entry; a norm or a witness
    radius past the float range is inf: the row is refused, and so is a row
    whose norm is past the case's ``norm_limit``, where its orbit parameter
    would leave the float range."""
    if not np.isfinite(coords).all():  # one test of the whole array is 20x cheaper than per row
        coords = np.where(finite_rows(coords)[:, None], coords, 0.0)
    try:
        with np.errstate(over="raise"):  # free where nothing overflows, unlike a test of every norm
            norms = row_norms(coords)
    except FloatingPointError:
        with np.errstate(over="ignore"):
            norms = row_norms(coords)
            huge = np.flatnonzero(np.isinf(norms))
            scale = np.max(np.abs(coords[huge]), axis=1, keepdims=True)
            norms[huge] = scale[:, 0] * row_norms(coords[huge] / scale)
    with np.errstate(over="ignore"):
        rho = section.kind.radius(section, coords[:, section.block.offset :])
    null = rho <= section.tol * np.maximum(norms, 1.0)
    limit = section.kind.norm_limit(section)
    if limit < math.inf:
        null |= norms > limit
    if section.mode != "continuous":
        return coords, null, null, rho
    noise = 8.0 * section.jordan.cond * np.finfo(float).eps * norms
    return coords, null, null | (section.tol * np.maximum(rho, 1.0) < noise), rho


def power_rows(section, coords, ps):
    """Jordan coordinates moved by the action at parameter ``p``: ``c @ J^p``,
    or the flow ``c @ exp(pJ)`` when the form is that of a generator."""
    return jordan_power_rows(section.jordan, coords, ps, integer=not section.kind.flows)


def _solve_core(section, coords):
    """Flow times (continuous) or tile indices (discrete), the
    representatives in Jordan coordinates, the refusal mask, and the
    representatives' witness radii."""
    coords, exceptional, _, rho = _refused(section, coords)
    with np.errstate(invalid="ignore"):  # a refused row's index may leave int64: it reads 0
        params = section.kind.parameter(section, coords[:, section.block.offset :], exceptional, rho)
    del rho  # freed before the flow, whose arrays then reuse its memory: 10% of a 1-D solve
    continuous = section.mode == "continuous"
    # the representative is gamma A^t (flow time t) or gamma A^-k (tile index
    # k), taken in Jordan coordinates: block powers never mix scales across
    # blocks, so the constrained coordinates stay accurate even when free
    # blocks grow enormous
    rep_coords = power_rows(section, coords, np.where(exceptional, 0.0, params if continuous else -params))
    # a representative that overflows, or whose own evaluation collapses
    # (constrained block dwarfed by free blocks beyond float resolution), is
    # flagged just like a null-set point: refuse rather than return an
    # unusable answer
    _, _, rep_refused, rep_rho = _refused(section, rep_coords)
    exceptional |= rep_refused
    if continuous:
        return np.where(exceptional, np.nan, params), rep_coords, exceptional, rep_rho
    return np.where(exceptional, 0, params).astype(float), rep_coords, exceptional, rep_rho


class PushedSection:
    """A union ``union_i S_i A^shift(i)`` of the pieces ``S_i`` of the discrete
    cross-section ``base``: a reshaped or an order-infinity set.  Like any
    discrete set it is its points of tile index 0, where a point's tile
    index is its tile index in ``base`` minus the shift of the piece that
    holds its base representative.  A subclass supplies ``base``,
    ``shift(i)`` and ``piece_of(coords, rho)``, the piece of each
    representative given in Jordan coordinates with its witness radius;
    piece 0 (no piece: the representative rounded onto or past an edge of
    the section, such as a slab set's representative whose radial phase
    reads below the first slab or past the cut) is refused."""

    mode = "discrete"

    @property
    def matrix(self) -> np.ndarray:
        return self.base.matrix

    @property
    def n(self) -> int:
        return self.base.n

    def _pushed(self, coords):
        """``(tile, reps, pieces, shifts, refused)`` of rows of the base's Jordan
        coordinates: the pushed tile index, the base representatives, and each
        row's piece and shift; a refused row has piece 0, shift 0 and no usable
        representative."""
        ks, reps, refused, rho = _solve_core(self.base, coords)
        pieces = np.zeros(len(ks), dtype=int)
        pieces[~refused] = self.piece_of(reps[~refused], rho[~refused])
        refused |= pieces == 0
        shifts = self._row_shifts(pieces)
        return ks.astype(np.int64) - shifts, reps, pieces, shifts, refused

    def _row_shifts(self, pieces):
        """Each row's shift, 0 for piece 0 (no piece).  Piece indices are small
        (a shell or slab index), so the pieces present are counted in a table
        indexed by piece, with no sort, and ``shift`` is asked once for each,
        in increasing order."""
        shift_of = np.zeros(pieces.max(initial=0) + 1, dtype=np.int64)
        for i in np.flatnonzero(np.bincount(pieces)[1:]) + 1:
            shift_of[i] = self.shift(i)
        return shift_of[pieces]

    def membership(self, points):
        """The points of pushed tile index 0, with the refusal mask."""
        return self.jordan_membership(self.base._coords(points))

    def jordan_membership(self, coords):
        """:meth:`membership` of an (m, n) stack of the base's Jordan
        coordinates; a row that is not finite is refused."""
        tile, _, _, _, refused = self._pushed(coords)
        return (tile == 0) & ~refused, refused

    def solve(self, points):
        """Tile index j with ``gamma in S~ A^j`` and the representative."""
        tile, reps, _, shifts, refused = self._pushed(self.base._coords(points))
        out_reps, ok = np.full_like(reps, np.nan), ~refused
        with np.errstate(over="ignore", invalid="ignore"):  # a representative past the float range reads inf or nan
            out_reps[ok] = self.base.jordan.from_jordan(power_rows(self.base, reps[ok], shifts[ok]))
        return tile.astype(float), out_reps, refused


# ---------------------------------------------------------------------------
# public scalar API


# the refusal message of the scalar API: the vectorized calls flag the null
# set, overflow and float-resolution limits alike, so it names no one cause
_REFUSED = "point refused: on the declared measure-zero set or not resolvable in floating point"


def contains(region, gamma) -> bool:
    """Exact membership test in any set with a vectorized ``membership``
    (sections, pushed sets, regions); raises ExceptionalPoint on a refused point."""
    member, exceptional = region.membership(np.atleast_2d(gamma))
    if exceptional[0]:
        raise ExceptionalPoint(_REFUSED)
    return bool(member[0])


def solve_orbit(section: CrossSection, gamma) -> OrbitSolution:
    """The unique orbit parameter carrying ``gamma`` to the section.

    Continuous: flow time t with ``gamma A^t in S``.  Discrete: tile
    index k with ``gamma in S A^k`` (representative ``gamma A^-k``).
    """
    params, reps, exceptional = section.solve(np.atleast_2d(gamma))
    if exceptional[0]:
        raise ExceptionalPoint(_REFUSED)
    p = params[0]
    if section.mode == "discrete":
        p = int(p)
    return OrbitSolution(parameter=p, representative=reps[0])


# ---------------------------------------------------------------------------
# JSON round trip


def section_to_json(section: CrossSection) -> dict:
    return section.to_json()


def section_from_json(obj, tol=None) -> CrossSection:
    if "matrix" not in obj and isinstance(obj.get("section"), dict):
        obj = obj["section"]  # accept a whole emitted build document
    mode = obj.get("mode")
    matrix = matrix_from_json(obj.get("matrix"))  # a missing matrix is malformed JSON too
    tol = float(obj.get("tol", DEFAULT_TOL)) if tol is None else tol
    if mode == "continuous":
        section = build_continuous_section(matrix, tol=tol)
    elif mode == "discrete":
        if obj.get("derived") or obj.get("case") == "derived_from_continuous":
            section = derive_discrete_section(build_continuous_section(matrix, tol=tol))
        else:
            section = build_discrete_section(matrix, tol=tol)
    else:
        raise ValueError(f"unknown section mode {mode!r}")
    if "case" in obj and obj["case"] != section.case:
        raise ValueError(f"section JSON case {obj['case']!r} does not match rebuilt case {section.case!r}")
    return section
