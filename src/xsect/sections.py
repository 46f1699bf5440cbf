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

Both are the unique parameter of their kind.  Interval bounds are
half-open exactly as constructed; the equality constraints that carve a
continuous section out of a hypersurface are tested at a small relative
tolerance (a float can sit on a measure-zero set only approximately),
while interval bounds are compared exactly with no epsilon-fattening.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import cached_property, lru_cache, partial

import numpy as np

from .classify import classify_continuous, classify_discrete
from .errors import DimensionTooHigh, ExceptionalPoint, NoSection
from .linalg import (
    DEFAULT_TOL,
    RealJordanForm,
    flow_rows,
    integer_power,  # noqa: F401  kept importable here: perfbench's tracer rebinds it in this module
    jordan_flow_batch,
    jordan_power_rows,
    matrix_from_json,
    matrix_to_json,
    one_parameter_power,
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

    @cached_property
    def _conj_cond(self) -> float:
        """``cond(Q)`` of the Jordan basis; cached, never serialized."""
        return float(np.linalg.cond(self.jordan.conjugator_inverse))

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
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        coords = self.jordan.to_jordan(pts)
        return _membership_core(self, coords)

    def solve(self, points):
        """Vectorized orbit solve: (parameter array, representatives, exceptional)."""
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        coords = self.jordan.to_jordan(pts)
        return _solve_core(self, coords)

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
    for a complex pair.  The null-set mask, the null-set data and, in
    the sliceable cases, the free dimensions all follow from it.

    ``eq_scale``, ``member`` and ``parameter`` read ``w``, the Jordan
    coordinates from the witness block on (``w[:, 0]`` is ``x1``).
    ``parameter`` is the flow time ``t`` with ``gamma @ A^t in S``
    (continuous cases) or the tile index ``k`` with ``gamma in S @ A^k``
    (discrete cases); ``exceptional`` is the null-set mask, so the
    formulas never divide by a vanishing witness coordinate.

    ``gauge`` gives ``(g, rate, lo, hi)`` or None: a witness coordinate ``g``
    that the action at ``p`` moves to exactly ``g + p*rate``, with
    ``lo <= g <= hi`` on the set; ``g`` is not finite on the null set.  The
    leading cell moves as ``c1 lambda^p`` whatever the chain length, so
    ``log|x1|`` and ``log r`` gain ``p log|lambda|`` (``p alpha``, flows); the
    next cell gains ``p lambda^(p-1) c1`` (``p c1``), so ``x2/x1`` gains
    ``p/lambda`` (``p``) and ``Re(z2/z1)`` gains ``p`` once a power's ``z2``
    is rotated by ``beta``; a unit-time sweep widens its base's range by ``rate``.
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

    def null_mask(self, section, coords):
        # an overflowing norm yields inf and the point is flagged exceptional
        with np.errstate(over="ignore"):
            scale = np.maximum(np.linalg.norm(coords, axis=1), 1.0)
        w = coords[:, section.block.offset :]
        if self.pinned == 1:
            return np.abs(w[:, 0]) <= section.tol * scale
        return np.hypot(w[:, 0], w[:, 1]) <= section.tol * scale

    def eq_scale(self, section, w):
        """Scale of the equality constraints, or None when there are none."""
        return None

    def gauge(self, section, w):
        return None

    @property
    def flows(self) -> bool:
        """The form is that of a generator ``B``: the action at ``p`` is ``exp(pB)``."""
        return self.mode == "continuous"

    def slab_measure(self, params) -> float:
        raise ValueError(f"no slab measure for case {self.name!r}")

    def branch_period(self, params):
        """Flow-time period of the section-hit candidates, None if unique."""
        return None


def _on_ray(section, w):
    """The leading pair on the zero-angle ray, and its radius."""
    r = np.hypot(w[:, 0], w[:, 1])
    return (np.abs(w[:, 1]) <= section.tol * np.maximum(r, 1.0)) & (w[:, 0] > 0), r


def _re_ratio(w, z2):
    """``Re(z2 / z1)`` for the leading pair ``z1`` of ``w`` and the pair ``z2``."""
    return (z2[0] * w[:, 0] + z2[1] * w[:, 1]) / (w[:, 0] ** 2 + w[:, 1] ** 2)


def _nonzero(rng, m):
    v = rng.normal(size=m)
    return np.where(np.abs(v) < 1e-3, 1.0 + np.abs(v), v)


# ---------------------------------------------------------------------------
# flow charts of the continuous cases


class _Chart:
    """Flow coordinates of a continuous section: ``p`` names a section point
    ``c`` and a flow time ``t`` (``origin``), and ``point`` is ``c @ exp(tJ)``
    in Jordan coordinates; these cover R^n up to a null set.  ``p`` lists
    the outermost integration variable first and the free coordinates
    last.  ``weight`` is the signed Jacobian determinant of ``point``,
    ``delta^t`` included; ``ranges`` cover the decay ball of ambient radius
    ``radius``.  A ``mirrored`` chart covers half of R^n, ``x -> -x`` the rest.

    The substituted charts of the nilpotent witnesses take ``u = t x1`` in
    place of ``t`` and give ``point`` in closed form on the pure block,
    whose trace is 0: there ``delta = 1``."""

    mirrored = False

    def __init__(self, section, radius=None):
        vars(self).update(section.params)  # alpha, beta, log_span, ... as attributes
        self.form, self.off, self.radius = section.jordan, section.block.offset, radius
        self.free = np.array([d for d in range(section.n) if not self.off <= d < self.off + self.span], dtype=np.intp)
        self.pure = not self.free.size
        self.trace = float(np.trace(section.matrix))
        self.flow = lru_cache(maxsize=65536)(lambda t: jordan_flow_batch(self.form, [t])[0])  # exp(tJ)

    def origin(self, p):
        lead, t = self.lead(p)
        c = np.zeros(self.form.n)
        c[self.off : self.off + self.span] = lead
        c[self.free] = p[len(p) - self.free.size :]
        return c, t

    def point(self, p):
        c, t = self.origin(p)
        return c @ self.flow(t)

    def draw(self, rng):
        return rng.uniform(-2.0, 2.0, self.form.n)

    def reach(self, pure=False):
        """Radius of the decay ball in Jordan coordinates; ``pure`` refuses free coordinates."""
        if pure and not self.pure:
            raise DimensionTooHigh(f"orbit_integral integrates this case on its pure {self.span}x{self.span} block only")
        return self.radius * float(np.linalg.norm(self.form.conjugator_inverse, 2))

    def flow_ranges(self, *middle):
        """The flow time's range, ``middle``, then the range of each free
        coordinate at that time: ``|c_d| <= R ||column d of Q exp(-tJ)||``."""

        def free_range(d, *outer):
            bound = self.radius * float(np.linalg.norm(self.form.conjugator_inverse @ self.flow(-outer[-1])[:, d]))
            return -bound - 1.0, bound + 1.0

        time = tuple(sorted((math.log(1e-5) / self.alpha, math.log(1.5 * self.reach()) / self.alpha)))
        return [time, *middle] + [partial(free_range, d) for d in self.free]


class _ScalingChart(_Chart):
    """``(t, free...) -> (1, free) @ exp(tJ)``, weight ``alpha delta^t``."""

    span, mirrored = 1, True

    def lead(self, p):
        return (1.0,), p[0]

    def weight(self, p):
        return self.alpha * math.exp(self.trace * p[0])

    def ranges(self):
        return self.flow_ranges()


class _RotatingChart(_Chart):
    """``(t, s, free...) -> (s, 0, free) @ exp(tJ)``, ``1 <= s < Lambda``,
    weight ``-s beta delta^t``."""

    span = 2

    def lead(self, p):
        return (p[1], 0.0), p[0]

    def weight(self, p):
        return -p[1] * self.beta * math.exp(self.trace * p[0])

    def ranges(self):
        return self.flow_ranges((1.0, math.exp(self.log_span)))

    def draw(self, rng):
        p = super().draw(rng)
        p[1] = rng.uniform(1.0, math.exp(self.log_span))
        return p


class _ShearChart(_Chart):
    """``(s, u, free...) -> (s, 0, free) @ exp((u/s) J)``, which is ``(s, u)``
    on the pure block, also as ``s -> 0``; weight ``delta^(u/s)``."""

    span = 2

    def lead(self, p):
        return (p[0], 0.0), p[1] / p[0]

    def point(self, p):
        return np.array((p[0], p[1])) if self.pure else super().point(p)

    def weight(self, p):
        return 1.0 if self.pure else math.exp(self.trace * p[1] / p[0])

    def ranges(self):
        r = 1.5 * self.reach(pure=True)
        return [(-r, r), (-r - 1.0, r + 1.0)]

    def draw(self, rng):
        p = super().draw(rng)
        p[0] = rng.uniform(0.5, 2.0) * rng.choice([-1.0, 1.0])
        return p


class _RotatingShearChart(_Chart):
    """``(p, s, q, u, free...) -> (p, 0, q, s, free) @ exp((u/p) J)`` with
    ``0 <= q < 2 pi p / beta``, weight ``-beta delta^(u/p)``."""

    span = 4

    def lead(self, p):
        return (p[0], 0.0, p[2], p[1]), p[3] / p[0]

    def point(self, p):
        if not self.pure:
            return super().point(p)
        pv, s, q, u = p
        theta = self.beta * u / pv
        c, sn = math.cos(theta), math.sin(theta)
        w = u + q
        return np.array((pv * c, pv * sn, w * c - s * sn, w * sn + s * c))

    def weight(self, p):
        return -self.beta if self.pure else -self.beta * math.exp(self.trace * p[3] / p[0])

    def ranges(self):
        beta, reach = self.beta, self.reach(pure=True)

        def u_range(q, s, p):
            # support of f: (u+q)^2 + s^2 + p^2 <= (Jordan radius)^2
            slack = (1.2 * reach) ** 2 - s**2 - p**2
            if slack <= 0.0:
                return (0.0, 0.0)
            w = math.sqrt(slack) + 0.5
            return (-q - w, -q + w)

        return [(1e-12, 1.5 * reach), (-1.5 * reach, 1.5 * reach), lambda s, p: (0.0, TWO_PI * p / beta), u_range]

    def draw(self, rng):
        p = super().draw(rng)
        p[0] = rng.uniform(0.5, 2.0)
        p[2] = rng.uniform(0.0, TWO_PI * p[0] / self.beta)
        return p


class _RealNonzero(_Case):
    """The leading coordinate of a real block pinned to +/-1."""

    chart = _ScalingChart

    def params(self, blk):
        return {"alpha": blk.alpha}

    def eq_scale(self, section, w):
        return 1.0

    def member(self, section, w, exceptional):
        return np.abs(np.abs(w[:, 0]) - 1.0) <= section.tol

    def gauge(self, section, w):
        return np.log(np.abs(w[:, 0])), section.params["alpha"], 0.0, 0.0

    def parameter(self, section, w, exceptional):
        safe = np.where(exceptional, 1.0, np.abs(w[:, 0]))
        return -np.log(safe) / section.params["alpha"]

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

    def eq_scale(self, section, w):
        return np.maximum(np.hypot(w[:, 0], w[:, 1]), 1.0)

    def member(self, section, w, exceptional):
        on_ray, r = _on_ray(section, w)
        logr = np.log(np.where(r > 0, r, 1.0))
        return on_ray & (logr >= 0.0) & (logr < section.params["log_span"])

    def gauge(self, section, w):
        return np.log(np.hypot(w[:, 0], w[:, 1])), section.params["alpha"], 0.0, section.params["log_span"]

    def parameter(self, section, w, exceptional):
        alpha, beta, mu = section.params["alpha"], section.params["beta"], section.params["mu"]
        sigma = 1.0 if alpha > 0 else -1.0
        phi = _angle(w[:, 0], w[:, 1])
        logr = np.log(np.where(exceptional, 1.0, np.hypot(w[:, 0], w[:, 1])))
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

    def eq_scale(self, section, w):
        return np.maximum(np.abs(w[:, 0]), 1.0)

    def member(self, section, w, exceptional):
        return np.abs(w[:, 1]) <= section.tol * np.maximum(np.abs(w[:, 0]), 1.0)

    def gauge(self, section, w):
        return w[:, 1] / w[:, 0], 1.0, 0.0, 0.0

    def parameter(self, section, w, exceptional):
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

    eq_scale = _ComplexNonzero.eq_scale

    def member(self, section, w, exceptional):
        on_ray, _ = _on_ray(section, w)
        return on_ray & (w[:, 2] >= 0.0) & (w[:, 2] < (TWO_PI / section.params["beta"]) * w[:, 0])

    def gauge(self, section, w):
        return _re_ratio(w, (w[:, 2], w[:, 3])), 1.0, 0.0, TWO_PI / section.params["beta"]

    def parameter(self, section, w, exceptional):
        x1 = np.where(exceptional, 1.0, w[:, 0])
        return _case4_flow_time(section.params["beta"], x1, w[:, 1], w[:, 2], w[:, 3])

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

    def member(self, section, w, exceptional):
        a1 = np.abs(w[:, 0])
        return (a1 >= 1.0) & (a1 < math.exp(section.params["log_span"]))

    def gauge(self, section, w):
        return np.log(np.abs(w[:, 0])), math.log(abs(section.params["lam"])), 0.0, section.params["log_span"]

    def parameter(self, section, w, exceptional):
        u = np.log(np.where(exceptional, 1.0, np.abs(w[:, 0]))) / section.params["log_span"]
        # expanding: log|x1| - k*span in [0, span); contracting: + k*span
        k = np.floor(u) if section.params["expanding"] else -np.floor(u)
        return k.astype(int)

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

    def fill_slab(self, section, coords, rng):
        """Constrained coordinates of points spread over the slab."""
        lam_big = math.exp(section.params["log_span"])
        m = coords.shape[0]
        coords[:, section.block.offset] = rng.choice([-1.0, 1.0], size=m) * rng.uniform(1.0, lam_big, m)

    def radial_coordinate(self, section, coords):
        """The expanding radial coordinate of a representative."""
        return np.abs(coords[:, section.block.offset])

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

    def member(self, section, w, exceptional):
        r = np.hypot(w[:, 0], w[:, 1])
        phi = _angle(w[:, 0], w[:, 1])
        logr = np.log(np.where(r > 0, r, 1.0))
        logs = logr - (phi / section.params["omega"]) * section.params["mu"]
        return (phi < section.params["omega"]) & (logs >= 0.0) & (logs < section.params["log_span"])

    def gauge(self, section, w):
        mu, span = section.params["mu"], section.params["log_span"]
        return np.log(np.hypot(w[:, 0], w[:, 1])), mu if section.params["expanding"] else -mu, 0.0, span + mu

    def parameter(self, section, w, exceptional):
        mu, omega = section.params["mu"], section.params["omega"]
        phi = _angle(w[:, 0], w[:, 1])
        logr = np.log(np.where(exceptional, 1.0, np.hypot(w[:, 0], w[:, 1])))
        m = np.floor((omega * logr / mu - phi) / TWO_PI)
        tau = (phi + TWO_PI * m) / omega
        j = np.floor(tau)
        k = j if section.params["expanding"] else -j
        return k.astype(int)

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

    def fill_slab(self, section, coords, rng):
        off = section.block.offset
        m = coords.shape[0]
        mu, omega = section.params["mu"], section.params["omega"]
        s = rng.uniform(1.0, math.exp(section.params["log_span"]), m)
        t = rng.uniform(0.0, 1.0, m)
        r = s * np.exp(t * mu)
        coords[:, off] = r * np.cos(t * omega)
        coords[:, off + 1] = r * np.sin(t * omega)

    def radial_coordinate(self, section, coords):
        # the spiral radial index
        x1, x2 = coords[:, section.block.offset], coords[:, section.block.offset + 1]
        phi = np.mod(np.arctan2(x2, x1), TWO_PI)
        r = np.hypot(x1, x2)
        return np.exp(np.log(np.maximum(r, 1e-300)) - (phi / section.params["omega"]) * section.params["mu"])

    def slab_growth(self, params):
        return math.exp(params["mu"])


class _RealModulusOneNilpotent(_Case):
    """The cone ``0 <= x2/x1 < 1`` of a nilpotent block with eigenvalue +/-1."""

    cone = True

    def params(self, blk):
        return {"lam": 1.0 if blk.re > 0 else -1.0}

    def member(self, section, w, exceptional):
        x1, x2 = w[:, 0], w[:, 1]
        with np.errstate(divide="ignore", invalid="ignore"):
            ratio = np.where(x1 != 0, x2 / np.where(x1 != 0, x1, 1.0), 0.0)
        return (ratio >= 0.0) & (ratio < 1.0)

    def parameter(self, section, w, exceptional):
        ratio = w[:, 1] / np.where(exceptional, 1.0, w[:, 0])
        k = section.params["lam"] * np.floor(ratio)
        return k.astype(int)

    def gauge(self, section, w):
        return w[:, 1] / w[:, 0], section.params["lam"], 0.0, 1.0

    def sample(self, section, coords, rng):
        off = section.block.offset
        s = _nonzero(rng, coords.shape[0])
        coords[:, off] = s
        coords[:, off + 1] = s * rng.uniform(0.0, 1.0, coords.shape[0])


class _ComplexModulusOneNilpotent(_Case):
    """The rotating-shear set of a nilpotent block with |eigenvalue| 1."""

    def params(self, blk):
        return {"beta": blk.argument}

    def member(self, section, w, exceptional):
        u = _flow_time_mod1(section.params["beta"], w)
        return (u >= 0.0) & (u < 1.0)

    def parameter(self, section, w, exceptional):
        return np.floor(_flow_time_mod1(section.params["beta"], w)).astype(int)

    def gauge(self, section, w):
        beta = section.params["beta"]  # the second pair rotated by beta: the flow coordinates of _flow_time_mod1
        return _re_ratio(w, _rotate_rows(w[:, 2], w[:, 3], beta)), 1.0, 0.0, TWO_PI / beta + 1.0

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
    continuous section ``S = section.base``: its null set and flow time
    are the base's, and the tile index is ``floor(-t)``."""

    json_tags = (("derived", True),)
    flows = True  # A = exp(B), and the Jordan form is that of B

    def matrix(self, section):
        return one_parameter_power(section.jordan, 1.0)

    def null_set(self, section):
        return section.base.null_set()

    def null_mask(self, section, coords):
        return section.base.kind.null_mask(section.base, coords)

    def member(self, section, w, exceptional):
        u = -section.base.kind.parameter(section.base, w, exceptional)
        return (u >= 0.0) & (u < 1.0)

    def parameter(self, section, w, exceptional):
        return np.floor(-section.base.kind.parameter(section.base, w, exceptional)).astype(int)

    def gauge(self, section, w):
        g, rate, lo, hi = section.base.kind.gauge(section.base, w)
        return g, rate, lo + min(rate, 0.0), hi + max(rate, 0.0)

    def sample(self, section, coords, rng):
        base = section.base
        base.kind.sample(base, coords, rng)
        ts = rng.uniform(0.0, 1.0, coords.shape[0])
        pushed = flow_rows(base.jordan, base.jordan.from_jordan(coords), ts)
        coords[:] = base.jordan.to_jordan(pushed)


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


def _case4_flow_time(beta, x1, x2, x3, x4):
    """Unique flow time ``t`` with ``point @ M(t)`` inside the case-4 set,
    where ``M`` is the 4x4 rotation-with-shear flow of rate ``beta``."""
    p = np.hypot(x1, x2)
    phi = np.arctan2(x2, x1)
    t1 = -phi / beta
    y3, _ = _rotate_rows(x3, x4, beta * t1)
    span = TWO_PI * p / beta
    w = t1 * p + y3
    kk = -np.floor(w / span)
    return t1 + kk * (TWO_PI / beta)


def _flow_time_mod1(beta, w):
    """For the discrete modulus-one complex nilpotent case: ``-t_c`` where
    ``t_c`` is the flow time in the shear-corrected coordinates.  The
    point belongs to the section iff the result lies in [0, 1)."""
    # canonical Jordan coordinates differ from the flow coordinates by one
    # rotation of the second pair
    d3, d4 = _rotate_rows(w[:, 2], w[:, 3], beta)
    t_c = _case4_flow_time(beta, w[:, 0], w[:, 1], d3, d4)
    return -t_c


# ---------------------------------------------------------------------------
# membership and orbit solving


def _eq_resolution_mask(section, coords, eq_scale):
    """True where the point's float representation is too coarse to decide
    the case's equality constraints at the working tolerance.

    An ambient vector resolves each Jordan coordinate only to about
    ``eps * cond(Q) * ||c||``; once that noise exceeds the equality
    tolerance the membership question is undecidable and is refused like
    a null-set point."""
    with np.errstate(over="ignore"):
        noise = 8.0 * section._conj_cond * np.finfo(float).eps * np.linalg.norm(coords, axis=1)
    return section.tol * eq_scale < noise


def _membership_core(section, coords):
    kind = section.kind
    w = coords[:, section.block.offset :]
    exceptional = kind.null_mask(section, coords)
    eq_scale = kind.eq_scale(section, w)
    if eq_scale is not None:
        exceptional |= _eq_resolution_mask(section, coords, eq_scale)
    return kind.member(section, w, exceptional) & ~exceptional, exceptional


def power_rows(section, coords, ps):
    """Jordan coordinates moved by the action at parameter ``p``: ``c @ J^p``,
    or the flow ``c @ exp(pJ)`` when the form is that of a generator."""
    return jordan_power_rows(section.jordan, coords, ps, integer=not section.kind.flows)


def _solve_core(section, coords):
    # flow times (continuous) or tile indices (discrete)
    exceptional = section.kind.null_mask(section, coords)
    params = section.kind.parameter(section, coords[:, section.block.offset :], exceptional)
    continuous = section.mode == "continuous"
    if continuous:
        # flow times whose exponentials leave the float range cannot yield a
        # representable representative: flag instead of overflowing the batch
        alpha_max = max(abs(b.alpha) for b in section.jordan.blocks)
        exceptional = exceptional | (np.abs(params) * alpha_max > 700.0)
    # the representative is gamma A^t (flow time t) or gamma A^-k (tile index
    # k), taken in Jordan coordinates: block powers never mix scales across
    # blocks, so the constrained coordinates stay accurate even when free
    # blocks grow enormous
    rep_coords = power_rows(section, coords, np.where(exceptional, 0.0, params if continuous else -params))
    # a representative that overflows, or whose own evaluation collapses
    # (constrained block dwarfed by free blocks beyond float resolution), is
    # flagged just like a null-set point: refuse rather than return an
    # unusable answer
    exceptional |= _membership_core(section, rep_coords)[1] | ~np.isfinite(rep_coords).all(axis=1)
    reps = section.jordan.from_jordan(rep_coords)
    reps[exceptional] = np.nan
    if continuous:
        return np.where(exceptional, np.nan, params), reps, exceptional
    return np.where(exceptional, 0, params).astype(float), reps, exceptional


def piece_shifts(idx, shift) -> np.ndarray:
    """``shift(i)`` for each piece index in ``idx``, called once per distinct piece."""
    pieces = np.unique(idx)
    return np.array([shift(i) for i in pieces], dtype=np.int64)[np.searchsorted(pieces, idx)]


def pushed_membership(section, points, piece_of, shift):
    """Membership in ``union_i S_i A^shift(i)`` for the pieces ``S_i`` of
    ``section``: a point's tile index must equal the shift of the piece
    holding its representative.  A representative that ``piece_of`` puts
    in piece 0 (no piece: it rounded onto an edge of the section) is
    flagged exceptional."""
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    ks, reps, exc = section.solve(pts)
    member = np.zeros(pts.shape[0], dtype=bool)
    ok = ~exc
    if np.any(ok):
        idx = piece_of(section.jordan.to_jordan(reps[ok]))
        edge = idx == 0
        if edge.any():  # rows on an edge are rare: compact only when there are some
            exc[ok] = edge
            ok, idx = ~exc, idx[~edge]
        member[ok] = ks[ok].astype(np.int64) == piece_shifts(idx, shift)
    return member, exc


# ---------------------------------------------------------------------------
# public scalar API


def contains(section: CrossSection, gamma) -> bool:
    """Exact membership test; raises ExceptionalPoint on the null set."""
    member, exceptional = section.membership(np.atleast_2d(gamma))
    if exceptional[0]:
        raise ExceptionalPoint("point lies in the declared measure-zero set")
    return bool(member[0])


def solve_orbit(section: CrossSection, gamma) -> OrbitSolution:
    """The unique orbit parameter carrying ``gamma`` to the section.

    Continuous: flow time t with ``gamma A^t in S``.  Discrete: tile
    index k with ``gamma in S A^k`` (representative ``gamma A^-k``).
    """
    params, reps, exceptional = section.solve(np.atleast_2d(gamma))
    if exceptional[0]:
        raise ExceptionalPoint("point lies in the declared measure-zero set")
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
