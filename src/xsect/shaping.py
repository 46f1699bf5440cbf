"""Reshape an infinite-measure cross-section into a finite-measure (<= 1)
or bounded one.

The construction slices the section along its free coordinates into
pieces ``S_k`` of finite measure (dyadic sup-norm shells), then pushes
each piece along its own orbit, ``S_k -> S_k A^{n_k}``.  Any choice of
integer shifts preserves the tiling property; the shifts are chosen so
that either the total measure stays below 1 (``delta^{n_k} <=
d_k/m(S_k)`` with weights ``d_k = 2^{-k}`` summing to 1) or every piece
lands inside the closed unit ball.

A reshaped set is a :class:`~xsect.sections.PushedSection` whose pieces
are the shells, so it is its points of tile index 0 and the scalar
``contains`` and ``solve_orbit`` serve it.  Reshaping takes only the
section, and uses its matrix and tolerance.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .classify import moduli_one_side
from .errors import DetOne, MixedModuli, SearchExhausted, UsageError
from .linalg import box_corners, integer_power
from .sections import CrossSection, PushedSection


@dataclass(frozen=True)
class ShellPartition:
    """Dyadic sup-norm shells of a d-dimensional span.

    Shell 1 is the open unit sup-norm box; shell k >= 2 collects the
    points with sup-norm in [2^(k-2), 2^(k-1)).  With d = 0 there is a
    single degenerate shell of measure 1.
    """

    dim: int

    def index_of(self, values) -> np.ndarray:
        """Shell index of each row of an (m, dim) array."""
        values = np.asarray(values)
        # the sup-norm of each row, column by column (see xsect.linalg)
        r = np.zeros(values.shape[0])
        for j in range(self.dim):
            np.maximum(r, np.abs(values[:, j]), out=r)
        with np.errstate(divide="ignore"):
            k = np.where(r < 1.0, 1, np.floor(np.log2(np.maximum(r, 1.0))).astype(int) + 2)
        return k

    def sup_radius(self, k: int) -> float:
        """Outer sup-norm radius of shell k."""
        return 1.0 if k == 1 else float(2 ** (k - 1))

    def volume(self, k: int) -> float:
        if self.dim == 0:
            return 1.0
        if k == 1:
            return 2.0**self.dim
        hi, lo = 2 ** (k - 1), 2 ** (k - 2)
        return float((2 * hi) ** self.dim - (2 * lo) ** self.dim)

    def sample(self, rng, k: int, count: int) -> np.ndarray:
        """Uniform sample from shell k (rejection from the bounding box)."""
        hi = self.sup_radius(k)
        lo = hi / 2.0 if k > 1 and self.dim else 0.0  # at d = 0 every shell is the one point
        out = np.empty((count, self.dim))
        filled = 0
        while filled < count:
            cand = rng.uniform(-hi, hi, size=(count, self.dim))
            keep = np.max(np.abs(cand), axis=1, initial=0.0) >= lo
            take = min(count - filled, int(keep.sum()))
            out[filled : filled + take] = cand[keep][:take]
            filled += take
        return out


def _euclid_radius(section: CrossSection, shell: ShellPartition, k: int) -> float:
    """Euclidean sup-radius of piece S_k in Jordan coordinates."""
    core = section.kind.core_radius(section.params)
    return math.sqrt(core**2 + shell.dim * shell.sup_radius(k) ** 2)


# powers walked for a bounded shift before the search gives up: a modulus
# within about 1e-4 of 1 can need more
_MAX_SHIFT = 10_000
# shells mixed by sample_pieces, and shells sampled by measure_estimate
_SAMPLE_SHELLS = 12
_ESTIMATE_SHELLS = 24


@dataclass(frozen=True)
class ShapedSection(PushedSection):
    """A reshaped cross-section ``union_k S_k A^{n_k}``: piece k is the dyadic
    shell k of the free coordinates."""

    base: CrossSection
    target: str  # 'finite' | 'bounded'
    delta: float
    shell: ShellPartition
    free_dims: tuple
    _shifts: dict = field(default_factory=dict, repr=False)
    # ||A^(direction * j)||_2 for j = 0, 1, ...: the bounded-shift walk,
    # shared by every shell and extended where it ends
    _power_norms: list = field(default_factory=list, repr=False)

    # in the class body: perfbench's tracer wraps these names of this class
    membership, solve = PushedSection.membership, PushedSection.solve

    def weight(self, k: int) -> float:
        return 2.0 ** (-k)

    @cached_property
    def _slab_measure(self) -> float:
        """Ambient measure of the base slab per unit of shell volume."""
        # gamma = c @ P: an ambient set is |det P| times its Jordan measure
        return abs(np.linalg.det(self.base.jordan.conjugator)) * self.base.kind.slab_measure(self.base.params)

    @cached_property
    def _conjugator_norm(self) -> float:
        """``||P||_2``: the ambient radius of a unit Jordan radius."""
        return np.linalg.norm(self.base.jordan.conjugator, 2)

    def piece_measure_bound(self, k: int) -> float:
        """Upper bound for the ambient measure of S_k."""
        return self._slab_measure * self.shell.volume(k)

    def shift(self, k: int) -> int:
        """The orbit shift n_k applied to piece k."""
        k = int(k)
        if k not in self._shifts:
            self._shifts[k] = self._compute_shift(k)
        return self._shifts[k]

    def _compute_shift(self, k: int) -> int:
        if self.target == "finite":
            # largest (delta > 1) or smallest (delta < 1) integer with
            # delta^n <= d_k / m(S_k)
            log_target = math.log(self.weight(k)) - math.log(self.piece_measure_bound(k))
            log_delta = math.log(self.delta)
            n = log_target / log_delta
            out = math.floor(n) if self.delta > 1.0 else math.ceil(n)
            # guard against float boundary: enforce the inequality strictly
            while out * log_delta > log_target:
                out += -1 if self.delta > 1.0 else 1
            return int(out)
        # bounded: first shift (by increasing magnitude) pulling the piece
        # into the unit ball, iterating powers in the shrinking direction
        direction = -1 if all(b.modulus > 1.0 for b in self.base.jordan.blocks) else 1
        radius = _euclid_radius(self.base, self.shell, k) * self._conjugator_norm
        norms = self._power_norms
        for j in range(_MAX_SHIFT + 1):
            if j == len(norms):
                norms.append(np.linalg.norm(integer_power(self.matrix, direction * j), 2))
            if norms[j] * radius <= 1.0:
                return direction * j
        raise SearchExhausted(f"no shift within {_MAX_SHIFT} powers pulls piece {k} into the unit ball",
                              radius=_MAX_SHIFT)

    # -- evaluation -------------------------------------------------------

    def piece_of(self, coords, rho):
        """Shell of each base representative (Jordan coordinates); the shells
        lie in the free coordinates, so the witness radius ``rho`` is unread."""
        return self.shell.index_of(coords[:, list(self.free_dims)])

    def sample_pieces(self, rng, count: int) -> np.ndarray:
        """Draw points from the reshaped set, mixing the first shells."""
        shells = rng.integers(1, _SAMPLE_SHELLS + 1, size=count) if self.shell.dim else np.ones(count, dtype=int)
        out = np.empty((count, self.n))
        for k in np.unique(shells):
            sel = np.flatnonzero(shells == k)
            coords = np.zeros((len(sel), self.n))
            self.base.kind.sample(self.base, coords, rng)
            coords[:, list(self.free_dims)] = self.shell.sample(rng, int(k), len(sel))
            ambient = self.base.jordan.from_jordan(coords)
            out[sel] = ambient @ integer_power(self.matrix, self.shift(int(k)))
        return out

    def bounding_box(self, max_shell: int = 30):
        """Axis-aligned box covering pieces 1..max_shell, plus the measure
        bound ``2^-max_shell`` for everything outside it."""
        lo = np.full(self.n, np.inf)
        hi = np.full(self.n, -np.inf)
        for k in range(1, max_shell + 1):
            box_lo, box_hi = self.piece_box(k)
            lo = np.minimum(lo, box_lo)
            hi = np.maximum(hi, box_hi)
        return lo, hi, self.weight(max_shell)

    def piece_box(self, k: int):
        """Tight axis-aligned box around piece ``S_k A^{n_k}`` (ambient)."""
        box_lo, box_hi = _piece_box(self.base, self.shell, k)
        push = integer_power(self.matrix, self.shift(k))
        corners = box_corners(box_lo, box_hi) @ self.base.jordan.conjugator @ push
        return corners.min(axis=0), corners.max(axis=0)

    def measure_estimate(self, samples: int, seed: int) -> "MeasureEstimate":
        """Stratified Monte Carlo estimate of the total measure.

        Each piece is sampled inside its own tight box (a global box
        would dwarf the set and make the estimate vacuous), and stratum k
        counts only the points of piece k: the boxes of skewed pieces
        overlap, and other pieces may reach into them.  The strata
        estimates and their Bernoulli variances add, and pieces beyond
        ``_ESTIMATE_SHELLS`` contribute the tail bound.  The strata are
        drawn in turn and solved in one batch.  A budget below one sample
        per shell raises :class:`UsageError`."""
        if samples < _ESTIMATE_SHELLS:
            raise UsageError(f"the measure estimate needs at least {_ESTIMATE_SHELLS} samples, one per shell")
        per = samples // _ESTIMATE_SHELLS
        rng = np.random.default_rng(seed)
        boxes = [self.piece_box(k) for k in range(1, _ESTIMATE_SHELLS + 1)]
        drawn = np.vstack([rng.uniform(lo, hi, size=(per, self.n)) for lo, hi in boxes])
        tile, _, piece, _, refused = self._pushed(self.base._coords(drawn))
        stratum = np.repeat(np.arange(1, _ESTIMATE_SHELLS + 1), per)
        hits = np.count_nonzero(((tile == 0) & (piece == stratum) & ~refused).reshape(_ESTIMATE_SHELLS, per), axis=1)
        total = 0.0
        var = 0.0
        for (lo, hi), hit in zip(boxes, hits):
            vol = float(np.prod(hi - lo))
            p = float(hit) / per
            total += p * vol
            var += (p * (1.0 - p) / per) * vol * vol
        return MeasureEstimate(
            estimate=total,
            bound=3.0 * math.sqrt(var),
            samples=per * _ESTIMATE_SHELLS,
            seed=seed,
            tail_bound=self.weight(_ESTIMATE_SHELLS),
        )

    def to_json(self) -> dict:
        shifts = {str(k): self.shift(k) for k in range(1, 13)}
        return {
            "target": self.target,
            "base": self.base.to_json(),
            "delta": self.delta,
            "weights": "2^-k",
            "shifts_prefix": shifts,
            "piece_measure_bounds": {str(k): self.piece_measure_bound(k) for k in range(1, 13)},
        }


def _piece_box(section, shell, k):
    """Box around piece S_k in Jordan coordinates: the slab's core radius
    on the pinned witness coordinates, the shell radius on the free ones."""
    rad = shell.sup_radius(k)
    lo, hi = np.full(section.n, -rad), np.full(section.n, rad)
    core = section.kind.core_radius(section.params)
    pinned = _pinned(section)
    lo[pinned], hi[pinned] = -core, core
    return lo, hi


def _pinned(section: CrossSection) -> slice:
    off = section.block.offset
    return slice(off, off + section.kind.pinned)


def _shaped(section: CrossSection, target: str, delta: float) -> ShapedSection:
    """The reshaped section, sliced into shells along every unpinned coordinate."""
    free = tuple(np.delete(np.arange(section.n), _pinned(section)).tolist())
    return ShapedSection(base=section, target=target, delta=delta,
                         shell=ShellPartition(dim=len(free)), free_dims=free)


def to_finite_measure(section: CrossSection) -> ShapedSection:
    """Reshape into a cross-section of measure at most 1.

    Requires ``|det A| != 1``; under that hypothesis the section built
    by :func:`~xsect.sections.build_discrete_section` is always one of the
    two sliceable cases (some eigenvalue modulus differs from 1).
    """
    _check_native(section)
    delta = abs(float(np.linalg.det(section.matrix)))
    if abs(delta - 1.0) <= section.tol:
        raise DetOne(f"|det A| = {delta!r}: no finite-measure cross-section exists")
    if not section.kind.sliceable:
        raise ValueError(f"finite-measure reshaping needs a sliceable section, got case {section.case!r}")
    return _shaped(section, "finite", delta)


def to_bounded(section: CrossSection) -> ShapedSection:
    """Reshape into a cross-section inside the closed unit ball.

    Requires every eigenvalue modulus strictly on one side of 1, as the
    section's Jordan form reads them at its own tolerance."""
    _check_native(section)
    if not moduli_one_side(section.jordan, section.tol):
        raise MixedModuli("eigenvalue moduli straddle 1: no bounded cross-section exists")
    return _shaped(section, "bounded", abs(float(np.linalg.det(section.matrix))))


def _check_native(section):
    if not isinstance(section, CrossSection) or section.mode != "discrete" or section.base is not None:
        raise ValueError("reshaping applies to the native discrete sections")


@dataclass(frozen=True)
class MeasureEstimate:
    estimate: float
    bound: float  # 3-sigma Bernoulli half-width
    samples: int
    seed: int
    box_volume: float | None = None
    tail_bound: float = 0.0

    def to_json(self) -> dict:
        return {
            "estimate": self.estimate,
            "bound_3sigma": self.bound,
            "samples": self.samples,
            "seed": self.seed,
            "box_volume": self.box_volume,
            "tail_bound": self.tail_bound,
        }


def estimate_measure(region, box_lo, box_hi, samples: int, seed: int) -> MeasureEstimate:
    """Unbiased Monte Carlo estimate of the measure of ``region`` inside a
    box, with a 3-sigma Bernoulli half-width.

    ``region`` needs a vectorized ``membership(points) -> (member, exc)``
    method; exceptional points count as misses (they form a null set).
    """
    lo = np.asarray(box_lo, dtype=float)
    hi = np.asarray(box_hi, dtype=float)
    vol = float(np.prod(hi - lo))
    rng = np.random.default_rng(seed)
    hits = 0
    done = 0
    chunk = 200_000
    while done < samples:
        take = min(chunk, samples - done)
        pts = rng.uniform(lo, hi, size=(take, len(lo)))
        member, exc = region.membership(pts)
        hits += int(np.count_nonzero(member & ~exc))
        done += take
    p = hits / samples
    sigma = math.sqrt(max(p * (1.0 - p), 1e-300) / samples)
    return MeasureEstimate(
        estimate=p * vol,
        bound=3.0 * sigma * vol,
        samples=samples,
        seed=seed,
        box_volume=vol,
    )
