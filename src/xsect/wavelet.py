"""Lattice machinery and multi-wavelet set construction / partitioning.

A set K is a multi-wavelet set of order L for (A, Gamma) iff its
dual-lattice translates cover R^n with multiplicity L while its
A-dilates cover with multiplicity 1.  Such sets are split into order-1
pieces coset by coset (see :func:`partition_multiwavelet_set`); piece 0
of a finite order is the coset selector U(K), the first dual-lattice
translate (in a fixed total order) carrying each residue class into K.
Box-union geometry keeps every set operation exact; analytic geometries
(cones, dilation-shifted slabs) evaluate pointwise with a lattice-local
enumerator bounded by an explicit radius.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields
from functools import cached_property

import numpy as np

from .errors import DimensionTooHigh, NoSection, NoWavelet, SearchExhausted, SelectorMiss, UsageError
from .linalg import DEFAULT_TOL, as_matrix, box_corners, matrix_from_json, matrix_to_json, row_norms
from .sections import CrossSection, PushedSection, _refused, build_discrete_section, power_rows
from .verify import _SCAN_ROWS, K_RANGE, TilingReport, _require_samples, scan_dilations


@dataclass(frozen=True)
class Lattice:
    """Full-rank lattice ``Gamma = {z @ basis : z in Z^n}`` (rows generate).

    The dual lattice is generated by the rows of ``inv(basis).T``; its
    fundamental domain Y is the half-open parallelepiped of the dual
    basis.
    """

    basis: np.ndarray
    _cache: dict = field(default_factory=dict, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "basis", as_matrix(self.basis))
        if abs(np.linalg.det(self.basis)) < 1e-300:
            raise ValueError("lattice basis must be invertible")

    def ordered_dual_points(self, count: int) -> np.ndarray:
        """The first ``count`` dual points in selector order, as an array."""
        return self._dual_table(count=count)[1][:count]

    def dual_points_within(self, radius: float) -> np.ndarray:
        """Dual points of norm <= radius, in selector order."""
        _, pts, norms = self._dual_table(norm=radius)
        return pts[: np.searchsorted(norms, radius, side="right")]

    def _dual_table(self, count=0, norm=-1.0):
        """``(z, points, norms)`` in selector order: at least ``count``
        points and every point of norm <= ``norm``.  One cached table of the
        cube ``|z|_inf <= r``, r doubling as needed; it keeps the sorted
        prefix below ``(r + 1) / ||basis||_2``, under which no point outside
        the cube can fall."""
        table = self._cache.get("dual_table")
        while table is None or len(table[2]) < count or table[3] <= norm:
            r = 1 if table is None else 2 * table[4]
            zs = _integer_grid(np.full(self.n, -r), np.full(self.n, r))
            pts = zs.astype(float) @ self.dual_basis
            norms = np.linalg.norm(pts, axis=1)
            order = np.lexsort(tuple(zs.T[::-1]) + (norms,))
            bound = (r + 1) / np.linalg.norm(self.basis, 2) * (1.0 - 1e-9)
            order = order[: np.searchsorted(norms[order], bound)]
            table = (zs[order], pts[order], norms[order], bound, r)
            self._cache["dual_table"] = table
        return table[:3]

    @property
    def n(self) -> int:
        return self.basis.shape[0]

    @cached_property
    def dual_basis(self) -> np.ndarray:
        return np.linalg.inv(self.basis).T

    def dual_point(self, z) -> np.ndarray:
        return np.asarray(z, dtype=float) @ self.dual_basis

    def wrap(self, xi):
        """Split ``xi = eta + gamma`` with eta in Y and gamma dual."""
        xi = np.asarray(xi, dtype=float)
        u = xi @ np.linalg.inv(self.dual_basis)
        z = np.floor(u)
        eta = (u - z) @ self.dual_basis
        return eta, z.astype(int)

    def domain_corners(self) -> np.ndarray:
        return box_corners(np.zeros(self.n), np.ones(self.n)) @ self.dual_basis

    def dual_points_in_order(self, max_points=None, max_norm=None):
        """Dual lattice points ordered by increasing norm, ties broken
        lexicographically on the integer coordinates."""
        i = 0
        while max_points is None or i < max_points:
            zs, pts, norms = self._dual_table(count=i + 1)
            if max_norm is not None and norms[i] > max_norm:
                return
            yield zs[i], pts[i]
            i += 1

    def to_json(self) -> dict:
        return {"basis": matrix_to_json(self.basis)}

    @staticmethod
    def from_json(obj) -> "Lattice":
        if not isinstance(obj, dict) or "basis" not in obj:
            raise ValueError("lattice JSON must be an object with a 'basis' field")
        return Lattice(matrix_from_json(obj["basis"]))

    @staticmethod
    def integers(n) -> "Lattice":
        return Lattice(np.eye(n))


# ---------------------------------------------------------------------------
# region geometry


class RegionSet:
    """Base protocol: vectorized membership plus a lattice-local enumerator."""

    exact_reach = False  # True when the enumerator is complete (no truncation)

    def membership(self, points):
        raise NotImplementedError

    def candidate_dual_points(self, lattice: Lattice, xis, radius):
        """Dual points gamma with ``xi + gamma`` possibly inside the set, for
        every row ``xi`` of ``xis``.

        Complete within the radius: no false negatives among
        ``||gamma|| <= radius``."""
        return lattice.dual_points_within(radius)


@dataclass(frozen=True)
class BoxUnion(RegionSet):
    """Finite union of pairwise-disjoint half-open boxes [lo, hi)."""

    boxes: tuple  # tuple of (lo, hi) float tuple pairs

    exact_reach = True

    @staticmethod
    def build(boxes) -> "BoxUnion":
        norm = []
        for lo, hi in boxes:
            if np.ndim(lo) > 1 or np.ndim(hi) > 1:
                raise ValueError("box endpoints must be flat lists")
            lo = tuple(float(v) for v in np.atleast_1d(lo))
            hi = tuple(float(v) for v in np.atleast_1d(hi))
            if len(lo) != len(hi):
                raise ValueError("box endpoints disagree in dimension")
            if any(h <= l for l, h in zip(lo, hi)):
                continue  # empty box
            norm.append((lo, hi))
        norm.sort()
        out = BoxUnion(boxes=tuple(norm))
        out._check_disjoint()
        return out

    def _check_disjoint(self):
        for i in range(len(self.boxes)):
            for j in range(i + 1, len(self.boxes)):
                if _boxes_overlap(self.boxes[i], self.boxes[j]):
                    raise ValueError(f"boxes {i} and {j} overlap")

    @property
    def n(self) -> int:
        return len(self.boxes[0][0]) if self.boxes else 0

    def membership(self, points):
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        member = np.zeros(pts.shape[0], dtype=bool)
        if self.boxes and pts.shape[1] != self.n:
            raise ValueError(f"points have {pts.shape[1]} coordinates, the region {self.n}")
        for lo, hi in self.boxes:
            inside = np.ones(pts.shape[0], dtype=bool)
            for j, (l, h) in enumerate(zip(lo, hi)):  # column by column (see xsect.linalg)
                inside &= pts[:, j] >= l
                inside &= pts[:, j] < h
            member |= inside
        return member, np.zeros(pts.shape[0], dtype=bool)

    def measure(self) -> float:
        return float(sum(np.prod(np.asarray(hi) - np.asarray(lo)) for lo, hi in self.boxes))

    def bounding_box(self):
        if not self.boxes:
            return None
        lo = np.min([b[0] for b in self.boxes], axis=0)
        hi = np.max([b[1] for b in self.boxes], axis=0)
        return lo, hi

    def candidate_dual_points(self, lattice: Lattice, xis, radius=None):
        """Exact: the integer grid, in dual coordinates, covering every box
        minus every row of ``xis``."""
        if not self.boxes:
            return np.zeros((0, lattice.n))
        key = ("box_frame", self.boxes)
        if key not in lattice._cache:  # once per (boxes, lattice), not per chunk of rows
            dual = lattice.dual_basis
            dinv = np.linalg.inv(dual)
            corners = np.vstack([box_corners(lo, hi) for lo, hi in self.boxes]) @ dinv
            lattice._cache[key] = (dual, dinv, corners.min(axis=0), corners.max(axis=0))
        dual, dinv, cmin, cmax = lattice._cache[key]
        rows = np.atleast_2d(xis) @ dinv
        zlo = np.floor(cmin - rows.max(axis=0)).astype(int)
        zhi = np.ceil(cmax - rows.min(axis=0)).astype(int)
        return _integer_grid(zlo, zhi).astype(float) @ dual

    def translate(self, offset) -> "BoxUnion":
        off = np.asarray(offset, dtype=float)
        return BoxUnion.build([(np.asarray(lo) + off, np.asarray(hi) + off) for lo, hi in self.boxes])

    def intersect(self, other: "BoxUnion") -> "BoxUnion":
        out = []
        for a in self.boxes:
            for b in other.boxes:
                piece = _box_intersect(a, b)
                if piece is not None:
                    out.append(piece)
        return BoxUnion.build(out)

    def difference(self, other: "BoxUnion") -> "BoxUnion":
        pieces = list(self.boxes)
        for b in other.boxes:
            nxt = []
            for a in pieces:
                nxt.extend(_box_subtract(a, b))
            pieces = nxt
        return BoxUnion.build(pieces)

    def union_disjoint(self, other: "BoxUnion") -> "BoxUnion":
        return BoxUnion.build(list(self.boxes) + list(other.difference(self).boxes))

    def is_empty(self) -> bool:
        return not self.boxes

    def to_json(self) -> dict:
        return {
            "kind": "boxes",
            "boxes": [{"lo": list(lo), "hi": list(hi)} for lo, hi in self.boxes],
        }


def _boxes_overlap(a, b):
    return all(al < bh and bl < ah for al, ah, bl, bh in zip(a[0], a[1], b[0], b[1]))


def _box_intersect(a, b):
    lo = tuple(max(al, bl) for al, bl in zip(a[0], b[0]))
    hi = tuple(min(ah, bh) for ah, bh in zip(a[1], b[1]))
    if any(h <= l for l, h in zip(lo, hi)):
        return None
    return (lo, hi)


def _box_subtract(a, b):
    """a minus b as a list of disjoint half-open boxes."""
    if _box_intersect(a, b) is None:
        return [a]
    out = []
    lo = list(a[0])
    hi = list(a[1])
    core_lo = [max(al, bl) for al, bl in zip(a[0], b[0])]
    core_hi = [min(ah, bh) for ah, bh in zip(a[1], b[1])]
    for d in range(len(lo)):
        if lo[d] < core_lo[d]:
            piece_lo, piece_hi = list(lo), list(hi)
            piece_hi[d] = core_lo[d]
            out.append((tuple(piece_lo), tuple(piece_hi)))
            lo[d] = core_lo[d]
        if core_hi[d] < hi[d]:
            piece_lo, piece_hi = list(lo), list(hi)
            piece_lo[d] = core_hi[d]
            out.append((tuple(piece_lo), tuple(piece_hi)))
            hi[d] = core_hi[d]
    return out


def _integer_grid(zlo, zhi):
    """Integer vectors with ``zlo <= z <= zhi``, as rows in lexicographic order."""
    axes = [np.arange(lo, hi + 1) for lo, hi in zip(zlo, zhi)]
    return np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, len(axes))


@dataclass(frozen=True)
class PredicateRegion(RegionSet):
    """Analytic region given by a vectorized membership closure."""

    fn: object
    name: str = "analytic"

    def membership(self, points):
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        return np.asarray(self.fn(pts), dtype=bool), np.zeros(pts.shape[0], dtype=bool)

    def to_json(self) -> dict:
        return {"kind": "analytic", "name": self.name}


# ---------------------------------------------------------------------------
# counting


@dataclass(frozen=True)
class TranslationCount:
    value: int
    truncated: bool

    def __eq__(self, other):
        if isinstance(other, TranslationCount):
            return (self.value, self.truncated) == (other.value, other.truncated)
        return not self.truncated and self.value == other


def translation_count(region: RegionSet, lattice: Lattice, xi, radius=100.0) -> TranslationCount:
    """``#{gamma in dual : xi + gamma in region}``.

    Exact for box unions (their enumerator is complete); for analytic
    regions the count is over dual points within the radius and flagged
    truncated."""
    return TranslationCount(int(translation_counts(region, lattice, xi, radius)[0]), not region.exact_reach)


# rows per candidate set of translation_counts: a box union's grid covers
# the boxes minus the whole chunk, so a wide chunk probes a wide grid
_CHUNK = 64


def translation_counts(region: RegionSet, lattice: Lattice, xis, radius=100.0) -> np.ndarray:
    """:func:`translation_count` of every row of ``xis``.  Each chunk of
    ``_CHUNK`` rows is probed over the candidates of the whole chunk, and
    a membership call takes the probes of consecutive chunks until they are
    at least ``_SCAN_ROWS``."""
    xis = np.atleast_2d(np.asarray(xis, dtype=float))
    if not np.isfinite(xis).all():
        raise ValueError("points must be finite")
    out = np.empty(len(xis), dtype=int)
    first, probes, held = 0, [], 0
    for start in range(0, len(xis), _CHUNK):
        part = xis[start : start + _CHUNK]
        cands = region.candidate_dual_points(lattice, part, radius)
        probes.append((part[:, None, :] + cands[None, :, :]).reshape(-1, xis.shape[1]))
        held += len(probes[-1])
        if held >= _SCAN_ROWS or start + _CHUNK >= len(xis):
            member, exc = region.membership(np.concatenate(probes))
            hit, at = member & ~exc, 0
            for probe in probes:  # chunk by chunk, as rows x candidates
                rows = min(_CHUNK, len(xis) - first)
                out[first : first + rows] = hit[at : at + len(probe)].reshape(rows, -1).sum(axis=1)
                first, at = first + rows, at + len(probe)
            probes, held = [], 0
    return out


def dilation_count(region: RegionSet, a, xi) -> int:
    """``#{j : xi A^j in region}``, by :func:`xsect.verify.scan_dilations`
    of the one row ``xi``: over the whole orbit for a region that solves
    under ``a``, else over the base window ``K_RANGE``."""
    return int(scan_dilations(region, as_matrix(a), xi)[0][0])


def dimension_function(region: RegionSet, xi, radius=100.0) -> TranslationCount:
    """Integer-lattice translation count ``#{k in Z^n : xi + k in region}``."""
    xi = np.atleast_1d(np.asarray(xi, dtype=float))
    return translation_count(region, Lattice.integers(len(xi)), xi, radius=radius)


# translation count that passes for infinite multiplicity in a sampled check
_MIN_COUNT = 10
# the sampled check's dual-point search radius
_SEARCH_RADIUS = 100.0


def is_multiwavelet_set(region: RegionSet, a, lattice: Lattice, order, *, samples=1000, seed=0):
    """Sampled test of the order-L characterization: translation counts
    all equal L (or >= ``_MIN_COUNT`` when L is infinite) and dilation
    counts all equal 1, counted by :func:`xsect.verify.scan_dilations`
    (which also counts the rows it refuses to solve).  Fewer than one
    sample raises :class:`UsageError`."""
    _require_samples(samples)
    a = as_matrix(a)
    rng = np.random.default_rng(seed)
    pts = rng.normal(size=(samples, a.shape[0]))
    tcs = translation_counts(region, lattice, pts, radius=_SEARCH_RADIUS)
    dcs, _, _ = scan_dilations(region, a, pts)
    ok_t = (tcs >= _MIN_COUNT) if order == math.inf else (tcs == order) & region.exact_reach
    bad = np.flatnonzero(~(ok_t & (dcs == 1)))
    failures = [
        {"point": [float(v) for v in pts[i]], "translation": int(tcs[i]), "dilation": int(dcs[i])}
        for i in bad[:20]
    ]
    return TilingReport(
        kind="multiwavelet",
        samples=samples,
        seed=seed,
        passed=not failures,
        histogram=_pair_histogram(tcs, dcs),
        failures=failures,
        scan={"k_lo": K_RANGE[0], "k_hi": K_RANGE[1], "radius": _SEARCH_RADIUS,
              "order": "inf" if order == math.inf else int(order)},
    )


def _pair_histogram(tcs, dcs):
    """``{"t{t}_d{d}": count}`` of the pairs of translation and dilation counts,
    in increasing ``(t, d)`` order: one integer key ``t * (max d + 1) + d`` per
    sample, counted by a 1-D :func:`numpy.unique`."""
    width = int(dcs.max()) + 1
    keys, freq = np.unique(tcs * width + dcs, return_counts=True)
    return {f"t{k // width}_d{k % width}": int(c) for k, c in zip(keys, freq)}


# ---------------------------------------------------------------------------
# saturation and the coset selector


@dataclass(frozen=True)
class SaturatedRegion(RegionSet):
    """``M^t = union of (M + gamma)`` over the dual lattice."""

    base: RegionSet
    lattice: Lattice
    radius: float = 100.0

    def membership(self, points):
        member = translation_counts(self.base, self.lattice, points, self.radius) > 0
        return member, np.zeros(len(member), dtype=bool)


def saturate(region: RegionSet, lattice: Lattice, radius=100.0) -> RegionSet:
    return SaturatedRegion(base=region, lattice=lattice, radius=radius)


def coset_selector_U(region: RegionSet, lattice: Lattice, *, search_points=4000) -> RegionSet:
    """The selector U(K): keep, in each dual-coset, the first point of K in
    the fixed dual order (increasing norm, lexicographic ties).

    Exact box-union geometry when K is a box union and Y a box;
    otherwise a pointwise selector with a bounded search."""
    d = lattice.dual_basis
    # Y is a box when the dual basis is diagonal with a positive diagonal
    if isinstance(region, BoxUnion) and np.allclose(d, np.diag(np.diag(d))) and np.all(np.diag(d) > 0):
        return _selector_boxes(region, lattice)
    return _SelectorRegion(base=region, lattice=lattice, search_points=search_points)


def _selector_boxes(region: BoxUnion, lattice: Lattice) -> BoxUnion:
    n = lattice.n
    y = BoxUnion.build([(np.zeros(n), np.diag(lattice.dual_basis))])
    covered = BoxUnion.build([])
    selected = []
    bbox = region.bounding_box()
    if bbox is None:
        raise SelectorMiss("selector of an empty region", radius=0.0)
    reach = float(np.max(np.abs(np.concatenate(bbox)))) + float(np.max(np.diag(lattice.dual_basis))) + 1.0
    for z, g in lattice.dual_points_in_order(max_norm=reach):
        pulled = region.translate(-g).intersect(y)
        fresh = pulled.difference(covered)
        if not fresh.is_empty():
            selected.append(fresh.translate(g))
            covered = covered.union_disjoint(fresh)
        if covered.measure() >= y.measure() - 1e-12:
            break
    else:
        raise SelectorMiss(
            f"selector did not cover the fundamental domain within radius {reach}",
            radius=reach,
        )
    # pieces of distinct cosets of Y, so pairwise disjoint
    return BoxUnion.build([box for piece in selected for box in piece.boxes])


@dataclass(frozen=True)
class _CosetPiece(RegionSet):
    """One of the first ``index + 1`` points of ``base`` in each dual coset (the subclass says which)."""

    base: RegionSet
    lattice: Lattice
    search_points: int
    index: int = 0

    def candidate_dual_points(self, lattice, xis, radius):
        return self.base.candidate_dual_points(lattice, xis, radius)  # a piece lies inside its base

    def _membership(self, points, walk):
        """Points of ``base`` whose dual offset is hit ``index`` of their
        coset, or with ``walk`` the hit :func:`_coset_walk` gives the piece."""
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        member = np.zeros(pts.shape[0], dtype=bool)
        base_m, base_exc = self.base.membership(pts)
        active = np.flatnonzero(base_m & ~base_exc)
        if active.size:
            etas, z = self.lattice.wrap(pts[active])
            # the point is a hit and, while untaken, each piece takes a hit no
            # later than it, so the search stops at the point's norm; a point
            # beyond the search is never taken, so there the hits must be found
            norms = self.lattice._dual_table(count=self.search_points)[2][: self.search_points]
            own_norm = np.linalg.norm(z @ self.lattice.dual_basis, axis=1)
            limits = np.maximum(np.searchsorted(norms, own_norm * (1 + 1e-9), side="right"), self.index + 1)
            hits = _first_hits(self.base, self.lattice, etas, self.index + 1, limits,
                               must=own_norm > norms[-1] * (1 + 1e-9))
            taken = (_coset_walk(hits) if walk else hits)[:, -1]
            zs = self.lattice._dual_table(count=int(taken.max(initial=0)) + 1)[0]
            member[active] = (taken >= 0) & (zs[taken] == z).all(axis=1)
        return member, np.zeros(pts.shape[0], dtype=bool)


@dataclass(frozen=True)
class _SelectorRegion(_CosetPiece):
    """Piece ``index`` of a pointwise finite-order partition: the (index + 1)-th
    point of ``base`` in each dual coset.  Piece 0 is the selector U(base)."""

    def membership(self, points):
        return self._membership(points, walk=False)

    def to_json(self) -> dict:
        # piece i is U(K minus pieces 0..i-1): a later piece names that difference as its base
        return {"kind": "selector", "lattice": self.lattice.to_json(), "search_points": self.search_points,
                "base": self.base.to_json() if self.index == 0 else {"kind": "analytic", "name": "difference"}}


def _first_hits(region, lattice, etas, count, limits, must):
    """Selector-order indices of the first ``count`` dual points hitting the
    region from each row of ``etas`` (-1 where fewer lie among the row's
    first ``limits`` candidates); rows share candidate blocks, and a row in
    ``must`` with fewer hits raises :class:`SelectorMiss`."""
    hits = np.full((etas.shape[0], count), -1)
    found = np.zeros(etas.shape[0], dtype=int)
    unresolved = np.flatnonzero(limits > 0)
    cands = lattice.ordered_dual_points(int(limits.max(initial=0)))
    # geometrically growing blocks: most rows resolve among the first few
    # candidates, so the wide (expensive) probes see few unresolved rows
    start, block_size = 0, 8
    while unresolved.size:
        block = cands[start : start + min(block_size, int(limits[unresolved].max()) - start)]
        probe = (etas[unresolved][:, None, :] + block[None, :, :]).reshape(-1, etas.shape[1])
        member, exc = region.membership(probe)
        rows, cols = np.nonzero((member & ~exc).reshape(len(unresolved), len(block)))
        # rows come sorted, so a hit's rank in its row is its distance from
        # the row's first hit, after the hits of earlier blocks
        rank = found[unresolved[rows]] + np.arange(len(rows)) - np.searchsorted(rows, rows)
        keep = rank < count
        hits[unresolved[rows[keep]], rank[keep]] = start + cols[keep]
        found[unresolved] += np.bincount(rows, minlength=len(unresolved))
        start += len(block)
        block_size = min(4 * block_size, 4096)
        unresolved = unresolved[(found[unresolved] < count) & (limits[unresolved] > start)]
    missed = np.flatnonzero(must & (hits[:, -1] < 0))
    if missed.size:
        raise SelectorMiss(f"no dual translate within {int(limits.max())} candidates hits the region",
                           point=[float(v) for v in etas[missed[0]]], radius=float(limits.max()))
    return hits


# ---------------------------------------------------------------------------
# partitioning


def partition_multiwavelet_set(region: RegionSet, lattice: Lattice, order, *,
                               pieces=None, search_points=4000):
    """Split a multi-wavelet set of order L into order-1 pieces.

    Finite L: piece i takes, in each dual coset ``eta + Gamma*``, the
    (i+1)-th point of the set in selector order (piece 0 is U(K)).
    Infinite L: ``pieces`` many pieces; piece i takes ``eta + gamma_i`` if
    it is in the set and no earlier piece took it, else the first point of
    the set that no earlier piece took; so the set's first i + 1 points
    there decide it.
    """
    if order == math.inf:
        if pieces is None:
            raise ValueError("pieces= is required for infinite order")
        if isinstance(region, BoxUnion):
            # where Y is a box, the exact selector refuses a box set whose
            # dual translates leave part of Y uncovered
            coset_selector_U(region, lattice, search_points=search_points)
        return [_InfinitePiece(region, lattice, search_points, i) for i in range(pieces)]
    out, residual = [], region
    for _ in range(int(order)):
        u = coset_selector_U(residual, lattice, search_points=search_points)
        if not isinstance(u, BoxUnion):  # pointwise: every piece reads the set itself
            return [_SelectorRegion(region, lattice, search_points, i) for i in range(int(order))]
        out.append(u)
        residual = residual.difference(u)
    return out


@dataclass(frozen=True)
class _InfinitePiece(_CosetPiece):
    """Piece ``index`` of the order-infinity partition (rule in :func:`partition_multiwavelet_set`)."""

    def membership(self, points):
        return self._membership(points, walk=True)

    def to_json(self) -> dict:
        # the seed translate united with the selector part
        return {"kind": "analytic", "name": "union"}


# perfbench/spans.py traces region membership under this name
_DomainPieceSaturation = _InfinitePiece


def _coset_walk(hits):
    """The hit each piece j takes from each row of first hits (candidate j
    is ``gamma_j``): j if it is a hit not yet taken, else the first hit
    not yet taken, else none (-1)."""
    rows = np.arange(hits.shape[0])
    taken = np.full(hits.shape, -1)
    for j in range(hits.shape[1]):
        free = (hits >= 0) & ~(hits[:, :, None] == taken[:, None, :j]).any(axis=2)
        first = np.where(free.any(axis=1), hits[rows, np.argmax(free, axis=1)], -1)
        taken[:, j] = np.where((free & (hits == j)).any(axis=1), j, first)
    return taken


# ---------------------------------------------------------------------------
# order-infinity wavelet sets

# cells of radial phase in a set's slab table: a power of two, so v * _CELLS is exact
_CELLS = 4096


@dataclass(frozen=True)
class DilationShiftedSection(PushedSection, RegionSet):
    """``union_i S_i A^{k_i}`` over ALL dyadic radial slices of the section of
    ``A`` below the cut of :attr:`_phase_edges`, each pushed outward (``k_i >
    0`` where the witness expands, ``< 0`` where it contracts) far enough to
    swallow a dual-domain translate.  Each slab's push is found, lazily, with
    its certificate, the dual point of that translate (:func:`_fits`); the
    first ``pieces`` slabs are certified when the set is built."""

    base: object  # CrossSection of the matrix the set was built from
    lattice: Lattice
    pieces: int
    # slab index -> (power of A, certified dual point)
    _slabs: dict = field(default_factory=dict, repr=False)

    # in the class body: perfbench's tracer wraps this name of this class
    membership = PushedSection.membership

    def shift(self, i: int) -> int:
        i = int(i)
        if i not in self._slabs:
            self._slabs[i] = _slab_shift(self.base, self.lattice, i, self._phase_edges)
        return self._slabs[i][0]

    def certificate(self, i: int):
        """(power of ``A``, dual point) with ``Y + gamma`` inside piece i."""
        i = int(i)
        if i not in self._slabs:
            self.shift(i)
        k, gamma = self._slabs[i]
        return k, tuple(float(v) for v in gamma)

    @property
    def certificates(self):
        return tuple((i,) + tuple(self.certificate(i)) for i in range(1, self.pieces + 1))

    def piece_of(self, coords, rho):
        """Dyadic slab of each base representative (Jordan coordinates, witness
        radius ``rho``): that of its radial phase, 0 outside [0, 1)."""
        base = self.base
        wrap = base.kind.phases(base, coords[:, base.block.offset :], rho)[2]
        return self._slab_and_edge(np.where((wrap >= 0.0) & (wrap <= 1.0), wrap, 1.0))[0]

    def jordan_membership(self, coords):
        """:meth:`PushedSection.jordan_membership` from one reading of the base's
        gauge (``phases``), with no representative formed: the tile index is the
        base's, and the slab is that of the representative's radial phase in
        :attr:`_phase_edges`.  A row near an edge, where the representative's
        own rounding decides, is read by the parent's path, which forms it:
        its tile phase within ``tol`` of 0 or 1, or its radial phase within
        ``8 tol`` of a slab edge or past the last slab.  Any other row is
        refused only where the base's own membership refuses it."""
        base = self.base
        coords, refused, _, rho = _refused(base, coords)
        u, s, wrap = base.kind.phases(base, coords[:, base.block.offset :], rho)
        whole = np.floor(u)
        slab, edge = self._slab_and_edge(wrap - np.floor(wrap))
        edge |= np.abs(u - whole - 0.5) > 0.5 - base.tol
        edge &= ~refused
        slab[refused | edge] = 0
        member = (whole == s * self._row_shifts(slab)) & (slab > 0)
        rows = np.flatnonzero(edge)
        if rows.size:
            member[rows], refused[rows] = PushedSection.jordan_membership(self, coords[rows])
        return member, refused

    def _row_shifts(self, pieces):
        """Each row's shift from :attr:`_shift_table`, where 0 marks a slab not
        yet asked (any slab's shift is nonzero; slab 0 reads 0): ``shift`` is
        asked once per slab over the set's life, not on every call."""
        shifts = self._shift_table[pieces]
        unset = pieces[shifts == 0]
        if unset.any():
            for i in np.unique(unset[unset > 0]):
                self._shift_table[i] = self.shift(i)
            shifts = self._shift_table[pieces]
        return shifts

    @cached_property
    def _shift_table(self):
        """The shift of each slab of :attr:`_phase_edges`: a cache, like ``_slabs``."""
        return np.zeros(len(self._phase_edges), dtype=np.int64)

    @cached_property
    def _phase_edges(self):
        """The slab edges in radial phase (``wrap`` of the base's ``phases``),
        ``log(lo) / log_span`` of each slab's lower radial edge ``lo``
        (:func:`_slab_bounds`): slab ``i`` is ``[edges[i - 1], edges[i])``, up
        to the cut ``log(Lam (1 - tol)) / log_span``, where the slabs grow too
        thin to place a point at the working tolerance, and then ``inf``."""
        base = self.base
        span = base.params["log_span"]
        cut = math.exp(span) * (1.0 - base.tol)
        lows, i = [], 1
        while (lo := _slab_bounds(base, i)[0]) < cut:
            lows.append(lo)
            i += 1
        return np.append(np.log(lows + [cut]) / span, np.inf)

    @cached_property
    def _phase_cells(self):
        """Slab ``i`` for each cell ``[c, c + 1] / _CELLS`` of radial phase that
        lies whole in slab ``i`` of :attr:`_phase_edges`, with the edge band
        ``8 tol`` and a few ulps to spare at both ends; 0 for any other cell,
        past the cut, and for the extra cell of a phase of 1."""
        edges, band = self._phase_edges, 8.0 * self.base.tol + 4.0 * np.finfo(float).eps
        ends = np.arange(_CELLS + 2) / _CELLS
        slab = np.searchsorted(edges, ends[:-1], side="right")
        inside = (slab < len(edges) - 1) & (ends[:-1] - edges[slab - 1] >= band) & (edges[slab] - ends[1:] >= band)
        return np.where(inside, slab, 0)

    def _slab_and_edge(self, v):
        """``(slab, near_edge)`` of radial phases ``v`` in [0, 1]: the slab of
        :attr:`_phase_edges` holding each (0 below the first edge or past the
        cut), and whether it is 0 or within ``8 tol`` of an edge.  Each row
        reads its cell of :attr:`_phase_cells`; only a cell's 0 is searched."""
        slab = self._phase_cells[(v * _CELLS).astype(np.intp)]
        near = slab == 0
        rows = np.flatnonzero(near)
        edges, w, band = self._phase_edges, v[rows], 8.0 * self.base.tol
        found = np.searchsorted(edges, w, side="right")
        found[found >= len(edges) - 1] = 0
        slab[rows] = found
        near[rows] = (found == 0) | (w - edges[found - 1] < band) | (edges[found] - w < band)
        return slab, near

    def piece_boxes_1d(self, i: int):
        """For the scalar case: the pushed slab ±[lo, hi) * growth^|k| of
        :func:`_slab_bounds`, whose last slab below the cut stops at it."""
        return _slab_bounds(self.base, i, abs(self.shift(i)))

    def to_json(self) -> dict:
        return {
            "kind": "dilation_shifted_section",
            "pieces": self.pieces,
            "certificates": [
                {"piece": int(i), "power": int(k), "dual_point": list(g)}
                for i, k, g in self.certificates
            ],
        }


def _slab_bounds(section, i, k=0):
    """Radial range [lo, hi) of dyadic slab i, pushed ``k`` steps outward; the
    last slab below the cut ``Lam (1 - tol)`` of the phase table stops at it."""
    lam_big = math.exp(section.params["log_span"])
    lo = lam_big - (lam_big - 1.0) * 2.0 ** (1 - i)
    hi = min(lam_big - (lam_big - 1.0) * 2.0 ** (-i), lam_big * (1.0 - section.tol))
    g = section.kind.slab_growth(section.params) ** k
    return lo * g, hi * g


# the power up to which a slab's push is searched (at least k_min) before the search gives up
_MAX_POWER = 200


def _slab_shift(section, lattice, i, edges):
    """The first push of slab i, from ``k_min`` outward steps on, over a whole
    dual-domain translate, as a power of ``A`` (``-k`` where the witness
    contracts), and that translate's dual point (:func:`_dual_point_in_slab`).
    From ``k_min`` on the pushed slab is at least twice the domain diameter (in
    Jordan coordinates) wide, so for a real witness the tile of its midpoint
    fits at ``k_min``; a spiral may need more pushes.  ``edges`` is the set's
    phase table; a slab past its cut raises :class:`UsageError`."""
    slabs = len(edges) - 2
    if not 1 <= i <= slabs:
        raise UsageError(f"slab {i} does not exist: the set has {slabs} slabs below its cut Lambda (1 - tol)")
    lo, hi = _slab_bounds(section, i)
    corners = section.jordan.to_jordan(lattice.domain_corners())
    diam = float(np.linalg.norm(corners[:, None] - corners[None], axis=-1).max())
    growth = section.kind.slab_growth(section.params)
    k_min = max(1, math.ceil(math.log(2.0 * diam / (hi - lo)) / math.log(growth)))
    sign = 1 if section.params["expanding"] else -1
    for k in range(int(k_min), max(int(k_min), _MAX_POWER) + 1):
        gamma = _dual_point_in_slab(section, lattice, i, sign * k, corners, edges)
        if gamma is not None:
            return sign * k, gamma
    raise SearchExhausted(f"no admissible push for slab {i} within {_MAX_POWER} powers", radius=_MAX_POWER)


def build_order_infinity_set(a, lattice: Lattice, *, pieces=8, tol=DEFAULT_TOL, search_radius=100.0) -> RegionSet:
    """A set whose dilates tile once and whose dual translates cover with
    infinite multiplicity (certified for finitely many translates).

    With an eigenvalue off the unit circle, dyadic radial slices of the
    cross-section of ``A`` are pushed outward, by powers of ``A`` of the
    sign of the witness's ``log |lambda|``, until each provably contains a
    dual-domain translate (the certificate, read by :func:`_fits` in the
    phase table that membership reads).  The slabs stop at that table's cut:
    ``pieces`` past their count raises :class:`UsageError`.  With all
    moduli on the unit circle the nilpotent cone section itself works:
    far enough out along an interior ray, whole dual-domain translates
    fit inside it, by the same test at tile 0.
    """
    a = as_matrix(a)
    if a.shape[0] != lattice.n:
        raise UsageError("matrix and lattice dimensions disagree")
    if a.shape[0] > 3:
        raise DimensionTooHigh("the lattice search is supported for n <= 3")
    try:
        section = build_discrete_section(a, tol=tol)
    except NoSection:
        raise NoWavelet("matrix is similar to a unitary matrix") from None
    if section.kind.cone:
        return _certify_cone(section, lattice, min_translates=pieces, search_radius=search_radius)
    if not section.kind.sliceable:
        raise NoWavelet("unit-modulus case needs a real nilpotent block in dimension <= 3")
    out = DilationShiftedSection(base=section, lattice=lattice, pieces=pieces)
    out.certificates  # search the first pieces' pushes now
    return out


def _fits(section, rows, shift, lo, hi):
    """Whether the convex hull of each stack ``rows[j]`` of Jordan coordinates,
    brought back by ``J^-shift`` as the set's representatives are, lies in
    tile 0 of the section with its radial phase in ``[lo, hi)``, by the case's
    ``phase_bounds``: the reading that membership makes.  ``J^-shift`` is
    linear, so it brings the hull back onto the hull of the rows brought back."""
    back = power_rows(section, rows.reshape(-1, section.n), np.full(rows.shape[0] * rows.shape[1], -float(shift)))
    u_lo, u_hi, wrap_lo, wrap_hi = section.kind.phase_bounds(section, back.reshape(rows.shape)[..., section.block.offset :])
    return (0.0 <= u_lo) & (u_hi < 1.0) & (lo <= wrap_lo) & (wrap_hi < hi)


def _dual_point_in_slab(section, lattice, i, shift, corners, edges):
    """A dual point whose whole domain translate (``corners``: the domain's
    corners in Jordan coordinates) lies in slab i pushed by ``J^shift``
    (:func:`_fits` in the phase table ``edges``), or None.  The candidates are
    the 5^n dual points within two integer steps of the translate holding
    each centre of the pushed slab: its midpoint on ``x1`` and the mirror
    image for a real witness, its midpoint in log-radial index and angle for
    a spiral.  The least in (norm, coordinates) of those that fit is kept."""
    off, pinned = section.block.offset, section.kind.pinned
    lo, hi = _slab_bounds(section, i)
    if pinned == 1:
        lead = np.array([[0.5 * (lo + hi)], [-0.5 * (lo + hi)]])
    else:
        mu, omega = section.params["mu"], section.params["omega"]
        r = math.sqrt(lo * hi) * math.exp(0.5 * mu)
        lead = np.array([[r * math.cos(0.5 * omega), r * math.sin(0.5 * omega)]])
    centres = np.zeros((len(lead), section.n))
    centres[:, off : off + pinned] = lead
    centres = power_rows(section, centres, np.full(len(lead), float(shift)))
    centres[:, off + pinned : off + section.block.size] = 0.0  # a chain's higher cells
    _, z = lattice.wrap(section.jordan.from_jordan(centres))
    steps = _integer_grid(np.full(lattice.n, -2), np.full(lattice.n, 2))
    gammas = (z[:, None, :] + steps[None]).reshape(-1, lattice.n).astype(float) @ lattice.dual_basis
    fit = gammas[_fits(section, corners + section.jordan.to_jordan(gammas)[:, None], shift, edges[i - 1], edges[i])]
    return fit[np.lexsort(tuple(fit.T[::-1]) + (row_norms(fit),))[0]] if len(fit) else None


@dataclass(frozen=True)
class ConeSection(CrossSection, RegionSet):
    """The nilpotent cone cross-section, certified to contain dual-domain
    translates (so its translation multiplicity is infinite); the checks
    count it in its Jordan form, probing each sample only around the hit
    its ``solve`` gives, like any section."""

    certificates: tuple = ()

    # in the class body: perfbench's tracer wraps this name of this class
    membership = CrossSection.membership

    def to_json(self) -> dict:
        return {
            "kind": "cone_section",
            "certificates": [[float(v) for v in g] for g in self.certificates],
        }


def _certify_cone(section, lattice, *, min_translates, search_radius):
    """The cone section certified by the first ``min_translates`` dual points
    in selector order, read in blocks of 64 growing four-fold within
    ``search_radius``, whose domain translate lies in tile 0 (:func:`_fits`)."""
    corners = section.jordan.to_jordan(lattice.domain_corners())  # the cone is a set of Jordan coordinates
    found, start, size = [], 0, 64
    while len(found) < min_translates:
        block = lattice.ordered_dual_points(start + size)[start:]
        inside = block[row_norms(block) <= search_radius]
        found.extend(inside[_fits(section, corners + section.jordan.to_jordan(inside)[:, None], 0, 0.0, 1.0)])
        if len(inside) < len(block):
            break
        start, size = start + size, 4 * size
    if len(found) >= min_translates:
        fixed = {f.name: getattr(section, f.name) for f in fields(CrossSection)}
        return ConeSection(**fixed, certificates=tuple(tuple(v) for v in found[:min_translates]))
    raise SearchExhausted(
        f"only {len(found)} dual translates certified within radius {search_radius}",
        radius=search_radius,
        certificate=found,
    )
