"""The dilation and translation counters stack the rows of consecutive
powers and chunks, or the probes of per-row windows, into membership calls
of ``_SCAN_ROWS`` rows or more.  Membership is row-wise, so they count what
one call per power or per chunk counted; the per-power and per-chunk loops
are kept here as references."""

import math

import numpy as np
import pytest

import xsect.wavelet as wavelet
from xsect.errors import Overflow
from xsect.linalg import box_corners, integer_power
from xsect.sections import build_continuous_section, build_discrete_section, derive_discrete_section, power_rows
from xsect.shaping import to_bounded, to_finite_measure
from xsect.verify import _SCAN_ROWS, K_RANGE, _frame, _window_counts, _window_powers, dilation_counts
from xsect.wavelet import (BoxUnion, Lattice, build_order_infinity_set, dilation_count,
                           _integer_grid, partition_multiwavelet_set, saturate, translation_counts)

from conftest import SHEAR, SPIRAL, random_conjugate

Z1, Z2 = Lattice.integers(1), Lattice.integers(2)
TWO = np.array([[2.0]])
# the regions of the wavelet benchmark: the Shannon set, the doubled set and
# the annulus [-1,1)^2 minus [-1/2,1/2)^2
SHANNON = BoxUnion.build([((-1.0,), (-0.5,)), ((0.5,), (1.0,))])
DOUBLED = BoxUnion.build([((-2.0,), (-1.0,)), ((1.0,), (2.0,))])
ANNULUS = BoxUnion.build([((-1.0, -1.0), (-0.5, 1.0)), ((-0.5, -1.0), (0.5, -0.5)),
                          ((-0.5, 0.5), (0.5, 1.0)), ((0.5, -1.0), (1.0, 1.0))])


def _regions():
    """name -> (region, matrix, lattice)."""
    out = {"shannon": (SHANNON, TWO, Z1), "doubled": (DOUBLED, TWO, Z1), "annulus": (ANNULUS, 2.0 * np.eye(2), Z2)}
    for i, piece in enumerate(partition_multiwavelet_set(ANNULUS, Z2, 3)):
        out[f"annulus_piece{i}"] = (piece, 2.0 * np.eye(2), Z2)
    out["dyadic"] = (build_order_infinity_set(TWO, Z1, pieces=8), TWO, Z1)
    return out


REGIONS = _regions()
ROWS = (1, 7, 500, 8192, 20_000)


def _points(region, rows, seed=3):
    return np.random.default_rng(seed).normal(size=(rows, region.n))


def _per_power_counts(region, a, pts):
    """The base window with one membership call per power."""
    counts = np.zeros(len(pts), dtype=int)
    for power in _window_powers(a):
        member, exc = region.membership(pts @ power)
        counts += member & ~exc
    return counts


def _per_power_window_counts(region, coords, lo, hi):
    """:func:`_window_counts` with one membership call per power, over the
    rows whose window holds it."""
    counts = np.zeros(len(coords), dtype=int)
    for k in range(int(lo.min()), int(hi.max()) + 1):
        rows = np.flatnonzero((lo <= k) & (k <= hi))
        if len(rows):
            member, exc = region.jordan_membership(power_rows(_frame(region), coords[rows], np.full(len(rows), k)))
            counts[rows] += member & ~exc
    return counts


def _per_chunk_translation_counts(region, lattice, xis, radius):
    """:func:`translation_counts` with one membership call per chunk of rows."""
    out = np.empty(len(xis), dtype=int)
    for start in range(0, len(xis), wavelet._CHUNK):
        part = xis[start : start + wavelet._CHUNK]
        cands = region.candidate_dual_points(lattice, part, radius)
        probe = (part[:, None, :] + cands[None, :, :]).reshape(-1, xis.shape[1])
        member, exc = region.membership(probe)
        out[start : start + wavelet._CHUNK] = (member & ~exc).reshape(len(part), len(cands)).sum(axis=1)
    return out


@pytest.mark.parametrize("rows", ROWS)
@pytest.mark.parametrize("name", list(REGIONS))
def test_base_window_equals_the_per_power_scan(name, rows):
    region, a, _ = REGIONS[name]
    pts = _points(region, rows)
    got = dilation_counts(region, a, pts)
    assert got.tolist() == _per_power_counts(region, a, pts).tolist()


# the sets the tiling scan probes in Jordan coordinates, one per kind of frame and action
JORDAN_REGIONS = {
    "dyadic": REGIONS["dyadic"][0],
    "dilation_shifted_spiral": build_order_infinity_set(SPIRAL, Z2, pieces=4),
    "shaped_finite": to_finite_measure(build_discrete_section(np.array([[1.2, -0.5], [0.5, 1.2]]))),
    "shaped_bounded": to_bounded(build_discrete_section(np.array([[1.2, -0.5], [0.5, 1.2]]))),
    "cone": build_order_infinity_set(SHEAR, Z2, pieces=4),
    "discrete_section": build_discrete_section(np.array([[2.0, 1.0], [0.0, 2.0]])),
    "derived_spiral": derive_discrete_section(build_continuous_section([[1.0, 2 * math.pi], [-2 * math.pi, 1.0]])),
}


@pytest.mark.parametrize("rows", ROWS)
@pytest.mark.parametrize("name", list(JORDAN_REGIONS))
def test_per_row_windows_equal_a_call_per_power(name, rows):
    region = JORDAN_REGIONS[name]
    pts = _points(region, rows)
    coords = _frame(region)._coords(pts)
    centres = np.random.default_rng(4).integers(-90, 90, size=rows)
    got = _window_counts(region, coords, centres - 8, centres + 8)
    assert got.tolist() == _per_power_window_counts(region, coords, centres - 8, centres + 8).tolist()
    # the bracket of the tiling scan: one power on each side of a hit
    lo = np.random.default_rng(5).integers(-20, 20, size=rows)
    got = _window_counts(region, coords, lo, lo + 2)
    assert got.tolist() == _per_power_window_counts(region, coords, lo, lo + 2).tolist()


@pytest.mark.parametrize("rows", ROWS)
@pytest.mark.parametrize("name", list(REGIONS))
def test_translation_counts_equal_a_call_per_chunk(name, rows):
    region, _, lattice = REGIONS[name]
    xis = _points(region, rows)
    got = translation_counts(region, lattice, xis, radius=8.0)
    assert got.tolist() == _per_chunk_translation_counts(region, lattice, xis, 8.0).tolist()


def _membership_calls(monkeypatch, cls, name="membership"):
    calls = []
    membership = getattr(cls, name)
    monkeypatch.setattr(cls, name, lambda s, pts: calls.append(len(pts)) or membership(s, pts))
    return calls


def test_base_window_of_a_box_union_takes_few_large_calls(monkeypatch):
    calls = _membership_calls(monkeypatch, BoxUnion)
    dilation_counts(SHANNON, TWO, _points(SHANNON, 500))
    powers = K_RANGE[1] - K_RANGE[0] + 1
    assert len(calls) == math.ceil(powers * 500 / _SCAN_ROWS) == 8
    assert sum(calls) == powers * 500 and min(calls[:-1]) >= _SCAN_ROWS
    calls.clear()
    assert dilation_count(SHANNON, TWO, [0.7]) == 1
    assert calls == [powers]


# the ambient base window: each side of zero walks outward by doubling
@pytest.mark.parametrize("name", ["two", "2I", "spiral", "conjugated_shear"])
def test_window_powers_agree_with_integer_power(name):
    a = {"two": TWO, "2I": 2.0 * np.eye(2), "spiral": SPIRAL, "conjugated_shear": random_conjugate(SHEAR, 3)[0]}[name]
    powers = _window_powers(a)
    assert len(powers) == K_RANGE[1] - K_RANGE[0] + 1
    for k, power in zip(range(K_RANGE[0], K_RANGE[1] + 1), powers):
        want = integer_power(a, k)
        assert np.abs(power - want).max() <= 4e-14 * np.abs(want).max()


@pytest.mark.parametrize("a, k", [([[1e6]], 52), ([[1e-6]], -52), (np.diag([1e6, 2.0]), 52),
                                  (np.diag([1e6, 1e-7]), -45)])
def test_window_overflow_names_the_smallest_power(a, k):
    # 1e6^51 and 1e7^44 are finite, 1e6^52 and 1e7^45 are not; when both
    # sides overflow, the smaller |k| is named
    a = np.asarray(a, dtype=float)
    region = SHANNON if len(a) == 1 else ANNULUS
    with pytest.raises(Overflow, match=rf"^A\^{k} overflows"):
        dilation_count(region, a, np.full(len(a), 0.7))
    with pytest.raises(Overflow, match=rf"^A\^{k} overflows"):
        wavelet.is_multiwavelet_set(region, a, Lattice.integers(len(a)), 1, samples=10)


def test_a_solved_row_is_bracketed_in_one_call(monkeypatch):
    region = REGIONS["dyadic"][0]
    calls = _membership_calls(monkeypatch, type(region), "jordan_membership")
    assert dilation_count(region, TWO, [5.0]) == 1
    assert calls == [3]


def test_translation_counts_send_consecutive_chunks_in_one_call(monkeypatch):
    calls = _membership_calls(monkeypatch, BoxUnion)
    xis = _points(DOUBLED, 500)
    assert (translation_counts(DOUBLED, Z1, xis) == 2).all()
    # 8 chunks of 64 rows, each over fewer than 16 candidates
    assert len(calls) == 1 and calls[0] < _SCAN_ROWS


def _candidate_grid(region, lattice, xis):
    """:meth:`BoxUnion.candidate_dual_points` framed afresh for each call."""
    dinv = np.linalg.inv(lattice.dual_basis)
    corners = np.vstack([box_corners(lo, hi) for lo, hi in region.boxes]) @ dinv
    rows = np.atleast_2d(xis) @ dinv
    zlo = np.floor(corners.min(axis=0) - rows.max(axis=0)).astype(int)
    zhi = np.ceil(corners.max(axis=0) - rows.min(axis=0)).astype(int)
    return _integer_grid(zlo, zhi).astype(float) @ lattice.dual_basis


@pytest.mark.parametrize("lattice", [Lattice.integers(2), Lattice([[1.0, 0.3], [0.0, 1.0]]),
                                     Lattice([[0.5, 0.0], [1.0, 2.0]])])
def test_the_framed_candidate_grid_is_the_fresh_one(lattice):
    far = ANNULUS.translate([3.0, -2.0])
    for region in (ANNULUS, far, ANNULUS):
        for seed in range(3):
            xis = _points(region, 64, seed) * (seed + 1)
            got = region.candidate_dual_points(lattice, xis)
            assert np.array_equal(got, _candidate_grid(region, lattice, xis))
    # one frame per set of boxes, kept by the lattice
    assert sum(isinstance(key, tuple) and key[0] == "box_frame" for key in lattice._cache) == 2


# every class of region the counters batch, with its dimension
def _batched_classes():
    skew = Lattice([[1.0, 0.3], [0.0, 1.0]])
    dyadic = build_order_infinity_set(TWO, Z1, pieces=8)
    spiral = build_discrete_section(np.array([[1.2, -0.5], [0.5, 1.2]]))
    return {
        "box_union": (ANNULUS, 2),
        "saturated": (saturate(BoxUnion.build([((0.2, 0.1), (0.7, 0.4))]), skew, radius=8.0), 2),
        "selector_piece": (partition_multiwavelet_set(BoxUnion.build([((0.0, 0.0), (1.0, 3.0))]), skew, 3)[2], 2),
        "infinite_piece": (partition_multiwavelet_set(dyadic, Z1, math.inf, pieces=3)[1], 1),
        "dilation_shifted": (dyadic, 1),
        "dilation_shifted_spiral": (build_order_infinity_set(SPIRAL, Z2, pieces=4), 2),
        "cone": (build_order_infinity_set(SHEAR, Z2, pieces=4), 2),
        "shaped_finite": (to_finite_measure(spiral), 2),
        "shaped_bounded": (to_bounded(spiral), 2),
        "discrete_section": (build_discrete_section(np.array([[2.0, 1.0], [0.0, 2.0]])), 2),
        "derived_section": (derive_discrete_section(build_continuous_section([[1.0, 2 * math.pi],
                                                                             [-2 * math.pi, 1.0]])), 2),
    }


BATCHED = _batched_classes()


@pytest.mark.parametrize("name", list(BATCHED))
def test_membership_of_stacked_rows_is_the_stacked_membership(name):
    region, n = BATCHED[name]
    g = np.random.default_rng(11)
    # rows at several scales, so the stacks mix near and far rows, and the
    # origin, which a section refuses
    x = g.normal(size=(300, n)) * g.choice([0.1, 1.0, 10.0], size=(300, 1))
    y = np.vstack([g.normal(size=(77, n)) * 3.0, np.zeros((2, n))])
    member, exc = region.membership(np.vstack([x, y]))
    mx, ex = region.membership(x)
    my, ey = region.membership(y)
    assert member.tolist() == np.concatenate([mx, my]).tolist()
    assert exc.tolist() == np.concatenate([ex, ey]).tolist()
    assert member.any()
