import math

import numpy as np
import pytest

import xsect.classify
from xsect.errors import ExceptionalPoint, NoWavelet, SelectorMiss, UsageError
from xsect.linalg import jordan_power_rows, real_jordan_form
from xsect.sections import PushedSection, contains, power_rows, solve_orbit
from xsect.verify import check_discrete_tiling
from xsect.wavelet import (
    BoxUnion,
    ConeSection,
    Lattice,
    build_order_infinity_set,
    coset_selector_U,
    dilation_count,
    dimension_function,
    is_multiwavelet_set,
    partition_multiwavelet_set,
    saturate,
    translation_count,
    translation_counts,
)
from xsect.wavelet import _box_inside_spiral, _dual_point_in_slab, _pair_histogram, _slab_bounds

from conftest import DIAG23, ROT90, SHEAR, SPIRAL, random_conjugate

Z1 = Lattice.integers(1)
Z2 = Lattice.integers(2)
TWO_SIDED = BoxUnion.build([((-2.0,), (-1.0,)), ((1.0,), (2.0,))])
SHANNON = BoxUnion.build([((-1.0,), (-0.5,)), ((0.5,), (1.0,))])


def test_lattice_dual_and_domain():
    lat = Lattice(np.array([[2.0, 0.0], [0.0, 0.5]]))
    np.testing.assert_allclose(lat.dual_basis, np.diag([0.5, 2.0]))
    eta, z = lat.wrap(np.array([1.3, 4.5]))
    np.testing.assert_allclose(eta + z @ lat.dual_basis, [1.3, 4.5])
    assert (eta >= 0).all() and (eta < np.diag(lat.dual_basis)).all()


def test_fundamental_domain_tiles(rng):
    # sampled: every point wraps to exactly one translate of Y
    lat = Lattice(np.array([[1.0, 0.3], [0.0, 2.0]]))
    pts = rng.normal(size=(200, 2)) * 3
    for xi in pts:
        eta, z = lat.wrap(xi)
        np.testing.assert_allclose(eta + lat.dual_point(z), xi, atol=1e-9)


def test_dual_point_order_is_norm_then_lex():
    pts = Z2.ordered_dual_points(9)
    expected = [(0, 0), (-1, 0), (0, -1), (0, 1), (1, 0), (-1, -1), (-1, 1), (1, -1), (1, 1)]
    assert [tuple(int(v) for v in p) for p in pts] == expected


@pytest.mark.parametrize("n", [1, 2, 3])
def test_box_membership_equals_its_axis_reduction(n):
    # the box test runs column by column; it must agree with the reduction
    # over each row, also on points exactly on lo and on hi
    g = np.random.default_rng(n)
    region = BoxUnion.build([(-1.0 - 0.5 * np.arange(n), 0.25 + np.arange(n)), ((2.0,) * n, (3.0,) * n)])
    ends = sorted({v for lo, hi in region.boxes for v in lo + hi})
    pts = np.vstack([g.normal(size=(400, n)) * 2.0, g.choice(ends + [-np.inf, np.nan], size=(400, n))])
    want = np.zeros(len(pts), dtype=bool)
    for lo, hi in region.boxes:
        want |= np.all((pts >= np.asarray(lo)) & (pts < np.asarray(hi)), axis=1)
    member, exc = region.membership(pts)
    np.testing.assert_array_equal(member, want)
    assert want.any() and not want.all() and not exc.any()
    # a region without boxes holds no point
    empty, _ = BoxUnion.build([]).membership(pts)
    assert not empty.any()
    with pytest.raises(ValueError):
        region.membership(np.zeros((2, n + 1)))


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_counts_refuse_a_non_finite_point(bad):
    # a non-finite point has no lattice offset to count from; the suite's
    # RuntimeWarning filter fails a float warning on the way
    with pytest.raises(ValueError):
        dimension_function(SHANNON, [bad])
    with pytest.raises(ValueError):
        translation_count(SHANNON, Z1, [bad])
    with pytest.raises(ValueError):
        translation_counts(TWO_SIDED, Z1, [[0.3], [bad]])


def test_translation_count_examples():
    assert translation_count(TWO_SIDED, Z1, [0.3]).value == 2
    assert translation_count(BoxUnion.build([((0.0,), (1.0,))]), Z1, [0.3]).value == 1
    assert translation_count(BoxUnion.build([]), Z1, [0.3]).value == 0


def test_translation_count_exact_for_boxes():
    tc = translation_count(TWO_SIDED, Z1, [0.3])
    assert not tc.truncated and tc == 2


def test_dilation_count_examples():
    assert dilation_count(TWO_SIDED, [[2.0]], [0.3]) == 1
    assert dilation_count(TWO_SIDED, [[2.0]], [1.5]) == 1
    assert dilation_count(BoxUnion.build([((1.0,), (2.0,))]), [[2.0]], [-0.3]) == 0


def test_saturate_examples():
    sat = saturate(BoxUnion.build([((0.0,), (0.5,))]), Z1)
    assert contains(sat, [3.2]) and not contains(sat, [3.7])
    assert not contains(saturate(BoxUnion.build([]), Z1), [0.1])
    period = saturate(BoxUnion.build([((1.0,), (2.0,))]), Z1)
    assert contains(period, [0.5])  # 0.5 + 1 lands in [1, 2)


def test_selector_two_sided():
    u = coset_selector_U(TWO_SIDED, Z1)
    assert u.to_json()["boxes"] == [{"lo": [1.0], "hi": [2.0]}]


def test_selector_of_fundamental_domain_is_identity():
    k = BoxUnion.build([((0.0,), (1.0,))])
    assert coset_selector_U(k, Z1).to_json()["boxes"] == [{"lo": [0.0], "hi": [1.0]}]


def test_selector_miss_on_gappy_region():
    # [0, 0.5) has translation count 0 on half of every period
    with pytest.raises(SelectorMiss):
        coset_selector_U(BoxUnion.build([((0.0,), (0.5,))]), Z1)


def test_multiwavelet_checks():
    assert is_multiwavelet_set(SHANNON, [[2.0]], Z1, 1, samples=400, seed=2).passed
    assert is_multiwavelet_set(TWO_SIDED, [[2.0]], Z1, 2, samples=400, seed=2).passed
    assert not is_multiwavelet_set(TWO_SIDED, [[2.0]], Z1, 1, samples=400, seed=2).passed
    with pytest.raises(UsageError):
        is_multiwavelet_set(SHANNON, [[2.0]], Z1, 1, samples=0)


def test_multiwavelet_histogram_keys_match_the_pairs():
    # one integer key per sample gives the keys, order and counts of the
    # 2-column unique of (translation, dilation) pairs
    g = np.random.default_rng(5)
    tcs = np.concatenate([[0, 0, 3, 12, 1], g.integers(0, 15, 300)])
    dcs = np.concatenate([[0, 2, 0, 1, 2], g.integers(0, 3, 300)])
    pairs, freq = np.unique(np.stack([tcs, dcs], axis=1), axis=0, return_counts=True)
    want = {f"t{t}_d{d}": int(c) for (t, d), c in zip(pairs, freq)}
    got = _pair_histogram(tcs, dcs)
    assert list(got.items()) == list(want.items())
    assert {"t0_d0", "t0_d2", "t3_d0"} <= set(got)


def test_partition_order_two():
    parts = partition_multiwavelet_set(TWO_SIDED, Z1, 2)
    assert parts[0].to_json()["boxes"] == [{"lo": [1.0], "hi": [2.0]}]
    assert parts[1].to_json()["boxes"] == [{"lo": [-2.0], "hi": [-1.0]}]


def test_partition_order_one_identity():
    k = BoxUnion.build([((0.0,), (1.0,))])
    parts = partition_multiwavelet_set(k, Z1, 1)
    assert parts[0].to_json()["boxes"] == [{"lo": [0.0], "hi": [1.0]}]


def test_partition_pieces_have_count_one(rng):
    parts = partition_multiwavelet_set(TWO_SIDED, Z1, 2)
    xis = rng.uniform(-0.5, 1.5, size=(200, 1))
    for p in parts:
        assert (translation_counts(p, Z1, xis, radius=20.0) == 1).all()


def test_dimension_function_examples():
    w = BoxUnion.build([((0.0,), (1.5,))])
    assert dimension_function(w, [0.25]).value == 2
    assert dimension_function(w, [0.75]).value == 1
    assert dimension_function(BoxUnion.build([]), [0.3]).value == 0
    assert dimension_function(TWO_SIDED, [0.33]).value == 2


def test_dimension_function_periodic(rng):
    w = BoxUnion.build([((-0.5, 0.0), (1.0, 2.0))])
    lat = Lattice.integers(2)
    for _ in range(30):
        xi = rng.normal(size=2)
        k = rng.integers(-3, 4, size=2).astype(float)
        assert dimension_function(w, xi).value == dimension_function(w, xi + k).value


def test_dimension_function_matches_bruteforce(rng):
    fixtures = [
        BoxUnion.build([((0.0,), (1.5,))]),
        TWO_SIDED,
        BoxUnion.build([((-0.5, -0.5), (0.5, 0.5)), ((1.5, 0.0), (2.5, 1.0))]),
    ]
    for w in fixtures:
        n = w.n
        for _ in range(50):
            xi = rng.normal(size=n) * 2
            brute = 0
            rng_box = range(-15, 16)
            for k in np.stack(np.meshgrid(*[list(rng_box)] * n), axis=-1).reshape(-1, n):
                member, _ = w.membership((xi + k).reshape(1, -1))
                brute += int(member[0])
            assert dimension_function(w, xi).value == brute


def _inside_piece_1d(k, i, gamma):
    """``Y + gamma = [g, g + 1)`` lies inside piece i of a 1-D set."""
    lo, hi = k.piece_boxes_1d(i)
    g = gamma[0]
    return (lo <= g and g + 1 <= hi) or (lo <= -(g + 1) and -g <= hi)


def test_order_infinity_dyadic():
    k = build_order_infinity_set([[2.0]], Z1, pieces=6)
    for i in range(1, 6):
        lo, hi = k.piece_boxes_1d(i)
        assert (lo, hi) == (2 ** (i + 2) - 4, 2 ** (i + 2) - 2)
    # certificates: Y + gamma_i inside piece i
    for i, power, gamma in k.certificates:
        assert _inside_piece_1d(k, i, gamma)


def test_order_infinity_certificates_beyond_pieces():
    # a slab past the first `pieces` gets its push and its certificate from one search
    k = build_order_infinity_set([[2.0]], Z1, pieces=8)
    for i in range(9, 17):
        power, gamma = k.certificate(i)
        assert power == k.shift(i) == i + 1 and gamma == (2.0 ** (i + 2) - 4,)
        assert _inside_piece_1d(k, i, gamma)


def test_contains_raises_on_a_refused_point():
    # the order-infinity sets refuse their null set like any section
    cone = build_order_infinity_set(SHEAR, Z2, pieces=4)
    dyadic = build_order_infinity_set([[2.0]], Z1, pieces=4)
    for region, point in ((cone, [0.0, 1.0]), (dyadic, [0.0])):
        with pytest.raises(ExceptionalPoint):
            contains(region, point)


def test_refused_point_message_names_no_cause():
    # (1, 1) is off the null set: the base section solves it, but its base
    # representative rounds onto the outer edge of the radial range (piece 0)
    spiral = build_order_infinity_set(SPIRAL, Z2, pieces=4)
    assert not spiral.base.solve(np.array([[1.0, 1.0]]))[2][0]
    text = r"^point refused: on the declared measure-zero set or not resolvable in floating point$"
    for call in (contains, solve_orbit):
        with pytest.raises(ExceptionalPoint, match=text):
            call(spiral, [1.0, 1.0])


# spirals on Z^2, pieces=4: zero-ray points of every slab orbit; the two
# unconjugated ones also put exactly one point of each orbit in the set
ZERO_RAY_SPIRALS = [([[1.2, -0.5], [0.5, 1.2]], True), ([[0.0, 2.0], [-2.0, 0.0]], True),
                    ([[0.7, -0.5], [1.0, 1.7]], False)]


@pytest.mark.parametrize("a, one_per_orbit", ZERO_RAY_SPIRALS, ids=["spiral_1_3", "spiral_2", "conjugated"])
def test_order_infinity_spiral_decides_zero_ray_points(a, one_per_orbit):
    # the points (s_i, 0) J^k in Jordan coordinates, s_i the midpoint of
    # slab i = 1..4 and k in [-20, 20]: the slab index reads the angle the
    # tile index reads, so none of them is refused
    k = build_order_infinity_set(a, Z2, pieces=4)
    base = k.base
    lam = math.exp(base.params["log_span"])
    powers = np.arange(-20, 21)
    for i in range(1, 5):
        c = np.zeros((len(powers), 2))
        c[:, base.block.offset] = lam - 1.5 * (lam - 1.0) * 2.0 ** -i
        orbit = base.jordan.from_jordan(jordan_power_rows(base.jordan, c, powers, integer=True))
        member, exc = k.membership(orbit)
        assert not exc.any(), i
        if one_per_orbit:
            assert member.sum() == 1, i


def test_order_infinity_counts(rng):
    k = build_order_infinity_set([[2.0]], Z1, pieces=8)
    for xi in rng.normal(size=(200, 1)):
        assert dilation_count(k, [[2.0]], xi) == 1
    tc = translation_count(k, Z1, [0.3], radius=100.0)
    assert tc.truncated and tc.value >= 10


def test_order_infinity_count_grows_with_radius():
    k = build_order_infinity_set([[2.0]], Z1, pieces=8)
    counts = [translation_count(k, Z1, [0.3], radius=r).value for r in (30.0, 100.0, 300.0)]
    assert counts[0] < counts[1] < counts[2]


def test_order_infinity_rotation_rejected():
    with pytest.raises(NoWavelet):
        build_order_infinity_set(ROT90, Z2)


def test_order_infinity_contracting_counts_once(rng):
    k = build_order_infinity_set([[0.5]], Z1, pieces=4)
    for xi in rng.normal(size=(100, 1)):
        assert dilation_count(k, [[0.5]], xi) == 1


def test_order_infinity_contracting_pushes_by_negative_powers():
    # the slabs of [[0.5]] are those of [[2]], pushed outward by powers of the input
    half = build_order_infinity_set([[0.5]], Z1, pieces=4)
    two = build_order_infinity_set([[2.0]], Z1, pieces=4)
    assert half.matrix.tolist() == [[0.5]]
    assert half.certificates == tuple((i, -(i + 1), (2.0 ** (i + 2) - 4,)) for i in range(1, 5))
    assert all(half.piece_boxes_1d(i) == two.piece_boxes_1d(i) for i in range(1, 5))


def test_order_infinity_shear_cone():
    k = build_order_infinity_set(SHEAR, Z2, pieces=10)
    assert len(k.certificates) >= 10
    # each certificate: the unit box at gamma sits inside the cone
    for g in k.certificates:
        corners = np.array([[0, 0], [0, 1], [1, 0], [1, 1]], dtype=float) + np.asarray(g)
        x1, x2 = corners[:, 0], corners[:, 1]
        assert (x1 > 0).all() or (x1 < 0).all()
        ratios = x2 / x1
        assert ratios.min() >= 0.0 and ratios.max() <= 1.0


def test_order_infinity_shear_cone_to_json():
    doc = build_order_infinity_set(SHEAR, Z2, pieces=4).to_json()
    assert doc["kind"] == "cone_section"
    assert len(doc["certificates"]) == 4


def test_order_infinity_shear_cone_is_a_multiwavelet_set():
    # samples far out along the shear's orbit hit the cone outside the base
    # window: the check scans the window around each one's own tile index
    k = build_order_infinity_set(SHEAR, Z2, pieces=8)
    assert is_multiwavelet_set(k, SHEAR, Z2, math.inf, samples=200, seed=0).passed


@pytest.mark.parametrize("a, forms", [([[2.0]], 1), (SHEAR, 1), (SPIRAL, 1), ([[0.5]], 1)],
                         ids=["two", "shear", "spiral", "half"])
def test_order_infinity_build_takes_one_jordan_form(monkeypatch, a, forms):
    # one for the section, whichever way its witness points
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return real_jordan_form(*args, **kwargs)

    monkeypatch.setattr(xsect.classify, "real_jordan_form", counted)
    build_order_infinity_set(a, Lattice.integers(len(a)), pieces=4)
    assert len(calls) == forms


def test_order_infinity_spiral(rng):
    spiral = np.array([[0.0, 2.0], [-2.0, 0.0]])
    k = build_order_infinity_set(spiral, Z2, pieces=4)
    assert len(k.certificates) == 4
    bad = 0
    for xi in rng.normal(size=(150, 2)):
        if dilation_count(k, spiral, xi) != 1:
            bad += 1
    assert bad == 0


def test_spiral_slab_translate_search_rejects_what_it_cannot_bound():
    # the certified translate of slab 4 of the spiral set fits at its push;
    # the slab's push k_min is 2, and at push 0 no translate near it fits
    k = build_order_infinity_set(SPIRAL, Z2, pieces=1)
    section, off = k.base, k.base.block.offset
    power, gamma = k.certificate(4)
    lo, hi = _slab_bounds(section, 4)
    assert _dual_point_in_slab(section, Z2, 4, power).tolist() == list(gamma)
    assert _dual_point_in_slab(section, Z2, 4, 0) is None
    corners = section.jordan.to_jordan(Z2.domain_corners())
    assert _box_inside_spiral(section, corners + section.jordan.to_jordan(np.array(gamma)), off, lo, hi, power)
    # the box's radius and angle are bounded from its corners, and are not
    # bounded for a box around the origin, or one that spans a quarter turn
    # or more as seen from its center's angle; neither box fits
    around = corners - corners.mean(axis=0)
    wide = np.array([[-5.0, 0.1], [1.0, 0.1], [-5.0, 5.0], [1.0, 5.0]]) * hi
    assert not _box_inside_spiral(section, around, off, lo, hi, power)
    assert not _box_inside_spiral(section, wide, off, lo, hi, power)


# members among 10^4 standard Gaussian points (default_rng(3)), pinned
# before edge representatives were flagged exceptional
PINNED_SPIRAL_GAUSSIAN = [
    4, 123, 164, 496, 1115, 1155, 1173, 1206, 1246, 1318, 1946, 2205, 2246, 2316, 2357, 2373, 2584,
    2811, 2886, 3076, 3165, 3418, 3447, 3663, 3738, 3904, 4109, 4285, 4296, 4335, 4578, 4705, 4781,
    4846, 4876, 4885, 4889, 5376, 5513, 5589, 5640, 5694, 5841, 5851, 5894, 5946, 5978, 6246, 6585,
    6746, 6777, 6781, 7267, 7626, 7711, 7747, 7897, 7965, 7988, 8036, 8475, 8568, 8569, 8635, 9037,
    9063, 9123, 9154, 9213, 9357, 9368, 9420, 9458, 9669, 9714, 9727, 9746, 9929, 9957, 9974,
]


def test_order_infinity_spiral_membership_at_lattice_points():
    # the representative of (1, 1) rounds onto the outer edge 16 of the
    # radial range [1, 16); those of (0, 3) and (-5, 0) lie on the zero ray
    k = build_order_infinity_set([[0, 2], [-2, 0]], Lattice([[1, 0], [0, 1]]), pieces=4)
    member, exc = k.membership(np.array([[1.0, 1.0], [0.0, 3.0], [-5.0, 0.0]]))
    assert exc.tolist() == [True, False, False] and member.tolist() == [False, True, False]
    grid = np.array([(a, b) for a in range(-30, 31) for b in range(-30, 31) if (a, b) != (0, 0)], dtype=float)
    member, exc = k.membership(grid)  # raises nowhere on the lattice
    assert not (member & exc).any()
    member, exc = k.membership(np.random.default_rng(3).normal(size=(10_000, 2)))
    assert not exc.any()
    assert np.flatnonzero(member).tolist() == PINNED_SPIRAL_GAUSSIAN


def _one_reading_sets():
    """Order-infinity sets over pure bases (witness block the whole row):
    real, negative real and contracting in 1-D, and three spirals, canonical
    and under two conjugators."""
    out = [pytest.param(np.array([[v]]), id=name) for name, v in (("real", 2.0), ("negative", -3.0), ("contracting", 0.5))]
    for name, m in (("spiral", [[1.2, -0.5], [0.5, 1.2]]), ("rot2", SPIRAL), ("contracting_spiral", [[0.6, 0.3], [-0.3, 0.6]])):
        out.append(pytest.param(np.array(m), id=name))
        out += [pytest.param(random_conjugate(m, seed)[0], id=f"{name}-{seed}") for seed in (0, 1)]
    return out


def _dyadic_slab_index(section, sval):
    """The closed-form slab of the radial coordinate ``sval``: slab i is
    [Lam - (Lam-1) 2^{1-i}, Lam - (Lam-1) 2^{-i}), and a value below 1 or
    within ``tol * Lam`` of Lam reads 0."""
    lam_big = math.exp(section.params["log_span"])
    frac = (lam_big - sval) / (lam_big - 1.0)
    frac = np.where(frac < section.tol * lam_big / (lam_big - 1.0), 2.0, frac)
    return np.clip(np.floor(-np.log2(frac)).astype(int) + 1, 0, None)


@pytest.mark.parametrize("a", _one_reading_sets())
def test_order_infinity_membership_equals_the_representatives(a):
    # one reading of the base gauge gives the bits of the parent path, which
    # forms each representative, on lattice points, quarter-lattice points and
    # their exact dilates, and on rows at the float range
    n = len(a)
    k = build_order_infinity_set(a, Lattice.integers(n), pieces=4)
    q = np.arange(-24, 25) / 4.0
    grid = np.stack(np.meshgrid(*[q] * n, indexing="ij"), axis=-1).reshape(-1, n)
    far = np.random.default_rng(2).normal(size=(300, n)) * 1e298
    edge = np.array([[1.5e308] * n, [-1.5e308] * n, [0.0] * n, [np.nan] * n, [1e300] * n])
    pts = np.concatenate([grid, far, edge])
    member, exc = k.membership(pts)
    want = PushedSection.jordan_membership(k, k.base._coords(pts))
    assert np.array_equal(member, want[0]) and np.array_equal(exc, want[1])
    coords = k.base._coords(grid)
    dilates = np.concatenate([power_rows(k.base, coords, np.full(len(coords), j)) for j in (-3, -1, 1, 2, 5)])
    got, want = k.jordan_membership(dilates), PushedSection.jordan_membership(k, dilates)
    assert np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1])
    # each interval of the phase table is the slab that _dyadic_slab_index
    # gives its midpoint, and a phase past the cut reads slab 0
    edges = np.append(k._phase_edges[:-1], 1.0)
    mids = (edges[:-1] + edges[1:]) / 2
    slabs = _dyadic_slab_index(k.base, np.exp(mids * k.base.params["log_span"]))
    assert slabs.tolist() == list(range(1, len(edges) - 1)) + [0]


@pytest.mark.parametrize("a", [
    [[2.0]], [[-3.0]], [[-1.7]], [[0.5]], [[1.2, -0.5], [0.5, 1.2]], SPIRAL, [[0.6, 0.3], [-0.3, 0.6]],
    np.diag([2.0, 1.0]), [[2.0, 1.0], [0.0, 2.0]], np.diag([2.0, 3.0, 1.5]),
    [[1.2, -0.5, 0.0], [0.5, 1.2, 0.0], [0.0, 0.0, 0.7]], np.diag([2.0, 0.7]),
], ids=["two", "minus_three", "minus_1.7", "half", "spiral", "rot2", "contracting_spiral", "diag21", "chain2",
        "diag231.5", "spiral_free", "diag2_0.7"])
def test_order_infinity_slab_edges_read_as_their_slab(a):
    # the lower edge lo of each slab below the cut, on the witness coordinate
    # (a spiral's zero ray) with the other coordinates 0, is a representative
    # in that slab: the same table that membership searches places it there,
    # and membership agrees with the solve's tile
    k = build_order_infinity_set(a, Lattice.integers(len(a)), pieces=1)
    base = k.base
    slabs = np.arange(1, len(k._phase_edges) - 1)
    lo = np.array([_slab_bounds(base, i)[0] for i in slabs])
    signs = (1.0, -1.0) if base.kind.pinned == 1 else (1.0,)
    rows = np.zeros((len(signs) * len(lo), base.n))
    rows[:, base.block.offset] = np.concatenate([sign * lo for sign in signs])
    want = np.tile(slabs, len(signs))
    assert k.piece_of(rows, np.abs(rows[:, base.block.offset])).tolist() == want.tolist()
    tile, _, pieces, _, refused = k._pushed(rows)
    assert not refused.any() and pieces.tolist() == want.tolist()
    assert tile.tolist() == [-k.shift(i) for i in want]
    member, exc = k.jordan_membership(rows)
    assert np.array_equal(member, tile == 0) and not exc.any()


def test_order_infinity_membership_reads_only_edge_rows_by_representative(monkeypatch):
    # a band that swallowed the bulk would undo the one reading: a Gaussian
    # sweep sends no row to the representatives.  The lattice points (1, 1),
    # whose representative rounds onto the outer edge, and (0, 3), on the zero
    # ray, are sent, and read as before: refused, and a member
    rows, parent = [], PushedSection.jordan_membership
    monkeypatch.setattr(PushedSection, "jordan_membership", lambda s, coords: rows.append(len(coords)) or parent(s, coords))
    k = build_order_infinity_set(SPIRAL, Z2, pieces=4)
    pts = np.random.default_rng(7).normal(size=(10_000, 2)) @ np.linalg.matrix_power(np.linalg.inv(SPIRAL), 30)
    counts = np.zeros(len(pts), dtype=int)
    for _ in range(61):
        member, exc = k.membership(pts)
        counts += member & ~exc
        pts = pts @ SPIRAL
    assert (counts == 1).all() and rows == []
    member, exc = k.membership(np.array([[1.0, 1.0], [0.0, 3.0]]))
    assert rows == [2] and exc.tolist() == [True, False] and member.tolist() == [False, True]


def _free_coordinate_sets():
    """Order-infinity sets over bases with free coordinates (witness block
    not the whole row), canonical and under three conjugators."""
    out = []
    for name, m in (("diag21", np.diag([2.0, 1.0])), ("chain2", [[2.0, 1.0], [0.0, 2.0]]),
                    ("diag231.5", np.diag([2.0, 3.0, 1.5])),
                    ("spiral_free", [[1.2, -0.5, 0.0], [0.5, 1.2, 0.0], [0.0, 0.0, 0.7]]),
                    ("diag2_0.7", np.diag([2.0, 0.7])), ("diag23", DIAG23)):
        out.append(pytest.param(np.array(m, dtype=float), id=name))
        out += [pytest.param(random_conjugate(m, seed)[0], id=f"{name}-{seed}") for seed in (0, 1, 2)]
    return out


@pytest.mark.parametrize("a", _free_coordinate_sets())
def test_order_infinity_membership_over_free_coordinates_takes_one_reading(monkeypatch, a):
    # a base with free coordinates is read like a pure one: Gaussian rows and
    # their exact dilates reach no representative and read as the
    # representatives do.  Scaled by 1e298 the free coordinates dwarf each
    # representative's witness, whose null band refuses it; the one reading
    # refuses only what the base's membership refuses, with the same members
    parent, rows = PushedSection.jordan_membership, []
    monkeypatch.setattr(PushedSection, "jordan_membership", lambda s, coords: rows.append(len(coords)) or parent(s, coords))
    n = len(a)
    k = build_order_infinity_set(a, Lattice.integers(n), pieces=1)
    pts = np.random.default_rng(3).normal(size=(10_000, n))
    for scale in (1.0, 1e298):
        coords = k.base._coords(pts * scale)
        dilates = np.concatenate([coords] + [power_rows(k.base, coords, np.full(len(coords), j)) for j in (-3, -1, 1, 2, 5)])
        member, exc = k.jordan_membership(dilates)
        want = parent(k, dilates)
        assert rows == [] and np.array_equal(member, want[0])
        assert np.array_equal(exc, want[1] if scale == 1.0 else k.base.jordan_membership(dilates)[1])


# Memberships of the order-infinity pieces, pinned from the nested
# construction (residual of residual) that the coset walk replaced.
PINNED_1D = [[180, 221, 222, 223, 224], [176, 177, 178, 179, 220], [175, 226, 227, 228, 229]]
PINNED_SPIRAL = [[0, 5, 10, 15, 20, 25, 30, 35], [1, 6, 11, 16, 21, 26, 31, 36], [2, 7, 12, 17, 22, 27, 32, 37]]
PINNED_DOUBLED = [list(range(40, 50)), list(range(10, 20))] + [[]] * 6
PINNED_ANNULUS = [
    [22, 23, 24, 25, 37, 38, 39, 40, 52, 53, 54, 55, 116, 117, 118, 131, 132, 133, 146, 147, 148,
     161, 162, 163, 172, 173, 174, 175, 176, 177, 178, 187, 188, 189, 190, 191, 192, 193,
     202, 203, 204, 205, 206, 207, 208],
    [26, 27, 28, 41, 42, 43, 56, 57, 58, 71, 72, 73, 86, 87, 88, 101, 102, 103, 106, 107, 108,
     121, 122, 123, 136, 137, 138, 151, 152, 153, 166, 167, 168, 181, 182, 183, 196, 197, 198],
    [16, 17, 18, 19, 20, 21, 31, 32, 33, 34, 35, 36, 46, 47, 48, 49, 50, 51, 61, 62, 63, 76, 77, 78,
     91, 92, 93, 169, 170, 171, 184, 185, 186, 199, 200, 201],
    [],
]


def _members(parts, pts):
    return [np.flatnonzero(p.membership(pts)[0]).tolist() for p in parts]


def test_infinite_partition_pieces(rng):
    k = build_order_infinity_set([[2.0]], Z1, pieces=8)
    parts = partition_multiwavelet_set(k, Z1, math.inf, pieces=3)
    grid = np.linspace(-40, 40, 401).reshape(-1, 1)
    assert _members(parts, grid) == PINNED_1D
    members = [p.membership(grid)[0] for p in parts]
    in_k, _ = k.membership(grid)
    for i, m in enumerate(members):
        assert not np.any(m & ~in_k)
        for j in range(i + 1, 3):
            assert not np.any(m & members[j])
    xis = rng.uniform(-0.5, 0.5, size=(80, 1))
    for p in parts:
        assert (translation_counts(p, Z1, xis, radius=80.0) == 1).all()
    assert [p.to_json() for p in parts] == [{"kind": "analytic", "name": "union"}] * 3


@pytest.mark.parametrize("lattice", [Z2, Lattice([[1.0, 0.3], [0.0, 1.0]])])
def test_infinite_partition_of_the_spiral_set(lattice):
    k = build_order_infinity_set([[0.0, 2.0], [-2.0, 0.0]], lattice, pieces=4)
    # the first five points of the set in each of eight dual cosets
    etas = np.array([[0.1, 0.2], [0.55, 0.35], [0.8, 0.9], [0.3, 0.7],
                     [0.95, 0.05], [0.02, 0.01], [0.5, 0.5], [0.25, 0.999]]) @ lattice.dual_basis
    probe = etas[:, None, :] + lattice.ordered_dual_points(400)[None]
    inside = k.membership(probe.reshape(-1, 2))[0].reshape(len(etas), -1)
    pts = np.concatenate([row[np.flatnonzero(hit)[:5]] for row, hit in zip(probe, inside)])
    parts = partition_multiwavelet_set(k, lattice, math.inf, pieces=3)
    assert _members(parts, pts) == PINNED_SPIRAL
    for p in parts:
        assert (translation_counts(p, lattice, etas, radius=10.0) == 1).all()


def test_infinite_partition_of_finite_order_box_sets(rng):
    # surplus pieces of a finite-order set stay empty and do not raise
    parts = partition_multiwavelet_set(TWO_SIDED, Z1, math.inf, pieces=8)
    assert _members(parts, np.linspace(-3, 3, 61).reshape(-1, 1)) == PINNED_DOUBLED
    xis = rng.normal(size=(200, 1))
    assert [np.unique(translation_counts(p, Z1, xis)).tolist() for p in parts] == [[1]] * 2 + [[0]] * 6
    annulus = BoxUnion.build([((-1.0, -1.0), (-0.5, 1.0)), ((-0.5, -1.0), (0.5, -0.5)),
                              ((-0.5, 0.5), (0.5, 1.0)), ((0.5, -1.0), (1.0, 1.0))])
    parts = partition_multiwavelet_set(annulus, Z2, math.inf, pieces=4)
    axis = np.linspace(-1.05, 1.05, 15)
    grid = np.stack(np.meshgrid(axis, axis, indexing="ij"), axis=-1).reshape(-1, 2)
    assert _members(parts, grid) == PINNED_ANNULUS
    xis = rng.normal(size=(40, 2))
    assert [np.unique(translation_counts(p, Z2, xis, radius=8.0)).tolist() for p in parts] == [[1]] * 3 + [[0]]


def test_infinite_partition_refuses_a_set_missing_cosets():
    k = BoxUnion.build([((0.0,), (0.5,))])
    with pytest.raises(SelectorMiss):
        partition_multiwavelet_set(k, Z1, math.inf, pieces=2)
    # a point no earlier piece took must be reached by the piece's search
    skew = Lattice([[1.0, 0.3], [0.0, 1.0]])
    far = BoxUnion.build([((5.0, 0.0), (6.0, 1.0))])
    parts = partition_multiwavelet_set(far, skew, math.inf, pieces=2, search_points=8)
    with pytest.raises(SelectorMiss):
        parts[0].membership([[5.5, 0.5]])
    parts = partition_multiwavelet_set(far, skew, math.inf, pieces=2)
    assert [p.membership([[5.5, 0.5], [0.5, 0.5]])[0].tolist() for p in parts] == [[True, False], [False, False]]


def test_box_algebra():
    a = BoxUnion.build([((0.0, 0.0), (2.0, 2.0))])
    b = BoxUnion.build([((1.0, 1.0), (3.0, 3.0))])
    inter = a.intersect(b)
    assert abs(inter.measure() - 1.0) < 1e-12
    diff = a.difference(b)
    assert abs(diff.measure() - 3.0) < 1e-12
    union = a.union_disjoint(b)
    assert abs(union.measure() - 7.0) < 1e-12
    # difference pieces stay disjoint and half-open
    member, _ = diff.membership(np.array([[0.5, 0.5], [1.5, 1.5], [1.0, 1.0]]))
    assert member.tolist() == [True, False, False]


def test_order_infinity_search_budget_reported():
    from xsect.errors import SearchExhausted

    with pytest.raises(SearchExhausted) as info:
        build_order_infinity_set(SHEAR, Z2, pieces=10, search_radius=2.0)
    assert len(info.value.certificate) < 10


def test_order_infinity_general_lattice(rng):
    # dual lattice 2Z, fundamental domain [0, 2): pieces must be pushed
    # one extra power to swallow the wider domain translate
    lat = Lattice(np.array([[0.5]]))
    k = build_order_infinity_set([[2.0]], lat, pieces=4)
    assert [c[1] for c in k.certificates] == [3, 4, 5, 6]
    for xi in rng.normal(size=(150, 1)):
        assert dilation_count(k, [[2.0]], xi) == 1


def test_order_infinity_with_unit_modulus_block(rng):
    # diag(2, 1): the expanding part drives the slabs, the unit-modulus
    # direction contributes the free factor
    a = np.diag([2.0, 1.0])
    k = build_order_infinity_set(a, Z2, pieces=4)
    for xi in rng.normal(size=(150, 2)):
        assert dilation_count(k, a, xi) == 1
    assert translation_count(k, Z2, [0.3, 0.4], radius=50.0).value >= 10


def test_first_dual_points_are_sorted_by_norm_then_integer_coordinates():
    # exact ties across integer shells: (-4, -3) and (-5, 0) both have norm 5
    cube = [(x, y) for x in range(-12, 13) for y in range(-12, 13)]
    want = sorted(cube, key=lambda z: (math.hypot(*z), z))[:100]
    got = [tuple(int(v) for v in p) for p in Z2.ordered_dual_points(100)]
    assert got == want
    lazy = [tuple(int(v) for v in z) for z, _ in Z2.dual_points_in_order(max_points=100)]
    assert lazy == want
    ball = [tuple(int(v) for v in p) for p in Lattice.integers(2).dual_points_within(5.0)]
    assert ball == [z for z in want if math.hypot(*z) <= 5.0]


def test_translation_counters_agree_on_a_far_box():
    far = BoxUnion.build([((150.0,), (151.0,))])
    assert translation_count(far, Z1, [0.3]) == 1
    assert translation_counts(far, Z1, [[0.3]]).tolist() == [1]
    member, _ = saturate(far, Z1).membership([[0.3]])
    assert member.tolist() == [True]


SKEW = Lattice([[1.0, 0.3], [0.0, 1.0]])
ANNULUS = BoxUnion.build([((-1.0, -1.0), (-0.5, 1.0)), ((-0.5, -1.0), (0.5, -0.5)),
                          ((-0.5, 0.5), (0.5, 1.0)), ((0.5, -1.0), (1.0, 1.0))])

# the piece holding each of 200 seeded points ("." for none), as the nested
# selector chain U(K), U(K - U(K)), ... gave them
PINNED_PIECES = {
    "strip2": ("0.1.1.11.01..1...01...00.0..10....1..1.1.......0.."
               "00..1.1....01.....00...1..0.11...1.01.1.......0..0"
               ".0..0.1...1..0....00.1.....01.00..0....0...10..0.."
               "01.1011....0...0....1...0..010..1.......1...0...0."),
    "strip3": ("...0.11.20.0.2....20.22..00.10...........2...02100"
               "1...1.0..2.2.011.1..20..0.........2.002202...2.101"
               "...12....102..1......212220....01....1...0..1...22"
               "0....1...2.2.1.0..01.0.20...2..11.........0.1...20"),
    "strip8": (".6.2....45.2.331..5...42145..00302751.1.26.3..5.50"
               "....02.65170..6.6....2...53..4...50....01..4...0.."
               "...6.75.6367.7......4722.......1..0742..35.2.35.2."
               ".522...6..36.3..43.42...631.10.03.665354.36.4....."),
    "annulus": ("20211...0...22.2.021212101.0.110.0..1.2222.0....11"
                ".0.1.0.2.0.10.0.1.10.2.22.21.1.1..201.2212..2.2..."
                "0.2.2..2001..0.20010020.....2..2.0010.0..21..1.010"
                "1..0.....2..1..10.202.20...0....00000121..21..1.00"),
}


@pytest.mark.parametrize("name, region, lattice, order, lo, hi, seed", [
    ("strip2", BoxUnion.build([((0.0, 0.0), (1.0, 2.0))]), SKEW, 2, (-0.5, -0.5), (1.5, 2.5), 2),
    ("strip3", BoxUnion.build([((0.0, 0.0), (1.0, 3.0))]), SKEW, 3, (-0.5, -0.5), (1.5, 3.5), 3),
    ("strip8", BoxUnion.build([((0.0, 0.0), (1.0, 8.0))]), SKEW, 8, (-0.5, -0.5), (1.5, 8.5), 8),
    ("annulus", ANNULUS, Lattice([[1.0, 0.0], [1.0, 1.0]]), 3, (-1.2, -1.2), (1.2, 1.2), 3),
])
def test_pointwise_finite_piece_i_is_the_ith_hit_of_each_coset(name, region, lattice, order, lo, hi, seed):
    pts = np.random.default_rng(seed).uniform(lo, hi, size=(200, 2))
    parts = partition_multiwavelet_set(region, lattice, order)
    labels = np.full(len(pts), ".")
    for i, piece in enumerate(parts):
        member, exc = piece.membership(pts)
        assert not exc.any() and not (member & (labels != ".")).any()
        labels[member] = str(i)
    assert "".join(labels) == PINNED_PIECES[name]
    # later pieces name the difference they select from as their base
    assert [p.to_json()["base"] for p in parts] == (
        [region.to_json()] + [{"kind": "analytic", "name": "difference"}] * (order - 1))
    xis = np.random.default_rng(seed).normal(size=(40, 2))
    assert all((translation_counts(p, lattice, xis) == 1).all() for p in parts)


@pytest.mark.parametrize("order", [1, 2])
def test_pointwise_pieces_refuse_a_point_beyond_the_search(order):
    far = BoxUnion.build([((5.0, 5.0), (6.0, 6.0))])
    for piece in partition_multiwavelet_set(far, SKEW, order, search_points=8):
        with pytest.raises(SelectorMiss) as info:
            piece.membership([[5.5, 5.5]])
        assert info.value.radius == 8.0
        assert piece.membership([[0.2, 0.2]])[0].tolist() == [False]


def _conjugates():
    """Ten conjugates ``P^-1 M P`` with cond(P) < 30 per matrix M, from one
    seeded stream of P."""
    g = np.random.default_rng(1)
    out = []
    for name, m in (("diag23", DIAG23), ("spiral", SPIRAL), ("shear", SHEAR), ("diag_half_3", np.diag([0.5, 3.0])),
                    ("diag_quarter_3", np.diag([0.25, 3.0]))):
        for j in range(10):
            p = g.normal(size=(2, 2))
            while np.linalg.cond(p) >= 30:
                p = g.normal(size=(2, 2))
            marks = ()
            if (name, j) == ("shear", 6):
                # the eigenvalue 1 comes out as 1 + 5.7e-9 (a conjugator with entries near 3e6),
                # beyond tol 1e-9, so the set is built as a pushed slab whose
                # certified translates lie near 1e16, where membership refuses
                marks = pytest.mark.xfail(strict=True, reason="conjugated shear classified off the unit circle")
            out.append(pytest.param(np.linalg.inv(p) @ m @ p, id=f"{name}-{j}", marks=marks))
    return out


@pytest.mark.parametrize("a", [
    pytest.param(np.array(rows, dtype=float), id=name) for name, rows in (
        ("lower_triangular_2_3", [[2.0, 0.0], [1.0, 3.0]]), ("lower_shear", [[1.0, 0.0], [1.0, 1.0]]),
        ("rotation_times_2", [[0.0, -2.0], [2.0, 0.0]]), ("spiral", SPIRAL), ("spiral_1_1", [[1.0, 1.0], [-1.0, 1.0]]),
        ("diag23", DIAG23), ("shear", SHEAR), ("diag_quarter_3", np.diag([0.25, 3.0])),
        ("diag_minus_quarter_3", np.diag([-0.25, 3.0])))
] + _conjugates())
def test_order_infinity_certificates_lie_in_the_set(a):
    # a certificate claims Y + gamma inside K: sample the translate
    k = build_order_infinity_set(a, Z2, pieces=4)
    gammas = k.certificates if isinstance(k, ConeSection) else [g for _, _, g in k.certificates]
    u = np.random.default_rng(0).uniform(size=(2000, 2)) @ Z2.dual_basis
    outside = []
    for g in gammas:
        member, exc = k.membership(u + np.asarray(g))
        if not (member & ~exc).all():
            outside.append(g)
    assert len(gammas) == 4 and outside == []


@pytest.mark.parametrize("seed", [91, 47])
@pytest.mark.parametrize("a", [DIAG23, SPIRAL, np.diag([0.5, 0.25])], ids=["real", "spiral", "contracting"])
def test_order_infinity_sets_tile_under_their_matrix(a, seed):
    # an order-infinity set solves like a reshaped one, so the check scans
    # it under the matrix it was built from with outlier windows
    k = build_order_infinity_set(random_conjugate(a, seed)[0], Z2, pieces=4)
    report = check_discrete_tiling(k, samples=2000, seed=3)
    assert report.passed and report.histogram == {1: 2000}
