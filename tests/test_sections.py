import itertools
import math
from functools import partial

import numpy as np
import pytest

from xsect.errors import ExceptionalPoint, NoSection
from xsect.linalg import integer_power, jordan_power_rows, one_parameter_power, real_jordan_form
from xsect.sections import (
    PushedSection,
    build_continuous_section,
    build_discrete_section,
    contains,
    derive_discrete_section,
    power_rows,
    section_from_json,
    section_to_json,
    solve_orbit,
)
from xsect.shaping import to_bounded, to_finite_measure
from xsect.wavelet import DilationShiftedSection, Lattice, build_order_infinity_set

from conftest import DIAG21, DIAG23, ROT90, SHEAR, SPIRAL, imaginary_nilpotent_4d, random_conjugate


def omega_block(beta):
    return np.array([[0.0, beta], [-beta, 0.0]])


def continuous_case4_generator(beta=math.pi):
    om = omega_block(beta)
    return np.block([[om, np.eye(2)], [np.zeros((2, 2)), om]])


CONTINUOUS_FIXTURES = {
    "real_nonzero": np.array([[math.log(2.0), 1.0], [0.0, math.log(2.0)]]),
    "complex_nonzero": np.array([[1.0, 2 * math.pi], [-2 * math.pi, 1.0]]),
    "complex_nonzero_contracting": np.array([[-0.7, 2.0], [-2.0, -0.7]]),
    "zero_nilpotent": np.array([[0.0, 1.0], [0.0, 0.0]]),
    "imaginary_nilpotent": continuous_case4_generator(),
}

DISCRETE_FIXTURES = {
    "modulus_not_one": np.array([[2.0, 1.0], [0.0, 2.0]]),
    "modulus_not_one_contracting": np.array([[0.5]]),
    "complex_modulus_not_one": SPIRAL,
    "complex_modulus_not_one_contracting": SPIRAL / 8.0,
    "real_modulus_one_nilpotent": SHEAR,
    "real_modulus_one_nilpotent_neg": np.array([[-1.0, 1.0], [0.0, -1.0]]),
    "complex_modulus_one_nilpotent": imaginary_nilpotent_4d(),
}


# ---------------------------------------------------------------------------
# worked examples


def test_continuous_case1_scalar():
    s = build_continuous_section([[math.log(2.0)]])
    assert contains(s, [1.0]) and contains(s, [-1.0])
    assert not contains(s, [1.5])
    sol = solve_orbit(s, [8.0])
    assert abs(sol.parameter - (-3.0)) < 1e-12
    np.testing.assert_allclose(sol.representative, [1.0], atol=1e-12)


def test_continuous_case1_sign():
    s = build_continuous_section([[math.log(2.0)]])
    sol = solve_orbit(s, [-8.0])
    np.testing.assert_allclose(sol.representative, [-1.0], atol=1e-12)


def test_continuous_case2_quarter_turn():
    s = build_continuous_section([[1.0, 2 * math.pi], [-2 * math.pi, 1.0]])
    # radial span is lambda^(2 pi / beta) = e
    assert abs(s.params["log_span"] - 1.0) < 1e-9
    assert contains(s, [1.0, 0.0]) and contains(s, [2.5, 0.0])
    assert not contains(s, [3.0, 0.0])  # e < 3
    sol = solve_orbit(s, [0.0, 1.0])
    assert abs(sol.parameter - 0.75) < 1e-9
    np.testing.assert_allclose(sol.representative, [math.exp(0.75), 0.0], atol=1e-9)


def test_continuous_case3_shear_flow():
    s = build_continuous_section([[0.0, 1.0], [0.0, 0.0]])
    assert contains(s, [2.0, 0.0]) and contains(s, [-0.3, 0.0])
    assert not contains(s, [2.0, 0.5])
    sol = solve_orbit(s, [2.0, 6.0])
    assert abs(sol.parameter - (-3.0)) < 1e-12
    np.testing.assert_allclose(sol.representative, [2.0, 0.0], atol=1e-12)
    with pytest.raises(ExceptionalPoint):
        contains(s, [0.0, 1.0])


def test_continuous_case4():
    s = build_continuous_section(continuous_case4_generator(beta=math.pi))
    # 2*pi/beta * p = 2 for p = 1
    assert contains(s, [1.0, 0.0, 0.5, 0.0])
    assert not contains(s, [1.0, 0.0, 2.5, 0.0])
    sol = solve_orbit(s, [1.0, 0.0, 2.5, 0.0])
    assert abs(sol.parameter - (-2.0)) < 1e-9
    np.testing.assert_allclose(sol.representative, [1.0, 0.0, 0.5, 0.0], atol=1e-9)


def test_continuous_rotation_has_no_section():
    with pytest.raises(NoSection):
        build_continuous_section(omega_block(1.0))


def test_discrete_case1_interval():
    s = build_discrete_section([[2.0]])
    assert contains(s, [1.5]) and contains(s, [-1.5]) and contains(s, [1.0])
    assert not contains(s, [2.0])  # half-open
    assert not contains(s, [-2.0 - 1e-12])
    sol = solve_orbit(s, [8.0])
    assert sol.parameter == 3
    np.testing.assert_allclose(sol.representative, [1.0], atol=1e-12)


def test_discrete_case1_contracting():
    s = build_discrete_section([[0.5]])
    assert contains(s, [1.5])
    sol = solve_orbit(s, [8.0])
    assert sol.parameter == -3
    np.testing.assert_allclose(sol.representative, [1.0], atol=1e-12)


def test_discrete_case2_spiral():
    s = build_discrete_section(SPIRAL)
    # lambda = 2, beta = pi/2, radial span lambda^(2 pi / beta) = 16
    assert abs(math.exp(s.params["log_span"]) - 16.0) < 1e-9
    sol = solve_orbit(s, [0.0, 5.0])
    assert sol.parameter == 1
    np.testing.assert_allclose(sol.representative, [2.5, 0.0], atol=1e-12)
    assert contains(s, sol.representative)


def test_discrete_case3_shear():
    s = build_discrete_section(SHEAR)
    # S = {(s, s*t): s != 0, 0 <= t < 1}
    assert contains(s, [2.0, 1.0]) and contains(s, [-3.0, -1.5])
    assert not contains(s, [2.0, 2.0]) and not contains(s, [2.0, -0.1])
    sol = solve_orbit(s, [2.0, 7.0])
    assert sol.parameter == 3
    np.testing.assert_allclose(sol.representative, [2.0, 1.0], atol=1e-12)


def test_discrete_case4_membership_consistency():
    a = imaginary_nilpotent_4d()
    s = build_discrete_section(a)
    rng = np.random.default_rng(7)
    pts = rng.normal(size=(200, 4))
    ks, reps, exc = s.solve(pts)
    member, _ = s.membership(reps)
    assert member.all() and not exc.any()


def test_discrete_rotation_has_no_section():
    with pytest.raises(NoSection):
        build_discrete_section(ROT90)


# ---------------------------------------------------------------------------
# tiling properties on every construction


def _scan_counts(section, points, k_lo, k_hi, widen_to_solver=True):
    # widen the window to cover the solver's predictions (tile indices such
    # as floor(x2/x1) are heavy-tailed under Gaussian sampling)
    if widen_to_solver:
        ks, _, exc = section.solve(points)
        good = ks[~exc & np.isfinite(ks)]
        if good.size:
            k_lo = min(k_lo, int(good.min()) - 2)
            k_hi = max(k_hi, int(good.max()) + 2)
    a = section.matrix
    counts = np.zeros(points.shape[0], dtype=int)
    for k in range(k_lo, k_hi + 1):
        shifted = points @ integer_power(a, -k)
        member, _ = section.membership(shifted)
        counts += member.astype(int)
    return counts


@pytest.mark.parametrize("name", sorted(DISCRETE_FIXTURES))
def test_discrete_covering_and_uniqueness(name, rng):
    a = DISCRETE_FIXTURES[name]
    s = build_discrete_section(a)
    pts = rng.normal(size=(1500, a.shape[0]))
    ks, reps, exc = s.solve(pts)
    assert not exc.any()
    member, _ = s.membership(reps)
    assert member.all(), f"{name}: representative not in section"
    counts = _scan_counts(s, pts, -40, 40)
    assert (counts == 1).all(), f"{name}: scan found counts {np.unique(counts)}"


@pytest.mark.parametrize("name", sorted(CONTINUOUS_FIXTURES))
def test_continuous_covering(name, rng):
    b = CONTINUOUS_FIXTURES[name]
    s = build_continuous_section(b)
    pts = rng.normal(size=(1500, b.shape[0]))
    ts, reps, exc = s.solve(pts)
    assert not exc.any()
    member, _ = s.membership(reps)
    assert member.all(), f"{name}: representative not in section"


@pytest.mark.parametrize("name", sorted(CONTINUOUS_FIXTURES))
def test_continuous_uniqueness_via_derived_tiles(name, rng):
    # the swept set {gamma A^t : gamma in S, 0 <= t < 1} must tile under
    # A = exp(B) with multiplicity one; that pins uniqueness of the flow time
    b = CONTINUOUS_FIXTURES[name]
    s = build_continuous_section(b)
    t = derive_discrete_section(s)
    assert t.null_set() == s.null_set()
    pts = rng.normal(size=(800, b.shape[0]))
    counts = _scan_counts(t, pts, -40, 40)
    assert (counts == 1).all(), f"{name}: derived tile counts {np.unique(counts)}"


@pytest.mark.parametrize("name", sorted(CONTINUOUS_FIXTURES))
def test_continuous_disjointness(name, rng):
    b = CONTINUOUS_FIXTURES[name]
    s = build_continuous_section(b)
    inside = s.sample(rng, 500)
    member, _ = s.membership(inside)
    assert member.all(), f"{name}: sampler left the section"
    form = real_jordan_form(b, require_invertible=False)
    for _ in range(200):
        t = rng.uniform(1e-3, 10.0) * rng.choice([-1.0, 1.0])
        moved = inside[rng.integers(len(inside))] @ one_parameter_power(form, t)
        sol = solve_orbit(s, moved)
        # membership may only hold if the closed form maps back to t = 0
        member_now, _ = s.membership(moved.reshape(1, -1))
        if member_now[0]:
            assert abs(sol.parameter) < 1e-9
        else:
            assert abs(sol.parameter + t) < 1e-6 * max(1.0, abs(t))


@pytest.mark.parametrize("name", sorted(DISCRETE_FIXTURES))
def test_discrete_disjointness(name, rng):
    a = DISCRETE_FIXTURES[name]
    s = build_discrete_section(a)
    inside = s.sample(rng, 500)
    member, _ = s.membership(inside)
    assert member.all(), f"{name}: sampler left the section"
    for _ in range(200):
        k = int(rng.integers(1, 8)) * int(rng.choice([-1, 1]))
        moved = inside[rng.integers(len(inside))] @ integer_power(a, k)
        member_now, _ = s.membership(moved.reshape(1, -1))
        assert not member_now[0]


def test_conjugation_transport(rng):
    # a section for A, transported by the conjugation gamma -> gamma P,
    # tiles under P^{-1} A P
    for base in (SPIRAL, SHEAR, np.diag([2.0, 3.0])):
        s = build_discrete_section(base)
        conj, p = random_conjugate(base, 91)
        pts = rng.normal(size=(400, base.shape[0]))
        pinv = np.linalg.inv(p)
        ks, _, exc = s.solve(pts @ pinv)
        assert not exc.any()
        k_lo, k_hi = min(-40, int(ks.min()) - 2), max(40, int(ks.max()) + 2)
        counts = np.zeros(400, dtype=int)
        for k in range(k_lo, k_hi + 1):
            shifted = pts @ integer_power(conj, -k)
            member, _ = s.membership(shifted @ pinv)
            counts += member.astype(int)
        assert (counts == 1).all()


def test_sections_built_from_conjugated_matrices(rng):
    for base in (SPIRAL, SHEAR, np.diag([2.0, 3.0]), imaginary_nilpotent_4d()):
        a, _ = random_conjugate(base, 47)
        s = build_discrete_section(a)
        pts = rng.normal(size=(400, a.shape[0]))
        counts = _scan_counts(s, pts, -40, 40)
        assert (counts == 1).all()


def test_derived_section_of_case1_matches_interval():
    s = build_continuous_section([[math.log(2.0)]])
    t = derive_discrete_section(s)
    assert contains(t, [1.5]) and contains(t, [-1.5]) and contains(t, [1.0])
    assert not contains(t, [2.0]) and not contains(t, [0.5])
    sol = solve_orbit(t, [8.0])
    assert sol.parameter == 3


def test_derived_section_sampler(rng):
    t = derive_discrete_section(build_continuous_section([[1.0, 2 * math.pi], [-2 * math.pi, 1.0]]))
    inside = t.sample(rng, 300)
    member, exc = t.membership(inside)
    assert member.all() and not exc.any()


def test_extreme_scale_points_are_refused_not_wrong(rng):
    # eigenvalues -0.043 and -1.26: some flow times blow the free block up
    # by ~1e29, beyond what an ambient float vector can carry alongside a
    # unit constrained coordinate; those points must come back exceptional,
    # never as a wrong membership verdict
    b = np.array([[0.064, -0.502], [0.282, -1.366]])
    s = build_continuous_section(b)
    pts = np.random.default_rng(2024).normal(size=(2000, 2))
    ts, reps, exc = s.solve(pts)
    member, rep_exc = s.membership(reps[~exc])
    assert (member | rep_exc).all()
    assert exc.sum() < 0.05 * len(pts)  # only the extreme tail is refused


def test_section_json_roundtrip():
    for build, m in (
        (build_discrete_section, SPIRAL),
        (build_discrete_section, SHEAR),
        (build_continuous_section, [[math.log(2.0)]]),
    ):
        s = build(m)
        s2 = section_from_json(section_to_json(s))
        assert s2.case == s.case and s2.mode == s.mode
        np.testing.assert_allclose(s2.jordan.matrix, s.jordan.matrix)
    t = derive_discrete_section(build_continuous_section([[math.log(2.0)]]))
    t2 = section_from_json(section_to_json(t))
    assert t2.case == "derived_from_continuous"
    assert contains(t2, [1.5])


def test_negative_eigenvalue_modulus_case(rng):
    a = np.array([[-2.0]])
    s = build_discrete_section(a)
    pts = rng.normal(size=(800, 1))
    counts = _scan_counts(s, pts, -40, 40)
    assert (counts == 1).all()


def test_mixed_moduli_blocks_still_tile(rng):
    # existence only needs one good block; the contracting one rides along
    for a in (np.diag([2.0, 0.5]), np.diag([-2.0, -0.5])):
        s = build_discrete_section(a)
        pts = rng.normal(size=(800, 2))
        counts = _scan_counts(s, pts, -40, 40)
        assert (counts == 1).all()


def test_case4_with_extra_semisimple_zero_block(rng):
    b5 = np.zeros((5, 5))
    b5[:4, :4] = continuous_case4_generator()
    s = build_continuous_section(b5)
    assert s.case == "imaginary_nilpotent"
    pts = rng.normal(size=(800, 5))
    ts, reps, exc = s.solve(pts)
    member, _ = s.membership(reps)
    assert member.all() and not exc.any()


def test_membership_and_solve_leave_the_serialized_section_unchanged():
    # the equality tolerance reads cond(Q); caching it must not leak into
    # the section's params, or its JSON would depend on call history
    s = build_continuous_section(np.diag([1.0, 2.0]))
    before = s.to_json()
    pts = np.random.default_rng(7).normal(size=(50, 2))
    s.membership(pts)
    s.solve(pts)
    assert s.to_json() == before


def test_tile_index_beyond_a_million_is_solved():
    section = build_discrete_section(SHEAR)
    gamma = np.array([2.0**-22, 1.5 + 2.0**-24])  # x2 / x1 = 6291456.25
    sol = solve_orbit(section, gamma)
    assert sol.parameter == 6_291_456
    assert contains(section, sol.representative)
    assert solve_orbit(section, sol.representative).parameter == 0
    # the representative gamma A^-k is exact in Jordan coordinates
    assert sol.representative.tolist() == [2.0**-22, 2.0**-24]


def test_acting_matrix_is_cached_and_never_serialized():
    # a derived section's matrix is exp(B): one closed-form power, read once
    derived = derive_discrete_section(build_continuous_section([[0.5, 1.0], [0.2, -0.3]]))
    before = derived.to_json()
    assert derived.matrix is derived.matrix
    np.testing.assert_allclose(derived.matrix, one_parameter_power(derived.jordan, 1.0), rtol=0, atol=0)
    assert derived.to_json() == before
    assert derive_discrete_section(derived.base).to_json() == before


def _geometric_member(section, w):
    """The continuous sections as geometric predicates on the witness block's
    Jordan coordinates ``w``: ``|x1| = 1``; the zero-angle ray with the
    radial range [1, Lambda); ``x2 = 0``; the ray with the ``x3`` box
    [0, 2 pi p / beta).  Equalities hold to ``tol`` times the witness scale."""
    tol = section.tol
    if section.case == "real_nonzero":
        return np.abs(np.abs(w[:, 0]) - 1.0) <= tol
    if section.case == "zero_nilpotent":
        return np.abs(w[:, 1]) <= tol * np.maximum(np.abs(w[:, 0]), 1.0)
    r = np.hypot(w[:, 0], w[:, 1])
    on_ray = (np.abs(w[:, 1]) <= tol * np.maximum(r, 1.0)) & (w[:, 0] > 0)
    if section.case == "complex_nonzero":
        logr = np.log(np.where(r > 0, r, 1.0))
        return on_ray & (logr >= 0.0) & (logr < section.params["log_span"])
    return on_ray & (w[:, 2] >= 0.0) & (w[:, 2] < (2 * math.pi / section.params["beta"]) * w[:, 0])


def _witness_radius(section, c):
    w = c[:, section.block.offset :]
    return np.abs(w[:, 0]) if section.kind.pinned == 1 else np.hypot(w[:, 0], w[:, 1])


def _oracle_corpus(section, rng):
    """10^5 Gaussian rows, 10^4 section samples, and 10^4 samples whose
    constrained witness coordinate is nudged by 0.3 to 3 tol, both ways."""
    nudged = section.jordan.to_jordan(section.sample(rng, 10_000))
    at = section.block.offset + (0 if section.case == "real_nonzero" else 1)
    scale = np.maximum(_witness_radius(section, nudged), 1.0)
    nudged[:, at] += rng.choice([-1.0, 1.0], 10_000) * rng.uniform(0.3, 3.0, 10_000) * section.tol * scale
    return np.vstack([rng.normal(size=(100_000, section.n)), section.sample(rng, 10_000),
                      section.jordan.from_jordan(nudged)])


@pytest.mark.parametrize("conjugated", [False, True], ids=["canonical", "conjugated"])
@pytest.mark.parametrize("name", sorted(CONTINUOUS_FIXTURES))
def test_continuous_membership_is_the_geometric_section(name, conjugated):
    # membership reads the flow time; on the same Jordan coordinates it
    # equals the geometric predicates, and it refuses the rows the predicates
    # refused (null band, or float noise above tol times the witness scale),
    # except heavy real_nonzero rows, whose scale is now max(|x1|, 1), not 1
    b = CONTINUOUS_FIXTURES[name]
    section = build_continuous_section(random_conjugate(b, 11)[0] if conjugated else b)
    pts = _oracle_corpus(section, np.random.default_rng(17))
    member, refused = section.membership(pts)
    c = section.jordan.to_jordan(pts)
    w = c[:, section.block.offset :]
    assert np.array_equal(member, _geometric_member(section, w) & ~refused)
    assert member[-20_000:-10_000].all() and 2_000 < member[-10_000:].sum() < 8_000
    norms, rho = np.linalg.norm(c, axis=1), _witness_radius(section, c)
    scale = 1.0 if section.case == "real_nonzero" else np.maximum(rho, 1.0)
    old_refused = (rho <= section.tol * np.maximum(norms, 1.0)) | (
        section.tol * scale < 8.0 * section.jordan.cond * np.finfo(float).eps * norms)
    assert not (refused & ~old_refused).any()
    if section.case != "real_nonzero":
        assert np.array_equal(refused, old_refused)


def test_heavy_real_nonzero_row_is_decided_like_its_solve():
    # Jordan coordinates (1e3, 1e8): float noise of about 2e-7 at norm 1e8 is
    # below the tolerance tol * |x1| = 1e-6, so membership decides the row,
    # a non-member, as solve solves it
    section = build_continuous_section(CONTINUOUS_FIXTURES["real_nonzero"])
    pt = section.jordan.from_jordan([[1e3, 1e8]])
    member, refused = section.membership(pt)
    ts, _, solve_refused = section.solve(pt)
    assert not refused[0] and not member[0]
    assert not solve_refused[0] and ts[0] == pytest.approx(-math.log(1e3) / math.log(2.0))


NONFINITE_REGIONS = {
    **{f"continuous_{k}": partial(build_continuous_section, m) for k, m in CONTINUOUS_FIXTURES.items()},
    **{f"discrete_{k}": partial(build_discrete_section, m) for k, m in DISCRETE_FIXTURES.items()},
    "derived": lambda: derive_discrete_section(build_continuous_section(CONTINUOUS_FIXTURES["complex_nonzero"])),
    "finite_measure": lambda: to_finite_measure(build_discrete_section(np.diag([2.0, 0.9]))),
    "bounded": lambda: to_bounded(build_discrete_section(np.diag([2.0, 3.0]))),
}


@pytest.mark.parametrize("name", sorted(NONFINITE_REGIONS))
def test_non_finite_rows_are_exceptional_without_a_warning(name):
    # nan, inf or -inf in any coordinate, or in all, is refused like the
    # origin (a null-set point, last row); the finite first row answers as
    # it does alone.  The RuntimeWarning filter of the suite fails any warning.
    region = NONFINITE_REGIONS[name]()
    n = region.n
    rows = [np.full(n, 0.7)]
    for bad in (math.nan, math.inf, -math.inf):
        rows += [np.where(np.arange(n) == j, bad, 0.7) for j in range(n)] + [np.full(n, bad)]
    pts = np.array(rows + [np.zeros(n)])
    member, exc = region.membership(pts)
    params, reps, solve_exc = region.solve(pts)
    assert exc[1:].all() and solve_exc[1:].all() and not member[1:].any()
    assert np.isnan(reps[1:]).all()
    alone = (*region.membership(pts[:1]), *region.solve(pts[:1]))
    for got, want in zip((member, exc, params, reps, solve_exc), alone):
        assert got[:1].tobytes() == want.tobytes()


@pytest.mark.parametrize("swept", [False, True], ids=["section", "swept"])
@pytest.mark.parametrize("name", sorted(CONTINUOUS_FIXTURES))
def test_jordan_rows_past_the_float_range_are_refused_without_a_warning(name, swept):
    # rows that a flow carried past the float range (inf, or nan from inf * 0)
    # are refused in Jordan coordinates, as non-finite ambient rows are
    section = build_continuous_section(CONTINUOUS_FIXTURES[name])
    region = derive_discrete_section(section) if swept else section
    n = region.n
    rows = [np.full(n, 0.7)] + [np.where(np.arange(n) == j, bad, 0.7)
                                for bad in (math.nan, math.inf, -math.inf) for j in range(n)]
    flowed = power_rows(region, np.ones((2, n)), [1e308, -1e308])
    member, exc = region.jordan_membership(np.vstack(rows + [flowed]))
    assert exc[1:].all() and not member[1:].any()
    alone = region.jordan_membership(np.array(rows[:1]))
    assert (member[0], exc[0]) == (alone[0][0], alone[1][0])


SLICEABLE = [k for k in sorted(DISCRETE_FIXTURES) if k.startswith(("modulus_not_one", "complex_modulus_not_one"))]
TILED_REGIONS = {
    **{k: partial(build_discrete_section, m) for k, m in DISCRETE_FIXTURES.items()},
    **{f"{k}_conj{seed}": partial(build_discrete_section, random_conjugate(m, seed)[0])
       for k, m in DISCRETE_FIXTURES.items() for seed in (91, 47)},
    **{f"derived_{k}": partial(lambda b: derive_discrete_section(build_continuous_section(b)), m)
       for k, m in CONTINUOUS_FIXTURES.items()},
    **{f"finite_{k}": partial(lambda a: to_finite_measure(build_discrete_section(a)), DISCRETE_FIXTURES[k])
       for k in SLICEABLE},
    **{f"bounded_{k}": partial(lambda a: to_bounded(build_discrete_section(a)), DISCRETE_FIXTURES[k])
       for k in SLICEABLE},
    "order_infinity_cone": lambda: build_order_infinity_set(SHEAR, Lattice.integers(2)),
    "order_infinity_real": lambda: build_order_infinity_set(DIAG23, Lattice.integers(2), pieces=4),
    "order_infinity_spiral": lambda: build_order_infinity_set(SPIRAL, Lattice.integers(2), pieces=4),
}


@pytest.mark.parametrize("name", sorted(TILED_REGIONS))
def test_membership_is_tile_index_zero(name):
    # a discrete cross-section meets each orbit once: a point is a member
    # exactly when its tile index is 0, wherever neither call refuses it
    region = TILED_REGIONS[name]()
    pts = np.random.default_rng(5).normal(size=(2000, region.matrix.shape[0]))
    member, exc = region.membership(pts)
    tile, reps, solve_exc = region.solve(pts)
    both = ~exc & ~solve_exc
    assert both.sum() >= 1900 and member.any()
    assert (member[both] == (tile[both] == 0)).all()
    if isinstance(region, PushedSection):
        # a pushed set's representatives are members and re-solve to tile 0
        rep_member, rep_exc = region.membership(reps[~solve_exc])
        again, _, again_exc = region.solve(reps[~solve_exc])
        assert not rep_exc.any() and not again_exc.any()
        assert rep_member.all() and (again == 0).all()


@pytest.mark.parametrize("a", [DIAG23, SPIRAL], ids=["real", "spiral"])
def test_pushed_membership_is_pushed_tile_index_zero(a):
    # Gaussian points, and lattice points, some of whose representatives
    # round onto an edge of the radial range and are refused
    k = build_order_infinity_set(a, Lattice.integers(2), pieces=4)
    grid = np.stack(np.meshgrid(np.arange(-20.0, 21.0), np.arange(-20.0, 21.0)), axis=-1).reshape(-1, 2)
    pts = np.vstack([np.random.default_rng(6).normal(size=(4000, 2)) * 30.0, grid])
    member, exc = k.membership(pts)
    tile, _, pieces, shifts, refused = k._pushed(k.base._coords(pts))
    assert (exc == refused).all() and member.any() and refused.any()
    assert (member == ((tile == 0) & ~refused)).all() and (shifts[refused] == 0).all()
    assert (pieces[refused] == 0).all() and (pieces[~refused] >= 1).all()


PUSHED_SETS = {
    "order_infinity_real": lambda: build_order_infinity_set(DIAG23, Lattice.integers(2), pieces=4),
    "order_infinity_spiral": lambda: build_order_infinity_set(SPIRAL, Lattice.integers(2), pieces=4),
    "finite_diag21_conj91": lambda: to_finite_measure(build_discrete_section(random_conjugate(DIAG21, 91)[0])),
    "bounded_diag23": lambda: to_bounded(build_discrete_section(DIAG23)),
}


@pytest.mark.parametrize("name", sorted(PUSHED_SETS))
def test_pushed_rows_take_the_shift_of_their_piece(name, monkeypatch):
    # each row's shift is shift(piece), asked once per distinct piece in
    # increasing order; a refused row (the origin, a nan row, a lattice
    # point rounded onto a slab edge) has piece 0 and shift 0
    region = PUSHED_SETS[name]()
    grid = np.stack(np.meshgrid(np.arange(-20.0, 21.0), np.arange(-20.0, 21.0)), axis=-1).reshape(-1, 2)
    pts = np.vstack([np.random.default_rng(7).normal(size=(3000, 2)) * 30.0, grid, [[0.0, 0.0], [math.nan, 1.0]]])
    asked, shift = [], type(region).shift
    monkeypatch.setattr(type(region), "shift", lambda self, i: asked.append(int(i)) or shift(self, i))
    _, _, pieces, shifts, refused = region._pushed(region.base._coords(pts))
    distinct = np.unique(pieces[~refused]).tolist()
    assert asked == distinct and len(distinct) >= 3 and refused[-2:].all()
    assert (pieces[refused] == 0).all() and (shifts[refused] == 0).all()
    assert shifts[~refused].tolist() == [shift(region, i) for i in pieces[~refused]]


SLOW_SPIRAL = np.array([[1.2, -0.5], [0.5, 1.2]])
EDGE_SLABS = {
    **{k: DISCRETE_FIXTURES[k] for k in SLICEABLE},
    # log(x) / log(Lambda) rounds to 1 at x = 5.568140107524721, one float below Lambda
    "lambda_rounds_up": np.array([[5.568140107524722]]),
    "slow_spiral": SLOW_SPIRAL,
    "slow_spiral_contracting": np.linalg.inv(SLOW_SPIRAL),
    **{f"{k}_conj{seed}": random_conjugate(m, seed)[0] for k, m in [("diag2", [[2.0]]), ("spiral", SPIRAL),
                                                                    ("slow_spiral", SLOW_SPIRAL)]
       for seed in (91, 47)},
}


def _slab_edge_points(section):
    """Ambient points whose witness coordinates lie on an edge of the slab or
    one float beside it, pushed by exact powers ``J^k``, ``|k| <= 2``; the
    free coordinates are Gaussian.  The edges are ``|x1| in {1, Lambda}`` for
    a real witness, and the log-radial index at 0 or ``log Lambda`` with the
    angle at 0 or ``omega`` for a spiral."""
    def beside(*edges):
        return [np.nextafter(e, side) for e in edges for side in (-np.inf, e, np.inf)]

    p = section.params
    if section.kind.turns:
        logs, phi = (g.ravel() for g in np.meshgrid(beside(0.0, p["log_span"]), beside(0.0, p["omega"])))
        r = np.exp(logs + phi / p["omega"] * p["mu"])
        lead = np.column_stack([r * np.cos(phi), r * np.sin(phi)])
    else:
        x1 = np.array(beside(1.0, math.exp(p["log_span"])))
        lead = np.concatenate([x1, -x1])[:, None]
    coords = np.random.default_rng(12).normal(size=(5 * len(lead), section.n))
    coords[:, section.block.offset : section.block.offset + len(lead[0])] = np.tile(lead, (5, 1))
    ks = np.repeat(np.arange(-2.0, 3.0), len(lead))
    return section.jordan.from_jordan(jordan_power_rows(section.jordan, coords, ks, integer=True))


@pytest.mark.parametrize("name", sorted(EDGE_SLABS))
def test_slab_edge_membership_is_tile_index_zero(name):
    # membership and the tile index read one phase, so they agree on the
    # points that round onto a slab edge too
    section = build_discrete_section(EDGE_SLABS[name])
    pts = _slab_edge_points(section)
    member, exc = section.membership(pts)
    tile, _, solve_exc = section.solve(pts)
    both = ~exc & ~solve_exc
    assert both.sum() >= 0.9 * len(pts)
    assert (member[both] == (tile[both] == 0)).all()


@pytest.mark.parametrize("name", sorted(TILED_REGIONS))
def test_rows_near_the_float_range_solve_without_a_warning(name):
    # rows near 1e300 square past the float range, but their norms do not:
    # a section refuses none of them, and a pushed set's solve just the rows
    # its base's solve refuses (order_infinity_real's base, diag(2, 3), has
    # every representative in its null band, dwarfed by the free coordinate).
    # An order-infinity set's membership, which forms no representative,
    # refuses what its base's membership refuses, and a reshaped set's, which
    # reads its pieces from the representatives, what its base's solve
    # refuses.  Membership is tile index 0 wherever solve accepts, and the
    # representatives are members, with no float warning (the suite's
    # RuntimeWarning filter fails any warning)
    region = TILED_REGIONS[name]()
    pts = np.random.default_rng(7).normal(size=(200, region.matrix.shape[0])) * 1e300
    member, exc = region.membership(pts)
    tile, reps, solve_exc = region.solve(pts)
    refused = region.base.solve(pts)[2] if isinstance(region, PushedSection) else np.zeros(len(pts), dtype=bool)
    if isinstance(region, DilationShiftedSection):
        assert (exc == region.base.membership(pts)[1]).all()
    else:
        assert (exc == refused).all()
    assert (solve_exc == refused).all()
    assert (member[~refused] == (tile[~refused] == 0)).all()
    assert region.membership(reps[~refused])[0].all()


def _float_range_rows(n):
    """Rows of every pattern of entries +/-1.5e308 and Gaussian ones (three
    draws of each pattern), the all-Gaussian pattern left out."""
    patterns = [p for p in itertools.product([-1.5e308, 1.5e308, None], repeat=n) if any(p)]
    gauss = np.random.default_rng(11).normal(size=(3 * len(patterns), n))
    huge = np.array([[math.nan if x is None else x for x in p] for p in patterns for _ in range(3)])
    return np.where(np.isnan(huge), gauss, huge)


@pytest.mark.parametrize("name", sorted(TILED_REGIONS))
def test_rows_at_the_float_range_read_without_a_warning(name):
    # entries of +/-1.5e308 can take a row's Jordan coordinates, norm or
    # witness radius past the float range, where the row is refused like the
    # origin, and a rotating shear's tile index past it, where the row is
    # refused too; both calls read every row with no float warning (the
    # suite's RuntimeWarning filter fails any warning), solve accepts no row
    # that membership refuses, and membership is tile index 0 wherever solve
    # accepts
    region = TILED_REGIONS[name]()
    pts = _float_range_rows(region.matrix.shape[0])
    member, exc = region.membership(pts)
    tile, _, solve_exc = region.solve(pts)
    assert not (exc & ~solve_exc).any()
    assert (member[~solve_exc] == (tile[~solve_exc] == 0)).all()


@pytest.mark.parametrize("name", sorted(CONTINUOUS_FIXTURES))
def test_continuous_rows_at_the_float_range_read_without_a_warning(name):
    # a flow time times a witness radius past the float range reads inf: the
    # row is a non-member, with no float warning
    section = build_continuous_section(CONTINUOUS_FIXTURES[name])
    pts = _float_range_rows(section.n)
    member, exc = section.membership(pts)
    _, _, solve_exc = section.solve(pts)
    assert not (exc & ~solve_exc).any() and not (member & exc).any()


def test_a_row_whose_squares_overflow_solves():
    # the squared norm of 1e160 overflows, its norm does not
    ts, reps, exc = build_continuous_section([[1.0]]).solve([[1e160], [1e150]])
    assert not exc.any() and reps[:, 0] == pytest.approx([1.0, 1.0], rel=1e-12)
    assert ts == pytest.approx([-160 * math.log(10), -150 * math.log(10)], rel=1e-15)


def test_a_flow_whose_exponent_nears_the_float_range_solves():
    # the flow carries 1e305 by e^(300 t) = e^-702.2, within the float range's
    # e^+/-709.78, to a finite representative: it is solved, not refused
    s = build_continuous_section([[300.0]])
    sol = solve_orbit(s, [1e305])
    assert abs(sol.parameter - (-math.log(1e305) / 300.0)) <= 1e-12
    assert contains(s, sol.representative)
