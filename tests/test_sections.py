import math

import numpy as np
import pytest

from xsect.errors import ExceptionalPoint, NoSection
from xsect.linalg import integer_power, one_parameter_power, real_jordan_form
from xsect.sections import (
    build_continuous_section,
    build_discrete_section,
    contains,
    derive_discrete_section,
    section_from_json,
    section_to_json,
    solve_orbit,
)

from conftest import ROT90, SHEAR, SPIRAL, imaginary_nilpotent_4d, random_conjugate


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
