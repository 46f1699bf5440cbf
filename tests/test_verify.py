import json
import math

import numpy as np
import pytest
from scipy.linalg import block_diag

from xsect.errors import BudgetExceeded
from xsect.sections import build_continuous_section, build_discrete_section, derive_discrete_section
from xsect.shaping import to_finite_measure
from xsect.verify import (check_continuous_tiling, check_discrete_tiling, dilation_counts, jacobian_check,
                          orbit_integral)

from conftest import DIAG21, SHEAR, SPIRAL, imaginary_nilpotent_4d, random_conjugate


def gaussian_density(x):
    x = np.asarray(x, dtype=float)
    n = x.shape[-1]
    return math.exp(-float(x @ x) / 2.0) / (2 * math.pi) ** (n / 2)


def case4_generator(beta=math.pi):
    om = np.array([[0.0, beta], [-beta, 0.0]])
    return np.block([[om, np.eye(2)], [np.zeros((2, 2)), om]])


def test_discrete_tiling_pass_1d():
    report = check_discrete_tiling(build_discrete_section([[2.0]]), samples=5000, seed=11)
    assert report.passed
    assert report.histogram == {1: 5000}


def test_discrete_tiling_detects_gaps():
    # the dyadic interval pair does not tile under A = 3: some orbits skip
    # it entirely, others hit twice
    class Candidate:
        matrix = np.array([[3.0]])

        def membership(self, pts):
            a = np.abs(np.asarray(pts)[:, 0])
            return (a >= 1.0) & (a < 2.0), np.zeros(len(pts), dtype=bool)

    report = check_discrete_tiling(Candidate(), samples=3000, seed=11)
    assert not report.passed
    assert 0 in report.histogram or 2 in report.histogram


def test_discrete_tiling_orthogonal_probe():
    # a rotation preserves norms, so a bounded positive-measure candidate
    # is hit a bounded-away-from-one number of times on most orbits
    class Annulus:
        matrix = np.array([[0.0, 1.0], [-1.0, 0.0]])

        def membership(self, pts):
            r = np.linalg.norm(np.asarray(pts), axis=1)
            return (r >= 0.5) & (r < 1.5), np.zeros(len(pts), dtype=bool)

    report = check_discrete_tiling(Annulus(), samples=2000, seed=13)
    assert not report.passed
    hit = sum(c for m, c in report.histogram.items() if m >= 1)
    wrong = sum(c for m, c in report.histogram.items() if m >= 2)
    assert wrong >= 0.99 * hit


def test_discrete_tiling_shaped_section():
    shaped = to_finite_measure(build_discrete_section(DIAG21))
    report = check_discrete_tiling(shaped, samples=4000, seed=17)
    assert report.passed


def test_discrete_tiling_heavy_tail_widening():
    report = check_discrete_tiling(build_discrete_section(SHEAR), samples=5000, seed=19)
    assert report.passed
    assert report.scan["outlier_windows"] > 0


@pytest.mark.parametrize(
    "generator",
    [
        [[math.log(2.0)]],
        [[1.0, 2 * math.pi], [-2 * math.pi, 1.0]],
        [[0.0, 1.0], [0.0, 0.0]],
        case4_generator(),
    ],
    ids=["scaling", "rotating", "shear", "rotating_shear"],
)
def test_continuous_tiling(generator):
    section = build_continuous_section(generator)
    report = check_continuous_tiling(section, samples=2000, seed=23, grid_subsample=40)
    assert report.passed
    assert report.extras["max_length_deviation"] <= 1e-6
    assert set(report.histogram) == {1}


def test_report_json_is_deterministic():
    s = build_discrete_section(SPIRAL)
    a = check_discrete_tiling(s, samples=2000, seed=5).to_json()
    b = check_discrete_tiling(s, samples=2000, seed=5).to_json()
    assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)
    c = check_discrete_tiling(s, samples=2000, seed=6).to_json()
    assert json.dumps(a, sort_keys=True) != json.dumps(c, sort_keys=True)


@pytest.mark.parametrize(
    "generator",
    [
        [[math.log(2.0), 1.0], [0.0, math.log(2.0)]],
        [[1.0, 2 * math.pi], [-2 * math.pi, 1.0]],
        [[0.0, 1.0], [0.0, 0.0]],
    ],
    ids=["scaling_chain", "rotating", "shear"],
)
def test_orbit_integral_gaussian_2d(generator):
    section = build_continuous_section(generator)
    value = orbit_integral(gaussian_density, section, decay_radius=8.0)
    assert abs(value - 1.0) < 0.01


def test_orbit_integral_gaussian_4d():
    section = build_continuous_section(case4_generator())
    value = orbit_integral(gaussian_density, section, decay_radius=7.0, epsabs=1e-4, epsrel=1e-4)
    assert abs(value - 1.0) < 0.01


def test_orbit_integral_indicator_1d():
    # weight |alpha| delta^t with alpha = ln 2 reproduces the interval length
    section = build_continuous_section([[math.log(2.0)]])

    def indicator(x):
        return 1.0 if 1.0 <= x[0] < 2.0 else 0.0

    value = orbit_integral(indicator, section, decay_radius=4.0, epsabs=1e-6, epsrel=1e-6)
    assert abs(value - 1.0) < 0.01


def test_orbit_integral_zero_field():
    section = build_continuous_section([[math.log(2.0)]])
    assert orbit_integral(lambda x: 0.0, section, decay_radius=4.0) == 0.0


def test_orbit_integral_budget():
    section = build_continuous_section([[1.0, 2 * math.pi], [-2 * math.pi, 1.0]])
    with pytest.raises(BudgetExceeded):
        orbit_integral(gaussian_density, section, decay_radius=8.0, budget=100)


@pytest.mark.parametrize(
    "generator, expect_sign",
    [
        ([[math.log(2.0), 1.0], [0.0, math.log(2.0)]], +1),
        ([[1.0, 2 * math.pi], [-2 * math.pi, 1.0]], -1),
        ([[0.0, 1.0], [0.0, 0.0]], -1),
        (case4_generator(), -1),
    ],
    ids=["scaling_chain", "rotating", "shear", "rotating_shear"],
)
def test_jacobian_check(generator, expect_sign):
    section = build_continuous_section(generator)
    assert jacobian_check(section, points=100, seed=7) <= 1e-6


def test_jacobian_closed_form_shear_value():
    # at (t, s) = (2, 1.5) the closed form is -s * delta^t = -1.5
    section = build_continuous_section([[0.0, 1.0], [0.0, 0.0]])
    trace = 0.0
    s = 1.5
    assert abs(-s * math.exp(trace * 2.0) - (-1.5)) < 1e-15
    assert jacobian_check(section, points=5, seed=1) <= 1e-6


def test_jacobian_closed_form_rotating_shear_value():
    # at (t, p, q, s) = (0.3, 1, 0.5, 0): -beta p delta^t = -pi
    beta = math.pi
    assert abs(-beta * 1.0 * math.exp(0.0) - (-math.pi)) < 1e-15
    section = build_continuous_section(case4_generator(beta))
    assert jacobian_check(section, points=5, seed=2) <= 1e-6


def _rotation(beta):
    return np.array([[0.0, beta], [-beta, 0.0]])


def _conjugated(b, seed=3):
    """``P^-1 B P`` for the first Gaussian ``P`` of ``default_rng(seed)`` with cond(P) < 20."""
    rng = np.random.default_rng(seed)
    while True:
        p = rng.normal(size=b.shape)
        if np.linalg.cond(p) < 20:
            return np.linalg.solve(p, b @ p)


_L2 = math.log(2.0)
FREE_COORDINATE_GENERATORS = {
    "chain3_ln2": ("real_nonzero", np.array([[_L2, 1.0, 0.0], [0.0, _L2, 1.0], [0.0, 0.0, _L2]])),
    "rotating_plus_rotation": ("complex_nonzero", block_diag([[1.0, 2 * math.pi], [-2 * math.pi, 1.0]], _rotation(1.0))),
    "shear_plus_rotation": ("zero_nilpotent", block_diag([[0.0, 1.0], [0.0, 0.0]], _rotation(1.0))),
    "nilpotent_chain3": ("zero_nilpotent", np.array([[0.0, 1.0, 0.0], [0.0, 0.0, 1.0], [0.0, 0.0, 0.0]])),
    "rotating_shear_plus_rotation": ("imaginary_nilpotent", block_diag(case4_generator(), _rotation(1.0))),
}


@pytest.mark.parametrize("conjugate", [False, True], ids=["plain", "conjugated"])
@pytest.mark.parametrize("name", list(FREE_COORDINATE_GENERATORS))
def test_jacobian_check_with_free_coordinates(name, conjugate):
    case, b = FREE_COORDINATE_GENERATORS[name]
    section = build_continuous_section(_conjugated(b) if conjugate else b)
    assert section.case == case
    assert jacobian_check(section, points=50, seed=4) <= 1e-6


def test_jacobian_check_compares_closed_forms_with_the_flow(monkeypatch):
    # a closed form shifted by a constant keeps its Jacobian: only the
    # comparison with the kernel flow of the section point sees it
    section = build_continuous_section([[0.0, 1.0], [0.0, 0.0]])
    chart = section.kind.chart
    closed = chart.point
    monkeypatch.setattr(chart, "point", lambda self, p: closed(self, p) + np.array([0.0, 1.0]))
    assert jacobian_check(section, points=5, seed=1) > 0.1


def test_orbit_integral_reaches_the_jordan_radius_of_the_decay_ball():
    # the conjugator is diag(1, 0.1), so Jordan coordinates stretch x2 by
    # 10: the decay ball of radius 8 reaches Jordan radius 80
    section = build_continuous_section([[0.0, 0.1], [0.0, 0.0]])
    value = orbit_integral(gaussian_density, section, decay_radius=8.0)
    assert abs(value - 1.0) < 0.01


def test_continuous_tiling_on_derived_discrete_sum(rng):
    # the swept section also tiles discretely: Calderon sum equals 1
    for gen in ([[math.log(2.0)]], [[1.0, 2 * math.pi], [-2 * math.pi, 1.0]]):
        t = derive_discrete_section(build_continuous_section(gen))
        report = check_discrete_tiling(t, samples=3000, seed=29)
        assert report.passed


def test_orbit_integral_vs_monte_carlo_oracle():
    # independent oracle: plain Monte Carlo integration of the same field
    section = build_continuous_section([[1.0, 2 * math.pi], [-2 * math.pi, 1.0]])
    value = orbit_integral(gaussian_density, section, decay_radius=8.0)
    rng = np.random.default_rng(31)
    box = 8.0
    pts = rng.uniform(-box, box, size=(1_000_000, 2))
    mc = float(np.mean(np.exp(-np.sum(pts**2, axis=1) / 2.0))) / (2 * math.pi) * (2 * box) ** 2
    assert abs(value - mc) <= 0.01 * max(abs(mc), 1.0)


def test_discrete_witness_is_the_fastest_block_in_either_eigen_order():
    # the same two moduli listed either way round: the modulus-3 block is
    # the witness, so the 1.02 coordinate scales like |x1|**0.018 and no
    # Gaussian point is refused; a modulus-1.02 witness needs tile indices
    # in the hundreds and refuses or misses about half of the samples
    p = np.array([[1.0, 0.4], [-0.3, 1.2]])
    pts = np.random.default_rng(2024).normal(size=(2000, 2))
    for moduli in ([1.02, 3.0], [3.0, 1.02]):
        a = np.linalg.inv(p) @ np.diag(moduli) @ p
        section = build_discrete_section(a)
        witness = section.jordan.blocks[section.block_index]
        assert abs(witness.modulus - 3.0) < 1e-9
        _, _, exc = section.solve(pts)
        assert not exc.any()
        report = check_discrete_tiling(section, samples=10_000)
        assert report.passed
        assert report.skipped_null == 0


def test_continuous_witness_and_tiling_survive_a_permuted_eigen_order():
    # conjugating by a coordinate swap reverses the order in which the
    # eigenvalues -0.043 and -1.26 are listed; witness, refusals and the
    # tiling verdict must not follow that order
    b = np.array([[0.064, -0.502], [0.282, -1.366]])
    swap = np.array([[0.0, 1.0], [1.0, 0.0]])
    pts = np.random.default_rng(2024).normal(size=(2000, 2))
    seen = []
    for gen in (b, swap @ b @ swap):
        section = build_continuous_section(gen)
        alpha = section.jordan.blocks[section.block_index].alpha
        _, _, exc = section.solve(pts)
        report = check_continuous_tiling(section, samples=2000, seed=23, grid_subsample=40)
        seen.append((round(alpha, 6), int(exc.sum()), report.passed, report.skipped_null))
    assert seen[0] == seen[1]
    alpha, refused, passed, skipped = seen[0]
    assert alpha == round(-1.2589975328897315, 6)  # the faster block
    assert refused < 0.05 * len(pts)
    assert passed and skipped < 0.05 * 2000


class _HalfRefused:
    """A region whose solver refuses every other sample."""

    def __init__(self, section):
        self.section = section
        self.matrix = section.matrix

    def membership(self, points):
        return self.section.membership(points)

    def solve(self, points):
        ks, reps, exc = self.section.solve(points)
        exc = exc.copy()
        exc[::2] = True
        return ks, reps, exc


def test_discrete_tiling_fails_when_half_the_samples_are_refused():
    region = _HalfRefused(build_discrete_section([[2.0]]))
    report = check_discrete_tiling(region, samples=1000, seed=0)
    assert report.skipped_null == 500
    assert report.histogram == {1: 500}  # every sample that was kept tiles once
    assert not report.passed


# one fixed non-normal conjugator: the orbit scan must keep the contracting
# directions of P^-1 diag(...) P, which a product carried along the scan loses
_P = np.array([[1.0, 0.4], [-0.3, 1.2]])


def test_discrete_tiling_counts_fresh_powers_of_a_non_normal_matrix():
    # moduli on both sides of 1 (and one modulus 1): every sample hits once
    for moduli in ([2.0, 0.5], [2.0, 1.0]):
        a = np.linalg.inv(_P) @ np.diag(moduli) @ _P
        report = check_discrete_tiling(build_discrete_section(a), samples=10_000, seed=0)
        assert report.histogram == {1: 10_000}, moduli
        assert report.passed
    # the derived section of a continuous generator with eigenvalues of both signs
    derived = derive_discrete_section(build_continuous_section([[0.5, 1.0], [0.2, -0.3]]))
    report = check_discrete_tiling(derived, samples=800, seed=3)
    assert report.histogram == {1: 800}
    assert report.passed


def test_dilation_counts_match_one_power_per_point():
    from xsect.linalg import integer_power

    a = np.linalg.inv(_P) @ np.diag([2.0, 0.5]) @ _P
    section = build_discrete_section(a)
    pts = np.random.default_rng(7).normal(size=(40, 2))
    centres = np.random.default_rng(8).integers(-90, 90, size=40)
    got = dilation_counts(section, a, pts, -30, 30, centres=centres, skip=(-10, 10))
    want = [
        sum(bool(section.membership(pts[i : i + 1] @ integer_power(a, k))[0][0])
            for k in range(c - 30, c + 31) if not -10 <= k <= 10)
        for i, c in enumerate(centres)
    ]
    assert got.tolist() == want


@pytest.mark.parametrize("conjugator_seed, seed", [(1015, 1), (1017, 4), (1018, 4), (1016, 3)])
def test_conjugated_shear_far_tile_indices_count_once(conjugator_seed, seed):
    # the heavy-tailed windows reach |k| of 10^5 to 10^6, where float powers
    # of the rounded conjugated shear miss the section (or exceed the range
    # of integer_power); Jordan powers Q J^k P count every sample once
    g = np.random.default_rng(conjugator_seed)
    while True:
        p = g.normal(size=(2, 2))
        if np.linalg.cond(p) < 50:
            break
    section = build_discrete_section(np.linalg.inv(p) @ SHEAR @ p)
    report = check_discrete_tiling(section, samples=10_000, seed=seed)
    assert report.histogram == {1: 10_000}
    assert report.passed
    # the gauge bracket counts the far windows as the full scan does
    assert report.scan["outlier_windows"] > 0
    assert report.to_json() == check_discrete_tiling(section, samples=10_000, seed=seed, exhaustive=True).to_json()


def test_centred_windows_without_skip_count_every_offset():
    section = build_discrete_section(np.diag([2.0, 0.5]))
    pts = np.random.default_rng(9).normal(size=(30, 2))
    centres = np.random.default_rng(10).integers(-40, 40, size=30)
    for exhaustive in (False, True):
        got = dilation_counts(section, section.matrix, pts, -5, 5, centres=centres, exhaustive=exhaustive)
        # the orbit of xi meets the shell at k = -solve: once within 5 of each centre
        ks = section.solve(pts)[0].astype(int)
        assert got.tolist() == (np.abs(-ks - centres) <= 5).astype(int).tolist()


def _rot(theta):
    return np.array([[math.cos(theta), math.sin(theta)], [-math.sin(theta), math.cos(theta)]])


# one input per discrete case, the 6x6 with free blocks of modulus one, and
# the generators whose unit-time sweeps are derived discrete sections
_GAUGED_DISCRETE = {
    "modulus_not_one": np.array([[2.0, 1.0], [0.0, 2.0]]),
    "contracting_modulus": np.diag([0.5, 0.9]),
    "complex_modulus_not_one": SPIRAL,
    "contracting_spiral": 0.5 * _rot(1.0),
    "real_modulus_one_nilpotent": SHEAR,
    "negative_shear": np.array([[-1.0, 1.0], [0.0, -1.0]]),
    "complex_modulus_one_nilpotent": imaginary_nilpotent_4d(),
    "six_free_blocks": block_diag([[1.6]], _rot(0.7), SHEAR, [[-1.0]]),
}
_GAUGED_GENERATORS = {
    "real_nonzero": [[math.log(2.0), 1.0], [0.0, math.log(2.0)]],
    "complex_nonzero": [[1.0, 2 * math.pi], [-2 * math.pi, 1.0]],
    "zero_nilpotent": [[0.0, 1.0], [0.0, 0.0]],
    "imaginary_nilpotent": case4_generator(),
}


def _gauged_section(name, conjugator_seed):
    derived = name not in _GAUGED_DISCRETE
    m = np.asarray(_GAUGED_GENERATORS[name] if derived else _GAUGED_DISCRETE[name], dtype=float)
    if conjugator_seed is not None:
        m = random_conjugate(m, conjugator_seed)[0]
    if derived:
        return derive_discrete_section(build_continuous_section(m))
    return build_discrete_section(m)


_GAUGED = [(name, seed) for name in [*_GAUGED_DISCRETE, *_GAUGED_GENERATORS] for seed in (None, 1, 2, 3)]


@pytest.mark.parametrize("name, conjugator_seed", _GAUGED)
def test_bracketed_counts_equal_the_full_scan(name, conjugator_seed):
    section = _gauged_section(name, conjugator_seed)
    assert section.kind.gauge(section, np.ones((1, section.n))) is not None
    a = section.matrix
    pts = np.random.default_rng(41).normal(size=(400, section.n))
    base = dilation_counts(section, a, pts, -60, 60)
    assert base.tolist() == dilation_counts(section, a, pts, -60, 60, exhaustive=True).tolist()
    # centred windows around the predicted hit, and around random centres
    hits = -section.solve(pts)[0].astype(int)
    for centres in (hits, np.random.default_rng(42).integers(-200, 200, size=len(pts))):
        kw = dict(centres=centres, skip=(-10, 10))
        assert dilation_counts(section, a, pts, -60, 60, **kw).tolist() == \
            dilation_counts(section, a, pts, -60, 60, exhaustive=True, **kw).tolist()


@pytest.mark.parametrize("name, conjugator_seed", _GAUGED)
def test_bracket_probes_at_most_twelve_powers_per_sample(monkeypatch, name, conjugator_seed):
    from xsect.sections import CrossSection

    section = _gauged_section(name, conjugator_seed)
    rows = []
    membership = CrossSection.membership
    monkeypatch.setattr(CrossSection, "membership", lambda s, pts: rows.append(len(pts)) or membership(s, pts))
    report = check_discrete_tiling(section, samples=2000, seed=5)
    assert report.passed
    assert sum(rows) <= 12 * 2000
