import json
import math
from dataclasses import dataclass, fields

import numpy as np
import pytest
from scipy.linalg import block_diag

from xsect.errors import BudgetExceeded, DetOne, MixedModuli, QuadratureDivergence, UsageError
from xsect.sections import (CrossSection, PushedSection, _Chart, _DerivedFromContinuous, build_continuous_section,
                            build_discrete_section, derive_discrete_section)
from xsect.shaping import to_bounded, to_finite_measure
from xsect.verify import (_OFFSETS, _QUAD_TOL, _RUNGS, _WINDOW, K_RANGE, _confirmed_half_widths, _few_refused,
                          _frame, _moved_membership, _window_counts, check_continuous_tiling, check_discrete_tiling,
                          jacobian_check, orbit_integral, scan_dilations)
from xsect.wavelet import Lattice, build_order_infinity_set

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
    report = check_continuous_tiling(section, samples=2000, seed=23)
    assert report.passed
    assert report.extras["max_length_deviation"] <= 1e-6
    assert set(report.histogram) == {1}


def test_continuous_check_refuses_rows_flowed_past_the_float_range():
    # the +/-5 window flows x1 by e^(+/-1500): a row flowed into the null band
    # |x1| <= tol or past the float range is refused, and fails nothing
    section = build_continuous_section([[300.0]])
    report = check_continuous_tiling(section, samples=200, seed=0)
    assert report.passed and report.histogram == {1: 200} and report.skipped_null == 0
    assert report.extras["cocycle_failures"] == 0
    rng = np.random.default_rng(0)
    rng.normal(size=(200, 1))
    s = rng.uniform(-_WINDOW, _WINDOW, size=(200, _OFFSETS))  # the offsets drawn after the samples
    x1 = 300.0 * s  # log |x1| of the flowed row, whose representative has |x1| = 1
    refused = (x1 <= math.log(section.tol)) | (x1 > math.log(np.finfo(float).max))
    assert report.extras["refused_offsets"] == np.count_nonzero(refused) > 600


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


# every integrable chart: the scaling and rotating charts, with and without
# free coordinates, and the pure shear and rotating shear
INTEGRABLE_GENERATORS = {
    "scaling_chain": np.array([[_L2, 1.0], [0.0, _L2]]),
    "rotating": np.array([[1.0, 2 * math.pi], [-2 * math.pi, 1.0]]),
    "chain3_ln2": FREE_COORDINATE_GENERATORS["chain3_ln2"][1],
    "rotating_plus_rotation": FREE_COORDINATE_GENERATORS["rotating_plus_rotation"][1],
    "shear": np.array([[0.0, 1.0], [0.0, 0.0]]),
    "rotating_shear": case4_generator(),
}


def _chart_parameters(section, pts):
    """Each ambient row's chart parameters: the flow time ``-t`` of the
    solve, as ``x = representative @ exp(-t B)``, and the representative's
    Jordan coordinates as section point, with ``u = t s`` (shear) and
    ``u = t p`` (rotating shear) in place of the time.  The scaling chart
    covers the section points of leading coordinate +1, ``-x`` the rest."""
    ts, reps, refused = section.solve(pts)
    assert not refused.any()
    w, t = section.jordan.to_jordan(reps), -ts
    span = {"real_nonzero": 1, "complex_nonzero": 2, "zero_nilpotent": 2, "imaginary_nilpotent": 4}[section.case]
    off = section.block.offset
    lead, free = w[:, off : off + span], np.delete(w, np.s_[off : off + span], axis=1)
    if section.case == "real_nonzero":
        return np.column_stack([t, free * lead])
    if section.case == "complex_nonzero":
        return np.column_stack([t, lead[:, 0], free])
    if section.case == "zero_nilpotent":
        return np.column_stack([lead[:, 0], t * lead[:, 0], free])
    return np.column_stack([lead[:, 0], lead[:, 3], lead[:, 2], t * lead[:, 0], free])


def _cube_coordinates(chart, p):
    """The point of the unit cube that ``chart.ranges`` maps to each row of
    ``p``, one variable at a time: the interval of variable k is read off
    the images of ``y_k = 0`` and ``y_k = 1``."""
    y = np.full_like(p, 0.5)
    for k in range(p.shape[1]):
        ends = []
        for end in (0.0, 1.0):
            y[:, k] = end
            ends.append(chart.ranges(y)[0][:, k])
        with np.errstate(divide="ignore", invalid="ignore"):
            y[:, k] = (p[:, k] - ends[0]) / (ends[1] - ends[0])
    return y


def _rows_outside_the_cube(b, radius=40.0, samples=2000, seed=8):
    """The number of rows, drawn uniformly in the decay ball, whose chart
    parameters lie outside the image of the unit cube.  The ball is wide
    against the margin of 1 that widens each chord."""
    section = build_continuous_section(b)
    rng = np.random.default_rng(seed)
    g = rng.normal(size=(samples, section.n))
    pts = g / np.linalg.norm(g, axis=1)[:, None] * radius * rng.uniform(size=(samples, 1)) ** (1 / section.n)
    y = _cube_coordinates(section.kind.chart(section, radius), _chart_parameters(section, pts))
    return int(np.count_nonzero(~((y >= 0.0) & (y <= 1.0)).all(axis=1)))


@pytest.mark.parametrize("conjugate", [False, True], ids=["plain", "conjugated"])
@pytest.mark.parametrize("name", list(INTEGRABLE_GENERATORS))
def test_chart_ranges_cover_the_decay_ball(name, conjugate):
    b = INTEGRABLE_GENERATORS[name]
    assert _rows_outside_the_cube(_conjugated(b) if conjugate else b) == 0


# the conjugated scaling chain is left out: its chord, a ratio of Jordan
# coordinates, is a few units wide at any radius, and the margin of 1 covers
# a tenth of it
@pytest.mark.parametrize("name, conjugate", [("scaling_chain", False), ("chain3_ln2", False), ("chain3_ln2", True),
                                             ("rotating_plus_rotation", False), ("rotating_plus_rotation", True)])
def test_chart_coverage_sees_a_chord_narrowed_by_a_tenth(monkeypatch, name, conjugate):
    chord = _Chart.chord

    def narrowed(self, p):
        lo, hi = chord(self, p)
        return lo + 0.05 * (hi - lo), hi - 0.05 * (hi - lo)

    monkeypatch.setattr(_Chart, "chord", narrowed)
    b = INTEGRABLE_GENERATORS[name]
    assert _rows_outside_the_cube(_conjugated(b) if conjugate else b) > 0


# Reference values of the Gaussian's orbit integral: (generator, decay
# radius, epsabs = epsrel or None for the defaults, value).  The rotating and
# shear values are those of the earlier nested-quad orbit_integral
# (scipy.integrate.nquad), but for the conjugated rotating chart, which that
# integrator read off the converged value (0.99641341): its nested-quad value
# at epsabs 1e-10, epsrel 1e-8 is held instead.  A scaling chart's flow time
# starts at log(1e-8) / alpha, which leaves out the slab |w_1| < 1e-8: its
# value is 1 less the slab's Gaussian mass, about 8e-9, as the cubature
# reads it.
ORBIT_INTEGRAL_REFERENCES = {
    "scaling_1d": (np.array([[_L2]]), 8.0, None, 0.9999999920214134),
    "scaling_chain": (INTEGRABLE_GENERATORS["scaling_chain"], 8.0, None, 0.9999999919638495),
    "rotating": (INTEGRABLE_GENERATORS["rotating"], 8.0, None, 0.9999999998402788),
    "shear": (INTEGRABLE_GENERATORS["shear"], 8.0, None, 0.9999999999999996),
    "rotating_shear": (INTEGRABLE_GENERATORS["rotating_shear"], 7.0, 1e-4, 1.0000000000006604),
    "scaling_chain_conjugated": (_conjugated(INTEGRABLE_GENERATORS["scaling_chain"]), 8.0, None, 0.9999999920751402),
    "rotating_conjugated": (_conjugated(INTEGRABLE_GENERATORS["rotating"]), 8.0, None, 0.9999999979289989),
    "shear_conjugated": (_conjugated(INTEGRABLE_GENERATORS["shear"]), 8.0, None, 0.9999999998709047),
    "chain3_ln2": (INTEGRABLE_GENERATORS["chain3_ln2"], 6.0, 1e-4, 0.9999999779058665),
    "chain3_ln2_conjugated": (_conjugated(INTEGRABLE_GENERATORS["chain3_ln2"]), 6.0, 1e-4, 0.9999996642294576),
}


@pytest.mark.parametrize("name", list(ORBIT_INTEGRAL_REFERENCES))
def test_orbit_integral_matches_its_reference_value(name):
    b, radius, eps, expected = ORBIT_INTEGRAL_REFERENCES[name]
    tolerances = {} if eps is None else {"epsabs": eps, "epsrel": eps}
    value = orbit_integral(gaussian_density, build_continuous_section(b), decay_radius=radius, **tolerances)
    assert abs(value - expected) < 1e-4


@pytest.mark.parametrize("name", ["scaling_1d", "scaling_chain", "scaling_chain_conjugated"])
def test_scaling_chart_keeps_the_gaussian_mass_within_the_default_tolerance(name):
    # the slab |w_1| < 1e-8 left out below the time range holds about 8e-9
    b, radius, _, _ = ORBIT_INTEGRAL_REFERENCES[name]
    assert abs(orbit_integral(gaussian_density, build_continuous_section(b), decay_radius=radius) - 1.0) < 1e-6


def test_orbit_integral_that_cannot_converge_exceeds_its_budget():
    # the unit disc's indicator jumps along a curve of the (t, s) chart: no
    # subdivision within 20,000 evaluations reaches a relative error of 1e-14
    section = build_continuous_section([[1.0, 2 * math.pi], [-2 * math.pi, 1.0]])
    with pytest.raises(BudgetExceeded, match="did not converge") as caught:
        orbit_integral(lambda x: 1.0 if x @ x < 1.0 else 0.0, section, decay_radius=4.0, epsabs=0.0,
                       epsrel=1e-14, budget=20_000)
    assert caught.value.evaluations <= 20_000


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
        report = check_continuous_tiling(section, samples=2000, seed=23)
        seen.append((round(alpha, 6), int(exc.sum()), report.passed, report.skipped_null))
    assert seen[0] == seen[1]
    alpha, refused, passed, skipped = seen[0]
    assert alpha == round(-1.2589975328897315, 6)  # the faster block
    assert refused < 0.05 * len(pts)
    assert passed and skipped < 0.05 * 2000


def test_tiling_checks_refuse_zero_samples():
    section = build_continuous_section([[1.0, 0.0], [0.0, 2.0]])
    for check, region in ((check_discrete_tiling, derive_discrete_section(section)),
                          (check_continuous_tiling, section)):
        with pytest.raises(UsageError):
            check(region, samples=0)


def test_discrete_check_of_a_continuous_section_names_the_sweep():
    # the generator's powers are not the action exp(B): its tile indices would be miscounted
    with pytest.raises(ValueError, match="derive_discrete_section"):
        check_discrete_tiling(build_continuous_section([[1.0, 0.0], [0.0, 2.0]]), samples=1000)


@dataclass(frozen=True)
class _HalfRefused(CrossSection):
    """A section whose solver refuses every other sample."""

    def solve(self, points):
        ks, reps, exc = super().solve(points)
        exc = exc.copy()
        exc[::2] = True
        return ks, reps, exc


def test_discrete_tiling_fails_when_half_the_samples_are_refused():
    section = build_discrete_section([[2.0]])
    region = _HalfRefused(**{f.name: getattr(section, f.name) for f in fields(CrossSection)})
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


def test_window_counts_match_one_power_per_point():
    from xsect.linalg import integer_power

    a = np.linalg.inv(_P) @ np.diag([2.0, 0.5]) @ _P
    section = build_discrete_section(a)
    pts = np.random.default_rng(7).normal(size=(40, 2))
    centres = np.random.default_rng(8).integers(-90, 90, size=40)
    got = _window_counts(section, section._coords(pts), centres - 30, centres + 30)
    want = [
        sum(bool(section.membership(pts[i : i + 1] @ integer_power(a, k))[0][0]) for k in range(c - 30, c + 31))
        for i, c in enumerate(centres)
    ]
    assert got.tolist() == want


@pytest.mark.parametrize("conjugator_seed, seed", [(1015, 1), (1017, 4), (1018, 4), (1016, 3)])
def test_conjugated_shear_far_tile_indices_count_once(conjugator_seed, seed):
    # the heavy-tailed windows reach |k| of 10^5 to 10^6, where float powers
    # of the rounded conjugated shear miss the section (or exceed the range
    # of integer_power); exact block powers of the Jordan coordinates count
    # every sample once
    g = np.random.default_rng(conjugator_seed)
    while True:
        p = g.normal(size=(2, 2))
        if np.linalg.cond(p) < 50:
            break
    section = build_discrete_section(np.linalg.inv(p) @ SHEAR @ p)
    report = check_discrete_tiling(section, samples=10_000, seed=seed)
    assert report.histogram == {1: 10_000}
    assert report.passed
    # probing the solved hits counts the far windows as the full scan does
    assert report.scan["outlier_windows"] > 0
    counts, windows, refused = _full_scan(section, np.random.default_rng(seed).normal(size=(10_000, 2)))
    assert (counts == 1).all() and windows == report.scan["outlier_windows"] and not refused.any()
    # the order-infinity cone is that section: it counts the same way
    cone = build_order_infinity_set(np.linalg.inv(p) @ SHEAR @ p, Lattice.integers(2), pieces=4)
    assert check_discrete_tiling(cone, samples=10_000, seed=seed).to_json() == report.to_json()


def test_window_counts_count_every_offset():
    section = build_discrete_section(np.diag([2.0, 0.5]))
    pts = np.random.default_rng(9).normal(size=(30, 2))
    centres = np.random.default_rng(10).integers(-40, 40, size=30)
    got = _window_counts(section, section._coords(pts), centres - 5, centres + 5)
    # the orbit of xi meets the shell at k = -solve: once within 5 of each centre
    ks = section.solve(pts)[0].astype(int)
    assert got.tolist() == (np.abs(-ks - centres) <= 5).astype(int).tolist()
    # an empty window counts 0
    assert _window_counts(section, section._coords(pts), centres, centres - 1).tolist() == [0] * 30


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


def _full_scan(region, pts):
    """The reference of the bracketed scan, in per-row windows: every row
    takes the base window ``K_RANGE``, and a row whose hit ``h`` lies within
    2 of its edge or past it also takes ``h + K_RANGE``, less the base window.  Counts, outlier windows, refused rows."""
    k_lo, k_hi = K_RANGE
    ks, _, refused = region.solve(pts)
    hits = -np.where(refused, 0, ks).astype(int)
    far = (hits < k_lo + 2) | (hits > k_hi - 2)
    coords = _frame(region)._coords(pts)
    counts = _window_counts(region, coords, np.full(len(pts), k_lo), np.full(len(pts), k_hi))
    lo, hi = hits[far] + k_lo, hits[far] + k_hi
    below = _window_counts(region, coords[far], lo, np.minimum(hi, k_lo - 1))
    above = _window_counts(region, coords[far], np.maximum(lo, k_hi + 1), hi)
    counts[far] += below + above
    return counts, int(np.count_nonzero(far)), refused


def _assert_bracketed_counts_equal_the_full_scan(region, pts):
    """The probes at each row's solved hit count what the base window and
    the centred window of a far hit count: counts, windows and refused rows."""
    counts, windows, refused = scan_dilations(region, region.matrix, pts)
    full = _full_scan(region, pts)
    assert (counts.tolist(), windows, refused.tolist()) == (full[0].tolist(), full[1], full[2].tolist())


def _tile_edge_rows(section, rng, segments=200):
    """Rows on both sides of the edge between two adjacent tiles, within
    rounding of it: each segment between two Gaussian rows is halved 60
    times, keeping ends of different tile indices, and kept if its ends are
    solved and their indices differ by one.  Moved to its hit, such a row
    may leave the tile by a rounding, which the bracket's neighbours
    ``h +/- 1`` absorb.  (Where a spiral's or a rotating shear's index
    jumps by more, at the wrap of its angle, the solved hit can lie more
    than one power from the orbit's member: a measure-zero defect.)"""
    p, q = rng.normal(size=(2, segments, section.n))
    lo, hi = np.zeros(segments), np.ones(segments)
    k0 = section.solve(p)[0]
    for _ in range(60):
        mid = (lo + hi) / 2
        same = section.solve(p + mid[:, None] * (q - p))[0] == k0
        lo, hi = np.where(same, mid, lo), np.where(same, hi, mid)
    below, above = p + lo[:, None] * (q - p), p + hi[:, None] * (q - p)
    (k_below, _, r_below), (k_above, _, r_above) = section.solve(below), section.solve(above)
    keep = (np.abs(k_below - k_above) == 1) & ~r_below & ~r_above
    return np.vstack([below[keep], above[keep]])


@pytest.mark.parametrize("name, conjugator_seed", _GAUGED)
def test_bracketed_counts_equal_the_full_scan(name, conjugator_seed):
    section = _gauged_section(name, conjugator_seed)
    w = np.ones((1, section.n))
    assert section.kind.gauge(section, w, np.zeros(1, dtype=bool), section.kind.radius(section, w)) is not None
    edges = _tile_edge_rows(section, np.random.default_rng(42))
    assert len(edges) >= 40
    gaussian = np.random.default_rng(41).normal(size=(400, section.n))
    _assert_bracketed_counts_equal_the_full_scan(section, np.vstack([gaussian, edges]))


def test_a_probe_past_the_float_range_is_a_refused_non_member():
    # the null-set row's base window reaches 1e6^60: its probes leave the
    # float range and count as refused non-members, and the other row still counts
    section = build_discrete_section(np.diag([1e6, 2.0]))
    counts, windows, refused = scan_dilations(section, section.matrix, np.array([[0.0, 1.0], [0.3, 0.7]]))
    assert (counts.tolist(), windows, refused.tolist()) == ([0, 1], 0, [True, False])


def _membership_rows_per_sample(monkeypatch, region, cls):
    """The tiling report of 2000 samples, and the rows per sample passed to
    ``cls.jordan_membership`` to count them."""
    rows = []
    membership = cls.jordan_membership
    monkeypatch.setattr(cls, "jordan_membership", lambda s, coords: rows.append(len(coords)) or membership(s, coords))
    return check_discrete_tiling(region, samples=2000, seed=5), sum(rows) / 2000


# a sample's bracket is its hit and one power on each side, whether the hit
# lies in the base window or in an outlier window
@pytest.mark.parametrize("name, conjugator_seed", _GAUGED)
def test_bracket_probes_at_most_three_powers_per_sample(monkeypatch, name, conjugator_seed):
    report, rows = _membership_rows_per_sample(monkeypatch, _gauged_section(name, conjugator_seed), CrossSection)
    assert report.passed
    assert 0 < rows <= 3  # 0 would mean the probes bypassed jordan_membership


# the targets reshaping accepts for each sliceable input of _GAUGED_DISCRETE:
# the six free blocks have moduli on both sides of 1, so no bounded set
_RESHAPED = {
    "modulus_not_one": ("finite", "bounded"),
    "contracting_modulus": ("finite", "bounded"),
    "complex_modulus_not_one": ("finite", "bounded"),
    "contracting_spiral": ("finite", "bounded"),
    "six_free_blocks": ("finite",),
}
_RESHAPE = {"finite": to_finite_measure, "bounded": to_bounded}
# order-infinity sets with a sliceable base: the dyadic set of [[2]], a slow
# spiral (a quarter of a turn in four powers) and a fast one
_ORDER_INFINITY = {"dyadic": [[2.0]], "slow_spiral": [[1.2, -0.5], [0.5, 1.2]], "spiral": SPIRAL}


def test_reshaping_accepts_only_the_listed_targets():
    for name in _GAUGED_DISCRETE:
        section = _gauged_section(name, None)
        for target, reshape in _RESHAPE.items():
            if target in _RESHAPED.get(name, ()):
                assert section.kind.sliceable
                reshape(section)
            else:
                with pytest.raises((DetOne, MixedModuli, ValueError)):
                    reshape(section)


def _pushed_set(name, target, conjugator_seed):
    if target == "order_infinity":
        m = np.asarray(_ORDER_INFINITY[name], dtype=float)
        return build_order_infinity_set(m, Lattice.integers(len(m)), pieces=4)
    return _RESHAPE[target](_gauged_section(name, conjugator_seed))


def _base_refused_rows(base):
    """Two rows the base solve refuses: the witness coordinates 0 (the null
    set) and 1e-17, every other Jordan coordinate 1."""
    coords = np.ones((2, base.n))
    witness = slice(base.block.offset, base.block.offset + base.kind.pinned)
    coords[0, witness], coords[1, witness] = 0.0, 1e-17
    return base.jordan.from_jordan(coords)


_PUSHED = [(name, target, seed) for name, targets in _RESHAPED.items() for target in targets
           for seed in (None, 1, 2, 3)] + [(name, "order_infinity", None) for name in _ORDER_INFINITY]


@pytest.mark.parametrize("name, target, conjugator_seed", _PUSHED)
def test_pushed_bracketed_counts_equal_the_full_scan(name, target, conjugator_seed):
    region = _pushed_set(name, target, conjugator_seed)
    pts = np.vstack([np.random.default_rng(41).normal(size=(200, region.n)), _base_refused_rows(region.base)])
    _assert_bracketed_counts_equal_the_full_scan(region, pts)
    # a refused row keeps every power: its orbit may still be solved, and hit, elsewhere
    assert scan_dilations(region, region.matrix, pts)[2][-2:].all()


# the scan's one solve and three probes per sample each push the sample once
@pytest.mark.parametrize("name, target, conjugator_seed", _PUSHED)
def test_pushed_scan_pushes_each_sample_at_most_four_times(monkeypatch, name, target, conjugator_seed):
    region = _pushed_set(name, target, conjugator_seed)
    rows = []
    pushed = PushedSection._pushed
    monkeypatch.setattr(PushedSection, "_pushed", lambda s, coords: rows.append(len(coords)) or pushed(s, coords))
    check_discrete_tiling(region, samples=2000, seed=5)
    assert sum(rows) / 2000 <= 4


@pytest.mark.parametrize("name, target, conjugator_seed", _PUSHED)
def test_pushed_bracket_probes_at_most_three_powers_per_sample(monkeypatch, name, target, conjugator_seed):
    region = _pushed_set(name, target, conjugator_seed)
    assert 0 < _membership_rows_per_sample(monkeypatch, region, type(region))[1] <= 3


# the continuous check's edges: the closed-form edge decides the far halvings,
# reads at both ends of the bracket they leave confirm it

# the continuous generators of the tiling benchmark: the four cases conjugated,
# and the generator whose eigenvalues list the slow block first
_TILING_GENERATORS = {
    "real_nonzero": random_conjugate([[_L2, 1.0], [0.0, _L2]], 1)[0],
    "complex_nonzero": random_conjugate([[1.0, 2 * math.pi], [-2 * math.pi, 1.0]], 1)[0],
    "zero_nilpotent": random_conjugate([[0.0, 1.0], [0.0, 0.0]], 1)[0],
    "imaginary_nilpotent": random_conjugate(case4_generator(), 1)[0],
    "eig_order": np.array([[0.064, -0.502], [0.282, -1.366]]),
}
_BISECTED = {**_TILING_GENERATORS,
             **{name: b for name, (_, b) in FREE_COORDINATE_GENERATORS.items()},
             **{f"{name}_conjugated": _conjugated(b) for name, (_, b) in FREE_COORDINATE_GENERATORS.items()}}


# the full bisection halves a bracket of 2e-3 around an edge this many times,
# and its result lies within its resolution of a membership flip
_FULL_HALVINGS = 46
_FULL_RESOLUTION = 2e-3 * 2.0**-_FULL_HALVINGS


def _full_bisection(derived, coords, t_false, t_true):
    """The edge with a membership read at every halving of ``[t_false, t_true]``."""
    a, b = t_false, t_true
    for _ in range(_FULL_HALVINGS):
        mid = 0.5 * (a + b)
        member = _moved_membership(derived, coords, mid)
        a, b = np.where(member, a, mid), np.where(member, mid, b)
    return 0.5 * (a + b)


def _edge_rows(section, samples, seed):
    """The swept set, the samples' Jordan coordinates twice, their closed left
    then open right edges, and each edge's outward side, as the check
    confirms them."""
    pts = np.random.default_rng(seed).normal(size=(samples, section.n))
    ts, _, exc = section.solve(pts)
    ts, coords = ts[~exc], section.jordan.to_jordan(pts[~exc])
    return (derive_discrete_section(section), np.concatenate([coords, coords]), np.concatenate([ts, ts + 1.0]),
            np.repeat([-1.0, 1.0], len(ts)))


@pytest.mark.parametrize("name", list(_BISECTED))
def test_every_edge_confirms_around_the_full_bisection(name):
    derived, coords, edges, outward = _edge_rows(build_continuous_section(_BISECTED[name]), 2000, 3)
    half = _confirmed_half_widths(derived, coords, edges, outward)
    assert np.isfinite(half).all()
    full = _full_bisection(derived, coords, edges + 1e-3 * outward, edges - 1e-3 * outward)
    assert (np.abs(full - edges) <= half + _FULL_RESOLUTION).all()


def _patch_swept_phase(monkeypatch, shift=0.0, scale=1.0):
    """Make the swept set's phase ``u * scale + shift``: its edges move from
    the closed-form flow times, which still come from the unpatched section."""
    gauge = _DerivedFromContinuous.gauge

    def patched(self, section, w, exceptional, rho):
        u, s = gauge(self, section, w, exceptional, rho)
        return u * scale + shift, s

    monkeypatch.setattr(_DerivedFromContinuous, "gauge", patched)


_SPIRAL_GENERATOR = [[1.0, 2 * math.pi], [-2 * math.pi, 1.0]]


@pytest.mark.parametrize("shift, rung", [(1e-15, 1e-13), (1e-13, 1e-12), (1e-9, 1e-8)])
def test_a_shifted_edge_confirms_at_the_rung_its_shift_needs(monkeypatch, shift, rung):
    # every flip moves by the shift, up to the phase's rounding: no edge
    # confirms at a half-width below that, nor past the first rung wider than
    # the shift (a rung equal to it reads on the flip)
    _patch_swept_phase(monkeypatch, shift=shift)
    derived, coords, edges, outward = _edge_rows(build_continuous_section(_SPIRAL_GENERATOR), 2000, 3)
    half = _confirmed_half_widths(derived, coords, edges, outward)
    assert (half > shift - 1e-15).all() and (half <= rung + np.spacing(np.abs(edges))).all()


def test_confirmation_reads_at_most_4_times_per_edge(monkeypatch):
    # two reads at each rung tried, the rows left unconfirmed only
    derived, coords, edges, outward = _edge_rows(build_continuous_section(_SPIRAL_GENERATOR), 2000, 3)
    reads = []

    def counting(region, rows, ps):
        reads.append(len(rows))
        return _moved_membership(region, rows, ps)

    monkeypatch.setattr("xsect.verify._moved_membership", counting)
    half = _confirmed_half_widths(derived, coords, edges, outward)
    assert np.isfinite(half).all()
    assert len(reads) <= len(_RUNGS) and reads[0] == 2 * len(edges)
    assert sum(reads) <= 4 * len(edges)


def test_an_edge_off_by_1e_9_confirms_and_the_check_passes(monkeypatch):
    # both edges move 1e-9 and confirm at 1e-9 or 1e-8, which bounds the
    # length within 2e-8
    _patch_swept_phase(monkeypatch, shift=1e-9)
    report = check_continuous_tiling(build_continuous_section(_SPIRAL_GENERATOR), samples=2000, seed=1)
    assert report.passed and report.histogram == {1: 2000}
    assert report.extras["max_edge_deviation"] == pytest.approx(1e-8, rel=1e-3)
    assert 1e-9 < report.extras["max_length_deviation"] <= 2e-8 * (1 + 1e-3)


def test_continuous_check_refuses_a_swept_set_whose_edges_are_off(monkeypatch):
    # no rung up to the tolerance confirms an edge moved past it
    for shift in (2 * _QUAD_TOL, 1e-4):
        _patch_swept_phase(monkeypatch, shift=shift)
        with pytest.raises(QuadratureDivergence, match="edge"):
            check_continuous_tiling(build_continuous_section(_SPIRAL_GENERATOR), samples=2000, seed=1)
        monkeypatch.undo()


def test_continuous_check_refuses_a_sweep_whose_length_is_off(monkeypatch):
    # the two edges of each sample move about 5e-7 apart: each confirms at
    # the 1e-6 rung, within the tolerance, and the length they bound does not
    _patch_swept_phase(monkeypatch, shift=-5e-7, scale=1.0 + 1e-6)
    with pytest.raises(QuadratureDivergence, match="length"):
        check_continuous_tiling(build_continuous_section(_SPIRAL_GENERATOR), samples=2000, seed=1)


def test_grid_subsample_changes_no_byte_of_the_report():
    # the tiling benchmark still passes the ignored keyword
    section = build_continuous_section(_SPIRAL_GENERATOR)
    report = check_continuous_tiling(section, samples=500, seed=1, grid_subsample=50)
    assert json.dumps(report.to_json()) == json.dumps(check_continuous_tiling(section, samples=500, seed=1).to_json())


# the reference of the cocycle check: a subsample flowed to every time of a
# dense grid over the window, where each row's swept membership must be one run
_GRID_STEP = 1e-3


def _grid_runs_bad(section, samples, seed, subsample):
    """The number of the check's first ``subsample`` kept samples whose swept
    membership on the dense grid around their flow time is not one run."""
    derived = derive_discrete_section(section)
    pts = np.random.default_rng(seed).normal(size=(samples, section.n))
    ts, _, exc = section.solve(pts)
    coords = section.jordan.to_jordan(pts[~exc])[:subsample]
    grid = np.arange(-_WINDOW, _WINDOW + _GRID_STEP / 2, _GRID_STEP)
    runs_bad = 0
    for row, t in zip(coords, ts[~exc]):
        member = _moved_membership(derived, np.repeat(row[None], len(grid), axis=0), t + grid)
        runs_bad += int(np.count_nonzero(np.diff(member.astype(int))) > 2 or not member.any())
    return runs_bad


def _grid_verdict(section, report, subsample=50):
    """The check's verdict with the dense grid, on ``subsample`` samples as the
    tiling benchmark runs it, in place of the cocycle."""
    return (not report.failures and _few_refused(report.skipped_null, report.samples)
            and _grid_runs_bad(section, report.samples, report.seed, subsample) == 0)


_CONTINUOUS_TILING = {"scaling": [[_L2]], "rotating": _SPIRAL_GENERATOR, "shear": [[0.0, 1.0], [0.0, 0.0]],
                      "rotating_shear": case4_generator(), **_TILING_GENERATORS}


@pytest.mark.parametrize("name", list(_CONTINUOUS_TILING))
def test_cocycle_verdict_is_the_dense_grid_verdict(name):
    section = build_continuous_section(_CONTINUOUS_TILING[name])
    report = check_continuous_tiling(section, samples=2000, seed=23)
    assert report.passed == _grid_verdict(section, report)
    assert report.extras["cocycle_failures"] == 0 and report.extras["max_cocycle_deviation"] < 1e-9


def _add_swept_run(monkeypatch, radii):
    """Make the spiral's swept set also hold the phases ``[2.5, 3)``, flow times
    ``t_c + 2.5`` to ``t_c + 3`` from the section, on the orbits whose
    representative has one of the witness ``radii`` (a flow invariant), as
    :func:`_patch_swept_phase` patches the phase."""
    gauge = _DerivedFromContinuous.gauge

    def patched(self, section, w, exceptional, rho):
        u, s = gauge(self, section, w, exceptional, rho)
        rep = rho * np.exp(-section.params["alpha"] * u)  # the radius at flow time -u from the row
        keyed = np.isclose(rep[:, None], radii[None, :], rtol=1e-9, atol=0.0).any(axis=1)
        return np.where(keyed & (u >= 2.5) & (u < 3.0), 0.5, u), s

    monkeypatch.setattr(_DerivedFromContinuous, "gauge", patched)


def test_continuous_check_sees_an_extra_swept_run_past_the_grid_subsample(monkeypatch):
    # one orbit in 50 past the first 200 samples, which the grid reference
    # reads, gets an extra member run away from both edges: the bisection,
    # the branch candidates and the grid all miss it
    section = build_continuous_section(_SPIRAL_GENERATOR)
    pts = np.random.default_rng(1).normal(size=(2000, 2))
    _, reps, exc = section.solve(pts)
    assert not exc.any()
    radii = np.hypot(*section.jordan.to_jordan(reps).T)
    keyed = radii[200::50]
    assert not np.isclose(radii[:200, None], keyed[None, :], rtol=1e-6, atol=0.0).any()
    _add_swept_run(monkeypatch, keyed)
    report = check_continuous_tiling(section, samples=2000, seed=1)
    assert report.histogram == {1: 2000} and _grid_verdict(section, report, subsample=200)
    assert 0 < report.extras["cocycle_failures"] <= len(keyed)
    assert report.extras["max_cocycle_deviation"] < 1e-9
    assert not report.passed
