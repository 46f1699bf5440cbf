"""Acceptance suite: one test per criterion, at full stated scale.

Run ``pytest tests/test_acceptance.py -v`` (or execute this file
directly) to get one pass/fail line per criterion.
"""

import json
import math

import numpy as np
import pytest

from xsect.classify import classify_discrete, is_similar_to_unitary
from xsect.errors import MixedModuli
from xsect.linalg import integer_power
from xsect.sections import build_continuous_section, build_discrete_section, derive_discrete_section
from xsect.shaping import estimate_measure, to_bounded, to_finite_measure
from xsect.verify import check_continuous_tiling, check_discrete_tiling, jacobian_check, orbit_integral
from xsect.wavelet import (
    BoxUnion,
    Lattice,
    build_order_infinity_set,
    dimension_function,
    is_multiwavelet_set,
    partition_multiwavelet_set,
    translation_count,
    translation_counts,
)

from conftest import random_conjugate

SEED = 20240817


def _report(criterion, detail=""):
    print(f"[acceptance] criterion {criterion}: PASS {detail}".rstrip())


def gaussian_density(x):
    x = np.asarray(x, dtype=float)
    n = x.shape[-1]
    return math.exp(-float(x @ x) / 2.0) / (2 * math.pi) ** (n / 2)


def rotation_generator(beta):
    return np.array([[0.0, beta], [-beta, 0.0]])


def case4_generator(beta=math.pi):
    om = rotation_generator(beta)
    return np.block([[om, np.eye(2)], [np.zeros((2, 2)), om]])


def imaginary_nilpotent_4d():
    e = np.array([[0.0, 1.0], [-1.0, 0.0]])
    return np.block([[e, np.eye(2)], [np.zeros((2, 2)), e]])


# criterion 1 -----------------------------------------------------------------

GOLDEN = [
    # (name, matrix, exists, finite_measure, bounded)
    ("scalar_2", [[2.0]], True, True, True),
    ("scalar_half", [[0.5]], True, True, True),
    ("scalar_one", [[1.0]], False, False, False),
    ("scalar_minus_one", [[-1.0]], False, False, False),
    ("rotation", [[0.0, 1.0], [-1.0, 0.0]], False, False, False),
    ("shear", [[1.0, 1.0], [0.0, 1.0]], True, False, False),
    ("diag_2_3", [[2.0, 0.0], [0.0, 3.0]], True, True, True),
    ("diag_2_half", [[2.0, 0.0], [0.0, 0.5]], True, False, False),
    ("diag_2_1", [[2.0, 0.0], [0.0, 1.0]], True, True, False),
    ("spiral", [[0.0, 2.0], [-2.0, 0.0]], True, True, True),
    ("imaginary_nilpotent_4d", imaginary_nilpotent_4d(), True, False, False),
]


def test_criterion_01_classification_golden_table():
    rows = list(GOLDEN)
    # conjugates by random well-conditioned P, same expected verdicts
    for base_name, seed in (("shear", 101), ("diag_2_3", 102), ("spiral", 103)):
        base = dict((n, (m, e, f, b)) for n, m, e, f, b in GOLDEN)[base_name]
        conj, _ = random_conjugate(np.asarray(base[0], dtype=float), seed)
        rows.append((f"{base_name}_conjugated", conj, base[1], base[2], base[3]))
    assert len(rows) == 14
    for name, matrix, exists, finite, bounded in rows:
        v = classify_discrete(matrix)
        stu = is_similar_to_unitary(matrix)
        assert v.exists == exists, name
        assert v.finite_measure == finite, name
        assert v.bounded == bounded, name
        assert v.exists == (not stu), name
    _report(1, "(14 matrices, verdicts + consistency)")


# criterion 2 -----------------------------------------------------------------

DISCRETE_REPS = {
    "modulus_not_one": np.array([[2.0, 1.0], [0.0, 2.0]]),
    "complex_modulus_not_one": np.array([[0.0, 2.0], [-2.0, 0.0]]),
    "real_modulus_one_nilpotent": np.array([[1.0, 1.0], [0.0, 1.0]]),
    "complex_modulus_one_nilpotent": imaginary_nilpotent_4d(),
}
CONTINUOUS_REPS = {
    "real_nonzero": np.array([[math.log(2.0), 1.0], [0.0, math.log(2.0)]]),
    "complex_nonzero": np.array([[1.0, 2 * math.pi], [-2 * math.pi, 1.0]]),
    "zero_nilpotent": np.array([[0.0, 1.0], [0.0, 0.0]]),
    "imaginary_nilpotent": case4_generator(),
}


def test_criterion_02_cross_section_tiling():
    rng = np.random.default_rng(SEED)
    for case, a in DISCRETE_REPS.items():
        section = build_discrete_section(a)
        assert section.case == case
        pts = rng.normal(size=(10_000, a.shape[0]))
        ks, reps, exc = section.solve(pts)
        assert not exc.any()
        member, _ = section.membership(reps)
        assert member.all(), f"{case}: representative outside section"
        report = check_discrete_tiling(section, samples=10_000, seed=SEED)
        assert report.passed, f"{case}: {report.histogram}"
        # disjointness probes
        inside = section.sample(rng, 1000)
        shifts = rng.integers(1, 10, size=1000) * rng.choice([-1, 1], size=1000)
        for k in np.unique(shifts):
            moved = inside[shifts == k] @ integer_power(a, int(k))
            m, _ = section.membership(moved)
            assert not m.any(), case
    for case, b in CONTINUOUS_REPS.items():
        section = build_continuous_section(b)
        assert section.case == case
        pts = rng.normal(size=(10_000, b.shape[0]))
        ts, reps, exc = section.solve(pts)
        assert not exc.any()
        member, _ = section.membership(reps)
        assert member.all(), f"{case}: representative outside section"
        report = check_continuous_tiling(section, samples=10_000, seed=SEED)
        assert report.passed, case
        inside = section.sample(rng, 1000)
        offsets = rng.uniform(1e-3, 10.0, size=1000) * rng.choice([-1.0, 1.0], size=1000)
        from xsect.linalg import one_parameter_power_batch

        flows = one_parameter_power_batch(section.jordan, offsets)
        moved = np.einsum("sj,sjk->sk", inside, flows)
        m, _ = section.membership(moved)
        assert not m.any(), case
    _report(2, "(8 constructions, 1e4 samples each)")


# criterion 3 -----------------------------------------------------------------


class _MembershipRegion:
    def __init__(self, fn, matrix):
        self.fn = fn
        self.matrix = np.asarray(matrix, dtype=float)

    def membership(self, pts):
        pts = np.atleast_2d(np.asarray(pts, dtype=float))
        return np.asarray(self.fn(pts), dtype=bool), np.zeros(len(pts), dtype=bool)


def test_criterion_03_orthogonality_impossibility():
    rot = np.array([[0.0, 1.0], [-1.0, 0.0]])
    candidates = {
        "annulus": lambda p: (np.linalg.norm(p, axis=1) >= 0.5) & (np.linalg.norm(p, axis=1) < 1.5),
        "box": lambda p: (p[:, 0] >= 0.5) & (p[:, 0] < 1.5) & (p[:, 1] >= 0.0) & (p[:, 1] < 1.0),
        "square": lambda p: (np.abs(p) < 1.0).all(axis=1),
        "strip": lambda p: (np.abs(p[:, 0]) < 0.25) & (np.abs(p[:, 1]) < 2.0),
        "sector": lambda p: (np.linalg.norm(p, axis=1) < 2.0) & (p[:, 0] > 0) & (p[:, 1] > 0),
    }
    for name, fn in candidates.items():
        report = check_discrete_tiling(_MembershipRegion(fn, rot), samples=10_000, seed=SEED)
        assert not report.passed, name
        hit = sum(c for m, c in report.histogram.items() if m >= 1)
        wrong = sum(c for m, c in report.histogram.items() if m >= 2)
        assert hit > 0 and wrong >= 0.99 * hit, (name, report.histogram)
    _report(3, "(5 candidates, multiplicity != 1 on >= 99% of hits)")


# criterion 4 -----------------------------------------------------------------


def test_criterion_04_finite_measure_shaping():
    shaped = to_finite_measure(build_discrete_section(np.diag([2.0, 1.0])))
    est = shaped.measure_estimate(samples=1_000_000, seed=SEED)
    assert est.estimate > 0.1  # the estimator actually sees the set
    assert est.estimate + est.tail_bound <= 1.0 + est.bound, (est.estimate, est.bound)
    report = check_discrete_tiling(shaped, samples=10_000, seed=SEED)
    assert report.passed, report.histogram
    _report(4, f"(measure estimate {est.estimate:.4f} +/- {est.bound:.4f} + tail {est.tail_bound:.2e} <= 1)")


# criterion 5 -----------------------------------------------------------------


def test_criterion_05_bounded_shaping():
    rng = np.random.default_rng(SEED)
    shaped = to_bounded(build_discrete_section(np.diag([2.0, 3.0])))
    pts = shaped.sample_pieces(rng, 10_000)
    norms = np.linalg.norm(pts, axis=1)
    assert (norms <= 1.0 + 1e-9).all(), norms.max()
    report = check_discrete_tiling(shaped, samples=10_000, seed=SEED)
    assert report.passed, report.histogram
    with pytest.raises(MixedModuli):
        to_bounded(build_discrete_section(np.diag([2.0, 0.5])))
    _report(5, f"(max piece norm {norms.max():.9f}, mixed moduli rejected)")


# criterion 6 -----------------------------------------------------------------


def test_criterion_06_jacobians_and_orbit_integrals():
    devs = {}
    for case, b in CONTINUOUS_REPS.items():
        section = build_continuous_section(b)
        devs[case] = jacobian_check(section, points=100, seed=SEED)
        assert devs[case] <= 1e-6, (case, devs[case])
    for case in ("real_nonzero", "complex_nonzero", "zero_nilpotent"):
        section = build_continuous_section(CONTINUOUS_REPS[case])
        value = orbit_integral(gaussian_density, section, decay_radius=8.0)
        assert abs(value - 1.0) < 0.01, (case, value)
    section = build_continuous_section(CONTINUOUS_REPS["imaginary_nilpotent"])
    value = orbit_integral(gaussian_density, section, decay_radius=7.0, epsabs=1e-4, epsrel=1e-4)
    assert abs(value - 1.0) < 0.01, value
    worst = max(devs.values())
    _report(6, f"(max Jacobian deviation {worst:.2e}, integrals within 1%)")


# criterion 7 -----------------------------------------------------------------


def test_criterion_07_calderon_identities():
    for case, b in CONTINUOUS_REPS.items():
        section = build_continuous_section(b)
        report = check_continuous_tiling(section, samples=10_000, seed=SEED)
        assert report.passed, case
        assert report.extras["max_length_deviation"] <= 1e-6, case
        derived = derive_discrete_section(section)
        sums = check_discrete_tiling(derived, samples=10_000, seed=SEED)
        assert sums.passed, (case, sums.histogram)
        assert sums.histogram == {1: 10_000 - sums.skipped_null}
    _report(7, "(sweep integrals 1 +/- 1e-6, discrete sums all 1)")


# criterion 8 -----------------------------------------------------------------


def test_criterion_08_wavelet_sets():
    z1 = Lattice.integers(1)
    shannon = BoxUnion.build([((-1.0,), (-0.5,)), ((0.5,), (1.0,))])
    assert is_multiwavelet_set(shannon, [[2.0]], z1, 1, samples=1000, seed=SEED).passed
    two = BoxUnion.build([((-2.0,), (-1.0,)), ((1.0,), (2.0,))])
    assert is_multiwavelet_set(two, [[2.0]], z1, 2, samples=1000, seed=SEED).passed
    parts = partition_multiwavelet_set(two, z1, 2)
    assert parts[0].to_json()["boxes"] == [{"lo": [1.0], "hi": [2.0]}]
    assert parts[1].to_json()["boxes"] == [{"lo": [-2.0], "hi": [-1.0]}]

    k = build_order_infinity_set([[2.0]], z1, pieces=8)
    for i in range(1, 9):
        lo, hi = k.piece_boxes_1d(i)
        assert (lo, hi) == (2 ** (i + 2) - 4, 2 ** (i + 2) - 2), i
    rng = np.random.default_rng(SEED)
    pts = rng.normal(size=(10_000, 1))
    counts = np.zeros(len(pts), dtype=int)
    for j in range(-40, 41):
        member, exc = k.membership(pts * 2.0**j)
        counts += (member & ~exc).astype(int)
    assert (counts == 1).all(), np.unique(counts)
    tc = translation_count(k, z1, [0.3], radius=100.0)
    assert tc.value >= 10

    cone = build_order_infinity_set([[1.0, 1.0], [0.0, 1.0]], Lattice.integers(2), pieces=10)
    assert len(cone.certificates) >= 10

    # the infinite-order partition emits disjoint pieces of multiplicity one
    pieces = partition_multiwavelet_set(k, z1, math.inf, pieces=3)
    grid = rng.uniform(-0.5, 0.5, size=(1000, 1))
    for p in pieces:
        assert (translation_counts(p, z1, grid, radius=80.0) == 1).all()
    _report(8, "(orders 1, 2, and infinity, with certificates)")


# criterion 9 -----------------------------------------------------------------


def test_criterion_09_dimension_function():
    fixtures = [
        BoxUnion.build([((0.0,), (1.5,))]),
        BoxUnion.build([((-2.0,), (-1.0,)), ((1.0,), (2.0,))]),
        BoxUnion.build([((-1.0,), (-0.5,)), ((0.5,), (1.0,))]),
        BoxUnion.build([((-0.5, -0.5), (0.5, 0.5)), ((1.5, 0.0), (2.5, 1.0))]),
        BoxUnion.build([((0.0, 0.0), (2.0, 0.75))]),
    ]
    rng = np.random.default_rng(SEED)
    per_fixture = 200  # 5 fixtures x 200 = 1e3 sampled points
    for w in fixtures:
        n = w.n
        window = np.stack(np.meshgrid(*[np.arange(-8, 9)] * n), axis=-1).reshape(-1, n)
        for _ in range(per_fixture):
            xi = rng.normal(size=n) * 1.5
            member, _ = w.membership(xi + window)
            brute = int(member.sum())
            assert dimension_function(w, xi).value == brute
            shift = rng.integers(-3, 4, size=n).astype(float)
            assert dimension_function(w, xi + shift).value == brute
    _report(9, "(5 fixtures x 200 points vs brute force, periodic)")


# criterion 10 ----------------------------------------------------------------


def test_criterion_10_determinism():
    section = build_discrete_section([[0.0, 2.0], [-2.0, 0.0]])
    a = json.dumps(check_discrete_tiling(section, samples=5000, seed=SEED).to_json(), sort_keys=True)
    b = json.dumps(check_discrete_tiling(section, samples=5000, seed=SEED).to_json(), sort_keys=True)
    assert a == b
    shaped = to_finite_measure(build_discrete_section(np.diag([2.0, 1.0])))
    lo, hi, tail = shaped.bounding_box(max_shell=20)
    e1 = estimate_measure(shaped, lo, hi, samples=50_000, seed=SEED).to_json()
    e2 = estimate_measure(shaped, lo, hi, samples=50_000, seed=SEED).to_json()
    assert json.dumps(e1, sort_keys=True) == json.dumps(e2, sort_keys=True)
    cont = build_continuous_section([[math.log(2.0)]])
    r1 = check_continuous_tiling(cont, samples=2000, seed=SEED).to_json()
    r2 = check_continuous_tiling(cont, samples=2000, seed=SEED).to_json()
    assert json.dumps(r1, sort_keys=True) == json.dumps(r2, sort_keys=True)
    _report(10, "(reports byte-identical under fixed seeds)")


if __name__ == "__main__":
    import sys

    failures = 0
    for name, fn in sorted(globals().items()):
        if name.startswith("test_criterion"):
            try:
                fn()
            except AssertionError as exc:
                failures += 1
                crit = name.split("_")[2]
                print(f"[acceptance] criterion {int(crit)}: FAIL {exc}")
    sys.exit(1 if failures else 0)
