import math

import numpy as np
import pytest

from xsect.errors import DetOne, ExceptionalPoint, MixedModuli, SearchExhausted
from xsect.linalg import box_corners, integer_power
from xsect.sections import (
    build_continuous_section,
    build_discrete_section,
    contains,
    derive_discrete_section,
    solve_orbit,
)
from xsect.shaping import (
    ShellPartition,
    _euclid_radius,
    estimate_measure,
    to_bounded,
    to_finite_measure,
)

from conftest import DIAG21, DIAG23, DIAG2_HALF, SPIRAL, random_conjugate


def test_shell_partition_closed_form():
    shell = ShellPartition(dim=2)
    pts = np.array([[0.2, 0.3], [1.0, 0.0], [1.9, -1.2], [2.0, 0.0], [3.9, 0.1], [4.0, 0.0]])
    np.testing.assert_array_equal(shell.index_of(pts), [1, 2, 2, 3, 3, 4])
    # shells are disjoint and exhaustive by construction; volumes positive
    assert shell.volume(1) == 4.0
    assert shell.volume(2) == 16.0 - 4.0
    assert shell.volume(3) == 64.0 - 16.0


@pytest.mark.parametrize("dim", range(1, 7))
def test_shell_index_equals_its_axis_reduction(dim):
    # index_of takes the sup-norm column by column; it must agree with the
    # reduction over the last axis, also on the shell edges 1, 2 and 4
    g = np.random.default_rng(dim)
    edges = np.array([0.0, -0.0, 0.5, 1.0, -1.0, 2.0, -2.0, 4.0, 3.999, 1e300])
    pts = np.vstack([g.normal(size=(500, dim)) * 3.0, g.choice(edges, size=(500, dim))])
    r = np.max(np.abs(pts), axis=-1)
    want = np.where(r < 1.0, 1, np.floor(np.log2(np.maximum(r, 1.0))).astype(int) + 2)
    np.testing.assert_array_equal(ShellPartition(dim=dim).index_of(pts), want)


def test_shell_sampler_stays_in_shell(rng):
    shell = ShellPartition(dim=3)
    for k in (1, 2, 4):
        pts = shell.sample(rng, k, 500)
        r = np.max(np.abs(pts), axis=1)
        assert (r < shell.sup_radius(k)).all()
        if k > 1:
            assert (r >= shell.sup_radius(k) / 2).all()


def test_a_shell_partition_of_no_dimensions_is_one_point():
    # with no free coordinates every row lies in shell 1, and a shell sample
    # is the empty row: drawn without advancing the generator
    shell = ShellPartition(dim=0)
    np.testing.assert_array_equal(shell.index_of(np.zeros((3, 0))), [1, 1, 1])
    assert shell.volume(1) == shell.volume(5) == 1.0
    rng = np.random.default_rng(3)
    state = rng.bit_generator.state
    for k in (1, 2):
        assert shell.sample(rng, k, 4).shape == (4, 0)
    assert rng.bit_generator.state == state


def test_finite_measure_diag21_worked_example():
    # A = diag(2, 1): slab ([1,2) u (-2,-1]) x R, delta = 2,
    # T_1 the unit interval, m(S_1) = 4, d_1 = 1/2 -> n_1 = -3
    shaped = to_finite_measure(build_discrete_section(DIAG21))
    assert shaped.delta == 2.0
    assert abs(shaped.piece_measure_bound(1) - 4.0) < 1e-9
    assert shaped.shift(1) == -3
    # piece S_1 A^-3 has measure 1/2
    assert abs(shaped.weight(1) - 0.5) < 1e-15
    assert contains(shaped, [0.15, 0.5])
    assert not contains(shaped, [1.2, 0.5])  # its piece was shifted away
    with pytest.raises(ExceptionalPoint):
        contains(shaped, [0.0, 1.0])


def test_finite_measure_rejects_det_one():
    with pytest.raises(DetOne):
        to_finite_measure(build_discrete_section(DIAG2_HALF))


def test_shaped_solve_composes_shift():
    shaped = to_finite_measure(build_discrete_section(DIAG21))
    sol = solve_orbit(shaped, [1.2, 0.5])
    assert sol.parameter == 3  # base tile 0 minus shift -3
    np.testing.assert_allclose(sol.representative, [0.15, 0.5], atol=1e-12)
    assert contains(shaped, sol.representative)


@pytest.mark.parametrize("matrix", [DIAG21, DIAG23, SPIRAL], ids=["diag21", "diag23", "spiral"])
def test_shaped_tiling_preserved(matrix, rng):
    shaped = to_finite_measure(build_discrete_section(matrix))
    pts = rng.normal(size=(800, matrix.shape[0]))
    params, reps, exc = shaped.solve(pts)
    assert not exc.any()
    member, _ = shaped.membership(reps)
    assert member.all()
    # scan: exactly one tile hit per sample
    lo = int(params.min()) - 2
    hi = int(params.max()) + 2
    counts = np.zeros(len(pts), dtype=int)
    for k in range(min(lo, -60), max(hi, 60) + 1):
        member, _ = shaped.membership(pts @ integer_power(matrix, -k))
        counts += member.astype(int)
    assert (counts == 1).all()


def test_piece_disjointness_index_is_function(rng):
    shaped = to_finite_measure(build_discrete_section(DIAG23))
    pts = shaped.sample_pieces(rng, 500)
    member, exc = shaped.membership(pts)
    assert member.all() and not exc.any()


def test_measure_estimate_1d_interval():
    s = build_discrete_section([[2.0]])
    est = estimate_measure(s, [-2.0], [2.0], samples=100_000, seed=11)
    assert abs(est.estimate - 2.0) <= est.bound + 0.02


def test_measure_estimate_empty_region():
    class Empty:
        def membership(self, pts):
            m = np.zeros(len(pts), dtype=bool)
            return m, m

    est = estimate_measure(Empty(), [0.0], [1.0], samples=10_000, seed=3)
    assert est.estimate == 0.0


@pytest.mark.parametrize("matrix", [DIAG21, DIAG23, SPIRAL], ids=["diag21", "diag23", "spiral"])
def test_finite_measure_bound_holds(matrix):
    shaped = to_finite_measure(build_discrete_section(matrix))
    est = shaped.measure_estimate(samples=120_000, seed=5)
    assert est.estimate + est.tail_bound <= 1.0 + est.bound


def _exact_slab_area(section):
    """Area of the slab in Jordan coordinates: ``2 (Lambda - 1)`` for a real
    witness, ``(Lambda^2 - 1)(omega / 4 mu)(e^{2 mu} - 1)`` for a spiral."""
    lam_big = math.exp(section.params["log_span"])
    if not section.kind.turns:
        return 2.0 * (lam_big - 1.0)
    mu, omega = section.params["mu"], section.params["omega"]
    return (lam_big**2 - 1.0) * (omega / (4.0 * mu)) * (math.exp(2.0 * mu) - 1.0)


@pytest.mark.parametrize("matrix", [DIAG21, random_conjugate(DIAG21, 91)[0], [[1.2, -0.5], [0.5, 1.2]]],
                         ids=["diag21", "conjugated_diag21", "spiral"])
def test_finite_measure_estimate_matches_closed_form(matrix):
    # independent oracle: the pieces are disjoint, and piece k has measure
    # delta^{n_k} |det P| area(slab) vol(shell k); a spiral has one piece.
    # Skewed pieces' boxes overlap, and a spiral's boxes all cover its one
    # piece: stratum k must count only piece k
    shaped = to_finite_measure(build_discrete_section(matrix))
    jac = abs(np.linalg.det(shaped.base.jordan.conjugator))
    area = _exact_slab_area(shaped.base)
    pieces = range(1, 25) if shaped.shell.dim else (1,)
    closed = sum(shaped.delta ** shaped.shift(k) * jac * area * shaped.shell.volume(k) for k in pieces)
    est = shaped.measure_estimate(samples=200_000, seed=9)
    assert abs(est.estimate - closed) <= est.bound + 1e-3


def _per_stratum_estimate(shaped, samples, seed):
    """(estimate, bound) with one ``_pushed`` call per stratum, in turn."""
    per, total, var = samples // 24, 0.0, 0.0
    rng = np.random.default_rng(seed)
    for k in range(1, 25):
        lo, hi = shaped.piece_box(k)
        vol = float(np.prod(hi - lo))
        tile, _, piece, _, refused = shaped._pushed(shaped.base._coords(rng.uniform(lo, hi, size=(per, shaped.n))))
        p = float(np.count_nonzero((tile == 0) & (piece == k) & ~refused)) / per
        total += p * vol
        var += (p * (1.0 - p) / per) * vol * vol
    return total, 3.0 * math.sqrt(var)


@pytest.mark.parametrize("matrix", [SPIRAL, random_conjugate(DIAG21, 91)[0]], ids=["spiral", "conjugated_diag21"])
def test_measure_estimate_equals_a_per_stratum_loop_bitwise(matrix):
    # the strata are drawn in turn and solved in one batch: the same bits
    # as solving each stratum on its own
    shaped = to_finite_measure(build_discrete_section(matrix))
    est = shaped.measure_estimate(samples=24_007, seed=4)
    assert (est.estimate, est.bound) == _per_stratum_estimate(to_finite_measure(shaped.base), 24_007, 4)
    assert est.estimate > 0.0 and est.samples == 24_000


@pytest.mark.parametrize("reshape", [to_finite_measure, to_bounded])
@pytest.mark.parametrize("source", [
    lambda: DIAG23,
    lambda: derive_discrete_section(build_continuous_section([[0.5, 1.0], [0.2, -0.3]])),
    lambda: build_continuous_section([[0.5, 1.0], [0.2, -0.3]]),
], ids=["matrix", "derived", "continuous"])
def test_reshaping_takes_only_a_native_discrete_section(reshape, source):
    with pytest.raises(ValueError, match="native discrete sections"):
        reshape(source())


def test_bounded_diag23_worked_example():
    shaped = to_bounded(build_discrete_section(DIAG23))
    assert shaped.shift(1) == -2  # ||A^-2|| * sqrt(5) <= 1, ||A^-1|| * sqrt(5) > 1


def test_bounded_rejects_mixed_moduli():
    with pytest.raises(MixedModuli):
        to_bounded(build_discrete_section(DIAG2_HALF))


def test_bounded_contracting_side():
    shaped = to_bounded(build_discrete_section([[0.5]]))
    rng = np.random.default_rng(2)
    pts = shaped.sample_pieces(rng, 2000)
    assert (np.linalg.norm(pts, axis=1) <= 1.0 + 1e-9).all()


@pytest.mark.parametrize("matrix", [DIAG23, SPIRAL], ids=["diag23", "spiral"])
def test_bounded_pieces_inside_unit_ball(matrix, rng):
    shaped = to_bounded(build_discrete_section(matrix))
    pts = shaped.sample_pieces(rng, 2000)
    assert (np.linalg.norm(pts, axis=1) <= 1.0 + 1e-9).all()
    member, exc = shaped.membership(pts)
    assert member.all() and not exc.any()


def _reference_bounded_shift(shaped, k):
    """The bounded-target search as a loop that restarts at j = 0 for every shell."""
    form = shaped.base.jordan
    direction = -1 if all(b.modulus > 1.0 for b in form.blocks) else 1
    radius = _euclid_radius(shaped.base, shaped.shell, k) * np.linalg.norm(form.conjugator, 2)
    j = 0
    while np.linalg.norm(integer_power(shaped.matrix, direction * j), 2) * radius > 1.0:
        j += 1
    return direction * j


def _rotation_scaling(r, t):
    return r * np.array([[math.cos(t), -math.sin(t)], [math.sin(t), math.cos(t)]])


# two complex pairs of moduli 1.5 and 2: the witness pins one pair and the
# shells run over the other, so the shift grows with the shell
TWO_SPIRALS = np.block([[_rotation_scaling(1.5, 0.9), np.zeros((2, 2))],
                        [np.zeros((2, 2)), _rotation_scaling(2.0, 2.1)]])


@pytest.mark.parametrize("matrix", [DIAG23, [[0.5]], random_conjugate(TWO_SPIRALS, 4)[0]],
                         ids=["diag23", "half", "conjugated_two_spirals"])
def test_bounded_shifts_match_a_search_from_zero(matrix):
    section = build_discrete_section(matrix)
    expected = [_reference_bounded_shift(to_bounded(section), k) for k in range(1, 25)]
    ascending = to_bounded(section)
    assert [ascending.shift(k) for k in range(1, 25)] == expected
    descending = to_bounded(section)
    assert [descending.shift(k) for k in range(24, 0, -1)] == expected[::-1]


def test_bounded_tiling_preserved(rng):
    shaped = to_bounded(build_discrete_section(DIAG23))
    pts = rng.normal(size=(500, 2))
    params, reps, exc = shaped.solve(pts)
    member, _ = shaped.membership(reps)
    assert member.all() and not exc.any()
    counts = np.zeros(len(pts), dtype=int)
    for k in range(int(params.min()) - 2, int(params.max()) + 3):
        member, _ = shaped.membership(pts @ integer_power(DIAG23, -k))
        counts += member.astype(int)
    assert (counts == 1).all()


def test_spiral_piece_measure_uses_safety_factor():
    shaped = to_finite_measure(build_discrete_section(SPIRAL))
    # exact spiral area for lambda=2, beta=pi/2: (256-1) * (pi/8) * (e^{2 ln 2}-1) / (2 ln 2)
    mu = math.log(2.0)
    omega = math.pi / 2
    exact = (256.0 - 1.0) * (omega / (4 * mu)) * (math.exp(2 * mu) - 1.0)
    assert abs(shaped.piece_measure_bound(1) - 2.0 * exact) < 1e-9


def test_spiral_measure_bound_is_actually_an_upper_bound():
    # Monte Carlo oracle for the spiral slab measure (n = 2, no free dims)
    s = build_discrete_section(SPIRAL)
    shaped = to_finite_measure(s)
    r_max = math.exp(s.params["log_span"] + s.params["mu"])
    rng = np.random.default_rng(13)
    pts = rng.uniform(-r_max, r_max, size=(400_000, 2))
    member, _ = s.membership(pts)
    mc = member.mean() * (2 * r_max) ** 2
    assert mc <= shaped.piece_measure_bound(1)
    assert mc >= shaped.piece_measure_bound(1) / 4.0  # bound is not absurdly loose


@pytest.mark.parametrize("p", [[[2.0, 1.0], [0.0, 1.0]], [[0.5, 0.2], [0.1, 0.6]]])
def test_conjugated_spiral_measure_bound_is_an_upper_bound(p):
    # the ambient set is its Jordan-coordinate set times P (gamma = c @ P),
    # so its measure carries |det P|; sampled over the box around the
    # Jordan box's corners mapped by P
    s = build_discrete_section(np.linalg.inv(p) @ SPIRAL @ np.asarray(p))
    bound = to_finite_measure(s).piece_measure_bound(1)
    r_max = math.exp(s.params["log_span"] + s.params["mu"])
    corners = box_corners([-r_max] * 2, [r_max] * 2) @ s.jordan.conjugator
    lo, hi = corners.min(axis=0), corners.max(axis=0)
    pts = np.random.default_rng(13).uniform(lo, hi, size=(400_000, 2))
    member, _ = s.membership(pts)
    mc = member.mean() * np.prod(hi - lo)
    assert bound / 4.0 <= mc <= bound


def test_bounded_shift_search_that_cannot_converge_refuses():
    # modulus 1 + 1e-7 is outside the tolerance, but 10^4 powers shrink by
    # only about 0.1%: the walk ends at its bound
    shaped = to_bounded(build_discrete_section(np.diag([1.0 + 1e-7, 3.0])))
    with pytest.raises(SearchExhausted) as info:
        shaped.shift(1)
    assert info.value.radius == 10_000
