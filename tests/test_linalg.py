import math

import numpy as np
import pytest

from xsect.errors import IllConditioned, Overflow, Singular
from xsect.linalg import (
    JordanBlock,
    RealJordanForm,
    _attempt,
    _cluster,
    _Inconsistent,
    _spectral_scale,
    assemble_jordan_matrix,
    finite_rows,
    integer_power,
    jordan_power_rows,
    matrix_from_json,
    matrix_to_json,
    one_parameter_power,
    one_parameter_power_batch,
    real_jordan_form,
    row_norms,
)

from conftest import SHEAR, SPIRAL, random_conjugate


def series_expm(b, t, terms=20):
    """Independent oracle: truncated power series for exp(t*B)."""
    b = np.asarray(b, dtype=float)
    out = np.eye(b.shape[0])
    term = np.eye(b.shape[0])
    for k in range(1, terms + 1):
        term = term @ (t * b) / k
        out = out + term
    return out


def test_jordan_already_diagonal():
    f = real_jordan_form([[2.0, 0.0], [0.0, 3.0]])
    assert [(b.re, b.im, b.chain) for b in f.blocks] == [(2.0, 0.0, 1), (3.0, 0.0, 1)]
    np.testing.assert_allclose(f.jordan_matrix(), np.diag([2.0, 3.0]), atol=1e-12)
    np.testing.assert_allclose(f.conjugator @ f.matrix @ f.conjugator_inverse, f.jordan_matrix(), atol=1e-12)


def test_jordan_canonical_shear():
    f = real_jordan_form(SHEAR)
    assert len(f.blocks) == 1
    b = f.blocks[0]
    assert (b.re, b.im, b.chain, b.nilpotent) == (1.0, 0.0, 2, True)


def test_jordan_complex_pair():
    # characteristic polynomial x^2 + 4 has roots +/- 2i
    f = real_jordan_form(SPIRAL)
    assert len(f.blocks) == 1
    b = f.blocks[0]
    assert b.is_complex and b.chain == 1
    assert abs(b.modulus - 2.0) < 1e-12
    assert abs(b.argument - math.pi / 2) < 1e-12


def test_jordan_roundtrip_random_well_separated(rng):
    for _ in range(50):
        n = int(rng.integers(2, 6))
        # well-separated spectrum: diagonal plus mild conjugation
        d = np.diag(np.linspace(1.0, n, n) + rng.uniform(0.1, 0.5, n))
        a, _ = random_conjugate(d, int(rng.integers(1 << 30)))
        f = real_jordan_form(a)
        scale = max(np.linalg.norm(a, 2), 1.0)
        assert np.linalg.norm(f.conjugator @ a @ f.conjugator_inverse - f.jordan_matrix(), 2) <= 1e-9 * scale


def test_jordan_conjugated_defective():
    a, _ = random_conjugate(SHEAR, 5)
    f = real_jordan_form(a)
    assert [(b.chain, b.im) for b in f.blocks] == [(2, 0.0)]
    assert abs(f.blocks[0].re - 1.0) < 1e-9


def test_jordan_singular_rejected():
    with pytest.raises(Singular):
        real_jordan_form([[1.0, 0.0], [0.0, 0.0]])


def test_jordan_ambiguous_cluster_rejected():
    # near-defective 3-chain with splits ~1e-4: the split reading needs a
    # basis beyond the conditioning cap, the merged reading leaves too much
    # residual; the solver must refuse rather than guess
    g = 1e-4
    a = np.array([[1.0, 1.0, 0.0], [0.0, 1.0 + g, 1.0], [0.0, 0.0, 1.0 + 2 * g]])
    with pytest.raises(IllConditioned):
        real_jordan_form(a, tol=1e-9)


def test_jordan_backward_stable_merge():
    # a split of 1e-7 behind a defective block is indistinguishable from a
    # true 2-chain at tol=1e-9; the merged reading is the stable answer
    a = np.array([[1.0, 1.0], [0.0, 1.0 + 1e-7]])
    f = real_jordan_form(a, tol=1e-9)
    assert [b.chain for b in f.blocks] == [2]
    assert f.residual < 1e-12


def test_cluster_groups_are_sorted_components():
    # index 2 joins both earlier groups and merges them
    assert _cluster(np.array([0.0, 2.0, 1.0, 5.0]), 1.0) == [[0, 1, 2], [3]]
    assert _cluster(np.array([0.0, 5.0, 0.5, 5.5]), 1.0) == [[0, 2], [1, 3]]


@pytest.mark.parametrize("radius", [1e-9, 1e-4, 0.3, 1.0])
def test_cluster_conjugate_groups_are_mirror_images(radius):
    rng = np.random.default_rng(11)
    # three complex pairs, two of them equal, and two real eigenvalues
    j = np.zeros((8, 8))
    for k, (re, im) in enumerate([(1.0, 0.5), (1.0, 0.5), (0.2, 0.3)]):
        j[2 * k : 2 * k + 2, 2 * k : 2 * k + 2] = [[re, im], [-im, re]]
    j[6, 6], j[7, 7] = 0.9, 1.1
    p = rng.normal(size=(8, 8))
    eigs = np.linalg.eigvals(np.linalg.solve(p, j @ p))
    groups = _cluster(eigs, radius)
    assert groups == sorted(groups) and all(g == sorted(g) for g in groups)
    assert sorted(i for g in groups for i in g) == list(range(8))
    label = {i: k for k, g in enumerate(groups) for i in g}
    for i in range(8):
        for k in range(8):
            if abs(eigs[i] - eigs[k]) <= radius:
                assert label[i] == label[k]
    images = {tuple(sorted(np.conj(eigs[g]).tolist(), key=repr)) for g in groups}
    assert images == {tuple(sorted(eigs[g].tolist(), key=repr)) for g in groups}


def test_attempt_refuses_a_pair_whose_upper_half_is_off_the_spectrum():
    a = np.array([[1.2, -0.5], [0.5, 1.2]])
    scale = _spectral_scale(a)
    eigs = np.linalg.eigvals(a)
    radius = 1e-8 * scale
    (block,) = _attempt(a, eigs, radius, 1e-9, scale).blocks
    assert (block.im > 0, block.size) == (True, 2)
    moved = eigs.copy()
    moved[np.argmax(eigs.imag)] += 10 * radius
    with pytest.raises(_Inconsistent):
        _attempt(a, moved, radius, 1e-9, scale)
    # a lone cluster below the axis gives no block
    with pytest.raises(_Inconsistent):
        _attempt(a, eigs[eigs.imag < 0].repeat(2), radius, 1e-9, scale)


@pytest.mark.parametrize("a", [SHEAR, SPIRAL, [[2.0, 1.0, 0.0], [0.0, 2.0, 1.0], [0.0, 0.0, 2.0]],
                               [[0.0, 1.0], [0.0, 0.0]]])
def test_form_keeps_the_scale_and_cond_it_was_accepted_on(a):
    for seed in range(5):
        form = real_jordan_form(random_conjugate(a, seed)[0], require_invertible=False)
        assert form.scale == _spectral_scale(form.matrix)
        assert form.cond == np.linalg.cond(form.conjugator_inverse) and form.cond <= 0.01 / form.tol
        assert form.residual <= form.tol * form.scale


def test_one_parameter_scalar():
    f = real_jordan_form([[math.log(2.0)]], require_invertible=False)
    np.testing.assert_allclose(one_parameter_power(f, 3.0), [[8.0]], rtol=1e-12)


def test_one_parameter_nilpotent_block():
    f = real_jordan_form([[0.0, 1.0], [0.0, 0.0]], require_invertible=False)
    np.testing.assert_allclose(one_parameter_power(f, 5.0), [[1.0, 5.0], [0.0, 1.0]], atol=1e-12)


def test_one_parameter_rotation_matches_series():
    b = np.array([[0.0, math.pi / 2], [-math.pi / 2, 0.0]])
    f = real_jordan_form(b, require_invertible=False)
    got = one_parameter_power(f, 1.0)
    np.testing.assert_allclose(got, [[0.0, 1.0], [-1.0, 0.0]], atol=1e-12)
    np.testing.assert_allclose(got, series_expm(b, 1.0), atol=1e-10)


def test_one_parameter_group_law(rng):
    b = np.array([[0.3, 1.0, 0.0], [0.0, 0.3, 0.0], [0.0, 0.0, -0.4]])
    f = real_jordan_form(b, require_invertible=False)
    for _ in range(100):
        s, t = rng.uniform(-5, 5, 2)
        lhs = one_parameter_power(f, s) @ one_parameter_power(f, t)
        rhs = one_parameter_power(f, s + t)
        assert np.abs(lhs - rhs).max() <= 1e-9 * max(1.0, np.abs(rhs).max())


def test_one_parameter_det_identity(rng):
    b = rng.normal(size=(3, 3)) * 0.4
    f = real_jordan_form(b, require_invertible=False)
    for t in rng.uniform(-3, 3, 20):
        det = np.linalg.det(one_parameter_power(f, t))
        assert abs(det - math.exp(t * np.trace(b))) <= 1e-9 * abs(det)


def test_one_parameter_batch_matches_scalar(rng):
    b = np.array([[0.1, 2.0, 1.0, 0.0], [-2.0, 0.1, 0.0, 1.0], [0.0, 0.0, 0.1, 2.0], [0.0, 0.0, -2.0, 0.1]])
    f = real_jordan_form(b, require_invertible=False)
    ts = rng.uniform(-4, 4, 10)
    batch = one_parameter_power_batch(f, ts)
    for i, t in enumerate(ts):
        np.testing.assert_allclose(batch[i], one_parameter_power(f, t), atol=1e-11)


def _jordan_form_of_blocks(*specs):
    """A form in Jordan coordinates (``Q = P = I``) with the blocks
    ``(re, im, chain)``, in order."""
    blocks, offset = [], 0
    for re, im, chain in specs:
        blocks.append(JordanBlock(re=re, im=im, chain=chain, offset=offset))
        offset += blocks[-1].size
    eye, j = np.eye(offset), assemble_jordan_matrix(blocks, offset)
    return RealJordanForm(matrix=j, blocks=tuple(blocks), conjugator=eye, conjugator_inverse=eye, tol=1e-9,
                          residual=0.0, scale=_spectral_scale(j), cond=1.0)


def _unimodular(n, seed):
    """An integer matrix of determinant 1, a product of elementary row
    additions, with cond < 150; its inverse is an integer matrix too."""
    g = np.random.default_rng(seed)
    while True:
        p = np.eye(n)
        for _ in range(2 * n):
            i, j = g.choice(n, size=2, replace=False)
            p[i] += g.choice([-1.0, 1.0]) * p[j]
        if np.linalg.cond(p) < 150:
            return p


# several chains sharing an eigenvalue: (re, im, chain) blocks and the seed of P
CHAIN_CASES = {
    "3_1_at_2": ([(2.0, 0.0, 3), (2.0, 0.0, 1)], 1),
    "2_2_at_2": ([(2.0, 0.0, 2), (2.0, 0.0, 2)], 2),
    "2_1_1_at_-1.5": ([(-1.5, 0.0, 2), (-1.5, 0.0, 1), (-1.5, 0.0, 1)], 3),
    "2_1_at_3_and_1_at_0.5": ([(3.0, 0.0, 2), (3.0, 0.0, 1), (0.5, 0.0, 1)], 4),
    "pair_2_1_at_0.5+2i": ([(0.5, 2.0, 2), (0.5, 2.0, 1)], 5),
    "1_1_1_1_at_2": ([(2.0, 0.0, 1)] * 4, 6),
}


@pytest.mark.parametrize("name", list(CHAIN_CASES))
def test_chain_lengths_of_conjugated_jordan_matrices(name):
    specs, seed = CHAIN_CASES[name]
    j = _jordan_form_of_blocks(*specs).matrix
    p = _unimodular(j.shape[0], seed)
    a = np.round(np.linalg.inv(p)) @ j @ p
    f = real_jordan_form(a)
    assert sorted((round(b.re, 6), round(b.im, 6), b.chain) for b in f.blocks) == sorted(specs)
    assert f.residual <= f.tol * max(np.linalg.norm(a, 2), 1.0)


def _pair(r, theta):
    return (r * math.cos(theta), r * math.sin(theta))


# moduli near 1 keep |p| = 10^6 representable; the last form's powers
# overflow there and are checked up to |p| = 1000 only
ORACLE_FORMS = {
    "real_negative_complex_chain3": [(1.0000003, 0.0, 1), (-0.9999996, 0.0, 1),
                                     (*_pair(1.0 + 2e-7, 0.7), 1), (0.9999999, 0.0, 3)],
    "complex_chain3_negative_chain2": [(*_pair(1.0 - 1e-7, 2.3), 3), (-1.0000002, 0.0, 2)],
    "expanding_and_contracting": [(2.0, 0.0, 1), (0.3, 0.4, 1), (-0.5, 0.0, 2)],
}


@pytest.mark.parametrize("name", sorted(ORACLE_FORMS))
def test_block_powers_match_an_exact_oracle(name):
    import mpmath

    form = _jordan_form_of_blocks(*ORACLE_FORMS[name])
    rng = np.random.default_rng(5)
    coords = rng.normal(size=(3, form.n))
    exponents = [(float(p), True) for p in (1, -1, 7, -7, 1000, -1000, 10**6, -(10**6))]
    exponents += [(float(t), False) for t in rng.uniform(-5.0, 5.0, 6)]
    checked = 0
    with mpmath.workdps(50):
        for p, integer in exponents:
            got = jordan_power_rows(form, coords, np.full(len(coords), p), integer=integer)
            for b in form.blocks:
                span = slice(b.offset, b.offset + b.size)
                jb = mpmath.matrix(assemble_jordan_matrix([JordanBlock(b.re, b.im, b.chain, 0)], b.size).tolist())
                power = jb ** int(p) if integer else mpmath.expm(mpmath.mpf(p) * jb)
                for row, out in zip(coords[:, span], got[:, span]):
                    want = mpmath.matrix([row.tolist()]) * power
                    norm = mpmath.norm(want)
                    if not 1e-300 < norm < 1e300:
                        continue  # the exact row is outside the float range
                    err = max(abs(mpmath.mpf(float(x)) - w) for x, w in zip(out, want))
                    assert err <= 1e-12 * norm, (name, p, integer, b, float(err / norm))
                    checked += 1
    # every block at |p| <= 7 and at all six times, at least
    assert checked >= len(coords) * len(form.blocks) * 10


@pytest.mark.parametrize("name", sorted(ORACLE_FORMS))
def test_batched_block_powers_equal_one_row_calls_bitwise(name):
    # a batch with mixed, repeated exponents gives each row exactly what a
    # call on that row alone gives: the integer power is formed once per
    # distinct exponent and gathered, the flow per row
    form = _jordan_form_of_blocks(*ORACLE_FORMS[name])
    rng = np.random.default_rng(11)
    exponents = [0, 1, -1, 7, -7, 1000, -1000, 10**6, -(10**6)]
    times = np.concatenate([np.repeat(rng.uniform(-5.0, 5.0, 4), 3), [0.0, -0.0]])
    for ps, integer in [(np.repeat(exponents, 3).astype(float), True), (times, False)]:
        ps = rng.permutation(ps)
        coords = rng.normal(size=(len(ps), form.n))
        got = jordan_power_rows(form, coords, ps, integer=integer)
        want = np.vstack([jordan_power_rows(form, c, [p], integer=integer) for c, p in zip(coords, ps)])
        assert got.tobytes() == want.tobytes(), (name, integer)
        assert jordan_power_rows(form, coords[:0], ps[:0], integer=integer).shape == (0, form.n)


# a spiral, and a rotating shear (a unit-modulus pair with a chain of 2)
COMPLEX_FORMS = {
    "spiral": [(*_pair(1.0 + 1e-7, 0.9), 1)],
    "rotating_shear": [(*_pair(1.0, 2.0), 2), (0.5, 0.0, 1)],
}
# name -> (exponents, whether a table indexed by exponent serves the batch)
EXPONENT_BATCHES = {
    "signed_zeros": ([0.0, -0.0, 1.0, -0.0, 0.0, -1.0], True),
    "wide_span": ([1e6, -1e6, 3.0, 1e6, -(10**6) + 1.0, 3.0], False),
    "fractions": ([0.5, 1.0, -2.5, 0.5, 3.0, 1.0], False),
    "repeats": ([4.0, -3.0, 4.0, 4.0, -3.0, 0.0, 1.0, 4.0], True),
    "consecutive": ([float(p) for p in range(-6, 7)], True),
}


@pytest.mark.parametrize("form_name", sorted(COMPLEX_FORMS))
@pytest.mark.parametrize("batch", sorted(EXPONENT_BATCHES))
def test_complex_integer_powers_equal_one_row_calls_bitwise(form_name, batch, monkeypatch):
    # each row of a batch gets the bits of a batch of its own, whether its
    # distinct exponents are found by a table or by their bit patterns
    # (np.unique, which sorts); the table reads a -0.0 exponent as 0.0
    form = _jordan_form_of_blocks(*COMPLEX_FORMS[form_name])
    rng = np.random.default_rng(13)
    exponents, tabled = EXPONENT_BATCHES[batch]
    ps = rng.permutation(np.array(exponents))
    coords = rng.normal(size=(len(ps), form.n))
    coords[rng.random(coords.shape) < 0.3] = -0.0  # signed zeros in the rows too
    want = np.vstack([jordan_power_rows(form, c, [p], integer=True) for c, p in zip(coords, ps)])
    sorts, unique = [], np.unique
    monkeypatch.setattr(np, "unique", lambda *args, **kwargs: sorts.append(1) or unique(*args, **kwargs))
    got = jordan_power_rows(form, coords, ps, integer=True)
    assert got.tobytes() == want.tobytes()
    assert len(sorts) == (0 if tabled else 1)


def test_block_power_group_laws(rng):
    # integer powers in Jordan coordinates: J^a J^b = J^(a + b), also
    # across the sign and far beyond the range of integer_power
    form = _jordan_form_of_blocks(*ORACLE_FORMS["complex_chain3_negative_chain2"])

    def power(p):  # J^p: the kernel on identity rows
        return jordan_power_rows(form, np.eye(form.n), np.full(form.n, p), integer=True)

    for a, b in [(3, -5), (-400, 250), (2 * 10**6, -10**6)]:
        lhs = power(a) @ power(b)
        rhs = power(a + b)
        assert np.abs(lhs - rhs).max() <= 1e-9 * max(1.0, np.abs(rhs).max())
    # and the flow of a conjugated generator with a rotating chain
    om = np.array([[0.2, 1.3], [-1.3, 0.2]])
    gen, _ = random_conjugate(np.block([[om, np.eye(2)], [np.zeros((2, 2)), om]]), 31)
    f = real_jordan_form(gen, require_invertible=False)
    for s, t in rng.uniform(-5, 5, (20, 2)):
        lhs = one_parameter_power(f, s) @ one_parameter_power(f, t)
        rhs = one_parameter_power(f, s + t)
        assert np.abs(lhs - rhs).max() <= 1e-9 * max(1.0, np.abs(rhs).max())


def test_one_parameter_power_refuses_a_non_finite_time():
    f = real_jordan_form([[0.5]])
    for t in (math.inf, -math.inf, math.nan):
        with pytest.raises(ValueError):
            one_parameter_power(f, t)


def test_integer_power_examples():
    np.testing.assert_allclose(integer_power([[2.0]], -2), [[0.25]], rtol=1e-15)
    np.testing.assert_allclose(integer_power(SHEAR, 7), [[1.0, 7.0], [0.0, 1.0]], rtol=1e-15)
    np.testing.assert_allclose(integer_power(SPIRAL, 2), [[-4.0, 0.0], [0.0, -4.0]], atol=1e-12)
    np.testing.assert_allclose(integer_power(SPIRAL, 0), np.eye(2), atol=0)


def test_integer_power_matches_one_parameter(rng):
    b = np.array([[math.log(2.0), 1.0], [0.0, math.log(2.0)]])
    f = real_jordan_form(b, require_invertible=False)
    a = one_parameter_power(f, 1.0)
    for k in range(-6, 7):
        np.testing.assert_allclose(
            integer_power(a, k), one_parameter_power(f, float(k)), rtol=1e-8, atol=1e-12
        )


def test_integer_power_overflow_reported():
    with pytest.raises(Overflow):
        integer_power([[10.0]], 400)


def test_conjugation_roundtrip(rng):
    a, _ = random_conjugate(np.diag([2.0, 3.0, 0.5]), 17)
    f = real_jordan_form(a)
    for _ in range(20):
        gamma = rng.normal(size=3)
        back = f.from_jordan(f.to_jordan(gamma))
        np.testing.assert_allclose(back, gamma, atol=1e-9)


def test_jordan_coordinates_carry_action():
    # the action in Jordan coordinates is right-multiplication by J
    a, _ = random_conjugate(SPIRAL, 23)
    f = real_jordan_form(a)
    j = f.jordan_matrix()
    gamma = np.array([0.7, -1.3])
    lhs = f.to_jordan(gamma @ a)
    rhs = f.to_jordan(gamma) @ j
    np.testing.assert_allclose(lhs, rhs, atol=1e-9)


def test_matrix_json_roundtrip():
    a = np.array([[1.5, -2.0], [0.25, 4.0]])
    np.testing.assert_array_equal(matrix_from_json(matrix_to_json(a)), a)
    with pytest.raises(ValueError):
        matrix_from_json({"n": 3, "rows": [[1.0]]})


def _oracle_rows(n, rng):
    """Rows at scales 1, 1e150 (squares overflow) and 1e-160 (squares
    underflow), plus rows holding nan, +-inf or only zeros."""
    rows = [rng.normal(size=(200, n)) * scale for scale in (1.0, 1e150, 1e-160)]
    special = np.zeros((3 * n + 2, n))
    for j in range(n):
        special[3 * j : 3 * j + 3, j] = (math.nan, math.inf, -math.inf)
    special[-1] = math.nan
    return np.vstack(rows + [special])


@pytest.mark.parametrize("n", range(1, 9))
def test_column_loops_equal_axis_reductions_bitwise(n):
    # the row reductions of the solve and membership paths run column by
    # column; each must give the bits of the NumPy reduction it replaces
    rng = np.random.default_rng(n)
    c = _oracle_rows(n, rng)
    for layout in (c, np.asfortranarray(c), np.hstack([c, c])[:, ::2]):
        with np.errstate(over="ignore"):
            assert row_norms(layout).tobytes() == np.linalg.norm(layout, axis=1).tobytes()
    assert np.array_equal(finite_rows(c), np.isfinite(c).all(axis=1))
    assert finite_rows(c[:, :0]).all() and row_norms(c[:0]).shape == (0,)
