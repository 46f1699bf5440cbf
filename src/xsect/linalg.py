"""Dense real matrix arithmetic for small matrices (n <= 8).

Conventions used throughout the package:

* Vectors are ROWS and matrices act on the right: ``gamma @ A``.
* The real Jordan form of ``A`` is the pair ``(J, P)`` with
  ``P @ A @ inv(P) == J``; equivalently ``A = Q J inv(Q)`` with
  ``Q = inv(P)`` holding the (generalized) eigenvectors as columns.
* Jordan coordinates of a row vector are ``c = gamma @ Q``; the action
  in those coordinates is ``c -> c @ J``.
* A 2x2 rotation-scaling block for the complex pair ``a +/- i b``
  (``b > 0``) is ``D = [[a, b], [-b, a]]``, so ``exp(t*Omega_b)`` with
  ``Omega_b = [[0, b], [-b, 0]]`` rotates rows counterclockwise by
  ``b*t``.

Flows and powers act on rows of Jordan coordinates, block by block
(:func:`jordan_power_rows`), each row by its own exponent.  A block acts
on its cells as the complex Jordan block of ``lambda = re + i im``: a
cell pair ``(x, y)`` is the number ``x + iy``, and ``(x, y) @ D`` is
``(x + iy) lambda``.  Cell ``(i, i + d)`` of the block's power is

* flow ``exp(pJ)``: ``e^{lambda p} p^d / d!``, that is
  ``e^{alpha p} R(beta p) p^d / d!`` with the row rotation
  ``R(phi) = [[cos phi, sin phi], [-sin phi, cos phi]]``;
* integer power ``J^p``: ``C(p, d) lambda^{p-d}``, that is
  ``r^{p-d} R((p-d) theta)`` for a pair, with the generalized binomial
  ``C(p, d) = p (p-1) ... (p-d+1) / d!``, so negative ``p`` needs no
  inverse.  For a pair, ``lambda^p`` is formed in extended precision,
  with the chain coefficients, once per distinct exponent of the batch
  and gathered to the rows.  Integer exponents spanning fewer values
  than the batch has rows (tile indices, as a rule) are found by a table
  indexed by ``p - min p``; other batches are told apart by their bit
  patterns (:func:`_distinct_exponents`).  Either way each distinct
  exponent is formed from its own value, so a row gets the same bits as
  in a batch of its own.

Ambient flows are ``Q exp(tJ) P`` (:func:`one_parameter_power`), with an
error of about ``cond(Q) eps``.  Ambient integer powers multiply the rounded
matrix and lose ``p^2 eps`` (Moler and Van Loan, SIAM Review 45, 2003):
:func:`integer_power` is ``np.linalg.matrix_power``, and the tiling check's
``verify._window_powers`` is a doubling walk.

Row reductions over the n <= 8 coordinates of a point run column by
column: a NumPy reduce along so short a last axis costs more than the
arithmetic it does.  :func:`row_norms` gives the bits of
``np.linalg.norm(c, axis=1)`` that way; a column-wise ``&``
(:func:`finite_rows`) or ``np.maximum`` is exact in any order.

Computing a Jordan form in floating point is intrinsically delicate
(the form is a discontinuous function of the matrix), so the solver
clusters eigenvalues over a ladder of radii and accepts the first
clustering whose chain structure is consistent and whose reassembly
residual passes the tolerance.  ``eigvals`` returns the complex pairs of
a real matrix as exact conjugates, so the clusters are mirror images and
a pair is read from its cluster above the real axis.  For each cluster
eigenvalue ``lambda`` every power of ``A - lambda I`` is formed and
factored once: one SVD gives its rank, its null basis and the ambiguity
check, and the nullity increments give the chain lengths; the first
power's largest singular value is ``||A - lambda I||_2``, the scale of the
rank thresholds.  Ambiguity is an error, never a guess.  A form keeps the
residual, scale and ``cond(Q)`` it was accepted on, for callers to read.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import IllConditioned, Overflow, Singular

DEFAULT_TOL = 1e-9
MAX_DIM = 8

# Clustering radii tried in order, as multiples of the matrix scale.
# Defective eigenvalues of a conjugated matrix split like eps**(1/m), so
# the ladder has to climb well past machine epsilon.
_CLUSTER_LADDER = (1e-12, 1e-9, 1e-8, 3e-8, 1e-7, 1e-6, 1e-5, 1e-4)


def as_matrix(a) -> np.ndarray:
    """Validate and return a square float matrix (1 <= n <= 8)."""
    m = np.asarray(a, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {m.shape}")
    n = m.shape[0]
    if not 1 <= n <= MAX_DIM:
        raise ValueError(f"dimension {n} outside supported range 1..{MAX_DIM}")
    if not np.all(np.isfinite(m)):
        raise ValueError("matrix entries must be finite")
    return m


def matrix_to_json(a) -> dict:
    a = as_matrix(a)
    return {"n": int(a.shape[0]), "rows": [[float(x) for x in row] for row in a]}


def matrix_from_json(obj) -> np.ndarray:
    if not isinstance(obj, dict) or "rows" not in obj:
        raise ValueError("matrix JSON must be an object with a 'rows' field")
    m = as_matrix(obj["rows"])
    if "n" in obj and int(obj["n"]) != m.shape[0]:
        raise ValueError("matrix JSON 'n' does not match row count")
    return m


@dataclass(frozen=True)
class JordanBlock:
    """One real Jordan block.

    ``re`` / ``im`` are the real and imaginary part of the eigenvalue
    the block belongs to (``im > 0`` for complex pairs, ``im == 0.0``
    for real eigenvalues).  ``chain`` is the Jordan chain length, so the
    block occupies ``chain`` rows for a real eigenvalue and ``2*chain``
    rows for a complex pair.  ``offset`` is the starting index of the
    block inside the Jordan coordinate vector.
    """

    re: float
    im: float
    chain: int
    offset: int

    @property
    def is_complex(self) -> bool:
        return self.im != 0.0

    @property
    def size(self) -> int:
        return 2 * self.chain if self.is_complex else self.chain

    @property
    def nilpotent(self) -> bool:
        return self.chain >= 2

    @property
    def modulus(self) -> float:
        """Eigenvalue modulus (discrete-action reading)."""
        return math.hypot(self.re, self.im) if self.is_complex else abs(self.re)

    @property
    def argument(self) -> float:
        """Eigenvalue argument in [0, pi] (0 or pi for real eigenvalues)."""
        return math.atan2(self.im, self.re) if self.is_complex else (0.0 if self.re >= 0 else math.pi)

    @property
    def alpha(self) -> float:
        """Generator reading: real part of the eigenvalue of B."""
        return self.re

    @property
    def beta(self) -> float:
        """Generator reading: rotation rate (imaginary part), > 0 if complex."""
        return self.im

    def to_json(self) -> dict:
        kind = "complex_pair" if self.is_complex else "real"
        return {
            "kind": kind,
            "re": self.re,
            "im": self.im,
            "chain": self.chain,
            "size": self.size,
            "offset": self.offset,
            "nilpotent": self.nilpotent,
        }


@dataclass(frozen=True)
class RealJordanForm:
    """Real Jordan decomposition ``P A P^{-1} = J`` of a real matrix.

    ``conjugator`` is ``P``; ``conjugator_inverse`` is ``Q = P^{-1}``
    whose columns are the Jordan basis.  Jordan coordinates of a row
    vector ``gamma`` are ``gamma @ Q``.  The form was accepted on
    ``residual = ||P A Q - J||_2 <= tol * scale``, ``scale = max(||A||_2, 1)``,
    and ``cond = cond(Q) <= 0.01 / tol``.
    """

    matrix: np.ndarray
    blocks: tuple
    conjugator: np.ndarray
    conjugator_inverse: np.ndarray
    tol: float
    residual: float
    scale: float
    cond: float

    @property
    def n(self) -> int:
        return self.matrix.shape[0]

    def jordan_matrix(self) -> np.ndarray:
        return assemble_jordan_matrix(self.blocks, self.n)

    def to_jordan(self, gamma) -> np.ndarray:
        """Map an ambient row vector (or stack of rows) to Jordan coordinates."""
        return np.asarray(gamma, dtype=float) @ self.conjugator_inverse

    def from_jordan(self, coords) -> np.ndarray:
        """Inverse of :meth:`to_jordan`."""
        return np.asarray(coords, dtype=float) @ self.conjugator


def assemble_jordan_matrix(blocks, n) -> np.ndarray:
    """``J``: a block's cells are ``[[re]]`` or ``D``, and each cell after
    the first has an identity directly above it."""
    J = np.zeros((n, n))
    for b in blocks:
        cell = np.array([[b.re, b.im], [-b.im, b.re]]) if b.is_complex else np.array([[b.re]])
        w = len(cell)
        for i in range(b.offset, b.offset + b.size, w):
            J[i : i + w, i : i + w] = cell
            if i > b.offset:
                J[i - w : i, i : i + w] = np.eye(w)
    return J


def _spectral_scale(a) -> float:
    return max(float(np.linalg.norm(a, 2)), 1.0)


def _cluster(eigs, radius):
    """Connected components of the radius graph, sorted, each in increasing
    index order: each index joins, and merges, the groups within ``radius``
    of it."""
    groups = []
    for i, z in enumerate(eigs):
        merged = [i]
        for g in groups[:]:  # a copy: merged groups leave the list
            for j in g:
                if abs(eigs[j] - z) <= radius:
                    groups.remove(g)
                    merged += g
                    break
        groups.append(sorted(merged))
    return sorted(groups)


class _Inconsistent(Exception):
    """Internal: this clustering radius does not yield a coherent structure."""


def _jordan_chains(a, lam, m_alg, tol):
    """Jordan chains for eigenvalue ``lam``, each a list of columns ordered
    eigenvector first, from one SVD per power of ``A - lam I`` (complex for
    a pair, real for a real ``lam``; Golub and Wilkinson, SIAM Review 1976)."""
    n = a.shape[0]
    complex_mode = abs(lam.imag) > 0
    dtype = complex if complex_mode else float
    shifted = (a.astype(dtype) - (lam if complex_mode else lam.real) * np.eye(n, dtype=dtype))
    null_bases = [np.zeros((n, 0), dtype=dtype)]
    power = np.eye(n, dtype=dtype)
    for j in range(1, m_alg + 1):
        power = power @ shifted
        _, s, vh = np.linalg.svd(power)
        if j == 1:
            base = max(float(s[0]), 1.0)  # ||A - lam I||_2
        threshold = tol * base**j
        if np.any((s > threshold / 10.0) & (s < threshold * 10.0)):
            raise _Inconsistent("singular value inside the ambiguity window")
        null_bases.append(vh[np.count_nonzero(s >= threshold):].conj().T)
        if null_bases[-1].shape[1] == m_alg:
            break
    if null_bases[-1].shape[1] != m_alg:
        raise _Inconsistent("generalized eigenspace does not reach multiplicity")
    # deltas[j - 1]: chains of length >= j
    deltas = [hi.shape[1] - lo.shape[1] for lo, hi in zip(null_bases, null_bases[1:])] + [0]
    if any(d <= 0 for d in deltas[:-1]) or any(x < y for x, y in zip(deltas, deltas[1:])):
        raise _Inconsistent("nullity increments not monotone")
    chains = []
    for height in range(len(deltas) - 1, 0, -1):
        need = deltas[height - 1] - deltas[height]
        if need == 0:
            continue
        # span to avoid: null(shifted^(height-1)) plus the height-level
        # vectors of every taller chain
        avoid = [null_bases[height - 1]]
        for ch in chains:
            if len(ch) > height:
                avoid.append(ch[height - 1].reshape(n, 1))
        avoid_m = np.hstack(avoid)
        if avoid_m.shape[1]:
            q, _ = np.linalg.qr(avoid_m)
        else:
            q = np.zeros((n, 0), dtype=dtype)
        cand = null_bases[height]
        resid = cand - q @ (q.conj().T @ cand)
        u, s, _ = np.linalg.svd(resid, full_matrices=False)
        if int(np.count_nonzero(s > 0.5)) < need:
            raise _Inconsistent("could not extract enough chain tops")
        for idx in range(need):
            top = u[:, idx]
            chain = [top]
            for _ in range(height - 1):
                chain.append(shifted @ chain[-1])
            chain.reverse()  # eigenvector first
            chains.append(_normalize_chain(chain))
    # deterministic order: taller chains first (already), stable otherwise
    return chains


def _normalize_chain(chain):
    """Canonicalize one Jordan chain.

    The chain map fixes relative phases, so the only freedoms are a
    global scalar and Toeplitz shifts of the higher vectors by lower
    ones.  Use them to (a) make every higher vector orthogonal to the
    eigenvector and (b) pin the eigenvector's dominant entry to +1.
    A matrix already in canonical form then reproduces the identity
    basis, so coordinates match the textbook block layout.
    """
    m = len(chain)
    eig = chain[0]
    denom = np.vdot(eig, eig)
    for d in range(1, m):
        c = np.vdot(eig, chain[d]) / denom
        for i in range(m - d):
            chain[d + i] = chain[d + i] - c * chain[i]
    mags = np.abs(chain[0])
    # first entry within tolerance of the dominant one, so exact ties in a
    # canonical eigenvector (|u_j| == |v_j|) break toward the lower index
    idx = int(np.argmax(mags >= (1.0 - 1e-6) * mags.max()))
    z = chain[0][idx]
    return [v / z for v in chain]


def real_jordan_form(a, tol=DEFAULT_TOL, *, require_invertible=True) -> RealJordanForm:
    """Compute the real Jordan decomposition ``P A P^{-1} = J``.

    Eigenvalues closer than the clustering radius are treated as one;
    the radius is raised along a fixed ladder until the implied chain
    structure is consistent and the reassembly residual is below
    ``tol * max(||A||, 1)``.  If no radius works the matrix is reported
    as ill-conditioned rather than misclassified.
    """
    a = as_matrix(a)
    n = a.shape[0]
    scale = _spectral_scale(a)
    if require_invertible and abs(np.linalg.det(a)) <= (tol * scale) ** n:
        raise Singular(f"matrix is numerically singular (|det| = {abs(np.linalg.det(a)):.3e})")
    eigs = np.linalg.eigvals(a)

    last_error = None
    for rel_radius in _CLUSTER_LADDER:
        if rel_radius < tol / 10:
            continue
        try:
            return _attempt(a, eigs, rel_radius * scale, tol, scale)
        except _Inconsistent as exc:
            last_error = exc
    gaps = sorted(
        abs(eigs[i] - eigs[j]) for i in range(n) for j in range(i + 1, n)
    )
    raise IllConditioned(
        "eigenvalue clustering is ambiguous at every tested radius "
        f"(pairwise gaps: {[f'{g:.3e}' for g in gaps[:5]]}); last failure: {last_error}",
        gap=gaps[0] if gaps else None,
    )


def _attempt(a, eigs, radius, tol, scale):
    """The form the clusters give at ``radius``, or :class:`_Inconsistent`:
    a cluster within ``radius`` of the real axis is real, one above it gives
    the pair, and one below is skipped (its mirror above gave the pair)."""
    n = a.shape[0]
    columns = []
    blocks = []
    offset = 0
    for g in _cluster(eigs, radius):
        mean = complex(np.mean(eigs[g]))
        if abs(mean.imag) <= radius:
            lam = complex(mean.real, 0.0)
        elif mean.imag > radius:
            lam = mean
        else:
            continue
        for chain in _jordan_chains(a, lam, len(g), tol):
            for v in chain:
                columns.append(np.real(v))
                if lam.imag:
                    columns.append(np.imag(v))
            blocks.append(JordanBlock(re=lam.real, im=lam.imag, chain=len(chain), offset=offset))
            offset += blocks[-1].size
    if offset != n:
        raise _Inconsistent("block sizes do not sum to the dimension")
    q = np.column_stack(columns)
    # A nearly parallel basis signals a defective eigenvalue read as split:
    # refuse and let the clustering ladder merge it instead.
    cond = float(np.linalg.cond(q))
    if cond > 0.01 / tol:
        raise _Inconsistent("Jordan basis is too ill-conditioned")
    p = np.linalg.inv(q)
    j = assemble_jordan_matrix(blocks, n)
    residual = float(np.linalg.norm(p @ a @ q - j, 2))
    if residual > tol * scale:
        raise _Inconsistent(f"reassembly residual {residual:.3e} exceeds tolerance")
    return RealJordanForm(
        matrix=a,
        blocks=tuple(blocks),
        conjugator=p,
        conjugator_inverse=q,
        tol=tol,
        residual=residual,
        scale=scale,
        cond=cond,
    )


def jordan_power_rows(bform: RealJordanForm, coords, ps, *, integer=False) -> np.ndarray:
    """Each row of Jordan coordinates times its own block power:
    ``coords[s] @ exp(ps[s] * J)``, or ``coords[s] @ J^ps[s]`` when ``integer``.

    Blocks act separately and no (s, n, n) stack is formed (the formulas
    are in the module docstring).  An overflowing power gives inf or nan
    rows, which callers flag or raise on.
    """
    coords = np.atleast_2d(np.asarray(coords, dtype=float))
    return _power_stack(bform, coords[:, None, :], np.asarray(ps, dtype=float).reshape(len(coords)), integer)[:, 0]


def _power_stack(bform, rows, ps, integer):
    """``rows[s, i] @ (block power at ps[s])`` for an (s, r, n) stack; a
    stack of one is shared by every exponent."""
    out = np.empty((len(ps),) + rows.shape[1:])
    with np.errstate(over="ignore", invalid="ignore"):
        for b in bform.blocks:
            span = slice(b.offset, b.offset + b.size)
            out[..., span] = _block_power_rows(b, rows[..., span], ps, integer)
    return out


def _block_power_rows(b: JordanBlock, rows, ps, integer):
    """One block's rows times its power, as the complex Jordan block of
    ``lambda = re + i im`` acting on the cells (a pair ``(x, y)`` is the
    number ``x + iy``, and ``(x, y) @ D`` is ``(x + iy) lambda``).  A pair's
    integer power and chain coefficients are formed once per distinct
    exponent (:func:`_distinct_exponents`), in extended precision, and
    gathered to the rows."""
    lam = complex(b.re, b.im) if b.is_complex else b.re
    row_of = slice(None)  # the exponent of each row: ps[row_of]
    if not integer:
        power = np.exp(lam * ps)
    elif b.is_complex:
        # r^p e^{i p theta} in extended precision: a double angle p theta
        # is off by |p| eps, 1e-10 at |p| ~ 10^6.  A batch of tile indices
        # holds few distinct ones, found by a table or by their bits; on
        # either path each is formed once from its own value, so each row
        # gets the bits it gets in a batch of its own
        if len(ps) > 1:  # a batch of one needs no table
            ps, row_of = _distinct_exponents(ps)
        q, re, im = ps.astype(np.longdouble), np.longdouble(b.re), np.longdouble(b.im)
        r_p, angle = np.exp(q * np.log(np.hypot(re, im))), q * np.arctan2(im, re)
        power = (r_p * np.cos(angle)).astype(float) + 1j * (r_p * np.sin(angle)).astype(float)
    else:
        power = np.power(lam, ps)
    cells = np.ascontiguousarray(rows).view(complex) if b.is_complex else rows
    acc = cells * power[row_of][:, None, None]
    # the chain: cell j gains coeff_d(p) (cell j - d), coeff_d = p^d / d!
    # (flow) or C(p, d) lambda^-d (power)
    shifted, coeff = (acc.copy() if b.chain > 1 else acc), 1.0
    for d in range(1, b.chain):
        coeff = coeff * ((ps - (d - 1)) / (d * lam) if integer else ps / d)
        acc[..., d:] += coeff[row_of][:, None, None] * shifted[..., : b.chain - d]
    return acc.view(float) if b.is_complex else acc


def _distinct_exponents(ps):
    """The distinct exponents of a batch and each row's slot among them.

    Integer exponents spanning fewer values than the batch has rows are
    counted in a table indexed by ``p - min``, with no sort; any other
    batch (a fraction, a wide span, a non-finite value) is told apart by
    its bit patterns.  The table reads ``-0.0`` as ``0.0``: integer
    exponents come from int arrays (tile indices, shifts, window
    offsets), which hold no ``-0.0``."""
    lo, hi = ps.min(), ps.max()
    if hi - lo < len(ps) and np.all(ps == np.floor(ps)):
        offsets = (ps - lo).astype(np.intp)
        present = np.bincount(offsets) > 0
        slot = np.cumsum(present) - 1
        return lo + np.flatnonzero(present), slot[offsets]
    bits, row_of = np.unique(ps.view(np.int64), return_inverse=True)
    return bits.view(float), row_of


def jordan_flow_batch(bform: RealJordanForm, ts) -> np.ndarray:
    """Vectorized ``exp(t*J)`` (Jordan coordinates): the kernel on identity
    rows; returns (len(ts), n, n)."""
    jt = _power_stack(bform, np.eye(bform.n)[None], np.asarray(ts, dtype=float).reshape(-1), False)
    if not np.isfinite(jt).all():
        raise Overflow("matrix exponential overflowed")
    return jt


def one_parameter_power_batch(bform: RealJordanForm, ts) -> np.ndarray:
    """Vectorized ``exp(t*B) = Q exp(tJ) P`` for an array of times; returns (len(ts), n, n)."""
    out = bform.conjugator_inverse @ jordan_flow_batch(bform, ts) @ bform.conjugator
    if not np.isfinite(out).all():
        raise Overflow("matrix exponential overflowed")
    return out


def one_parameter_power(bform: RealJordanForm, t: float) -> np.ndarray:
    """``exp(t*B)`` from the closed per-block formula, conjugated back.

    The exact one-parameter group law holds up to floating-point
    accumulation.
    """
    if not np.isfinite(t):
        raise ValueError("t must be finite")
    return one_parameter_power_batch(bform, [float(t)])[0]


def integer_power(a, k: int) -> np.ndarray:
    """``A^k`` by binary exponentiation (``A^0 = I``; negative ``k`` inverts ``A``)."""
    a = as_matrix(a)
    k = int(k)
    if k < 0 and abs(np.linalg.det(a)) == 0.0:
        raise Singular("negative power of a singular matrix")
    with np.errstate(over="ignore", invalid="ignore"):
        out = np.linalg.matrix_power(a, k)
    if not np.all(np.isfinite(out)):
        raise Overflow(f"A^{k} overflows the floating-point range")
    return out


def row_norms(c) -> np.ndarray:
    """``np.linalg.norm(c, axis=1)`` of an (m, n) array, bit for bit.

    Below 8 columns NumPy adds a row's squares from left to right, which is
    the order of the column loop; from 8 on it sums pairwise, and its own
    norm is taken.  An overflowing square warns as it does there."""
    n = c.shape[1]
    if not 0 < n < 8:
        return np.linalg.norm(c, axis=1)
    acc = c[:, 0] * c[:, 0]
    for j in range(1, n):
        acc += c[:, j] * c[:, j]
    return np.sqrt(acc)


def finite_rows(c) -> np.ndarray:
    """``np.isfinite(c).all(axis=1)`` of an (m, n) array, column by column."""
    out = np.ones(c.shape[0], dtype=bool)
    for j in range(c.shape[1]):
        out &= np.isfinite(c[:, j])
    return out


def box_corners(lo, hi) -> np.ndarray:
    """The 2^n corners of the box [lo, hi]; corner i takes ``hi[d]`` where
    bit d of i is set and ``lo[d]`` elsewhere."""
    n = len(lo)
    bits = (np.arange(2**n)[:, None] >> np.arange(n)) & 1
    return np.where(bits == 1, np.asarray(hi, dtype=float), np.asarray(lo, dtype=float))
