"""The Jordan-form corpus of ``tests/output_replay.py``'s ``jordan`` section:
a fixed set of seeded matrices replayed through ``real_jordan_form``.

Each record is one (matrix, tol, require_invertible) input and holds, for an
accepted form, each block's ``re``/``im`` hex, ``chain`` and ``offset``,
the bytes of ``conjugator`` and ``conjugator_inverse`` and the ``residual``
hex; for a refusal, its class and message.  :func:`record` also reports
whether ``form.cond`` is ``np.linalg.cond`` of the conjugator's inverse and
``form.scale`` is ``max(||A||_2, 1)``, exactly (None on a tree whose forms
lack the two fields), which the capture checks on each accepted form.

The corpus, all of it seeded (20,136 records):

* 14 canonical matrices, each as it is and under 150 Gaussian conjugators
  of condition number below 50;
* 600 random matrices with n <= 5, a quarter of them with half-integer
  entries;
* 80 near-defective ``[[1, 1], [e, 1]]`` and ``[[1, 1], [0, 1 + e]]``, 40
  near-ambiguous 3-chains, 80 conjugated 4x4 rotating shears, 60 perturbed
  ``J2(2) + J1(2) + J1(0.5)`` and 60 conjugated 6x6 matrices with three
  complex pairs;

each at tol 1e-9 and 1e-7 with ``require_invertible`` on and off; and the
4,000 weak shears ``P^-1 [[1, c], [0, 1]] P`` (``c`` = 1, 0.1, 0.01, 0.001,
1,000 each; ``P`` Gaussian, drawn until ``cond(P) < 30`` from one
``default_rng(5)`` stream) at tol 1e-9 and 1e-7, as ``classify_discrete``
reads them.
"""

from __future__ import annotations

import math

import numpy as np


def _rot(a, b):
    return np.array([[a, b], [-b, a]])


def _block_diag(*blocks):
    blocks = [np.atleast_2d(np.asarray(b, dtype=float)) for b in blocks]
    out = np.zeros((sum(len(b) for b in blocks),) * 2)
    i = 0
    for b in blocks:
        out[i : i + len(b), i : i + len(b)] = b
        i += len(b)
    return out


def _rotating_shear(beta):
    om = _rot(0.0, beta)
    return np.block([[om, np.eye(2)], [np.zeros((2, 2)), om]])


def _chain(lam, m):
    return lam * np.eye(m) + np.eye(m, k=1)


CANONICAL = {
    "two": [[2.0]],
    "diag21": np.diag([2.0, 1.0]),
    "contracting": np.diag([0.5, 0.9]),
    "shear": _chain(1.0, 2),
    "nilpotent": _chain(0.0, 2),
    "rotation": _rot(0.0, 1.0),
    "spiral": [[1.2, -0.5], [0.5, 1.2]],
    "spiral_generator": _rot(1.0, 2 * math.pi),
    "unipotent_chain3": _chain(1.0, 3),
    "chain3_ln2": _chain(math.log(2.0), 3),
    "j2_2_j1_2": _block_diag(_chain(2.0, 2), 2.0),
    "rotating_shear": _rotating_shear(1.0),
    "mixed5": _block_diag(1.6, _rot(math.cos(0.7), math.sin(0.7)), _chain(1.0, 2)),
    "three_pairs": _block_diag(_rot(1.2, 0.5), _rot(0.3, 0.9), _rot(-0.8, 2.0)),
}


def _conjugate(a, g, cond_cap):
    n = len(a)
    while True:
        p = g.normal(size=(n, n))
        if np.linalg.cond(p) < cond_cap:
            return np.linalg.inv(p) @ np.asarray(a, dtype=float) @ p


def mixed_matrices():
    """(name, matrix) of the mixed corpus, in a fixed order."""
    g = np.random.default_rng(19)
    out = []
    for name, a in CANONICAL.items():
        a = np.asarray(a, dtype=float)
        out.append((name, a))
        out += [(f"{name}~{i}", _conjugate(a, g, 50.0)) for i in range(150)]
    for i in range(600):
        a = g.normal(size=(int(g.integers(1, 6)),) * 2)
        out.append((f"random{i}", np.round(2 * a) / 2 if i % 4 == 0 else a))
    for i, e in enumerate(np.logspace(-12, -3, 40)):
        out += [(f"near_shear_low{i}", np.array([[1.0, 1.0], [e, 1.0]])),
                (f"near_shear_diag{i}", np.array([[1.0, 1.0], [0.0, 1.0 + e]]))]
    for i, gap in enumerate(np.logspace(-10, -2, 40)):
        out.append((f"near_chain3_{i}", np.array([[1.0, 1.0, 0.0], [0.0, 1 + gap, 1.0], [0.0, 0.0, 1 + 2 * gap]])))
    for i in range(80):
        out.append((f"random_rotating_shear~{i}", _conjugate(_rotating_shear(g.uniform(0.5, 3.0)), g, 50.0)))
    base = _block_diag(_chain(2.0, 2), 2.0, 0.5)
    for i in range(60):
        out.append((f"perturbed_j2{i}", base + g.normal(size=base.shape) * 10.0 ** -g.uniform(6, 12)))
    for i in range(60):
        pairs = [_rot(g.uniform(-2, 2), g.uniform(0.1, 3)) for _ in range(3)]
        out.append((f"random_three_pairs~{i}", _conjugate(_block_diag(*pairs), g, 50.0)))
    return out


def weak_shears():
    """(name, matrix) of the 4,000 weak-shear conjugates."""
    g = np.random.default_rng(5)
    out = []
    for c in (1.0, 0.1, 0.01, 0.001):
        shear = np.array([[1.0, c], [0.0, 1.0]])
        for i in range(1000):
            while True:
                p = g.normal(size=(2, 2))
                if np.linalg.cond(p) < 30:
                    break
            out.append((f"weak_shear{c}~{i}", np.linalg.inv(p) @ shear @ p))
    return out


def inputs():
    """(key, matrix, tol, require_invertible) of every record."""
    for name, a in mixed_matrices():
        for tol in (1e-9, 1e-7):
            for invertible in (True, False):
                yield f"{name}@{tol:g}/{int(invertible)}", a, tol, invertible
    for name, a in weak_shears():
        for tol in (1e-9, 1e-7):
            yield f"{name}@{tol:g}/1", a, tol, True


def record(a, tol, require_invertible):
    """The replay record of one input, and whether the form's cached
    ``cond`` and ``scale`` hold (None for a refusal or a tree without them)."""
    from xsect.errors import XsectError
    from xsect.linalg import _spectral_scale, real_jordan_form

    try:
        form = real_jordan_form(a, tol, require_invertible=require_invertible)
    except XsectError as exc:
        return {"refusal": [type(exc).__name__, str(exc)]}, None
    rec = {
        "blocks": [[float(b.re).hex(), float(b.im).hex(), b.chain, b.offset] for b in form.blocks],
        "conjugator": form.conjugator.tobytes().hex(),
        "conjugator_inverse": form.conjugator_inverse.tobytes().hex(),
        "residual": float(form.residual).hex(),
    }
    if not hasattr(form, "cond"):
        return rec, None
    return rec, bool(form.cond == np.linalg.cond(form.conjugator_inverse) and form.scale == _spectral_scale(form.matrix))
