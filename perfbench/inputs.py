"""Seeded input generation for the three workloads.

Everything here is plain NumPy and JSON: no xsect call is made, so the
library only ever receives the generated inputs.  The same seed gives
the same inputs, byte for byte.
"""

from __future__ import annotations

import json
import math
import os
import zlib

import numpy as np

COND_CAP = 50.0

# The generator of the continuous eigen-order defect: its witness block
# (alpha = -0.043) makes flow times overflow float resolution for about
# half of all Gaussian points.  Used unchanged.
EIG_ORDER_GENERATOR = np.array([[0.064, -0.502], [0.282, -1.366]])

# diag(1.02, 3) conjugated by a fixed P.  With this P, np.linalg.eigvals
# lists 1.02 first, which makes the weak eigenvalue the witness and
# refuses about half of all Gaussian points.  The P is fixed rather than
# drawn from the workload seed: other P list 3 first and refuse nothing,
# which would hide the defect on some seeds only.
EIG_ORDER_DISCRETE_P_SEED = 1

# Conjugators come from this fixed seed, not from the workload seed: the
# cost of a tiling check varies by up to 40% between conjugators (heavy
# tails of the tile index, wider orbit boxes), which would swamp any
# change worth measuring.  The workload seed drives every point batch,
# sampling seed and request order.
CONJUGATOR_SEED = 20240817

# Sampling seed of every checked verification (tiling checks, multi-wavelet
# checks, CLI verify requests); the known-defect probe samples from the
# workload seed.  Their verdicts then repeat on every workload seed:
# with seeded samples, about 1 seed in 4 met a sample that a check miscounts
# (see perfbench/README.md), and the run would fail on the library's rare
# defects rather than measure it.
CHECK_SEED = 20240817


def _rotation_scaling(a, b):
    return np.array([[a, b], [-b, a]])


def _imaginary_nilpotent(beta):
    om = _rotation_scaling(0.0, beta)
    return np.block([[om, np.eye(2)], [np.zeros((2, 2)), om]])


def _six_by_six():
    """A 6x6 matrix with one expanding real eigenvalue and free blocks of
    modulus one: a rotation, a shear and a reflection."""
    m = np.zeros((6, 6))
    m[0, 0] = 1.6
    m[1:3, 1:3] = _rotation_scaling(math.cos(0.7), math.sin(0.7))
    m[3:5, 3:5] = [[1.0, 1.0], [0.0, 1.0]]
    m[5, 5] = -1.0
    return m


# Canonical representatives of the eight existence cases.
DISCRETE_CASES = {
    "modulus_not_one": np.array([[2.0, 1.0], [0.0, 2.0]]),
    "complex_modulus_not_one": _rotation_scaling(0.0, 2.0),
    "real_modulus_one_nilpotent": np.array([[1.0, 1.0], [0.0, 1.0]]),
    "complex_modulus_one_nilpotent": _imaginary_nilpotent(1.0),
}
CONTINUOUS_CASES = {
    "real_nonzero": np.array([[math.log(2.0), 1.0], [0.0, math.log(2.0)]]),
    "complex_nonzero": _rotation_scaling(1.0, 2.0 * math.pi),
    "zero_nilpotent": np.array([[0.0, 1.0], [0.0, 0.0]]),
    "imaginary_nilpotent": _imaginary_nilpotent(math.pi),
}


def random_conjugate(a, rng, cond_cap=COND_CAP):
    """``P^-1 a P`` for a Gaussian ``P`` with ``cond(P) < cond_cap``."""
    a = np.asarray(a, dtype=float)
    n = a.shape[0]
    while True:
        p = rng.normal(size=(n, n))
        if np.linalg.cond(p) < cond_cap:
            return np.linalg.inv(p) @ a @ p


def eig_order_discrete():
    return random_conjugate(np.diag([1.02, 3.0]), np.random.default_rng(EIG_ORDER_DISCRETE_P_SEED))


def _child(seed, *key):
    """Independent generator for one named input of the seeded workload."""
    return np.random.default_rng([int(seed), zlib.crc32("/".join(key).encode())])


def _conjugated(a, *key):
    return random_conjugate(a, _child(CONJUGATOR_SEED, *key))


# ---------------------------------------------------------------------------
# tiling


def tiling_inputs(seed):
    """Matrices and sample points for the ``tiling`` workload.

    Returns a dict with ``discrete`` and ``continuous`` (label -> matrix),
    the reshape inputs, and one Gaussian point batch per section label.
    """
    discrete = {case: _conjugated(a, "d", case) for case, a in DISCRETE_CASES.items()}
    # the conjugated shear miscounts one sample in 10^4 on about 1 seed in 20
    # (multiplicity 0); its check would fail, so the shear is used as given
    discrete["real_modulus_one_nilpotent"] = DISCRETE_CASES["real_modulus_one_nilpotent"]
    discrete["six_free_blocks"] = _conjugated(_six_by_six(), "d", "six")
    discrete["eig_order_discrete"] = eig_order_discrete()
    continuous = {case: _conjugated(b, "c", case) for case, b in CONTINUOUS_CASES.items()}
    continuous["eig_order_generator"] = EIG_ORDER_GENERATOR.copy()
    # the reshape inputs are the diagonal matrices themselves
    shaped = {"finite": np.diag([2.0, 1.0]), "bounded": np.diag([2.0, 3.0])}
    # orbit integrals are deterministic and their cost grows with the spread
    # of the conjugator (0.7 s to 9 s for real_nonzero), so they integrate over
    # the canonical generators: the pass then costs the same on every seed
    orbit = {case: CONTINUOUS_CASES[case] for case in ("real_nonzero", "zero_nilpotent")}
    sections = {**discrete, **continuous, **{f"shaped_{k}": m for k, m in shaped.items()}}
    points = {label: _child(seed, "pts", label).normal(size=(100_000, m.shape[0])) for label, m in sections.items()}
    return {
        "discrete": discrete,
        "continuous": continuous,
        "shaped": shaped,
        "orbit": orbit,
        "points": points,
        "check_seed": CHECK_SEED,
        "probe_seed": int(seed),
    }


# ---------------------------------------------------------------------------
# wavelet


def box(lo, hi):
    return (tuple(float(v) for v in lo), tuple(float(v) for v in hi))


SHANNON = (box([-1.0], [-0.5]), box([0.5], [1.0]))
DOUBLED = (box([-2.0], [-1.0]), box([1.0], [2.0]))
# [-1,1)^2 minus [-1/2,1/2)^2 as four disjoint boxes
ANNULUS = (
    box([-1.0, -1.0], [-0.5, 1.0]),
    box([-0.5, -1.0], [0.5, -0.5]),
    box([-0.5, 0.5], [0.5, 1.0]),
    box([0.5, -1.0], [1.0, 1.0]),
)
SPIRAL = _rotation_scaling(0.0, 2.0)
SHEAR = np.array([[1.0, 1.0], [0.0, 1.0]])


def wavelet_inputs(seed):
    """Box regions, lattice bases and sample points for ``wavelet``."""
    g = _child(seed, "wavelet")
    return {
        "regions": {"shannon": SHANNON, "doubled": DOUBLED, "annulus": ANNULUS},
        "lattices": {"z1": np.eye(1), "z2": np.eye(2)},
        "matrices": {"two": np.array([[2.0]]), "spiral": SPIRAL, "shear": SHEAR},
        "check_seeds": [CHECK_SEED, CHECK_SEED + 1, CHECK_SEED + 2],
        "sweep_1d": g.normal(size=(10_000, 1)),
        "sweep_spiral": g.normal(size=(10_000, 2)),
        "inf_rows": [g.uniform(-0.5, 0.5, size=(200, 1)) for _ in range(3)],
        "annulus_rows": [g.normal(size=(2000, 2)) for _ in range(3)],
    }


# ---------------------------------------------------------------------------
# cli

# requests per kind in one pass of 1000; shares as in the workload design
CLI_MIX = {
    "classify": 200,
    "build": 150,
    "solve": 200,
    "shape_bounded": 100,
    "shape_finite": 50,
    "verify": 100,
    "dimfn": 100,
    "build_inf": 50,
    "partition": 50,
}
CLI_ORTHOGONAL_BUILDS = 10  # build requests expected to exit with code 2
CLI_EIG_ORDER_SOLVES = 20  # solve requests on the two eigen-order inputs


def _matrix_doc(m):
    m = np.asarray(m, dtype=float)
    return {"n": int(m.shape[0]), "rows": [[float(x) for x in row] for row in m]}


def _write(directory, name, obj):
    path = os.path.join(directory, name)
    with open(path, "w") as fh:
        json.dump(obj, fh)
    return path


def _point_text(v):
    # passed as --point=<text>: a leading minus sign would read as an option
    return ",".join(repr(float(x)) for x in v)


def cli_inputs(seed, directory):
    """Write the JSON input files into ``directory`` and return the request
    list: dicts with ``kind``, ``name``, ``argv``, ``expected`` (exit codes
    allowed) and, for requests that submit points, ``points``.

    The request order is a seeded shuffle of the fixed mix.
    """
    g = _child(seed, "cli")
    files = {}

    def matrix_file(label, m):
        files[label] = _write(directory, f"{label}.json", _matrix_doc(m))
        return files[label]

    def section_file(label, mode, m):
        return _write(directory, f"section_{label}.json", {"mode": mode, "matrix": _matrix_doc(m)})

    disc = {c: _conjugated(a, "d", c) for c, a in DISCRETE_CASES.items()}
    cont = {c: _conjugated(b, "c", c) for c, b in CONTINUOUS_CASES.items()}
    for c, m in disc.items():
        matrix_file(f"disc_{c}", m)
    for c, m in cont.items():
        matrix_file(f"cont_{c}", m)
    rot = _conjugated(_rotation_scaling(math.cos(1.1), math.sin(1.1)), "rot")
    skew = _conjugated(_rotation_scaling(0.0, 0.8), "skew")
    orth_disc = matrix_file("orth_disc", rot)
    orth_cont = matrix_file("orth_cont", skew)

    sec_disc = {c: section_file(f"disc_{c}", "discrete", m) for c, m in disc.items()}
    sec_cont = {c: section_file(f"cont_{c}", "continuous", m) for c, m in cont.items()}
    eig_sections = {
        "eig_order_generator": section_file("eig_order_generator", "continuous", EIG_ORDER_GENERATOR),
        "eig_order_discrete": section_file("eig_order_discrete", "discrete", eig_order_discrete()),
    }
    # bounded reshaping needs every modulus on one side of 1, finite needs |det| != 1
    bounded = {
        "diag23": section_file("diag23", "discrete", _conjugated(np.diag([2.0, 3.0]), "diag23")),
        "modulus": sec_disc["modulus_not_one"],
        "spiral": sec_disc["complex_modulus_not_one"],
    }
    finite = {
        "diag21": section_file("diag21", "discrete", _conjugated(np.diag([2.0, 1.0]), "diag21")),
        "modulus": sec_disc["modulus_not_one"],
        "spiral": sec_disc["complex_modulus_not_one"],
    }
    lattices = {
        1: _write(directory, "z1.json", {"basis": _matrix_doc(np.eye(1))}),
        2: _write(directory, "z2.json", {"basis": _matrix_doc(np.eye(2))}),
    }

    def region_file(name, boxes):
        doc = {"kind": "boxes", "boxes": [{"lo": list(lo), "hi": list(hi)} for lo, hi in boxes]}
        return _write(directory, f"region_{name}.json", doc)

    regions = {
        "shannon": (region_file("shannon", SHANNON), 1, 1),
        "doubled": (region_file("doubled", DOUBLED), 1, 2),
        "annulus": (region_file("annulus", ANNULUS), 2, 3),
    }
    inf_inputs = [
        (matrix_file("inf_two", [[2.0]]), lattices[1], 8),
        (matrix_file("inf_spiral", SPIRAL), lattices[2], 4),
        (matrix_file("inf_shear", SHEAR), lattices[2], 10),
    ]

    def pick(seq, i):
        # round robin: the seed varies points, sampling seeds and order,
        # never how often each input is used
        return seq[i % len(seq)]

    requests = []
    case_keys = list(DISCRETE_CASES)
    cont_keys = list(CONTINUOUS_CASES)
    for i in range(CLI_MIX["classify"]):
        mode = "discrete" if i % 2 == 0 else "continuous"
        path = files[f"disc_{pick(case_keys, i // 2)}"] if mode == "discrete" else files[f"cont_{pick(cont_keys, i // 2)}"]
        requests.append({"kind": "classify", "argv": ["classify", "--mode", mode, "--matrix", path], "expected": (0,)})
    for i in range(CLI_MIX["build"]):
        if i < CLI_ORTHOGONAL_BUILDS:
            mode, path, expected = ("discrete", orth_disc, (2,)) if i % 2 == 0 else ("continuous", orth_cont, (2,))
        elif i % 2 == 0:
            mode, path, expected = "discrete", files[f"disc_{pick(case_keys, i // 2)}"], (0,)
        else:
            mode, path, expected = "continuous", files[f"cont_{pick(cont_keys, i // 2)}"], (0,)
        requests.append({"kind": "build", "argv": ["build", "--mode", mode, "--matrix", path], "expected": expected})
    solve_pool = [(sec_disc[c], 2 if c != "complex_modulus_one_nilpotent" else 4) for c in case_keys]
    solve_pool += [(sec_cont[c], 2 if c != "imaginary_nilpotent" else 4) for c in cont_keys]
    for i in range(CLI_MIX["solve"]):
        if i < CLI_EIG_ORDER_SOLVES:
            path = eig_sections["eig_order_generator" if i % 2 == 0 else "eig_order_discrete"]
            n = 2
        else:
            path, n = pick(solve_pool, i)
        point = g.normal(size=n)
        # a refused point is a legitimate outcome: exit 1 with a refusal code
        requests.append({"kind": "solve", "argv": ["solve", "--section", path, f"--point={_point_text(point)}"],
                         "expected": (0, 1), "points": 1})
    for i in range(CLI_MIX["shape_bounded"]):
        path = pick(list(bounded.values()), i)
        requests.append({"kind": "shape_bounded", "argv": ["shape", "--section", path, "--target", "bounded"],
                         "expected": (0,)})
    for i in range(CLI_MIX["shape_finite"]):
        path = pick(list(finite.values()), i)
        requests.append({"kind": "shape_finite",
                         "argv": ["shape", "--section", path, "--target", "finite", "--samples", "20000",
                                  "--seed", str(int(g.integers(2**31)))],
                         "expected": (0,)})
    # conjugated shear sections miscount about one sample in 2000 (multiplicity
    # 0 or 3, or a tile index beyond the 1e6 power limit), so those two cases
    # stay out of the verify mix: each such request would fail
    verify_pool = [sec_disc[c] for c in ("modulus_not_one", "complex_modulus_not_one",
                                         "complex_modulus_one_nilpotent")]
    verify_pool += [sec_cont[c] for c in ("real_nonzero", "complex_nonzero")]
    for i in range(CLI_MIX["verify"]):
        requests.append({"kind": "verify",
                         "argv": ["verify", "--section", pick(verify_pool, i), "--mode", "discrete", "--samples", "2000",
                                  "--seed", str(CHECK_SEED + i)],
                         "expected": (0,), "points": 2000})
    for i in range(CLI_MIX["dimfn"]):
        path, n, _ = pick(list(regions.values()), i)
        requests.append({"kind": "dimfn",
                         "argv": ["wavelet", "dimfn", "--region", path, f"--point={_point_text(g.normal(size=n))}"],
                         "expected": (0,), "points": 1})
    for i in range(CLI_MIX["build_inf"]):
        matrix, lattice, pieces = pick(inf_inputs, i)
        requests.append({"kind": "build_inf",
                         "argv": ["wavelet", "build-inf", "--matrix", matrix, "--lattice", lattice,
                                  "--pieces", str(pieces)],
                         "expected": (0,)})
    for i in range(CLI_MIX["partition"]):
        path, n, order = pick(list(regions.values()), i)
        requests.append({"kind": "partition",
                         "argv": ["wavelet", "partition", "--region", path, "--lattice", lattices[n],
                                  "--order", str(order)],
                         "expected": (0,)})
    for req in requests:
        # kind and first input file, so refusals can be traced to their input
        first = next(a for a in req["argv"] if a.startswith(directory))
        req["name"] = f"{req['kind']}:{os.path.splitext(os.path.basename(first))[0]}"
    order = g.permutation(len(requests))
    return [requests[i] for i in order]
