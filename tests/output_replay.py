"""Capture the outputs of the seeded benchmark inputs and the demos, and
compare two captures record by record.

    PYTHONPATH=src python tests/output_replay.py capture OUT.jsonl
    python tests/output_replay.py compare OLD.jsonl NEW.jsonl

A change that must leave these outputs as they are captures them on the
tree before it and on the tree after it, and compares the two files.
``capture`` writes only to ``OUT.jsonl`` and to temporary directories that
it removes; ``compare`` reads only.  Each record has a ``section``, a
``key`` and the output, by section:

* ``cli``: the 1,000 requests of ``perfbench.inputs.cli_inputs`` at seeds
  1-3, run in-process through ``xsect.cli.main``: exit code and stdout,
  with the temporary input directory written as ``$TMP``;
* ``demos``: the stdout of each ``demos/*.py``, run as a script;
* ``tiling``: at seeds 1-3, the ``to_json`` of the tiling workload's
  eleven checked reports and of its eigen-order probe, and the
  ``float.hex`` of its two orbit integrals;
* ``solve``: at seeds 1-3, the SHA-256 of the bytes of the parameters,
  representatives and refusal mask that ``solve`` returns on the tiling
  workload's 100,000 points of each of its sets;
* ``wavelet``: at seeds 1-3, the ``to_json`` of the wavelet workload's
  three ``is_multiwavelet_set`` reports;
* ``order_inf``: at seeds 1-3, the ``to_json`` of the wavelet workload's
  three order-infinity sets (``build_inf``), the SHA-256 of the bytes of
  the membership and refusal masks of its ``sweep:two`` and
  ``sweep:spiral`` points at each power of the matrix, and of the counts of
  its ``translation_counts:inf0-2``;
* ``tiled``: for each set of ``TILED_REGIONS`` in ``tests/test_sections.py``,
  the SHA-256 of the bytes of the arrays that ``membership`` and ``solve``
  return on five row families: 200 Gaussian rows times 1e300, the rows of
  ``_float_range_rows``, the row of -1, the NaN row, and the nonzero
  integer rows of [-6, 6]^n (of [-2, 2]^4 for n = 4);
* ``contracting``: for the order-infinity sets of ``[[0.5]]``,
  ``[[-0.5]]``, the spiral ``[[0.6, 0.3], [-0.3, 0.6]]``,
  ``diag(0.5, 0.25)``, ``diag(0.25, 3)`` and ``diag(0.25, 3)`` under
  ``random_conjugate`` seed 0 (``tests/conftest.py``), each set's
  ``to_json`` and the SHA-256 of the bytes of the arrays that
  ``membership`` and ``solve`` return on two row families: the nonzero
  integer rows of [-6, 6]^n, and 200 Gaussian rows times 8;
* ``integrate``: the ``float.hex`` of the Gaussian's orbit integral
  (decay radius 8) and of ``jacobian_check`` (20 points, seed 0) on the
  continuous sections of the shear generator ``[[0, 1], [0, 0]]`` and of
  the scaling chain ``[[0.693147, 1], [0, 0.693147]]``;
* ``jordan``: the Jordan form or refusal of each input of the corpus in
  ``tests/jordan_replay.py``.  On each accepted form the capture also
  checks that the cached ``cond`` and ``scale`` equal their recomputation,
  and exits 1 where one does not.

A check or solve that the library refuses as a whole is recorded as its
refusal.  ``compare`` prints per section the number of identical and differing
records, and the first differing bytes of the first differing records;
it exits 1 on any difference.  A capture takes 20-30 s on one core
of an Intel Xeon.  The inputs come from ``perfbench/``, imported from the
checkout that holds this file.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import itertools
import json
import math
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SEEDS = (1, 2, 3)
SHOWN = 3  # differing records printed per section


def cli_records(seed):
    import xsect.cli
    from perfbench import inputs

    with tempfile.TemporaryDirectory() as directory:
        for i, req in enumerate(inputs.cli_inputs(seed, directory)):
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                code = xsect.cli.main(req["argv"])
            yield f"{seed}/{i}/{req['name']}", {"code": code, "stdout": buf.getvalue().replace(directory, "$TMP")}


def demo_records():
    import xsect

    path = [str(Path(xsect.__file__).parents[1]), os.environ.get("PYTHONPATH")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path))}
    for demo in sorted((ROOT / "demos").glob("*.py")):
        done = subprocess.run([sys.executable, str(demo)], capture_output=True, text=True, env=env, cwd=ROOT)
        yield demo.name, {"code": done.returncode, "stdout": done.stdout}


# the tiling workload's checked reports, and the set of its known-defect probe
DISCRETE_CHECKS = ("modulus_not_one", "complex_modulus_not_one", "real_modulus_one_nilpotent",
                   "complex_modulus_one_nilpotent", "shaped_finite", "shaped_bounded")
CONTINUOUS_CHECKS = ("real_nonzero", "complex_nonzero", "zero_nilpotent", "imaginary_nilpotent", "eig_order_generator")
PROBE = "eig_order_discrete"


def _outcome(fn, *args, **kwargs):
    """``fn``'s output, or the refusal that it raised."""
    from perfbench import workloads

    try:
        return fn(*args, **kwargs)
    except Exception as exc:
        if not workloads.is_refusal(exc):
            raise
        return {"refusal": [type(exc).__name__, str(exc)]}


def tiling_records(seed):
    import xsect.verify as verify
    from perfbench import inputs, workloads

    inp = inputs.tiling_inputs(seed)
    objs, orbit = workloads.tiling_setup(inp)
    checks = [(label, verify.check_discrete_tiling, inp["check_seed"]) for label in DISCRETE_CHECKS]
    checks.append((PROBE, verify.check_discrete_tiling, inp["probe_seed"]))
    checks += [(label, verify.check_continuous_tiling, inp["check_seed"]) for label in CONTINUOUS_CHECKS]
    for label, check, check_seed in checks:
        report = _outcome(check, objs[label], samples=10_000, seed=check_seed)
        yield f"{seed}/check/{label}", report if isinstance(report, dict) else report.to_json()
    for label, section in orbit.items():
        value = verify.orbit_integral(workloads._gaussian, section, decay_radius=8.0)
        yield f"{seed}/orbit_integral/{label}", float(value).hex()


def _digest(a):
    return hashlib.sha256(a.tobytes()).hexdigest()


def solve_records(seed):
    from perfbench import inputs, workloads

    inp = inputs.tiling_inputs(seed)
    objs, _ = workloads.tiling_setup(inp)
    for label, region in objs.items():
        out = _outcome(region.solve, inp["points"][label])
        if not isinstance(out, dict):
            out = [_digest(a) for a in out]
        yield f"{seed}/{label}", out


def wavelet_records(seed):
    import numpy as np
    import xsect.wavelet as wavelet
    from perfbench import inputs, workloads

    inp = inputs.wavelet_inputs(seed)
    regions = workloads.wavelet_setup(inp)
    z1, z2 = wavelet.Lattice(inp["lattices"]["z1"]), wavelet.Lattice(inp["lattices"]["z2"])
    two = inp["matrices"]["two"]
    s1, s2, s3 = inp["check_seeds"]
    for label, args, samples, check_seed in (
        ("shannon", (regions["shannon"], two, z1, 1), 500, s1),
        ("doubled", (regions["doubled"], two, z1, 2), 500, s2),
        ("annulus", (regions["annulus"], 2.0 * np.eye(2), z2, 3), 200, s3),
    ):
        yield f"{seed}/{label}", wavelet.is_multiwavelet_set(*args, samples=samples, seed=check_seed).to_json()


def order_inf_records(seed):
    import numpy as np
    import xsect.wavelet as wavelet
    from perfbench import inputs

    inp = inputs.wavelet_inputs(seed)
    z1, z2 = wavelet.Lattice(inp["lattices"]["z1"]), wavelet.Lattice(inp["lattices"]["z2"])
    m = inp["matrices"]
    built = {}
    for label, lattice, pieces in (("two", z1, 8), ("spiral", z2, 4), ("shear", z2, 10)):
        built[label] = wavelet.build_order_infinity_set(m[label], lattice, pieces=pieces)
        yield f"{seed}/build_inf:{label}", built[label].to_json()
    # the dilation sweeps as the workload runs them: from A^-half_width on, one power at a time
    for label, pts, half_width in (("two", inp["sweep_1d"], 40), ("spiral", inp["sweep_spiral"], 30)):
        a = m[label]
        shifted = pts @ np.linalg.matrix_power(np.linalg.inv(a), half_width)
        for power in range(-half_width, half_width + 1):
            yield f"{seed}/sweep:{label}/{power}", [_digest(mask) for mask in built[label].membership(shifted)]
            shifted = shifted @ a
    pieces = wavelet.partition_multiwavelet_set(built["two"], z1, math.inf, pieces=3)
    for i, (piece, rows) in enumerate(zip(pieces, inp["inf_rows"])):
        yield f"{seed}/translation_counts:inf{i}", _digest(wavelet.translation_counts(piece, z1, rows, radius=80.0))


def _integer_rows(n):
    """The nonzero integer rows of [-6, 6]^n, or of [-2, 2]^n past n = 3."""
    import numpy as np

    reach = 6 if n <= 3 else 2
    rows = np.array(list(itertools.product(range(-reach, reach + 1), repeat=n)), dtype=float)
    return rows[rows.any(axis=1)]


def tiled_records():
    import numpy as np
    from test_sections import TILED_REGIONS, _float_range_rows

    for name in sorted(TILED_REGIONS):
        region = TILED_REGIONS[name]()
        n = region.matrix.shape[0]
        for family, pts in (
            ("gauss_1e300", np.random.default_rng(7).normal(size=(200, n)) * 1e300),
            ("float_range", _float_range_rows(n)),
            ("minus_one", np.full((1, n), -1.0)),
            ("nan", np.full((1, n), math.nan)),
            ("integers", _integer_rows(n)),
        ):
            out = {}
            for call in ("membership", "solve"):
                got = _outcome(getattr(region, call), pts)
                out[call] = got if isinstance(got, dict) else [_digest(a) for a in got]
            yield f"{name}/{family}", out


def contracting_records():
    import numpy as np
    import xsect.wavelet as wavelet
    from conftest import random_conjugate

    quarter = np.diag([0.25, 3.0])
    for name, a in (
        ("half", [[0.5]]),
        ("minus_half", [[-0.5]]),
        ("spiral", [[0.6, 0.3], [-0.3, 0.6]]),
        ("diag_half_quarter", np.diag([0.5, 0.25])),
        ("diag_quarter_3", quarter),
        ("diag_quarter_3-0", random_conjugate(quarter, 0)[0]),
    ):
        n = len(a)
        region = wavelet.build_order_infinity_set(a, wavelet.Lattice.integers(n), pieces=4)
        yield f"{name}/to_json", region.to_json()
        for family, pts in (("integers", _integer_rows(n)),
                            ("gauss_8", np.random.default_rng(7).normal(size=(200, n)) * 8.0)):
            yield f"{name}/{family}", {call: [_digest(x) for x in getattr(region, call)(pts)]
                                       for call in ("membership", "solve")}


def integrate_records():
    from perfbench import workloads
    from xsect.sections import build_continuous_section
    from xsect.verify import jacobian_check, orbit_integral

    for name, b in (("shear", [[0.0, 1.0], [0.0, 0.0]]), ("chain", [[0.693147, 1.0], [0.0, 0.693147]])):
        section = build_continuous_section(b)
        yield f"{name}/orbit_integral", float(orbit_integral(workloads._gaussian, section, decay_radius=8.0)).hex()
        yield f"{name}/jacobian_check", float(jacobian_check(section, points=20, seed=0)).hex()


def jordan_records(broken):
    """The Jordan corpus' records; the key of each form whose cached ``cond``
    or ``scale`` differs from its recomputation is appended to ``broken``."""
    import jordan_replay

    for key, a, tol, invertible in jordan_replay.inputs():
        rec, cached_ok = jordan_replay.record(a, tol, invertible)
        if cached_ok is False:
            broken.append(key)
        yield key, rec


def _seeded(source):
    """A section of ``source``'s records at each of ``SEEDS``."""
    return lambda broken: ((key, out) for seed in SEEDS for key, out in source(seed))


# each section's (key, output) records, from the list that collects broken Jordan forms
SECTIONS = {
    "cli": _seeded(cli_records),
    "demos": lambda broken: demo_records(),
    "tiling": _seeded(tiling_records),
    "solve": _seeded(solve_records),
    "wavelet": _seeded(wavelet_records),
    "order_inf": _seeded(order_inf_records),
    "tiled": lambda broken: tiled_records(),
    "contracting": lambda broken: contracting_records(),
    "integrate": lambda broken: integrate_records(),
    "jordan": jordan_records,
}


def records(broken):
    """(section, key, output) of every record, in a fixed order."""
    for section, source in SECTIONS.items():
        for key, out in source(broken):
            yield section, key, out


def capture(path):
    sys.path.insert(0, str(ROOT))  # for perfbench
    count, broken = 0, []
    with open(path, "w") as out:
        for section, key, output in records(broken):
            out.write(json.dumps({"section": section, "key": key, "output": output}, sort_keys=True) + "\n")
            count += 1
    print(f"{count} records written to {path}")
    for key in broken:
        print(f"jordan {key}: cached cond or scale differs from its recomputation", file=sys.stderr)
    return 1 if broken else 0


def _first_difference(old, new):
    """The bytes of two differing records around their first difference."""
    i = next((i for i, (a, b) in enumerate(zip(old, new)) if a != b), min(len(old), len(new)))
    lo = max(i - 40, 0)
    return f"at byte {i}:\n    old ...{old[lo : i + 80]}...\n    new ...{new[lo : i + 80]}..."


def compare(old_path, new_path):
    def load(path):
        out = {}
        with open(path) as f:
            for r in map(json.loads, f):
                if (r["section"], r["key"]) in out:
                    raise SystemExit(f"{path}: {r['section']} record {r['key']} appears twice")
                out[r["section"], r["key"]] = json.dumps(r["output"], sort_keys=True)
        return out

    old, new = load(old_path), load(new_path)
    sections = list(dict.fromkeys(section for section, _ in [*old, *new]))
    differ = 0
    for section in sections:
        keys = list(dict.fromkeys(k for s, k in [*old, *new] if s == section))
        bad = [k for k in keys if old.get((section, k)) != new.get((section, k))]
        differ += len(bad)
        print(f"{section}: {len(keys) - len(bad)} identical, {len(bad)} differing")
        for key in bad[:SHOWN]:
            a, b = old.get((section, key)), new.get((section, key))
            if a is None or b is None:
                print(f"  {key}: only in {'new' if a is None else 'old'}")
            else:
                print(f"  {key} {_first_difference(a, b)}")
    return 1 if differ else 0


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = p.add_subparsers(dest="command", required=True)
    sub.add_parser("capture").add_argument("out")
    cmp = sub.add_parser("compare")
    cmp.add_argument("old")
    cmp.add_argument("new")
    args = p.parse_args(argv)
    return capture(args.out) if args.command == "capture" else compare(args.old, args.new)


if __name__ == "__main__":
    sys.exit(main())
