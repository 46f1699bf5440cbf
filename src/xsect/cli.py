"""Command-line surface.

Every command prints a single JSON document (floats rendered with 17
significant digits) carrying a run manifest: the argv, SHA-256 digests
of the input files, seed, tolerance and package version.  Outputs are
byte-identical across reruns of the same manifest.

Exit codes: 0 success / verification PASS; 2 mathematical nonexistence
(no section, no wavelet, determinant one, mixed moduli); 1 usage, I/O
or conditioning errors.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import math
import sys

import numpy as np

from . import __version__
from .classify import classify_continuous, classify_discrete
from .errors import (
    DetOne,
    DimensionTooHigh,
    MixedModuli,
    NoSection,
    NoWavelet,
    UsageError,
    XsectError,
)
from .linalg import DEFAULT_TOL, matrix_from_json
from .sections import (
    build_continuous_section,
    build_discrete_section,
    derive_discrete_section,
    section_from_json,
    solve_orbit,
)
from .shaping import to_bounded, to_finite_measure
from .verify import check_continuous_tiling, check_discrete_tiling, jacobian_check, orbit_integral
from .wavelet import (
    BoxUnion,
    Lattice,
    build_order_infinity_set,
    dimension_function,
    is_multiwavelet_set,
    partition_multiwavelet_set,
    translation_counts,
)

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_NONEXISTENCE = 2
_NONEXISTENCE = (NoSection, NoWavelet, DetOne, MixedModuli)


def render_json(obj) -> str:
    """Deterministic JSON with floats at 17 significant digits."""
    out = []
    _render(obj, out)
    return "".join(out)


def _render(obj, out):
    if obj is None or isinstance(obj, bool):
        out.append(json.dumps(obj))
    elif isinstance(obj, (int, np.integer)):
        out.append(str(int(obj)))
    elif isinstance(obj, (float, np.floating)):
        v = float(obj)
        out.append(f"{v:.17g}" if math.isfinite(v) else json.dumps(str(v)))
    elif isinstance(obj, str):
        out.append(json.dumps(obj))
    elif isinstance(obj, dict):
        out.append("{")
        for i, key in enumerate(sorted(obj, key=str)):
            if i:
                out.append(",")
            out.append(json.dumps(str(key)))
            out.append(":")
            _render(obj[key], out)
        out.append("}")
    elif isinstance(obj, (list, tuple, np.ndarray)):
        out.append("[")
        seq = obj.tolist() if isinstance(obj, np.ndarray) else obj
        for i, item in enumerate(seq):
            if i:
                out.append(",")
            _render(item, out)
        out.append("]")
    else:
        raise TypeError(f"cannot render {type(obj)!r}")


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _digest(path) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def _load_json(path):
    try:
        with open(path) as fh:
            return json.load(fh)
    except OSError as exc:
        raise UsageError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise UsageError(f"{path} is not valid JSON: {exc}") from exc


def _load(path, parse, *args):
    """``parse`` of the JSON object at ``path`` (a matrix, section, lattice
    or region loader); a document it rejects is a usage error."""
    doc = _load_json(path)
    if not isinstance(doc, dict):
        raise UsageError(f"{path}: expected a JSON object, got {type(doc).__name__}")
    try:
        return parse(doc, *args)
    except ValueError as exc:
        raise UsageError(f"{path}: {exc}") from exc


def _load_section(args):
    """The ``--section`` file at ``--tol``, or else at its stored tolerance, which the manifest then records."""
    section = _load(args.section, section_from_json, args.tol)
    args.tol = section.tol
    return section


def _check_matrix(path, section):
    """The optional ``--matrix`` must be the section's own."""
    if path:
        given, stored = _load(path, matrix_from_json), section.jordan.matrix
        if given.shape != stored.shape or not np.allclose(given, stored):
            raise UsageError("--matrix disagrees with the section's matrix")


def _count(minimum):
    """argparse type: an integer of at least ``minimum``."""
    def count(text):
        value = int(text)
        if value < minimum:
            raise argparse.ArgumentTypeError(f"expected an integer >= {minimum}, got {value}")
        return value
    return count


_positive, _non_negative = _count(1), _count(0)  # the latter: 0 turns the option off


def _parse_order(text):
    """``--order``: an integer >= 1 or ``inf``."""
    if text == "inf":
        return math.inf
    try:
        return _positive(text)
    except (ValueError, argparse.ArgumentTypeError):
        raise argparse.ArgumentTypeError(f"invalid order {text!r}: expected an integer >= 1 or 'inf'") from None


def _manifest(args, inputs) -> dict:
    return {
        "command": list(getattr(args, "_argv", [])),
        "inputs": {path: _digest(path) for path in inputs if path},
        "seed": getattr(args, "seed", None),
        "tol": getattr(args, "tol", DEFAULT_TOL),
        "version": __version__,
    }


def _region_from_json(obj):
    if obj.get("kind") != "boxes":
        raise UsageError(f"unsupported region kind {obj.get('kind')!r}")
    boxes = obj.get("boxes")
    if not isinstance(boxes, list) or not all(isinstance(b, dict) and {"lo", "hi"} <= b.keys() for b in boxes):
        raise ValueError("a boxes region needs 'boxes', a list of objects with 'lo' and 'hi'")
    return BoxUnion.build([(b["lo"], b["hi"]) for b in boxes])


def _parse_point(text, n, owner) -> np.ndarray:
    """The ``--point`` of an ``owner`` of dimension ``n`` (0 for an empty
    region, which fits any point)."""
    try:
        point = np.array([float(v) for v in text.split(",")])
    except ValueError as exc:
        raise UsageError(f"malformed point {text!r}") from exc
    if not np.isfinite(point).all():
        raise UsageError(f"point coordinates must be finite, got {text!r}")
    if n and point.shape[0] != n:
        raise UsageError(f"point has {point.shape[0]} coordinates, {owner} expects {n}")
    return point


def _emit(payload, args, inputs, out_path=None):
    payload = dict(payload)
    payload["manifest"] = _manifest(args, inputs)
    text = render_json(payload)
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(text + "\n")
    sys.stdout.write(text + "\n")


def export_samples(section, points, path):
    """CSV rows of (coordinates..., member, parameter) for external plotting;
    each is left blank where membership or the solve refuses the point."""
    member, exc = section.membership(points)
    params, _, refused = section.solve(points)
    n = points.shape[1]
    with open(path, "w") as fh:
        header = ",".join([f"x{i + 1}" for i in range(n)] + ["member", "parameter"])
        fh.write(header + "\n")
        for i, pt in enumerate(points):
            coords = ",".join(f"{v:.17g}" for v in pt)
            flag = "" if exc[i] else str(int(member[i]))
            par = "" if exc[i] or refused[i] else f"{params[i]:.17g}"
            fh.write(f"{coords},{flag},{par}\n")


def _grid_points(n, extent, count):
    if n > 3:
        raise DimensionTooHigh("grid export supports n <= 3")
    axes = [np.linspace(-extent, extent, count) for _ in range(n)]
    mesh = np.meshgrid(*axes, indexing="ij")
    return np.stack([m.ravel() for m in mesh], axis=1)


# ---------------------------------------------------------------------------
# subcommands


def _cmd_classify(args):
    m = _load(args.matrix, matrix_from_json)
    classifier = classify_discrete if args.mode == "discrete" else classify_continuous
    verdict = classifier(m, tol=args.tol)
    payload = verdict.to_json()
    payload["jordan_blocks"] = [b.to_json() for b in verdict.jordan.blocks]
    if args.mode == "discrete":
        # similar to a unitary matrix exactly when no cross-section exists
        payload["similar_to_unitary"] = not verdict.exists
    _emit(payload, args, [args.matrix])
    return EXIT_OK


def _cmd_build(args):
    path = args.matrix or args.generator  # argparse requires exactly one
    m = _load(path, matrix_from_json)
    if args.mode == "discrete":
        section = build_discrete_section(m, tol=args.tol)
    else:
        section = build_continuous_section(m, tol=args.tol)
    payload = {"section": section.to_json(), "null_set": section.null_set()}
    if args.dump:
        export_samples(section, _grid_points(section.n, args.grid_extent, args.grid), args.dump)
        payload["dump"] = args.dump
    _emit(payload, args, [path], out_path=args.out)
    return EXIT_OK


def _cmd_solve(args):
    section = _load_section(args)
    sol = solve_orbit(section, _parse_point(args.point, section.n, "section"))
    _emit(
        {
            "parameter": sol.parameter,
            "representative": [float(v) for v in sol.representative],
        },
        args,
        [args.section],
    )
    return EXIT_OK


def _cmd_shape(args):
    section = _load_section(args)
    if section.mode != "discrete" or section.base is not None:
        raise UsageError("shape needs a native discrete section")
    _check_matrix(args.matrix, section)
    shaped = to_finite_measure(section) if args.target == "finite" else to_bounded(section)
    payload = {"shaped": shaped.to_json()}
    if args.target == "finite" and args.samples:
        if args.seed is None:
            raise UsageError("--seed is required for the measure estimate")
        est = shaped.measure_estimate(samples=args.samples, seed=args.seed)
        payload["measure"] = est.to_json()
    _emit(payload, args, [args.section, args.matrix], out_path=args.out)
    return EXIT_OK


def _cmd_verify(args):
    section = _load_section(args)
    _check_matrix(args.matrix, section)
    if args.mode == "discrete":
        if section.mode != "discrete":
            section = derive_discrete_section(section)
        report = check_discrete_tiling(section, samples=args.samples, seed=args.seed)
    else:
        report = check_continuous_tiling(section, samples=args.samples, seed=args.seed)
    if args.dump:
        rng = np.random.default_rng(args.seed)
        export_samples(section, rng.normal(size=(args.samples, section.n)), args.dump)
    _emit({"report": report.to_json()}, args, [args.section, args.matrix])
    return EXIT_OK if report.passed else EXIT_ERROR


def _cmd_integrate(args):
    section = _load_section(args)
    if section.mode != "continuous":
        raise UsageError("integrate needs a continuous section")
    if args.field == "gaussian":
        def field(x):
            x = np.asarray(x, dtype=float)
            return math.exp(-float(x @ x) / 2.0) / (2 * math.pi) ** (x.shape[-1] / 2)
    else:
        raise UsageError(f"unknown field {args.field!r}")
    value = orbit_integral(
        field, section, decay_radius=args.radius, epsabs=args.epsabs, epsrel=args.epsrel
    )
    payload = {"integral": value, "field": args.field, "decay_radius": args.radius}
    if args.jacobian_points:
        payload["jacobian_max_rel_dev"] = jacobian_check(section, points=args.jacobian_points, seed=args.seed or 0)
    _emit(payload, args, [args.section])
    return EXIT_OK


# the options each wavelet action requires, in the order they are checked
_WAVELET_NEEDS = {"check": ("lattice", "matrix", "region"), "partition": ("lattice", "region"),
                  "dimfn": ("region", "point"), "build-inf": ("lattice", "matrix")}


def _cmd_wavelet(args):
    lattice = _load(args.lattice, Lattice.from_json) if args.lattice else None
    matrix = _load(args.matrix, matrix_from_json) if args.matrix else None
    inputs = [args.lattice, args.matrix, args.region]
    for name in _WAVELET_NEEDS[args.action]:
        if not getattr(args, name):
            raise UsageError(f"wavelet {args.action} requires --{name}")
    region = _load(args.region, _region_from_json) if "region" in _WAVELET_NEEDS[args.action] else None
    if args.action == "check":
        if args.seed is None:
            raise UsageError("--seed is required for wavelet check")
        report = is_multiwavelet_set(
            region, matrix, lattice, args.order, samples=args.samples, seed=args.seed
        )
        _emit({"report": report.to_json()}, args, inputs)
        return EXIT_OK if report.passed else EXIT_ERROR
    if args.action == "partition":
        parts = partition_multiwavelet_set(region, lattice, args.order, pieces=args.pieces)
        payload = {"pieces": [p.to_json() for p in parts], "verification": None}
        if args.seed is not None:
            rng = np.random.default_rng(args.seed)
            xis = rng.normal(size=(args.samples, lattice.n))
            counts = {i: translation_counts(p, lattice, xis) for i, p in enumerate(parts)}
            payload["verification"] = {
                "samples": args.samples,
                "seed": args.seed,
                "pieces_count_one": all((c == 1).all() for c in counts.values()),
                "histograms": {
                    str(i): {str(v): int(n) for v, n in zip(*np.unique(c, return_counts=True))}
                    for i, c in counts.items()
                },
            }
        _emit(payload, args, inputs)
        return EXIT_OK
    if args.action == "dimfn":
        count = dimension_function(region, _parse_point(args.point, region.n, "region"))
        _emit({"dimension": count.value, "truncated": count.truncated}, args, inputs)
        return EXIT_OK
    k = build_order_infinity_set(matrix, lattice, pieces=args.pieces, tol=args.tol)  # build-inf
    _emit({"region": k.to_json()}, args, inputs)
    return EXIT_OK


@functools.cache
def _build_parser() -> _Parser:
    """The argument parser, built on the first call and reused by later
    ones: ``parse_args`` returns a fresh namespace each time."""
    parser = _Parser(prog="xsect", description=__doc__)
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, seed_required=False, tol=DEFAULT_TOL):
        # tol=None: a command reading a section file takes the tolerance the file stores
        p.add_argument("--tol", type=float, default=tol)
        p.add_argument("--seed", type=int, required=seed_required,
                       help="seed for stochastic subcommands (mandatory, never wall-clock)")

    p = sub.add_parser("classify", help="decide cross-section existence")
    p.add_argument("--mode", choices=["discrete", "continuous"], required=True)
    p.add_argument("--matrix", required=True)
    common(p)
    p.set_defaults(func=_cmd_classify)

    p = sub.add_parser("build", help="construct an explicit cross-section")
    p.add_argument("--mode", choices=["discrete", "continuous"], required=True)
    source = p.add_mutually_exclusive_group(required=True)
    source.add_argument("--matrix")
    source.add_argument("--generator")
    p.add_argument("--out")
    p.add_argument("--dump", help="CSV grid export of the section (n <= 3)")
    p.add_argument("--grid", type=_positive, default=200)
    p.add_argument("--grid-extent", type=float, default=4.0)
    common(p)
    p.set_defaults(func=_cmd_build)

    p = sub.add_parser("solve", help="solve the orbit parameter of a point")
    p.add_argument("--section", required=True)
    p.add_argument("--point", required=True)
    common(p, tol=None)
    p.set_defaults(func=_cmd_solve)

    p = sub.add_parser("shape", help="reshape to finite measure or bounded")
    p.add_argument("--section", required=True)
    p.add_argument("--matrix")
    p.add_argument("--target", choices=["finite", "bounded"], required=True)
    p.add_argument("--samples", type=_non_negative, default=0, help="Monte Carlo measure estimate budget")
    p.add_argument("--out")
    common(p, tol=None)
    p.set_defaults(func=_cmd_shape)

    p = sub.add_parser("verify", help="seeded tiling verification")
    p.add_argument("--section", required=True)
    p.add_argument("--matrix", help="optional cross-check against the section's matrix")
    p.add_argument("--mode", choices=["discrete", "continuous"], required=True)
    p.add_argument("--samples", type=_positive, required=True)
    p.add_argument("--dump", help="CSV dump of the samples")
    common(p, seed_required=True, tol=None)
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("integrate", help="orbit integral via the flow coordinates")
    p.add_argument("--section", required=True)
    p.add_argument("--field", default="gaussian")
    p.add_argument("--radius", type=float, default=8.0)
    p.add_argument("--epsabs", type=float, default=1e-6)
    p.add_argument("--epsrel", type=float, default=1e-6)
    p.add_argument("--jacobian-points", type=_non_negative, default=0)
    common(p, tol=None)
    p.set_defaults(func=_cmd_integrate)

    p = sub.add_parser("wavelet", help="multi-wavelet set operations")
    p.add_argument("action", choices=["check", "partition", "dimfn", "build-inf"])
    p.add_argument("--matrix")
    p.add_argument("--lattice")
    p.add_argument("--region")
    p.add_argument("--order", type=_parse_order, default="1")
    p.add_argument("--pieces", type=_positive, default=8)
    p.add_argument("--point")
    p.add_argument("--samples", type=_positive, default=1000)
    common(p)
    p.set_defaults(func=_cmd_wavelet)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        args._argv = list(argv) if argv is not None else list(sys.argv[1:])
        return args.func(args)
    except _NONEXISTENCE as exc:
        sys.stdout.write(render_json({"error": str(exc), "code": exc.code}) + "\n")
        return EXIT_NONEXISTENCE
    except XsectError as exc:
        sys.stdout.write(render_json({"error": str(exc), "code": exc.code}) + "\n")
        return EXIT_ERROR
    except OSError as exc:
        sys.stdout.write(render_json({"error": str(exc), "code": "io"}) + "\n")
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
