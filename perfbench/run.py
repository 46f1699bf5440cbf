"""Benchmark of the xsect library: one workload per run.

Run from the root of a checkout:

    python3 perfbench/run.py --workload tiling --seed 1 --seconds 20 --trace 0

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  With ``--trace 0``
the metrics are the end-to-end ones of BENCHMARK.json, measured without
tracing; with ``--trace 1`` they are the per-layer ones, from one traced
pass.  Every metric of the workload, with its unit, is printed above it.
See perfbench/README.md for the definitions.
"""

import argparse
import os
import sys

# The workload process is single-threaded: numerical libraries get one
# thread each, set before NumPy is first imported.
THREAD_ENV = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
WORKLOADS = ("tiling", "wavelet", "cli")


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=WORKLOADS, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def main(argv=None):
    args = _parse(argv)
    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "xsect", "__init__.py")):
        print("perfbench: src/xsect not found; run from the root of an xsect checkout", file=sys.stderr)
        return 2
    os.environ.update(THREAD_ENV)
    sys.path.insert(0, src)

    import xsect
    import xsect.cli  # noqa: F401

    if os.path.dirname(os.path.abspath(xsect.__file__)) != os.path.join(src, "xsect"):
        print(f"perfbench: imported xsect from {xsect.__file__}, not from {src}", file=sys.stderr)
        return 2

    import measure

    return measure.run(args, root)


if __name__ == "__main__":
    sys.exit(main())
