"""Self-tests of the benchmark: python3 -m pytest perfbench/tests -q"""

import pathlib
import sys
import time

import numpy as np
import pytest

ROOT = pathlib.Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import inputs  # noqa: E402
import measure as bench  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
import xsect.errors  # noqa: E402
import xsect.linalg  # noqa: E402
import xsect.sections  # noqa: E402
import xsect.verify  # noqa: E402
import xsect.wavelet  # noqa: E402


def _same(a, b):
    if isinstance(a, dict):
        return a.keys() == b.keys() and all(_same(a[k], b[k]) for k in a)
    if isinstance(a, (list, tuple)):
        return len(a) == len(b) and all(_same(x, y) for x, y in zip(a, b))
    if isinstance(a, np.ndarray):
        return np.array_equal(a, b)
    return a == b


def test_generator_is_deterministic(tmp_path):
    for make in (inputs.tiling_inputs, inputs.wavelet_inputs):
        assert _same(make(7), make(7))
        assert not _same(make(7), make(8))
    one, two = tmp_path / "one", tmp_path / "two"
    one.mkdir()
    two.mkdir()
    first = inputs.cli_inputs(7, str(one))
    second = inputs.cli_inputs(7, str(two))
    strip = lambda reqs, d: [[a.replace(d, "") for a in r["argv"]] for r in reqs]  # noqa: E731
    assert strip(first, str(one)) == strip(second, str(two))
    assert sorted(p.name for p in one.iterdir()) == sorted(p.name for p in two.iterdir())
    for path in one.iterdir():
        assert path.read_bytes() == (two / path.name).read_bytes()
    assert len(first) == sum(inputs.CLI_MIX.values()) == 1000


def test_eig_order_inputs_are_unchanged():
    inp = inputs.tiling_inputs(3)
    assert np.array_equal(inp["continuous"]["eig_order_generator"], [[0.064, -0.502], [0.282, -1.366]])
    d = inp["discrete"]["eig_order_discrete"]
    assert np.allclose(sorted(np.linalg.eigvals(d).real), [1.02, 3.0])
    assert np.array_equal(d, inputs.tiling_inputs(4)["discrete"]["eig_order_discrete"])


def test_percentile_keeps_ten_samples_beyond():
    values = list(range(1, 1001))
    assert bench.percentile_with_tail(values, 99) == 990
    assert bench.beyond_percentile(1000, 99) == 10
    assert bench.percentile_with_tail(values[:-1], 99) is None  # only 9 beyond
    assert bench.percentile_with_tail(list(range(1, 2001)), 99) == 1980
    assert bench.percentile_with_tail(values, 50) == 500
    assert bench.percentile_with_tail([], 99) is None


def test_self_time_of_a_synthetic_span_tree():
    # root [0,100] > a [10,40] > leaf [15,20]; root > b [50,60];
    # root > gen [70,72] and gen [80,83]: two resumptions of one generator
    tree = [
        ["root", "op", -1, 0, 100],
        ["a", "op", 0, 10, 40],
        ["leaf", "op", 1, 15, 20],
        ["b", "op", 0, 50, 60],
        ["gen", "op", 0, 70, 72],
        ["gen", "op", 0, 80, 83],
    ]
    assert spans.self_times(tree) == [100 - 30 - 10 - 2 - 3, 25, 5, 10, 2, 3]


class _DoubleCounting:
    """Criterion 03's annulus candidate under a rotation: every orbit meets
    it several times, so its tiling report fails."""

    matrix = np.array([[0.0, 1.0], [-1.0, 0.0]])

    def membership(self, points):
        r = np.linalg.norm(points, axis=1)
        return (r >= 0.5) & (r < 1.5), np.zeros(len(points), dtype=bool)


def test_double_counting_region_raises_failed_ratio():
    run = workloads.Run()
    workloads.tiling_check(run, "check_discrete:double", {"verify": 2000}, xsect.verify.check_discrete_tiling,
                           _DoubleCounting(), samples=2000, seed=1)
    section = xsect.sections.build_discrete_section([[2.0]])
    workloads.tiling_check(run, "check_discrete:two", {"verify": 2000}, xsect.verify.check_discrete_tiling,
                           section, samples=2000, seed=1)
    assert run.attempted == 2
    assert [label for label, _ in run.failures.values()] == ["check_discrete:double"]


def test_defect_probe_keeps_the_outcome_and_fails_only_on_an_unexpected_raise():
    run = workloads.Run()
    workloads.defect_probe(run, "probe:double", xsect.verify.check_discrete_tiling,
                           _DoubleCounting(), samples=2000, seed=1)
    assert not run.failures and not run.defects["probe:double"].passed

    def overflows(region, **kwargs):
        raise xsect.errors.Overflow("A^651 overflows the floating-point range")

    workloads.defect_probe(run, "probe:overflows", overflows, None)
    assert not run.failures and isinstance(run.defects["probe:overflows"], xsect.errors.Overflow)

    def broken(region, **kwargs):
        raise RuntimeError("boom")

    workloads.defect_probe(run, "probe:raises", broken, None)
    assert [label for label, _ in run.failures.values()] == ["probe:raises"]
    assert run.attempted == 3
    assert all(units == {} for _, units, _ in run.calls)


def test_reference_scales_call_times_to_the_nominal_speed():
    class HalfSpeed(workloads.Reference):
        def _kernel_seconds(self):
            return 2 * self.NOMINAL_S

    run = workloads.Run(reference=HalfSpeed())
    run.call("sleep", {}, time.sleep, 0.05)
    assert 0.05 <= run.raw_s < 0.5
    assert run.lib_s == pytest.approx(run.raw_s / 2)


def test_wrappers_count_and_uninstall():
    original = xsect.linalg.integer_power
    rec = spans.Recorder()
    uninstall, missing = spans.install(rec)
    try:
        assert missing == []
        assert xsect.sections.integer_power is not original
        section = xsect.sections.build_discrete_section([[0.0, 2.0], [-2.0, 0.0]])
        section.solve(np.random.default_rng(0).normal(size=(10, 2)))
    finally:
        uninstall()
    assert xsect.sections.integer_power is original and xsect.linalg.integer_power is original
    metrics = spans.aggregate(rec)
    assert metrics["sections.solve.points"] == 10
    assert metrics["sections.build.calls"] == 1
    assert metrics["linalg.real_jordan_form.calls"] == 1
    assert metrics["classify.calls"] == 1
    assert metrics["sections.solve.self_s"] > 0
    assert set(metrics) == {name for name, _ in spans.PER_LAYER}

