import json
import math

import numpy as np
import pytest

from xsect.classify import is_similar_to_unitary
from xsect.cli import _build_parser, main, render_json


@pytest.fixture
def workdir(tmp_path):
    def write(name, obj):
        path = tmp_path / name
        path.write_text(json.dumps(obj))
        return str(path)

    return tmp_path, write


def run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, json.loads(out)


def test_render_json_17_digits():
    text = render_json({"x": 1.0 / 3.0, "k": 2, "s": "a", "v": [1.5, None, True]})
    assert text == '{"k":2,"s":"a","v":[1.5,null,true],"x":0.33333333333333331}'


def test_classify_discrete_shear(workdir, capsys):
    _, write = workdir
    path = write("shear.json", {"n": 2, "rows": [[1.0, 1.0], [0.0, 1.0]]})
    code, out = run(capsys, ["classify", "--mode", "discrete", "--matrix", path])
    assert code == 0
    assert out["exists"] is True
    assert out["finite_measure"] is False
    assert out["bounded"] is False
    assert out["similar_to_unitary"] is False
    assert out["manifest"]["inputs"][path]


def test_classify_continuous_shear_generator(workdir, capsys):
    _, write = workdir
    path = write("shear_gen.json", {"n": 2, "rows": [[0.0, 1.0], [0.0, 0.0]]})
    code, out = run(capsys, ["classify", "--mode", "continuous", "--matrix", path])
    assert code == 0
    assert out["case"] == "zero_nilpotent"
    assert [(b["re"], b["chain"]) for b in out["jordan_blocks"]] == [(0.0, 2)]
    assert "similar_to_unitary" not in out


def test_build_rotation_nonexistence_exit_2(workdir, capsys):
    _, write = workdir
    path = write("rotgen.json", {"n": 2, "rows": [[0.0, 1.0], [-1.0, 0.0]]})
    code, out = run(capsys, ["build", "--mode", "continuous", "--matrix", path])
    assert code == 2
    assert out["code"] == "no_section"


def test_usage_error_exit_1(workdir, capsys):
    tmp, write = workdir
    path = write("two.json", {"n": 1, "rows": [[2.0]]})
    sec = str(tmp / "S.json")
    assert main(["build", "--mode", "discrete", "--matrix", path, "--out", sec]) == 0
    capsys.readouterr()
    code, out = run(capsys, ["verify", "--section", sec, "--mode", "discrete", "--samples", "0", "--seed", "1"])
    assert code == 1
    assert out["code"] == "usage"


def test_missing_seed_is_usage_error(workdir, capsys):
    tmp, write = workdir
    path = write("two.json", {"n": 1, "rows": [[2.0]]})
    sec = str(tmp / "S.json")
    main(["build", "--mode", "discrete", "--matrix", path, "--out", sec])
    capsys.readouterr()
    code, out = run(capsys, ["verify", "--section", sec, "--mode", "discrete", "--samples", "10"])
    assert code == 1
    assert out["code"] == "usage"


def test_build_solve_verify_roundtrip(workdir, capsys):
    tmp, write = workdir
    path = write("spiral.json", {"n": 2, "rows": [[0.0, 2.0], [-2.0, 0.0]]})
    sec = str(tmp / "S.json")
    code, out = run(capsys, ["build", "--mode", "discrete", "--matrix", path, "--out", sec])
    assert code == 0 and out["section"]["case"] == "complex_modulus_not_one"

    code, out = run(capsys, ["solve", "--section", sec, "--point", "0,5"])
    assert code == 0
    assert out["parameter"] == 1
    np.testing.assert_allclose(out["representative"], [2.5, 0.0], atol=1e-9)

    code, out = run(capsys, ["verify", "--section", sec, "--mode", "discrete", "--samples", "2000", "--seed", "7"])
    assert code == 0
    assert out["report"]["passed"] is True


def test_section_commands_keep_the_stored_tolerance(workdir, capsys):
    # at tol 1e-7 the near-shear reads as a nilpotent block of modulus one;
    # at the default 1e-9 it would rebuild as modulus_not_one and mismatch
    tmp, write = workdir
    path = write("near_shear.json", {"n": 2, "rows": [[1.0, 1.0], [0.0, 1.00000001]]})
    sec = str(tmp / "S.json")
    code, out = run(capsys, ["build", "--mode", "discrete", "--matrix", path, "--tol", "1e-7", "--out", sec])
    assert code == 0 and out["section"]["case"] == "real_modulus_one_nilpotent"
    code, out = run(capsys, ["solve", "--section", sec, "--point=0.3,0.7"])
    assert code == 0 and out["manifest"]["tol"] == 1e-7
    code, out = run(capsys, ["solve", "--section", sec, "--point=0.3,0.7", "--tol", "1e-9"])
    assert code == 1 and "does not match" in out["error"]


def test_verify_deterministic_bytes(workdir, capsys):
    tmp, write = workdir
    path = write("two.json", {"n": 1, "rows": [[2.0]]})
    sec = str(tmp / "S.json")
    main(["build", "--mode", "discrete", "--matrix", path, "--out", sec])
    capsys.readouterr()
    main(["verify", "--section", sec, "--mode", "discrete", "--samples", "500", "--seed", "3"])
    first = capsys.readouterr().out
    main(["verify", "--section", sec, "--mode", "discrete", "--samples", "500", "--seed", "3"])
    second = capsys.readouterr().out
    assert first == second


def test_verify_manifest_records_the_matrix(workdir, capsys):
    tmp, write = workdir
    path = write("two.json", {"n": 1, "rows": [[2.0]]})
    sec = str(tmp / "S.json")
    main(["build", "--mode", "discrete", "--matrix", path, "--out", sec])
    capsys.readouterr()
    code, out = run(capsys, ["verify", "--section", sec, "--matrix", path, "--mode", "discrete",
                             "--samples", "100", "--seed", "1"])
    assert code == 0
    assert sorted(out["manifest"]["inputs"]) == sorted([sec, path])


def test_verify_continuous_mode(workdir, capsys):
    _, write = workdir
    sec = write("C.json", {"mode": "continuous", "matrix": {"n": 2, "rows": [[0.0, 1.0], [0.0, 0.0]]}})
    code, out = run(capsys, ["verify", "--section", sec, "--mode", "continuous", "--samples", "200", "--seed", "1"])
    assert code == 0
    report = out["report"]
    assert report["kind"] == "continuous_tiling" and report["passed"] is True
    assert report["histogram"] == {"1": 200} and report["skipped_null"] == 0


def test_verify_dump_writes_one_row_per_sample(workdir, capsys):
    # the samples of a discrete check as CSV: a member is a point of tile index 0
    tmp, write = workdir
    sec = write("C.json", {"mode": "continuous", "matrix": {"n": 2, "rows": [[0.0, 1.0], [0.0, 0.0]]}})
    dump = tmp / "samples.csv"
    code, out = run(capsys, ["verify", "--section", sec, "--mode", "discrete", "--samples", "50", "--seed", "2",
                             "--dump", str(dump)])
    assert code == 0 and out["report"]["passed"] is True
    header, *rows = dump.read_text().splitlines()
    assert header == "x1,x2,member,parameter" and len(rows) == 50
    fields = [row.split(",") for row in rows]
    assert all(len(f) == 4 for f in fields)
    assert all((member == "1") == (tile == "0") for *_, member, tile in fields)
    assert {member for *_, member, _ in fields} == {"0", "1"}


def test_shape_det_one_exit_2(workdir, capsys):
    tmp, write = workdir
    path = write("m.json", {"n": 2, "rows": [[2.0, 0.0], [0.0, 0.5]]})
    sec = str(tmp / "S.json")
    main(["build", "--mode", "discrete", "--matrix", path, "--out", sec])
    capsys.readouterr()
    code, out = run(capsys, ["shape", "--section", sec, "--target", "finite"])
    assert code == 2 and out["code"] == "det_one"
    code, out = run(capsys, ["shape", "--section", sec, "--target", "bounded"])
    assert code == 2 and out["code"] == "mixed_moduli"


def test_shape_finite_with_measure(workdir, capsys):
    tmp, write = workdir
    path = write("m.json", {"n": 2, "rows": [[2.0, 0.0], [0.0, 1.0]]})
    sec = str(tmp / "S.json")
    main(["build", "--mode", "discrete", "--matrix", path, "--out", sec])
    capsys.readouterr()
    code, out = run(
        capsys,
        ["shape", "--section", sec, "--target", "finite", "--samples", "20000", "--seed", "5"],
    )
    assert code == 0
    assert out["shaped"]["shifts_prefix"]["1"] == -3
    assert out["measure"]["estimate"] <= 1.0 + out["measure"]["bound_3sigma"] + out["measure"]["tail_bound"]


def test_shape_finite_with_shifts_past_a_million(workdir, capsys):
    # the shells of [[1.000001]] are pushed by about 1.2e7 powers: the
    # pushes are taken by repeated squaring and the estimate prints as JSON
    tmp, write = workdir
    path = write("m.json", {"n": 1, "rows": [[1.000001]]})
    sec = str(tmp / "S.json")
    main(["build", "--mode", "discrete", "--matrix", path, "--out", sec])
    capsys.readouterr()
    code = main(["shape", "--section", sec, "--target", "finite", "--samples", "240", "--seed", "1"])
    lines = capsys.readouterr().out.splitlines()
    assert code == 0 and len(lines) == 1
    out = json.loads(lines[0])
    assert abs(out["shaped"]["shifts_prefix"]["1"]) > 10**6
    m = out["measure"]
    assert m["estimate"] + m["tail_bound"] <= 1.0 + m["bound_3sigma"]


def test_wavelet_check_and_partition(workdir, capsys):
    tmp, write = workdir
    mat = write("a.json", {"n": 1, "rows": [[2.0]]})
    lat = write("g.json", {"basis": {"n": 1, "rows": [[1.0]]}})
    region = write(
        "k.json",
        {"kind": "boxes", "boxes": [{"lo": [-2.0], "hi": [-1.0]}, {"lo": [1.0], "hi": [2.0]}]},
    )
    code, out = run(
        capsys,
        ["wavelet", "check", "--matrix", mat, "--lattice", lat, "--region", region,
         "--order", "2", "--samples", "300", "--seed", "2"],
    )
    assert code == 0 and out["report"]["passed"] is True
    code, out = run(
        capsys,
        ["wavelet", "partition", "--matrix", mat, "--lattice", lat, "--region", region, "--order", "2"],
    )
    assert code == 0
    assert out["pieces"][0]["boxes"] == [{"lo": [1.0], "hi": [2.0]}]
    assert out["pieces"][1]["boxes"] == [{"lo": [-2.0], "hi": [-1.0]}]


@pytest.mark.parametrize("basis, boxes, order", [
    ([[1.0, 0.3], [0.0, 2.0]], [([0.0, 0.0], [1.0, 1.0])], 1),
    ([[1.0, 0.0], [1.0, 1.0]],
     [([-1.0, -1.0], [-0.5, 1.0]), ([-0.5, -1.0], [0.5, -0.5]), ([-0.5, 0.5], [0.5, 1.0]), ([0.5, -1.0], [1.0, 1.0])],
     3),
])
def test_wavelet_partition_on_a_skewed_lattice(workdir, capsys, basis, boxes, order):
    # a dual basis that is not axis-aligned makes selector pieces, which
    # serialize with their base region, lattice and search size
    _, write = workdir
    lat = write("g.json", {"basis": {"rows": basis}})
    region = write("k.json", {"kind": "boxes", "boxes": [{"lo": lo, "hi": hi} for lo, hi in boxes]})
    code, out = run(capsys, ["wavelet", "partition", "--lattice", lat, "--region", region, "--order", str(order)])
    assert code == 0
    assert len(out["pieces"]) == order
    first = out["pieces"][0]
    assert first["kind"] == "selector" and first["search_points"] == 4000
    assert first["lattice"]["basis"]["rows"] == basis


def test_wavelet_partition_verified_by_seed(workdir, capsys):
    # with --seed the pieces of the doubled set on Z are checked to tile once each
    _, write = workdir
    lat = write("g.json", {"basis": {"n": 1, "rows": [[1.0]]}})
    region = write("k.json", {"kind": "boxes", "boxes": [{"lo": [-2.0], "hi": [-1.0]}, {"lo": [1.0], "hi": [2.0]}]})
    code, out = run(capsys, ["wavelet", "partition", "--lattice", lat, "--region", region, "--order", "2",
                             "--seed", "3", "--samples", "100"])
    assert code == 0
    check = out["verification"]
    assert check["pieces_count_one"] is True and (check["samples"], check["seed"]) == (100, 3)
    assert check["histograms"] == {"0": {"1": 100}, "1": {"1": 100}}


def test_wavelet_dimfn(workdir, capsys):
    _, write = workdir
    region = write("w.json", {"kind": "boxes", "boxes": [{"lo": [0.0], "hi": [1.5]}]})
    code, out = run(capsys, ["wavelet", "dimfn", "--region", region, "--point", "0.25"])
    assert code == 0 and out["dimension"] == 2


def test_wavelet_build_inf_and_nowavelet(workdir, capsys):
    tmp, write = workdir
    mat = write("a.json", {"n": 1, "rows": [[2.0]]})
    lat = write("g.json", {"basis": {"n": 1, "rows": [[1.0]]}})
    code, out = run(capsys, ["wavelet", "build-inf", "--matrix", mat, "--lattice", lat, "--pieces", "4"])
    assert code == 0
    assert out["region"]["pieces"] == 4

    rot = write("rot.json", {"n": 2, "rows": [[0.0, 1.0], [-1.0, 0.0]]})
    lat2 = write("g2.json", {"basis": {"n": 2, "rows": [[1.0, 0.0], [0.0, 1.0]]}})
    code, out = run(capsys, ["wavelet", "build-inf", "--matrix", rot, "--lattice", lat2])
    assert code == 2 and out["code"] == "no_wavelet"


@pytest.mark.parametrize("rows, basis, pieces, code", [
    ([[0.0, 1.0, 0.0, 0.0], [-1.0, 0.0, 0.0, 0.0], [0.0, 0.0, 2.0, 0.0], [0.0, 0.0, 0.0, 3.0]],
     np.eye(4).tolist(), 8, "dimension_too_high"),
    ([[2.0]], np.eye(2).tolist(), 8, "usage"),
    # the set of [[3]] has 30 slabs below its cut
    ([[3.0]], [[1.0]], 31, "usage"),
])
def test_wavelet_build_inf_refusals_are_json(workdir, capsys, rows, basis, pieces, code):
    _, write = workdir
    mat = write("a.json", {"n": len(rows), "rows": rows})
    lat = write("g.json", {"basis": {"rows": basis}})
    exit_code, out = run(capsys, ["wavelet", "build-inf", "--matrix", mat, "--lattice", lat, "--pieces", str(pieces)])
    assert exit_code == 1 and out["code"] == code


@pytest.mark.parametrize("rows", [
    [[0.0, 1.0, 0.0], [0.0, 0.0, 1.0], [0.0, 0.0, 0.0]],
    [[0.0, math.pi, 1.0, 0.0, 0.0, 0.0], [-math.pi, 0.0, 0.0, 1.0, 0.0, 0.0], [0.0, 0.0, 0.0, math.pi, 0.0, 0.0],
     [0.0, 0.0, -math.pi, 0.0, 0.0, 0.0], [0.0, 0.0, 0.0, 0.0, 0.0, 1.0], [0.0, 0.0, 0.0, 0.0, -1.0, 0.0]],
], ids=["nilpotent_chain3", "rotating_shear_plus_rotation"])
def test_integrate_refusals_are_json(workdir, capsys, rows):
    tmp, write = workdir
    gen = write("b.json", {"n": len(rows), "rows": rows})
    sec = str(tmp / "S.json")
    assert main(["build", "--mode", "continuous", "--generator", gen, "--out", sec]) == 0
    capsys.readouterr()
    exit_code, out = run(capsys, ["integrate", "--section", sec])
    assert exit_code == 1 and out["code"] == "dimension_too_high"


def test_grid_export(workdir, capsys, tmp_path):
    tmp, write = workdir
    path = write("shear.json", {"n": 2, "rows": [[1.0, 1.0], [0.0, 1.0]]})
    dump = str(tmp / "grid.csv")
    code, out = run(
        capsys,
        ["build", "--mode", "discrete", "--matrix", path, "--dump", dump, "--grid", "200"],
    )
    assert code == 0
    lines = open(dump).read().strip().split("\n")
    assert len(lines) == 200 * 200 + 1
    # spot-check: emitted membership flags match re-evaluation
    import csv

    from xsect.sections import build_discrete_section

    section = build_discrete_section([[1.0, 1.0], [0.0, 1.0]])
    rows = list(csv.DictReader(open(dump)))
    pts = np.array([[float(r["x1"]), float(r["x2"])] for r in rows[:500]])
    member, exc = section.membership(pts)
    for r, m, e in zip(rows[:500], member, exc):
        assert r["member"] == ("" if e else str(int(m)))


def test_integrate_gaussian(workdir, capsys):
    tmp, write = workdir
    path = write("log2.json", {"n": 1, "rows": [[math.log(2.0)]]})
    sec = str(tmp / "S.json")
    main(["build", "--mode", "continuous", "--matrix", path, "--out", sec])
    capsys.readouterr()
    code, out = run(
        capsys,
        ["integrate", "--section", sec, "--radius", "6", "--jacobian-points", "20"],
    )
    assert code == 0
    assert abs(out["integral"] - 1.0) < 0.01
    assert out["jacobian_max_rel_dev"] <= 1e-6


def test_grid_export_rejects_high_dimension(workdir, capsys):
    _, write = workdir
    e = [[0.0, 1.0], [-1.0, 0.0]]
    rows = np.block([[np.asarray(e), np.eye(2)], [np.zeros((2, 2)), np.asarray(e)]]).tolist()
    path = write("a4.json", {"n": 4, "rows": rows})
    code, out = run(capsys, ["build", "--mode", "discrete", "--matrix", path, "--dump", "x.csv"])
    assert code == 1 and out["code"] == "dimension_too_high"


def test_parser_reuse_carries_no_state(workdir, capsys):
    tmp, write = workdir
    path = write("two.json", {"n": 1, "rows": [[2.0]]})
    argv = ["classify", "--mode", "discrete", "--matrix", path]
    assert main(argv) == 0
    first = capsys.readouterr().out
    code, out = run(capsys, ["solve", "--section", path])
    assert code == 1 and out["code"] == "usage"
    assert main(argv) == 0
    assert capsys.readouterr().out == first
    assert _build_parser() is _build_parser()


@pytest.mark.parametrize("rows", [[[0.0, -1.0], [1.0, 0.0]], [[1.0, 1.0], [0.0, 1.0]], [[2.0, 0.0], [0.0, 3.0]]],
                         ids=["rotation", "shear", "diag23"])
def test_classify_similar_to_unitary_matches_the_library(workdir, capsys, rows):
    _, write = workdir
    path = write("m.json", {"n": 2, "rows": rows})
    code, out = run(capsys, ["classify", "--mode", "discrete", "--matrix", path])
    assert code == 0
    assert out["similar_to_unitary"] is is_similar_to_unitary(np.array(rows))


@pytest.mark.parametrize("action", ["check", "partition"])
def test_wavelet_order_must_be_an_integer_or_inf(workdir, capsys, action):
    _, write = workdir
    mat = write("a.json", {"n": 1, "rows": [[2.0]]})
    lat = write("g.json", {"basis": {"n": 1, "rows": [[1.0]]}})
    region = write("k.json", {"kind": "boxes", "boxes": [{"lo": [1.0], "hi": [2.0]}]})
    code, out = run(capsys, ["wavelet", action, "--matrix", mat, "--lattice", lat, "--region", region,
                             "--order", "two", "--seed", "1"])
    assert code == 1 and out["code"] == "usage"
    assert "--order" in out["error"]


@pytest.mark.parametrize("doc", [
    {"mode": "weird", "matrix": {"n": 1, "rows": [[2.0]]}},
    {"mode": "discrete", "case": "complex_modulus_not_one", "matrix": {"n": 1, "rows": [[2.0]]}},
], ids=["unknown_mode", "case_mismatch"])
def test_malformed_section_file_is_usage_error(workdir, capsys, doc):
    _, write = workdir
    sec = write("S.json", doc)
    code, out = run(capsys, ["solve", "--section", sec, "--point", "1"])
    assert code == 1 and out["code"] == "usage"


def test_non_square_matrix_file_is_usage_error(workdir, capsys):
    _, write = workdir
    path = write("m.json", {"rows": [[1, 2]]})
    code, out = run(capsys, ["classify", "--mode", "discrete", "--matrix", path])
    assert code == 1 and out["code"] == "usage"


@pytest.mark.parametrize("case", ["shape_continuous", "shape_other_matrix", "integrate_discrete", "section_without_matrix",
                                  "non_square_lattice", "overlapping_region", "build_without_matrix",
                                  "build_with_both", "lattice_without_basis", "region_without_boxes",
                                  "box_without_hi", "box_with_nested_endpoints", "section_not_an_object",
                                  "nested_section_not_an_object", "lattice_not_an_object",
                                  "region_not_an_object", "dimfn_point_of_wrong_dimension", "check_zero_samples",
                                  "check_negative_samples", "partition_order_zero", "partition_zero_pieces",
                                  "partition_negative_pieces", "build_inf_zero_pieces", "shape_negative_samples",
                                  "build_negative_grid", "verify_zero_samples", "integrate_negative_jacobian_points",
                                  "check_without_seed", "shape_without_seed", "shape_samples_below_one_per_shell",
                                  "solve_nonfinite_point", "dimfn_nonfinite_point"])
def test_inputs_that_do_not_fit_the_command_are_usage_errors(workdir, capsys, case):
    tmp, write = workdir
    two = write("two.json", {"n": 1, "rows": [[2.0]]})
    three = write("three.json", {"n": 1, "rows": [[3.0]]})
    cont = write("C.json", {"mode": "continuous", "matrix": {"n": 1, "rows": [[0.5]]}})
    disc = write("D.json", {"mode": "discrete", "matrix": {"n": 1, "rows": [[2.0]]}})
    z1 = write("z1.json", {"basis": {"n": 1, "rows": [[1.0]]}})
    unit = write("unit.json", {"kind": "boxes", "boxes": [{"lo": [-0.5], "hi": [0.5]}]})
    square = write("square.json", {"kind": "boxes", "boxes": [{"lo": [-0.5, -0.5], "hi": [0.5, 0.5]}]})
    check = ["wavelet", "check", "--region", unit, "--matrix", two, "--lattice", z1, "--seed", "1"]
    partition = ["wavelet", "partition", "--region", unit, "--lattice", z1]
    argv = {
        "shape_continuous": ["shape", "--section", cont, "--target", "finite"],
        "shape_other_matrix": ["shape", "--section", disc, "--matrix", three, "--target", "bounded"],
        "integrate_discrete": ["integrate", "--section", disc],
        "section_without_matrix": ["solve", "--section", write("S.json", {"mode": "discrete"}), "--point", "1"],
        "non_square_lattice": ["wavelet", "partition", "--lattice", write("g.json", {"basis": {"rows": [[1.0, 2.0]]}}),
                               "--region", write("k.json", {"kind": "boxes", "boxes": [{"lo": [0.0], "hi": [1.0]}]})],
        "overlapping_region": ["wavelet", "dimfn", "--point", "0.5", "--region", write("o.json", {
            "kind": "boxes", "boxes": [{"lo": [0.0], "hi": [1.0]}, {"lo": [0.5], "hi": [2.0]}]})],
        "build_without_matrix": ["build", "--mode", "discrete"],
        "build_with_both": ["build", "--mode", "discrete", "--matrix", two, "--generator", two],
        "lattice_without_basis": ["wavelet", "partition", "--region", unit, "--lattice", write("no_basis.json", {"x": 1})],
        "region_without_boxes": ["wavelet", "dimfn", "--point", "0.1", "--region", write("no_boxes.json", {"kind": "boxes"})],
        "box_without_hi": ["wavelet", "dimfn", "--point", "0.1",
                           "--region", write("no_hi.json", {"kind": "boxes", "boxes": [{"lo": [0.0]}]})],
        "box_with_nested_endpoints": ["wavelet", "dimfn", "--point", "0.1", "--region", write(
            "nested_box.json", {"kind": "boxes", "boxes": [{"lo": [[0.0]], "hi": [[1.0]]}]})],
        "section_not_an_object": ["solve", "--section", write("list_section.json", [1.0]), "--point", "1"],
        "nested_section_not_an_object": ["solve", "--section", write("nested_section.json", {"section": [1.0]}),
                                         "--point", "1"],
        "lattice_not_an_object": ["wavelet", "partition", "--region", unit, "--lattice", write("list_lattice.json", [[1.0]])],
        "region_not_an_object": ["wavelet", "dimfn", "--point", "0.1", "--region", write("number_region.json", 3)],
        "dimfn_point_of_wrong_dimension": ["wavelet", "dimfn", "--point", "0.1", "--region", square],
        "check_zero_samples": check + ["--samples", "0"],
        "check_negative_samples": check + ["--samples", "-5"],
        "partition_order_zero": partition + ["--order", "0"],
        "partition_zero_pieces": partition + ["--order", "inf", "--pieces", "0"],
        "partition_negative_pieces": partition + ["--order", "inf", "--pieces", "-2"],
        "build_inf_zero_pieces": ["wavelet", "build-inf", "--matrix", two, "--lattice", z1, "--pieces", "0"],
        "shape_negative_samples": ["shape", "--section", disc, "--target", "finite", "--samples", "-3", "--seed", "1"],
        "build_negative_grid": ["build", "--mode", "discrete", "--matrix", two, "--grid", "-1",
                                "--dump", str(tmp / "dump.csv")],
        "verify_zero_samples": ["verify", "--section", disc, "--mode", "discrete", "--samples", "0", "--seed", "1"],
        "integrate_negative_jacobian_points": ["integrate", "--section", cont, "--jacobian-points", "-1"],
        "check_without_seed": check[:-2],
        "shape_without_seed": ["shape", "--section", disc, "--target", "finite", "--samples", "100"],
        "shape_samples_below_one_per_shell": ["shape", "--section", disc, "--target", "finite", "--samples", "5",
                                              "--seed", "1"],
        "solve_nonfinite_point": ["solve", "--section", disc, "--point", "nan"],
        "dimfn_nonfinite_point": ["wavelet", "dimfn", "--point", "inf", "--region", unit],
    }[case]
    code = main(argv)
    lines = capsys.readouterr().out.splitlines()
    assert code == 1 and len(lines) == 1
    assert json.loads(lines[0])["code"] == "usage"


def test_bounded_reshape_that_cannot_converge_is_refused(workdir, capsys):
    _, write = workdir
    sec = write("S.json", {"mode": "discrete", "matrix": {"n": 2, "rows": [[1.0 + 1e-7, 0.0], [0.0, 3.0]]}})
    code, out = run(capsys, ["shape", "--section", sec, "--target", "bounded"])
    assert code == 1 and out["code"] == "search_exhausted"


# the kinds of the verify requests of a CLI mix, with the sha256 of the output
# of the full scan over k in [-60, 60]: probing each solved hit prints the same bytes
_R = [[0.6, 0.8], [-0.8, 0.6]]
_GOLDEN_VERIFY = {
    "modulus_not_one": ("discrete", [[2.0, 1.0], [0.5, 2.5]], 5,
                        "67054d4eacd03a48be03ccb04b2264c473bafa807a06638ebe74f5d3b2a919de"),
    "complex_modulus_not_one": ("discrete", [[1.0, 2.0], [-1.5, 0.5]], 6,
                                "6afe37703f582dc90f771a8f48a445cc774c6169f357cb13c4f0b36405975b0c"),
    "complex_modulus_one_nilpotent": ("discrete", [_R[0] + [1.0, 0.0], _R[1] + [0.0, 1.0], [0.0, 0.0] + _R[0],
                                                   [0.0, 0.0] + _R[1]], 7,
                                      "9cea2f146c3d1918ba697e3b9813d525f7bd15a34670d631478fa8ab6fcc33fe"),
    "real_nonzero": ("continuous", [[0.5, 1.0], [0.0, -0.3]], 8,
                     "6251ccc4ae70ab1ba5f6ea8372fa1bc919192a5410748458ca28623d90787e10"),
    "complex_nonzero": ("continuous", [[1.0, 6.0], [-6.5, 1.0]], 9,
                        "aa241a51a6c9279fea22ea3a26757fe6e733a1036264c8a8b10e33aeba5fb0d8"),
}


@pytest.mark.parametrize("case", list(_GOLDEN_VERIFY))
def test_discrete_verify_prints_the_full_scan_bytes(tmp_path, monkeypatch, capsys, case):
    import hashlib

    mode, rows, seed, digest = _GOLDEN_VERIFY[case]
    monkeypatch.chdir(tmp_path)  # the manifest names the section file by this relative path
    (tmp_path / "S.json").write_text(json.dumps({"mode": mode, "matrix": {"n": len(rows), "rows": rows}}))
    code = main(["verify", "--section", "S.json", "--mode", "discrete", "--samples", "2000", "--seed", str(seed)])
    out = capsys.readouterr().out
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest
