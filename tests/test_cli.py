import json
import os
import subprocess
import sys
import warnings
from pathlib import Path
from signal import SIGKILL

import numpy as np
import pytest

import mahf.cli
import mahf.filters
import mahf.geometry
import mahf.io_mesh
import mahf.laplacian
from mahf.cli import main
from mahf.errors import GeometryError, MeshFormatError
from mahf.filters import FilterSpec, apply_filter, fuse, heat_kernel_row, normal_variation
from mahf.geometry import build_frames, pca_normals, vertex_normals
from mahf.io_mesh import (Mesh, VertexSignal, parse_mesh, parse_signal, rgb_to_luminance,
                          write_mesh, write_response)
from mahf.laplacian import cotan_operator, gaussian_knn_operator
from mahf.spectral import HeatParams
from mahf.synthetic import flat_grid, icosphere

from conftest import overflowing_operator


@pytest.fixture
def grid_inputs(tmp_path):
    mesh = flat_grid(12, 12, 5.0)
    mesh_path = tmp_path / "grid.off"
    write_mesh(mesh_path, mesh)
    signal_path = tmp_path / "step.csv"
    values = (mesh.vertices[:, 0] >= 27.5).astype(float)
    signal_path.write_text("".join(f"{v:g}\n" for v in values))
    return mesh, mesh_path, signal_path


@pytest.fixture
def sphere_ply(tmp_path):
    mesh = icosphere(2, 20.0)
    colors = 0.5 + 0.5 * np.sin(mesh.vertices / 7.0)
    colored = Mesh(mesh.vertices, mesh.faces, colors=colors,
                   normals=vertex_normals(mesh))
    path = tmp_path / "sphere.ply"
    write_mesh(path, colored)
    return colored, path


def test_filter_multiscale_outputs(tmp_path, grid_inputs):
    mesh, mesh_path, signal_path = grid_inputs
    out = tmp_path / "resp.csv"
    code = main(["filter", "--mesh", str(mesh_path), "--signal", str(signal_path),
                 "--k", "1", "--t", "5", "--t", "30", "--out", str(out)])
    assert code == 0
    for t in ("5", "30"):
        field = parse_signal(tmp_path / f"resp_k1_t{t}.csv",
                             expected_length=mesh.n_vertices)
        assert np.isfinite(field.values).all()
    manifest = json.loads((tmp_path / "resp_manifest.json").read_text())
    assert manifest["command"] == "filter"
    assert manifest["parameters"]["k"] == 1
    assert manifest["parameters"]["t"] == [5.0, 30.0]
    assert len(manifest["outputs"]) == 2


def test_filter_deterministic(tmp_path, grid_inputs):
    _, mesh_path, signal_path = grid_inputs
    outputs = []
    for run in ("a", "b"):
        d = tmp_path / run
        d.mkdir()
        out = d / "resp.csv"
        assert main(["filter", "--mesh", str(mesh_path), "--signal",
                     str(signal_path), "--k", "1", "--t", "5",
                     "--out", str(out)]) == 0
        outputs.append((d / "resp_k1_t5.csv").read_bytes())
    assert outputs[0] == outputs[1]


def test_filter_multiscale_one_pass_matches_single_runs(tmp_path, grid_inputs,
                                                       monkeypatch):
    # a small chunk makes both runs span several chunks of different widths
    monkeypatch.setattr(mahf.filters, "_CHUNK", 16)
    mesh, mesh_path, signal_path = grid_inputs
    base = ["filter", "--mesh", str(mesh_path), "--signal", str(signal_path), "--k", "1"]
    ts = ("5", "10", "20")

    def run(name, t_args):
        (tmp_path / name).mkdir()
        out = tmp_path / name / "resp.csv"
        assert main(base + t_args + ["--out", str(out)]) == 0
        return json.loads((tmp_path / name / "resp_manifest.json").read_text())

    multi = run("multi", [a for t in ts for a in ("--t", t)])
    assert multi["outputs"] == [str(tmp_path / "multi" / f"resp_k1_t{t}.csv") for t in ts]
    assert multi["parameters"]["t"] == [5.0, 10.0, 20.0]
    for t in ts:
        single = run(t, ["--t", t])
        assert {k: v for k, v in single["parameters"].items() if k not in ("t", "out")} \
            == {k: v for k, v in multi["parameters"].items() if k not in ("t", "out")}
        got = parse_signal(tmp_path / "multi" / f"resp_k1_t{t}.csv").values
        want = parse_signal(tmp_path / t / f"resp_k1_t{t}.csv").values
        assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()


def test_filter_missing_signal_exits_2(tmp_path, grid_inputs, capsys):
    _, mesh_path, _ = grid_inputs
    code = main(["filter", "--mesh", str(mesh_path), "--signal",
                 str(tmp_path / "nope.csv"), "--k", "1", "--t", "5",
                 "--out", str(tmp_path / "r.csv")])
    assert code == 2
    assert "nope.csv" in capsys.readouterr().err


def test_filter_requires_exactly_one_source(tmp_path, grid_inputs, capsys, monkeypatch):
    # argparse rejects a missing or doubled source before the mesh is read
    _, mesh_path, signal_path = grid_inputs
    refuse_calls(monkeypatch, *ENTRY_POINTS)
    base = ["filter", "--mesh", str(mesh_path), "--k", "1", "--t", "5",
            "--out", str(tmp_path / "r.csv")]
    assert main(base + ["--signal", str(signal_path), "--luminance"]) == 2
    assert "error: argument --luminance: not allowed with argument --signal" \
        in capsys.readouterr().err
    assert main(base) == 2
    assert "error: one of the arguments --signal --signal-property --luminance " \
        "is required" in capsys.readouterr().err
    assert not list(tmp_path.glob("r*"))


def test_filter_luminance_source(tmp_path, sphere_ply):
    mesh, path = sphere_ply
    out = tmp_path / "lum.ply"
    code = main(["filter", "--mesh", str(path), "--luminance", "--k", "1",
                 "--t", "10", "--out", str(out)])
    assert code == 0
    field = parse_signal(tmp_path / "lum_k1_t10.ply", property_name="quality")
    assert len(field) == mesh.n_vertices


def test_filter_signal_property_source(tmp_path, grid_inputs):
    mesh, _, _ = grid_inputs
    ply = tmp_path / "withq.ply"
    write_response(ply, mesh, VertexSignal(mesh.vertices[:, 0], name="quality"))
    out = tmp_path / "q.csv"
    code = main(["filter", "--mesh", str(ply), "--signal-property", "quality",
                 "--k", "0", "--t", "5", "--out", str(out)])
    assert code == 0
    assert (tmp_path / "q_k0_t5.csv").exists()


def test_signal_property_read_in_the_mesh_format(tmp_path, grid_inputs, capsys):
    # --mesh-format names the format of the file the property is read from
    mesh, grid_off, _ = grid_inputs
    ply = tmp_path / "q.ply"
    write_response(ply, mesh, VertexSignal(mesh.vertices[:, 0] * mesh.vertices[:, 1]))
    txt = tmp_path / "q.txt"
    txt.write_bytes(ply.read_bytes())
    outputs = []
    for path, given in ((ply, []), (txt, ["--mesh-format", "ply"])):
        out = tmp_path / f"{path.suffix[1:]}.csv"
        assert main(["filter", "--mesh", str(path), *given, "--signal-property", "quality",
                     "--t", "5", "--out", str(out)]) == 0
        outputs.append((tmp_path / f"{out.stem}_k1_t5.csv").read_bytes())
    assert outputs[0] == outputs[1]
    # an OFF or OBJ file carries no per-vertex property
    grid_obj = tmp_path / "grid.obj"
    write_mesh(grid_obj, mesh)
    for path in (grid_off, grid_obj):
        assert main(["filter", "--mesh", str(path), "--signal-property", "quality",
                     "--t", "5", "--out", str(tmp_path / "r.csv")]) == 2
        fmt = path.suffix[1:].upper()
        assert capsys.readouterr().err == (f"error: {path}: an {fmt} file has no per-vertex "
                                           "scalar properties; read them from a PLY file\n")
    assert not list(tmp_path.glob("r*"))


def test_signal_property_parses_the_ply_once(tmp_path, grid_inputs, monkeypatch):
    mesh, _, _ = grid_inputs
    ply = tmp_path / "q.ply"
    write_response(ply, mesh, VertexSignal(np.sin(mesh.vertices[:, 0]), name="quality"))
    reads = []
    read_ply = mahf.io_mesh._read_ply

    def counting(path, triangulate):
        reads.append(path)
        return read_ply(path, triangulate)

    monkeypatch.setattr(mahf.io_mesh, "_read_ply", counting)
    out = tmp_path / "q.csv"
    assert main(["filter", "--mesh", str(ply), "--signal-property", "quality",
                 "--t", "5", "--out", str(out)]) == 0
    assert reads == [ply]
    expected = _filter_response(parse_mesh(ply), parse_signal(ply, property_name="quality"))
    assert np.array_equal(parse_signal(tmp_path / "q_k1_t5.csv").values, expected.r2)


def test_normal_variation_and_mhw_baseline(tmp_path, grid_inputs):
    _, mesh_path, _ = grid_inputs
    for extra, name in (([], "nv.csv"), (["--baseline", "mhw"], "mhw.csv")):
        out = tmp_path / name
        code = main(["normal-variation", "--mesh", str(mesh_path), "--k", "1",
                     "--t", "10", "--out", str(out)] + extra)
        assert code == 0
        field = parse_signal(out)
        assert (field.values >= 0).all()
    manifest = json.loads((tmp_path / "mhw_manifest.json").read_text())
    assert manifest["parameters"]["baseline"] == "mhw"


def test_kernel_indicator_at_t_zero(tmp_path, grid_inputs):
    mesh, mesh_path, _ = grid_inputs
    out = tmp_path / "row.csv"
    code = main(["kernel", "--mesh", str(mesh_path), "--vertex", "40",
                 "--t", "0", "--out", str(out)])
    assert code == 0
    field = parse_signal(tmp_path / "row_v40_t0.csv")
    nonzero = np.flatnonzero(field.values)
    assert nonzero.tolist() == [40]


def test_kernel_support_growth(tmp_path):
    mesh = icosphere(2, 20.0)
    mesh_path = tmp_path / "s.off"
    write_mesh(mesh_path, mesh)
    out = tmp_path / "row.csv"
    code = main(["kernel", "--mesh", str(mesh_path), "--vertex", "0",
                 "--t", "5", "--t", "25", "--t", "50", "--t", "100",
                 "--support-threshold", "0", "--out", str(out)])
    assert code == 0
    sizes = []
    for t in ("5", "25", "50", "100"):
        vals = parse_signal(tmp_path / f"row_v0_t{t}.csv").values
        sizes.append(int(np.count_nonzero(vals > 0.01 * vals.max())))
    assert all(a <= b for a, b in zip(sizes, sizes[1:]))


def test_kernel_several_times_match_single_runs(tmp_path, sphere_ply, monkeypatch):
    # one kernel-row pass serves every --t, and each response file is byte
    # for byte the one a run with that --t alone writes
    _, mesh_path = sphere_ply
    calls = []
    row = mahf.cli.heat_kernel_row

    def recording(op, params, i):
        calls.append(len(params))
        return row(op, params, i)

    monkeypatch.setattr(mahf.cli, "heat_kernel_row", recording)
    base = ["kernel", "--mesh", str(mesh_path), "--vertex", "7"]
    ts = ("5", "25", "50")
    (tmp_path / "multi").mkdir()
    assert main(base + [a for t in ts for a in ("--t", t)]
                + ["--out", str(tmp_path / "multi" / "row.ply")]) == 0
    assert calls == [3]
    for t in ts:
        (tmp_path / t).mkdir()
        assert main(base + ["--t", t, "--out", str(tmp_path / t / "row.ply")]) == 0
        name = f"row_v7_t{t}.ply"
        assert (tmp_path / "multi" / name).read_bytes() == (tmp_path / t / name).read_bytes()
    assert calls == [3, 1, 1, 1]


def test_kernel_certified_order_at_large_time(tmp_path, grid_inputs):
    _, mesh_path, _ = grid_inputs
    base = ["kernel", "--mesh", str(mesh_path), "--vertex", "40", "--t", "1000"]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(base + ["--out", str(tmp_path / "auto.csv")]) == 0
    parameters = json.loads((tmp_path / "auto_manifest.json").read_text())["parameters"]
    assert "order" not in parameters


# every library entry point that the CLI calls through its module globals
ENTRY_POINTS = ("parse_mesh", "parse_mesh_property", "parse_signal", "cotan_operator",
                "gaussian_knn_operator",
                "vertex_normals", "pca_normals", "build_frames", "apply_filter",
                "normal_variation", "mhw_normal_variation", "heat_kernel_row", "fuse",
                "write_response", "write_signal_csv")


def test_bare_property_line_in_ply_header_exits_2(tmp_path, capsys):
    path = tmp_path / "m.ply"
    path.write_text("ply\nformat ascii 1.0\nelement vertex 3\nproperty\nend_header\n0\n1\n2\n")
    code = main(["normal-variation", "--mesh", str(path), "--t", "5",
                 "--out", str(tmp_path / "r.csv")])
    assert code == 2
    assert "malformed property line" in capsys.readouterr().err
    assert not list(tmp_path.glob("r*"))


def refuse_calls(monkeypatch, *names):
    """Make each named library entry point of the CLI fail if it is called."""
    def refuse(*args, **kwargs):
        raise AssertionError("the CLI did work before it checked its input")

    for name in names:
        monkeypatch.setattr(mahf.cli, name, refuse)


def test_kernel_vertex_out_of_range(tmp_path, grid_inputs, capsys, monkeypatch):
    # checked right after the mesh is parsed, before the operator is assembled
    mesh, mesh_path, _ = grid_inputs
    refuse_calls(monkeypatch, "cotan_operator", "gaussian_knn_operator", "heat_kernel_row")
    code = main(["kernel", "--mesh", str(mesh_path), "--vertex", "100000",
                 "--t", "5", "--out", str(tmp_path / "r.csv")])
    assert code == 2
    assert capsys.readouterr().err == \
        f"error: vertex 100000 out of range for {mesh.n_vertices} vertices\n"
    assert not list(tmp_path.glob("r*"))


def _command_argv(command, mesh_path, signal_path):
    mesh, signal = ["--mesh", str(mesh_path)], str(signal_path)
    return {"filter": ["filter", *mesh, "--signal", signal, "--t", "5"],
            "normal-variation": ["normal-variation", *mesh, "--t", "5"],
            "kernel": ["kernel", *mesh, "--vertex", "0", "--t", "5"],
            "fuse": ["fuse", "--a", signal, "--b", signal, "--beta", "0.5"]}[command]


@pytest.mark.parametrize("command", ["filter", "normal-variation", "kernel", "fuse"])
def test_output_suffix_checked_before_any_work(tmp_path, grid_inputs, capsys, monkeypatch,
                                               command):
    _, mesh_path, signal_path = grid_inputs
    refuse_calls(monkeypatch, *ENTRY_POINTS)
    argv = _command_argv(command, mesh_path, signal_path)
    assert main(argv + ["--out", str(tmp_path / "r.txt")]) == 2
    assert capsys.readouterr().err == "error: output must be .ply or .csv, got '.txt'\n"
    assert not list(tmp_path.glob("r*"))


@pytest.mark.parametrize("command", ["filter", "normal-variation", "kernel", "fuse"])
def test_output_directory_checked_before_any_work(tmp_path, grid_inputs, capsys, monkeypatch,
                                                  command):
    _, mesh_path, signal_path = grid_inputs
    refuse_calls(monkeypatch, *ENTRY_POINTS)
    argv = _command_argv(command, mesh_path, signal_path)
    missing = tmp_path / "nodir"
    assert main(argv + ["--out", str(missing / "r.csv")]) == 2
    assert capsys.readouterr().err == f"error: no such output directory: {missing}\n"
    assert not missing.exists()


@pytest.mark.parametrize("command", ["filter", "normal-variation", "normal-variation-mhw",
                                     "kernel"])
def test_scales_that_name_one_file_checked_before_any_work(tmp_path, grid_inputs, capsys,
                                                           monkeypatch, command):
    # {t:g} keeps 6 significant digits: 5 and 5.000001 would both write *_t5
    _, mesh_path, signal_path = grid_inputs
    refuse_calls(monkeypatch, *ENTRY_POINTS)
    argv = _command_argv(command.removesuffix("-mhw"), mesh_path, signal_path)
    if command.endswith("-mhw"):
        argv += ["--baseline", "mhw"]
    assert main(argv + ["--t", "30", "--t", "5.000001", "--out",
                        str(tmp_path / "r.csv")]) == 2
    assert capsys.readouterr().err == (
        "error: --t 5.0 and --t 5.000001 would write one file (_t5); "
        "scales must differ when rounded to 6 significant digits\n")
    assert not list(tmp_path.glob("r*"))


@pytest.mark.parametrize("command", ["filter", "normal-variation", "kernel"])
@pytest.mark.parametrize("bad, message", [
    (["--t", "-1"], "argument --t: diffusion time must be finite and nonnegative, got -1"),
    (["--t", "5", "--t", "nan"],
     "argument --t: diffusion time must be finite and nonnegative, got nan"),
    (["--t", "5", "--support-threshold", "1"],
     "argument --support-threshold: support threshold must lie in [0, 1), got 1"),
    (["--t", "5", "--support-threshold=-1e-4"],
     "argument --support-threshold: support threshold must lie in [0, 1), got -1e-4"),
    (["--t", "soon"], "argument --t: invalid float value: 'soon'"),
], ids=["negative-t", "nan-t", "threshold-1", "negative-threshold", "t-not-a-number"])
def test_heat_arguments_checked_before_any_work(tmp_path, grid_inputs, capsys, monkeypatch,
                                                command, bad, message):
    _, mesh_path, signal_path = grid_inputs
    refuse_calls(monkeypatch, *ENTRY_POINTS)
    argv = {"filter": ["filter", "--signal", str(signal_path)],
            "normal-variation": ["normal-variation"],
            "kernel": ["kernel", "--vertex", "0"]}[command]
    assert main(argv + ["--mesh", str(mesh_path), *bad,
                        "--out", str(tmp_path / "r.csv")]) == 2
    assert f"mahf {command}: error: {message}\n" in capsys.readouterr().err
    assert not list(tmp_path.glob("r*"))


_SIGMA_NEEDS = "sigma must be a positive finite number or 'auto'"


@pytest.mark.parametrize("command, bad, message", [
    ("filter", ["--k", "-1"], "argument --k: harmonic order must be nonnegative, got -1"),
    ("normal-variation", ["--k", "-1"],
     "argument --k: harmonic order must be nonnegative, got -1"),
    ("filter", ["--k", "1.5"], "argument --k: invalid int value: '1.5'"),
    ("filter", ["--knn", "0"], "argument --knn: neighbor count must be at least 1, got 0"),
    ("normal-variation", ["--knn", "0"],
     "argument --knn: neighbor count must be at least 1, got 0"),
    ("kernel", ["--knn=-3"], "argument --knn: neighbor count must be at least 1, got -3"),
    ("kernel", ["--vertex", "-1"], "argument --vertex: vertex index must be nonnegative, got -1"),
    ("filter", ["--sigma", "wide"], f"argument --sigma: {_SIGMA_NEEDS}, got wide"),
    ("normal-variation", ["--sigma", "0"], f"argument --sigma: {_SIGMA_NEEDS}, got 0"),
    ("kernel", ["--sigma", "nan"], f"argument --sigma: {_SIGMA_NEEDS}, got nan"),
    ("kernel", ["--sigma", "inf"], f"argument --sigma: {_SIGMA_NEEDS}, got inf"),
    ("filter", ["--sigma=-1"], f"argument --sigma: {_SIGMA_NEEDS}, got -1"),
    ("fuse", ["--beta", "nan"], "argument --beta: beta must be finite and nonnegative, got nan"),
    ("fuse", ["--beta", "inf"], "argument --beta: beta must be finite and nonnegative, got inf"),
    ("fuse", ["--beta=-0.5"], "argument --beta: beta must be finite and nonnegative, got -0.5"),
    ("filter", ["--luma-weights", "0.3", "nan", "0.1"],
     "argument --luma-weights: luma weights must be finite, got nan"),
    ("filter", ["--luma-weights", "0.3", "0.6", "inf"],
     "argument --luma-weights: luma weights must be finite, got inf"),
], ids=["filter-negative-k", "nv-negative-k", "fractional-k", "filter-knn-0", "nv-knn-0",
        "kernel-negative-knn", "kernel-negative-vertex", "sigma-word", "sigma-0", "sigma-nan",
        "sigma-inf", "negative-sigma", "beta-nan", "beta-inf", "negative-beta", "luma-nan",
        "luma-inf"])
def test_order_operator_and_weight_arguments_checked_before_any_work(
        tmp_path, grid_inputs, capsys, monkeypatch, command, bad, message):
    _, mesh_path, signal_path = grid_inputs
    refuse_calls(monkeypatch, *ENTRY_POINTS)
    mesh, signal = ["--mesh", str(mesh_path), "--t", "5"], str(signal_path)
    argv = {"filter": ["filter", *mesh, "--signal", signal],
            "normal-variation": ["normal-variation", *mesh],
            "kernel": ["kernel", *mesh, "--vertex", "0"],
            "fuse": ["fuse", "--a", signal, "--b", signal]}[command]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(argv + [*bad, "--out", str(tmp_path / "r.csv")]) == 2
    assert f"mahf {command}: error: {message}\n" in capsys.readouterr().err
    assert not list(tmp_path.glob("r*"))


def test_mhw_zero_time_checked_before_any_work(tmp_path, grid_inputs, capsys, monkeypatch):
    # t = 0 is a valid heat scale but no MHW scale
    _, mesh_path, _ = grid_inputs
    refuse_calls(monkeypatch, *ENTRY_POINTS)
    assert main(["normal-variation", "--mesh", str(mesh_path), "--baseline", "mhw",
                 "--t", "5", "--t", "0", "--out", str(tmp_path / "r.csv")]) == 2
    assert capsys.readouterr().err == "error: MHW scale must be finite and positive, got 0.0\n"
    assert not list(tmp_path.glob("r*"))


@pytest.mark.parametrize("first, second", [("-0", "0"), ("0", "-0")])
def test_negative_zero_time_is_zero(tmp_path, grid_inputs, first, second):
    # -0 and 0 are one scale, named and recorded as 0 whichever comes first
    _, mesh_path, _ = grid_inputs
    assert main(["kernel", "--mesh", str(mesh_path), "--vertex", "0", "--t", first,
                 "--t", second, "--out", str(tmp_path / "row.csv")]) == 0
    assert sorted(p.name for p in tmp_path.glob("row*")) == ["row_manifest.json",
                                                             "row_v0_t0.csv"]
    manifest = json.loads((tmp_path / "row_manifest.json").read_text())
    assert [repr(t) for t in manifest["parameters"]["t"]] == ["0.0"]


def test_negative_zero_beta_and_threshold_recorded_as_zero(tmp_path, grid_inputs):
    _, mesh_path, _ = grid_inputs
    field = tmp_path / "a.csv"
    field.write_text("1\n2\n3\n")
    assert main(["fuse", "--a", str(field), "--b", str(field), "--beta", "-0",
                 "--out", str(tmp_path / "f.csv")]) == 0
    assert main(["normal-variation", "--mesh", str(mesh_path), "--t", "5",
                 "--support-threshold", "-0", "--out", str(tmp_path / "nv.csv")]) == 0
    for name, key in (("f", "beta"), ("nv", "support_threshold")):
        manifest = json.loads((tmp_path / f"{name}_manifest.json").read_text())
        assert repr(manifest["parameters"][key]) == "0.0"


def test_kernel_infinite_time_exits_2(tmp_path, grid_inputs, capsys):
    _, mesh_path, _ = grid_inputs
    out = tmp_path / "r.csv"
    code = main(["kernel", "--mesh", str(mesh_path), "--vertex", "0",
                 "--t", "inf", "--out", str(out)])
    assert code == 2
    assert "finite" in capsys.readouterr().err
    assert not list(tmp_path.glob("r*.csv"))


def test_fuse_beta_zero_returns_first(tmp_path):
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    a.write_text("1\n2\n3\n")
    b.write_text("9\n9\n9\n")
    out = tmp_path / "f.csv"
    assert main(["fuse", "--a", str(a), "--b", str(b), "--beta", "0",
                 "--out", str(out)]) == 0
    assert np.array_equal(parse_signal(out).values, [1, 2, 3])


def test_fuse_length_mismatch_exits_2(tmp_path, capsys):
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    a.write_text("1\n2\n3\n")
    b.write_text("9\n9\n")
    code = main(["fuse", "--a", str(a), "--b", str(b), "--beta", "0.5",
                 "--out", str(tmp_path / "f.csv")])
    assert code == 2
    assert capsys.readouterr().err == "error: field lengths differ: 3 vs 2\n"
    assert not list(tmp_path.glob("f*"))


def test_fuse_ply_output_needs_mesh(tmp_path, grid_inputs, capsys, monkeypatch):
    mesh, mesh_path, _ = grid_inputs
    a = tmp_path / "a.csv"
    n = mesh.n_vertices
    a.write_text("1\n" * n)
    out = tmp_path / "f.ply"
    refuse_calls(monkeypatch, *ENTRY_POINTS)
    assert main(["fuse", "--a", str(a), "--b", str(a), "--beta", "0.333333",
                 "--out", str(out)]) == 2
    assert capsys.readouterr().err == "error: PLY output requires --mesh\n"
    assert not list(tmp_path.glob("f*"))
    monkeypatch.undo()
    assert main(["fuse", "--a", str(a), "--b", str(a), "--beta", "0.333333",
                 "--mesh", str(mesh_path), "--out", str(out)]) == 0
    fused = parse_signal(out, property_name="quality")
    assert np.allclose(fused.values, 1.0 + 0.333333)


def test_cotangent_on_point_cloud_exits_2(tmp_path, capsys):
    cloud = tmp_path / "cloud.off"
    cloud.write_text("OFF\n4 0 0\n0 0 0\n1 0 0\n0 1 0\n0 0 1\n")
    code = main(["kernel", "--mesh", str(cloud), "--vertex", "0",
                 "--operator", "cotangent", "--t", "5",
                 "--out", str(tmp_path / "r.csv")])
    assert code == 2
    assert capsys.readouterr().err == ("error: cotangent operator requested for a point "
                                       "cloud; use --operator gaussian-knn\n")
    assert not list(tmp_path.glob("r*"))


def test_gaussian_knn_point_cloud_runs(tmp_path):
    rng = np.random.default_rng(0)
    pts = rng.uniform(0, 30, (80, 3))
    cloud = tmp_path / "cloud.ply"
    write_mesh(cloud, Mesh(pts, np.zeros((0, 3))))
    sig = tmp_path / "s.csv"
    sig.write_text("".join(f"{v:g}\n" for v in pts[:, 0]))
    out = tmp_path / "r.csv"
    code = main(["filter", "--mesh", str(cloud), "--signal", str(sig),
                 "--knn", "6", "--k", "1", "--t", "2", "--out", str(out)])
    assert code == 0
    assert (tmp_path / "r_k1_t2.csv").exists()
    # a width far below the spacing leaves a graph without edges, whose
    # spectral bound is 0: every order-1 response is 0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["filter", "--mesh", str(cloud), "--signal", str(sig), "--knn", "6",
                     "--sigma", "0.001", "--t", "2", "--out", str(tmp_path / "e.csv")]) == 0
    assert not parse_signal(tmp_path / "e_k1_t2.csv").values.any()


def test_point_cloud_command_builds_one_knn_graph(tmp_path, monkeypatch):
    pts = np.random.default_rng(4).uniform(0, 30, (80, 3))
    cloud = tmp_path / "cloud.ply"
    write_mesh(cloud, Mesh(pts, np.zeros((0, 3))))
    calls = []
    knn = mahf.geometry.knn

    def recording(points, k):
        calls.append(k)
        return knn(points, k)

    monkeypatch.setattr(mahf.geometry, "knn", recording)
    monkeypatch.setattr(mahf.laplacian, "knn", recording)

    def run(name, knn_args):
        out = tmp_path / f"{name}.ply"
        calls.clear()
        assert main(["normal-variation", "--mesh", str(cloud), *knn_args,
                     "--k", "1", "--t", "2", "--out", str(out)]) == 0
        return out.read_bytes(), list(calls)

    # operator and normals share one graph when their k agree
    shared, built = run("shared", ["--knn", "6"])
    assert built == [6]
    # the normals need k >= 3, so --knn 2 builds two graphs
    assert run("two", ["--knn", "2"])[1] == [2, 3]
    # and the shared graph changes no output byte: the library builders,
    # each building its own graph, give the same field
    calls.clear()
    op = gaussian_knn_operator(pts, 6)
    normals = pca_normals(pts, 6)
    assert calls == [6, 6]
    oriented = Mesh(pts, np.zeros((0, 3)), normals=normals)
    field = normal_variation(oriented, op, build_frames(normals),
                             FilterSpec(1, HeatParams(2.0, 1e-4)))
    alone = tmp_path / "alone.ply"
    write_response(alone, oriented, field)
    assert alone.read_bytes() == shared


def test_mhw_baseline_builds_no_frames(tmp_path, monkeypatch):
    mesh = icosphere(1, 20.0)
    path = tmp_path / "ico.off"
    write_mesh(path, mesh)

    def refuse(normals):
        raise AssertionError("the MHW baseline reads no frames")

    monkeypatch.setattr(mahf.cli, "build_frames", refuse)
    assert main(["normal-variation", "--mesh", str(path), "--baseline", "mhw",
                 "--t", "5", "--out", str(tmp_path / "mhw.ply")]) == 0
    with pytest.raises(AssertionError, match="no frames"):
        main(["normal-variation", "--mesh", str(path),
              "--t", "5", "--out", str(tmp_path / "nv.ply")])


def test_bad_sigma_exits_2(tmp_path, grid_inputs, capsys):
    _, mesh_path, signal_path = grid_inputs
    code = main(["filter", "--mesh", str(mesh_path), "--signal", str(signal_path),
                 "--operator", "gaussian-knn", "--sigma", "wide",
                 "--k", "1", "--t", "5", "--out", str(tmp_path / "r.csv")])
    assert code == 2
    assert capsys.readouterr().err.endswith(
        "mahf filter: error: argument --sigma: sigma must be a positive finite number "
        "or 'auto', got wide\n")


def test_sigma_recorded_as_typed(tmp_path):
    pts = np.random.default_rng(2).uniform(0, 30, (60, 3))
    cloud = tmp_path / "cloud.ply"
    write_mesh(cloud, Mesh(pts, np.zeros((0, 3))))
    for sigma in ("auto", "2.50", "1e1"):
        out = tmp_path / f"s{sigma}.csv"
        assert main(["kernel", "--mesh", str(cloud), "--vertex", "0", "--sigma", sigma,
                     "--t", "1", "--out", str(out)]) == 0
        manifest = json.loads((tmp_path / f"s{sigma}_manifest.json").read_text())
        assert manifest["parameters"]["sigma"] == sigma


def test_area_normalize_flag_recorded(tmp_path, grid_inputs):
    _, mesh_path, signal_path = grid_inputs
    out = tmp_path / "norm.csv"
    code = main(["filter", "--mesh", str(mesh_path), "--signal", str(signal_path),
                 "--k", "1", "--t", "0.001", "--area-normalize-t",
                 "--out", str(out)])
    assert code == 0
    manifest = json.loads((tmp_path / "norm_manifest.json").read_text())
    assert manifest["parameters"]["area_normalize_t"] is True


# a 4 x 4 grid of unit quads
_CORNERS = [(x, y) for y in range(5) for x in range(5)]
_QUADS = [(5 * y + x, 5 * y + x + 1, 5 * y + x + 6, 5 * y + x + 5)
          for y in range(4) for x in range(4)]


@pytest.mark.parametrize("command", ["filter", "fuse"])
def test_signal_property_of_a_quad_ply(tmp_path, command):
    # a PLY's faces are only checked when a signal is read from it, so a
    # polygonal PLY's property reads as a triangle mesh's would
    quads = tmp_path / "quads.ply"
    quads.write_text("ply\nformat ascii 1.0\nelement vertex 25\nproperty float x\n"
                     "property float y\nproperty float z\nproperty float quality\n"
                     "element face 16\nproperty list uchar int vertex_indices\nend_header\n"
                     + "".join(f"{x} {y} 0 {x * y % 3}\n" for x, y in _CORNERS)
                     + "".join("4 %d %d %d %d\n" % f for f in _QUADS))
    quality = parse_signal(quads, property_name="quality")
    out = tmp_path / "out.csv"
    if command == "filter":
        argv = ["filter", "--mesh", str(quads), "--triangulate", "--signal-property", "quality",
                "--k", "1", "--t", "5", "--out", str(out)]
        written = tmp_path / "out_k1_t5.csv"
        expected = _filter_response(parse_mesh(quads, triangulate=True), quality).r2
    else:
        argv = ["fuse", "--a", str(quads), "--a-property", "x", "--b", str(quads),
                "--b-property", "quality", "--beta", "0.5", "--out", str(out)]
        written = out
        expected = fuse(parse_signal(quads, property_name="x"), quality, 0.5).values
    assert main(argv) == 0
    assert np.array_equal(parse_signal(written).values, expected)


def _filter_response(mesh, signal):
    """The library call behind ``filter --k 1 --t 5`` on a mesh."""
    normals = mesh.normals if mesh.normals is not None else vertex_normals(mesh)
    return apply_filter(cotan_operator(mesh), build_frames(normals), mesh.vertices,
                        [FilterSpec(1, HeatParams(5.0))], signal)[0]


@pytest.mark.parametrize("flag", ["field-real", "field-imag", "luma-weights", "mesh-format",
                                  "triangulate", "fuse-properties"])
def test_flag_output_matches_library(tmp_path, grid_inputs, sphere_ply, flag):
    # each flag's output file holds, bit for bit, what the matching library
    # call returns; a flag a format needs fails with exit 2 when left out
    grid, grid_path, signal_path = grid_inputs
    _, sphere_path = sphere_ply
    out = tmp_path / "out.csv"
    filter_args = ["filter", "--k", "1", "--t", "5", "--out", str(out)]
    written = tmp_path / "out_k1_t5.csv"
    needed = None
    if flag in ("field-real", "field-imag"):
        part = flag.split("-")[1]
        argv = filter_args + ["--mesh", str(grid_path), "--signal", str(signal_path),
                              "--field", part]
        response = _filter_response(parse_mesh(grid_path), parse_signal(signal_path))
        expected = {"real": response.r_real, "imag": response.r_imag}[part]
    elif flag == "luma-weights":
        argv = filter_args + ["--mesh", str(sphere_path), "--luminance",
                              "--luma-weights", "0.2", "0.3", "0.5"]
        mesh = parse_mesh(sphere_path)
        expected = _filter_response(mesh, rgb_to_luminance(mesh, (0.2, 0.3, 0.5))).r2
    elif flag == "mesh-format":
        txt = tmp_path / "sphere.txt"
        txt.write_bytes(sphere_path.read_bytes())
        argv = filter_args + ["--mesh", str(txt), "--luminance"]
        needed = ["--mesh-format", "ply"]
        mesh = parse_mesh(txt, fmt="ply")
        expected = _filter_response(mesh, rgb_to_luminance(mesh)).r2
    elif flag == "triangulate":
        quads = tmp_path / "quads.off"
        quads.write_text("OFF\n25 16 0\n" + "".join(f"{x} {y} 0\n" for x, y in _CORNERS)
                         + "".join("4 %d %d %d %d\n" % f for f in _QUADS))
        argv = ["kernel", "--mesh", str(quads), "--vertex", "12", "--t", "0.5",
                "--out", str(out)]
        needed = ["--triangulate"]
        written = tmp_path / "out_v12_t0.5.csv"
        expected = heat_kernel_row(cotan_operator(parse_mesh(quads, triangulate=True)),
                                   HeatParams(0.5), 12)
    else:
        argv = ["fuse", "--a", str(sphere_path), "--a-property", "x",
                "--b", str(sphere_path), "--b-property", "z", "--beta", "0.5",
                "--out", str(out)]
        written = out
        expected = fuse(parse_signal(sphere_path, property_name="x"),
                        parse_signal(sphere_path, property_name="z"), 0.5).values
    if needed is not None:
        assert main(argv) == 2
        assert not written.exists()
        argv += needed
    assert main(argv) == 0
    assert np.array_equal(parse_signal(written).values, expected)


# a token written into vertex 5's record of a mesh file: (suffix, line before
# the first record, records it skips, column, token, command that reads it)
_SPOILED = {
    "ply-normal": ("ply", "end_header", 1, 3, "nan", ["normal-variation"]),
    "ply-normal-mhw": ("ply", "end_header", 1, 3, "nan",
                       ["normal-variation", "--baseline", "mhw"]),
    "obj-normal": ("obj", "vn ", 0, 1, "inf", ["normal-variation"]),
    "coff-color": ("off", "COFF", 2, 3, "nan", ["filter", "--luminance"]),
}


@pytest.mark.parametrize("case", sorted(_SPOILED))
def test_non_finite_normal_or_color_exits_2(tmp_path, capsys, case):
    suffix, marker, skip, column, token, command = _SPOILED[case]
    mesh = icosphere(1, 20.0)
    data = {"normals": vertex_normals(mesh), "colors": np.full((mesh.n_vertices, 3), 0.5)}
    path = tmp_path / f"in.{suffix}"
    write_mesh(path, Mesh(mesh.vertices, mesh.faces, **data))
    lines = path.read_text().splitlines()
    row = next(i for i, line in enumerate(lines) if line.startswith(marker)) + skip + 5
    tokens = lines[row].split()
    tokens[column] = token
    lines[row] = " ".join(tokens)
    path.write_text("\n".join(lines) + "\n")
    spoiled = "colors" if case == "coff-color" else "normals"
    bad = data[spoiled].copy()
    bad[5, 0] = float(token)
    out = tmp_path / "out" / "field.ply"
    out.parent.mkdir()
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(MeshFormatError, match="non-finite|must be finite"):
            parse_mesh(path)
        with pytest.raises(ValueError, match="must be finite"):
            Mesh(mesh.vertices, mesh.faces, **{spoiled: bad})
        if spoiled == "normals":
            with pytest.raises(GeometryError, match="vertex 5"):
                build_frames(bad)
        assert main(command + ["--mesh", str(path), "--t", "5", "--out", str(out)]) == 2
    assert str(path) in capsys.readouterr().err
    assert not any(out.parent.iterdir())


def test_usage_error_exits_2(capsys):
    assert main(["filter", "--unknown-flag"]) == 2
    assert "mahf filter: error: the following arguments are required: --mesh, --t, --out\n" \
        in capsys.readouterr().err


# the scipy modules a mahf process may hold: none but the extension of
# scipy's compiled sparse kernels, which the library loads by itself
_SCIPY_LOADED = ("sorted(m for m in sys.modules if m.startswith('scipy') "
                 "and m != 'scipy.sparse._sparsetools')")


def _run_src(code, *args):
    src = str(Path(mahf.filters.__file__).resolve().parents[1])
    return subprocess.run([sys.executable, "-c", code, *args],
                          env={**os.environ, "PYTHONPATH": src},
                          capture_output=True, text=True, check=True)


def test_cli_import_does_not_load_scipy_spatial():
    # the library holds no kNN tree, the breadth-first balls need no graph
    # package, and the operators are plain CSR arrays: importing the CLI
    # loads no scipy package at all, scipy.sparse and scipy.spatial included
    run = _run_src(f"import json, sys, mahf.cli; print(json.dumps({_SCIPY_LOADED}))")
    assert json.loads(run.stdout) == []


def test_commands_load_neither_scipy_linalg_nor_scipy_spatial(tmp_path):
    # the recurrence needs no BLAS wrapper, the kNN graph no tree and the
    # operators no scipy.sparse, so no command, run to the end on a mesh or
    # on a point cloud, loads any scipy package
    mesh = icosphere(1, 20.0)
    mesh_path, cloud_path = tmp_path / "ico.off", tmp_path / "cloud.ply"
    write_mesh(mesh_path, mesh)
    write_mesh(cloud_path, Mesh(icosphere(2, 20.0).vertices, np.zeros((0, 3))))
    signal = tmp_path / "s.csv"
    signal.write_text("".join(f"{v:g}\n" for v in mesh.vertices[:, 0]))
    cloud_signal = tmp_path / "c.csv"
    cloud_signal.write_text("1\n" * 162)
    commands = [
        ["filter", "--mesh", str(mesh_path), "--signal", str(signal), "--t", "5",
         "--out", str(tmp_path / "f.ply")],
        ["normal-variation", "--mesh", str(mesh_path), "--t", "5",
         "--out", str(tmp_path / "n.ply")],
        ["normal-variation", "--mesh", str(mesh_path), "--baseline", "mhw", "--t", "5",
         "--out", str(tmp_path / "m.ply")],
        ["kernel", "--mesh", str(mesh_path), "--vertex", "3", "--t", "5",
         "--out", str(tmp_path / "k.ply")],
        ["fuse", "--a", str(signal), "--b", str(signal), "--beta", "0.5",
         "--out", str(tmp_path / "fu.csv")],
        ["filter", "--mesh", str(cloud_path), "--signal", str(cloud_signal), "--t", "5",
         "--out", str(tmp_path / "cf.ply")],
        ["normal-variation", "--mesh", str(cloud_path), "--t", "5",
         "--out", str(tmp_path / "cn.ply")],
        ["normal-variation", "--mesh", str(cloud_path), "--baseline", "mhw", "--t", "5",
         "--out", str(tmp_path / "cm.ply")],
        ["kernel", "--mesh", str(cloud_path), "--vertex", "3", "--t", "5",
         "--out", str(tmp_path / "ck.ply")],
    ]
    run = _run_src("import json, sys\n"
                   "from mahf.cli import main\n"
                   f"codes = [main(argv) for argv in {commands!r}]\n"
                   f"print(json.dumps([codes, {_SCIPY_LOADED}]))\n")
    assert json.loads(run.stdout) == [[0] * len(commands), []]


def test_filter_pass_alike_with_scipy_sparse_imported_before_or_after(tmp_path):
    # imported first, scipy.sparse lends the library its kernel extension;
    # imported after, it loads a second copy of the same extension
    code = """
import sys
import numpy as np
if sys.argv[1] == "before":
    import scipy.sparse
from mahf import FilterSpec, HeatParams, apply_filter, build_frames, cotan_operator, vertex_normals
from mahf.csr import sparsetools
from mahf.synthetic import icosphere
import scipy.sparse
mesh = icosphere(2, 20.0)
r = apply_filter(cotan_operator(mesh), build_frames(vertex_normals(mesh)), mesh.vertices,
                 FilterSpec(1, HeatParams(5.0)), mesh.vertices[:, 0])
np.save(sys.argv[2], np.stack([r.r_real, r.r_imag, r.r2]))
print(sparsetools is scipy.sparse._sparsetools)
"""
    shared = {order: _run_src(code, order, str(tmp_path / order)).stdout
              for order in ("before", "after")}
    assert shared == {"before": "True\n", "after": "False\n"}
    assert np.array_equal(np.load(tmp_path / "before.npy"), np.load(tmp_path / "after.npy"))


def test_overflowing_response_exits_1_under_warnings_as_errors(tmp_path, capsys):
    # the responses to a step of height 1e200 are finite and their squares
    # are not: a numerical error, not an input error, and no file is written
    mesh = icosphere(2, 20.0)
    mesh_path, signal_path = tmp_path / "ico.off", tmp_path / "step.csv"
    write_mesh(mesh_path, mesh)
    signal_path.write_text("".join(f"{v!r}\n" for v in
                                   (1e200 * (mesh.vertices[:, 0] > 0)).tolist()))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["filter", "--mesh", str(mesh_path), "--signal", str(signal_path),
                     "--t", "5", "--out", str(tmp_path / "r.csv")]) == 1
    assert capsys.readouterr().err.startswith(
        "numerical error: non-finite squared filter response at vertex ")
    assert not list(tmp_path.glob("r*"))


def test_killed_worker_exits_1(tmp_path, grid_inputs, capsys, monkeypatch):
    _, mesh_path, signal_path = grid_inputs
    parent, recurrence = os.getpid(), mahf.filters.chebyshev_apply

    def killed_in_child(*args, **kwargs):
        if os.getpid() != parent:
            os.kill(os.getpid(), SIGKILL)
        return recurrence(*args, **kwargs)

    monkeypatch.setattr(mahf.filters, "_workers", lambda chunks: min(2, chunks))
    monkeypatch.setattr(mahf.filters, "chebyshev_apply", killed_in_child)
    assert main(["filter", "--mesh", str(mesh_path), "--signal", str(signal_path),
                 "--t", "5", "--out", str(tmp_path / "r.csv")]) == 1
    assert capsys.readouterr().err == \
        f"internal error: a filter worker process ended with exit code {-SIGKILL}\n"
    assert not list(tmp_path.glob("r*"))


@pytest.mark.parametrize("kind", ["inf", "overflow"])
def test_nonfinite_block_exits_1_under_warnings_as_errors(tmp_path, monkeypatch, capsys, kind):
    op, t = overflowing_operator(kind)
    path = tmp_path / "pair.off"
    write_mesh(path, Mesh(np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0]]), np.zeros((0, 3))))
    monkeypatch.setattr(mahf.cli, "_build_operator",
                        lambda args, mesh, graphs=None: (op, "gaussian-knn"))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["kernel", "--mesh", str(path), "--vertex", "0", "--t", repr(t),
                     "--out", str(tmp_path / "k.ply")]) == 1
    assert "non-finite Chebyshev intermediate at iteration 2" in capsys.readouterr().err
