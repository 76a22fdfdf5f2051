"""Acceptance suite: one test per criterion, each printing a PASS line.

Every shape is generated in-repo at desk scale (millimeter units), so the
demonstrated diffusion times (5 to 100) operate in the localized regime; no
external mesh assets are needed anywhere in the suite.
"""

import time

import numpy as np
import pytest

from mahf.baselines import MhwSpec, _mhw_function, mhw_normal_variation
from mahf.errors import MeshFormatError
from mahf.filters import (FilterSpec, apply_filter, heat_kernel_row, multiscale_apply,
                          normal_variation)
from mahf.geometry import build_frames, vertex_normals
from mahf.io_mesh import Mesh, parse_mesh, write_mesh
from mahf.laplacian import cotan_operator, gaussian_knn_operator
from mahf.spectral import HeatParams
from mahf.synthetic import flat_grid, icosphere

from conftest import (CUBE_DIVISIONS, CUBE_EDGE, GRID_SPACING, DenseOracle,
                      certified_action, grid_columns_rows, grid_interior_mask,
                      heat_action, rotated_frames)


def _report(number: int, slug: str) -> None:
    print(f"[acceptance] criterion {number} ({slug}): PASS")


def test_criterion_01_oracle_equivalence(two_node_op, path4_op, grid20_op,
                                         ico162_op, ico642_op):
    start = time.perf_counter()
    rng = np.random.default_rng(10)
    cases = [
        (two_node_op, (0.5, 2.0)),
        (path4_op, (0.5, 2.0)),
        (grid20_op, (5.0, 30.0)),
        (ico162_op, (5.0, 30.0)),
        (ico642_op, (5.0, 30.0)),
    ]
    for op, ts in cases:
        oracle = DenseOracle(op.stiffness, op.mass)
        s = rng.standard_normal(op.n)
        for t in ts:
            exact = oracle.kernel(t) @ (op.mass * s)
            approx = heat_action(op, t, s)
            assert np.abs(approx - exact).max() < 1e-7 * np.abs(s).max()
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0
    _report(1, f"oracle equivalence, {elapsed:.1f}s")


def test_criterion_02_semigroup(ico162_op):
    oracle = DenseOracle(ico162_op.stiffness, ico162_op.mass)
    k5, k10 = oracle.kernel(5.0), oracle.kernel(10.0)
    composed = k5 @ (ico162_op.mass[:, None] * k5)
    assert np.abs(composed - k10).max() < 1e-8
    _report(2, "semigroup recursion")


def test_criterion_03_frame_rotation_invariance(ico162, ico162_op, ico162_frames):
    rng = np.random.default_rng(20)
    s = rng.standard_normal(ico162_op.n)
    params = HeatParams(10.0, 1e-4)
    worst = 0.0
    for k in (1, 2, 3):
        base = apply_filter(ico162_op, ico162_frames, ico162.vertices,
                            FilterSpec(k, params), s)
        scale = base.r2.max()
        for _ in range(100):
            rotated = rotated_frames(ico162_frames, rng.uniform(-np.pi, np.pi, ico162_op.n))
            resp = apply_filter(ico162_op, rotated, ico162.vertices,
                                FilterSpec(k, params), s)
            worst = max(worst, np.abs(resp.r2 - base.r2).max() / scale)
    assert worst < 1e-10
    _report(3, f"frame-rotation invariance, max change {worst:.2e}")


def test_criterion_04_order_zero_degeneracy(grid20, grid20_op, grid20_frames):
    rng = np.random.default_rng(30)
    spec = FilterSpec(0, HeatParams(10.0, 0.0))
    # identity-mass graph
    graph_op = gaussian_knn_operator(grid20.vertices, 6, sigma="auto")
    s = rng.standard_normal(graph_op.n)
    resp = apply_filter(graph_op, grid20_frames, grid20.vertices, spec, s)
    assert not resp.r_imag.any()
    smooth = heat_action(graph_op, spec.heat.t, s)
    assert np.abs(resp.r_real - smooth).max() < 1e-10
    # cotangent mesh operator with a genuine mass matrix
    s = rng.standard_normal(grid20_op.n)
    resp = apply_filter(grid20_op, grid20_frames, grid20.vertices, spec, s)
    assert not resp.r_imag.any()
    smooth = heat_action(grid20_op, spec.heat.t, s)
    assert np.abs(resp.r_real - smooth).max() < 1e-10
    _report(4, "order-zero degeneracy")


def test_criterion_05_two_level_signal(grid20, grid20_op, grid20_frames):
    step = (grid20.vertices[:, 0] >= 9.5 * GRID_SPACING).astype(float)
    spec = FilterSpec(1, HeatParams(5.0, 1e-4))
    resp = apply_filter(grid20_op, grid20_frames, grid20.vertices, spec, step)
    cols, _ = grid_columns_rows(grid20)
    # the open grid boundary responds to any nonzero level; the step
    # demonstration reads the decile over the interior, away from that artifact
    interior = np.flatnonzero(grid_interior_mask(grid20))
    order = interior[np.argsort(resp.r2[interior])[::-1]]
    top = order[:max(1, interior.size // 10)]
    assert np.isin(cols[top], (9, 10)).all()

    const = apply_filter(grid20_op, grid20_frames, grid20.vertices, spec,
                         np.ones(grid20.n_vertices))
    inter_mask = grid_interior_mask(grid20)
    assert const.r2[inter_mask].max() < 0.01 * resp.r2[inter_mask].max()
    _report(5, "two-level signal localization")


def test_criterion_06_multiscale_behavior():
    start = time.perf_counter()
    mesh = flat_grid(40, 20, GRID_SPACING)
    op = cotan_operator(mesh)
    frames = build_frames(vertex_normals(mesh))
    x = mesh.vertices[:, 0]
    signal = np.where(x < 9.5 * GRID_SPACING, 0.0, 1.0)
    ramp_start = 19.5 * GRID_SPACING
    in_ramp = x >= ramp_start
    signal = np.where(in_ramp, 1.0 + (x - 20 * GRID_SPACING) /
                      (x.max() - 20 * GRID_SPACING), signal)
    cols, rows = grid_columns_rows(mesh)
    inner = (rows >= 4) & (rows <= rows.max() - 4)
    step_zone = inner & ((cols == 9) | (cols == 10))
    ramp_zone = inner & (cols >= 23) & (cols <= 36)
    responses = multiscale_apply(op, frames, mesh.vertices, 1, [5.0, 30.0], signal)
    rho = [r.r2[ramp_zone].mean() / r.r2[step_zone].max() for r in responses]
    elapsed = time.perf_counter() - start
    assert rho[1] > rho[0]
    assert elapsed < 10.0
    _report(6, f"multiscale ramp/step ratio {rho[0]:.3g} -> {rho[1]:.3g}, "
               f"{elapsed:.1f}s")


def test_criterion_07_normal_field_variation(grid20, grid20_op, grid20_frames,
                                             cube40, cube40_op, ico642, ico642_op):
    spec = FilterSpec(1, HeatParams(10.0, 1e-4))
    cube_frames = build_frames(vertex_normals(cube40))
    cube_field = normal_variation(cube40, cube40_op, cube_frames, spec)
    v = cube40.vertices
    per_axis = np.minimum(np.abs(v), np.abs(v - CUBE_EDGE))
    two_smallest = np.sort(per_axis, axis=1)[:, :2]
    crease_distance = np.linalg.norm(two_smallest, axis=1)
    h = CUBE_EDGE / CUBE_DIVISIONS
    top = np.argsort(cube_field.values)[::-1][:cube40.n_vertices // 10]
    assert (crease_distance[top] <= h + 1e-9).all()

    flat = Mesh(grid20.vertices, grid20.faces,
                normals=np.tile([0.0, 0.0, 1.0], (grid20.n_vertices, 1)))
    flat_field = normal_variation(flat, grid20_op, grid20_frames, spec)
    interior = grid_interior_mask(grid20)
    assert flat_field.values[interior].max() < 1e-6 * cube_field.values.max()

    sphere_frames = build_frames(vertex_normals(ico642))
    sphere_field = normal_variation(ico642, ico642_op, sphere_frames, spec)
    cov = sphere_field.values.std() / sphere_field.values.mean()
    assert cov < 0.2

    mhw_field = mhw_normal_variation(cube40, cube40_op, MhwSpec(10.0))
    assert np.isfinite(mhw_field.values).all()
    flat_mhw = certified_action(cube40_op, _mhw_function(10.0), np.ones(cube40_op.n))
    assert np.abs(flat_mhw).max() < 1e-8
    _report(7, f"normal-field variation, sphere CoV {cov:.3f}")


def test_criterion_08_support_monotonicity(ico642_op):
    sizes = []
    for t in (5.0, 25.0, 50.0, 100.0):
        row = heat_kernel_row(ico642_op, HeatParams(t, 0.0), 0)
        sizes.append(int(np.count_nonzero(row > 0.01 * row.max())))
    assert all(a <= b for a, b in zip(sizes, sizes[1:]))
    _report(8, f"kernel support growth {sizes}")


def test_criterion_09_parser_corpus(tmp_path):
    valid = {
        "tri.off": "OFF\n3 1 0\n0 0 0\n1 0 0\n0 1 0\n3 0 1 2\n",
        "colored.off": ("COFF\n3 1 0\n0 0 0 255 0 0\n1 0 0 0 255 0\n"
                        "0 1 0 0 0 255\n3 0 1 2\n"),
        "tri.obj": "v 0 0 0\nv 1 0 0\nv 0 1 0\nf 1 2 3\n",
        "slashes.obj": ("v 0 0 0\nv 1 0 0\nv 0 1 0\nvn 0 0 1\nvn 0 0 1\nvn 0 0 1\n"
                        "f 1/1/1 2/2/2 3/3/3\n"),
        "tri.ply": ("ply\nformat ascii 1.0\nelement vertex 3\n"
                    "property float x\nproperty float y\nproperty float z\n"
                    "property float quality\nelement face 1\n"
                    "property list uchar int vertex_indices\nend_header\n"
                    "0 0 0 1\n1 0 0 2\n0 1 0 3\n3 0 1 2\n"),
        "cloud.ply": ("ply\nformat ascii 1.0\nelement vertex 2\n"
                      "property float x\nproperty float y\nproperty float z\n"
                      "end_header\n0 0 0\n1 1 1\n"),
    }
    malformed = {
        "badheader.off": "OFT\n3 1 0\n0 0 0\n1 0 0\n0 1 0\n3 0 1 2\n",
        "countmismatch.off": "OFF\n4 1 0\n0 0 0\n1 0 0\n0 1 0\n3 0 1 2\n",
        "outofrange.off": "OFF\n3 1 0\n0 0 0\n1 0 0\n0 1 0\n3 0 1 7\n",
        "polygon.off": ("OFF\n4 1 0\n0 0 0\n1 0 0\n1 1 0\n0 1 0\n4 0 1 2 3\n"),
        "nonnumeric.obj": "v 0 0 zero\nv 1 0 0\nv 0 1 0\nf 1 2 3\n",
        "binary.ply": ("ply\nformat binary_little_endian 1.0\nelement vertex 0\n"
                       "end_header\n"),
        "truncated.ply": ("ply\nformat ascii 1.0\nelement vertex 3\n"
                          "property float x\nproperty float y\nproperty float z\n"
                          "end_header\n0 0 0\n"),
    }
    # a generated icosphere joins the corpus through a write/parse round trip
    sphere = icosphere(1, 2.0)
    sphere_path = tmp_path / "sphere.off"
    write_mesh(sphere_path, sphere)
    corpus_size = len(valid) + len(malformed) + 1
    assert corpus_size >= 12

    for name, text in valid.items():
        path = tmp_path / name
        path.write_text(text)
        mesh = parse_mesh(path)
        out = tmp_path / f"rt_{name.replace('.', '_')}.{name.rsplit('.', 1)[1]}"
        write_mesh(out, mesh)
        back = parse_mesh(out)
        assert np.array_equal(back.vertices, mesh.vertices)
        assert np.array_equal(back.faces, mesh.faces)
    back = parse_mesh(sphere_path)
    assert np.array_equal(back.vertices, sphere.vertices)
    assert np.array_equal(back.faces, sphere.faces)

    for name, text in malformed.items():
        path = tmp_path / name
        path.write_text(text)
        with pytest.raises(MeshFormatError):
            parse_mesh(path)
    _report(9, f"parser corpus of {corpus_size} files")


def test_criterion_10_synthetic_standins_only(tmp_path):
    # every demonstration runs on generated geometry with the expected sizes
    assert icosphere(2, 20.0).n_vertices == 162
    assert icosphere(3, 20.0).n_vertices == 642
    assert flat_grid(20, 20, GRID_SPACING).n_vertices == 400
    from mahf.synthetic import cube_surface
    cube = cube_surface(CUBE_DIVISIONS, CUBE_EDGE)
    assert cube.n_vertices == 6 * (CUBE_DIVISIONS + 1) ** 2 - 12 * (CUBE_DIVISIONS + 1) + 8
    # the test tree carries no bundled mesh assets
    import pathlib
    test_dir = pathlib.Path(__file__).parent
    assets = [p for p in test_dir.rglob("*")
              if p.suffix.lower() in (".off", ".obj", ".ply")]
    assert assets == []
    _report(10, "self-contained synthetic stand-ins")
