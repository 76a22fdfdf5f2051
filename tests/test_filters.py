import os
import signal
import subprocess
import sys
import threading
import time
import tracemalloc
import warnings
import weakref
from pathlib import Path

import numpy as np
import pytest

import mahf.filters as filters
import mahf.spectral as spectral
from mahf.errors import MahfError, NumericalError
from mahf.filters import (FilterSpec, apply_filter, fuse, heat_kernel_row, multiscale_apply,
                          normal_variation)
from mahf.geometry import FrameField, build_frames, vertex_normals
from mahf.io_mesh import Mesh, VertexSignal
from mahf.laplacian import SparseOperator, cotan_operator, gaussian_knn_operator
from mahf.spectral import (HeatParams, chebyshev_apply, heat_function, shared_order,
                           threshold_row)
from mahf.synthetic import icosphere, refine_midpoint

from conftest import (GRID_SPACING, SPHERE_RADIUS, dense_heat_oracle, grid_columns_rows,
                      grid_interior_mask, heat_action, rotated_frames, within_steps)


def z_frames(n, y_axis=(0.0, 1, 0)):
    """``n`` tangent frames with the normal along z and the x axis along x."""
    return FrameField(np.tile([0.0, 0, 1], (n, 1)), np.tile([1.0, 0, 0], (n, 1)),
                      np.tile(y_axis, (n, 1)))


# --- unit tangents and filter rows ---

def tangent(p_i, p_j, frames=None):
    """Cosine and sine of the azimuth of ``p_j`` seen from ``p_i`` in the frame of ``p_i``."""
    positions = np.array([p_i, p_j], dtype=float)
    frames = z_frames(2) if frames is None else frames
    c, s = filters._unit_tangents(positions, frames, np.array([0]), np.array([1]))
    return c[0], s[0]


def test_azimuth_along_x():
    assert tangent(np.zeros(3), [1.0, 0, 0]) == (1.0, 0.0)


def test_azimuth_projects_out_normal():
    c, s = tangent(np.zeros(3), [0.0, 2.0, 0.5])
    assert abs(c) <= 1e-15
    assert s == pytest.approx(1.0, abs=1e-15)


def test_azimuth_degenerate_cases():
    assert tangent(np.zeros(3), [0.0, 0, 1.0]) == (0.0, 0.0)
    assert tangent(np.ones(3), np.ones(3)) == (0.0, 0.0)


def test_azimuth_half_open_range():
    # the tangent has no branch cut: a negative zero in the displacement or
    # in the frame changes no harmonic of the azimuth pi
    assert tangent(np.zeros(3), [-1.0, -0.0, 0.0]) == (-1.0, 0.0)
    frames = z_frames(2, y_axis=(-0.0, -1.0, -0.0))
    assert tangent(np.zeros(3), [-1.0, 0.0, -0.0], frames) == (-1.0, 0.0)
    for k in (1, 2, 3):
        h_r, h_i = filter_rows([0.0, 0.5], k, positions=((0.0, 0, 0), (-1.0, -0.0, 0.0)),
                               frames=frames)
        assert h_r[1] == 0.5 * (-1) ** k and h_i[1] == 0.0


def filter_rows(values, k, positions=((0.0, 0, 0), (0.0, 1, 0), (1.0, 0, 0)),
                frames=None):
    """Real and imaginary filter rows of vertex 0 for its kernel column ``values``.

    In a z-up frame at the origin vertex 1 sits at azimuth pi/2 and vertex 2
    at 0.  Unit mass and identity signals turn the contracted responses of
    vertex 0 into its filter row.  Every entry is kept.
    """
    cols = np.asarray(values, dtype=float).reshape(-1, 1)
    n = cols.shape[0]
    positions = np.asarray(positions[:n], dtype=float)
    frames = z_frames(n) if frames is None else frames
    [(h_real, h_imag)] = filters._contract([(cols, k, np.ones(cols.shape, dtype=bool))],
                                           np.arange(n), np.array([0]), frames, positions,
                                           np.ones(n), np.eye(n))
    return h_real[0], h_imag[0]


def test_filter_rows_order_zero():
    values = [0.5, 0.3, 0.2]
    h_r, h_i = filter_rows(values, k=0)
    assert np.array_equal(h_r, values)
    assert not h_i.any()


def test_filter_rows_order_one():
    h_r, h_i = filter_rows([0.0, 0.3, 0.0], k=1)
    assert abs(h_r[1]) <= 1e-16
    assert h_i[1] == pytest.approx(0.3, rel=1e-15)


def test_filter_rows_order_two():
    h_r, h_i = filter_rows([0.0, 0.3, 0.0], k=2)
    assert h_r[1] == pytest.approx(-0.3, rel=1e-15)
    assert abs(h_i[1]) <= 1e-15


def test_filter_rows_degenerate_and_self_zero():
    # vertex 0 is the centre itself and vertex 1 lies along its normal
    h_r, h_i = filter_rows([0.5, 0.3], k=1, positions=((0.0, 0, 0), (0.0, 0, 1)))
    assert not h_r.any() and not h_i.any()


def test_filter_rows_match_azimuth_reference():
    # cos/sin of k theta come from the unit tangent by angle addition; they
    # match the angle functions of the azimuth up to rounding
    rng = np.random.default_rng(4)
    positions = np.vstack([np.zeros(3), rng.standard_normal((40, 3))])
    normal = rng.standard_normal(3)
    normal /= np.linalg.norm(normal)
    x_axis = np.cross(normal, rng.standard_normal(3))
    x_axis /= np.linalg.norm(x_axis)
    frames = FrameField(np.tile(normal, (41, 1)), np.tile(x_axis, (41, 1)),
                        np.tile(np.cross(normal, x_axis), (41, 1)))
    values = rng.uniform(0.1, 1.0, 41)
    d = positions - positions[0]
    theta = np.arctan2(d @ frames.y_axis[0], d @ frames.x_axis[0])
    for k in range(1, 6):
        h_r, h_i = filter_rows(values, k, positions=positions, frames=frames)
        assert np.abs(h_r[1:] - values[1:] * np.cos(k * theta[1:])).max() <= 1e-14
        assert np.abs(h_i[1:] - values[1:] * np.sin(k * theta[1:])).max() <= 1e-14
        assert h_r[0] == h_i[0] == 0.0


# --- applying filters ---

def test_constant_signal_order_zero(grid20, grid20_op, grid20_frames):
    c = 2.25
    constant = np.full(grid20.n_vertices, c)
    for t in (0.0, 7.0, 40.0):
        spec = FilterSpec(0, HeatParams(t, 0.0))
        resp = apply_filter(grid20_op, grid20_frames, grid20.vertices, spec, constant)
        assert np.abs(resp.r_real - c).max() < 1e-8
        assert not resp.r_imag.any()
        assert np.abs(resp.r2 - c * c).max() < 2e-8 * c * c
    # kernel truncation trades constant preservation for locality, bounded by
    # the support-threshold consistency envelope
    cut = apply_filter(grid20_op, grid20_frames, grid20.vertices,
                       FilterSpec(0, HeatParams(7.0, 1e-4)), constant)
    assert np.abs(cut.r_real - c).max() < 1e-3 * c


def test_order_zero_equals_heat_smoothing_identity_mass(grid20):
    op = gaussian_knn_operator(grid20.vertices, 6, sigma="auto")
    frames = build_frames(vertex_normals(grid20))
    rng = np.random.default_rng(0)
    s = rng.standard_normal(op.n)
    spec = FilterSpec(0, HeatParams(3.0, 0.0))
    resp = apply_filter(op, frames, grid20.vertices, spec, s)
    smooth = heat_action(op, spec.heat.t, s)
    assert not resp.r_imag.any()
    assert np.abs(resp.r_real - smooth).max() < 1e-10


def test_order_zero_equals_heat_smoothing_mesh(grid20, grid20_op, grid20_frames):
    rng = np.random.default_rng(1)
    s = rng.standard_normal(grid20_op.n)
    spec = FilterSpec(0, HeatParams(10.0, 0.0))
    resp = apply_filter(grid20_op, grid20_frames, grid20.vertices, spec, s)
    smooth = heat_action(grid20_op, spec.heat.t, s)
    assert np.abs(resp.r_real - smooth).max() < 1e-10


def step_signal(mesh):
    return (mesh.vertices[:, 0] >= 9.5 * GRID_SPACING).astype(float)


def bruteforce_responses(positions, frames, op, t, k, threshold, signals):
    """Complex responses sum_j w_ij exp(i k theta_ij) s_j from the dense oracle.

    ``w_ij`` is the propagator entry, kept where kernel row ``i`` is at least
    ``threshold`` times its maximum; ``theta_ij`` comes from the in-plane
    coordinates of ``p_j - p_i`` in frame ``i``.  For ``k >= 1`` the vertex
    itself and neighbours along its normal are left out.
    """
    kernel, propagator = dense_heat_oracle(op, t)
    w = np.where(kernel >= threshold * kernel.max(axis=1, keepdims=True), propagator, 0.0)
    if k > 0:
        d = positions[None, :, :] - positions[:, None, :]
        x = np.einsum("ijc,ic->ij", d, frames.x_axis)
        y = np.einsum("ijc,ic->ij", d, frames.y_axis)
        d_norm = np.linalg.norm(d, axis=2)
        ok = (d_norm > 0) & (np.hypot(x, y) > 1e-9 * d_norm)
        w = np.where(ok, w * np.exp(1j * k * np.arctan2(y, x)), 0.0)
    return w @ signals.reshape(op.n, -1)


def test_step_response_matches_bruteforce_oracle(grid20, grid20_op, grid20_frames,
                                                 ico162, ico162_op, ico162_frames):
    # the flat grid and a curved sphere (non-zero normal components), three
    # harmonic orders, the full kernel and a per-column cutoff, and three
    # signal columns at once through normal_variation
    t = 5.0
    sphere_step = (ico162.vertices[:, 0] >= 0.0).astype(float)
    for mesh, op, frames, s in ((grid20, grid20_op, grid20_frames, step_signal(grid20)),
                                (ico162, ico162_op, ico162_frames, sphere_step)):
        normals = vertex_normals(mesh)
        for k in (0, 1, 2):
            for threshold in (0.0, 1e-4):
                spec = FilterSpec(k, HeatParams(t, threshold))
                resp = apply_filter(op, frames, mesh.vertices, spec, s)
                oracle = bruteforce_responses(mesh.vertices, frames, op, t, k,
                                              threshold, s)[:, 0]
                scale = np.abs(oracle).max()
                assert np.abs(resp.r_real - oracle.real).max() < 1e-9 * scale
                assert np.abs(resp.r_imag - oracle.imag).max() < 1e-9 * scale
                field = normal_variation(mesh, op, frames, spec)
                want = np.sum(np.abs(bruteforce_responses(
                    mesh.vertices, frames, op, t, k, threshold, normals)) ** 2, axis=1)
                assert np.abs(field.values - want).max() < 1e-9 * want.max()


def test_step_response_peaks_at_step(grid20, grid20_op, grid20_frames):
    s = step_signal(grid20)
    resp = apply_filter(grid20_op, grid20_frames, grid20.vertices,
                        FilterSpec(1, HeatParams(5.0, 1e-4)), s)
    cols, _ = grid_columns_rows(grid20)
    interior = grid_interior_mask(grid20)
    r2 = np.where(interior, resp.r2, -np.inf)
    assert cols[int(np.argmax(r2))] in (9, 10)


def test_constant_interior_response_small_vs_step(grid20, grid20_op, grid20_frames):
    spec = FilterSpec(1, HeatParams(5.0, 1e-4))
    step = apply_filter(grid20_op, grid20_frames, grid20.vertices, spec,
                        step_signal(grid20))
    const = apply_filter(grid20_op, grid20_frames, grid20.vertices, spec,
                         np.ones(grid20.n_vertices))
    interior = grid_interior_mask(grid20)
    assert const.r2[interior].max() < 0.01 * step.r2[interior].max()


def test_frame_rotation_invariance(ico162, ico162_op, ico162_frames):
    rng = np.random.default_rng(42)
    s = rng.standard_normal(ico162_op.n)
    params = HeatParams(10.0, 1e-4)
    base = apply_filter(ico162_op, ico162_frames, ico162.vertices,
                        FilterSpec(2, params), s)
    for _ in range(10):
        rotated = rotated_frames(ico162_frames, rng.uniform(-np.pi, np.pi, ico162_op.n))
        resp = apply_filter(ico162_op, rotated, ico162.vertices,
                            FilterSpec(2, params), s)
        assert np.abs(resp.r2 - base.r2).max() < 1e-10 * base.r2.max()


def test_scaling_equivariance_power_of_two(grid20, grid20_op, grid20_frames):
    rng = np.random.default_rng(2)
    s = rng.standard_normal(grid20_op.n)
    spec = FilterSpec(1, HeatParams(5.0, 1e-4))
    one = apply_filter(grid20_op, grid20_frames, grid20.vertices, spec, s)
    eight = apply_filter(grid20_op, grid20_frames, grid20.vertices, spec, 8.0 * s)
    assert np.array_equal(eight.r_real, 8.0 * one.r_real)
    assert np.array_equal(eight.r_imag, 8.0 * one.r_imag)
    assert np.allclose(eight.r2, 64.0 * one.r2, rtol=1e-14)


def mesh_responses(mesh, k, ts, s):
    """R^2 of a ``k``-th order multiscale filter of ``s``, everything built from ``mesh``."""
    op = cotan_operator(mesh)
    frames = build_frames(vertex_normals(mesh))
    return [r.r2 for r in multiscale_apply(op, frames, mesh.vertices, k, ts, s)]


@pytest.mark.parametrize("k", [1, 2])
def test_rigid_motion_invariance(ico642, k):
    # a rotation plus a translation of the mesh changes the tangent frames
    # only by an in-plane rotation per vertex, which R^2 does not see
    rng = np.random.default_rng(23)
    rotation, _ = np.linalg.qr(rng.standard_normal((3, 3)))
    rotation *= np.sign(np.linalg.det(rotation))
    moved = Mesh(ico642.vertices @ rotation.T + rng.uniform(-100.0, 100.0, 3), ico642.faces)
    s = rng.standard_normal(ico642.n_vertices)
    ts = [5.0, 10.0, 20.0]
    for want, have in zip(mesh_responses(ico642, k, ts, s), mesh_responses(moved, k, ts, s)):
        assert np.abs(have - want).max() <= 1e-12 * want.max()


def test_length_squared_scaling_of_t(ico642):
    # scaling the mesh by c scales the mass by c^2 and leaves the cotangent
    # stiffness alone, so exp(-c^2 t L_c) = exp(-t L); the kernel column
    # exp(-t L) e_i / m_i scales by 1/c^2 and the neighbour mass by c^2, so
    # propagator entries times neighbour mass, and R^2, do not depend on c
    s = np.random.default_rng(24).standard_normal(ico642.n_vertices)
    ts = [5.0, 10.0, 20.0]
    base = mesh_responses(ico642, 1, ts, s)
    for c, exact in ((2.0, True), (3.0, False)):
        scaled = mesh_responses(Mesh(c * ico642.vertices, ico642.faces), 1,
                                [c * c * t for t in ts], s)
        for want, have in zip(base, scaled):
            if exact:
                # powers of two scale every intermediate exactly
                assert np.array_equal(have, want)
            else:
                assert np.abs(have - want).max() <= 1e-12 * want.max()


def test_threshold_consistency(grid20, grid20_op, grid20_frames):
    # holds at scales where the kernel spans a few cells; at t=5 the kernel
    # radius sits at the resolution limit and the truncated tail is ~1.4e-3
    s = step_signal(grid20)
    for t in (10.0, 30.0):
        full = apply_filter(grid20_op, grid20_frames, grid20.vertices,
                            FilterSpec(1, HeatParams(t, 0.0)), s)
        cut = apply_filter(grid20_op, grid20_frames, grid20.vertices,
                           FilterSpec(1, HeatParams(t, 1e-4)), s)
        assert abs(cut.r2.max() - full.r2.max()) < 1e-3 * full.r2.max()


def test_signal_must_hold_one_value_per_vertex():
    # an (N, C) block would be filtered as N * C vertices
    mesh = icosphere(1, SPHERE_RADIUS)
    op = cotan_operator(mesh)
    frames = build_frames(vertex_normals(mesh))
    assert op.n == 42
    for shape in ((42, 3), (42, 1), (41,), (126,)):
        with pytest.raises(ValueError, match="shape"):
            apply_filter(op, frames, mesh.vertices, FilterSpec(1, HeatParams(5.0)),
                         np.ones(shape))


@pytest.mark.parametrize("geometry", ["finer-mesh", "extra-positions", "short-frames"])
def test_geometry_must_match_operator(geometry):
    # an operator paired with another mesh's geometry would read wrong azimuths
    mesh, finer = icosphere(1, SPHERE_RADIUS), icosphere(2, SPHERE_RADIUS)
    op = cotan_operator(mesh)
    frames = build_frames(vertex_normals(mesh))
    assert (op.n, finer.n_vertices) == (42, 162)
    positions, s = mesh.vertices, np.ones(42)
    if geometry == "finer-mesh":
        mesh, frames = finer, build_frames(vertex_normals(finer))
        positions = mesh.vertices
    elif geometry == "extra-positions":
        positions = np.vstack([positions, np.ones((5, 3))])
    else:
        frames = FrameField(frames.normals[:40], frames.x_axis[:40], frames.y_axis[:40])
    with pytest.raises(ValueError, match="42 vertices"):
        apply_filter(op, frames, positions, FilterSpec(1, HeatParams(5.0)), s)
    if geometry != "extra-positions":
        with pytest.raises(ValueError, match="42 vertices"):
            normal_variation(mesh, op, frames, FilterSpec(1, HeatParams(5.0)))


def test_nonfinite_signal_aborts_with_vertex(grid20, grid20_op, grid20_frames):
    s = np.zeros(grid20_op.n)
    s[5] = np.nan
    with pytest.raises(NumericalError, match="vertex"):
        apply_filter(grid20_op, grid20_frames, grid20.vertices,
                     FilterSpec(1, HeatParams(5.0, 1e-4)), s)


def test_nonfinite_raw_signal_names_input_vertex(ico162, ico162_op, ico162_frames):
    s = np.zeros(ico162_op.n)
    s[3] = np.nan
    with pytest.raises(NumericalError, match=r"non-finite signal value at vertex 3$"):
        apply_filter(ico162_op, ico162_frames, ico162.vertices,
                     FilterSpec(1, HeatParams(5.0, 1e-4)), s)


def test_overflowing_squared_response_names_vertex(ico162, ico162_op, ico162_frames):
    # the responses to a step of height 1e200 are finite, but their squares
    # pass the float64 range wherever the unit step's response is not 0
    step = (ico162.vertices[:, 0] > 0).astype(float)
    spec = FilterSpec(1, HeatParams(5.0))
    unit = apply_filter(ico162_op, ico162_frames, ico162.vertices, spec, step)
    first = int(np.flatnonzero(unit.r2)[0])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NumericalError,
                           match=f"non-finite squared filter response at vertex {first}$"):
            apply_filter(ico162_op, ico162_frames, ico162.vertices, spec, 1e200 * step)


@pytest.mark.parametrize("call", ["apply_filter", "normal_variation"])
def test_non_finite_response_names_vertex(monkeypatch, path4_op, call):
    # kernel entries of 1e308 on an identity-mass graph: np.bincount sums
    # them past the float64 range without a warning, so the pass's result
    # check is the only guard
    def huge(op, fns, x, order, out):
        for block in out:
            block.fill(1e308)
        return out

    positions = np.arange(12.0).reshape(4, 3)
    mesh = Mesh(positions, np.zeros((0, 3)), normals=np.tile([0.0, 0, 1], (4, 1)))
    pinned_workers(monkeypatch, 1)
    monkeypatch.setattr(filters, "chebyshev_apply", huge)
    spec = FilterSpec(0, HeatParams(1.0))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NumericalError,
                           match="non-finite squared filter response at vertex 0$"):
            if call == "apply_filter":
                apply_filter(path4_op, z_frames(4), positions, spec, np.ones(4))
            else:
                normal_variation(mesh, path4_op, z_frames(4), spec)


def test_edgeless_graph_filters_to_the_signal_itself():
    # a Gaussian width far below the point spacing leaves no stored stiffness
    # entry, so the spectral bound is 0 and exp(-t L) is the identity: the
    # kernel row is the indicator, order 0 returns the signal and order 1,
    # with only the self pair, returns 0
    points = np.random.default_rng(0).uniform(0, 30, (80, 3))
    op = gaussian_knn_operator(points, 6, 1e-3)
    assert (op.stiffness.nnz, op.lambda_max) == (0, 0.0)
    rows = heat_kernel_row(op, [HeatParams(0.0), HeatParams(5.0)], 3)
    for row in rows:
        assert np.array_equal(row, np.eye(80)[3])
    s = np.sin(points[:, 0])
    specs = [FilterSpec(0, HeatParams(5.0)), FilterSpec(1, HeatParams(5.0))]
    smooth, edge = apply_filter(op, z_frames(80), points, specs, s)
    assert np.array_equal(smooth.r_real, s)
    assert not smooth.r_imag.any() and not edge.r2.any()


def test_level_set_on_sphere(ico642, ico642_op):
    # two-level signal on a closed curved surface: the response ridge follows
    # the level-set boundary (the equator ring)
    frames = build_frames(vertex_normals(ico642))
    s = (ico642.vertices[:, 2] > 0).astype(float)
    resp = apply_filter(ico642_op, frames, ico642.vertices,
                        FilterSpec(1, HeatParams(5.0, 1e-4)), s)
    top = np.argsort(resp.r2)[::-1][:ico642.n_vertices // 10]
    assert np.abs(ico642.vertices[top, 2]).max() < 5.0


def test_refinement_convergence():
    # midpoint refinement keeps the polyhedron and puts the coarse vertices
    # first; R^2 there settles as the mesh refines.  Measured changes
    # relative to the finer level: 0.517, 0.175, 0.0346 at t = 20 and
    # 0.373, 0.0702, 0.0140 at t = 40, each at most 1/2.96 of the one before
    mesh = icosphere(1, SPHERE_RADIUS)
    coarse = mesh.n_vertices
    specs = [FilterSpec(1, HeatParams(t)) for t in (20.0, 40.0)]
    levels = []
    for _ in range(4):
        frames = build_frames(vertex_normals(mesh))
        s = np.tanh(mesh.vertices[:, 0] / 10.0)
        responses = apply_filter(cotan_operator(mesh), frames, mesh.vertices, specs, s)
        levels.append([r.r2[:coarse] for r in responses])
        mesh = refine_midpoint(mesh)
    for scale in range(len(specs)):
        r2 = [level[scale] for level in levels]
        changes = [np.abs(fine - prev).max() / fine.max() for prev, fine in zip(r2, r2[1:])]
        for before, after in zip(changes, changes[1:]):
            assert after <= 0.5 * before


# --- multiscale ---

def test_multiscale_single_time_reduces_to_apply(grid20, grid20_op, grid20_frames):
    s = step_signal(grid20)
    direct = apply_filter(grid20_op, grid20_frames, grid20.vertices,
                          FilterSpec(1, HeatParams(5.0, 1e-4)), s)
    sweep = multiscale_apply(grid20_op, grid20_frames, grid20.vertices, 1,
                             [5.0], s)
    assert len(sweep) == 1
    assert np.array_equal(sweep[0].r2, direct.r2)


def test_multiscale_one_pass_matches_separate_calls(ico162, ico162_op, ico162_frames):
    rng = np.random.default_rng(5)
    s = rng.standard_normal(ico162_op.n)
    one_pass = multiscale_apply(ico162_op, ico162_frames, ico162.vertices, 1,
                                [5.0, 30.0], s)
    for t, b in zip((5.0, 30.0), one_pass):
        a = apply_filter(ico162_op, ico162_frames, ico162.vertices,
                         FilterSpec(1, HeatParams(t, 1e-4)), s)
        scale = np.abs(a.r_real).max() + np.abs(a.r_imag).max()
        assert np.abs(a.r_real - b.r_real).max() <= 1e-13 * scale
        assert np.abs(a.r_imag - b.r_imag).max() <= 1e-13 * scale


def test_chunk_width_shrinks_with_scale_count(monkeypatch, grid20, grid20_op,
                                              grid20_frames):
    balls, widths = [], []
    restricted = SparseOperator.restricted

    def recording_ball(op, vertices):
        balls.append(vertices)
        return restricted(op, vertices)

    def recording(op, fns, x, order, **kwargs):
        widths.append((len(fns), x.shape[1]))
        return chebyshev_apply(op, fns, x, order, **kwargs)

    monkeypatch.setattr(filters, "_CHUNK", 8)
    # a forked worker's calls would not reach the recorders
    monkeypatch.setattr(filters, "_workers", lambda chunks: 1)
    monkeypatch.setattr(SparseOperator, "restricted", recording_ball)
    monkeypatch.setattr(filters, "chebyshev_apply", recording)
    s = step_signal(grid20)
    for ts in ([5.0], [5.0, 10.0, 20.0], [5.0, 10.0, 20.0, 40.0]):
        balls.clear()
        widths.clear()
        multiscale_apply(grid20_op, grid20_frames, grid20.vertices, 1, ts, s)
        order = shared_order(grid20_op, [heat_function(t) for t in ts])
        # one recurrence per chunk serves every scale; the chunk is
        # 2 * _CHUNK / (max(scales, 3) + 1) wide, narrowing past three scales
        # so the live blocks never outgrow three scales', and its ball starts
        # with it
        assert len(balls) == len(widths) and {m for m, _ in widths} == {len(ts)}
        chunks = [ball[:w] for ball, (_, w) in zip(balls, widths)]
        assert np.array_equal(np.sort(np.concatenate(chunks)), np.arange(grid20_op.n))
        assert max(w for _, w in widths) == 2 * 8 // (max(len(ts), 3) + 1)
        # the ball holds every vertex within the pass's order of steps of the chunk
        for chunk, ball in zip(chunks, balls):
            assert np.array_equal(np.sort(ball), within_steps(grid20_op, chunk, order))


def test_coefficients_derived_once_per_pass(monkeypatch, tmp_path, grid20, grid20_op,
                                            grid20_frames):
    # each scale's certified expansion is derived once per pass, however
    # many chunks call the engine: each memo miss is one derivation.  The
    # pass derives them before it forks, so its workers find them memoized:
    # every quadrature, logged to a file that a worker's would reach too,
    # runs in the pass's own process
    memo = spectral.certified_expansion
    log = tmp_path / "quadratures.log"
    quadrature, fork = spectral._quadrature, os.fork
    forks = []

    def logged(values):
        with open(log, "a") as out:
            out.write(f"{os.getpid()}\n")
        return quadrature(values)

    def recording_fork():
        forks.append(os.getpid())
        return fork()

    monkeypatch.setattr(spectral, "_quadrature", logged)
    monkeypatch.setattr(os, "fork", recording_fork)
    s = step_signal(grid20)
    for workers in (1, 2):
        pinned_workers(monkeypatch, workers)
        forks.clear()
        log.write_text("")
        counts = []
        for chunk in (16, 512):
            monkeypatch.setattr(filters, "_CHUNK", chunk)
            before = memo.cache_info().misses
            multiscale_apply(grid20_op, grid20_frames, grid20.vertices, 1, [5.0, 10.0, 20.0],
                             s)
            counts.append(memo.cache_info().misses - before)
        assert counts == [3, 3]
        assert len(forks) == 2 * (workers - 1)
        assert set(log.read_text().split()) == {str(os.getpid())}


def test_pass_memory_within_documented_bound(monkeypatch, ico642, ico642_op):
    # tracemalloc counts every numpy buffer: the pass reserves its input and
    # one kernel buffer per time at N x w, each recurrence adds its two
    # |ball| x w blocks, and the rest is the size of the operator.  The
    # responses live in an anonymous mapping, which tracemalloc does not
    # see, so their 16 bytes per vertex and time are added to its peak.  One
    # worker runs every chunk: a forked worker's allocations are not traced
    frames = build_frames(vertex_normals(ico642))
    s = np.random.default_rng(3).standard_normal(ico642_op.n)
    runs = []

    def recording(op, fns, x, order, **kwargs):
        runs.append((op.n, x.shape[1]))
        return chebyshev_apply(op, fns, x, order, **kwargs)

    pinned_workers(monkeypatch, 1)
    monkeypatch.setattr(filters, "chebyshev_apply", recording)
    multiscale_apply(ico642_op, frames, ico642.vertices, 1, [5.0, 10.0, 20.0], s)
    peaks = []
    # one and two times get the three-time width, 128 at the default _CHUNK
    for ts, chunk, expected in (([5.0, 10.0, 20.0], 256, 128), ([5.0, 10.0, 20.0], 128, 64),
                                ([5.0], 256, 128), ([5.0, 10.0], 256, 128)):
        monkeypatch.setattr(filters, "_CHUNK", chunk)
        runs.clear()
        tracemalloc.start()
        try:
            multiscale_apply(ico642_op, frames, ico642.vertices, 1, ts, s)
            peak = tracemalloc.get_traced_memory()[1] + 16 * len(ts) * ico642_op.n
        finally:
            tracemalloc.stop()
        width = max(w for _, w in runs)
        assert width == expected
        blocks = 8 * ((1 + len(ts)) * ico642_op.n * width
                      + 2 * max(rows * w for rows, w in runs))
        assert peak <= blocks + 128 * ico642_op.stiffness.nnz
        peaks.append(peak)
    # halving the chunk halves the blocks
    assert peaks[1] < 0.6 * peaks[0]


def test_masks_freed_before_next_chunk_recurrence(monkeypatch, ico642, ico642_op):
    # a chunk's masks are handed to the pass across a yield; none may live
    # on into the next chunk's recurrence, the pass's peak
    frames = build_frames(vertex_normals(ico642))
    s = np.random.default_rng(4).standard_normal(ico642_op.n)
    specs = [FilterSpec(1, HeatParams(t, threshold))
             for t in (5.0, 20.0) for threshold in (1e-4, 0.0)]
    masks, recurrences = [], []

    def recording_threshold(block, threshold):
        keep, kept = threshold_row(block, threshold)
        masks.append(weakref.ref(keep))
        return keep, kept

    def checking(op, fns, x, order, **kwargs):
        recurrences.append(len(masks))
        assert all(mask() is None for mask in masks)
        return chebyshev_apply(op, fns, x, order, **kwargs)

    pinned_workers(monkeypatch, 1)
    monkeypatch.setattr(filters, "_CHUNK", 64)
    monkeypatch.setattr(filters, "threshold_row", recording_threshold)
    monkeypatch.setattr(filters, "chebyshev_apply", checking)
    apply_filter(ico642_op, frames, ico642.vertices, specs, s)
    chunks = -(-ico642_op.n // (2 * 64 // 4))
    assert recurrences == [4 * c for c in range(chunks)]
    assert len(masks) == 4 * chunks


def test_contraction_slices_bound_pair_count(monkeypatch, grid20, grid20_op,
                                              grid20_frames):
    # every pair is kept at threshold 0; the contraction still gathers at
    # most N * ceil(width / 8) of them at once, and each pair of a slice's
    # centres with its chunk's ball exactly once, handed to every scale
    gathered, handed, passes = [], [], []
    contract = filters._contract

    def recording(terms, *args):
        gathered.append(int(np.logical_or.reduce([keep for _, _, keep in terms]).sum()))
        handed.append(sum(int(keep.sum()) for _, _, keep in terms))
        return contract(terms, *args)

    def recording_pass(op, fns, x, order, **kwargs):
        passes.append((op, x.shape[1], order))
        return chebyshev_apply(op, fns, x, order, **kwargs)

    # a forked worker's calls would not reach the recorders
    pinned_workers(monkeypatch, 1)
    monkeypatch.setattr(filters, "_contract", recording)
    monkeypatch.setattr(filters, "chebyshev_apply", recording_pass)
    s = step_signal(grid20)
    n = grid20_op.n
    for ts in ([5.0], [5.0, 10.0, 20.0]):
        gathered.clear()
        handed.clear()
        passes.clear()
        multiscale_apply(grid20_op, grid20_frames, grid20.vertices, 1, ts, s,
                         support_threshold=0.0)
        width = 2 * filters._CHUNK // (max(len(ts), 3) + 1)
        step = -(-width // 8)
        order = shared_order(grid20_op, [heat_function(t) for t in ts])
        pairs = 0
        for sub, w, sub_order in passes:
            assert sub_order == order
            pairs += sub.n * w
        assert max(gathered) <= n * step
        assert sum(gathered) == pairs
        assert sum(handed) == len(ts) * pairs


def test_mixed_specs_share_one_contraction(monkeypatch, ico642, ico642_op):
    frames = build_frames(vertex_normals(ico642))
    s = np.random.default_rng(8).standard_normal(ico642_op.n)
    specs = [FilterSpec(0, HeatParams(5.0)), FilterSpec(1, HeatParams(10.0, 1e-3)),
             FilterSpec(2, HeatParams(20.0, 0.0)), FilterSpec(3, HeatParams(10.0))]
    calls, thresholded = [], []

    def recording(op, fns, x, order, **kwargs):
        calls.append((len(fns), (op.n, x.shape[1])))
        return chebyshev_apply(op, fns, x, order, **kwargs)

    def recording_threshold(block, threshold):
        thresholded.append((len(calls), block.shape))
        return threshold_row(block, threshold)

    monkeypatch.setattr(filters, "_workers", lambda chunks: 1)
    monkeypatch.setattr(filters, "chebyshev_apply", recording)
    monkeypatch.setattr(filters, "threshold_row", recording_threshold)
    fused = apply_filter(ico642_op, frames, ico642.vertices, specs, s)
    # one recurrence function per distinct diffusion time, one call per chunk
    width = 2 * filters._CHUNK // 4
    chunks = -(-ico642_op.n // width)
    assert [n_fns for n_fns, _ in calls] == [3] * chunks
    # one threshold per distinct (t, threshold), on the chunk's whole
    # (|ball|, w) block, right after its recurrence
    assert thresholded == [(c + 1, shape) for c, (_, shape) in enumerate(calls)
                           for _ in range(4)]
    for spec, got in zip(specs, fused):
        alone = apply_filter(ico642_op, frames, ico642.vertices, spec, s)
        scale = np.abs(alone.r_real).max() + np.abs(alone.r_imag).max()
        assert got.spec == spec
        assert np.abs(got.r_real - alone.r_real).max() <= 1e-13 * scale
        assert np.abs(got.r_imag - alone.r_imag).max() <= 1e-13 * scale


# --- worker processes ---

def pinned_workers(monkeypatch, count):
    monkeypatch.setattr(filters, "_workers", lambda chunks: min(count, chunks))


def test_two_workers_match_one(monkeypatch, grid20, grid20_op, grid20_frames):
    # a chunk runs the same code whichever process takes it, so a pass split
    # over two processes gives the same bits as one
    rng = np.random.default_rng(9)
    s = rng.standard_normal(grid20_op.n)
    normals = rng.standard_normal((grid20_op.n, 3))
    mesh = Mesh(grid20.vertices, grid20.faces,
                normals=normals / np.linalg.norm(normals, axis=1, keepdims=True))
    specs = [FilterSpec(0, HeatParams(5.0)), FilterSpec(1, HeatParams(10.0, 1e-3)),
             FilterSpec(2, HeatParams(5.0, 0.0))]
    forks = []
    fork = os.fork

    def recording_fork():
        forks.append(os.getpid())
        return fork()

    monkeypatch.setattr(filters, "_CHUNK", 16)
    monkeypatch.setattr(os, "fork", recording_fork)
    runs = []
    for count in (1, 2):
        pinned_workers(monkeypatch, count)
        runs.append((apply_filter(grid20_op, grid20_frames, grid20.vertices, specs, s),
                     normal_variation(mesh, grid20_op, grid20_frames, specs)))
    assert len(forks) == 2
    (filtered, varied), (split_filtered, split_varied) = runs
    for a, b in zip(filtered, split_filtered):
        assert a.r2.max() > 0
        for field in ("r_real", "r_imag", "r2"):
            assert np.array_equal(getattr(a, field), getattr(b, field))
    for a, b in zip(varied, split_varied):
        assert a.values.max() > 0
        assert np.array_equal(a.values, b.values)


@pytest.mark.parametrize("in_child", [True, False])
def test_worker_errors_reach_caller_and_leave_no_child(monkeypatch, grid20, grid20_op,
                                                       grid20_frames, in_child):
    # a chunk that the child runs fails, or one that the pass itself runs,
    # which kills the child; either way the error is raised and the child reaped
    parent = os.getpid()
    where = "a worker" if in_child else "the pass"

    def recurrence(*args, **kwargs):
        in_worker = os.getpid() != parent
        if in_worker == in_child:
            raise NumericalError(f"non-finite Chebyshev intermediate in {where}")
        if in_worker:
            # a child that is not killed ends only after a minute
            time.sleep(60)
            os._exit(0)
        return chebyshev_apply(*args, **kwargs)

    monkeypatch.setattr(filters, "_CHUNK", 16)
    pinned_workers(monkeypatch, 2)
    monkeypatch.setattr(filters, "chebyshev_apply", recurrence)
    start = time.monotonic()
    with pytest.raises(NumericalError, match=f"intermediate in {where}$"):
        apply_filter(grid20_op, grid20_frames, grid20.vertices,
                     FilterSpec(1, HeatParams(5.0)), step_signal(grid20))
    assert time.monotonic() - start < 30
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_worker_killed_by_a_signal_raises_mahf_error(monkeypatch, grid20, grid20_op,
                                                     grid20_frames):
    # a child that dies by a signal sends no exception; its exit status is
    # the error, raised once the pass has finished its own share
    parent = os.getpid()

    def recurrence(*args, **kwargs):
        if os.getpid() != parent:
            os.kill(os.getpid(), signal.SIGKILL)
        return chebyshev_apply(*args, **kwargs)

    monkeypatch.setattr(filters, "_CHUNK", 16)
    pinned_workers(monkeypatch, 2)
    monkeypatch.setattr(filters, "chebyshev_apply", recurrence)
    with pytest.raises(MahfError, match=f"exit code {-signal.SIGKILL}$") as raised:
        apply_filter(grid20_op, grid20_frames, grid20.vertices,
                     FilterSpec(1, HeatParams(5.0)), step_signal(grid20))
    assert type(raised.value) is MahfError
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


ORPHANED_PASS = """
import os, signal, sys, time
import mahf.filters as filters
from mahf import FilterSpec, HeatParams, apply_filter, build_frames, cotan_operator
from mahf import vertex_normals
from mahf.synthetic import flat_grid

parent, recurrence = os.getpid(), filters.chebyshev_apply

def logged(*args, **kwargs):
    if os.getpid() == parent:
        # the pass dies once its child has logged a chunk
        while not (os.path.exists(sys.argv[1]) and open(sys.argv[1]).read()):
            time.sleep(0.01)
        os.kill(parent, signal.SIGKILL)
    with open(sys.argv[1], "a") as log:
        log.write("chunk\\n")
    time.sleep(0.1)
    return recurrence(*args, **kwargs)

filters._CHUNK = 16
filters._workers = lambda chunks: min(2, chunks)
filters.chebyshev_apply = logged
grid = flat_grid(20, 20)
apply_filter(cotan_operator(grid), build_frames(vertex_normals(grid)), grid.vertices,
             FilterSpec(1, HeatParams(5.0)), grid.vertices[:, 0])
"""


def test_orphaned_worker_stops_at_its_next_chunk(tmp_path):
    # the pass is killed once its child has logged its first chunk; the
    # child, with about 2.4 s of chunks left, finishes at most the chunk it
    # is in
    log = tmp_path / "chunks.log"
    src = str(Path(filters.__file__).resolve().parents[1])
    done = subprocess.run([sys.executable, "-c", ORPHANED_PASS, str(log)],
                          env={**os.environ, "PYTHONPATH": src}, timeout=60)
    assert done.returncode == -signal.SIGKILL
    at_death = len(log.read_text().split())
    time.sleep(1.5)
    assert 1 <= at_death <= len(log.read_text().split()) <= at_death + 1


@pytest.mark.parametrize("membership, limits, expected", [
    (None, {}, None),
    ("0::/\n", {}, None),
    ("0::/a\n", {"a/cpu.max": "max 100000\n"}, None),
    ("0::/a/b\n", {"cpu.max": "max 100000\n", "a/cpu.max": "150000 100000\n",
                   "a/b/cpu.max": "max 100000\n"}, 2),
    ("0::/a/b\n", {"a/cpu.max": "300000 100000\n", "a/b/cpu.max": "50000 100000\n"}, 1),
    ("4:cpu,cpuacct:/\n0::/\n", {"cpu/cpu.cfs_quota_us": "300000\n",
                                  "cpu/cpu.cfs_period_us": "100000\n"}, 3),
    ("4:cpu,cpuacct:/\n", {"cpu/cpu.cfs_quota_us": "-1\n",
                           "cpu/cpu.cfs_period_us": "100000\n"}, None),
])
def test_cgroup_cpu_quota_caps_workers(monkeypatch, tmp_path, membership, limits,
                                       expected):
    # a container's CPU quota caps the worker count below its usable cores;
    # the count is only computed here, no pass runs
    root = tmp_path / "cgroup"
    for name, text in limits.items():
        (root / name).parent.mkdir(parents=True, exist_ok=True)
        (root / name).write_text(text)
    if membership is not None:
        (tmp_path / "self").write_text(membership)
    monkeypatch.setattr(filters, "_CGROUP_ROOT", root)
    monkeypatch.setattr(filters, "_CGROUP_OF_SELF", tmp_path / "self")
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(4)), raising=False)
    assert filters._cpu_limit() == expected
    assert filters._workers(8) == (expected or 4)
    assert filters._workers(2) == min(2, expected or 4)


def test_pass_forks_no_worker_while_another_thread_lives(monkeypatch, grid20, grid20_op,
                                                         grid20_frames):
    def fork():
        pytest.fail("forked while another Python thread was alive")

    monkeypatch.setattr(filters, "_CHUNK", 16)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    monkeypatch.setattr(os, "fork", fork)
    done = threading.Event()
    thread = threading.Thread(target=done.wait)
    thread.start()
    try:
        apply_filter(grid20_op, grid20_frames, grid20.vertices,
                     FilterSpec(1, HeatParams(5.0)), step_signal(grid20))
    finally:
        done.set()
        thread.join(timeout=10)
    assert not thread.is_alive()


def test_fork_warning_of_threaded_process_ignored(monkeypatch, grid20, grid20_op,
                                                  grid20_frames):
    # Python >= 3.12 warns on every fork of a process with more than one OS
    # thread, as numpy's BLAS pool makes it; the pass ignores only that one
    fork = os.fork

    def warning_fork():
        warnings.warn(f"This process (pid={os.getpid()}) is multi-threaded, use of fork() "
                      "may lead to deadlocks in the child.", DeprecationWarning, stacklevel=2)
        return fork()

    monkeypatch.setattr(filters, "_CHUNK", 16)
    pinned_workers(monkeypatch, 2)
    monkeypatch.setattr(os, "fork", warning_fork)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        apply_filter(grid20_op, grid20_frames, grid20.vertices,
                     FilterSpec(1, HeatParams(5.0)), step_signal(grid20))


def relabelled(mesh, perm):
    """``mesh`` with new vertex ``q`` the old vertex ``perm[q]``."""
    inverse = np.empty_like(perm)
    inverse[perm] = np.arange(perm.shape[0])
    return Mesh(mesh.vertices[perm], inverse[mesh.faces])


def test_vertex_permutation_equivariance(ico642):
    perm = np.random.default_rng(17).permutation(ico642.n_vertices)
    meshes = (ico642, relabelled(ico642, perm))
    ops = [cotan_operator(m) for m in meshes]
    frames = [build_frames(vertex_normals(m)) for m in meshes]
    s = np.random.default_rng(18).standard_normal(ico642.n_vertices)
    signals = (s, s[perm])
    ts = [5.0, 10.0, 20.0]
    for k in (0, 1, 2):
        ref, got = (multiscale_apply(op, fr, m.vertices, k, ts, sig)
                    for op, fr, m, sig in zip(ops, frames, meshes, signals))
        for a, b in zip(ref, got):
            for field in ("r_real", "r_imag", "r2"):
                want, have = getattr(a, field)[perm], getattr(b, field)
                assert np.abs(have - want).max() <= 1e-12 * np.abs(want).max()
    specs = [FilterSpec(1, HeatParams(t)) for t in ts]
    ref, got = (normal_variation(m, op, fr, specs)
                for op, fr, m in zip(ops, frames, meshes))
    for a, b in zip(ref, got):
        assert np.abs(b.values - a.values[perm]).max() <= 1e-12 * np.abs(a.values).max()
    # kernel rows: old vertex i is new vertex inverse[i]
    inverse = np.argsort(perm)
    params = [HeatParams(t, threshold) for t in (5.0, 20.0) for threshold in (1e-4, 0.0)]
    for i in range(0, ico642.n_vertices, 7):
        for want, have in zip(heat_kernel_row(ops[0], params, i),
                              heat_kernel_row(ops[1], params, int(inverse[i]))):
            assert np.abs(have - want[perm]).max() <= 1e-12 * np.abs(want).max()


def test_fused_pass_validates_specs(grid20, grid20_op, grid20_frames):
    s = step_signal(grid20)
    with pytest.raises(ValueError, match="at least one"):
        apply_filter(grid20_op, grid20_frames, grid20.vertices, [], s)


def test_multiscale_validates_times(grid20, grid20_op, grid20_frames):
    s = step_signal(grid20)
    with pytest.raises(ValueError):
        multiscale_apply(grid20_op, grid20_frames, grid20.vertices, 1, [], s)
    with pytest.raises(ValueError):
        multiscale_apply(grid20_op, grid20_frames, grid20.vertices, 1,
                         [30.0, 5.0], s)


def test_multiscale_step_vs_ramp():
    # sharp step detected at small t; the diffuse ramp needs the wider filter
    from mahf.synthetic import flat_grid
    mesh = flat_grid(40, 20, GRID_SPACING)
    op = cotan_operator(mesh)
    frames = build_frames(vertex_normals(mesh))
    x = mesh.vertices[:, 0]
    x_end = x.max()
    s = np.where(x < 9.5 * GRID_SPACING, 0.0, 1.0)
    ramp = x >= 19.5 * GRID_SPACING
    s = np.where(ramp, 1.0 + (x - 100.0) / (x_end - 100.0), s)
    cols, rows = grid_columns_rows(mesh)
    inner_rows = (rows >= 4) & (rows <= rows.max() - 4)
    step_zone = inner_rows & ((cols == 9) | (cols == 10))
    ramp_zone = inner_rows & (cols >= 23) & (cols <= 36)
    responses = multiscale_apply(op, frames, mesh.vertices, 1, [5.0, 30.0], s)
    rho = [r.r2[ramp_zone].mean() / r.r2[step_zone].max() for r in responses]
    assert rho[1] > rho[0]


# --- normal variation and fusion ---

def test_normal_variation_flat_grid(grid20, grid20_op, grid20_frames):
    mesh = Mesh(grid20.vertices, grid20.faces,
                normals=np.tile([0.0, 0.0, 1.0], (grid20.n_vertices, 1)))
    field = normal_variation(mesh, grid20_op, grid20_frames,
                             FilterSpec(1, HeatParams(10.0, 1e-4)))
    interior = grid_interior_mask(grid20)
    boundary_max = field.values[~interior].max()
    assert field.values[interior].max() < 1e-6 * boundary_max


def test_normal_variation_icosphere_uniform(ico642, ico642_op):
    frames = build_frames(vertex_normals(ico642))
    field = normal_variation(ico642, ico642_op, frames,
                             FilterSpec(1, HeatParams(10.0, 1e-4)))
    cov = field.values.std() / field.values.mean()
    assert cov < 0.2


def test_normal_variation_one_pass_matches_separate_calls(ico162, ico162_op,
                                                         ico162_frames):
    specs = [FilterSpec(1, HeatParams(t, 1e-4)) for t in (5.0, 10.0)]
    fields = normal_variation(ico162, ico162_op, ico162_frames, specs)
    for spec, field in zip(specs, fields):
        alone = normal_variation(ico162, ico162_op, ico162_frames, spec)
        assert np.abs(field.values - alone.values).max() <= 1e-13 * alone.values.max()


def test_fuse():
    a = VertexSignal([1.0, 2.0, 3.0])
    b = VertexSignal([3.0, 0.0, 6.0])
    assert np.array_equal(fuse(a, b, 0.0).values, a.values)
    third = fuse(a, b, 1.0 / 3.0)
    assert np.allclose(third.values, [2.0, 2.0, 5.0])
    # element-wise additivity
    lhs = fuse(a, b, 0.5).values + fuse(VertexSignal([1.0, 1.0, 1.0]),
                                        VertexSignal(np.zeros(3)), 0.0).values
    rhs = fuse(VertexSignal(a.values + 1.0), b, 0.5).values
    assert np.allclose(lhs, rhs)


def test_fuse_validation():
    with pytest.raises(ValueError):
        fuse(VertexSignal([1.0]), VertexSignal([1.0, 2.0]), 1.0)
    with pytest.raises(ValueError):
        fuse(VertexSignal([1.0]), VertexSignal([1.0]), -0.5)


@pytest.mark.parametrize("beta", [np.nan, np.inf])
def test_fuse_rejects_non_finite_beta(beta):
    # checked before the sum: an infinite weight times a zero response
    # would warn and give NaN, and a NaN weight spoils every value
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="beta must be finite and nonnegative"):
            fuse(VertexSignal([1.0, 2.0]), VertexSignal([0.0, 3.0]), beta)


def test_filter_spec_validation():
    with pytest.raises(ValueError):
        FilterSpec(-1, HeatParams(1.0))
    for k in (1.5, 2.0, "1"):
        with pytest.raises(ValueError, match="integer"):
            FilterSpec(k, HeatParams(1.0))
    assert FilterSpec(np.int64(2), HeatParams(1.0)).k == 2
