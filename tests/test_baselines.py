import inspect

import numpy as np
import pytest

from mahf.baselines import MhwSpec, _mhw_function, mhw_normal_variation
from mahf.geometry import vertex_normals
from mahf.io_mesh import Mesh
from mahf.laplacian import cotan_operator

from conftest import DenseOracle, certified_action


def mhw(op, t, s):
    """The MHW action ``L exp(-t L) @ s`` at its certified order."""
    return certified_action(op, _mhw_function(t), s)


def test_mhw_two_node_closed_form(two_node_op):
    out = mhw(two_node_op, 0.5, np.array([1.0, -1.0]))
    expected = 2.0 * np.exp(-1.0)
    assert np.allclose(out, [expected, -expected], atol=1e-9)


def test_mhw_annihilates_constants(two_node_op, ico162_op):
    for op in (two_node_op, ico162_op):
        out = mhw(op, 10.0, np.ones(op.n))
        assert np.abs(out).max() < 1e-8


def test_mhw_matches_dense_oracle(ico162_op):
    rng = np.random.default_rng(0)
    s = rng.standard_normal(ico162_op.n)
    exact = DenseOracle(ico162_op.stiffness, ico162_op.mass).mhw(10.0, s[:, None])[:, 0]
    got = mhw(ico162_op, 10.0, s)
    assert np.abs(got - exact).max() < 1e-7


def test_mhw_normal_variation_matches_dense_oracle(ico162):
    # an ellipsoid: the normal field varies from vertex to vertex
    mesh = Mesh(ico162.vertices * [1.0, 1.0, 0.4], ico162.faces)
    op = cotan_operator(mesh)
    normals = vertex_normals(mesh)
    exact = DenseOracle(op.stiffness, op.mass).mhw(10.0, normals)
    field = mhw_normal_variation(mesh, op, MhwSpec(10.0))
    expected = np.sum(exact ** 2, axis=1)
    assert np.abs(field.values - expected).max() < 1e-7 * expected.max()


def test_mhw_mean_orthogonal_to_constants(path4_op):
    rng = np.random.default_rng(1)
    s = rng.standard_normal(4)
    out = mhw(path4_op, 0.7, s)
    assert abs(out.mean()) < 1e-8 * np.abs(s).max()


def test_mhw_is_isotropic_by_construction():
    # the baseline never reads tangent frames at all
    assert "frames" not in inspect.signature(mhw_normal_variation).parameters


def test_mhw_normal_variation_flat_grid(grid20, grid20_op):
    mesh = Mesh(grid20.vertices, grid20.faces,
                normals=np.tile([0.0, 0.0, 1.0], (grid20.n_vertices, 1)))
    field = mhw_normal_variation(mesh, grid20_op, MhwSpec(10.0))
    assert field.values.max() < 1e-10


def test_mhw_normal_variation_icosphere_uniform(ico642, ico642_op):
    field = mhw_normal_variation(ico642, ico642_op, MhwSpec(10.0))
    cov = field.values.std() / field.values.mean()
    assert cov < 0.2


def test_mhw_normal_variation_one_pass_matches_separate_calls(ico162, ico162_op):
    specs = [MhwSpec(t) for t in (5.0, 10.0, 20.0)]
    fields = mhw_normal_variation(ico162, ico162_op, specs)
    for spec, field in zip(specs, fields):
        alone = mhw_normal_variation(ico162, ico162_op, spec)
        assert np.abs(field.values - alone.values).max() <= 1e-13 * alone.values.max()


def test_mhw_spec_validation():
    with pytest.raises(ValueError):
        MhwSpec(0.0)
    for t in (np.nan, np.inf):
        with pytest.raises(ValueError, match="finite"):
            MhwSpec(t)
