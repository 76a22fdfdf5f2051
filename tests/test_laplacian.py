import warnings

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.sparse.linalg import eigsh

from mahf.csr import Csr
from mahf.errors import NumericalError, OperatorError
from mahf.geometry import knn, pca_normals
from mahf.io_mesh import Mesh
from mahf.laplacian import (SparseOperator, cotan_operator,
                            estimate_lambda_max, gaussian_knn_operator)
from mahf.synthetic import cube_surface, flat_grid, icosphere, refine_midpoint

from conftest import csr_operator, dense_heat_oracle


def equilateral():
    return Mesh(np.array([[0.0, 0, 0], [1.0, 0, 0], [0.5, np.sqrt(3) / 2, 0]]),
                [(0, 1, 2)])


def test_cotan_equilateral_weights():
    op = cotan_operator(equilateral())
    dense = op.stiffness.toarray()
    # each edge sees a single opposite 60-degree angle
    expected = -1.0 / (2.0 * np.sqrt(3))
    off = dense[~np.eye(3, dtype=bool)]
    assert np.allclose(off, expected, rtol=1e-14)
    assert np.allclose(dense, dense.T)
    assert np.abs(dense @ np.ones(3)).max() < 1e-15


def test_cotan_row_sums_zero(grid20_op, ico162_op):
    for op in (grid20_op, ico162_op):
        ones = np.ones(op.n)
        row_scale = np.abs(op.stiffness).sum(axis=1).max()
        assert np.abs(op.stiffness @ ones).max() <= 1e-10 * row_scale
        assert np.abs((op.stiffness @ ones) / op.mass).max() <= 1e-10 * row_scale


def test_cotan_square_diagonal_weight_zero():
    # the diagonal of a unit square sees two opposite right angles
    verts = np.array([[0.0, 0, 0], [1.0, 0, 0], [1.0, 1, 0], [0.0, 1, 0]])
    op = cotan_operator(Mesh(verts, [(0, 1, 2), (0, 2, 3)]))
    dense = op.stiffness.toarray()
    assert dense[0, 2] == pytest.approx(0.0, abs=1e-15)
    assert dense[1, 3] == 0.0  # not an edge at all
    assert dense[0, 1] == pytest.approx(-0.5, rel=1e-14)


def test_cotan_exact_symmetry(ico162_op):
    diff = (ico162_op.stiffness - ico162_op.stiffness.T).toarray()
    assert np.abs(diff).max() == 0.0


def test_cotan_rejects_overshared_edge():
    verts = np.array([[0.0, 0, 0], [1.0, 0, 0], [0, 1.0, 0], [0, 0, 1.0],
                      [0, -1.0, 0]])
    mesh = Mesh(verts, [(0, 1, 2), (0, 1, 3), (0, 1, 4)])
    with pytest.raises(OperatorError, match="more than two"):
        cotan_operator(mesh)


def test_cotan_rejects_zero_area_face():
    verts = np.array([[0.0, 0, 0], [1.0, 0, 0], [2.0, 0, 0]])
    with pytest.raises(OperatorError, match="zero area"):
        cotan_operator(Mesh(verts, [(0, 1, 2)]))


def test_cotan_clamps_near_degenerate():
    verts = np.array([[0.0, 0, 0], [1.0, 0, 0], [0.5, 1e-9, 0]])
    with pytest.warns(RuntimeWarning, match="clamped"):
        op = cotan_operator(Mesh(verts, [(0, 1, 2)]))
    assert np.all(np.isfinite(op.stiffness.toarray()))


def test_gaussian_two_points():
    op = gaussian_knn_operator(np.array([[0.0, 0, 0], [2.0, 0, 0]]), 1, sigma=2.0)
    w = np.exp(-0.5)
    assert np.allclose(op.stiffness.toarray(), [[w, -w], [-w, w]], rtol=1e-15)
    assert np.array_equal(op.mass, [1.0, 1.0])


def test_gaussian_symmetric_and_kills_constants():
    rng = np.random.default_rng(2)
    pts = rng.uniform(0, 10, (120, 3))
    op = gaussian_knn_operator(pts, 6, sigma="auto")
    assert (op.stiffness != op.stiffness.T).nnz == 0
    assert np.abs((op.stiffness @ np.ones(120)) / op.mass).max() < 1e-12


def test_gaussian_rejects_bad_sigma():
    pts = np.random.default_rng(0).standard_normal((10, 3))
    with pytest.raises(ValueError, match="sigma"):
        gaussian_knn_operator(pts, 3, sigma=-1.0)
    with pytest.raises(ValueError):
        gaussian_knn_operator(pts, 10, sigma=1.0)  # k >= N


def test_shared_knn_graph_changes_nothing():
    pts = np.random.default_rng(3).uniform(0, 10, (120, 3))
    for k in (3, 6):
        nbrs = knn(pts, k)
        own, shared = gaussian_knn_operator(pts, k), gaussian_knn_operator(pts, k, nbrs=nbrs)
        for part in ("data", "indices", "indptr"):
            assert np.array_equal(getattr(own.stiffness, part),
                                  getattr(shared.stiffness, part))
        assert np.array_equal(pca_normals(pts, k), pca_normals(pts, k, nbrs=nbrs))
    # a graph of another k, or of another cloud, is refused
    for wrong in (knn(pts, 5), knn(pts[:100], 6)):
        with pytest.raises(ValueError, match="nbrs"):
            gaussian_knn_operator(pts, 6, nbrs=wrong)
        with pytest.raises(ValueError, match="nbrs"):
            pca_normals(pts, 6, nbrs=wrong)


@pytest.mark.parametrize("sigma", [1.0, "auto"])
def test_gaussian_matches_scipy_reference_bit_for_bit(sigma):
    # non-mutual neighbours, a coincident pair (weight 1) and a far outlier
    # whose weights all underflow to 0, so none of its edges may be stored
    pts = np.random.default_rng(5).uniform(0, 4, (80, 3))
    pts = np.concatenate([pts, pts[:1], [[1e3, 0.0, 0.0]]])
    n, k, outlier = pts.shape[0], 5, pts.shape[0] - 1
    nbrs = knn(pts, k)
    s = float(np.mean(nbrs.distances[:, -1])) if sigma == "auto" else sigma
    w = sp.csr_matrix((np.exp(-nbrs.distances.reshape(-1) ** 2 / (2.0 * s ** 2)),
                       (np.repeat(np.arange(n), k), nbrs.indices.reshape(-1))), shape=(n, n))
    assert (w != w.T).nnz > 0 and w[outlier].nnz == k and w[outlier].count_nonzero() == 0
    w_sym = w.maximum(w.T)
    ref = (sp.diags(np.asarray(w_sym.sum(axis=1)).reshape(-1)) - w_sym).tocsr()
    ref.eliminate_zeros()
    ref.sort_indices()
    op = gaussian_knn_operator(pts, k, sigma=sigma)
    assert np.array_equal(op.indptr, ref.indptr)
    assert np.array_equal(op.indices, ref.indices)
    assert op.data.tobytes() == ref.data.tobytes()
    assert op.stiffness[0, n - 2] == -1.0
    assert op.indptr[outlier + 1] == op.indptr[outlier] and outlier not in op.indices


def test_stiffness_is_a_csr_matrix_over_the_operator_arrays(ico162_op):
    pts = np.random.default_rng(3).uniform(0, 10, (120, 3))
    for op in (ico162_op, gaussian_knn_operator(pts, 6),
               ico162_op.restricted(np.arange(40, 0, -1))):
        s = op.stiffness
        assert isinstance(s, sp.csr_matrix) and s is op.stiffness
        for part in ("indptr", "indices", "data"):
            assert np.array_equal(getattr(s, part), getattr(op, part))


def test_lambda_max_two_node(two_node_op):
    est = estimate_lambda_max(two_node_op)
    assert 2.0 <= est <= 2.02 * (1 + 1e-12)


def test_lambda_max_scales_linearly(two_node_op):
    c = 3.7
    scaled = csr_operator(two_node_op.stiffness * c, two_node_op.mass)
    a = estimate_lambda_max(two_node_op)
    b = estimate_lambda_max(scaled)
    assert b == pytest.approx(c * a, rel=1e-6)


def test_lambda_max_zero_operator():
    op = csr_operator(sp.csr_matrix((2, 2)), np.ones(2))
    assert estimate_lambda_max(op) == 0.0


def test_lambda_max_close_to_true_top(grid20_op, ico162_op, cube40_op):
    # cube40_op has a near-flat top cluster; the bound must still bracket
    # the true top
    for op in (grid20_op, ico162_op, cube40_op):
        dense = op.stiffness.toarray()
        inv = 1.0 / np.sqrt(op.mass)
        true = np.linalg.eigvalsh(inv[:, None] * dense * inv[None, :]).max()
        assert true <= op.lambda_max <= 1.05 * true


def _cloud_op():
    # built like the cloud-normals benchmark input: 2500 points on a
    # radius-50 sphere, 8 neighbours
    points = np.random.default_rng(0).standard_normal((2500, 3))
    points *= 50.0 / np.linalg.norm(points, axis=1)[:, None]
    return gaussian_knn_operator(points, 8)


@pytest.mark.parametrize("make", [
    lambda: cotan_operator(icosphere(4, 50.0)), _cloud_op,
    lambda: cotan_operator(cube_surface(24)), lambda: cotan_operator(flat_grid(60, 60)),
    "cube40_op", "grid20_op", "ico162_op",
], ids=["ico2562", "cloud2500", "cube24", "grid60", "cube40", "grid20", "ico162"])
def test_lambda_max_brackets_eigsh_top(request, make):
    op = request.getfixturevalue(make) if isinstance(make, str) else make()
    inv_sqrt = sp.diags(1.0 / np.sqrt(op.mass))
    top = eigsh(inv_sqrt @ op.stiffness @ inv_sqrt, k=1, which="LA",
                return_eigenvectors=False)[0]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        bound = estimate_lambda_max(op)
    assert top <= bound <= 1.05 * top


@pytest.mark.parametrize("stiffness, mass", [
    ([[np.inf, -1.0], [-1.0, 1.0]], [1.0, 1.0]),
], ids=["inf-stiffness"])
def test_lambda_max_rejects_nonfinite(stiffness, mass):
    op = csr_operator(sp.csr_matrix(np.array(stiffness)), np.array(mass))
    with pytest.raises(NumericalError, match="non-finite"):
        estimate_lambda_max(op)


@pytest.mark.parametrize("stiffness, mass", [
    ([[1.0, -1.0], [-1.0, 1.0]], [np.nan, 1.0]),
    # a vertex without stiffness entries, which the spectral bound cannot see
    ([[1.0, -1.0, 0.0], [-1.0, 1.0, 0.0], [0.0, 0.0, 0.0]], [1.0, 1.0, np.nan]),
    ([[1.0, -1.0], [-1.0, 1.0]], [1.0, np.inf]),
], ids=["nan-mass", "nan-mass-isolated", "inf-mass"])
def test_operator_rejects_nonfinite_mass(stiffness, mass):
    with pytest.raises(ValueError, match="finite"):
        csr_operator(sp.csr_matrix(np.array(stiffness)), np.array(mass))


@pytest.mark.parametrize("stiffness", [
    sp.csr_matrix(np.array([[1.0, -1.0], [-1.0, 1.0]])),
    np.array([[1.0, -1.0], [-1.0, 1.0]]),
], ids=["scipy-matrix", "dense-array"])
def test_operator_takes_only_csr_arrays(stiffness):
    with pytest.raises(TypeError, match=r"CSR arrays \(indptr, indices, data\)"):
        SparseOperator(stiffness, np.ones(2))


@pytest.mark.parametrize("form", [Csr, lambda *arrays: arrays], ids=["csr", "tuple"])
def test_operator_rejects_size_mismatch(two_node_op, form):
    arrays = form(two_node_op.indptr, two_node_op.indices, two_node_op.data)
    assert np.array_equal(SparseOperator(arrays, np.ones(2)).data, two_node_op.data)
    with pytest.raises(ValueError, match="stiffness and mass sizes disagree"):
        SparseOperator(arrays, np.ones(3))


def test_operator_runs_mixed_index_dtypes(two_node_op):
    # an int64 indptr beside int32 indices becomes one index dtype, so the
    # kernels run on it
    s = two_node_op.stiffness
    op = SparseOperator((s.indptr.astype(np.int64), s.indices.astype(np.int32), s.data),
                        np.ones(2))
    assert op.indptr.dtype == op.indices.dtype
    assert estimate_lambda_max(op) == estimate_lambda_max(two_node_op)


@pytest.mark.parametrize("indptr, indices, data, match", [
    ([0, 2, 4], [0, 2, 0, 1], [1.0, -1.0, -1.0, 1.0], r"indices must lie in \[0, 2\)"),
    ([0, 2, 4], [0, -1, 0, 1], [1.0, -1.0, -1.0, 1.0], r"indices must lie in \[0, 2\)"),
    ([0, 3, 2], [0, 1], [1.0, -1.0], "without decreasing"),
    ([1, 2, 4], [0, 1, 0, 1], [1.0, -1.0, -1.0, 1.0], "rise from 0"),
    ([0, 2, 3], [0, 1, 0, 1], [1.0, -1.0, -1.0, 1.0], "rise from 0 to 4"),
    ([0, 2, 4], [0, 1, 0], [1.0, -1.0, -1.0, 1.0], "indices and data must be 1-D of one length"),
    ([0.0, 2.0, 4.0], [0, 1, 0, 1], [1.0, -1.0, -1.0, 1.0], "integer"),
], ids=["index-past-n", "negative-index", "decreasing-indptr", "indptr-not-from-0",
        "indptr-short-of-entries", "short-indices", "float-indptr"])
def test_operator_rejects_arrays_the_kernels_cannot_run_on(indptr, indices, data, match):
    with pytest.raises(ValueError, match=match):
        SparseOperator((np.array(indptr), np.array(indices), np.array(data)), np.ones(2))


def test_positive_semidefinite_property(grid20_op, ico162_op):
    rng = np.random.default_rng(123)
    for op in (grid20_op, ico162_op):
        x = rng.standard_normal((op.n, 1000))
        quad = np.einsum("ij,ij->j", x, op.stiffness @ x)
        norms = np.einsum("ij,ij->j", x, x)
        assert (quad >= -1e-10 * norms).all()


def test_refinement_conserves_lumped_mass():
    for mesh in (flat_grid(8, 8, 2.0), cube_surface(4, 10.0), icosphere(1, 5.0)):
        coarse = cotan_operator(mesh).mass.sum()
        fine = cotan_operator(refine_midpoint(mesh)).mass.sum()
        assert fine == pytest.approx(coarse, rel=1e-12)


def test_operator_matches_oracle_action(grid20_op):
    # mass^-1 stiffness action agrees with the dense reference at t=0+
    kernel, propagator = dense_heat_oracle(grid20_op, 0.0)
    assert np.allclose(propagator, np.eye(grid20_op.n), atol=1e-10)

