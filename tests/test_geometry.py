import warnings

import numpy as np
import pytest

from mahf import geometry
from mahf.errors import GeometryError
from mahf.geometry import (build_frames, face_areas, knn, pca_normals,
                           vertex_areas, vertex_normals)
from mahf.io_mesh import Mesh
from mahf.laplacian import gaussian_knn_operator
from mahf.synthetic import flat_grid, icosphere

from conftest import rotated_frames


def equilateral():
    return Mesh(np.array([[0.0, 0, 0], [1.0, 0, 0], [0.5, np.sqrt(3) / 2, 0]]),
                [(0, 1, 2)])


# --- vertex areas ---

def test_vertex_areas_equilateral():
    areas = vertex_areas(equilateral())
    assert np.allclose(areas, np.sqrt(3) / 12, rtol=1e-14)


def test_vertex_areas_sum_to_total(grid20, ico162):
    for mesh in (grid20, ico162):
        total = face_areas(mesh).sum()
        assert vertex_areas(mesh).sum() == pytest.approx(total, rel=1e-12)


def test_vertex_areas_degenerate_only_vertex():
    # vertex 3 is touched only by a zero-area (collinear) triangle
    verts = np.array([[0.0, 0, 0], [1.0, 0, 0], [0, 1.0, 0], [2.0, 0, 0]])
    mesh = Mesh(verts, [(0, 1, 2), (0, 1, 3)])
    with pytest.raises(GeometryError, match="vertex 3"):
        vertex_areas(mesh)


# --- mesh normals ---

def test_vertex_normals_flat_grid(grid20):
    normals = vertex_normals(grid20)
    assert np.array_equal(normals, np.tile([0.0, 0.0, 1.0], (grid20.n_vertices, 1)))


def test_vertex_normals_icosphere_radial():
    mesh = icosphere(3)
    normals = vertex_normals(mesh)
    radial = mesh.vertices / np.linalg.norm(mesh.vertices, axis=1, keepdims=True)
    angles = np.degrees(np.arccos(np.clip(np.sum(normals * radial, axis=1), -1, 1)))
    assert angles.max() < 5.0


def test_vertex_normals_opposite_windings_degenerate():
    verts = np.array([[0.0, 0, 0], [1.0, 0, 0], [0, 1.0, 0]])
    mesh = Mesh(verts, [(0, 1, 2), (0, 2, 1)])
    with pytest.raises(GeometryError, match="degenerate"):
        vertex_normals(mesh)


def test_vertex_normals_isolated_vertex():
    verts = np.array([[0.0, 0, 0], [1.0, 0, 0], [0, 1.0, 0], [5.0, 5, 5]])
    mesh = Mesh(verts, [(0, 1, 2)])
    with pytest.raises(GeometryError, match="vertex 3"):
        vertex_normals(mesh)


# --- point-cloud normals ---

def test_pca_normals_plane():
    rng = np.random.default_rng(0)
    pts = np.column_stack([rng.uniform(0, 10, 200), rng.uniform(0, 10, 200),
                           np.zeros(200)])
    normals = pca_normals(pts, 6)
    assert np.allclose(np.abs(normals[:, 2]), 1.0, atol=1e-9)
    # propagation makes the whole field agree in sign
    assert len(np.unique(np.sign(normals[:, 2]))) == 1


def test_pca_normals_sphere():
    rng = np.random.default_rng(0)
    pts = rng.standard_normal((500, 3))
    pts /= np.linalg.norm(pts, axis=1, keepdims=True)
    normals = pca_normals(pts, 10)
    cos = np.sum(normals * pts, axis=1)
    angles = np.degrees(np.arccos(np.clip(cos, -1, 1)))
    assert angles.mean() < 10.0
    # globally consistent: oriented outward everywhere after propagation
    assert (cos > 0).all()


def test_pca_normals_small_k_rejected():
    pts = np.random.default_rng(1).standard_normal((20, 3))
    with pytest.raises(ValueError, match="at least 3"):
        pca_normals(pts, 2)


def test_pca_normals_duplicate_neighborhood():
    pts = np.vstack([np.zeros((5, 3)), np.eye(3)])
    with pytest.raises(GeometryError, match="distinct"):
        pca_normals(pts, 4)
    # a unit square far away, three coincident points and one beside them:
    # vertex 4 sees two distinct positions, vertex 7 one; the first is named
    square = [[100.0, 100, 100], [101, 100, 100], [100, 101, 100], [101, 101, 100]]
    pts = np.vstack([square, np.zeros((3, 3)), [[1.0, 0, 0]]])
    with pytest.raises(GeometryError, match="vertex 4 has fewer than 3 distinct"):
        pca_normals(pts, 3)


def _reference_pca_normals(points, k):
    """Per-point plane fits, then the breadth-first sign sweep."""
    n = points.shape[0]
    nbrs = knn(points, k)
    normals = np.empty_like(points)
    for i in range(n):
        nbr_pts = points[nbrs.indices[i]]
        centered = nbr_pts - nbr_pts.mean(axis=0)
        normals[i] = np.linalg.eigh(centered.T @ centered)[1][:, 0]
    adjacency = [set() for _ in range(n)]
    for i in range(n):
        for j in nbrs.indices[i]:
            adjacency[i].add(int(j))
            adjacency[int(j)].add(i)
    visited = np.zeros(n, dtype=bool)
    for seed in np.lexsort((np.arange(n), -points[:, 2])):
        if visited[seed]:
            continue
        if normals[seed, 2] < 0:
            normals[seed] = -normals[seed]
        visited[seed] = True
        queue = [int(seed)]
        while queue:
            u = queue.pop(0)
            for v in sorted(adjacency[u]):
                if not visited[v]:
                    if normals[v] @ normals[u] < 0:
                        normals[v] = -normals[v]
                    visited[v] = True
                    queue.append(v)
    return normals


def test_pca_normals_match_per_point_reference():
    rng = np.random.default_rng(5)
    pts = rng.standard_normal((600, 3)) * [10.0, 10.0, 2.0]
    got = pca_normals(pts, 8)
    ref = _reference_pca_normals(pts, 8)
    assert np.abs(got - ref).max() <= 1e-12
    assert np.array_equal(np.sign(got), np.sign(ref))


# --- tangent frames ---

def test_build_frames_axis_aligned():
    frames = build_frames(np.array([[0.0, 0, 1]]))
    assert np.array_equal(frames.x_axis[0], [1, 0, 0])
    assert np.array_equal(frames.y_axis[0], [0, 1, 0])


def test_build_frames_tie_break():
    # |e_y . n| and |e_z . n| tie at zero; y wins by axis order
    frames = build_frames(np.array([[1.0, 0, 0]]))
    assert np.array_equal(frames.x_axis[0], [0, 1, 0])
    assert np.array_equal(frames.y_axis[0], [0, 0, 1])


def test_build_frames_orthonormal_property():
    rng = np.random.default_rng(42)
    n = rng.standard_normal((1000, 3))
    n /= np.linalg.norm(n, axis=1, keepdims=True)
    frames = build_frames(n)
    for a, b in (("x_axis", "y_axis"), ("x_axis", "normals"), ("y_axis", "normals")):
        dots = np.abs(np.sum(getattr(frames, a) * getattr(frames, b), axis=1))
        assert dots.max() <= 1e-9
    for name in ("x_axis", "y_axis", "normals"):
        norms = np.linalg.norm(getattr(frames, name), axis=1)
        assert np.abs(norms - 1).max() <= 1e-9
    handed = np.cross(frames.x_axis, frames.y_axis) - frames.normals
    assert np.abs(handed).max() <= 1e-9


def test_build_frames_deterministic():
    rng = np.random.default_rng(3)
    n = rng.standard_normal((50, 3))
    n /= np.linalg.norm(n, axis=1, keepdims=True)
    a, b = build_frames(n), build_frames(n)
    assert np.array_equal(a.x_axis, b.x_axis)
    assert np.array_equal(a.y_axis, b.y_axis)


def test_build_frames_rejects_non_unit():
    with pytest.raises(GeometryError, match="non-unit"):
        build_frames(np.array([[0.0, 0, 2.0]]))


def test_frame_field_rotated_stays_orthonormal():
    rng = np.random.default_rng(5)
    n = rng.standard_normal((100, 3))
    n /= np.linalg.norm(n, axis=1, keepdims=True)
    rotated = rotated_frames(build_frames(n), rng.uniform(-np.pi, np.pi, 100))
    handed = np.cross(rotated.x_axis, rotated.y_axis) - rotated.normals
    assert np.abs(handed).max() <= 1e-12


# --- k nearest neighbors ---

def test_knn_collinear():
    pts = np.array([[0.0, 0, 0], [1.0, 0, 0], [3.0, 0, 0]])
    nbrs = knn(pts, 1)
    assert nbrs.indices[:, 0].tolist() == [1, 0, 1]
    assert np.allclose(nbrs.distances[:, 0], [1, 1, 2])


def _oracle_knn(points, k, rows=None):
    """Exact scan of ``rows``, all by default: indices (ties to the lower
    index) and their distances."""
    n = len(points)
    rows = range(n) if rows is None else rows
    idx = np.empty((len(rows), k), dtype=int)
    dist = np.empty((len(rows), k))
    for r, i in enumerate(rows):
        d = np.sqrt(np.sum((points - points[i]) ** 2, axis=1))
        d[i] = np.inf
        idx[r] = sorted(range(n), key=lambda j: (d[j], j))[:k]
        dist[r] = d[idx[r]]
    return idx, dist


def test_knn_matches_bruteforce_oracle():
    rng = np.random.default_rng(7)
    pts = rng.uniform(0, 1, (200, 3))
    nbrs = knn(pts, 5)
    assert np.array_equal(nbrs.indices, _oracle_knn(pts, 5)[0])
    assert (np.diff(nbrs.distances, axis=1) >= 0).all()
    assert (nbrs.indices != np.arange(200)[:, None]).all()


def test_knn_tie_break_by_lower_index():
    pts = flat_grid(5, 5, 1.0).vertices
    nbrs = knn(pts, 2)
    # grid center has four neighbors at distance 1; the two lowest indices win
    assert nbrs.indices[12].tolist() == [7, 11]


def test_knn_k_too_large():
    pts = np.random.default_rng(0).standard_normal((5, 3))
    with pytest.raises(ValueError):
        knn(pts, 5)


def test_knn_accelerated_path_matches_exact():
    rng = np.random.default_rng(9)
    pts = rng.uniform(0, 1, (400, 3))
    nbrs = knn(pts, 6)
    indices, distances = _oracle_knn(pts, 6)
    assert np.array_equal(nbrs.indices, indices)
    assert np.array_equal(nbrs.distances, distances)


def test_knn_accelerated_path_tie_break():
    pts = flat_grid(6, 6, 1.0).vertices
    nbrs = knn(pts, 3)
    indices, distances = _oracle_knn(pts, 3)
    assert np.array_equal(nbrs.indices, indices)
    assert np.array_equal(nbrs.distances, distances)


def test_knn_integer_lattice_ties():
    # on a lattice most rows tie at the k-th neighbour: 6 at distance 1,
    # 12 at sqrt(2), 8 at sqrt(3); duplicated points tie at distance 0
    axes = np.arange(5.0), np.arange(4.0), np.arange(3.0)
    pts = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, 3)
    pts = np.concatenate([pts, pts[::7]])
    rng = np.random.default_rng(3)
    pts = pts[rng.permutation(len(pts))]
    for k in (1, 2, 5, 6, 7, 12):
        nbrs = knn(pts, k)
        indices, distances = _oracle_knn(pts, k)
        assert np.array_equal(nbrs.indices, indices)
        assert np.array_equal(nbrs.distances, distances)


# --- the grid query behind knn, on inputs that stress a grid ---

def _sphere(n, seed, radius=50.0):
    pts = np.random.default_rng(seed).standard_normal((n, 3))
    return pts * (radius / np.linalg.norm(pts, axis=1, keepdims=True))


def _two_density(n, seed):
    """A full-size sphere beside a cube of side 1e-4 holding as many points."""
    cube = np.random.default_rng(seed + 1).uniform(0, 1e-4, (n // 2, 3)) + [10.0, 0, 0]
    return np.vstack([_sphere(n - n // 2, seed), cube])


def _lattice(*sizes):
    axes = [np.arange(float(s)) for s in sizes]
    return np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, 3)


_HARD_SETS = {
    # cell assignments round by about 1e-10 here: a margin taken from the
    # 1e-3 spacing alone would be far too small
    "offset-1e6": lambda: 1e6 + 1e-3 * (_lattice(7, 7, 7)
                                        + np.random.default_rng(1).uniform(0, 0.3, (343, 3))),
    "tripled": lambda: np.repeat(_sphere(100, 2), 3, axis=0),
    "line": lambda: np.column_stack([np.linspace(0, 1, 200), np.zeros(200), np.zeros(200)]),
    "coincident": lambda: np.ones((20, 3)),
    "two-density": lambda: _two_density(300, 3),
    # points about 1e150 apart near 1e160: every squared distance stays finite
    "near-1e160": lambda: 1e160 * (1 + 1e-10 * np.random.default_rng(4).uniform(0, 1, (200, 3))),
    # points 1 and 2 both lie at distance sqrt(2) from point 0, though their
    # squared distances differ: fl(x * x) is the float after 2 for
    # x = sqrt(2); eight far points make room for k = 8
    "distance-tie": lambda: np.vstack([[0.0, 0, 0], [np.sqrt(2.0), 0, 0], [1.0, 1, 0],
                                       100 + 10 * _lattice(2, 2, 2)]),
}


@pytest.mark.parametrize("name", sorted(_HARD_SETS))
@pytest.mark.parametrize("k", [1, 3, 8])
def test_knn_grid_stress_sets_match_oracle(name, k):
    pts = _HARD_SETS[name]()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        nbrs = knn(pts, k)
    indices, distances = _oracle_knn(pts, k)
    assert np.array_equal(nbrs.indices, indices)
    assert np.array_equal(nbrs.distances, distances)


def test_knn_plane_lattice_every_k():
    pts = _lattice(12, 12, 1)
    for k in range(1, 9):
        indices, distances = _oracle_knn(pts, k)
        nbrs = knn(pts, k)
        assert np.array_equal(nbrs.indices, indices)
        assert np.array_equal(nbrs.distances, distances)


def _tree_knn(points, k):
    """Each point's k nearest others from scipy's kd-tree: its k + 2
    nearest, ordered by (distance, index) with the point itself last; and
    the rows tied at the end of that order, which the k + 2 cannot settle."""
    from scipy.spatial import cKDTree
    dist, idx = cKDTree(points).query(points, k=k + 2)
    dist = np.where(idx == np.arange(len(points))[:, None], np.inf, dist)
    order = np.lexsort((idx, dist))
    dist, idx = np.take_along_axis(dist, order, axis=1), np.take_along_axis(idx, order, axis=1)
    return idx[:, :k], dist[:, :k], dist[:, k] == dist[:, k - 1]


@pytest.mark.parametrize("name", ["sphere", "two-density"])
def test_knn_matches_kd_tree_candidates_bit_for_bit(name):
    pts = _sphere(20000, 0) if name == "sphere" else _two_density(5000, 5)
    for k in (1, 3, 8):
        nbrs = knn(pts, k)
        indices, distances, tied = _tree_knn(pts, k)
        if tied.any():
            indices[tied], distances[tied] = _oracle_knn(pts, k, np.flatnonzero(tied))
        assert np.array_equal(nbrs.indices, indices)
        assert np.array_equal(nbrs.distances, distances)


@pytest.mark.parametrize("shape", [(6, 2), (18,), (2, 3, 3)])
@pytest.mark.parametrize("call", [
    lambda values: knn(values, 1),
    lambda values: pca_normals(values, 3),
    lambda values: gaussian_knn_operator(values, 1),
    build_frames,
], ids=["knn", "pca_normals", "gaussian_knn_operator", "build_frames"])
def test_point_arrays_must_be_n_by_3(call, shape):
    with pytest.raises(ValueError, match=r"must have shape \(N, 3\)"):
        call(np.random.default_rng(0).random(shape))


def test_knn_rejects_non_finite_points():
    pts = np.random.default_rng(0).random((6, 3))
    pts[4, 1] = np.nan
    with pytest.raises(ValueError, match="points must be finite"):
        knn(pts, 1)


def test_knn_overflowing_cell_keys_take_the_exact_scan(monkeypatch):
    # two clouds 1e160 apart, each 1e150 across: refined to one level, the
    # cell keys spanning both would overflow, so their points go to the
    # exact scan, whose cross-cloud squared distances overflow quietly
    rng = np.random.default_rng(6)
    pts = 1e150 * rng.uniform(0, 1, (600, 3))
    pts[300:] += 1e160
    scanned = []
    scan = geometry._scan

    def recording(points, rows, m, dist, idx):
        scanned.append(rows.size)
        scan(points, rows, m, dist, idx)

    monkeypatch.setattr(geometry, "_scan", recording)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        nbrs = knn(pts, 3)
    assert sum(scanned) >= 500
    with np.errstate(over="ignore"):
        indices, distances = _oracle_knn(pts, 3)
    assert np.array_equal(nbrs.indices, indices)
    assert np.array_equal(nbrs.distances, distances)
