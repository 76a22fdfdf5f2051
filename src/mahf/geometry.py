"""Per-vertex normals, lumped areas, k-nearest neighbors and tangent frames,
and the breadth-first level search that normal orientation and the
operators' vertex balls share.

All operations are pure functions of immutable inputs.  Per-vertex
accumulations run in a fixed incident-face order, so results are
deterministic regardless of threading.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import sparse

from .errors import GeometryError
from .io_mesh import Mesh


class FrameField:
    """Per-vertex tangent frames stored as (N, 3) arrays."""

    def __init__(self, normals: np.ndarray, x_axis: np.ndarray, y_axis: np.ndarray):
        self.normals = np.ascontiguousarray(normals, dtype=np.float64)
        self.x_axis = np.ascontiguousarray(x_axis, dtype=np.float64)
        self.y_axis = np.ascontiguousarray(y_axis, dtype=np.float64)

    def __len__(self) -> int:
        return self.normals.shape[0]


@dataclass(frozen=True)
class NeighborList:
    """Exact k-nearest neighbors: indices and ascending distances, self excluded."""

    indices: np.ndarray    # (N, k) int
    distances: np.ndarray  # (N, k) float


def _face_cross(mesh: Mesh) -> np.ndarray:
    v, f = mesh.vertices, mesh.faces
    return np.cross(v[f[:, 1]] - v[f[:, 0]], v[f[:, 2]] - v[f[:, 0]])


def face_areas(mesh: Mesh) -> np.ndarray:
    """Triangle areas, one per face."""
    return 0.5 * np.linalg.norm(_face_cross(mesh), axis=1)


def vertex_areas(mesh: Mesh) -> np.ndarray:
    """Barycentric lumped vertex areas: one third of each incident face.

    Sums exactly to the total surface area.  Raises for vertices with no
    incident area (isolated, or touched only by degenerate faces).
    """
    if mesh.n_faces == 0:
        raise GeometryError("mesh has no faces; vertex areas are undefined")
    areas = np.zeros(mesh.n_vertices)
    third = face_areas(mesh) / 3.0
    for c in range(3):
        np.add.at(areas, mesh.faces[:, c], third)
    dead = np.flatnonzero(areas <= 0.0)
    if dead.size:
        raise GeometryError(f"vertex {int(dead[0])} has zero incident area")
    return areas


def vertex_normals(mesh: Mesh) -> np.ndarray:
    """Area-weighted average of incident face normals, normalized.

    Used as a fallback when the mesh does not carry scanned normals.
    """
    if mesh.n_faces == 0:
        raise GeometryError("mesh has no faces; use pca_normals for point clouds")
    cross = _face_cross(mesh)          # face normal scaled by twice its area
    acc = np.zeros_like(mesh.vertices)
    counts = np.zeros(mesh.n_vertices, dtype=np.int64)
    for c in range(3):
        np.add.at(acc, mesh.faces[:, c], cross)
        np.add.at(counts, mesh.faces[:, c], 1)
    isolated = np.flatnonzero(counts == 0)
    if isolated.size:
        raise GeometryError(f"vertex {int(isolated[0])} has no incident face")
    norms = np.linalg.norm(acc, axis=1)
    scale = np.linalg.norm(mesh.vertices.max(axis=0) - mesh.vertices.min(axis=0)) + 1.0
    dead = np.flatnonzero(norms <= 1e-14 * scale ** 2)
    if dead.size:
        raise GeometryError(f"degenerate normal umbrella at vertex {int(dead[0])}")
    return acc / norms[:, None]


def effective_normals(mesh: Mesh) -> np.ndarray:
    """Mesh-supplied normals when present, otherwise the face-based estimate."""
    if mesh.normals is not None:
        return mesh.normals
    return vertex_normals(mesh)


def _tree_knn(points: np.ndarray, k: int) -> NeighborList:
    # imported here so that mesh-only runs never load scipy.spatial
    from scipy.spatial import cKDTree

    n = points.shape[0]
    tree = cKDTree(points)
    # one extra candidate detects ties straddling the cut; tied rows are
    # recomputed by an exact scan so ties always go to the lower index
    m = min(n, k + 2)
    dist, idx = tree.query(points, k=m)
    scale = dist[:, -1].max() + 1.0
    is_self = idx == np.arange(n)[:, None]
    valid = m - np.count_nonzero(is_self, axis=1)
    # self goes last; the others by distance, then index
    dist = np.where(is_self, np.inf, dist)
    order = np.lexsort((idx, dist))
    idx = np.take_along_axis(idx, order, axis=1)
    dist = np.take_along_axis(dist, order, axis=1)
    out_idx = np.ascontiguousarray(idx[:, :k], dtype=np.int64)
    out_dist = np.ascontiguousarray(dist[:, :k])
    tied = (valid < k) | ((valid > k) & (dist[:, k] - dist[:, k - 1] <= 1e-12 * scale))
    for i in np.flatnonzero(tied):
        d2 = np.sum((points - points[i]) ** 2, axis=1)
        d2[i] = np.inf
        order = np.lexsort((np.arange(n), d2))[:k]
        out_idx[i], out_dist[i] = order, np.sqrt(d2[order])
    return NeighborList(out_idx, out_dist)


def knn(points: np.ndarray, k: int) -> NeighborList:
    """Exact k-nearest neighbors by Euclidean distance, ties broken by lower index."""
    points = np.asarray(points, dtype=np.float64).reshape(-1, 3)
    n = points.shape[0]
    if k < 1:
        raise ValueError(f"k must be at least 1, got {k}")
    if k >= n:
        raise ValueError(f"k={k} requires more than k points, got {n}")
    return _tree_knn(points, k)


def next_level(pattern: sparse.csr_matrix, level: np.ndarray, seen: np.ndarray):
    """The next level of a breadth-first search: the vertices not yet
    ``seen`` that ``pattern`` links to ``level``, and for each the vertex of
    ``level`` that found it.

    The vertices of ``level`` scan their rows of the pattern in turn, each
    in stored order; a vertex is found by the first scan that reaches it,
    and the level lists vertices in the order they are found.  Marks
    nothing in ``seen``.
    """
    indptr, indices = pattern.indptr, pattern.indices
    starts = indptr[level]
    counts = indptr[level + 1] - starts
    ends = np.cumsum(counts)
    gather = np.repeat(starts - ends + counts, counts)
    reached = indices[gather + np.arange(gather.shape[0])]
    fresh = np.flatnonzero(~seen[reached])
    first = fresh[np.sort(np.unique(reached[fresh], return_index=True)[1])]
    return reached[first], level[np.searchsorted(ends, first, side="right")]


def pca_normals(points: np.ndarray, k: int, *,
                nbrs: NeighborList | None = None) -> np.ndarray:
    """Point-cloud normals from local covariance, consistently oriented.

    The normal at each point is the least-variance direction of its k
    nearest neighbors.  Signs are fixed by breadth-first propagation over
    the kNN graph from the highest point, level by level, each normal
    flipped to agree with the neighbor it was reached from.

    Parameters
    ----------
    points : (N, 3) array
    k : int
        Neighborhood size, at least 3 and less than N.
    nbrs : NeighborList, optional
        ``knn(points, k)`` if the caller holds it already, as a point cloud's
        operator shares it; built here otherwise.  Its indices must be (N, k).
    """
    points = np.asarray(points, dtype=np.float64).reshape(-1, 3)
    n = points.shape[0]
    if k < 3:
        raise ValueError(f"k must be at least 3 for a plane fit, got {k}")
    if k >= n:
        raise ValueError(f"k={k} requires more than k points, got {n}")
    if nbrs is None:
        nbrs = knn(points, k)
    elif nbrs.indices.shape != (n, k):
        raise ValueError(f"nbrs indices have shape {nbrs.indices.shape}, expected {(n, k)}")
    # coincident points share one id, so a sorted row of ids counts the
    # distinct positions among a point's neighbours
    ids = np.unique(points, axis=0, return_inverse=True)[1].reshape(-1)
    nbr_ids = np.sort(ids[nbrs.indices], axis=1)
    distinct = 1 + np.count_nonzero(np.diff(nbr_ids, axis=1), axis=1)
    bad = np.flatnonzero(distinct < 3)
    if bad.size:
        raise GeometryError(f"vertex {int(bad[0])} has fewer than 3 distinct neighbors")
    nbr_pts = points[nbrs.indices]
    centered = nbr_pts - nbr_pts.mean(axis=1, keepdims=True)
    _w, vecs = np.linalg.eigh(np.matmul(centered.transpose(0, 2, 1), centered))
    normals = np.ascontiguousarray(vecs[:, :, 0])

    # undirected kNN graph for the orientation sweep; the conversion from
    # COO sorts each row, so a level scans its neighbours in index order
    rows = np.repeat(np.arange(n), k)
    cols = nbrs.indices.reshape(-1)
    pattern = sparse.csr_matrix((np.ones(2 * rows.shape[0]),
                                 (np.concatenate([rows, cols]), np.concatenate([cols, rows]))),
                                shape=(n, n))
    seen = np.zeros(n, dtype=bool)
    for seed in np.lexsort((np.arange(n), -points[:, 2])):
        if seen[seed]:
            continue
        if normals[seed, 2] < 0:
            normals[seed] = -normals[seed]
        seen[seed] = True
        level = np.array([seed])
        while level.size:
            level, found_by = next_level(pattern, level, seen)
            flip = level[np.einsum("pc,pc->p", normals[level], normals[found_by]) < 0]
            normals[flip] = -normals[flip]
            seen[level] = True
    return normals


def build_frames(normals: np.ndarray) -> FrameField:
    """Deterministic tangent frames from unit normals.

    The in-plane x axis is the projection of the global coordinate axis
    least aligned with the normal (ties resolved in x, y, z order); the
    y axis completes the right-handed triad.
    """
    n = np.asarray(normals, dtype=np.float64).reshape(-1, 3)
    norms = np.linalg.norm(n, axis=1)
    off = np.abs(norms - 1.0)
    # a NaN fails this test too, and argmax finds the first NaN
    if not off.max() <= 1e-6:
        bad = int(np.argmax(off))
        raise GeometryError(f"non-unit normal at vertex {bad} (norm {norms[bad]:.6g})")
    n = n / norms[:, None]
    axis_choice = np.argmin(np.abs(n), axis=1)     # argmin takes the first minimum
    a = np.eye(3)[axis_choice]
    x = a - (np.sum(a * n, axis=1))[:, None] * n
    x /= np.linalg.norm(x, axis=1)[:, None]
    y = np.cross(n, x)
    return FrameField(n, x, y)
