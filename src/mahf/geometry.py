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
    """Exact k-nearest neighbors, self excluded, in (distance, index) order."""

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


# The grid query's settings: candidate entries per selection block, points
# whose k-th neighbour distance picks the first cell edge, and the ring size
# above which a point tries a finer grid
_BLOCK = 1 << 16
_PILOTS = 256
_CROWD = 256
_EPS = np.finfo(np.float64).eps
# (x, y) cell offsets of the nine z-columns of a 3 x 3 x 3 ring
_COLUMNS = np.array([(a, b) for a in (-1, 0, 1) for b in (-1, 0, 1)])


class _Grid:
    """The points within three cell edges of some queries, sorted by the
    key of their cubic cell; ``ok`` is false when a key could overflow."""

    def __init__(self, points: np.ndarray, queries: np.ndarray, edge: float):
        with np.errstate(over="ignore", invalid="ignore"):
            lo = points[queries].min(axis=0) - 3 * edge
            hi = points[queries].max(axis=0) + 3 * edge
            dims = np.floor((hi - lo) / edge) + 1
            self.ok = bool(np.isfinite(dims).all() and np.prod(dims) < 2.0 ** 62)
        if not self.ok:
            return
        self.lo, self.edge = lo, edge
        # twice the most that rounding the cell assignments can shift two
        # points against each other
        self.slack = 8 * _EPS * max(np.abs(lo).max(), np.abs(hi).max())
        near = np.flatnonzero(np.all((points >= lo) & (points <= hi), axis=1))
        ny, nz = int(dims[1]), int(dims[2])
        self.strides = np.array([ny * nz, nz, 1], dtype=np.int64)
        keys = self.cells(points[near]) @ self.strides
        order = np.argsort(keys, kind="stable")
        near, self.keys = near[order], keys[order]
        self.column = np.empty(points.shape[0], dtype=np.int64)
        self.column[near] = np.arange(near.size)
        # a last column at infinity, of index N, pads short candidate rows
        self.index = np.append(near, points.shape[0])
        self.coords = np.full((3, near.size + 1), np.inf)
        self.coords[:, :-1] = points[near].T

    def cells(self, pts: np.ndarray) -> np.ndarray:
        return np.floor((pts - self.lo) / self.edge).astype(np.int64)

    def _find(self, keys, below, above):
        return (np.searchsorted(self.keys, keys - below, "left"),
                np.searchsorted(self.keys, keys + above, "right"))

    def rings(self, cells: np.ndarray):
        """Each cell's ring as nine runs of the sorted points, one per
        z-column (first positions and lengths, (N, 9)), and each query's
        cell among the returned rows."""
        keys, inv = np.unique(cells @ self.strides, return_inverse=True)
        first, end = self._find(keys[:, None] + _COLUMNS @ self.strides[:2], 1, 1)
        return first, end - first, inv

    def finer(self, cells: np.ndarray, counts: np.ndarray, crowd: int) -> np.ndarray:
        """Levels down for queries whose rings hold ``counts`` > ``crowd``
        points: one per factor 8 of excess, or to the coordinate range of
        a cell holding over a 27th of a crowd; none from a cell of
        coincident points, nor below an edge the rounding slack would blur."""
        keys, inv = np.unique(cells @ self.strides, return_inverse=True)
        first, end = self._find(keys, 0, 0)
        bounds = np.column_stack([first, end]).reshape(-1)
        ranges = (np.maximum.reduceat(self.coords, bounds, axis=1)[:, ::2]
                  - np.minimum.reduceat(self.coords, bounds, axis=1)[:, ::2])
        count, spread = (end - first)[inv], ranges.max(axis=0)[inv]
        down = np.maximum(1, np.floor(np.log2(counts / crowd) / 3))
        filled = count * 27 > crowd
        with np.errstate(divide="ignore"):
            down[filled] = np.maximum(down[filled], np.floor(np.log2(self.edge / spread[filled])))
        down[(spread == 0) & (count > 1)] = 0
        return np.minimum(down, np.floor(np.log2(self.edge / (64 * self.slack)))).astype(np.int64)


def _nearest_in_runs(coords, index, own, first, lens, k):
    """Each query's k nearest points among its runs of ``coords`` columns,
    its own column ``own`` skipped, in (distance, index) order: distances
    ``sqrt((dx*dx + dy*dy) + dz*dz)``, infinite without a warning past the
    float range or where a row holds fewer than k others; the points that
    ``index`` maps their columns to; and each row's candidate count."""
    b = own.size
    counts = lens.sum(axis=1)
    width = max(int(counts.max()), k + 1)
    runs = lens.reshape(-1)
    rel = np.arange(int(counts.sum()))
    cols = np.full(b * width, coords.shape[1] - 1)
    cols[np.repeat(np.arange(b) * width - np.cumsum(counts) + counts, counts) + rel] = \
        np.repeat(first.reshape(-1) - np.cumsum(runs) + runs, runs) + rel
    cols = cols.reshape(b, width)
    x, y, z = coords
    dx = x[cols] - x[own, None]
    dy = y[cols] - y[own, None]
    dz = z[cols] - z[own, None]
    with np.errstate(over="ignore"):
        d2 = (dx * dx + dy * dy) + dz * dz
    # the query at infinity comes before the k-th of the k + 1 least only
    # where the k-th distance is infinite, and so tied
    is_own = cols == own[:, None]
    d2[is_own] = np.inf
    near = np.argpartition(d2, k, axis=1)[:, :k + 1]
    dist = np.sqrt(np.take_along_axis(d2, near, axis=1))
    idx = index[np.take_along_axis(cols, near, axis=1)]
    order = np.lexsort((idx, dist))
    dist, idx = np.take_along_axis(dist, order, axis=1), np.take_along_axis(idx, order, axis=1)
    tied = dist[:, k] == dist[:, k - 1]
    if tied.any():
        # all candidates settle a tie at the k-th distance, the query last as NaN
        d, i = np.sqrt(d2[tied]), index[cols[tied]]
        d[is_own[tied]] = np.nan
        order = np.lexsort((i, d))[:, :k + 1]
        dist[tied], idx[tied] = np.take_along_axis(d, order, 1), np.take_along_axis(i, order, 1)
    return dist[:, :k], idx[:, :k], counts


def _scan(points, rows, k, dist, idx):
    """The exact scan: each row's k nearest other points among all of them."""
    n = points.shape[0]
    coords = np.ascontiguousarray(points.T)
    step = max(1, _BLOCK // n)
    for s in range(0, rows.size, step):
        part = rows[s:s + step]
        first, lens = np.zeros((part.size, 1), np.int64), np.full((part.size, 1), n)
        dist[part], idx[part], _ = _nearest_in_runs(coords, np.arange(n), part, first, lens, k)


def _grid_query(points: np.ndarray, k: int):
    """Each point's k nearest other points, as :func:`knn` returns them.

    Each round buckets the points still open into cubic cells of one edge
    per level, and each takes the k nearest others among the candidates in
    its cell's 3 x 3 x 3 ring.  A point is certified when its k-th
    neighbour lies strictly inside the ring's guaranteed radius, less the
    rounding of the cell assignment: then every point outside the ring is
    farther, so ties at the k-th distance are settled inside the ring.  An
    uncertified point takes a coarser level in the next round, one whose
    edge exceeds its k-th neighbour's distance when the ring held k others;
    a crowded ring first tries a finer one.  A grid whose cell keys could
    overflow falls back to the exact scan, as do points with no finite span.
    """
    n = points.shape[0]
    dist = np.empty((n, k))
    idx = np.empty((n, k), dtype=np.int64)
    span = (points.max(axis=0) - points.min(axis=0)).max()
    edge = span / np.cbrt(n)
    if not (np.isfinite(span) and edge > 0):
        _scan(points, np.arange(n), k, dist, idx)
        return NeighborList(idx, dist)
    # the first edge: a little above the k-th neighbour distance of most of
    # an even sample, from a grid sized for a volume; a sample whose ring
    # there is far too crowded is skipped, and left to the refinement below
    crowd = max(_CROWD, 16 * (k + 1))
    every = np.arange(n)
    grid = _Grid(points, every, edge)
    pilots = every[::max(1, n // _PILOTS)]
    first, lens, inv = grid.rings(grid.cells(points[pilots]))
    calm = lens[inv].sum(axis=1) <= 4 * crowd
    pilots, inv = pilots[calm], inv[calm]
    if pilots.size:
        reach = _nearest_in_runs(grid.coords, grid.index, grid.column[pilots],
                                 first[inv], lens[inv], k)[0][:, -1]
        reach = reach[np.isfinite(reach) & (reach > 0)]
        if reach.size:
            edge = max(1.2 * np.quantile(reach, 0.75), span / 2 ** 20)
    level = np.zeros(n, dtype=np.int64)
    may_refine = np.ones(n, dtype=bool)
    pending = every
    while pending.size:
        moved = []
        for e in np.unique(level[pending]):
            q = pending[level[pending] == e]
            grid = _Grid(points, q, edge * 2.0 ** e)
            if not grid.ok:
                _scan(points, q, k, dist, idx)
                continue
            cells = grid.cells(points[q])
            first, lens, inv = grid.rings(cells)
            counts = lens.sum(axis=1)[inv]
            busy = np.flatnonzero(may_refine[q] & (counts > crowd))
            if busy.size:
                down = grid.finer(cells[busy], counts[busy], crowd)
                go = busy[down >= 1]
                level[q[go]] -= down[down >= 1]
                moved.append(q[go])
                stay = np.ones(q.size, dtype=bool)
                stay[go] = False
                q, cells, inv, counts = q[stay], cells[stay], inv[stay], counts[stay]
            if not q.size:
                continue
            may_refine[q] = False
            # rows of like counts share a block, so that little is padded
            by_count = np.argsort(counts, kind="stable")
            q, cells, inv, counts = q[by_count], cells[by_count], inv[by_count], counts[by_count]
            frac = (points[q] - grid.lo) / grid.edge - cells
            radius = (grid.edge * (1 + np.minimum(frac, 1 - frac).min(axis=1))
                      - grid.slack) * (1 - 8 * _EPS)
            s = 0
            while s < q.size:
                far = min(q.size, s + _BLOCK // int(counts[s])) - 1
                t = s + max(1, _BLOCK // int(counts[far]))
                rows = q[s:t]
                near, ids, held = _nearest_in_runs(grid.coords, grid.index, grid.column[rows],
                                                   first[inv[s:t]], lens[inv[s:t]], k)
                reach = near[:, -1]
                ok = (held == n) | (reach < radius[s:t])
                dist[rows[ok]], idx[rows[ok]] = near[ok], ids[ok]
                late = ~ok
                if late.any():
                    # past the k-th neighbour's distance; a short ring grows
                    # as if its points lay on a surface
                    up = np.where(held[late] > k,
                                  1 + np.floor(np.log2(np.maximum(reach[late] / grid.edge, 1))),
                                  1 + np.floor(np.log2((k + 1) / held[late]) / 2))
                    level[rows[late]] += up.astype(np.int64)
                    moved.append(rows[late])
                s = t
        pending = np.concatenate(moved or [every[:0]])
    return NeighborList(idx, dist)


def as_xyz(values, name: str) -> np.ndarray:
    """``values`` as a float64 array of shape (N, 3); ValueError otherwise."""
    array = np.asarray(values, dtype=np.float64)
    if array.ndim != 2 or array.shape[1] != 3:
        raise ValueError(f"{name} must have shape (N, 3), got {array.shape}")
    return array


def knn(points: np.ndarray, k: int) -> NeighborList:
    """Exact k nearest neighbours of N finite points, self excluded by index, in
    (distance, index) order, so that each k-list is a prefix of any larger one."""
    points = as_xyz(points, "points")
    n = points.shape[0]
    if k < 1:
        raise ValueError(f"k must be at least 1, got {k}")
    if k >= n:
        raise ValueError(f"k={k} requires more than k points, got {n}")
    if not np.isfinite(points).all():
        raise ValueError("points must be finite")
    return _grid_query(points, k)


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
    points = as_xyz(points, "points")
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
    n = as_xyz(normals, "normals")
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
