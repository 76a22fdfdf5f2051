"""Discrete Laplace operators with an explicit mass matrix.

The mesh operator keeps the symmetric cotangent stiffness separate from the
diagonal vertex-area mass, so the action ``mass^-1 @ stiffness`` matches the
per-vertex area-normalized cotangent weights while the spectral machinery can
solve a symmetric generalized problem.  Point clouds and plain graphs use
Gaussian kNN weights with identity mass.
"""

from __future__ import annotations

import warnings

import numpy as np

from .csr import Csr, canonical, from_coo, index_dtype, pruned, row_entries, sparsetools
from .errors import NumericalError, OperatorError
from .geometry import NeighborList, as_xyz, knn, next_level, vertex_areas
from .io_mesh import Mesh

_COT_CLAMP = 1e6
# Lanczos steps of the spectral bound, and the residual norm, relative to
# Gershgorin's bound, below which the Krylov subspace counts as invariant
_LANCZOS_STEPS = 20
_BREAKDOWN = 1e-12


class SparseOperator:
    """Symmetric stiffness plus positive diagonal mass.

    ``stiffness`` is a :class:`~mahf.csr.Csr` or a plain tuple of its arrays
    ``(indptr, indices, data)``; anything else, a scipy matrix or a dense
    array included, raises :class:`TypeError`.

    Attributes
    ----------
    indptr, indices, data : arrays
        The symmetric N x N stiffness in CSR form, float64 data.  An
        assembled operator's rows sum to zero; a :meth:`restricted` one's do
        not at its boundary, where the entries of edges leaving the vertex
        set are dropped.
    mass : (N,) array
        Positive, finite diagonal entries; all ones for graph operators.
    stiffness : scipy csr_matrix
        A view over ``indptr``, ``indices`` and ``data``, built on first
        read.  No library code reads it, so a command never imports
        ``scipy.sparse``; it stays because the benchmark's dense oracle and
        span counters read it.
    """

    def __init__(self, stiffness, mass: np.ndarray, _lambda_max: float | None = None):
        if not isinstance(stiffness, tuple):
            raise TypeError("stiffness must be CSR arrays (indptr, indices, data), "
                            f"got {type(stiffness).__name__}")
        self.mass = np.ascontiguousarray(np.asarray(mass, dtype=np.float64)).reshape(-1)
        self._lambda_max = _lambda_max
        self._stiffness = None
        self.indptr, self.indices, data = stiffness
        if self.indptr.shape[0] - 1 != self.n:
            raise ValueError("stiffness and mass sizes disagree")
        self.data = np.asarray(data, dtype=np.float64)
        if not np.all((self.mass > 0) & np.isfinite(self.mass)):
            raise ValueError("mass entries must be positive and finite")

    @property
    def n(self) -> int:
        return self.mass.shape[0]

    @property
    def stiffness(self):
        """The stiffness as a scipy ``csr_matrix`` over the operator's own
        arrays, built on first read; reading it imports ``scipy.sparse``."""
        if self._stiffness is None:
            from scipy import sparse
            self._stiffness = sparse.csr_matrix((self.data, self.indices, self.indptr),
                                                shape=(self.n, self.n), copy=False)
        return self._stiffness

    @property
    def lambda_max(self) -> float:
        """Cached upper bound on the largest generalized eigenvalue."""
        if self._lambda_max is None:
            self._lambda_max = estimate_lambda_max(self)
        return self._lambda_max

    def restricted(self, vertices: np.ndarray) -> "SparseOperator":
        """Principal submatrix and mass on ``vertices``, in that order.  It
        keeps :attr:`lambda_max`: by Cauchy interlacing, the eigenvalues of a
        principal submatrix of ``mass^-1/2 stiffness mass^-1/2`` stay in the
        whole matrix's range."""
        vertices = np.asarray(vertices, dtype=np.intp)
        position = np.full(self.n, -1, dtype=self.indices.dtype)
        position[vertices] = np.arange(vertices.shape[0])
        entries, ends = row_entries(self.indptr, vertices)
        cols = position[self.indices[entries]]
        keep = cols >= 0
        kept = np.concatenate(([0], np.cumsum(keep)))
        indptr = kept[np.concatenate(([0], ends))].astype(self.indptr.dtype)
        return SparseOperator(Csr(indptr, cols[keep], self.data[entries[keep]]),
                              self.mass[vertices], _lambda_max=self.lambda_max)


def breadth_first(pattern, sources, seen: np.ndarray, *,
                  levels: int | None = None, size: int | None = None) -> np.ndarray:
    """``sources``, then each level of vertices not yet ``seen`` that the
    CSR ``pattern`` (an operator, or anything with ``indptr`` and
    ``indices``) reaches from them, in the order the previous level found them.

    Marks every listed vertex in ``seen``.  Stops after ``levels`` levels,
    or at ``size`` vertices, cutting the last level short.  A degree-``j``
    polynomial of the matrix is non-zero only on the first ``j + 1`` levels.
    """
    found = [np.asarray(sources, dtype=np.intp)]
    seen[found[0]] = True
    count = found[0].shape[0]
    for _ in range(seen.shape[0] if levels is None else levels):
        if size is not None and count >= size:
            break
        level = next_level(pattern, found[-1], seen)[0]
        if level.size == 0:
            break
        if size is not None:
            level = level[:size - count]
        seen[level] = True
        found.append(level)
        count += level.shape[0]
    return np.concatenate(found)


def _row_sums(indptr: np.ndarray, data: np.ndarray) -> np.ndarray:
    """Each row's sum of ``data``, by one reduction per stored row, as
    scipy sums a CSR matrix along its rows."""
    sums = np.zeros(indptr.shape[0] - 1)
    stored = np.flatnonzero(np.diff(indptr))
    sums[stored] = np.add.reduceat(data, indptr[stored])
    return sums


def _binop(kernel, a: Csr, b: Csr) -> Csr:
    """Entry-wise ``kernel`` (a csr_*_csr routine) of two n x n CSR arrays,
    with scipy's output sizes; the kernel stores no zero result."""
    n, most = a.indptr.shape[0] - 1, a.indices.shape[0] + b.indices.shape[0]
    idx = index_dtype(most)
    indptr, indices, data = np.empty(n + 1, idx), np.empty(most, idx), np.empty(most)
    kernel(n, n, a.indptr.astype(idx, copy=False), a.indices.astype(idx, copy=False), a.data,
           b.indptr.astype(idx, copy=False), b.indices.astype(idx, copy=False), b.data,
           indptr, indices, data)
    return pruned(indptr, indices, data)


def _stiffness_from_edges(n: int, edge_i: np.ndarray, edge_j: np.ndarray,
                          weights: np.ndarray) -> Csr:
    """Assemble D - W from one weight per undirected edge.

    Both triangle entries of an edge receive the identical float, so the
    matrix is symmetric entry-wise by construction.  An edge of weight
    exactly 0, such as the diagonal of a square split into two right
    triangles, stores no entry, so the pattern holds only coupled vertices.
    """
    diag = np.zeros(n)
    np.add.at(diag, edge_i, weights)
    np.add.at(diag, edge_j, weights)
    rows = np.concatenate([edge_i, edge_j, np.arange(n)])
    cols = np.concatenate([edge_j, edge_i, np.arange(n)])
    vals = np.concatenate([-weights, -weights, diag])
    indptr, indices, data = from_coo(n, rows, cols, vals)
    sparsetools.csr_eliminate_zeros(n, n, indptr, indices, data)
    return pruned(indptr, indices, data)


def cotan_operator(mesh: Mesh) -> SparseOperator:
    """Cotangent stiffness with barycentric lumped mass.

    Each interior edge is weighted by half the sum of the cotangents of the
    two angles opposite it; boundary edges use their single cotangent.
    Cotangents are clamped to +-1e6 so near-degenerate slivers survive with
    a warning instead of poisoning the matrix.
    """
    if mesh.n_faces == 0:
        raise OperatorError("cotangent operator needs a triangulated mesh")
    v, f = mesh.vertices, mesh.faces
    n = mesh.n_vertices

    half_cots = []
    edges = []
    for corner in range(3):
        a = f[:, corner]
        b = f[:, (corner + 1) % 3]
        c = f[:, (corner + 2) % 3]
        u, w = v[b] - v[a], v[c] - v[a]
        cross_norm = np.linalg.norm(np.cross(u, w), axis=1)
        zero = np.flatnonzero(cross_norm == 0)
        if zero.size:
            raise OperatorError(f"face {int(zero[0])} has zero area; "
                                "cotangent weights are undefined")
        cot = np.sum(u * w, axis=1) / cross_norm
        half_cots.append(0.5 * cot)
        edges.append((b, c))

    cots = np.concatenate(half_cots)
    clipped = np.count_nonzero(np.abs(cots) > 0.5 * _COT_CLAMP)
    if clipped:
        warnings.warn(f"clamped {clipped} near-degenerate cotangent entries",
                      RuntimeWarning, stacklevel=2)
        cots = np.clip(cots, -0.5 * _COT_CLAMP, 0.5 * _COT_CLAMP)
    ei = np.concatenate([np.minimum(b, c) for b, c in edges])
    ej = np.concatenate([np.maximum(b, c) for b, c in edges])

    # one accumulated weight per undirected edge; multiplicity counts the
    # incident faces, which a manifold-ish mesh caps at two
    keys = ei.astype(np.int64) * n + ej
    uniq, inverse, counts = np.unique(keys, return_inverse=True, return_counts=True)
    over = np.flatnonzero(counts > 2)
    if over.size:
        i, j = divmod(int(uniq[over[0]]), n)
        raise OperatorError(f"edge ({i}, {j}) is shared by more than two faces")
    weights = np.zeros(uniq.shape[0])
    np.add.at(weights, inverse, cots)
    if not np.all(np.isfinite(weights)):
        raise OperatorError("non-finite cotangent weight (degenerate face)")

    return SparseOperator(_stiffness_from_edges(n, uniq // n, uniq % n, weights),
                          vertex_areas(mesh))


def gaussian_knn_operator(points: np.ndarray, k: int, sigma: float | str = "auto", *,
                          nbrs: NeighborList | None = None) -> SparseOperator:
    """Graph Laplacian from Gaussian kNN weights, identity mass.

    Weights exp(-d^2 / (2 sigma^2)) over each point's k nearest neighbors,
    symmetrized by the entry-wise maximum so the kNN digraph keeps its
    connectivity.  ``sigma="auto"`` uses the mean k-th neighbor distance.
    ``nbrs`` is ``knn(points, k)`` if the caller holds it already, as
    :func:`~mahf.geometry.pca_normals` may share it; its indices must be (N, k).
    """
    points = as_xyz(points, "points")
    n = points.shape[0]
    if nbrs is None:
        nbrs = knn(points, k)
    elif nbrs.indices.shape != (n, k):
        raise ValueError(f"nbrs indices have shape {nbrs.indices.shape}, expected {(n, k)}")
    if isinstance(sigma, str):
        if sigma != "auto":
            raise ValueError(f"sigma must be positive or 'auto', got {sigma!r}")
        sigma = float(np.mean(nbrs.distances[:, -1]))
    if not sigma > 0:
        raise ValueError(f"sigma must be positive, got {sigma}")

    rows = np.repeat(np.arange(n), k)
    cols = nbrs.indices.reshape(-1)
    vals = np.exp(-nbrs.distances.reshape(-1) ** 2 / (2.0 * sigma ** 2))
    w = from_coo(n, rows, cols, vals)
    idx = w.indptr.dtype
    w_t = Csr(np.empty(n + 1, idx), np.empty_like(w.indices), np.empty_like(w.data))
    sparsetools.csr_tocsc(n, n, *w, *w_t)
    w_sym = _binop(sparsetools.csr_maximum_csr, w, w_t)
    diag = Csr(np.arange(n + 1, dtype=idx), np.arange(n, dtype=idx),
               _row_sums(w_sym.indptr, w_sym.data))
    return SparseOperator(_binop(sparsetools.csr_minus_csr, diag, w_sym), np.ones(n))


def estimate_lambda_max(op: SparseOperator) -> float:
    """Upper bound on the largest generalized eigenvalue: the smaller of two
    bounds on the normalized matrix ``mass^-1/2 stiffness mass^-1/2``.

    Gershgorin's, the largest absolute row sum, is guaranteed.  The other is
    ``theta + beta |z_m|`` after at most :data:`_LANCZOS_STEPS` Lanczos steps
    from a fixed start vector: the top Ritz value, the last residual norm and
    the last entry of the Ritz vector in the Lanczos basis (Zhou & Li,
    *Bounding the spectrum of large Hermitian matrices*, LAA 2011).  It holds
    in practice but is not proven in general.  Raises :class:`NumericalError`
    on a non-finite entry, as from an infinite stiffness or a NaN mass.
    """
    inv_sqrt = 1.0 / np.sqrt(op.mass)
    rows = np.repeat(np.arange(op.n), np.diff(op.indptr))
    a = canonical(op.indptr.copy(), op.indices.copy(),
                  inv_sqrt[rows] * op.data * inv_sqrt[op.indices])
    if not np.all(np.isfinite(a.data)):
        raise NumericalError("non-finite entry in the normalized stiffness; "
                             "no spectral bound exists")
    gershgorin = float(_row_sums(a.indptr, np.abs(a.data)).max())
    v, previous = np.cos(np.arange(op.n) + 0.5), np.zeros(op.n)
    v /= np.linalg.norm(v)
    alphas, betas = [], [0.0]
    for _ in range(min(_LANCZOS_STEPS, op.n)):
        w = np.zeros(op.n)
        sparsetools.csr_matvec(op.n, op.n, *a, v, w)
        w -= betas[-1] * previous
        alphas.append(v @ w)
        w -= alphas[-1] * v
        betas.append(float(np.linalg.norm(w)))
        # an invariant subspace: its top Ritz value is an eigenvalue
        if betas[-1] <= _BREAKDOWN * gershgorin:
            break
        previous, v = v, w / betas[-1]
    # eigh reads the lower triangle: the off-diagonal goes below the diagonal
    theta, z = np.linalg.eigh(np.diag(alphas) + np.diag(betas[1:-1], -1))
    return min(gershgorin, float(theta[-1] + betas[-1] * abs(z[-1, -1])))
