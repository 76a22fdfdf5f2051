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

from .csr import Csr, canonical, from_coo, index_dtype, row_entries, sparsetools
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
        # the kernels check no sizes: an array they cannot run on stops here
        indptr, indices, data = stiffness
        indptr, indices = np.asarray(indptr), np.asarray(indices)
        self.data = np.asarray(data, dtype=np.float64)
        n = self.n
        if indptr.ndim != 1 or indptr.shape[0] - 1 != n:
            raise ValueError("stiffness and mass sizes disagree")
        if indptr.dtype.kind not in "iu" or indices.dtype.kind not in "iu":
            raise ValueError("stiffness indptr and indices must be integer arrays")
        if indices.ndim != 1 or self.data.shape != indices.shape:
            raise ValueError("stiffness indices and data must be 1-D of one length, "
                             f"got shapes {indices.shape} and {self.data.shape}")
        nnz = indices.shape[0]
        if indptr[0] != 0 or indptr[-1] != nnz or np.any(indptr[1:] < indptr[:-1]):
            raise ValueError(f"stiffness indptr must rise from 0 to {nnz}, the entry "
                             "count, without decreasing")
        if nnz and not (indices.min() >= 0 and indices.max() < n):
            raise ValueError(f"stiffness column indices must lie in [0, {n})")
        idx = index_dtype(max(n, nnz))
        self.indptr = np.ascontiguousarray(indptr, dtype=idx)
        self.indices = np.ascontiguousarray(indices, dtype=idx)
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


def _stiffness_from_edges(n: int, edge_i: np.ndarray, edge_j: np.ndarray,
                          weights: np.ndarray, diag: np.ndarray) -> Csr:
    """Assemble D - W from one weight per undirected edge and the diagonal D,
    which each caller sums in its own order.

    Both triangle entries of an edge receive the identical float, so the
    matrix is symmetric entry-wise by construction.  Each edge comes once
    and off the diagonal, so no two entries meet; a zero entry, such as the
    weight of the diagonal of a square split into two right triangles, is
    left out before assembly, so the pattern holds only coupled vertices.
    """
    rows = np.concatenate([edge_i, edge_j, np.arange(n)])
    cols = np.concatenate([edge_j, edge_i, np.arange(n)])
    vals = np.concatenate([-weights, -weights, diag])
    stored = vals != 0
    return from_coo(n, rows[stored], cols[stored], vals[stored])


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

    # each face's corner a and the edge (b, c) opposite it: every face's
    # first corner, then every face's second, then every face's third
    a, b, c = (np.roll(f, -s, axis=1).T.reshape(-1) for s in range(3))
    u, w = v[b] - v[a], v[c] - v[a]
    cross_norm = np.linalg.norm(np.cross(u, w), axis=1)
    zero = np.flatnonzero(cross_norm == 0)
    if zero.size:
        raise OperatorError(f"face {int(zero[0]) % mesh.n_faces} has zero area; "
                            "cotangent weights are undefined")
    cots = 0.5 * (np.sum(u * w, axis=1) / cross_norm)
    clipped = np.count_nonzero(np.abs(cots) > 0.5 * _COT_CLAMP)
    if clipped:
        warnings.warn(f"clamped {clipped} near-degenerate cotangent entries",
                      RuntimeWarning, stacklevel=2)
        cots = np.clip(cots, -0.5 * _COT_CLAMP, 0.5 * _COT_CLAMP)
    ei, ej = np.minimum(b, c), np.maximum(b, c)

    # one accumulated weight per undirected edge; multiplicity counts the
    # incident faces, which a manifold-ish mesh caps at two
    keys = ei.astype(np.int64) * n + ej
    uniq, inverse, counts = np.unique(keys, return_inverse=True, return_counts=True)
    over = np.flatnonzero(counts > 2)
    if over.size:
        i, j = divmod(int(uniq[over[0]]), n)
        raise OperatorError(f"edge ({i}, {j}) is shared by more than two faces")
    weights = np.bincount(inverse, cots)
    if not np.all(np.isfinite(weights)):
        raise OperatorError("non-finite cotangent weight (degenerate face)")

    edge_i, edge_j = uniq // n, uniq % n
    # D adds each vertex's weights in edge order, first where it is the lower end
    diag = np.bincount(np.concatenate([edge_i, edge_j]), np.concatenate([weights, weights]),
                       minlength=n)
    return SparseOperator(_stiffness_from_edges(n, edge_i, edge_j, weights, diag),
                          vertex_areas(mesh))


def gaussian_knn_operator(points: np.ndarray, k: int, sigma: float | str = "auto", *,
                          nbrs: NeighborList | None = None) -> SparseOperator:
    """Graph Laplacian from Gaussian kNN weights, identity mass.

    Weights exp(-d^2 / (2 sigma^2)) over each point's k nearest neighbors,
    symmetrized by the entry-wise maximum so the kNN digraph keeps its
    connectivity; D holds the row sums of that symmetric W, so the arrays are
    scipy's ``diags(Ws.sum(1)) - Ws``, ``Ws = W.maximum(W.T)``, bit for bit.
    ``sigma="auto"`` uses the mean k-th neighbor distance.  ``nbrs`` is
    ``knn(points, k)`` if the caller holds it already, as
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

    vals = np.exp(-nbrs.distances.reshape(-1) ** 2 / (2.0 * sigma ** 2))
    # each undirected edge once, with the larger of its two directed weights;
    # an edge whose weights both underflow to 0 couples nothing and is dropped
    rows, cols = np.repeat(np.arange(n), k), nbrs.indices.reshape(-1)
    coupled = vals != 0
    keys = (np.minimum(rows, cols).astype(np.int64) * n + np.maximum(rows, cols))[coupled]
    order = np.argsort(keys)
    edges, first = np.unique(keys[order], return_index=True)
    weights = np.maximum.reduceat(vals[coupled][order], first)
    edge_i, edge_j = edges // n, edges % n
    # D sums each row of the symmetric W over its entries in column order
    w_sym = from_coo(n, np.concatenate([edge_i, edge_j]), np.concatenate([edge_j, edge_i]),
                     np.concatenate([weights, weights]))
    diag = _row_sums(w_sym.indptr, w_sym.data)
    return SparseOperator(_stiffness_from_edges(n, edge_i, edge_j, weights, diag), np.ones(n))


def estimate_lambda_max(op: SparseOperator) -> float:
    """Upper bound on the largest generalized eigenvalue: the smaller of two
    bounds on the normalized matrix ``mass^-1/2 stiffness mass^-1/2``.

    Gershgorin's, the largest absolute row sum, is guaranteed.  The other is
    ``theta + beta |z_m|`` after at most :data:`_LANCZOS_STEPS` Lanczos steps
    from a fixed start vector: the top Ritz value, the last residual norm and
    the last entry of the Ritz vector in the Lanczos basis (Zhou & Li,
    *Bounding the spectrum of large Hermitian matrices*, LAA 2011).  It holds
    in practice but is not proven in general.  Each Lanczos product is one
    call of the CSR block-product kernel on one column, which adds a row's
    products in its stored order.  Raises :class:`NumericalError` on a
    non-finite entry, as from an infinite stiffness or a NaN mass.
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
        sparsetools.csr_matvecs(op.n, op.n, 1, *a, v, w)
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
