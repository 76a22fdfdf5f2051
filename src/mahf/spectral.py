"""Heat-kernel actions: dense eigendecomposition oracle and Chebyshev path.

The dense route solves the symmetric generalized eigenproblem
``stiffness @ phi = lambda * mass * phi`` and reconstructs the kernel
``K_t = Phi exp(-t lambda) Phi^T`` from mass-orthonormal eigenvectors; it is
exact but limited to small meshes.  The Chebyshev route approximates
``exp(-t mass^-1 stiffness) @ s`` with a three-term recurrence that touches
the operator only through matrix-vector products, so it scales to meshes the
dense path cannot handle.  Kernel rows are defined so that identity-mass
graphs reproduce the spectral-sum kernel exactly; for general mass the row
convention is ``exp(-t L) @ (indicator / mass)``, which downstream filters
use consistently.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg
from scipy.linalg.blas import daxpy

from .errors import NumericalError, OperatorError
from .io_mesh import VertexSignal
from .laplacian import SparseOperator

DENSE_LIMIT_DEFAULT = 3000


@dataclass(frozen=True)
class HeatParams:
    """Diffusion time plus Chebyshev order and kernel support cutoff."""

    t: float
    chebyshev_order: int = 50
    support_threshold: float = 1e-4

    def __post_init__(self):
        if self.t < 0:
            raise ValueError(f"diffusion time must be nonnegative, got {self.t}")
        if self.chebyshev_order < 1:
            raise ValueError(f"chebyshev_order must be at least 1, got {self.chebyshev_order}")
        if not (0 <= self.support_threshold < 1):
            raise ValueError("support_threshold must lie in [0, 1)")


@dataclass(frozen=True)
class SpectralBasis:
    """Eigenpairs of the generalized problem, eigenvectors mass-orthonormal."""

    eigenvalues: np.ndarray   # (N,) ascending
    eigenvectors: np.ndarray  # (N, N), columns


@dataclass(frozen=True)
class KernelRow:
    """One thresholded heat-kernel row and its surviving support."""

    vertex: int
    values: np.ndarray
    support: np.ndarray


def eigendecompose(op: SparseOperator, dense_limit: int = DENSE_LIMIT_DEFAULT) -> SpectralBasis:
    """Full dense solution of the symmetric generalized eigenproblem.

    The diagonal mass makes the similarity transform
    ``mass^-1/2 stiffness mass^-1/2`` cheap; its orthonormal eigenvectors map
    back to mass-orthonormal generalized eigenvectors.
    """
    if op.n > dense_limit:
        raise OperatorError(
            f"dense eigendecomposition limited to {dense_limit} vertices "
            f"(got {op.n}); use the Chebyshev path for large problems")
    dense = op.stiffness.toarray()
    if not np.all(np.isfinite(dense)):
        raise OperatorError("operator contains non-finite entries")
    inv_sqrt = 1.0 / np.sqrt(op.mass)
    sym = inv_sqrt[:, None] * dense * inv_sqrt[None, :]
    sym = 0.5 * (sym + sym.T)
    eigenvalues, vecs = scipy.linalg.eigh(sym)
    return SpectralBasis(eigenvalues, inv_sqrt[:, None] * vecs)


def heat_kernel_dense(basis: SpectralBasis, t: float) -> np.ndarray:
    """Spectral-sum heat kernel sum_s exp(-t lambda_s) phi_s phi_s^T."""
    if t < 0:
        raise ValueError(f"diffusion time must be nonnegative, got {t}")
    phi = basis.eigenvectors
    return (phi * np.exp(-t * basis.eigenvalues)[None, :]) @ phi.T


def chebyshev_coefficients(fn, b: float, order: int) -> np.ndarray:
    """Chebyshev expansion coefficients of ``fn`` on [0, b].

    Computed by Chebyshev-Gauss quadrature with ``order + 1`` nodes, which is
    exact for the truncated expansion.  The leading coefficient is returned
    un-halved; evaluation applies the conventional factor 1/2.
    """
    m = np.arange(order + 1)
    theta = (m + 0.5) * np.pi / (order + 1)
    x = 0.5 * b * (np.cos(theta) + 1.0)
    f = fn(x)
    j = np.arange(order + 1)
    return (2.0 / (order + 1)) * (np.cos(np.outer(j, theta)) @ f)


def heat_function(t: float):
    """The heat kernel's spectral function ``x -> exp(-t x)``."""
    return lambda x: np.exp(-t * x)


def shared_order(orders) -> int:
    """The single Chebyshev order of a fused pass over several specs."""
    distinct = set(orders)
    if len(distinct) != 1:
        raise ValueError("a fused Chebyshev pass needs at least one spec, "
                         "all with the same order")
    return distinct.pop()


def chebyshev_apply(op: SparseOperator, fn, x: np.ndarray, order: int):
    """Evaluate ``fn`` of the generalized Laplacian on a vector or block.

    Maps the spectral interval [0, 1.01 * lambda_max] to [-1, 1] and runs the
    three-term recurrence in place on the operator's cached mapped CSR.
    ``fn`` may also be a sequence of functions: the blocks ``T_j`` do not
    depend on the function, only the coefficients do, so one recurrence fills
    one output per function and a list is returned.
    """
    if order < 1:
        raise ValueError(f"order must be at least 1, got {order}")
    fns = [fn] if callable(fn) else list(fn)
    x = np.ascontiguousarray(x, dtype=np.float64)
    b = 1.01 * op.lambda_max
    if b <= 0:
        outs = [float(f(np.zeros(1))[0]) * x for f in fns]
        return outs[0] if callable(fn) else outs
    coeffs = [chebyshev_coefficients(f, b, order) for f in fns]
    a = op.affine(2.0 / b)

    t_prev = x
    t_cur = a @ x
    accs = []
    for c in coeffs:
        acc = (0.5 * c[0]) * x
        daxpy(t_cur.reshape(-1), acc.reshape(-1), a=c[1])
        accs.append(acc)
    for jj in range(2, order + 1):
        t_next = a @ t_cur
        t_next *= 2.0
        t_next -= t_prev
        if not np.all(np.isfinite(t_next)):
            raise NumericalError(f"non-finite Chebyshev intermediate at iteration {jj}")
        flat = t_next.reshape(-1)
        for acc, c in zip(accs, coeffs):
            daxpy(flat, acc.reshape(-1), a=c[jj])
        t_prev, t_cur = t_cur, t_next
    return accs[0] if callable(fn) else accs


def _signal_values(s) -> np.ndarray:
    if isinstance(s, VertexSignal):
        return s.values
    return np.asarray(s, dtype=np.float64)


def heat_apply_chebyshev(op: SparseOperator, params: HeatParams, s):
    """Chebyshev approximation of the heat action ``exp(-t L) @ s``.

    At ``t = 0`` the expansion of the constant function is exact, so the
    input returns unchanged up to rounding.
    """
    values = _signal_values(s)
    out = chebyshev_apply(op, heat_function(params.t), values, params.chebyshev_order)
    if isinstance(s, VertexSignal):
        return VertexSignal(out, name=s.name)
    return out


def threshold_row(row: np.ndarray, threshold: float):
    """Zero entries below ``threshold * max(row)``; threshold 0 keeps everything."""
    if threshold <= 0:
        return row.copy(), np.arange(row.shape[0])
    cutoff = threshold * row.max()
    keep = row >= cutoff
    return np.where(keep, row, 0.0), np.flatnonzero(keep)


def heat_kernel_row(op: SparseOperator, params: HeatParams, i: int) -> KernelRow:
    """Row ``i`` of the heat kernel with entries below the cutoff zeroed.

    The mass-weighted indicator makes the Chebyshev result match row ``i`` of
    the dense spectral-sum kernel; for identity mass the input is the plain
    indicator.
    """
    if not 0 <= i < op.n:
        raise IndexError(f"vertex index {i} out of range for {op.n} vertices")
    x = np.zeros(op.n)
    x[i] = 1.0 / op.mass[i]
    row = chebyshev_apply(op, heat_function(params.t), x, params.chebyshev_order)
    values, support = threshold_row(row, params.support_threshold)
    return KernelRow(i, values, support)


def semigroup_compose(k_t1: np.ndarray, k_t2: np.ndarray, mass: np.ndarray) -> np.ndarray:
    """Compose two dense kernels through the mass pairing: K_t1 M K_t2.

    Equals the kernel at the summed time up to numerical error; with identity
    mass it reduces to the plain matrix product.
    """
    k_t1 = np.asarray(k_t1, dtype=np.float64)
    k_t2 = np.asarray(k_t2, dtype=np.float64)
    mass = np.asarray(mass, dtype=np.float64).reshape(-1)
    if k_t1.shape[1] != mass.shape[0] or k_t2.shape[0] != mass.shape[0]:
        raise ValueError("kernel and mass dimensions do not conform")
    return k_t1 @ (mass[:, None] * k_t2)


def dump_spectrum(basis: SpectralBasis, path) -> None:
    """CSV dump of the eigenvalues for spectrum inspection."""
    with open(path, "w") as fh:
        fh.write("index,eigenvalue\n")
        for idx, lam in enumerate(basis.eigenvalues):
            fh.write(f"{idx},{lam:.17g}\n")
