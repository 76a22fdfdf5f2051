"""Reference values for every response file the benchmark's workloads write.

Up to ``DENSE_LIMIT`` vertices the heat kernel comes from a dense
eigendecomposition of the mass-symmetrized operator, and the anisotropic
contraction is reimplemented here in plain numpy: threshold each kernel
column, project the displacements onto a tangent basis chosen differently
from ``mahf.build_frames`` (the squared modulus must not depend on it), and
weigh by ``exp(i k theta)`` and the neighbour mass.  Larger meshes are
checked against ``scipy.sparse.linalg.expm_multiply``.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np
from scipy import sparse
from scipy.sparse.linalg import eigsh, expm_multiply

# Largest relative error (max |out - ref| / max |ref|) an output may have.
# Both gated workloads agree with the dense oracle to at most 1.8e-11 over
# 26 runs (typically 2e-13 to 2e-12); the tolerance leaves more than two
# orders of magnitude for other BLAS builds and summation orders, and stays
# far below the 8.4e-6 the order-50 recurrence reaches on ico6 at t=25.
REL_TOL = 1e-8

DENSE_LIMIT = 3000
DEGENERATE_RTOL = 1e-9     # tangent part this small relative to |d| has no azimuth
_BLOCK = 256


def read_field(path: Path) -> np.ndarray:
    """The per-vertex ``quality`` column of an ASCII PLY response file."""
    with open(path) as fh:
        if fh.readline().strip() != "ply":
            raise ValueError(f"{path}: not a PLY file")
        n, props, in_vertex = None, [], False
        for line in fh:
            toks = line.split()
            if toks[0] == "end_header":
                break
            if toks[0] == "element":
                in_vertex = toks[1] == "vertex"
                if in_vertex:
                    n = int(toks[2])
            elif toks[0] == "property" and in_vertex:
                props.append(toks[-1])
        if n is None or "quality" not in props:
            raise ValueError(f"{path}: no vertex quality property")
        col = props.index("quality")
        return np.array([float(fh.readline().split()[col]) for _ in range(n)])


def relative_error(out: np.ndarray, ref: np.ndarray) -> float:
    scale = np.max(np.abs(ref))
    return float(np.max(np.abs(out - ref)) / scale) if scale > 0 else float(np.max(np.abs(out)))


class DenseOracle:
    """Exact heat kernel of ``mass^-1 stiffness`` by dense eigendecomposition."""

    def __init__(self, stiffness, mass: np.ndarray):
        inv_sqrt = 1.0 / np.sqrt(mass)
        sym = inv_sqrt[:, None] * stiffness.toarray() * inv_sqrt[None, :]
        self.eigenvalues, vecs = np.linalg.eigh(0.5 * (sym + sym.T))
        self.phi = inv_sqrt[:, None] * vecs      # mass-orthonormal
        self.mass = mass

    def kernel(self, t: float) -> np.ndarray:
        """Symmetric K_t; column i is exp(-tL) applied to e_i / mass_i."""
        return (self.phi * np.exp(-t * self.eigenvalues)) @ self.phi.T

    def mhw(self, t: float, signals: np.ndarray) -> np.ndarray:
        """L exp(-tL) applied to each signal column."""
        lam = self.eigenvalues
        coeff = self.phi.T @ (self.mass[:, None] * signals)
        return self.phi @ ((lam * np.exp(-t * lam))[:, None] * coeff)


def _tangent_basis(normals: np.ndarray):
    helper = np.where(np.abs(normals[:, :1]) < 0.9, [[1.0, 0.0, 0.0]], [[0.0, 1.0, 0.0]])
    x = helper - np.sum(helper * normals, axis=1)[:, None] * normals
    x /= np.linalg.norm(x, axis=1)[:, None]
    return x, np.cross(normals, x)


def contraction(kernel: np.ndarray, mass: np.ndarray, positions: np.ndarray,
                normals: np.ndarray, k: int, signals: np.ndarray,
                threshold: float) -> np.ndarray:
    """Complex response sum_j w_ij exp(i k theta_ij) s_j, shape (N, C).

    ``w_ij`` is kernel column i, zeroed below ``threshold`` times its
    maximum, times the mass of j.  For k >= 1 the vertex itself and
    neighbours whose displacement is (nearly) along the normal carry no
    azimuth and are left out.
    """
    n = positions.shape[0]
    signals = signals.reshape(n, -1)
    x_axis, y_axis = _tangent_basis(normals)
    out = np.empty((n, signals.shape[1]), dtype=complex)
    for lo in range(0, n, _BLOCK):
        rows = np.arange(lo, min(lo + _BLOCK, n))
        cols = kernel[:, rows].T                                   # (B, N)
        keep = cols >= threshold * cols.max(axis=1, keepdims=True)
        w = np.where(keep, cols * mass[None, :], 0.0)
        if k > 0:
            d = positions[None, :, :] - positions[rows, None, :]   # (B, N, 3)
            nrm = normals[rows]
            along = np.einsum("bnc,bc->bn", d, nrm)
            tangent = d - along[..., None] * nrm[:, None, :]
            u = (np.einsum("bnc,bc->bn", tangent, x_axis[rows])
                 + 1j * np.einsum("bnc,bc->bn", tangent, y_axis[rows]))
            d_len, t_len = np.linalg.norm(d, axis=2), np.abs(u)
            valid = (d_len > 0) & (t_len > DEGENERATE_RTOL * d_len)
            w = np.where(valid, w * (u / np.where(valid, t_len, 1.0)) ** k, 0.0)
        out[rows] = w @ signals
    return out


def _thresholded(row: np.ndarray, threshold: float) -> np.ndarray:
    return np.where(row >= threshold * row.max(), row, 0.0)


def references(argv: list[str], outputs) -> tuple[dict, dict]:
    """Expected field per ``(kind, t)`` of ``outputs``, plus facts about the operator.

    ``argv`` is a workload's first ``mahf`` command; mesh, operator, normals
    and the support threshold are the ones the CLI builds from it.  The
    facts are N, the program's spectral bound and the true top eigenvalue,
    so the bound's ratio is measured outside any timed run.
    """
    from workloads import cli_setup
    args, mesh, signal, op, normals = cli_setup(argv)
    threshold = args.support_threshold
    wanted = sorted({(o.kind, o.t, o.k) for o in outputs})
    refs = {}
    if op.n <= DENSE_LIMIT:
        oracle = DenseOracle(op.stiffness, op.mass)
        top = float(oracle.eigenvalues[-1])
        for kind, t, k in wanted:
            if kind == "mhw":
                refs[kind, t] = np.sum(oracle.mhw(t, normals) ** 2, axis=1)
                continue
            kern = oracle.kernel(t)
            if kind == "kernel":
                refs[kind, t] = _thresholded(kern[:, 0], threshold)
                continue
            sig = signal.values if kind == "filter" else normals
            resp = contraction(kern, op.mass, mesh.vertices, normals, k, sig, threshold)
            refs[kind, t] = np.sum(np.abs(resp) ** 2, axis=1)
    else:
        lap = sparse.diags(1.0 / op.mass) @ op.stiffness
        inv_sqrt = sparse.diags(1.0 / np.sqrt(op.mass))
        top = float(eigsh(inv_sqrt @ op.stiffness @ inv_sqrt, k=1, which="LA",
                          return_eigenvectors=False)[0])
        for kind, t, k in wanted:
            if kind == "kernel":
                e0 = np.zeros(op.n)
                e0[0] = 1.0 / op.mass[0]
                refs[kind, t] = _thresholded(expm_multiply(-t * lap, e0), threshold)
            elif kind == "mhw":
                refs[kind, t] = np.sum((lap @ expm_multiply(-t * lap, normals)) ** 2, axis=1)
            else:
                raise ValueError(f"no sparse reference for {kind!r} outputs")
    facts = {"n": op.n, "nnz_per_row": op.stiffness.nnz / op.n,
             "bound": op.lambda_max, "top_eigenvalue": top}
    return refs, facts
