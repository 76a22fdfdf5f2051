"""Anisotropic harmonic filters on meshes, point clouds and graphs.

A filter of harmonic order ``k`` at scale ``t`` weighs each neighbor by the
heat propagator and by cos/sin of ``k`` times the azimuth of the neighbor's
displacement in the vertex's tangent plane.  The squared modulus of the two
output components measures local signal variation and is invariant to the
arbitrary in-plane orientation of the tangent frames.

Rows of the heat propagator ``exp(-t L)`` (kernel entries times the neighbor
mass) are used for the vertex-domain sums.  On identity-mass graphs this is
exactly the kernel-weighted sum; on meshes it makes the order-0 filter
reproduce heat smoothing and preserve constants, and it keeps responses
stable under refinement because the neighbor mass plays the role of the area
element.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import NumericalError
from .geometry import FrameField, LocalFrame, effective_normals
from .io_mesh import Mesh, VertexSignal
from .laplacian import SparseOperator
from .spectral import (HeatParams, KernelRow, chebyshev_apply, heat_function,
                       shared_order, threshold_row)

_DEGENERATE_RTOL = 1e-9
_CHUNK = 512


@dataclass(frozen=True)
class FilterSpec:
    """Harmonic order plus heat parameters for one filter."""

    k: int
    heat: HeatParams

    def __post_init__(self):
        if self.k < 0:
            raise ValueError(f"harmonic order must be nonnegative, got {self.k}")


@dataclass(frozen=True)
class FilterResponse:
    """Per-vertex real/imaginary outputs and their squared modulus."""

    r_real: np.ndarray
    r_imag: np.ndarray
    r2: np.ndarray
    spec: FilterSpec

    @classmethod
    def from_components(cls, r_real, r_imag, spec) -> "FilterResponse":
        return cls(r_real, r_imag, r_real ** 2 + r_imag ** 2, spec)


def tangent_azimuth(frame: LocalFrame, p_i, p_j) -> float | None:
    """Azimuth of ``p_j`` seen from ``p_i`` in the tangent plane of ``frame``.

    Returns an angle in (-pi, pi], or ``None`` when the displacement is
    (numerically) parallel to the normal or zero.
    """
    d = np.asarray(p_j, dtype=np.float64) - np.asarray(p_i, dtype=np.float64)
    d_norm = np.linalg.norm(d)
    d_t = d - (d @ frame.normal) * frame.normal
    if d_norm == 0.0 or np.linalg.norm(d_t) <= _DEGENERATE_RTOL * d_norm:
        return None
    theta = float(np.arctan2(d_t @ frame.y_axis, d_t @ frame.x_axis))
    if theta <= -np.pi:
        theta = np.pi
    return theta


def _support_azimuths(positions, i, support, normal, x_axis, y_axis) -> np.ndarray:
    """Azimuths over a support set; NaN marks self and degenerate entries."""
    d = positions[support] - positions[i]
    d_t = d - (d @ normal)[:, None] * normal[None, :]
    d_norm = np.linalg.norm(d, axis=1)
    t_norm = np.linalg.norm(d_t, axis=1)
    theta = np.arctan2(d_t @ y_axis, d_t @ x_axis)
    theta[theta <= -np.pi] += 2.0 * np.pi
    theta[(d_norm == 0.0) | (t_norm <= _DEGENERATE_RTOL * d_norm)] = np.nan
    return theta


def build_filter_rows(kernel_row: KernelRow, angles: np.ndarray, k: int):
    """Real and imaginary filter rows from a kernel row and support azimuths.

    ``angles`` aligns with ``kernel_row.support``; NaN entries (the vertex
    itself and degenerate projections) contribute zero for ``k >= 1``.  For
    ``k = 0`` the real row is the kernel row itself and the imaginary row is
    identically zero.
    """
    values = kernel_row.values
    support = kernel_row.support
    angles = np.asarray(angles, dtype=np.float64).reshape(-1)
    if angles.shape[0] != support.shape[0]:
        raise ValueError(f"{angles.shape[0]} angles for a support of {support.shape[0]}")
    h_imag = np.zeros_like(values)
    if k == 0:
        return values.copy(), h_imag
    h_real = np.zeros_like(values)
    finite = np.isfinite(angles)
    idx = support[finite]
    ka = k * angles[finite]
    h_real[idx] = values[idx] * np.cos(ka)
    h_imag[idx] = values[idx] * np.sin(ka)
    return h_real, h_imag


def _contract_chunk(cols, chunk, spec, frames, positions, mass, signals,
                    r_real, r_imag) -> None:
    """Fill the response rows of ``chunk`` from its kernel columns ``cols``."""
    for local, i in enumerate(chunk):
        kvals, support = threshold_row(cols[:, local], spec.heat.support_threshold)
        weights = kvals[support] * mass[support]
        if spec.k == 0:
            r_real[i] = weights @ signals[support]
            continue
        theta = _support_azimuths(positions, i, support, frames.normals[i],
                                  frames.x_axis[i], frames.y_axis[i])
        finite = np.isfinite(theta)
        w = weights[finite]
        ka = spec.k * theta[finite]
        sub = signals[support[finite]]
        r_real[i] = (w * np.cos(ka)) @ sub
        r_imag[i] = (w * np.sin(ka)) @ sub


def _response_block(op: SparseOperator, frames: FrameField, positions: np.ndarray,
                    specs: list[FilterSpec], signals: np.ndarray,
                    kernel_columns: np.ndarray | None = None):
    """Responses for a block of signals: one (N, C) real/imaginary pair per spec.

    One Chebyshev recurrence per chunk of kernel columns serves every spec.
    The chunk narrows as specs are added, so the live (N, width) blocks of
    the recurrence stay within those of a single-spec chunk.
    """
    fns = [heat_function(spec.heat.t) for spec in specs]
    order = shared_order(op, [spec.heat for spec in specs], fns)
    if kernel_columns is not None and len(specs) != 1:
        raise ValueError("kernel_columns holds a single scale; pass one spec")
    n = op.n
    mass = op.mass
    responses = [(np.zeros_like(signals), np.zeros_like(signals)) for _ in specs]
    width = max(1, 2 * _CHUNK // (len(specs) + 1))

    for start in range(0, n, width):
        chunk = np.arange(start, min(start + width, n))
        if kernel_columns is None:
            block = np.zeros((n, chunk.shape[0]))
            block[chunk, np.arange(chunk.shape[0])] = 1.0 / mass[chunk]
            blocks = chebyshev_apply(op, fns, block, order)
        else:
            blocks = [kernel_columns[:, chunk]]
        for spec, cols, (r_real, r_imag) in zip(specs, blocks, responses):
            _contract_chunk(cols, chunk, spec, frames, positions, mass, signals,
                            r_real, r_imag)

    for r_real, r_imag in responses:
        bad = np.flatnonzero(~(np.isfinite(r_real).all(axis=1)
                               & np.isfinite(r_imag).all(axis=1)))
        if bad.size:
            raise NumericalError(f"non-finite filter response at vertex {int(bad[0])}")
    return responses


def kernel_column_matrix(op: SparseOperator, params: HeatParams) -> np.ndarray:
    """All heat-kernel columns as a dense (N, N) matrix via the Chebyshev path."""
    block = np.diag(1.0 / op.mass)
    fn = heat_function(params.t)
    return chebyshev_apply(op, fn, block, shared_order(op, [params], [fn]))


def apply_filter(op: SparseOperator, frames: FrameField, positions,
                 spec: FilterSpec | Sequence[FilterSpec], s, *,
                 kernel_columns: np.ndarray | None = None):
    """Filter a scalar signal, producing per-vertex responses and R^2.

    Parameters
    ----------
    op, frames, positions
        Operator, tangent frames and vertex positions, all N-aligned.
    spec : FilterSpec or sequence of FilterSpec
        Harmonic order and heat parameters.  A sequence, whose specs share
        the Chebyshev order setting, is served by one recurrence per chunk
        and returns a list with one response per spec.
    s : VertexSignal or (N,) array
        Must be finite; a NaN or infinity raises :class:`NumericalError`
        naming the first such vertex.
    kernel_columns : (N, N) array, optional
        Precomputed output of :func:`kernel_column_matrix`; lets callers
        reuse the kernel across several filter applications at the same t.
    """
    specs = [spec] if isinstance(spec, FilterSpec) else list(spec)
    positions = np.asarray(positions, dtype=np.float64).reshape(-1, 3)
    values = s.values if isinstance(s, VertexSignal) else np.asarray(s, dtype=np.float64)
    if values.shape[0] != op.n:
        raise ValueError(f"signal has {values.shape[0]} values for {op.n} vertices")
    bad = np.flatnonzero(~np.isfinite(values))
    if bad.size:
        raise NumericalError(f"non-finite signal value at vertex {int(bad[0])}")
    blocks = _response_block(op, frames, positions, specs, values.reshape(-1, 1),
                             kernel_columns)
    responses = [FilterResponse.from_components(r_real[:, 0], r_imag[:, 0], sp)
                 for sp, (r_real, r_imag) in zip(specs, blocks)]
    return responses[0] if isinstance(spec, FilterSpec) else responses


def multiscale_apply(op: SparseOperator, frames: FrameField, positions, k: int,
                     ts: Sequence[float], s, *, chebyshev_order: int | None = None,
                     support_threshold: float = 1e-4) -> list[FilterResponse]:
    """One response per diffusion time, all from one Chebyshev pass per chunk."""
    ts = list(ts)
    if not ts:
        raise ValueError("ts must be a nonempty ascending sequence")
    if any(b <= a for a, b in zip(ts, ts[1:])):
        raise ValueError("ts must be strictly ascending")
    specs = [FilterSpec(k, HeatParams(t, chebyshev_order, support_threshold)) for t in ts]
    return apply_filter(op, frames, positions, specs, s)


def normal_variation(mesh: Mesh, op: SparseOperator, frames: FrameField,
                     spec: FilterSpec | Sequence[FilterSpec]):
    """Aggregate response over the three normal components.

    Each component of the (given or estimated) normal field is filtered as an
    independent scalar; the returned field is the sum of the three squared
    moduli, highlighting curvature changes.  A sequence of specs returns one
    field per spec from a single pass, as in :func:`apply_filter`.
    """
    specs = [spec] if isinstance(spec, FilterSpec) else list(spec)
    normals = effective_normals(mesh)
    blocks = _response_block(op, frames, mesh.vertices, specs, normals)
    fields = [VertexSignal(np.sum(r_real ** 2 + r_imag ** 2, axis=1),
                           name="normal_variation")
              for r_real, r_imag in blocks]
    return fields[0] if isinstance(spec, FilterSpec) else fields


def fuse(r_l2, r_n2, beta: float) -> VertexSignal:
    """Weighted sum of a luminance-response field and a normal-response field."""
    if beta < 0:
        raise ValueError(f"beta must be nonnegative, got {beta}")
    a = r_l2.values if isinstance(r_l2, VertexSignal) else np.asarray(r_l2, dtype=np.float64)
    b = r_n2.values if isinstance(r_n2, VertexSignal) else np.asarray(r_n2, dtype=np.float64)
    if a.shape != b.shape:
        raise ValueError(f"field lengths differ: {a.shape[0]} vs {b.shape[0]}")
    return VertexSignal(a + beta * b, name="fused")
