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
from .geometry import FrameField, effective_normals
from .io_mesh import Mesh, VertexSignal
from .laplacian import SparseOperator
from .spectral import (HeatParams, chebyshev_apply, heat_function, shared_order,
                       threshold_row)

_DEGENERATE_RTOL = 1e-9
_CHUNK = 512
# Each chunk of kernel columns is contracted in this many column slices, so
# the per-pair temporaries of the contraction stay a fraction of the chunk's.
_SLICES = 8


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


def _azimuths(positions, frames: FrameField, centres, neighbours) -> np.ndarray:
    """Azimuth of each neighbour seen from its centre, in the centre's tangent frame.

    The displacement's normal component is projected out.  Angles lie in
    (-pi, pi]; NaN marks a neighbour that is the centre itself or lies
    (numerically) along the centre's normal.
    """
    d = positions.take(neighbours, axis=0) - positions.take(centres, axis=0)
    d_sq = np.einsum("pc,pc->p", d, d)
    normal = frames.normals.take(centres, axis=0)
    d -= np.einsum("pc,pc->p", d, normal)[:, None] * normal
    t_sq = np.einsum("pc,pc->p", d, d)
    theta = np.arctan2(np.einsum("pc,pc->p", d, frames.y_axis.take(centres, axis=0)),
                       np.einsum("pc,pc->p", d, frames.x_axis.take(centres, axis=0)))
    theta[theta <= -np.pi] += 2.0 * np.pi
    theta[(d_sq == 0.0) | (t_sq <= _DEGENERATE_RTOL ** 2 * d_sq)] = np.nan
    return theta


def _contract(cols, centres, k: int, threshold: float, frames: FrameField,
              positions, mass, signals):
    """Responses at the vertices ``centres`` from their kernel columns.

    Each kept entry of the (N, width) block ``cols`` pairs a neighbour ``j``
    (its row) with a centre (its column).  The pair weighs ``s_j`` by the
    kernel entry times the mass of ``j`` and, for ``k >= 1``, by cos/sin of
    ``k`` times the neighbour's azimuth; self and degenerate pairs add 0.
    Returns the real and imaginary (width, C) blocks.
    """
    width = cols.shape[1]
    values, kept = threshold_row(cols, threshold)
    j, local = np.divmod(kept, width)
    w = values.reshape(-1)[kept] * mass[j]
    if k == 0:
        parts = [w]
    else:
        ka = k * _azimuths(positions, frames, centres.take(local), j)
        finite = np.isfinite(ka)
        parts = [np.where(finite, w * np.cos(ka), 0.0),
                 np.where(finite, w * np.sin(ka), 0.0)]
    out = np.zeros((2, width, signals.shape[1]))
    s = signals.take(j, axis=0)
    for part, r in zip(parts, out):
        for c in range(s.shape[1]):
            r[:, c] = np.bincount(local, part * s[:, c], minlength=width)
    return out[0], out[1]


def _response_block(op: SparseOperator, frames: FrameField, positions: np.ndarray,
                    specs: list[FilterSpec], signals: np.ndarray):
    """Responses for a block of signals: one (N, C) real/imaginary pair per spec.

    One Chebyshev recurrence per chunk of kernel columns serves every spec.
    A chunk is a run of consecutive vertices of the operator's ordering, so
    its columns stay non-zero on few rows for the first steps.  The chunk
    narrows as specs are added, so the live (N, width) blocks of the
    recurrence stay within those of a single-spec chunk.  Each chunk is
    contracted in slices of ``1 / _SLICES`` of its width.
    """
    fns = [heat_function(spec.heat.t) for spec in specs]
    order = shared_order(op, [spec.heat for spec in specs], fns)
    n = op.n
    mass = op.mass
    responses = [(np.zeros_like(signals), np.zeros_like(signals)) for _ in specs]
    width = max(1, 2 * _CHUNK // (len(specs) + 1))
    step = -(-width // _SLICES)

    for start in range(0, n, width):
        chunk = op.ordering[start:start + width]
        block = np.zeros((n, chunk.shape[0]))
        block[chunk, np.arange(chunk.shape[0])] = 1.0 / mass[chunk]
        blocks = chebyshev_apply(op, fns, block, order)
        for spec, cols, (r_real, r_imag) in zip(specs, blocks, responses):
            for lo in range(0, chunk.shape[0], step):
                centres = chunk[lo:lo + step]
                r_real[centres], r_imag[centres] = _contract(
                    cols[:, lo:lo + step], centres, spec.k, spec.heat.support_threshold,
                    frames, positions, mass, signals)

    for r_real, r_imag in responses:
        bad = np.flatnonzero(~(np.isfinite(r_real).all(axis=1)
                               & np.isfinite(r_imag).all(axis=1)))
        if bad.size:
            raise NumericalError(f"non-finite filter response at vertex {int(bad[0])}")
    return responses


def apply_filter(op: SparseOperator, frames: FrameField, positions,
                 spec: FilterSpec | Sequence[FilterSpec], s):
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
    """
    specs = [spec] if isinstance(spec, FilterSpec) else list(spec)
    positions = np.asarray(positions, dtype=np.float64).reshape(-1, 3)
    values = s.values if isinstance(s, VertexSignal) else np.asarray(s, dtype=np.float64)
    if values.shape[0] != op.n:
        raise ValueError(f"signal has {values.shape[0]} values for {op.n} vertices")
    bad = np.flatnonzero(~np.isfinite(values))
    if bad.size:
        raise NumericalError(f"non-finite signal value at vertex {int(bad[0])}")
    blocks = _response_block(op, frames, positions, specs, values.reshape(-1, 1))
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
