"""Heat-kernel actions by Chebyshev expansion: the one engine.

The Chebyshev route approximates ``f(mass^-1 stiffness) @ x`` with a
three-term recurrence that touches the operator only through matrix-vector
products, so it never forms a dense N x N object.  The kernel columns that
filters and kernel rows use are made from it in :mod:`mahf.filters`.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from numpy.polynomial import chebyshev as npcheb

from .csr import Csr, canonical, sparsetools
from .errors import NumericalError
from .laplacian import SparseOperator

# Certified truncation: each expansion keeps the fewest terms whose
# coefficient tail is at most CHEB_TOL * max|f| on the spectral interval.
CHEB_TOL = 1e-12
# Node counts of the reference expansion that estimates the tail.  The tail
# is summed over the reference, so its rounding noise (about 1e-16 per
# coefficient) grows with the reference length; doubling from a short one
# keeps that noise far below the tolerance.
_REFERENCE_NODES = (64, 8192)
# Probe points b * 2^-k (and 0) where the reference must match the function.
# The spectral functions peak within 1/t of 0; when t * b is so large that
# the peak falls left of every node, all samples are ~0, the coefficients
# look converged, and only a probe near 0 shows the miss.  The probe
# threshold only has to catch such gross misses: Clenshaw evaluation near
# the ends of the interval alone loses up to ~1e-11 at thousands of terms.
_PROBES = np.append(2.0 ** -np.arange(64), 0.0)
_PROBE_TOL = 1e-6
# Certified expansions kept per (function, interval): a pass calls the engine
# once per chunk with the same functions, so each is derived once per pass.
# Functions are keyed by identity, so the entries of earlier passes only age out.
_MEMO_SIZE = 64
# sigma_j of the signed blocks S_j = sigma_j T_j, by j % 4
_SIGNS = (1.0, 1.0, -1.0, -1.0)


@dataclass(frozen=True)
class HeatParams:
    """Diffusion time and kernel support cutoff.

    Every expansion runs at its certified order (see :func:`certified_expansion`).
    """

    t: float
    support_threshold: float = 1e-4

    def __post_init__(self):
        if not (np.isfinite(self.t) and self.t >= 0):
            raise ValueError(f"diffusion time must be finite and nonnegative, got {self.t}")
        if not (0 <= self.support_threshold < 1):
            raise ValueError("support_threshold must lie in [0, 1)")


def _chebyshev_nodes(b: float, order: int) -> np.ndarray:
    """The ``order + 1`` Chebyshev-Gauss nodes ``b (cos theta_m + 1) / 2``
    with ``theta_m = (m + 1/2) pi / (order + 1)``.

    Written as ``b sin^2((pi - theta_m) / 2)``, which keeps full relative
    accuracy near 0, where ``exp(-t x)`` changes fastest at large ``t b``.
    """
    half = (order + 0.5 - np.arange(order + 1)) * np.pi / (2 * (order + 1))
    return b * np.sin(half) ** 2


def _quadrature(values: np.ndarray) -> np.ndarray:
    """Chebyshev-Gauss quadrature ``(2/n) sum_m v_m cos(j theta_m)`` of the n
    node values, for j < n: a DCT-II through a real FFT of the mirrored
    values (numpy's FFT, which is loaded with numpy anyway)."""
    n = values.shape[0]
    spectrum = np.fft.rfft(np.concatenate([values, values[::-1]]))[:n]
    return (np.exp(-0.5j * np.pi * np.arange(n) / n) * spectrum).real / n


@lru_cache(maxsize=_MEMO_SIZE)
def certified_expansion(fn, b: float) -> np.ndarray:
    """Chebyshev coefficients of ``fn`` on [0, b] at its certified order:
    the smallest order m (at least 1) whose relative coefficient tail
    ``sum_{j>m} |c_j| / max|fn|`` is at most :data:`CHEB_TOL`.  Derived once
    per function and interval, and returned read-only.

    The ``m + 1`` coefficients come from Chebyshev-Gauss quadrature with
    ``m + 1`` nodes, which is exact for the truncated expansion.  The leading
    coefficient is returned un-halved; evaluation applies the conventional
    factor 1/2.

    The order comes from a reference expansion whose node count doubles
    until the certified order lies in its first half and the truncation
    there matches ``fn`` at the probe points.  The reference then resolves
    the decay of the coefficients, which for the entire functions used here
    falls faster than geometrically past that order (Trefethen,
    *Approximation Theory and Approximation Practice*, ch. 8), so the terms
    past the reference add nothing at this tolerance.  The tail bounds the
    uniform error of the order-m truncation on [0, b].  Raises
    :class:`NumericalError` when even the largest reference does not
    resolve ``fn``.
    """
    order = 1
    if b > 0:
        probes = b * _PROBES
        at_probes = fn(probes)
        nodes, most = _REFERENCE_NODES
        while nodes <= most:
            values = fn(_chebyshev_nodes(b, nodes - 1))
            scale = max(np.abs(values).max(), np.abs(at_probes).max())
            if scale == 0:
                break
            c = _quadrature(values)
            c[0] *= 0.5
            tails = np.append(np.cumsum(np.abs(c[:0:-1]))[::-1], 0.0) / scale
            m = int(np.argmax(tails <= CHEB_TOL))
            if m < nodes // 2:
                truncated = npcheb.chebval(2.0 * probes / b - 1.0, c[:m + 1])
                if np.abs(truncated - at_probes).max() <= _PROBE_TOL * scale:
                    order = max(1, m)
                    break
            nodes *= 2
        else:
            raise NumericalError(
                f"Chebyshev expansion on [0, {b:g}] needs more than {most // 2} terms "
                f"for a coefficient tail of {CHEB_TOL:g}; the scale t is too large "
                "for this operator")
    coeffs = _quadrature(fn(_chebyshev_nodes(b, order)))
    coeffs.flags.writeable = False
    return coeffs


def heat_function(t: float):
    """The heat kernel's spectral function ``x -> exp(-t x)``."""
    return lambda x: np.exp(-t * x)


def _mapped(op: SparseOperator, b: float) -> Csr:
    """``(2/b) mass^-1 stiffness - I``, which maps [0, b] to [-1, 1], as one
    CSR matrix with sorted column indices in each row.

    Each stored stiffness entry becomes ``(2/b) / mass_r * s_rc``, minus 1 on
    the diagonal, and each row stores its diagonal, so the pattern is the
    stiffness pattern plus the diagonal.
    """
    data = np.repeat((2.0 / b) / op.mass, np.diff(op.indptr))
    data *= op.data
    # a -1 appended to each row adds to the row's diagonal entry, if stored
    return canonical(op.indptr + np.arange(op.n + 1, dtype=op.indptr.dtype),
                     np.insert(op.indices, op.indptr[1:], np.arange(op.n)),
                     np.insert(data, op.indptr[1:], -1.0))


def shared_order(op: SparseOperator, fns) -> int:
    """Recurrence steps of one fused Chebyshev pass: the largest certified
    order of the functions ``fns`` on [0, lambda_max]."""
    fns = list(fns)
    if not fns:
        raise ValueError("a fused Chebyshev pass needs at least one function")
    return max(len(certified_expansion(fn, op.lambda_max)) - 1 for fn in fns)


def _accumulate(y: np.ndarray, blocks: np.ndarray, terms) -> None:
    """``y += c * blocks[first:first + len(y)]`` for each ``(c, first)`` of
    the one or two ``terms``, in their order, in one call of scipy's compiled
    CSR block product kernel.

    The kernel applies to ``blocks`` a ``len(y) x len(blocks)`` matrix with
    one entry per term in each row, row ``r``'s at column ``first + r``, and
    adds a row's products to row ``r`` of ``y`` in the entries' order.  So
    each element of ``y`` is read and written once and gets
    ``(y + c1 x1) + c2 x2``: bit for bit numpy's ``y += c1 * x1`` followed by
    ``y += c2 * x2``, with no temporary block.

    The kernel checks no sizes, so this checks that ``y`` and ``blocks`` are
    2-D C-contiguous float64 arrays of one row width with every term's rows
    inside ``blocks``, and raises ``ValueError`` if not.
    """
    rows, size, k = y.shape[0], blocks.shape[0], len(terms)
    if not (y.ndim == blocks.ndim == 2 and y.dtype == blocks.dtype == np.float64
            and y.flags.c_contiguous and blocks.flags.c_contiguous
            and y.shape[1] == blocks.shape[1] and k in (1, 2)
            and all(0 <= first <= size - rows for _, first in terms)):
        raise ValueError("accumulate needs 2-D C-contiguous float64 arrays of one width "
                         "and one or two terms inside the blocks")
    indices = np.empty(k * rows, dtype=np.int64)
    data = np.empty(k * rows)
    for i, (c, first) in enumerate(terms):
        indices[i::k] = np.arange(first, first + rows)
        data[i::k] = c
    indptr = np.arange(0, k * rows + 1, k, dtype=np.int64)
    sparsetools.csr_matvecs(rows, size, y.shape[1], indptr, indices, data,
                            blocks.reshape(-1), y.reshape(-1))


def _finite_sum(block: np.ndarray) -> bool:
    """Whether the sum of ``block`` is finite: not if the block holds a NaN
    or an infinity, nor if its sum leaves the float64 range.  numpy's
    reduce allocates nothing, and its overflow and invalid-value warnings
    are silenced, so the answer is the same under warnings as errors."""
    with np.errstate(over="ignore", invalid="ignore"):
        return bool(np.isfinite(np.add.reduce(block.reshape(-1))))


def _reach_ends(a) -> np.ndarray:
    """For each row ``r``, one past the last row of ``a @ y`` that rows
    ``0 .. r`` of ``y`` can make non-zero, row ``r`` itself included: the
    running maximum of the last row with an entry in each column.

    ``a`` is a :func:`_mapped` matrix: its pattern is symmetric, so the last
    row of column ``r`` is the last column of row ``r``, and every row
    stores its diagonal, so that column is at least ``r``.
    """
    return np.maximum.accumulate(a.indices[a.indptr[1:] - 1]) + 1


def chebyshev_apply(op: SparseOperator, fns, x: np.ndarray, order: int, *, out=None):
    """Evaluate each function of ``fns`` of the generalized Laplacian on a
    vector or block; returns one output per function.

    Maps the spectral interval [0, lambda_max] to [-1, 1] and runs
    ``order`` steps of the three-term recurrence on the mapped CSR, built
    once per call.  The blocks ``T_j`` do not depend on the function, only
    the coefficients do, so one recurrence fills the outputs of every
    function.  Each function keeps the terms of its certified expansion up
    to ``order`` and skips the steps past its end, so its output does not
    depend on the other functions of the pass.

    ``T_j`` is non-zero only on rows within ``j`` steps of the non-zero rows
    of ``x``.  The recurrence runs on a prefix of the rows that holds them,
    which each step extends to one past the last row its rows reach, and
    past which the blocks stay exact zeros: one in-place call of scipy's CSR
    block product kernel per step.  How far row ``r`` of a block reaches, the
    last entry of column ``r`` of the mapped CSR, is read from the end of
    its sorted row ``r``: this relies on the stiffness pattern being
    symmetric.  On an operator
    :meth:`~SparseOperator.restricted` to a breadth-first ball (see
    :func:`~mahf.laplacian.breadth_first`) whose first rows hold the input,
    the prefix is exactly the levels reached so far; a dense input covers
    every row from the start.

    The two live blocks are the two halves of one ``(2 N, w)`` buffer.
    Right after an even step both ``T_{j-1}`` and ``T_j`` are live, so each
    function takes both terms in one :func:`_accumulate` call, and reads and
    writes its output once per two steps; an odd last step adds its term
    alone.  A term whose coefficient is exactly 0 is left out.

    Raises :class:`~mahf.errors.NumericalError` naming the first step from
    the second whose block has a non-finite sum: one holding a NaN or an
    infinity, or finite with a sum past the float64 range.  Only the last
    block's sum is checked; if it is not finite, the recurrence runs again
    with every step checked, to name that step.  A NaN or an infinity in a
    block spreads to every later block: each row of the mapped CSR stores
    its diagonal, so row ``r`` of ``T_{j+1}`` adds a non-finite product to
    row ``r`` of ``T_{j-1}``, and the prefix of rows only grows.  So a
    non-finite block always fails the last check, whatever the coefficients.
    The one block that every step's check would reject and this rule may
    pass is a finite middle block whose sum alone overflowed, with a last
    block whose sum is finite; no error is raised for it.

    ``out``, if given, is a sequence of one C-contiguous float64 array per
    function, each shaped like ``x`` and apart from it; they receive the
    outputs, their previous contents overwritten, and are returned as a list.
    """
    if order < 1:
        raise ValueError(f"order must be at least 1, got {order}")
    fns = list(fns)
    x = np.asarray(x, dtype=np.float64)
    if x.shape[0] != op.n:
        raise ValueError(f"input has {x.shape[0]} rows for {op.n} vertices")
    if out is None:
        outs = [np.zeros(x.shape) for _ in fns]
    else:
        outs = list(out)
        if len(outs) != len(fns):
            raise ValueError(f"{len(outs)} outputs for {len(fns)} functions")
        if not all(o.shape == x.shape and o.dtype == np.float64 and o.flags.c_contiguous
                   for o in outs):
            raise ValueError("outputs must be C-contiguous float64 arrays shaped like the input")
        if any(np.may_share_memory(o, x) for o in outs):
            raise ValueError("outputs must not overlap the input")
        for o in outs:
            o.fill(0.0)
    b = op.lambda_max
    if b <= 0:
        for f, o in zip(fns, outs):
            np.multiply(x, float(f(np.zeros(1))[0]), out=o)
        return outs
    coeffs = [certified_expansion(f, b)[:order + 1] for f in fns]
    a = _mapped(op, b)
    ends = _reach_ends(a)
    n = op.n
    x2 = x.reshape(n, -1)
    width = x2.shape[1]
    nonzero = np.flatnonzero(x2.any(axis=1))
    hi = int(nonzero[-1]) + 1 if nonzero.size else 0
    blocks = np.zeros((2 * n, width))
    blocks[:hi] = x2[:hi]
    accs = [o.reshape(n, width) for o in outs]
    for acc, c in zip(accs, coeffs):
        np.multiply(blocks[:hi], 0.5 * c[0], out=acc[:hi])
    # S_j = sigma_j T_j is non-zero on its first his[j] rows.  After each even
    # step j, each function adds its terms j - 1 and j on the rows of S_j;
    # S_{j-1} adds exact zeros past its own rows, to output rows still +0.0,
    # which changes no bit.  An odd last step adds its term alone.
    his = [hi]
    for hi in _recurrence(a, ends, blocks, hi, order):
        his.append(hi)
        j = len(his) - 1
        if j % 2 and j < order:
            continue
        for acc, c in zip(accs, coeffs):
            terms = [i for i in range(j - 1 + j % 2, min(j + 1, len(c))) if c[i]]
            if terms:
                _accumulate(acc[:his[terms[-1]]], blocks,
                            [(_SIGNS[i % 4] * c[i], i % 2 * n) for i in terms])
    if order > 1 and not _finite_sum(blocks[order % 2 * n:][:hi]):
        # name the first block that fails the check, as the check of every
        # step would have
        blocks.fill(0.0)
        blocks[:his[0]] = x2[:his[0]]
        for j, hi in enumerate(_recurrence(a, ends, blocks, his[0], order), 1):
            if j > 1 and not _finite_sum(blocks[j % 2 * n:][:hi]):
                raise NumericalError(f"non-finite Chebyshev intermediate at iteration {j}")
    return outs


def _recurrence(a: Csr, ends: np.ndarray, blocks: np.ndarray, hi: int, order: int):
    """Run ``order`` steps of the signed Chebyshev recurrence on the mapped
    CSR ``a``, in place in ``blocks``: its first half holds ``S_0`` on its
    first ``hi`` rows and zeros past them, its second half zeros.  Step ``j``
    writes ``S_j`` into half ``j % 2`` and then yields the count of its rows.

    ``S_j = sigma_j T_j`` with ``sigma = +, +, -, -, +, ...`` turns each step
    into one accumulation into ``S_{j-2}``'s half: ``S_j = S_{j-2} + 2A S_{j-1}``
    for odd ``j`` and ``S_{j-2} - 2A S_{j-1}`` for even ``j``.  That is one
    in-place call of scipy's CSR block product kernel on the rows step ``j``
    reaches, one past the last row that the rows of ``S_{j-1}`` reach.
    """
    n, width = blocks.shape[0] // 2, blocks.shape[1]
    signed = (2.0 * a.data, -2.0 * a.data)
    for j in range(1, order + 1):
        hi = int(ends[hi - 1]) if hi else 0
        sparsetools.csr_matvecs(hi, n, width, a.indptr[:hi + 1], a.indices,
                                a.data if j == 1 else signed[1 - j % 2],
                                blocks[(1 - j % 2) * n:][:n].reshape(-1),
                                blocks[j % 2 * n:][:hi].reshape(-1))
        yield hi


def threshold_row(row: np.ndarray, threshold: float):
    """Keep entries at or above ``threshold`` times their column's maximum.

    ``row`` is a vector or a (rows, C) block of kernel columns, each with its
    own cutoff, so a column slice of a block keeps that slice of the block's
    mask.  Returns the boolean keep mask, shaped like ``row``, and the flat
    (row-major) indices of the kept entries; threshold 0 keeps everything,
    zero and negative entries included.
    """
    if threshold <= 0:
        return np.ones(row.shape, dtype=bool), np.arange(row.size)
    keep = row >= threshold * row.max(axis=0)
    return keep, np.flatnonzero(keep)
