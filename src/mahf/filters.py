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

import itertools
import math
import mmap
import os
import pickle
import signal
import threading
import warnings
from dataclasses import dataclass
from pathlib import Path, PurePosixPath
from typing import Sequence

import numpy as np

from .errors import MahfError, NumericalError
from .geometry import FrameField, effective_normals
from .io_mesh import Mesh, VertexSignal, signal_values
from .laplacian import SparseOperator, breadth_first
from .spectral import HeatParams, chebyshev_apply, heat_function, shared_order, threshold_row

_DEGENERATE_RTOL = 1e-9
_CHUNK = 256
# Each chunk of kernel columns is contracted in this many column slices, so
# the per-pair temporaries of the contraction stay a fraction of the chunk's.
_SLICES = 8
# where the cgroup hierarchies are mounted, and the file naming the process's
# cgroups, read for the CPU quota that caps the worker count
_CGROUP_ROOT = Path("/sys/fs/cgroup")
_CGROUP_OF_SELF = Path("/proc/self/cgroup")


@dataclass(frozen=True)
class FilterSpec:
    """Harmonic order plus heat parameters for one filter."""

    k: int
    heat: HeatParams

    def __post_init__(self):
        if not (isinstance(self.k, (int, np.integer)) and self.k >= 0):
            raise ValueError(f"harmonic order must be a nonnegative integer, got {self.k!r}")


@dataclass(frozen=True)
class FilterResponse:
    """Per-vertex real/imaginary outputs and their squared modulus."""

    r_real: np.ndarray
    r_imag: np.ndarray
    r2: np.ndarray
    spec: FilterSpec


def _unit_tangents(positions, frames: FrameField, centres, neighbours):
    """Direction of each neighbour seen from its centre, in the centre's tangent frame.

    Returns the cosine and sine of the neighbour's azimuth: the in-plane
    frame coordinates ``(d.x, d.y)`` of the displacement ``d`` over their
    norm, the length of its tangent part.  Both are 0 for a neighbour that
    is the centre itself or lies (numerically) along the centre's normal.
    """
    d = positions.take(neighbours, axis=0) - positions.take(centres, axis=0)
    u = np.einsum("pc,pc->p", d, frames.x_axis.take(centres, axis=0))
    v = np.einsum("pc,pc->p", d, frames.y_axis.take(centres, axis=0))
    t_sq = u * u + v * v
    inv = np.zeros_like(t_sq)
    np.divide(1.0, np.sqrt(t_sq), out=inv,
              where=t_sq > _DEGENERATE_RTOL ** 2 * np.einsum("pc,pc->p", d, d))
    return u * inv, v * inv


def _contract(terms, neighbours, centres, frames: FrameField, positions, mass, signals):
    """Responses at the vertices ``centres`` from their kernel columns.

    Each ``(cols, k, keep)`` of ``terms`` is one filter: ``cols`` is a
    (rows, width) block of kernel columns, row ``r`` belonging to vertex
    ``neighbours[r]`` and column ``l`` to ``centres[l]``, and ``keep`` marks
    its entries inside the filter's support.  A kept entry pairs a neighbour
    ``j`` with a centre and weighs ``s_j`` by the kernel entry times the mass
    of ``j`` and, for ``k >= 1``, by cos/sin of ``k`` times the neighbour's
    azimuth; self and degenerate pairs add 0.  Each pair kept by any term is
    gathered and its tangent computed once for all terms.  Returns one pair
    of real and imaginary (width, C) blocks per term.
    """
    width = centres.shape[0]
    union = np.logical_or.reduce([keep for _, _, keep in terms])
    r, local = np.divmod(np.flatnonzero(union), width)
    j = neighbours.take(r)
    s = signals.take(j, axis=0)
    m = mass.take(j)

    # cos/sin of k theta for k = 1, 2, ... by angle addition from the unit tangent
    harmonics = {}
    top = max(k for _, k, _ in terms)
    if top:
        c1, s1 = ck, sk = _unit_tangents(positions, frames, centres.take(local), j)
        harmonics[1] = c1, s1
        for k in range(2, top + 1):
            ck, sk = harmonics[k] = ck * c1 - sk * s1, sk * c1 + ck * s1

    results = []
    for cols, k, keep in terms:
        w = cols[r, local] * m
        if len(terms) > 1:
            w[~keep[r, local]] = 0.0
        out = np.zeros((2, width, s.shape[1]))
        for part, res in zip([w] if k == 0 else [w * h for h in harmonics[k]], out):
            for c in range(s.shape[1]):
                res[:, c] = np.bincount(local, part * s[:, c], minlength=width)
        results.append((out[0], out[1]))
    return results


def _chunks(op: SparseOperator, width: int):
    """Compact chunks of ``width`` vertices (the last may have fewer) that
    partition the vertices: each grows breadth-first through unassigned
    vertices from the lowest one, again from the next when it is cut off."""
    assigned = np.zeros(op.n, dtype=bool)
    for start in range(0, op.n, width):
        parts, size = [], min(width, op.n - start)
        while size > 0:
            parts.append(breadth_first(op, [int(np.argmin(assigned))], assigned,
                                       size=size))
            size -= parts[-1].shape[0]
        yield np.concatenate(parts)


def _cpu_limit() -> int | None:
    """CPUs' worth of time that the process's cgroups allow it, rounded up:
    the smallest quota / period from its cgroup up to the hierarchy's root,
    read from cgroup v2's ``cpu.max`` or v1's ``cpu.cfs_quota_us`` and
    ``cpu.cfs_period_us``.  None where no quota is set or none can be read."""
    try:
        lines = _CGROUP_OF_SELF.read_text().splitlines()
    except OSError:
        return None
    ratios = []
    for line in lines:
        if line.count(":") < 2:
            continue
        _, controllers, path = line.split(":", 2)
        if not controllers:
            base, files = _CGROUP_ROOT, ["cpu.max"]
        elif "cpu" in controllers.split(","):
            base, files = _CGROUP_ROOT / "cpu", ["cpu.cfs_quota_us", "cpu.cfs_period_us"]
        else:
            continue
        parts = PurePosixPath(path).parts[1:]
        for depth in range(len(parts), -1, -1):
            folder = base.joinpath(*parts[:depth])
            try:
                quota, period = " ".join((folder / f).read_text() for f in files).split()
                if quota not in ("max", "-1"):
                    ratios.append(int(quota) / int(period))
            except (OSError, ValueError):
                continue
    return math.ceil(min(ratios)) if ratios else None


def _workers(chunks: int) -> int:
    """Processes that share a pass of ``chunks`` chunks: one per usable core,
    at most one per chunk and at most :func:`_cpu_limit`.  1 where
    ``os.fork`` or the affinity mask is missing, or while another Python
    thread is alive, which a forked child would not inherit in a usable
    state."""
    if not (hasattr(os, "fork") and hasattr(os, "sched_getaffinity")) \
            or threading.active_count() > 1:
        return 1
    cores = len(os.sched_getaffinity(0))
    return max(1, min(cores, _cpu_limit() or cores, chunks))


def _fork(work, share):
    """Run ``work(share)`` in a forked child; returns the child's pid and the
    read end of a pipe that carries the child's exception, pickled, if it
    raises one.  The child always leaves through ``os._exit``: it runs no
    exit handler and flushes none of the parent's buffers.  A child whose
    parent has died (killed, say) takes no further chunk of its share."""
    parent = os.getpid()
    read, write = os.pipe()
    with warnings.catch_warnings():
        # Python >= 3.12 warns on forking a process with more than one OS
        # thread, and OpenBLAS's pool is one after `import numpy`.  It is
        # safe here: `_workers` rules out other Python threads, OpenBLAS
        # quiets its pool through its own fork handlers, and the child runs
        # only numpy and scipy code before `os._exit`.
        warnings.filterwarnings("ignore", r"This process .* is multi-threaded",
                                DeprecationWarning)
        pid = os.fork()
    if pid:
        os.close(write)
        return pid, read
    status = 1
    try:
        os.close(read)
        work(itertools.takewhile(lambda _: os.getppid() == parent, share))
        status = 0
    except BaseException as exc:
        with os.fdopen(write, "wb") as pipe:
            pipe.write(pickle.dumps(exc))
    finally:
        os._exit(status)


def _reap(pid: int, read: int):
    """Wait for a child of :func:`_fork`; returns its pickled exception,
    empty if it raised none, and its exit code."""
    with os.fdopen(read, "rb") as pipe:
        payload = pipe.read()
    return payload, os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])


def _response_block(op: SparseOperator, frames: FrameField, positions: np.ndarray,
                    specs: list[FilterSpec], signals: np.ndarray):
    """Responses for a block of signals: one (N, C) real/imaginary pair per spec.

    One Chebyshev recurrence per chunk of kernel columns serves every spec,
    with one function per distinct diffusion time.  It runs on the chunk's
    ball: the operator restricted to the breadth-first levels around the
    chunk, as deep as the pass's order, chunk first.  Right after the
    recurrence each kernel block is thresholded once per distinct threshold
    of its time, over the whole chunk.  The chunk is then contracted in
    slices of ``1 / _SLICES`` of its width, each with its columns of those
    masks, on all of its ball's rows: those a slice never reached are exact
    zeros, which no positive threshold keeps.

    The chunks are dealt round-robin to :func:`_workers` processes: the
    pass itself and forked children, one per usable core within the
    cgroup CPU quota, which write their centres' rows of the
    responses into one shared anonymous mapping.  A chunk runs the same code
    whichever process takes it, so the responses do not depend on the
    number of workers.  A child's exception is raised here once every child
    is reaped; if the pass itself fails, its children are killed first.
    :func:`~mahf.spectral.shared_order` derives the expansions of the
    pass's functions before the fork, so that each is derived once per
    pass, not once per process.

    Memory: with ``n_t`` distinct times a chunk is
    ``w = 2 _CHUNK / (max(n_t, 3) + 1)`` columns wide, 128 at the default
    ``_CHUNK``.  One and two times get the three-time width: scipy's block
    product kernel costs about the same per column from 128 columns up and
    loses efficiency below, so the narrower chunk saves memory for free.
    While a chunk runs, at most ``(2 + n_t)`` float64 blocks of
    ``|ball| x w`` hold data: the recurrence's two and one kernel block per
    time, at most 3 KiB per ball row for one time and 5 KiB for three or
    more.  The input indicator beside them holds only the chunk's ``w``
    diagonal entries.  The indicator and the kernel buffers are reserved
    once per pass, ``N x w`` each, and a chunk writes only their first
    ``|ball| x w``, so their pages past the largest ball are never touched.
    Each recurrence allocates its own two blocks and arrays the size of the
    ball's operator.  The masks add one bool block of ``|ball| x w`` per
    distinct (time, threshold).  Each worker holds its own pass buffers and
    chunk blocks, so the memory summed over the processes grows with the
    number of workers, while each process peaks at one chunk's.  The
    benchmark's ``peak_rss_mb``, ``wait4``'s ``ru_maxrss``, is the largest of
    the CLI process and its reaped children, not their sum.
    """
    if positions.shape != (op.n, 3) or len(frames) != op.n:
        raise ValueError(f"positions of shape {positions.shape} and {len(frames)} frames "
                         f"for an operator on {op.n} vertices")
    times = {}
    for spec in specs:
        times.setdefault(spec.heat.t, len(times))
    fns = [heat_function(t) for t in times]
    order = shared_order(op, fns)
    terms = [(times[spec.heat.t], spec.k, spec.heat.support_threshold) for spec in specs]
    cutoffs = dict.fromkeys((b, threshold) for b, _, threshold in terms)
    n = op.n
    mass = op.mass
    width = max(1, 2 * _CHUNK // (max(len(fns), 3) + 1))
    step = -(-width // _SLICES)
    chunks = list(_chunks(op, width))
    # every worker writes its centres' rows in place, so the responses live
    # in one mapping shared across the fork
    shared = np.frombuffer(mmap.mmap(-1, 16 * len(specs) * signals.size), dtype=np.float64)
    responses = list(shared.reshape(len(specs), 2, *signals.shape))

    def run(share):
        # the input and kernel buffers of this process, reused by each of
        # its chunks; a ball may have fewer rows and the last chunk fewer
        # columns
        indicator = np.zeros(n * min(width, n))
        kernels = [np.empty(n * min(width, n)) for _ in fns]
        for chunk in share:
            ball = breadth_first(op, chunk, np.zeros(n, dtype=bool), levels=order)
            w = chunk.shape[0]
            x = indicator[:ball.shape[0] * w].reshape(-1, w)
            diagonal = np.diag_indices(w)
            x[diagonal] = 1.0 / mass[chunk]
            blocks = chebyshev_apply(op.restricted(ball), fns, x, order,
                                     out=[buf[:x.size].reshape(x.shape) for buf in kernels])
            x[diagonal] = 0.0
            keeps = {(b, threshold): threshold_row(blocks[b], threshold)[0]
                     for b, threshold in cutoffs}
            for lo in range(0, w, step):
                cut = slice(lo, lo + step)
                centres = chunk[cut]
                parts = _contract([(blocks[b][:, cut], k, keeps[b, threshold][:, cut])
                                   for b, k, threshold in terms],
                                  ball, centres, frames, positions, mass, signals)
                for (r_real, r_imag), (h_real, h_imag) in zip(responses, parts):
                    r_real[centres], r_imag[centres] = h_real, h_imag
            # free the masks before the next chunk's recurrence, the pass's peak
            del keeps

    workers = _workers(len(chunks))
    children = {}
    try:
        for worker in range(1, workers):
            pid, read = _fork(run, chunks[worker::workers])
            children[pid] = read
        run(chunks[::workers])
    except BaseException:
        for pid in children:
            os.kill(pid, signal.SIGKILL)
        raise
    finally:
        ends = [_reap(pid, read) for pid, read in children.items()]
    for payload, code in ends:
        if payload:
            raise pickle.loads(payload)
        if code:
            raise MahfError(f"a filter worker process ended with exit code {code}")
    return responses


def _squared_modulus(r_real: np.ndarray, r_imag: np.ndarray) -> np.ndarray:
    """Per vertex, ``r_real ** 2 + r_imag ** 2`` summed over the signals of
    an (N, C) block pair of :func:`_response_block`.  A non-finite response,
    which ``np.bincount`` sums make without a warning, or a square past the
    float64 range raises :class:`NumericalError` naming the first such
    vertex."""
    with np.errstate(over="ignore"):
        total = np.sum(r_real ** 2 + r_imag ** 2, axis=1)
    bad = np.flatnonzero(~np.isfinite(total))
    if bad.size:
        raise NumericalError(f"non-finite squared filter response at vertex {int(bad[0])}")
    return total


def apply_filter(op: SparseOperator, frames: FrameField, positions,
                 spec: FilterSpec | Sequence[FilterSpec], s):
    """Filter a scalar signal, producing per-vertex responses and R^2.

    Parameters
    ----------
    op, frames, positions
        Operator, tangent frames and (N, 3) vertex positions, all N-aligned;
        a mismatch raises ``ValueError``.
    spec : FilterSpec or sequence of FilterSpec
        Harmonic order and heat parameters.  A sequence is served by one
        recurrence per chunk, at the largest certified order of its times,
        and returns a list with one response per spec.
    s : VertexSignal or (N,) array
        One value per vertex; any other shape raises ``ValueError``.  Must
        be finite; a NaN or infinity raises :class:`NumericalError` naming
        the first such vertex, and so does a response or ``r2`` past the
        float64 range.
    """
    specs = [spec] if isinstance(spec, FilterSpec) else list(spec)
    positions = np.asarray(positions, dtype=np.float64)
    values = signal_values(s)
    if values.shape != (op.n,):
        raise ValueError(f"signal has shape {values.shape} for {op.n} vertices")
    bad = np.flatnonzero(~np.isfinite(values))
    if bad.size:
        raise NumericalError(f"non-finite signal value at vertex {int(bad[0])}")
    blocks = _response_block(op, frames, positions, specs, values.reshape(-1, 1))
    responses = [FilterResponse(r_real[:, 0], r_imag[:, 0],
                                _squared_modulus(r_real, r_imag), sp)
                 for sp, (r_real, r_imag) in zip(specs, blocks)]
    return responses[0] if isinstance(spec, FilterSpec) else responses


def multiscale_apply(op: SparseOperator, frames: FrameField, positions, k: int,
                     ts: Sequence[float], s, *,
                     support_threshold: float = 1e-4) -> list[FilterResponse]:
    """One response per diffusion time, all from one Chebyshev pass per chunk."""
    ts = list(ts)
    if not ts:
        raise ValueError("ts must be a nonempty ascending sequence")
    if any(b <= a for a, b in zip(ts, ts[1:])):
        raise ValueError("ts must be strictly ascending")
    specs = [FilterSpec(k, HeatParams(t, support_threshold)) for t in ts]
    return apply_filter(op, frames, positions, specs, s)


def normal_variation(mesh: Mesh, op: SparseOperator, frames: FrameField,
                     spec: FilterSpec | Sequence[FilterSpec]):
    """Aggregate response over the three normal components.

    Each component of the (given or estimated) normal field is filtered as an
    independent scalar; the returned field is the sum of the three squared
    moduli, highlighting curvature changes.  A sequence of specs returns one
    field per spec from a single pass, as in :func:`apply_filter`.  A mesh
    or frame field of another size than the operator raises ``ValueError``.
    """
    specs = [spec] if isinstance(spec, FilterSpec) else list(spec)
    normals = effective_normals(mesh)
    blocks = _response_block(op, frames, mesh.vertices, specs, normals)
    fields = [VertexSignal(_squared_modulus(r_real, r_imag), name="normal_variation")
              for r_real, r_imag in blocks]
    return fields[0] if isinstance(spec, FilterSpec) else fields


def fuse(r_l2, r_n2, beta: float) -> VertexSignal:
    """Weighted sum of a luminance-response field and a normal-response field."""
    if not 0 <= beta < math.inf:
        raise ValueError(f"beta must be finite and nonnegative, got {beta}")
    a, b = signal_values(r_l2), signal_values(r_n2)
    if a.shape != b.shape:
        raise ValueError(f"field lengths differ: {a.shape[0]} vs {b.shape[0]}")
    return VertexSignal(a + beta * b, name="fused")
