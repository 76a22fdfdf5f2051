"""Square CSR matrices as plain ``(indptr, indices, data)`` arrays, on the
compiled kernels of scipy's sparse package.

The kernels live in one extension module, ``scipy/sparse/_sparsetools``,
which this module loads by itself: importing the ``scipy.sparse`` package
would also clone numpy's namespace through scipy's array-API layer, about
0.2 s and 20 MB per process.  The loader finds the extension beside the
installed scipy without running scipy code.  A process that has imported
``scipy.sparse`` already reuses its copy.  The library calls six kernels,
each a private signature: ``coo_tocsr`` and the four of :func:`canonical`
assemble every matrix, and ``csr_matvecs`` runs every product.  Each
function here makes scipy's own calls for its operation, so its results
are scipy's bit for bit.
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
import os
import sys
from typing import NamedTuple

import numpy as np


def _load_sparsetools():
    loaded = sys.modules.get("scipy.sparse._sparsetools")
    if loaded is not None:
        return loaded
    scipy = importlib.util.find_spec("scipy")
    if scipy is None:
        raise ImportError("mahf needs scipy for its compiled sparse kernels")
    spec = importlib.machinery.PathFinder.find_spec(
        "_sparsetools", [os.path.join(p, "sparse") for p in scipy.submodule_search_locations])
    if spec is None:
        raise ImportError(f"no scipy/sparse/_sparsetools extension under {scipy.origin}")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


sparsetools = _load_sparsetools()


class Csr(NamedTuple):
    """A square matrix's CSR arrays: row ``r`` stores ``data[indptr[r]:indptr[r + 1]]``
    in the columns ``indices[indptr[r]:indptr[r + 1]]``."""

    indptr: np.ndarray
    indices: np.ndarray
    data: np.ndarray


def index_dtype(maxval: int):
    """int32 where it holds ``maxval``, as scipy picks its index arrays."""
    return np.int32 if maxval <= np.iinfo(np.int32).max else np.int64


def canonical(indptr: np.ndarray, indices: np.ndarray, data: np.ndarray) -> Csr:
    """Sort each row's column indices and sum duplicate entries, in place,
    through the kernel calls of scipy's ``sum_duplicates``; returns the
    arrays cut to the entries kept."""
    n = indptr.shape[0] - 1
    if not sparsetools.csr_has_canonical_format(n, indptr, indices):
        if not sparsetools.csr_has_sorted_indices(n, indptr, indices):
            sparsetools.csr_sort_indices(n, indptr, indices, data)
        sparsetools.csr_sum_duplicates(n, n, indptr, indices, data)
    return Csr(indptr, indices[:indptr[-1]], data[:indptr[-1]])


def from_coo(n: int, rows: np.ndarray, cols: np.ndarray, vals: np.ndarray) -> Csr:
    """The n x n CSR arrays of the entries ``vals`` at ``(rows, cols)``,
    duplicates summed, as scipy's COO to CSR conversion builds them."""
    nnz = vals.shape[0]
    idx = index_dtype(max(nnz, n))
    indptr, indices, data = np.empty(n + 1, idx), np.empty(nnz, idx), np.empty(nnz, vals.dtype)
    sparsetools.coo_tocsr(n, n, nnz, rows.astype(idx), cols.astype(idx), vals,
                          indptr, indices, data)
    return canonical(indptr, indices, data)


def row_entries(indptr: np.ndarray, rows: np.ndarray):
    """Positions of the stored entries of ``rows`` in ``indices`` and
    ``data``, row after row in stored order, and where each row's run of
    positions ends."""
    starts = indptr[rows]
    counts = indptr[rows + 1] - starts
    ends = np.cumsum(counts)
    gather = np.repeat(starts - ends + counts, counts)
    return gather + np.arange(gather.shape[0]), ends
