import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp

from mahf.csr import Csr
from mahf.geometry import FrameField, build_frames, vertex_normals
from mahf.io_mesh import Mesh
from mahf.laplacian import SparseOperator, cotan_operator
from mahf.spectral import chebyshev_apply, heat_function, shared_order
from mahf.synthetic import cube_surface, flat_grid, icosphere

# the one dense reference of the repository: the benchmark's eigendecomposition
# oracle, which shares no code with the library
sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
from oracle import DenseOracle  # noqa: E402

# Desk-scale stand-ins: mesh units are millimeters, so diffusion times in the
# demonstrated 5..100 range stay in the localized regime (sqrt(2 t) is a few
# mesh cells, and t * lambda_max stays well inside the Chebyshev envelope).
GRID_SPACING = 5.0
SPHERE_RADIUS = 20.0
CUBE_EDGE = 40.0
CUBE_DIVISIONS = 12


@pytest.fixture(scope="session")
def grid20():
    return flat_grid(20, 20, GRID_SPACING)


@pytest.fixture(scope="session")
def grid20_op(grid20):
    return cotan_operator(grid20)


@pytest.fixture(scope="session")
def grid20_frames(grid20):
    return build_frames(vertex_normals(grid20))


@pytest.fixture(scope="session")
def ico162():
    return icosphere(2, SPHERE_RADIUS)


@pytest.fixture(scope="session")
def ico162_op(ico162):
    return cotan_operator(ico162)


@pytest.fixture(scope="session")
def ico162_frames(ico162):
    return build_frames(vertex_normals(ico162))


@pytest.fixture(scope="session")
def ico642():
    return icosphere(3, SPHERE_RADIUS)


@pytest.fixture(scope="session")
def ico642_op(ico642):
    return cotan_operator(ico642)


@pytest.fixture(scope="session")
def cube40():
    return cube_surface(CUBE_DIVISIONS, CUBE_EDGE)


@pytest.fixture(scope="session")
def cube40_op(cube40):
    return cotan_operator(cube40)


@pytest.fixture(scope="session")
def two_node_op():
    return csr_operator(sp.csr_matrix(np.array([[1.0, -1.0], [-1.0, 1.0]])), np.ones(2))


@pytest.fixture(scope="session")
def path4_op():
    # path graph on 4 nodes with unit edge weights
    w = np.zeros((4, 4))
    for i in range(3):
        w[i, i + 1] = w[i + 1, i] = 1.0
    return csr_operator(sp.csr_matrix(np.diag(w.sum(axis=1)) - w), np.ones(4))


def csr_operator(matrix, mass, _lambda_max: float | None = None) -> SparseOperator:
    """A hand-made operator from a scipy sparse ``matrix``, passed on as the
    CSR arrays that :class:`SparseOperator` takes."""
    m = matrix.tocsr()
    return SparseOperator(Csr(m.indptr, m.indices, m.data), mass, _lambda_max=_lambda_max)


def dense_heat_oracle(op: SparseOperator, t: float):
    """Independent dense reference: (kernel K_t, propagator exp(-t L))."""
    kernel = DenseOracle(op.stiffness, op.mass).kernel(t)
    return kernel, kernel * op.mass[None, :]


def certified_action(op: SparseOperator, fn, s):
    """``fn(L) @ s`` from one Chebyshev pass at ``fn``'s certified order."""
    return chebyshev_apply(op, [fn], s, shared_order(op, [fn]))[0]


def heat_action(op: SparseOperator, t: float, s):
    """The heat action ``exp(-t L) @ s`` at its certified order."""
    return certified_action(op, heat_function(t), s)


def overflowing_operator(kind: str):
    """A two-vertex operator and a time whose heat-kernel row from vertex 0
    leaves the float64 range at recurrence step 2, with no warning before it.

    The mass 1/s makes the input s, and a spectral bound 100 times below the
    true one makes the mapped matrix ``100 * stiffness - I``.  ``"inf"``: an
    edge of weight 1, and the block is (-inf, +inf), whose sum is NaN.
    ``"overflow"``: an off-diagonal entry of +1, and the block is finite,
    about (-1.19e308, -1.19e308), but its sum overflows.
    """
    s, off = {"inf": (1e304, -1.0), "overflow": (3e303, 1.0)}[kind]
    stiffness = sp.csr_matrix(np.array([[1.0, off], [off, 1.0]]))
    op = csr_operator(stiffness, np.full(2, 1.0 / s), _lambda_max=0.02 * s)
    return op, 1.0 / op.lambda_max


def rotated_frames(frames: FrameField, angles) -> FrameField:
    """``frames`` with each tangent basis rotated about its normal by ``angles``."""
    phi = np.asarray(angles, dtype=np.float64).reshape(-1, 1)
    c, s = np.cos(phi), np.sin(phi)
    return FrameField(frames.normals, c * frames.x_axis + s * frames.y_axis,
                      c * frames.y_axis - s * frames.x_axis)


def grid_columns_rows(mesh: Mesh, spacing: float = GRID_SPACING):
    cols = np.rint(mesh.vertices[:, 0] / spacing).astype(int)
    rows = np.rint(mesh.vertices[:, 1] / spacing).astype(int)
    return cols, rows


def grid_interior_mask(mesh: Mesh, margin: int = 4, spacing: float = GRID_SPACING):
    """Vertices at least ``margin`` cells away from the open grid boundary."""
    cols, rows = grid_columns_rows(mesh, spacing)
    cmax, rmax = cols.max(), rows.max()
    return ((cols >= margin) & (cols <= cmax - margin) &
            (rows >= margin) & (rows <= rmax - margin))


def within_steps(op, sources, steps):
    """Vertices ``steps`` or fewer edges of the stiffness pattern from ``sources``."""
    s = op.stiffness
    hops = sp.csr_matrix((np.ones(s.nnz), s.indices, s.indptr), shape=s.shape)
    near = np.zeros(op.n)
    near[sources] = 1.0
    for _ in range(steps):
        near += hops @ near
    return np.flatnonzero(near)
