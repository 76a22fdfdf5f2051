"""Multiscale anisotropic harmonic filtering on non-Euclidean domains.

Signals living on triangle meshes, 3D point clouds or weighted graphs are
filtered by a product of a heat-kernel smoothing weight and a harmonic
(cos/sin of k times the tangent-plane azimuth) angular weight.  The squared
modulus of the two output components extracts local signal variation at the
chosen diffusion scale; sweeping the scale gives a multiscale analysis.
"""

__version__ = "0.1.0"

from .baselines import MhwSpec, mhw_normal_variation
from .errors import (GeometryError, MahfError, MeshFormatError, NumericalError,
                     OperatorError, SignalFormatError)
from .filters import (FilterResponse, FilterSpec, apply_filter, fuse, heat_kernel_row,
                      multiscale_apply, normal_variation)
from .geometry import (FrameField, NeighborList, build_frames, knn, pca_normals,
                       vertex_areas, vertex_normals)
from .io_mesh import (Mesh, VertexSignal, parse_mesh, parse_signal,
                      rgb_to_luminance, write_mesh, write_response, write_signal_csv)
from .laplacian import SparseOperator, cotan_operator, gaussian_knn_operator
from .spectral import HeatParams

__all__ = [
    "__version__",
    "Mesh", "VertexSignal", "parse_mesh", "parse_signal", "write_mesh",
    "write_response", "write_signal_csv", "rgb_to_luminance",
    "FrameField", "NeighborList", "vertex_normals", "pca_normals",
    "vertex_areas", "build_frames", "knn",
    "SparseOperator", "cotan_operator", "gaussian_knn_operator",
    "HeatParams", "heat_kernel_row",
    "FilterSpec", "FilterResponse", "apply_filter", "multiscale_apply",
    "normal_variation", "fuse",
    "MhwSpec", "mhw_normal_variation",
    "MahfError", "MeshFormatError", "SignalFormatError", "GeometryError",
    "OperatorError", "NumericalError",
]
