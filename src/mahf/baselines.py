"""Mexican Hat Wavelet baseline: the negative time derivative of heat diffusion.

The MHW at scale t acts as ``L exp(-t L)``, an isotropic band-pass that never
reads tangent frames.  It is evaluated with the same Chebyshev machinery as
the heat action, expanding ``x * exp(-t x)`` instead of ``exp(-t x)``.  No
extra normalization constant is applied; comparisons against the anisotropic
filters are about relative spatial structure.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .geometry import effective_normals
from .io_mesh import Mesh, VertexSignal
from .laplacian import SparseOperator
from .spectral import chebyshev_apply, shared_order


@dataclass(frozen=True)
class MhwSpec:
    """Scale of one Mexican Hat Wavelet filter."""

    t: float

    def __post_init__(self):
        if not (np.isfinite(self.t) and self.t > 0):
            raise ValueError(f"MHW scale must be finite and positive, got {self.t}")


def _mhw_function(t: float):
    return lambda x: x * np.exp(-t * x)


def mhw_normal_variation(mesh: Mesh, op: SparseOperator,
                         spec: MhwSpec | Sequence[MhwSpec]):
    """Sum of squared MHW responses over the three normal components.

    A sequence of specs returns one field per spec from a single recurrence.
    """
    specs = [spec] if isinstance(spec, MhwSpec) else list(spec)
    fns = [_mhw_function(sp.t) for sp in specs]
    filtered = chebyshev_apply(op, fns, effective_normals(mesh), shared_order(op, fns))
    fields = [VertexSignal(np.sum(f ** 2, axis=1), name="mhw_normal_variation")
              for f in filtered]
    return fields[0] if isinstance(spec, MhwSpec) else fields
