"""Synthetic test shapes: flat grids, icospheres, cube surfaces.

These stand-ins let every demonstration and test run without external mesh
assets.  Generators are deterministic; vertex order depends only on the
arguments.
"""

from __future__ import annotations

import numpy as np

from .io_mesh import Mesh


def flat_grid(nx: int, ny: int, spacing: float = 1.0) -> Mesh:
    """Planar nx-by-ny vertex grid in z = 0, wound so normals point to +z."""
    if nx < 2 or ny < 2:
        raise ValueError("grid needs at least 2 vertices per side")
    xs = np.arange(nx) * spacing
    ys = np.arange(ny) * spacing
    gx, gy = np.meshgrid(xs, ys, indexing="xy")
    verts = np.column_stack([gx.ravel(), gy.ravel(), np.zeros(nx * ny)])
    faces = []
    for j in range(ny - 1):
        for i in range(nx - 1):
            a = j * nx + i
            b, c, d = a + 1, a + nx, a + nx + 1
            faces.append((a, b, d))
            faces.append((a, d, c))
    return Mesh(verts, faces)


_ICO_T = (1.0 + np.sqrt(5.0)) / 2.0
_ICO_VERTS = np.array([
    (-1, _ICO_T, 0), (1, _ICO_T, 0), (-1, -_ICO_T, 0), (1, -_ICO_T, 0),
    (0, -1, _ICO_T), (0, 1, _ICO_T), (0, -1, -_ICO_T), (0, 1, -_ICO_T),
    (_ICO_T, 0, -1), (_ICO_T, 0, 1), (-_ICO_T, 0, -1), (-_ICO_T, 0, 1),
], dtype=np.float64)
_ICO_FACES = [
    (0, 11, 5), (0, 5, 1), (0, 1, 7), (0, 7, 10), (0, 10, 11),
    (1, 5, 9), (5, 11, 4), (11, 10, 2), (10, 7, 6), (7, 1, 8),
    (3, 9, 4), (3, 4, 2), (3, 2, 6), (3, 6, 8), (3, 8, 9),
    (4, 9, 5), (2, 4, 11), (6, 2, 10), (8, 6, 7), (9, 8, 1),
]


def icosphere(subdivisions: int, radius: float = 1.0) -> Mesh:
    """Subdivided icosahedron projected to a sphere; 12, 42, 162, 642, ... vertices."""
    if subdivisions < 0:
        raise ValueError("subdivisions must be nonnegative")
    mesh = Mesh(np.array([v / np.linalg.norm(v) for v in _ICO_VERTS]), _ICO_FACES)
    for _ in range(subdivisions):
        old = mesh.n_vertices
        mesh = refine_midpoint(mesh)
        verts = mesh.vertices.copy()
        # one norm per new vertex: a row-wise norm rounds differently
        for i in range(old, verts.shape[0]):
            verts[i] /= np.linalg.norm(verts[i])
        mesh = Mesh(verts, mesh.faces)
    return Mesh(mesh.vertices * radius, mesh.faces)


def cube_surface(divisions: int, edge: float = 1.0) -> Mesh:
    """Closed cube surface with each side split into divisions^2 cells.

    Face grids are generated on an integer lattice and welded exactly, so
    the seams along the twelve cube edges share vertices.
    """
    if divisions < 1:
        raise ValueError("divisions must be at least 1")
    n = divisions
    ex, ey, ez = np.eye(3, dtype=np.int64)
    zero = np.zeros(3, dtype=np.int64)
    # (origin, u axis, v axis) per side, with u x v pointing outward
    sides = [
        (zero, ey, ex),          # z = 0
        (n * ez, ex, ey),        # z = n
        (zero, ex, ez),          # y = 0
        (n * ey, ez, ex),        # y = n
        (zero, ez, ey),          # x = 0
        (n * ex, ey, ez),        # x = n
    ]
    points = []
    faces = []
    for origin, u, v in sides:
        base = len(points)
        for b in range(n + 1):
            for a in range(n + 1):
                points.append(origin + a * u + b * v)
        for b in range(n):
            for a in range(n):
                p00 = base + b * (n + 1) + a
                p10, p01 = p00 + 1, p00 + n + 1
                p11 = p01 + 1
                faces.append((p00, p10, p11))
                faces.append((p00, p11, p01))
    lattice = np.asarray(points, dtype=np.int64)
    unique, inverse = np.unique(lattice, axis=0, return_inverse=True)
    faces = inverse[np.asarray(faces, dtype=np.int64)]
    return Mesh(unique.astype(np.float64) * (edge / n), faces)


def refine_midpoint(mesh: Mesh) -> Mesh:
    """Uniform 1:4 refinement at edge midpoints; the surface is unchanged."""
    verts = list(mesh.vertices)
    midpoint: dict[tuple[int, int], int] = {}

    def midpoint_index(i, j):
        key = (min(i, j), max(i, j))
        if key not in midpoint:
            verts.append(0.5 * (verts[i] + verts[j]))
            midpoint[key] = len(verts) - 1
        return midpoint[key]

    faces = []
    for a, b, c in mesh.faces:
        ab = midpoint_index(a, b)
        bc = midpoint_index(b, c)
        ca = midpoint_index(c, a)
        faces.extend([(a, ab, ca), (b, bc, ab), (c, ca, bc), (ab, bc, ca)])
    return Mesh(np.asarray(verts), faces)
