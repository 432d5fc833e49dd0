"""Canonical closed meshes used by verification cases and synthetic studies.

These are fixtures, not a meshing capability: spheres come from icosahedral
subdivision (20 * 4**level triangles), and the polyhedra are the textbook
coordinate constructions.
"""

from __future__ import annotations

import numpy as np

from .mesh import CurveMesh, SurfaceMesh

__all__ = [
    "icosphere",
    "unit_cube",
    "octahedron",
    "circle_curve",
]

_PHI = (1.0 + np.sqrt(5.0)) / 2.0

_ICO_VERTS = np.array(
    [
        [-1, _PHI, 0], [1, _PHI, 0], [-1, -_PHI, 0], [1, -_PHI, 0],
        [0, -1, _PHI], [0, 1, _PHI], [0, -1, -_PHI], [0, 1, -_PHI],
        [_PHI, 0, -1], [_PHI, 0, 1], [-_PHI, 0, -1], [-_PHI, 0, 1],
    ],
    dtype=float,
)

_ICO_FACES = np.array(
    [
        [0, 11, 5], [0, 5, 1], [0, 1, 7], [0, 7, 10], [0, 10, 11],
        [1, 5, 9], [5, 11, 4], [11, 10, 2], [10, 7, 6], [7, 1, 8],
        [3, 9, 4], [3, 4, 2], [3, 2, 6], [3, 6, 8], [3, 8, 9],
        [4, 9, 5], [2, 4, 11], [6, 2, 10], [8, 6, 7], [9, 8, 1],
    ],
    dtype=np.int64,
)


def icosphere(level: int = 2, radius: float = 1.0, center=(0.0, 0.0, 0.0),
              surface_id: str | None = None) -> SurfaceMesh:
    """Subdivided icosahedron projected onto a sphere.

    ``level`` halvings of the edge give 20 * 4**level triangles and
    10 * 4**level + 2 vertices; level 3 is 1280 faces, level 4 is 5120.
    """
    if level < 0:
        raise ValueError("level must be >= 0")
    verts = [tuple(v) for v in _ICO_VERTS / np.linalg.norm(_ICO_VERTS[0])]
    faces = [tuple(f) for f in _ICO_FACES]

    def midpoint(i: int, j: int, cache: dict) -> int:
        key = (min(i, j), max(i, j))
        if key not in cache:
            m = np.asarray(verts[i]) + np.asarray(verts[j])
            verts.append(tuple(m / np.linalg.norm(m)))
            cache[key] = len(verts) - 1
        return cache[key]

    for _ in range(level):
        cache: dict = {}
        new_faces = []
        for a, b, c in faces:
            ab = midpoint(a, b, cache)
            bc = midpoint(b, c, cache)
            ca = midpoint(c, a, cache)
            new_faces += [(a, ab, ca), (b, bc, ab), (c, ca, bc), (ab, bc, ca)]
        faces = new_faces

    v = np.asarray(verts, dtype=float)
    v = v / np.linalg.norm(v, axis=1)[:, None] * radius + np.asarray(center, float)
    sid = surface_id if surface_id is not None else f"sphere_r{radius:g}_l{level}"
    return SurfaceMesh(v, np.asarray(faces, dtype=np.int64), sid)


def unit_cube(surface_id: str = "cube") -> SurfaceMesh:
    """Unit cube [0,1]^3 as 12 outward-wound triangles (volume exactly 1)."""
    v = np.array(
        [[x, y, z] for z in (0.0, 1.0) for y in (0.0, 1.0) for x in (0.0, 1.0)]
    )
    quads = [
        (0, 2, 3, 1),  # z = 0, normal -z
        (4, 5, 7, 6),  # z = 1, normal +z
        (0, 1, 5, 4),  # y = 0, normal -y
        (2, 6, 7, 3),  # y = 1, normal +y
        (0, 4, 6, 2),  # x = 0, normal -x
        (1, 3, 7, 5),  # x = 1, normal +x
    ]
    tris = []
    for a, b, c, d in quads:
        tris += [(a, b, c), (a, c, d)]
    return SurfaceMesh(v, np.asarray(tris, dtype=np.int64), surface_id)


def octahedron(radius: float = 1.0, surface_id: str = "octahedron") -> SurfaceMesh:
    """Regular octahedron with vertices on the coordinate axes."""
    r = float(radius)
    v = np.array(
        [[r, 0, 0], [-r, 0, 0], [0, r, 0], [0, -r, 0], [0, 0, r], [0, 0, -r]]
    )
    tris = np.array(
        [
            [0, 2, 4], [2, 1, 4], [1, 3, 4], [3, 0, 4],
            [2, 0, 5], [1, 2, 5], [3, 1, 5], [0, 3, 5],
        ],
        dtype=np.int64,
    )
    return SurfaceMesh(v, tris, surface_id)


def circle_curve(radius: float = 1.0, n: int = 128, center=(0.0, 0.0),
                 surface_id: str | None = None) -> CurveMesh:
    """Counter-clockwise regular polygon approximating a circle."""
    if n < 3:
        raise ValueError("need at least 3 segments")
    theta = 2.0 * np.pi * np.arange(n) / n
    v = np.column_stack([np.cos(theta), np.sin(theta)]) * radius + np.asarray(center)
    segs = np.column_stack([np.arange(n), (np.arange(n) + 1) % n]).astype(np.int64)
    sid = surface_id if surface_id is not None else f"circle_r{radius:g}_n{n}"
    return CurveMesh(v, segs, sid)
