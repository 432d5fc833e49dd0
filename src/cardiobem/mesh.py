"""Triangulated surfaces, domain configuration and nodal fields.

Conventions used throughout the toolkit:

* lengths are centimetres, potentials millivolts, conductivities mS/cm;
* surface meshes are closed, watertight, consistently wound triangle meshes
  with outward orientation (positive enclosed volume).  Normals and areas are
  always recomputed from vertex coordinates, never trusted from a file;
* vertex indices are 0-based everywhere, including on disk;
* nodal fields live on mesh vertices (piecewise-linear collocation densities).

The 2D counterpart :class:`CurveMesh` (closed polygonal loops, used by the
annulus verification cases) mirrors the same interface: ``elements`` are
vertex index pairs, ``areas`` are segment lengths and the enclosed "volume"
is the signed plane area.
"""

from __future__ import annotations

import codecs
import itertools
import json
import locale
import logging
import os
import threading
from dataclasses import dataclass
from enum import Enum
from pathlib import Path
from typing import Iterator

import numpy as np
import orjson

from .errors import GeometryError, ParseError, PointOnBoundary, ShapeMismatch

__all__ = [
    "SurfaceMesh",
    "CurveMesh",
    "DomainConfig",
    "NodalField",
    "PointLocation",
    "load_mesh",
    "save_mesh",
    "signed_volume",
    "point_location",
    "points_inside",
    "surface_distance",
    "save_nodal_field",
    "load_nodal_field",
]

logger = logging.getLogger(__name__)

_MESH_TOKENS = itertools.count()
_CLAIM_LOCK = threading.Lock()

# (point, triangle) pairs per points_inside block: each pair holds about 48
# bytes of transients in _ray_parity, so a block stays near 13 MB
_INSIDE_BLOCK = 1 << 18

# relative slack of the near-pair candidate test, see _near_pairs
_NEAR_SLACK = 1e-8
# (point, panel) entries per candidate product of _near_pairs: 8 MB
_PAIR_BLOCK = 1 << 20
# (point, panel) pairs per _closest_points call in _distances_within: a
# triangle pair holds about 500 bytes of transients, its corners included,
# so a call stays near 8 MB even when an infinite reach makes every pair a
# candidate
_CLOSEST_BATCH = 1 << 14

# the parity tests' bounds, shared by _ray_parity and _lattice_inside: a
# triangle with |det| at most _PARALLEL is parallel to the ray; within
# _GRAZE of an edge, in barycentrics, a ray grazes it; a crossing within
# _GRAZE times the bounding-box diagonal of the origin is not counted
_PARALLEL = 1e-14
_GRAZE = 1e-10

# Deterministic "random" ray directions for parity tests; re-cast along the
# next one when a ray grazes an edge.
_RAY_DIRECTIONS = np.array(
    [
        [0.57735026919, 0.57735026919, 0.57735026919],
        [0.85065080835, 0.52573111212, 0.0],
        [-0.23907380037, 0.66158896187, 0.71083353418],
        [0.32798527761, -0.59340005443, 0.73497112566],
        [-0.81649658092, 0.40824829046, 0.40824829046],
        [0.70710678119, 0.0, -0.70710678119],
        [-0.26726124191, -0.53452248382, 0.80178372573],
        [0.48507125007, 0.72760687510, -0.48507125007],
    ]
)


class PointLocation(Enum):
    """Where a query point sits relative to a heart/torso configuration."""

    IN_HEART = "in_heart"
    IN_SHELL = "in_shell"
    OUTSIDE = "outside"
    ON_BOUNDARY = "on_boundary"


def _freeze(a: np.ndarray) -> np.ndarray:
    a = np.ascontiguousarray(a)
    a.flags.writeable = False
    return a


def _memo(owner, key, build):
    """``owner``'s derived value under ``key``, made by ``build()`` on a miss.

    Data derived from a frozen mesh, heart-torso domain, grid, operator spec
    or field, operators and solution operators included, lives in one dict
    on the object it derives from and goes when that object goes.  A hit
    takes no lock.  A miss claims (owner, key) under a short lock and builds
    outside it, so builds of other entries, on this owner or any other, go
    on meanwhile; a build may read other entries.  Threads that miss one
    entry together wait for its one build.  A build that raises frees its
    claim, and the next caller builds again.  No build returns None.
    """
    while True:
        found = owner.__dict__.get("_derived", {}).get(key)
        if found is not None:
            return found
        with _CLAIM_LOCK:
            claims = owner.__dict__.setdefault("_claims", {})
            claim = claims.get(key)
            if claim is None and key not in owner.__dict__.get("_derived", {}):
                claims[key] = threading.Event()
                break
        if claim is not None:
            claim.wait()
    try:
        found = owner.__dict__.setdefault("_derived", {})[key] = build()
        return found
    finally:
        with _CLAIM_LOCK:
            claims.pop(key).set()


def _longest_edges(verts: np.ndarray, els: np.ndarray) -> np.ndarray:
    """(m,) longest edge of each element; a segment's is its length."""
    edges = verts[els] - verts[np.roll(els, 1, axis=1)]  # (m, k, dim)
    return np.linalg.norm(edges, axis=2).max(axis=1)


class _Mesh:
    """What :class:`SurfaceMesh` and :class:`CurveMesh` share.

    A closed mesh in dim = k dimensions of elements with k vertices each,
    held in the field named by the class attribute ``_ELEMENTS``.  The
    checks and derived data here are written once for any k; a subclass
    adds its closedness check (``_check_closed``) and its element frames
    (``_frames``: unit normals and measures, rejecting degenerate elements).
    """

    def __post_init__(self) -> None:
        k, kind = self._WIDTH, self._ELEMENTS
        verts = np.asarray(self.vertices, dtype=float)
        els = np.asarray(getattr(self, kind), dtype=np.int64)
        if verts.ndim != 2 or verts.shape[1] != k or len(verts) <= k:
            raise GeometryError(f"vertices must be an (n>={k + 1}, {k}) array")
        if els.ndim != 2 or els.shape[1] != k or len(els) <= k:
            raise GeometryError(f"{kind} must be an (m>={k + 1}, {k}) array")
        if not np.all(np.isfinite(verts)):
            raise GeometryError("non-finite vertex coordinates")
        if els.min() < 0 or els.max() >= len(verts):
            raise GeometryError(f"{kind} index vertices out of range")
        self._check_closed(len(verts), els)
        if signed_volume(verts, els) < 0.0:
            logger.info("%s %r stored with inward orientation; applying global "
                        "flip", type(self).__name__, self.surface_id)
            els = els[:, ::-1]
        volume = signed_volume(verts, els)
        if volume <= 0.0:
            raise GeometryError("mesh encloses no positive volume (area in 2D)")
        normals, areas = self._frames(verts, els)
        object.__setattr__(self, "vertices", _freeze(verts))
        object.__setattr__(self, kind, _freeze(els))
        object.__setattr__(self, "_normals", _freeze(normals))
        object.__setattr__(self, "_areas", _freeze(areas))
        object.__setattr__(self, "_volume", volume)
        object.__setattr__(self, "_token", next(_MESH_TOKENS))

    @property
    def dim(self) -> int:
        """Ambient dimension, the element width k: 3 for a surface, 2 for a curve."""
        return self._WIDTH

    @property
    def elements(self) -> np.ndarray:
        """(m, k) vertex indices: the triangles or the segments."""
        return getattr(self, self._ELEMENTS)

    @property
    def n_vertices(self) -> int:
        return len(self.vertices)

    @property
    def normals(self) -> np.ndarray:
        """(m, dim) outward unit normals, recomputed from coordinates."""
        return self._normals

    @property
    def areas(self) -> np.ndarray:
        """(m,) element measures: triangle areas in cm^2, segment lengths."""
        return self._areas

    @property
    def enclosed_volume(self) -> float:
        """Enclosed volume, or plane area in 2D (positive by construction)."""
        return self._volume

    @property
    def cache_token(self) -> int:
        """Per-instance counter; two loads of the same file get different
        tokens.  No library code reads it: perfbench's tracer tells meshes
        apart by it, and it goes once the tracer uses the mesh's identity
        instead (ROADMAP item 2)."""
        return self._token

    @property
    def vertex_weights(self) -> np.ndarray:
        """Lumped quadrature weights: w_i = sum of adjacent measures / k.

        These realize the boundary integral of a nodal field,
        ``integral(u dsigma) ~= w . u``, exact for densities constant on the
        one-ring average sense and consistent with piecewise-linear
        integration of the constant on each element.  Built once,
        read-only.
        """
        def build():
            k = self._WIDTH
            w = np.zeros(self.n_vertices)
            np.add.at(w, self.elements.ravel(), np.repeat(self.areas / k, k))
            return _freeze(w)

        return _memo(self, "vertex_weights", build)

    @property
    def edges(self) -> np.ndarray:
        """(e, 2) unique undirected edges (i < j), built once, read-only."""
        def build():
            els = self.elements
            e = np.column_stack([els.ravel(), np.roll(els, -1, axis=1).ravel()])
            e.sort(axis=1)
            return _freeze(np.unique(e, axis=0))

        return _memo(self, "edges", build)

    def element_diameters(self) -> np.ndarray:
        """(m,) longest edge per element, used for near-field switching."""
        return _longest_edges(self.vertices, self.elements)


@dataclass(frozen=True, eq=False)
class SurfaceMesh(_Mesh):
    """Closed triangle mesh with outward orientation.

    Parameters
    ----------
    vertices : (n, 3) float array
        Vertex coordinates in cm.
    triangles : (m, 3) int array
        Vertex indices, counter-clockwise seen from outside.
    surface_id : str
        Label used to match nodal fields to their surface.

    Raises
    ------
    GeometryError
        If the mesh is open, inconsistently wound beyond a global flip,
        has degenerate triangles, or encloses no volume.
    """

    vertices: np.ndarray
    triangles: np.ndarray
    surface_id: str = "surface"

    _ELEMENTS, _WIDTH = "triangles", 3

    @staticmethod
    def _check_closed(n: int, tris: np.ndarray) -> None:
        directed = np.vstack(
            [tris[:, [0, 1]], tris[:, [1, 2]], tris[:, [2, 0]]]
        )
        keys = directed[:, 0].astype(np.int64) * (directed.max() + 1) + directed[:, 1]
        uniq, counts = np.unique(keys, return_counts=True)
        if np.any(counts > 1):
            raise GeometryError("inconsistent winding: a directed edge repeats")
        rev = directed[:, 1].astype(np.int64) * (directed.max() + 1) + directed[:, 0]
        if not np.isin(rev, uniq).all():
            raise GeometryError("open surface: an edge is used by only one triangle")

    @staticmethod
    def _frames(verts: np.ndarray, tris: np.ndarray) -> tuple:
        p0, p1, p2 = verts[tris[:, 0]], verts[tris[:, 1]], verts[tris[:, 2]]
        cross = np.cross(p1 - p0, p2 - p0)
        norm = np.linalg.norm(cross, axis=1)
        if np.any(norm == 0.0):
            raise GeometryError("zero-area triangle")
        areas = 0.5 * norm
        diag = float(np.linalg.norm(verts.max(axis=0) - verts.min(axis=0)))
        # smallest altitude of a triangle is 2*area / longest edge
        altitudes = 2.0 * areas / _longest_edges(verts, tris)
        if altitudes.min() <= 1e-9 * diag:
            raise GeometryError("degenerate triangle (altitude below 1e-9 of bbox)")
        return cross / norm[:, None], areas


@dataclass(frozen=True, eq=False)
class CurveMesh(_Mesh):
    """Closed polygonal loop(s) in the plane, the 2D analogue of a surface.

    ``segments`` are directed index pairs tracing the loop counter-clockwise
    (outward normals point away from the enclosed region); a globally
    clockwise input is flipped, mirroring the 3D orientation repair.
    """

    vertices: np.ndarray
    segments: np.ndarray
    surface_id: str = "curve"

    _ELEMENTS, _WIDTH = "segments", 2

    @staticmethod
    def _check_closed(n: int, segs: np.ndarray) -> None:
        out_deg = np.bincount(segs[:, 0], minlength=n)
        in_deg = np.bincount(segs[:, 1], minlength=n)
        if not (np.all(out_deg == 1) and np.all(in_deg == 1)):
            raise GeometryError("curve is not a disjoint union of closed loops")

    @staticmethod
    def _frames(verts: np.ndarray, segs: np.ndarray) -> tuple:
        d = verts[segs[:, 1]] - verts[segs[:, 0]]
        lengths = np.linalg.norm(d, axis=1)
        if lengths.min() <= 1e-12 * max(1.0, lengths.max()):
            raise GeometryError("degenerate segment")
        tangents = d / lengths[:, None]
        return np.column_stack([tangents[:, 1], -tangents[:, 0]]), lengths


@dataclass(frozen=True, eq=False)
class NodalField:
    """Values attached to the vertices of one surface.

    ``units`` is a free-form label ("mV", "uA/cm^2", ...); operations never
    convert units, they only propagate the labels they document.
    """

    surface_id: str
    values: np.ndarray
    units: str = "mV"

    def __post_init__(self) -> None:
        vals = np.asarray(self.values, dtype=float)
        if vals.ndim != 1:
            raise ShapeMismatch("field values must be one-dimensional")
        if not np.all(np.isfinite(vals)):
            raise ShapeMismatch("field contains non-finite values")
        object.__setattr__(self, "values", _freeze(vals))

    @staticmethod
    def for_mesh(mesh, values, units: str = "mV") -> "NodalField":
        """Build a field and check its length against ``mesh``."""
        vals = np.asarray(values, dtype=float)
        if vals.shape != (mesh.n_vertices,):
            raise ShapeMismatch(
                f"field length {vals.shape} does not match mesh "
                f"{mesh.surface_id!r} with {mesh.n_vertices} vertices"
            )
        return NodalField(mesh.surface_id, vals, units)

    def check_on(self, mesh) -> np.ndarray:
        """Return values after verifying the field belongs on ``mesh``."""
        if self.surface_id != mesh.surface_id:
            raise ShapeMismatch(
                f"field on {self.surface_id!r} applied to mesh {mesh.surface_id!r}"
            )
        if len(self.values) != mesh.n_vertices:
            raise ShapeMismatch(
                f"field length {len(self.values)} != {mesh.n_vertices} vertices"
            )
        return self.values


@dataclass(frozen=True, eq=False)
class DomainConfig:
    """Heart surface strictly inside a torso surface.

    The closed region between the two surfaces is the passive conductor
    shell; the inside of ``heart`` is the active tissue domain.  The domain
    owns the shell problems' operators, which go with it: build one per
    heart-torso pair and reuse it for every solve on that pair.
    """

    heart: SurfaceMesh | CurveMesh
    torso: SurfaceMesh | CurveMesh
    containment_tolerance: float = 1e-6

    def __post_init__(self) -> None:
        if self.heart.dim != self.torso.dim:
            raise GeometryError("heart and torso must share the ambient dimension")
        if self.containment_tolerance <= 0.0:
            raise GeometryError("containment_tolerance must be positive")
        if self.heart.surface_id == self.torso.surface_id:
            raise GeometryError("heart and torso need distinct surface ids")
        inside = points_inside(self.torso, self.heart.vertices)
        if not inside.all():
            raise GeometryError("heart surface is not strictly inside the torso")
        if points_inside(self.heart, self.torso.vertices).any():
            raise GeometryError("torso surface dips inside the heart")
        tol = self.containment_tolerance
        gap = min(_distances_within(self.torso, self.heart.vertices, tol).min(),
                  _distances_within(self.heart, self.torso.vertices, tol).min())
        if gap <= tol:
            raise GeometryError(
                f"surfaces come within {gap:.3e} cm of each other "
                f"(tolerance {tol:.1e})"
            )


# ---------------------------------------------------------------------------
# geometry predicates


def _signed_area(verts: np.ndarray, segs: np.ndarray) -> float:
    a = verts[segs[:, 0]]
    b = verts[segs[:, 1]]
    return float(0.5 * np.sum(a[:, 0] * b[:, 1] - b[:, 0] * a[:, 1]))


def signed_volume(vertices, triangles=None) -> float:
    """Signed enclosed volume of a closed triangle mesh (divergence theorem).

    Accepts either a :class:`SurfaceMesh` / :class:`CurveMesh` (returning the
    stored positive volume / area) or raw ``(vertices, triangles)`` arrays, in
    which case the sign reflects the winding as given.
    """
    if triangles is None:
        return vertices.enclosed_volume
    verts = np.asarray(vertices, dtype=float)
    tris = np.asarray(triangles, dtype=np.int64)
    if verts.shape[1] == 2:
        return _signed_area(verts, tris)
    p0, p1, p2 = verts[tris[:, 0]], verts[tris[:, 1]], verts[tris[:, 2]]
    return float(np.einsum("ij,ij->", p0, np.cross(p1, p2)) / 6.0)


def _ray_parity(mesh: SurfaceMesh, points: np.ndarray) -> np.ndarray:
    """Crossing-parity containment test, robust to edge grazing by re-cast.

    Per triangle, the Moller-Trumbore barycentrics u, v and the ray
    parameter t along direction d are each (x - v0) . c / det for a vector
    c of the triangle alone: d x e2, e1 x d and e1 x e2.  So each is one
    matrix product of the points with the stacked vectors c / det, less a
    per-triangle constant.
    """
    verts, tris = mesh.vertices, mesh.triangles
    v0 = verts[tris[:, 0]]
    e1 = verts[tris[:, 1]] - v0
    e2 = verts[tris[:, 2]] - v0
    n = np.cross(e1, e2)
    inside = np.zeros(len(points), dtype=bool)
    pending = np.arange(len(points))
    scale = float(np.linalg.norm(verts.max(0) - verts.min(0)))
    for d in _RAY_DIRECTIONS:
        if len(pending) == 0:
            break
        p = np.cross(d, e2)  # (m, 3)
        det = np.einsum("mj,mj->m", e1, p)
        ok = np.abs(det) > _PARALLEL
        inv = np.where(ok, 1.0 / np.where(ok, det, 1.0), 0.0)
        vecs = np.stack((p, np.cross(e1, d), n)) * inv[:, None]  # (3, m, 3)
        offsets = np.einsum("kmj,mj->km", vecs, v0)
        uvt = points[pending] @ vecs.reshape(-1, 3).T - offsets.reshape(-1)
        u, v, t = np.split(uvt, 3, axis=1)  # each (p, m)
        eps = _GRAZE
        hit = ok & (u > eps) & (v > eps) & (u + v < 1.0 - eps) & (t > eps * scale)
        # grazing: intersection parameter close to an edge of any triangle
        margin = ok & (t > eps * scale) & (
            (np.abs(u) <= eps) | (np.abs(v) <= eps) | (np.abs(u + v - 1.0) <= eps)
        )
        ambiguous = margin.any(axis=1)
        parity = (hit.sum(axis=1) % 2).astype(bool)
        settled = ~ambiguous
        inside[pending[settled]] = parity[settled]
        pending = pending[ambiguous]
    if len(pending):
        # all rays grazed an edge; fall back to the last parity computed
        inside[pending] = parity[ambiguous]
    return inside


def _lattice_inside(mesh: SurfaceMesh, axes) -> np.ndarray:
    """:func:`points_inside` over the lattice ``axes[0] x axes[1] x axes[2]``.

    Returns the (nx, ny, nz) mask.  All cells of an (x, y) column share one
    +z ray.  For d = e_z the Moller-Trumbore u and v of :func:`_ray_parity`
    depend on x and y alone, and t = 0 at a crossing height zc, so one pass
    per column over the triangles settles all its cells: a cell is inside
    when an odd number of crossings lie more than eps * scale above it.  The
    tests are ``_ray_parity``'s (``_PARALLEL``, eps and eps * scale).  A
    column within eps of a triangle edge, and a cell within eps * scale of
    a crossing, are left to :func:`points_inside`.  As there, cells outside
    the open bounding box are not inside.
    """
    x, y, z = axes
    verts, tris = mesh.vertices, mesh.triangles
    lo, hi = verts.min(axis=0), verts.max(axis=0)
    eps = _GRAZE
    tol = eps * float(np.linalg.norm(hi - lo))
    ix = np.flatnonzero((x > lo[0]) & (x < hi[0]))
    iy = np.flatnonzero((y > lo[1]) & (y < hi[1]))
    iz = np.flatnonzero((z > lo[2]) & (z < hi[2]))
    inside = np.zeros((len(x), len(y), len(z)), dtype=bool)
    defer = np.zeros_like(inside)
    v0 = verts[tris[:, 0]]
    e1 = verts[tris[:, 1]] - v0
    e2 = verts[tris[:, 2]] - v0
    d = np.array([0.0, 0.0, 1.0])
    p = np.cross(d, e2)
    det = np.einsum("mj,mj->m", e1, p)
    ok = np.abs(det) > _PARALLEL
    # u, v and zc - v0_z are each (x, y) . c[:2] / det, less a constant,
    # for c = d x e2, e1 x d and e1 x e2
    vecs = np.stack((p, np.cross(e1, d), np.cross(e1, e2)))[:, ok, :2] / det[ok, None]
    offsets = np.einsum("kmj,mj->km", vecs, v0[ok, :2])
    offsets[2] -= v0[ok, 2]
    cols = np.stack(np.meshgrid(ix, iy, indexing="ij"), axis=-1).reshape(-1, 2)
    chunk = max(1, _INSIDE_BLOCK // max(1, int(ok.sum())))
    zs = z[iz]
    for start in range(0, len(cols), chunk):
        i, j = cols[start:start + chunk].T
        xy = np.column_stack((x[i], y[j]))
        uvz = xy @ vecs.reshape(-1, 2).T - offsets.reshape(-1)
        u, v, zc = np.split(uvz, 3, axis=1)  # each (columns, triangles)
        hit = (u > eps) & (v > eps) & (u + v < 1.0 - eps)
        grazes = ((u >= -eps) & (v >= -eps) & (u + v <= 1.0 + eps) & ~hit).any(axis=1)
        defer[i[grazes, None], j[grazes, None], iz] = True
        col, tri = np.nonzero(hit)  # col ascending: each column's crossings are a run
        if len(col) == 0:
            continue
        t = zc[col, tri][:, None] - zs  # (crossings, cells)
        first = np.flatnonzero(np.diff(col, prepend=-1))
        ci, cj = i[col[first], None], j[col[first], None]
        inside[ci, cj, iz] = np.logical_xor.reduceat(t > tol, first, axis=0)
        defer[ci, cj, iz] |= np.logical_or.reduceat(np.abs(t) <= tol, first, axis=0)
    cells = np.nonzero(defer)
    if len(cells[0]):
        inside[cells] = points_inside(mesh, np.column_stack(
            (x[cells[0]], y[cells[1]], z[cells[2]])))
    return inside


def _curve_parity(mesh: CurveMesh, points: np.ndarray) -> np.ndarray:
    a = mesh.vertices[mesh.segments[:, 0]]
    b = mesh.vertices[mesh.segments[:, 1]]
    x = points[:, None, 0]
    y = points[:, None, 1]
    ya, yb = a[None, :, 1], b[None, :, 1]
    xa, xb = a[None, :, 0], b[None, :, 0]
    straddles = (ya <= y) != (yb <= y)
    with np.errstate(divide="ignore", invalid="ignore"):
        x_cross = xa + (y - ya) * (xb - xa) / (yb - ya)
    crossings = straddles & (x_cross > x)
    return (crossings.sum(axis=1) % 2).astype(bool)


def points_inside(mesh, points: np.ndarray) -> np.ndarray:
    """Boolean mask of which ``points`` lie strictly inside ``mesh``.

    The surface lies in the closed bounding box of its vertices, so a point
    outside the open box is not strictly inside and casts no ray.
    """
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    if pts.shape[1] != mesh.dim:
        raise ShapeMismatch(f"points must be (n, {mesh.dim})")
    verts = mesh.vertices
    cand = np.flatnonzero(((pts > verts.min(axis=0))
                           & (pts < verts.max(axis=0))).all(axis=1))
    if mesh.dim == 2:
        parity, chunk = _curve_parity, 4096
    else:
        parity = _ray_parity
        chunk = max(1, _INSIDE_BLOCK // max(1, len(mesh.elements)))
    out = np.zeros(len(pts), dtype=bool)
    for lo in range(0, len(cand), chunk):
        idx = cand[lo : lo + chunk]
        out[idx] = parity(mesh, pts[idx])
    return out


def _closest_points(x: np.ndarray, corners: np.ndarray) -> tuple:
    """Point of each panel nearest its target, for (P, dim) / (P, k, dim).

    A segment's (k = 2) is the clamped projection onto it.  A triangle's
    (k = 3) is the projection onto its plane when that falls inside it,
    otherwise the nearest edge point (the first edge wins a tie).  Returns
    the points (P, dim) and their barycentric coordinates (P, k).
    """
    k = corners.shape[1]
    pair = np.arange(len(x))
    # edge a runs from corner a to corner a + 1; a segment is its own edge
    n_edges = 3 if k == 3 else 1
    starts = corners[:, :n_edges]
    ab = np.roll(corners, -1, axis=1)[:, :n_edges] - starts
    t = np.clip(((x[:, None, :] - starts) * ab).sum(2) / (ab * ab).sum(2), 0.0, 1.0)
    on_edge = starts + t[..., None] * ab
    edge = np.argmin(np.linalg.norm(x[:, None, :] - on_edge, axis=2), axis=1)
    t = t[pair, edge]
    lam = np.zeros((len(x), k))
    lam[pair, edge] = 1.0 - t
    lam[pair, (edge + 1) % k] = t
    point = on_edge[pair, edge]
    if k == 2:
        return point, lam
    c0 = corners[:, 0]
    e1 = corners[:, 1] - c0
    e2 = corners[:, 2] - c0
    s = x - c0
    g11, g12, g22 = (e1 * e1).sum(1), (e1 * e2).sum(1), (e2 * e2).sum(1)
    det = g11 * g22 - g12 * g12
    se1, se2 = (s * e1).sum(1), (s * e2).sum(1)
    u = (g22 * se1 - g12 * se2) / det
    v = (g11 * se2 - g12 * se1) / det
    inside = ((u >= 0) & (v >= 0) & (u + v <= 1))[:, None]
    point = np.where(inside, c0 + u[:, None] * e1 + v[:, None] * e2, point)
    lam = np.where(inside, np.column_stack([1.0 - u - v, u, v]), lam)
    return point, lam


def _panel_balls(mesh) -> tuple:
    """The panel balls and the rows of ``_near_pairs``' candidate product.

    Returns ``(centroids, radius, centre, c_aug)``: per panel its centroid
    (m, dim) and a radius (m,) about it that reaches every corner, inflated
    past the rounding of ``_near_pairs``' test; the mesh centre, the mean
    of its vertices; and per panel the row (-2 c', (1 - s)|c'|^2, 1 - s)
    of its centroid c' about the centre, s = ``_NEAR_SLACK``.  Panel j lies
    at least |x - c_j| - R_j from x, so only the panels with
    |x - c_j| < R_j + tol can come within tol of x: a distance taken over
    those alone is exact where it is at most tol and more than tol
    elsewhere (``_distances_within``).  Built once per mesh, read-only.
    """
    def build():
        corners = mesh.vertices[mesh.elements]  # (m, k, dim)
        centroids = corners.mean(axis=1)
        radius = np.linalg.norm(corners - centroids[:, None], axis=2).max(axis=1)
        centre = mesh.vertices.mean(axis=0)
        cc = centroids - centre
        shrink = 1.0 - _NEAR_SLACK
        c_aug = np.column_stack([-2.0 * cc, shrink * (cc * cc).sum(axis=1),
                                 np.full(len(cc), shrink)])
        return tuple(_freeze(a) for a in
                     (centroids, radius * (1.0 + 1e-12), centre, c_aug))

    return _memo(mesh, "panel_balls", build)


def _near_pairs(mesh, x: np.ndarray, reach: np.ndarray) -> tuple:
    """The (point, panel) pairs, point-major, whose panel centroid lies
    strictly within ``reach`` (m,), its panel's, of the point.

    Returns ``(loc, el)``, the point and panel indices.  Candidates come
    from one product of squared distances about the mesh centre,
    |x'|^2 + |c'|^2 - 2 x'.c', less a slack of ``_NEAR_SLACK``
    (|x'|^2 + |c'|^2 + reach^2), far above its rounding; the distance of
    each candidate is then taken component by component, as a loop over
    all pairs would, so the pairs are exactly those within reach.  An
    infinite reach takes every pair.  The product runs over blocks of at
    most ``_PAIR_BLOCK`` entries.
    """
    centroids, _, centre, c_aug = _panel_balls(mesh)
    bound = (1.0 + _NEAR_SLACK) * reach ** 2
    xc = x - centre
    x_aug = np.column_stack([xc, np.ones(len(x)), (xc * xc).sum(axis=1)])
    starts = range(0, max(1, len(x)), max(1, _PAIR_BLOCK // len(centroids)))
    parts = [np.nonzero(x_aug[lo : lo + starts.step] @ c_aug.T < bound)
             for lo in starts]
    loc = np.concatenate([i + lo for lo, (i, _) in zip(starts, parts)])
    el = np.concatenate([j for _, j in parts])
    if len(loc) == 0:
        return loc, el
    d = np.sqrt(sum((x[loc, i] - centroids[el, i]) ** 2 for i in range(x.shape[1])))
    close = d < reach[el]
    return loc[close], el[close]


def _distances_within(mesh, points: np.ndarray, tol: float) -> np.ndarray:
    """Distance from each point to the surface: exact where it is at most
    ``tol``, and more than ``tol`` elsewhere (inf when no panel is near).

    Only the panels of the near pairs at reach R_j + tol (``_near_pairs``,
    ``_panel_balls``) can lie within ``tol``; each point keeps the least
    distance to the nearest points of its pairs (``_closest_points``), in
    batches of ``_CLOSEST_BATCH`` pairs.
    """
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    if pts.shape[1] != mesh.dim:
        raise ShapeMismatch(f"points must be (n, {mesh.dim})")
    loc, el = _near_pairs(mesh, pts, _panel_balls(mesh)[1] + tol)
    out = np.full(len(pts), np.inf)
    for lo in range(0, len(loc), _CLOSEST_BATCH):
        i, j = loc[lo : lo + _CLOSEST_BATCH], el[lo : lo + _CLOSEST_BATCH]
        near = _closest_points(pts[i], mesh.vertices[mesh.elements[j]])[0]
        np.minimum.at(out, i, np.linalg.norm(pts[i] - near, axis=1))
    return out


def surface_distance(mesh, points: np.ndarray) -> np.ndarray:
    """Euclidean distance from each point to the surface of ``mesh``.

    ``_distances_within`` at an infinite tolerance: every (point, panel)
    pair is near, so the distance is exact everywhere.
    """
    return _distances_within(mesh, points, np.inf)


def point_location(config: DomainConfig, x) -> PointLocation:
    """Classify a point against a heart/torso configuration.

    A point within ``containment_tolerance`` of either surface reports
    :attr:`PointLocation.ON_BOUNDARY`; otherwise parity against the two
    surfaces decides between heart interior, conductor shell and outside.
    """
    pt = np.asarray(x, dtype=float).reshape(1, -1)
    tol = config.containment_tolerance
    if _distances_within(config.heart, pt, tol)[0] <= tol:
        return PointLocation.ON_BOUNDARY
    if _distances_within(config.torso, pt, tol)[0] <= tol:
        return PointLocation.ON_BOUNDARY
    if points_inside(config.heart, pt)[0]:
        return PointLocation.IN_HEART
    if points_inside(config.torso, pt)[0]:
        return PointLocation.IN_SHELL
    return PointLocation.OUTSIDE


# ---------------------------------------------------------------------------
# mesh file I/O


def _write_text(path, text) -> None:
    """Write ``text`` to ``path`` as ``Path.write_text`` does, but in place.

    ``text`` is a string or an iterable of strings, such as the blocks of
    :func:`_format_rows`; each is encoded and written as it comes, so a
    large table is never held whole as one string or as bytes.  The file is
    overwritten from its start through a raw descriptor and cut only when it
    was longer than the new text, not truncated on open: on ext4, truncating
    a file to zero and rewriting it makes ``close()`` start write-back
    (``auto_da_alloc``), which costs far more than writing these small
    files.  The encoding (the locale's preferred one) and the mode of a new
    file are ``write_text``'s; newlines are written as ``"\\n"``, which is
    what ``write_text`` does on POSIX.  The write is not atomic: a crash, a
    concurrent reader or a block that fails to format can leave a partial
    file.
    """
    encode = codecs.getincrementalencoder(locale.getpreferredencoding(False))().encode
    size = 0
    fd = os.open(path, os.O_WRONLY | os.O_CREAT, 0o666)
    try:
        for piece in [text] if isinstance(text, str) else text:
            size += _write_all(fd, encode(piece))
        size += _write_all(fd, encode("", final=True))
        if os.fstat(fd).st_size > size:
            os.ftruncate(fd, size)
    finally:
        os.close(fd)


def _write_all(fd: int, data: bytes) -> int:
    view = memoryview(data)
    while view:
        view = view[os.write(fd, view):]
    return len(data)


# cells per block of ``_format_rows``: a block's floats, strings and tuple
# stay under 1 MB, and a 642 x 1000 record formats faster than in blocks of
# 2^16 cells
_BLOCK_CELLS = 1 << 12


def _format_rows(line: str, values, index: bool = False) -> Iterator[str]:
    """Fill ``line`` once per row of ``values``, as ``(line * rows) % cells``.

    ``values`` (1-D: one value a row) is read as float64.  Each ``%r`` prints
    ``repr(float(x))``, Python's shortest round-trip form.  The digits come
    from one ``orjson.dumps`` of the block's floats, which spells them as
    ``repr`` does for magnitudes in [1e-4, 1e16) and for zero but not
    outside (``0.00001`` for ``1e-05``, ``1e16`` for ``1e+16``, ``null`` for
    nan and inf); the cells the mask ``~((|x| >= 1e-4) & (|x| < 1e16))``
    picks are redone with ``repr``.  In a template without ``%r``, ``%d``
    prints the digits of an integer-valued float; in one with ``%r``, the
    only ``%d`` may be the row number.  With ``index`` each value of a 1-D
    ``values`` follows its row number.  Rows are formatted in blocks of at
    most ``_BLOCK_CELLS`` cells (one row at least), and each block's text is
    yielded as it is made, so :func:`_write_text` writes a table without
    ever holding all its Python floats and strings; a block's row numbers
    continue from its first row.
    """
    vals = np.asarray(values, dtype=float)
    step = max(1, _BLOCK_CELLS // max(1, vals[:1].size))
    shortest = "%r" in line
    line = line.replace("%r", "%s")
    for start in range(0, len(vals), step):
        block = vals[start:start + step]
        cells = floats = block.ravel().tolist()
        if shortest and floats:
            cells = orjson.dumps(floats)[1:-1].decode().split(",")
            a = np.abs(block.ravel())
            for i in np.flatnonzero(~((a >= 1e-4) & (a < 1e16))).tolist():
                cells[i] = repr(floats[i])
        if index:
            numbered = [None] * (2 * len(cells))
            numbered[::2] = range(start, start + len(cells))
            numbered[1::2] = cells
            cells = numbered
        yield (line * len(block)) % tuple(cells)


# the bytes a CSV body parsed as JSON may hold: numbers, commas, newlines
_NUMBER_BYTES = b"0123456789+-.eE,\n"


def _parse_rows(path, shape) -> np.ndarray | None:
    """The comma-separated rows of ``path`` as a float64 ``shape`` array, or
    None where only ``np.loadtxt`` can say what the file holds.

    Blocks of about ``_BLOCK_CELLS`` cells (one row at least) are each read
    by one ``orjson.loads`` of ``[[row],[row],...]`` and written into the
    preallocated array, so the transient is about one block.  None, for the
    caller's ``np.loadtxt`` to read the file or raise, when the file is not
    ``shape`` rows of ``shape[1]`` cells each or a block is not JSON numbers.
    That covers spellings only ``np.loadtxt`` takes (``+1.5``, ``1.``,
    spaces, blank lines, ``nan``) and ``-0``, which JSON reads as the
    integer 0 and ``np.loadtxt`` as -0.0.  ``shape`` comes from a sidecar,
    so one that is not two positive integers, or has more cells than the
    file has bytes, is declined before anything is allocated.
    """
    if not (isinstance(shape, list) and len(shape) == 2
            and all(type(n) is int and n > 0 for n in shape)
            and shape[0] * shape[1] <= os.path.getsize(path)):
        return None
    out = np.empty(shape)
    step = max(1, _BLOCK_CELLS // shape[1])
    start = 0
    # a buffer that holds whole rows: a row longer than the default 8 KB
    # one is read piecewise, which costs a tenth of the parse
    with open(path, "rb", buffering=1 << 16) as f:
        while lines := list(itertools.islice(f, step)):
            stop = start + len(lines)
            body = b"".join(lines)
            if stop > len(out) or body.translate(None, _NUMBER_BYTES):
                return None
            text = b"[[" + body.removesuffix(b"\n").replace(b"\n", b"],[") + b"]]"
            try:
                block = np.array(orjson.loads(text), dtype=float)
            except ValueError:  # not JSON, or a ragged row
                return None
            if block.shape != (len(lines), shape[1]) or (
                    (block == 0.0).any() and (b"-0," in text or b"-0]" in text)):
                return None
            out[start:stop] = block
            start = stop
    return out if start == len(out) else None


def _detect_format(path: Path, fmt: str | None) -> str:
    if fmt is not None:
        f = fmt.lower().replace("-", "_")
        if f in ("off", "json", "vtk", "vtk_legacy_ascii"):
            return "vtk" if f.startswith("vtk") else f
        raise ParseError(f"unknown mesh format {fmt!r}")
    suffix = path.suffix.lower()
    if suffix == ".off":
        return "off"
    if suffix == ".json":
        return "json"
    if suffix == ".vtk":
        return "vtk"
    raise ParseError(f"cannot infer mesh format from suffix {suffix!r}")


def load_mesh(path, fmt: str | None = None, surface_id: str | None = None) -> SurfaceMesh:
    """Read a closed triangle mesh from OFF, JSON or legacy-ASCII VTK.

    Orientation and normals are recomputed on load; a globally inverted file
    is repaired by flipping every triangle.

    Parameters
    ----------
    path : str or Path
        File to read.
    fmt : {"off", "json", "vtk"}, optional
        Override the suffix-based format detection.
    surface_id : str, optional
        Label for the loaded surface; defaults to the file stem (JSON files
        carry their own id, which wins unless this argument is given).
    """
    p = Path(path)
    kind = _detect_format(p, fmt)
    try:
        text = p.read_text()
    except OSError as exc:
        raise ParseError(f"cannot read {p}: {exc}") from exc
    if kind == "off":
        verts, tris = _parse_off(text, p)
        sid = surface_id or p.stem
    elif kind == "vtk":
        verts, tris, _ = _parse_vtk(text, p)
        sid = surface_id or p.stem
    else:
        verts, tris, file_id = _parse_json(text, p)
        sid = surface_id or file_id or p.stem
    return SurfaceMesh(verts, tris, sid)


def _tokens(text: str):
    for line in text.splitlines():
        body = line.split("#", 1)[0]
        for tok in body.split():
            yield tok


def _parse_off(text: str, path: Path):
    toks = _tokens(text)
    try:
        magic = next(toks)
    except StopIteration:
        raise ParseError(f"{path}: empty OFF file") from None
    if magic.upper() != "OFF":
        raise ParseError(f"{path}: missing OFF header")
    try:
        nv, nf, _ne = (int(next(toks)) for _ in range(3))
        verts = np.array([[float(next(toks)) for _ in range(3)] for _ in range(nv)])
        tris = []
        for _ in range(nf):
            k = int(next(toks))
            if k != 3:
                raise ParseError(f"{path}: only triangular faces are supported")
            tris.append([int(next(toks)) for _ in range(3)])
    except (StopIteration, ValueError) as exc:
        raise ParseError(f"{path}: truncated or malformed OFF data") from exc
    return verts, np.array(tris, dtype=np.int64)


def _parse_vtk(text: str, path: Path):
    lines = text.splitlines()
    if len(lines) < 4 or not lines[0].startswith("# vtk DataFile"):
        raise ParseError(f"{path}: missing VTK DataFile header")
    if lines[2].strip().upper() != "ASCII":
        raise ParseError(f"{path}: only ASCII VTK is supported")
    if lines[3].split() != ["DATASET", "POLYDATA"]:
        raise ParseError(f"{path}: only DATASET POLYDATA is supported")
    toks = _tokens("\n".join(lines[4:]))
    verts = tris = None
    point_data: dict[str, np.ndarray] = {}
    try:
        while True:
            try:
                key = next(toks).upper()
            except StopIteration:
                break
            if key == "POINTS":
                n = int(next(toks))
                next(toks)  # dtype label
                flat = [float(next(toks)) for _ in range(3 * n)]
                verts = np.array(flat).reshape(n, 3)
            elif key == "POLYGONS":
                m = int(next(toks))
                size = int(next(toks))
                flat = [int(next(toks)) for _ in range(size)]
                tris, pos = [], 0
                for _ in range(m):
                    k = flat[pos]
                    if k != 3:
                        raise ParseError(f"{path}: non-triangular polygon")
                    tris.append(flat[pos + 1 : pos + 4])
                    pos += 4
                tris = np.array(tris, dtype=np.int64)
            elif key == "POINT_DATA":
                n = int(next(toks))
                while True:
                    try:
                        sub = next(toks).upper()
                    except StopIteration:
                        break
                    if sub != "SCALARS":
                        raise ParseError(f"{path}: unsupported POINT_DATA section {sub}")
                    name = next(toks)
                    next(toks)  # dtype
                    lookup = next(toks).upper()
                    if lookup != "LOOKUP_TABLE":
                        raise ParseError(f"{path}: SCALARS without LOOKUP_TABLE")
                    next(toks)  # table name
                    point_data[name] = np.array([float(next(toks)) for _ in range(n)])
            else:
                raise ParseError(f"{path}: unsupported VTK section {key!r}")
    except (StopIteration, ValueError) as exc:
        raise ParseError(f"{path}: truncated VTK data") from exc
    if verts is None or tris is None:
        raise ParseError(f"{path}: VTK file lacks POINTS or POLYGONS")
    return verts, tris, point_data


def _parse_json(text: str, path: Path):
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path}: invalid JSON: {exc}") from exc
    if not isinstance(doc, dict) or "vertices" not in doc or "triangles" not in doc:
        raise ParseError(f"{path}: JSON mesh needs 'vertices' and 'triangles'")
    verts = np.asarray(doc["vertices"], dtype=float)
    tris = np.asarray(doc["triangles"], dtype=np.int64)
    return verts, tris, doc.get("surface_id")


def save_mesh(mesh: SurfaceMesh, path, fmt: str | None = None,
              point_data: dict[str, np.ndarray] | None = None) -> None:
    """Write a mesh as OFF, JSON or legacy-ASCII VTK POLYDATA.

    JSON writes round-trip coordinates exactly (shortest-repr floats).
    ``point_data`` (name -> per-vertex array) is honoured by the VTK writer
    and rejected for the other formats.
    """
    p = Path(path)
    kind = _detect_format(p, fmt)
    if point_data and kind != "vtk":
        raise ParseError("point_data is only supported by the VTK writer")
    if kind == "json":
        doc = {
            "vertices": [[float(c) for c in row] for row in mesh.vertices],
            "triangles": [[int(i) for i in row] for row in mesh.triangles],
            "surface_id": mesh.surface_id,
        }
        _write_text(p, json.dumps(doc, indent=1) + "\n")
        return
    points = "".join(_format_rows("%r %r %r\n", mesh.vertices))
    polygons = "".join(_format_rows("3 %d %d %d\n", mesh.triangles))
    if kind == "off":
        _write_text(p, f"OFF\n{mesh.n_vertices} {len(mesh.triangles)} 0\n"
                       f"{points}{polygons}")
        return
    text = [
        f"# vtk DataFile Version 3.0\n{mesh.surface_id}\nASCII\n"
        f"DATASET POLYDATA\nPOINTS {mesh.n_vertices} double\n",
        points,
        f"POLYGONS {len(mesh.triangles)} {4 * len(mesh.triangles)}\n",
        polygons,
    ]
    if point_data:
        text.append(f"POINT_DATA {mesh.n_vertices}\n")
        for name, values in point_data.items():
            vals = np.asarray(values, dtype=float)
            if vals.shape != (mesh.n_vertices,):
                raise ShapeMismatch(f"point_data {name!r} has wrong length")
            text.append(f"SCALARS {name} double 1\nLOOKUP_TABLE default\n")
            text += _format_rows("%r\n", vals)
    _write_text(p, text)


# ---------------------------------------------------------------------------
# nodal field I/O (CSV + JSON sidecar manifest)


def save_nodal_field(fld: NodalField, path) -> None:
    """Write ``node_index,value`` CSV plus a ``.json`` sidecar manifest.

    Values are ``repr``-exact (formatted by :func:`_format_rows`).  The
    sidecar, at ``path`` + ``".json"``, is ``json.dumps(manifest, indent=1)``
    of ``surface_id``, ``units`` and ``length``, plus a newline, filled into
    a fixed template: only the two strings go through ``json``.  ``path`` is
    handled as a string: building ``Path`` objects costs a measurable share
    of a small write.
    """
    path = os.fspath(path)
    _write_text(path, "node_index,value\n"
                + "".join(_format_rows("%d,%r\n", fld.values, index=True)))
    _write_text(path + ".json",
                '{\n "surface_id": %s,\n "units": %s,\n "length": %d\n}\n'
                % (json.dumps(fld.surface_id), json.dumps(fld.units),
                   len(fld.values)))


def load_nodal_field(path) -> NodalField:
    """Read a nodal field written by :func:`save_nodal_field`."""
    p = Path(path)
    side = p.with_suffix(p.suffix + ".json")
    try:
        manifest = json.loads(side.read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise ParseError(f"cannot read field manifest {side}: {exc}") from exc
    n = manifest.get("length") if isinstance(manifest, dict) else None
    if (type(n) is not int or n < 0
            or not isinstance(manifest.get("surface_id"), str)):
        raise ParseError(f"{side}: a field manifest is an object with a "
                         "'surface_id' string and a non-negative integer 'length'")
    lines = p.read_text().splitlines()
    if not lines or lines[0].strip() != "node_index,value":
        raise ParseError(f"{p}: missing 'node_index,value' header")
    values = np.full(n, np.nan)
    seen = np.zeros(n, dtype=bool)
    for line in lines[1:]:
        if not line.strip():
            continue
        try:
            idx_s, val_s = line.split(",")
            idx = int(idx_s)
            value = float(val_s)
        except ValueError as exc:
            raise ParseError(f"{p}: malformed row {line!r}") from exc
        if not 0 <= idx < n:
            raise ParseError(f"{p}: node index {idx} outside 0..{n - 1}")
        if seen[idx]:
            raise ParseError(f"{p}: node index {idx} appears twice")
        seen[idx] = True
        values[idx] = value
    if np.isnan(values).any():
        raise ParseError(f"{p}: missing node indices")
    return NodalField(manifest["surface_id"], values, manifest.get("units", "mV"))


def require_off_surface(mesh, points: np.ndarray, tol: float | None = None) -> None:
    """Raise :class:`PointOnBoundary` if any point sits on the surface.

    A point is on the surface within ``tol`` of it, by default 1e-9 x the
    diagonal of the mesh's bounding box.
    """
    if tol is None:
        box = mesh.vertices.max(axis=0) - mesh.vertices.min(axis=0)
        tol = 1e-9 * float(np.linalg.norm(box))
    d = _distances_within(mesh, points, tol)
    if np.any(d <= tol):
        worst = float(d.min())
        raise PointOnBoundary(
            f"evaluation point within {worst:.3e} cm of surface "
            f"{mesh.surface_id!r} (tolerance {tol:.1e})"
        )
