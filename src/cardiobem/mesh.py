"""Triangulated surfaces, domain configuration and nodal fields.

Conventions used throughout the toolkit:

* lengths are centimetres, potentials millivolts, conductivities mS/cm;
* surface meshes are closed, watertight, consistently wound triangle meshes
  with outward orientation (positive enclosed volume).  Normals and areas are
  always recomputed from vertex coordinates, never trusted from a file;
* vertex indices are 0-based everywhere, including on disk;
* nodal fields live on mesh vertices (piecewise-linear collocation densities).

The 2D counterpart :class:`CurveMesh` (closed polygonal loops) mirrors the
same interface: ``elements`` are vertex index pairs, ``areas`` are segment
lengths and the enclosed "volume" is the signed plane area.  It carries the
annulus verification cases: the Zaremba heart-flux order floor in
``tests/test_refinement.py`` and the L-curve cases on the annulus in
``tests/test_cauchy.py``.
"""

from __future__ import annotations

import codecs
import functools
import itertools
import json
import locale
import logging
import operator
import os
import threading
from dataclasses import dataclass
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
    "load_mesh",
    "save_mesh",
    "points_inside",
    "surface_distance",
    "save_nodal_field",
    "load_nodal_field",
]

logger = logging.getLogger(__name__)

_MESH_TOKENS = itertools.count()
_CLAIM_LOCK = threading.Lock()

# (column, element) pairs per block of _column_pass: each pair holds about
# 50 bytes of transients (its k + 1 affine values and their least
# barycentric), so a block stays near 13 MB
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

# the crossing rule's bounds (_column_pass): an element with |det| at most
# _PARALLEL is parallel to the ray and skipped; a ray within _GRAZE of an
# element's edge, in barycentrics, touches it; a point within _GRAZE times
# the bounding-box diagonal of a touch, along the ray, is on the surface
_PARALLEL = 1e-14
_GRAZE = 1e-10

# cm: heart and torso closer than this fail the DomainConfig check
_CONTAINMENT_TOL = 1e-6

# Deterministic "random" ray directions for points_inside, tried in turn
# until every point is settled.
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


def _ray_frames(directions: np.ndarray) -> np.ndarray:
    """(f, dim, dim) orthonormal frames whose last axes are ``directions``,
    normalised; a QR step completes each direction to a basis."""
    d = directions / np.linalg.norm(directions, axis=1, keepdims=True)
    q = np.linalg.qr(d[:, :, None], mode="complete")[0]  # q[..., 0] = +-d
    q *= np.sign(np.einsum("fi,fi->f", q[..., 0], d))[:, None, None]
    return np.roll(q, -1, axis=2)


# per dimension, the frames of the ray directions; a 2D one takes the first
# two components of a direction
_FRAMES = {dim: _ray_frames(_RAY_DIRECTIONS[:, :dim]) for dim in (2, 3)}


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


def _total_weight(mesh) -> float:
    """``float(mesh.vertex_weights.sum())``, the lumped area of ``mesh``,
    summed once: the Neumann step and the surface mean both divide by it."""
    return _memo(mesh, "total_weight", lambda: float(mesh.vertex_weights.sum()))


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
        # copies, frozen below: the caller's arrays stay writeable
        verts = np.array(self.vertices, dtype=float)
        els = np.array(getattr(self, kind), dtype=np.int64)
        if verts.ndim != 2 or verts.shape[1] != k or len(verts) <= k:
            raise GeometryError(f"vertices must be an (n>={k + 1}, {k}) array")
        if els.ndim != 2 or els.shape[1] != k or len(els) <= k:
            raise GeometryError(f"{kind} must be an (m>={k + 1}, {k}) array")
        if not np.all(np.isfinite(verts)):
            raise GeometryError("non-finite vertex coordinates")
        if els.min() < 0 or els.max() >= len(verts):
            raise GeometryError(f"{kind} index vertices out of range")
        self._check_closed(len(verts), els)
        if _signed_volume(verts, els) < 0.0:
            logger.info("%s %r stored with inward orientation; applying global "
                        "flip", type(self).__name__, self.surface_id)
            els = els[:, ::-1]
        volume = _signed_volume(verts, els)
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
        instead (ROADMAP item 1)."""
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
        # a copy, frozen below: the caller's array stays writeable
        vals = np.array(self.values, dtype=float)
        if vals.ndim != 1:
            raise ShapeMismatch("field values must be one-dimensional")
        if not np.all(np.isfinite(vals)):
            raise ShapeMismatch("field contains non-finite values")
        object.__setattr__(self, "values", _freeze(vals))

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
    shell; the inside of ``heart`` is the active tissue domain.  The two
    surfaces must stay more than 1e-6 cm apart (``_CONTAINMENT_TOL``).  The
    domain owns the shell problems' operators, which go with it: build one
    per heart-torso pair and reuse it for every solve on that pair.
    """

    heart: SurfaceMesh | CurveMesh
    torso: SurfaceMesh | CurveMesh

    def __post_init__(self) -> None:
        if self.heart.dim != self.torso.dim:
            raise GeometryError("heart and torso must share the ambient dimension")
        if self.heart.surface_id == self.torso.surface_id:
            raise GeometryError("heart and torso need distinct surface ids")
        inside = points_inside(self.torso, self.heart.vertices)
        if not inside.all():
            raise GeometryError("heart surface is not strictly inside the torso")
        if points_inside(self.heart, self.torso.vertices).any():
            raise GeometryError("torso surface dips inside the heart")
        tol = _CONTAINMENT_TOL
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


def _signed_volume(verts: np.ndarray, tris: np.ndarray) -> float:
    """Signed enclosed volume of a closed triangle mesh (divergence theorem),
    or signed area of a closed curve, with the sign of the winding given.
    """
    if verts.shape[1] == 2:
        return _signed_area(verts, tris)
    p0, p1, p2 = verts[tris[:, 0]], verts[tris[:, 1]], verts[tris[:, 2]]
    return float(np.einsum("ij,ij->", p0, np.cross(p1, p2)) / 6.0)


def _column_pass(verts: np.ndarray, els: np.ndarray, cols: np.ndarray,
                 heights: np.ndarray, tol: float) -> tuple:
    """Which points on rays along the last axis lie inside a closed mesh.

    ``verts`` (n, dim) and ``els`` (m, dim) are the mesh in the rays'
    frame, ``cols`` (C, dim - 1) the rays' columns and ``heights`` (C, H)
    or (1, H) the last coordinates of the points on each.  An element's
    projection along the last axis is a simplex in the column space; the
    barycentrics of a column in it, and the element's height over the
    column, are affine in the column.  So for all elements they are one
    product of [cols, 1] with a table per element, in blocks of
    ``_INSIDE_BLOCK`` (column, element) pairs.  An element whose projection
    has |det| <= ``_PARALLEL`` is parallel to the rays and skipped.  A
    column touches an element when its barycentrics are all >= -eps and
    hits it when they are all > eps, eps = ``_GRAZE``.  A point with a touch
    within ``tol`` of it is on the surface, so not inside; else one with a
    touch above it that is not a hit is unsettled, its ray grazing an edge;
    else it is inside when the hits above it are odd.  Returns the (C, H)
    masks ``(inside, unsettled)``.
    """
    k = els.shape[1]
    corners = verts[els]                       # (m, k, dim), k = dim
    aug = corners.copy()
    aug[..., -1] = 1.0                         # rows [projected corner, 1]
    ok = np.abs(np.linalg.det(aug)) > _PARALLEL
    inv = np.linalg.inv(aug[ok])               # [col, 1] @ inv: barycentrics
    table = np.concatenate([inv, inv @ corners[ok, :, -1:]], axis=2)
    table = table.transpose(1, 2, 0).reshape(k, -1)  # [col, 1] -> (k + 1, m')
    heights = np.broadcast_to(heights, (len(cols), heights.shape[1]))
    inside = np.zeros(heights.shape, dtype=bool)
    unsettled = np.zeros_like(inside)
    step = max(1, _INSIDE_BLOCK // max(1, int(ok.sum())))
    for lo in range(0, len(cols), step):
        q = cols[lo : lo + step]
        vals = (np.column_stack([q, np.ones(len(q))]) @ table).reshape(len(q), k + 1, -1)
        least = vals[:, :k].min(axis=1)
        col, el = np.nonzero(least >= -_GRAZE)  # touches; col ascending
        if len(col) == 0:
            continue
        t = vals[col, k, el][:, None] - heights[lo + col]  # (touches, H)
        above = t > tol
        hit = (least[col, el] > _GRAZE)[:, None]
        first = np.flatnonzero(np.diff(col, prepend=-1))  # each column's run
        rows = lo + col[first]
        on = np.logical_or.reduceat(np.abs(t) <= tol, first, axis=0)
        inside[rows] = np.logical_xor.reduceat(above & hit, first, axis=0) & ~on
        unsettled[rows] = np.logical_or.reduceat(above & ~hit, first, axis=0) & ~on
    return inside, unsettled


def _lattice_inside(mesh: SurfaceMesh, axes) -> np.ndarray:
    """:func:`points_inside` over the lattice ``axes[0] x ... x axes[-1]``.

    Returns the mask shaped by the axes.  All cells of a column share one
    ray along the last axis, so one :func:`_column_pass` in the mesh's own
    frame settles them; the cells it leaves unsettled go to
    ``points_inside``.  As there, cells outside the open bounding box are
    not inside.
    """
    verts = mesh.vertices
    lo, hi = verts.min(axis=0), verts.max(axis=0)
    tol = _GRAZE * float(np.linalg.norm(hi - lo))
    idx = [np.flatnonzero((a > l) & (a < h)) for a, l, h in zip(axes, lo, hi)]
    near = [a[i] for a, i in zip(axes, idx)]
    shape = tuple(map(len, idx))
    cols = np.stack(np.meshgrid(*near[:-1], indexing="ij"), axis=-1)
    box, unsettled = _column_pass(verts, mesh.elements, cols.reshape(-1, len(axes) - 1),
                                  near[-1][None, :], tol)
    box = box.reshape(shape)
    cells = np.nonzero(unsettled.reshape(shape))
    if len(cells[0]):
        box[cells] = points_inside(mesh, np.column_stack(
            [a[c] for a, c in zip(near, cells)]))
    inside = np.zeros(tuple(map(len, axes)), dtype=bool)
    inside[np.ix_(*idx)] = box
    return inside


def points_inside(mesh, points: np.ndarray) -> np.ndarray:
    """Boolean mask of which ``points`` lie strictly inside ``mesh``.

    The surface lies in the closed bounding box of its vertices, so a point
    outside the open box is not strictly inside and casts no ray.  The
    others go through :func:`_column_pass` in each frame of ``_FRAMES`` in
    turn, along its last axis, until every point is settled.  A point
    within ``_GRAZE`` times the bounding-box diagonal of the surface along
    its ray is on the surface and not inside.  A point whose ray grazes an
    edge along every direction raises GeometryError.
    """
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    if pts.shape[1] != mesh.dim:
        raise ShapeMismatch(f"points must be (n, {mesh.dim})")
    verts = mesh.vertices
    lo, hi = verts.min(axis=0), verts.max(axis=0)
    tol = _GRAZE * float(np.linalg.norm(hi - lo))
    out = np.zeros(len(pts), dtype=bool)
    pending = np.flatnonzero(((pts > lo) & (pts < hi)).all(axis=1))
    for frame in _FRAMES[mesh.dim]:
        if len(pending) == 0:
            break
        local = pts[pending] @ frame
        inside, unsettled = _column_pass(verts @ frame, mesh.elements,
                                         local[:, :-1], local[:, -1:], tol)
        out[pending] = inside[:, 0]
        pending = pending[unsettled[:, 0]]
    if len(pending):
        raise GeometryError(f"{len(pending)} points graze an edge of "
                            f"{mesh.surface_id!r} along every ray direction")
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


# cells per block of ``_format_rows`` and rows per block of
# ``save_nodal_field``: a block's floats, strings and tuple stay under 1 MB,
# and a 642 x 1000 record formats faster than in blocks of 2^16 cells
_BLOCK_CELLS = 1 << 12


def _spell_floats(block: np.ndarray) -> list:
    """``repr(float(x))`` for each x of the 1-D float64 ``block``, as a list.

    The digits come from one ``orjson.dumps`` of the block's floats, which
    spells them as ``repr`` does for magnitudes in [1e-4, 1e16) and for
    zero but not outside (``0.00001`` for ``1e-05``, ``1e16`` for
    ``1e+16``, ``null`` for nan and inf); the cells the mask
    ``~((|x| >= 1e-4) & (|x| < 1e16))`` picks are redone with ``repr``.
    Every float of a table the package writes (CSV, OFF, VTK) is spelled
    here; JSON documents go through ``json``.
    """
    floats = block.tolist()
    if not floats:
        return floats
    cells = orjson.dumps(floats)[1:-1].decode().split(",")
    a = np.abs(block)
    for i in np.flatnonzero(~((a >= 1e-4) & (a < 1e16))).tolist():
        cells[i] = repr(floats[i])
    return cells


def _format_rows(line: str, values) -> Iterator[str]:
    """Fill ``line`` once per row of ``values``, as ``(line * rows) % cells``.

    ``values`` (1-D: one value a row) is read as float64.  Each ``%r`` prints
    ``repr(float(x))``, Python's shortest round-trip form, spelled by
    :func:`_spell_floats`.  In a template without ``%r``, ``%d`` prints the
    digits of an integer-valued float.  Rows are formatted in blocks of at
    most ``_BLOCK_CELLS`` cells (one row at least), and each block's text is
    yielded as it is made, so :func:`_write_text` writes a table without
    ever holding all its Python floats and strings.
    """
    vals = np.asarray(values, dtype=float)
    step = max(1, _BLOCK_CELLS // max(1, vals[:1].size))
    shortest = "%r" in line
    line = line.replace("%r", "%s")
    for start in range(0, len(vals), step):
        block = vals[start:start + step]
        cells = _spell_floats(block.ravel()) if shortest else block.ravel().tolist()
        yield (line * len(block)) % tuple(cells)


# the bytes a CSV body parsed as JSON may hold: numbers, commas, newlines
_NUMBER_BYTES = b"0123456789+-.eE,\n"


def _parse_rows(path, shape) -> np.ndarray | None:
    """The comma-separated rows of ``path`` as a float64 ``shape`` array, or
    None where only a cell-by-cell read can say what the file holds.

    Blocks of about ``_BLOCK_CELLS`` cells (one row at least) are each read
    by one ``orjson.loads`` of ``[[row],[row],...]`` and written into the
    preallocated array, so the transient is about one block.  None, for the
    caller to read the file as text or raise, when the file is not
    ``shape`` rows of ``shape[1]`` cells each or a block is not JSON numbers.
    That covers spellings only Python's ``float`` takes (``+1.5``, ``1.``,
    spaces, blank lines, ``nan``) and ``-0``, which JSON reads as the
    integer 0 and ``float`` as -0.0.  ``shape`` comes from a sidecar,
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


def _read_text(path) -> str:
    """The text of ``path``, decoded as ``Path.read_text`` does; a file that
    cannot be read or decoded is a :class:`ParseError`.  Every input file
    the package reads as text comes through here."""
    try:
        return Path(path).read_text()
    except (OSError, UnicodeDecodeError) as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc


def _as_array(data, dtype, shape, what: str) -> np.ndarray:
    """``np.array(data, dtype).reshape(shape)``, the one conversion of read
    data to arrays: cells that do not convert (text that is no number, a
    ragged table, an integer beyond int64) or a table that is not ``shape``
    raise :class:`ParseError` naming ``what``."""
    try:
        return np.array(data, dtype=dtype).reshape(shape)
    except (ValueError, TypeError, OverflowError) as exc:
        raise ParseError(f"{what}: {exc}") from exc


def _read_json_object(path, what: str, required: dict) -> dict:
    """The JSON object in ``path``, a ``what``: each key of ``required``
    is present and its value passes the key's predicate, or the file is a
    :class:`ParseError` naming the keys that fail.  Other keys are the
    caller's to read."""
    try:
        doc = json.loads(_read_text(path))
    except ValueError as exc:
        raise ParseError(f"{path}: a {what} is not JSON: {exc}") from exc
    bad = [key for key, valid in required.items()
           if not (isinstance(doc, dict) and key in doc and valid(doc[key]))]
    if bad:
        raise ParseError(f"{path}: a {what} is a JSON object with a valid "
                         f"{' and '.join(required)}; missing or invalid: {bad}")
    return doc


def _is_count(value) -> bool:
    """A JSON integer >= 0 (not a bool, a float or a string)."""
    return type(value) is int and value >= 0


def _tokens(text: str) -> list:
    """The whitespace-separated tokens of ``text``, each line cut at ``#``."""
    return [tok for line in text.splitlines() for tok in line.partition("#")[0].split()]


def _counts(toks: list, at: int, k: int, what: str) -> list:
    """The ``k`` non-negative integers ``toks[at:at + k]``."""
    counts = _as_array(toks[at:at + k], np.int64, k, what)
    if (counts < 0).any():
        raise ParseError(f"{what}: negative count in {counts.tolist()}")
    return counts.tolist()


def _triangles(faces: np.ndarray, path: Path) -> np.ndarray:
    """The (m, 3) vertex indices of the (m, 4) face rows ``3 i j k``."""
    if (faces[:, 0] != 3).any():
        raise ParseError(f"{path}: only triangular faces are supported")
    return faces[:, 1:]


def _parse_off(path: Path):
    toks = _tokens(_read_text(path))
    if not toks or toks[0].upper() != "OFF":
        raise ParseError(f"{path}: missing OFF header")
    nv, nf, _ = _counts(toks, 1, 3, f"{path}: OFF counts")
    start = 4 + 3 * nv
    verts = _as_array(toks[4:start], float, (nv, 3), f"{path}: OFF vertices")
    faces = _as_array(toks[start:start + 4 * nf], np.int64, (nf, 4),
                      f"{path}: OFF faces")
    return verts, _triangles(faces, path), None


def _parse_vtk(path: Path):
    lines = _read_text(path).splitlines()
    if len(lines) < 4 or not lines[0].startswith("# vtk DataFile"):
        raise ParseError(f"{path}: missing VTK DataFile header")
    if lines[2].strip().upper() != "ASCII":
        raise ParseError(f"{path}: only ASCII VTK is supported")
    if lines[3].split() != ["DATASET", "POLYDATA"]:
        raise ParseError(f"{path}: only DATASET POLYDATA is supported")
    toks = _tokens("\n".join(lines[4:]))
    # section by section up to the fields, which begin at POINT_DATA:
    # "POINTS n dtype" and n rows of 3, "POLYGONS m size" and m rows of 4
    sections, at = {}, 0
    while at < len(toks) and (key := toks[at].upper()) != "POINT_DATA":
        what = f"{path}: VTK {key}"
        if key == "POINTS":
            n, = _counts(toks, at + 1, 1, what)
            stop = at + 3 + 3 * n
            sections[key] = _as_array(toks[at + 3:stop], float, (n, 3), what)
        elif key == "POLYGONS":
            m, size = _counts(toks, at + 1, 2, what)
            stop = at + 3 + size
            sections[key] = _triangles(
                _as_array(toks[at + 3:stop], np.int64, (m, 4), what), path)
        else:
            raise ParseError(f"{path}: unsupported VTK section {key!r}")
        at = stop
    if len(sections) < 2:
        raise ParseError(f"{path}: VTK file lacks POINTS or POLYGONS")
    return sections["POINTS"], sections["POLYGONS"], None


def _parse_json(path: Path):
    doc = _read_json_object(path, "JSON mesh", {
        "vertices": lambda v: isinstance(v, list),
        "triangles": lambda v: isinstance(v, list)})
    verts, tris = doc["vertices"], doc["triangles"]
    return (_as_array(verts, float, (len(verts), 3), f"{path}: vertices"),
            _as_array(tris, np.int64, (len(tris), 3), f"{path}: triangles"),
            doc.get("surface_id"))


# file suffix -> parser of a mesh file: (vertices, triangles, the file's own
# surface id or None)
_MESH_PARSERS = {".off": _parse_off, ".json": _parse_json, ".vtk": _parse_vtk}


def _mesh_suffix(path: Path) -> str:
    """The lower-cased suffix of ``path``, a key of ``_MESH_PARSERS``."""
    suffix = path.suffix.lower()
    if suffix not in _MESH_PARSERS:
        raise ParseError(f"cannot infer mesh format from suffix {suffix!r}")
    return suffix


def load_mesh(path, surface_id: str | None = None) -> SurfaceMesh:
    """Read a closed triangle mesh from OFF, JSON or legacy-ASCII VTK.

    Orientation and normals are recomputed on load; a globally inverted file
    is repaired by flipping every triangle.  A VTK file is read up to its
    POINT_DATA, so the fields ``save_mesh`` writes after the mesh are
    skipped.  A file that cannot be read or decoded, or whose tables are
    not numbers of the shapes its counts give (every face a triangle), is a
    :class:`ParseError`; one that parses but is no closed, outward-orientable
    surface is a :class:`GeometryError`.

    Parameters
    ----------
    path : str or Path
        File to read; its suffix (``.off``, ``.json`` or ``.vtk``) decides
        the format.
    surface_id : str, optional
        Label for the loaded surface; defaults to the file stem (JSON files
        carry their own id, which wins unless this argument is given).
    """
    p = Path(path)
    verts, tris, file_id = _MESH_PARSERS[_mesh_suffix(p)](p)
    return SurfaceMesh(verts, tris, surface_id or file_id or p.stem)


def save_mesh(mesh: SurfaceMesh, path,
              point_data: dict[str, np.ndarray] | None = None) -> None:
    """Write a mesh as OFF, JSON or legacy-ASCII VTK POLYDATA.

    The suffix of ``path`` (``.off``, ``.json`` or ``.vtk``) decides the
    format.  JSON writes round-trip coordinates exactly (shortest-repr floats).
    ``point_data`` (name -> per-vertex array) is honoured by the VTK writer
    and rejected for the other formats.
    """
    p = Path(path)
    kind = _mesh_suffix(p)
    if point_data and kind != ".vtk":
        raise ParseError("point_data is only supported by the VTK writer")
    if kind == ".json":
        doc = {
            "vertices": [[float(c) for c in row] for row in mesh.vertices],
            "triangles": [[int(i) for i in row] for row in mesh.triangles],
            "surface_id": mesh.surface_id,
        }
        _write_text(p, json.dumps(doc, indent=1) + "\n")
        return
    points = "".join(_format_rows("%r %r %r\n", mesh.vertices))
    polygons = "".join(_format_rows("3 %d %d %d\n", mesh.triangles))
    if kind == ".off":
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


# "0,", "1,", ...: the row prefixes of a nodal CSV, kept for the rows of one
# block; the rows after them get theirs made per block
_ROW_PREFIXES = tuple(map("%d,".__mod__, range(_BLOCK_CELLS)))


def save_nodal_field(fld: NodalField, path) -> None:
    """Write ``node_index,value`` CSV plus a ``.json`` sidecar manifest.

    Each row is its row number's prefix (``"0,"``, ``"1,"``, ...) joined to
    the value's ``repr`` (spelled by :func:`_spell_floats`), in blocks of
    at most ``_BLOCK_CELLS`` rows whose numbers continue from block to
    block; an empty field writes only the header.  The sidecar, at ``path``
    + ``".json"``, is ``json.dumps(manifest, indent=1)`` of ``surface_id``,
    ``units`` and ``length``, plus a newline (see :func:`_sidecar`).
    ``path`` is handled as a string: building ``Path`` objects costs a
    measurable share of a small write.
    """
    path = os.fspath(path)
    vals, step = fld.values, _BLOCK_CELLS
    rows = []
    for start in range(0, len(vals), step):
        stop = min(start + step, len(vals))
        prefixes = (_ROW_PREFIXES[start:stop] if stop <= len(_ROW_PREFIXES)
                    else map("%d,".__mod__, range(start, stop)))
        rows.append("\n".join(map(operator.add, prefixes,
                                  _spell_floats(vals[start:stop]))) + "\n")
    _write_text(path, "node_index,value\n" + "".join(rows))
    _write_text(path + ".json", _sidecar(fld.surface_id, fld.units, len(vals)))


@functools.lru_cache(maxsize=64)
def _sidecar(surface_id: str, units: str, length: int) -> str:
    """The sidecar text of :func:`save_nodal_field`, made once per
    (surface id, units, length): a fixed template in which only the two
    strings go through ``json``."""
    return ('{\n "surface_id": %s,\n "units": %s,\n "length": %d\n}\n'
            % (json.dumps(surface_id), json.dumps(units), length))


def load_nodal_field(path) -> NodalField:
    """Read a nodal field written by :func:`save_nodal_field`.

    The sidecar is a JSON object with a ``surface_id`` string and a
    ``length`` integer >= 0 (``units`` defaults to "mV").  The CSV is the
    ``node_index,value`` header and one ``index,value`` row per node, in any
    order, blank lines skipped; each index in 0..length-1 appears once.  A
    file that breaks any of this, or cannot be read or decoded, is a
    :class:`ParseError`.
    """
    p = Path(path)
    side = p.with_suffix(p.suffix + ".json")
    manifest = _read_json_object(side, "field manifest", {
        "surface_id": lambda v: isinstance(v, str), "length": _is_count})
    n = manifest["length"]
    lines = _read_text(p).splitlines()
    if not lines or lines[0].strip() != "node_index,value":
        raise ParseError(f"{p}: missing 'node_index,value' header")
    # (index, ",", value) per row; a value with a comma does not convert
    rows = [line.partition(",") for line in lines[1:] if line.strip()]
    index = _as_array([row[0] for row in rows], np.int64, -1, f"{p}: node indices")
    outside = (index < 0) | (index >= n)
    if outside.any():
        raise ParseError(f"{p}: node index {index[outside][0]} outside 0..{n - 1}")
    seen = np.bincount(index, minlength=n)
    if seen.max(initial=0) > 1:
        raise ParseError(f"{p}: node index {seen.argmax()} appears twice")
    values = np.full(n, np.nan)
    values[index] = _as_array([row[2] for row in rows], float, -1, f"{p}: values")
    if np.isnan(values).any():
        raise ParseError(f"{p}: missing node indices")
    return NodalField(manifest["surface_id"], values, manifest.get("units", "mV"))


def require_off_surface(mesh, points: np.ndarray) -> None:
    """Raise :class:`PointOnBoundary` if any point sits on the surface.

    A point at most 1e-9 x the diagonal of the mesh's bounding box from
    the surface is on it.
    """
    tol = 1e-9 * _memo(mesh, "box_diagonal", lambda: float(
        np.linalg.norm(mesh.vertices.max(axis=0) - mesh.vertices.min(axis=0))))
    d = _distances_within(mesh, points, tol)
    if np.any(d <= tol):
        worst = float(d.min())
        raise PointOnBoundary(
            f"evaluation point within {worst:.3e} cm of surface "
            f"{mesh.surface_id!r} (tolerance {tol:.1e})"
        )
