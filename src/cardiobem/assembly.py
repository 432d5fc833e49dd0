"""Dense collocation assembly of layer and volume potentials.

Single layer, double layer and Newtonian (volume) potential of the operator
``Delta_M = -div(M grad)``:

    SL(rho)(x)  = integral_S phi_M(x, y) rho(y) dsigma(y)
    DL(rho)(x)  = integral_S d_{nu,M;y} phi_M(x, y) rho(y) dsigma(y)
    T(g)(x)     = integral_D phi_M(x, y) g(y) dy

with piecewise-linear nodal densities and collocation at mesh vertices
(rows = targets, cols = source vertices).  Regular panels use a degree-5
7-point Gauss rule (3D) or 8-point Gauss-Legendre (2D); panels close to the
target are integrated instead by splitting at the point nearest the target
and applying a Duffy-type polar transform per subtriangle, which also
provides the weakly-singular self terms of the single layer.

The regular rule runs in whitened coordinates (see ``kernels._KernelSet``).
With the source mesh centred on its centroid and the targets and
quadrature points mapped by W = L^-1, M = L L^T, the r_M^2 of a whole block
is one matrix product, |x'|^2 + |y'|^2 - 2 x'.y'.  The double layer's
height nu . (x - y) is the same at every point of a flat panel, so it is
one (panels x targets) product.  Close pairs are left out of the block,
which is contracted with the weighted basis values and added to the
vertex columns through one incidence matrix with an entry per panel corner.

In 3D the close (target, panel) pairs come from ``mesh._near_pairs`` (one
product of squared distances, confirmed component by component) and are
integrated together in batches of 256 pairs: closest points
(``mesh._closest_points``, the rule of every distance check in ``mesh``
too), the split into exactly three subtriangles, and the 8x8 Duffy rule
on the subtriangles of nonzero area only (a target at a corner or on an
edge of its panel leaves one or two of zero area, which contribute
nothing).  The r_M^2 at the 64 points of the kept subtriangles of a batch
is one (kept x 6) @ (6 x 64) product: the six whitened Gram entries of
x - p and the two edges from p against a fixed table, with no per-point
difference vectors; one ``np.add.at`` per batch adds the integrals in pair
order.  The close pairs and everything
about them that does not depend on the tensor or the kind (closest points,
kept subtriangles, their edges, areas and heights) are built in one pass
per block of targets, once per mesh for its own vertices, about 160 bytes
per pair, and shared by every self operator of that surface.  Peak memory
is therefore set by the far-field blocks, which hold at most 4e6 (target,
quadrature point) pairs: the r_M^2 block, 32 MB whatever the mesh size,
which the kernel values overwrite, plus one (panels x targets) slice, on
top of the dense matrix itself.  The double-layer diagonal on its own
surface is fixed by the interior solid-angle row-sum identity
``D 1 = -1/2``; combined with the ``1/2 I + D`` combination this
reproduces the exact interior-limit operator at polyhedral vertices.

The interior Green representation evaluated here is

    chi_D(x) u(x) = SL(d_{nu,M} u)(x) - DL(u)(x) + T(Delta_M u)(x).

2D note: assembly uses the shifted logarithm -ln(r_M / r0)/(2 pi sqrt(det M))
with a fixed r0 = 4.  A fundamental solution in the plane is defined up to
an additive constant, and every compatible boundary problem (total flux
zero) is invariant under the shift; the nonzero r0 keeps the single-layer
operator of unit-capacity curves (for example the unit circle) away from its
constant-density null vector.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from numpy.polynomial.legendre import leggauss
from scipy import sparse

from .errors import ParseError, QuadratureFailure, ShapeMismatch
from .grid import InteriorGrid
from .kernels import _KernelSet, as_tensor
from .mesh import (CurveMesh, NodalField, SurfaceMesh, _closest_points, _freeze,
                   _memo, _near_pairs, _write_text, require_off_surface)

__all__ = [
    "LayerOperators",
    "assemble_layer",
    "volume_potential",
    "VolumePotentialResult",
    "green_representation",
    "save_operator",
    "load_operator",
]

LOG_KERNEL_SCALE = 4.0  # r0 in the shifted 2D logarithm, see module docstring

# degree-5 symmetric triangle rule (7 points, weights sum to 1)
_SQ15 = np.sqrt(15.0)
_TRI_RULE_W = np.array(
    [9.0 / 40.0]
    + [(155.0 + _SQ15) / 1200.0] * 3
    + [(155.0 - _SQ15) / 1200.0] * 3
)
_A1 = (6.0 + _SQ15) / 21.0
_A2 = (6.0 - _SQ15) / 21.0
_TRI_RULE_B = np.array(
    [[1 / 3, 1 / 3, 1 / 3]]
    + [np.roll([1 - 2 * _A1, _A1, _A1], k) for k in range(3)]
    + [np.roll([1 - 2 * _A2, _A2, _A2], k) for k in range(3)]
)

_GL_N = 8
_gl_x, _gl_w = leggauss(_GL_N)
_GL01_X = 0.5 * (_gl_x + 1.0)
_GL01_W = 0.5 * _gl_w
_SEG_RULE_B = np.column_stack([1.0 - _GL01_X, _GL01_X])
# tensor rule on the unit square for the Duffy transform
_DUF_U = np.repeat(_GL01_X, _GL_N)
_DUF_V = np.tile(_GL01_X, _GL_N)
_DUF_W = np.repeat(_GL01_W, _GL_N) * np.tile(_GL01_W, _GL_N)
_DUF_UW = _DUF_U * _DUF_W  # weight x Jacobian factor u
# moments of the barycentric coordinates along the Duffy map, see
# _near_panel_integrals_3d
_DUF_MOMENTS = np.column_stack([1.0 - _DUF_U, _DUF_U * (1.0 - _DUF_V), _DUF_U * _DUF_V])
# with s1 = u(1-v), s2 = uv, the whitened x - y is a - s1 b1 - s2 b2, so
# r_M^2 is the Gram entries (|a|^2, a.b1, a.b2, |b1|^2, b1.b2, |b2|^2)
# against these rows
_S1, _S2 = _DUF_MOMENTS[:, 1], _DUF_MOMENTS[:, 2]
_DUF_GRAM = np.vstack([np.ones(_GL_N * _GL_N), -2.0 * _S1, -2.0 * _S2,
                       _S1 * _S1, 2.0 * _S1 * _S2, _S2 * _S2])
_GRAM_ROWS, _GRAM_COLS = [0, 0, 0, 1, 1, 2], [0, 1, 2, 1, 2, 2]

_NEAR_FACTOR = 1.6  # panels within this many diameters get the split rule
# close (target, panel) pairs per batch: with at most three subtriangles
# each, the batch arrays of shape (subtriangles, 64) stay near 0.4 MB,
# well below the far-field blocks
_NEAR_BATCH = 256
# (target, quadrature point) pairs per far-field block
_FAR_BLOCK = 4_000_000


@dataclass(frozen=True)
class LayerOperators:
    """Assembled dense layer operator.

    ``matrix`` maps nodal densities on ``source_surface`` to potential values
    at the targets (rows = targets, cols = source vertices); ``target`` is
    either a surface id (collocation at its vertices) or the explicit point
    array.
    """

    kind: str
    source_surface: str
    target: object
    matrix: np.ndarray
    tensor: np.ndarray

    def __post_init__(self) -> None:
        if self.kind not in ("single", "double"):
            raise ShapeMismatch("kind must be 'single' or 'double'")
        if not np.all(np.isfinite(self.matrix)):
            raise QuadratureFailure(f"{self.kind}-layer matrix has non-finite entries")

    def apply(self, density: np.ndarray) -> np.ndarray:
        d = np.asarray(density, dtype=float)
        if d.shape[0] != self.matrix.shape[1]:
            raise ShapeMismatch(
                f"density length {d.shape[0]} != {self.matrix.shape[1]} source nodes"
            )
        return self.matrix @ d


# ---------------------------------------------------------------------------
# panel quadrature


def _panel_rule(dim: int) -> tuple:
    """Barycentric points (q, corners) and weights (q,) of the regular rule."""
    return (_TRI_RULE_B, _TRI_RULE_W) if dim == 3 else (_SEG_RULE_B, _GL01_W)


def _panel_quadrature(mesh) -> tuple:
    """The regular rule and its P1 reduction to the vertices.

    Returns ``(centre, points, offset, basis_w, incidence)``:

    - ``centre``, the mean of the mesh vertices, and ``points``, the
      (q m, dim) quadrature points about it, q-major: point q of panel j is
      row q * m + j;
    - ``offset`` (m,), nu_j . (corner 0 of panel j - centre), so that on the
      flat panel j, nu_j . (x - y) = nu_j . (x - centre) - offset_j;
    - ``basis_w`` (k, q), the rule's weights times the basis values;
    - ``incidence``, sparse (n_vertices, k m) with one entry, the panel
      area, per panel corner: column c * m + j carries corner c of panel j.

    So a kernel block K (q m, t) at the points reduces to the vertices as
    ``incidence @ (basis_w @ K.reshape(q, m t)).reshape(k m, t)``: the basis
    is contracted before any density or target is.  Built once per mesh,
    read-only.
    """
    def build():
        els = mesh.elements
        basis, weights = _panel_rule(mesh.dim)  # (q, k), (q,)
        nq, k = basis.shape
        m = len(els)
        centre = mesh.vertices.mean(axis=0)
        corners = mesh.vertices[els] - centre  # (m, k, dim)
        points = np.einsum("qk,mkj->qmj", basis, corners).reshape(nq * m, -1)
        offset = (mesh.normals * corners[:, 0]).sum(axis=1)
        basis_w = (weights[:, None] * basis).T
        incidence = sparse.csr_matrix(
            (np.tile(mesh.areas, k), (els.T.reshape(-1), np.arange(k * m))),
            shape=(mesh.n_vertices, k * m))
        for a in (centre, points, offset, basis_w, incidence.data,
                  incidence.indices, incidence.indptr):
            a.flags.writeable = False
        return centre, points, offset, basis_w, incidence

    return _memo(mesh, "panel_quadrature", build)


def _sq_dist(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """(n, m) squared distances of (n, d) and (m, d) points, by component."""
    return sum((a[:, None, i] - b[None, :, i]) ** 2 for i in range(a.shape[1]))


def _near_geometry(x: np.ndarray, corners: np.ndarray, normals: np.ndarray) -> tuple:
    """The tensor-free part of ``_near_panel_integrals_3d``, read-only.

    Returns ``(lam_p, xp, pair, part, e1, e2, sub2, h)``: per pair the
    barycentric coordinates of the split point p and x - p; per kept
    (pair, part) subtriangle its indices, its edges from p, twice its area
    and the height nu . (x - p) (p lies on the flat panel, so this is
    nu . (x - y) at every point of it).
    """
    p, lam_p = _closest_points(x, corners)
    area2 = np.linalg.norm(np.cross(corners[:, 1] - corners[:, 0],
                                    corners[:, 2] - corners[:, 0]), axis=1)
    # subtriangle edges from p, shape (P, 3 parts, 3)
    e1 = corners - p[:, None, :]
    e2 = np.roll(e1, -1, axis=1)
    sub2 = np.linalg.norm(np.cross(e1, e2), axis=2)
    pair, part = np.nonzero(sub2 > 1e-12 * area2[:, None])
    xp = x - p
    h = np.einsum("pi,pi->p", normals, xp)[pair]
    geometry = (lam_p, xp, pair, part, e1[pair, part], e2[pair, part],
                sub2[pair, part], h)
    for a in geometry:
        a.flags.writeable = False
    return geometry


def _near_integrals(ker: _KernelSet, kind: str, geometry: tuple) -> np.ndarray:
    """The kernel part of ``_near_panel_integrals_3d`` on its geometry."""
    lam_p, xp, pair, part, e1, e2, sub2, h = geometry
    # a = W(x - p), b1 = W e1, b2 = W e2 per kept subtriangle, components
    # first: (3 components, 3 vectors, kept).  p is the panel point nearest
    # x, so |x - y|^2 >= |x - p|^2 + |p - y|^2 and the Gram expansion of
    # r_M^2 loses at most a few eps cond(M)
    z = (ker.W @ np.concatenate([xp[pair], e1, e2]).T).reshape(3, 3, -1)
    gram = (z[:, _GRAM_ROWS] * z[:, _GRAM_COLS]).sum(axis=0)  # (6, kept)
    w = ker.layer(kind, gram.T @ _DUF_GRAM, h[:, None])
    w *= sub2[:, None] * _DUF_UW
    # y is affine in (u, v): lam(y) = (1-u) lam(p) + u(1-v) e_a + uv e_{a+1},
    # so three moments per subtriangle carry the basis functions
    mom = w @ _DUF_MOMENTS  # (kept, 3)
    out = np.bincount(pair, mom[:, 0], len(xp))[:, None] * lam_p
    out[pair, part] += mom[:, 1]
    out[pair, (part + 1) % 3] += mom[:, 2]
    return out


def _near_panel_integrals_3d(ker: _KernelSet, kind: str, x: np.ndarray,
                             corners: np.ndarray, normals: np.ndarray) -> np.ndarray:
    """Accurate integrals of kernel x linear basis over close panels.

    For P (target, panel) pairs, ``x`` (P, 3), ``corners`` (P, 3, 3) and
    ``normals`` (P, 3), returns the (P, 3) basis-weighted integrals in
    corner order.  Each panel is split at the point p nearest its target
    into the subtriangles (p, c_a, c_{a+1}), and the Duffy transform
    ``y(u, v) = p + u((1-v) e1 + v e2)``, ``|J| = 2 area u``, with an 8x8
    Gauss tensor rule concentrates the points where the kernel peaks.  A
    subtriangle of zero area (p on an edge or at a corner) contributes
    nothing and is not evaluated: only the kept (pair, part) subtriangles
    are whitened and get the rule, and their three moments are added to
    their pair's corners.  The geometry does not depend on the
    tensor or the kind (``_near_geometry``); the kernel part does
    (``_near_integrals``).
    """
    return _near_integrals(ker, kind, _near_geometry(x, corners, normals))


def _integrate_panel_near_2d(ker: _KernelSet, kind: str, x: np.ndarray,
                             a: np.ndarray, b: np.ndarray, normal: np.ndarray,
                             singular: bool) -> np.ndarray:
    """Close/singular segment integrals against the two linear basis funcs."""
    if kind == "double" and singular:
        # straight panel through the collocation node: n.(x-y) = 0 exactly
        return np.zeros(2)
    if singular:
        # product integration of the log against a linear density, exact:
        # the collocation node is an endpoint; r_M(s) = s * gamma.
        length = np.linalg.norm(b - a)
        at_a = np.allclose(x, a)
        far = b if at_a else a
        tangent = (far - x) / length
        gamma = np.sqrt(ker.r2(tangent))
        c = ker._c
        i0 = length * (np.log(length) - 1.0)                    # int ln s ds
        i1 = length ** 2 * (2.0 * np.log(length) - 1.0) / 4.0   # int s ln s ds
        shift = np.log(gamma / ker.r0)
        near_val = -c * (i0 - i1 / length + shift * length / 2.0)
        far_val = -c * (i1 / length + shift * length / 2.0)
        return np.array([near_val, far_val] if at_a else [far_val, near_val])
    # near but off the panel: split at the closest point, refined Gauss
    ab = b - a
    t = np.clip((x - a) @ ab / (ab @ ab), 0.0, 1.0)
    mid = a + t * ab
    out = np.zeros(2)
    for (p, q) in ((a, mid), (mid, b)):
        seg = q - p
        ln = np.linalg.norm(seg)
        if ln < 1e-15:
            continue
        y = p[None, :] + _GL01_X[:, None] * seg[None, :]
        diff = x - y
        kv = ker.layer(kind, ker.r2(diff), diff @ normal)
        s_full = ((y - a) @ ab) / (ab @ ab)
        lam = np.column_stack([1.0 - s_full, s_full])
        out += ((kv * _GL01_W * ln) @ lam)
    return out


def _close_field(source, x: np.ndarray) -> tuple:
    """The close (target, panel) pairs of the targets ``x``, and their
    geometry.

    Returns ``(near_loc, near_el, geometry)``, the target and panel indices
    of the pairs whose panel centroid lies within ``_NEAR_FACTOR`` panel
    diameters (``mesh._near_pairs``), and in 3D the ``_near_geometry`` of
    each batch of ``_NEAR_BATCH`` of them, in pair order (empty in 2D): one
    geometry over all the pairs, sliced.  None of it depends on the tensor
    or the layer kind.
    """
    near_loc, near_el = (_freeze(a) for a in _near_pairs(
        source, x, _NEAR_FACTOR * source.element_diameters()))
    if source.dim == 2:
        return near_loc, near_el, []
    lam_p, xp, pair, part, e1, e2, sub2, h = _near_geometry(
        x[near_loc], source.vertices[source.elements[near_el]],
        source.normals[near_el])
    geometry = []
    for lo in range(0, len(near_loc), _NEAR_BATCH):
        hi = lo + _NEAR_BATCH
        k = slice(*np.searchsorted(pair, [lo, hi]))
        geometry.append((lam_p[lo:hi], xp[lo:hi], _freeze(pair[k] - lo), part[k],
                         e1[k], e2[k], sub2[k], h[k]))
    return near_loc, near_el, geometry


def _correct_near_3d(matrix: np.ndarray, kind: str, ker: _KernelSet, source,
                     rows: np.ndarray, panels: np.ndarray, geometry: list) -> None:
    """Add the Duffy-rule integrals of close (row, panel) pairs.

    The far-field pass left these pairs out.  ``geometry`` holds the
    ``_near_geometry`` of each batch of ``_NEAR_BATCH`` pairs, and one
    ``np.add.at`` per batch adds them in pair order, as a loop over the
    pairs would.
    """
    for batch, lo in zip(geometry, range(0, len(rows), _NEAR_BATCH)):
        els = source.elements[panels[lo : lo + _NEAR_BATCH]]
        np.add.at(matrix, (rows[lo : lo + _NEAR_BATCH, None], els),
                  _near_integrals(ker, kind, batch))


def _assemble_dense(kind: str, ker: _KernelSet, source, targets: np.ndarray,
                    same_surface: bool) -> np.ndarray:
    centre, points, offset, basis_w, incidence = _panel_quadrature(source)
    k, nq = basis_w.shape
    m = len(source.elements)
    # whitened coordinates about the source centroid, see the module
    # docstring: r_M^2 is one GEMM of the rows (x', 1, |x'|^2) and
    # (-2 y', |y'|^2, 1), and a flat panel's height nu_j . (x - y) is
    # nu_j . x' - offset_j
    y = ker.whiten(points)
    y_aug = np.column_stack([-2.0 * y, (y * y).sum(axis=1), np.ones(nq * m)])
    n_t = len(targets)
    matrix = np.empty((n_t, source.n_vertices))
    chunk = max(1, _FAR_BLOCK // (nq * m))
    starts = range(0, n_t, chunk)
    if same_surface:
        # a surface's close pairs with its own vertices are the same for
        # every tensor and kind: built once per mesh
        close = _memo(source, "self_close", lambda: [
            _close_field(source, targets[lo : lo + chunk])
            for lo in starts])
    for block, lo in enumerate(starts):
        x = targets[lo : lo + chunk]
        t = len(x)
        xc = x - centre
        xw = ker.whiten(xc)
        x_aug = np.column_stack([xw, np.ones(t), (xw * xw).sum(axis=1)])
        r2 = (y_aug @ x_aug.T).reshape(nq, m, t)
        with np.errstate(divide="ignore", invalid="ignore"):
            if kind == "single":
                kv = ker.single(r2)
            else:
                kv = ker.double(r2, source.normals @ xc.T - offset[:, None])
        del r2
        # panels close to a target get the split rule below instead
        near_loc, near_el, geometry = (close[block] if same_surface else
                                       _close_field(source, x))
        kv[:, near_el, near_loc] = 0.0
        kb = basis_w @ kv.reshape(nq, m * t)  # (k, m * t)
        del kv
        matrix[lo : lo + chunk] = (incidence @ kb.reshape(k * m, t)).T
        if source.dim == 3:
            _correct_near_3d(matrix, kind, ker, source, lo + near_loc, near_el,
                             geometry)
            continue
        for i_loc, j in zip(near_loc, near_el):
            row = lo + i_loc
            idx = source.elements[j]
            # during same-surface assembly the target IS vertex `row`
            singular = same_surface and bool(np.any(idx == row))
            matrix[row, idx] += _integrate_panel_near_2d(
                ker, kind, x[i_loc], source.vertices[idx[0]], source.vertices[idx[1]],
                source.normals[j], singular,
            )
    return matrix


def assemble_layer(kind: str, M, source, target=None) -> LayerOperators:
    """Assemble a single- or double-layer collocation matrix.

    Parameters
    ----------
    kind : {"single", "double"}
    M : scalar or SPD matrix
        Conductivity tensor of the operator Delta_M.
    source : SurfaceMesh or CurveMesh
        Surface carrying the density.
    target : mesh, (n, dim) array, or None
        Collocation targets; ``None`` (or the source itself) collocates at
        the source vertices through the singular integration path, and the
        double layer then gets the row-sum diagonal D 1 = -1/2.

    Every call assembles anew; the solvers of ``direct`` keep what they
    reuse on the meshes and heart-torso domains.
    """
    if kind not in ("single", "double"):
        raise ShapeMismatch(f"unknown layer kind {kind!r}")
    tensor = as_tensor(M, source.dim)
    if target is None:
        target = source
    is_mesh_target = isinstance(target, (SurfaceMesh, CurveMesh))
    same = target is source

    targets = target.vertices if is_mesh_target else np.atleast_2d(np.asarray(target, float))
    if targets.shape[1] != source.dim:
        raise ShapeMismatch(f"targets must be (n, {source.dim})")

    ker = _KernelSet(tensor, source.dim, r0=LOG_KERNEL_SCALE)
    matrix = _assemble_dense(kind, ker, source, targets, same)
    if kind == "double" and same:
        np.fill_diagonal(matrix, 0.0)
        matrix[np.arange(len(matrix)), np.arange(len(matrix))] = (
            -0.5 - matrix.sum(axis=1)
        )
    return LayerOperators(
        kind=kind,
        source_surface=source.surface_id,
        target=target.surface_id if is_mesh_target else targets,
        matrix=matrix,
        tensor=tensor,
    )


# ---------------------------------------------------------------------------
# volume potential


@dataclass(frozen=True)
class VolumePotentialResult:
    """Values of T(g) at the targets plus the skipped-cell error bound."""

    values: np.ndarray
    skipped_cells: int
    skipped_bound: float


def volume_potential(M, grid: InteriorGrid, g: np.ndarray,
                     targets: np.ndarray) -> VolumePotentialResult:
    """Midpoint-rule Newtonian potential of a gridded source.

    Cells whose center lies within one cell diameter of a target are skipped
    for that target; their contribution is bounded by the integral of the
    kernel over the equivalent-volume ball centered at the target and the
    total bound is reported in the result.
    """
    ker = _KernelSet(M, 3)
    g_flat = np.asarray(g, dtype=float).reshape(-1)
    if g_flat.size != grid.n_cells:
        raise ShapeMismatch("g must be sampled on the full grid box")
    centers = grid.interior_centers()
    vals_in = g_flat[grid.inside]
    x = np.atleast_2d(np.asarray(targets, dtype=float))
    out = np.zeros(len(x))
    h = grid.h
    skip_r2 = 3.0 * h * h  # one cell diameter, squared
    r_eq = (3.0 * h ** 3 / (4.0 * np.pi)) ** (1.0 / 3.0)
    lam_max = float(np.linalg.eigvalsh(ker.M).max())
    bound_per_cell = np.sqrt(lam_max) * r_eq ** 2 / (2.0 * ker.sqrt_det)
    n_skipped = 0
    bound = 0.0
    centers_w = ker.whiten(centers)
    chunk = max(1, int(4e6) // max(1, len(centers)))
    for lo in range(0, len(x), chunk):
        xs = x[lo : lo + chunk]
        keep = _sq_dist(xs, centers) >= skip_r2
        with np.errstate(divide="ignore"):
            phi = ker.single(_sq_dist(ker.whiten(xs), centers_w))
        phi = np.where(keep, phi, 0.0)
        out[lo : lo + chunk] = phi @ vals_in * grid.cell_volume
        skip_cols = np.nonzero(~keep)[1]
        n_skipped += skip_cols.size
        bound += float(np.abs(vals_in)[skip_cols].sum() * bound_per_cell)
    if not np.all(np.isfinite(out)):
        raise QuadratureFailure("volume potential produced non-finite values")
    return VolumePotentialResult(values=out, skipped_cells=n_skipped,
                                 skipped_bound=bound)


def green_representation(M, mesh, dirichlet: NodalField, conormal: NodalField,
                         x, g_volume=None):
    """Evaluate chi_D u(x) = SL(conormal)(x) - DL(dirichlet)(x) + T(g)(x).

    ``g_volume`` is an optional ``(InteriorGrid, flat values)`` pair for the
    volume term.  For x inside and u solving Delta_M u = g with the given
    traces this returns u(x); outside the closed surface it returns ~0.

    Raises
    ------
    PointOnBoundary
        If any evaluation point is within 1e-9 x the bounding-box diagonal
        of the surface (``require_off_surface``).
    """
    pts = np.atleast_2d(np.asarray(x, dtype=float))
    scalar_in = np.asarray(x).ndim == 1
    require_off_surface(mesh, pts)
    u0 = dirichlet.check_on(mesh)
    u1 = conormal.check_on(mesh)
    sl = assemble_layer("single", M, mesh, pts)
    dl = assemble_layer("double", M, mesh, pts)
    vals = sl.apply(u1) - dl.apply(u0)
    if g_volume is not None:
        grid, g = g_volume
        vals = vals + volume_potential(M, grid, g, pts).values
    return float(vals[0]) if scalar_in else vals


# ---------------------------------------------------------------------------
# binary operator dump


def save_operator(op: LayerOperators, base_path) -> None:
    """Dump a layer operator as row-major float64 ``.bin`` + ``.json`` header."""
    base = Path(base_path)
    mat = np.ascontiguousarray(op.matrix, dtype=np.float64)
    mat.tofile(base.with_suffix(".bin"))
    header = {
        "dims": list(mat.shape),
        "kind": op.kind,
        "tensor": [[float(v) for v in row] for row in op.tensor],
        "source_surface": op.source_surface,
        "target": op.target if isinstance(op.target, str) else "points",
        "dtype": "float64",
        "order": "C",
    }
    _write_text(base.with_suffix(".json"), json.dumps(header, indent=1) + "\n")


def load_operator(base_path) -> LayerOperators:
    """Reload a dumped operator bit-exactly."""
    base = Path(base_path)
    try:
        header = json.loads(base.with_suffix(".json").read_text())
        raw = np.fromfile(base.with_suffix(".bin"), dtype=np.float64)
    except (OSError, json.JSONDecodeError) as exc:
        raise ParseError(f"cannot read operator dump {base}: {exc}") from exc
    dims = tuple(header["dims"])
    if raw.size != dims[0] * dims[1]:
        raise ParseError(f"operator dump {base}: size mismatch")
    return LayerOperators(
        kind=header["kind"],
        source_surface=header["source_surface"],
        target=header["target"],
        matrix=raw.reshape(dims),
        tensor=np.asarray(header["tensor"], dtype=float),
    )
