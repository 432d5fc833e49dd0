"""Dense collocation assembly of layer and volume potentials.

Single layer, double layer and Newtonian (volume) potential of the operator
``Delta_M = -div(M grad)``:

    SL(rho)(x)  = integral_S phi_M(x, y) rho(y) dsigma(y)
    DL(rho)(x)  = integral_S d_{nu,M;y} phi_M(x, y) rho(y) dsigma(y)
    T(g)(x)     = integral_D phi_M(x, y) g(y) dy

with piecewise-linear nodal densities and collocation at mesh vertices
(rows = targets, cols = source vertices).  Regular panels use a degree-5
7-point Gauss rule (3D) or 8-point Gauss-Legendre (2D); panels close to the
target are re-integrated by splitting at the point nearest the target and
applying a Duffy-type polar transform per subtriangle, which also provides
the weakly-singular self terms of the single layer.

In 3D the close (target, panel) pairs are corrected together, in batches
of 256 pairs: closest points, the split into exactly three subtriangles
(a zero-area one gets weight zero), the 8x8 Duffy rule on arrays of
3 x 256 x 3 x 64 values (about 1 MB each), minus the regular rule, and one
scatter-add per batch in pair order.  Peak memory is therefore set by the
far-field blocks, which hold at most 4e6 (target, quadrature point) pairs:
about 100 MB of difference vectors plus the kernel values, whatever the
mesh size, on top of the dense matrix itself.  The double-layer
diagonal on its own surface is fixed by the interior solid-angle row-sum
identity ``D 1 = -1/2``; combined with the ``1/2 I + D`` combination this
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
import threading
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from numpy.polynomial.legendre import leggauss
from scipy import sparse

from .errors import ParseError, QuadratureFailure, ShapeMismatch
from .grid import InteriorGrid
from .kernels import as_tensor
from .mesh import CurveMesh, NodalField, SurfaceMesh, require_off_surface

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
# tensor rule on the unit square for the Duffy transform
_DUF_U = np.repeat(_GL01_X, _GL_N)
_DUF_V = np.tile(_GL01_X, _GL_N)
_DUF_W = np.repeat(_GL01_W, _GL_N) * np.tile(_GL01_W, _GL_N)
_DUF_UW = _DUF_U * _DUF_W  # weight x Jacobian factor u
# moments of the barycentric coordinates along the Duffy map, see
# _near_panel_integrals_3d
_DUF_MOMENTS = np.column_stack([1.0 - _DUF_U, _DUF_U * (1.0 - _DUF_V), _DUF_U * _DUF_V])

_NEAR_FACTOR = 1.6  # panels within this many diameters get the split rule
# close (target, panel) pairs per batch: the batch arrays of shape
# (pairs, 3, 64, 3) stay near 1 MB, well below the far-field blocks
_NEAR_BATCH = 256

_memo_lock = threading.Lock()
_operator_memo: dict = {}


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


class _KernelSet:
    """Fast in-assembly kernels with precomputed inverse and determinant.

    Difference vectors ``diff`` and normals are stored components first,
    shape (dim, ...), so every component is one contiguous array.
    """

    def __init__(self, M, dim: int):
        self.M = as_tensor(M, dim)
        self.dim = dim
        self.Minv = np.linalg.inv(self.M)
        self.sqrt_det = float(np.sqrt(np.linalg.det(self.M)))
        # nonzero terms of d^T M^-1 d: three for a diagonal tensor
        self._r2_terms = [(i, j, self.Minv[i, j]) for i in range(dim)
                          for j in range(dim) if self.Minv[i, j] != 0.0]

    def r2(self, diff: np.ndarray) -> np.ndarray:
        (i, j, m), *rest = self._r2_terms
        out = diff[i] * m * diff[j]
        for i, j, m in rest:
            out += diff[i] * m * diff[j]
        return out

    def single(self, diff: np.ndarray) -> np.ndarray:
        r2 = self.r2(diff)
        if self.dim == 3:
            return 1.0 / (4.0 * np.pi * self.sqrt_det * np.sqrt(r2))
        return -0.5 * np.log(r2 / LOG_KERNEL_SCALE ** 2) / (2.0 * np.pi * self.sqrt_det)

    def double(self, diff: np.ndarray, normal: np.ndarray) -> np.ndarray:
        r2 = self.r2(diff)
        proj = _dot(normal, diff)
        if self.dim == 3:
            return proj / (4.0 * np.pi * self.sqrt_det * r2 * np.sqrt(r2))
        return proj / (2.0 * np.pi * self.sqrt_det * r2)

    def layer(self, kind: str, diff: np.ndarray, normal: np.ndarray) -> np.ndarray:
        """The "single" or "double" kernel; ``normal`` serves the double."""
        return self.single(diff) if kind == "single" else self.double(diff, normal)


def _dot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Dot product over the leading (component) axis, broadcasting."""
    out = a[0] * b[0]
    for i in range(1, len(a)):
        out += a[i] * b[i]
    return out


# ---------------------------------------------------------------------------
# panel quadrature caches


def _panel_quadrature(mesh) -> tuple:
    """Quadrature points, per-point normals and the basis scatter matrix.

    Returns ``(points, normals, scatter)`` where ``scatter`` is sparse of
    shape (n_quad_points, n_vertices) carrying basis value x quad weight x
    element measure, so a dense kernel block ``K[targets, quad_points]``
    turns into the collocation matrix as ``K @ scatter``.
    """
    verts = mesh.vertices
    els = mesh.elements
    if mesh.dim == 3:
        corners = verts[els]  # (m, 3, 3)
        pts = np.einsum("qk,mkj->mqj", _TRI_RULE_B, corners).reshape(-1, 3)
        w = (_TRI_RULE_W[None, :] * mesh.areas[:, None])  # (m, q)
        basis = _TRI_RULE_B  # (q, 3)
        nq = len(_TRI_RULE_W)
    else:
        a = verts[els[:, 0]]
        b = verts[els[:, 1]]
        xi = _GL01_X
        pts = (a[:, None, :] * (1 - xi)[None, :, None]
               + b[:, None, :] * xi[None, :, None]).reshape(-1, 2)
        w = _GL01_W[None, :] * mesh.areas[:, None]
        basis = np.column_stack([1 - xi, xi])
        nq = _GL_N
    m = len(els)
    k = els.shape[1]
    rows = np.repeat(np.arange(m * nq), k)
    cols = np.repeat(els[:, None, :], nq, axis=1).reshape(-1)
    data = (w[:, :, None] * basis[None, :, :]).reshape(-1)
    scatter = sparse.csr_matrix((data, (rows, cols)), shape=(m * nq, mesh.n_vertices))
    normals = np.repeat(mesh.normals, nq, axis=0)
    return pts, normals, scatter


def _closest_points(x: np.ndarray, corners: np.ndarray) -> tuple:
    """Point of each triangle nearest its target, for (P, 3) / (P, 3, 3).

    The projection when it falls inside the triangle, otherwise the nearest
    edge point (the first edge wins a tie).  Returns the points (P, 3) and
    their barycentric coordinates (P, 3).
    """
    c0 = corners[:, 0]
    e1 = corners[:, 1] - c0
    e2 = corners[:, 2] - c0
    s = x - c0
    g11, g12, g22 = (e1 * e1).sum(1), (e1 * e2).sum(1), (e2 * e2).sum(1)
    det = g11 * g22 - g12 * g12
    se1, se2 = (s * e1).sum(1), (s * e2).sum(1)
    u = (g22 * se1 - g12 * se2) / det
    v = (g11 * se2 - g12 * se1) / det
    inside = (u >= 0) & (v >= 0) & (u + v <= 1)
    # edge a runs from corner a to corner a + 1
    ab = np.roll(corners, -1, axis=1) - corners
    t = np.clip(((x[:, None, :] - corners) * ab).sum(2) / (ab * ab).sum(2), 0.0, 1.0)
    on_edge = corners + t[..., None] * ab
    pair = np.arange(len(x))
    edge = np.argmin(np.linalg.norm(x[:, None, :] - on_edge, axis=2), axis=1)
    t = t[pair, edge]
    lam_edge = np.zeros((len(x), 3))
    lam_edge[pair, edge] = 1.0 - t
    lam_edge[pair, (edge + 1) % 3] = t
    point = np.where(inside[:, None], c0 + u[:, None] * e1 + v[:, None] * e2,
                     on_edge[pair, edge])
    lam = np.where(inside[:, None], np.column_stack([1.0 - u - v, u, v]), lam_edge)
    return point, lam


def _near_panel_integrals_3d(ker: _KernelSet, kind: str, x: np.ndarray,
                             corners: np.ndarray, normals: np.ndarray) -> np.ndarray:
    """Accurate integrals of kernel x linear basis over close panels.

    For P (target, panel) pairs, ``x`` (P, 3), ``corners`` (P, 3, 3) and
    ``normals`` (P, 3), returns the (P, 3) basis-weighted integrals in
    corner order.  Each panel is split at the point p nearest its target
    into the subtriangles (p, c_a, c_{a+1}), and the Duffy transform
    ``y(u, v) = p + u((1-v) e1 + v e2)``, ``|J| = 2 area u``, with an 8x8
    Gauss tensor rule concentrates the points where the kernel peaks.  A
    subtriangle of zero area (p on an edge or at a corner) gets weight 0;
    its kernel values may be inf or nan.
    """
    p, lam_p = _closest_points(x, corners)
    area2 = np.linalg.norm(np.cross(corners[:, 1] - corners[:, 0],
                                    corners[:, 2] - corners[:, 0]), axis=1)
    # subtriangle edges from p, shape (P, 3 parts, 3)
    e1 = corners - p[:, None, :]
    e2 = np.roll(e1, -1, axis=1)
    sub2 = np.linalg.norm(np.cross(e1, e2), axis=2)
    keep = sub2 > 1e-12 * area2[:, None]
    # quadrature points, components first: shape (3, P, 3 parts, 64)
    e1 = np.moveaxis(e1, 2, 0)[..., None]
    e2 = np.moveaxis(e2, 2, 0)[..., None]
    y = p.T[:, :, None, None] + _DUF_U * ((1.0 - _DUF_V) * e1 + _DUF_V * e2)
    diff = x.T[:, :, None, None] - y
    with np.errstate(divide="ignore", invalid="ignore"):
        kv = ker.layer(kind, diff, normals.T[:, :, None, None])
        w = np.where(keep[:, :, None], kv * (sub2[:, :, None] * _DUF_UW), 0.0)
    # y is affine in (u, v): lam(y) = (1-u) lam(p) + u(1-v) e_a + uv e_{a+1},
    # so three moments per subtriangle carry the basis functions
    mom = w @ _DUF_MOMENTS  # (P, 3 parts, 3 moments)
    return (mom[:, :, 0].sum(axis=1)[:, None] * lam_p + mom[:, :, 1]
            + np.roll(mom[:, :, 2], 1, axis=1))


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
        c = 1.0 / (2.0 * np.pi * ker.sqrt_det)
        i0 = length * (np.log(length) - 1.0)                    # int ln s ds
        i1 = length ** 2 * (2.0 * np.log(length) - 1.0) / 4.0   # int s ln s ds
        shift = np.log(gamma / LOG_KERNEL_SCALE)
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
        diff = x[:, None] - y.T
        kv = ker.layer(kind, diff, normal[:, None])
        s_full = ((y - a) @ ab) / (ab @ ab)
        lam = np.column_stack([1.0 - s_full, s_full])
        out += ((kv * _GL01_W * ln) @ lam)
    return out


def _plain_panel_contrib(ker: _KernelSet, kind: str, x: np.ndarray, mesh,
                         el: int) -> np.ndarray:
    """Contribution of one segment under the regular rule (for subtraction)."""
    a, b = mesh.vertices[mesh.elements[el]]
    y = a[None, :] * (1 - _GL01_X)[:, None] + b[None, :] * _GL01_X[:, None]
    w = _GL01_W * mesh.areas[el]
    lam = np.column_stack([1 - _GL01_X, _GL01_X])
    diff = x[:, None] - y.T
    kv = ker.layer(kind, diff, mesh.normals[el][:, None])
    return (kv * w) @ lam


def _correct_near_3d(matrix: np.ndarray, kind: str, ker: _KernelSet, source,
                     pts: np.ndarray, x: np.ndarray, rows: np.ndarray,
                     panels: np.ndarray) -> None:
    """Swap the regular rule for the Duffy rule on close (row, panel) pairs.

    ``x`` holds the targets of ``rows``; ``pts`` the regular quadrature
    points of ``source`` (3, n_quad_points).  The pairs go in batches of
    ``_NEAR_BATCH``, and one ``np.add.at`` per batch adds them in pair
    order, as a loop over the pairs would.
    """
    panel_pts = pts.reshape(3, len(source.elements), len(_TRI_RULE_W))
    for lo in range(0, len(rows), _NEAR_BATCH):
        r = rows[lo : lo + _NEAR_BATCH]
        j = panels[lo : lo + _NEAR_BATCH]
        xr = x[lo : lo + _NEAR_BATCH]
        els = source.elements[j]
        normals = source.normals[j]
        fixed = _near_panel_integrals_3d(ker, kind, xr, source.vertices[els], normals)
        diff = xr.T[:, :, None] - panel_pts[:, j]
        kv = ker.layer(kind, diff, normals.T[:, :, None])
        plain = (kv * (_TRI_RULE_W * source.areas[j][:, None])) @ _TRI_RULE_B
        np.add.at(matrix, (r[:, None], els), fixed - plain)


def _assemble_dense(kind: str, ker: _KernelSet, source, targets: np.ndarray,
                    same_surface: bool) -> np.ndarray:
    pts, nrm, scatter = _panel_quadrature(source)
    # components first, see _KernelSet
    pts, nrm = np.ascontiguousarray(pts.T), np.ascontiguousarray(nrm.T)
    centroids = source.vertices[source.elements].mean(axis=1)
    diam = source.element_diameters()
    scatter_t = scatter.T.tocsr()
    n_t = len(targets)
    matrix = np.empty((n_t, source.n_vertices))
    chunk = max(1, int(4e6) // max(1, pts.shape[1]))
    for lo in range(0, n_t, chunk):
        x = targets[lo : lo + chunk]
        diff = x.T[:, :, None] - pts[:, None, :]
        with np.errstate(divide="ignore", invalid="ignore"):
            k = ker.layer(kind, diff, nrm[:, None, :])
        del diff
        np.copyto(k, 0.0, where=~np.isfinite(k))
        matrix[lo : lo + chunk] = (scatter_t @ k.T).T
        del k
        # re-integrate panels close to each target
        d_c = np.linalg.norm(x[:, None, :] - centroids[None, :, :], axis=2)
        near_loc, near_el = np.nonzero(d_c < _NEAR_FACTOR * diam[None, :])
        if source.dim == 3:
            _correct_near_3d(matrix, kind, ker, source, pts, x[near_loc],
                             lo + near_loc, near_el)
            continue
        for i_loc, j in zip(near_loc, near_el):
            row = lo + i_loc
            xi = x[i_loc]
            idx = source.elements[j]
            plain = _plain_panel_contrib(ker, kind, xi, source, j)
            # during same-surface assembly the target IS vertex `row`
            singular = same_surface and bool(np.any(idx == row))
            fixed = _integrate_panel_near_2d(
                ker, kind, xi, source.vertices[idx[0]], source.vertices[idx[1]],
                source.normals[j], singular,
            )
            matrix[row, idx] += fixed - plain
    return matrix


def assemble_layer(kind: str, M, source, target=None, *,
                   diagonal: str = "row_sum", cache: bool = True) -> LayerOperators:
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
        the source vertices through the singular integration path.
    diagonal : {"row_sum", "raw"}
        Same-surface double layer only: "row_sum" enforces D 1 = -1/2 per
        row (single closed surface); "raw" leaves the principal-value
        diagonal for callers assembling multi-surface block systems, which
        must apply the row identity across the full block row themselves.

    Notes
    -----
    Matrices are memoized per (kind, source, target-surface, M) behind a
    lock; pass ``cache=False`` to bypass.
    """
    if kind not in ("single", "double"):
        raise ShapeMismatch(f"unknown layer kind {kind!r}")
    if diagonal not in ("row_sum", "raw"):
        raise ShapeMismatch(f"unknown diagonal policy {diagonal!r}")
    tensor = as_tensor(M, source.dim)
    if target is None:
        target = source
    is_mesh_target = isinstance(target, (SurfaceMesh, CurveMesh))
    same = is_mesh_target and target.cache_token == source.cache_token

    key = None
    if cache and is_mesh_target:
        key = (kind, source.cache_token, target.cache_token,
               tensor.tobytes(), diagonal)
        with _memo_lock:
            hit = _operator_memo.get(key)
        if hit is not None:
            return hit

    targets = target.vertices if is_mesh_target else np.atleast_2d(np.asarray(target, float))
    if targets.shape[1] != source.dim:
        raise ShapeMismatch(f"targets must be (n, {source.dim})")

    matrix = _assemble_dense(kind, _KernelSet(tensor, source.dim), source, targets, same)
    if kind == "double" and same and diagonal == "row_sum":
        np.fill_diagonal(matrix, 0.0)
        matrix[np.arange(len(matrix)), np.arange(len(matrix))] = (
            -0.5 - matrix.sum(axis=1)
        )
    op = LayerOperators(
        kind=kind,
        source_surface=source.surface_id,
        target=target.surface_id if is_mesh_target else targets,
        matrix=matrix,
        tensor=tensor,
    )
    if key is not None:
        with _memo_lock:
            _operator_memo[key] = op
    return op


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
    chunk = max(1, int(4e6) // max(1, len(centers)))
    for lo in range(0, len(x), chunk):
        diff = x[lo : lo + chunk].T[:, :, None] - centers.T[:, None, :]
        r2 = ker.r2(diff)
        euclid2 = _dot(diff, diff)
        keep = euclid2 >= skip_r2
        with np.errstate(divide="ignore"):
            phi = 1.0 / (4.0 * np.pi * ker.sqrt_det * np.sqrt(r2))
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
                         x, g_volume=None, *, boundary_tolerance: float | None = None):
    """Evaluate chi_D u(x) = SL(conormal)(x) - DL(dirichlet)(x) + T(g)(x).

    ``g_volume`` is an optional ``(InteriorGrid, flat values)`` pair for the
    volume term.  For x inside and u solving Delta_M u = g with the given
    traces this returns u(x); outside the closed surface it returns ~0.

    Raises
    ------
    PointOnBoundary
        If any evaluation point is within ``boundary_tolerance`` (default
        1e-9 x bounding-box diagonal) of the surface.
    """
    pts = np.atleast_2d(np.asarray(x, dtype=float))
    scalar_in = np.asarray(x).ndim == 1
    if boundary_tolerance is None:
        box = mesh.vertices.max(axis=0) - mesh.vertices.min(axis=0)
        boundary_tolerance = 1e-9 * float(np.linalg.norm(box))
    require_off_surface(mesh, pts, boundary_tolerance)
    u0 = dirichlet.check_on(mesh)
    u1 = conormal.check_on(mesh)
    sl = assemble_layer("single", M, mesh, pts, cache=False)
    dl = assemble_layer("double", M, mesh, pts, cache=False)
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
    base.with_suffix(".json").write_text(json.dumps(header, indent=1) + "\n")


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
