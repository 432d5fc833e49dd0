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
and applying a rule adapted to the singularity at that point on each piece,
which also provides the weakly-singular self terms of the single layer.

The regular rule runs in whitened coordinates (see ``kernels._KernelSet``).
With the source mesh centred on its centroid and the targets and
quadrature points mapped by W = L^-1, M = L L^T, the r_M^2 of a whole block
is one matrix product, |x'|^2 + |y'|^2 - 2 x'.y'.  The double layer's
height nu . (x - y) is the same at every point of a flat panel, so it is
one (panels x targets) product.  Close pairs are left out of the block,
which is contracted with the weighted basis values and added to the
vertex columns through one incidence matrix with an entry per panel corner.

Triangles and segments take one near-field pass.  The close (target,
panel) pairs come from ``mesh._near_pairs`` (one product of squared
distances, confirmed component by component) and are integrated together
in batches of 256 pairs.  Each panel is split at the point p nearest its
target (``mesh._closest_points``, the rule of every distance check in
``mesh`` too): a triangle into the three subtriangles (p, c_a, c_{a+1}),
which get the 8x8 Duffy rule, a segment into the two pieces (p, c_a),
which get 8-point Gauss-Legendre from p.  Only pieces of nonzero measure
are kept (a target at a corner or on an edge of its panel leaves one or
two of zero measure, which contribute nothing).  The r_M^2 at the points
of the kept pieces of a batch is one product of the whitened Gram entries
of x - p and the edges from p against a fixed table (six entries against
64 points for a subtriangle, three against 8 for a segment piece), with no
per-point difference vectors.  On a segment piece that starts at the
target itself the single layer is -c ln u plus a constant in the rule's
variable u, and the ln u part takes its exact moments (product
integration).  One ``np.add.at`` per batch adds the integrals in pair
order.  The close pairs and everything about them that does not depend on
the tensor or the kind (closest points, kept pieces, their edges, measures
and heights) are built in one pass per block of targets, once per mesh for
its own vertices, about 160 bytes per pair in 3D, and shared by every self
operator of that surface.  Peak memory is therefore set by the far-field
blocks, which hold at most 4e6 (target, quadrature point) pairs: the r_M^2
block, 32 MB whatever the mesh size, which the kernel values overwrite,
plus one (panels x targets) slice, on top of the dense matrix itself.  The
double-layer diagonal on its own surface is fixed by the interior
solid-angle row-sum identity ``D 1 = -1/2``; combined with the
``1/2 I + D`` combination this reproduces the exact interior-limit
operator at polyhedral vertices.

The interior Green representation evaluated here is

    chi_D(x) u(x) = SL(d_{nu,M} u)(x) - DL(u)(x) + T(Delta_M u)(x).

2D note: the plane's kernel is the shifted logarithm
-ln(r_M / r0)/(2 pi sqrt(det M)) with r0 = ``kernels.LOG_KERNEL_SCALE``
(see ``kernels._KernelSet``).  Curves otherwise take the surfaces' code:
the same far-field block, the same near-field pass and the same row-sum
diagonal.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.polynomial.legendre import leggauss
from scipy import sparse

from .errors import QuadratureFailure, ShapeMismatch
from .grid import InteriorGrid
from .kernels import _KernelSet
from .mesh import (CurveMesh, NodalField, SurfaceMesh, _closest_points, _freeze,
                   _memo, _near_pairs, _points, _values_on, require_off_surface)

__all__ = [
    "LayerOperators",
    "assemble_layer",
    "volume_potential",
    "VolumePotentialResult",
    "green_representation",
]

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
# _near_integrals
_DUF_MOMENTS = np.column_stack([1.0 - _DUF_U, _DUF_U * (1.0 - _DUF_V), _DUF_U * _DUF_V])
# with s1 = u(1-v), s2 = uv, the whitened x - y is a - s1 b1 - s2 b2, so
# r_M^2 is the Gram entries (|a|^2, a.b1, a.b2, |b1|^2, b1.b2, |b2|^2)
# against these rows; along a segment piece x - y is a - u b, and the
# entries are (|a|^2, a.b, |b|^2)
_S1, _S2 = _DUF_MOMENTS[:, 1], _DUF_MOMENTS[:, 2]
_DUF_GRAM = np.vstack([np.ones(_GL_N * _GL_N), -2.0 * _S1, -2.0 * _S2,
                       _S1 * _S1, 2.0 * _S1 * _S2, _S2 * _S2])
_SEG_GRAM = np.vstack([np.ones(_GL_N), -2.0 * _GL01_X, _GL01_X * _GL01_X])
# the split rule per dimension: Gram rows, weights (times the Jacobian
# factor u of the Duffy map), moments, and the vector pairs of the Gram
# entries
_NEAR_RULES = {3: (_DUF_GRAM, _DUF_UW, _DUF_MOMENTS,
                   ([0, 0, 0, 1, 1, 2], [0, 1, 2, 1, 2, 2])),
               2: (_SEG_GRAM, _GL01_W, _SEG_RULE_B, ([0, 0, 1], [0, 1, 1]))}
# exact moments of ln u against (1-u, u) on [0, 1], less the rule's
_LOG_FIX = np.array([-0.75, -0.25]) - (_GL01_W * np.log(_GL01_X)) @ _SEG_RULE_B

_NEAR_FACTOR = 1.6  # panels within this many diameters get the split rule
# close (target, panel) pairs per batch: with at most three subtriangles
# each, the batch arrays of shape (subtriangles, 64) stay near 0.4 MB,
# well below the far-field blocks
_NEAR_BATCH = 256
# (target, quadrature point) pairs per far-field block
_FAR_BLOCK = 4_000_000


@dataclass(frozen=True, eq=False)
class LayerOperators:
    """Assembled dense layer operator of one ``kind``, "single" or "double".

    ``matrix`` maps nodal densities on the source surface to potential
    values at the targets (rows = targets, cols = source vertices);
    ``apply`` is that product with a length check.  Made only by
    ``assemble_layer``, which has checked the kind.
    """

    kind: str
    matrix: np.ndarray

    def __post_init__(self) -> None:
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
    """The tensor-free part of ``_near_integrals``, read-only.

    For P (target, panel) pairs, ``x`` (P, dim), ``corners`` (P, k, dim)
    and ``normals`` (P, dim), each panel is split at the point p nearest
    its target (``mesh._closest_points``): a triangle into the
    subtriangles (p, c_a, c_{a+1}), a segment into the pieces (p, c_a).
    A piece of zero measure (p on an edge or at a corner) contributes
    nothing and is not kept.

    Returns ``(lam_p, xp, pair, part, jac, h, *edges)``: per pair the
    barycentric coordinates of the split point p and x - p; per kept
    (pair, part) piece its indices, its measure (twice the area of a
    subtriangle, the length of a segment piece), the height nu . (x - p)
    (p lies on the flat panel, so this is nu . (x - y) at every point of
    it) and its edges from p, two for a subtriangle (p, c_a, c_{a+1}), one
    for a segment piece (p, c_a).
    """
    p, lam_p = _closest_points(x, corners)
    # piece edges from p, shape (P, k parts, dim) each
    edges = [corners - p[:, None, :]]
    if corners.shape[1] == 3:
        edges.append(np.roll(edges[0], -1, axis=1))
    sizes = np.linalg.norm(np.cross(*edges) if len(edges) == 2 else edges[0], axis=-1)
    # the pieces tile the panel, so their measures sum to the panel's
    pair, part = np.nonzero(sizes > 1e-12 * sizes.sum(axis=1, keepdims=True))
    xp = x - p
    h = np.einsum("pi,pi->p", normals, xp)[pair]
    geometry = (lam_p, xp, pair, part, sizes[pair, part], h,
                *(e[pair, part] for e in edges))
    for a in geometry:
        a.flags.writeable = False
    return geometry


def _near_integrals(ker: _KernelSet, kind: str, geometry: tuple) -> np.ndarray:
    """Accurate integrals of kernel x linear basis over close panels.

    Returns the (P, k) basis-weighted integrals, in corner order, of the P
    (target, panel) pairs of ``geometry`` (``_near_geometry``), which does
    not depend on the tensor or the kind.  On a subtriangle the Duffy
    transform ``y(u, v) = p + u((1-v) e1 + v e2)``, ``|J| = 2 area u``,
    with an 8x8 Gauss tensor rule concentrates the points where the kernel
    peaks.  On a segment piece ``y(u) = p + u e1``, ``|J| = length``, with
    8-point Gauss-Legendre in u; where p is the target the single layer's
    logarithm is integrated exactly.  Only the kept pieces are whitened and
    get the rule, and their moments are added to their pair's corners.
    """
    lam_p, xp, pair, part, jac, h, *edges = geometry
    table, weights, moments, (rows, cols) = _NEAR_RULES[ker.dim]
    # a = W(x - p) and b_c = W e_c per kept piece, components first:
    # (dim components, vectors, kept).  p is the panel point nearest x, so
    # |x - y|^2 >= |x - p|^2 + |p - y|^2 and the Gram expansion of r_M^2
    # loses at most a few eps cond(M)
    z = (ker.W @ np.concatenate([xp[pair], *edges]).T).reshape(
        ker.dim, len(edges) + 1, -1)
    gram = (z[:, rows] * z[:, cols]).sum(axis=0)  # (Gram entries, kept)
    w = ker.layer(kind, gram.T @ table, h[:, None])
    w *= jac[:, None] * weights
    # y is affine in the rule's variables: lam(y) = (1-u) lam(p) + s_c e_c
    # summed over the piece's corners, so one moment per corner carries
    # the basis functions
    mom = w @ moments  # (kept, k)
    if ker.dim == 2 and kind == "single":
        # on a piece from the target itself (p = x, so a = 0) the kernel
        # is -c ln u - c ln(|b| / r0): its -c ln u part takes the exact
        # moments (-3/4, -1/4) in place of the rule's
        at_x = gram[0] <= 1e-24 * gram[-1]
        mom[at_x] -= ker._c * jac[at_x, None] * _LOG_FIX
    out = np.bincount(pair, mom[:, 0], len(xp))[:, None] * lam_p
    out[pair, part] += mom[:, 1]
    if ker.dim == 3:  # a subtriangle's second corner
        out[pair, (part + 1) % 3] += mom[:, 2]
    return out


def _close_field(source, x: np.ndarray) -> tuple:
    """The close (target, panel) pairs of the targets ``x``, and their
    geometry.

    Returns ``(near_loc, near_el, geometry)``, the target and panel indices
    of the pairs whose panel centroid lies within ``_NEAR_FACTOR`` panel
    diameters (``mesh._near_pairs``), and the ``_near_geometry`` of each
    batch of ``_NEAR_BATCH`` of them, in pair order: one geometry over all
    the pairs, sliced.  None of it depends on the tensor or the layer kind.
    """
    near_loc, near_el = (_freeze(a) for a in _near_pairs(
        source, x, _NEAR_FACTOR * source.element_diameters()))
    lam_p, xp, pair, *pieces = _near_geometry(
        x[near_loc], source.vertices[source.elements[near_el]],
        source.normals[near_el])
    geometry = []
    for lo in range(0, len(near_loc), _NEAR_BATCH):
        hi = lo + _NEAR_BATCH
        k = slice(*np.searchsorted(pair, [lo, hi]))
        geometry.append((lam_p[lo:hi], xp[lo:hi], _freeze(pair[k] - lo),
                         *(a[k] for a in pieces)))
    return near_loc, near_el, geometry


def _correct_near(matrix: np.ndarray, kind: str, ker: _KernelSet, source,
                  rows: np.ndarray, panels: np.ndarray, geometry: list) -> None:
    """Add the split-rule integrals of close (row, panel) pairs.

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
        _correct_near(matrix, kind, ker, source, lo + near_loc, near_el, geometry)
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
    if target is None:
        target = source
    same = target is source
    targets = _points(target.vertices if isinstance(target, (SurfaceMesh, CurveMesh))
                      else target, source.dim)

    ker = _KernelSet(M, source.dim)
    matrix = _assemble_dense(kind, ker, source, targets, same)
    if kind == "double" and same:
        np.fill_diagonal(matrix, 0.0)
        matrix[np.arange(len(matrix)), np.arange(len(matrix))] = (
            -0.5 - matrix.sum(axis=1)
        )
    return LayerOperators(kind=kind, matrix=matrix)


# ---------------------------------------------------------------------------
# volume potential


@dataclass(frozen=True, eq=False)
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
    x = _points(targets, 3)
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
    ShapeMismatch
        If a trace is not a NodalField on ``mesh``, or the points are not
        finite ``mesh.dim``-vectors (``mesh._points``).
    PointOnBoundary
        If any evaluation point is within 1e-9 x the bounding-box diagonal
        of the surface (``require_off_surface``).
    """
    u0 = _values_on(dirichlet, mesh)
    u1 = _values_on(conormal, mesh)
    pts = _points(x, mesh.dim)
    scalar_in = np.asarray(x).ndim == 1
    require_off_surface(mesh, pts)
    sl = assemble_layer("single", M, mesh, pts)
    dl = assemble_layer("double", M, mesh, pts)
    vals = sl.apply(u1) - dl.apply(u0)
    if g_volume is not None:
        grid, g = g_volume
        vals = vals + volume_potential(M, grid, g, pts).values
    return float(vals[0]) if scalar_in else vals
