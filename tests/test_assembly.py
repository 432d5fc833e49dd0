"""Layer operator assembly, Green representation, volume potentials."""

import numpy as np
import pytest

from cardiobem import (
    DomainConfig,
    InteriorGrid,
    NodalField,
    PointOnBoundary,
    SurfaceMesh,
    assemble_layer,
    circle_curve,
    green_representation,
    icosphere,
    load_operator,
    save_operator,
    solve_neumann_normalized,
    solve_zaremba,
    volume_potential,
)
from cardiobem.assembly import (
    _DUF_U,
    _DUF_V,
    _DUF_W,
    _NEAR_BATCH,
    _NEAR_FACTOR,
    _TRI_RULE_B,
    _TRI_RULE_W,
    _close_field,
    _closest_points,
    _near_geometry,
    _near_panel_integrals_3d,
    _panel_quadrature,
    _panel_rule,
)
from cardiobem.kernels import _KernelSet


@pytest.fixture(scope="module")
def sphere():
    return icosphere(2, 1.0, surface_id="s")


def test_operator_shapes(sphere):
    single = assemble_layer("single", np.eye(3), sphere)
    double = assemble_layer("double", np.eye(3), sphere)
    n = sphere.n_vertices
    assert single.matrix.shape == (n, n)
    assert double.matrix.shape == (n, n)
    pts = np.array([[0.0, 0.0, 0.2], [0.1, 0.3, -0.2]])
    to_points = assemble_layer("single", np.eye(3), sphere, target=pts)
    assert to_points.matrix.shape == (2, n)


def test_double_layer_row_sums(sphere):
    # the corrected diagonal pins each row sum to the interior solid-angle
    # value -1/2, making the interior-limit operator exact on constants
    double = assemble_layer("double", np.eye(3), sphere)
    assert np.abs(double.matrix.sum(axis=1) + 0.5).max() < 1e-12


def test_operator_cache(assembly_builds):
    # the solvers assemble on the first call only; warm calls reuse the cache
    heart = icosphere(1, 1.0, surface_id="heart")
    torso = icosphere(1, 2.0, surface_id="torso")
    domain = DomainConfig(heart=heart, torso=torso)
    z = NodalField("heart", heart.vertices[:, 2], units="mV*mS/cm^2")
    solve_zaremba(np.eye(3), domain, z)
    solve_neumann_normalized(np.eye(3), heart, z)
    # the four shell blocks of each layer kind, then the heart's own pair
    # for the Neumann solve: the shell keeps no per-surface layers
    assert len(assembly_builds) == 10
    del assembly_builds[:]
    solve_zaremba(np.eye(3), domain, z)
    solve_neumann_normalized(np.eye(3), heart, z)
    assert assembly_builds == []
    # a pure function: each call assembles
    a = assemble_layer("single", np.eye(3), heart)
    b = assemble_layer("single", np.eye(3), heart)
    assert a.matrix is not b.matrix
    assert np.array_equal(a.matrix, b.matrix)


def test_operator_round_trip(tmp_path, sphere):
    op = assemble_layer("double", 2.0 * np.eye(3), sphere)
    save_operator(op, tmp_path / "dbl")
    back = load_operator(tmp_path / "dbl")
    assert back.kind == "double"
    assert np.array_equal(back.matrix, op.matrix)
    assert np.array_equal(back.tensor, op.tensor)


def test_green_representation_linear(sphere):
    z = sphere.vertices[:, 2]
    dirichlet = NodalField("s", z)
    conormal = NodalField("s", z)  # for u = z on the unit sphere
    pts = np.array([[0.0, 0.0, 0.4], [0.2, -0.3, 0.1]])
    vals = green_representation(1.0, sphere, dirichlet, conormal, pts)
    assert vals == pytest.approx(pts[:, 2], rel=5e-3)


def test_green_representation_anisotropic(sphere):
    # u = x solves div(M grad u) = 0 for constant M; conormal = nu . M e_x
    M = np.diag([2.0, 1.0, 3.0])
    x = sphere.vertices[:, 0]
    nu = sphere.vertices / np.linalg.norm(sphere.vertices, axis=1, keepdims=True)
    dirichlet = NodalField("s", x)
    conormal = NodalField("s", 2.0 * nu[:, 0])
    pts = np.array([[0.3, 0.0, 0.0], [-0.2, 0.4, 0.1]])
    vals = green_representation(M, sphere, dirichlet, conormal, pts)
    assert vals == pytest.approx(pts[:, 0], rel=1e-2)


def test_green_representation_surface_point_raises(sphere):
    z = sphere.vertices[:, 2]
    f = NodalField("s", z)
    with pytest.raises(PointOnBoundary):
        green_representation(1.0, sphere, f, f, sphere.vertices[7])


def test_green_representation_2d():
    curve = circle_curve(1.0, 256, surface_id="c")
    x = curve.vertices[:, 0]
    nu = curve.vertices / np.linalg.norm(curve.vertices, axis=1, keepdims=True)
    dirichlet = NodalField("c", x)
    conormal = NodalField("c", nu[:, 0])
    pts = np.array([[0.3, 0.1], [-0.5, 0.2]])
    vals = green_representation(1.0, curve, dirichlet, conormal, pts)
    assert vals == pytest.approx(pts[:, 0], rel=1e-2)
    outside = green_representation(1.0, curve, dirichlet, conormal,
                                   np.array([[2.0, 0.0]]))
    assert abs(outside[0]) < 1e-2


def test_volume_potential_ball(sphere):
    # Newtonian potential of unit density over the unit ball at the center is
    # int_0^1 (1/(4 pi r)) 4 pi r^2 dr = 1/2; the faceted ball misses a thin
    # shell at r ~ 1 whose contribution is its volume times 1/(4 pi)
    grid = InteriorGrid.for_mesh(sphere, h=0.05)
    g = np.ones(grid.n_cells)
    res = volume_potential(np.eye(3), grid, g, np.zeros((1, 3)))
    missing = (4 * np.pi / 3 - sphere.enclosed_volume) / (4 * np.pi)
    assert res.values[0] == pytest.approx(0.5 - missing, rel=1.5e-2)


# ---------------------------------------------------------------------------
# whitened kernels: tensor scaling, rotation and the far field written out

def _full_tensor():
    q, _ = np.linalg.qr(np.random.default_rng(5).normal(size=(3, 3)))
    return q @ np.diag([3.0, 1.0, 0.4]) @ q.T


def _rel_err(a, b):
    return np.abs(a - b).max() / np.abs(b).max()


@pytest.mark.parametrize("kind", ["single", "double"])
def test_layer_tensor_scaling(sphere, kind):
    # phi_{cM} = phi_M / c and the double-layer kernel is invariant
    M, c = _full_tensor(), 3.7
    base = assemble_layer(kind, M, sphere).matrix
    scaled = assemble_layer(kind, c * M, sphere).matrix
    want = base / c if kind == "single" else base
    assert _rel_err(scaled, want) < 1e-13


@pytest.mark.parametrize("kind", ["single", "double"])
def test_layer_rotation_covariance(kind):
    # rotating the geometry by R and the tensor to R M R^T leaves every
    # entry unchanged; a non-diagonal M tells W from its transpose
    M = _full_tensor()
    R, _ = np.linalg.qr(np.random.default_rng(9).normal(size=(3, 3)))
    heart = icosphere(2, 1.0, surface_id="heart")
    torso = icosphere(2, 2.0, surface_id="torso")

    def rotated(mesh):
        return SurfaceMesh(mesh.vertices @ R.T, mesh.triangles, mesh.surface_id)

    heart_r, torso_r = rotated(heart), rotated(torso)
    for source, target, source_r, target_r in (
            (heart, None, heart_r, None), (torso, heart, torso_r, heart_r),
            (heart, torso, heart_r, torso_r)):
        want = assemble_layer(kind, M, source, target).matrix
        got = assemble_layer(kind, R @ M @ R.T, source_r, target_r).matrix
        assert _rel_err(got, want) < 1e-12


def test_far_field_matches_written_out_kernels(written_out_rule):
    # at level 1 no heart panel is close to a torso vertex, so the heart ->
    # torso blocks are the regular rule alone: kernel values at the panel
    # quadrature points, reduced to the vertices panel by panel
    M = _full_tensor()
    heart = icosphere(1, 1.0, surface_id="heart")
    torso = icosphere(1, 2.0, surface_id="torso")
    centroids = heart.vertices[heart.elements].mean(axis=1)
    dist = np.linalg.norm(torso.vertices[:, None] - centroids[None], axis=2)
    assert dist.min() > _NEAR_FACTOR * heart.element_diameters().max()
    pts, nrm, weights = written_out_rule(heart)
    d = torso.vertices[:, None, :] - pts[None, :, :]
    r = np.sqrt(np.einsum("tqi,ij,tqj->tq", d, np.linalg.inv(M), d))
    c = 1.0 / (4.0 * np.pi * np.sqrt(np.linalg.det(M)))
    single = (c / r) @ weights
    double = (c * np.einsum("tqi,qi->tq", d, nrm) / r ** 3) @ weights
    assert _rel_err(assemble_layer("single", M, heart, torso).matrix, single) < 1e-13
    assert _rel_err(assemble_layer("double", M, heart, torso).matrix, double) < 1e-13


@pytest.mark.parametrize("mesh", [icosphere(2, 1.3, surface_id="s"),
                                  circle_curve(0.7, 48, surface_id="c")],
                         ids=["icosphere", "circle"])
def test_panel_quadrature_reduces_p1(mesh):
    # a constant reduced through the weighted basis and the incidence is
    # the lumped vertex weight; the incidence has one entry per panel corner
    centre, points, offset, basis_w, incidence = _panel_quadrature(mesh)
    els = mesh.elements
    m, k = els.shape
    nq = basis_w.shape[1]
    assert incidence.shape == (mesh.n_vertices, k * m)
    assert incidence.nnz == k * m
    ones = (basis_w @ np.ones((nq, m))).reshape(k * m)
    np.testing.assert_allclose(incidence @ ones, mesh.vertex_weights, rtol=1e-14, atol=0)
    # q-major points about the centre, and the per-panel height offsets
    basis, weights = _panel_rule(mesh.dim)
    assert np.array_equal(basis_w, (weights[:, None] * basis).T)
    want = np.einsum("qk,mkj->qmj", basis, mesh.vertices[els]).reshape(nq * m, -1)
    np.testing.assert_allclose(points + centre, want, rtol=0, atol=1e-14)
    np.testing.assert_allclose(offset, np.einsum(
        "mj,mj->m", mesh.normals, mesh.vertices[els[:, 0]] - centre), rtol=0, atol=1e-14)


# ---------------------------------------------------------------------------
# close-panel quadrature against an independent reference

_PANEL = np.array([[0.0, 0.0, 0.0], [1.0, 0.1, 0.0], [0.3, 0.9, 0.0]])
_PANEL_NORMAL = np.array([0.0, 0.0, 1.0])
_PANEL_DIAM = max(np.linalg.norm(a - b) for a in _PANEL for b in _PANEL)


def _subdivided_reference(M, kind, x, k):
    """Kernel x basis integrals over _PANEL: 4^k midpoint pieces, 7 points each.

    Barycentric pieces are subdivided, so the basis values at the points
    come for free.  The kernels are written out here, apart from assembly.
    """
    tri = np.eye(3)[None]
    for _ in range(k):
        a, b, c = tri[:, 0], tri[:, 1], tri[:, 2]
        ab, bc, ca = (a + b) / 2, (b + c) / 2, (c + a) / 2
        tri = np.concatenate([np.stack(t, axis=1) for t in
                              ((a, ab, ca), (ab, b, bc), (ca, bc, c), (ab, bc, ca))])
    lam = np.einsum("qk,nkj->nqj", _TRI_RULE_B, tri).reshape(-1, 3)
    d = x - lam @ _PANEL
    r = np.sqrt(np.einsum("ni,ij,nj->n", d, np.linalg.inv(M), d))
    c = 1.0 / (4.0 * np.pi * np.sqrt(np.linalg.det(M)))
    kv = c / r if kind == "single" else c * (d @ _PANEL_NORMAL) / r ** 3
    area = 0.5 * np.linalg.norm(np.cross(_PANEL[1] - _PANEL[0], _PANEL[2] - _PANEL[0]))
    w = np.tile(_TRI_RULE_W, len(tri)) * area / len(tri)
    return (kv * w) @ lam


def _near(M, kind, targets):
    p = len(targets)
    return _near_panel_integrals_3d(
        _KernelSet(M, 3), kind, np.asarray(targets, float),
        np.broadcast_to(_PANEL, (p, 3, 3)), np.broadcast_to(_PANEL_NORMAL, (p, 3)))


_TENSORS = [pytest.param(2.0 * np.eye(3), id="isotropic"),
            pytest.param(np.diag([3.0, 1.0, 0.5]), id="anisotropic")]


@pytest.mark.parametrize("M", _TENSORS)
@pytest.mark.parametrize("kind", ["single", "double"])
def test_near_panel_integrals_match_subdivision(M, kind):
    # above the centroid (split at the projection) and beside the panel
    # (split at an edge point), 0.05-1.5 diameters off; all in one batch
    bases = [_PANEL.mean(axis=0), np.array([1.2, 1.0, 0.0])]
    heights = [0.05, 0.2, 0.5, 1.5]
    targets = [b + h * _PANEL_DIAM * _PANEL_NORMAL for b in bases for h in heights]
    got = _near(M, kind, targets)
    for x, row in zip(targets, got):
        want = _subdivided_reference(M, kind, x, 6)
        # the 8x8 Duffy rule loses digits as the target nears the panel:
        # about 1e-3 at 0.05 diameters above the centroid
        assert np.abs(row - want).max() < 3e-3 * np.abs(want).max()


@pytest.mark.parametrize("M", _TENSORS)
def test_near_panel_integrals_on_the_panel(M):
    # a corner leaves two zero-area subtriangles, an edge midpoint one;
    # their kernel values are inf or nan and must carry no weight
    targets = [_PANEL[1], 0.5 * (_PANEL[0] + _PANEL[2])]
    single = _near(M, "single", targets)
    double = _near(M, "double", targets)
    assert np.all(np.isfinite(single)) and np.all(np.isfinite(double))
    # the double-layer kernel vanishes on the panel's own plane
    assert np.abs(double).max() < 1e-12 * np.abs(single).max()
    for x, row in zip(targets, single):
        # the pieces' error is first order in their size at a singular
        # corner, so a Richardson step removes it
        want = 2.0 * _subdivided_reference(M, "single", x, 8) \
            - _subdivided_reference(M, "single", x, 7)
        assert np.abs(row - want).max() < 1e-4 * np.abs(want).max()


def _duffy_loop(M, kind, x):
    """The split Duffy rule over _PANEL, one subtriangle and point at a time.

    Kernels and barycentric coordinates are written out here; a subtriangle
    of zero area is skipped.
    """
    minv = np.linalg.inv(M)
    c = 1.0 / (4.0 * np.pi * np.sqrt(np.linalg.det(M)))
    p = _closest_points(x[None], _PANEL[None])[0][0]
    frame = np.column_stack([_PANEL[1] - _PANEL[0], _PANEL[2] - _PANEL[0]])
    area2 = np.linalg.norm(np.cross(frame[:, 0], frame[:, 1]))
    out = np.zeros(3)
    for a in range(3):
        e1, e2 = _PANEL[a] - p, _PANEL[(a + 1) % 3] - p
        sub2 = np.linalg.norm(np.cross(e1, e2))
        if sub2 <= 1e-12 * area2:
            continue
        for u, v, w in zip(_DUF_U, _DUF_V, _DUF_W):
            y = p + u * ((1.0 - v) * e1 + v * e2)
            d = x - y
            r = np.sqrt(d @ minv @ d)
            k = c / r if kind == "single" else c * (d @ _PANEL_NORMAL) / r ** 3
            st = np.linalg.lstsq(frame, y - _PANEL[0], rcond=None)[0]
            out += k * w * u * sub2 * np.array([1.0 - st.sum(), st[0], st[1]])
    return out


@pytest.mark.parametrize("M", _TENSORS)
@pytest.mark.parametrize("kind", ["single", "double"])
def test_near_panel_integrals_match_subtriangle_loop(M, kind):
    # a corner, an edge midpoint and the centroid on the panel, and two
    # targets off it; a zero-area subtriangle is never evaluated, so no
    # division by zero or invalid value is raised
    centroid = _PANEL.mean(axis=0)
    targets = np.array([_PANEL[1], 0.5 * (_PANEL[0] + _PANEL[2]), centroid,
                        centroid + 0.1 * _PANEL_DIAM * _PANEL_NORMAL,
                        np.array([1.2, 1.0, 0.0]) + 0.2 * _PANEL_NORMAL])

    class Recording(_KernelSet):
        points = 0

        def layer(self, kind, r2, h):
            Recording.points += r2.size
            return super().layer(kind, r2, h)

    p = len(targets)
    with np.errstate(all="raise"):
        got = _near_panel_integrals_3d(
            Recording(M, 3), kind, targets, np.broadcast_to(_PANEL, (p, 3, 3)),
            np.broadcast_to(_PANEL_NORMAL, (p, 3)))
    # 1 + 2 + 3 + 3 + 2 subtriangles of nonzero area, 64 points each
    assert Recording.points == 11 * 64
    for x, row in zip(targets, got):
        want = _duffy_loop(M, kind, x)
        assert np.abs(row - want).max() <= 1e-14 * np.abs(want).max()


def test_double_layer_gauss_law_near_surface(sphere):
    # D 1 is the solid-angle integral: -1 inside the closed surface, 0
    # outside.  Targets at radius 0.97 and 1.03 over vertices and face
    # centroids, 0.1-0.2 panel diameters off, use the close-panel rule.
    dirs = np.vstack([sphere.vertices, sphere.vertices[sphere.elements].mean(axis=1)])
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    for radius, want in ((0.97, -1.0), (1.03, 0.0)):
        dl = assemble_layer("double", np.eye(3), sphere, radius * dirs)
        assert np.abs(dl.matrix.sum(axis=1) - want).max() < 3e-3


@pytest.mark.parametrize("level", [1, 2])
def test_self_geometry_is_kept_and_bit_identical(level):
    # builds under M = 7 leave the surface's close-pair geometry on it; S and
    # D under diag(3, 1, 0.5) reuse it and match, bit for bit, both a fresh
    # mesh's and the same targets given as points, which never use it
    mesh = icosphere(level, 1.0, surface_id="s")
    assemble_layer("double", 7.0, mesh)
    assemble_layer("single", 7.0, mesh)
    kept = mesh._derived["self_close"]
    M = np.diag([3.0, 1.0, 0.5])
    n = mesh.n_vertices
    for kind in ("single", "double"):
        got = assemble_layer(kind, M, mesh).matrix
        fresh = icosphere(level, 1.0, surface_id="s")
        assert np.array_equal(got, assemble_layer(kind, M, fresh).matrix)
        points = assemble_layer(kind, M, mesh, mesh.vertices.copy()).matrix
        if kind == "double":  # the self build's row-sum diagonal
            np.fill_diagonal(points, 0.0)
            points[np.arange(n), np.arange(n)] = -0.5 - points.sum(axis=1)
        assert np.array_equal(got, points)
    assert mesh._derived["self_close"] is kept
    arrays = [a for near_loc, near_el, geometry in kept
              for a in (near_loc, near_el, *(b for batch in geometry for b in batch))]
    assert not any(a.flags.writeable for a in arrays)
    # per-pair and per-subtriangle data only: no (subtriangles x 64) arrays
    assert max(a.shape[-1] for a in arrays if a.ndim == 2) == 3
    assert sum(a.nbytes for a in arrays) < (0.2 if level == 1 else 0.8) * 2 ** 20


def _translated(mesh, shift=0.0, scale=1.0):
    return SurfaceMesh(mesh.vertices * scale + shift, mesh.elements.copy(),
                       mesh.surface_id)


_SPHERE2 = icosphere(2, 1.0, surface_id="s")
_ECCENTRIC = icosphere(2, 1.0, center=(0.85, 0.0, 0.0), surface_id="heart")
_TORSO = icosphere(2, 2.0, surface_id="torso")
_POINTS = np.random.default_rng(3).normal(size=(40, 3)) * [0.6, 0.6, 0.3] + [0.0, 0.0, 0.9]


@pytest.mark.parametrize("source, targets", [
    (_translated(_SPHERE2, [1e4, -3e3, 7e2]), None),
    (_translated(_SPHERE2, scale=1e-3), None),
    (_ECCENTRIC, _TORSO.vertices), (_TORSO, _ECCENTRIC.vertices),
    (_SPHERE2, _POINTS),
], ids=["translated", "scaled", "heart-torso", "torso-heart", "points"])
def test_close_pairs_match_all_pairs_reference(source, targets):
    # the candidates of one distance product, tested component by
    # component, are exactly the pairs of the all-pairs test; the geometry
    # of one pass, sliced, is each batch's own
    x = source.vertices if targets is None else targets
    centroids = source.vertices[source.elements].mean(axis=1)
    diam = source.element_diameters()
    d = np.sqrt(sum((x[:, None, i] - centroids[None, :, i]) ** 2 for i in range(3)))
    want_loc, want_el = np.nonzero(d < _NEAR_FACTOR * diam[None, :])
    near_loc, near_el, geometry = _close_field(source, x)
    assert len(want_loc) > 0
    assert np.array_equal(near_loc, want_loc) and np.array_equal(near_el, want_el)
    assert len(geometry) == -(-len(want_loc) // _NEAR_BATCH)
    for lo, batch in zip(range(0, len(want_loc), _NEAR_BATCH), geometry):
        j = near_el[lo : lo + _NEAR_BATCH]
        own = _near_geometry(x[near_loc[lo : lo + _NEAR_BATCH]],
                             source.vertices[source.elements[j]], source.normals[j])
        assert all(np.array_equal(a, b) for a, b in zip(batch, own))
        assert not any(a.flags.writeable for a in batch)


@pytest.mark.slow
def test_single_layer_constant_level4():
    # a uniform unit density on the unit sphere has potential 1 on it
    sphere4 = icosphere(4, 1.0, surface_id="s4")
    single = assemble_layer("single", np.eye(3), sphere4)
    assert np.abs(single.matrix.sum(axis=1) - 1.0).max() < 2e-3
