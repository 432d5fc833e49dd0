"""Layer operator assembly, Green representation, volume potentials."""

import numpy as np
import pytest

from cardiobem import (
    InteriorGrid,
    NodalField,
    PointOnBoundary,
    assemble_layer,
    circle_curve,
    green_representation,
    icosphere,
    load_operator,
    save_operator,
    volume_potential,
)
from cardiobem.assembly import (
    _TRI_RULE_B,
    _TRI_RULE_W,
    _KernelSet,
    _near_panel_integrals_3d,
)


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


def test_operator_cache(sphere):
    a = assemble_layer("single", np.eye(3), sphere)
    b = assemble_layer("single", np.eye(3), sphere)
    assert a.matrix is b.matrix  # cached, not reassembled
    c = assemble_layer("single", np.eye(3), sphere, cache=False)
    assert c.matrix is not a.matrix
    assert np.array_equal(c.matrix, a.matrix)


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


def test_double_layer_gauss_law_near_surface(sphere):
    # D 1 is the solid-angle integral: -1 inside the closed surface, 0
    # outside.  Targets at radius 0.97 and 1.03 over vertices and face
    # centroids, 0.1-0.2 panel diameters off, use the close-panel rule.
    dirs = np.vstack([sphere.vertices, sphere.vertices[sphere.elements].mean(axis=1)])
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    for radius, want in ((0.97, -1.0), (1.03, 0.0)):
        dl = assemble_layer("double", np.eye(3), sphere, radius * dirs, cache=False)
        assert np.abs(dl.matrix.sum(axis=1) - want).max() < 3e-3


@pytest.mark.slow
def test_single_layer_constant_level4():
    # a uniform unit density on the unit sphere has potential 1 on it
    sphere4 = icosphere(4, 1.0, surface_id="s4")
    single = assemble_layer("single", np.eye(3), sphere4, cache=False)
    assert np.abs(single.matrix.sum(axis=1) - 1.0).max() < 2e-3
