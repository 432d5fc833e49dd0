"""Interior voxel grid: masks, quadrature, and difference operators."""

import numpy as np
import pytest

from cardiobem import InteriorGrid, icosphere
from cardiobem.primitives import unit_cube
from cardiobem.errors import EmptySupport, ShapeMismatch


@pytest.fixture(scope="module")
def ball_mesh():
    return icosphere(2, 1.0, surface_id="s")


@pytest.fixture(scope="module")
def ball_grid(ball_mesh):
    return InteriorGrid.for_mesh(ball_mesh, h=0.1)


def test_mask_and_measure(ball_grid, ball_mesh):
    centers = ball_grid.interior_centers()
    assert np.all(np.linalg.norm(centers, axis=1) < 1.0)
    assert ball_grid.cell_volume == pytest.approx(1e-3)
    vol = ball_grid.integrate(np.ones(ball_grid.shape).ravel())
    # midpoint quadrature volume of the faceted ball, not the round one
    assert vol == pytest.approx(ball_mesh.enclosed_volume, rel=2e-2)
    # C-order flattening: centers()[inside] is interior_centers()
    assert np.array_equal(ball_grid.centers()[ball_grid.inside.ravel()], centers)


def test_interior_centers_built_once(ball_mesh):
    grid = InteriorGrid.for_mesh(ball_mesh, h=0.2)
    first = grid.interior_centers()
    assert np.array_equal(first, grid.centers()[grid.inside])
    assert not first.flags.writeable
    assert grid.interior_centers() is first


def test_integrate_shape_guard(ball_grid):
    with pytest.raises(ShapeMismatch):
        ball_grid.integrate(np.ones(7))


def test_elliptic_apply_quadratic(ball_grid):
    # Delta_M u = -div(M grad u) is exact for quadratics on interior stencils
    c = ball_grid.centers()
    u = c[:, 0] ** 2 + 2.0 * c[:, 1] ** 2 + 3.0 * c[:, 2] ** 2
    M = np.eye(3)
    out = ball_grid.elliptic_apply(M, u)
    # probe well inside: all 6 stencil neighbours interior
    inside = ball_grid.inside.ravel()
    near = np.linalg.norm(c, axis=1) < 0.5
    vals = out[inside & near]
    assert vals == pytest.approx(-12.0, rel=1e-9)


def test_elliptic_apply_anisotropic(ball_grid):
    c = ball_grid.centers()
    u = c[:, 0] ** 2
    out = ball_grid.elliptic_apply(np.diag([2.0, 1.0, 1.0]), u)
    inside = ball_grid.inside.ravel()
    near = np.linalg.norm(c, axis=1) < 0.5
    assert out[inside & near] == pytest.approx(-4.0, rel=1e-9)


def test_elliptic_apply_exact_on_every_interior_cell():
    # the box's pad keeps the rim, which gets no stencil, outside the mask:
    # every one of the cube's 1000 interior cells reads Delta |x|^2 = -6
    grid = InteriorGrid.for_mesh(unit_cube(), h=0.1)
    out = grid.elliptic_apply(1.0, grid.sample(lambda x: (x * x).sum(axis=1)))
    assert grid.inside.sum() == 1000
    assert out[grid.inside] == pytest.approx(-6.0, rel=1e-9)


def test_gradient_linear(ball_grid):
    c = ball_grid.centers()
    u = 2.0 * c[:, 0] - c[:, 1] + 0.5 * c[:, 2]
    g = ball_grid.gradient(u)
    inside = ball_grid.inside.ravel()
    near = np.linalg.norm(c, axis=1) < 0.5
    sel = inside & near
    assert g[sel, 0] == pytest.approx(2.0, rel=1e-12)
    assert g[sel, 1] == pytest.approx(-1.0, rel=1e-12)
    assert g[sel, 2] == pytest.approx(0.5, rel=1e-12)


def test_empty_support():
    tiny = icosphere(0, 0.05, surface_id="s")
    with pytest.raises(EmptySupport):
        InteriorGrid.for_mesh(tiny, h=0.5)
