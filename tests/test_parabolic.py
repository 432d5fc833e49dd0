"""Parabolic potentials: heat kernel, Green identity, evolution right side."""

import dataclasses
import json
import warnings

import numpy as np
import pytest

from cardiobem import (
    ConductivityModel,
    HarmonicSpec,
    HarmonicTerm,
    HeatOperatorSpec,
    InteriorGrid,
    MissingInteriorData,
    NodalField,
    ParseError,
    PointOnBoundary,
    ShapeMismatch,
    Shell3D,
    SpaceTimeField,
    TimeGrid,
    assemble_evolution_rhs,
    heat_kernel,
    heat_kernel_mass,
    icosphere,
    ionic_current_linear,
    load_spacetime_field,
    parabolic_green_reconstruct,
    parabolic_layer_potentials,
    poisson_integral,
    save_spacetime_field,
    synth_bidomain_steady,
    volume_heat_potential,
)
from cardiobem import parabolic
from cardiobem.assembly import _panel_quadrature
from cardiobem.direct import solve_neumann_normalized
from cardiobem.mesh import _BLOCK_CELLS


@pytest.fixture(scope="module")
def aniso_spec():
    # 2D operator with every coefficient active
    return HeatOperatorSpec(M=np.array([[2.0, 0.3], [0.3, 1.0]]), scale=0.5,
                            drift=np.array([0.4, -0.2]), reaction=0.7, dim=2)


@pytest.fixture(scope="module")
def aniso_spec3():
    # 3D operator with a full M, drift, reaction and a non-unit scale
    m = np.array([[1.2, 0.3, -0.2], [0.3, 0.9, 0.25], [-0.2, 0.25, 1.5]])
    return HeatOperatorSpec(M=m, scale=0.6, drift=np.array([0.3, -0.4, 0.2]),
                            reaction=0.5, dim=3)


def test_time_grid():
    tg = TimeGrid(t_end=1.0, steps=5)
    assert tg.dt == pytest.approx(0.25)
    assert np.allclose(tg.times, [0.0, 0.25, 0.5, 0.75, 1.0])
    with pytest.raises(ShapeMismatch):
        TimeGrid(t_end=1.0, steps=1)
    with pytest.raises(ShapeMismatch):
        TimeGrid(t_end=0.0, steps=5)


def test_spacetime_field_validation():
    tg = TimeGrid(t_end=1.0, steps=4)
    with pytest.raises(ShapeMismatch):
        SpaceTimeField("heart", np.zeros(4), tg)
    with pytest.raises(ShapeMismatch):
        SpaceTimeField("heart", np.zeros((3, 5)), tg)
    bad = np.zeros((3, 4))
    bad[1, 2] = np.nan
    with pytest.raises(ShapeMismatch):
        SpaceTimeField("heart", bad, tg)
    fld = SpaceTimeField.constant_in_time("heart", np.arange(3.0), tg)
    assert fld.values.shape == (3, 4)
    assert fld.n_nodes == 3
    assert np.array_equal(fld.frame(2), np.arange(3.0))
    assert not fld.values.flags.writeable


def test_heat_kernel_closed_form(aniso_spec):
    spec = aniso_spec
    diff = np.array([[0.3, -0.1], [0.0, 0.2], [1.0, 0.5]])
    s = 0.4
    a_inv = np.linalg.inv(spec.A)
    d = diff - spec.drift * s
    q = np.einsum("ij,jk,ik->i", d, a_inv, d)
    want = (np.exp(-q / (4 * s) - spec.reaction * s)
            / ((4 * np.pi * s) ** (spec.dim / 2) * np.sqrt(np.linalg.det(spec.A))))
    assert np.allclose(heat_kernel(spec, diff, s), want, rtol=1e-14)
    with pytest.raises(ShapeMismatch):
        heat_kernel(spec, np.zeros((2, 3)), s)


def test_heat_kernel_closed_form_3d(aniso_spec3):
    spec = aniso_spec3
    diff = np.array([[0.3, -0.1, 0.2], [0.0, 0.2, -0.4], [0.5, 0.25, 0.1]])
    s = 0.35
    d = diff - spec.drift * s
    q = np.einsum("ij,jk,ik->i", d, np.linalg.inv(spec.A), d)
    want = (np.exp(-q / (4 * s) - spec.reaction * s)
            / ((4 * np.pi * s) ** 1.5 * np.sqrt(np.linalg.det(spec.A))))
    np.testing.assert_allclose(heat_kernel(spec, diff, s), want, rtol=1e-14, atol=0)


def test_heat_kernel_lag_broadcast(aniso_spec3):
    # (n, 1, 3) points against (k,) lags give the (n, k) block of the
    # scalar-lag calls, and the s <= 0 columns are exact zeros
    diff = np.random.default_rng(5).uniform(-0.6, 0.6, size=(7, 1, 3))
    s = np.array([0.05, 0.0, 0.2, -0.1, 0.6])
    block = heat_kernel(aniso_spec3, diff, s)
    assert block.shape == (7, 5)
    for j, sj in enumerate(s):
        col = heat_kernel(aniso_spec3, diff[:, 0], sj)
        if sj <= 0.0:
            assert np.array_equal(block[:, j], np.zeros(7))
        else:
            np.testing.assert_allclose(block[:, j], col, rtol=1e-14, atol=0)


def test_heat_kernel_causality(aniso_spec):
    diff = np.array([[0.3, -0.1], [0.0, 0.2], [1.0, 0.5]])
    assert np.array_equal(heat_kernel(aniso_spec, diff, 0.0), np.zeros(3))
    assert np.array_equal(heat_kernel(aniso_spec, diff, -0.5), np.zeros(3))
    s = np.array([-1.0, 0.0, 0.3])
    out = heat_kernel(aniso_spec, diff, s)
    assert out[0] == 0.0 and out[1] == 0.0 and out[2] > 0.0


def test_heat_kernel_mass(aniso_spec):
    # total mass decays exactly like exp(-a0 t); drift only moves the bump
    for t in (0.5, 2.0):
        assert heat_kernel_mass(aniso_spec, t) == pytest.approx(
            np.exp(-aniso_spec.reaction * t), abs=1e-9)
    assert heat_kernel_mass(aniso_spec, 0.0) == 0.0


def test_poisson_semigroup(heart2):
    # I(K(. - x0, t0))(x, t) == K(x - x0, t0 + t) while the tails stay
    # inside the ball; midpoint quadrature of a resolved Gaussian is
    # spectrally accurate
    spec = HeatOperatorSpec(M=np.eye(3), scale=1.0, dim=3)
    grid = InteriorGrid.for_mesh(heart2, h=0.05)
    x0 = np.array([0.05, -0.1, 0.0])
    u0 = heat_kernel(spec, grid.centers() - x0, 0.01)
    x = np.array([0.12, 0.02, -0.05])
    got = poisson_integral(spec, grid, u0, x, 0.012)
    want = float(heat_kernel(spec, x - x0, 0.022))
    assert got == pytest.approx(want, rel=1e-12)
    with pytest.raises(ShapeMismatch):
        poisson_integral(spec, grid, u0, x, 0.0)
    with pytest.raises(ShapeMismatch):
        poisson_integral(spec, grid, u0[:-1], x, 0.01)


def test_green_identity_constant(model, heart2):
    # u == 1 is caloric for the reaction-free operator: the Poisson term
    # and the double layer of 1 must sum to the indicator of the ball
    spec = HeatOperatorSpec.from_model(model)
    tg = TimeGrid(t_end=0.5, steps=24)
    grid = InteriorGrid.for_mesh(heart2, h=0.14)
    nv = heart2.n_vertices
    trace = SpaceTimeField.constant_in_time("heart", np.ones(nv), tg)
    flux = SpaceTimeField.constant_in_time("heart", np.zeros(nv), tg,
                                           units="mV*mS/cm^2")
    inside = parabolic_green_reconstruct(spec, heart2, grid, trace, flux,
                                         np.ones(grid.n_cells), None,
                                         np.array([0.2, -0.1, 0.15]), 0.3)
    outside = parabolic_green_reconstruct(spec, heart2, grid, trace, flux,
                                          np.ones(grid.n_cells), None,
                                          np.array([1.5, 0.0, 0.0]), 0.3)
    assert abs(inside - 1.0) < 1e-4
    assert abs(outside) < 1e-4


def test_green_identity_source(heart2):
    # u = t: zero initial data and flux, unit volume source.  Unit
    # diffusivity keeps the kernel resolved by the cell size at every
    # quadrature time, which the physical operator's tiny scale would not.
    spec = HeatOperatorSpec(M=np.eye(3), scale=1.0, dim=3)
    tg = TimeGrid(t_end=0.5, steps=24)
    grid = InteriorGrid.for_mesh(heart2, h=0.14)
    nv = heart2.n_vertices
    trace = SpaceTimeField("heart", np.tile(tg.times, (nv, 1)), tg)
    flux = SpaceTimeField.constant_in_time("heart", np.zeros(nv), tg,
                                           units="mV*mS/cm^2")
    source = SpaceTimeField("grid", np.ones((grid.n_cells, tg.steps)), tg)
    inside = parabolic_green_reconstruct(spec, heart2, grid, trace, flux,
                                         None, source,
                                         np.array([0.2, -0.1, 0.15]), 0.3)
    outside = parabolic_green_reconstruct(spec, heart2, grid, trace, flux,
                                          None, source,
                                          np.array([1.6, 0.2, 0.0]), 0.3)
    assert inside == pytest.approx(0.3, rel=5e-3)
    assert abs(outside) < 2e-2


def test_green_identity_starts_at_the_first_frame(heart2):
    # caloric u = |x|^2 + 6t on the unit ball over [t0, t0 + 0.5]: the
    # Poisson term takes the lag t - t0 from the trace's first frame.  At
    # t0 = 0.2 the lag t was 1.96 % off; t - t0 gives 0.63 % (0.90 % at
    # t0 = 0).  A flux or source on frames from another t0 is rejected.
    spec = HeatOperatorSpec(M=1.0, scale=1.0, dim=3)
    grid = InteriorGrid.for_mesh(heart2, h=0.14)
    x, t0, t = np.array([0.1, -0.2, 0.15]), 0.2, 0.7
    tg = TimeGrid(t_end=t, steps=60, t0=t0)
    trace = SpaceTimeField("heart", np.add.outer(
        np.sum(heart2.vertices ** 2, axis=1), 6.0 * tg.times), tg)
    radial = np.repeat(2.0 * np.linalg.norm(heart2.vertices, axis=1)[:, None], 60, 1)
    flux = SpaceTimeField("heart", radial, tg)
    u0 = np.sum(grid.centers() ** 2, axis=1) + 6.0 * t0
    got = parabolic_green_reconstruct(spec, heart2, grid, trace, flux, u0, None, x, t)
    want = x @ x + 6.0 * t
    assert abs(got - want) / want < 0.015
    from_zero = TimeGrid(t_end=t, steps=60)
    with pytest.raises(ShapeMismatch):
        parabolic_green_reconstruct(spec, heart2, grid, trace,
                                    SpaceTimeField("heart", radial, from_zero),
                                    u0, None, x, t)
    source = SpaceTimeField("grid", np.zeros((grid.n_cells, 60)), from_zero)
    with pytest.raises(ShapeMismatch):
        parabolic_green_reconstruct(spec, heart2, grid, trace, flux, u0, source, x, t)


def _layer_per_lag(rule, spec, mesh, density, kind, x, t):
    # one heat_kernel call per frame, summed with the time weights
    times = density.grid.times
    idx, w = parabolic._time_weights(times, t)
    pts, nrm, weights = rule(mesh)
    weighted = weights @ density.values[:, idx]
    diff = x[None, :] - pts
    total = 0.0
    for j, (fi, wj) in enumerate(zip(idx, w)):
        s = t - times[fi]
        kern = heat_kernel(spec, diff, s)
        if kind == "double":
            nu_d = np.einsum("ij,ij->i", nrm, diff - spec.drift * s)
            kern = -(nu_d / (2.0 * s) + nrm @ spec.drift) * kern
        total += wj * float(kern @ weighted[:, j])
    return total


def _volume_per_lag(spec, grid, source, x, t):
    times = source.grid.times
    g = source.values[grid.inside]
    k = int(np.sum(times < t))
    diff = x[None, :] - grid.interior_centers()
    series = [float(heat_kernel(spec, diff, t - times[j]) @ g[:, j]) * grid.cell_volume
              for j in range(k)]
    near = int(np.argmin(np.einsum("ij,ij->i", diff, diff)))
    j1 = int(np.searchsorted(times, t, side="right") - 1)
    th = (t - times[j1]) / (times[j1 + 1] - times[j1])
    series.append((1 - th) * g[near, j1] + th * g[near, j1 + 1])
    return float(np.trapezoid(series, np.append(times[:k], t)))


@pytest.fixture(scope="module")
def heat_data(heart2):
    rng = np.random.default_rng(9)
    tg = TimeGrid(t_end=0.5, steps=11)
    grid = InteriorGrid.for_mesh(heart2, h=0.2)
    nv = heart2.n_vertices
    return dict(
        tg=tg, grid=grid,
        trace=SpaceTimeField("heart", rng.standard_normal((nv, tg.steps)), tg),
        flux=SpaceTimeField("heart", rng.standard_normal((nv, tg.steps)), tg),
        u0=rng.standard_normal(grid.n_cells),
        source=SpaceTimeField("grid", rng.standard_normal((grid.n_cells, tg.steps)), tg),
    )


@pytest.mark.parametrize("x", [[0.2, -0.3, 0.1], [0.6, 0.5, -0.4], [1.3, 0.2, 0.1]])
def test_potentials_match_per_lag_reference(aniso_spec3, heart2, heat_data,
                                            written_out_rule, x):
    spec, d = aniso_spec3, heat_data
    x = np.array(x)
    t = 0.37                                   # between frames 0.35 and 0.4
    for kind, dens in (("single", d["flux"]), ("double", d["trace"])):
        got = parabolic_layer_potentials(spec, heart2, dens, kind, x, t)
        want = _layer_per_lag(written_out_rule, spec, heart2, dens, kind, x, t)
        assert got == pytest.approx(want, rel=1e-12, abs=0)
    got = volume_heat_potential(spec, d["grid"], d["source"], x, t)
    assert got == pytest.approx(_volume_per_lag(spec, d["grid"], d["source"], x, t),
                                rel=1e-12, abs=0)
    pieces = (poisson_integral(spec, d["grid"], d["u0"], x, t)
              + volume_heat_potential(spec, d["grid"], d["source"], x, t)
              + spec.scale * parabolic_layer_potentials(spec, heart2, d["flux"],
                                                        "single", x, t)
              + parabolic_layer_potentials(spec, heart2, d["trace"], "double", x, t))
    got = parabolic_green_reconstruct(spec, heart2, d["grid"], d["trace"], d["flux"],
                                      d["u0"], d["source"], x, t)
    assert got == pytest.approx(pieces, rel=1e-12, abs=0)
    # a flux on another time grid takes each layer's own frames
    tg2 = TimeGrid(t_end=0.5, steps=8)
    flux2 = SpaceTimeField("heart", d["flux"].values[:, :8], tg2)
    pieces2 = (pieces
               - spec.scale * parabolic_layer_potentials(spec, heart2, d["flux"],
                                                         "single", x, t)
               + spec.scale * parabolic_layer_potentials(spec, heart2, flux2,
                                                         "single", x, t))
    got = parabolic_green_reconstruct(spec, heart2, d["grid"], d["trace"], flux2,
                                      d["u0"], d["source"], x, t)
    assert got == pytest.approx(pieces2, rel=1e-12, abs=0)


def test_lag_blocking(aniso_spec3, heart2, heat_data, monkeypatch):
    # blocks of a few lags give the one-block value
    spec, d = aniso_spec3, heat_data
    x, t = np.array([0.2, -0.3, 0.1]), 0.5
    args = (spec, heart2, d["grid"], d["trace"], d["flux"], d["u0"], d["source"], x, t)
    whole = parabolic_green_reconstruct(*args)
    calls = []
    gaussian = parabolic._gaussian

    def counted(*a):
        calls.append(1)
        return gaussian(*a)

    monkeypatch.setattr(parabolic, "_gaussian", counted)
    parabolic_green_reconstruct(*args)
    assert len(calls) == 3                     # Poisson, volume, shared layers
    calls.clear()
    n_quad = len(_panel_quadrature(heart2)[1])
    monkeypatch.setattr(parabolic, "_BLOCK_ENTRIES", 2 * n_quad)
    blocked = parabolic_green_reconstruct(*args)
    # 10 lags: the layers in blocks of 2, the volume's 480 cells in blocks of 9
    assert d["grid"].inside.sum() == 480
    assert len(calls) == 1 + 2 + 5
    assert blocked == pytest.approx(whole, rel=1e-13, abs=0)


def test_quadrature_built_once_per_mesh(aniso_spec3, heat_data):
    # the panel quadrature is kept on its mesh, read-only, across points
    mesh = icosphere(1, 1.0, surface_id="heart")
    d = heat_data
    tg = d["tg"]
    trace = SpaceTimeField("heart", d["trace"].values[:mesh.n_vertices], tg)
    flux = SpaceTimeField("heart", d["flux"].values[:mesh.n_vertices], tg)
    args = (aniso_spec3, mesh, d["grid"], trace, flux, None, None)
    first = parabolic_green_reconstruct(*args, np.array([0.2, -0.3, 0.1]), 0.5)
    quad = mesh._derived["panel_quadrature"]
    again = parabolic_green_reconstruct(*args, np.array([0.2, -0.3, 0.1]), 0.5)
    parabolic_green_reconstruct(*args, np.array([-0.1, 0.4, 0.2]), 0.45)
    assert again == first
    assert _panel_quadrature(mesh) is quad
    assert mesh._derived["panel_quadrature"] is quad
    centre, points, offset, basis_w, incidence = quad
    for arr in (centre, points, offset, basis_w,
                incidence.data, incidence.indices, incidence.indptr):
        assert not arr.flags.writeable


def test_kernel_set_built_once_per_spec(heart2, heat_data, monkeypatch):
    # Poisson, volume and layers share one factorisation of A per spec
    d = heat_data
    spec = HeatOperatorSpec(M=np.diag([1.1, 0.9, 1.3]), scale=0.7,
                            drift=np.array([0.1, 0.0, -0.2]), dim=3)
    builds = []
    kernel_set = parabolic._KernelSet

    def counted(*a):
        builds.append(1)
        return kernel_set(*a)

    monkeypatch.setattr(parabolic, "_KernelSet", counted)
    for x, t in (([0.2, -0.3, 0.1], 0.5), ([-0.1, 0.4, 0.2], 0.45),
                 ([0.0, 0.1, -0.5], 0.37)):
        parabolic_green_reconstruct(spec, heart2, d["grid"], d["trace"], d["flux"],
                                    d["u0"], d["source"], np.array(x), t)
    assert len(builds) == 1


def test_volume_rows_follow_the_grid(aniso_spec3, heat_data):
    # one source met by two grids of one shape but different masks: each
    # grid sums over its own interior cells, whichever comes first
    spec, d = aniso_spec3, heat_data
    grid = d["grid"]
    inside = grid.inside.copy()
    inside[np.flatnonzero(inside)[::3]] = False
    other = dataclasses.replace(grid, inside=inside)
    x, t = np.array([0.2, -0.3, 0.1]), 0.37
    want = {id(g): _volume_per_lag(spec, g, d["source"], x, t) for g in (grid, other)}
    assert want[id(grid)] != pytest.approx(want[id(other)], rel=1e-3)
    for order in ((grid, other), (other, grid)):
        source = SpaceTimeField("grid", d["source"].values, d["tg"])
        for g in order + order:
            got = volume_heat_potential(spec, g, source, x, t)
            assert got == pytest.approx(want[id(g)], rel=1e-12, abs=0)


def test_layer_potential_validation(model, heart2):
    spec = HeatOperatorSpec.from_model(model)
    tg = TimeGrid(t_end=0.5, steps=8)
    dens = SpaceTimeField.constant_in_time("heart", np.ones(heart2.n_vertices), tg)
    x = np.array([0.2, 0.1, 0.0])
    with pytest.raises(ShapeMismatch):
        parabolic_layer_potentials(spec, heart2, dens, "triple", x, 0.3)
    with pytest.raises(ShapeMismatch):
        parabolic_layer_potentials(spec, heart2, dens, "single", x, 0.7)
    other = SpaceTimeField.constant_in_time("torso", np.ones(heart2.n_vertices), tg)
    with pytest.raises(ShapeMismatch):
        parabolic_layer_potentials(spec, heart2, other, "single", x, 0.3)
    with pytest.raises(PointOnBoundary):
        parabolic_layer_potentials(spec, heart2, dens, "double",
                                   heart2.vertices[0], 0.3)
    # no frame lies strictly below t0: the potentials vanish identically
    assert parabolic_layer_potentials(spec, heart2, dens, "single", x, 0.0) == 0.0


def test_volume_potential_validation(model, heart2):
    spec = HeatOperatorSpec.from_model(model)
    tg = TimeGrid(t_end=0.5, steps=8)
    grid = InteriorGrid.for_mesh(heart2, h=0.2)
    src = SpaceTimeField("grid", np.ones((grid.n_cells, tg.steps)), tg)
    assert volume_heat_potential(spec, grid, src, np.array([0.1, 0.0, 0.0]), 0.0) == 0.0
    bad = SpaceTimeField("grid", np.ones((grid.n_cells - 1, tg.steps)), tg)
    with pytest.raises(ShapeMismatch):
        volume_heat_potential(spec, grid, bad, np.array([0.1, 0.0, 0.0]), 0.3)


def test_volume_potential_rejects_time_beyond_source(model, heart2):
    # as the layers do for their densities: no silent read of the last frame
    spec = HeatOperatorSpec.from_model(model)
    tg = TimeGrid(t_end=0.5, steps=8)
    grid = InteriorGrid.for_mesh(heart2, h=0.2)
    src = SpaceTimeField("grid", np.ones((grid.n_cells, tg.steps)), tg)
    x = np.array([0.1, 0.0, 0.0])
    assert volume_heat_potential(spec, grid, src, x, 0.5) > 0.0
    with pytest.raises(ShapeMismatch, match="time grid"):
        volume_heat_potential(spec, grid, src, x, 0.51)


@pytest.fixture(scope="module")
def compatible_flux(heart2):
    rng = np.random.default_rng(3)
    psi = rng.standard_normal(heart2.n_vertices)
    w = heart2.vertex_weights
    return psi - (w @ psi) / w.sum()


def test_evolution_rhs_static_flux(model, heart2, compatible_flux):
    # time-constant flux and zero reaction: the correction differentiates
    # a constant, so the right side is h, bit for bit
    tg = TimeGrid(t_end=0.5, steps=12)
    h = SpaceTimeField("heart", np.outer(np.arange(heart2.n_vertices, dtype=float),
                                         np.cos(tg.times)), tg)
    flux = SpaceTimeField.constant_in_time("heart", compatible_flux, tg,
                                           units="mV*mS/cm^2")
    out = assemble_evolution_rhs(model, heart2, h, flux, 0.0)
    assert np.array_equal(out.values, h.values)


def test_evolution_rhs_time_derivative(model, heart2, compatible_flux):
    # flux linear in t: the finite differences are exact and the Neumann
    # solve is linear in its data, so F - h = lam * beta * w0 everywhere
    tg = TimeGrid(t_end=0.5, steps=12)
    beta = 2.0
    psi_t = compatible_flux[:, None] * (1.0 + beta * tg.times)[None, :]
    h = SpaceTimeField.constant_in_time("heart", np.zeros(heart2.n_vertices), tg)
    flux = SpaceTimeField("heart", psi_t, tg, units="mV*mS/cm^2")
    out = assemble_evolution_rhs(model, heart2, h, flux, 0.0)
    rep = solve_neumann_normalized(
        model.M_i, heart2,
        NodalField("heart", compatible_flux, units="mV*mS/cm^2"), project=True)
    want = model.lam * beta * rep.solution_trace.values
    err = np.abs(out.values - want[:, None]).max() / np.abs(want).max()
    assert err < 1e-10


def test_evolution_rhs_reaction(model, heart2, compatible_flux):
    # static flux with a reaction coefficient: F - h = lam * a0 * (w0 + c)
    tg = TimeGrid(t_end=0.5, steps=12)
    spec = HeatOperatorSpec.from_model(model, reaction=0.8)
    h = SpaceTimeField.constant_in_time("heart", np.zeros(heart2.n_vertices), tg)
    flux = SpaceTimeField.constant_in_time("heart", compatible_flux, tg,
                                           units="mV*mS/cm^2")
    out = assemble_evolution_rhs(model, heart2, h, flux, 0.5, spec=spec)
    rep = solve_neumann_normalized(
        model.M_i, heart2,
        NodalField("heart", compatible_flux, units="mV*mS/cm^2"), project=True)
    want = model.lam * 0.8 * (rep.solution_trace.values + 0.5)
    err = np.abs(out.values - want[:, None]).max() / np.abs(want).max()
    assert err < 1e-12


def test_evolution_rhs_drift(model):
    # the degree-1 oracle term: w = N_i(0, psi) = gamma z, so with a static
    # flux, c = 0 and no reaction the correction is lam a . grad w =
    # lam a_z gamma at every node; the boundary gradient is first order
    geometry = Shell3D(1.0, 2.0)
    oracle = synth_bidomain_steady(geometry, model, HarmonicSpec(
        terms=(HarmonicTerm(1, 0, a=5.0),), geometry=geometry))
    spec = HeatOperatorSpec.from_model(model, drift=(0.3, -0.2, 0.5))
    want = model.lam * 0.5 * oracle.terms[0].gamma
    tg = TimeGrid(t_end=0.5, steps=4)
    errors = []
    for level in (1, 2, 3):
        heart = icosphere(level, 1.0, surface_id="heart")
        flux = SpaceTimeField.constant_in_time(
            "heart", oracle.heart_flux(heart.vertices), tg, units="mV*mS/cm^2")
        h = SpaceTimeField.constant_in_time("heart", np.zeros(heart.n_vertices), tg)
        out = assemble_evolution_rhs(model, heart, h, flux, 0.0, spec=spec)
        errors.append(np.abs(out.values - want).max() / abs(want))
    assert errors[0] > errors[1] > errors[2]
    assert errors[1] <= 0.05 and errors[2] <= 0.02


def test_evolution_rhs_validation(model, heart2, compatible_flux):
    tg = TimeGrid(t_end=0.5, steps=6)
    nv = heart2.n_vertices
    h = SpaceTimeField.constant_in_time("heart", np.zeros(nv), tg)
    flux = SpaceTimeField.constant_in_time("heart", compatible_flux, tg,
                                           units="mV*mS/cm^2")
    skew = ConductivityModel(M_i=np.diag([1.0, 2.0, 3.0]),
                             M_e=np.diag([2.0, 4.0, 7.0]))
    with pytest.raises(ShapeMismatch):
        assemble_evolution_rhs(skew, heart2, h, flux, 0.0)
    other = SpaceTimeField.constant_in_time("heart", compatible_flux,
                                            TimeGrid(t_end=0.5, steps=7),
                                            units="mV*mS/cm^2")
    with pytest.raises(ShapeMismatch):
        assemble_evolution_rhs(model, heart2, h, other, 0.0)
    with pytest.raises(ShapeMismatch):
        assemble_evolution_rhs(model, heart2, h, flux, np.zeros(5))
    short = SpaceTimeField.constant_in_time("heart", np.zeros(nv - 1), tg)
    with pytest.raises(ShapeMismatch):
        assemble_evolution_rhs(model, heart2, short, flux, 0.0)


def test_ionic_current_linear():
    tg = TimeGrid(t_end=0.3, steps=4)
    rng = np.random.default_rng(11)
    v = SpaceTimeField("heart", rng.standard_normal((5, 4)), tg)
    b = rng.standard_normal(5)
    out = ionic_current_linear(v, np.zeros(3), 2.0, b[:, None])
    assert np.allclose(out.values, 2.0 * v.values + b[:, None])
    assert out.units == "uA/cm^2"
    a = np.array([0.5, -1.0, 0.25])
    with pytest.raises(MissingInteriorData):
        ionic_current_linear(v, a, 2.0, 0.0)
    with pytest.raises(ShapeMismatch):
        ionic_current_linear(v, a, 2.0, 0.0, grad_v=np.zeros((5, 2, 4)))
    g = rng.standard_normal((5, 3, 4))
    out = ionic_current_linear(v, a, 2.0, 1.5, grad_v=g)
    want = 2.0 * v.values + np.einsum("ndk,d->nk", g, a) + 1.5
    assert np.allclose(out.values, want)


def test_spacetime_round_trip(tmp_path):
    tg = TimeGrid(t_end=0.5, steps=3, t0=0.1)
    rng = np.random.default_rng(4)
    fld = SpaceTimeField("heart", rng.standard_normal((6, 3)), tg, units="uA/cm^2")
    path = tmp_path / "field.csv"
    save_spacetime_field(fld, path)
    back = load_spacetime_field(path)
    assert np.array_equal(back.values, fld.values)
    assert back.grid == fld.grid
    assert back.location == "heart"
    assert back.units == "uA/cm^2"
    # a zero-node record is an empty CSV; the sidecar gives its frames
    empty = SpaceTimeField("heart", np.empty((0, 3)), tg)
    save_spacetime_field(empty, tmp_path / "empty.csv")
    assert (tmp_path / "empty.csv").read_bytes() == b""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        back = load_spacetime_field(tmp_path / "empty.csv")
    assert back.values.shape == (0, 3)
    assert back.grid == tg
    # a record of several parse blocks, of the floats hardest to spell and
    # to read back, loads bit for bit as np.loadtxt reads the same file
    edges = [5e-324, 2.2250738585072014e-308, 1e-5, 1e16, -0.0,
             1.7976931348623157e308, 0.1 + 0.2, 1 / 3, 9007199254740993.0]
    values = rng.standard_normal((60, 300)) * 10.0 ** rng.integers(-300, 300, (60, 300))
    values[:, :len(edges)] = edges
    values[:, len(edges):2 * len(edges)] = -np.array(edges)
    assert values.size > 3 * _BLOCK_CELLS
    big = SpaceTimeField("heart", values, TimeGrid(t_end=1.0, steps=300))
    save_spacetime_field(big, tmp_path / "big.csv")
    back = load_spacetime_field(tmp_path / "big.csv").values
    assert back.tobytes() == values.tobytes()
    assert back.tobytes() == np.loadtxt(tmp_path / "big.csv", delimiter=",").tobytes()


def test_spacetime_load_reads_loadtxt_spellings(tmp_path):
    # spellings np.loadtxt takes and JSON does not, and "-0", which JSON
    # reads as the integer 0, load to np.loadtxt's array, sign bits included
    tg = TimeGrid(t_end=0.5, steps=3)
    path = tmp_path / "field.csv"
    save_spacetime_field(SpaceTimeField("heart", np.ones((3, 3)), tg), path)
    for text in ["+1.5,1.,-0\n\n2,-0,.5\n3e2,4E-1,-0.0\n",
                 "1.5,-0,0\n2,3,-0\n3e2,4E-1,-0.0"]:
        path.write_text(text)
        back = load_spacetime_field(path).values
        assert back.tobytes() == np.loadtxt(path, delimiter=",", ndmin=2).tobytes()
        assert np.signbit(back).sum() == 3


def test_spacetime_load_checks_sidecar_shape(tmp_path):
    tg = TimeGrid(t_end=0.5, steps=4)
    fld = SpaceTimeField("heart", np.arange(12.0).reshape(3, 4), tg)
    path = tmp_path / "field.csv"
    save_spacetime_field(fld, path)
    rows = path.read_text().splitlines()
    path.write_text("\n".join(rows[:-1]) + "\n")
    with pytest.raises(ParseError, match="sidecar"):
        load_spacetime_field(path)
    side = tmp_path / "field.csv.json"
    manifest = json.loads(side.read_text())
    del manifest["shape"]
    side.write_text(json.dumps(manifest))
    with pytest.raises(ParseError, match="shape"):
        load_spacetime_field(path)


def test_spacetime_load_rejects_malformed_cell(tmp_path):
    tg = TimeGrid(t_end=0.5, steps=4)
    fld = SpaceTimeField("heart", np.arange(12.0).reshape(3, 4), tg)
    path = tmp_path / "field.csv"
    save_spacetime_field(fld, path)
    rows = path.read_text().splitlines()
    # JSON reads the last three as 2.0, 1.0 and nan; np.loadtxt rejects them
    for bad in ["x", '"2.0"', "true", "null"]:
        cells = rows[1].split(",")
        cells[2] = bad
        path.write_text("\n".join(rows[:1] + [",".join(cells)] + rows[2:]) + "\n")
        with pytest.raises(ParseError, match="field.csv"):
            load_spacetime_field(path)
    # a ragged row: one cell short, and the sidecar's cell count kept
    rows = path.read_text().splitlines()
    rows[1] = "1.0,2.0,3.0"
    rows[2] += ",5.0"
    path.write_text("\n".join(rows) + "\n")
    with pytest.raises(ParseError, match="field.csv"):
        load_spacetime_field(path)
