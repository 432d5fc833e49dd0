"""Tikhonov-regularized data completion: grids, selection rules, sweeps."""

import numpy as np
import pytest

from cardiobem import (
    DegenerateLCurve,
    DiscrepancyPrinciple,
    DomainConfig,
    FixedAlpha,
    HarmonicSpec,
    HarmonicTerm,
    NodalField,
    ShapeMismatch,
    Shell3D,
    SurfaceMesh,
    TikhonovConfig,
    icosphere,
    lcurve_corner,
    rmse,
    run_protocol_2,
    save_lcurve,
    solve_cauchy_elliptic,
    synth_bidomain_steady,
)
from cardiobem.cauchy import _component_labels, _graph_laplacian
from cardiobem.direct import boundary_operators


def test_log_grid():
    cfg = TikhonovConfig.log_grid(12, 1e-8, 1.0)
    assert len(cfg.alpha_grid) == 12
    assert cfg.alpha_grid[0] == pytest.approx(1e-8)
    assert cfg.alpha_grid[-1] == pytest.approx(1.0)
    assert np.all(np.diff(cfg.alpha_grid) > 0)


def test_config_validation():
    with pytest.raises(ShapeMismatch):
        TikhonovConfig(np.array([1.0]))
    with pytest.raises(ShapeMismatch):
        TikhonovConfig(np.array([1.0, 0.5]))  # not increasing
    with pytest.raises(ShapeMismatch):
        TikhonovConfig(np.logspace(-8, 0, 4))  # too short for the L-curve
    with pytest.raises(ShapeMismatch):
        TikhonovConfig(np.logspace(-8, 0, 9), penalty="ridge")
    with pytest.raises(ShapeMismatch):
        FixedAlpha(-1.0)
    with pytest.raises(ShapeMismatch):
        DiscrepancyPrinciple(-2.0)


def test_lcurve_corner_synthetic():
    # two log-log power-law arms meeting at index 5
    alphas = np.logspace(-6, 2, 11)
    rho = np.where(np.arange(11) < 5, 1.0, np.logspace(0, 4, 11))
    eta = np.where(np.arange(11) < 5, np.logspace(6, 0, 11), 1.0)
    pts = np.column_stack([np.log(rho), np.log(eta)])
    assert abs(lcurve_corner(pts) - 5) <= 1
    # exactly collinear points have no corner (exact arithmetic on purpose;
    # a straight line polluted by fp noise is legitimately non-degenerate)
    with pytest.raises(DegenerateLCurve):
        lcurve_corner(np.column_stack([np.arange(10.0), -np.arange(10.0)]))


def test_fixed_alpha_snaps_to_grid(model, domain2, fields2):
    grid = TikhonovConfig.log_grid().alpha_grid
    cfg = TikhonovConfig(grid, selection=FixedAlpha(3e-5))
    rep = solve_cauchy_elliptic(model.M_b, domain2, fields2["f"],
                                config=cfg)
    assert rep.chosen_alpha in grid
    assert rep.chosen_alpha == grid[np.argmin(np.abs(np.log(grid)
                                                     - np.log(3e-5)))]


def test_discrepancy_principle(model, domain2, fields2):
    grid = TikhonovConfig.log_grid().alpha_grid
    loose = TikhonovConfig(grid, selection=DiscrepancyPrinciple(1e9))
    rep = solve_cauchy_elliptic(model.M_b, domain2, fields2["f"],
                                config=loose)
    assert rep.chosen_alpha == grid[-1]  # everything feasible: largest alpha

    tight = TikhonovConfig(grid, selection=DiscrepancyPrinciple(1e-300))
    rep = solve_cauchy_elliptic(model.M_b, domain2, fields2["f"],
                                config=tight)
    assert rep.diagnostics.get("discrepancy_unreachable") is True
    assert rep.chosen_alpha == grid[np.argmin(rep.diagnostics["residuals"])]


def test_zero_data_short_circuit(model, domain2):
    f = NodalField("torso", np.zeros(domain2.torso.n_vertices))
    rep = solve_cauchy_elliptic(model.M_b, domain2, f)
    assert rep.diagnostics.get("zero_data") is True
    assert np.all(rep.heart_dirichlet.values == 0.0)
    assert np.all(rep.heart_flux.values == 0.0)
    assert rep.residual_norm == 0.0


def test_torso_flux_enters_linearly(model, domain2, fields2):
    # at a fixed alpha the solve is linear in (f, q); a zero flux reads as
    # the insulated default
    cfg = TikhonovConfig(TikhonovConfig.log_grid().alpha_grid,
                         selection=FixedAlpha(1e-4))
    torso = domain2.torso
    q = NodalField("torso", np.cos(torso.vertices[:, 0]))
    zero = NodalField("torso", np.zeros(torso.n_vertices))

    def solve(f, flux):
        return solve_cauchy_elliptic(model.M_b, domain2, f, flux_on_torso=flux,
                                     config=cfg).heart_dirichlet.values

    insulated = solve(fields2["f"], None)
    assert np.array_equal(solve(fields2["f"], zero), insulated)
    both = solve(fields2["f"], q)
    assert np.abs(both - insulated).max() > 1e-3 * np.abs(both).max()
    assert np.allclose(both, insulated + solve(zero, q), rtol=0,
                       atol=1e-10 * np.abs(both).max())


@pytest.mark.parametrize("penalty", ["identity", "surface_gradient"])
def test_cauchy_recovers_oracle(model, domain2, fields2, penalty):
    cfg = TikhonovConfig.log_grid(penalty=penalty)
    rep = solve_cauchy_elliptic(model.M_b, domain2, fields2["f"],
                                config=cfg)
    true_trace = fields2["heart_trace_ub"].values
    true_flux = fields2["heart_flux"].values
    err_trace = (np.linalg.norm(rep.heart_dirichlet.values - true_trace)
                 / np.linalg.norm(true_trace))
    err_flux = (np.linalg.norm(rep.heart_flux.values - true_flux)
                / np.linalg.norm(true_flux))
    assert err_trace < 0.05
    # the flux carries one more derivative of the completion error
    assert err_flux < 0.20


def test_sweep_monotone_and_saved(tmp_path, model, domain2, fields2):
    rep = solve_cauchy_elliptic(model.M_b, domain2, fields2["f"])
    rho = rep.diagnostics["residuals"]
    eta = rep.diagnostics["seminorms"]
    assert np.all(np.diff(rho) >= 0)
    assert np.all(np.diff(eta) <= 0)
    assert len(rep.lcurve_points) == len(rho)

    path = tmp_path / "lc.csv"
    save_lcurve(rep, path)
    rows = np.loadtxt(path, delimiter=",", skiprows=1)
    # repr-exact floats read back bit for bit
    assert np.array_equal(
        rows, np.column_stack((rep.diagnostics["alpha_grid"], rho, eta)))


def _cauchy_system(M, domain, f):
    """The Cauchy matrix [A_h, -B_h] and the data vector for zero torso flux."""
    nh = domain.heart.n_vertices
    a_full, b_full = boundary_operators(M, domain)
    return np.hstack([a_full[:, :nh], -b_full[:, :nh]]), -(a_full[:, nh:] @ f)


@pytest.mark.parametrize("seed", range(6))
def test_identity_sweep_matches_per_alpha_loop(model, domain2, fields2, seed):
    # noisy level-2 data: alpha, x and rho bit for bit those of a loop that
    # forms every x(alpha) from the SVD, as the sweep once did
    f = fields2["f"].values
    rng = np.random.default_rng(seed)
    f = f + 0.01 * np.abs(f).max() * rng.standard_normal(len(f))
    a, b = _cauchy_system(model.M_b, domain2, f)
    u, s, vt = np.linalg.svd(a, full_matrices=False)
    beta = u.T @ b
    perp2 = float(b @ b - beta @ beta)
    grid = TikhonovConfig.log_grid().alpha_grid
    xs, rho, eta = [], [], []
    for alpha in grid:
        x = vt.T @ (s / (s * s + alpha) * beta)
        xs.append(x)
        r2 = (float(np.sum((alpha / (s * s + alpha)) ** 2 * beta ** 2))
              + max(perp2, 0.0))
        rho.append(np.sqrt(max(r2, 0.0)))
        eta.append(float(np.linalg.norm(x)))
    idx = lcurve_corner(np.column_stack([np.log(rho), np.log(eta)]))

    rep = solve_cauchy_elliptic(model.M_b, domain2, NodalField("torso", f))
    nh = domain2.heart.n_vertices
    assert rep.chosen_alpha == grid[idx]
    assert np.array_equal(rep.diagnostics["residuals"], rho)
    assert np.array_equal(rep.heart_dirichlet.values, xs[idx][:nh])
    assert np.array_equal(rep.heart_flux.values, -xs[idx][nh:])
    assert rep.diagnostics["seminorms"] == pytest.approx(eta, rel=1e-12)


def _two_sphere_heart():
    left = icosphere(1, 0.4, center=(-0.5, 0.0, 0.0))
    right = icosphere(1, 0.3, center=(0.5, 0.1, 0.0))
    return SurfaceMesh(np.vstack([left.vertices, right.vertices]),
                       np.vstack([left.triangles,
                                  right.triangles + left.n_vertices]),
                       surface_id="heart")


def test_component_labels_of_two_spheres():
    # one label per sphere, numbered in the order of their lowest vertex
    heart = _two_sphere_heart()
    n_left = icosphere(1, 0.4).n_vertices
    labels = _component_labels(_graph_laplacian(heart))
    assert np.array_equal(labels, np.repeat([0, 1], [n_left, heart.n_vertices - n_left]))
    # renumbered so that the spheres interleave, vertex 0 still on the left
    order = np.argsort(np.arange(heart.n_vertices) % 2, kind="stable")
    got = _component_labels(_graph_laplacian(heart)[np.ix_(order, order)])
    assert np.array_equal(got, order >= n_left)


@pytest.mark.parametrize("heart_kind", ["icosphere", "two_spheres"])
def test_surface_gradient_matches_normal_equations(model, heart_kind):
    # rho = |A x - b| and eta = |L x| at every alpha, with x from the normal
    # equations (A^T A + alpha L^T L) x = A^T b
    if heart_kind == "icosphere":
        heart = icosphere(2, 1.0, surface_id="heart")
    else:
        heart = _two_sphere_heart()
    torso = icosphere(2, 2.0, surface_id="torso")
    domain = DomainConfig(heart=heart, torso=torso)
    p = torso.vertices
    f = 3.0 * p[:, 0] - p[:, 1] + p[:, 0] * p[:, 2]  # harmonic for M = m_b I
    a, b = _cauchy_system(model.M_b, domain, f)
    lap = _graph_laplacian(heart)
    lmat = np.block([[lap, np.zeros_like(lap)], [np.zeros_like(lap), lap]])
    cfg = TikhonovConfig.log_grid(penalty="surface_gradient")
    rep = solve_cauchy_elliptic(model.M_b, domain, NodalField("torso", f),
                                config=cfg)
    for alpha, rho, eta in zip(cfg.alpha_grid, rep.diagnostics["residuals"],
                               rep.diagnostics["seminorms"]):
        x = np.linalg.solve(a.T @ a + alpha * lmat.T @ lmat, a.T @ b)
        assert rho == pytest.approx(np.linalg.norm(a @ x - b), rel=1e-8)
        assert eta == pytest.approx(np.linalg.norm(lmat @ x), rel=1e-8)


@pytest.mark.parametrize("penalty", ["identity", "surface_gradient"])
def test_warm_solve_makes_no_svd(model, penalty, monkeypatch):
    heart = icosphere(1, 1.0, surface_id="heart")
    torso = icosphere(1, 2.0, surface_id="torso")
    domain = DomainConfig(heart=heart, torso=torso)
    f = NodalField("torso", torso.vertices[:, 2])
    cfg = TikhonovConfig.log_grid(penalty=penalty)
    calls = []
    svd = np.linalg.svd

    def counted(*args, **kwargs):
        calls.append(1)
        return svd(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counted)
    cold = solve_cauchy_elliptic(model.M_b, domain, f, config=cfg)
    assert len(calls) == 1
    warm = solve_cauchy_elliptic(model.M_b, domain, f, config=cfg)
    assert len(calls) == 1
    assert np.array_equal(warm.heart_dirichlet.values, cold.heart_dirichlet.values)


@pytest.mark.xfail(strict=True, reason="open defect, ROADMAP item 1")
def test_lcurve_pick_on_three_term_data(model, domain3):
    # noise-free data with degrees 1-3 at level 3: the L-curve corner should
    # land near the error-optimal alpha, but the identity penalty's knee sits
    # where the flux block is regularised away (42.7 mV against 0.61 mV)
    geometry = Shell3D(1.0, 2.0)
    spec = HarmonicSpec(terms=(HarmonicTerm(1, 0, a=10.0), HarmonicTerm(2, 1, a=4.0),
                               HarmonicTerm(3, -2, a=2.0)), geometry=geometry)
    fields = synth_bidomain_steady(geometry, model, spec).fields_on(domain3.heart,
                                                                    domain3.torso)
    v_true = fields["v"].values
    config = TikhonovConfig.log_grid()
    picked = rmse(run_protocol_2(domain3, model, fields["f"], tikhonov=config).v.values,
                  v_true)
    best = min(rmse(run_protocol_2(domain3, model, fields["f"],
                                   tikhonov=TikhonovConfig(config.alpha_grid,
                                                           selection=FixedAlpha(a))
                                   ).v.values, v_true)
               for a in config.alpha_grid)
    assert picked <= 5.0 * best, f"L-curve pick {picked:.3g} mV, best {best:.3g} mV"
