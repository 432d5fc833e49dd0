"""Acceptance gate: the eleven package-level claims, one test each.

Every test prints exactly one verdict line of the form

    criterion NN [name]: PASS - detail

before asserting at the stated tolerance, so `pytest -rA` shows the whole
scoreboard.  Tolerances and problem sizes are part of the claims; do not
loosen them to make a failing build green.
"""

import sys
import time
import subprocess

import numpy as np
import pytest

from cardiobem import (
    CubicRadial,
    FixedAlpha,
    DiscrepancyPrinciple,
    HeatOperatorSpec,
    IncompatibleData,
    InteriorGrid,
    NodalField,
    SpaceTimeField,
    TikhonovConfig,
    TimeGrid,
    assemble_evolution_rhs,
    generate_nullspace_element,
    green_representation,
    heat_kernel,
    heat_kernel_mass,
    icosphere,
    parabolic_green_reconstruct,
    rmse,
    run_protocol_1,
    run_protocol_2,
    solve_cauchy_elliptic,
    solve_neumann_normalized,
    solve_zaremba,
)


def _verdict(num, name, ok, detail):
    print(f"criterion {num:02d} [{name}]: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {num:02d} [{name}]: {detail}"


@pytest.fixture(scope="module")
def noisy_torso_data(fields2):
    """Torso measurement with 1% Gaussian noise, frozen seed."""
    f = fields2["f"]
    rng = np.random.default_rng(7)
    scale = 0.01 * np.abs(f.values).max()
    return NodalField(f.surface_id, f.values + scale * rng.standard_normal(f.values.size))


def test_criterion_01_green_representation():
    t0 = time.monotonic()
    mesh = icosphere(4, 1.0, surface_id="sphere")  # 5120 faces
    assert mesh.triangles.shape[0] == 5120
    z = mesh.vertices[:, 2]
    dirichlet = NodalField("sphere", z)
    conormal = NodalField("sphere", z / np.linalg.norm(mesh.vertices, axis=1))
    inner = np.array([[0.0, 0.0, 0.5], [0.3, -0.2, 0.1], [0.0, 0.0, 0.0]])
    outer = np.array([[1.5, 0.0, 0.0], [0.0, 2.0, 1.0]])
    got_in = green_representation(1.0, mesh, dirichlet, conormal, inner)
    got_out = green_representation(1.0, mesh, dirichlet, conormal, outer)
    elapsed = time.monotonic() - t0

    rel = np.max(np.abs(got_in - inner[:, 2]) / np.maximum(np.abs(inner[:, 2]), 0.1))
    ext = np.max(np.abs(got_out))
    ok = rel <= 0.01 and ext <= 1e-2 and elapsed < 60.0
    _verdict(1, "green representation", ok,
             f"interior rel err {rel:.2e} (tol 1e-2), exterior sup {ext:.2e} "
             f"(tol 1e-2), {elapsed:.1f}s (limit 60s)")


def test_criterion_02_neumann_solver():
    mesh = icosphere(3, 1.0, surface_id="sphere")
    area = mesh.vertex_weights.sum()

    # constructed violating input: unit flux, total flux = surface area != 0
    bad = NodalField("sphere", np.ones(mesh.n_vertices), units="mV*mS/cm^2")
    with pytest.raises(IncompatibleData):
        solve_neumann_normalized(1.0, mesh, bad)
    rep_bad = solve_neumann_normalized(1.0, mesh, bad, project=True)
    defect_err = abs(rep_bad.compatibility_defect - area) / area

    # degree-1 flux z on the unit sphere: the trace of the Neumann solution
    # is z itself (eigenvalue 1 of the trace-from-flux map)
    g = NodalField("sphere", mesh.vertices[:, 2], units="mV*mS/cm^2")
    rep = solve_neumann_normalized(1.0, mesh, g)
    z = mesh.vertices[:, 2]
    trace = rep.solution_trace.values
    steklov = np.linalg.norm(trace - z) / np.linalg.norm(z)

    ok = (defect_err <= 1e-13 and steklov <= 0.02
          and abs(rep.normalization_value) <= 1e-8)
    _verdict(2, "neumann solver", ok,
             f"defect detection rel err {defect_err:.1e} on the constructed "
             f"violation, degree-1 trace err {steklov:.2%} (tol 2%), "
             f"normalization {abs(rep.normalization_value):.1e} (tol 1e-8)")


def test_criterion_03_zaremba_degree_one(model, heart3, domain3):
    # u = (A r + B r^-2) cos(theta) on the 1..2 shell with u(1) = d cos(theta)
    # and zero flux at r=2:  A = d/5, B = 4d/5
    d = 30.0
    z = heart3.vertices[:, 2]
    data = NodalField("heart", d * z)
    rep = solve_zaremba(model.M_b, domain3, data)
    flux = rep.flux_trace

    a_c, b_c = d / 5.0, 4.0 * d / 5.0
    oracle = model.m_b * (a_c - 2.0 * b_c) * z  # heart-outward conormal at r=1
    err = np.linalg.norm(flux.values - oracle) / np.linalg.norm(oracle)

    w = heart3.vertex_weights
    conservation = abs(w @ flux.values) / (w @ np.abs(flux.values))

    ok = err <= 0.03 and conservation <= 1e-3
    _verdict(3, "zaremba protocol step", ok,
             f"heart flux err {err:.2%} vs radial oracle (tol 3%), "
             f"flux conservation {conservation:.1e} (tol 1e-3 relative)")


def test_criterion_04_nullspace_certification(model, heart2, domain2):
    grid = InteriorGrid.for_mesh(heart2, h=0.1)
    amp = 25.0
    worst_torso, worst_ident, worst_c = 0.0, 0.0, 0.0
    for center, radius in [((0.0, 0.0, 0.0), 0.3),
                           ((0.2, 0.0, 0.0), 0.45),
                           ((-0.1, 0.15, 0.0), 0.6)]:
        bump = CubicRadial(center=center, radius=radius, amplitude=amp)
        elem = generate_nullspace_element(heart2, grid, model, bump)
        rep = solve_zaremba(model.M_b, domain2, elem.u_e_trace)
        worst_torso = max(worst_torso,
                          np.abs(rep.solution_trace_outer.values).max())
        ident = np.abs(elem.u_i_trace.values + model.lam * elem.u_e_trace.values
                       - elem.diagnostics["c"]).max()
        ident_vol = np.abs(elem.u_i_interior + model.lam * elem.u_interior
                           - elem.diagnostics["c"]).max()
        worst_ident = max(worst_ident, ident, ident_vol)
        worst_c = max(worst_c, abs(elem.diagnostics["c"]))

    ok = (worst_torso <= 1e-3 * amp and worst_ident <= 1e-12
          and worst_c <= 1e-10)
    _verdict(4, "null-space certification", ok,
             f"3 bumps: torso signal sup {worst_torso:.1e} "
             f"(tol {1e-3 * amp:.1e}), proportional identity "
             f"{worst_ident:.1e} (tol 1e-12), |c| {worst_c:.1e} (tol 1e-10)")


def test_criterion_05_protocol1_round_trip(domain3, model, fields3):
    assert domain3.heart.n_vertices <= 2562 and domain3.torso.n_vertices <= 2562
    t0 = time.monotonic()
    out = run_protocol_1(domain3, model, fields3["u_e"])
    elapsed = time.monotonic() - t0
    v_true = fields3["v"].values
    err = rmse(out.v.values, v_true) / np.ptp(v_true)
    ok = err <= 0.05 and elapsed < 120.0
    _verdict(5, "protocol-1 round trip", ok,
             f"rmse {err:.2%} of v range (tol 5%), {elapsed:.1f}s "
             f"(limit 120s) at {domain3.heart.n_vertices} nodes per surface")


def test_criterion_06_protocol2_round_trip(domain2, model, fields2,
                                           noisy_torso_data):
    v_true = fields2["v"].values
    vrange = np.ptp(v_true)
    config = TikhonovConfig.log_grid()

    clean = run_protocol_2(domain2, model, fields2["f"], tikhonov=config)
    err_clean = rmse(clean.v.values, v_true) / vrange

    noisy = run_protocol_2(domain2, model, noisy_torso_data, tikhonov=config)
    err_noisy = rmse(noisy.v.values, v_true) / vrange

    # error-optimal alpha on the same frozen noisy data, exhaustive sweep
    grid = config.alpha_grid
    errs = []
    for alpha in grid:
        fixed = TikhonovConfig(grid, selection=FixedAlpha(alpha))
        out = run_protocol_2(domain2, model, noisy_torso_data, tikhonov=fixed)
        errs.append(rmse(out.v.values, v_true))
    i_opt = int(np.argmin(errs))
    i_chosen = int(np.argmin(np.abs(grid - noisy.diagnostics["chosen_alpha"])))
    step = abs(i_chosen - i_opt)

    ok = err_clean <= 0.10 and err_noisy <= 0.20 and step <= 1
    _verdict(6, "protocol-2 round trip", ok,
             f"noise-free rmse {err_clean:.2%} (tol 10%), 1% noise + L-curve "
             f"rmse {err_noisy:.2%} (tol 20%), chosen alpha {step} grid steps "
             f"from error-optimal (tol 1)")


def test_criterion_07_tikhonov_monotonicity(domain2, model, fields2,
                                            noisy_torso_data):
    grid = TikhonovConfig.log_grid().alpha_grid
    configs = [
        TikhonovConfig(grid),
        TikhonovConfig(grid, selection=FixedAlpha(1e-4)),
        TikhonovConfig(grid, selection=DiscrepancyPrinciple(1.0)),
    ]
    data = [fields2["f"], noisy_torso_data]
    worst_rho, worst_eta, n_solves = 0.0, 0.0, 0
    for f in data:
        for config in configs:
            rep = solve_cauchy_elliptic(model.M_b, domain2, f, config=config)
            rho = rep.diagnostics["residuals"]
            eta = rep.diagnostics["seminorms"]
            assert len(rho) == len(grid), "sweep must cover the full grid"
            # alpha ascending: residual must rise, seminorm must fall
            worst_rho = max(worst_rho, float(-np.diff(rho).min()))
            worst_eta = max(worst_eta, float(np.diff(eta).max()))
            n_solves += 1

    ok = worst_rho <= 0.0 and worst_eta <= 0.0
    _verdict(7, "tikhonov monotonicity", ok,
             f"{n_solves} solves x {len(grid)} alphas: worst residual "
             f"decrease {worst_rho:.1e}, worst seminorm increase "
             f"{worst_eta:.1e} (both must be <= 0)")


def test_criterion_08_parabolic_green_identity():
    # caloric u = |x|^2 + 6t on the unit ball: u(0, 0.5) = 3
    spec = HeatOperatorSpec(M=1.0, scale=1.0, dim=3)

    def reconstruct(level, steps, h, x, t):
        mesh = icosphere(level, 1.0, surface_id="ball")
        grid = InteriorGrid.for_mesh(mesh, h=h)
        tg = TimeGrid(t_end=t, steps=steps)
        trace = SpaceTimeField("ball", np.add.outer(
            np.sum(mesh.vertices ** 2, axis=1), 6.0 * tg.times), tg)
        flux = SpaceTimeField("ball", np.repeat(
            2.0 * np.linalg.norm(mesh.vertices, axis=1)[:, None], steps, 1), tg)
        u0 = np.sum(grid.centers() ** 2, axis=1)
        return parabolic_green_reconstruct(spec, mesh, grid, trace, flux,
                                           u0, None, np.asarray(x), t)

    val = reconstruct(2, 24, 0.14, [0.0, 0.0, 0.0], 0.5)
    err_coarse = abs(val - 3.0) / 3.0
    ext = reconstruct(2, 24, 0.14, [1.5, 0.0, 0.0], 0.5)
    val_fine = reconstruct(3, 48, 0.10, [0.0, 0.0, 0.0], 0.5)
    err_fine = abs(val_fine - 3.0) / 3.0

    ok = err_coarse <= 0.02 and abs(ext) <= 0.02 * 3.0 and err_fine < err_coarse
    _verdict(8, "parabolic green identity", ok,
             f"interior {val:.4f} vs 3.0 ({err_coarse:.2%}, tol 2%), exterior "
             f"{ext:.1e} (tol 2% of 3.0), refinement {err_coarse:.2%} -> "
             f"{err_fine:.2%} (must decrease)")


def test_criterion_09_heat_kernel_properties():
    spec = HeatOperatorSpec(M=1.0, scale=1.0, dim=3)
    pts = np.array([[0.3, 0.1, 0.0], [0.0, 0.0, 0.0], [-1.0, 2.0, 0.5]])
    causal = max(np.abs(heat_kernel(spec, pts, 0.0)).max(),
                 np.abs(heat_kernel(spec, pts, -0.3)).max())
    mass_err = abs(heat_kernel_mass(spec, 0.1) - 1.0)

    dx, dt = 1e-3, 2e-4
    x = np.array([0.3, -0.2, 0.1])
    t = 0.25
    ut = (heat_kernel(spec, x, t + dt) - heat_kernel(spec, x, t - dt)) / (2 * dt)
    lap = 0.0
    for i in range(3):
        e = np.zeros(3)
        e[i] = dx
        lap += (heat_kernel(spec, x + e, t) - 2 * heat_kernel(spec, x, t)
                + heat_kernel(spec, x - e, t)) / dx ** 2
    pde = abs(float(ut - lap))

    ok = causal == 0.0 and mass_err <= 1e-6 and pde < 1e-5
    _verdict(9, "heat kernel properties", ok,
             f"t<=tau sup {causal} (must be exactly 0), mass err "
             f"{mass_err:.1e} (tol 1e-6), FD pde residual {pde:.1e} (tol 1e-5)")


def test_criterion_10_evolution_rhs(model, heart2):
    tg = TimeGrid(t_end=1.0, steps=9)
    n = heart2.n_vertices
    rng = np.random.default_rng(11)

    def mk(seeded):
        h = SpaceTimeField("heart", seeded.normal(size=(n, tg.steps)), tg,
                           units="uA/cm^2")
        g = SpaceTimeField("heart", seeded.normal(size=(n, tg.steps)), tg,
                           units="mV*mS/cm^2")
        c = seeded.normal(size=tg.steps)
        return h, g, c

    h1, g1, c1 = mk(rng)
    h2, g2, c2 = mk(rng)
    f1 = assemble_evolution_rhs(model, heart2, h1, g1, c1)
    f2 = assemble_evolution_rhs(model, heart2, h2, g2, c2)
    h12 = SpaceTimeField("heart", h1.values + h2.values, tg, units="uA/cm^2")
    g12 = SpaceTimeField("heart", g1.values + g2.values, tg,
                         units="mV*mS/cm^2")
    f12 = assemble_evolution_rhs(model, heart2, h12, g12, c1 + c2)
    lin = (np.abs(f12.values - f1.values - f2.values).max()
           / np.abs(f12.values).max())

    zero_g = SpaceTimeField("heart", np.zeros((n, tg.steps)), tg,
                            units="mV*mS/cm^2")
    f0 = assemble_evolution_rhs(model, heart2, h1, zero_g, np.zeros(tg.steps))
    exact_zero = np.array_equal(f0.values, h1.values)

    ok = lin <= 1e-12 and exact_zero
    _verdict(10, "evolution rhs assembly", ok,
             f"superposition defect {lin:.1e} (tol 1e-12), zero-data "
             f"corrections exactly zero: {exact_zero}")


def test_criterion_11_cli_determinism(tmp_path):
    def run(*args):
        proc = subprocess.run([sys.executable, "-m", "cardiobem", *args],
                              capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        return proc

    synth = tmp_path / "synth"
    run("synth", "--level", "1", "--r1", "1", "--r2", "2",
        "--l", "1", "--m", "0", "--amp", "30", "--out", str(synth))
    first = tmp_path / "first"
    run("reconstruct-p2", "--heart", str(synth / "heart.off"),
        "--torso", str(synth / "torso.off"), "--f", str(synth / "f.csv"),
        "--noise", "0.01", "--seed", "7", "--out", str(first))
    again = tmp_path / "again"
    run("rerun", str(first / "run_manifest.json"), "--out", str(again))

    names1 = sorted(p.name for p in first.iterdir())
    names2 = sorted(p.name for p in again.iterdir())
    assert names1 == names2
    differing = [n for n in names1
                 if (first / n).read_bytes() != (again / n).read_bytes()]
    ok = not differing
    _verdict(11, "cli determinism", ok,
             f"rerun from manifest: {len(names1)} files byte-identical"
             if ok else f"rerun differs in {differing}")
