"""Transmembrane potential reconstruction: protocols, calibration, null space."""

import json

import numpy as np
import pytest

import cardiobem.cauchy
import cardiobem.direct
from cardiobem import (
    ConductivityModel,
    CubicRadial,
    DiscrepancyPrinciple,
    DomainConfig,
    HarmonicSpec,
    HarmonicTerm,
    InteriorGrid,
    MissingInteriorData,
    NodalField,
    ShapeMismatch,
    Sphere3D,
    SupportTouchesBoundary,
    TikhonovConfig,
    eval_harmonic,
    generate_nullspace_element,
    icosphere,
    load_mesh,
    reconstruct_ui_general,
    rmse,
    run_protocol_1,
    run_protocol_2,
    solve_cauchy_elliptic,
    solve_neumann_normalized,
    solve_zaremba,
    write_reconstruction,
)
from cardiobem.reconstruct import _calibration, _proportional_tail


def test_calibration_constant(heart2):
    vals = heart2.vertices[:, 2] + 2.0
    w = heart2.vertex_weights
    c, mean = _calibration(heart2, vals, 1.5)
    assert mean == pytest.approx((w @ vals) / w.sum())
    assert c == pytest.approx(-1.5 * (w @ vals) / w.sum())


def test_proportional_calibration_invariant(domain2, model, heart2, fields2):
    out = run_protocol_1(domain2, model, fields2["u_e"])
    w = heart2.vertex_weights
    total = w @ (out.u_i.values + out.u_e.values)
    scale = w.sum() * np.abs(fields2["u_e"].values).max()
    assert abs(total) < 1e-12 * scale
    assert np.isfinite(out.c)


def test_general_matches_proportional(model, heart2):
    # For a source-free extracellular field (zero anisotropic Laplacian in
    # the whole tissue ball) the intracellular trace is constant: the
    # interior-data path sees a vanishing volume source, and the lambda
    # shortcut cancels -lam*(u_e - mean) against the harmonic completion of
    # the conormal flux.  Both must return the calibration constant, so the
    # two reconstructions agree at the lam*|u_e| scale.  A degree-2 solid
    # harmonic is a quadratic, which the interior stencil differentiates
    # exactly; the shortcut carries the collocation residue instead.
    spec = HarmonicSpec(terms=(HarmonicTerm(2, 1, a=10.0),),
                        geometry=Sphere3D(2.0))
    vals, grads = eval_harmonic(spec, heart2.vertices)
    ue = NodalField(heart2.surface_id, vals)
    # unit sphere: outward normal is the position vector
    flux = np.einsum("ij,jk,ik->i", heart2.vertices, model.M_e, grads)
    psi = NodalField(heart2.surface_id, flux, units="uA/cm^2")
    scale = model.lam * np.abs(vals).max()

    ui_p, c_p, _ = _proportional_tail(heart2, model, ue.values, psi.values, 1.0)
    grid = InteriorGrid.for_mesh(heart2, h=0.08)
    interior_vals, _ = eval_harmonic(spec, grid.centers())
    ui_g, c_g, _ = reconstruct_ui_general(
        ue, model.M_i, model.M_e, 1.0, heart2, (grid, interior_vals))

    assert c_g == c_p  # same quadrature formula on both paths
    assert np.abs(ui_g.values - c_g).max() < 1e-12 * scale
    assert np.abs(ui_p - c_p).max() < 3e-2 * scale
    assert np.abs(ui_g.values - ui_p).max() < 3e-2 * scale


def test_general_tracks_oracle(model, heart2, shell_oracle, fields2):
    # End-to-end wiring check on physically consistent data.  The oracle's
    # extracellular field has a conormal kink at the epicardium, which the
    # cut-cell stencils resolve only at first order, so the tolerance here
    # is the resolution limit of h=0.1, not the method accuracy (the
    # compactly supported nullspace comparison above probes that at 0.1%).
    grid = InteriorGrid.for_mesh(heart2, h=0.1)
    interior_vals = shell_oracle.u_e(grid.centers())
    ui_g, _, _ = reconstruct_ui_general(
        fields2["u_e"], model.M_i, model.M_e, 1.0, heart2,
        (grid, interior_vals))
    span = np.ptp(fields2["u_i"].values)
    assert np.abs(ui_g.values - fields2["u_i"].values).max() / span < 0.15


def test_general_nullspace_matches_proportional(model, heart2):
    grid = InteriorGrid.for_mesh(heart2, h=0.1)
    bump = CubicRadial(center=(0.1, 0.0, -0.1), radius=0.5, amplitude=2.0)
    prop = generate_nullspace_element(heart2, grid, model, bump,
                                      proportional=True)
    gen = generate_nullspace_element(heart2, grid, model, bump,
                                     proportional=False)
    dv = np.abs(gen.u_i_trace.values - prop.u_i_trace.values).max()
    assert dv / (model.lam * bump.amplitude) < 5e-3


def test_general_requires_interior(model, heart2, fields2):
    with pytest.raises(MissingInteriorData):
        reconstruct_ui_general(fields2["u_e"], model.M_i, model.M_e, 1.0,
                               heart2, None)


def test_protocol_1(domain2, model, fields2):
    out = run_protocol_1(domain2, model, fields2["u_e"])
    v_true = fields2["v"].values
    assert rmse(out.v.values, v_true) / np.ptp(v_true) < 0.01
    assert np.array_equal(out.v.values, out.u_i.values - out.u_e.values)
    for key in ("zaremba_residual", "flux_defect"):
        assert key in out.diagnostics
    # c is held once, beside the fields, and u_e is the measured field
    assert "c" not in out.diagnostics and np.isfinite(out.c)
    assert out.u_e is fields2["u_e"]
    # |w . flux| is reported once, by the Neumann step
    assert "flux_conservation" not in out.diagnostics


def test_protocol_2(domain2, model, fields2):
    out = run_protocol_2(domain2, model, fields2["f"])
    v_true = fields2["v"].values
    assert rmse(out.v.values, v_true) / np.ptp(v_true) < 0.05
    assert out.diagnostics["chosen_alpha"] > 0


def test_protocol_2_forwards_every_cauchy_flag(tmp_path, model):
    # a fallback or a zero-data short cut in the Cauchy solve is flagged in
    # the protocol's diagnostics and in the written manifest, never dropped
    heart = icosphere(1, 1.0, surface_id="heart")
    torso = icosphere(1, 2.0, surface_id="torso")
    domain = DomainConfig(heart=heart, torso=torso)
    grid = TikhonovConfig.log_grid().alpha_grid
    tight = TikhonovConfig(grid, selection=DiscrepancyPrinciple(1e-30))
    cases = [
        ("discrepancy_unreachable",
         NodalField("torso", torso.vertices[:, 2].copy()), tight),
        ("zero_data", NodalField("torso", np.zeros(torso.n_vertices)), None),
    ]
    for flag, f, config in cases:
        out = run_protocol_2(domain, model, f, config)
        assert out.diagnostics[flag] is True
        manifest = write_reconstruction(out, tmp_path / flag, heart)
        assert manifest["flags"] == {flag: True}


def _chain(domain, model, u_e, flux, diagnostics):
    """The public solver chain the protocols' tail must match, written out:
    the projected normalized Neumann solve on ``flux``, the proportional
    formula with c0 = 1, then v; returns (v, u_i, c, diagnostics)."""
    w = domain.heart.vertex_weights
    ue = u_e.values
    rep = solve_neumann_normalized(model.M_i, domain.heart, flux, project=True)
    mean = (w @ ue) / w.sum()
    c = -mean
    ui = -model.lam * (ue - mean) + rep.solution_trace.values + c
    diag = {"neumann_residual": rep.residual_norm,
            "flux_defect": rep.compatibility_defect,
            "normalization": rep.normalization_value}
    diag.update(diagnostics)
    return ui - ue, ui, c, diag


def _projections(caplog):
    return sum("projected" in r.getMessage() for r in caplog.records)


@pytest.mark.parametrize("level, tol", [(1, None), (2, None), (2, 0.0)])
def test_kept_heart_map_matches_the_solver_chain(level, tol, model, shell_oracle,
                                                 monkeypatch, caplog):
    # both protocols end in the Neumann step on kept operators; they give
    # what the Zaremba or Cauchy solve followed by the public Neumann solve
    # and the proportional formula give.  With the compatibility tolerance
    # at 0 the Neumann step projects every flux, on both sides.
    # normalization (w . u0) and flux_defect (|w . psi|) are rounding-level
    # numbers, compared against the scales they are tested against: max |u0|
    # and area x max |psi|
    if tol is not None:
        monkeypatch.setattr(cardiobem.direct, "_COMPATIBILITY_TOL", tol)
    caplog.set_level("INFO", logger="cardiobem.direct")
    heart = icosphere(level, 1.0, surface_id="heart")
    torso = icosphere(level, 2.0, surface_id="torso")
    domain = DomainConfig(heart=heart, torso=torso)
    fields = shell_oracle.fields_on(heart, torso)
    f = fields["f"].values
    rng = np.random.default_rng(level)
    noisy = NodalField("torso", f + 0.01 * np.abs(f).max() * rng.normal(size=f.size))
    config = TikhonovConfig.log_grid()

    zrep = solve_zaremba(model.M_b, domain, fields["u_e"])
    cauchy = solve_cauchy_elliptic(model.M_b, domain, noisy, config)
    pairs = [(fields["u_e"], zrep.flux_trace,
              {"zaremba_residual": zrep.residual_norm}),
             (cauchy.heart_dirichlet, cauchy.heart_flux,
              {"chosen_alpha": cauchy.chosen_alpha,
               "cauchy_residual": cauchy.residual_norm})]
    chains = [_chain(domain, model, *pair) for pair in pairs]
    projected = _projections(caplog)
    caplog.clear()
    outs = [run_protocol_1(domain, model, fields["u_e"]),
            run_protocol_2(domain, model, noisy, config)]
    assert _projections(caplog) == projected == (0 if tol is None else 2)

    for out, (v, ui, c, diag), (_, flux, _) in zip(outs, chains, pairs):
        for got, want in ((out.v.values, v), (out.u_i.values, ui)):
            assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()
        assert out.c == pytest.approx(c, rel=1e-13, abs=0.0)
        assert list(out.diagnostics) == list(diag)
        u0 = solve_neumann_normalized(model.M_i, heart, flux, project=True)
        for key, want in diag.items():
            got = out.diagnostics[key]
            if key == "normalization":
                scale = np.abs(u0.solution_trace.values).max()
            elif key == "flux_defect":
                scale = heart.vertex_weights.sum() * np.abs(flux.values).max()
            else:
                assert got == pytest.approx(want, rel=1e-13, abs=0.0), key
                continue
            assert abs(got - want) <= 1e-13 * scale, key


def test_protocols_refuse_a_non_proportional_model_before_building(monkeypatch):
    # the proportional tail needs lambda; both protocols say so before they
    # build the Zaremba transfer or the reduced Cauchy form
    skew = ConductivityModel(M_i=np.diag([1.0, 2.0, 3.0]),
                             M_e=np.diag([2.0, 4.0, 7.0]))
    heart = icosphere(1, 1.0, surface_id="heart")
    torso = icosphere(1, 2.0, surface_id="torso")
    domain = DomainConfig(heart=heart, torso=torso)

    def refused(*args, **kwargs):
        raise AssertionError("built an operator for a model it refuses")

    monkeypatch.setattr(cardiobem.direct, "boundary_operators", refused)
    with pytest.raises(ShapeMismatch, match="lambda"):
        run_protocol_1(domain, skew, NodalField("heart", heart.vertices[:, 2].copy()))
    with pytest.raises(ShapeMismatch, match="lambda"):
        run_protocol_2(domain, skew, NodalField("torso", torso.vertices[:, 2].copy()))


def test_warm_frames_build_nothing(domain2, model, fields2, monkeypatch):
    # after one cold frame a warm frame of either protocol runs on kept
    # operators alone: it assembles no layer, forms no solution operator
    # and no graph Laplacian, and p1 builds only the u_i and v fields (p2
    # also builds the recovered u_e), so no solver report is made
    config = TikhonovConfig.log_grid()
    run_protocol_1(domain2, model, fields2["u_e"])
    run_protocol_2(domain2, model, fields2["f"], config)

    def refused(*args, **kwargs):
        raise AssertionError("a warm frame built an operator")

    for module, name in ((cardiobem.direct, "boundary_operators"),
                         (cardiobem.direct, "_solution_operator"),
                         (cardiobem.cauchy, "_graph_laplacian")):
        monkeypatch.setattr(module, name, refused)
    built = []
    post_init = NodalField.__post_init__

    def counted(self):
        built.append(self)
        post_init(self)

    monkeypatch.setattr(NodalField, "__post_init__", counted)
    out = run_protocol_1(domain2, model, fields2["u_e"])
    assert built == [out.u_i, out.v]  # NodalField compares by identity
    built.clear()
    out = run_protocol_2(domain2, model, fields2["f"], config)
    assert built == [out.u_e, out.u_i, out.v]


def test_cubic_bump():
    bump = CubicRadial(center=(0.1, 0.0, -0.2), radius=0.5, amplitude=4.0)
    x0 = np.array([[0.1, 0.0, -0.2]])
    assert bump(x0)[0] == pytest.approx(4.0)
    edge = np.array([[0.6, 0.0, -0.2]])
    assert bump(edge)[0] == 0.0
    assert bump(np.array([[2.0, 2.0, 2.0]]))[0] == 0.0
    # gradient by central differences inside the support
    p = np.array([[0.3, 0.1, -0.1]])
    g = bump.gradient(p)[0]
    h = 1e-6
    for i in range(3):
        e = np.zeros(3)
        e[i] = h
        fd = (bump(p + e)[0] - bump(p - e)[0]) / (2 * h)
        assert g[i] == pytest.approx(fd, rel=1e-5, abs=1e-7)


def test_nullspace_element(model, heart2):
    grid = InteriorGrid.for_mesh(heart2, h=0.1)
    bump = CubicRadial(center=(0.0, 0.2, 0.0), radius=0.4, amplitude=10.0)
    elem = generate_nullspace_element(heart2, grid, model, bump)
    assert np.all(elem.u_e_trace.values == 0.0)
    assert elem.grad_trace_norm == 0.0
    assert elem.proportional is True
    # interior triple satisfies u_i = -lambda u_e + c exactly
    dev = np.abs(elem.u_i_interior + model.lam * elem.u_interior
                 - elem.diagnostics["c"]).max()
    assert dev == 0.0
    assert elem.diagnostics["support_gap"] > 0


def test_nullspace_support_guards(model, heart2):
    grid = InteriorGrid.for_mesh(heart2, h=0.1)
    with pytest.raises(SupportTouchesBoundary):
        generate_nullspace_element(
            heart2, grid, model,
            CubicRadial(center=(2.0, 0.0, 0.0), radius=0.3, amplitude=1.0))
    with pytest.raises(SupportTouchesBoundary):
        generate_nullspace_element(
            heart2, grid, model,
            CubicRadial(center=(0.5, 0.0, 0.0), radius=0.8, amplitude=1.0))


def test_write_reconstruction(tmp_path, domain2, model, fields2):
    out = run_protocol_1(domain2, model, fields2["u_e"])
    write_reconstruction(out, tmp_path, domain2.heart, vtk=True)
    for name in ("u_e.csv", "u_i.csv", "v.csv", "reconstruction.json"):
        assert (tmp_path / name).exists()
    meta = json.loads((tmp_path / "reconstruction.json").read_text())
    assert "c" in meta
    # the VTK holds the fields after the mesh; the reader stops at them
    back = load_mesh(tmp_path / "reconstruction.vtk", surface_id="heart")
    assert np.array_equal(back.vertices, domain2.heart.vertices)
    assert np.array_equal(back.triangles, domain2.heart.triangles)


def _reference_write(out, directory, heart):
    """``write_reconstruction`` without VTK, spelled with plain expressions."""
    for name in ("u_e", "u_i", "v"):
        f = getattr(out, name)
        rows = [f"{i},{repr(float(v))}" for i, v in enumerate(f.values)]
        (directory / f"{name}.csv").write_text(
            "\n".join(["node_index,value"] + rows) + "\n")
        manifest = {"surface_id": f.surface_id, "units": f.units,
                    "length": len(f.values)}
        (directory / f"{name}.csv.json").write_text(
            json.dumps(manifest, indent=1) + "\n")
    diag = out.diagnostics
    manifest = {
        "c": out.c,
        "diagnostics": {k: (float(v) if np.isscalar(v) or isinstance(v, (int, float))
                            else [float(x) for x in np.atleast_1d(v)])
                        for k, v in diag.items() if not isinstance(v, (str, bool))},
        "flags": {k: v for k, v in diag.items() if isinstance(v, (str, bool))},
        "files": {name: f"{name}.csv" for name in ("u_e", "u_i", "v")},
        "surface": heart.surface_id,
    }
    (directory / "reconstruction.json").write_text(
        json.dumps(manifest, indent=1, sort_keys=True) + "\n")


def test_write_reconstruction_bytes(tmp_path, model, shell_oracle):
    heart = icosphere(1, 1.0, surface_id="heart")
    torso = icosphere(1, 2.0, surface_id="torso")
    domain = DomainConfig(heart=heart, torso=torso)
    fields = shell_oracle.fields_on(heart, torso)
    # protocol 2 rewrites protocol 1's files in place, longer or shorter;
    # the directory is given as a Path and as a str
    written, as_str = tmp_path / "written", tmp_path / "as_str"
    reference = tmp_path / "reference"
    reference.mkdir()
    for out in (run_protocol_1(domain, model, fields["u_e"]),
                run_protocol_2(domain, model, fields["f"])):
        assert write_reconstruction(out, written, heart) == \
            write_reconstruction(out, str(as_str), heart)
        _reference_write(out, reference, heart)
        names = sorted(p.name for p in reference.iterdir())
        assert len(names) == 7
        for directory in (written, as_str):
            assert sorted(p.name for p in directory.iterdir()) == names
            for name in names:
                assert (directory / name).read_bytes() == \
                    (reference / name).read_bytes(), name


def test_write_reconstruction_directory(tmp_path, domain2, model, fields2):
    out = run_protocol_1(domain2, model, fields2["u_e"])
    nested = tmp_path / "a" / "b"
    write_reconstruction(out, nested, domain2.heart)
    assert (nested / "v.csv").is_file()
    a_file = tmp_path / "file"
    a_file.write_text("")
    with pytest.raises(FileExistsError):
        write_reconstruction(out, a_file, domain2.heart)
