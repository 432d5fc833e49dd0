"""Direct boundary value solvers: Dirichlet, normalized Neumann, Zaremba."""

import gc
import os
import subprocess
import sys
import threading
import tracemalloc
import weakref
from pathlib import Path

import numpy as np
import pytest

import cardiobem

from cardiobem import (
    DomainConfig,
    IncompatibleData,
    InteriorGrid,
    ShapeMismatch,
    SolveFailure,
    NodalField,
    green_representation,
    icosphere,
    solve_cauchy_elliptic,
    solve_dirichlet,
    solve_neumann_normalized,
    solve_zaremba,
)
from cardiobem.kernels import as_tensor
from cardiobem.direct import (_solution_operator, _solve_neumann_block,
                              _zaremba_transfer, boundary_operators)


@pytest.fixture(scope="module")
def sphere():
    return icosphere(2, 1.0, surface_id="s")


def test_dirichlet_single_surface(sphere):
    # the solve returns the boundary pair; interior values are the Green
    # representation of it
    z = sphere.vertices[:, 2]
    targets = np.array([[0.0, 0.0, 0.4], [0.3, -0.1, 0.2]])
    rep = solve_dirichlet(1.0, sphere, NodalField("s", z))
    values = green_representation(1.0, sphere, rep.solution_trace,
                                  rep.flux_trace, targets)
    assert values == pytest.approx(targets[:, 2], rel=2e-2)
    # recovered conormal of u = z on the unit sphere is z again
    assert (np.linalg.norm(rep.flux_trace.values - z)
            / np.linalg.norm(z)) < 0.05
    assert rep.residual_norm < 1e-10


def test_neumann_degree_one(sphere):
    z = sphere.vertices[:, 2]
    rep = solve_neumann_normalized(1.0, sphere,
                                   NodalField("s", z, units="mV*mS/cm^2"))
    trace = rep.solution_trace.values
    assert np.linalg.norm(trace - z) / np.linalg.norm(z) < 0.02
    assert abs(rep.normalization_value) < 1e-8
    assert rep.compatibility_defect < 1e-12


def test_neumann_compatibility(sphere):
    n = sphere.n_vertices
    bad = NodalField("s", np.ones(n), units="mV*mS/cm^2")
    with pytest.raises(IncompatibleData):
        solve_neumann_normalized(1.0, sphere, bad)

    # projection removes exactly the constant offset: same solution as z
    z = sphere.vertices[:, 2]
    shifted = NodalField("s", z + 3.0, units="mV*mS/cm^2")
    rep = solve_neumann_normalized(1.0, sphere, shifted, project=True)
    ref = solve_neumann_normalized(1.0, sphere,
                                   NodalField("s", z, units="mV*mS/cm^2"))
    assert rep.solution_trace.values == pytest.approx(
        ref.solution_trace.values, abs=1e-10)
    area = sphere.vertex_weights.sum()
    assert rep.compatibility_defect == pytest.approx(3.0 * area, rel=1e-12)


def test_wrong_data_type_names_the_nodal_field(sphere, domain2):
    # a pair of fields on a closed surface, or bare values, are not the
    # NodalField the solvers take; and no protocol poses the Dirichlet
    # problem in the shell, so a heart-torso domain is refused by name
    field = NodalField("s", sphere.vertices[:, 2].copy())
    with pytest.raises(ShapeMismatch, match="expected a NodalField on 's', got tuple"):
        solve_dirichlet(1.0, sphere, (field, field))
    with pytest.raises(ShapeMismatch, match="expected a NodalField on 's', got ndarray"):
        solve_neumann_normalized(1.0, sphere, field.values.copy())
    with pytest.raises(ShapeMismatch, match="one closed mesh"):
        solve_dirichlet(1.0, domain2, (field, field))


def test_neumann_block_matches_column_solves(sphere, caplog):
    # compatible columns (zero-mean harmonics, zero) and incompatible ones
    # (constant shifts) in one block: each column is the one-column solve
    x, y, z = sphere.vertices.T
    block = np.column_stack([z, x * y + 2.0, np.zeros_like(z), y - 0.5,
                             x * z, np.ones_like(z)])
    tensor = np.diag([1.0, 2.0, 0.5])
    with caplog.at_level("INFO", logger="cardiobem.direct"):
        u0, u1, defect, residual, normalization = _solve_neumann_block(
            tensor, sphere, block, project=True)
    # the incompatible columns are shifted, and one line says so
    shifted = [r for r in caplog.records if "projected" in r.getMessage()]
    assert len(shifted) == 1 and "3 of 6" in shifted[0].getMessage()
    for j in range(block.shape[1]):
        rep = solve_neumann_normalized(
            tensor, sphere, NodalField("s", block[:, j], units="mV*mS/cm^2"),
            project=True)
        want = rep.solution_trace.values
        assert np.abs(u0[:, j] - want).max() <= 1e-13 * max(np.abs(want).max(), 1.0)
        assert np.abs(u1[:, j] - rep.flux_trace.values).max() <= 1e-13
        assert abs(defect[j]) == pytest.approx(rep.compatibility_defect,
                                               rel=1e-12, abs=1e-13)
        assert residual[j] < 1e-12
        assert abs(normalization[j]) < 1e-12
    assert np.array_equal(u0[:, 2], np.zeros(sphere.n_vertices))
    with pytest.raises(IncompatibleData):
        _solve_neumann_block(tensor, sphere, block)
    _solve_neumann_block(tensor, sphere, block[:, [0, 2, 4]])  # compatible


def test_neumann_volume_source(sphere):
    # u = |x|^2: -div(grad u) = -6, conormal 2 on the unit sphere; the
    # compatibility integral closes and the normalized trace is constant 0
    grid = InteriorGrid.for_mesh(sphere, h=0.1)
    g = np.full(grid.n_cells, -6.0)
    flux = NodalField("s", np.full(sphere.n_vertices, 2.0),
                      units="mV*mS/cm^2")
    rep = solve_neumann_normalized(1.0, sphere, flux, g_volume=(grid, g),
                                   project=True)
    scale = np.abs(rep.flux_trace.values).max()
    assert np.abs(rep.solution_trace.values).max() < 0.05 * scale


def test_zaremba_degree_one(model, heart2, torso2, domain2):
    # zero-flux outer wall: u = (r/5 + 4/(5 r^2)) d cos(theta) for u(1) = d cos
    d = 30.0
    zh = heart2.vertices[:, 2]
    rep = solve_zaremba(model.M_b, domain2, NodalField("heart", d * zh))
    flux = rep.flux_trace
    oracle_flux = model.m_b * (d / 5.0 - 2 * 4.0 * d / 5.0) * zh
    assert (np.linalg.norm(flux.values - oracle_flux)
            / np.linalg.norm(oracle_flux)) < 0.06

    # recovered torso trace: u(2) = (2/5 + 1/5) d cos(theta), cos = z/2
    zt = torso2.vertices[:, 2] / 2.0
    oracle_torso = (2.0 / 5.0 + 4.0 / 20.0) * d * zt
    got = rep.solution_trace_outer.values
    assert (np.linalg.norm(got - oracle_torso)
            / np.linalg.norm(oracle_torso)) < 0.06

    w = heart2.vertex_weights
    assert abs(w @ flux.values) / (w @ np.abs(flux.values)) < 1e-3


def test_zaremba_constant_data(model, heart2, domain2):
    # constant Dirichlet data extends as a constant: zero flux everywhere
    ones = NodalField("heart", np.full(heart2.n_vertices, 5.0))
    rep = solve_zaremba(model.M_b, domain2, ones)
    flux = rep.flux_trace
    assert np.abs(flux.values).max() < 1e-8
    assert rep.solution_trace_outer.values == pytest.approx(5.0, abs=1e-8)


def test_reports_hold_the_callers_dirichlet_data(model, heart2, domain2):
    # the validated data field is the report's trace, not a copy of it
    data = NodalField("heart", heart2.vertices[:, 2])
    assert solve_zaremba(model.M_b, domain2, data).solution_trace is data
    assert solve_dirichlet(model.M_b, heart2, data).solution_trace is data


def test_zaremba_transfer_matches_lu_solution(model, heart2, domain2, fields2):
    # the kept transfer against an LU solve of the mixed system with the
    # same data, posed for the shell conormal q_h = -flux and u_t
    from scipy.linalg import lu_factor, lu_solve

    d = fields2["u_e"].values
    rep = solve_zaremba(model.M_b, domain2, fields2["u_e"])
    flux = rep.flux_trace
    a, b = boundary_operators(cardiobem.as_tensor(model.M_b, 3), domain2)
    nh = heart2.n_vertices
    sysmat = np.hstack([-b[:, :nh], a[:, nh:]])
    want = lu_solve(lu_factor(sysmat), -(a[:, :nh] @ d))
    got = np.concatenate([-flux.values, rep.solution_trace_outer.values])
    assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()
    assert rep.residual_norm < 1e-10


@pytest.mark.parametrize("level", [1, 2])
def test_reported_residual_bounds_the_fresh_residual(level):
    # each solve reports its kept solution operator's build residual times
    # the norm of the vector it is applied to.  That bounds the residual of
    # the system solved, formed here from freshly built A and B, and stays
    # within the tolerances of the solver tests.  The Neumann system is the
    # bordered one: its Lagrange multiplier is fitted by least squares, so
    # the fresh residual is at most that of the multiplier the solve used.
    heart = icosphere(level, 1.0, surface_id="heart")
    domain = DomainConfig(heart=heart, torso=icosphere(level, 2.0, surface_id="torso"))
    tensor = as_tensor(7.0, 3)
    a, b = boundary_operators(tensor, domain)
    a_h, b_h = boundary_operators(tensor, heart)
    nh = heart.n_vertices
    w = heart.vertex_weights
    x, y, z = heart.vertices.T
    rng = np.random.default_rng(level)
    for d in (z, x * y, 50.0 * x * z + 3.0, np.ones(nh), rng.standard_normal(nh)):
        rep = solve_zaremba(7.0, domain, NodalField("heart", d))
        flux = rep.flux_trace
        u_t = rep.solution_trace_outer.values
        fresh = np.linalg.norm(a @ np.concatenate([d, u_t]) - b[:, :nh] @ -flux.values)
        assert fresh <= rep.residual_norm < 1e-10

        rep = solve_dirichlet(7.0, heart, NodalField("heart", d))
        fresh = np.linalg.norm(b_h @ rep.flux_trace.values - a_h @ d)
        assert fresh <= rep.residual_norm < 1e-10

        rep = solve_neumann_normalized(7.0, heart, NodalField("heart", d),
                                       project=True)
        u0 = rep.solution_trace.values
        misfit = a_h @ u0 - b_h @ rep.flux_trace.values
        lam = -(w @ misfit) / (w @ w)
        fresh = np.hypot(np.linalg.norm(misfit + lam * w), w @ u0)
        assert fresh <= rep.residual_norm < 1e-12


def test_solution_operator_failures():
    with pytest.raises(SolveFailure):
        _solution_operator(np.zeros((3, 3)))
    with pytest.raises(SolveFailure):
        _solution_operator(np.diag([1.0, np.nan, 1.0]), np.ones((3, 2)))
    inv, residual = _solution_operator(np.diag([2.0, 4.0]))
    assert np.array_equal(inv, np.diag([0.5, 0.25]))
    assert not inv.flags.writeable
    assert residual == 0.0
    x, residual = _solution_operator(np.array([[4.0, 1.0], [1.0, 3.0]]),
                                     np.array([[1.0], [2.0]]))
    assert x == pytest.approx(np.array([[1.0], [7.0]]) / 11.0, rel=1e-15)
    assert 0.0 <= residual < 1e-15


_ONE_POOL_SCRIPT = """
import sys
import numpy as np
import cardiobem as cb

heart = cb.icosphere(1, 1.0, surface_id="heart")
torso = cb.icosphere(1, 2.0, surface_id="torso")
domain = cb.DomainConfig(heart=heart, torso=torso)
model = cb.ConductivityModel()
cb.run_protocol_1(domain, model, cb.NodalField("heart", heart.vertices[:, 2].copy()))
cb.run_protocol_2(domain, model, cb.NodalField("torso", torso.vertices[:, 2].copy()),
                  cb.TikhonovConfig.log_grid(8, 1e-8, 1e0))
sys.exit("scipy.linalg" in sys.modules)
"""


def _run_apart(script: str, **env_vars) -> None:
    """Run ``script`` in a fresh interpreter on this package; it must exit 0."""
    src = str(Path(cardiobem.__file__).resolve().parent.parent)
    env = dict(os.environ, **env_vars)
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p])
    proc = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, timeout=300)
    assert proc.returncode == 0, proc.stderr.decode(errors="replace")[-2000:]


def test_package_leaves_scipy_linalg_unloaded():
    # scipy.linalg brings its own BLAS and thread pool; the package, its cold
    # solves included, runs on numpy's alone
    _run_apart(_ONE_POOL_SCRIPT)


_OTHER_PATHS_SCRIPT = """
import sys
import numpy as np
import cardiobem as cb

heart = cb.icosphere(1, 1.0, surface_id="heart")
torso = cb.icosphere(1, 2.0, surface_id="torso")
cb.solve_cauchy_elliptic(7.0, cb.DomainConfig(heart=heart, torso=torso),
                         cb.NodalField("torso", torso.vertices[:, 2].copy()))
tg = cb.TimeGrid(t_end=0.5, steps=6)
grid = cb.InteriorGrid.for_mesh(heart, h=0.25)
trace = cb.SpaceTimeField.constant_in_time("heart", np.ones(heart.n_vertices), tg)
flux = cb.SpaceTimeField.constant_in_time("heart", np.zeros(heart.n_vertices), tg)
source = cb.SpaceTimeField("grid", np.ones((grid.n_cells, tg.steps)), tg)
cb.parabolic_green_reconstruct(cb.HeatOperatorSpec(), heart, grid, trace, flux,
                               np.ones(grid.n_cells), source,
                               np.array([0.1, 0.0, 0.2]), 0.4)
loaded = [name for name in ("scipy.linalg", "scipy.sparse.csgraph")
          if name in sys.modules]
sys.exit(f"loaded: {loaded}" if loaded else 0)
"""


def test_surface_gradient_and_heat_paths_leave_scipy_linalg_unloaded():
    # the Cauchy solve's surface-gradient penalty (a graph Laplacian and
    # QRs on numpy) and the heat potentials (sparse
    # incidences) both run without scipy.sparse.csgraph, which would import
    # scipy.linalg
    _run_apart(_OTHER_PATHS_SCRIPT)


_SHARED_SOLVE_SCRIPT = """
import sys, threading
import numpy as np
from cardiobem import DomainConfig, NodalField, icosphere, solve_zaremba

heart = icosphere(2, 1.0, surface_id="heart")
domain = DomainConfig(heart=heart, torso=icosphere(2, 2.0, surface_id="torso"))
data = NodalField("heart", heart.vertices[:, 2].copy())
want = solve_zaremba(7.0, domain, data).flux_trace.values
wrong = []

def work():
    for _ in range(600):
        got = solve_zaremba(7.0, domain, data).flux_trace.values
        if not np.array_equal(got, want):
            wrong.append(1)

sys.setswitchinterval(1e-6)
threads = [threading.Thread(target=work) for _ in range(2)]
for t in threads:
    t.start()
for t in threads:
    t.join()
sys.exit(1 if wrong else 0)
"""


def test_shared_factorization_is_thread_safe():
    # two threads solving with one cached solution operator: a solve that
    # writes to shared state (as an LU solve shifting its pivot array does)
    # gives wrong answers or aborts the process, so run it apart.  Level 2
    # and one BLAS thread per solver thread make the solves overlap often
    # enough that such a race shows on every run.
    _run_apart(_SHARED_SOLVE_SCRIPT, OPENBLAS_NUM_THREADS="1")


def _zaremba_flux(domain, data):
    return solve_zaremba(7.0, domain, data).flux_trace.values


def _protocol_1_v(domain, data):
    return cardiobem.run_protocol_1(domain, cardiobem.ConductivityModel(), data).v.values


def test_concurrent_cold_solves_build_each_operator_once(assembly_builds, monkeypatch):
    # four threads miss the cache together on fresh meshes; each operator
    # is still assembled by exactly one of them, for a Zaremba solve and for
    # a protocol-1 frame, whose Neumann step inverts the heart's bordered
    # matrix (the one inverse without a right side there) also once
    inverses = []
    solution_operator = cardiobem.direct._solution_operator

    def counted(matrix, rhs=None):
        if rhs is None:
            inverses.append(matrix.shape)
        return solution_operator(matrix, rhs)

    monkeypatch.setattr(cardiobem.direct, "_solution_operator", counted)
    for frame, layers, maps in ((_zaremba_flux, 8, 0), (_protocol_1_v, 10, 1)):
        assembly_builds.clear()
        inverses.clear()
        heart = icosphere(1, 1.0, surface_id="heart")
        domain = DomainConfig(heart=heart,
                              torso=icosphere(1, 2.0, surface_id="torso"))
        data = NodalField("heart", heart.vertices[:, 2].copy())
        barrier = threading.Barrier(4, timeout=60)
        results = []

        def work():
            barrier.wait()
            results.append(frame(domain, data))

        threads = [threading.Thread(target=work) for _ in range(4)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert len(assembly_builds) == layers
        assert inverses == [(heart.n_vertices + 1,) * 2] * maps
        assert len(results) == 4
        assert all(np.array_equal(r, results[0]) for r in results)


def test_operators_go_with_their_owner():
    # the two-surface operators live on the domain, the one-surface ones on
    # their mesh: the domain keeps the Zaremba transfer and the Cauchy form
    # and no shell A and B, dropping it alone frees both, and it leaves the
    # heart's Neumann entry, which keeps its bordered inverse and B but no A
    heart = icosphere(1, 1.0, surface_id="heart")
    torso = icosphere(1, 2.0, surface_id="torso")
    domain = DomainConfig(heart=heart, torso=torso)
    tensor = as_tensor(7.0, 3)
    solve_zaremba(7.0, domain, NodalField("heart", heart.vertices[:, 2].copy()))
    solve_neumann_normalized(7.0, heart, NodalField("heart", heart.vertices[:, 2]))
    solve_cauchy_elliptic(7.0, domain, NodalField("torso", torso.vertices[:, 2]))
    derived = domain.__dict__["_derived"]
    assert set(derived) == {("zaremba", tensor.tobytes()), ("cauchy", tensor.tobytes())}
    zaremba = derived[("zaremba", tensor.tobytes())][0]
    cauchy = derived[("cauchy", tensor.tobytes())]
    refs = [weakref.ref(x) for x in (zaremba, cauchy)]
    own = dict(heart.__dict__["_derived"])
    del domain, derived, zaremba, cauchy
    gc.collect()
    assert all(r() is None for r in refs)
    kept = heart.__dict__["_derived"]
    assert kept.keys() == own.keys()
    assert all(kept[key] is value for key, value in own.items())
    inv, _, b = own[("neumann", tensor.tobytes())]
    assert [m.shape for m in (inv, b)] == [(heart.n_vertices,) * 2] * 2
    assert [key for key in own if key[0] in ("operators", "dirichlet")] == []


def test_protocols_share_one_zaremba_transfer(model, monkeypatch):
    # a cold protocol 2 on a fresh domain builds the Zaremba transfer once,
    # under its own key, beside the reduced Cauchy form and nothing else,
    # and of operators the heart keeps only its Neumann entry under M_i (its
    # geometry entries have string keys); protocol 1
    # after it finds every entry it needs and builds none.  The two
    # assemble ten distinct layers, each once: the eight shell blocks under
    # M_b and the heart's single and double layer under M_i
    builds = []
    assemble_layer = cardiobem.direct.assemble_layer

    def recorded(kind, M, source, target=None):
        builds.append((kind, as_tensor(M, 3).tobytes(), source.surface_id,
                       None if target is None else target.surface_id))
        return assemble_layer(kind, M, source, target)

    monkeypatch.setattr(cardiobem.direct, "assemble_layer", recorded)
    heart = icosphere(1, 1.0, surface_id="heart")
    torso = icosphere(1, 2.0, surface_id="torso")
    domain = DomainConfig(heart=heart, torso=torso)
    key = as_tensor(model.M_b, 3).tobytes()
    owners = (domain, heart, torso)
    cardiobem.run_protocol_2(domain, model, NodalField("torso", torso.vertices[:, 2].copy()))
    derived = domain.__dict__["_derived"]
    assert set(derived) == {("zaremba", key), ("cauchy", key)}
    assert {k for k in heart.__dict__["_derived"] if isinstance(k, tuple)} == {
        ("neumann", as_tensor(model.M_i, 3).tobytes())}
    before = [dict(owner.__dict__["_derived"]) for owner in owners]
    cardiobem.run_protocol_1(domain, model, NodalField("heart", heart.vertices[:, 2].copy()))
    for owner, entries in zip(owners, before):
        after = owner.__dict__["_derived"]
        assert after.keys() == entries.keys()
        assert all(after[k] is v for k, v in entries.items())
    assert len(builds) == len(set(builds)) == 10


def test_torso_sweep_keeps_no_dropped_torso(model, heart2):
    # one heart solved against a sweep of torsos: each torso's operators go
    # with its domain, and the heart keeps the same entries throughout
    data = NodalField("heart", heart2.vertices[:, 2].copy())
    keys = []
    for radius in (2.0, 2.1, 2.2):
        torso = icosphere(2, radius, surface_id="torso")
        domain = DomainConfig(heart=heart2, torso=torso)
        solve_zaremba(model.M_b, domain, data)
        ref = weakref.ref(_zaremba_transfer(as_tensor(model.M_b, 3), domain)[0])
        del domain, torso
        gc.collect()
        keys.append(set(heart2.__dict__.get("_derived", {})))
        assert ref() is None
    assert keys[0] == keys[1] == keys[2]


def test_boundary_operators_match_block_reference(domain2, model):
    # A and B written in place, bit for bit the block construction.  On the
    # shell: eight layer blocks, heart sources negated, the full-row
    # diagonal, + 1/2 I.  On one surface: its double layer + 1/2 I and its
    # single layer, and the kept Neumann inverse is that of the bordered
    # matrix built from the double layer with 1/2 added on its diagonal
    heart, torso = domain2.heart, domain2.torso
    n = heart.n_vertices + torso.n_vertices
    nh = heart.n_vertices
    for tensor in (as_tensor(model.M_b, 3), np.diag([3.0, 1.0, 0.5])):
        def layer(kind, source, target):
            return cardiobem.assemble_layer(kind, tensor, source, target).matrix

        dl = np.block([[-layer("double", heart, heart), layer("double", torso, heart)],
                       [-layer("double", heart, torso), layer("double", torso, torso)]])
        idx = np.arange(n)
        dl[idx, idx] = 0.0
        dl[idx, idx] = -0.5 - dl.sum(axis=1)
        want_a = 0.5 * np.eye(n) + dl
        want_b = np.block([[layer("single", heart, heart), layer("single", torso, heart)],
                           [layer("single", heart, torso), layer("single", torso, torso)]])
        a, b = boundary_operators(tensor, domain2)
        assert np.array_equal(a, want_a)
        assert np.array_equal(b, want_b)

        d = layer("double", heart, heart)
        a, b = boundary_operators(tensor, heart)
        assert np.array_equal(a, 0.5 * np.eye(nh) + d)
        assert np.array_equal(b, layer("single", heart, heart))
        w = heart.vertex_weights
        big = np.zeros((nh + 1, nh + 1))
        big[:nh, :nh] = d
        big[np.arange(nh), np.arange(nh)] += 0.5
        big[:nh, nh] = w
        big[nh, :nh] = w
        _solve_neumann_block(tensor, heart, np.zeros(nh))
        kept, _, kept_b = heart.__dict__["_derived"][("neumann", tensor.tobytes())]
        assert np.array_equal(kept, np.linalg.inv(big)[:nh, :nh])
        assert np.array_equal(kept_b, b)


def test_cold_shell_build_transient_memory():
    # numpy reports its buffers to tracemalloc: the peak of a cold level-2
    # shell build, less the A and B it returns, bounds the temporaries of
    # the layer builds without timing anything
    domain = DomainConfig(heart=icosphere(2, 1.0, surface_id="heart"),
                          torso=icosphere(2, 2.0, surface_id="torso"))
    tensor = as_tensor(7.0, 3)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        a, b = boundary_operators(tensor, domain)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak - before - a.nbytes - b.nbytes < 8 * 2 ** 20
