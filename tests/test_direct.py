"""Direct boundary value solvers: Dirichlet, normalized Neumann, Zaremba."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import cardiobem

from cardiobem import (
    IncompatibleData,
    InteriorGrid,
    NodalField,
    icosphere,
    solve_dirichlet,
    solve_neumann_normalized,
    solve_zaremba,
)


@pytest.fixture(scope="module")
def sphere():
    return icosphere(2, 1.0, surface_id="s")


def test_dirichlet_single_surface(sphere):
    z = sphere.vertices[:, 2]
    targets = np.array([[0.0, 0.0, 0.4], [0.3, -0.1, 0.2]])
    values, rep = solve_dirichlet(1.0, sphere, NodalField("s", z), targets)
    assert values == pytest.approx(targets[:, 2], rel=2e-2)
    # recovered conormal of u = z on the unit sphere is z again
    assert (np.linalg.norm(rep.flux_trace.values - z)
            / np.linalg.norm(z)) < 0.05
    assert rep.residual_norm < 1e-10


def test_dirichlet_shell(domain2):
    # u = z is harmonic in the shell; prescribe both traces
    zh = domain2.heart.vertices[:, 2]
    zt = domain2.torso.vertices[:, 2]
    targets = np.array([[0.0, 0.0, 1.5], [1.2, 0.4, -0.6]])
    values, rep = solve_dirichlet(
        1.0, domain2,
        (NodalField("heart", zh), NodalField("torso", zt)),
        targets)
    assert values == pytest.approx(targets[:, 2], rel=2e-2)
    assert rep.residual_norm < 1e-10


def test_neumann_degree_one(sphere):
    z = sphere.vertices[:, 2]
    _, rep = solve_neumann_normalized(1.0, sphere,
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
    _, rep = solve_neumann_normalized(1.0, sphere, shifted, project=True)
    _, ref = solve_neumann_normalized(1.0, sphere,
                                      NodalField("s", z, units="mV*mS/cm^2"))
    assert rep.solution_trace.values == pytest.approx(
        ref.solution_trace.values, abs=1e-10)
    area = sphere.vertex_weights.sum()
    assert rep.compatibility_defect == pytest.approx(3.0 * area, rel=1e-12)


def test_neumann_volume_source(sphere):
    # u = |x|^2: -div(grad u) = -6, conormal 2 on the unit sphere; the
    # compatibility integral closes and the normalized trace is constant 0
    grid = InteriorGrid.for_mesh(sphere, h=0.1)
    g = np.full(grid.n_cells, -6.0)
    flux = NodalField("s", np.full(sphere.n_vertices, 2.0),
                      units="mV*mS/cm^2")
    _, rep = solve_neumann_normalized(1.0, sphere, flux, g_volume=(grid, g),
                                      project=True)
    scale = np.abs(rep.flux_trace.values).max()
    assert np.abs(rep.solution_trace.values).max() < 0.05 * scale


def test_zaremba_degree_one(model, heart2, torso2):
    # zero-flux outer wall: u = (r/5 + 4/(5 r^2)) d cos(theta) for u(1) = d cos
    d = 30.0
    zh = heart2.vertices[:, 2]
    flux, rep = solve_zaremba(model.M_b, heart2, torso2,
                              NodalField("heart", d * zh))
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


def test_zaremba_constant_data(model, heart2, torso2):
    # constant Dirichlet data extends as a constant: zero flux everywhere
    ones = NodalField("heart", np.full(heart2.n_vertices, 5.0))
    flux, rep = solve_zaremba(model.M_b, heart2, torso2, ones)
    assert np.abs(flux.values).max() < 1e-8
    assert rep.solution_trace_outer.values == pytest.approx(5.0, abs=1e-8)


_SHARED_LU_SCRIPT = """
import sys, threading
import numpy as np
from cardiobem import NodalField, icosphere, solve_zaremba

heart = icosphere(2, 1.0, surface_id="heart")
torso = icosphere(2, 2.0, surface_id="torso")
data = NodalField("heart", heart.vertices[:, 2].copy())
want = solve_zaremba(7.0, heart, torso, data)[0].values
wrong = []

def work():
    for _ in range(600):
        got = solve_zaremba(7.0, heart, torso, data)[0].values
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
    # two threads solving on one memoized LU: a race on the shared pivot
    # array gives wrong answers or aborts the process, so run it apart.
    # Level 2 and one BLAS thread per solver thread make the solves overlap
    # often enough that the race shows on every run.
    src = str(Path(cardiobem.__file__).resolve().parent.parent)
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1")
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p])
    proc = subprocess.run([sys.executable, "-c", _SHARED_LU_SCRIPT], env=env,
                          capture_output=True, timeout=300)
    assert proc.returncode == 0, proc.stderr.decode(errors="replace")[-2000:]
