"""Synthetic bidomain dataset generator and the error metrics."""

import numpy as np
import pytest

from cardiobem import (
    Annulus2D,
    ConductivityModel,
    HarmonicSpec,
    HarmonicTerm,
    ResolvabilityError,
    ShapeMismatch,
    Shell3D,
    circle_curve,
    eval_harmonic,
    rmse,
    synth_bidomain_steady,
)


def test_transmission_residuals(shell_oracle):
    res = shell_oracle.transmission_residuals()
    assert set(res) == {"trace_continuity", "flux_continuity", "outer_flux"}
    assert max(abs(v) for v in res.values()) < 1e-10


def test_fields_on_keys(fields2, heart2, torso2):
    assert set(fields2) == {"u_e", "u_i", "v", "heart_flux",
                            "heart_trace_ub", "f"}
    for key in ("u_e", "u_i", "v", "heart_flux", "heart_trace_ub"):
        assert fields2[key].surface_id == "heart"
        assert len(fields2[key].values) == heart2.n_vertices
    assert fields2["f"].surface_id == "torso"
    assert len(fields2["f"].values) == torso2.n_vertices
    assert fields2["heart_flux"].units == "mV*mS/cm^2"
    assert fields2["v"].units == "mV"


def test_u_e_is_harmonic(shell_oracle):
    # centered second differences of the degree-2 potential inside the shell
    x0 = np.array([0.0, 1.3, 0.6])
    h = 1e-4
    lap = 0.0
    for i in range(3):
        e = np.zeros(3)
        e[i] = h
        lap += (shell_oracle.u_e(np.array([x0 + e]))[0]
                - 2 * shell_oracle.u_e(np.array([x0]))[0]
                + shell_oracle.u_e(np.array([x0 - e]))[0]) / h ** 2
    assert abs(lap) < 1e-4


def test_gradient_consistency(shell_oracle):
    x0 = np.array([[0.2, 1.1, -0.7]])
    h = 1e-6
    g = shell_oracle.grad_u_e(x0)[0]
    for i in range(3):
        e = np.zeros(3)
        e[i] = h
        fd = (shell_oracle.u_e(x0 + e)[0] - shell_oracle.u_e(x0 - e)[0]) / (2 * h)
        assert g[i] == pytest.approx(fd, rel=1e-6, abs=1e-8)


def test_calibration_integral(model, heart2, fields2, shell_oracle):
    # oint (u_i + c0 u_e) dsigma = 0 on the heart surface
    w = heart2.vertex_weights
    total = w @ (fields2["u_i"].values + shell_oracle.c0 * fields2["u_e"].values)
    scale = w.sum() * np.abs(fields2["u_e"].values).max()
    assert abs(total) < 1e-12 * scale


def test_zero_c0_zeroes_the_constant(model):
    spec = HarmonicSpec(terms=(HarmonicTerm(1, 0, a=30.0),),
                        geometry=Shell3D(1.0, 2.0))
    orc = synth_bidomain_steady(Shell3D(1.0, 2.0), model, spec, c0=0.0)
    assert orc.c == 0.0


def test_anisotropic_model_is_refused():
    # a proportional but anisotropic model has no closed form here: reading
    # M_i[0, 0] as sigma would give a wrong bath flux, so it is refused
    spec = HarmonicSpec(terms=(HarmonicTerm(1, 0, a=30.0),),
                        geometry=Shell3D(1.0, 2.0))
    m_i = np.diag([3.0, 1.0, 0.5])
    aniso = ConductivityModel(M_i=m_i, M_e=2.5 * m_i)
    assert aniso.proportional
    with pytest.raises(ShapeMismatch, match="isotropic"):
        synth_bidomain_steady(Shell3D(1.0, 2.0), aniso, spec)
    iso = ConductivityModel(M_i=3.0 * np.eye(3), M_e=7.5 * np.eye(3))
    orc = synth_bidomain_steady(Shell3D(1.0, 2.0), iso, spec)
    assert (orc.sigma_i, orc.sigma_e) == (3.0, 7.5)


def test_degree_cap():
    with pytest.raises(ResolvabilityError):
        HarmonicSpec(terms=(HarmonicTerm(9, 0, a=1.0),),
                     geometry=Shell3D(1.0, 2.0))


def test_eval_harmonic_degree_one():
    spec = HarmonicSpec(terms=(HarmonicTerm(1, 0, a=2.0),),
                        geometry=Shell3D(1.0, 2.0))
    pts = np.array([[0.0, 0.0, 1.5], [1.0, 0.5, -0.4]])
    vals, grads = eval_harmonic(spec, pts)
    assert vals == pytest.approx(2.0 * pts[:, 2])
    assert grads[:, 2] == pytest.approx(2.0)
    assert grads[:, :2] == pytest.approx(0.0, abs=1e-12)


def test_annulus_dataset(model):
    spec = HarmonicSpec(terms=(HarmonicTerm(2, 0, a=5.0),),
                        geometry=Annulus2D(1.0, 2.0))
    orc = synth_bidomain_steady(Annulus2D(1.0, 2.0), model, spec)
    assert max(abs(v) for v in orc.transmission_residuals().values()) < 1e-10
    heart = circle_curve(1.0, 64, surface_id="heart")
    torso = circle_curve(2.0, 96, surface_id="torso")
    fields = orc.fields_on(heart, torso)
    assert len(fields["f"].values) == 96
    w = heart.vertex_weights
    total = w @ (fields["u_i"].values + orc.c0 * fields["u_e"].values)
    assert abs(total) < 1e-10 * w.sum() * np.abs(fields["u_e"].values).max()


def test_metrics():
    a = np.array([1.0, 2.0, 3.0])
    b = np.array([1.0, 2.0, 4.0])
    assert rmse(a, b) == pytest.approx(1.0 / np.sqrt(3.0))
    assert rmse(a, a) == 0.0
    with pytest.raises(ShapeMismatch):
        rmse(a, np.zeros(4))
