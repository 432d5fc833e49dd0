"""Synthetic bidomain dataset generator and the error metrics."""

import numpy as np
import pytest

from cardiobem import (
    Annulus2D,
    ConductivityModel,
    HarmonicSpec,
    HarmonicTerm,
    OutOfGeometry,
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


@pytest.mark.parametrize("m", [2, -2])
def test_eval_harmonic_on_the_annulus(m):
    # r^l cos(l theta) for m >= 0, r^l sin(l theta) for m < 0, with their
    # gradients in polar form
    spec = HarmonicSpec(terms=(HarmonicTerm(2, m, a=3.0),),
                        geometry=Annulus2D(1.0, 2.0))
    r = np.array([1.0, 1.3, 1.7, 2.0])
    theta = np.array([0.3, 2.0, -1.1, 4.0])
    pts = np.column_stack([r * np.cos(theta), r * np.sin(theta)])
    angle = np.cos if m >= 0 else np.sin
    d_angle = (lambda t: -np.sin(t)) if m >= 0 else np.cos
    vals, grads = eval_harmonic(spec, pts)
    assert vals == pytest.approx(3.0 * r ** 2 * angle(2 * theta), rel=1e-12)
    d_r = 3.0 * 2 * r * angle(2 * theta)           # d/dr
    d_t = 3.0 * 2 * r * d_angle(2 * theta)         # (1/r) d/dtheta
    want = np.column_stack([d_r * np.cos(theta) - d_t * np.sin(theta),
                            d_r * np.sin(theta) + d_t * np.cos(theta)])
    assert np.abs(grads - want).max() < 1e-12 * np.abs(want).max()
    val, grad = eval_harmonic(spec, pts[1])   # a single point
    assert val == pytest.approx(vals[1], rel=1e-15)
    assert grad.shape == (2,) and np.array_equal(grad, grads[1])
    with pytest.raises(OutOfGeometry):        # inside the inner circle
        eval_harmonic(spec, np.array([[0.5, 0.0]]))


def test_constant_and_zero_terms(model):
    # a zero term adds nothing; a constant a shifts u_e, both traces and the
    # surface mean by a, so c by -c0 a and u_i by -c0 a, and adds no flux
    geometry = Shell3D(1.0, 2.0)
    plain = synth_bidomain_steady(geometry, model, HarmonicSpec(
        terms=(HarmonicTerm(1, 0, a=5.0),), geometry=geometry), c0=1.5)
    shifted = synth_bidomain_steady(geometry, model, HarmonicSpec(
        terms=(HarmonicTerm(0, 0, a=3.0), HarmonicTerm(2, 1, a=0.0),
               HarmonicTerm(1, 0, a=5.0)), geometry=geometry), c0=1.5)
    assert len(shifted.terms) == 2
    assert max(shifted.transmission_residuals().values()) < 1e-10
    assert shifted.c == -1.5 * 3.0
    rng = np.random.default_rng(2)
    x = rng.normal(size=(20, 3))
    unit = x / np.linalg.norm(x, axis=1, keepdims=True)
    inside = 0.8 * unit
    for name, pts, shift in (("heart_trace", unit, 3.0), ("torso_trace", unit, 3.0),
                             ("heart_flux", unit, 0.0), ("u_e", inside, 3.0),
                             ("u_i", inside, -1.5 * 3.0)):
        got = getattr(shifted, name)(pts) - getattr(plain, name)(pts)
        assert got == pytest.approx(np.full(len(pts), shift), abs=1e-12), name
    assert np.array_equal(shifted.grad_u_e(inside), plain.grad_u_e(inside))


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
