"""Conductivity tensors and elliptic/parabolic fundamental solutions."""

import numpy as np
import pytest

from cardiobem import (
    ConductivityModel,
    DomainConfig,
    HeatOperatorSpec,
    ShapeMismatch,
    TikhonovConfig,
    as_tensor,
    icosphere,
    run_protocol_1,
    run_protocol_2,
)
from cardiobem.kernels import (
    BATH_CONDUCTIVITY,
    MEMBRANE_CAPACITANCE,
    SIGMA_LE,
    SIGMA_LI,
    SURFACE_TO_VOLUME,
    _KernelSet,
)


def test_default_model():
    m = ConductivityModel()
    assert m.lam == pytest.approx(SIGMA_LE / SIGMA_LI)
    assert m.lam == pytest.approx(3.75)
    assert m.m_b == BATH_CONDUCTIVITY == 7.0
    assert np.array_equal(m.M_b, 7.0 * np.eye(3))
    assert m.chi == SURFACE_TO_VOLUME == 400.0
    assert m.C_m == MEMBRANE_CAPACITANCE == 1.0


def test_proportionality_detection():
    prop = ConductivityModel(M_i=np.diag([1.0, 2.0, 3.0]),
                             M_e=np.diag([2.0, 4.0, 6.0]))
    assert prop.lam == pytest.approx(2.0)
    skew = ConductivityModel(M_i=np.diag([1.0, 2.0, 3.0]),
                             M_e=np.diag([2.0, 4.0, 7.0]))
    assert skew.lam is None
    with pytest.raises(TypeError):  # detected only, never given
        ConductivityModel(lam=2.0)


def test_as_tensor():
    assert np.array_equal(as_tensor(2.0, 3), 2.0 * np.eye(3))
    t = np.diag([1.0, 2.0, 3.0])
    assert np.array_equal(as_tensor(t, 3), t)
    with pytest.raises(ShapeMismatch):
        as_tensor(np.eye(2), 3)


def test_as_tensor_rejects_after_a_valid_tensor():
    good = np.array([[2.0, 0.5, 0.0], [0.5, 1.0, 0.0], [0.0, 0.0, 3.0]])
    assert np.array_equal(as_tensor(good), good)
    assert np.array_equal(as_tensor(good.copy()), good)
    asymmetric = good.copy()
    asymmetric[0, 1] = 0.6
    indefinite = np.diag([1.0, -2.0, 3.0])
    for _ in range(2):
        with pytest.raises(ShapeMismatch, match="symmetric"):
            as_tensor(asymmetric)
        with pytest.raises(ShapeMismatch, match="positive definite"):
            as_tensor(indefinite)


def test_warm_frame_skips_tensor_checks(model, shell_oracle, monkeypatch):
    heart = icosphere(1, 1.0, surface_id="heart")
    torso = icosphere(1, 2.0, surface_id="torso")
    domain = DomainConfig(heart=heart, torso=torso)
    fields = shell_oracle.fields_on(heart, torso)
    config = TikhonovConfig.log_grid(8, 1e-8, 1e1)

    def frame():
        run_protocol_1(domain, model, fields["u_e"])
        run_protocol_2(domain, model, fields["f"], config)

    frame()
    calls = []
    eigvalsh = np.linalg.eigvalsh

    def counted(a, *args, **kwargs):
        calls.append(np.shape(a))
        return eigvalsh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigvalsh", counted)
    frame()
    assert calls == []


def _fundamental(M, x, y):
    """phi_M(x, y) for rows x against the point y."""
    ker = _KernelSet(M, len(y))
    return ker.single(ker.r2(x - y))


def test_fundamental_3d():
    # isotropic: 1/(4 pi r)
    val = _fundamental(np.eye(3), np.array([[2.0, 0.0, 0.0]]), np.zeros(3))
    assert val[0] == pytest.approx(1.0 / (8 * np.pi), rel=1e-12)
    # anisotropic closed form: 1/(4 pi sqrt(det M) |x|_{M^-1})
    M = np.diag([1.0, 4.0, 9.0])
    x = np.array([[0.3, -0.5, 0.7]])
    rm = np.sqrt(x[0] @ np.linalg.inv(M) @ x[0])
    expect = 1.0 / (4 * np.pi * np.sqrt(np.linalg.det(M)) * rm)
    assert _fundamental(M, x, np.zeros(3))[0] == pytest.approx(expect, rel=1e-12)


def test_fundamental_2d():
    # -log(r_M / r0) / (2 pi sqrt(det M)) with the shift r0 = 4; vanishes at
    # r = r0 for the identity
    val = _fundamental(np.eye(2), np.array([[4.0, 0.0]]), np.zeros(2))
    assert val[0] == pytest.approx(0.0, abs=1e-15)
    val = _fundamental(np.eye(2), np.array([[1.0, 0.0]]), np.zeros(2))
    assert val[0] == pytest.approx(np.log(4.0) / (2 * np.pi), rel=1e-12)


@pytest.mark.parametrize("M", [np.eye(3), np.diag([1.0, 4.0, 9.0])])
def test_fundamental_solves_pde(M):
    # -div(M grad Phi) = 0 away from the pole, by central differences
    x0 = np.array([0.4, -0.3, 0.6])
    h = 1e-4

    def phi(p):
        return _fundamental(M, p.reshape(1, -1), np.zeros(3))[0]

    lap = 0.0
    for i in range(3):
        e = np.zeros(3)
        e[i] = h
        lap += M[i, i] * (phi(x0 + e) - 2 * phi(x0) + phi(x0 - e)) / h ** 2
    assert abs(lap) < 1e-4 * abs(phi(x0)) / np.linalg.norm(x0) ** 2


@pytest.mark.parametrize("M", [np.eye(3), np.diag([3.0, 1.0, 0.5])])
def test_layer_kernels_overwrite_their_r2(M):
    # the kernels are written over the r_M^2 block they are given, with the
    # values of the written-out formulas, bit for bit
    rng = np.random.default_rng(7)
    r2 = rng.uniform(0.01, 4.0, size=(7, 5, 6))
    h = rng.normal(size=(5, 6))
    ker = _KernelSet(M, 3)
    c = ker._c
    for kind, want in (("single", c / np.sqrt(r2)),
                       ("double", h * (c / (r2 * np.sqrt(r2))))):
        block = r2.copy()
        assert ker.layer(kind, block, h) is block
        assert np.array_equal(block, want)
        block = r2.copy()
        got = ker.single(block) if kind == "single" else ker.double(block, h)
        assert got is block and np.array_equal(block, want)
    # the Duffy rule's (subtriangles, points) block with a column of heights
    flat, h_col = r2.reshape(35, 6), rng.normal(size=(35, 1))
    block = flat.copy()
    assert ker.double(block, h_col) is block
    assert np.array_equal(block, h_col * (c / (flat * np.sqrt(flat))))
    # 2D: the shifted logarithm and h / r^2
    ker2 = _KernelSet(M[:2, :2], 2)
    c2 = ker2._c
    block = r2.copy()
    assert ker2.single(block) is block
    assert np.array_equal(block, (-0.5 * c2) * np.log(r2 / 16.0))
    block = r2.copy()
    assert ker2.double(block, h) is block
    assert np.array_equal(block, h * (c2 / r2))


def test_heat_operator_spec_from_model():
    model = ConductivityModel()
    spec = HeatOperatorSpec.from_model(model)
    assert spec.scale == pytest.approx(1.0 / (400.0 * 1.0 * 4.75))
    assert np.array_equal(spec.M, as_tensor(SIGMA_LE, 3))
    assert spec.dim == 3
    # the diffusion tensor folds the scale in
    assert np.array_equal(spec.A, spec.scale * spec.M)

    skew = ConductivityModel(M_i=np.diag([1.0, 2.0, 3.0]),
                             M_e=np.diag([2.0, 4.0, 7.0]))
    with pytest.raises(ShapeMismatch):
        HeatOperatorSpec.from_model(skew)
