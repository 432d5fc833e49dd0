"""Fundamental solutions of the elliptic and parabolic model operators.

The elliptic operator convention throughout the toolkit is

    Delta_M u = -div(M grad u),    M constant symmetric positive definite,

a *positive* operator, and its fundamental solution satisfies
``Delta_M phi_M = delta``:

    3D:  phi_M(x, y) = 1 / (4 pi sqrt(det M) r_M(x, y)),
    2D:  phi_M(x, y) = -ln r_M(x, y) / (2 pi sqrt(det M)),

with the anisotropic distance ``r_M = sqrt((x-y)^T M^-1 (x-y))``.  The
conormal derivative is ``d_{nu,M} u = nu . (M grad u)``; applied to the
fundamental solution in its source argument it has the closed form

    d_{nu,M;y} phi_M(x, y) = nu . (x - y) / (4 pi sqrt(det M) r_M^3)   (3D)

(the M and M^-1 factors cancel), reducing for M = I to the classical
``cos(angle(nu, x - y)) / (4 pi |x - y|^2)``.

The parabolic operator is ``L u = d_t u - div(A grad u) + a . grad u + a0 u``
with ``A = scale * M``; its fundamental solution is a drift-shifted,
exponentially damped Gaussian

    Psi(x, y, t, tau) = exp(-a0 dt) K_A(x - y - a dt, dt),  dt = t - tau,
    K_A(d, s) = exp(-d^T A^-1 d / (4 s)) / ((4 pi s)^{n/2} sqrt(det A)),

and exactly zero for t <= tau (causality).  This module evaluates phi_M;
the double-layer kernel is evaluated in :mod:`cardiobem.assembly` and Psi
by :func:`cardiobem.parabolic.heat_kernel`.  Units: lengths cm, times ms,
conductivities mS/cm, membrane capacitance uF/cm^2, surface-to-volume ratio
1/cm.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ShapeMismatch, SingularPoint

__all__ = [
    "ConductivityModel",
    "HeatOperatorSpec",
    "elliptic_fundamental",
    "as_tensor",
]

# Reference myocardium conductivities (mS/cm): longitudinal/transverse,
# intra- and extracellular, plus the torso bath value.
SIGMA_LI = 12.0
SIGMA_TI = 1.33
SIGMA_LE = 45.0
SIGMA_TE = 5.0
BATH_CONDUCTIVITY = 7.0
MEMBRANE_CAPACITANCE = 1.0   # uF/cm^2
SURFACE_TO_VOLUME = 400.0    # 1/cm


def as_tensor(M, dim: int = 3) -> np.ndarray:
    """Coerce a scalar or matrix conductivity to a (dim, dim) SPD array."""
    m = np.asarray(M, dtype=float)
    if m.ndim == 0:
        if m <= 0:
            raise ShapeMismatch("scalar conductivity must be positive")
        return np.eye(dim) * float(m)
    if m.shape != (dim, dim):
        raise ShapeMismatch(f"conductivity tensor must be ({dim}, {dim})")
    if not np.allclose(m, m.T, rtol=0.0, atol=1e-12 * max(1.0, np.abs(m).max())):
        raise ShapeMismatch("conductivity tensor must be symmetric")
    if np.linalg.eigvalsh(m).min() <= 0.0:
        raise ShapeMismatch("conductivity tensor must be positive definite")
    return m


def _inv_and_det(M: np.ndarray):
    return np.linalg.inv(M), float(np.linalg.det(M))


def _mahalanobis_sq(Minv: np.ndarray, diff: np.ndarray) -> np.ndarray:
    return np.einsum("...i,ij,...j->...", diff, Minv, diff)


@dataclass(frozen=True)
class ConductivityModel:
    """Bidomain conductivity set.

    Parameters
    ----------
    M_i, M_e : scalar or (3, 3) SPD array, mS/cm
        Intra- and extracellular conductivity tensors.
    m_b : float, mS/cm
        Isotropic bath (torso) conductivity.
    lam : float, optional
        Proportionality constant when ``M_e = lam * M_i``.  Detected
        automatically when the tensors are proportional; if given explicitly
        it is checked against the tensors.
    chi : float, 1/cm
        Membrane surface-to-volume ratio.
    C_m : float, uF/cm^2
        Membrane capacitance per unit area.
    """

    M_i: np.ndarray = field(default=SIGMA_LI)
    M_e: np.ndarray = field(default=SIGMA_LE)
    m_b: float = BATH_CONDUCTIVITY
    lam: float | None = None
    chi: float = SURFACE_TO_VOLUME
    C_m: float = MEMBRANE_CAPACITANCE

    def __post_init__(self) -> None:
        mi = as_tensor(self.M_i)
        me = as_tensor(self.M_e)
        if self.m_b <= 0 or self.chi <= 0 or self.C_m <= 0:
            raise ShapeMismatch("m_b, chi and C_m must be positive")
        lam = self.lam
        scale = np.abs(me).max()
        if lam is None:
            ratio = np.trace(me) / np.trace(mi)
            if np.abs(me - ratio * mi).max() <= 1e-12 * scale:
                lam = float(ratio)
        else:
            if np.abs(me - float(lam) * mi).max() > 1e-12 * scale:
                raise ShapeMismatch("lam given but M_e != lam * M_i to 1e-12")
            lam = float(lam)
        mi.flags.writeable = False
        me.flags.writeable = False
        object.__setattr__(self, "M_i", mi)
        object.__setattr__(self, "M_e", me)
        object.__setattr__(self, "lam", lam)

    @property
    def proportional(self) -> bool:
        """Whether the tensors satisfy M_e = lam * M_i."""
        return self.lam is not None

    @property
    def M_b(self) -> np.ndarray:
        """Bath conductivity as an isotropic tensor."""
        return np.eye(3) * self.m_b


@dataclass(frozen=True)
class HeatOperatorSpec:
    """Coefficients of ``d_t - div(A grad) + a . grad + a0`` with A = scale*M."""

    M: np.ndarray = field(default=1.0)
    scale: float = 1.0
    drift: np.ndarray | None = None
    reaction: float = 0.0
    dim: int = 3

    def __post_init__(self) -> None:
        m = as_tensor(self.M, self.dim)
        if self.scale <= 0.0:
            raise ShapeMismatch("diffusion scale must be positive")
        drift = np.zeros(self.dim) if self.drift is None else np.asarray(self.drift, float)
        if drift.shape != (self.dim,):
            raise ShapeMismatch(f"drift must have shape ({self.dim},)")
        m.flags.writeable = False
        drift.flags.writeable = False
        object.__setattr__(self, "M", m)
        object.__setattr__(self, "drift", drift)

    @property
    def A(self) -> np.ndarray:
        """Effective diffusion tensor scale * M."""
        return self.scale * self.M

    @staticmethod
    def from_model(model: ConductivityModel, drift=None, reaction: float = 0.0
                   ) -> "HeatOperatorSpec":
        """Evolution operator of the proportional bidomain cable balance.

        A = M_e / (chi C_m (1 + lam)); requires a proportional model.
        """
        if not model.proportional:
            raise ShapeMismatch("evolution operator needs a proportional model")
        scale = 1.0 / (model.chi * model.C_m * (1.0 + model.lam))
        return HeatOperatorSpec(M=model.M_e, scale=scale, drift=drift,
                                reaction=reaction, dim=3)


def elliptic_fundamental(M, x, y) -> np.ndarray:
    """Fundamental solution phi_M(x, y) of Delta_M = -div(M grad).

    ``x`` and ``y`` broadcast against each other over a trailing axis of
    length 2 or 3 (deduced from the arrays).  Raises
    :class:`SingularPoint` if any pair coincides.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    dim = x.shape[-1]
    if y.shape[-1] != dim:
        raise ShapeMismatch("x and y must share the trailing dimension")
    m = as_tensor(M, dim)
    minv, det = _inv_and_det(m)
    r2 = _mahalanobis_sq(minv, x - y)
    if np.any(r2 == 0.0):
        raise SingularPoint("elliptic_fundamental evaluated at x == y")
    if dim == 3:
        return 1.0 / (4.0 * np.pi * np.sqrt(det) * np.sqrt(r2))
    return -0.5 * np.log(r2) / (2.0 * np.pi * np.sqrt(det))
