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

and exactly zero for t <= tau (causality).  This module evaluates phi_M
and the double-layer kernel (``_KernelSet``, whose 2D logarithm is shifted
by ``LOG_KERNEL_SCALE``, the shift's one home); Psi is
evaluated by :func:`cardiobem.parabolic.heat_kernel`.  Units: lengths cm, times ms,
conductivities mS/cm, membrane capacitance uF/cm^2, surface-to-volume ratio
1/cm.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ShapeMismatch

__all__ = [
    "ConductivityModel",
    "HeatOperatorSpec",
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

# r0 of the shifted 2D logarithm -ln(r_M / r0), see ``_KernelSet``
LOG_KERNEL_SCALE = 4.0


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


@dataclass(frozen=True, eq=False)
class ConductivityModel:
    """Bidomain conductivity set.

    Parameters
    ----------
    M_i, M_e : scalar or (3, 3) SPD array, mS/cm
        Intra- and extracellular conductivity tensors.
    m_b : float, mS/cm
        Isotropic bath (torso) conductivity.
    chi : float, 1/cm
        Membrane surface-to-volume ratio.
    C_m : float, uF/cm^2
        Membrane capacitance per unit area.

    Attributes
    ----------
    lam : float or None
        ``M_e = lam * M_i`` to 1e-12 of the largest entry of M_e, detected
        from the tensors (the ratio of their traces); None when they are not
        proportional.  Not a parameter.
    M_b : (3, 3) array, mS/cm
        The bath conductivity as an isotropic tensor.  Not a parameter.

    M_i, M_e and M_b are validated and frozen here, once, so the protocols
    pass them to the solvers' kept operators as they are.
    """

    M_i: np.ndarray = field(default=SIGMA_LI)
    M_e: np.ndarray = field(default=SIGMA_LE)
    m_b: float = BATH_CONDUCTIVITY
    chi: float = SURFACE_TO_VOLUME
    C_m: float = MEMBRANE_CAPACITANCE
    lam: float | None = field(default=None, init=False)
    M_b: np.ndarray = field(init=False)

    def __post_init__(self) -> None:
        # copies, frozen below: the caller's arrays stay writeable
        mi = as_tensor(self.M_i).copy()
        me = as_tensor(self.M_e).copy()
        if self.m_b <= 0 or self.chi <= 0 or self.C_m <= 0:
            raise ShapeMismatch("m_b, chi and C_m must be positive")
        ratio = np.trace(me) / np.trace(mi)
        lam = None
        if np.abs(me - ratio * mi).max() <= 1e-12 * np.abs(me).max():
            lam = float(ratio)
        mb = np.eye(3) * self.m_b
        for m in (mi, me, mb):
            m.flags.writeable = False
        object.__setattr__(self, "M_i", mi)
        object.__setattr__(self, "M_e", me)
        object.__setattr__(self, "M_b", mb)
        object.__setattr__(self, "lam", lam)

    @property
    def proportional(self) -> bool:
        """Whether the tensors satisfy M_e = lam * M_i."""
        return self.lam is not None


@dataclass(frozen=True, eq=False)
class HeatOperatorSpec:
    """Coefficients of ``d_t - div(A grad) + a . grad + a0`` with A = scale*M."""

    M: np.ndarray = field(default=1.0)
    scale: float = 1.0
    drift: np.ndarray | None = None
    reaction: float = 0.0
    dim: int = 3

    def __post_init__(self) -> None:
        # copies, frozen below: the caller's arrays stay writeable
        m = as_tensor(self.M, self.dim).copy()
        if self.scale <= 0.0:
            raise ShapeMismatch("diffusion scale must be positive")
        drift = np.zeros(self.dim) if self.drift is None else np.array(self.drift, float)
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


class _KernelSet:
    """phi_M and its double-layer kernel in whitened coordinates.

    M = L L^T is factored once.  With W = L^-1, a difference d maps to Wd
    with |Wd|^2 = d^T M^-1 d = r_M^2, and sqrt(det M) = prod diag L.  The
    kernels take r_M^2 and, for the double layer, the height
    h = nu . (x - y) of the target over the source panel:

        3D:  single 1 / (4 pi sqrt(det M) r_M)
             double h / (4 pi sqrt(det M) r_M^3)
        2D:  single -ln(r_M / r0) / (2 pi sqrt(det M))
             double h / (2 pi sqrt(det M) r_M^2)

    so the 2D logarithm is shifted by ``r0 = LOG_KERNEL_SCALE`` (4).  A
    fundamental solution in the plane is defined up to an additive constant,
    and every compatible boundary problem is invariant under the shift; the
    nonzero r0 keeps the single layer of unit-capacity curves (the unit
    circle, say) away from its constant-density null vector.  Vectors run
    along the last axis.

    ``single``, ``double`` and ``layer`` write the kernel over the float
    r_M^2 array they are given and return that array, so a caller passes
    an r_M^2 it no longer needs.  The operations and their order are those
    of the written-out formulas (``c / sqrt(r2)``,
    ``h * (c / (r2 * sqrt(r2)))``, ``(-0.5 c) * log(r2 / r0^2)``,
    ``h * (c / r2)``), so the values are the same bits.  ``h`` broadcasts
    against r_M^2 without enlarging it; the 3D double layer of a 3-D block
    runs one leading slice at a time, ``h`` against each slice, and its
    only temporary is one slice.
    """

    def __init__(self, M, dim: int):
        self.M = as_tensor(M, dim)
        self.dim = dim
        chol = np.linalg.cholesky(self.M)
        self.W = np.linalg.inv(chol)
        self.sqrt_det = float(np.prod(np.diag(chol)))
        self._c = 1.0 / ((4.0 if dim == 3 else 2.0) * np.pi * self.sqrt_det)

    def whiten(self, d: np.ndarray) -> np.ndarray:
        """W d for vectors d along the last axis, as one 2D product.

        A stacked (..., 1, dim) matmul costs several times the same
        product over the (points, dim) rows.
        """
        d = np.asarray(d)
        return (d.reshape(-1, self.dim) @ self.W.T).reshape(d.shape)

    def r2(self, d: np.ndarray) -> np.ndarray:
        """r_M^2 of the differences d."""
        z = self.whiten(d)
        return np.einsum("...i,...i->...", z, z)

    def single(self, r2: np.ndarray) -> np.ndarray:
        if self.dim == 3:
            np.sqrt(r2, out=r2)
            return np.divide(self._c, r2, out=r2)
        np.divide(r2, LOG_KERNEL_SCALE ** 2, out=r2)
        np.log(r2, out=r2)
        return np.multiply(-0.5 * self._c, r2, out=r2)

    def double(self, r2: np.ndarray, h: np.ndarray) -> np.ndarray:
        if self.dim == 2:
            np.divide(self._c, r2, out=r2)
            return np.multiply(h, r2, out=r2)
        for s in (r2 if r2.ndim == 3 else (r2,)):
            root = np.sqrt(s)
            np.multiply(s, root, out=root)
            np.divide(self._c, root, out=root)
            np.multiply(h, root, out=s)
        return r2

    def layer(self, kind: str, r2: np.ndarray, h: np.ndarray) -> np.ndarray:
        """The "single" or "double" kernel; ``h`` serves the double."""
        return self.single(r2) if kind == "single" else self.double(r2, h)
