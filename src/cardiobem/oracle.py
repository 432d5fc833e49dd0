"""Analytic separable solutions: the independent ground truth.

Everything here is closed-form radial/harmonic algebra on concentric spheres
and 2D annuli, evaluated through exact polynomial identities.  No code is
shared with the BEM kernels or solvers, so these values qualify as an
independent oracle for the numerical modules.

Harmonic convention (frozen, unit-tested): real solid harmonics without
Condon-Shortley phase and without normalization,

    S_lm(x) = r^l P_l^|m|(z/r) * (cos(m phi) if m >= 0 else sin(|m| phi)) * rho^|m|/r^|m|

written as the exact polynomial A_(or B_)|m|(x, y) * Q_l|m|(z/r) * r^(l-|m|)
with A_m + i B_m = (x + iy)^m and Q_lm = d^m P_l/dt^m (plain Ferrers).  In
particular S_10 = z, S_11 = x, S_1,-1 = y, S_20 = (2z^2 - x^2 - y^2)/2.
In 2D the degree-l pair is r^l cos(l theta), r^l sin(l theta) (selected by
the sign of m).  Only these interior harmonics are evaluated at points: the
fields below are their multiples times radial factors, and the shell's
decaying part (r^(-l-1) in 3D, r^(-l) in 2D) enters only through the
per-degree coefficients on the two spheres.

The synthetic steady bidomain dataset on a shell (heart r <= R1 inside a
passive conductor R1 <= r <= R2) solves, per harmonic degree:

    u_b = (alpha r^l + beta r^(-l-1)) Y   with  m_b du_b/dr = 0 at R2,
                                               u_b = d at R1
    psi = m_b du_b/dr at R1                (heart-outward conormal)
    u_e = (A r^l + B r^(l+2)) Y            trace d and flux sigma_e du_e/dr = psi
    w   = gamma r^l Y                      sigma_i dw/dr = psi at R1, mean-free
    u_i = -lambda (u_e - mean) + w + c,    c = -c0 * mean of the heart trace
    v   = u_i - u_e
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Tuple

import numpy as np
from numpy.polynomial import legendre as npleg
from numpy.polynomial import polynomial as nppoly

from .errors import OutOfGeometry, ResolvabilityError, ShapeMismatch
from .mesh import NodalField

__all__ = [
    "MAX_DEGREE",
    "Sphere3D",
    "Shell3D",
    "Annulus2D",
    "HarmonicTerm",
    "HarmonicSpec",
    "eval_harmonic",
    "synth_bidomain_steady",
    "BidomainSteadyOracle",
    "rmse",
]

MAX_DEGREE = 8


# ---------------------------------------------------------------------------
# geometries


@dataclass(frozen=True)
class Sphere3D:
    R: float
    dim: int = field(default=3, init=False)

    def contains(self, pts: np.ndarray) -> np.ndarray:
        r = np.linalg.norm(pts, axis=-1)
        return r <= self.R * (1 + 1e-7)


@dataclass(frozen=True)
class Shell3D:
    R1: float
    R2: float
    dim: int = field(default=3, init=False)

    def __post_init__(self):
        if not 0 < self.R1 < self.R2:
            raise ShapeMismatch("shell needs 0 < R1 < R2")

    def contains(self, pts: np.ndarray) -> np.ndarray:
        r = np.linalg.norm(pts, axis=-1)
        return (r >= self.R1 * (1 - 1e-7)) & (r <= self.R2 * (1 + 1e-7))


@dataclass(frozen=True)
class Annulus2D:
    R1: float
    R2: float
    dim: int = field(default=2, init=False)

    def __post_init__(self):
        if not 0 < self.R1 < self.R2:
            raise ShapeMismatch("annulus needs 0 < R1 < R2")

    def contains(self, pts: np.ndarray) -> np.ndarray:
        r = np.linalg.norm(pts, axis=-1)
        return (r >= self.R1 * (1 - 1e-7)) & (r <= self.R2 * (1 + 1e-7))


# ---------------------------------------------------------------------------
# exact solid harmonics


def _legendre_derivative(l: int, m: int) -> np.ndarray:
    """Power-basis coefficients (ascending) of d^m P_l / dt^m."""
    c = np.zeros(l + 1)
    c[l] = 1.0
    p = npleg.leg2poly(c)
    for _ in range(m):
        p = nppoly.polyder(p)
    return p


def _angular_pair(x: np.ndarray, y: np.ndarray, m: int):
    """A_m = Re (x+iy)^m and B_m = Im (x+iy)^m plus the order below."""
    a, b = np.ones_like(x), np.zeros_like(x)
    a_prev, b_prev = np.zeros_like(x), np.zeros_like(x)
    for _ in range(m):
        a_prev, b_prev = a, b
        a, b = a * x - b * y, a * y + b * x
    return a, b, a_prev, b_prev


def solid_harmonic(l: int, m: int, pts: np.ndarray):
    """Interior solid harmonic r^l Y_lm and its exact gradient.

    pts: (n, 3).  Returns (values (n,), gradients (n, 3)).
    """
    if not (0 <= abs(m) <= l):
        raise ShapeMismatch(f"order |{m}| exceeds degree {l}")
    x, y, z = pts[:, 0], pts[:, 1], pts[:, 2]
    s = x * x + y * y + z * z
    mm = abs(m)
    am, bm, am1, bm1 = _angular_pair(x, y, mm)
    if m >= 0:
        t, tx, ty = am, mm * am1, -mm * bm1
    else:
        t, tx, ty = bm, mm * bm1, mm * am1
    coeffs = _legendre_derivative(l, mm)
    val = np.zeros_like(x)
    gx = np.zeros_like(x)
    gy = np.zeros_like(x)
    gz = np.zeros_like(x)
    for k, ck in enumerate(coeffs):
        if ck == 0.0:
            continue
        j2 = l - mm - k
        if j2 < 0 or j2 % 2:
            continue
        j = j2 // 2
        zk = z ** k
        sj = s ** j
        base = zk * sj
        val += ck * t * base
        ds = (2.0 * j) * s ** (j - 1) if j > 0 else 0.0
        dzk = k * z ** (k - 1) if k > 0 else 0.0
        gx += ck * (tx * base + t * zk * ds * x)
        gy += ck * (ty * base + t * zk * ds * y)
        gz += ck * (t * dzk * sj + t * zk * ds * z)
    return val, np.column_stack([gx, gy, gz])


def harmonic_2d(l: int, sin_type: bool, pts: np.ndarray):
    """r^l cos(l theta) or r^l sin(l theta) with exact gradient; pts (n, 2)."""
    x, y = pts[:, 0], pts[:, 1]
    am, bm, am1, bm1 = _angular_pair(x, y, l)
    if sin_type:
        val = bm
        grad = l * np.column_stack([bm1, am1])
    else:
        val = am
        grad = l * np.column_stack([am1, -bm1])
    return val, grad


def _interior(dim: int, l: int, m: int, pts: np.ndarray):
    """The degree-l, order-m interior harmonic of ``dim`` and its gradient."""
    if dim == 3:
        return solid_harmonic(l, m, pts)
    return harmonic_2d(l, m < 0, pts)


# ---------------------------------------------------------------------------
# harmonic specs


@dataclass(frozen=True)
class HarmonicTerm:
    """One separable term: coefficient a on the interior harmonic r^l Y_lm."""

    l: int
    m: int
    a: float = 0.0

    def __post_init__(self):
        if self.l < 0 or abs(self.m) > self.l:
            raise ShapeMismatch(f"invalid (l, m) = ({self.l}, {self.m})")
        if self.l > MAX_DEGREE:
            raise ResolvabilityError(
                f"degree {self.l} exceeds the resolvable cap {MAX_DEGREE}"
            )
        if not np.isfinite(self.a):
            raise ShapeMismatch("non-finite harmonic coefficient")


@dataclass(frozen=True)
class HarmonicSpec:
    """Finite harmonic expansion on one of the supported geometries."""

    terms: Tuple[HarmonicTerm, ...]
    geometry: object

    def __post_init__(self):
        object.__setattr__(self, "terms", tuple(
            t if isinstance(t, HarmonicTerm) else HarmonicTerm(*t)
            for t in self.terms
        ))


def eval_harmonic(spec: HarmonicSpec, x):
    """Evaluate the expansion and its gradient at points.

    Returns (value, gradient); scalar value and (dim,) gradient for a single
    point, arrays for stacked points.  Points outside the spec's geometry
    raise OutOfGeometry.
    """
    pts = np.atleast_2d(np.asarray(x, dtype=float))
    single = np.asarray(x).ndim == 1
    dim = spec.geometry.dim
    if pts.shape[1] != dim:
        raise ShapeMismatch(f"points must be (n, {dim})")
    if not np.all(spec.geometry.contains(pts)):
        raise OutOfGeometry("evaluation point outside the spec geometry")
    val = np.zeros(len(pts))
    grad = np.zeros((len(pts), dim))
    for t in spec.terms:
        if t.a != 0.0:
            v, g = _interior(dim, t.l, t.m, pts)
            val += t.a * v
            grad += t.a * g
    if single:
        return float(val[0]), grad[0]
    return val, grad


# ---------------------------------------------------------------------------
# synthetic steady bidomain dataset


@dataclass(frozen=True)
class _TermSolution:
    l: int
    m: int
    d: float          # heart-trace coefficient on Y_lm
    alpha: float      # shell growing coefficient
    beta: float       # shell decaying coefficient
    psi: float        # heart-outward conormal of u_b, coefficient on Y_lm
    f: float          # torso-trace coefficient
    A: float          # interior u_e harmonic part
    B: float          # interior u_e r^(l+2) part
    gamma: float      # mean-free Neumann solution coefficient


class BidomainSteadyOracle:
    """Closed-form consistent dataset for the steady proportional model.

    The model's tensors must be isotropic, M_i = sigma_i I and
    M_e = sigma_e I, or ShapeMismatch is raised.

    Evaluation methods take (n, dim) point arrays: u_e, u_i, v and w in
    the heart ball/disk; the bath potential is given only by its traces,
    ``heart_trace``, ``torso_trace`` and ``heart_flux``, which read the
    direction of each point.  ``fields_on`` samples everything on meshes.
    """

    def __init__(self, geometry, model, u_e_spec: HarmonicSpec, c0: float = 1.0):
        if not model.proportional:
            raise ShapeMismatch("oracle requires a proportional conductivity model")
        # the closed forms take one scalar sigma per tissue: M_i must be
        # sigma_i I (and so M_e = lam M_i is sigma_e I)
        mi = model.M_i
        if np.abs(mi - mi[0, 0] * np.eye(len(mi))).max() > 1e-12 * np.abs(mi).max():
            raise ShapeMismatch("oracle requires isotropic tensors, M_i a "
                                "multiple of the identity")
        self.geometry = geometry
        self.model = model
        self.c0 = float(c0)
        self.dim = geometry.dim
        R1, R2 = geometry.R1, geometry.R2
        sigma_i = float(model.M_i[0, 0])
        sigma_e = float(model.M_e[0, 0])
        m_b = float(model.m_b)
        self.sigma_i, self.sigma_e, self.m_b = sigma_i, sigma_e, m_b
        self.lam = float(model.lam)
        terms = []
        trace_mean = 0.0
        for t in u_e_spec.terms:
            if t.a == 0.0:
                continue
            l = t.l
            d = t.a * R1 ** l
            if l == 0:
                terms.append(_TermSolution(0, 0, d, d, 0.0, 0.0, d, d, 0.0, 0.0))
                trace_mean += d
                continue
            if self.dim == 3:
                c_beta = l * R2 ** (2 * l + 1) / (l + 1.0)
                alpha = d / (R1 ** l + c_beta * R1 ** (-l - 1))
                beta = c_beta * alpha
                psi = m_b * (alpha * l * R1 ** (l - 1)
                             - beta * (l + 1) * R1 ** (-l - 2))
                fcoef = alpha * R2 ** l + beta * R2 ** (-l - 1)
            else:
                c_beta = R2 ** (2 * l)
                alpha = d / (R1 ** l + c_beta * R1 ** (-l))
                beta = c_beta * alpha
                psi = m_b * l * (alpha * R1 ** (l - 1) - beta * R1 ** (-l - 1))
                fcoef = alpha * R2 ** l + beta * R2 ** (-l)
            mat = np.array([
                [R1 ** l, R1 ** (l + 2)],
                [sigma_e * l * R1 ** (l - 1), sigma_e * (l + 2) * R1 ** (l + 1)],
            ])
            A, B = np.linalg.solve(mat, [d, psi])
            gamma = psi / (sigma_i * l * R1 ** (l - 1))
            terms.append(_TermSolution(l, t.m, d, alpha, beta, psi, fcoef,
                                       float(A), float(B), gamma))
        self.terms = tuple(terms)
        self.trace_mean = trace_mean
        self.c = -self.c0 * trace_mean

    # -- per-field evaluation -------------------------------------------

    def _basis(self, l: int, m: int, pts: np.ndarray):
        if l == 0:
            return np.ones(len(pts))
        return _interior(self.dim, l, m, pts)[0]

    def torso_trace(self, pts) -> np.ndarray:
        pts = np.atleast_2d(np.asarray(pts, dtype=float))
        r = np.linalg.norm(pts, axis=1)
        out = np.zeros(len(pts))
        for t in self.terms:
            if t.l == 0:
                out += t.f
            else:
                out += t.f * self._basis(t.l, t.m, pts) / r ** t.l
        return out

    def heart_trace(self, pts) -> np.ndarray:
        pts = np.atleast_2d(np.asarray(pts, dtype=float))
        r = np.linalg.norm(pts, axis=1)
        out = np.zeros(len(pts))
        for t in self.terms:
            if t.l == 0:
                out += t.d
            else:
                out += t.d * self._basis(t.l, t.m, pts) / r ** t.l
        return out

    def heart_flux(self, pts) -> np.ndarray:
        """Heart-outward conormal of the shell potential, nu . m_b grad u_b."""
        pts = np.atleast_2d(np.asarray(pts, dtype=float))
        r = np.linalg.norm(pts, axis=1)
        out = np.zeros(len(pts))
        for t in self.terms:
            if t.l == 0:
                continue
            out += t.psi * self._basis(t.l, t.m, pts) / r ** t.l
        return out

    def u_e(self, pts) -> np.ndarray:
        pts = np.atleast_2d(np.asarray(pts, dtype=float))
        s = np.einsum("ij,ij->i", pts, pts)
        out = np.zeros(len(pts))
        for t in self.terms:
            base = self._basis(t.l, t.m, pts)
            out += (t.A + t.B * s) * base
        return out

    def grad_u_e(self, pts) -> np.ndarray:
        pts = np.atleast_2d(np.asarray(pts, dtype=float))
        s = np.einsum("ij,ij->i", pts, pts)
        out = np.zeros_like(pts)
        for t in self.terms:
            base, grad = _interior(self.dim, t.l, t.m, pts)
            out += (t.A + t.B * s)[:, None] * grad
            out += (t.B * base)[:, None] * 2.0 * pts
        return out

    def neumann_part(self, pts) -> np.ndarray:
        """The mean-free Neumann solution w with sigma_i dw/dnu = psi."""
        pts = np.atleast_2d(np.asarray(pts, dtype=float))
        out = np.zeros(len(pts))
        for t in self.terms:
            if t.gamma != 0.0:
                out += t.gamma * self._basis(t.l, t.m, pts)
        return out

    def u_i(self, pts) -> np.ndarray:
        return (-self.lam * (self.u_e(pts) - self.trace_mean)
                + self.neumann_part(pts) + self.c)

    def v(self, pts) -> np.ndarray:
        return self.u_i(pts) - self.u_e(pts)

    # -- consistency ------------------------------------------------------

    def transmission_residuals(self) -> dict:
        """Analytic residuals of the interface and outer-flux conditions."""
        R1, R2 = self.geometry.R1, self.geometry.R2
        trace = flux = outer = 0.0
        for t in self.terms:
            l = t.l
            if self.dim == 3:
                ub1 = t.alpha * R1 ** l + t.beta * R1 ** (-l - 1)
                dub1 = t.alpha * l * R1 ** (l - 1) - t.beta * (l + 1) * R1 ** (-l - 2)
                dub2 = t.alpha * l * R2 ** (l - 1) - t.beta * (l + 1) * R2 ** (-l - 2)
            else:
                ub1 = t.alpha * R1 ** l + (t.beta * R1 ** (-l) if l else 0.0)
                dub1 = l * (t.alpha * R1 ** (l - 1) - t.beta * R1 ** (-l - 1)) if l else 0.0
                dub2 = l * (t.alpha * R2 ** (l - 1) - t.beta * R2 ** (-l - 1)) if l else 0.0
            ue1 = t.A * R1 ** l + t.B * R1 ** (l + 2)
            due1 = t.A * l * R1 ** (l - 1) + t.B * (l + 2) * R1 ** (l + 1) if l else 2 * t.B * R1
            trace = max(trace, abs(ue1 - ub1))
            flux = max(flux, abs(self.sigma_e * due1 - t.psi))
            outer = max(outer, abs(self.m_b * dub2))
        return {"trace_continuity": trace, "flux_continuity": flux,
                "outer_flux": outer}

    # -- mesh sampling ----------------------------------------------------

    def fields_on(self, heart, torso=None) -> dict:
        """Sample all fields as NodalFields on the given meshes."""
        hv = heart.vertices
        out = {
            "u_e": NodalField(heart.surface_id, self.u_e(hv)),
            "u_i": NodalField(heart.surface_id, self.u_i(hv)),
            "v": NodalField(heart.surface_id, self.v(hv)),
            "heart_flux": NodalField(heart.surface_id, self.heart_flux(hv),
                                     units="mV*mS/cm^2"),
            "heart_trace_ub": NodalField(heart.surface_id, self.heart_trace(hv)),
        }
        if torso is not None:
            out["f"] = NodalField(torso.surface_id, self.torso_trace(torso.vertices))
        return out


def synth_bidomain_steady(geometry, model, u_e_spec: HarmonicSpec,
                          c0: float = 1.0) -> BidomainSteadyOracle:
    """Build the closed-form consistent dataset (see BidomainSteadyOracle)."""
    if not isinstance(geometry, (Shell3D, Annulus2D)):
        raise ShapeMismatch("steady synthesis needs a Shell3D or Annulus2D geometry")
    return BidomainSteadyOracle(geometry, model, u_e_spec, c0)


# ---------------------------------------------------------------------------
# error metrics


def _values(v) -> np.ndarray:
    return v.values if isinstance(v, NodalField) else np.asarray(v, dtype=float)


def rmse(v_rec, v_true) -> float:
    """Root mean square error over all samples (and frames, if 2D)."""
    a = _values(v_rec)
    b = _values(v_true)
    if a.shape != b.shape:
        raise ShapeMismatch(f"shape mismatch {a.shape} vs {b.shape}")
    return float(np.sqrt(np.mean((a - b) ** 2)))
