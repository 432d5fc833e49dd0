"""Regularized lateral Cauchy solver: torso data propagated to the heart.

Given both Dirichlet data f and (typically zero) conormal flux on the torso
surface, recover the trace and flux on the heart surface through the passive
shell.  The forward constraint is the collocated interior-limit Green
identity of the shell,

    A_full [u_h; u_t] = B_full [q_h; q_t]

(see direct.py); with (u_t, q_t) known this is an overdetermined linear
system for the unknown heart pair x = [u_h; q_h],

    [A_full[:, h], -B_full[:, h]] x = B_full[:, t] q_t - A_full[:, t] f.

Torso-collocation rows ask the predicted torso Cauchy data to match; heart
rows ask an M-harmonic extension to exist.  The least-squares residual is
the computable distance-to-solvability; the problem is classically ill posed
so the minimizer of || A x - b ||^2 + alpha || L x ||^2 is returned, with
alpha picked by the configured rule (L-curve corner by default).

Identity penalty solves reuse one singular value decomposition across the
whole alpha grid; the surface-gradient penalty (graph Laplacian on the heart
mesh, guarding against over-smoothing being the only option) refactorizes
the normal equations per alpha.  The Cauchy matrix and its SVD are entries
of the operator cache in direct.py, built once per (heart, torso, tensor)
under its lock and kept, like the shell operators, for the process lifetime.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
from typing import Optional, Tuple

import numpy as np
from scipy.linalg import cho_factor, cho_solve

from .direct import cached, shell_operators
from .errors import (AllAlphaFailed, DegenerateLCurve, ShapeMismatch,
                     SolveFailure)
from .kernels import as_tensor
from .mesh import NodalField, _write_text

__all__ = [
    "LCurveMaxCurvature",
    "FixedAlpha",
    "DiscrepancyPrinciple",
    "TikhonovConfig",
    "CauchySolveReport",
    "solve_cauchy_elliptic",
    "lcurve_corner",
    "save_lcurve",
]

logger = logging.getLogger(__name__)


@dataclass(frozen=True)
class LCurveMaxCurvature:
    """Pick alpha at the maximum-curvature corner of the log-log L-curve."""


@dataclass(frozen=True)
class FixedAlpha:
    """Pin alpha to the grid point nearest (in log) the requested value."""

    alpha: float

    def __post_init__(self):
        if not self.alpha > 0:
            raise ShapeMismatch("FixedAlpha needs alpha > 0")


@dataclass(frozen=True)
class DiscrepancyPrinciple:
    """Largest alpha whose residual stays at or below noise_level (absolute,
    same units as ||A x - b||)."""

    noise_level: float

    def __post_init__(self):
        if not self.noise_level > 0:
            raise ShapeMismatch("DiscrepancyPrinciple needs noise_level > 0")


@dataclass(frozen=True)
class TikhonovConfig:
    alpha_grid: np.ndarray
    selection: object = field(default_factory=LCurveMaxCurvature)
    penalty: str = "identity"

    def __post_init__(self):
        grid = np.asarray(self.alpha_grid, dtype=float)
        object.__setattr__(self, "alpha_grid", grid)
        if grid.ndim != 1 or len(grid) < 2:
            raise ShapeMismatch("alpha_grid must be a 1-d grid")
        if not np.all(grid > 0) or not np.all(np.diff(grid) > 0):
            raise ShapeMismatch("alpha_grid must be strictly increasing and positive")
        if isinstance(self.selection, LCurveMaxCurvature) and len(grid) < 8:
            raise ShapeMismatch("L-curve selection needs >= 8 grid points")
        if self.penalty not in ("identity", "surface_gradient"):
            raise ShapeMismatch(f"unknown penalty {self.penalty!r}")

    @classmethod
    def log_grid(cls, count: int = 16, alpha_min: float = 1e-10,
                 alpha_max: float = 1e2, **kw) -> "TikhonovConfig":
        return cls(np.logspace(np.log10(alpha_min), np.log10(alpha_max), count),
                   **kw)


@dataclass(frozen=True)
class CauchySolveReport:
    chosen_alpha: float
    lcurve_points: Tuple[Tuple[float, float], ...]  # (log rho, log eta), alpha-ascending
    residual_norm: float
    heart_dirichlet: NodalField
    heart_flux: NodalField  # heart-outward conormal, nu_i . M grad u
    diagnostics: dict = field(default_factory=dict)


def lcurve_corner(points) -> int:
    """Index of the maximum-curvature point of a log-log L-curve.

    points: (log residual, log seminorm) ordered by increasing alpha.  The
    discrete curvature is the signed Menger (circumscribed-circle) curvature;
    positive sign is the convex corner traversed residual-up/seminorm-down.
    Ties break toward larger alpha.
    """
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 2 or pts.shape[1] != 2 or len(pts) < 8:
        raise ShapeMismatch("lcurve_corner needs >= 8 (log rho, log eta) points")
    if not np.all(np.isfinite(pts)):
        raise ShapeMismatch("L-curve points must be finite")
    a = pts[:-2]
    b = pts[1:-1]
    c = pts[2:]
    d1 = b - a
    d2 = c - b
    cross = d1[:, 0] * d2[:, 1] - d1[:, 1] * d2[:, 0]
    l1 = np.linalg.norm(d1, axis=1)
    l2 = np.linalg.norm(d2, axis=1)
    l3 = np.linalg.norm(c - a, axis=1)
    with np.errstate(divide="ignore", invalid="ignore"):
        kappa = np.where(l1 * l2 * l3 > 0, 2.0 * cross / (l1 * l2 * l3), 0.0)
    if not np.any(kappa > 0):
        raise DegenerateLCurve("no positive-curvature corner on the L-curve")
    best = np.flatnonzero(kappa == kappa.max())[-1]
    return int(best) + 1


def _graph_laplacian(mesh) -> np.ndarray:
    """Unnormalized graph Laplacian on mesh edges (surface-gradient seminorm)."""
    n = mesh.n_vertices
    lap = np.zeros((n, n))
    e = mesh.edges
    lap[e[:, 0], e[:, 1]] = -1.0
    lap[e[:, 1], e[:, 0]] = -1.0
    deg = -lap.sum(axis=1)
    lap[np.arange(n), np.arange(n)] = deg
    return lap


def _sweep_identity(svd, b: np.ndarray, grid: np.ndarray):
    """Tikhonov sweep with L = I via the thin SVD (u, s, vt) of the matrix:
    x(alpha), rho, eta per alpha."""
    u, s, vt = svd
    beta = u.T @ b
    perp2 = float(b @ b - beta @ beta)  # component outside the column space
    xs, rho, eta = [], [], []
    for alpha in grid:
        filt = s / (s * s + alpha)
        x = vt.T @ (filt * beta)
        xs.append(x)
        r2 = float(np.sum((alpha / (s * s + alpha)) ** 2 * beta ** 2)) + max(perp2, 0.0)
        rho.append(np.sqrt(max(r2, 0.0)))
        eta.append(float(np.linalg.norm(x)))
    return xs, np.array(rho), np.array(eta)


def _sweep_general(a: np.ndarray, b: np.ndarray, lmat: np.ndarray,
                   grid: np.ndarray):
    """Per-alpha normal-equations sweep for a general penalty operator."""
    ata = a.T @ a
    atb = a.T @ b
    ltl = lmat.T @ lmat
    xs, rho, eta = [], [], []
    for alpha in grid:
        try:
            fac = cho_factor(ata + alpha * ltl)
            x = cho_solve(fac, atb)
        except np.linalg.LinAlgError as exc:
            raise SolveFailure(f"normal equations singular at alpha={alpha}") from exc
        xs.append(x)
        rho.append(float(np.linalg.norm(a @ x - b)))
        eta.append(float(np.linalg.norm(lmat @ x)))
    return xs, np.array(rho), np.array(eta)


def _select_alpha(config: TikhonovConfig, grid: np.ndarray, rho: np.ndarray,
                  diagnostics: dict) -> int:
    sel = config.selection
    if isinstance(sel, FixedAlpha):
        return int(np.argmin(np.abs(np.log(grid) - np.log(sel.alpha))))
    if isinstance(sel, DiscrepancyPrinciple):
        ok = np.flatnonzero(rho <= sel.noise_level)
        if len(ok):
            return int(ok[-1])  # grid ascending: largest feasible alpha
        diagnostics["discrepancy_unreachable"] = True
        return int(np.argmin(rho))
    # L-curve with degenerate fallback
    floor = 1e-300
    pts = np.column_stack([np.log(np.maximum(rho, floor)),
                           np.log(np.maximum(diagnostics["eta"], floor))])
    try:
        return lcurve_corner(pts)
    except DegenerateLCurve:
        rmin = rho.min()
        idx = int(np.flatnonzero(rho <= 1.1 * max(rmin, floor))[0])
        diagnostics["degenerate_lcurve_fallback"] = True
        logger.info("degenerate L-curve; falling back to smallest alpha with "
                    "residual <= 1.1 x min (alpha=%.3e)", grid[idx])
        return idx


def solve_cauchy_elliptic(M_b, heart, torso, f: NodalField,
                          flux_on_torso: Optional[NodalField] = None,
                          config: Optional[TikhonovConfig] = None) -> CauchySolveReport:
    """Propagate torso Cauchy data through the shell to the heart surface.

    f: measured torso potential; flux_on_torso: conormal data there (default
    zero, the insulated body surface).  Returns heart Dirichlet trace and
    heart-outward conormal flux at the selected regularization, plus the full
    L-curve ordered by increasing alpha.
    """
    if config is None:
        config = TikhonovConfig.log_grid()
    tensor = as_tensor(M_b, heart.dim)
    fv = f.check_on(torso)
    qt = np.zeros(torso.n_vertices) if flux_on_torso is None else flux_on_torso.check_on(torso)
    nh = heart.n_vertices
    key = (heart.cache_token, torso.cache_token, tensor.tobytes())
    a_full, b_full = shell_operators(tensor, heart, torso)
    a = cached(("cauchy",) + key,
               lambda: np.hstack([a_full[:, :nh], -b_full[:, :nh]]))
    b = b_full[:, nh:] @ qt - a_full[:, nh:] @ fv

    if not np.any(fv) and not np.any(qt):
        # exactly zero data: the regularized minimizer is exactly zero
        zero = np.zeros(nh)
        points = tuple((np.log(1e-300), np.log(1e-300)) for _ in config.alpha_grid)
        return CauchySolveReport(
            chosen_alpha=float(config.alpha_grid[0]),
            lcurve_points=points,
            residual_norm=0.0,
            heart_dirichlet=NodalField(heart.surface_id, zero),
            heart_flux=NodalField(heart.surface_id, zero.copy(),
                                  units="mV*mS/cm^2"),
            diagnostics={"zero_data": True},
        )

    grid = config.alpha_grid
    if config.penalty == "identity":
        svd = cached(("cauchy-svd",) + key,
                     lambda: np.linalg.svd(a, full_matrices=False))
        xs, rho, eta = _sweep_identity(svd, b, grid)
    else:
        lap = _graph_laplacian(heart)
        lmat = np.block([
            [lap, np.zeros_like(lap)],
            [np.zeros_like(lap), lap],
        ])
        xs, rho, eta = _sweep_general(a, b, lmat, grid)

    finite = [i for i, x in enumerate(xs) if np.all(np.isfinite(x))]
    if not finite:
        raise AllAlphaFailed("no finite Tikhonov solution on the whole alpha grid")
    if len(finite) != len(grid):
        keep = np.array(finite)
        grid, rho, eta = grid[keep], rho[keep], eta[keep]
        xs = [xs[i] for i in finite]

    diagnostics = {"eta": eta}
    idx = _select_alpha(config, grid, rho, diagnostics)
    diagnostics.pop("eta")
    x = xs[idx]
    floor = 1e-300
    points = tuple(zip(np.log(np.maximum(rho, floor)),
                       np.log(np.maximum(eta, floor))))
    diagnostics["alpha_grid"] = grid
    diagnostics["residuals"] = rho
    diagnostics["seminorms"] = eta
    return CauchySolveReport(
        chosen_alpha=float(grid[idx]),
        lcurve_points=points,
        residual_norm=float(rho[idx]),
        heart_dirichlet=NodalField(heart.surface_id, x[:nh]),
        # internal unknown is the shell conormal; report heart-outward
        heart_flux=NodalField(heart.surface_id, -x[nh:], units="mV*mS/cm^2"),
        diagnostics=diagnostics,
    )


def save_lcurve(report: CauchySolveReport, path) -> None:
    """Write the swept L-curve as CSV `alpha,residual_norm,solution_norm`."""
    grid = report.diagnostics.get("alpha_grid")
    rho = report.diagnostics.get("residuals")
    eta = report.diagnostics.get("seminorms")
    lines = ["alpha,residual_norm,solution_norm"]
    if grid is not None:
        for a, r, e in zip(grid, rho, eta):
            lines.append(f"{float(a)!r},{float(r)!r},{float(e)!r}")
    _write_text(path, "\n".join(lines) + "\n")
