"""Regularized lateral Cauchy solver: torso data propagated to the heart.

Given the potential f on the insulated torso surface, recover the trace and
flux on the heart surface through the passive shell.  The heart-torso
DomainConfig keeps the Zaremba transfer X of ``direct``: for any heart
trace u_h it gives the insulated-torso solution's heart-outward flux
Lambda u_h and torso trace T u_h, so the torso flux data hold by
construction and only the torso potential is left to match.  The problem
is classically ill posed, so the minimizer of

    |T u_h - f|^2 + alpha |L u_h|^2,   L = [P; P Lambda],

is returned, with P the heart mesh's graph Laplacian (the surface gradient
of both the trace and the flux) and alpha picked by the configured rule
(L-curve corner by default).  The heart flux is Lambda u_h.

The penalty is brought to standard form once per (domain, tensor) with
Elden's split (see ``_ReducedForm``): null(L), the constants, is carried
by a separate least-squares term, and L on the rest becomes the identity
through the triangular factor of a QR of L, with no pseudo-inverse of L and
no Gram matrix L^T L, whose squared conditioning fails on fine meshes.  The
thin SVD of the standard-form matrix makes the residual and seminorm norms
of the whole alpha grid one (alphas x singular values) array, and only the
chosen alpha's u_h is formed.  That SVD, with the lift back to u_h, lives
on the same DomainConfig as X and goes with the domain.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .direct import _zaremba_transfer
from .errors import DegenerateLCurve, ShapeMismatch, SolveFailure
from .kernels import as_tensor
from .mesh import NodalField, _format_rows, _memo, _write_text

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
        if not 0 < self.alpha < np.inf:
            raise ShapeMismatch("FixedAlpha needs a finite alpha > 0")


@dataclass(frozen=True)
class DiscrepancyPrinciple:
    """Largest alpha whose residual stays at or below noise_level (absolute,
    same units as the torso misfit ||T u - f||)."""

    noise_level: float

    def __post_init__(self):
        if not 0 < self.noise_level < np.inf:
            raise ShapeMismatch("DiscrepancyPrinciple needs a finite noise_level > 0")


@dataclass(frozen=True, eq=False)
class TikhonovConfig:
    alpha_grid: np.ndarray
    selection: object = field(default_factory=LCurveMaxCurvature)

    def __post_init__(self):
        # a copy, frozen: the caller's array stays writeable
        grid = np.array(self.alpha_grid, dtype=float)
        grid.flags.writeable = False
        object.__setattr__(self, "alpha_grid", grid)
        if grid.ndim != 1 or len(grid) < 2:
            raise ShapeMismatch("alpha_grid must be a 1-d grid")
        if not np.all((grid > 0) & (grid < np.inf)) or not np.all(np.diff(grid) > 0):
            raise ShapeMismatch("alpha_grid must be strictly increasing, "
                                "positive and finite")
        if isinstance(self.selection, LCurveMaxCurvature) and len(grid) < 8:
            raise ShapeMismatch("L-curve selection needs >= 8 grid points")

    @classmethod
    def log_grid(cls, count: int = 16, alpha_min: float = 1e-10,
                 alpha_max: float = 1e2, **kw) -> "TikhonovConfig":
        return cls(np.logspace(np.log10(alpha_min), np.log10(alpha_max), count),
                   **kw)


@dataclass(frozen=True)
class CauchySolveReport:
    chosen_alpha: float
    residual_norm: float  # torso misfit |T u_h - f| at the chosen alpha
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


@dataclass(frozen=True, eq=False)
class _ReducedForm:
    """min |T u - f|^2 + alpha |L u|^2 over heart traces u, in standard form.

    z spans null(L); K maps onto the rest with |L K y| = |y| and T K
    perpendicular to T z.  The minimizer is then u = K y + z c, with
    c = (T z)+ f and y minimizing |T K y - f|^2 + alpha |y|^2 (Elden, BIT
    22, 1982; Hansen, Rank-Deficient and Discrete Ill-Posed Problems, 1998,
    2.3), and |L u| = |y|.

    u, s: the thin SVD T K = U diag(s) V^T; lift: K V, so that
    u = lift @ (filter * U^T f) + null @ (tz_pinv @ f).
    """

    u: np.ndarray
    s: np.ndarray
    lift: np.ndarray     # K V, (nh, k)
    null: np.ndarray     # z, (nh, 1)
    tz: np.ndarray       # T z, (nt, 1)
    tz_pinv: np.ndarray  # (T z)+, (1, nt)


def _reduced_form(tensor, domain) -> _ReducedForm:
    """The Cauchy problem of ``domain`` reduced onto its Zaremba transfer.

    X = [Lambda; T] maps the heart trace u to the heart-outward flux and
    the torso trace of the insulated-torso solution, so any u meets the torso
    flux data and the problem is min |T u - f|^2 + alpha |L u|^2, with
    L = [P; P Lambda] and P the heart's graph Laplacian: the surface
    gradient of both the trace and the flux.  Kept on ``domain`` beside X.
    """
    def build():
        nh = domain.heart.n_vertices
        x, _ = _zaremba_transfer(tensor, domain)
        t = x[nh:]
        lap = _graph_laplacian(domain.heart)
        lap_flux = lap @ x[:nh]
        # null(L) is the constants, P 1 = 0 and Lambda 1 = 0 to rounding;
        # the heart's other component indicators are not in it, because the
        # shell joins them and P Lambda sees a jump between them
        z = np.full((nh, 1), nh ** -0.5)
        # R^T R = L^T L + z z^T, and Q spans (R z)-perp = (R^-T z)-perp, so
        # K = R^-1 Q maps onto z-perp with |L K y| = |y|
        r = np.linalg.qr(np.vstack([lap, lap_flux, z.T]), mode="r")
        q = np.linalg.qr(r @ z, mode="complete")[0][:, 1:]
        k = np.linalg.solve(r, q)
        tz = t @ z
        tz_pinv = np.linalg.pinv(tz)
        tk = t @ k
        # shift K by z so that T K is perpendicular to T z; L z = 0 keeps |L K y|
        w = tz_pinv @ tk
        k -= z @ w
        tk -= tz @ w
        u, s, vt = np.linalg.svd(tk, full_matrices=False)
        return _ReducedForm(u, s, k @ vt.T, z, tz, tz_pinv)

    try:
        return _memo(domain, ("cauchy", tensor.tobytes()), build)
    except np.linalg.LinAlgError as exc:
        raise SolveFailure(f"reduced Cauchy form failed: {exc}") from exc


def _sweep(form: _ReducedForm, f: np.ndarray, grid: np.ndarray):
    """Residual and seminorm norms over the grid, and the solution maker.

    Returns rho, eta (one per alpha) and a function of the grid index that
    forms that alpha's u; only the chosen alpha's u is ever formed.
    """
    c = form.tz_pinv @ f
    b = f - form.tz @ c
    beta = form.u.T @ b
    perp2 = float(b @ b - beta @ beta)  # component outside the column space
    s = form.s
    denom = s * s + grid[:, None]  # >= alpha > 0
    filt = s / denom
    r2 = np.sum((grid[:, None] / denom) ** 2 * beta ** 2, axis=1) + max(perp2, 0.0)
    rho = np.sqrt(np.maximum(r2, 0.0))
    eta = np.linalg.norm(filt * beta, axis=1)

    def solution(idx: int) -> np.ndarray:
        return form.lift @ (filt[idx] * beta) + form.null @ c

    return rho, eta, solution


def _select_alpha(config: TikhonovConfig, grid: np.ndarray, rho: np.ndarray,
                  eta: np.ndarray, diagnostics: dict) -> int:
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
                           np.log(np.maximum(eta, floor))])
    try:
        return lcurve_corner(pts)
    except DegenerateLCurve:
        rmin = rho.min()
        idx = int(np.flatnonzero(rho <= 1.1 * max(rmin, floor))[0])
        diagnostics["degenerate_lcurve_fallback"] = True
        logger.info("degenerate L-curve; falling back to smallest alpha with "
                    "residual <= 1.1 x min (alpha=%.3e)", grid[idx])
        return idx


def _heart_trace(tensor, domain, f: NodalField,
                 config: Optional[TikhonovConfig]) -> tuple:
    """(chosen alpha, torso misfit, heart trace u, heart flux Lambda u,
    diagnostics) of one Cauchy solve."""
    if config is None:
        config = TikhonovConfig.log_grid()
    fv = f.check_on(domain.torso)
    if not np.any(fv):
        # exactly zero data: the regularized minimizer and its flux are
        # exactly zero, and no transfer is built
        zero = np.zeros(domain.heart.n_vertices)
        return float(config.alpha_grid[0]), 0.0, zero, zero, {"zero_data": True}
    grid = config.alpha_grid
    rho, eta, solution = _sweep(_reduced_form(tensor, domain), fv, grid)
    diagnostics = {}
    idx = _select_alpha(config, grid, rho, eta, diagnostics)
    diagnostics["alpha_grid"] = grid
    diagnostics["residuals"] = rho
    diagnostics["seminorms"] = eta
    u = solution(idx)
    flux = _zaremba_transfer(tensor, domain)[0][:domain.heart.n_vertices] @ u
    return float(grid[idx]), float(rho[idx]), u, flux, diagnostics


def solve_cauchy_elliptic(M_b, domain, f: NodalField,
                          config: Optional[TikhonovConfig] = None) -> CauchySolveReport:
    """Propagate torso Cauchy data through the shell to the heart surface.

    f: measured torso potential on the insulated body surface.  Returns
    heart Dirichlet trace and heart-outward conormal flux at the selected
    regularization; the residual is the torso misfit |T u_h - f|, and the
    diagnostics hold the swept grid with its residual and seminorm norms
    (``save_lcurve``).
    """
    heart = domain.heart
    alpha, residual, u, flux, diagnostics = _heart_trace(
        as_tensor(M_b, heart.dim), domain, f, config)
    return CauchySolveReport(
        chosen_alpha=alpha,
        residual_norm=residual,
        heart_dirichlet=NodalField(heart.surface_id, u),
        heart_flux=NodalField(heart.surface_id, flux, units="mV*mS/cm^2"),
        diagnostics=diagnostics,
    )


def save_lcurve(report: CauchySolveReport, path) -> None:
    """Write the swept L-curve as CSV `alpha,residual_norm,solution_norm`."""
    grid = report.diagnostics.get("alpha_grid")
    rho = report.diagnostics.get("residuals")
    eta = report.diagnostics.get("seminorms")
    text = "alpha,residual_norm,solution_norm\n"
    if grid is not None:
        text += "".join(_format_rows("%r,%r,%r\n",
                                     np.column_stack((grid, rho, eta))))
    _write_text(path, text)
