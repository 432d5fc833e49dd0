"""Regularized lateral Cauchy solver: torso data propagated to the heart.

Given both Dirichlet data f and (typically zero) conormal flux on the torso
surface, recover the trace and flux on the heart surface through the passive
shell.  The forward constraint is the collocated interior-limit Green
identity of the shell,

    A_full [u_h; u_t] = B_full [q_h; q_t]

with the shell's operators from ``direct.boundary_operators``, which the
heart-torso DomainConfig keeps; with (u_t, q_t) known this is an
overdetermined linear system for the unknown heart pair x = [u_h; q_h],

    [A_full[:, h], -B_full[:, h]] x = B_full[:, t] q_t - A_full[:, t] f.

Torso-collocation rows ask the predicted torso Cauchy data to match; heart
rows ask an M-harmonic extension to exist.  The least-squares residual is
the computable distance-to-solvability; the problem is classically ill posed
so the minimizer of || A x - b ||^2 + alpha || L x ||^2 is returned, with
alpha picked by the configured rule (L-curve corner by default).

Both penalties, the identity and the surface gradient (the graph Laplacian
of the heart mesh in each half of x, so that over-smoothing is not the only
option), share one sweep.  The general penalty is first brought to
standard form (Elden's transformation with the A-weighted pseudo-inverse of
L, see ``_StandardForm``), which turns it into an identity-penalty problem;
the null space of L, one constant per connected component of the heart
mesh, is carried by a separate least-squares term.  The thin SVD of the
standard-form matrix makes the residual and seminorm norms of the whole
alpha grid one (alphas x singular values) array, and only the chosen
alpha's x is formed.  That SVD, with the lift back to x, lives on the
same DomainConfig as A_full and B_full, once per (tensor, penalty), and
goes with the domain; the Cauchy matrix itself is needed only inside that
build.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
from typing import Optional, Tuple

import numpy as np

from .direct import boundary_operators
from .errors import DegenerateLCurve, ShapeMismatch
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


@dataclass(frozen=True)
class _StandardForm:
    """min |A x - b|^2 + alpha |L x|^2 as an identity-penalty problem.

    With N a basis of null(L) and the A-weighted pseudo-inverse
    L_A+ = (I - N (AN)+ A) L+, the minimizer is x = L_A+ xbar + N (AN)+ b,
    where xbar minimizes |Abar xbar - bbar|^2 + alpha |xbar|^2 for
    Abar = A L_A+ and bbar = b - AN (AN)+ b, and |L x| = |xbar| (Elden,
    BIT 22, 1982; Hansen, Rank-Deficient and Discrete Ill-Posed Problems,
    1998, 2.3).  For L = I, N is empty and Abar is A itself.

    u, s: the thin SVD of Abar without its dim null(L) null directions;
    vt: its right singular vectors lifted by L_A+, one per row, so that
    x = vt.T @ (filter * u.T b) + null @ ((AN)+ b).
    """

    u: np.ndarray
    s: np.ndarray
    vt: np.ndarray
    null: np.ndarray     # N, (n, p)
    an: np.ndarray       # A N, (m, p)
    an_pinv: np.ndarray  # (A N)+, (p, m)


def _twice(m: np.ndarray) -> np.ndarray:
    """The block diagonal matrix blockdiag(m, m)."""
    r, c = m.shape
    out = np.zeros((2 * r, 2 * c))
    out[:r, :c] = m
    out[r:, c:] = m
    return out


def _component_labels(lap: np.ndarray) -> np.ndarray:
    """Connected-component label of each vertex of the graph of ``lap``.

    Labels count from 0 in the order of each component's lowest vertex.
    Every vertex takes the least label among its neighbours until none
    changes, and jumps to its label's label on the way.
    """
    rows, cols = np.nonzero(lap)
    labels = np.arange(len(lap))
    while True:
        low = labels.copy()
        np.minimum.at(low, rows, labels[cols])
        low = low[low]
        if np.array_equal(low, labels):
            break
        labels = low
    return np.unique(labels, return_inverse=True)[1]


def _standard_form(a: np.ndarray, lap: Optional[np.ndarray]) -> _StandardForm:
    """Standard form for L = I (lap None) or L = blockdiag(lap, lap)."""
    m, n = a.shape
    if lap is None:
        u, s, vt = np.linalg.svd(a, full_matrices=False)
        return _StandardForm(u, s, vt, np.zeros((n, 0)), np.zeros((m, 0)),
                             np.zeros((0, m)))
    # null(lap): one indicator per connected component of the mesh, which
    # also makes lap + Z Z^T invertible, with inverse lap+ + Z Z^T
    labels = _component_labels(lap)
    z = (labels[:, None] == np.arange(labels.max() + 1)).astype(float)
    z /= np.sqrt(z.sum(axis=0))
    zz = z @ z.T
    lap_pinv = np.linalg.inv(lap + zz) - zz
    l_pinv = _twice(lap_pinv)
    null = _twice(z)
    an = a @ null
    an_pinv = np.linalg.pinv(an)
    a_lpinv = a @ l_pinv
    la_pinv = l_pinv - null @ (an_pinv @ a_lpinv)
    u, s, vt = np.linalg.svd(a_lpinv - an @ (an_pinv @ a_lpinv),
                             full_matrices=False)
    k = len(s) - null.shape[1]  # Abar vanishes on null(L)
    return _StandardForm(u[:, :k], s[:k], vt[:k] @ la_pinv.T, null, an, an_pinv)


def _sweep(form: _StandardForm, b: np.ndarray, grid: np.ndarray):
    """Residual and seminorm norms over the grid, and the solution maker.

    Returns rho, eta (one per alpha) and a function of the grid index that
    forms that alpha's x; only the chosen alpha's x is ever formed.
    """
    c = form.an_pinv @ b
    b = b - form.an @ c
    beta = form.u.T @ b
    perp2 = float(b @ b - beta @ beta)  # component outside the column space
    s = form.s
    denom = s * s + grid[:, None]  # >= alpha > 0
    filt = s / denom
    r2 = np.sum((grid[:, None] / denom) ** 2 * beta ** 2, axis=1) + max(perp2, 0.0)
    rho = np.sqrt(np.maximum(r2, 0.0))
    eta = np.linalg.norm(filt * beta, axis=1)

    def solution(idx: int) -> np.ndarray:
        return form.vt.T @ (filt[idx] * beta) + form.null @ c

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


def solve_cauchy_elliptic(M_b, domain, f: NodalField,
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
    heart, torso = domain.heart, domain.torso
    tensor = as_tensor(M_b, heart.dim)
    fv = f.check_on(torso)
    qt = None if flux_on_torso is None else flux_on_torso.check_on(torso)
    nh = heart.n_vertices
    a_full, b_full = boundary_operators(tensor, domain)
    # b = B q - A f; -(A f) + B q rounds the same, and an insulated torso
    # (no flux given) skips the product with q = 0
    b = -(a_full[:, nh:] @ fv)
    if qt is not None:
        b += b_full[:, nh:] @ qt

    if not np.any(fv) and (qt is None or not np.any(qt)):
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

    def standard_form():
        a = np.hstack([a_full[:, :nh], -b_full[:, :nh]])
        lap = None if config.penalty == "identity" else _graph_laplacian(heart)
        return _standard_form(a, lap)

    form = _memo(domain, ("cauchy", tensor.tobytes(), config.penalty),
                 standard_form)
    grid = config.alpha_grid
    rho, eta, solution = _sweep(form, b, grid)
    diagnostics = {}
    idx = _select_alpha(config, grid, rho, eta, diagnostics)
    x = solution(idx)
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
    text = "alpha,residual_norm,solution_norm\n"
    if grid is not None:
        text += "".join(_format_rows("%r,%r,%r\n",
                                     np.column_stack((grid, rho, eta))))
    _write_text(path, text)
