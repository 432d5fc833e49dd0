"""Well-posed boundary value solvers: Dirichlet, normalized Neumann, Zaremba.

All solvers collocate the interior-limit Green identity

    (1/2 I + D_pv) u0 = S u1 + T(g) on the boundary

where the double-layer diagonal carries the row identity D 1 = -1/2, making
1/2 I + D the exact interior limit at polyhedral vertices.  For the shell
domain between two closed surfaces (heart inside torso) the same identity
holds with shell-outward normals, which flip sign on the heart; diagonals of
the block operator are fixed by the row identity across the full block row.

Conventions:
  - Single closed surface: the domain is its interior, fluxes are reported
    in the stored outward-normal conormal, nu . M grad u.
  - Shell: reported heart flux is in the heart-outward (stored) convention,
    nu_i . M grad u, the quantity the reconstruction formulas consume; the
    internal unknown is the shell conormal, which is its negative.
  - Neumann solutions are normalized by the lumped surface mean (area
    weights at vertices) through one bordered Lagrange row, so the discrete
    constraint holds to solver precision.

Dense LU factorizations are memoized per (meshes, tensor, problem) behind a
lock; repeated per-frame solves reuse them.
"""

from __future__ import annotations

import logging
import threading
from dataclasses import dataclass
from typing import Optional

import numpy as np
from scipy.linalg import lu_factor, lu_solve

from .assembly import assemble_layer, volume_potential
from .errors import IncompatibleData, ShapeMismatch, SolveFailure
from .kernels import as_tensor
from .mesh import DomainConfig, NodalField

__all__ = [
    "DirectSolveReport",
    "solve_dirichlet",
    "solve_neumann_normalized",
    "solve_zaremba",
]

logger = logging.getLogger(__name__)

_factor_lock = threading.Lock()
_factor_memo: dict = {}


@dataclass(frozen=True)
class DirectSolveReport:
    """Outcome of a direct solve.

    solution_trace / flux_trace live on the primary surface (the single
    surface, or the heart for two-surface problems); the *_outer fields
    carry the torso-side traces of shell problems.  compatibility_defect is
    meaningful for Neumann solves only.
    """

    residual_norm: float
    compatibility_defect: float = 0.0
    normalization_value: float = 0.0
    solution_trace: Optional[NodalField] = None
    flux_trace: Optional[NodalField] = None
    solution_trace_outer: Optional[NodalField] = None
    flux_trace_outer: Optional[NodalField] = None


def _factorize(key, matrix_builder):
    with _factor_lock:
        hit = _factor_memo.get(key)
    if hit is not None:
        return hit
    mat = matrix_builder()
    try:
        lu = lu_factor(mat)
    except Exception as exc:  # singular or non-finite matrix
        raise SolveFailure(f"factorization failed: {exc}") from exc
    if not np.all(np.isfinite(lu[0])):
        raise SolveFailure("factorization produced non-finite factors")
    with _factor_lock:
        _factor_memo[key] = (lu, mat)
    return lu, mat


def _lu_solve(lu_piv, rhs: np.ndarray) -> np.ndarray:
    """Solve with a memoized LU, safe for threads that share it.

    scipy's LAPACK wrapper shifts the pivot array to 1-based indices in
    place, with the GIL released, and shifts it back afterwards.  A second
    thread using the same pivots meanwhile swaps the wrong rows: wrong
    answers, or a heap corruption abort.  Each call gets its own copy.
    """
    lu, piv = lu_piv
    return lu_solve((lu, piv.copy()), rhs)


def _interior_limit_matrix(M, mesh) -> np.ndarray:
    """1/2 I + D with the row-sum diagonal (exact interior limit)."""
    d = assemble_layer("double", M, mesh, diagonal="row_sum").matrix
    return 0.5 * np.eye(len(d)) + d


def _shell_operators(M, heart, torso):
    """Full-boundary operators of the shell domain, heart normals flipped.

    Returns (A, B) with A = 1/2 I + D_shell (diagonal from the full block
    row) and B = block single layer, both over the stacked (heart, torso)
    vertices, so that A u = B q holds for any M-harmonic u in the shell with
    shell conormal q.
    """
    d_hh = assemble_layer("double", M, heart, diagonal="raw").matrix
    d_ht = assemble_layer("double", M, torso, heart).matrix
    d_th = assemble_layer("double", M, heart, torso).matrix
    d_tt = assemble_layer("double", M, torso, diagonal="raw").matrix
    s_hh = assemble_layer("single", M, heart).matrix
    s_ht = assemble_layer("single", M, torso, heart).matrix
    s_th = assemble_layer("single", M, heart, torso).matrix
    s_tt = assemble_layer("single", M, torso).matrix
    # shell-outward normals: sources on the heart flip sign
    dl = np.block([[-d_hh, d_ht], [-d_th, d_tt]])
    n = len(dl)
    idx = np.arange(n)
    dl[idx, idx] = 0.0
    dl[idx, idx] = -0.5 - dl.sum(axis=1)
    a = 0.5 * np.eye(n) + dl
    b = np.block([[s_hh, s_ht], [s_th, s_tt]])
    return a, b


def _interior_values(M, meshes, traces, fluxes_shell, targets,
                     g_volume=None) -> np.ndarray:
    """Green representation inside the domain bounded by the given meshes.

    fluxes_shell are in the domain-outward convention per mesh (for the
    shell that is the flipped normal on the heart); traces in natural nodal
    values.  The double layer re-flips internally.
    """
    pts = np.atleast_2d(np.asarray(targets, dtype=float))
    vals = np.zeros(len(pts))
    for mesh, trace, flux, flip in zip(*meshes_traces(meshes, traces, fluxes_shell)):
        sl = assemble_layer("single", M, mesh, pts, cache=False)
        dl = assemble_layer("double", M, mesh, pts, cache=False)
        sign = -1.0 if flip else 1.0
        vals += sl.apply(flux) - sign * dl.apply(trace)
    if g_volume is not None:
        grid, g = g_volume
        vals = vals + volume_potential(M, grid, g, pts).values
    return vals


def meshes_traces(meshes, traces, fluxes):
    """Normalize (mesh, trace, flux, flipped) tuples for 1- or 2-surface runs."""
    if len(meshes) == 1:
        return (meshes, traces, fluxes, (False,))
    return (meshes, traces, fluxes, (True, False))


# ---------------------------------------------------------------------------
# Dirichlet


def solve_dirichlet(M, domain, u0, targets=None, g_volume=None):
    """Solve the Dirichlet problem, returning interior values and traces.

    domain: a single closed mesh (problem posed in its interior) or a
    DomainConfig (problem posed in the shell between heart and torso, with
    u0 a (heart_field, torso_field) pair).  The unknown conormal trace comes
    from collocating the Green identity on the boundary; interior values are
    then evaluated by the representation formula.
    """
    if isinstance(domain, DomainConfig):
        tensor = as_tensor(M, domain.heart.dim)
        return _solve_dirichlet_shell(tensor, domain, u0, targets)
    tensor = as_tensor(M, domain.dim)
    mesh = domain
    u0v = u0.check_on(mesh)
    a = _interior_limit_matrix(tensor, mesh)
    rhs = a @ u0v
    if g_volume is not None:
        grid, g = g_volume
        rhs = rhs - volume_potential(tensor, grid, g, mesh.vertices).values
    key = ("dirichlet", mesh.cache_token, tensor.tobytes())
    lu, _ = _factorize(key, lambda: assemble_layer("single", tensor, mesh).matrix)
    q = _lu_solve(lu, rhs)
    s_mat = assemble_layer("single", tensor, mesh).matrix
    residual = float(np.linalg.norm(s_mat @ q - rhs))
    report = DirectSolveReport(
        residual_norm=residual,
        solution_trace=NodalField(mesh.surface_id, u0v),
        flux_trace=NodalField(mesh.surface_id, q, units="mV*mS/cm^2"),
    )
    values = None
    if targets is not None:
        values = _interior_values(tensor, (mesh,), (u0v,), (q,), targets,
                                  g_volume=g_volume)
    return values, report


def _solve_dirichlet_shell(tensor, domain, u0, targets):
    heart, torso = domain.heart, domain.torso
    try:
        u0_h, u0_t = u0
    except (TypeError, ValueError) as exc:
        raise ShapeMismatch(
            "shell Dirichlet needs (heart_field, torso_field) data"
        ) from exc
    dh = u0_h.check_on(heart)
    dt = u0_t.check_on(torso)
    a, b = _shell_operators(tensor, heart, torso)
    key = ("dirichlet-shell", heart.cache_token, torso.cache_token,
           tensor.tobytes())
    lu, _ = _factorize(key, lambda: b)
    u_full = np.concatenate([dh, dt])
    rhs = a @ u_full
    q = _lu_solve(lu, rhs)
    residual = float(np.linalg.norm(b @ q - rhs))
    nh = heart.n_vertices
    q_h, q_t = q[:nh], q[nh:]
    report = DirectSolveReport(
        residual_norm=residual,
        solution_trace=NodalField(heart.surface_id, dh),
        solution_trace_outer=NodalField(torso.surface_id, dt),
        # heart-outward convention: negate the shell conormal
        flux_trace=NodalField(heart.surface_id, -q_h, units="mV*mS/cm^2"),
        flux_trace_outer=NodalField(torso.surface_id, q_t, units="mV*mS/cm^2"),
    )
    values = None
    if targets is not None:
        values = _interior_values(tensor, (heart, torso), (dh, dt),
                                  (q_h, q_t), targets)
    return values, report


# ---------------------------------------------------------------------------
# normalized Neumann (the transform N_i)


def solve_neumann_normalized(M, mesh, u1, g_volume=None, targets=None, *,
                             tol: float = 1e-6, project: bool = False):
    """Solve Delta_M u = g, nu . M grad u = u1, with lumped mean zero.

    Checks the compatibility integral (total flux plus total source) before
    solving; a defect beyond ``tol`` relative raises IncompatibleData unless
    ``project`` is set, in which case u1 is shifted by a constant to the
    compatible subspace and the defect is reported.  The normalization
    |oint u dsigma| = 0 is enforced as a bordered linear constraint.
    """
    tensor = as_tensor(M, mesh.dim)
    u1v = u1.check_on(mesh)
    w = mesh.vertex_weights
    area = float(w.sum())
    flux_total = float(w @ u1v)
    source_total = 0.0
    if g_volume is not None:
        grid, g = g_volume
        source_total = float(grid.integrate(np.asarray(g, float)))
    defect = flux_total + source_total
    scale = max(float(np.max(np.abs(u1v), initial=0.0)),
                abs(source_total) / area)
    if abs(defect) > tol * area * max(scale, 1e-300):
        if not project:
            raise IncompatibleData(
                f"flux/source compatibility defect {defect:.3e} exceeds "
                f"{tol:.1e} x area x scale"
            )
        u1v = u1v - defect / area
        logger.info("projected Neumann data onto the compatible subspace "
                    "(defect %.3e)", defect)
    a = _interior_limit_matrix(tensor, mesh)
    rhs = assemble_layer("single", tensor, mesh).matrix @ u1v
    if g_volume is not None:
        rhs = rhs + volume_potential(tensor, grid, g, mesh.vertices).values
    n = mesh.n_vertices

    def bordered():
        big = np.zeros((n + 1, n + 1))
        big[:n, :n] = a
        big[:n, n] = w
        big[n, :n] = w
        return big

    key = ("neumann", mesh.cache_token, tensor.tobytes())
    lu, _ = _factorize(key, bordered)
    sol = _lu_solve(lu, np.concatenate([rhs, [0.0]]))
    u0, mult = sol[:n], sol[n]
    residual = float(np.linalg.norm(a @ u0 - rhs))
    normalization = float(w @ u0)
    report = DirectSolveReport(
        residual_norm=residual,
        compatibility_defect=abs(defect),
        normalization_value=normalization,
        solution_trace=NodalField(mesh.surface_id, u0),
        flux_trace=NodalField(mesh.surface_id, u1v, units="mV*mS/cm^2"),
    )
    values = None
    if targets is not None:
        values = _interior_values(tensor, (mesh,), (u0,), (u1v,), targets,
                                  g_volume=g_volume)
    return values, report


# ---------------------------------------------------------------------------
# Zaremba (mixed) problem of the first protocol


def solve_zaremba(M, heart, torso, u_dirichlet_on_heart):
    """Dirichlet data on the heart, zero flux on the torso: heart flux out.

    Solves the mixed problem in the shell and returns nu_i . M grad u on the
    heart surface (heart-outward conormal) as a NodalField plus the report;
    the recovered torso trace rides along as solution_trace_outer.
    """
    tensor = as_tensor(M, heart.dim)
    d = u_dirichlet_on_heart.check_on(heart)
    nh, nt = heart.n_vertices, torso.n_vertices
    a, b = _shell_operators(tensor, heart, torso)

    def system():
        # unknowns [q_h; u_t]; knowns u_h = d, q_t = 0:
        #   A [d; u_t] = B [q_h; 0]  =>  -B[:, :nh] q_h + A[:, nh:] u_t = -A[:, :nh] d
        return np.hstack([-b[:, :nh], a[:, nh:]])

    key = ("zaremba", heart.cache_token, torso.cache_token, tensor.tobytes())
    lu, sysmat = _factorize(key, system)
    rhs = -(a[:, :nh] @ d)
    sol = _lu_solve(lu, rhs)
    residual = float(np.linalg.norm(sysmat @ sol - rhs))
    q_h, u_t = sol[:nh], sol[nh:]
    flux = -q_h  # heart-outward convention
    conservation = float(heart.vertex_weights @ flux)
    report = DirectSolveReport(
        residual_norm=residual,
        compatibility_defect=abs(conservation),
        solution_trace=NodalField(heart.surface_id, d),
        solution_trace_outer=NodalField(torso.surface_id, u_t),
        flux_trace=NodalField(heart.surface_id, flux, units="mV*mS/cm^2"),
    )
    return report.flux_trace, report
