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
    constraint holds to solver precision.  A block of flux columns shares
    one single-layer product and one solve with the bordered LU.

Operators and factorizations live in one cache, keyed by the meshes'
cache tokens and the tensor: the single and double layer of each surface,
the shell block operators A and B, the Dirichlet, Neumann and Zaremba LUs,
(for cauchy.py) the SVD of the Cauchy problem in standard form, and (for
parabolic.py) each mesh's panel quadrature.  Each entry is built
under the cache's lock, so threads that miss together build it once; as
before, entries live as long as the process.
"""

from __future__ import annotations

import logging
import threading
from dataclasses import dataclass
from typing import Optional

import numpy as np
from scipy.linalg import lu_factor, lu_solve

from .assembly import assemble_layer, green_representation, volume_potential
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

_cache: dict = {}
_cache_lock = threading.RLock()


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


def cached(key, build):
    """The cache entry under ``key``, made by ``build()`` on a miss.

    The build runs under the (re-entrant) lock: a build may read other
    entries, and a key missed by several threads at once is built once.
    """
    with _cache_lock:
        if key not in _cache:
            _cache[key] = build()
        return _cache[key]


def _lu(matrix: np.ndarray):
    """LU factors of ``matrix``; SolveFailure if singular or non-finite."""
    try:
        lu = lu_factor(matrix)
    except Exception as exc:  # singular or non-finite matrix
        raise SolveFailure(f"factorization failed: {exc}") from exc
    if not np.all(np.isfinite(lu[0])):
        raise SolveFailure("factorization produced non-finite factors")
    return lu


def _lu_solve(lu_piv, rhs: np.ndarray) -> np.ndarray:
    """Solve with a cached LU, safe for threads that share it.

    scipy's LAPACK wrapper shifts the pivot array to 1-based indices in
    place, with the GIL released, and shifts it back afterwards.  A second
    thread using the same pivots meanwhile swaps the wrong rows: wrong
    answers, or a heap corruption abort.  Each call gets its own copy.
    """
    lu, piv = lu_piv
    return lu_solve((lu, piv.copy()), rhs)


def _layers(M, mesh):
    """(S, D) on one closed surface, D with the row-sum diagonal D 1 = -1/2."""
    return cached(("layers", mesh.cache_token, M.tobytes()), lambda: (
        assemble_layer("single", M, mesh).matrix,
        assemble_layer("double", M, mesh).matrix))


def _interior_limit_matrix(M, mesh) -> np.ndarray:
    """1/2 I + D with the row-sum diagonal (exact interior limit)."""
    d = _layers(M, mesh)[1]
    return 0.5 * np.eye(len(d)) + d


def shell_operators(M, heart, torso):
    """Full-boundary operators of the shell domain, heart normals flipped.

    Returns (A, B) with A = 1/2 I + D_shell (diagonal from the full block
    row) and B = block single layer, both over the stacked (heart, torso)
    vertices, so that A u = B q holds for any M-harmonic u in the shell with
    shell conormal q.  M is a tensor as returned by ``as_tensor``.
    """
    def build():
        s_hh, d_hh = _layers(M, heart)
        s_tt, d_tt = _layers(M, torso)
        d_ht = assemble_layer("double", M, torso, heart).matrix
        d_th = assemble_layer("double", M, heart, torso).matrix
        s_ht = assemble_layer("single", M, torso, heart).matrix
        s_th = assemble_layer("single", M, heart, torso).matrix
        # shell-outward normals: sources on the heart flip sign; the
        # per-surface diagonals are replaced by the full block row's
        dl = np.block([[-d_hh, d_ht], [-d_th, d_tt]])
        n = len(dl)
        idx = np.arange(n)
        dl[idx, idx] = 0.0
        dl[idx, idx] = -0.5 - dl.sum(axis=1)
        a = 0.5 * np.eye(n) + dl
        b = np.block([[s_hh, s_ht], [s_th, s_tt]])
        return a, b

    return cached(("shell", heart.cache_token, torso.cache_token, M.tobytes()),
                  build)


def _interior_values(M, meshes, traces, fluxes, targets,
                     g_volume=None) -> np.ndarray:
    """Green representation inside the domain bounded by the given meshes.

    traces and fluxes are nodal values per mesh, fluxes in the stored
    outward conormal (heart-outward on the shell).
    """
    pts = np.atleast_2d(np.asarray(targets, dtype=float))

    def term(i):
        mesh = meshes[i]
        return green_representation(M, mesh, NodalField(mesh.surface_id, traces[i]),
                                    NodalField(mesh.surface_id, fluxes[i]), pts)

    vals = term(0)
    if len(meshes) == 2:
        # the shell is the inside of the torso minus the inside of the heart
        vals = term(1) - vals
    if g_volume is not None:
        grid, g = g_volume
        vals = vals + volume_potential(M, grid, g, pts).values
    return vals


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
    s_mat = _layers(tensor, mesh)[0]
    lu = cached(("dirichlet", mesh.cache_token, tensor.tobytes()),
                lambda: _lu(s_mat))
    q = _lu_solve(lu, rhs)
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
    a, b = shell_operators(tensor, heart, torso)
    lu = cached(("dirichlet-shell", heart.cache_token, torso.cache_token,
                 tensor.tobytes()), lambda: _lu(b))
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
                                  (-q_h, q_t), targets)
    return values, report


# ---------------------------------------------------------------------------
# normalized Neumann (the transform N_i)


def _solve_neumann_block(tensor, mesh, u1: np.ndarray, source_total: float = 0.0,
                         volume: np.ndarray = None, *, tol: float = 1e-6,
                         project: bool = False) -> tuple:
    """Normalized Neumann solves for a flux vector (n,) or block (n, k).

    Each column's compatibility defect is its total flux plus
    ``source_total``; a column whose defect exceeds ``tol`` x area x scale
    raises IncompatibleData, or with ``project`` is shifted by a constant
    onto the compatible subspace, and one log line counts the shifted
    columns.  ``volume`` (n,), the volume potential at the vertices, is
    added to every column's right side.  All columns share one S product
    and one solve with the cached bordered LU.  Returns (u0, u1, defect,
    residual, normalization): solutions, the fluxes solved for, and per
    column the signed defect, the residual norm and w . u0.
    """
    w = mesh.vertex_weights
    area = float(w.sum())
    defect = w @ u1 + source_total
    scale = np.maximum(np.abs(u1).max(axis=0, initial=0.0),
                       abs(source_total) / area)
    bad = np.abs(defect) > tol * area * np.maximum(scale, 1e-300)
    if bad.any():
        worst = np.abs(defect).max(where=bad, initial=0.0)
        if not project:
            raise IncompatibleData(
                f"flux/source compatibility defect {worst:.3e} exceeds "
                f"{tol:.1e} x area x scale"
            )
        u1 = u1 - np.where(bad, defect / area, 0.0)
        logger.info("projected %d of %d Neumann data columns onto the "
                    "compatible subspace (largest defect %.3e)", bad.sum(),
                    bad.size, worst)
    rhs = _layers(tensor, mesh)[0] @ u1
    if volume is not None:
        np.add(rhs.T, volume, out=rhs.T)  # to every column
    n = mesh.n_vertices

    def bordered():
        a = _interior_limit_matrix(tensor, mesh)
        big = np.zeros((n + 1, n + 1))
        big[:n, :n] = a
        big[:n, n] = w
        big[n, :n] = w
        return _lu(big), a

    lu, a = cached(("neumann", mesh.cache_token, tensor.tobytes()), bordered)
    u0 = _lu_solve(lu, np.concatenate([rhs, np.zeros((1,) + rhs.shape[1:])]))[:n]
    residual = np.linalg.norm(a @ u0 - rhs, axis=0)
    return u0, u1, defect, residual, w @ u0


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
    source_total = 0.0
    volume = None
    if g_volume is not None:
        grid, g = g_volume
        source_total = float(grid.integrate(np.asarray(g, float)))
        volume = volume_potential(tensor, grid, g, mesh.vertices).values
    u0, u1v, defect, residual, normalization = _solve_neumann_block(
        tensor, mesh, u1v, source_total, volume, tol=tol, project=project)
    report = DirectSolveReport(
        residual_norm=float(residual),
        compatibility_defect=abs(float(defect)),
        normalization_value=float(normalization),
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
    a, b = shell_operators(tensor, heart, torso)

    def system():
        # unknowns [q_h; u_t]; knowns u_h = d, q_t = 0:
        #   A [d; u_t] = B [q_h; 0]  =>  -B[:, :nh] q_h + A[:, nh:] u_t = -A[:, :nh] d
        sysmat = np.hstack([-b[:, :nh], a[:, nh:]])
        return _lu(sysmat), sysmat

    lu, sysmat = cached(("zaremba", heart.cache_token, torso.cache_token,
                         tensor.tobytes()), system)
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
