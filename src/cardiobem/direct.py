"""Well-posed boundary value solvers: Dirichlet, normalized Neumann, Zaremba.

All solvers collocate the interior-limit Green identity

    A u0 = B u1 + T(g) on the boundary,   A = 1/2 I + D_pv,  B = S,

over the whole boundary of their domain, built by ``boundary_operators``.
The domain is the interior of one closed surface (Dirichlet and Neumann),
or the shell between two, heart inside torso (Zaremba), where the normals
point out of the shell and so flip sign on the heart.  The double-layer
diagonal carries the identity D 1 = -1/2 across the full row, making
1/2 I + D the exact interior limit at polyhedral vertices.

Each solver returns one ``DirectSolveReport`` holding the boundary pair
(trace, conormal flux) that the Green identity fixes.  Interior values are
``assembly.green_representation`` of that pair, the one interior-value
path of the package; this module never evaluates it.

Conventions:
  - Single closed surface: the domain is its interior, fluxes are reported
    in the stored outward-normal conormal, nu . M grad u.
  - Shell: the heart flux is in the heart-outward (stored) convention,
    nu_i . M grad u, the quantity the reconstruction formulas consume, and
    the Zaremba transfer solves for it directly: it is the negative of the
    shell conormal in the Green identity.
  - Neumann solutions are normalized by the lumped surface mean (area
    weights at vertices) through one bordered Lagrange row, so the discrete
    constraint holds to solver precision.  A block of flux columns shares
    one single-layer product and one product with the bordered inverse.

Operators and solution operators live on what they derive from
(``mesh._memo``), keyed by the tensor, and go when it goes.  Each entry
keeps the one operator its solve applies on every call beside its solution
operator: a closed surface's Dirichlet entry keeps the inverse of B and A,
its Neumann entry the inverse of the bordered matrix and B; the operator a
solve reads only while building is dropped after the build.  The
heart-torso pair, a DomainConfig, keeps only what the protocols read: the
Zaremba transfer and (for cauchy.py) the SVD of the Cauchy problem reduced
onto it; the Neumann step both protocols end in reads the heart's own
Neumann entry through ``_solve_neumann_block``.  The shell's A and B are
built inside the transfer's build and dropped after it.  The Zaremba
transfer maps heart data d straight to the heart-outward flux and the
torso trace [psi; u_t] (the Lambda and T of the reduced Cauchy problem),
for both protocols.  No LU factors are kept: a solve is one matrix
product with a kept solution operator.  Each solution operator Y of
``matrix Y = R`` keeps its build residual |matrix Y - R|_F, and a solve
reports it times the norm of the vector Y is applied to, which bounds the
residual of that solve.  Everything runs on numpy's BLAS, so the
package never wakes a second BLAS thread pool.  Threads that miss an entry
together build it once.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .assembly import assemble_layer, volume_potential
from .errors import IncompatibleData, ShapeMismatch, SolveFailure
from .kernels import as_tensor
from .mesh import DomainConfig, NodalField, _memo, _total_weight, _values_on

__all__ = [
    "DirectSolveReport",
    "solve_dirichlet",
    "solve_neumann_normalized",
    "solve_zaremba",
]

logger = logging.getLogger(__name__)

# a Neumann flux column whose compatibility defect exceeds this times the
# area and the data's scale is incompatible, see _solve_neumann_block
_COMPATIBILITY_TOL = 1e-6


@dataclass(frozen=True)
class DirectSolveReport:
    """Outcome of a direct solve.

    residual_norm bounds the residual of the linear system the kept
    solution operator solves for this data: that operator's build residual
    |matrix Y - R|_F times the 2-norm of the vector Y is applied to (the
    right side, or for the Zaremba transfer the heart data).
    compatibility_defect is the flux/source compatibility defect of a
    Neumann solve, and the flux conservation |oint flux| on the heart of a
    Zaremba solve.  solution_trace / flux_trace live on the primary surface
    (the single surface, or the heart of the shell); solution_trace_outer
    carries the torso trace of a Zaremba solve.  The Dirichlet data of a
    Dirichlet or Zaremba solve is held as the caller's field itself.
    """

    residual_norm: float
    compatibility_defect: float = 0.0
    normalization_value: float = 0.0
    solution_trace: Optional[NodalField] = None
    flux_trace: Optional[NodalField] = None
    solution_trace_outer: Optional[NodalField] = None


def _solution_operator(matrix: np.ndarray, rhs: np.ndarray = None) -> tuple:
    """(Y, |matrix Y - R|_F): Y = ``matrix`` ^-1 ``rhs``, or the inverse
    without ``rhs`` (R = I), read-only; SolveFailure if singular or
    non-finite."""
    try:
        out = np.linalg.inv(matrix) if rhs is None else np.linalg.solve(matrix, rhs)
    except np.linalg.LinAlgError as exc:
        raise SolveFailure(f"factorization failed: {exc}") from exc
    if not np.all(np.isfinite(out)):
        raise SolveFailure("solution operator has non-finite entries")
    misfit = matrix @ out
    if rhs is None:
        misfit[np.diag_indices_from(misfit)] -= 1.0
    else:
        misfit -= rhs
    out.flags.writeable = False
    return out, float(np.linalg.norm(misfit))


def boundary_operators(M, owner):
    """(A, B) of the Green identity A u = B q over the boundary of a domain.

    ``owner`` is a closed mesh (the domain is its interior) or a
    DomainConfig (the shell between heart and torso, heart normals
    flipped).  A = 1/2 I + D, with the diagonal from the full row,
    D 1 = -1/2, and B = S, both over the stacked boundary vertices (heart
    first), so that A u = B q holds for any M-harmonic u in the domain with
    q its conormal on the domain-outward normals.  Built anew on every
    call and kept by none: a closed mesh's Dirichlet and Neumann entries
    each keep the one of A and B their solves apply, and a DomainConfig
    only the transfer ``_zaremba_transfer`` makes of them.  M is a tensor
    as returned by ``as_tensor``.
    """
    shell = isinstance(owner, DomainConfig)
    surfaces = (owner.heart, owner.torso) if shell else (owner,)
    ends = np.cumsum([0] + [s.n_vertices for s in surfaces])
    n = ends[-1]
    a, b = np.empty((n, n)), np.empty((n, n))
    parts = [(slice(lo, hi), s) for lo, hi, s in zip(ends, ends[1:], surfaces)]
    for rows, target in parts:
        for cols, source in parts:
            b[rows, cols] = assemble_layer("single", M, source, target).matrix
            a[rows, cols] = assemble_layer("double", M, source, target).matrix
    if shell:
        a[:, :ends[1]] *= -1.0  # shell-outward normals flip on the heart
    # each surface's diagonal is replaced by the full row's,
    # D 1 = -1/2, before the 1/2 I is added
    np.fill_diagonal(a, 0.0)
    np.fill_diagonal(a, 0.5 + (-0.5 - a.sum(axis=1)))
    return a, b


# ---------------------------------------------------------------------------
# Dirichlet


def solve_dirichlet(M, mesh, u0, g_volume=None):
    """Solve the Dirichlet problem inside one closed mesh; returns the report.

    u0 is a NodalField on ``mesh``, ``g_volume`` an optional
    (InteriorGrid, values) volume source.  The conormal trace solves
    B q = A u0 - T(g) through the inverse of B, kept beside A on the mesh.
    The report's solution_trace is u0 itself, its flux_trace q in the
    stored outward convention.  A DomainConfig raises ShapeMismatch: the
    protocols pose no Dirichlet problem in the shell.
    """
    if isinstance(mesh, DomainConfig):
        raise ShapeMismatch("solve_dirichlet takes one closed mesh, "
                            "not a heart-torso DomainConfig")
    tensor = as_tensor(M, mesh.dim)
    u0v = _values_on(u0, mesh)

    def build():
        a, b = boundary_operators(tensor, mesh)
        return (*_solution_operator(b), a)

    b_inv, build_residual, a = _memo(mesh, ("dirichlet", tensor.tobytes()), build)
    rhs = a @ u0v
    if g_volume is not None:
        grid, g = g_volume
        rhs = rhs - volume_potential(tensor, grid, g, mesh.vertices).values
    return DirectSolveReport(
        residual_norm=build_residual * float(np.linalg.norm(rhs)),
        solution_trace=u0,
        flux_trace=NodalField(mesh.surface_id, b_inv @ rhs, units="mV*mS/cm^2"),
    )


# ---------------------------------------------------------------------------
# normalized Neumann (the transform N_i)


def _solve_neumann_block(tensor, mesh, u1: np.ndarray, source_total: float = 0.0,
                         volume: np.ndarray = None, *,
                         project: bool = False) -> tuple:
    """Normalized Neumann solves for a flux vector (n,) or block (n, k).

    Each column's compatibility defect is its total flux plus
    ``source_total``; a column whose defect exceeds ``_COMPATIBILITY_TOL``
    x area x scale raises IncompatibleData, or with ``project`` is shifted
    by a constant onto the compatible subspace, and one log line counts the
    shifted columns.  ``volume`` (n,), the volume potential at the
    vertices, is added to every column's right side.  All columns share one
    S product and one product with the bordered inverse, kept beside S on
    the mesh (A is read only to build it).  Returns (u0, u1, defect,
    residual, normalization): solutions, the fluxes solved for, and per
    column the signed defect, the residual bound (the bordered inverse's
    build residual times the right side's norm) and w . u0.
    """
    w = mesh.vertex_weights
    area = _total_weight(mesh)
    defect = w @ u1 + source_total
    # a column's scale is its largest |flux|, or the mean source if larger;
    # the floor keeps a zero column's test finite
    scale = np.abs(u1).max(axis=0, initial=max(abs(source_total) / area, 1e-300))
    bad = np.abs(defect) > _COMPATIBILITY_TOL * area * scale
    shifted = np.count_nonzero(bad)
    if shifted:
        worst = np.abs(defect).max(where=bad, initial=0.0)
        if not project:
            raise IncompatibleData(
                f"flux/source compatibility defect {worst:.3e} exceeds "
                f"{_COMPATIBILITY_TOL:.1e} x area x scale"
            )
        u1 = u1 - np.where(bad, defect / area, 0.0)
        logger.info("projected %d of %d Neumann data columns onto the "
                    "compatible subspace (largest defect %.3e)", shifted,
                    bad.size, worst)
    n = mesh.n_vertices

    def bordered():
        # [A, w; w^T, 0]: the right side's last entry is always 0, so only
        # the leading n x n block of the inverse is kept
        a, b = boundary_operators(tensor, mesh)
        big = np.zeros((n + 1, n + 1))
        big[:n, :n] = a
        big[:n, n] = w
        big[n, :n] = w
        del a  # freed before the inverse
        inv, build_residual = _solution_operator(big)
        inv = inv[:n, :n].copy()
        inv.flags.writeable = False
        return inv, build_residual, b

    inv, build_residual, b = _memo(mesh, ("neumann", tensor.tobytes()), bordered)
    rhs = b @ u1
    if volume is not None:
        np.add(rhs.T, volume, out=rhs.T)  # to every column
    u0 = inv @ rhs
    residual = build_residual * np.sqrt(np.vecdot(rhs, rhs, axis=0))
    return u0, u1, defect, residual, w @ u0


def solve_neumann_normalized(M, mesh, u1, g_volume=None, *,
                             project: bool = False):
    """Solve Delta_M u = g, nu . M grad u = u1, with lumped mean zero.

    Checks the compatibility integral (total flux plus total source) before
    solving; a defect beyond 1e-6 relative raises IncompatibleData unless
    ``project`` is set, in which case u1 is shifted by a constant to the
    compatible subspace and the defect is reported.  The normalization
    |oint u dsigma| = 0 is enforced as a bordered linear constraint.
    Returns the report: solution_trace is u, flux_trace the flux solved
    for (u1, or its projection).
    """
    tensor = as_tensor(M, mesh.dim)
    u1v = _values_on(u1, mesh)
    source_total = 0.0
    volume = None
    if g_volume is not None:
        grid, g = g_volume
        source_total = float(grid.integrate(np.asarray(g, float)))
        volume = volume_potential(tensor, grid, g, mesh.vertices).values
    u0, u1v, defect, residual, normalization = _solve_neumann_block(
        tensor, mesh, u1v, source_total, volume, project=project)
    return DirectSolveReport(
        residual_norm=float(residual),
        compatibility_defect=abs(float(defect)),
        normalization_value=float(normalization),
        solution_trace=NodalField(mesh.surface_id, u0),
        flux_trace=NodalField(mesh.surface_id, u1v, units="mV*mS/cm^2"),
    )


# ---------------------------------------------------------------------------
# Zaremba (mixed) problem of the first protocol


def _zaremba_transfer(tensor, domain) -> tuple:
    """(X, build residual), kept on ``domain``; X maps heart data d to
    [psi; u_t].

    Its rows are Lambda (heart trace to heart-outward flux psi) and T
    (heart trace to torso trace) of the mixed problem with an insulated
    torso; the reduced Cauchy problem of ``cauchy.py`` reads the same X.
    The shell's A and B live only for this build.
    """
    def transfer():
        # knowns u_h = d, q_t = 0; the shell conormal on the heart is
        # q_h = -psi, so
        #   A [d; u_t] = B [-psi; 0]  =>  B[:, :nh] psi + A[:, nh:] u_t = -A[:, :nh] d
        # and [psi; u_t] = X d with X = sysmat^-1 (-A[:, :nh])
        a, b = boundary_operators(tensor, domain)
        nh = domain.heart.n_vertices
        sysmat = np.hstack([b[:, :nh], a[:, nh:]])
        rhs = -a[:, :nh]
        del a, b  # freed before the solve
        return _solution_operator(sysmat, rhs)

    return _memo(domain, ("zaremba", tensor.tobytes()), transfer)


def solve_zaremba(M, domain, u_dirichlet_on_heart):
    """Dirichlet data on the heart, zero flux on the torso; returns the report.

    Solves the mixed problem in the shell of ``domain``.  The report's
    flux_trace is nu_i . M grad u on the heart (heart-outward conormal),
    its solution_trace the heart data itself and its solution_trace_outer
    the torso trace.
    """
    heart, torso = domain.heart, domain.torso
    tensor = as_tensor(M, heart.dim)
    d = _values_on(u_dirichlet_on_heart, heart)
    nh = heart.n_vertices
    x, build_residual = _zaremba_transfer(tensor, domain)
    sol = x @ d
    flux, u_t = sol[:nh], sol[nh:]
    return DirectSolveReport(
        residual_norm=build_residual * float(np.linalg.norm(d)),
        compatibility_defect=abs(float(heart.vertex_weights @ flux)),
        solution_trace=u_dirichlet_on_heart,
        solution_trace_outer=NodalField(torso.surface_id, u_t),
        flux_trace=NodalField(heart.surface_id, flux, units="mV*mS/cm^2"),
    )
