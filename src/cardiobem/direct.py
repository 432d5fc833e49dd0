"""Well-posed boundary value solvers: Dirichlet, normalized Neumann, Zaremba.

All solvers collocate the interior-limit Green identity

    A u0 = B u1 + T(g) on the boundary,   A = 1/2 I + D_pv,  B = S,

over the whole boundary of their domain, built once by
``boundary_operators``.  The domain is the interior of one closed surface,
or the shell between two (heart inside torso), where the normals point out
of the shell and so flip sign on the heart.  The double-layer diagonal
carries the identity D 1 = -1/2 across the full row, making 1/2 I + D the
exact interior limit at polyhedral vertices.

Conventions:
  - Single closed surface: the domain is its interior, fluxes are reported
    in the stored outward-normal conormal, nu . M grad u.
  - Shell: reported heart flux is in the heart-outward (stored) convention,
    nu_i . M grad u, the quantity the reconstruction formulas consume; the
    internal unknown is the shell conormal, which is its negative.
  - Neumann solutions are normalized by the lumped surface mean (area
    weights at vertices) through one bordered Lagrange row, so the discrete
    constraint holds to solver precision.  A block of flux columns shares
    one single-layer product and one product with the bordered inverse.

Operators and solution operators live on what they derive from
(``mesh._memo``), keyed by the tensor, and go when it goes.  A closed
surface keeps its own A and B, the inverse of its Dirichlet matrix B and
that of its bordered Neumann matrix.  The heart-torso pair, a
DomainConfig, keeps the shell's A and B (the only copies of their layer
blocks), the inverse of B, the Zaremba transfer and (for cauchy.py) the SVD
of the Cauchy problem in standard form.  No LU factors are kept: a solve is
one matrix product with a kept solution operator, and its residual is
formed from the kept operators.  The Zaremba transfer maps heart data d
straight to the unknowns [q_h; u_t] (the Lambda and T of the reduced Cauchy
problem).  Everything runs on numpy's BLAS, so the package never wakes a
second BLAS thread pool.  Threads that miss an entry together build it
once.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .assembly import assemble_layer, green_representation, volume_potential
from .errors import IncompatibleData, ShapeMismatch, SolveFailure
from .kernels import as_tensor
from .mesh import DomainConfig, NodalField, _memo

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


def _solution_operator(matrix: np.ndarray, rhs: np.ndarray = None) -> np.ndarray:
    """``matrix`` ^-1 ``rhs``, or the inverse without ``rhs``, read-only;
    SolveFailure if singular or non-finite."""
    try:
        out = np.linalg.inv(matrix) if rhs is None else np.linalg.solve(matrix, rhs)
    except np.linalg.LinAlgError as exc:
        raise SolveFailure(f"factorization failed: {exc}") from exc
    if not np.all(np.isfinite(out)):
        raise SolveFailure("solution operator has non-finite entries")
    out.flags.writeable = False
    return out


def _values_on(field, mesh) -> np.ndarray:
    """The values of ``field`` after checking it is a NodalField on ``mesh``."""
    if not isinstance(field, NodalField):
        raise ShapeMismatch(f"expected a NodalField on {mesh.surface_id!r}, "
                            f"got {type(field).__name__}")
    return field.check_on(mesh)


def boundary_operators(M, owner):
    """(A, B) of the Green identity A u = B q over the boundary of a domain.

    ``owner`` is a closed mesh (the domain is its interior) or a
    DomainConfig (the shell between heart and torso, heart normals
    flipped).  A = 1/2 I + D, with the diagonal from the full row,
    D 1 = -1/2, and B = S, both over the stacked boundary vertices (heart
    first), so that A u = B q holds for any M-harmonic u in the domain with
    q its conormal on the domain-outward normals.  Kept on ``owner``.  M is
    a tensor as returned by ``as_tensor``.
    """
    def build():
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

    return _memo(owner, ("operators", M.tobytes()), build)


def _interior_values(M, meshes, traces, fluxes, targets,
                     g_volume=None) -> np.ndarray:
    """Green representation inside the domain bounded by the given meshes.

    traces and fluxes are nodal values per mesh, fluxes in the stored
    outward conormal (heart-outward on the shell).  Only a single closed
    surface carries a volume source; ``solve_dirichlet`` rejects one on
    the shell.
    """
    pts = np.atleast_2d(np.asarray(targets, dtype=float))

    def term(i, g=None):
        mesh = meshes[i]
        return green_representation(M, mesh, NodalField(mesh.surface_id, traces[i]),
                                    NodalField(mesh.surface_id, fluxes[i]), pts, g)

    if len(meshes) == 1:
        return term(0, g_volume)
    # the shell is the inside of the torso minus the inside of the heart
    return term(1) - term(0)


# ---------------------------------------------------------------------------
# Dirichlet


def solve_dirichlet(M, domain, u0, targets=None, g_volume=None):
    """Solve the Dirichlet problem, returning interior values and traces.

    domain: a single closed mesh (problem posed in its interior, with u0 a
    NodalField and an optional volume source ``g_volume``) or a
    DomainConfig (problem posed in the shell between heart and torso, with
    u0 a (heart_field, torso_field) pair and no volume source).  Either way
    the unknown conormal trace solves B q = A u0 with the domain's operators
    of ``boundary_operators``; interior values are then evaluated by the
    representation formula.  Fluxes are reported in each surface's stored
    outward convention.
    """
    shell = isinstance(domain, DomainConfig)
    surfaces = (domain.heart, domain.torso) if shell else (domain,)
    tensor = as_tensor(M, surfaces[0].dim)
    if not shell:
        fields = (u0,)
    elif g_volume is not None:
        raise ShapeMismatch("shell Dirichlet takes no volume source")
    else:
        try:
            u0_h, u0_t = u0
        except (TypeError, ValueError) as exc:
            raise ShapeMismatch(
                "shell Dirichlet needs (heart_field, torso_field) data"
            ) from exc
        fields = (u0_h, u0_t)
    traces = [_values_on(f, s) for f, s in zip(fields, surfaces)]
    a, b = boundary_operators(tensor, domain)
    rhs = a @ np.concatenate(traces)
    if g_volume is not None:
        grid, g = g_volume
        rhs = rhs - volume_potential(tensor, grid, g, domain.vertices).values
    b_inv = _memo(domain, ("dirichlet", tensor.tobytes()),
                  lambda: _solution_operator(b))
    q = b_inv @ rhs
    residual = float(np.linalg.norm(b @ q - rhs))
    nh = surfaces[0].n_vertices
    # heart-outward convention: negate the shell conormal on the heart
    fluxes = [-q[:nh], q[nh:]] if shell else [q]
    u = [NodalField(s.surface_id, t) for s, t in zip(surfaces, traces)] + [None]
    flux = [NodalField(s.surface_id, f, units="mV*mS/cm^2")
            for s, f in zip(surfaces, fluxes)] + [None]
    report = DirectSolveReport(
        residual_norm=residual,
        solution_trace=u[0],
        flux_trace=flux[0],
        solution_trace_outer=u[1],
        flux_trace_outer=flux[1],
    )
    values = None
    if targets is not None:
        values = _interior_values(tensor, surfaces, traces, fluxes, targets,
                                  g_volume=g_volume)
    return values, report


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
    S product and one product with the kept bordered inverse.  Returns (u0,
    u1, defect, residual, normalization): solutions, the fluxes solved for,
    and per column the signed defect, the residual norm and w . u0.
    """
    w = mesh.vertex_weights
    area = float(w.sum())
    defect = w @ u1 + source_total
    scale = np.maximum(np.abs(u1).max(axis=0, initial=0.0),
                       abs(source_total) / area)
    bad = np.abs(defect) > _COMPATIBILITY_TOL * area * np.maximum(scale, 1e-300)
    if bad.any():
        worst = np.abs(defect).max(where=bad, initial=0.0)
        if not project:
            raise IncompatibleData(
                f"flux/source compatibility defect {worst:.3e} exceeds "
                f"{_COMPATIBILITY_TOL:.1e} x area x scale"
            )
        u1 = u1 - np.where(bad, defect / area, 0.0)
        logger.info("projected %d of %d Neumann data columns onto the "
                    "compatible subspace (largest defect %.3e)", bad.sum(),
                    bad.size, worst)
    a, b = boundary_operators(tensor, mesh)
    rhs = b @ u1
    if volume is not None:
        np.add(rhs.T, volume, out=rhs.T)  # to every column
    n = mesh.n_vertices

    def bordered():
        # [A, w; w^T, 0]: the right side's last entry is always 0, so only
        # the leading n x n block of the inverse is kept
        big = np.zeros((n + 1, n + 1))
        big[:n, :n] = a
        big[:n, n] = w
        big[n, :n] = w
        inv = _solution_operator(big)[:n, :n].copy()
        inv.flags.writeable = False
        return inv

    inv = _memo(mesh, ("neumann", tensor.tobytes()), bordered)
    u0 = inv @ rhs
    residual = np.linalg.norm(a @ u0 - rhs, axis=0)
    return u0, u1, defect, residual, w @ u0


def solve_neumann_normalized(M, mesh, u1, g_volume=None, targets=None, *,
                             project: bool = False):
    """Solve Delta_M u = g, nu . M grad u = u1, with lumped mean zero.

    Checks the compatibility integral (total flux plus total source) before
    solving; a defect beyond 1e-6 relative raises IncompatibleData unless
    ``project`` is set, in which case u1 is shifted by a constant to the
    compatible subspace and the defect is reported.  The normalization
    |oint u dsigma| = 0 is enforced as a bordered linear constraint.
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


def solve_zaremba(M, domain, u_dirichlet_on_heart):
    """Dirichlet data on the heart, zero flux on the torso: heart flux out.

    Solves the mixed problem in the shell of ``domain`` and returns
    nu_i . M grad u on the heart (heart-outward conormal) as a NodalField
    plus the report; the torso trace rides along as solution_trace_outer.
    """
    heart, torso = domain.heart, domain.torso
    tensor = as_tensor(M, heart.dim)
    d = _values_on(u_dirichlet_on_heart, heart)
    nh = heart.n_vertices
    a, b = boundary_operators(tensor, domain)

    def transfer():
        # unknowns [q_h; u_t]; knowns u_h = d, q_t = 0:
        #   A [d; u_t] = B [q_h; 0]  =>  -B[:, :nh] q_h + A[:, nh:] u_t = -A[:, :nh] d
        # so [q_h; u_t] = X d with X = sysmat^-1 (-A[:, :nh])
        sysmat = np.hstack([-b[:, :nh], a[:, nh:]])
        return _solution_operator(sysmat, -a[:, :nh])

    x = _memo(domain, ("zaremba", tensor.tobytes()), transfer)
    sol = x @ d
    q_h, u_t = sol[:nh], sol[nh:]
    residual = float(np.linalg.norm(a @ np.concatenate([d, u_t])
                                    - b[:, :nh] @ q_h))
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
