"""Steady transmembrane-potential reconstruction and its null space.

The pipeline recovers the intracellular potential from the extracellular
trace and the bath flux on the heart surface:

    u_i = -N_i(Delta_e u_e, 0) + c                      (general tensors)
    u_i = -lambda (u_e - <u_e>) + lambda N_e(0, psi) + c  (M_e = lambda M_i)

where N is the mean-normalized Neumann transform (solve_neumann_normalized),
psi = nu_i . M_b grad u_b is the heart-outward bath flux, <.> the lumped
surface mean, and c the calibration constant fixing the arbitrary additive
constant through oint (u_i + c0 u_e) dsigma = 0.  The two formulas agree
identically: the normalized Neumann solution is mean-free, so the lambda
form needs the explicit mean split (the identity
-N_i(Delta_e u_e, 0) = -lambda(u_e - <u_e>) + N_i(0, psi) holds exactly).

Protocol 1 consumes a measured u_e on the heart: (a) the bath flux
psi = Lambda u_e through the Zaremba transfer, (b) the proportional formula,
(c) v = u_i - u_e.  Protocol 2 first recovers u_e and psi from torso data
via the regularized Cauchy solver, then runs the same tail.  Both protocols
end in one array-level step, ``_proportional_tail``: the normalized Neumann
step under M_i on the heart's kept Neumann entry, which builds no solver
report.  A warm protocol-1 frame is three matrix-vector products with kept
operators: Lambda u_e, B psi and the bordered inverse on that.  No composed
heart map is kept, because folding the three into one matrix saves no
product.

The reconstruction's null space is spanned by compactly supported interior
bumps: u in H^2_0 of the heart domain, u_e = u, u_b = 0, u_i from the same
formulas; every such triple leaves the body-surface data untouched.
"""

from __future__ import annotations

import json
import logging
import os
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .cauchy import TikhonovConfig, _heart_trace
from .direct import (_solve_neumann_block, _zaremba_transfer,
                     solve_neumann_normalized)
from .errors import MissingInteriorData, ShapeMismatch, SupportTouchesBoundary
from .grid import InteriorGrid
from .kernels import ConductivityModel
from .mesh import (DomainConfig, NodalField, _rows_on, _total_weight,
                   _values_on, _write_text, points_inside, save_mesh,
                   save_nodal_field, surface_distance)

__all__ = [
    "ReconstructionOutput",
    "CubicRadial",
    "NullSpaceElement",
    "reconstruct_ui_general",
    "run_protocol_1",
    "run_protocol_2",
    "generate_nullspace_element",
    "write_reconstruction",
]

logger = logging.getLogger(__name__)


@dataclass(frozen=True)
class ReconstructionOutput:
    """Recovered heart-surface fields; v = u_i - u_e holds nodewise.

    ``c`` is the calibration constant and is held here only; ``diagnostics``
    holds the solves' residuals, defects and flags.
    """

    u_e: NodalField
    u_i: NodalField
    v: NodalField
    c: float
    diagnostics: dict = field(default_factory=dict)


def _calibration(mesh, u_e: np.ndarray, c0: float) -> tuple:
    """(c, <u_e>): the calibration constant c = -c0 <u_e>, which fixes
    oint(u_i + c0 u_e) dsigma = 0, and the surface mean it is made from.

    u_e is the extracellular trace on the heart surface, equal to the bath
    trace by transmission, (n,) or (n, F); the mean is lumped quadrature.
    """
    mean = mesh.vertex_weights @ u_e / _total_weight(mesh)
    return -c0 * mean, mean


def _check_proportional(model: ConductivityModel) -> None:
    """ShapeMismatch unless the model has a lambda, M_e = lambda M_i; each
    caller of ``_proportional_tail`` checks before it builds anything."""
    if model.lam is None:
        raise ShapeMismatch("proportional reconstruction needs the model lambda")


def _proportional_tail(heart, model: ConductivityModel, d: np.ndarray,
                       psi: np.ndarray, c0: float) -> tuple:
    """Proportional-case intracellular trace from the heart data d and the
    bath flux psi, (nh,) or blocks (nh, F) with one c and one number per
    diagnostic a column: (u_i, c, diagnostics), with no report and no
    NodalField built.  Both protocols end in it.

    u_i = -lambda (d - <d>) + N_i(0, psi) + c.  The Neumann step runs with
    tensor M_i (lambda N_{M_e} = N_{M_i} for proportional tensors) and
    projects the flux onto the compatible subspace: discrete conservation
    holds only to quadrature accuracy and the defect is reported instead of
    rejected.
    """
    u0, _, defect, residual, normalization = _solve_neumann_block(
        model.M_i, heart, psi, project=True)
    c, mean = _calibration(heart, d, c0)
    ui = -float(model.lam) * (d - mean) + u0 + c
    diagnostics = {
        "neumann_residual": residual,
        "flux_defect": np.abs(defect),
        "normalization": normalization,
    }
    return ui, c, diagnostics


def reconstruct_ui_general(u_e: NodalField, M_i, M_e, c0: float, heart,
                           interior) -> tuple:
    """General-tensor intracellular trace, u_i = -N_i(Delta_e u_e, 0) + c.

    ``interior`` is (InteriorGrid, u_e samples on the grid box), so the
    volume source Delta_e u_e is computable by finite differences; None
    raises MissingInteriorData, since the formula then has no data to act
    on.  The Neumann problem has zero flux, so its compatibility defect,
    reported as ``source_defect``, is the volume integral of the source,
    which the divergence identity balances against the bath flux.
    """
    if interior is None:
        raise MissingInteriorData(
            "general reconstruction needs interior grid samples of u_e"
        )
    grid, ue_grid = interior
    if not isinstance(grid, InteriorGrid):
        raise ShapeMismatch("interior must be (InteriorGrid, samples)")
    ue = _values_on(u_e, heart)
    g = grid.elliptic_apply(M_e, np.asarray(ue_grid, dtype=float))
    zero_flux = NodalField(heart.surface_id, np.zeros(heart.n_vertices),
                           units="mV*mS/cm^2")
    rep = solve_neumann_normalized(M_i, heart, zero_flux,
                                   g_volume=(grid, g), project=True)
    c, _ = _calibration(heart, ue, c0)
    ui = -rep.solution_trace.values + c
    diagnostics = {
        "neumann_residual": rep.residual_norm,
        "source_defect": rep.compatibility_defect,
        "normalization": rep.normalization_value,
    }
    return NodalField(heart.surface_id, ui), c, diagnostics


def run_protocol_1(domain: DomainConfig, model: ConductivityModel,
                   u_e_measured: NodalField, c0: float = 1.0) -> ReconstructionOutput:
    """Measured extracellular trace to transmembrane potential.

    (a) the bath flux psi = Lambda u_e through the kept Zaremba transfer,
    (b) the proportional reconstruction of u_i, (c) v = u_i - u_e.
    zaremba_residual and neumann_residual bound the residuals of the two
    solves: each kept solution operator's build residual times the norm of
    the vector it is applied to (see ``DirectSolveReport``); flux_defect is
    |w . psi| and normalization w . u0 of the Neumann step, which projects
    psi onto the compatible subspace when the defect fails the test of
    ``solve_neumann_normalized``.
    """
    heart = domain.heart
    d = _values_on(u_e_measured, heart)
    _check_proportional(model)
    x, build_residual = _zaremba_transfer(model.M_b, domain)
    ui, c, diag = _proportional_tail(heart, model, d, x[:heart.n_vertices] @ d, c0)
    diag = {k: float(v) for k, v in diag.items()}
    diag["zaremba_residual"] = build_residual * float(np.linalg.norm(d))
    return ReconstructionOutput(u_e_measured, NodalField(heart.surface_id, ui),
                                NodalField(heart.surface_id, ui - d), float(c), diag)


def _protocol_2_block(domain: DomainConfig, model: ConductivityModel,
                      surface_id: str, f: np.ndarray,
                      tikhonov: Optional[TikhonovConfig], c0: float) -> tuple:
    """Protocol 2 on torso frames f (nt, F) on ``surface_id`` in one pass of
    matrix products: (u_e, u_i, c, diagnostics, flags), c and each
    diagnostic one number a frame, each Cauchy flag with the frames it
    fired in; a frame's results are ``run_protocol_2``'s, to rounding."""
    _check_proportional(model)
    f = _rows_on(surface_id, f, domain.torso)
    alpha, residual, u, flux, flags, _ = _heart_trace(model.M_b, domain, f, tikhonov)
    ui, c, diagnostics = _proportional_tail(domain.heart, model, u, flux, c0)
    diagnostics.update(chosen_alpha=alpha, cauchy_residual=residual)
    return u, ui, c, diagnostics, flags


def run_protocol_2(domain: DomainConfig, model: ConductivityModel,
                   f: NodalField, tikhonov: Optional[TikhonovConfig] = None,
                   c0: float = 1.0) -> ReconstructionOutput:
    """Torso potential to transmembrane potential via the Cauchy solver.

    Recovers the heart trace and flux from the torso potential (insulated
    body surface) as ``solve_cauchy_elliptic`` does, then runs the
    protocol-1 tail on them: the one-frame block of ``_protocol_2_block``.
    cauchy_residual is the torso misfit |T u_h - f| at the chosen alpha;
    every flag the Cauchy solve sets (a fallback, zero data) is set in the
    diagnostics.
    """
    heart = domain.heart
    fv = _values_on(f, domain.torso)[:, None]
    u_e, u_i, c, numbers, flags = _protocol_2_block(
        domain, model, f.surface_id, fv, tikhonov, c0)
    u_e, u_i = (NodalField(heart.surface_id, x[:, 0]) for x in (u_e, u_i))
    return ReconstructionOutput(
        u_e, u_i, NodalField(heart.surface_id, u_i.values - u_e.values), float(c[0]),
        {k: float(v[0]) for k, v in numbers.items()} | dict.fromkeys(flags, True))


# ---------------------------------------------------------------------------
# null space


@dataclass(frozen=True)
class CubicRadial:
    """u = amplitude max(0, 1 - |x-center|^2/radius^2)^3: the smallest
    closed-form bump with u and grad u vanishing on its support boundary."""

    center: tuple
    radius: float
    amplitude: float = 1.0

    def __post_init__(self):
        if not self.radius > 0:
            raise ShapeMismatch("bump radius must be positive")

    def __call__(self, pts: np.ndarray) -> np.ndarray:
        d2 = np.sum((np.atleast_2d(pts) - np.asarray(self.center)) ** 2, axis=1)
        return self.amplitude * np.maximum(0.0, 1.0 - d2 / self.radius ** 2) ** 3

    def gradient(self, pts: np.ndarray) -> np.ndarray:
        pts = np.atleast_2d(pts)
        diff = pts - np.asarray(self.center)
        d2 = np.sum(diff ** 2, axis=1)
        s = np.maximum(0.0, 1.0 - d2 / self.radius ** 2)
        coef = -6.0 * self.amplitude * s ** 2 / self.radius ** 2
        return coef[:, None] * diff


@dataclass(frozen=True, eq=False)
class NullSpaceElement:
    """A triple (u_e, u_i, u_b = 0) invisible to the body surface.

    u_interior are the bump samples on the grid, traces are heart-surface
    NodalFields (u_trace and grad_trace_norm are exactly zero by support),
    and u_i_interior the matching intracellular samples where available
    (proportional case: -lambda u exactly).
    """

    bump: CubicRadial
    grid: InteriorGrid
    u_interior: np.ndarray
    u_e_trace: NodalField
    u_i_trace: NodalField
    grad_trace_norm: float
    proportional: bool
    u_i_interior: Optional[np.ndarray] = None
    diagnostics: dict = field(default_factory=dict)


def generate_nullspace_element(heart, grid: InteriorGrid,
                               model: ConductivityModel, bump: CubicRadial,
                               proportional: bool = True) -> NullSpaceElement:
    """Build and certify one null-space triple from a cubic radial bump.

    The support must lie strictly inside the heart surface; the calibrated
    constant of the triple is zero because the trace is identically zero.
    """
    gap = float(surface_distance(heart, bump.center)[0])
    if not points_inside(heart, bump.center)[0]:
        raise SupportTouchesBoundary("bump center is outside the heart surface")
    if gap <= bump.radius:
        raise SupportTouchesBoundary(
            f"bump support (radius {bump.radius}) reaches within {gap:.3e} "
            "of the heart surface"
        )
    u_grid = bump(grid.centers())
    trace = bump(heart.vertices)
    grad_trace = bump.gradient(heart.vertices)
    u_e_trace = NodalField(heart.surface_id, trace)
    c, _ = _calibration(heart, u_e_trace.values, 1.0)
    diagnostics = {"c": c, "support_gap": gap - bump.radius}
    ui_grid = None
    if proportional:
        if model.lam is None:
            raise ShapeMismatch("proportional null-space element needs lambda")
        ui_field = NodalField(heart.surface_id, -float(model.lam) * trace + c)
        ui_grid = -float(model.lam) * u_grid + c
    else:
        ui_field, c_gen, diag = reconstruct_ui_general(
            u_e_trace, model.M_i, model.M_e, 1.0, heart, (grid, u_grid))
        diagnostics.update(diag)
        diagnostics["c"] = c_gen
    return NullSpaceElement(
        bump=bump, grid=grid, u_interior=u_grid, u_e_trace=u_e_trace,
        u_i_trace=ui_field, grad_trace_norm=float(np.abs(grad_trace).max()),
        proportional=proportional, u_i_interior=ui_grid,
        diagnostics=diagnostics,
    )


# ---------------------------------------------------------------------------
# output


def write_reconstruction(out: ReconstructionOutput, directory, heart,
                         vtk: bool = False) -> dict:
    """Write u_e, u_i and v as CSVs, ``reconstruction.json``, optionally VTK.

    ``reconstruction.json`` holds each number of ``out`` once: ``c`` at its
    top, the numeric diagnostics under ``diagnostics``, the flags under
    ``flags``, beside the file names and the surface id; the dict written
    is returned.  A CLI run manifest repeats none of it.  File contents are
    deterministic: the CSVs hold repr-exact floats (``save_nodal_field``,
    which spells them with ``mesh._spell_floats``), and nothing holds a
    timestamp.  Files are rewritten in place (see ``mesh._write_text``).
    ``directory`` (a ``str`` or path-like) and its parents are made when it
    is not a directory yet; a path that is a file raises
    ``FileExistsError``.  Paths are joined as strings: building ``Path``
    objects costs a measurable share of a small write.
    """
    directory = os.fspath(directory) or os.curdir
    if not os.path.isdir(directory):
        os.makedirs(directory, exist_ok=True)
    files = {}
    for name in ("u_e", "u_i", "v"):
        files[name] = name + ".csv"
        save_nodal_field(getattr(out, name), os.path.join(directory, files[name]))
    manifest = {
        "c": out.c,
        "diagnostics": {k: (float(v) if np.isscalar(v) or isinstance(v, (int, float)) else
                            [float(x) for x in np.atleast_1d(v)])
                        for k, v in out.diagnostics.items()
                        if not isinstance(v, (str, bool))},
        "flags": {k: v for k, v in out.diagnostics.items() if isinstance(v, (str, bool))},
        "files": files,
        "surface": heart.surface_id,
    }
    if vtk:
        vtk_path = os.path.join(directory, "reconstruction.vtk")
        save_mesh(heart, vtk_path, point_data={
            "u_e": out.u_e.values, "u_i": out.u_i.values, "v": out.v.values,
        })
        manifest["files"]["vtk"] = "reconstruction.vtk"
    _write_text(os.path.join(directory, "reconstruction.json"),
                json.dumps(manifest, indent=1, sort_keys=True) + "\n")
    return manifest
