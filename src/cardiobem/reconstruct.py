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
(c) v = u_i - u_e.  Protocol 2 first recovers u_e from torso data via the
regularized Cauchy solver, then runs the same tail.  With the meshes and the
model fixed that tail is linear in u_e, and the DomainConfig keeps it as one
heart map per (M_b, M_i, lambda), ``_HeartMap``: u_i = H u_e + c, with
H = -lambda (I - 1 w^T / area) + N B Lambda composed once from the kept
Zaremba transfer and the heart's kept Neumann entry.  A warm frame of either
protocol is then three matrix-vector products (Lambda u_e, H u_e and B psi
for the Neumann residual bound) and calls no solver; a flux that fails the
Neumann step's compatibility test has that step's projection replayed as a
rank-1 correction.  reconstruct_ui_proportional is the same tail through the
public Neumann solver, for a (u_e, psi) pair from elsewhere.

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
from .direct import (_compatible_shift, _neumann_entry, _values_on,
                     _zaremba_transfer, solve_neumann_normalized)
from .errors import MissingInteriorData, ShapeMismatch, SupportTouchesBoundary
from .grid import InteriorGrid
from .kernels import ConductivityModel, as_tensor
from .mesh import (DomainConfig, NodalField, _memo, _write_text, points_inside,
                   save_mesh, save_nodal_field, surface_distance)

__all__ = [
    "ReconstructionOutput",
    "CubicRadial",
    "NullSpaceElement",
    "calibration_constant",
    "reconstruct_ui_proportional",
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


def calibration_constant(u_b_trace: NodalField, c0: float, mesh) -> float:
    """c = -c0 <u_b>_sigma, the constant fixing oint(u_i + c0 u_e) = 0.

    u_b_trace is the bath potential trace on the heart surface (equal to the
    extracellular trace by transmission); the mean is lumped quadrature.
    """
    return -c0 * _surface_mean(mesh, u_b_trace.check_on(mesh))


def _surface_mean(mesh, vals: np.ndarray) -> float:
    w = mesh.vertex_weights
    return float((w @ vals) / w.sum())


def reconstruct_ui_proportional(u_e: NodalField, heart_flux_of_ub: NodalField,
                                model: ConductivityModel, c0: float,
                                heart) -> tuple:
    """Proportional-case intracellular trace from u_e and the bath flux.

    Returns (u_i NodalField, c, diagnostics).  The Neumann step runs with
    tensor M_i (lambda N_{M_e} = N_{M_i} for proportional tensors) and
    projects the flux onto the compatible subspace: discrete conservation
    holds only to quadrature accuracy and the defect is reported instead of
    rejected.
    """
    if model.lam is None:
        raise ShapeMismatch("proportional reconstruction needs the model lambda")
    ue = u_e.check_on(heart)
    lam = float(model.lam)
    rep = solve_neumann_normalized(model.M_i, heart, heart_flux_of_ub,
                                   project=True)
    c = calibration_constant(u_e, c0, heart)
    ui = -lam * (ue - _surface_mean(heart, ue)) + rep.solution_trace.values + c
    diagnostics = {
        "neumann_residual": rep.residual_norm,
        "flux_defect": rep.compatibility_defect,
        "normalization": rep.normalization_value,
    }
    return NodalField(heart.surface_id, ui), c, diagnostics


def reconstruct_ui_general(u_e: NodalField, heart_flux_of_ub: NodalField,
                           M_i, M_e, c0: float, heart,
                           interior=None) -> tuple:
    """General-tensor intracellular trace, u_i = -N_i(Delta_e u_e, 0) + c.

    ``interior`` must supply (InteriorGrid, u_e samples on the grid box) so
    the volume source Delta_e u_e is computable by finite differences;
    without it the formula has no data to act on and MissingInteriorData is
    raised.  heart_flux_of_ub enters only through the compatibility defect
    (the flux of the Neumann problem is zero; the volume integral of the
    source balances it by the divergence identity).
    """
    if interior is None:
        raise MissingInteriorData(
            "general reconstruction needs interior grid samples of u_e"
        )
    grid, ue_grid = interior
    if not isinstance(grid, InteriorGrid):
        raise ShapeMismatch("interior must be (InteriorGrid, samples)")
    ue = u_e.check_on(heart)
    tensor_e = as_tensor(M_e, 3)
    g = grid.elliptic_apply(tensor_e, np.asarray(ue_grid, dtype=float))
    zero_flux = NodalField(heart.surface_id, np.zeros(heart.n_vertices),
                           units="mV*mS/cm^2")
    rep = solve_neumann_normalized(as_tensor(M_i, 3), heart, zero_flux,
                                   g_volume=(grid, g), project=True)
    c = calibration_constant(u_e, c0, heart)
    ui = -rep.solution_trace.values + c
    diagnostics = {
        "neumann_residual": rep.residual_norm,
        "source_defect": rep.compatibility_defect,
        "normalization": rep.normalization_value,
    }
    return NodalField(heart.surface_id, ui), c, diagnostics


@dataclass(frozen=True)
class _HeartMap:
    """The tail both protocols end with, as kept operators of one
    (domain, M_b, M_i, lambda).

    For heart data d, psi = Lambda d is the heart-outward bath flux (the
    heart rows of the Zaremba transfer under M_b) and u_i = H d + c, with

        H = -lambda (I - 1 w^T / area) + N B Lambda,

    N and B the heart's Neumann entry under M_i and w the lumped vertex
    weights: the proportional formula with the normalized Neumann transform
    N B folded in.  ``row`` = w^T N B Lambda gives the transform's
    normalization w . u0.  When psi fails the compatibility test of
    ``direct._compatible_shift``, the Neumann step solves for psi - s 1,
    s = defect / area, which takes s ``n1`` (n1 = N B 1) off u_i, s ``b1``
    (b1 = B 1) off the right side B psi and s w . n1 off the normalization.
    Lambda and B are the kept entries themselves; only H and the vectors
    are new.
    """

    h: np.ndarray
    flux_rows: np.ndarray  # Lambda
    b: np.ndarray
    row: np.ndarray
    n1: np.ndarray
    b1: np.ndarray
    zaremba_residual: float  # build residuals of the transfer and of N
    neumann_residual: float

    def output(self, heart, u_e: NodalField, c0: float,
               diagnostics: dict) -> ReconstructionOutput:
        """The tail on heart data u_e: the flux, u_i, v = u_i - u_e, and
        the Neumann step's diagnostics before ``diagnostics``; the output
        holds ``u_e`` itself."""
        d = u_e.values
        w = heart.vertex_weights
        flux = self.flux_rows @ d
        rhs = self.b @ flux
        ui = self.h @ d
        normalization = float(self.row @ d)
        defect = float(w @ flux)
        shift = _compatible_shift(defect, np.abs(flux).max(initial=0.0),
                                  float(w.sum()), project=True)
        if shift is not None:
            s = float(shift)
            ui -= s * self.n1
            rhs -= s * self.b1
            normalization -= s * float(w @ self.n1)
        c = calibration_constant(u_e, c0, heart)
        ui += c
        diag = {
            "neumann_residual": self.neumann_residual * float(np.linalg.norm(rhs)),
            "flux_defect": abs(defect),
            "normalization": normalization,
        }
        diag.update(diagnostics)
        return ReconstructionOutput(
            u_e=u_e,
            u_i=NodalField(heart.surface_id, ui),
            v=NodalField(heart.surface_id, ui - d),
            c=c,
            diagnostics=diag,
        )


def _heart_map(domain: DomainConfig, model: ConductivityModel) -> _HeartMap:
    """The kept ``_HeartMap`` of ``domain`` for ``model``, built on a miss
    from the kept Zaremba transfer and heart Neumann entry."""
    if model.lam is None:
        raise ShapeMismatch("proportional reconstruction needs the model lambda")
    heart = domain.heart
    lam = float(model.lam)
    tensor_b = as_tensor(model.M_b, heart.dim)
    tensor_i = as_tensor(model.M_i, heart.dim)

    def build():
        x, zaremba_residual = _zaremba_transfer(tensor_b, domain)
        inv, neumann_residual, b = _neumann_entry(tensor_i, heart)
        flux_rows = x[:heart.n_vertices]
        w = heart.vertex_weights
        h = inv @ (b @ flux_rows)
        row = w @ h
        h[np.diag_indices_from(h)] -= lam
        h += (lam / float(w.sum())) * w  # lambda 1 w^T / area, row by row
        b1 = b.sum(axis=1)
        n1 = inv @ b1
        for arr in (h, row, b1, n1):
            arr.flags.writeable = False
        return _HeartMap(h, flux_rows, b, row, n1, b1, zaremba_residual,
                         neumann_residual)

    return _memo(domain, ("heart_map", tensor_b.tobytes(), tensor_i.tobytes(),
                          lam), build)


def run_protocol_1(domain: DomainConfig, model: ConductivityModel,
                   u_e_measured: NodalField, c0: float = 1.0) -> ReconstructionOutput:
    """Measured extracellular trace to transmembrane potential.

    (a) the bath flux through the Zaremba transfer, (b) the proportional
    reconstruction of u_i, (c) v = u_i - u_e, all through the kept
    ``_HeartMap``.  zaremba_residual and neumann_residual bound the
    residuals of the two solves: each kept solution operator's build
    residual times the norm of the vector it is applied to (see
    ``DirectSolveReport``); flux_defect is |w . psi| and normalization
    w . u0 of the Neumann step, which projects psi onto the compatible
    subspace when the defect fails the test of ``solve_neumann_normalized``.
    """
    d = _values_on(u_e_measured, domain.heart)
    m = _heart_map(domain, model)
    return m.output(domain.heart, u_e_measured, c0, {
        "zaremba_residual": m.zaremba_residual * float(np.linalg.norm(d))})


def run_protocol_2(domain: DomainConfig, model: ConductivityModel,
                   f: NodalField, tikhonov: Optional[TikhonovConfig] = None,
                   c0: float = 1.0) -> ReconstructionOutput:
    """Torso potential to transmembrane potential via the Cauchy solver.

    Recovers the heart trace from the torso potential (insulated body
    surface) as ``solve_cauchy_elliptic`` does, then runs the protocol-1
    tail on it, the flux included.  cauchy_residual is the torso misfit
    |T u_h - f| at the chosen alpha; every flag the Cauchy solve sets (a
    fallback, zero data) is set in the diagnostics.
    """
    heart = domain.heart
    alpha, residual, u, cauchy = _heart_trace(
        as_tensor(model.M_b, heart.dim), domain, f, tikhonov)
    diagnostics = {"chosen_alpha": alpha, "cauchy_residual": residual}
    diagnostics.update({k: True for k, v in cauchy.items() if v is True})
    return _heart_map(domain, model).output(
        heart, NodalField(heart.surface_id, u), c0, diagnostics)


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


@dataclass(frozen=True)
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
    center = np.asarray(bump.center, dtype=float)
    gap = float(surface_distance(heart, center[None, :])[0])
    if not points_inside(heart, center[None, :])[0]:
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
    c = calibration_constant(u_e_trace, 1.0, heart)
    diagnostics = {"c": c, "support_gap": gap - bump.radius}
    ui_grid = None
    if proportional:
        if model.lam is None:
            raise ShapeMismatch("proportional null-space element needs lambda")
        ui_field = NodalField(heart.surface_id, -float(model.lam) * trace + c)
        ui_grid = -float(model.lam) * u_grid + c
    else:
        ui_field, c_gen, diag = reconstruct_ui_general(
            u_e_trace, NodalField(heart.surface_id, np.zeros(heart.n_vertices)),
            model.M_i, model.M_e, 1.0, heart, interior=(grid, u_grid),
        )
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
    deterministic: repr-exact floats (``mesh._format_rows``), no
    timestamps.  Files are rewritten in place (see ``mesh._write_text``).  ``directory`` (a ``str`` or path-like)
    and its parents are made when it is not a directory yet; a path that is
    a file raises ``FileExistsError``.  Paths are joined as strings: building
    ``Path`` objects costs a measurable share of a small write.
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
        save_mesh(heart, vtk_path, fmt="vtk", point_data={
            "u_e": out.u_e.values, "u_i": out.u_i.values, "v": out.v.values,
        })
        manifest["files"]["vtk"] = "reconstruction.vtk"
    _write_text(os.path.join(directory, "reconstruction.json"),
                json.dumps(manifest, indent=1, sort_keys=True) + "\n")
    return manifest
