"""Parabolic potentials, the heat Green identity, the evolution right side.

All of it concerns the constant-coefficient operator

    L = d_t - div(A grad) + a . grad + a0,     A = scale * M  (SPD),

held by a :class:`~cardiobem.kernels.HeatOperatorSpec`.  Its fundamental
solution is a drifting, decaying Gaussian,

    Psi(x, y, t, tau) = exp(-a0 s) K_A(x - y - a s, s),   s = t - tau,
    K_A(d, s) = exp(-d^T A^{-1} d / (4 s)) / ((4 pi s)^{n/2} sqrt(det A)),

identically zero for s <= 0 (causality).  For x off the closed surface S and
u solving L u = g on the enclosed domain with initial data u0,

    chi(x) u(x, t) = I(u0) + G(g) + V(nu . A grad u) + W(u),

the Poisson integral, the volume heat potential, and the two lateral layer
potentials; the double-layer kernel is -(d_{nu,A;y} Psi + (a . nu) Psi),
the dual pairing of the system {1, d_{nu,A}}.

Time quadrature is composite trapezoid over the density frames below t.  The
last partial step [t - D, t] integrates (t - tau)^{-1/2} exactly against a
linear smooth part; off the surface the smooth part vanishes at tau = t, and
the rule collapses to (2/3) D times the integrand at t - D.  The volume
potential's integrand instead tends to g(x, t) (the kernel is an approximate
identity), so its last step is a trapezoid against that limit.

Each potential evaluates all of its time lags in one pass.  Psi splits
into a Gaussian block over (quadrature points or cells x lags) and a factor
of the lag alone (``_gaussian``): the block is summed against the density,
and the factor scales the per-lag sums.  The block's exponents come from
one matrix product of three terms per point with three terms per lag, and
``exp`` runs in place on it.  The lateral layers first contract the block
with the P1 basis of ``assembly._panel_quadrature``, the weighted basis
values and then the panel incidence, which takes it to (vertices x lags)
before it meets a density.  V and W share the first product: a panel is
flat, so the double layer differs only by one height per panel, which its
own copy of the incidence carries in each panel corner's entry.  The
operator's factorisation is built once per spec, and a volume source's
interior rows once per (source, grid mask).  Lags are blocked so that no
block exceeds ``_BLOCK_ENTRIES`` entries.
"""

from __future__ import annotations

import logging
import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
from scipy import sparse

from .assembly import _panel_quadrature
from .direct import _solve_neumann_block
from .errors import MissingInteriorData, ParseError, ShapeMismatch
from .grid import InteriorGrid
from .kernels import ConductivityModel, HeatOperatorSpec, _KernelSet
from .mesh import (_as_array, _format_rows, _freeze, _is_count, _memo,
                   _parse_rows, _points, _read_sidecar, _read_text,
                   _write_text, require_off_surface)

__all__ = [
    "TimeGrid",
    "SpaceTimeField",
    "heat_kernel",
    "heat_kernel_mass",
    "poisson_integral",
    "parabolic_layer_potentials",
    "volume_heat_potential",
    "parabolic_green_reconstruct",
    "assemble_evolution_rhs",
    "ionic_current_linear",
    "save_spacetime_field",
    "load_spacetime_field",
]

logger = logging.getLogger(__name__)

# Largest (points x lags) block of kernel values, the bound of the dense
# assembly's far-field chunks.
_BLOCK_ENTRIES = int(4e6)


@dataclass(frozen=True)
class TimeGrid:
    """Uniform frame times t0 + k dt, k = 0 .. steps-1, ending at t_end.

    ``steps`` counts the frames including both endpoints, so dt =
    (t_end - t0) / (steps - 1); at the 1 kHz convention a 1 s record is
    steps=1001 over t_end=1000 ms.
    """

    t_end: float
    steps: int
    t0: float = 0.0

    def __post_init__(self) -> None:
        if not self.t_end > self.t0:
            raise ShapeMismatch("time grid needs t_end > t0")
        if self.steps < 2:
            raise ShapeMismatch("time grid needs at least 2 frames")

    @property
    def dt(self) -> float:
        return (self.t_end - self.t0) / (self.steps - 1)

    @property
    def times(self) -> np.ndarray:
        return self.t0 + self.dt * np.arange(self.steps)


@dataclass(frozen=True, eq=False)
class SpaceTimeField:
    """Dense (nodes x frames) samples of a field over a TimeGrid.

    ``location`` labels the sampling: a surface_id for lateral traces, or
    "grid" for flat volume-cell samples.
    """

    location: str
    values: np.ndarray
    grid: TimeGrid
    units: str = "mV"

    def __post_init__(self) -> None:
        vals = np.asarray(self.values, dtype=float)
        if vals.ndim != 2:
            raise ShapeMismatch("space-time values must be (nodes, frames)")
        if vals.shape[1] != self.grid.steps:
            raise ShapeMismatch(
                f"{vals.shape[1]} columns vs {self.grid.steps} time frames"
            )
        if not np.all(np.isfinite(vals)):
            raise ShapeMismatch("space-time field contains non-finite values")
        vals = vals.copy()
        vals.flags.writeable = False
        object.__setattr__(self, "values", vals)

    @property
    def n_nodes(self) -> int:
        return self.values.shape[0]

    def frame(self, k: int) -> np.ndarray:
        return self.values[:, k]

    @staticmethod
    def constant_in_time(location: str, vals: np.ndarray, grid: TimeGrid,
                         units: str = "mV") -> "SpaceTimeField":
        v = np.asarray(vals, dtype=float).reshape(-1, 1)
        return SpaceTimeField(location, np.repeat(v, grid.steps, axis=1),
                              grid, units)


# ---------------------------------------------------------------------------
# fundamental solution


def _gaussian(spec: HeatOperatorSpec, diff: np.ndarray, s) -> tuple:
    """Psi split into its Gaussian block and a factor of the lag alone.

    Returns ``(block, factor)`` with Psi = block * factor:

        block  = exp(-|W (diff - a s)|^2 / (4 s)),
        factor = exp(-a0 s) / ((4 pi s)^{n/2} sqrt(det A)),

    W the whitening of A (``kernels._KernelSet``, built once per spec), and
    ``factor`` exactly zero for s <= 0 (causality), where ``block`` carries
    no meaning.  ``diff`` and ``s`` broadcast as in :func:`heat_kernel`.  A
    potential sums ``block`` against its density first and scales the
    per-lag sums by ``factor`` after.  With z = W diff and w = W a, the
    exponent is the inner product of a triple of the point and a triple of
    the lag,

        -|z - w s|^2 / (4 s) = [|z|^2, z . w, 1] . [-1/(4 s), 1/2, -s |w|^2/4],

    so a (points, 1, dim) ``diff`` against 1-D lags, the shape of every
    potential, takes its exponents from one (points x 3) @ (3 x lags)
    product, and other shapes contract the triples by broadcasting.  Zero
    drift only zeroes two of the terms.
    """
    diff = np.asarray(diff, dtype=float)
    dim = diff.shape[-1]
    if dim != spec.dim:
        raise ShapeMismatch(f"diff has dimension {dim}, operator {spec.dim}")
    s = np.asarray(s, dtype=float)
    ker = _memo(spec, "kernel_set", lambda: _KernelSet(spec.A, dim))
    z = ker.whiten(diff)
    w = ker.W @ spec.drift
    pos = s > 0.0
    s_safe = np.where(pos, s, 1.0)
    point = np.stack([np.einsum("...i,...i->...", z, z), z @ w,
                      np.ones(z.shape[:-1])], axis=-1)
    lag = np.stack([-0.25 / s_safe, np.full(s.shape, 0.5),
                    (-0.25 * (w @ w)) * s_safe], axis=-1)
    if diff.ndim == 3 and diff.shape[1] == 1 and s.ndim == 1:
        block = point.reshape(-1, 3) @ lag.T
    else:
        block = np.asarray(np.einsum("...i,...i->...", point, lag))
    np.exp(block, out=block)
    norm = np.exp(-spec.reaction * s_safe) / (
        (4.0 * np.pi * s_safe) ** (dim / 2.0) * ker.sqrt_det)
    return block, np.where(pos, norm, 0.0)


def heat_kernel(spec: HeatOperatorSpec, diff: np.ndarray, s) -> np.ndarray:
    """Psi evaluated at x - y = diff, t - tau = s; exactly zero for s <= 0.

    ``diff`` is (..., dim); ``s`` broadcasts against the leading shape, so a
    (n, 1, dim) ``diff`` against (k,) lags gives the (n, k) block.
    """
    block, factor = _gaussian(spec, diff, s)
    block *= factor
    return block


def heat_kernel_mass(spec: HeatOperatorSpec, t: float) -> float:
    """Midpoint-quadrature mass of Psi(., t); exp(-a0 t) analytically.

    The box is centred on the drift displacement with half width 8
    standard deviations of the widest principal axis, and has 72 midpoints
    per axis.  Midpoint quadrature of a Gaussian converges spectrally, so
    this resolves the mass far below 1e-6.
    """
    if t <= 0.0:
        return 0.0
    n = 72
    hw = 8.0 * np.sqrt(2.0 * t * np.linalg.eigvalsh(spec.A).max())
    axes = [np.linspace(-hw, hw, n, endpoint=False) + hw / n for _ in range(spec.dim)]
    pts = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, spec.dim)
    pts = pts + spec.drift * t
    vals = heat_kernel(spec, pts, t)
    return float(vals.sum() * (2.0 * hw / n) ** spec.dim)


# ---------------------------------------------------------------------------
# potentials


def poisson_integral(spec: HeatOperatorSpec, grid: InteriorGrid, h,
                     x, t: float) -> float:
    """I(h)(x, t), midpoint quadrature over the interior cells; needs t > 0."""
    if t <= 0.0:
        raise ShapeMismatch("the Poisson integral needs t > 0")
    hv = np.asarray(h, dtype=float).reshape(-1)
    if hv.size != grid.n_cells:
        raise ShapeMismatch(f"expected {grid.n_cells} cell samples, got {hv.size}")
    x = _point(x, spec.dim)
    centers = grid.interior_centers()
    vals = heat_kernel(spec, x[None, :] - centers, t)
    return float((vals @ hv[grid.inside]) * grid.cell_volume)


def _time_weights(times: np.ndarray, t: float):
    """Trapezoid weights over frames strictly below t, plus the product rule.

    Returns (index array, weight array).  The last step [t_last, t] carries
    (2/3)(t - t_last) at t_last: exact for integrands C sqrt(t - tau), the
    off-surface endpoint behaviour.
    """
    below = np.nonzero(times < t - 1e-14 * max(1.0, abs(t)))[0]
    if below.size == 0:
        return below, np.zeros(0)
    k = below[-1] + 1
    w = np.zeros(k)
    if k >= 2:
        dt = np.diff(times[:k])
        w[:-1] += 0.5 * dt
        w[1:] += 0.5 * dt
    w[-1] += (2.0 / 3.0) * (t - times[k - 1])
    return np.arange(k), w


def _point(x, dim: int) -> np.ndarray:
    """The one evaluation point of a heat potential as a (dim,) array
    (``mesh._points``); more than one is a ShapeMismatch."""
    pts = _points(x, dim)
    if len(pts) != 1:
        raise ShapeMismatch(f"a heat potential takes one point, got {len(pts)}")
    return pts[0]


def _check_density(mesh, density: SpaceTimeField, t: float) -> None:
    _check_time(density, t)
    if density.location != mesh.surface_id:
        raise ShapeMismatch(
            f"density on {density.location!r} vs mesh {mesh.surface_id!r}"
        )
    if density.values.shape[0] != mesh.n_vertices:
        raise ShapeMismatch("density rows must match mesh vertices")


def _check_time(field: SpaceTimeField, t: float) -> None:
    """Every record argument passes through here before it is read."""
    if not isinstance(field, SpaceTimeField):
        raise ShapeMismatch(f"expected a SpaceTimeField, got {type(field).__name__}")
    if t > field.grid.times[-1] + 1e-12 * max(1.0, abs(t)):
        raise ShapeMismatch(f"evaluation time beyond the time grid of {field.location!r}")


def _lag_blocks(n_lags: int, n_points: int):
    """Slices over the lags, each with at most _BLOCK_ENTRIES kernel values."""
    step = max(1, _BLOCK_ENTRIES // max(1, n_points))
    return [slice(lo, min(lo + step, n_lags)) for lo in range(0, n_lags, step)]


def _layer_pair(spec: HeatOperatorSpec, mesh, x: np.ndarray, t: float,
                times: np.ndarray, single=None, double=None) -> tuple:
    """(V(single), W(double)) at (x, t) for densities sampled at ``times``.

    Either density may be None; its potential is then 0.  For each block of
    lags the Gaussian block E (quadrature points x lags) is contracted with
    the weighted basis once, G = basis_w E, and both layers reduce G to the
    vertices before they meet their densities.  Since
    nu . (diff - a s) = nu . diff - (nu . a) s, the double-layer kernel
    -(nu . (diff - a s) / (2 s) + nu . a) Psi equals
    -(nu . diff / (2 s) + (nu . a) / 2) Psi, and on a flat panel nu . diff
    is one height per panel.  So the double layer reduces G through copies
    of the incidence whose entries carry their panel's height (and nu . a,
    when the drift is not tangent everywhere), and -1/(2 s) and -1/2 scale
    the per-lag sums.  The per-lag factor of Psi multiplies them too.
    """
    idx, wts = _time_weights(times, t)
    if idx.size == 0:
        return 0.0, 0.0
    centre, pts, offset, basis_w, incidence = _panel_quadrature(mesh)
    nq = basis_w.shape[1]
    xc = x - centre
    diff = xc - pts
    lags = t - times[idx]                      # idx is 0 .. k-1, all > 0
    if double is not None:
        # CSR data run in row order: entry e sits in column indices[e],
        # corner c of panel indices[e] % m
        panel = incidence.indices % len(offset)
        height = (mesh.normals @ xc - offset)[panel]  # nu . (x - y)
        nu_a = (mesh.normals @ spec.drift)[panel]
        by_height = _with_data(incidence, incidence.data * height)
        by_drift = _with_data(incidence, incidence.data * nu_a) if np.any(nu_a) else None
    v = np.zeros(idx.size)
    w = np.zeros(idx.size)
    for blk in _lag_blocks(idx.size, len(pts)):
        lag = lags[blk]
        block, factor = _gaussian(spec, diff[:, None, :], lag)
        # (corners x panels, lags): the basis-weighted sum over each panel
        g = (basis_w @ block.reshape(nq, -1)).reshape(-1, lag.size)
        del block
        if single is not None:
            v[blk] = factor * np.einsum("nj,nj->j", incidence @ g, single[:, blk])
        if double is not None:
            dens = double[:, blk]
            sums = (-0.5 / lag) * np.einsum("nj,nj->j", by_height @ g, dens)
            if by_drift is not None:
                sums -= 0.5 * np.einsum("nj,nj->j", by_drift @ g, dens)
            w[blk] = factor * sums
    return float(v @ wts), float(w @ wts)


def _with_data(csr, data: np.ndarray):
    """``csr``'s sparsity pattern with other entries."""
    return sparse.csr_matrix((data, csr.indices, csr.indptr), shape=csr.shape)


def parabolic_layer_potentials(spec: HeatOperatorSpec, mesh,
                               density: SpaceTimeField, kind: str,
                               x, t: float) -> float:
    """V (kind "single") or W (kind "double") at one off-surface point.

    The surface is a closed mesh; a density supported on part of it (zero
    elsewhere) realizes partial-boundary potentials, the potentials being
    linear in the density.  Frames at or after ``t`` never contribute.
    """
    if kind not in ("single", "double"):
        raise ShapeMismatch("kind must be 'single' or 'double'")
    _check_density(mesh, density, t)
    x = _point(x, spec.dim)
    require_off_surface(mesh, x[None, :])
    times = density.grid.times
    if kind == "single":
        return _layer_pair(spec, mesh, x, t, times, single=density.values)[0]
    return _layer_pair(spec, mesh, x, t, times, double=density.values)[1]


def volume_heat_potential(spec: HeatOperatorSpec, grid: InteriorGrid,
                          source: SpaceTimeField, x, t: float) -> float:
    """G(g)(x, t) over the interior cells.

    The time integrand tends to g(x, t) as tau -> t (approximate identity),
    so the last step is a trapezoid against that limit, read off the nearest
    interior cell.  A ``t`` beyond the source's time grid is rejected.
    """
    _check_time(source, t)
    g = source.values
    if g.shape[0] != grid.n_cells:
        raise ShapeMismatch("volume source rows must match grid cells")
    times = source.grid.times
    x = _point(x, spec.dim)
    below = np.nonzero(times < t - 1e-14 * max(1.0, abs(t)))[0]
    if below.size == 0:
        return 0.0
    k = below[-1] + 1
    # gathered once per (source, grid mask)
    g_in = _memo(source, ("interior_rows", grid.inside.tobytes()),
                 lambda: _freeze(g[grid.inside]))
    diff = x[None, :] - grid.interior_centers()
    lags = t - times[:k]
    series = np.empty(k + 1)
    for blk in _lag_blocks(k, len(diff)):
        block, factor = _gaussian(spec, diff[:, None, :], lags[blk])
        series[blk] = (factor * grid.cell_volume) * np.einsum(
            "cj,cj->j", block, g_in[:, blk])
    # limit value: g at the cell nearest x, linearly interpolated in time
    near = g_in[np.argmin(np.einsum("ij,ij->i", diff, diff))]
    tt = min(t, times[-1])
    j1 = int(np.searchsorted(times, tt, side="right") - 1)
    if j1 >= len(times) - 1:
        series[k] = near[-1]
    else:
        th = (tt - times[j1]) / (times[j1 + 1] - times[j1])
        series[k] = (1 - th) * near[j1] + th * near[j1 + 1]
    aug_times = np.append(times[:k], t)
    return float(np.trapezoid(series, aug_times))


def parabolic_green_reconstruct(spec: HeatOperatorSpec, mesh,
                                grid: InteriorGrid,
                                u_trace: SpaceTimeField,
                                flux_trace: SpaceTimeField,
                                u_initial, Lu, x, t: float) -> float:
    """Right side of the heat Green identity at (x, t).

    Equals u(x, t) for x inside the surface and 0 outside (up to quadrature).
    ``flux_trace`` is the M-conormal trace nu . M grad u; the identity pairs
    the kernel with the A-conormal, A = scale M, so the diffusion scale is
    applied here.  The initial time t0 is ``u_trace``'s first frame, which
    the flux and the source must share.  ``u_initial`` are flat cell
    samples at t0 (None for zero initial data); ``Lu`` a grid-sampled
    SpaceTimeField source (None for a caloric u).  Points on the surface
    are rejected.
    """
    x = _point(x, spec.dim)
    require_off_surface(mesh, x[None, :])
    _check_density(mesh, flux_trace, t)
    _check_density(mesh, u_trace, t)
    if Lu is not None:
        _check_time(Lu, t)
    t0 = u_trace.grid.t0
    if any(f.grid.t0 != t0 for f in (flux_trace, Lu) if f is not None):
        raise ShapeMismatch("trace, flux and source must start at one t0")
    total = 0.0
    if u_initial is not None:
        total += poisson_integral(spec, grid, u_initial, x, t - t0)
    if Lu is not None:
        total += volume_heat_potential(spec, grid, Lu, x, t)
    if flux_trace.grid == u_trace.grid:
        v, w = _layer_pair(spec, mesh, x, t, u_trace.grid.times,
                           flux_trace.values, u_trace.values)
    else:
        v = _layer_pair(spec, mesh, x, t, flux_trace.grid.times,
                        single=flux_trace.values)[0]
        w = _layer_pair(spec, mesh, x, t, u_trace.grid.times,
                        double=u_trace.values)[1]
    total += spec.scale * v
    total += w
    return float(total)


# ---------------------------------------------------------------------------
# evolutionary right-hand side


def _surface_gradient(mesh, vals: np.ndarray) -> np.ndarray:
    """Area-averaged per-face gradient of the P1 interpolant, (n_verts, 3)."""
    tris = mesh.triangles
    v = mesh.vertices
    e1 = v[tris[:, 1]] - v[tris[:, 0]]
    e2 = v[tris[:, 2]] - v[tris[:, 0]]
    n = np.cross(e1, e2)                       # |n| = 2 area
    nn = np.einsum("ij,ij->i", n, n)
    d1 = vals[tris[:, 1]] - vals[tris[:, 0]]
    d2 = vals[tris[:, 2]] - vals[tris[:, 0]]
    # P1 gradient: (d1 (e2 x n) + d2 (n x e1)) / |n|^2
    g = (d1[:, None] * np.cross(e2, n) + d2[:, None] * np.cross(n, e1)) / nn[:, None]
    areas = mesh.areas
    out = np.zeros_like(v)
    wsum = np.zeros(len(v))
    for k in range(3):
        np.add.at(out, tris[:, k], g * areas[:, None])
        np.add.at(wsum, tris[:, k], areas)
    return out / wsum[:, None]


def _vertex_normals(mesh) -> np.ndarray:
    """Area-weighted average of the face normals, unit length, (n_verts, 3)."""
    out = np.zeros_like(mesh.vertices)
    w = mesh.normals * mesh.areas[:, None]
    for k in range(3):
        np.add.at(out, mesh.triangles[:, k], w)
    return out / np.linalg.norm(out, axis=1)[:, None]


def _full_gradient(mesh, M: np.ndarray, trace: np.ndarray,
                   flux: np.ndarray) -> np.ndarray:
    """Boundary gradient from tangential P1 part plus conormal completion.

    grad u = grad_T u + g nu with g from nu . M (grad_T u + g nu) = flux,
    nu the vertex normal.
    """
    gt = _surface_gradient(mesh, trace)
    nu = _vertex_normals(mesh)
    mnu = nu @ M.T
    g = (flux - np.einsum("ij,ij->i", mnu, gt)) / np.einsum("ij,ij->i", mnu, nu)
    return gt + g[:, None] * nu


def assemble_evolution_rhs(model: ConductivityModel, heart,
                           h: SpaceTimeField,
                           heart_flux_of_ub: SpaceTimeField,
                           c_of_t, spec: HeatOperatorSpec = None
                           ) -> SpaceTimeField:
    """F = h + lam (d_t + a . grad + a0)(N_i(0, psi(t)) + c(t)) on the heart.

    ``spec`` holds the operator's drift a and reaction a0 (both already
    divided by C_m when they come from an ionic law); None means the
    drift-free, reaction-free operator of the model.  The elliptic part of
    the correction drops identically (the Neumann solution is harmonic for
    Delta_e), which is why only first-order terms appear.  The distinct
    frames with nonzero flux go through one multi-column Neumann solve
    (projected onto the compatible subspace, one log line for all of them),
    so equal frames get bitwise-equal solutions; frames with
    identically zero flux skip it and contribute exact zeros, so zero data
    returns F = h with a bitwise-zero correction.  Only the drift term,
    which needs each frame's surface gradient, loops over the frames.
    """
    if model.lam is None:
        raise ShapeMismatch("the evolution right side needs a proportional model")
    if spec is None:
        spec = HeatOperatorSpec.from_model(model)
    hv = h.values
    psi = heart_flux_of_ub.values
    if psi.shape[0] != heart.n_vertices or hv.shape[0] != heart.n_vertices:
        raise ShapeMismatch("h and flux must be sampled on the heart vertices")
    if h.grid != heart_flux_of_ub.grid:
        raise ShapeMismatch("h and flux must share one time grid")
    grid = h.grid
    c = np.asarray(c_of_t, dtype=float).reshape(-1)
    if c.size == 1:
        c = np.full(grid.steps, c[0])
    if c.size != grid.steps:
        raise ShapeMismatch(f"c(t) needs {grid.steps} samples, got {c.size}")

    lam = float(model.lam)
    n, k = hv.shape
    w = np.zeros((n, k))
    frames = np.flatnonzero(psi.any(axis=0))
    if frames.size:
        # each distinct flux frame is solved once: a product with the
        # inverse may round equal columns differently by their position
        distinct, which = np.unique(psi[:, frames], axis=1, return_inverse=True)
        w[:, frames] = _solve_neumann_block(model.M_i, heart, distinct,
                                            project=True)[0][:, which.reshape(-1)]
    corr = w + c
    drift_term = np.zeros((n, k))
    if np.any(spec.drift):
        for j in np.flatnonzero(w.any(axis=0)):
            grad = _full_gradient(heart, model.M_i, w[:, j], psi[:, j])
            drift_term[:, j] = grad @ spec.drift

    dt_corr = np.zeros((n, k))
    if corr.any():
        d = grid.dt
        dt_corr[:, 1:-1] = (corr[:, 2:] - corr[:, :-2]) / (2.0 * d)
        dt_corr[:, 0] = (corr[:, 1] - corr[:, 0]) / d
        dt_corr[:, -1] = (corr[:, -1] - corr[:, -2]) / d

    correction = lam * (dt_corr + drift_term + spec.reaction * corr)
    return SpaceTimeField(h.location, hv + correction, grid, h.units)


def ionic_current_linear(v: SpaceTimeField, a, a0: float, b,
                         grad_v: np.ndarray = None) -> SpaceTimeField:
    """I_ion = sum_j a_j d_j v + a0 v + b, frame by frame.

    ``grad_v`` is (nodes, dim, frames) and only required when a != 0.  ``b``
    broadcasts: scalar, per-node, or full (nodes, frames).
    """
    a = np.asarray(a, dtype=float).reshape(-1)
    vals = a0 * v.values
    if np.any(a):
        if grad_v is None:
            raise MissingInteriorData(
                "a nonzero advection coefficient needs grad_v samples"
            )
        g = np.asarray(grad_v, dtype=float)
        if g.shape != (v.n_nodes, a.size, v.grid.steps):
            raise ShapeMismatch(
                f"grad_v must be (nodes, {a.size}, frames), got {g.shape}"
            )
        vals = vals + np.einsum("ndk,d->nk", g, a)
    vals = vals + np.asarray(b, dtype=float)
    return SpaceTimeField(v.location, vals, v.grid, units="uA/cm^2")


# ---------------------------------------------------------------------------
# storage


def save_spacetime_field(fld: SpaceTimeField, path) -> None:
    """CSV matrix (rows = nodes, cols = frames) plus a JSON sidecar manifest."""
    p = Path(path)
    line = ",".join(["%r"] * fld.values.shape[1]) + "\n"
    _write_text(p, _format_rows(line, fld.values))
    manifest = {
        "location": fld.location,
        "units": fld.units,
        "time_grid": {"t0": fld.grid.t0, "t_end": fld.grid.t_end,
                      "steps": fld.grid.steps},
        "shape": list(fld.values.shape),
    }
    _write_text(p.with_suffix(p.suffix + ".json"),
                json.dumps(manifest, indent=1, sort_keys=True) + "\n")


def load_spacetime_field(path) -> SpaceTimeField:
    """Read a record written by :func:`save_spacetime_field`.

    The sidecar is a JSON object with a ``location`` string, a ``shape`` of
    two integers >= 0 and a ``time_grid`` of real ``t0`` and ``t_end`` and
    an integer ``steps`` (``units``, a string, defaults to "mV").  The body
    is parsed natively in blocks of rows (``mesh._parse_rows``); a file
    that parse declines (an unreadable or empty record, or spellings only
    Python's ``float`` reads, such as ``+1.5``, ``1.``, spaces and blank
    lines) is read as text through ``mesh._as_array``.  A sidecar or CSV that breaks any of this,
    a CSV not of the sidecar's shape, or a file that cannot be read or
    decoded, is a :class:`ParseError`.
    """
    p = Path(path)
    manifest = _read_sidecar(p, "record manifest", {
        "location": lambda v: isinstance(v, str),
        "shape": lambda v: (isinstance(v, list) and len(v) == 2
                            and all(map(_is_count, v))),
        "time_grid": lambda v: (isinstance(v, dict) and _is_count(v.get("steps"))
                                and all(type(v.get(k)) in (int, float)
                                        for k in ("t0", "t_end")))})
    shape, tg = manifest["shape"], manifest["time_grid"]
    vals = _parse_rows(p, shape)
    if vals is None:
        rows = [line.split(",") for line in _read_text(p).splitlines() if line.strip()]
        vals = _as_array(rows, float, (len(rows), shape[1]), f"{p}: CSV rows")
    if list(vals.shape) != shape:
        raise ParseError(f"{p}: CSV shape {vals.shape} differs from the "
                         f"sidecar's {shape}")
    grid = TimeGrid(t_end=tg["t_end"], steps=tg["steps"], t0=tg["t0"])
    return SpaceTimeField(manifest["location"], vals, grid,
                          units=manifest["units"])
