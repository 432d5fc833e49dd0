"""Regular Cartesian grids clipped to a closed surface.

Volume terms (the Newtonian potential of a source, interior elliptic
operators applied by finite differences) are evaluated on a uniform cell
grid: midpoint quadrature with cell volume h^3.  The grid covers the mesh
bounding box with a two-cell pad so every interior cell has a full
finite-difference stencil inside the box.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import EmptySupport, ShapeMismatch
from .kernels import as_tensor
from .mesh import SurfaceMesh, _freeze, _lattice_inside, _memo

__all__ = ["InteriorGrid"]

# cells of pad around the mesh bounding box, so that every interior cell
# has its full finite-difference stencil inside the box.  Without a pad the
# rim cells, which ``elliptic_apply`` returns as zero, fall inside the mask:
# on ``unit_cube`` at h = 0.1, Delta |x|^2 is then wrong on 488 of the 1000
# interior cells, with no error raised
_PAD_CELLS = 2


@dataclass(frozen=True, eq=False)
class InteriorGrid:
    """Uniform cell grid over a box, with an inside-the-surface mask.

    Attributes
    ----------
    origin : (3,) array
        Corner of the box; cell centers sit at ``origin + (idx + 1/2) h``.
    h : float
        Cell edge length (cm).
    shape : (3,) int tuple
        Cells per axis.
    inside : (n_cells,) bool array
        Mask over C-ordered flat cells marking centers inside the surface.
    """

    origin: np.ndarray
    h: float
    shape: tuple
    inside: np.ndarray

    @staticmethod
    def for_mesh(mesh: SurfaceMesh, h: float) -> "InteriorGrid":
        """Clip a uniform grid of spacing ``h`` to the inside of ``mesh``.

        The mask is :func:`~cardiobem.mesh.points_inside` of the cell
        centers, computed by one +z ray per (x, y) column of cells
        (``mesh._lattice_inside``), so a center on the surface is not
        inside; a cell that pass leaves unsettled, below a point where its
        column grazes a triangle edge, is tested by ``points_inside``
        itself.
        """
        if h <= 0:
            raise ShapeMismatch("grid spacing must be positive")
        lo = mesh.vertices.min(axis=0) - _PAD_CELLS * h
        hi = mesh.vertices.max(axis=0) + _PAD_CELLS * h
        shape = tuple(int(np.ceil((hi[k] - lo[k]) / h)) for k in range(3))
        grid = InteriorGrid.__new__(InteriorGrid)
        object.__setattr__(grid, "origin", lo)
        object.__setattr__(grid, "h", float(h))
        object.__setattr__(grid, "shape", shape)
        mask = _lattice_inside(mesh, grid._axes()).ravel()
        if not mask.any():
            raise EmptySupport(
                f"no grid cell center falls inside {mesh.surface_id!r} at h={h}"
            )
        mask.flags.writeable = False
        object.__setattr__(grid, "inside", mask)
        return grid

    @property
    def n_cells(self) -> int:
        return int(np.prod(self.shape))

    @property
    def cell_volume(self) -> float:
        return self.h ** 3

    def _axes(self) -> list:
        """Cell-center coordinates along each axis."""
        return [self.origin[k] + self.h * (np.arange(self.shape[k]) + 0.5)
                for k in range(3)]

    def centers(self) -> np.ndarray:
        """(n_cells, 3) cell centers in C order."""
        gx, gy, gz = np.meshgrid(*self._axes(), indexing="ij")
        return np.column_stack([gx.ravel(), gy.ravel(), gz.ravel()])

    def interior_centers(self) -> np.ndarray:
        """(n_inside, 3) centers of the interior cells, built once, read-only."""
        return _memo(self, "interior_centers",
                     lambda: _freeze(self.centers()[self.inside]))

    def sample(self, f) -> np.ndarray:
        """Evaluate a callable on all cell centers (flat, C order)."""
        return np.asarray(f(self.centers()), dtype=float).reshape(self.n_cells)

    def integrate(self, values: np.ndarray) -> float:
        """Midpoint integral of flat cell values over the interior cells."""
        v = self._check(values)
        return float(v[self.inside].sum() * self.cell_volume)

    def elliptic_apply(self, M, values: np.ndarray) -> np.ndarray:
        """Apply Delta_M = -div(M grad) by 7-point central differences.

        ``M`` must be diagonal (the finite-difference stencil carries no
        cross terms); values are given on the full box so interior cells all
        have complete stencils.  The one-cell rim of the box is returned as
        zero; the pad built into :meth:`for_mesh` keeps it outside the mask.
        """
        m = as_tensor(M, 3)
        if np.abs(m - np.diag(np.diag(m))).max() > 1e-14 * np.abs(m).max():
            raise ShapeMismatch("finite-difference Delta_M needs a diagonal tensor")
        v = self._check(values).reshape(self.shape)
        out = np.zeros_like(v)
        inner = v[1:-1, 1:-1, 1:-1]
        out[1:-1, 1:-1, 1:-1] = (
            m[0, 0] * (2.0 * inner - v[2:, 1:-1, 1:-1] - v[:-2, 1:-1, 1:-1])
            + m[1, 1] * (2.0 * inner - v[1:-1, 2:, 1:-1] - v[1:-1, :-2, 1:-1])
            + m[2, 2] * (2.0 * inner - v[1:-1, 1:-1, 2:] - v[1:-1, 1:-1, :-2])
        ) / self.h ** 2
        return out.ravel()

    def gradient(self, values: np.ndarray) -> np.ndarray:
        """(n_cells, 3) central-difference gradient on the full box."""
        v = self._check(values).reshape(self.shape)
        out = np.zeros(self.shape + (3,))
        out[1:-1, :, :, 0] = (v[2:, :, :] - v[:-2, :, :]) / (2.0 * self.h)
        out[:, 1:-1, :, 1] = (v[:, 2:, :] - v[:, :-2, :]) / (2.0 * self.h)
        out[:, :, 1:-1, 2] = (v[:, :, 2:] - v[:, :, :-2]) / (2.0 * self.h)
        return out.reshape(-1, 3)

    def _check(self, values: np.ndarray) -> np.ndarray:
        v = np.asarray(values, dtype=float).reshape(-1)
        if v.size != self.n_cells:
            raise ShapeMismatch(
                f"expected {self.n_cells} flat cell values, got {v.size}"
            )
        return v
