"""Exception types raised across the toolkit.

Everything derives from :class:`CardiobemError` so callers can catch the
package's failures with one clause.  The concrete classes are grouped by the
stage that raises them (file parsing, geometry validation, quadrature,
linear solves, regularization).
"""

from __future__ import annotations


class CardiobemError(Exception):
    """Base class for all toolkit errors."""


class ParseError(CardiobemError):
    """A mesh or field file is malformed or references unknown indices."""


class GeometryError(CardiobemError):
    """A mesh violates a geometric invariant (open, degenerate, inverted)."""


class ShapeMismatch(CardiobemError):
    """Array sizes disagree (field length vs. mesh, matrix dims, frames)."""


class QuadratureFailure(CardiobemError):
    """A quadrature rule could not be applied (empty rule, bad panel)."""


class EmptySupport(CardiobemError):
    """A volume term was requested but no grid cell lies inside the domain."""


class PointOnBoundary(CardiobemError):
    """A query point lies on a surface within the containment tolerance."""


class OutOfGeometry(CardiobemError):
    """An evaluation point lies outside the region a field is defined on."""


class SolveFailure(CardiobemError):
    """A direct factorization failed or produced non-finite values."""


class IncompatibleData(CardiobemError):
    """Neumann data violates the compatibility integral beyond tolerance."""


class ResolvabilityError(CardiobemError):
    """A mesh is too coarse to resolve the requested harmonic content."""


class DegenerateLCurve(CardiobemError):
    """The L-curve has no corner (all signed curvatures non-positive)."""


class SupportTouchesBoundary(CardiobemError):
    """A bump's support ball is not strictly inside the heart domain."""


class MissingInteriorData(CardiobemError):
    """An operation needs interior samples that were not supplied."""
