"""Boundary-element toolkit for heart-surface potential reconstruction.

The package solves the steady bidomain inverse problem on a two-surface
(heart inside torso) geometry: direct boundary-value solvers built on
collocation BEM, a Tikhonov-regularized Cauchy solver for torso-to-heart
data completion, the transmembrane-potential reconstruction protocols, the
null space of the interior problem, and the parabolic (time-dependent)
potential machinery.  An analytic harmonic oracle provides consistent
synthetic datasets for all of it.
"""

from .errors import (CardiobemError, DegenerateLCurve, EmptySupport,
                     GeometryError, IncompatibleData, MissingInteriorData,
                     OutOfGeometry, ParseError, PointOnBoundary,
                     QuadratureFailure, ResolvabilityError, ShapeMismatch,
                     SolveFailure, SupportTouchesBoundary)
from .mesh import (CurveMesh, DomainConfig, NodalField, SurfaceMesh, load_mesh,
                   load_nodal_field, points_inside, save_mesh, save_nodal_field,
                   surface_distance)
from .primitives import circle_curve, icosphere
from .kernels import ConductivityModel, HeatOperatorSpec, as_tensor
from .grid import InteriorGrid
from .assembly import (LayerOperators, assemble_layer, green_representation,
                       volume_potential)
from .direct import (DirectSolveReport, solve_dirichlet,
                     solve_neumann_normalized, solve_zaremba)
from .cauchy import (CauchySolveReport, DiscrepancyPrinciple, FixedAlpha,
                     LCurveMaxCurvature, TikhonovConfig, lcurve_corner,
                     save_lcurve, solve_cauchy_elliptic)
from .reconstruct import (CubicRadial, NullSpaceElement, ReconstructionOutput,
                          generate_nullspace_element, reconstruct_ui_general,
                          run_protocol_1, run_protocol_2, write_reconstruction)
from .parabolic import (SpaceTimeField, TimeGrid, assemble_evolution_rhs,
                        heat_kernel, heat_kernel_mass, ionic_current_linear,
                        load_spacetime_field, parabolic_green_reconstruct,
                        parabolic_layer_potentials, poisson_integral,
                        save_spacetime_field, volume_heat_potential)
from .oracle import (Annulus2D, BidomainSteadyOracle, HarmonicSpec,
                     HarmonicTerm, Shell3D, Sphere3D, eval_harmonic, rmse,
                     synth_bidomain_steady)

__version__ = "0.1.0"
