"""Forward model on a two-sphere conductor.

The passive part of the steady bidomain problem lives in the shell between
the epicardium (here a sphere of radius 1 cm) and the chest surface (radius
2 cm): the bath potential u_b solves div(M_b grad u_b) = 0 with a Dirichlet
trace on the heart and an insulated outer boundary.  This script builds an
analytic solution from a pair of spherical-harmonic terms, checks that the
synthesized fields satisfy the transmission conditions, and then solves the
same mixed problem numerically from the heart trace alone, refining the
meshes to watch the collocation error fall.
"""

import numpy as np

from cardiobem import (
    ConductivityModel,
    DomainConfig,
    HarmonicSpec,
    HarmonicTerm,
    Shell3D,
    icosphere,
    solve_zaremba,
    synth_bidomain_steady,
)


def main():
    model = ConductivityModel()
    geometry = Shell3D(1.0, 2.0)
    spec = HarmonicSpec(
        terms=(HarmonicTerm(1, 0, a=30.0), HarmonicTerm(2, 1, a=12.0)),
        geometry=geometry,
    )
    oracle = synth_bidomain_steady(geometry, model, spec)

    print("transmission residuals of the analytic solution:")
    for name, value in oracle.transmission_residuals().items():
        print(f"  {name:18s} {value:.3e}")

    print("\nmixed solve from the heart trace (flux + chest potential):")
    print("level   nodes   flux rel err   chest rel err   conservation")
    for level in (1, 2, 3):
        heart = icosphere(level, 1.0, surface_id="heart")
        torso = icosphere(level, 2.0, surface_id="torso")
        fields = oracle.fields_on(heart, torso)
        domain = DomainConfig(heart=heart, torso=torso)

        report = solve_zaremba(model.M_b, domain, fields["heart_trace_ub"])
        flux = report.flux_trace
        flux_err = (np.abs(flux.values - fields["heart_flux"].values).max()
                    / np.abs(fields["heart_flux"].values).max())
        chest = report.solution_trace_outer.values
        chest_err = (np.abs(chest - fields["f"].values).max()
                     / np.abs(fields["f"].values).max())
        # insulated chest: whatever current leaves the heart must vanish
        # in total, to quadrature accuracy
        total = heart.vertex_weights @ flux.values
        scale = heart.vertex_weights @ np.abs(flux.values)
        print(f"  {level}     {heart.n_vertices:5d}   {flux_err:10.2%}"
              f"   {chest_err:11.2%}   {abs(total) / scale:.2e}")

    print("\nthe flux error carries one more derivative than the trace,")
    print("so it converges one order slower; both fall with refinement.")


if __name__ == "__main__":
    main()
