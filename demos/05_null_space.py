"""What body-surface data can never see.

Any intracellular source supported strictly inside the heart wall, with
trace and conormal flux both vanishing on the epicardium, produces exactly
zero signal everywhere outside: the inverse problem determines u_i only up
to such elements plus a constant.  This script manufactures one from a
compactly supported bump, certifies its silence on both surfaces, and
checks the interior identity that pins down what was lost.
"""

import numpy as np

from cardiobem import (
    ConductivityModel,
    CubicRadial,
    DomainConfig,
    InteriorGrid,
    generate_nullspace_element,
    icosphere,
    solve_zaremba,
)


def main():
    model = ConductivityModel()
    heart = icosphere(2, 1.0, surface_id="heart")
    torso = icosphere(2, 2.0, surface_id="torso")
    domain = DomainConfig(heart=heart, torso=torso)
    grid = InteriorGrid.for_mesh(heart, h=0.1)

    bump = CubicRadial(center=(0.1, 0.0, -0.1), radius=0.5, amplitude=25.0)
    elem = generate_nullspace_element(heart, grid, model, bump,
                                      proportional=True)

    print(f"bump: radius {bump.radius} cm, amplitude {bump.amplitude} mV,"
          f" support gap {elem.diagnostics['support_gap']:.3f} cm")
    print(f"interior peak of the carried potential: "
          f"{np.abs(elem.u_interior).max():.2f} mV")
    print(f"epicardial trace sup:     {np.abs(elem.u_e_trace.values).max():.1e}")
    print(f"epicardial gradient sup:  {elem.grad_trace_norm:.1e}")

    # push the (numerically zero) trace through the torso shell anyway:
    # the chest potential it generates is zero to machine precision
    report = solve_zaremba(model.M_b, domain, elem.u_e_trace)
    chest = np.abs(report.solution_trace_outer.values).max()
    print(f"chest signal sup:         {chest:.1e}")

    # inside the wall the element obeys u_i = -lambda u_e + c exactly,
    # the proportional relation that makes it invisible
    c = elem.diagnostics["c"]
    identity = np.abs(elem.u_i_interior + model.lam * elem.u_interior - c).max()
    print(f"proportional identity |u_i + lam u_e - c| sup: {identity:.1e}")
    peak = 2 * model.lam * np.abs(elem.u_interior).max()
    print(f"\ntwo reconstructions of u_i from the same measurements may")
    print(f"differ by {peak:.0f} mV inside the wall (twice lambda times the")
    print("carried peak) without disagreeing on a single measurable value.")


if __name__ == "__main__":
    main()
