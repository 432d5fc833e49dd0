"""Observed orders of convergence under mesh refinement.

Each test halves the mesh width a few times and asserts a floor on the
observed order log2(e_h / e_{h/2}) at every step, against the analytic
oracle of the concentric shell.
"""

import numpy as np
import pytest

from cardiobem import (
    Annulus2D,
    DomainConfig,
    HarmonicSpec,
    HarmonicTerm,
    NodalField,
    Shell3D,
    circle_curve,
    icosphere,
    rmse,
    run_protocol_1,
    solve_zaremba,
    synth_bidomain_steady,
)


def _orders(errors):
    errors = np.asarray(errors)
    return np.log2(errors[:-1] / errors[1:])


@pytest.mark.parametrize("terms", [
    pytest.param((HarmonicTerm(1, 0, a=10.0),), id="one_term"),
    pytest.param((HarmonicTerm(1, 0, a=10.0), HarmonicTerm(3, 0, a=3.0)), id="two_terms"),
])
def test_zaremba_heart_flux_order_on_the_annulus(model, terms):
    # circles of radius 1 and 2 at 32-256 segments, bath 7 as a 2 x 2
    # tensor: the relative heart-flux error falls from 1.04e-2 to 1.59e-4
    # (one term) and from 3.51e-2 to 5.41e-4 (two terms), orders 2.00-2.02
    geometry = Annulus2D(1.0, 2.0)
    oracle = synth_bidomain_steady(geometry, model, HarmonicSpec(terms=terms,
                                                                 geometry=geometry))
    errors = []
    for n in (32, 64, 128, 256):
        heart = circle_curve(1.0, n, surface_id="heart")
        domain = DomainConfig(heart=heart, torso=circle_curve(2.0, n, surface_id="torso"))
        rep = solve_zaremba(model.m_b * np.eye(2), domain,
                            NodalField("heart", oracle.heart_trace(heart.vertices)))
        flux = rep.flux_trace
        want = oracle.heart_flux(heart.vertices)
        errors.append(np.linalg.norm(flux.values - want) / np.linalg.norm(want))
    assert errors[-1] < 1e-3
    assert np.all(_orders(errors) >= 1.9), errors


def test_protocol_1_order_on_the_shell(model, domain2, domain3):
    # noise-free degree-1 data on icospheres of radius 1 and 2 at levels
    # 1-3: RMSE(v) 0.664, 0.153 and 0.0367 mV, orders 2.11 and 2.06
    geometry = Shell3D(1.0, 2.0)
    oracle = synth_bidomain_steady(geometry, model, HarmonicSpec(
        terms=(HarmonicTerm(1, 0, a=10.0),), geometry=geometry))
    level1 = DomainConfig(heart=icosphere(1, 1.0, surface_id="heart"),
                          torso=icosphere(1, 2.0, surface_id="torso"))
    errors = []
    for domain in (level1, domain2, domain3):
        fields = oracle.fields_on(domain.heart, domain.torso)
        out = run_protocol_1(domain, model, fields["u_e"])
        errors.append(rmse(out.v.values, fields["v"].values))
    assert errors[-1] < 0.05
    assert np.all(_orders(errors) >= 1.8), errors
