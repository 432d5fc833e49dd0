"""Library arguments: every public entry point that takes a nodal field or a
record checks its type, and every one that takes points reads them as an
(n, dim) table of finite coordinates; each refuses anything else with
ShapeMismatch before any work."""

import types

import numpy as np
import pytest

from cardiobem import (
    ConductivityModel,
    DomainConfig,
    HeatOperatorSpec,
    InteriorGrid,
    NodalField,
    ShapeMismatch,
    SpaceTimeField,
    TimeGrid,
    assemble_layer,
    green_representation,
    icosphere,
    parabolic_green_reconstruct,
    parabolic_layer_potentials,
    points_inside,
    poisson_integral,
    reconstruct_ui_general,
    run_protocol_1,
    run_protocol_2,
    solve_cauchy_elliptic,
    surface_distance,
    volume_heat_potential,
    volume_potential,
)


@pytest.fixture(scope="module")
def lab():
    heart = icosphere(0, 1.0, surface_id="heart")
    torso = icosphere(0, 2.0, surface_id="torso")
    grid = InteriorGrid.for_mesh(heart, h=0.4)
    tg = TimeGrid(t_end=0.2, steps=3)
    n = heart.n_vertices
    return types.SimpleNamespace(
        heart=heart, domain=DomainConfig(heart=heart, torso=torso),
        model=ConductivityModel(), grid=grid, spec=HeatOperatorSpec(M=1.0, dim=3),
        field=NodalField("heart", np.ones(n)), array=np.ones(n),
        torso_field=NodalField("torso", torso.vertices[:, 2]),
        record=SpaceTimeField("heart", np.ones((n, 3)), tg),
        source=SpaceTimeField("grid", np.ones((grid.n_cells, 3)), tg),
        cells=np.ones(grid.n_cells), x=np.array([0.1, 0.0, 0.2]), t=0.2)


# entry point -> (the lab's valid field or record for it, call of it on the
# lab with that argument given); each is called with an ndarray in its place
_FIELDS = {
    "run_protocol_1": ("field", lambda L, f: run_protocol_1(L.domain, L.model, f)),
    "run_protocol_2": ("torso_field", lambda L, f: run_protocol_2(
        L.domain, L.model, f)),
    "solve_cauchy_elliptic": ("torso_field", lambda L, f: solve_cauchy_elliptic(
        L.model.M_b, L.domain, f)),
    "green_representation-dirichlet": ("field", lambda L, f: green_representation(
        1.0, L.heart, f, L.field, L.x)),
    "green_representation-conormal": ("field", lambda L, f: green_representation(
        1.0, L.heart, L.field, f, L.x)),
    "reconstruct_ui_general": ("field", lambda L, f: reconstruct_ui_general(
        f, L.model.M_i, L.model.M_e, 1.0, L.heart, (L.grid, L.cells))),
    "parabolic_layer_potentials": ("record", lambda L, f: parabolic_layer_potentials(
        L.spec, L.heart, f, "single", L.x, L.t)),
    "volume_heat_potential": ("source", lambda L, f: volume_heat_potential(
        L.spec, L.grid, f, L.x, L.t)),
    "parabolic_green_reconstruct-trace": ("record", lambda L, f: (
        parabolic_green_reconstruct(L.spec, L.heart, L.grid, f, L.record, None,
                                    None, L.x, L.t))),
    "parabolic_green_reconstruct-flux": ("record", lambda L, f: (
        parabolic_green_reconstruct(L.spec, L.heart, L.grid, L.record, f, None,
                                    None, L.x, L.t))),
    "parabolic_green_reconstruct-source": ("source", lambda L, f: (
        parabolic_green_reconstruct(L.spec, L.heart, L.grid, L.record, L.record,
                                    None, f, L.x, L.t))),
}

# entry point -> call of it on the lab with the points given
_POINTS = {
    "points_inside": lambda L, x: points_inside(L.heart, x),
    "surface_distance": lambda L, x: surface_distance(L.heart, x),
    "assemble_layer": lambda L, x: assemble_layer("single", 1.0, L.heart, x),
    "volume_potential": lambda L, x: volume_potential(1.0, L.grid, L.cells, x),
    "green_representation": lambda L, x: green_representation(
        1.0, L.heart, L.field, L.field, x),
    "poisson_integral": lambda L, x: poisson_integral(
        L.spec, L.grid, L.cells, x, L.t),
    "volume_heat_potential": lambda L, x: volume_heat_potential(
        L.spec, L.grid, L.source, x, L.t),
    "parabolic_layer_potentials": lambda L, x: parabolic_layer_potentials(
        L.spec, L.heart, L.record, "double", x, L.t),
    "parabolic_green_reconstruct": lambda L, x: parabolic_green_reconstruct(
        L.spec, L.heart, L.grid, L.record, L.record, None, None, x, L.t),
}
_HEAT = {"poisson_integral", "volume_heat_potential", "parabolic_layer_potentials",
         "parabolic_green_reconstruct"}

_CASES = ([(f"{name}-ndarray-field", call, "array")
           for name, (_, call) in _FIELDS.items()]
          + [(f"{name}-{kind}", call, kind) for name, call in _POINTS.items()
             for kind in ("2d-point", "nan-point")]
          + [(f"{name}-two-points", _POINTS[name], "two-points")
             for name in sorted(_HEAT)])

_BAD = {"2d-point": np.array([[0.1, 0.2]]), "nan-point": np.array([0.1, np.nan, 0.2]),
        "two-points": np.array([[0.1, 0.0, 0.2], [0.0, 0.1, 0.2]])}


@pytest.mark.parametrize("call, kind", [case[1:] for case in _CASES],
                         ids=[case[0] for case in _CASES])
def test_entry_points_refuse_malformed_arguments(lab, call, kind):
    with pytest.raises(ShapeMismatch):
        call(lab, lab.array if kind == "array" else _BAD[kind])


@pytest.mark.parametrize("name", sorted(_FIELDS))
def test_field_entry_points_take_the_lab_fields(lab, name):
    # the calls above fail only by their ndarray
    good, call = _FIELDS[name]
    call(lab, getattr(lab, good))


@pytest.mark.parametrize("name", sorted(_POINTS))
def test_point_entry_points_take_the_lab_point(lab, name):
    # the calls above fail only by their malformed points
    _POINTS[name](lab, lab.x)
