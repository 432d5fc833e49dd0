"""Shared fixtures: meshes, the conductivity model, and oracle datasets.

Everything here is session-scoped because mesh refinement and the dense
operator assembly dominate the suite's runtime; tests must treat fixture
objects as read-only (SurfaceMesh and the field containers are frozen, so
accidental mutation raises).
"""

import numpy as np
import pytest

from cardiobem import assembly
from cardiobem.assembly import _TRI_RULE_B, _TRI_RULE_W
from cardiobem import (
    ConductivityModel,
    DomainConfig,
    HarmonicSpec,
    HarmonicTerm,
    Shell3D,
    icosphere,
    synth_bidomain_steady,
)


@pytest.fixture(scope="session")
def model():
    # sigma_li = 12, sigma_le = 45 (lambda = 3.75), bath 7 mS/cm
    return ConductivityModel()


@pytest.fixture(scope="session")
def heart2():
    return icosphere(2, 1.0, surface_id="heart")


@pytest.fixture(scope="session")
def torso2():
    return icosphere(2, 2.0, surface_id="torso")


@pytest.fixture(scope="session")
def domain2(heart2, torso2):
    return DomainConfig(heart=heart2, torso=torso2)


@pytest.fixture(scope="session")
def heart3():
    return icosphere(3, 1.0, surface_id="heart")


@pytest.fixture(scope="session")
def torso3():
    return icosphere(3, 2.0, surface_id="torso")


@pytest.fixture(scope="session")
def domain3(heart3, torso3):
    return DomainConfig(heart=heart3, torso=torso3)


@pytest.fixture(scope="session")
def shell_spec():
    # degree-2 extracellular potential on the r=1..2 shell, 10 mV amplitude
    return HarmonicSpec(terms=(HarmonicTerm(2, 1, a=10.0),),
                        geometry=Shell3D(1.0, 2.0))


@pytest.fixture(scope="session")
def shell_oracle(model, shell_spec):
    return synth_bidomain_steady(Shell3D(1.0, 2.0), model, shell_spec)


@pytest.fixture(scope="session")
def fields2(shell_oracle, heart2, torso2):
    """Oracle dataset sampled on the level-2 shell meshes."""
    return shell_oracle.fields_on(heart2, torso2)


@pytest.fixture(scope="session")
def fields3(shell_oracle, heart3, torso3):
    """Oracle dataset sampled on the level-3 shell meshes."""
    return shell_oracle.fields_on(heart3, torso3)


@pytest.fixture
def assembly_builds(monkeypatch):
    """Layer kinds passed to ``assembly._assemble_dense``, one per build."""
    builds = []
    assemble_dense = assembly._assemble_dense

    def counted(*args, **kwargs):
        builds.append(args[0])
        return assemble_dense(*args, **kwargs)

    monkeypatch.setattr(assembly, "_assemble_dense", counted)
    return builds


@pytest.fixture(scope="session")
def written_out_rule():
    """Regular-rule reference for a surface mesh, kept apart from assembly.

    Returns a function of the mesh giving the 7-point rule's points and
    normals, one panel at a time, and the dense (points, vertices) weights
    rule weight x basis value x panel area.
    """
    def rule(mesh):
        points, normals = [], []
        weights = np.zeros((len(_TRI_RULE_W) * len(mesh.triangles), mesh.n_vertices))
        for tri, normal, area in zip(mesh.triangles, mesh.normals, mesh.areas):
            for lam, w in zip(_TRI_RULE_B, _TRI_RULE_W):
                weights[len(points), tri] += w * area * lam
                points.append(lam @ mesh.vertices[tri])
                normals.append(normal)
        return np.array(points), np.array(normals), weights

    return rule
