"""Mesh containers, primitives, nodal fields, and file round trips."""

import json
import os
import threading
import types

import numpy as np
import pytest

from cardiobem import (
    ConductivityModel,
    CurveMesh,
    DomainConfig,
    GeometryError,
    HeatOperatorSpec,
    NodalField,
    ParseError,
    PointOnBoundary,
    ShapeMismatch,
    SpaceTimeField,
    SurfaceMesh,
    TikhonovConfig,
    TimeGrid,
    circle_curve,
    icosphere,
    load_mesh,
    load_nodal_field,
    load_spacetime_field,
    points_inside,
    save_mesh,
    save_nodal_field,
    save_spacetime_field,
    surface_distance,
)
import cardiobem.mesh as mesh_module
from cardiobem.grid import InteriorGrid
from cardiobem.mesh import (_INSIDE_BLOCK, _closest_points, _distances_within,
                            _memo, _write_text, require_off_surface)
from cardiobem.primitives import octahedron, unit_cube


@pytest.mark.parametrize("level", [0, 1, 2, 3])
def test_icosphere_counts(level):
    m = icosphere(level, 1.0, surface_id="s")
    assert m.n_vertices == 10 * 4 ** level + 2
    assert m.triangles.shape == (20 * 4 ** level, 3)
    # watertight: Euler characteristic 2, every edge shared by two faces
    assert m.n_vertices - len(m.edges) + len(m.triangles) == 2
    assert 2 * len(m.edges) == 3 * len(m.triangles)


def test_icosphere_metrics():
    m = icosphere(3, 2.0, surface_id="s")
    assert m.areas.sum() == pytest.approx(4 * np.pi * 4.0, rel=5e-3)
    assert m.enclosed_volume == pytest.approx(4 * np.pi * 8.0 / 3, rel=1e-2)
    assert np.linalg.norm(m.vertices, axis=1) == pytest.approx(2.0, abs=1e-12)
    # outward normals: positive dot with the face centroid direction
    cent = m.vertices[m.triangles].mean(axis=1)
    assert np.all(np.einsum("ij,ij->i", m.normals, cent) > 0)
    assert m.vertex_weights.sum() == pytest.approx(m.areas.sum())


def test_icosphere_off_center():
    m = icosphere(1, 0.5, center=(1.0, -2.0, 0.5), surface_id="s")
    assert np.linalg.norm(m.vertices - [1.0, -2.0, 0.5], axis=1) == pytest.approx(0.5, abs=1e-12)


def test_circle_curve():
    c = circle_curve(2.0, 64, surface_id="c")
    # polygon perimeter, exact for the inscribed n-gon
    assert c.areas.sum() == pytest.approx(2 * 64 * np.sin(np.pi / 64) * 2.0)
    assert c.dim == 2
    # outward normals in 2d
    mid = c.vertices[c.segments].mean(axis=1)
    assert np.all(np.einsum("ij,ij->i", c.normals, mid) > 0)
    assert c.enclosed_volume == pytest.approx(np.pi * 4.0, rel=2e-3)


def test_curve_orientation_repair():
    # clockwise square must come out counter-clockwise
    verts = np.array([[0.0, 0.0], [0.0, 1.0], [1.0, 1.0], [1.0, 0.0]])
    segs = np.array([[0, 1], [1, 2], [2, 3], [3, 0]])
    cw = CurveMesh(verts, segs, surface_id="sq")
    assert cw.enclosed_volume > 0
    centroid = verts.mean(axis=0)
    mid = cw.vertices[cw.segments].mean(axis=1)
    assert np.all(np.einsum("ij,ij->i", cw.normals, mid - centroid) > 0)


def test_nodal_field_checks():
    m = icosphere(1, 1.0, surface_id="heart")
    f = NodalField("heart", m.vertices[:, 2])
    assert f.check_on(m) is not None
    with pytest.raises(ShapeMismatch):
        NodalField("heart", np.array([1.0, np.nan]))
    with pytest.raises(ShapeMismatch):
        NodalField("heart", np.zeros(5)).check_on(m)
    with pytest.raises(ShapeMismatch):
        NodalField("torso", m.vertices[:, 2]).check_on(m)


def test_constructors_copy_the_callers_arrays():
    # each object freezes its own copy: the caller's array stays writeable,
    # and writing to it later leaves the object's array as it was
    octa, loop = octahedron(), circle_curve(1.0, 8, surface_id="c")
    cases = [
        (lambda a: NodalField("h", a), np.arange(5.0), lambda o: o.values),
        (lambda a: SurfaceMesh(a, octa.triangles, surface_id="o"),
         octa.vertices.copy(), lambda o: o.vertices),
        (lambda a: SurfaceMesh(octa.vertices, a, surface_id="o"),
         octa.triangles.copy(), lambda o: o.triangles),
        (lambda a: CurveMesh(a, loop.segments, surface_id="c"),
         loop.vertices.copy(), lambda o: o.vertices),
        (lambda a: CurveMesh(loop.vertices, a, surface_id="c"),
         loop.segments.copy(), lambda o: o.segments),
        (lambda a: ConductivityModel(M_i=a), 3.0 * np.eye(3), lambda o: o.M_i),
        (lambda a: ConductivityModel(M_e=a), 9.0 * np.eye(3), lambda o: o.M_e),
        (lambda a: HeatOperatorSpec(M=a), np.diag([1.0, 2.0, 3.0]), lambda o: o.M),
        (lambda a: HeatOperatorSpec(drift=a), np.array([0.1, 0.2, 0.3]),
         lambda o: o.drift),
        (lambda a: TikhonovConfig(a), np.logspace(-8, 1, 8),
         lambda o: o.alpha_grid),
    ]
    for make, given, held in cases:
        before = given.copy()
        kept = held(make(given))
        assert given.flags.writeable and not kept.flags.writeable
        given[0] = given[1]
        assert np.array_equal(kept, before)


@pytest.mark.parametrize("fmt", ["off", "json", "vtk"])
def test_mesh_round_trip(tmp_path, fmt):
    m = icosphere(1, 1.3, surface_id="heart")
    p = tmp_path / f"m.{fmt}"
    save_mesh(m, p)
    back = load_mesh(p, surface_id="heart")
    # repr-based writers keep full precision
    assert np.array_equal(back.vertices, m.vertices)
    assert np.array_equal(back.triangles, m.triangles)


def test_nodal_field_round_trip(tmp_path):
    m = icosphere(1, 1.0, surface_id="heart")
    f = NodalField("heart", np.pi * m.vertices[:, 0], units="mV")
    save_nodal_field(f, tmp_path / "f.csv")
    back = load_nodal_field(tmp_path / "f.csv")
    assert np.array_equal(back.values, f.values)
    assert back.surface_id == "heart" and back.units == "mV"


@pytest.mark.parametrize("rows, message", [
    (["0,1.0", "1,2.0", "-1,9.0"], "outside"),
    (["0,1.0", "1,2.0", "3,9.0"], "outside"),
    (["0,1.0", "1,2.0", "1,5.0", "2,3.0"], "twice"),
])
def test_nodal_field_row_checks(tmp_path, rows, message):
    path = tmp_path / "f.csv"
    save_nodal_field(NodalField("heart", np.zeros(3)), path)
    path.write_text("\n".join(["node_index,value"] + rows) + "\n")
    with pytest.raises(ParseError, match=message):
        load_nodal_field(path)


@pytest.mark.parametrize("sidecar", [
    '["heart", 3]',
    '{"surface_id": "heart", "units": "mV"}',
    '{"length": 3, "units": "mV"}',
    '{"surface_id": "heart", "length": -3}',
    '{"surface_id": "heart", "length": "3"}',
    '{"surface_id": "heart", "length": 2.5}',
], ids=["list", "no-length", "no-surface-id", "negative", "string", "fraction"])
def test_nodal_field_sidecar_checks(tmp_path, sidecar):
    path = tmp_path / "f.csv"
    save_nodal_field(NodalField("heart", np.zeros(3)), path)
    (tmp_path / "f.csv.json").write_text(sidecar)
    with pytest.raises(ParseError, match="field manifest"):
        load_nodal_field(path)


_TETRA = b"0 0 0\n1 0 0\n0 1 0\n0 0 1\n"
_TETRA_VTK = (b"# vtk DataFile Version 3.0\nm\nASCII\nDATASET POLYDATA\n"
              b"POINTS 4 double\n" + _TETRA)
_TETRA_JSON = b'{"vertices": [[0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1]], '


# case -> (file written by a writer, its edit, loader); each edit leaves a
# file the loader refuses, every one of them with a ParseError
_MALFORMED = {
    "off-truncated-header": ("m.off", lambda b: b"OFF\n12 20\n", load_mesh),
    "off-quad-face": ("m.off", lambda b: b.replace(b"\n3 ", b"\n4 0 ", 1), load_mesh),
    "off-not-utf8": ("m.off", lambda b: b.replace(b"OFF", b"OFF\xff"), load_mesh),
    "vtk-short-polygons": ("m.vtk", lambda b: _TETRA_VTK + b"POLYGONS 4 4\n3 0 1 2\n",
                           load_mesh),
    "json-ragged-vertices": ("m.json", lambda b: b'{"vertices": [[0, 0, 0], [1, 0]], '
                             b'"triangles": [[0, 1, 2]]}', load_mesh),
    "json-string-vertices": ("m.json", lambda b: b'{"vertices": [["a", "b", "c"]], '
                             b'"triangles": [[0, 1, 2]]}', load_mesh),
    "json-index-beyond-int64": ("m.json", lambda b: _TETRA_JSON + b'"triangles": '
                                b"[[0, 2, 1], [0, 1, %d], [0, 3, 2], [1, 2, 3]]}" % 2 ** 70,
                                load_mesh),
    "csv-not-utf8": ("f.csv", lambda b: b.replace(b"0,", b"0,\xff", 1), load_nodal_field),
    "csv-fractional-index": ("f.csv", lambda b: b.replace(b"\n1,", b"\n1.5,"),
                             load_nodal_field),
    "record-sidecar-list": ("r.csv.json", lambda b: b'["heart", [3, 4]]',
                            load_spacetime_field),
    "record-sidecar-no-location": ("r.csv.json", lambda b: b.replace(
        b'"location"', b'"place"'), load_spacetime_field),
    "record-string-t-end": ("r.csv.json", lambda b: b.replace(
        b'"t_end": 0.5', b'"t_end": "0.5"'), load_spacetime_field),
    "record-string-steps": ("r.csv.json", lambda b: b.replace(
        b'"steps": 4', b'"steps": "4"'), load_spacetime_field),
    "csv-units-list": ("f.csv.json", lambda b: b.replace(
        b'"units": "mV"', b'"units": [1, 2]'), load_nodal_field),
    "record-units-number": ("r.csv.json", lambda b: b.replace(
        b'"units": "mV"', b'"units": 3'), load_spacetime_field),
}


@pytest.mark.parametrize("case", sorted(_MALFORMED))
def test_loaders_reject_malformed_files(tmp_path, case):
    name, edit, load = _MALFORMED[case]
    mesh = icosphere(0, 1.0, surface_id="heart")
    for suffix in (".off", ".vtk", ".json"):
        save_mesh(mesh, tmp_path / f"m{suffix}")
    save_nodal_field(NodalField("heart", np.arange(3.0)), tmp_path / "f.csv")
    save_spacetime_field(SpaceTimeField("heart", np.arange(12.0).reshape(3, 4),
                                        TimeGrid(t_end=0.5, steps=4)),
                         tmp_path / "r.csv")
    target = tmp_path / (name.removesuffix(".json") if name.endswith(".csv.json")
                         else name)
    load(target)  # as written, it loads
    before = (tmp_path / name).read_bytes()
    (tmp_path / name).write_bytes(edit(before))
    assert (tmp_path / name).read_bytes() != before
    with pytest.raises(ParseError):
        load(target)


def test_memo_builds_on_other_owners_while_one_builds():
    # a build held open on one owner blocks neither a first build on
    # another owner nor a build of another entry on the same owner; a
    # build that raises frees its claim, so the next caller builds again
    busy, other = types.SimpleNamespace(), types.SimpleNamespace()
    started, release = threading.Event(), threading.Event()

    def held():
        started.set()
        assert release.wait(timeout=60)
        return "held"

    built = []
    holder = threading.Thread(target=lambda: built.append(_memo(busy, "k", held)))
    holder.start()
    try:
        assert started.wait(timeout=60)
        done = threading.Event()
        other_thread = threading.Thread(target=lambda: (
            built.append(_memo(other, "k", lambda: "other")),
            built.append(_memo(busy, "j", lambda: "same owner")), done.set()))
        other_thread.start()
        assert done.wait(timeout=60)
        other_thread.join(timeout=60)
        assert built == ["other", "same owner"]
    finally:
        release.set()
        holder.join(timeout=60)
    assert not holder.is_alive()
    assert built[-1] == "held"

    def fails():
        raise RuntimeError("build failed")

    with pytest.raises(RuntimeError):
        _memo(other, "broken", fails)
    assert _memo(other, "broken", lambda: "rebuilt") == "rebuilt"


def test_write_text_cuts_a_longer_file(tmp_path):
    path = tmp_path / "out.json"
    path.write_text("x" * 4096 + "\n")
    _write_text(path, "{}\n")
    assert path.read_bytes() == b"{}\n"


def test_write_text_creates_and_keeps_mode(tmp_path):
    made = tmp_path / "made.csv"
    _write_text(made, "a\n")
    reference = tmp_path / "reference.csv"
    reference.write_text("a\n")
    assert made.read_bytes() == b"a\n"
    assert made.stat().st_mode == reference.stat().st_mode
    kept = tmp_path / "kept.csv"
    kept.write_text("old contents\n")
    os.chmod(kept, 0o604)
    _write_text(kept, "new\n")
    assert kept.read_bytes() == b"new\n"
    assert kept.stat().st_mode & 0o777 == 0o604


@pytest.mark.parametrize("old", ["abc\n", "a\n"], ids=["equal", "shorter"])
def test_write_text_over_an_existing_file(tmp_path, old):
    path = tmp_path / "out.csv"
    path.write_text(old)
    _write_text(path, "xyz\n")
    assert path.read_bytes() == b"xyz\n"


def test_save_nodal_field_bytes(tmp_path):
    # shortest round-trip reprs, exponents included, the values on either
    # side of the two magnitudes where repr switches to exponent form, and a
    # sidecar whose strings need JSON escapes
    edges = [x for t in (1e-4, 1e16) for s in (1.0, -1.0)
             for x in (np.nextafter(s * t, 0.0), s * t, np.nextafter(s * t, s * np.inf))]
    values = [-0.0, 5e-324, 1e-05, 1e+16, 1e+22, 0.1, 1 / 3,
              123456789012345678.0, 9999999999999998.0] + [float(x) for x in edges]
    surface_id, units = 'he"art\\1 \u00e9', 'm\u00b5V \\ "x"'
    save_nodal_field(NodalField(surface_id, np.array(values), units=units),
                     tmp_path / "f.csv")
    rows = "".join(f"{i},{v!r}\n" for i, v in enumerate(values))
    assert (tmp_path / "f.csv").read_bytes() == \
        ("node_index,value\n" + rows).encode()
    assert rows.startswith("0,-0.0\n1,5e-324\n2,1e-05\n3,1e+16\n4,1e+22\n")
    assert "9,9.999999999999999e-05\n10,0.0001\n11,0.00010000000000000002\n" in rows
    assert "15,9999999999999998.0\n16,1e+16\n17,1.0000000000000002e+16\n" in rows
    manifest = {"surface_id": surface_id, "units": units, "length": len(values)}
    assert (tmp_path / "f.csv.json").read_bytes() == \
        (json.dumps(manifest, indent=1) + "\n").encode()
    back = load_nodal_field(tmp_path / "f.csv")
    assert back.values.tobytes() == np.array(values).tobytes()
    assert (back.surface_id, back.units) == (surface_id, units)


def _old_format_rows(line, values, index=False):
    """The formatter as one ``%`` call over ``tolist()``: ``repr`` per float."""
    vals = np.asarray(values, dtype=float)
    cells = vals.ravel().tolist()
    if index:
        numbered = [None] * (2 * len(cells))
        numbered[::2] = range(len(cells))
        numbered[1::2] = cells
        cells = numbered
    return (line * len(vals)) % tuple(cells)


def _assert_rows_equal(new, old, what):
    # compare row by row: a diff of two multi-megabyte strings takes minutes
    new, old = new.splitlines(), old.splitlines()
    assert len(new) == len(old), what
    for row, (a, b) in enumerate(zip(new, old)):
        assert a == b, (what, row)


def _assert_formats_as_old(line, values):
    _assert_rows_equal("".join(mesh_module._format_rows(line, values)),
                       _old_format_rows(line, values), line)


def _assert_saves_as_old(path, values):
    # the nodal CSV is its header over the old indexed format
    save_nodal_field(NodalField("heart", values), path)
    _assert_rows_equal(path.read_text(), "node_index,value\n"
                       + _old_format_rows("%d,%r\n", values, index=True), path.name)
    assert json.loads((path.parent / (path.name + ".json")).read_text())["length"] \
        == len(values)


def _format_cases(flat, ints):
    return [
        ("%r\n", flat),
        ("%r %r %r\n", flat[:3 * (len(flat) // 3)].reshape(-1, 3)),
        (",".join(["%r"] * 5) + "\n", flat[:5 * (len(flat) // 5)].reshape(-1, 5)),
        ("3 %d %d %d\n", ints),
        ("%r\n", np.empty(0)),
        ("%r %r %r\n", np.empty((0, 3))),
    ]


def _spelling_cases():
    # uniform bit patterns cover the whole double range (subnormals, nan
    # payloads, both exponent forms of repr); scaled normals and rounded
    # decimals fill the range where orjson's digits are kept
    rng = np.random.default_rng(14)
    bits = rng.integers(0, 2**64, size=100_000, dtype=np.uint64).view(np.float64)
    scaled = rng.standard_normal(20_000) * 10.0 ** rng.integers(-8, 20, 20_000)
    special = [np.nan, np.inf, -np.inf, 0.0, -0.0, 5e-324, -2.2250738585072014e-308,
               1e-4, 1e16, 9999999999999998.0, np.nextafter(1e-4, 0.0)]
    flat = np.concatenate([special, bits, scaled, np.round(scaled, 3)])
    assert len(flat) > mesh_module._BLOCK_CELLS
    return flat, rng.integers(0, 2**53, size=(100, 3)).astype(float)


def test_format_rows_matches_repr():
    # the one-column table crosses a block boundary
    flat, ints = _spelling_cases()
    _assert_formats_as_old(*_format_cases(flat, ints)[0])
    for case in _format_cases(flat[-6000:], ints)[1:]:
        _assert_formats_as_old(*case)


def test_save_nodal_field_matches_repr(tmp_path):
    # the finite values of the same spellings, the special ones first; the
    # field runs past the kept row prefixes and over several blocks, so its
    # row numbers must continue
    flat = _spelling_cases()[0]
    finite = flat[np.isfinite(flat)]
    assert len(finite) > 2 * len(mesh_module._ROW_PREFIXES)
    assert finite[2:7].tolist() == [5e-324, -2.2250738585072014e-308, 1e-4,
                                    1e16, 9999999999999998.0]
    _assert_saves_as_old(tmp_path / "f.csv", finite)


def _block_cases():
    rng = np.random.default_rng(15)
    flat = np.concatenate([[np.nan, -np.inf, 1e-7, 2e16],
                           rng.standard_normal(60) * 10.0 ** rng.integers(-8, 20, 60)])
    return flat, rng.integers(0, 1000, size=(9, 3)).astype(float)


def test_format_rows_blocks(monkeypatch, tmp_path):
    # seven cells a block: two rows of a three-column table, one of a
    # five-column one, so blocks split tables at every width used here
    monkeypatch.setattr(mesh_module, "_BLOCK_CELLS", 7)
    flat, ints = _block_cases()
    for case in _format_cases(flat, ints):
        _assert_formats_as_old(*case)
    # _write_text writes a table of twelve blocks block by block, over a
    # longer file, to the bytes of the whole table
    line, table = _format_cases(flat, ints)[2]
    assert len(list(mesh_module._format_rows(line, table))) == 12
    path = tmp_path / "table.csv"
    path.write_text("x" * 4096 + "\n")
    _write_text(path, mesh_module._format_rows(line, table))
    assert path.read_bytes() == _old_format_rows(line, table).encode()


def test_save_nodal_field_blocks(monkeypatch, tmp_path):
    # seven rows a block and sixteen kept prefixes: the second block takes
    # kept ones from their middle, the third straddles their end and makes
    # its own, as do the later blocks; an empty field writes only the header
    monkeypatch.setattr(mesh_module, "_BLOCK_CELLS", 7)
    monkeypatch.setattr(mesh_module, "_ROW_PREFIXES", mesh_module._ROW_PREFIXES[:16])
    finite = _block_cases()[0][2:]
    for values in (finite, finite[:7], finite[:1], np.empty(0)):
        _assert_saves_as_old(tmp_path / "f.csv", values)
    assert (tmp_path / "f.csv").read_bytes() == b"node_index,value\n"


def test_point_queries():
    m = icosphere(2, 1.0, surface_id="s")
    pts = np.array([[0.0, 0.0, 0.5], [1.5, 0.0, 0.0], [0.0, -0.3, 0.2]])
    assert list(points_inside(m, pts)) == [True, False, True]
    d = surface_distance(m, np.array([[0.0, 0.0, 0.0]]))
    # distance from the center to the faceted sphere is just under the radius
    assert 0.9 < d[0] <= 1.0



@pytest.mark.parametrize("shape", ["cube", "octahedron"])
def test_points_inside_known_answer(shape):
    # the unit cube [0, 1]^3 holds |x - c|_inf < 1/2 about its center c, the
    # octahedron |x|_1 < r; points within 1e-6 of the surface are dropped
    rng = np.random.default_rng(7)
    if shape == "cube":
        mesh, center = unit_cube(), np.full(3, 0.5)

        def depth(x):
            return 0.5 - np.abs(x - center).max(axis=1)
    else:
        mesh, center = octahedron(radius=0.8), np.zeros(3)

        def depth(x):
            return 0.8 - np.abs(x).sum(axis=1)
    box = center + rng.uniform(-1.0, 1.0, size=(2000, 3))
    # points on the first ray direction through the center: on the cube
    # that ray runs through a corner, which forces the re-cast along the
    # next direction
    ray = np.linspace(-1.0, 1.0, 41)[:, None] * np.full(3, 1.0 / np.sqrt(3.0))
    pts = np.vstack([box, center + ray])
    pts = pts[np.abs(depth(pts)) > 1e-6]
    assert np.array_equal(points_inside(mesh, pts), depth(pts) > 0.0)


def test_points_inside_blocks():
    # 3000 points span several blocks of _INSIDE_BLOCK (column, triangle)
    # pairs; calls on pieces that straddle the block edges give the same
    # mask, and away from the surface it is |x| < 1 on the unit icosphere
    sphere = icosphere(2, 1.0, surface_id="s")
    assert 3000 * len(sphere.triangles) > 3 * _INSIDE_BLOCK
    pts = np.random.default_rng(11).uniform(-1.3, 1.3, size=(3000, 3))
    mask = points_inside(sphere, pts)
    pieces = np.concatenate([points_inside(sphere, part)
                             for part in np.array_split(pts, 7)])
    assert np.array_equal(mask, pieces)
    radius = np.linalg.norm(pts, axis=1)
    away = np.abs(radius - 1.0) > 0.05
    assert away.sum() > 2500
    assert np.array_equal(mask[away], radius[away] < 1.0)


def _eccentric_rotated_sphere():
    sphere = icosphere(2, 0.7, center=(0.3, -0.2, 0.15), surface_id="s")
    q, _ = np.linalg.qr(np.random.default_rng(3).standard_normal((3, 3)))
    q *= np.sign(np.linalg.det(q))  # a rotation keeps the winding outward
    return SurfaceMesh(sphere.vertices @ q.T, sphere.triangles, "s")


def _winding_number(mesh, pts):
    # an independent reference for containment: the solid angle (van
    # Oosterom & Strackee) or, on a curve, the angle the surface subtends
    # at each point, over 4 pi or 2 pi; 1 inside, 0 outside
    out = []
    for part in np.array_split(pts, -(-len(pts) // 64)):
        r = mesh.vertices[mesh.elements][None] - part[:, None, None]  # (p, m, k, dim)
        if mesh.dim == 2:
            a, b = r[:, :, 0], r[:, :, 1]
            cross = a[..., 0] * b[..., 1] - a[..., 1] * b[..., 0]
            out.append(np.arctan2(cross, (a * b).sum(-1)).sum(1) / (2.0 * np.pi))
            continue
        a, b, c = r[:, :, 0], r[:, :, 1], r[:, :, 2]
        la, lb, lc = (np.linalg.norm(v, axis=-1) for v in (a, b, c))
        triple = (a * np.cross(b, c)).sum(-1)
        den = (la * lb * lc + (a * b).sum(-1) * lc + (a * c).sum(-1) * lb
               + (b * c).sum(-1) * la)
        out.append(2.0 * np.arctan2(triple, den).sum(1) / (4.0 * np.pi))
    return np.concatenate(out)


@pytest.mark.parametrize("mesh, h, deferred", [
    (icosphere(2, 1.0, surface_id="s"), 0.14, False),
    (unit_cube(), 0.15, True),
    (octahedron(radius=0.8), 0.15, True),
    (icosphere(3, 1.0, surface_id="s"), 0.05, False),
    (_eccentric_rotated_sphere(), 0.06, False),
    (unit_cube(), 0.125, True),
    (octahedron(radius=0.78125), 0.125, False),
], ids=["heat-grid", "cube", "octahedron", "level-3", "eccentric-rotated",
        "cube-edges", "octahedron-faces"])
def test_points_inside_box_cut_matches_solid_angle(mesh, h, deferred, monkeypatch):
    # outside the open bounding box no ray is cast, and the grid's mask
    # comes from one ray per column of cells; both give every cell the
    # mask points_inside gives.  Cells on the surface are not inside, and
    # a seeded sample of the others agrees with the solid angle.  Columns
    # that run along an edge leave their cells to points_inside: at
    # h = 1/8 the cube's columns with x = y run exactly along the diagonal
    # edges of its top and bottom faces.  The 78 cell centers that lie
    # exactly on the faces of the octahedron of radius 25/32 settle in the
    # column pass.
    left = []
    monkeypatch.setattr(mesh_module, "points_inside",
                        lambda m, pts: left.append(len(pts)) or points_inside(m, pts))
    grid = InteriorGrid.for_mesh(mesh, h=h)
    centers = grid.centers()
    assert np.array_equal(points_inside(mesh, centers), grid.inside)
    assert (sum(left) > 0) == deferred
    on = _distances_within(mesh, centers, 1e-9) <= 1e-9
    assert not grid.inside[on].any()
    off = np.flatnonzero(~on)
    sample = np.random.default_rng(17).choice(off, min(len(off), 1500), replace=False)
    winding = _winding_number(mesh, centers[sample])
    assert np.array_equal(grid.inside[sample], winding > 0.5)


def test_points_inside_box_cut_matches_curve_winding():
    curve = circle_curve(0.7, 48, surface_id="c")
    axis = np.linspace(-0.95, 0.95, 77)
    pts = np.stack(np.meshgrid(axis, axis, indexing="ij"), axis=-1).reshape(-1, 2)
    # the points on the curve itself, here at (-0.7, 0), are not inside
    on = surface_distance(curve, pts) <= 1e-9
    assert on.any() and not points_inside(curve, pts[on]).any()
    mask = points_inside(curve, pts[~on])
    assert np.array_equal(mask, _winding_number(curve, pts[~on]) > 0.5)
    assert 0 < mask.sum() < len(pts)


@pytest.mark.parametrize("mesh", [icosphere(2, 1.0, surface_id="s"), unit_cube(),
                                  octahedron(), circle_curve(0.7, 48, surface_id="c")],
                         ids=["icosphere", "cube", "octahedron", "circle"])
def test_points_on_the_surface_are_not_inside(mesh):
    # vertices, edge midpoints and face centroids (a curve's vertices and
    # segment midpoints).  The parity rules before the column pass put 56
    # of 162 vertices, 225 of 480 edge midpoints and 160 of 320 face
    # centroids of the level-2 icosphere inside, and 22 of the circle's 48
    # vertices.
    pts = [mesh.vertices, mesh.vertices[mesh.elements].mean(axis=1)]
    if mesh.dim == 3:
        pts.append(mesh.vertices[mesh.edges].mean(axis=1))
    assert not points_inside(mesh, np.vstack(pts)).any()


def test_a_point_that_grazes_along_every_ray_raises(monkeypatch):
    # along +z alone, the column through (0.25, 0.25) runs along the
    # diagonal edge of the cube's top face above the point, so no ray
    # settles it; with every frame the next direction does
    cube, point = unit_cube(), np.array([[0.25, 0.25, 0.5]])
    assert points_inside(cube, point)[0]
    monkeypatch.setattr(mesh_module, "_FRAMES", {3: np.eye(3)[None]})
    with pytest.raises(GeometryError, match="graze"):
        points_inside(cube, point)


@pytest.mark.parametrize("mesh", [icosphere(2, 1.0, surface_id="s"), unit_cube()],
                         ids=["icosphere", "cube"])
def test_points_on_the_bounding_box_are_not_inside(mesh):
    lo, hi = mesh.vertices.min(axis=0), mesh.vertices.max(axis=0)
    pts = np.random.default_rng(5).uniform(lo, hi, size=(60, 3))
    for axis in range(3):
        pts[20 * axis : 20 * axis + 10, axis] = lo[axis]
        pts[20 * axis + 10 : 20 * axis + 20, axis] = hi[axis]
    assert not points_inside(mesh, pts).any()


def test_heat_grid_cell_count():
    assert InteriorGrid.for_mesh(icosphere(2, 1.0), h=0.14).inside.sum() == 1469


def test_meshes_and_domains_compare_by_identity():
    # like the data kept on them: equal content is not the same owner, and
    # owners with array fields neither raise on == nor on hash()
    heart, twin = (icosphere(1, 1.0, surface_id="heart") for _ in range(2))
    loop, loop_twin = (circle_curve(1.0, 16, surface_id="c") for _ in range(2))
    torso = icosphere(1, 2.0, surface_id="torso")
    domain = DomainConfig(heart=heart, torso=torso)
    times = TimeGrid(10.0, 3)
    owners = [
        (heart, twin), (loop, loop_twin),
        (domain, DomainConfig(heart=heart, torso=torso)),
        (NodalField("heart", np.arange(3.0)), NodalField("heart", np.arange(3.0))),
        (SpaceTimeField("heart", np.ones((2, 3)), times),
         SpaceTimeField("heart", np.ones((2, 3)), times)),
        (HeatOperatorSpec(np.diag([1.0, 2.0, 3.0])),
         HeatOperatorSpec(np.diag([1.0, 2.0, 3.0]))),
        (InteriorGrid.for_mesh(heart, 0.4), InteriorGrid.for_mesh(heart, 0.4)),
    ]
    for a, b in owners:
        assert a == a and not a == b and a != b
        assert {a: 1, b: 2}[a] == 1
    # the time grid is a value: parabolic compares grids
    assert TimeGrid(10.0, 3) == times and hash(TimeGrid(10.0, 3)) == hash(times)


def test_domain_config_containment():
    big = icosphere(1, 2.0, surface_id="heart")
    small = icosphere(1, 1.0, surface_id="torso")
    with pytest.raises(GeometryError):
        DomainConfig(heart=big, torso=small)


@pytest.mark.parametrize("level", [1, 2])
def test_domain_config_gap_at_the_tolerance(level):
    # a torso r outside the heart is kappa r away from it, with kappa set
    # by the mesh's face heights: the check raises for a gap just below the
    # 1e-6 cm tolerance and passes just above it
    heart = icosphere(level, 1.0, surface_id="heart")

    def gap_at(r):
        torso = icosphere(level, 1.0 + r, surface_id="torso")
        return torso, min(surface_distance(torso, heart.vertices).min(),
                          surface_distance(heart, torso.vertices).min())

    kappa = gap_at(2e-6)[1] / 2e-6
    assert 0.5 < kappa < 1.0
    torso, gap = gap_at(1e-6 * (1.0 - 1e-6) / kappa)
    assert 1e-6 * (1.0 - 2e-6) < gap < 1e-6
    with pytest.raises(GeometryError, match=f"{gap:.3e}"):
        DomainConfig(heart=heart, torso=torso)
    torso, gap = gap_at(1e-6 * (1.0 + 1e-6) / kappa)
    assert 1e-6 < gap < 1e-6 * (1.0 + 2e-6)
    DomainConfig(heart=heart, torso=torso)


@pytest.mark.parametrize("mesh", [icosphere(2, 1.0), circle_curve(1.0, 64)],
                         ids=["sphere", "circle"])
def test_distances_within_are_exact_up_to_the_tolerance(mesh):
    rng = np.random.default_rng(3)
    dirs = rng.normal(size=(400, mesh.dim))
    pts = dirs / np.linalg.norm(dirs, axis=1, keepdims=True) * rng.uniform(
        0.85, 1.15, size=(400, 1))
    pts = np.vstack([pts, mesh.vertices, mesh.vertices[mesh.elements].mean(axis=1)])
    exact = surface_distance(mesh, pts)
    for tol in (1e-9, 1e-3, 2e-2, 0.1):
        got = _distances_within(mesh, pts, tol)
        close = exact <= tol
        assert np.array_equal(got[close], exact[close])
        assert np.all(got[~close] > tol)


def _reference_distances(mesh, pts):
    """Least distance from each point to the elements, one element at a
    time: a triangle's is the Gram projection onto its plane when that falls
    inside it, otherwise the least of its three clamped edges; a segment's
    is the clamped projection."""
    best = np.full(len(pts), np.inf)
    for el in mesh.elements:
        c = mesh.vertices[el]
        edges = [(c[0], c[1])] if len(el) == 2 else [(c[a], c[(a + 1) % 3])
                                                       for a in range(3)]
        for a, b in edges:
            ab = b - a
            t = np.clip((pts - a) @ ab / (ab @ ab), 0.0, 1.0)
            best = np.minimum(best, np.linalg.norm(pts - a - t[:, None] * ab, axis=1))
        if len(el) == 3:
            e1, e2 = c[1] - c[0], c[2] - c[0]
            gram = np.array([[e1 @ e1, e1 @ e2], [e1 @ e2, e2 @ e2]])
            u, v = np.linalg.solve(gram, np.stack([(pts - c[0]) @ e1,
                                                   (pts - c[0]) @ e2]))
            foot = c[0] + u[:, None] * e1 + v[:, None] * e2
            inside = (u >= 0) & (v >= 0) & (u + v <= 1)
            best = np.where(inside, np.minimum(best, np.linalg.norm(pts - foot, axis=1)),
                            best)
    return best


@pytest.mark.parametrize("mesh", [icosphere(2, 1.0), unit_cube(), octahedron(),
                                  circle_curve(1.0, 64)],
                         ids=["sphere", "cube", "octahedron", "circle"])
def test_surface_distance_matches_per_element_reference(mesh):
    # the flat faces of the cube and the octahedron tie exactly over their
    # shared edges and vertices
    verts = mesh.vertices
    centre = verts.mean(axis=0)
    diag = float(np.linalg.norm(verts.max(axis=0) - verts.min(axis=0)))
    rng = np.random.default_rng(5)
    pts = np.vstack([verts, verts[mesh.elements].mean(axis=1),
                     centre + rng.uniform(-0.2, 0.2, size=(60, mesh.dim)) * diag,
                     centre + 1.3 * (verts - centre)])
    got = surface_distance(mesh, pts)
    assert np.abs(got - _reference_distances(mesh, pts)).max() <= 1e-15 * diag


def test_blocked_near_pairs_match_one_block(monkeypatch):
    # with small blocks the candidate products and the closest-point
    # batches split, and the pairs and the distances keep their bits
    m = icosphere(2, 1.0)
    pts = np.vstack([m.vertices * 1.01, m.vertices * 0.5])
    reach = 1.6 * m.element_diameters()
    want_pairs = mesh_module._near_pairs(m, pts, reach)
    want = surface_distance(m, pts)
    monkeypatch.setattr(mesh_module, "_PAIR_BLOCK", 1000)
    monkeypatch.setattr(mesh_module, "_CLOSEST_BATCH", 777)
    got_pairs = mesh_module._near_pairs(m, pts, reach)
    assert len(want_pairs[0]) > 777
    assert all(np.array_equal(a, b) for a, b in zip(got_pairs, want_pairs))
    assert np.array_equal(surface_distance(m, pts), want)


def test_closest_points_on_segments():
    # a segment's nearest point is its clamped projection; the barycentric
    # coordinates sum to 1 and give the point back
    curve = circle_curve(1.0, 64)
    rng = np.random.default_rng(6)
    x = rng.normal(size=(400, 2)) * 1.5
    corners = curve.vertices[curve.segments[rng.integers(0, 64, 400)]]
    point, lam = _closest_points(x, corners)
    assert point.shape == (400, 2) and lam.shape == (400, 2)
    assert np.all(lam >= 0.0)
    assert np.abs(lam.sum(axis=1) - 1.0).max() <= 1e-15
    assert np.abs(np.einsum("pk,pkj->pj", lam, corners) - point).max() <= 1e-15
    assert {0.0, 1.0} <= set(lam[:, 0])  # clamped at both ends
    s = np.linspace(0.0, 1.0, 201)[None, :, None]
    samples = corners[:, :1] + s * (corners[:, 1:] - corners[:, :1])
    nearest = np.linalg.norm(x[:, None] - samples, axis=2).min(axis=1)
    assert np.all(np.linalg.norm(x - point, axis=1) <= nearest + 1e-15)


def test_require_off_surface_at_the_tolerance():
    # points just inside and just outside the tolerance, 1e-9 x the box
    # diagonal, off a face centroid along the normal: that face is the
    # nearest, so the distance is the offset, and the message gives it
    m = icosphere(2, 1.0)
    tol = 1e-9 * np.linalg.norm(np.ptp(m.vertices, axis=0))
    centroid = m.vertices[m.triangles[7]].mean(axis=0)
    for factor in (1.0 - 1e-4, 1.0 + 1e-4):
        x = centroid + factor * tol * m.normals[7]
        d = surface_distance(m, x[None, :])[0]
        assert d == pytest.approx(factor * tol, rel=1e-6)
        if factor < 1.0:
            with pytest.raises(PointOnBoundary, match=f"{d:.3e}"):
                require_off_surface(m, x[None, :])
        else:
            require_off_surface(m, x[None, :])


def test_vertex_weights_built_once():
    curve = circle_curve(1.0, 64)
    for mesh, k in ((icosphere(2, 1.0), 3), (curve, 2)):
        w = mesh.vertex_weights
        want = np.zeros(mesh.n_vertices)
        np.add.at(want, mesh.elements.ravel(), np.repeat(mesh.areas / k, k))
        assert np.array_equal(w, want)
        assert mesh.vertex_weights is w
        assert not w.flags.writeable
        # each element's k sides, as sorted index pairs, once each
        edges = mesh.edges
        sides = {tuple(sorted((int(el[c]), int(el[(c + 1) % k]))))
                 for el in mesh.elements for c in range(k)}
        assert [tuple(e) for e in edges.tolist()] == sorted(sides)
        assert mesh.edges is edges
        assert not edges.flags.writeable
    # a segment's longest edge is the segment itself, bit for bit
    assert curve.element_diameters().tobytes() == curve.areas.tobytes()
