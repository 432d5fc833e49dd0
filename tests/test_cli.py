"""Command-line interface: config resolution, outputs, exit codes."""

import json

import numpy as np
import pytest

from cardiobem import (
    NodalField,
    SpaceTimeField,
    TimeGrid,
    load_nodal_field,
    rmse,
    save_nodal_field,
    save_spacetime_field,
)
from cardiobem.cli import (
    ValidationFailure,
    _parse_config_file,
    _threads,
    main,
    report_table,
)


def test_report_table_single_row():
    table = report_table([("LV", 5.71, 19.81)])
    assert table == "label  u_e->v  u_b->u_e->v\nLV  5.71 mV  19.81 mV"


def test_report_table_alignment_and_blanks():
    table = report_table([("LV", 5.71, 19.81), ("septum", 0.123, None)])
    assert table.splitlines() == [
        "label  u_e->v  u_b->u_e->v",
        "LV      5.71 mV  19.81 mV",
        "septum  0.12 mV  -",
    ]
    assert report_table([]) == "label  u_e->v  u_b->u_e->v"


def test_config_file_parsing(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        "# comment line\n"
        "\n"
        "alpha-count = 32   # hyphens fold to underscores\n"
        "noise = 0.05\n"
    )
    parsed = _parse_config_file(str(cfg))
    assert parsed == {"alpha_count": "32", "noise": "0.05"}
    cfg.write_text("no_such_key = 1\n")
    with pytest.raises(ValidationFailure, match="unknown key"):
        _parse_config_file(str(cfg))
    cfg.write_text("just some words\n")
    with pytest.raises(ValidationFailure, match="expected 'key = value'"):
        _parse_config_file(str(cfg))
    with pytest.raises(ValidationFailure, match="not found"):
        _parse_config_file(str(tmp_path / "absent.cfg"))


def test_synth_outputs_and_precedence(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("level = 0\namp = 5.0\n")
    out = tmp_path / "synth"
    code = main(["synth", "--config", str(cfg), "--amp", "8.0",
                 "--out", str(out)])
    assert code == 0
    doc = json.loads((out / "run_manifest.json").read_text())
    params = doc["parameters"]
    assert params["amp"] == 8.0          # flag beats config
    assert params["level"] == 0          # config beats default
    assert params["l"] == 1 and params["m_b"] == 7.0
    names = sorted(p.name for p in out.iterdir() if p.name != "run_manifest.json")
    assert names == doc["results"]["files"]
    fields = {"f", "u_e", "u_i", "v", "heart_flux", "heart_trace_ub"}
    expect = {"heart.off", "torso.off"}
    expect |= {f"{n}.csv" for n in fields} | {f"{n}.csv.json" for n in fields}
    assert set(names) == expect
    assert all(abs(v) < 1e-8
               for v in doc["results"]["transmission_residuals"].values())


def test_config_key_scope(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("steps = 10\n")   # a heat-check key, meaningless for synth
    code = main(["synth", "--config", str(cfg), "--level", "0",
                 "--out", str(tmp_path / "o")])
    assert code == 2


@pytest.fixture(scope="module")
def synth_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("dataset")
    assert main(["synth", "--level", "0", "--out", str(out)]) == 0
    return out


def test_reconstruct_p1_end_to_end(tmp_path, synth_dir):
    out = tmp_path / "p1"
    code = main(["reconstruct-p1", "--heart", str(synth_dir / "heart.off"),
                 "--torso", str(synth_dir / "torso.off"),
                 "--u-e", str(synth_dir / "u_e.csv"), "--out", str(out)])
    assert code == 0
    doc = json.loads((out / "reconstruction.json").read_text())
    assert np.isfinite(doc["c"])
    v = load_nodal_field(out / "v.csv")
    truth = load_nodal_field(synth_dir / "v.csv")
    assert rmse(v, truth) < 0.05 * np.ptp(truth.values)


def _key_count(doc, key):
    if isinstance(doc, dict):
        return (key in doc) + sum(_key_count(v, key) for v in doc.values())
    if isinstance(doc, list):
        return sum(_key_count(v, key) for v in doc)
    return 0


@pytest.mark.parametrize("protocol", ["p1", "p2"])
def test_run_directory_writes_each_number_once(tmp_path, synth_dir, protocol):
    # c and the chosen alpha live in reconstruction.json alone; the run
    # manifest's results repeat none of its numbers
    data = (["--u-e", str(synth_dir / "u_e.csv")] if protocol == "p1" else
            ["--f", str(synth_dir / "f.csv"), "--alpha-count", "8"])
    out = tmp_path / protocol
    assert main([f"reconstruct-{protocol}", "--heart", str(synth_dir / "heart.off"),
                 "--torso", str(synth_dir / "torso.off"), *data,
                 "--out", str(out)]) == 0
    docs = [json.loads((out / name).read_text())
            for name in ("reconstruction.json", "run_manifest.json")]
    assert sum(_key_count(doc, "c") for doc in docs) == 1
    assert sum(_key_count(doc, "chosen_alpha") for doc in docs) == (protocol == "p2")
    assert "diagnostics" not in docs[1]["results"]


def test_reconstruct_p2_time_record(tmp_path, synth_dir, monkeypatch):
    monkeypatch.setenv("BIDOMAIN_THREADS", "2")
    f = load_nodal_field(synth_dir / "f.csv")
    tg = TimeGrid(t_end=0.2, steps=3)
    record = SpaceTimeField("torso", np.outer(f.values, [1.0, 0.5, 0.25]), tg)
    save_spacetime_field(record, tmp_path / "f.csv")
    out = tmp_path / "p2"
    args = ["reconstruct-p2", "--heart", str(synth_dir / "heart.off"),
            "--torso", str(synth_dir / "torso.off"),
            "--f", str(tmp_path / "f.csv"), "--alpha-count", "8",
            "--out", str(out)]
    assert main(args) == 0
    doc = json.loads((out / "run_manifest.json").read_text())
    assert doc["results"]["frames"] == 3
    assert len(doc["results"]["chosen_alpha"]) == 3
    assert doc["results"]["alpha_global"] is False
    for name in ("u_e", "u_i", "v"):
        assert (out / f"{name}.csv.json").is_file()
    # one alpha picked on the loudest frame and frozen across the record
    out2 = tmp_path / "p2g"
    assert main(args[:-1] + [str(out2), "--alpha-global"]) == 0
    doc2 = json.loads((out2 / "run_manifest.json").read_text())
    assert len(set(doc2["results"]["chosen_alpha"])) == 1


def test_reconstruct_p2_builds_each_operator_once(tmp_path, monkeypatch,
                                                  assembly_builds):
    # workers that start cold together would each assemble the operators
    monkeypatch.setenv("BIDOMAIN_THREADS", "4")
    data = tmp_path / "data"
    assert main(["synth", "--level", "1", "--out", str(data)]) == 0
    f = load_nodal_field(data / "f.csv")
    record = SpaceTimeField("torso", np.outer(f.values, [1.0, 0.5, 0.25, 0.125]),
                            TimeGrid(t_end=0.3, steps=4))
    save_spacetime_field(record, tmp_path / "f.csv")
    assert main(["reconstruct-p2", "--heart", str(data / "heart.off"),
                 "--torso", str(data / "torso.off"), "--f", str(tmp_path / "f.csv"),
                 "--alpha-count", "8", "--out", str(tmp_path / "p2")]) == 0
    # the eight shell blocks (bath tensor) plus S and D on the heart (M_i)
    assert len(assembly_builds) == 10


def test_eval_report(tmp_path, synth_dir, capsys):
    out = tmp_path / "eval"
    code = main(["eval", "--truth", str(synth_dir / "v.csv"),
                 "--p1", str(synth_dir / "u_e.csv"), "--label", "LV",
                 "--out", str(out)])
    assert code == 0
    truth = load_nodal_field(synth_dir / "v.csv")
    other = load_nodal_field(synth_dir / "u_e.csv")
    expect = report_table([("LV", rmse(other, truth), None)]) + "\n"
    assert (out / "report.txt").read_text() == expect
    assert capsys.readouterr().out == expect
    doc = json.loads((out / "run_manifest.json").read_text())
    assert set(doc["results"]["rmse_mV"]) == {"p1"}


def test_nullspace_results(tmp_path, synth_dir):
    out = tmp_path / "null"
    code = main(["nullspace", "--heart", str(synth_dir / "heart.off"),
                 "--torso", str(synth_dir / "torso.off"),
                 "--center", "0,0,0.2", "--radius", "0.3",
                 "--grid-h", "0.15", "--out", str(out)])
    assert code == 0
    res = json.loads((out / "run_manifest.json").read_text())["results"]
    # support strictly inside the heart: silent on both surfaces
    assert res["trace_sup"] == 0.0
    assert res["torso_signal_sup"] == 0.0
    assert res["support_gap"] > 0.0
    assert res["proportional_identity_sup"] < 1e-12
    interior = np.loadtxt(out / "u_interior.csv")
    assert np.all(np.isfinite(interior))
    assert 0.0 < interior.max() <= 1.0


def test_invariant_suites(tmp_path):
    out = tmp_path / "green"
    assert main(["green-check", "--level", "1", "--out", str(out)]) == 0
    doc = json.loads((out / "run_manifest.json").read_text())
    assert doc["results"]["passed"] is True
    out2 = tmp_path / "heat"
    assert main(["heat-check", "--out", str(out2)]) == 0
    doc2 = json.loads((out2 / "run_manifest.json").read_text())
    assert doc2["results"]["passed"] is True
    assert doc2["results"]["causal_sup"] == 0.0


def test_validation_exit_codes(tmp_path, synth_dir):
    assert main(["synth", "--level", "0"]) == 2                    # no --out
    with pytest.raises(SystemExit) as refused:  # synth takes no --geometry
        main(["synth", "--geometry", "annulus", "--out", str(tmp_path / "a")])
    assert refused.value.code == 2
    assert main(["synth", "--level", "9", "--out", str(tmp_path / "b")]) == 2
    assert main(["synth", "--terms", "1,0", "--level", "0",
                 "--out", str(tmp_path / "c")]) == 2
    assert main(["synth", "--terms", "a,0,1", "--level", "0",
                 "--out", str(tmp_path / "c2")]) == 2
    assert main(["eval", "--truth", str(tmp_path / "absent.csv"),
                 "--out", str(tmp_path / "d")]) == 2
    assert main(["nullspace", "--heart", str(synth_dir / "heart.off"),
                 "--center", "1,2", "--out", str(tmp_path / "e")]) == 2
    assert main(["nullspace", "--heart", str(synth_dir / "heart.off"),
                 "--center", "a,b,c", "--out", str(tmp_path / "e2")]) == 2
    assert main(["green-check", "--level", "7",
                 "--out", str(tmp_path / "f")]) == 2
    # a selection's value is a finite positive number, checked before any
    # solve
    p2 = ["reconstruct-p2", "--heart", str(synth_dir / "heart.off"),
          "--torso", str(synth_dir / "torso.off"), "--f", str(synth_dir / "f.csv")]
    for k, sel in enumerate(["fixed:abc", "discrepancy:x", "fixed:-1", "fixed:inf"]):
        assert main(p2 + ["--selection", sel, "--out", str(tmp_path / f"g{k}")]) == 2
    assert main(p2 + ["--alpha-max", "inf", "--out", str(tmp_path / "h")]) == 2
    # a malformed input file: a nodal CSV, a record sidecar, a mesh, a
    # config file
    bad = tmp_path / "bad"
    bad.mkdir()
    (bad / "f.csv").write_text("node_index,value\n0,1.0\n0,2.0\n")
    (bad / "f.csv.json").write_text('{"surface_id": "heart", "length": 2}')
    assert main(["eval", "--truth", str(bad / "f.csv"),
                 "--out", str(tmp_path / "i")]) == 2
    save_spacetime_field(SpaceTimeField("heart", np.zeros((3, 2)),
                                        TimeGrid(t_end=1.0, steps=2)), bad / "r.csv")
    (bad / "r.csv.json").write_text('["heart", [3, 2]]')
    assert main(["reconstruct-p2", "--heart", str(synth_dir / "heart.off"),
                 "--torso", str(synth_dir / "torso.off"), "--f", str(bad / "r.csv"),
                 "--out", str(tmp_path / "j")]) == 2
    (bad / "heart.off").write_text("OFF\n12 20\n")
    assert main(["nullspace", "--heart", str(bad / "heart.off"),
                 "--out", str(tmp_path / "k")]) == 2
    (bad / "run.cfg").write_bytes(b"level = 0\xff\n")
    assert main(["synth", "--config", str(bad / "run.cfg"),
                 "--out", str(tmp_path / "l")]) == 2


@pytest.mark.parametrize("value, index", [("3e-4", 4), ("1e300", 7)])
def test_fixed_selection_pins_the_nearest_alpha(tmp_path, synth_dir, value, index):
    # the grid alpha nearest the value in log, the largest for a huge one
    out = tmp_path / "p2"
    assert main(["reconstruct-p2", "--heart", str(synth_dir / "heart.off"),
                 "--torso", str(synth_dir / "torso.off"),
                 "--f", str(synth_dir / "f.csv"), "--alpha-count", "8",
                 "--selection", f"fixed:{value}", "--out", str(out)]) == 0
    doc = json.loads((out / "reconstruction.json").read_text())
    assert doc["diagnostics"]["chosen_alpha"] == np.logspace(-10, 2, 8)[index]


def test_solver_exit_code(tmp_path, synth_dir):
    # a structurally valid but wrong-length trace reaches the library,
    # whose typed error maps to exit 3
    short = NodalField("heart", np.zeros(5))
    save_nodal_field(short, tmp_path / "short.csv")
    code = main(["reconstruct-p1", "--heart", str(synth_dir / "heart.off"),
                 "--torso", str(synth_dir / "torso.off"),
                 "--u-e", str(tmp_path / "short.csv"),
                 "--out", str(tmp_path / "p1")])
    assert code == 3


def test_thread_cap(monkeypatch):
    monkeypatch.setenv("BIDOMAIN_THREADS", "3")
    assert _threads(10) == 3
    assert _threads(2) == 2
    monkeypatch.setenv("BIDOMAIN_THREADS", "0")
    assert _threads(10) == 1
    monkeypatch.setenv("BIDOMAIN_THREADS", "four")
    with pytest.raises(ValidationFailure):
        _threads(10)
    monkeypatch.delenv("BIDOMAIN_THREADS")
    assert 1 <= _threads(10) <= 4


def test_rerun_error_paths(tmp_path, synth_dir):
    assert main(["rerun", str(tmp_path / "absent.json")]) == 2
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["rerun", str(bad), "--out", str(tmp_path / "o1")]) == 2
    wrong = tmp_path / "wrong.json"
    wrong.write_text(json.dumps({"subcommand": "teleport", "parameters": {}}))
    assert main(["rerun", str(wrong), "--out", str(tmp_path / "o2")]) == 2
    # a list, parameters that are not an object, a level that is no integer
    for i, doc in enumerate([["synth", {}],
                             {"subcommand": "synth", "parameters": [3]},
                             {"subcommand": "synth", "parameters": {"level": "abc"}}]):
        path = tmp_path / f"malformed{i}.json"
        path.write_text(json.dumps(doc))
        assert main(["rerun", str(path), "--out", str(tmp_path / f"m{i}")]) == 2
    # no --out for a real manifest
    assert main(["rerun", str(synth_dir / "run_manifest.json")]) == 2


def test_rerun_reproduces_synth(tmp_path, synth_dir):
    out = tmp_path / "again"
    code = main(["rerun", str(synth_dir / "run_manifest.json"),
                 "--out", str(out)])
    assert code == 0
    for p in sorted(synth_dir.iterdir()):
        assert (out / p.name).read_bytes() == p.read_bytes()


def test_reconstruct_p2_overwrites_a_longer_run(tmp_path, synth_dir):
    args = ["reconstruct-p2", "--heart", str(synth_dir / "heart.off"),
            "--torso", str(synth_dir / "torso.off"),
            "--f", str(synth_dir / "f.csv"), "--alpha-count", "8",
            "--noise", "0.01", "--seed", "3", "--out"]
    clean = tmp_path / "clean"
    assert main(args + [str(clean)]) == 0
    # the same file names, each holding more bytes than the new run writes
    dirty = tmp_path / "dirty"
    dirty.mkdir()
    for p in clean.iterdir():
        (dirty / p.name).write_bytes(p.read_bytes() * 2 + b"stale tail\n")
    assert main(args + [str(dirty)]) == 0
    assert sorted(p.name for p in dirty.iterdir()) == sorted(
        p.name for p in clean.iterdir())
    for p in clean.iterdir():
        assert (dirty / p.name).read_bytes() == p.read_bytes()

