"""The benchmark's own test: smoke runs of every workload at level 1.

Checks the output schema, every metric name, and the self-checks of the
traced runs.  It makes no timing assertions.  Run with

    python3 -m pytest -q perfbench
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from layers import CLI_UNITS, LAYER_UNITS  # noqa: E402
from run import E2E_UNITS, P2_RECORD_UNITS  # noqa: E402

LISTED_WORKLOADS = ("shell_stream_l2", "heat_l2")
SHELL_REPORT = {"total_s", "p1_frame_ms_p50", "p1_frame_ms_p95",
                "p2_frame_ms_p50", "p2_frame_ms_p95", "frames_per_s",
                "rmse_p1_mV", "rmse_p2_mV", "p1_err_rel_max", "p2_err_rel_max"}
REPORT_NAMES = {
    "shell_stream_l2": SHELL_REPORT,
    "shell_stream_l3": SHELL_REPORT,
    "heat_l2": {"total_s", "heat_point_ms_p50", "heat_point_ms_p90",
                "heat_rel_err", "evolution_rel_err"},
    "p2_record_l3": {"total_s", "frames_per_s", "rmse_p2_mV", "workers"},
}


def _run(workload, trace, cwd=ROOT, script=HERE / "run.py"):
    proc = subprocess.run(
        [sys.executable, str(script), "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace), "--smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=170)
    return proc


def _last_line(proc):
    assert proc.returncode == 0, proc.stderr
    line = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert isinstance(line["attempted"], int) and line["attempted"] >= 1
    assert isinstance(line["failed"], int) and 0 <= line["failed"] <= line["attempted"]
    for m in line["metrics"].values():
        assert set(m) == {"value", "unit"}
    return line


def test_benchmark_json_matches_the_code():
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert set(doc) == {"command", "paths", "run_seconds", "workloads",
                        "end_to_end", "per_layer"}
    assert [w["name"] for w in doc["workloads"]] == list(LISTED_WORKLOADS)
    assert {m["name"]: m["unit"] for m in doc["end_to_end"]} == E2E_UNITS
    expected = dict(LAYER_UNITS, **{"trace.overhead_s": "s"})
    assert {m["name"]: m["unit"] for m in doc["per_layer"]} == expected
    setup = [m for m in doc["end_to_end"] if m["name"] == "setup_s"][0]
    assert setup["bound"] == max(m["bound"] for m in doc["end_to_end"])
    assert all(0 < m["bound"] <= 0.25 for m in doc["end_to_end"])


@pytest.mark.parametrize("workload", LISTED_WORKLOADS + ("shell_stream_l3",))
def test_untraced_smoke(workload):
    line = _last_line(_run(workload, 0))
    assert line["correct"] and line["failed"] == 0
    assert set(line["metrics"]) == set(E2E_UNITS)
    for name, unit in E2E_UNITS.items():
        assert line["metrics"][name]["unit"] == unit
        assert line["metrics"][name]["value"] > 0
    doc = json.loads((HERE / "_work" / workload / "result.json").read_text())
    assert set(doc["report"]) == REPORT_NAMES[workload]
    prov = doc["provenance"]
    for key in ("nproc", "python", "numpy", "scipy", "blas_threads",
                "bidomain_threads", "git_commit", "seed", "level"):
        assert key in prov
    assert prov["blas_threads"] <= prov["nproc"]


@pytest.mark.parametrize("workload", LISTED_WORKLOADS)
def test_traced_smoke(workload):
    line = _last_line(_run(workload, 1))
    assert line["correct"], line
    assert set(line["metrics"]) == set(LAYER_UNITS) | {"trace.overhead_s"}
    doc = json.loads((HERE / "_work" / workload / "result.json").read_text())
    assert doc["checks"]["bit_identical"]
    if workload.startswith("shell_stream"):
        setups = doc["provenance"]["setups"]
        assert doc["checks"]["assembly_builds"] == 10 * setups
        assert line["metrics"]["assembly.duplicate_builds"]["value"] == 0
    assert line["metrics"]["trace.spans"]["value"] > 0


def test_p2_record_smoke():
    """The record workload reports its own set, failed frames included."""
    line = _last_line(_run("p2_record_l3", 0))
    assert set(line["metrics"]) <= set(P2_RECORD_UNITS)
    assert {"total_s", "failed_frac", "peak_rss_mb"} <= set(line["metrics"])
    frac = line["metrics"]["failed_frac"]["value"]
    assert frac == line["failed"] / line["attempted"]
    doc = json.loads((HERE / "_work" / "p2_record_l3" / "result.json").read_text())
    if line["failed"] == 0:
        assert set(doc["report"]) == REPORT_NAMES["p2_record_l3"]

    traced = _last_line(_run("p2_record_l3", 1))
    if traced["metrics"]:
        assert set(traced["metrics"]) == (set(LAYER_UNITS) | set(CLI_UNITS)
                                          | {"trace.overhead_s"})
        assert traced["metrics"]["cli.workers"]["value"] >= 1


def test_crash_counts_lost_operations():
    from run import lost_operations
    progress = {"ok": 5, "fail": 0, "setup_s": [1.0], "frames": None}
    assert lost_operations("shell_stream_l3", progress) == (6, 1)
    progress["frames"] = 1000
    assert lost_operations("p2_record_l3", progress) == (1000, 1000)


def test_refuses_without_source_tree(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("_work", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = _run("heat_l2", 0, cwd=tmp_path, script=tmp_path / "perfbench" / "run.py")
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""

