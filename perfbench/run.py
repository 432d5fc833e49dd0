"""cardiobem benchmark: run one workload and print its metrics.

    python3 perfbench/run.py --workload shell_stream_l2 --seed 1 \\
        --seconds 40 --trace 0

Run from the root of a source checkout.  Each workload runs in a child
process (``perfbench/workloads.py``), so a native abort inside cardiobem
is counted as failed operations instead of ending the benchmark.

``--trace 0`` prints the end-to-end metrics of one untraced run.
``--trace 1`` runs the workload twice on the same fixed number of
operations, untraced and then traced, and prints the per-layer metrics of
the traced run, the tracing overhead, and whether both runs gave
bit-identical outputs.  ``--smoke`` runs every workload at level 1 so the
whole benchmark finishes in seconds.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the full result,
with provenance and the span table, is written to
``perfbench/_work/<workload>/result.json``.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from layers import CLI_UNITS, LAYER_UNITS  # noqa: E402

# name -> unit of the end-to-end metrics every BENCHMARK.json workload reports
E2E_UNITS = {
    "setup_s": "s",
    "op_ms_p50": "ms",
    "oracle_err_rel": "ratio",
    "peak_rss_mb": "MB",
}
P2_RECORD_UNITS = {
    "setup_s": "s",
    "total_s": "s",
    "frames_per_s": "1/s",
    "rmse_p2_mV": "mV",
    "peak_rss_mb": "MB",
    "failed_frac": "ratio",
}

# workload -> child options; "smoke" replaces them under --smoke, and
# "trace_ops" is the fixed operation count of a --trace 1 run
WORKLOADS = {
    "shell_stream_l2": {
        "args": {"level": 2, "frames": 240, "setups": 2},
        "smoke": {"level": 1, "frames": 24, "setups": 2},
        "trace_ops": 200, "smoke_trace_ops": 4,
    },
    "shell_stream_l3": {
        "args": {"level": 3, "frames": 240, "setups": 1},
        "smoke": {"level": 1, "frames": 24, "setups": 1},
        "trace_ops": 40, "smoke_trace_ops": 3,
    },
    "heat_l2": {
        "args": {"level": 2, "steps": 200, "setups": 3},
        "smoke": {"level": 1, "steps": 24, "setups": 2},
        "trace_ops": 30, "smoke_trace_ops": 3,
    },
    "p2_record_l3": {
        "args": {"level": 3, "frames": 1000},
        "smoke": {"level": 1, "frames": 8},
        "trace_ops": None, "smoke_trace_ops": None, "deadline_s": 900,
    },
}
# distinct operators a shell set-up must build: 8 shell blocks for M_b,
# plus the heart double layer (row-sum diagonal) and single layer for M_i
SHELL_OPERATORS = 10
# every automated run, both children of a traced one included, ends within
# this; p2_record_l3 is run by hand and may take longer
RUN_DEADLINE_S = 175


def _capped(value, nproc):
    try:
        return max(1, min(int(value), nproc))
    except (TypeError, ValueError):
        return nproc


def child_env(nproc):
    """Environment for the children: source tree first, no thread count
    above nproc, and the CLI's own default worker count."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    env.pop("BIDOMAIN_THREADS", None)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
        if var in env:
            env[var] = str(_capped(env[var], nproc))
    return env


def run_child(workload, seed, work, options, env, deadline, *, seconds,
              ops=None, traced=False):
    """Run one workload child; returns (result or None, progress, info)."""
    if work.exists():
        shutil.rmtree(work)
    work.mkdir(parents=True)
    cmd = [sys.executable, str(HERE / "workloads.py"), "--workload", workload,
           "--seed", str(seed), "--work", str(work),
           "--traced", "1" if traced else "0"]
    cmd += ["--seconds", repr(float(seconds))]
    if ops is not None:
        cmd += ["--ops", str(ops)]
    for key, value in options.items():
        cmd += [f"--{key}", str(value)]
    t0 = time.perf_counter()
    with open(work / "child.log", "w") as log:
        # its own process group, so the processes it starts end with it
        proc = subprocess.Popen(cmd, stdout=log, stderr=subprocess.STDOUT,
                                env=env, cwd=str(ROOT), start_new_session=True)
        timed_out = False
        try:
            code = proc.wait(timeout=max(1.0, deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            timed_out = True
        finally:  # timed out, crashed, or this process is ending
            code = _end_group(proc)
    info = {"exit_code": code, "timed_out": timed_out,
            "wall_s": time.perf_counter() - t0,
            "max_child_rss_mb": resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0}
    progress = _read_progress(work / "progress.txt")
    result = None
    if code == 0 and (work / "result.json").is_file():
        result = json.loads((work / "result.json").read_text())
    else:
        info["log_tail"] = (work / "child.log").read_text(errors="replace")[-2000:]
    return result, progress, info


def _end_group(proc, wait_s=10.0):
    """Kill every process left in the child's group, reap the child, and
    wait until no process of the group is left; returns the exit code."""
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass
    code = proc.wait()
    end = time.monotonic() + wait_s
    while time.monotonic() < end:
        try:
            os.killpg(proc.pid, 0)
        except ProcessLookupError:
            break
        time.sleep(0.05)
    return code


def _read_progress(path):
    out = {"ok": 0, "fail": 0, "setup_s": [], "frames": None}
    if not path.is_file():
        return out
    for line in path.read_text().splitlines():
        word, _, rest = line.partition(" ")
        if word in ("ok", "fail"):
            out[word] += 1
        elif word == "setup_s":
            out["setup_s"].append(float(rest))
        elif word == "frames":
            out["frames"] = int(rest)
    return out


def lost_operations(workload, progress):
    """(attempted, failed) of a child that died: every unfinished operation
    fails.  A closed loop loses the operation in flight; the record command
    writes nothing until it ends, so it loses every frame."""
    if workload == "p2_record_l3":
        frames = progress["frames"] or 0
        return max(frames, 1), max(frames, 1)
    done = progress["ok"] + progress["fail"]
    return done + 1, progress["fail"] + 1


def e2e_metrics(result):
    op_ms = result["op_ms"]
    return {
        "setup_s": statistics.median(result["setup_samples_s"]),
        "op_ms_p50": statistics.median(op_ms),
        "oracle_err_rel": result["oracle_err_rel"],
        "peak_rss_mb": result["peak_rss_mb"],
    }


def p2_record_metrics(result, progress, info, attempted, failed):
    """The record command's metrics; a crashed command did no frames."""
    if result is None:
        return {
            "setup_s": progress["setup_s"][0] if progress["setup_s"] else None,
            "total_s": info["wall_s"],
            "frames_per_s": 0.0,
            "peak_rss_mb": info["max_child_rss_mb"],
            "failed_frac": failed / attempted,
        }
    return {
        "setup_s": result["setup_samples_s"][0],
        "total_s": result["total_s"],
        "frames_per_s": result["report"]["frames_per_s"][0],
        "rmse_p2_mV": result["report"]["rmse_p2_mV"][0],
        "peak_rss_mb": result["peak_rss_mb"],
        "failed_frac": failed / attempted,
    }


# ---------------------------------------------------------------------------
# provenance


def _git_commit():
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def provenance(args, options, env, nproc):
    import numpy
    import scipy
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    blas_threads = _capped(env.get("OPENBLAS_NUM_THREADS",
                                   env.get("OMP_NUM_THREADS", nproc)), nproc)
    return {
        "nproc": nproc,
        "cpu_count": os.cpu_count(),
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads": blas_threads,
        "bidomain_threads": "unset: the CLI default min(4, nproc) = "
                            f"{min(4, nproc)}",
        "git_commit": _git_commit(),
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "smoke": bool(args.smoke),
        **options,
    }


# ---------------------------------------------------------------------------
# main


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    p.add_argument("--smoke", action="store_true",
                   help="level 1 everywhere, for a check in seconds")
    args = p.parse_args(argv)
    # a terminated benchmark still kills and waits for its child
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    deadline = time.monotonic() + WORKLOADS[args.workload].get(
        "deadline_s", RUN_DEADLINE_S)

    if not (ROOT / "src" / "cardiobem" / "__init__.py").is_file():
        print(f"perfbench: no cardiobem source tree under {ROOT / 'src'}",
              file=sys.stderr)
        return 2

    spec = WORKLOADS[args.workload]
    options = spec["smoke" if args.smoke else "args"]
    nproc = len(os.sched_getaffinity(0))
    env = child_env(nproc)
    base = ROOT / "perfbench" / "_work" / args.workload
    doc = {"workload": args.workload,
           "provenance": provenance(args, options, env, nproc)}

    if args.trace == 0:
        result, progress, info = run_child(args.workload, args.seed, base / "run",
                                           options, env, deadline,
                                           seconds=args.seconds)
        doc["child"] = info
        line = untraced_line(args.workload, result, progress, info)
    else:
        ops = spec["smoke_trace_ops" if args.smoke else "trace_ops"]
        runs = []
        for traced in (False, True):
            runs.append(run_child(args.workload, args.seed,
                                  base / ("traced" if traced else "untraced"),
                                  options, env, deadline, seconds=args.seconds,
                                  ops=ops, traced=traced))
        doc["child"] = [r[2] for r in runs]
        line = traced_line(args.workload, runs, doc)
    doc["report"] = line.pop("report", {})
    doc["line"] = line
    base.mkdir(parents=True, exist_ok=True)
    (base / "result.json").write_text(json.dumps(doc, indent=1) + "\n")
    print_report(doc)
    print(json.dumps(line))
    return 0


def untraced_line(workload, result, progress, info):
    if result is None:
        attempted, failed = lost_operations(workload, progress)
    else:
        attempted, failed = result["attempted"], result["failed"]
    if workload == "p2_record_l3":
        metrics = p2_record_metrics(result, progress, info, attempted, failed)
        units = P2_RECORD_UNITS
    else:
        metrics = e2e_metrics(result) if result is not None else {}
        units = E2E_UNITS
    return {
        "correct": result is not None and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": u}
                    for k, u in units.items() if metrics.get(k) is not None},
        "report": _report(result, info),
    }


def _report(result, info):
    """The workload's own end-to-end figures, named as in the README."""
    if result is None:
        return {"total_s": {"value": info["wall_s"], "unit": "s"}}
    out = {"total_s": {"value": result["total_s"], "unit": "s"}}
    for name, (value, unit) in result["report"].items():
        if value is not None:
            out[name] = {"value": value, "unit": unit}
    return out


def traced_line(workload, runs, doc):
    (plain, plain_prog, plain_info), (traced, traced_prog, traced_info) = runs
    if plain is None or traced is None:
        attempted, failed = lost_operations(
            workload, plain_prog if plain is None else traced_prog)
        doc["checks"] = {"completed": False}
        return {"correct": False, "attempted": attempted, "failed": failed,
                "metrics": {}}
    layers = dict(traced["layers"])
    layers["trace.overhead_s"] = traced["total_s"] - plain["total_s"]
    passed = plain["digests"] == traced["digests"]
    checks = {"bit_identical": passed}
    if workload.startswith("shell_stream"):
        # every set-up loads fresh meshes, so it builds every operator anew
        setups = doc["provenance"]["setups"]
        builds_ok = layers["assembly.builds"] == SHELL_OPERATORS * setups
        checks.update(assembly_builds=layers["assembly.builds"],
                      assembly_builds_ok=builds_ok)
        passed = passed and builds_ok
    doc["checks"] = checks
    doc["spans"] = traced["spans"]
    doc["missing_trace_targets"] = traced["missing_trace_targets"]
    units = dict(LAYER_UNITS, **{"trace.overhead_s": "s"})
    if workload == "p2_record_l3":
        units.update(CLI_UNITS)
    failed = plain["failed"] + traced["failed"]
    return {
        "correct": failed == 0 and passed,
        "attempted": plain["attempted"] + traced["attempted"],
        "failed": failed,
        "metrics": {k: {"value": layers[k], "unit": u} for k, u in units.items()},
        "report": {"untraced_total_s": {"value": plain["total_s"], "unit": "s"},
                   "traced_total_s": {"value": traced["total_s"], "unit": "s"}},
    }


def print_report(doc):
    line = doc["line"]
    print(f"workload {doc['workload']}")
    for key, value in doc["provenance"].items():
        print(f"  {key:<18} {value}")
    for section in (line["metrics"], doc["report"]):
        for name, m in section.items():
            print(f"  {name:<28} {m['value']:.6g} {m['unit']}")
    print(f"  attempted {line['attempted']}  failed {line['failed']}  "
          f"correct {line['correct']}")
    for key, value in doc.get("checks", {}).items():
        print(f"  check {key}: {value}")
    if doc.get("missing_trace_targets"):
        print("  trace targets not found (their layers read 0): "
              + ", ".join(doc["missing_trace_targets"]))
    if doc.get("spans"):
        print(f"  {'span':<44} {'calls':>8} {'total ms':>12} {'self ms':>12}")
        for name, calls, total, own in doc["spans"]:
            print(f"  {name:<44} {calls:>8} {total:>12.3f} {own:>12.3f}")
    child = doc["child"] if isinstance(doc["child"], list) else [doc["child"]]
    for info in child:
        if info["exit_code"] != 0:
            print(f"  child exited with code {info['exit_code']}; log tail:")
            print("    " + info.get("log_tail", "").replace("\n", "\n    "))
    print(f"  full result: {ROOT / 'perfbench' / '_work' / doc['workload'] / 'result.json'}")


if __name__ == "__main__":
    sys.exit(main())
