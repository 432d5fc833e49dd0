"""One workload run in its own process: make inputs, set up, operate, check.

``run.py`` starts this file as a child process, so a native abort inside
cardiobem ends only this process and the parent counts what was lost.  The
child writes three files into its work directory:

- ``progress.txt``: one line per finished operation, ``ok`` or ``fail``,
  plus a ``setup_s`` line, flushed as it goes;
- ``result.json``: the measurements, written only if the run finishes;
- ``trace.json``: every recorded span, when run with ``--traced 1``.

Inputs come from the analytic oracle in ``cardiobem.oracle`` and the seed;
they are written as OFF/CSV files and the timed code reads only those files.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent

# Shell geometry shared by shell_stream_l3 and p2_record_l3: heart radius
# 1 cm inside a torso of radius 2 cm, default ConductivityModel.  The frames
# mix three oracle terms: a dipole turning about the z axis plus a smaller
# quadrupole, so every frame has the same size and a different shape.
SHELL_TERMS = ((1, 0, 5.0), (1, 1, 5.0), (2, 0, 2.0))
SHELL_PERIOD = 60          # frames per turn of the dipole
NOISE = 0.01               # torso noise, relative to the record's peak
ALPHAS = dict(count=16, alpha_min=1e-10, alpha_max=1e2)

# The heat identity field u = |x|^2 + C t is not caloric for C != 6, so the
# Poisson integral, the volume heat potential and both layer potentials all
# contribute to u(x, t_end).
HEAT_C = 2.0
HEAT_T_END = 0.5
HEAT_H = 0.14
HEAT_RADIUS = 0.6          # evaluation points lie in the ball |x| <= 0.6

# Oracle checks: an operation fails if its error exceeds these.  The shell
# errors are RMSE(v) as a share of the v range of the frame; the heat error
# is relative to |u(x, t_end)|; the evolution error is relative to the peak
# of the exact right side.  Keyed by mesh level; each is about 5x the worst
# value seen on the seed, except p2, whose L-curve pick on noisy data gets
# 10x (level 3) so a fair pick on an unlucky frame does not fail the run.
TOL = {
    "p1": {1: 0.03, 2: 0.007, 3: 0.002},
    "p2": {1: 0.6, 2: 0.1, 3: 0.1},
    "evolution": {1: 0.1, 2: 0.03},
    "heat": {1: 0.2, 2: 0.05},
}


def _digest(*arrays):
    h = hashlib.sha256()
    for a in arrays:
        h.update(a.tobytes())
    return h.hexdigest()[:16]


def _percentile(values, q):
    import numpy as np
    return float(np.percentile(np.asarray(values, dtype=float), q))


def _median(values):
    return _percentile(values, 50)


# ---------------------------------------------------------------------------
# shell inputs


def _shell_basis(cb, level):
    """Meshes and the oracle's u_e, f and v, one column per SHELL_TERMS term."""
    import numpy as np
    model = cb.ConductivityModel()
    geometry = cb.Shell3D(1.0, 2.0)
    heart = cb.icosphere(level, 1.0, surface_id="heart")
    torso = cb.icosphere(level, 2.0, surface_id="torso")
    cols = {"u_e": [], "f": [], "v": []}
    for l, m, a in SHELL_TERMS:
        spec = cb.HarmonicSpec(terms=(cb.HarmonicTerm(l, m, a=a),),
                               geometry=geometry)
        fields = cb.synth_bidomain_steady(geometry, model, spec).fields_on(heart, torso)
        for key in cols:
            cols[key].append(fields[key].values)
    basis = {key: np.column_stack(v) for key, v in cols.items()}
    return heart, torso, basis


def _shell_weights(rng, frames):
    """(3, frames) oracle-term weights: turning dipole plus quadrupole."""
    import numpy as np
    phase, phase2 = rng.uniform(0.0, 2.0 * np.pi, size=2)
    w = 2.0 * np.pi * np.arange(frames) / SHELL_PERIOD
    return np.vstack([np.cos(w + phase), np.sin(w + phase),
                      0.5 * np.cos(2.0 * w + phase2)])


def _write_shell_meshes(cb, heart, torso, work):
    cb.save_mesh(heart, work / "heart.off")
    cb.save_mesh(torso, work / "torso.off")


def _record(cb, location, values):
    frames = values.shape[1]
    return cb.SpaceTimeField(location, values,
                             cb.TimeGrid(t_end=float(frames - 1), steps=frames))


# ---------------------------------------------------------------------------
# shell_stream_l3: both protocols, one frame at a time, one client


def shell_stream(cb, args, work, progress):
    import numpy as np
    rng = np.random.default_rng(args.seed)
    frames = args.frames
    heart0, torso0, basis = _shell_basis(cb, args.level)
    weights = _shell_weights(rng, frames)
    u_e = basis["u_e"] @ weights
    f_clean = basis["f"] @ weights
    scale = NOISE * np.abs(f_clean).max(axis=0)
    f_noisy = f_clean + rng.normal(size=f_clean.shape) * scale
    v_true = basis["v"] @ weights
    v_range = v_true.max(axis=0) - v_true.min(axis=0)
    _write_shell_meshes(cb, heart0, torso0, work)
    cb.save_spacetime_field(_record(cb, "heart", u_e), work / "u_e.csv")
    cb.save_spacetime_field(_record(cb, "torso", f_noisy), work / "f.csv")

    out_p1, out_p2 = work / "p1", work / "p2"
    errors = {"p1": [], "p2": []}
    rel = {"p1": [], "p2": []}
    digests = []
    failed = 0

    def frame(state, j):
        """Both protocols on frame j: (p1 seconds, p2 seconds, oracle ok)."""
        heart, domain, model, tik, ue_rec, f_rec = state
        t0 = time.perf_counter()
        r1 = cb.run_protocol_1(domain, model,
                               cb.NodalField("heart", ue_rec.values[:, j]))
        cb.write_reconstruction(r1, out_p1, heart)
        t1 = time.perf_counter()
        r2 = cb.run_protocol_2(domain, model,
                               cb.NodalField("torso", f_rec.values[:, j]), tik)
        cb.write_reconstruction(r2, out_p2, heart)
        t2 = time.perf_counter()
        ok = True
        for key, res in (("p1", r1), ("p2", r2)):
            v = res.v.values
            err = (float(np.sqrt(np.mean((v - v_true[:, j]) ** 2)))
                   if np.all(np.isfinite(v)) else float("inf"))
            errors[key].append(err)
            rel[key].append(err / v_range[j])
            ok &= rel[key][-1] <= TOL[key][args.level]
        digests.append(_digest(r1.v.values, r2.v.values))
        return t1 - t0, t2 - t1, ok

    # Each round is a cold set-up (load the files into fresh meshes, then
    # the first frame through both protocols, which builds every operator)
    # followed by an equal share of the frames, so the set-up samples fall
    # at different times of the run.
    setup_samples, p1_ms, p2_ms = [], [], []
    op_s = 0.0
    t_total = time.perf_counter()
    j = 0
    for _ in range(args.setups):
        t0 = time.perf_counter()
        heart = cb.load_mesh(work / "heart.off", surface_id="heart")
        torso = cb.load_mesh(work / "torso.off", surface_id="torso")
        ue_rec = cb.load_spacetime_field(work / "u_e.csv")
        f_rec = cb.load_spacetime_field(work / "f.csv")
        state = (heart, cb.DomainConfig(heart=heart, torso=torso),
                 cb.ConductivityModel(), cb.TikhonovConfig.log_grid(**ALPHAS),
                 ue_rec, f_rec)
        _, _, ok = frame(state, j % frames)
        setup_samples.append(time.perf_counter() - t0)
        print(f"setup_s {setup_samples[-1]!r}", file=progress)
        failed += not ok
        print("ok" if ok else "fail", file=progress)

        start = time.perf_counter()
        i = 0
        while _more(i, start, args, share=1.0 / args.setups):
            i += 1
            j += 1
            a, b, ok = frame(state, j % frames)
            p1_ms.append(1e3 * a)
            p2_ms.append(1e3 * b)
            failed += not ok
            print("ok" if ok else "fail", file=progress)
        op_s += time.perf_counter() - start
        j += 1
    frame_ms = [a + b for a, b in zip(p1_ms, p2_ms)]
    return {
        "setup_samples_s": setup_samples,
        "op_ms": frame_ms,
        "op_s": op_s,
        "total_s": time.perf_counter() - t_total,
        "attempted": len(frame_ms) + args.setups,
        "failed": failed,
        "oracle_err_rel": _median(rel["p2"]),
        "digests": digests,
        "report": {
            "p1_frame_ms_p50": (_percentile(p1_ms, 50), "ms"),
            "p1_frame_ms_p95": (_percentile(p1_ms, 95), "ms"),
            "p2_frame_ms_p50": (_percentile(p2_ms, 50), "ms"),
            "p2_frame_ms_p95": (_percentile(p2_ms, 95), "ms"),
            "frames_per_s": (len(frame_ms) / op_s, "1/s"),
            "rmse_p1_mV": (_median(errors["p1"]), "mV"),
            "rmse_p2_mV": (_median(errors["p2"]), "mV"),
            "p1_err_rel_max": (max(rel["p1"]), "ratio"),
            "p2_err_rel_max": (max(rel["p2"]), "ratio"),
        },
    }


def _more(i, start, args, share=1.0):
    """Closed loop: run ``share`` of --ops operations, or until ``share`` of
    --seconds has passed."""
    if args.ops is not None:
        return i < round(args.ops * share)
    return time.perf_counter() - start < args.seconds * share


# ---------------------------------------------------------------------------
# heat_l2: parabolic Green identity at interior points of the level-2 ball


def heat(cb, args, work, progress):
    import numpy as np
    rng = np.random.default_rng(args.seed)
    steps = args.steps
    model = cb.ConductivityModel()
    ball = cb.icosphere(args.level, 1.0, surface_id="ball")
    tg = cb.TimeGrid(t_end=HEAT_T_END, steps=steps)
    times = tg.times
    r2 = np.sum(ball.vertices ** 2, axis=1)
    cb.save_mesh(ball, work / "ball.off")
    cb.save_spacetime_field(cb.SpaceTimeField("ball", np.add.outer(r2, HEAT_C * times), tg),
                            work / "trace.csv")
    cb.save_spacetime_field(cb.SpaceTimeField("ball", np.repeat(
        2.0 * np.sqrt(r2)[:, None], steps, 1), tg), work / "flux.csv")
    grid0 = cb.InteriorGrid.for_mesh(ball, h=HEAT_H)
    u0 = np.sum(grid0.centers() ** 2, axis=1)
    np.savetxt(work / "u0.csv", u0, fmt="%.17g")
    # evolution right side: the oracle's heart flux scaled by s(t); the
    # Neumann solution scales with it, so F = lam s'(t) w(x) + lam c'(t)
    geometry = cb.Shell3D(1.0, 2.0)
    spec_u = cb.HarmonicSpec(terms=(cb.HarmonicTerm(1, 0, a=5.0),), geometry=geometry)
    oracle = cb.synth_bidomain_steady(geometry, model, spec_u)
    phase = rng.uniform(0.0, 2.0 * np.pi)
    omega = 2.0 * np.pi / HEAT_T_END
    s = 1.0 + 0.5 * np.sin(omega * times + phase)
    ds = 0.5 * omega * np.cos(omega * times + phase)
    psi = np.outer(oracle.heart_flux(ball.vertices), s)
    c_t = 0.25 * s
    cb.save_spacetime_field(cb.SpaceTimeField("ball", psi, tg, units="mV*mS/cm^2"),
                            work / "psi.csv")
    np.savetxt(work / "c.csv", c_t, fmt="%.17g")
    w_true = oracle.neumann_part(ball.vertices)
    f_true = float(model.lam) * (np.outer(w_true, ds) + 0.25 * ds[None, :])
    radii = HEAT_RADIUS * rng.uniform(size=256) ** (1.0 / 3.0)
    dirs = rng.normal(size=(256, 3))
    points = dirs / np.linalg.norm(dirs, axis=1)[:, None] * radii[:, None]
    np.savetxt(work / "points.csv", points, fmt="%.17g", delimiter=",")

    # Each round is a cold set-up followed by an equal share of the
    # evaluations, so the set-up samples fall at different times of the run.
    rounds = []
    t_total = time.perf_counter()
    for _ in range(args.setups):
        first = sum(len(r["op_ms"]) for r in rounds)
        rounds.append(_heat_round(cb, args, work, f_true, first, progress))
    total_s = time.perf_counter() - t_total
    op_ms = [x for r in rounds for x in r["op_ms"]]
    rel = [x for r in rounds for x in r["rel"]]
    return {
        "setup_samples_s": [r["setup_s"] for r in rounds],
        "op_ms": op_ms,
        "op_s": sum(r["op_s"] for r in rounds),
        "total_s": total_s,
        "attempted": len(op_ms) + args.setups,
        "failed": sum(r["failed"] for r in rounds),
        "oracle_err_rel": max(rel),
        "digests": [x for r in rounds for x in r["digests"]],
        "report": {
            "heat_point_ms_p50": (_percentile(op_ms, 50), "ms"),
            "heat_point_ms_p90": (_percentile(op_ms, 90), "ms"),
            "heat_rel_err": (max(rel), "ratio"),
            "evolution_rel_err": (max(r["evolution_err"] for r in rounds), "ratio"),
        },
    }


def _heat_round(cb, args, work, f_true, first, progress):
    """One cold heat set-up, then 1/--setups of the evaluations, starting at
    point ``first``."""
    import numpy as np
    model = cb.ConductivityModel()
    spec = cb.HeatOperatorSpec(M=1.0, scale=1.0, dim=3)
    tg = cb.TimeGrid(t_end=HEAT_T_END, steps=args.steps)
    t0 = time.perf_counter()
    mesh = cb.load_mesh(work / "ball.off", surface_id="ball")
    trace = cb.load_spacetime_field(work / "trace.csv")
    flux = cb.load_spacetime_field(work / "flux.csv")
    psi_rec = cb.load_spacetime_field(work / "psi.csv")
    c_rec = np.loadtxt(work / "c.csv")
    u_init = np.loadtxt(work / "u0.csv")
    pts = np.loadtxt(work / "points.csv", delimiter=",", ndmin=2)
    grid = cb.InteriorGrid.for_mesh(mesh, h=HEAT_H)
    source = cb.SpaceTimeField("grid", np.full((grid.n_cells, args.steps),
                                               HEAT_C - 6.0), tg)
    zero = cb.SpaceTimeField("ball", np.zeros((mesh.n_vertices, args.steps)), tg)
    rhs = cb.assemble_evolution_rhs(model, mesh, zero, psi_rec, c_rec)
    setup_s = time.perf_counter() - t0
    print(f"setup_s {setup_s!r}", file=progress)
    # interior frames only: the one-sided end differences are first order
    err = np.abs(rhs.values - f_true)[:, 1:-1].max() / np.abs(f_true).max()
    ok = bool(np.isfinite(err) and err <= TOL["evolution"][args.level])
    failed = int(not ok)
    print("ok" if ok else "fail", file=progress)

    op_ms, rel, digests = [], [], []
    start = time.perf_counter()
    i = 0
    while _more(i, start, args, share=1.0 / args.setups):
        x = pts[(first + i) % len(pts)]
        i += 1
        t0 = time.perf_counter()
        val = cb.parabolic_green_reconstruct(spec, mesh, grid, trace, flux,
                                             u_init, source, x, HEAT_T_END)
        op_ms.append(1e3 * (time.perf_counter() - t0))
        exact = float(x @ x) + HEAT_C * HEAT_T_END
        e = abs(val - exact) / abs(exact) if np.isfinite(val) else float("inf")
        rel.append(e)
        digests.append(_digest(np.array([val])))
        ok = e <= TOL["heat"][args.level]
        failed += not ok
        print("ok" if ok else "fail", file=progress)
    op_s = time.perf_counter() - start
    return {"setup_s": setup_s, "evolution_err": float(err), "op_ms": op_ms,
            "op_s": op_s, "rel": rel, "digests": digests, "failed": failed}


# ---------------------------------------------------------------------------
# p2_record_l3: `cardiobem reconstruct-p2` on a noisy record, in this process


def p2_record(cb, args, work, progress):
    import numpy as np
    from cardiobem import cli
    rng = np.random.default_rng(args.seed)
    frames = args.frames
    heart, torso, basis = _shell_basis(cb, args.level)
    weights = _shell_weights(rng, frames)
    v_true = basis["v"] @ weights
    v_range = v_true.max(axis=0) - v_true.min(axis=0)
    _write_shell_meshes(cb, heart, torso, work)
    cb.save_spacetime_field(_record(cb, "torso", basis["f"] @ weights), work / "f.csv")
    out = work / "out"
    argv = ["reconstruct-p2", "--heart", str(work / "heart.off"),
            "--torso", str(work / "torso.off"), "--f", str(work / "f.csv"),
            "--noise", repr(NOISE), "--seed", str(args.seed),
            "--out", str(out)]
    print(f"setup_s {args.import_s!r}", file=progress)
    print(f"frames {frames}", file=progress)
    t0 = time.perf_counter()
    code = cli.main(argv)
    total_s = time.perf_counter() - t0
    failed = frames
    errors = []
    digests = []
    if code == 0:
        v = cb.load_spacetime_field(out / "v.csv").values
        errors = np.sqrt(np.mean((v - v_true) ** 2, axis=0))
        ok = np.isfinite(errors) & (errors <= TOL["p2"][args.level] * v_range)
        failed = int(frames - ok.sum())
        digests = [_digest(v)]
    return {
        "setup_samples_s": [args.import_s],
        "op_ms": [],
        "op_s": total_s,
        "total_s": total_s,
        "attempted": frames,
        "failed": failed,
        "exit_code": code,
        "oracle_err_rel": (_median(errors / v_range) if len(errors) else None),
        "digests": digests,
        "report": {
            "frames_per_s": ((frames - failed) / total_s, "1/s"),
            "rmse_p2_mV": (_median(errors) if len(errors) else None, "mV"),
            "workers": (cli._threads(frames), "count"),
        },
    }


WORKLOADS = {"shell_stream_l2": shell_stream, "shell_stream_l3": shell_stream,
             "heat_l2": heat, "p2_record_l3": p2_record}


def main(argv=None):
    t_start = time.perf_counter()
    sys.path.insert(0, str(ROOT / "src"))
    import cardiobem as cb
    import_s = time.perf_counter() - t_start

    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--ops", type=int, default=None,
                   help="run exactly this many operations instead of --seconds")
    p.add_argument("--traced", type=int, default=0)
    p.add_argument("--level", type=int, required=True)
    p.add_argument("--frames", type=int, default=240)
    p.add_argument("--steps", type=int, default=200)
    p.add_argument("--setups", type=int, default=1)
    p.add_argument("--work", required=True)
    args = p.parse_args(argv)
    args.import_s = import_s
    work = Path(args.work)
    work.mkdir(parents=True, exist_ok=True)

    tracer = ledger = None
    if args.traced:
        sys.path.insert(0, str(HERE))
        from layers import install_tracer
        tracer, ledger, missing = install_tracer()
    # line-buffered, so the parent can count operations after a crash
    with open(work / "progress.txt", "w", buffering=1) as progress:
        result = WORKLOADS[args.workload](cb, args, work, progress)
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if tracer is not None:
        from layers import layer_metrics, span_table
        tracer.uninstall()
        result["layers"] = layer_metrics(tracer, ledger)
        result["spans"] = span_table(tracer)
        result["missing_trace_targets"] = missing
        (work / "trace.json").write_text(json.dumps(tracer.dump()))
    (work / "result.json").write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
