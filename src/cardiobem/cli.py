"""Batch command-line surface around the library.

Subcommands: ``synth`` (emit an analytic oracle dataset), ``reconstruct-p1``
(measured extracellular trace to v), ``reconstruct-p2`` (torso potential to
v through the regularized Cauchy solver, per-frame for time records),
``nullspace`` (emit and certify a null-space element), ``eval`` (RMSE
report table), ``green-check`` / ``heat-check`` (invariant suites), and
``rerun`` (re-execute a run from its manifest).

Every run resolves its parameters from defaults, then a flat ``key = value``
config file (``--config``), then explicit flags (flags win), and writes the
resolved set to ``run_manifest.json`` in the output directory.  Re-running
that manifest on the same machine, with the same BLAS build and thread
count, reproduces every output byte for byte: no timestamps are written,
floats are shortest-repr, and noise is drawn from a recorded seed.
Rounding-level diagnostics such as ``flux_defect`` move with the BLAS
blocking, so another BLAS build or thread count changes their last digits.
Noise exists only here; the library solvers are deterministic.  The
manifest's ``results`` hold only what no other file of the run holds: a
single-field reconstruction's c, chosen alpha and diagnostics live in its
``reconstruction.json``, and only a time record, which writes none, lists
its per-frame c and chosen alpha there.

Exit codes: 0 success, 2 validation error (bad flags, missing or malformed
files, parameters that are not positive and finite), 3 solver or invariant
failure.  The env variable BIDOMAIN_THREADS caps the per-frame worker pool
of ``reconstruct-p2``.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np

from .cauchy import (DiscrepancyPrinciple, FixedAlpha, LCurveMaxCurvature,
                     TikhonovConfig)
from .errors import CardiobemError, ParseError
from .grid import InteriorGrid
from .kernels import ConductivityModel, HeatOperatorSpec
from .mesh import (DomainConfig, NodalField, _format_rows, _read_json_object,
                   _read_text, _write_text, load_mesh, load_nodal_field,
                   save_mesh, save_nodal_field)
from .oracle import (HarmonicSpec, HarmonicTerm, Shell3D, rmse,
                     synth_bidomain_steady)
from .parabolic import (SpaceTimeField, TimeGrid, heat_kernel,
                        heat_kernel_mass, load_spacetime_field,
                        parabolic_green_reconstruct, save_spacetime_field)
from .primitives import icosphere
from .reconstruct import (CubicRadial, generate_nullspace_element,
                          run_protocol_1, run_protocol_2,
                          write_reconstruction)
from .assembly import green_representation
from .direct import solve_zaremba

__all__ = ["main", "report_table", "RunConfig"]

logger = logging.getLogger(__name__)

_EXIT_OK = 0
_EXIT_VALIDATION = 2
_EXIT_SOLVER = 3


class ValidationFailure(Exception):
    """Bad input caught before any expensive work; maps to exit code 2."""


# ---------------------------------------------------------------------------
# configuration


# name -> (cast, default); None default means required by the subcommand
_PARAM_TYPES = {
    "heart": (str, None),
    "torso": (str, None),
    "u_e": (str, None),
    "f": (str, None),
    "truth": (str, None),
    "p1": (str, None),
    "p2": (str, None),
    "label": (str, "all"),
    "r1": (float, 1.0),
    "r2": (float, 2.0),
    "level": (int, 3),
    "l": (int, 1),
    "m": (int, 0),
    "amp": (float, 30.0),
    "terms": (str, ""),
    "sigma_i": (float, 12.0),
    "sigma_e": (float, 45.0),
    "m_b": (float, 7.0),
    "c0": (float, 1.0),
    "noise": (float, 0.0),
    "seed": (int, 0),
    "alpha_min": (float, 1e-10),
    "alpha_max": (float, 1e2),
    "alpha_count": (int, 16),
    "selection": (str, "lcurve"),
    "alpha_global": (bool, False),
    "center": (str, "0,0,0.2"),
    "radius": (float, 0.3),
    "amplitude": (float, 1.0),
    "grid_h": (float, 0.1),
    "steps": (int, 24),
    "t_end": (float, 0.5),
    "vtk": (bool, False),
}


class RunConfig(dict):
    """Resolved run parameters: defaults, then config file, then flags."""

    @staticmethod
    def resolve(args: argparse.Namespace, keys) -> "RunConfig":
        cfg_file = {}
        if getattr(args, "config", None):
            cfg_file = _parse_config_file(args.config)
        out = RunConfig()
        for key in keys:
            cast, default = _PARAM_TYPES[key]
            value = default
            if key in cfg_file:
                value = _cast(key, cast, cfg_file[key])
            flag = getattr(args, key, None)
            if flag is not None and flag is not False:
                value = flag
            out[key] = value
        unknown = set(cfg_file) - set(keys)
        if unknown:
            raise ValidationFailure(
                f"config keys not used by this subcommand: {sorted(unknown)}"
            )
        return out


def _parse_config_file(path: str) -> dict:
    p = Path(path)
    if not p.is_file():
        raise ValidationFailure(f"config file not found: {p}")
    out = {}
    for ln, raw in enumerate(_read_text(p).splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValidationFailure(f"{p}:{ln}: expected 'key = value'")
        key, val = line.split("=", 1)
        key = key.strip().replace("-", "_")
        if key not in _PARAM_TYPES:
            raise ValidationFailure(f"{p}:{ln}: unknown key {key!r}")
        out[key] = val.strip()
    return out


def _cast(key: str, cast, text: str):
    if cast is bool:
        low = str(text).strip().lower()
        if low in ("1", "true", "yes", "on"):
            return True
        if low in ("0", "false", "no", "off"):
            return False
        raise ValidationFailure(f"{key}: expected a boolean, got {text!r}")
    try:
        return cast(text)
    except (TypeError, ValueError) as exc:
        raise ValidationFailure(f"{key}: {exc}") from exc


def _require_file(cfg: RunConfig, key: str) -> Path:
    value = cfg.get(key)
    if not value:
        raise ValidationFailure(f"missing required input: --{key.replace('_', '-')}")
    p = Path(value)
    if not p.is_file():
        raise ValidationFailure(f"{key}: file not found: {p}")
    return p


def _require_positive(cfg: RunConfig, *keys) -> None:
    for key in keys:
        if not 0 < cfg[key] < np.inf:
            raise ValidationFailure(
                f"{key} must be positive and finite, got {cfg[key]}")


def _model(cfg: RunConfig) -> ConductivityModel:
    _require_positive(cfg, "sigma_i", "sigma_e", "m_b")
    return ConductivityModel(M_i=cfg["sigma_i"], M_e=cfg["sigma_e"],
                             m_b=cfg["m_b"])


def _out_dir(args) -> Path:
    if not getattr(args, "out", None):
        raise ValidationFailure("missing required --out directory")
    p = Path(args.out)
    p.mkdir(parents=True, exist_ok=True)
    return p


def _write_manifest(out: Path, subcommand: str, cfg: RunConfig,
                    results: dict) -> None:
    doc = {
        "subcommand": subcommand,
        "parameters": dict(sorted(cfg.items())),
        "results": results,
    }
    _write_text(out / "run_manifest.json",
                json.dumps(doc, indent=1, sort_keys=True) + "\n")


def _threads(n_jobs: int) -> int:
    cap = os.environ.get("BIDOMAIN_THREADS", "").strip()
    if cap:
        try:
            limit = max(1, int(cap))
        except ValueError:
            raise ValidationFailure(
                f"BIDOMAIN_THREADS must be an integer, got {cap!r}"
            ) from None
    else:
        limit = min(4, os.cpu_count() or 1)
    return max(1, min(limit, n_jobs))


# ---------------------------------------------------------------------------
# report formatting


def report_table(rows) -> str:
    """Fixed-format error table; two decimals, mV, blank cell for None."""
    header = ("label", "u_e->v", "u_b->u_e->v")
    body = []
    for label, d1, d2 in rows:
        c1 = f"{d1:.2f} mV" if d1 is not None else "-"
        c2 = f"{d2:.2f} mV" if d2 is not None else "-"
        body.append((str(label), c1, c2))
    # column widths follow the data so a lone row prints exactly as
    # "LV  5.71 mV  19.81 mV"; the header keeps its natural width
    widths = [max(len(r[k]) for r in body) if body else 0 for k in range(3)]
    lines = ["  ".join(header)]
    for r in body:
        lines.append("  ".join(r[k].ljust(widths[k]) for k in range(3)).rstrip())
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# subcommand bodies (take resolved parameters so `rerun` can replay them)


def _spec_terms(cfg: RunConfig) -> HarmonicSpec:
    geometry = Shell3D(cfg["r1"], cfg["r2"])
    if cfg["terms"]:
        terms = []
        for part in cfg["terms"].split(";"):
            bits = part.split(",")
            if len(bits) != 3:
                raise ValidationFailure(
                    f"terms: expected 'l,m,amp' triples separated by ';', got {part!r}"
                )
            terms.append(HarmonicTerm(_cast("terms", int, bits[0]),
                                      _cast("terms", int, bits[1]),
                                      a=_cast("terms", float, bits[2])))
    else:
        terms = [HarmonicTerm(cfg["l"], cfg["m"], a=cfg["amp"])]
    return HarmonicSpec(terms=tuple(terms), geometry=geometry)


def _run_synth(cfg: RunConfig, out: Path) -> dict:
    if not 0 < cfg["r1"] < cfg["r2"]:
        raise ValidationFailure("need 0 < r1 < r2")
    if not 0 <= cfg["level"] <= 5:
        raise ValidationFailure("level must be between 0 and 5")
    model = _model(cfg)
    spec = _spec_terms(cfg)
    oracle = synth_bidomain_steady(spec.geometry, model, spec, c0=cfg["c0"])
    heart = icosphere(cfg["level"], cfg["r1"], surface_id="heart")
    torso = icosphere(cfg["level"], cfg["r2"], surface_id="torso")
    fields = oracle.fields_on(heart, torso)
    save_mesh(heart, out / "heart.off")
    save_mesh(torso, out / "torso.off")
    for name, fld in fields.items():
        save_nodal_field(fld, out / f"{name}.csv")
    resid = oracle.transmission_residuals()
    return {
        "c": oracle.c,
        "lambda": model.lam,
        "transmission_residuals": {k: float(v) for k, v in resid.items()},
        "files": sorted(f.name for f in out.iterdir() if f.name != "run_manifest.json"),
    }


def _run_reconstruct_p1(cfg: RunConfig, out: Path) -> dict:
    heart = load_mesh(_require_file(cfg, "heart"), surface_id="heart")
    torso = load_mesh(_require_file(cfg, "torso"), surface_id="torso")
    u_e = load_nodal_field(_require_file(cfg, "u_e"))
    model = _model(cfg)
    domain = DomainConfig(heart=heart, torso=torso)
    result = run_protocol_1(domain, model, u_e, c0=cfg["c0"])
    write_reconstruction(result, out, heart, vtk=cfg["vtk"])
    return {"lambda": model.lam}


def _selection(cfg: RunConfig):
    sel = cfg["selection"]
    if sel == "lcurve":
        return LCurveMaxCurvature()
    rule, colon, text = sel.partition(":")
    rules = {"fixed": FixedAlpha, "discrepancy": DiscrepancyPrinciple}
    if colon and rule in rules:
        value = _cast("selection", float, text)
        if not 0 < value < np.inf:
            raise ValidationFailure(
                f"selection {rule} needs a finite value > 0, got {text!r}")
        return rules[rule](value)
    raise ValidationFailure(
        f"selection must be 'lcurve', 'fixed:ALPHA' or 'discrepancy:LEVEL', got {sel!r}"
    )


def _tikhonov(cfg: RunConfig) -> TikhonovConfig:
    _require_positive(cfg, "alpha_min", "alpha_max")
    if cfg["alpha_count"] < 8:
        raise ValidationFailure("alpha_count must be at least 8")
    return TikhonovConfig.log_grid(count=cfg["alpha_count"],
                                   alpha_min=cfg["alpha_min"],
                                   alpha_max=cfg["alpha_max"],
                                   selection=_selection(cfg))


def _noisy(values: np.ndarray, cfg: RunConfig) -> np.ndarray:
    if cfg["noise"] == 0.0:
        return values
    if cfg["noise"] < 0:
        raise ValidationFailure("noise level must be non-negative")
    rng = np.random.default_rng(cfg["seed"])
    scale = cfg["noise"] * float(np.max(np.abs(values), initial=0.0))
    return values + rng.normal(size=values.shape) * scale


def _run_reconstruct_p2(cfg: RunConfig, out: Path) -> dict:
    heart = load_mesh(_require_file(cfg, "heart"), surface_id="heart")
    torso = load_mesh(_require_file(cfg, "torso"), surface_id="torso")
    fpath = _require_file(cfg, "f")
    model = _model(cfg)
    tikhonov = _tikhonov(cfg)
    domain = DomainConfig(heart=heart, torso=torso)

    with open(fpath, errors="replace") as fh:
        head = fh.readline()
    if head.strip() == "node_index,value":
        f = load_nodal_field(fpath)
        f = NodalField(f.surface_id, _noisy(f.values, cfg), f.units)
        result = run_protocol_2(domain, model, f, tikhonov, c0=cfg["c0"])
        write_reconstruction(result, out, heart, vtk=cfg["vtk"])
        return {}

    record = load_spacetime_field(fpath)
    frames = record.values.shape[1]
    noisy = _noisy(record.values, cfg)

    def frame_field(j):
        return NodalField(record.location, noisy[:, j], record.units)

    config = tikhonov
    if cfg["alpha_global"]:
        norms = np.linalg.norm(noisy, axis=0)
        lead = int(np.argmax(norms))
        first = run_protocol_2(domain, model, frame_field(lead), tikhonov,
                               c0=cfg["c0"])
        config = TikhonovConfig(
            alpha_grid=tikhonov.alpha_grid,
            selection=FixedAlpha(first.diagnostics["chosen_alpha"]),
        )

    def solve(j):
        return run_protocol_2(domain, model, frame_field(j), config,
                              c0=cfg["c0"])

    with ThreadPoolExecutor(max_workers=_threads(frames)) as pool:
        outputs = list(pool.map(solve, range(frames)))

    nh = heart.n_vertices
    arrays = {name: np.empty((nh, frames)) for name in ("u_e", "u_i", "v")}
    alphas = []
    for j, res in enumerate(outputs):
        for name in arrays:
            arrays[name][:, j] = getattr(res, name).values
        alphas.append(res.diagnostics["chosen_alpha"])
    for name, mat in arrays.items():
        save_spacetime_field(SpaceTimeField("heart", mat, record.grid),
                             out / f"{name}.csv")
    return {"frames": frames, "chosen_alpha": alphas,
            "alpha_global": bool(cfg["alpha_global"]),
            "c": [float(r.c) for r in outputs]}


def _run_nullspace(cfg: RunConfig, out: Path) -> dict:
    heart = load_mesh(_require_file(cfg, "heart"), surface_id="heart")
    model = _model(cfg)
    _require_positive(cfg, "radius", "amplitude", "grid_h")
    center = tuple(_cast("center", float, x) for x in cfg["center"].split(","))
    if len(center) != 3:
        raise ValidationFailure("center must be 'x,y,z'")
    grid = InteriorGrid.for_mesh(heart, h=cfg["grid_h"])
    bump = CubicRadial(center=center, radius=cfg["radius"],
                       amplitude=cfg["amplitude"])
    elem = generate_nullspace_element(heart, grid, model, bump,
                                      proportional=True)
    save_nodal_field(elem.u_e_trace, out / "u_e_trace.csv")
    save_nodal_field(elem.u_i_trace, out / "u_i_trace.csv")
    _write_text(out / "u_interior.csv",
                _format_rows("%r\n", elem.u_interior[grid.inside]))
    results = {
        "trace_sup": float(np.abs(elem.u_e_trace.values).max()),
        "grad_trace_sup": float(elem.grad_trace_norm),
        "c": float(elem.diagnostics["c"]),
        "support_gap": float(elem.diagnostics["support_gap"]),
        "proportional_identity_sup": float(np.abs(
            elem.u_i_interior + model.lam * elem.u_interior
            - elem.diagnostics["c"]).max()),
    }
    if cfg.get("torso"):
        torso = load_mesh(_require_file(cfg, "torso"), surface_id="torso")
        domain = DomainConfig(heart=heart, torso=torso)
        rep = solve_zaremba(model.M_b, domain, elem.u_e_trace)
        results["torso_signal_sup"] = float(
            np.abs(rep.solution_trace_outer.values).max())
    return results


def _run_eval(cfg: RunConfig, out: Path) -> dict:
    truth = load_nodal_field(_require_file(cfg, "truth"))
    row = [cfg["label"], None, None]
    values = {}
    for slot, key in ((1, "p1"), (2, "p2")):
        if cfg.get(key):
            rec = load_nodal_field(_require_file(cfg, key))
            delta = rmse(rec, truth)
            row[slot] = delta
            values[key] = delta
    table = report_table([tuple(row)])
    _write_text(out / "report.txt", table + "\n")
    print(table)
    return {"rmse_mV": values,
            "v_range_mV": float(truth.values.max() - truth.values.min())}


def _run_green_check(cfg: RunConfig, out: Path) -> dict:
    if not 1 <= cfg["level"] <= 4:
        raise ValidationFailure("level must be between 1 and 4")
    mesh = icosphere(cfg["level"], 1.0, surface_id="sphere")
    dirichlet = NodalField("sphere", mesh.vertices[:, 2])
    conormal = NodalField("sphere", mesh.vertices[:, 2]
                          / np.linalg.norm(mesh.vertices, axis=1))
    inner = np.array([[0.0, 0.0, 0.5], [0.3, -0.2, 0.1], [0.0, 0.0, 0.0]])
    outer = np.array([[1.5, 0.0, 0.0], [0.0, 2.0, 1.0]])
    got_in = green_representation(1.0, mesh, dirichlet, conormal, inner)
    got_out = green_representation(1.0, mesh, dirichlet, conormal, outer)
    interior_err = float(np.max(np.abs(got_in - inner[:, 2])
                                / np.maximum(np.abs(inner[:, 2]), 0.1)))
    exterior_sup = float(np.max(np.abs(got_out)))
    ok = interior_err <= 0.01 and exterior_sup <= 1e-2
    results = {"interior_rel_err": interior_err, "exterior_sup": exterior_sup,
               "passed": bool(ok)}
    if not ok:
        raise CardiobemError(f"green-check failed: {results}")
    return results


def _run_heat_check(cfg: RunConfig, out: Path) -> dict:
    spec = HeatOperatorSpec(M=1.0, scale=1.0, dim=3)
    mass_err = abs(heat_kernel_mass(spec, 0.1) - 1.0)
    causal = float(np.abs(heat_kernel(
        spec, np.array([[0.3, 0.1, 0.0]]), 0.0)).max())
    dx, dt = 1e-3, 2e-4
    x = np.array([0.3, -0.2, 0.1])
    t = 0.25
    ut = (heat_kernel(spec, x, t + dt) - heat_kernel(spec, x, t - dt)) / (2 * dt)
    lap = 0.0
    for i in range(3):
        e = np.zeros(3)
        e[i] = dx
        lap += (heat_kernel(spec, x + e, t) - 2 * heat_kernel(spec, x, t)
                + heat_kernel(spec, x - e, t)) / dx ** 2
    pde_resid = abs(float(ut - lap))

    mesh = icosphere(2, 1.0, surface_id="ball")
    grid = InteriorGrid.for_mesh(mesh, h=0.14)
    tg = TimeGrid(t_end=cfg["t_end"], steps=cfg["steps"])
    trace = SpaceTimeField("ball", np.add.outer(
        np.sum(mesh.vertices ** 2, axis=1), 6.0 * tg.times), tg)
    flux = SpaceTimeField("ball", np.repeat(
        2.0 * np.linalg.norm(mesh.vertices, axis=1)[:, None], tg.steps, 1), tg)
    u0 = np.sum(grid.centers() ** 2, axis=1)
    val = parabolic_green_reconstruct(spec, mesh, grid, trace, flux, u0, None,
                                      np.zeros(3), cfg["t_end"])
    caloric_err = abs(val - (6.0 * cfg["t_end"])) / (6.0 * cfg["t_end"])
    ok = (mass_err <= 1e-6 and causal == 0.0 and pde_resid < 1e-5
          and caloric_err <= 0.02)
    results = {"mass_err": float(mass_err), "causal_sup": causal,
               "pde_residual": pde_resid, "caloric_rel_err": float(caloric_err),
               "passed": bool(ok)}
    if not ok:
        raise CardiobemError(f"heat-check failed: {results}")
    return results


_SUBCOMMANDS = {
    "synth": (_run_synth,
              ["r1", "r2", "level", "l", "m", "amp", "terms",
               "sigma_i", "sigma_e", "m_b", "c0"]),
    "reconstruct-p1": (_run_reconstruct_p1,
                       ["heart", "torso", "u_e", "sigma_i", "sigma_e", "m_b",
                        "c0", "vtk"]),
    "reconstruct-p2": (_run_reconstruct_p2,
                       ["heart", "torso", "f", "sigma_i", "sigma_e", "m_b",
                        "c0", "noise", "seed", "alpha_min", "alpha_max",
                        "alpha_count", "selection", "alpha_global", "vtk"]),
    "nullspace": (_run_nullspace,
                  ["heart", "torso", "center", "radius", "amplitude",
                   "grid_h", "sigma_i", "sigma_e", "m_b"]),
    "eval": (_run_eval, ["truth", "p1", "p2", "label"]),
    "green-check": (_run_green_check, ["level"]),
    "heat-check": (_run_heat_check, ["steps", "t_end"]),
}


# ---------------------------------------------------------------------------
# argument parsing and dispatch


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cardiobem",
        description="boundary-element bidomain reconstruction toolkit",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)
    for name, (_, keys) in _SUBCOMMANDS.items():
        p = sub.add_parser(name)
        p.add_argument("--config", help="flat key = value config file")
        p.add_argument("--out", help="output directory")
        p.add_argument("--verbose", action="store_true")
        for key in keys:
            cast, _ = _PARAM_TYPES[key]
            flag = "--" + key.replace("_", "-")
            if cast is bool:
                p.add_argument(flag, action="store_true", default=None)
            else:
                p.add_argument(flag, type=cast, default=None)
    rerun = sub.add_parser("rerun")
    rerun.add_argument("manifest", help="run_manifest.json of a previous run")
    rerun.add_argument("--out", help="output directory", required=False)
    rerun.add_argument("--verbose", action="store_true")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    logging.basicConfig(
        level=logging.INFO if getattr(args, "verbose", False) else logging.WARNING,
        format="%(levelname)s %(name)s: %(message)s",
    )
    try:
        if args.subcommand == "rerun":
            return _dispatch_rerun(args)
        handler, keys = _SUBCOMMANDS[args.subcommand]
        cfg = RunConfig.resolve(args, keys)
        out = _out_dir(args)
        results = handler(cfg, out)
        _write_manifest(out, args.subcommand, cfg, results)
        return _EXIT_OK
    except (ValidationFailure, ParseError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _EXIT_VALIDATION
    except CardiobemError as exc:
        print(f"solver error: {exc}", file=sys.stderr)
        return _EXIT_SOLVER


def _dispatch_rerun(args) -> int:
    doc = _read_json_object(args.manifest, "run manifest", {
        "subcommand": lambda v: isinstance(v, str) and v in _SUBCOMMANDS,
        "parameters": lambda v: isinstance(v, dict)})
    name, params = doc["subcommand"], doc["parameters"]
    handler, keys = _SUBCOMMANDS[name]
    cfg = RunConfig()
    for key in keys:
        cast, default = _PARAM_TYPES[key]
        value = params.get(key)
        cfg[key] = default if value is None else _cast(key, cast, value)
    out = _out_dir(args)
    results = handler(cfg, out)
    _write_manifest(out, name, cfg, results)
    return _EXIT_OK
