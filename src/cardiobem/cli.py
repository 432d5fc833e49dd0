"""Batch command-line surface around the library.

Subcommands: ``synth`` (emit an analytic oracle dataset), ``reconstruct-p1``
(measured extracellular trace to v), ``reconstruct-p2`` (torso potential to
v through the regularized Cauchy solver, a time record in one pass of
matrix products), ``nullspace`` (emit and certify a null-space element), ``eval`` (RMSE
report table), ``green-check`` / ``heat-check`` (invariant suites), and
``rerun`` (re-execute a run from its manifest).

Every run resolves its parameters from defaults, then a flat ``key = value``
config file (``--config``), then explicit flags (flags win), and writes the
resolved set to ``run_manifest.json`` in the output directory; ``rerun``
resolves the same way, with the manifest's parameters in the config file's
place.  Re-running that manifest on the same machine, with the same BLAS
build and thread count, reproduces every output byte for byte: no
timestamps are written, floats are shortest-repr, and noise is drawn from a
recorded seed.  Rounding-level diagnostics such as ``flux_defect`` move
with the BLAS blocking, so another BLAS build or thread count changes their
last digits.  Noise exists only here; the library solvers are
deterministic.  The manifest's ``results`` hold only what no other file of
the run holds: a single-field reconstruction's c, chosen alpha and
diagnostics live in its ``reconstruction.json``, and only a time record,
which writes none, lists there its c and chosen alpha for each frame and,
for each flag that fired, the frames it fired in.

Every value but a default is cast once from its text, and every float a run
reads is finite, the numbers inside ``--terms``, ``--center`` and
``--selection`` included.  Each parameter's range is its check in
``_PARAM_TYPES``, which every final value must pass; rules that span
parameters (r1 < r2, alpha_min < alpha_max, |m| <= l) stay with their
code.  A non-finite float or a value outside its range exits 2.

Exit codes: 0 success, 2 validation error (bad flags, missing or malformed
files, a non-finite float, a parameter outside its range), 3 solver or
invariant failure.
"""

from __future__ import annotations

import argparse
import json
import logging
import math
import sys
from pathlib import Path

import numpy as np

from .cauchy import (DiscrepancyPrinciple, FixedAlpha, LCurveMaxCurvature,
                     TikhonovConfig)
from .errors import CardiobemError, ParseError
from .grid import InteriorGrid
from .kernels import ConductivityModel, HeatOperatorSpec
from .mesh import (DomainConfig, NodalField, _format_rows, _read_json_object,
                   _read_sidecar, _read_text, _write_text, load_mesh,
                   load_nodal_field, save_mesh, save_nodal_field)
from .oracle import (HarmonicSpec, HarmonicTerm, Shell3D, rmse,
                     synth_bidomain_steady)
from .parabolic import (SpaceTimeField, TimeGrid, heat_kernel,
                        heat_kernel_mass, load_spacetime_field,
                        parabolic_green_reconstruct, save_spacetime_field)
from .primitives import icosphere
from .reconstruct import (CubicRadial, _protocol_2_block,
                          generate_nullspace_element, run_protocol_1,
                          run_protocol_2, write_reconstruction)
from .assembly import green_representation
from .direct import solve_zaremba

__all__ = ["main", "report_table"]

logger = logging.getLogger(__name__)

_EXIT_OK = 0
_EXIT_VALIDATION = 2
_EXIT_SOLVER = 3


class ValidationFailure(Exception):
    """Bad input caught before any expensive work; maps to exit code 2."""


# ---------------------------------------------------------------------------
# configuration


# a parameter's check: what its value must be, and the predicate on the
# cast value that says so
_POSITIVE = ("positive and finite", lambda v: 0 < v < math.inf)
_FINITE = ("finite", math.isfinite)
_NON_NEGATIVE = ("finite and >= 0", lambda v: 0 <= v < math.inf)


def _integers(low, high) -> tuple:
    """The check of an integer in [low, high]."""
    return (f"an integer in [{low}, {high}]", lambda v: low <= v <= high)


# name -> (cast, default, check); None default means required by the
# subcommand, and a str or bool parameter has no check
_PARAM_TYPES = {
    "heart": (str, None, None),
    "torso": (str, None, None),
    "u_e": (str, None, None),
    "f": (str, None, None),
    "truth": (str, None, None),
    "p1": (str, None, None),
    "p2": (str, None, None),
    "label": (str, "all", None),
    "r1": (float, 1.0, _POSITIVE),
    "r2": (float, 2.0, _POSITIVE),
    "level": (int, 3, _integers(0, 5)),
    # |m| <= l spans the two: HarmonicTerm checks it
    "l": (int, 1, _integers(0, math.inf)),
    "m": (int, 0, _integers(-math.inf, math.inf)),
    "amp": (float, 30.0, _FINITE),
    "terms": (str, "", None),
    "sigma_i": (float, 12.0, _POSITIVE),
    "sigma_e": (float, 45.0, _POSITIVE),
    "m_b": (float, 7.0, _POSITIVE),
    "c0": (float, 1.0, _FINITE),
    "noise": (float, 0.0, _NON_NEGATIVE),
    "seed": (int, 0, _integers(0, math.inf)),
    "alpha_min": (float, 1e-10, _POSITIVE),
    "alpha_max": (float, 1e2, _POSITIVE),
    "alpha_count": (int, 16, _integers(8, math.inf)),
    "selection": (str, "lcurve", None),
    "alpha_global": (bool, False, None),
    "center": (str, "0,0,0.2", None),
    "radius": (float, 0.3, _POSITIVE),
    "amplitude": (float, 1.0, _POSITIVE),
    "grid_h": (float, 0.1, _POSITIVE),
    "steps": (int, 24, _integers(2, math.inf)),
    "t_end": (float, 0.5, _POSITIVE),
    "vtk": (bool, False, None),
}


def _resolve(keys, layer: dict, flags: dict) -> dict:
    """The value of each of ``keys``: its default, else the text ``layer``
    gives (a config file's, or a manifest's parameters), else a flag's.
    Each value but a default is cast once from its text (``_cast``), and
    every final value must pass its parameter's check."""
    unknown = set(layer) - set(keys)
    if unknown:
        raise ValidationFailure(
            f"config keys not used by this subcommand: {sorted(unknown)}")
    given = {**layer, **flags}
    cfg = {}
    for key in keys:
        cast, value, check = _PARAM_TYPES[key]
        if key in given:
            value = _cast(key, cast, given[key])
        if check and not check[1](value):
            raise ValidationFailure(f"{key} must be {check[0]}, got {value!r}")
        cfg[key] = value
    return cfg


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


def _cast(key: str, cast, text):
    """``text``, or a JSON value read as its text, as a ``cast`` value; a
    float must be finite."""
    text = str(text)
    if cast is bool:
        low = text.strip().lower()
        if low in ("1", "true", "yes", "on"):
            return True
        if low in ("0", "false", "no", "off"):
            return False
        raise ValidationFailure(f"{key}: expected a boolean, got {text!r}")
    try:
        value = cast(text)
    except ValueError as exc:
        raise ValidationFailure(f"{key}: {exc}") from exc
    if cast is float and not math.isfinite(value):
        raise ValidationFailure(f"{key}: expected a finite number, got {text!r}")
    return value


def _require_file(cfg: dict, key: str) -> Path:
    value = cfg.get(key)
    if not value:
        raise ValidationFailure(f"missing required input: --{key.replace('_', '-')}")
    p = Path(value)
    if not p.is_file():
        raise ValidationFailure(f"{key}: file not found: {p}")
    return p


def _surface(cfg: dict, key: str):
    """The mesh file named by ``key``, ``heart`` or ``torso``, with that id."""
    return load_mesh(_require_file(cfg, key), surface_id=key)


def _domain(cfg: dict) -> DomainConfig:
    return DomainConfig(heart=_surface(cfg, "heart"), torso=_surface(cfg, "torso"))


def _model(cfg: dict) -> ConductivityModel:
    return ConductivityModel(M_i=cfg["sigma_i"], M_e=cfg["sigma_e"],
                             m_b=cfg["m_b"])


def _out_dir(args) -> Path:
    if not getattr(args, "out", None):
        raise ValidationFailure("missing required --out directory")
    p = Path(args.out)
    p.mkdir(parents=True, exist_ok=True)
    return p


def _write_manifest(out: Path, subcommand: str, cfg: dict,
                    results: dict) -> None:
    doc = {
        "subcommand": subcommand,
        "parameters": dict(sorted(cfg.items())),
        "results": results,
    }
    _write_text(out / "run_manifest.json",
                json.dumps(doc, indent=1, sort_keys=True) + "\n")


def _threads(frames: int) -> int:
    """Passes per record: one.  Only perfbench reads it (ROADMAP item 1b)."""
    return min(frames, 1)


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


def _spec_terms(cfg: dict) -> HarmonicSpec:
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


def _run_synth(cfg: dict, out: Path) -> dict:
    if not cfg["r1"] < cfg["r2"]:
        raise ValidationFailure("need r1 < r2")
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


def _run_reconstruct_p1(cfg: dict, out: Path) -> dict:
    domain = _domain(cfg)
    u_e = load_nodal_field(_require_file(cfg, "u_e"))
    model = _model(cfg)
    result = run_protocol_1(domain, model, u_e, c0=cfg["c0"])
    write_reconstruction(result, out, domain.heart, vtk=cfg["vtk"])
    return {"lambda": model.lam}


def _selection(cfg: dict):
    sel = cfg["selection"]
    if sel == "lcurve":
        return LCurveMaxCurvature()
    rule, colon, text = sel.partition(":")
    rules = {"fixed": FixedAlpha, "discrepancy": DiscrepancyPrinciple}
    if colon and rule in rules:
        value = _cast("selection", float, text)
        if not value > 0:
            raise ValidationFailure(f"selection {rule} needs a value > 0, got {text!r}")
        return rules[rule](value)
    raise ValidationFailure(
        f"selection must be 'lcurve', 'fixed:ALPHA' or 'discrepancy:LEVEL', got {sel!r}"
    )


def _tikhonov(cfg: dict) -> TikhonovConfig:
    if not cfg["alpha_min"] < cfg["alpha_max"]:
        raise ValidationFailure("need alpha_min < alpha_max")
    return TikhonovConfig.log_grid(count=cfg["alpha_count"],
                                   alpha_min=cfg["alpha_min"],
                                   alpha_max=cfg["alpha_max"],
                                   selection=_selection(cfg))


def _noisy(values: np.ndarray, cfg: dict) -> np.ndarray:
    if cfg["noise"] == 0.0:
        return values
    rng = np.random.default_rng(cfg["seed"])
    scale = cfg["noise"] * float(np.max(np.abs(values), initial=0.0))
    return values + rng.normal(size=values.shape) * scale


def _run_reconstruct_p2(cfg: dict, out: Path) -> dict:
    domain = _domain(cfg)
    fpath = _require_file(cfg, "f")
    model = _model(cfg)
    tikhonov = _tikhonov(cfg)

    # a record's sidecar holds its time grid, a nodal field's none
    if "time_grid" not in _read_sidecar(fpath, "sidecar", {}):
        f = load_nodal_field(fpath)
        f = NodalField(f.surface_id, _noisy(f.values, cfg), f.units)
        result = run_protocol_2(domain, model, f, tikhonov, c0=cfg["c0"])
        write_reconstruction(result, out, domain.heart, vtk=cfg["vtk"])
        return {}

    record = load_spacetime_field(fpath)
    noisy = _noisy(record.values, cfg)
    flags = {}
    if cfg["alpha_global"]:
        # one alpha, picked on the loudest frame, frozen across the record;
        # a flag the pick raises is the loudest frame's
        lead = int(np.argmax(np.linalg.norm(noisy, axis=0)))
        _, _, _, picked, pick_flags = _protocol_2_block(
            domain, model, record.location, noisy[:, [lead]], tikhonov, cfg["c0"])
        flags = dict.fromkeys(pick_flags, [lead])
        tikhonov = TikhonovConfig(
            tikhonov.alpha_grid,
            selection=FixedAlpha(float(picked["chosen_alpha"][0])))
    u_e, u_i, c, diagnostics, fired = _protocol_2_block(
        domain, model, record.location, noisy, tikhonov, cfg["c0"])
    for name, mat in (("u_e", u_e), ("u_i", u_i), ("v", u_i - u_e)):
        save_spacetime_field(SpaceTimeField("heart", mat, record.grid),
                             out / f"{name}.csv")
    for name, frames in fired.items():
        flags[name] = sorted({*flags.get(name, []), *frames.tolist()})
    return {"frames": noisy.shape[1],
            "chosen_alpha": diagnostics["chosen_alpha"].tolist(),
            "alpha_global": bool(cfg["alpha_global"]),
            "c": c.tolist(), "flags": flags}


def _run_nullspace(cfg: dict, out: Path) -> dict:
    domain = _domain(cfg) if cfg["torso"] else None
    heart = _surface(cfg, "heart") if domain is None else domain.heart
    model = _model(cfg)
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
    if domain is not None:
        rep = solve_zaremba(model.M_b, domain, elem.u_e_trace)
        results["torso_signal_sup"] = float(
            np.abs(rep.solution_trace_outer.values).max())
    return results


def _run_eval(cfg: dict, out: Path) -> dict:
    truth = load_nodal_field(_require_file(cfg, "truth"))
    row = [cfg["label"], None, None]
    values = {}
    for slot, key in ((1, "p1"), (2, "p2")):
        if cfg[key]:
            rec = load_nodal_field(_require_file(cfg, key))
            delta = rmse(rec, truth)
            row[slot] = delta
            values[key] = delta
    table = report_table([tuple(row)])
    _write_text(out / "report.txt", table + "\n")
    print(table)
    return {"rmse_mV": values,
            "v_range_mV": float(truth.values.max() - truth.values.min())}


def _run_green_check(cfg: dict, out: Path) -> dict:
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


def _run_heat_check(cfg: dict, out: Path) -> dict:
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
        for key in keys:  # a flag gives text, which _resolve casts
            action = "store_true" if _PARAM_TYPES[key][0] is bool else "store"
            p.add_argument("--" + key.replace("_", "-"), action=action, default=None)
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
        name, layer = _layer(args)
        handler, keys = _SUBCOMMANDS[name]
        flags = {key: getattr(args, key) for key in keys
                 if getattr(args, key, None) is not None}
        cfg = _resolve(keys, layer, flags)
        out = _out_dir(args)
        _write_manifest(out, name, cfg, handler(cfg, out))
        return _EXIT_OK
    except (ValidationFailure, ParseError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _EXIT_VALIDATION
    except CardiobemError as exc:
        print(f"solver error: {exc}", file=sys.stderr)
        return _EXIT_SOLVER


def _layer(args) -> tuple:
    """The subcommand to run and the values between its defaults and its
    flags: a run's ``--config`` file, or the parameters of a ``rerun``'s
    manifest.  A manifest's keys that its subcommand does not take (an
    older synth's ``geometry``) and its nulls are left out."""
    if args.subcommand != "rerun":
        return args.subcommand, (_parse_config_file(args.config)
                                 if args.config else {})
    doc = _read_json_object(args.manifest, "run manifest", {
        "subcommand": lambda v: isinstance(v, str) and v in _SUBCOMMANDS,
        "parameters": lambda v: isinstance(v, dict)})
    keys = _SUBCOMMANDS[doc["subcommand"]][1]
    return doc["subcommand"], {key: value for key, value in doc["parameters"].items()
                               if key in keys and value is not None}
