"""Which cardiobem functions the traced run wraps, and the per-layer metrics.

Span names are ``<layer>.<function>``; the layer is the cardiobem module
that defines the function.  Every target is the name a calling module looks
up: the benchmark's own calls go through the ``cardiobem`` package, and the
package's internal calls through the importing module (``direct`` builds its
operators through ``cardiobem.direct.assemble_layer``, the CLI solves frames
through ``cardiobem.cli.run_protocol_2``).
"""

from __future__ import annotations

import os

from tracer import AssemblyLedger, Tracer

# metric name -> unit, in report order; cli.* appear only on p2_record_l3
LAYER_UNITS = {
    "assembly.calls": "count",
    "assembly.builds": "count",
    "assembly.duplicate_builds": "count",
    "assembly.build_s": "s",
    "assembly.ns_per_entry": "ns",
    "assembly.held_mb": "MB",
    "direct.zaremba_calls": "count",
    "direct.zaremba_self_ms": "ms",
    "direct.neumann_calls": "count",
    "direct.neumann_self_ms": "ms",
    "cauchy.solve_calls": "count",
    "cauchy.solve_self_ms": "ms",
    "cauchy.lcurve_calls": "count",
    "cauchy.fallback_frac": "ratio",
    "reconstruct.p1_self_ms": "ms",
    "reconstruct.p2_self_ms": "ms",
    "reconstruct.write_s": "s",
    "reconstruct.write_bytes": "B",
    "parabolic.layer_calls": "count",
    "parabolic.layer_self_ms": "ms",
    "parabolic.heat_kernel_calls": "count",
    "parabolic.poisson_ms": "ms",
    "parabolic.volume_ms": "ms",
    "parabolic.evolution_s": "s",
    "parabolic.record_io_s": "s",
    "parabolic.record_bytes": "B",
    "grid.calls": "count",
    "grid.self_ms": "ms",
    "mesh.load_s": "s",
    "mesh.save_s": "s",
    "trace.spans": "count",
}
CLI_UNITS = {
    "cli.main_s": "s",
    "cli.workers": "count",
    "cli.frames_done": "count",
}

_GRID_METHODS = ("for_mesh", "centers", "interior_centers", "sample",
                 "integrate", "elliptic_apply", "gradient")


def _file_bytes(*paths):
    total = 0
    for p in paths:
        try:
            total += os.path.getsize(p)
        except OSError:
            pass
    return total


def install_tracer():
    """Wrap the trace targets; returns (tracer, ledger, missing targets)."""
    tracer = Tracer()
    ledger = AssemblyLedger(tracer)

    def fallback(args, kwargs, result, ns):
        tracer.count("cauchy.fallbacks",
                     int("degenerate_lcurve_fallback" in result.diagnostics))

    def written(args, kwargs, result, ns):
        directory = args[1] if len(args) > 1 else kwargs["directory"]
        tracer.count("reconstruct.write_bytes", _file_bytes(
            *(os.path.join(directory, f)
                      for f in os.listdir(directory))))

    def record_file(args, kwargs, result, ns):
        path = str(args[-1] if args else kwargs["path"])
        tracer.count("parabolic.record_bytes",
                     _file_bytes(path, path + ".json"))

    def workers(args, kwargs, result, ns):
        tracer.counters["cli.workers"] = result

    def frame_done(args, kwargs, result, ns):
        tracer.count("cli.frames_done")

    targets = {
        # assembly, as direct (and cauchy through direct) calls it
        "cardiobem.direct.assemble_layer": ("assembly.assemble_layer", ledger),
        # direct solvers, as reconstruct, parabolic and cli call them
        "cardiobem.reconstruct.solve_zaremba": ("direct.solve_zaremba", None),
        "cardiobem.reconstruct.solve_neumann_normalized":
            ("direct.solve_neumann_normalized", None),
        "cardiobem.parabolic.solve_neumann_normalized":
            ("direct.solve_neumann_normalized", None),
        # Cauchy solver, as reconstruct calls it; the L-curve as cauchy does
        "cardiobem.reconstruct.solve_cauchy_elliptic":
            ("cauchy.solve_cauchy_elliptic", fallback),
        "cardiobem.cauchy.lcurve_corner": ("cauchy.lcurve_corner", None),
        # protocols and output, as the benchmark and cli call them
        "cardiobem.run_protocol_1": ("reconstruct.run_protocol_1", None),
        "cardiobem.run_protocol_2": ("reconstruct.run_protocol_2", None),
        "cardiobem.cli.run_protocol_2":
            ("reconstruct.run_protocol_2", frame_done),
        "cardiobem.write_reconstruction":
            ("reconstruct.write_reconstruction", written),
        # parabolic layer, as the benchmark and parabolic itself call it
        "cardiobem.parabolic_green_reconstruct":
            ("parabolic.parabolic_green_reconstruct", None),
        "cardiobem.assemble_evolution_rhs":
            ("parabolic.assemble_evolution_rhs", None),
        "cardiobem.parabolic.parabolic_layer_potentials":
            ("parabolic.parabolic_layer_potentials", None),
        "cardiobem.parabolic.poisson_integral": ("parabolic.poisson_integral", None),
        "cardiobem.parabolic.volume_heat_potential":
            ("parabolic.volume_heat_potential", None),
        "cardiobem.parabolic.heat_kernel": ("parabolic.heat_kernel", None),
        "cardiobem.load_spacetime_field":
            ("parabolic.load_spacetime_field", record_file),
        "cardiobem.save_spacetime_field":
            ("parabolic.save_spacetime_field", record_file),
        "cardiobem.cli.load_spacetime_field":
            ("parabolic.load_spacetime_field", record_file),
        "cardiobem.cli.save_spacetime_field":
            ("parabolic.save_spacetime_field", record_file),
        # meshes
        "cardiobem.load_mesh": ("mesh.load_mesh", None),
        "cardiobem.save_mesh": ("mesh.save_mesh", None),
        "cardiobem.cli.load_mesh": ("mesh.load_mesh", None),
        # command line
        "cardiobem.cli.main": ("cli.main", None),
        "cardiobem.cli._threads": ("cli._threads", workers),
    }
    for method in _GRID_METHODS:
        targets[f"cardiobem.grid.InteriorGrid.{method}"] = (f"grid.{method}", None)
    missing = tracer.install(targets)
    return tracer, ledger, missing


def layer_metrics(tracer, ledger):
    """Per-layer metrics of one traced run, in LAYER_UNITS order plus cli."""
    spans = tracer.by_name()
    c = tracer.counters

    def calls(name):
        return spans.get(name, (0, 0, 0))[0]

    def total(name):
        return spans.get(name, (0, 0, 0))[1]

    def own(name):
        return spans.get(name, (0, 0, 0))[2]

    build_ns = c.get("assembly.build_ns", 0)
    entries = c.get("assembly.entries", 0)
    solves = calls("cauchy.solve_cauchy_elliptic")
    grid = [n for n in spans if n.startswith("grid.")]
    out = {
        "assembly.calls": c.get("assembly.calls", 0),
        "assembly.builds": c.get("assembly.builds", 0),
        "assembly.duplicate_builds": c.get("assembly.duplicate_builds", 0),
        "assembly.build_s": build_ns / 1e9,
        "assembly.ns_per_entry": build_ns / entries if entries else 0.0,
        "assembly.held_mb": ledger.held_bytes() / 1e6,
        "direct.zaremba_calls": calls("direct.solve_zaremba"),
        "direct.zaremba_self_ms": own("direct.solve_zaremba") / 1e6,
        "direct.neumann_calls": calls("direct.solve_neumann_normalized"),
        "direct.neumann_self_ms": own("direct.solve_neumann_normalized") / 1e6,
        "cauchy.solve_calls": solves,
        "cauchy.solve_self_ms": own("cauchy.solve_cauchy_elliptic") / 1e6,
        "cauchy.lcurve_calls": calls("cauchy.lcurve_corner"),
        "cauchy.fallback_frac": c.get("cauchy.fallbacks", 0) / solves if solves else 0.0,
        "reconstruct.p1_self_ms": own("reconstruct.run_protocol_1") / 1e6,
        "reconstruct.p2_self_ms": own("reconstruct.run_protocol_2") / 1e6,
        "reconstruct.write_s": total("reconstruct.write_reconstruction") / 1e9,
        "reconstruct.write_bytes": c.get("reconstruct.write_bytes", 0),
        "parabolic.layer_calls": calls("parabolic.parabolic_layer_potentials"),
        "parabolic.layer_self_ms": own("parabolic.parabolic_layer_potentials") / 1e6,
        "parabolic.heat_kernel_calls": calls("parabolic.heat_kernel"),
        "parabolic.poisson_ms": total("parabolic.poisson_integral") / 1e6,
        "parabolic.volume_ms": total("parabolic.volume_heat_potential") / 1e6,
        "parabolic.evolution_s": total("parabolic.assemble_evolution_rhs") / 1e9,
        "parabolic.record_io_s": (total("parabolic.load_spacetime_field")
                                  + total("parabolic.save_spacetime_field")) / 1e9,
        "parabolic.record_bytes": c.get("parabolic.record_bytes", 0),
        "grid.calls": sum(calls(n) for n in grid),
        "grid.self_ms": sum(own(n) for n in grid) / 1e6,
        "mesh.load_s": total("mesh.load_mesh") / 1e9,
        "mesh.save_s": total("mesh.save_mesh") / 1e9,
        "trace.spans": len(tracer.spans),
        "cli.main_s": total("cli.main") / 1e9,
        "cli.workers": c.get("cli.workers", 0),
        "cli.frames_done": c.get("cli.frames_done", 0),
    }
    return out


def span_table(tracer):
    """Rows (name, calls, total ms, self ms), largest self time first."""
    rows = [(name, n, t / 1e6, s / 1e6)
            for name, (n, t, s) in tracer.by_name().items()]
    return sorted(rows, key=lambda r: -r[3])
