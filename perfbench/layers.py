"""Traced run: spans around the calls into each package module.

Every traced function is replaced, for the duration of a traced pass, at
each module attribute that refers to it (for example both
`kinetic_traffic.macroscopics.find_steady_state` and
`kinetic_traffic.dynamics.find_steady_state`), so calls made inside the
package are seen as well as the benchmark's own.  No file of the package
changes.  The per-layer metrics are derived from the recorded spans.
"""
from __future__ import annotations

import contextlib
import functools
import inspect
import math
import sys
from typing import Callable, Optional

import numpy as np

from harness import Span, Tracer, self_times

PACKAGE = "kinetic_traffic"

# (module, function) pairs whose calls are traced.  params is too small
# to time; cli is traced by the benchmark around each cli.main call.
TRACED = (
    ("matrices", "build_chi_tensor"),
    ("matrices", "build_delta_tensor_integer"),
    ("matrices", "build_delta_tensor_generic"),
    ("dynamics", "find_steady_state"),
    ("dynamics", "integrate"),
    ("dynamics", "collision_rhs"),
    ("equilibrium", "closed_form_equilibrium"),
    ("equilibrium", "equilibrium_on_grid"),
    ("macroscopics", "fundamental_diagram"),
    ("macroscopics", "moments"),
    ("macroscopics", "compare_diagrams"),
    ("macroscopics", "detect_capacity_drop"),
    ("config", "load_config"),
    ("config", "build_initial_state"),
)
BUILDERS = {
    "matrices.build_chi_tensor",
    "matrices.build_delta_tensor_integer",
    "matrices.build_delta_tensor_generic",
}
CLI_COMMANDS = ("simulate", "equilibrium", "diagram", "convergence")

# Per-layer metrics: name -> unit.  Values are per pass (median over the
# traced passes of a run), so counts repeat exactly between runs.
METRICS = {
    "matrices.build_chi_tensor.busy_s": "s",
    "matrices.build_chi_tensor.calls": "count",
    "matrices.build_delta_tensor_integer.busy_s": "s",
    "matrices.build_delta_tensor_generic.busy_s": "s",
    "matrices.accel_nnz_share": "share",
    "matrices.accel_bytes": "B",
    "dynamics.rhs_bytes_computed": "B",
    "dynamics.find_steady_state.busy_s": "s",
    "dynamics.find_steady_state.calls": "count",
    "dynamics.find_steady_state.failed": "count",
    "dynamics.find_steady_state.timeouts": "count",
    "dynamics.integrate.busy_s": "s",
    "dynamics.integrate.steps": "count",
    "dynamics.integrate.step_us": "us",
    "dynamics.collision_rhs.busy_s": "s",
    "dynamics.collision_rhs.calls": "count",
    "dynamics.collision_rhs.call_us": "us",
    "equilibrium.closed_form_equilibrium.busy_s": "s",
    "equilibrium.closed_form_equilibrium.calls": "count",
    "equilibrium.equilibrium_on_grid.busy_s": "s",
    "macroscopics.fundamental_diagram.self_s": "s",
    "macroscopics.fundamental_diagram.calls": "count",
    "macroscopics.moments.busy_s": "s",
    "macroscopics.compare_diagrams.busy_s": "s",
    "macroscopics.detect_capacity_drop.busy_s": "s",
    "config.load_config.busy_s": "s",
    "config.build_initial_state.busy_s": "s",
    **{f"cli.{c}.wall_s": "s" for c in CLI_COMMANDS},
    "cli.self_s": "s",
    "cli.bytes_written": "B",
    "trace.overhead_share": "share",
}


def _integrate_steps(bound: inspect.BoundArguments) -> int:
    """Step count from the documented rule: h = step or 0.1/(eta*rho)."""
    a = bound.arguments
    f0 = a["f0"]
    rho0 = float(np.sum(getattr(f0, "masses", f0)))
    controls = a.get("controls")
    step = getattr(controls, "step", None)
    h = step if step is not None else 0.1 / (a["eta"] * max(rho0, 1e-12))
    return max(1, math.ceil(a["t_end"] / h - 1e-12))


def _annotate(qualname: str, bound: inspect.BoundArguments, result) -> dict:
    """Work counts a call's arguments and result reveal from outside.

    rhs_bytes counts 8*N^2 per dense accel @ f product, plus 16*N^2 for the
    two N x N masks the RHS factory builds on each entry into dynamics.
    It is computed from array sizes and covers only evaluations countable
    from outside; those inside LSODA are not seen.
    """
    if qualname in BUILDERS:
        accel = result.accel
        return {"nnz": int(np.count_nonzero(accel)), "n2": accel.size,
                "accel_bytes": accel.nbytes}
    if qualname == "dynamics.collision_rhs":
        n = bound.arguments["tensor"].n_cells
        return {"rhs_bytes": 24 * n * n}
    if qualname == "dynamics.integrate":
        n = bound.arguments["tensor"].n_cells
        steps = _integrate_steps(bound)
        return {"steps": steps, "rhs_bytes": (4 * steps + 1) * 8 * n * n + 16 * n * n}
    if qualname == "dynamics.find_steady_state":
        n = bound.arguments["tensor"].n_cells
        return {"rhs_bytes": 24 * n * n}
    return {}


def _wrap(tracer: Tracer, qualname: str, fn: Callable) -> Callable:
    sig = inspect.signature(fn)

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        idx = tracer.open(qualname)
        if idx is None:
            return fn(*args, **kwargs)
        try:
            result = fn(*args, **kwargs)
        except BaseException as exc:
            tracer.close(idx, error=type(exc).__name__)
            raise
        tracer.close(idx)
        tracer.spans[idx].info.update(_annotate(qualname, sig.bind(*args, **kwargs), result))
        return result

    return traced


@contextlib.contextmanager
def installed(tracer: Tracer):
    """Replace each traced function at every package attribute naming it."""
    modules = [m for name, m in list(sys.modules.items())
               if m is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))]
    patched = []
    for mod_name, fn_name in TRACED:
        original = getattr(sys.modules[f"{PACKAGE}.{mod_name}"], fn_name)
        wrapper = _wrap(tracer, f"{mod_name}.{fn_name}", original)
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, attr, wrapper)
                    patched.append((mod, attr, original))
    try:
        yield tracer
    finally:
        for mod, attr, original in patched:
            setattr(mod, attr, original)


def pass_metrics(spans: list[Span], counters: dict[str, float]) -> dict[str, float]:
    """Per-layer metrics of one traced pass."""
    selfs = self_times(spans)

    def of(name: str) -> list[int]:
        return [i for i, s in enumerate(spans) if s.name == name]

    def busy(name: str) -> float:
        return sum(spans[i].end - spans[i].start for i in of(name))

    def info_sum(key: str, names: Optional[set] = None) -> float:
        return sum(s.info.get(key, 0) for s in spans if names is None or s.name in names)

    out: dict[str, float] = {}
    for mod_name, fn_name in TRACED:
        q = f"{mod_name}.{fn_name}"
        out[f"{q}.busy_s"] = busy(q)
        out[f"{q}.calls"] = float(len(of(q)))
    fss = [spans[i] for i in of("dynamics.find_steady_state")]
    out["dynamics.find_steady_state.failed"] = float(sum(s.error is not None for s in fss))
    out["dynamics.find_steady_state.timeouts"] = float(
        sum(s.error == "SteadyStateTimeout" for s in fss))
    steps = info_sum("steps")
    out["dynamics.integrate.steps"] = steps
    out["dynamics.integrate.step_us"] = (
        1e6 * out["dynamics.integrate.busy_s"] / steps if steps else 0.0)
    calls = out["dynamics.collision_rhs.calls"]
    out["dynamics.collision_rhs.call_us"] = (
        1e6 * out["dynamics.collision_rhs.busy_s"] / calls if calls else 0.0)
    n2 = info_sum("n2", BUILDERS)
    out["matrices.accel_nnz_share"] = info_sum("nnz", BUILDERS) / n2 if n2 else 0.0
    out["matrices.accel_bytes"] = info_sum("accel_bytes", BUILDERS)
    out["dynamics.rhs_bytes_computed"] = info_sum("rhs_bytes")
    out["macroscopics.fundamental_diagram.self_s"] = sum(
        selfs[i] for i in of("macroscopics.fundamental_diagram"))
    cli_spans = [i for i, s in enumerate(spans) if s.name.startswith("cli.")]
    for c in CLI_COMMANDS:
        out[f"cli.{c}.wall_s"] = busy(f"cli.{c}")
    out["cli.self_s"] = sum(selfs[i] for i in cli_spans)
    out["cli.bytes_written"] = counters.get("cli.bytes_written", 0.0)
    return {k: out[k] for k in METRICS if k in out}
