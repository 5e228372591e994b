"""Command-line entry point: simulate, equilibrium, diagram, convergence.

Every run is driven by a YAML config and/or flags.  One table, _FLAGS,
declares each flag once, next to the YAML key it sets; the parser and the
override mapping handed to load_config are both read from it, and a
command gets the flags of the keys config.READ_BY says it reads.  Outputs are
CSV data files, all written by _write_csv, plus a JSON manifest.  Data
files are deterministic for a given config (17 significant digits, no
timestamps); wall-clock information lives only in the manifest.  Exit
codes: 0 success, 2 configuration error, 3 numerical failure, 4 I/O
failure.
"""
from __future__ import annotations

import argparse
import dataclasses
import datetime
import json
import math
import numbers
import sys
import time
from fractions import Fraction
from pathlib import Path
from typing import Any, Iterable, Optional, Sequence

import numpy as np
import yaml

from .config import IC_KINDS, RunConfig, build_initial_state, load_config, read_by
from .dynamics import (
    IntegratorControls,
    NumericalError,
    collision_rhs,
    distance_to_equilibrium,
    find_steady_state,
    fit_convergence_rate,
    integrate,
    integrate_many,
    select_fit_window,
)
from .equilibrium import reference_equilibrium
from .macroscopics import detect_capacity_drop, fundamental_diagram, moments
from .matrices import build_grid, build_tensor
from .params import (
    ConfigurationError,
    Kernel,
    PowerLaw,
    critical_density,
    evaluate_probability,
)

__all__ = ["main"]

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3
EXIT_IO = 4


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def _cell(value: Any) -> str:
    if isinstance(value, float):  # numpy's float64 too; the common case, tested first
        return _fmt(value)
    if isinstance(value, str):
        return value
    return str(int(value)) if isinstance(value, numbers.Integral) else _fmt(value)


def _write_csv(path: Path, header: Sequence[str], rows: Iterable[Sequence]) -> None:
    """A CSV file: reals to 17 significant digits, ints in decimal, strings as given."""
    with path.open("w") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(map(_cell, row)) + "\n")


def _jsonable(obj: Any) -> Any:
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return {k: _jsonable(v) for k, v in dataclasses.asdict(obj).items()}
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, (Fraction, Path)):
        return str(obj)
    if isinstance(obj, Kernel):
        return obj.value
    if isinstance(obj, float) and math.isinf(obj):
        return "inf"
    if isinstance(obj, np.generic):
        return obj.item()
    return obj


def _write_manifest(
    path: Path, command: str, cfg: RunConfig, outputs: Sequence[Path],
    wall_time: float, extra: Optional[dict] = None,
) -> None:
    manifest = {
        "command": command,
        "created": datetime.datetime.now(datetime.timezone.utc).isoformat(),
        "wall_time_s": wall_time,
        "configuration": _jsonable(cfg),
        "outputs": [str(p) for p in outputs],
    }
    if extra:
        manifest.update(_jsonable(extra))
    path.write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")


def _tensor_for(cfg: RunConfig, grid, ratio_obj):
    p = evaluate_probability(cfg.law, cfg.require_rho(), cfg.params)
    return build_tensor(cfg.params.kernel, grid, ratio_obj, p)


def _out_paths(cfg: RunConfig, *names: str) -> list[Path]:
    cfg.output.directory.mkdir(parents=True, exist_ok=True)
    return [cfg.output.directory / f"{cfg.output.prefix}_{n}" for n in names]


def _cmd_simulate(cfg: RunConfig) -> int:
    t0 = time.perf_counter()
    grid, ratio_obj = build_grid(cfg.params, cfg.require_ratio())
    tensor = _tensor_for(cfg, grid, ratio_obj)
    f0 = build_initial_state(cfg, grid)
    traj = integrate(
        f0, tensor, cfg.params.eta, cfg.integrator.t_end,
        IntegratorControls(step=cfg.integrator.step),
    )
    csv_path, manifest_path = _out_paths(cfg, "trajectory.csv", "manifest.json")
    residuals = np.abs(collision_rhs(traj.states, tensor, cfg.params.eta)).max(axis=1)
    cells = [f"f_{j}" for j in range(1, grid.n_cells + 1)]
    _write_csv(csv_path, ["t", *cells, "u", "residual"], (
        [t, *traj.states[i], moments(traj.state(i)).mean_speed, residuals[i]]
        for i, t in enumerate(traj.times)
    ))
    _write_manifest(
        manifest_path, "simulate", cfg, [csv_path], time.perf_counter() - t0,
        extra={
            "terminal_residual": traj.terminal_residual,
            "mass_drift": traj.mass_drift,
            "stored_states": len(traj.times),
        },
    )
    return EXIT_OK


def _cmd_equilibrium(cfg: RunConfig) -> int:
    t0 = time.perf_counter()
    grid, ratio_obj = build_grid(cfg.params, cfg.require_ratio())
    tensor = _tensor_for(cfg, grid, ratio_obj)
    f0 = build_initial_state(cfg, grid)
    f_inf = find_steady_state(
        f0, tensor, cfg.params.eta,
        residual_tol=cfg.integrator.residual_tol, t_max=cfg.integrator.t_max,
    )
    residual = float(np.abs(collision_rhs(f_inf, tensor, cfg.params.eta)).max())
    oracle = reference_equilibrium(
        cfg.params, cfg.law, cfg.require_rho(), ratio_obj.fraction, tensor, f0
    ).masses
    difference = f_inf.masses - oracle
    csv_path, manifest_path = _out_paths(cfg, "equilibrium.csv", "manifest.json")
    _write_csv(csv_path, ["cell", "speed", "oracle", "ode", "difference"], zip(
        range(1, grid.n_cells + 1), grid.centers, oracle, f_inf.masses, difference,
    ))
    _write_manifest(
        manifest_path, "equilibrium", cfg, [csv_path], time.perf_counter() - t0,
        extra={"terminal_residual": residual,
               "max_oracle_difference": float(np.abs(difference).max())},
    )
    return EXIT_OK


def _diagram_rhos(cfg: RunConfig) -> list[float]:
    settings = cfg.diagram
    rhos = set(float(r) for r in settings.rho_grid)
    if settings.insert_critical:
        rho_c = critical_density(cfg.law, cfg.params)
        if rho_c is not None:
            for cand in (rho_c - 1e-6, rho_c + 1e-6):
                if 0.0 < cand <= cfg.params.rho_max:
                    rhos.add(cand)
    out = sorted(rhos)
    if not out:
        raise ConfigurationError("diagram needs a non-empty density grid")
    return out


def _diagram_summary(diagram, kink_threshold: float) -> dict:
    """The summary.json entry of one ratio's diagram."""
    entry = {"r": diagram.ratio, "all_converged": diagram.all_converged}
    if len(diagram.samples) < 3:
        best = max(diagram.samples, key=lambda s: s.flux)
        return {
            **entry,
            "rho_at_max_flux": best.rho,
            "warnings": ["fewer than three samples; transition detection skipped"],
        }
    report = detect_capacity_drop(diagram, kink_threshold)
    return {
        **entry,
        "rho_at_max_flux": report.rho_at_max_flux,
        "drop_magnitude": report.drop_magnitude,
        "critical_density_bracket": list(report.bracket),
        "transitions": [
            {"rho_lo": tr.rho_lo, "rho_hi": tr.rho_hi, "flux_change": tr.flux_change}
            for tr in report.transitions
        ],
        "warnings": list(report.warnings),
    }


def _cmd_diagram(cfg: RunConfig) -> int:
    t0 = time.perf_counter()
    rhos = _diagram_rhos(cfg)
    gamma = cfg.law.gamma if isinstance(cfg.law, PowerLaw) else ""
    csv_path, summary_path, manifest_path = _out_paths(
        cfg, "diagram.csv", "summary.json", "manifest.json"
    )
    rows, summaries = [], []
    for ratio in cfg.diagram.ratios:
        diagram = fundamental_diagram(
            cfg.params, cfg.law, ratio, rhos,
            residual_tol=cfg.integrator.residual_tol,
        )
        rows += [
            (s.rho, s.flux, s.mean_speed, diagram.kernel.value, diagram.n_jumps,
             diagram.ratio, gamma, s.converged)
            for s in diagram.samples
        ]
        summaries.append(_diagram_summary(diagram, cfg.diagram.kink_threshold))
    _write_csv(
        csv_path, ["rho", "flux", "u", "kernel", "T", "r", "gamma", "converged"], rows
    )
    summary_path.write_text(
        json.dumps(_jsonable(summaries), indent=2, sort_keys=True) + "\n"
    )
    _write_manifest(
        manifest_path, "diagram", cfg, [csv_path, summary_path],
        time.perf_counter() - t0,
    )
    return EXIT_OK


def _convergence_rows(cfg: RunConfig) -> list[tuple]:
    """Decay-rate rows of every density on every grid, from one batched march.

    The march takes the rows ratio by ratio, so each grid's rows sit
    together; the rows come back density-major, ratio-minor.
    """
    params = cfg.params
    t_end = cfg.convergence.t_end
    if t_end is None:
        t_end = 200.0 / params.eta
    keys, tensors, starts, refs = [], [], [], []
    for ratio in cfg.convergence.ratios:
        grid, ratio_obj = build_grid(params, ratio)
        for rho in cfg.convergence.rho_set:
            run_cfg = dataclasses.replace(cfg, rho=rho, ratio=ratio_obj.fraction)
            tensor = _tensor_for(run_cfg, grid, ratio_obj)
            f0 = build_initial_state(run_cfg, grid)
            keys.append((rho, float(ratio_obj.r)))
            tensors.append(tensor)
            starts.append(f0)
            ref = reference_equilibrium(params, cfg.law, rho, ratio_obj.fraction, tensor, f0)
            refs.append(ref.masses)
    trajs = integrate_many(starts, tensors, params.eta, t_end)
    rows = []
    for (rho, r), traj, ref in zip(keys, trajs, refs):
        series = distance_to_equilibrium(traj, ref)
        try:
            window = select_fit_window(series)
            fit = fit_convergence_rate(series, window)
            rows.append((rho, r, params.delta_v, fit.rate,
                         fit.window[0], fit.window[1], fit.residual, "ok"))
        except NumericalError as exc:
            rows.append((rho, r, params.delta_v, math.nan,
                         math.nan, math.nan, math.nan, f"failed: {exc}"))
    n_rho = len(cfg.convergence.rho_set)
    return [row for i in range(n_rho) for row in rows[i::n_rho]]


def _cmd_convergence(cfg: RunConfig) -> int:
    if not (cfg.convergence.rho_set and cfg.convergence.ratios):
        raise ConfigurationError("convergence needs a non-empty density set and ratio list")
    t0 = time.perf_counter()
    rows = _convergence_rows(cfg)
    csv_path, manifest_path = _out_paths(cfg, "convergence.csv", "manifest.json")
    _write_csv(csv_path, [
        "rho", "r", "delta_v", "rate", "window_lo", "window_hi", "fit_residual", "status",
    ], rows)
    n_failed = sum(1 for row in rows if row[-1] != "ok")
    _write_manifest(
        manifest_path, "convergence", cfg, [csv_path],
        time.perf_counter() - t0, extra={"failed_rows": n_failed},
    )
    return EXIT_OK


_COMMANDS = {
    "simulate": "integrate one trajectory",
    "equilibrium": "steady state vs closed form",
    "diagram": "fundamental diagram sweep",
    "convergence": "fit decay rates toward equilibrium",
}


def _listed(text: str) -> Optional[list[str]]:
    """A comma-separated flag value as a list; an empty one leaves the key unset."""
    return text.split(",") if text else None


# (names, YAML key, argparse keywords): each flag once, in --help order,
# after --config.  A key "section.key" sets a key of that section; a
# command has the flags of the keys it reads (config.read_by).  A flag left
# out sets None, which load_config ignores.
_FLAGS = (
    (("--kernel",), "kernel", dict(choices=[k.value for k in Kernel])),
    (("--gamma",), "gamma", dict(type=float, help="power-law braking exponent")),
    (("--eta",), "eta", dict(type=float, help="interaction rate")),
    (("--rho",), "rho", dict(type=float, help="total vehicle density")),
    (("-N", "--n-cells"), "N", dict(dest="N", type=int, help="grid cell count")),
    (("--dv",), "dv", dict(type=float, help="grid cell width")),
    (("--r",), "r", dict(help="cells per speed jump (e.g. 4 or 14/3)")),
    (("--T",), "T", dict(type=int, help="speed jumps per v_max")),
    (("--v-max",), "v_max", dict(type=float)),
    (("--rho-max",), "rho_max", dict(type=float)),
    (("--out",), "output.directory", dict(type=Path, help="output directory")),
    (("--prefix",), "output.prefix", dict(help="output file name prefix")),
    (("--ic",), "initial_condition.kind",
     dict(choices=IC_KINDS, help="initial condition kind")),
    (("--ic-epsilon",), "initial_condition.epsilon",
     dict(type=float, help="initial perturbation size")),
    (("--ic-cell",), "initial_condition.cell",
     dict(type=int, help="perturbed cell (1-based)")),
    (("--t-end",), "integrator.t_end", dict(type=float, help="time horizon")),
    (("--step",), "integrator.step", dict(type=float, help="fixed integrator step")),
    (("--rho-start",), "diagram.rho_grid.start", dict(type=float)),
    (("--rho-stop",), "diagram.rho_grid.stop", dict(type=float)),
    (("--rho-count",), "diagram.rho_grid.count", dict(type=int)),
    (("--rho-list",), "diagram.rho_grid",
     dict(type=_listed, help="comma-separated densities")),
    (("--ratios",), "diagram.ratios",
     dict(type=_listed, help="comma-separated ratios, 'inf' allowed")),
    (("--insert-critical",), "diagram.insert_critical",
     dict(action=argparse.BooleanOptionalAction,
          help="add samples just below/above the critical density")),
    (("--kink-threshold",), "diagram.kink_threshold", dict(type=float)),
    (("--residual-tol",), "integrator.residual_tol", dict(type=float)),
    (("--t-max",), "integrator.t_max", dict(type=float)),
    (("--rho-set",), "convergence.rho_set",
     dict(type=_listed, help="comma-separated densities")),
    (("--ratios",), "convergence.ratios",
     dict(type=_listed, help="comma-separated integer ratios")),
    (("--fit-t-end",), "convergence.t_end",
     dict(type=float, help="integration horizon for the decay fit")),
)


def _dest(names: Sequence[str], kwargs: dict) -> str:
    """argparse's attribute name for a flag: its dest, else its first long name."""
    long_name = next(n for n in names if n.startswith("--"))
    return kwargs.get("dest", long_name[2:].replace("-", "_"))


def _overrides_from(args: argparse.Namespace) -> dict:
    """The flags as a run mapping with the YAML keys; None where a flag is unset."""
    overrides: dict[str, Any] = {}
    for names, key, kwargs in _FLAGS:
        if args.command in read_by(key):
            section, dot, leaf = key.partition(".")
            node = overrides.setdefault(section, {}) if dot else overrides
            node[leaf or key] = getattr(args, _dest(names, kwargs))
    # the density grid: --rho-list, or a {count, start, stop} mapping of the
    # spacing flags given, checked by load_config as a YAML one is
    diagram = overrides.get("diagram", {})
    spacing = {k.partition(".")[2]: diagram.pop(k) for k in list(diagram) if "." in k}
    if any(v is not None for v in spacing.values()):
        if diagram["rho_grid"] is not None:
            raise ConfigurationError("give --rho-list or --rho-start/stop/count, not both")
        diagram["rho_grid"] = spacing
    return overrides


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="kinetic-traffic",
        description="Homogeneous kinetic traffic models on a velocity grid",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for command, help_text in _COMMANDS.items():
        sp = sub.add_parser(command, help=help_text)
        sp.add_argument("--config", "-c", type=Path, help="YAML run description")
        for names, key, kwargs in _FLAGS:
            if command in read_by(key):
                sp.add_argument(*names, **kwargs)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        # looked up per run, so that a replaced _cmd_<command> takes effect
        handler = globals()[f"_cmd_{args.command}"]
        return handler(load_config(args.config, _overrides_from(args), args.command))
    except (ConfigurationError, yaml.YAMLError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except OSError as exc:
        print(f"i/o failure: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
