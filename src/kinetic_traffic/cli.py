"""Command-line entry point: simulate, equilibrium, diagram, convergence.

Every run is driven by a YAML config and/or flags; outputs are CSV data
files plus a JSON manifest.  Data files are deterministic for a given
config (17 significant digits, no timestamps); wall-clock information
lives only in the manifest.  Exit codes: 0 success, 2 configuration
error, 3 numerical failure, 4 I/O failure.
"""
from __future__ import annotations

import argparse
import dataclasses
import datetime
import json
import math
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from fractions import Fraction
from pathlib import Path
from typing import Any, Optional, Sequence

import numpy as np
import yaml

from .config import (
    IC_KINDS,
    RunConfig,
    build_initial_state,
    load_config,
    parse_ratio,
)
from .dynamics import (
    IntegratorControls,
    NumericalError,
    collision_rhs,
    distance_to_equilibrium,
    find_steady_state,
    fit_convergence_rate,
    integrate,
    select_fit_window,
)
from .equilibrium import closed_form_equilibrium, equilibrium_on_grid
from .macroscopics import (
    detect_capacity_drop,
    fundamental_diagram,
    moments,
)
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


def _jsonable(obj: Any) -> Any:
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return {k: _jsonable(v) for k, v in dataclasses.asdict(obj).items()}
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, Fraction):
        return str(obj)
    if isinstance(obj, Path):
        return str(obj)
    if isinstance(obj, Kernel):
        return obj.value
    if isinstance(obj, float) and math.isinf(obj):
        return "inf"
    if isinstance(obj, np.floating):
        return float(obj)
    if isinstance(obj, np.integer):
        return int(obj)
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
    n = grid.n_cells
    with csv_path.open("w") as fh:
        fh.write("t," + ",".join(f"f_{j}" for j in range(1, n + 1)) + ",u,residual\n")
        for i, t in enumerate(traj.times):
            state = traj.states[i]
            u = moments(traj.state(i)).mean_speed
            res = float(np.abs(collision_rhs(state, tensor, cfg.params.eta)).max())
            row = [_fmt(t)] + [_fmt(v) for v in state] + [_fmt(u), _fmt(res)]
            fh.write(",".join(row) + "\n")
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
    residual = float(
        np.abs(collision_rhs(f_inf, tensor, cfg.params.eta)).max()
    )
    has_oracle = cfg.params.kernel is Kernel.DELTA and ratio_obj.is_integer
    note = None
    oracle = None
    if has_oracle:
        rho = cfg.require_rho()
        p = evaluate_probability(cfg.law, rho, cfg.params)
        eq = closed_form_equilibrium(rho, p, cfg.params.n_jumps)
        oracle = equilibrium_on_grid(
            eq, int(ratio_obj.r), grid=grid, v_max=cfg.params.v_max
        ).masses
    elif cfg.params.kernel is Kernel.CHI:
        note = "no closed form exists for the spread kernel; ODE result only"
    else:
        note = (
            "closed-form masses fall between cells on a non-integer-ratio "
            "grid; ODE result only"
        )
    csv_path, manifest_path = _out_paths(cfg, "equilibrium.csv", "manifest.json")
    with csv_path.open("w") as fh:
        if has_oracle:
            fh.write("cell,speed,oracle,ode,difference\n")
            for j in range(grid.n_cells):
                fh.write(
                    ",".join(
                        [
                            str(j + 1),
                            _fmt(grid.centers[j]),
                            _fmt(oracle[j]),
                            _fmt(f_inf.masses[j]),
                            _fmt(f_inf.masses[j] - oracle[j]),
                        ]
                    )
                    + "\n"
                )
        else:
            fh.write("cell,speed,ode\n")
            for j in range(grid.n_cells):
                fh.write(
                    f"{j + 1},{_fmt(grid.centers[j])},{_fmt(f_inf.masses[j])}\n"
                )
    extra = {"terminal_residual": residual}
    if has_oracle:
        extra["max_oracle_difference"] = float(
            np.abs(f_inf.masses - oracle).max()
        )
    if note:
        extra["note"] = note
    _write_manifest(
        manifest_path, "equilibrium", cfg, [csv_path],
        time.perf_counter() - t0, extra=extra,
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


def _cmd_diagram(cfg: RunConfig) -> int:
    if cfg.diagram is None:
        raise ConfigurationError("the config lacks a diagram section")
    t0 = time.perf_counter()
    rhos = _diagram_rhos(cfg)
    gamma = cfg.law.gamma if isinstance(cfg.law, PowerLaw) else None
    csv_path, summary_path, manifest_path = _out_paths(
        cfg, "diagram.csv", "summary.json", "manifest.json"
    )
    summaries = []
    with csv_path.open("w") as fh:
        fh.write("rho,flux,u,kernel,T,r,gamma,converged\n")
        for ratio in cfg.diagram.ratios:
            diagram = fundamental_diagram(
                cfg.params, cfg.law, ratio, rhos,
                residual_tol=cfg.integrator.residual_tol,
            )
            r_label = "inf" if math.isinf(diagram.ratio) else _fmt(diagram.ratio)
            for s in diagram.samples:
                fh.write(
                    ",".join(
                        [
                            _fmt(s.rho),
                            _fmt(s.flux),
                            _fmt(s.mean_speed),
                            diagram.kernel.value,
                            str(diagram.n_jumps),
                            r_label,
                            "" if gamma is None else _fmt(gamma),
                            str(int(s.converged)),
                        ]
                    )
                    + "\n"
                )
            entry = {
                "r": "inf" if math.isinf(diagram.ratio) else diagram.ratio,
                "all_converged": diagram.all_converged,
            }
            if len(diagram.samples) >= 3:
                report = detect_capacity_drop(diagram, cfg.diagram.kink_threshold)
                entry.update(
                    {
                        "rho_at_max_flux": report.rho_at_max_flux,
                        "drop_magnitude": report.drop_magnitude,
                        "critical_density_bracket": list(report.bracket),
                        "transitions": [
                            {
                                "rho_lo": tr.rho_lo,
                                "rho_hi": tr.rho_hi,
                                "flux_change": tr.flux_change,
                            }
                            for tr in report.transitions
                        ],
                        "warnings": list(report.warnings),
                    }
                )
            else:
                best = max(diagram.samples, key=lambda s: s.flux)
                entry.update(
                    {
                        "rho_at_max_flux": best.rho,
                        "warnings": [
                            "fewer than three samples; transition detection skipped"
                        ],
                    }
                )
            summaries.append(entry)
    summary_path.write_text(
        json.dumps(_jsonable(summaries), indent=2, sort_keys=True) + "\n"
    )
    _write_manifest(
        manifest_path, "diagram", cfg, [csv_path, summary_path],
        time.perf_counter() - t0,
    )
    return EXIT_OK


def _convergence_row(task: tuple) -> tuple:
    """One (density, ratio) decay-rate measurement for the worker pool."""
    cfg, rho, ratio = task
    params = cfg.params
    run_cfg = dataclasses.replace(cfg, rho=rho, ratio=parse_ratio(ratio))
    grid, ratio_obj = build_grid(params, ratio)
    tensor = _tensor_for(run_cfg, grid, ratio_obj)
    f0 = build_initial_state(run_cfg, grid)
    p = evaluate_probability(cfg.law, rho, params)
    t_end = cfg.convergence.t_end
    if t_end is None:
        t_end = 200.0 / params.eta
    if params.kernel is Kernel.DELTA and ratio_obj.is_integer:
        eq = closed_form_equilibrium(rho, p, params.n_jumps)
        ref = equilibrium_on_grid(
            eq, int(ratio_obj.r), grid=grid, v_max=params.v_max
        ).masses
    else:
        ref = find_steady_state(
            f0, tensor, params.eta,
            residual_tol=cfg.integrator.residual_tol,
            t_max=cfg.integrator.t_max,
        ).masses
    traj = integrate(f0, tensor, params.eta, t_end)
    series = distance_to_equilibrium(traj, ref)
    try:
        window = select_fit_window(series)
        fit = fit_convergence_rate(series, window, full=True)
        return (rho, float(ratio_obj.r), params.delta_v, fit.rate,
                fit.window[0], fit.window[1], fit.residual, "ok")
    except NumericalError as exc:
        return (rho, float(ratio_obj.r), params.delta_v, math.nan,
                math.nan, math.nan, math.nan, f"failed: {exc}")


def _cmd_convergence(cfg: RunConfig) -> int:
    if cfg.convergence is None:
        raise ConfigurationError("the config lacks a convergence section")
    t0 = time.perf_counter()
    tasks = [
        (cfg, rho, ratio)
        for rho in cfg.convergence.rho_set
        for ratio in cfg.convergence.ratios
    ]
    if not tasks:
        raise ConfigurationError("convergence needs a non-empty density set")
    if cfg.workers > 1:
        with ProcessPoolExecutor(max_workers=cfg.workers) as pool:
            rows = list(pool.map(_convergence_row, tasks))
    else:
        rows = [_convergence_row(t) for t in tasks]
    csv_path, manifest_path = _out_paths(cfg, "convergence.csv", "manifest.json")
    with csv_path.open("w") as fh:
        fh.write("rho,r,delta_v,rate,window_lo,window_hi,fit_residual,status\n")
        for row in rows:
            cells = [_fmt(v) for v in row[:-1]] + [row[-1]]
            fh.write(",".join(cells) + "\n")
    n_failed = sum(1 for row in rows if row[-1] != "ok")
    _write_manifest(
        manifest_path, "convergence", cfg, [csv_path],
        time.perf_counter() - t0, extra={"failed_rows": n_failed},
    )
    return EXIT_OK


def _add_shared_flags(sp: argparse.ArgumentParser) -> None:
    sp.add_argument("--config", "-c", type=Path, help="YAML run description")
    sp.add_argument("--kernel", choices=[k.value for k in Kernel])
    sp.add_argument("--gamma", type=float, help="power-law braking exponent")
    sp.add_argument("--eta", type=float, help="interaction rate")
    sp.add_argument("--rho", type=float, help="total vehicle density")
    sp.add_argument("-N", "--n-cells", dest="N", type=int, help="grid cell count")
    sp.add_argument("--dv", type=float, help="grid cell width")
    sp.add_argument("--r", dest="r", help="cells per speed jump (e.g. 4 or 14/3)")
    sp.add_argument("--T", dest="T", type=int, help="speed jumps per v_max")
    sp.add_argument("--v-max", dest="v_max", type=float)
    sp.add_argument("--rho-max", dest="rho_max", type=float)
    sp.add_argument("--out", type=Path, help="output directory")
    sp.add_argument("--prefix", help="output file name prefix")
    sp.add_argument("--workers", type=int,
                    help="worker processes for convergence sweeps")
    sp.add_argument("--ic", choices=IC_KINDS, help="initial condition kind")
    sp.add_argument("--ic-epsilon", type=float, help="initial perturbation size")
    sp.add_argument("--ic-cell", type=int, help="perturbed cell (1-based)")


def _overrides_from(args: argparse.Namespace) -> dict:
    """The flags as a run mapping with the YAML keys; None where a flag is unset."""
    def flag(name):
        return getattr(args, name, None)

    def listed(name):
        return flag(name).split(",") if flag(name) else None

    overrides = {
        k: flag(k)
        for k in ("kernel", "gamma", "eta", "rho", "N", "dv", "r", "T",
                  "v_max", "rho_max", "workers")
    }
    overrides["output"] = {"directory": args.out, "prefix": args.prefix}
    overrides["initial_condition"] = {
        "kind": args.ic, "epsilon": args.ic_epsilon, "cell": args.ic_cell,
    }
    overrides["integrator"] = {
        k: flag(k) for k in ("step", "t_end", "t_max", "residual_tol")
    }
    if args.command == "diagram":
        rho_grid = listed("rho_list")
        if rho_grid is None and args.rho_count is not None:
            rho_grid = {
                "start": args.rho_start, "stop": args.rho_stop, "count": args.rho_count,
            }
        overrides["diagram"] = {
            "rho_grid": rho_grid,
            "ratios": listed("ratios"),
            "insert_critical": args.insert_critical,
            "kink_threshold": args.kink_threshold,
        }
    elif args.command == "convergence":
        overrides["convergence"] = {
            "rho_set": listed("rho_set"),
            "ratios": listed("ratios"),
            "t_end": args.fit_t_end,
        }
    return overrides


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="kinetic-traffic",
        description="Homogeneous kinetic traffic models on a velocity grid",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("simulate", help="integrate one trajectory")
    _add_shared_flags(sp)
    sp.add_argument("--t-end", dest="t_end", type=float, help="time horizon")
    sp.add_argument("--step", type=float, help="fixed integrator step")
    sp.set_defaults(handler=_cmd_simulate)

    sp = sub.add_parser("equilibrium", help="steady state vs closed form")
    _add_shared_flags(sp)
    sp.add_argument("--residual-tol", dest="residual_tol", type=float)
    sp.add_argument("--t-max", dest="t_max", type=float)
    sp.set_defaults(handler=_cmd_equilibrium)

    sp = sub.add_parser("diagram", help="fundamental diagram sweep")
    _add_shared_flags(sp)
    sp.add_argument("--rho-start", dest="rho_start", type=float)
    sp.add_argument("--rho-stop", dest="rho_stop", type=float)
    sp.add_argument("--rho-count", dest="rho_count", type=int)
    sp.add_argument("--rho-list", dest="rho_list", help="comma-separated densities")
    sp.add_argument("--ratios", help="comma-separated ratios, 'inf' allowed")
    sp.add_argument(
        "--insert-critical", dest="insert_critical",
        action=argparse.BooleanOptionalAction, default=None,
        help="add samples just below/above the critical density",
    )
    sp.add_argument("--kink-threshold", dest="kink_threshold", type=float)
    sp.add_argument("--residual-tol", dest="residual_tol", type=float)
    sp.set_defaults(handler=_cmd_diagram)

    sp = sub.add_parser("convergence", help="fit decay rates toward equilibrium")
    _add_shared_flags(sp)
    sp.add_argument("--rho-set", dest="rho_set", help="comma-separated densities")
    sp.add_argument("--ratios", help="comma-separated integer ratios")
    sp.add_argument("--fit-t-end", dest="fit_t_end", type=float,
                    help="integration horizon for the decay fit")
    sp.set_defaults(handler=_cmd_convergence)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.handler(load_config(args.config, _overrides_from(args)))
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
