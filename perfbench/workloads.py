"""The three workloads: inputs, operations, output checks and digests.

Each workload is a list of operations run one after another from one
process (a closed loop, one client, workers=1).  The seed only shuffles
the order of the operations; the inputs themselves are fixed so that the
hard cases in NOTES.md stay in every run.  Package functions are looked up
on their module at call time, so the traced run sees these calls.
"""
from __future__ import annotations

import hashlib
import json
import random
import shutil
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Any, Callable, Optional

import numpy as np

import kinetic_traffic as kt
from kinetic_traffic import cli
from harness import NoResult, Tracer

LAW = kt.PowerLaw(1.0)
RESIDUAL_TOL = 1e-10
T_MAX = 1e7  # the acceptance suite's steady-state ceiling


@dataclass
class Op:
    key: str                                   # stable label; digests sort by it
    run: Callable[[], Any]                     # the timed call into the package
    check: Callable[[Any], Optional[str]]      # None when correct, else the reason
    digest: Callable[[Any], str]               # canonical text of the output
    hard_case: Optional[str] = None            # ledger entry (see NOTES.md)
    before: Optional[Callable[[], None]] = None  # untimed preparation


@dataclass
class Workload:
    name: str
    ops: list[Op]
    # Pass-level step after the operations: gets {key: output or None} and
    # returns (problems, digest text).  Timed as part of the pass.
    finish: Optional[Callable[[dict], tuple[list[str], str]]] = None


def g17(x: float) -> str:
    return format(float(x), ".17g")


# ---------------------------------------------------------------- fd-sweep

FD_RHOS = [0.01 + 0.02 * k for k in range(50)]  # criterion 09's densities
FD_RATIOS = (1, 20)
FD_HARD = {(20, 0.49): "NumericalError after ~0.35 s (criterion 09)"}


def _fd_sweep() -> Workload:
    chi = kt.ModelParams(delta_v=0.5, kernel=kt.Kernel.CHI)
    jump = kt.ModelParams(delta_v=0.25, kernel=kt.Kernel.DELTA)
    ops = []
    for r in FD_RATIOS:
        dv = chi.delta_v / r
        for rho in FD_RHOS:
            def run(r=r, rho=rho):
                return kt.fundamental_diagram(chi, LAW, r, [rho]).samples[0]

            def check(s, rho=rho, dv=dv):
                if not s.converged:
                    raise NoResult("not converged")
                if not 0.0 <= s.mean_speed <= chi.v_max:
                    return f"mean speed {s.mean_speed!r} outside [0, v_max]"
                free = chi.v_max - dv / 4
                if rho <= 0.3 and abs(s.mean_speed - free) > 1e-9:
                    return f"free-branch speed {s.mean_speed!r}, expected {free!r}"
                return None

            ops.append(Op(
                key=f"chi r={r:02d} rho={rho:.2f}", run=run, check=check,
                digest=lambda s: f"{g17(s.flux)} {g17(s.mean_speed)} {int(s.converged)}",
                hard_case=FD_HARD.get((r, round(rho, 2))),
            ))

    def finish(outputs: dict) -> tuple[list[str], str]:
        problems, lines, sups = [], [], {}
        for r in FD_RATIOS:
            samples = [outputs.get(f"chi r={r:02d} rho={rho:.2f}") for rho in FD_RHOS]
            kept = [s for s in samples if s is not None]
            dc = kt.FundamentalDiagram(
                samples=tuple(kept), kernel=chi.kernel, n_jumps=chi.n_jumps,
                ratio=float(r), eta=chi.eta, gamma=LAW.gamma)
            dd = kt.fundamental_diagram(jump, LAW, r, FD_RHOS)
            if not dd.all_converged:
                problems.append(f"jump diagram at r={r} not converged")
            shared = {s.rho for s in kept}
            dd = kt.FundamentalDiagram(
                samples=tuple(s for s in dd.samples if s.rho in shared),
                kernel=jump.kernel, n_jumps=jump.n_jumps, ratio=float(r),
                eta=jump.eta, gamma=LAW.gamma)
            sups[r] = kt.compare_diagrams(dd, dc)
            lines.append(f"sup r={r} {g17(sups[r])} over {len(kept)}")
            lines += [f"jump r={r} {g17(s.rho)} {g17(s.flux)}" for s in dd.samples]
            if r == 1:
                report = kt.detect_capacity_drop(dc)
                lines.append(f"transitions {len(report.transitions)}")
                if len(report.transitions) != 2:
                    problems.append(f"{len(report.transitions)} transitions at r=1, expected 2")
        if not sups[20] < sups[1]:
            problems.append(f"sup distance not smaller at r=20: {sups[20]!r} vs {sups[1]!r}")
        return problems, "\n".join(lines)

    return Workload("fd-sweep", ops, finish)


# ----------------------------------------------------------- refined-solve

RS_HARD = {(kt.Kernel.DELTA, 5, 4, 0.5): "SteadyStateTimeout after ~0.15 s (criterion 02)"}


def _solve_op(kernel: "kt.Kernel", n_jumps: int, r, rho: float) -> Op:
    params = kt.ModelParams(delta_v=1.0 / n_jumps, kernel=kernel)
    integer = Fraction(r).denominator == 1

    def run():
        grid, ratio = kt.build_grid(params, r)
        p = kt.evaluate_probability(LAW, rho, params)
        if kernel is kt.Kernel.CHI:
            tensor = kt.build_chi_tensor(grid, ratio, p)
        elif integer:
            tensor = kt.build_delta_tensor_integer(grid, ratio, p)
        else:
            tensor = kt.build_delta_tensor_generic(grid, ratio, p)
        f0 = np.full(grid.n_cells, rho / grid.n_cells)
        state = kt.find_steady_state(
            f0, tensor, params.eta, residual_tol=RESIDUAL_TOL, t_max=T_MAX)
        return tensor, p, state

    def check(out) -> Optional[str]:
        tensor, p, state = out
        drift = abs(state.rho - rho)
        if drift > 1e-8 * rho:
            return f"mass drift {drift:.3e}"
        residual = float(np.abs(kt.collision_rhs(state, tensor, params.eta)).max())
        if residual > RESIDUAL_TOL:
            return f"terminal residual {residual:.3e}"
        if kernel is kt.Kernel.DELTA and integer and rho != 0.5:
            eq = kt.closed_form_equilibrium(rho, p, n_jumps)
            oracle = kt.equilibrium_on_grid(eq, int(r), grid=state.grid).masses
            gap = float(np.abs(state.masses - oracle).max())
            if gap > 1e-6:
                return f"gap to closed form {gap:.3e}"
        return None

    return Op(
        key=f"{kernel.value} T={n_jumps} r={r} rho={rho}", run=run, check=check,
        digest=lambda out: " ".join(g17(m) for m in out[2].masses),
        hard_case=RS_HARD.get((kernel, n_jumps, r, rho)),
    )


def _refined_solve() -> Workload:
    rhos = (0.3, 0.45, 0.6, 0.8)
    ops = [_solve_op(kt.Kernel.CHI, 4, 100, rho) for rho in rhos]
    ops += [_solve_op(kt.Kernel.DELTA, 4, 100, rho) for rho in rhos]
    ops.append(_solve_op(kt.Kernel.DELTA, 3, Fraction(400, 3), 0.6))
    ops.append(_solve_op(kt.Kernel.DELTA, 5, 4, 0.5))
    return Workload("refined-solve", ops)


# ---------------------------------------------------------------- cli-runs

CONFIGS = {
    "simulate-chi.yaml": "kernel: chi\nrho: 0.6\nT: 10\nr: 100\nintegrator:\n  t_end: 50\n",
    "simulate-delta.yaml": "kernel: delta\nrho: 0.6\nT: 3\nr: 1000/3\nintegrator:\n  t_end: 50\n",
    # Same values as configs/equilibrium_refined.yaml, kept here so that an
    # edit to the example config does not change the benchmark.
    "equilibrium-refined.yaml": (
        "kernel: delta\neta: 1.0\nv_max: 1.0\nrho_max: 1.0\ngamma: 1.0\nrho: 0.6\n"
        "T: 3\nr: 8\ninitial_condition:\n  kind: uniform\n"
        "integrator:\n  residual_tol: 1.0e-10\n  t_max: 1.0e7\n"
    ),
}


def _ragged_rows(path: Path) -> Optional[str]:
    """None when every row of the CSV has the header's width."""
    lines = path.read_text().splitlines()
    width = lines[0].count(",")
    bad = sum(1 for line in lines if line.count(",") != width)
    return f"{bad} rows of {path.name} differ in width" if bad else None


def _cli_op(name: str, argv: list[str], out: Path, tracer: Tracer,
            expected_rows: Callable[[dict], int],
            manifest_check: Callable[[dict], Optional[str]] = lambda m: None) -> Op:
    command = argv[0]
    argv = argv + ["--out", str(out), "--prefix", "run"]

    def run() -> int:
        idx = tracer.open(f"cli.{command}")
        try:
            rc = cli.main(argv)
        finally:
            tracer.close(idx)
        if idx is not None:
            tracer.add("cli.bytes_written", sum(p.stat().st_size for p in out.glob("*")))
        return rc

    def csvs() -> list[Path]:
        return sorted(out.glob("*.csv"))

    def check(rc: int) -> Optional[str]:
        if rc != 0:
            return f"exit code {rc}"
        manifest = json.loads((out / "run_manifest.json").read_text())
        (csv,) = csvs()
        rows = len(csv.read_text().splitlines())
        want = expected_rows(manifest)
        if rows != want:
            return f"{csv.name} has {rows} rows, expected {want}"
        return _ragged_rows(csv) or manifest_check(manifest)

    def digest(_rc) -> str:
        return " ".join(f"{p.name}:{hashlib.sha256(p.read_bytes()).hexdigest()}" for p in csvs())

    return Op(key=name, run=run, check=check, digest=digest,
              before=lambda: shutil.rmtree(out, ignore_errors=True))


def _cli_runs(out_dir: Path, tracer: Tracer) -> Workload:
    cfg = out_dir / "configs"
    cfg.mkdir(parents=True, exist_ok=True)
    for name, text in CONFIGS.items():
        (cfg / name).write_text(text)

    def stored_states(m: dict) -> int:
        return 1 + m["stored_states"]

    def oracle_gap(m: dict) -> Optional[str]:
        gap = m["max_oracle_difference"]
        return None if gap <= 1e-6 else f"max_oracle_difference {gap!r}"

    def failed_rows(m: dict) -> Optional[str]:
        return None if m["failed_rows"] == 0 else f"failed_rows {m['failed_rows']}"

    ops = [
        _cli_op("simulate-chi", ["simulate", "--config", str(cfg / "simulate-chi.yaml")],
                out_dir / "simulate-chi", tracer, stored_states),
        _cli_op("simulate-delta", ["simulate", "--config", str(cfg / "simulate-delta.yaml")],
                out_dir / "simulate-delta", tracer, stored_states),
        # header + 25 cells (T=3, r=8)
        _cli_op("equilibrium", ["equilibrium", "--config", str(cfg / "equilibrium-refined.yaml")],
                out_dir / "equilibrium", tracer, lambda m: 26, oracle_gap),
        # header + 3 ratios x (50 densities + 2 inserted around rho_c = 0.5)
        _cli_op("diagram", ["diagram", "--kernel", "delta", "--rho-count", "50",
                            "--ratios", "1,20,inf", "--T", "4"],
                out_dir / "diagram", tracer, lambda m: 157),
        # header + 6 densities x 2 ratios
        _cli_op("convergence", ["convergence", "--rho-set", "0.2,0.3,0.4,0.6,0.7,0.8",
                                "--ratios", "1,2", "--T", "5"],
                out_dir / "convergence", tracer, lambda m: 13, failed_rows),
    ]
    return Workload("cli-runs", ops)


def build(name: str, seed: int, out_dir: Path, tracer: Tracer) -> Workload:
    """Inputs of one workload; the seed fixes the order of its operations."""
    shutil.rmtree(out_dir, ignore_errors=True)
    out_dir.mkdir(parents=True)
    if name == "fd-sweep":
        workload = _fd_sweep()
    elif name == "refined-solve":
        workload = _refined_solve()
    elif name == "cli-runs":
        workload = _cli_runs(out_dir, tracer)
    else:
        raise ValueError(f"unknown workload {name!r}")
    random.Random(seed).shuffle(workload.ops)
    return workload


def digest_of(texts: dict[str, str], tail: str) -> str:
    body = "\n".join(f"{k}: {texts[k]}" for k in sorted(texts)) + "\n" + tail
    return hashlib.sha256(body.encode()).hexdigest()

