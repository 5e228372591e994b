"""Acceptance gate: ten numbered criteria, one verdict line apiece.

Each test prints "[criterion NN] PASS/FAIL - detail" before asserting, so
the verdict survives in the captured output and the run summary either
way.  Tolerances are pinned; a FAIL below means the stated bound was
genuinely not met, not that the check is missing.  Steady-state sweeps
shared between criteria are computed once in module-scoped fixtures.
"""
import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional

import numpy as np
import pytest

from _oracles import dense_tensor
from conftest import ACCEPTANCE_LINES
from kinetic_traffic import (
    CellMassVector,
    GridRatio,
    IntegratorControls,
    Kernel,
    ModelParams,
    PowerLaw,
    SteadyStateTimeout,
    VelocityGrid,
    build_chi_tensor,
    build_delta_tensor_generic,
    build_delta_tensor_integer,
    build_tensor,
    closed_form_equilibrium,
    collision_rhs,
    compare_diagrams,
    cumulative_distribution,
    detect_capacity_drop,
    distance_to_equilibrium,
    equilibrium_on_grid,
    find_steady_state,
    fit_convergence_rate,
    fundamental_diagram,
    initial_acceleration,
    integrate,
    moments,
    select_fit_window,
    staircase_distance,
    unstable_equilibrium,
    verify_quantized_support,
    verify_stochasticity,
)

RESIDUAL_TOL = 1e-10
T_CEILING = 1e7  # keeps each steady-state run inside the stated runtime


def record(num: int, ok: bool, detail: str) -> None:
    line = f"[criterion {num:02d}] {'PASS' if ok else 'FAIL'} - {detail}"
    ACCEPTANCE_LINES.append(line)
    print(line)
    assert ok, line


@dataclass
class SteadyRun:
    rho: float
    n_jumps: int
    ratio: Fraction
    grid: VelocityGrid
    masses: Optional[np.ndarray]  # None when the solver timed out
    residual: float
    extras: dict = field(default_factory=dict)


def run_uniform(rho, n_jumps, ratio, builder=None, p=None) -> SteadyRun:
    ratio = Fraction(ratio)
    n = int(ratio * n_jumps) + 1
    grid = VelocityGrid(n_cells=n, v_max=1.0)
    p = (1.0 - rho) if p is None else p
    if builder is None:
        tensor = build_tensor(Kernel.DELTA, grid, GridRatio(ratio), p)
    else:
        tensor = builder(grid, GridRatio(ratio), p)
    f0 = np.full(n, rho / n)
    try:
        state = find_steady_state(
            f0, tensor, 1.0, residual_tol=RESIDUAL_TOL, t_max=T_CEILING
        )
        return SteadyRun(rho, n_jumps, ratio, grid, state.masses,
                         float(np.abs(collision_rhs(state, tensor, 1.0)).max()))
    except SteadyStateTimeout as exc:
        return SteadyRun(rho, n_jumps, ratio, grid, None, float(exc.residual),
                         {"timeout_state": exc.state.masses})


@pytest.fixture(scope="module")
def oracle_sweep():
    runs = []
    for rho in [round(0.1 * k, 10) for k in range(1, 10)]:
        for n_jumps in (3, 5):
            for r in (1, 2, 4):
                run = run_uniform(rho, n_jumps, r)
                eq = closed_form_equilibrium(rho, 1.0 - rho, n_jumps)
                run.extras["oracle"] = equilibrium_on_grid(
                    eq, r, grid=run.grid
                ).masses
                runs.append(run)
    return runs


@pytest.fixture(scope="module")
def support_sweep():
    runs = []
    for rho in (0.3, 0.6):
        for n_jumps in (3, 5):
            for r in (1, 4, 8):
                runs.append(run_uniform(rho, n_jumps, r))
    return runs


@pytest.fixture(scope="module")
def cdf_sweep():
    runs = []
    rho = 0.6
    for n_jumps in (3, 5):
        eq = closed_form_equilibrium(rho, 1.0 - rho, n_jumps)
        for n in (15, 30, 60):
            ratio = Fraction(n - 1, n_jumps)
            assert ratio.denominator != 1
            run = run_uniform(rho, n_jumps, ratio)
            assert run.masses is not None
            cdf = cumulative_distribution(run_vector(run))
            run.extras["distance"] = staircase_distance(
                cdf, eq.speeds(1.0), eq.masses
            )
            run.extras["support"] = verify_quantized_support(
                run_vector(run), 1.0 / n_jumps,
                tol_mass=1e-8 * rho, tol_loc=2 * run.grid.dv,
            )
            runs.append(run)
    return runs


def run_vector(run: SteadyRun) -> CellMassVector:
    return CellMassVector(run.masses, run.grid)


def test_criterion_01_stochasticity():
    cases = []
    for t in (1, 3, 5):
        for r in (1, 2, 4, 20):
            cases.append((t, Fraction(r), build_delta_tensor_integer))
            cases.append((t, Fraction(r), build_chi_tensor))
    # non-integer ratios need a jump count that keeps the cell count whole
    cases += [
        (3, Fraction(14, 3), build_delta_tensor_generic),
        (2, Fraction(7, 2), build_delta_tensor_generic),
        (4, Fraction(7, 2), build_delta_tensor_generic),
    ]
    worst_band = worst_dense = 0.0
    all_passed = True
    n_tensors = 0
    for t, ratio, builder in cases:
        n = int(ratio * t) + 1
        grid = VelocityGrid(n_cells=n, v_max=1.0)
        for p in (0.3, 0.85):
            tensor = builder(grid, GridRatio(ratio), p)
            report = verify_stochasticity(tensor)
            all_passed &= report.passed
            worst_band = max(worst_band, report.max_deviation)
            sums = dense_tensor(tensor).sum(axis=0)
            worst_dense = max(worst_dense, float(np.abs(sums - 1.0).max()))
            n_tensors += 1
    record(
        1, all_passed and worst_dense <= 1e-12,
        f"max column-sum deviation {worst_dense:.3e} over {n_tensors} tensors (tol 1e-12); "
        f"band column sums within {worst_band:.3e} of P",
    )


def test_criterion_02_oracle_equivalence(oracle_sweep):
    hand = next(
        r for r in oracle_sweep
        if r.rho == 0.6 and r.n_jumps == 3 and r.ratio == 1
    )
    hand_ok = hand.masses is not None and np.abs(
        hand.masses - (0.2, 0.2, 0.112311, 0.087689)
    ).max() <= 1e-6

    failures = []
    worst_gap = 0.0
    for run in oracle_sweep:
        if run.masses is None:
            failures.append((run.rho, run.n_jumps, int(run.ratio), "timeout"))
            continue
        gap = float(np.abs(run.masses - run.extras["oracle"]).max())
        if gap > 1e-6:
            failures.append((run.rho, run.n_jumps, int(run.ratio), f"gap {gap:.1e}"))
        else:
            worst_gap = max(worst_gap, gap)
    n = len(oracle_sweep)
    detail = (
        f"{n - len(failures)}/{n} states within 1e-6 of the closed form "
        f"(worst converged gap {worst_gap:.2e}); hand case ok={hand_ok}"
    )
    if failures:
        where = (
            "all at rho=0.5, where the two equilibrium branches collide and "
            "convergence degrades from exponential to a power law"
            if all(f[0] == 0.5 for f in failures)
            else "at mixed densities"
        )
        detail += f"; {len(failures)} failures ({where}): {failures}"
    record(2, hand_ok and not failures, detail)


def test_criterion_03_quantized_support(support_sweep):
    stray_ok, agree_ok = True, True
    worst_stray, worst_agree = 0.0, 0.0
    for rho in (0.3, 0.6):
        for n_jumps in (3, 5):
            ladder = {}
            for run in support_sweep:
                if run.rho != rho or run.n_jumps != n_jumps:
                    continue
                assert run.masses is not None
                r = int(run.ratio)
                lattice = np.arange(0, run.grid.n_cells, r)
                lattice[-1] = run.grid.n_cells - 1
                stray = float(np.delete(run.masses, lattice).sum())
                worst_stray = max(worst_stray, stray / rho)
                stray_ok &= stray <= 1e-8 * rho
                ladder[r] = run.masses[lattice]
            for r in (4, 8):
                spread = float(np.abs(ladder[r] - ladder[1]).max())
                worst_agree = max(worst_agree, spread)
                agree_ok &= spread <= 1e-6
    record(
        3, stray_ok and agree_ok,
        f"off-lattice mass <= {worst_stray:.2e}*rho (tol 1e-8); "
        f"cross-refinement spread {worst_agree:.2e} (tol 1e-6)",
    )


def test_criterion_04_cdf_convergence(cdf_sweep):
    ok = True
    chains = []
    for n_jumps in (3, 5):
        dists = [r.extras["distance"] for r in cdf_sweep if r.n_jumps == n_jumps]
        supports = [r.extras["support"] for r in cdf_sweep if r.n_jumps == n_jumps]
        ok &= dists[0] > dists[1] > dists[2]
        ok &= all(rep.passed for rep in supports)
        chains.append("dv=1/%d: %s" % (n_jumps, " > ".join(f"{d:.6f}" for d in dists)))
    frozen = {
        3: (0.043859649122807, 0.027046763472163, 0.015952197965881),
        5: (0.036842105263158, 0.022206056226279, 0.012760620796578),
    }
    for n_jumps, want in frozen.items():
        got = [r.extras["distance"] for r in cdf_sweep if r.n_jumps == n_jumps]
        ok &= np.abs(np.asarray(got) - want).max() <= 1e-9
    record(4, ok, "staircase distance falls with N; " + "; ".join(chains))


def test_criterion_05_conservation(oracle_sweep, support_sweep, cdf_sweep):
    drift_ok, neg_ok = True, True
    worst_drift, worst_neg = 0.0, 0.0
    for run in oracle_sweep + support_sweep + cdf_sweep:
        masses = run.masses if run.masses is not None else run.extras["timeout_state"]
        drift = abs(float(masses.sum()) - run.rho)
        worst_drift = max(worst_drift, drift)
        worst_neg = min(worst_neg, float(masses.min()))
        drift_ok &= drift <= 1e-10
        neg_ok &= masses.min() >= -1e-12
    # re-run a spread of cases with full stored trajectories
    for rho, n_jumps, ratio in [
        (0.3, 3, Fraction(1)),
        (0.8, 5, Fraction(4)),
        (0.6, 5, Fraction(8)),
        (0.6, 3, Fraction(29, 3)),
    ]:
        n = int(ratio * n_jumps) + 1
        grid = VelocityGrid(n_cells=n, v_max=1.0)
        builder = (
            build_delta_tensor_integer
            if ratio.denominator == 1
            else build_delta_tensor_generic
        )
        tensor = builder(grid, GridRatio(ratio), 1.0 - rho)
        traj = integrate(np.full(n, rho / n), tensor, 1.0, 200.0)
        drift = float(np.abs(traj.states.sum(axis=1) - rho).max())
        worst_drift = max(worst_drift, drift)
        worst_neg = min(worst_neg, float(traj.states.min()))
        drift_ok &= drift <= 1e-10 and traj.mass_drift <= 1e-10
        neg_ok &= traj.states.min() >= -1e-12
    record(
        5, drift_ok and neg_ok,
        f"mass drift <= {worst_drift:.2e} (tol 1e-10), "
        f"min component {worst_neg:.2e} (floor -1e-12) "
        f"across {len(oracle_sweep) + len(support_sweep) + len(cdf_sweep)} "
        "terminal states and 4 stored trajectories",
    )


def test_criterion_06_initial_acceleration():
    rho, eta, p = 0.15, 10.0, 0.85
    slope_ok = True
    slope_bits, band_bits = [], []
    band_sups = []
    for n_jumps in (3, 5):
        r_jump = 8
        n = r_jump * n_jumps + 1
        grid = VelocityGrid(n_cells=n, v_max=1.0)
        dv_jump = 1.0 / n_jumps
        tensor_d = build_delta_tensor_integer(grid, GridRatio(Fraction(r_jump)), p)
        tensor_c = build_chi_tensor(grid, GridRatio(Fraction(2 * r_jump)), p)
        f0 = np.zeros(n)
        f0[0] = rho
        for tag, tensor, expect in (
            ("jump", tensor_d,
             initial_acceleration(Kernel.DELTA, rho, p, eta, dv_jump)),
            ("spread", tensor_c,
             initial_acceleration(Kernel.CHI, rho, p, eta, 2 * dv_jump)),
        ):
            h = 1e-5 / (eta * rho)
            traj = integrate(f0, tensor, eta, h, IntegratorControls(step=h))
            u0 = moments(traj.state(0)).mean_speed
            u1 = moments(traj.state(-1)).mean_speed
            rel = abs((u1 - u0) / h - expect) / expect
            slope_ok &= rel <= 0.05
            slope_bits.append(f"T={n_jumps} {tag} {rel * 100:.2f}%")
        samples = np.linspace(0.0, 5.0, 201)[1:]
        traj_d = integrate(f0, tensor_d, eta, 5.0,
                           IntegratorControls(sample_times=samples))
        traj_c = integrate(f0, tensor_c, eta, 5.0,
                           IntegratorControls(sample_times=samples))
        aligned = np.allclose(traj_d.times, traj_c.times)
        ud = traj_d.states @ grid.centers / rho
        uc = traj_c.states @ grid.centers / rho
        sup = float(np.abs(ud - uc).max()) if aligned else math.inf
        band_sups.append(sup)
        band_bits.append(f"T={n_jumps} sup {sup:.4f}")
    band_ok = all(s <= 0.02 for s in band_sups)
    record(
        6, slope_ok and band_ok,
        "du/dt at t=0 vs formula: " + ", ".join(slope_bits) + " (tol 5%); "
        "u-curve gap through the transient: " + ", ".join(band_bits)
        + " (tol 0.02); the gap comes from speed-cap saturation: near the "
        "top the spread kernel gains half a step where the jump kernel "
        "still gains a full one",
    )


def test_criterion_07_rate_structure():
    n_jumps = 5
    rates = {}
    for rho in (0.2, 0.8):
        for r in (1, 2):
            n = r * n_jumps + 1
            grid = VelocityGrid(n_cells=n, v_max=1.0)
            tensor = build_delta_tensor_integer(
                grid, GridRatio(Fraction(r)), 1.0 - rho
            )
            traj = integrate(np.full(n, rho / n), tensor, 1.0, 200.0)
            ref = equilibrium_on_grid(
                closed_form_equilibrium(rho, 1.0 - rho, n_jumps), r, grid=grid
            )
            series = distance_to_equilibrium(traj, ref)
            rates[(rho, r)] = fit_convergence_rate(series, select_fit_window(series))
    within = {
        rho: abs(rates[(rho, 1)] - rates[(rho, 2)]) / rates[(rho, 1)]
        for rho in (0.2, 0.8)
    }
    across = abs(rates[(0.2, 1)] - rates[(0.8, 1)]) / rates[(0.8, 1)]
    ok = all(v <= 0.05 for v in within.values()) and across > 0.05
    record(
        7, ok,
        f"refinement moves M by {within[0.2] * 100:.2f}% (rho=0.2) and "
        f"{within[0.8] * 100:.2f}% (rho=0.8), both <= 5%; density moves M by "
        f"{across * 100:.0f}% (> 5%); "
        f"M={rates[(0.2, 1)]:.4f} at rho=0.2 vs {rates[(0.8, 1)]:.4f} at rho=0.8",
    )


def test_criterion_08_fundamental_diagram():
    params = ModelParams(delta_v=0.25)
    law = PowerLaw(1.0)
    free_ok = jam_ok = True
    worst_free = 0.0
    for r in (1, 4, 20):
        d = fundamental_diagram(
            params, law, r, [0.05, 0.1, 0.2, 0.3, 0.4, 0.45, 0.49]
        )
        slope = 1.0 - 0.25 / (4 * r)
        err = max(abs(s.flux - slope * s.rho) for s in d.samples)
        worst_free = max(worst_free, err)
        free_ok &= err <= 1e-10
        jam = fundamental_diagram(params, law, r, [1.0]).samples[0].flux
        jam_ok &= abs(jam - 0.25 / (4 * r)) <= 1e-12

    bracket_ok = True
    bracket_bits = []
    diagrams_gamma1 = None
    for gamma in (1.0, 0.75, 0.25):
        rho_c = 0.5 ** (1.0 / gamma)
        rhos = sorted(
            {0.01 + 0.02 * k for k in range(50)} | {rho_c - 1e-6, rho_c + 1e-6}
        )
        d = fundamental_diagram(params, PowerLaw(gamma), 1, rhos)
        if gamma == 1.0:
            diagrams_gamma1 = d
        rep = detect_capacity_drop(d)
        inside = rep.bracket[0] < rho_c < rep.bracket[1]
        bracket_ok &= inside
        bracket_bits.append(f"gamma={gamma}: ({rep.bracket[0]:.6f}, {rep.bracket[1]:.6f})")

    bound_ok = True
    d_inf = fundamental_diagram(params, law, math.inf, list(diagrams_gamma1.rhos))
    for sf, si in zip(diagrams_gamma1.samples, d_inf.samples):
        # the free branch attains the bound exactly; allow rounding slack
        bound_ok &= abs(sf.flux - si.flux) <= sf.rho * 0.25 / 4 * (1 + 1e-9)
    for r in (4, 20):
        fin = fundamental_diagram(params, law, r, [0.3, 0.6, 0.9])
        inf = fundamental_diagram(params, law, math.inf, [0.3, 0.6, 0.9])
        for sf, si in zip(fin.samples, inf.samples):
            bound_ok &= abs(sf.flux - si.flux) <= sf.rho * 0.25 / (4 * r) * (1 + 1e-9)

    record(
        8, free_ok and jam_ok and bracket_ok and bound_ok,
        f"free slope error {worst_free:.2e} (tol 1e-10); jam flux exact; "
        "transition brackets contain (1/2)^(1/gamma) for "
        + "; ".join(bracket_bits)
        + "; finite-vs-limit flux gap within rho*dv/(4r) at every sample",
    )


def test_criterion_09_kernel_diagram_proximity():
    law = PowerLaw(1.0)
    rhos = [0.01 + 0.02 * k for k in range(50)]
    params_d = ModelParams(delta_v=0.25, kernel=Kernel.DELTA)
    params_c = ModelParams(delta_v=0.5, kernel=Kernel.CHI)
    sups = {}
    chi_r1 = None
    converged = True
    for r in (1, 20):
        dd = fundamental_diagram(params_d, law, r, rhos)
        dc = fundamental_diagram(params_c, law, r, rhos)
        converged &= dd.all_converged and dc.all_converged
        sups[r] = compare_diagrams(dd, dc)
        if r == 1:
            chi_r1 = dc
    rep = detect_capacity_drop(chi_r1)
    two = len(rep.transitions) == 2
    ordered = sups[20] < sups[1]
    record(
        9, ordered and two and converged,
        f"sup diagram distance {sups[1]:.6f} at r=1 vs {sups[20]:.6f} at r=20 "
        f"(strictly smaller: {ordered}); spread kernel at r=1 shows "
        f"{len(rep.transitions)} transitions at "
        + ", ".join(f"({tr.rho_lo:.2f}, {tr.rho_hi:.2f})" for tr in rep.transitions),
    )


def test_criterion_10_unstable_branch():
    rho, n_jumps, r = 0.7, 4, 4
    n = 17
    grid = VelocityGrid(n_cells=n, v_max=1.0)
    tensor = build_delta_tensor_integer(grid, GridRatio(Fraction(r)), 0.3)
    f0 = np.zeros(n)
    f0[3:] = rho / (n - 3)
    f_shift = find_steady_state(f0, tensor, 1.0,
                                residual_tol=RESIDUAL_TOL, t_max=T_CEILING)
    residual = float(np.abs(collision_rhs(f_shift, tensor, 1.0)).max())
    target = unstable_equilibrium(rho, 0.3, n_jumps, r, 3)
    gap_shift = float(np.abs(f_shift.masses - target.masses).max())

    f1 = target.masses.copy()
    f1[0] += 1e-6
    f_stable = find_steady_state(f1, tensor, 1.0,
                                 residual_tol=RESIDUAL_TOL, t_max=T_CEILING)
    rho_pert = rho + 1e-6
    ref = equilibrium_on_grid(
        closed_form_equilibrium(rho_pert, 0.3, n_jumps), r, grid=grid
    ).masses
    gap_stable = float(np.abs(f_stable.masses - ref).max())

    ok = residual <= 1e-10 and gap_shift <= 1e-8 and gap_stable <= 1e-8
    record(
        10, ok,
        f"starved-bottom run lands on the shifted fixed point "
        f"(residual {residual:.1e}, gap {gap_shift:.1e}); a 1e-6 seed in the "
        f"rest cell tips it to the stable branch (gap {gap_stable:.1e})",
    )
