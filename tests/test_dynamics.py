"""Collision dynamics: right-hand side, integration, steady states, fits.

The packaged right-hand side is compared against a dense einsum oracle, the
integrator against conservation laws and known fixed points, and the rate
fitter against synthetic exponentials plus the linearization spectrum.
"""
import logging
import math
import tracemalloc
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from kinetic_traffic import (
    CellMassVector,
    ConfigurationError,
    GridRatio,
    IntegratorControls,
    Kernel,
    ModelParams,
    NumericalError,
    PiecewiseLinearCDF,
    PowerLaw,
    SteadyStateTimeout,
    TimeSeries,
    VelocityGrid,
    build_chi_tensor,
    build_delta_tensor_generic,
    build_delta_tensor_integer,
    build_grid,
    build_tensor,
    closed_form_equilibrium,
    collision_rhs,
    cumulative_distribution,
    distance_to_equilibrium,
    equilibrium_on_grid,
    evaluate_probability,
    find_steady_state,
    fit_convergence_rate,
    integrate,
    select_fit_window,
    staircase_distance,
    unstable_equilibrium,
)
from kinetic_traffic import dynamics
from kinetic_traffic.dynamics import _make_jac

from _oracles import (
    dense_jacobian,
    dense_rhs,
    slowest_decay_rate,
    solve_ivp_steady_state,
    triangle_jacobian,
)

TENSOR_ZOO = [
    (3, Fraction(1), build_delta_tensor_integer),
    (3, Fraction(4), build_delta_tensor_integer),
    (3, Fraction(14, 3), build_delta_tensor_generic),
    (2, Fraction(3), build_chi_tensor),
    (5, Fraction(2), build_chi_tensor),
]


def zoo_tensor(t_jumps, r, builder, p):
    n = int(r * t_jumps) + 1
    grid = VelocityGrid(n_cells=n, v_max=1.0)
    return grid, builder(grid, GridRatio(r), p)


class TestCollisionRhs:
    @pytest.mark.parametrize("t_jumps,r,builder", TENSOR_ZOO)
    @pytest.mark.parametrize("p", [0.0, 0.35, 0.5, 1.0])
    def test_matches_dense_oracle(self, t_jumps, r, builder, p):
        # relative to eta * rho^2, the size of the gain and loss terms
        grid, tensor = zoo_tensor(t_jumps, r, builder, p)
        rng = np.random.default_rng(7)
        for _ in range(5):
            f = rng.uniform(0.0, 0.2, grid.n_cells)
            got = collision_rhs(f, tensor, 2.0)
            want = dense_rhs(f, tensor, 2.0)
            assert np.abs(got - want).max() <= 1e-15 * 2.0 * f.sum() ** 2

    @pytest.mark.parametrize("t_jumps,r,builder", TENSOR_ZOO)
    def test_conserves_mass(self, t_jumps, r, builder):
        grid, tensor = zoo_tensor(t_jumps, r, builder, 0.35)
        rng = np.random.default_rng(11)
        f = rng.uniform(0.0, 0.3, grid.n_cells)
        assert abs(collision_rhs(f, tensor, 1.0).sum()) <= 1e-14 * f.sum() ** 2

    def test_vacuum_is_inert(self):
        grid, tensor = zoo_tensor(3, Fraction(2), build_delta_tensor_integer, 0.4)
        assert not np.any(collision_rhs(np.zeros(grid.n_cells), tensor, 1.0))

    def test_rate_scales_linearly(self):
        grid, tensor = zoo_tensor(3, Fraction(2), build_delta_tensor_integer, 0.4)
        f = np.full(grid.n_cells, 0.1)
        base = collision_rhs(f, tensor, 1.0)
        assert collision_rhs(f, tensor, 3.0) == pytest.approx(3.0 * base, rel=1e-15)

    def test_size_mismatch_rejected(self):
        _, tensor = zoo_tensor(3, Fraction(2), build_delta_tensor_integer, 0.4)
        with pytest.raises(ConfigurationError):
            collision_rhs(np.full(5, 0.1), tensor, 1.0)

    def test_band_product_allocates_no_square_array(self):
        # one dense (N, N) float64 array at N=1001 would take 8 MB
        grid = VelocityGrid(n_cells=1001, v_max=1.0)
        tensor = build_chi_tensor(grid, GridRatio(Fraction(100)), 0.4)
        f = np.full(grid.n_cells, 0.6 / grid.n_cells)
        tracemalloc.start()
        try:
            collision_rhs(f, tensor, 1.0)
            rhs_peak = tracemalloc.get_traced_memory()[1]
            tracemalloc.reset_peak()
            integrate(f, tensor, 1.0, 1.0)
            rk4_peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert rhs_peak < 1_000_000
        assert rk4_peak < 1_000_000


class TestSteadyStateJacobian:
    @pytest.mark.parametrize("t_jumps,r,builder", TENSOR_ZOO)
    @pytest.mark.parametrize("p", [0.0, 0.35, 0.5, 1.0])
    def test_matches_dense_oracle(self, t_jumps, r, builder, p):
        # relative to eta * rho, the size of the entries; and bit for bit
        # the sum of a diagonal, two triangles and two N x N terms
        grid, tensor = zoo_tensor(t_jumps, r, builder, p)
        jac = _make_jac(tensor, 2.0)
        triangles = triangle_jacobian(tensor, 2.0)
        rng = np.random.default_rng(5)
        for _ in range(3):
            f = rng.uniform(0.0, 0.2, grid.n_cells)
            want = dense_jacobian(f, tensor, 2.0)
            assert np.abs(jac(f) - want).max() <= 1e-15 * 2.0 * f.sum()
            assert np.array_equal(jac(f), triangles(f))

    def test_one_call_allocates_under_two_square_arrays(self):
        # the triangle sum peaked at 4.06 N x N float64 arrays here
        grid = VelocityGrid(n_cells=401, v_max=1.0)
        tensor = build_chi_tensor(grid, GridRatio(Fraction(100)), 0.4)
        jac = _make_jac(tensor, 1.0)
        f = np.full(grid.n_cells, 0.6 / grid.n_cells)
        tracemalloc.start()
        try:
            jac(f)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * 8 * grid.n_cells**2


class TestJacobianOracle:
    """The eigenvalue cross-checks below lean on this oracle; validate it."""

    def test_against_finite_differences(self):
        grid, tensor = zoo_tensor(3, Fraction(2), build_delta_tensor_integer, 0.35)
        rng = np.random.default_rng(3)
        f = rng.uniform(0.01, 0.2, grid.n_cells)
        jac = dense_jacobian(f, tensor, 1.5)
        h = 1e-7
        for k in range(grid.n_cells):
            e = np.zeros(grid.n_cells)
            e[k] = h
            col = (dense_rhs(f + e, tensor, 1.5) - dense_rhs(f - e, tensor, 1.5)) / (2 * h)
            assert np.abs(jac[:, k] - col).max() <= 1e-6


class TestIntegrate:
    def test_equilibrium_stays_put(self):
        f = equilibrium_on_grid(closed_form_equilibrium(0.6, 0.4, 3), 2)
        tensor = build_delta_tensor_integer(f.grid, GridRatio(Fraction(2)), 0.4)
        traj = integrate(f.masses, tensor, 1.0, 50.0)
        drift = np.abs(traj.states - f.masses).max()
        assert drift <= 1e-10

    def test_mass_and_positivity_along_trajectory(self):
        grid, tensor = zoo_tensor(3, Fraction(4), build_delta_tensor_integer, 0.4)
        f0 = np.full(grid.n_cells, 0.6 / grid.n_cells)
        traj = integrate(f0, tensor, 1.0, 30.0)
        assert np.abs(traj.states.sum(axis=1) - 0.6).max() <= 1e-10
        assert traj.states.min() >= -1e-12
        assert traj.times[0] == 0.0 and traj.times[-1] == 30.0

    def test_requested_sample_times_are_honored(self):
        grid, tensor = zoo_tensor(3, Fraction(1), build_delta_tensor_integer, 0.4)
        f0 = np.full(grid.n_cells, 0.5 / grid.n_cells)
        samples = np.array([0.5, 1.0, 2.5, 7.0])
        controls = IntegratorControls(step=0.1, sample_times=samples)
        traj = integrate(f0, tensor, 1.0, 10.0, controls)
        assert all(np.isclose(traj.times, s).any() for s in samples)
        assert np.all(np.diff(traj.times) > 0)

    def test_state_accessor_carries_grid(self):
        grid, tensor = zoo_tensor(3, Fraction(1), build_delta_tensor_integer, 0.4)
        f0 = np.full(grid.n_cells, 0.5 / grid.n_cells)
        traj = integrate(f0, tensor, 1.0, 5.0)
        state = traj.state(-1)
        assert state.grid is grid or state.grid.n_cells == grid.n_cells
        assert state.masses == pytest.approx(traj.states[-1])

    def test_vacuum_trajectory_is_constant_zero(self):
        grid, tensor = zoo_tensor(3, Fraction(1), build_delta_tensor_integer, 0.4)
        traj = integrate(np.zeros(grid.n_cells), tensor, 1.0, 10.0)
        assert not np.any(traj.states)
        assert len(traj.times) == 2

    def test_negative_initial_state_rejected(self):
        grid, tensor = zoo_tensor(3, Fraction(2), build_delta_tensor_integer, 0.4)
        f0 = np.full(grid.n_cells, 0.1)
        f0[1] = -0.05
        with pytest.raises(NumericalError):
            integrate(f0, tensor, 1.0, 1.0)

    @settings(max_examples=25, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        p=st.floats(0.0, 1.0),
        eta=st.floats(0.1, 5.0),
    )
    def test_random_states_stay_physical(self, seed, p, eta):
        grid = VelocityGrid(n_cells=7, v_max=1.0)
        tensor = build_delta_tensor_integer(grid, GridRatio(Fraction(2)), p)
        f0 = np.random.default_rng(seed).uniform(0.0, 0.2, 7)
        traj = integrate(f0, tensor, eta, 5.0)
        assert np.abs(traj.states.sum(axis=1) - f0.sum()).max() <= 1e-10
        assert traj.states.min() >= -1e-12


class TestSteadyState:
    @pytest.mark.parametrize("r", [1, 2, 3])
    def test_uniform_start_reaches_the_closed_form(self, r):
        n = 3 * r + 1
        grid = VelocityGrid(n_cells=n, v_max=1.0)
        tensor = build_delta_tensor_integer(grid, GridRatio(Fraction(r)), 0.4)
        f0 = np.full(n, 0.6 / n)
        f_inf = find_steady_state(f0, tensor, 1.0, residual_tol=1e-10, t_max=1e7)
        ref = equilibrium_on_grid(closed_form_equilibrium(0.6, 0.4, 3), r)
        assert np.abs(f_inf.masses - ref.masses).max() <= 1e-12
        assert np.abs(collision_rhs(f_inf, tensor, 1.0)).max() <= 1e-10

    def test_free_flow_sweeps_mass_to_the_top_cell(self):
        grid = VelocityGrid(n_cells=7, v_max=1.0)
        tensor = build_delta_tensor_integer(grid, GridRatio(Fraction(2)), 0.85)
        f0 = np.zeros(7)
        f0[0] = 0.15
        f_inf = find_steady_state(f0, tensor, 1.0, residual_tol=1e-10, t_max=1e7)
        assert f_inf.masses[-1] == pytest.approx(0.15, rel=1e-12)
        u = float(f_inf.masses @ grid.centers) / 0.15
        assert u == pytest.approx(1.0 - grid.dv / 4, rel=1e-12)

    def test_empty_rest_cell_locks_in_the_shifted_ladder(self):
        # nothing ever brakes below the slowest occupied cell
        grid = VelocityGrid(n_cells=7, v_max=1.0)
        tensor = build_delta_tensor_integer(grid, GridRatio(Fraction(2)), 0.3)
        f0 = np.zeros(7)
        f0[1:] = 0.7 / 6
        f_inf = find_steady_state(f0, tensor, 1.0, residual_tol=1e-10, t_max=1e7)
        ref = unstable_equilibrium(0.7, 0.3, 3, 2, 1)
        assert np.abs(f_inf.masses - ref.masses).max() <= 1e-10
        assert f_inf.masses[0] == 0.0

    def test_timeout_reports_progress(self, caplog):
        grid = VelocityGrid(n_cells=7, v_max=1.0)
        tensor = build_delta_tensor_integer(grid, GridRatio(Fraction(2)), 0.4)
        f0 = np.full(7, 0.5 / 7)
        with caplog.at_level(logging.DEBUG, logger="kinetic_traffic.dynamics"):
            with pytest.raises(SteadyStateTimeout) as exc:
                find_steady_state(f0, tensor, 1.0, residual_tol=1e-30, t_max=5.0)
        assert exc.value.residual > 1e-30
        assert exc.value.state.masses.sum() == pytest.approx(0.5, rel=1e-10)
        # the first chunk ends at 10/(eta*rho) = 20, beyond t_max
        assert exc.value.chunks == 1
        assert exc.value.t_reached == 5.0
        assert exc.value.rhs_evals >= exc.value.steps > 0
        logged = caplog.records[-1].getMessage()
        assert logged == (
            f"steady-state solve ended: t_reached=5 chunks=1 steps={exc.value.steps} "
            f"rhs_evals={exc.value.rhs_evals} jac_evals={exc.value.jac_evals}"
        )

    @pytest.mark.parametrize("kernel,n_jumps,r,rho", [
        (Kernel.CHI, 2, 1, 0.3),
        (Kernel.CHI, 2, 20, 0.45),
        (Kernel.DELTA, 4, 100, 0.6),
    ])
    def test_bit_identical_to_the_solve_ivp_reference(self, kernel, n_jumps, r, rho):
        tensor, f0 = _diagram_problem(kernel, n_jumps, r, rho)
        got = find_steady_state(f0, tensor, 1.0, residual_tol=1e-10, t_max=1e7)
        want = solve_ivp_steady_state(f0, tensor, 1.0, residual_tol=1e-10, t_max=1e7)
        assert np.array_equal(got.masses, want.masses)

    def test_near_critical_failure_matches_the_reference(self):
        # criterion 09's spread sample at rho=0.49, r=20 dips below the floor
        tensor, f0 = _diagram_problem(Kernel.CHI, 2, 20, 0.01 + 0.02 * 24)
        with pytest.raises(NumericalError) as want:
            solve_ivp_steady_state(f0, tensor, 1.0, residual_tol=1e-10, t_max=1e7)
        with pytest.raises(NumericalError) as got:
            find_steady_state(f0, tensor, 1.0, residual_tol=1e-10, t_max=1e7)
        assert type(got.value) is NumericalError
        assert str(got.value) == str(want.value)
        assert "-1.737e-09" in str(got.value)

    def test_chunk_end_ulps_short_of_t_max_is_stretched_to_it(self):
        # chunks end at 20 and 100; a last chunk one ulp long would be too
        # short for LSODA to start, so the second chunk runs to t_max
        grid = VelocityGrid(n_cells=7, v_max=1.0)
        tensor = build_delta_tensor_integer(grid, GridRatio(Fraction(2)), 0.4)
        f0 = np.zeros(7)
        f0[0] = 0.5
        t_max = np.nextafter(100.0, 200.0)
        with pytest.raises(SteadyStateTimeout) as exc:
            find_steady_state(f0, tensor, 1.0, residual_tol=1e-30, t_max=t_max)
        assert exc.value.chunks == 2
        assert exc.value.t_reached == t_max

    def test_failed_stepping_raises_without_a_warning(self, monkeypatch):
        def failing_odeint(func, y0, t, **kwargs):
            warnings.warn("stub solver failure", dynamics.ODEintWarning)
            info = {"nst": [3], "nfe": [5], "nje": [1], "message": "Illegal input detected."}
            return np.array([y0, y0]), info

        monkeypatch.setattr(dynamics, "odeint", failing_odeint)
        grid = VelocityGrid(n_cells=7, v_max=1.0)
        tensor = build_delta_tensor_integer(grid, GridRatio(Fraction(2)), 0.4)
        f0 = np.zeros(7)
        f0[0] = 0.5
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(
                NumericalError, match="steady-state stepping failed: Illegal input"
            ) as exc:
                find_steady_state(f0, tensor, 1.0, residual_tol=1e-10, t_max=1e3)
        assert type(exc.value) is NumericalError


def _diagram_problem(kernel, n_jumps, r, rho):
    """Tensor and uniform start of one fundamental-diagram sample."""
    params = ModelParams(delta_v=1.0 / n_jumps, kernel=kernel)
    grid, ratio = build_grid(params, r)
    tensor = build_tensor(kernel, grid, ratio, evaluate_probability(PowerLaw(1.0), rho, params))
    return tensor, np.full(grid.n_cells, rho / grid.n_cells)


BAD_INPUTS = [
    (call, eta, None)
    for call in ("integrate", "find_steady_state")
    for eta in (-1.0, 0.0, math.inf, math.nan)
] + [
    (call, 1.0, mass)
    for call in ("integrate", "find_steady_state", "state")
    for mass in (math.nan, math.inf)
]


class TestBadInputs:
    @pytest.mark.parametrize("call", ["integrate", "find_steady_state"])
    def test_overflow_is_a_numerical_error(self, call):
        # finite masses whose products overflow: the NaN state must not pass
        # the mass-drift guard as if it were a result
        grid = VelocityGrid(n_cells=7, v_max=1.0)
        tensor = build_delta_tensor_integer(grid, GridRatio(Fraction(2)), 0.4)
        f0 = np.full(7, 1e160)
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(NumericalError, match="drift"):
                if call == "integrate":
                    integrate(f0, tensor, 1.0, 1.0, IntegratorControls(step=1.0))
                else:
                    find_steady_state(f0, tensor, 1.0, t_max=10.0)

    @pytest.mark.parametrize("call,eta,bad_mass", BAD_INPUTS)
    def test_rejected_before_any_stepping(self, call, eta, bad_mass):
        grid = VelocityGrid(n_cells=7, v_max=1.0)
        tensor = build_delta_tensor_integer(grid, GridRatio(Fraction(2)), 0.4)
        f0 = np.full(7, 0.5 / 7)
        if bad_mass is not None:
            f0[3] = bad_mass
        with pytest.raises(ConfigurationError):
            if call == "integrate":
                integrate(f0, tensor, eta, 1.0)
            elif call == "find_steady_state":
                find_steady_state(f0, tensor, eta, t_max=10.0)
            else:
                CellMassVector(f0, grid)


    def test_step_budget_is_checked_before_stepping(self, monkeypatch):
        # the default step 0.1/(eta*rho) would be about 1.4e-162 here, so the
        # run asks for about 7e161 steps; it must be refused, not started
        grid = VelocityGrid(n_cells=7, v_max=1.0)
        tensor = build_delta_tensor_integer(grid, GridRatio(Fraction(2)), 0.4)

        def no_stepping(*args):
            def rhs(f):
                raise AssertionError("integrate started stepping")
            return rhs

        monkeypatch.setattr(dynamics, "_make_rhs", no_stepping)
        with pytest.raises(ConfigurationError, match="budget"):
            integrate(np.full(7, 1e160), tensor, 1.0, 1.0)
        with pytest.raises(ConfigurationError, match="budget"):
            integrate(np.full(7, 0.1), tensor, 1.0, 1.0,
                      IntegratorControls(step=1.0 / (dynamics.MAX_STEPS + 1)))


class TestRateFitting:
    def test_exact_exponential_is_recovered(self):
        t = np.linspace(0.0, 10.0, 201)
        series = TimeSeries(times=t, values=3.0 * np.exp(-2.0 * t))
        assert abs(fit_convergence_rate(series) - 2.0) <= 1e-10
        window = select_fit_window(series)
        assert window[0] > 0.0 and window[1] <= 10.0
        result = fit_convergence_rate(series, window, full=True)
        assert result.rate == pytest.approx(2.0, abs=1e-10)
        assert result.residual <= 1e-10

    def test_congested_rate_matches_the_linearization(self):
        rho, p, n_jumps = 0.8, 0.2, 5
        grid = VelocityGrid(n_cells=6, v_max=1.0)
        tensor = build_delta_tensor_integer(grid, GridRatio(Fraction(1)), p)
        f0 = np.full(6, rho / 6)
        traj = integrate(f0, tensor, 1.0, 200.0)
        ref = equilibrium_on_grid(closed_form_equilibrium(rho, p, n_jumps), 1)
        series = distance_to_equilibrium(traj, ref)
        rate = fit_convergence_rate(series, select_fit_window(series))
        # independent routes: spectrum of the dense Jacobian, and the
        # closed-form congested decay eta * rho * (1 - 2p)
        assert rate == pytest.approx(slowest_decay_rate(tensor, 1.0, ref.masses), rel=1e-4)
        assert rate == pytest.approx(rho * (1.0 - 2.0 * p), rel=1e-4)

    def test_free_flow_rate_depends_on_jump_count(self):
        rates = {}
        for n_jumps in (3, 5):
            n = n_jumps + 1
            grid = VelocityGrid(n_cells=n, v_max=1.0)
            tensor = build_delta_tensor_integer(grid, GridRatio(Fraction(1)), 0.8)
            f0 = np.full(n, 0.2 / n)
            traj = integrate(f0, tensor, 1.0, 200.0)
            ref = equilibrium_on_grid(closed_form_equilibrium(0.2, 0.8, n_jumps), 1)
            series = distance_to_equilibrium(traj, ref)
            rates[n_jumps] = fit_convergence_rate(series, select_fit_window(series))
        assert rates[3] == pytest.approx(0.10261920469378773, rel=1e-9)
        assert rates[5] == pytest.approx(0.09024306951306985, rel=1e-9)
        assert abs(rates[3] - rates[5]) / rates[3] > 0.05

    def test_distance_series_vanishes_at_the_fixed_point(self):
        f = equilibrium_on_grid(closed_form_equilibrium(0.6, 0.4, 3), 1)
        tensor = build_delta_tensor_integer(f.grid, GridRatio(Fraction(1)), 0.4)
        traj = integrate(f.masses, tensor, 1.0, 20.0)
        series = distance_to_equilibrium(traj, f)
        assert series.values.max() <= 1e-10
        assert series.times[0] == 0.0


class TestDistributionDistances:
    def make_cdf(self):
        grid = VelocityGrid(n_cells=7, v_max=1.0)
        masses = np.array([0.1, 0.0, 0.2, 0.0, 0.1, 0.0, 0.2])
        from kinetic_traffic import CellMassVector

        return cumulative_distribution(CellMassVector(masses, grid)), masses

    def test_cdf_interpolates_cell_mass(self):
        cdf, masses = self.make_cdf()
        assert cdf(0.0) == 0.0
        assert cdf(1.0) == pytest.approx(masses.sum())
        assert cdf.total == pytest.approx(masses.sum())
        # halfway through the third cell half its mass has accumulated
        mid = 0.5 * (cdf.edges[2] + cdf.edges[3])
        assert cdf(mid) == pytest.approx(0.1 + 0.2 / 2)
        values = cdf(np.linspace(0, 1, 50))
        assert np.all(np.diff(values) >= -1e-15)

    def test_levy_distance_hand_cases(self):
        uniform = PiecewiseLinearCDF(
            edges=np.array([0.0, 1.0]), values=np.array([0.0, 1.0])
        )
        assert staircase_distance(uniform, [0.5], [1.0]) == pytest.approx(0.25, abs=1e-12)
        assert staircase_distance(uniform, [0.0], [1.0]) == pytest.approx(0.5, abs=1e-12)
        assert staircase_distance(uniform, [0.25, 0.75], [0.5, 0.5]) == pytest.approx(
            0.125, abs=1e-12
        )

    def test_levy_distance_of_matching_staircase_is_tiny(self):
        # a very fine piecewise-linear ramp around each jump looks identical
        edges, values = [0.0], [0.0]
        for speed, cum in [(0.3, 0.5), (0.7, 1.0)]:
            edges += [speed, speed + 1e-9]
            values += [values[-1], cum]
        edges.append(1.0)
        values.append(1.0)
        cdf = PiecewiseLinearCDF(edges=np.array(edges), values=np.array(values))
        assert staircase_distance(cdf, [0.3, 0.7], [0.5, 0.5]) <= 1e-8

    def test_levy_distance_needs_jumps(self):
        uniform = PiecewiseLinearCDF(
            edges=np.array([0.0, 1.0]), values=np.array([0.0, 1.0])
        )
        with pytest.raises(ValueError):
            staircase_distance(uniform, [], [])
