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
from hypothesis import example, given, settings, strategies as st

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
    Trajectory,
    VelocityGrid,
    banded_equilibrium,
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
    integrate_many,
    select_fit_window,
    staircase_distance,
)
from kinetic_traffic import dynamics, matrices
from kinetic_traffic.matrices import InteractionTensor

from _oracles import (
    _accel_operator,
    dense_jacobian,
    dense_rhs,
    rk4_reference,
    slowest_decay_rate,
    solve_ivp_steady_state,
    unstable_equilibrium,
)

TENSOR_ZOO = [
    (3, Fraction(1), build_delta_tensor_integer),
    (3, Fraction(4), build_delta_tensor_integer),
    (3, Fraction(14, 3), build_delta_tensor_generic),
    (2, Fraction(3), build_chi_tensor),
    (5, Fraction(2), build_chi_tensor),
]


# Jump grids (T, r), N = T r + 1, whose band rows but the top one take the
# diagonal product; r = 188/3 gives b + 1 = 64, the width floor.
DIAGONAL_GRIDS = [
    (4, Fraction(100)),
    (3, Fraction(400, 3)),
    (3, Fraction(1000, 3)),
    (3, Fraction(188, 3)),
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
        with pytest.raises(ConfigurationError):
            collision_rhs(np.full((2, 5), 0.1), tensor, 1.0)

    def test_stack_with_a_non_finite_row_is_refused(self):
        # one state, and bad eta values, are in TestBadInputs
        grid, tensor = zoo_tensor(3, Fraction(2), build_delta_tensor_integer, 0.4)
        states = np.full((2, grid.n_cells), 0.1)
        states[1, 3] = math.nan
        with pytest.raises(ConfigurationError, match="non-finite"):
            collision_rhs(states, tensor, 1.0)

    @pytest.mark.parametrize("t_jumps,r,builder", TENSOR_ZOO + [
        (t, r, build_delta_tensor_generic) for t, r in DIAGONAL_GRIDS
    ])
    def test_stack_gives_each_row_its_own_rate(self, t_jumps, r, builder):
        # one state takes a plain vecdot, a stack on a wide jump band the
        # diagonal product: the same bits, down to the sign of every zero
        grid, tensor = zoo_tensor(t_jumps, r, builder, 0.35)
        rng = np.random.default_rng(13)
        states = rng.uniform(0.0, 0.2, (6, grid.n_cells))
        states[rng.uniform(size=states.shape) < 0.2] = 0.0
        rows = np.array([collision_rhs(f, tensor, 1.5) for f in states])
        assert same_bits(collision_rhs(states, tensor, 1.5), rows)

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

    def test_jump_band_product_allocates_no_square_array(self):
        # the diagonal path at N=1001: its plan and slices are O(N b) at most
        grid = VelocityGrid(n_cells=1001, v_max=1.0)
        tensor = build_delta_tensor_generic(grid, GridRatio(Fraction(1000, 3)), 0.4)
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


class TestConstructorTensors:
    """A tensor built from a builder's band by the public constructor plans
    its sweep from that band at factor 1, where the builder's tensor shares
    its grid's cached P-free plan at factor P; both agree."""

    @pytest.mark.parametrize("t_jumps,r,builder", TENSOR_ZOO)
    @pytest.mark.parametrize("p", [0.0, 0.3, 1.0])
    def test_builder_and_constructor_agree(self, t_jumps, r, builder, p):
        grid, built = zoo_tensor(t_jumps, r, builder, p)
        made = InteractionTensor(kernel=built.kernel, p=p, grid=grid, band=built.band)
        assert made.band.tobytes() == built.band.tobytes()
        assert made._sweep[1] == 1.0 and built._sweep[1] == p
        rng = np.random.default_rng(17)
        f = rng.uniform(0.0, 0.2, (4, grid.n_cells))
        f[:, :2] = 0.0
        for row in f:
            assert same_bits(collision_rhs(row, made, 2.0), collision_rhs(row, built, 2.0))
        assert same_bits(collision_rhs(f, made, 2.0), collision_rhs(f, built, 2.0))
        for rho in (0.2, 0.45, 0.8):
            for empty in (0, 2):
                gap = banded_equilibrium(made, rho, empty).masses - banded_equilibrium(
                    built, rho, empty).masses
                # the top cell closes the balance as rho less the rest: one
                # ulp of rho, 1.1e-16 at rho = 0.8
                assert np.abs(gap).max() <= max(1e-16, np.spacing(rho))
        y = rng.normal(size=grid.n_cells)
        y -= y.mean()
        for sigma in (10.0, 0.1):
            d_made = dynamics._make_implicit_solve(made, 2.0)(f[0] + 0.05, y, sigma)
            d_built = dynamics._make_implicit_solve(built, 2.0)(f[0] + 0.05, y, sigma)
            assert (d_made is None) == (d_built is None)
            if d_made is not None:
                assert np.abs(d_made - d_built).max() <= 1e-14 * np.abs(d_built).max()


class TestImplicitSolve:
    """The steady-state march's O(N b) solve of (sigma I - J) d = y."""

    @pytest.mark.parametrize("t_jumps,r,builder", TENSOR_ZOO)
    @pytest.mark.parametrize("p", [0.0, 0.35, 0.5, 1.0])
    @pytest.mark.parametrize("sigma", [10.0, 0.1, 1e-4])
    def test_matches_dense_oracle(self, t_jumps, r, builder, p, sigma):
        # right-hand sides that sum to zero, as rates do, on states with
        # and without two empty bottom cells (rates zero there too)
        grid, tensor = zoo_tensor(t_jumps, r, builder, p)
        n = grid.n_cells
        rng = np.random.default_rng(5)
        for empty in (0, 2):
            f = rng.uniform(0.0, 0.2, n)
            f[:empty] = 0.0
            y = rng.normal(size=n)
            y[:empty] = 0.0
            y[empty:] -= y[empty:].mean()
            jac = dense_jacobian(f, tensor, 2.0)
            d = dynamics._make_implicit_solve(tensor, 2.0)(f, y, sigma)
            # J's eigenvalues: J_jj - J_jN below the top (J_jN is its
            # rank-one part there) and the conservation mode 0; the empty
            # cells' modes leave their d at 0 and are not checked
            modes = sigma - (np.diag(jac) - jac[:, -1])[empty:-1]
            if d is None:
                assert modes.min() <= 1e-12
                continue
            assert modes.min() > -1e-12
            matrix = sigma * np.eye(n) - jac
            # the solve damps rounding in 1^T d by sigma + eta (1 - P) S
            # alone, and u 1^T weighs it by about eta S: at most twice for
            # P <= 1/2, eta S / sigma at P = 1
            total = 2.0 * f.sum()
            mass_mode = max(1.0, total / (sigma + (1.0 - p) * total))
            assert np.abs(matrix @ d - y).max() <= 1e-14 * mass_mode * np.abs(y).max()
            assert np.abs(d - np.linalg.solve(matrix, y)).max() <= 1e-9 * np.abs(d).max()
            assert np.array_equal(d[:empty], np.zeros(empty))

    @pytest.mark.parametrize("t_jumps,r,builder", [
        (4, Fraction(20), build_chi_tensor),  # b = 20 < SOLVE_BLOCK
        (4, Fraction(100), build_chi_tensor),  # b = 100, uneven rows at the top
        (3, Fraction(40), build_delta_tensor_integer),
        (3, Fraction(83, 3), build_delta_tensor_generic),
    ])
    @pytest.mark.parametrize("sigma", [10.0, 1e-4])
    def test_blocks_match_dense_oracle(self, t_jumps, r, builder, sigma):
        # grids of several blocks; 40 empty bottom cells span a block edge
        grid, tensor = zoo_tensor(t_jumps, r, builder, 0.35)
        n = grid.n_cells
        assert n > 2 * matrices.SOLVE_BLOCK
        solve = dynamics._make_implicit_solve(tensor, 2.0)
        rng = np.random.default_rng(11)
        for empty in (0, 40):
            f = rng.uniform(0.0, 1.0, n)
            f[:empty] = 0.0
            f *= 0.6 / f.sum()
            y = rng.normal(size=n)
            y[:empty] = 0.0
            y[empty:] -= y[empty:].mean()
            jac = dense_jacobian(f, tensor, 2.0)
            d = solve(f, y, sigma)
            if d is None:
                assert (sigma - (np.diag(jac) - jac[:, -1])[empty:-1]).min() <= 1e-12
                continue
            d = d.copy()
            # the solve's buffer is reused; a fresh solve gives the same bits
            assert np.array_equal(d, dynamics._make_implicit_solve(tensor, 2.0)(f, y, sigma))
            matrix = sigma * np.eye(n) - jac
            total = 2.0 * f.sum()
            mass_mode = max(1.0, total / (sigma + 0.65 * total))
            assert np.abs(matrix @ d - y).max() <= 1e-14 * mass_mode * np.abs(y).max()
            assert np.array_equal(d[:empty], np.zeros(empty))

    def test_empty_bottom_cells_stay_out_of_the_veto(self):
        # sigma - eta T_jj on the two empty cells is 0.2 - 0.7 * 0.4 = -0.08;
        # their rates and braking terms are exact zeros, so their d is 0
        # and the step goes ahead on the occupied cells
        grid = VelocityGrid(n_cells=7, v_max=1.0)
        tensor = build_delta_tensor_integer(grid, GridRatio(Fraction(2)), 0.3)
        f = np.array([0.0, 0.0, 0.14, 0.14, 0.14, 0.14, 0.14])
        rate = collision_rhs(f, tensor, 1.0)
        jac = dense_jacobian(f, tensor, 1.0)
        assert (0.2 - np.diag(jac))[:2] == pytest.approx([-0.08, -0.08])
        d = dynamics._make_implicit_solve(tensor, 1.0)(f, rate, 0.2)
        assert d is not None
        assert np.array_equal(d[:2], np.zeros(2))
        residual = (0.2 * np.eye(7) - jac) @ d - rate
        assert np.abs(residual[2:]).max() <= 1e-14 * np.abs(rate).max()

    def test_one_solve_allocates_under_one_square_array(self):
        grid = VelocityGrid(n_cells=401, v_max=1.0)
        tensor = build_chi_tensor(grid, GridRatio(Fraction(100)), 0.4)
        f = np.full(grid.n_cells, 0.6 / grid.n_cells)
        rate = collision_rhs(f, tensor, 1.0)
        tracemalloc.start()
        try:
            d = dynamics._make_implicit_solve(tensor, 1.0)(f, rate, 10.0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert d is not None
        assert peak < 8 * grid.n_cells**2


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
        f = equilibrium_on_grid(closed_form_equilibrium(0.6, 0.4, 3), 2,
                                VelocityGrid(n_cells=7, v_max=1.0))
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


def same_run(got, want) -> bool:
    """Bit-identical times, states and terminal residual."""
    return (np.array_equal(got.times, want.times)
            and np.array_equal(got.states, want.states)
            and got.terminal_residual == want.terminal_residual)


def density_batch(kernel, t_jumps, r, rhos):
    """Uniform starts and per-density tensors of a convergence sweep grid."""
    params = ModelParams(delta_v=1.0 / t_jumps, kernel=kernel)
    grid, ratio = build_grid(params, r)
    tensors = [
        build_tensor(kernel, grid, ratio, evaluate_probability(PowerLaw(), rho, params))
        for rho in rhos
    ]
    return [np.full(grid.n_cells, rho / grid.n_cells) for rho in rhos], tensors


def overdriven_tensor(grid, weight):
    """A hand-built band whose acceleration weight far exceeds P = 1."""
    band = np.zeros((grid.n_cells, 2))
    band[1:, 0] = weight
    band[-1, 1] = weight
    return InteractionTensor(kernel=Kernel.DELTA, p=1.0, grid=grid, band=band)


class TestIntegrateMany:
    """The batched march against the scalar RK4 loop it replaced, row by row."""

    @pytest.mark.parametrize("r", [1, 2])
    def test_default_convergence_sweep(self, r):
        # the CLI's default sweep: T=5, t_end = 200/eta, six densities
        states, tensors = density_batch(Kernel.DELTA, 5, r, (0.2, 0.3, 0.4, 0.6, 0.7, 0.8))
        trajs = integrate_many(states, tensors, 1.0, 200.0)
        for f0, tensor, traj in zip(states, tensors, trajs):
            assert same_run(traj, rk4_reference(f0, tensor, 1.0, 200.0))

    def test_spread_rows_with_different_step_counts(self):
        rhos = (0.35, 0.8, 0.1, 0.55, 0.8)
        _, tensors = density_batch(Kernel.CHI, 3, 2, rhos)
        rng = np.random.default_rng(5)
        states = [rng.dirichlet(np.ones(7)) * rho for rho in rhos]
        trajs = integrate_many(states, tensors, 1.7, 20.0)
        wants = [rk4_reference(f0, t, 1.7, 20.0) for f0, t in zip(states, tensors)]
        assert len({want.times[1] for want in wants}) == 4
        assert all(same_run(traj, want) for traj, want in zip(trajs, wants))

    @pytest.mark.parametrize("rhos,t_end", [
        # ascending step counts 1, 6, 60, 360, 1080: row 0 stands still
        # for all but the first of the 1080 steps
        ((0.0005, 0.005, 0.05, 0.3, 0.9), 120.0),
    ])
    def test_finished_rows_stand_still(self, rhos, t_end):
        states, tensors = density_batch(Kernel.DELTA, 3, 2, rhos)
        trajs = integrate_many(states, tensors, 1.0, t_end)
        n_steps = [round(t_end / traj.times[1]) for traj in trajs]
        assert n_steps[0] == 1 and n_steps[-1] >= 1000 and n_steps == sorted(n_steps)
        for f0, tensor, traj in zip(states, tensors, trajs):
            want = rk4_reference(f0, tensor, 1.0, t_end)
            assert np.array_equal(traj.times, want.times)
            assert np.array_equal(traj.states, want.states)
            assert traj.terminal_residual == want.terminal_residual

    @pytest.mark.parametrize("t_end,controls", [
        (10.0, IntegratorControls(step=0.07)),
        (10.0, IntegratorControls(step=0.1, sample_times=[0.5, 1.0, 2.5, 7.0])),
        (10.0, IntegratorControls(sample_times=[0.0, 0.33, 3.0, 9.99, 10.0])),
        (10.0, IntegratorControls(store_factor=1.05)),
        # steps shorter than the 1e-12 storing slack
        (5e-11, IntegratorControls(step=3e-13)),
        (5e-11, IntegratorControls(step=3e-13, sample_times=[1e-11, 2.5e-11])),
    ])
    def test_explicit_controls(self, t_end, controls):
        states, tensors = density_batch(Kernel.DELTA, 3, Fraction(14, 3), (0.25, 0.6, 0.9))
        trajs = integrate_many(states, tensors, 1.0, t_end, controls)
        for f0, tensor, traj in zip(states, tensors, trajs):
            assert same_run(traj, rk4_reference(f0, tensor, 1.0, t_end, controls))

    def test_one_row_at_n_1001(self):
        # the N=1001 spread-kernel simulate run, over a short horizon
        (f0,), (tensor,) = density_batch(Kernel.CHI, 10, 100, (0.6,))
        traj = integrate(f0, tensor, 1.0, 2.0)
        assert same_run(traj, rk4_reference(f0, tensor, 1.0, 2.0))
        assert len(traj.times) > 3

    def test_huge_row_is_refused_before_any_step(self, monkeypatch):
        grid = VelocityGrid(n_cells=7, v_max=1.0)
        tensor = build_delta_tensor_integer(grid, GridRatio(Fraction(2)), 0.4)

        def no_stepping(*args):
            raise AssertionError("integrate_many started stepping")

        monkeypatch.setattr(dynamics, "_make_batch_rhs", no_stepping)
        states = [np.full(7, 0.1), np.full(7, 0.05), np.full(7, 1e160)]
        with pytest.raises(ConfigurationError, match=r"^row 2 \(rho=7e\+160\): .*budget"):
            integrate_many(states, [tensor] * 3, 1.0, 1.0)

    def test_negative_component_names_its_row(self):
        # row 0 takes 10 steps of 0.5 and row 1 takes 40 of 0.125; the rows
        # march together, and row 0's third step (t=1.5) is the first to
        # leave a negative mass, so the error names row 0 and its own clock
        grid = VelocityGrid(n_cells=4, v_max=1.0)
        bad = overdriven_tensor(grid, 5.0)
        good = build_delta_tensor_integer(grid, GridRatio(Fraction(1)), 0.4)
        states = [np.full(4, 0.05), np.full(4, 0.2)]
        with pytest.raises(NumericalError, match=r"^row 0 \(rho=0\.2\): step 3 \(t=1\.5\): "
                                                 r"component -4\.939e-01 below"):
            integrate_many(states, [bad, good], 1.0, 5.0)

    def test_drift_names_its_row(self):
        grid = VelocityGrid(n_cells=7, v_max=1.0)
        tensor = build_delta_tensor_integer(grid, GridRatio(Fraction(2)), 0.4)
        states = [np.full(7, 0.1), np.full(7, 1e160)]
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(NumericalError, match=r"^row 1 \(rho=7e\+160\): mass drift"):
                integrate_many(states, [tensor] * 2, 1.0, 1.0, IntegratorControls(step=1.0))

    @pytest.mark.parametrize("kernel,t_jumps,rows,diagonal_rows", [
        # (r, rho) per row: grids A, B, A, with A's rows apart.  Rows of 8
        # or more cells below a pad that is no multiple of 8 catch a row sum
        # over the padded row: numpy's pairwise sum would regroup it.
        (Kernel.DELTA, 3, [(4, 0.3), (3, 0.7), (4, 0.8)], []),
        # two rows on a 189-cell jump band that takes the diagonal product,
        # between rows on a 4-cell band
        (Kernel.DELTA, 3, [(1, 0.2), (Fraction(188, 3), 0.6), (Fraction(188, 3), 0.45),
                           (1, 0.9)], [1, 2]),
        (Kernel.CHI, 2, [(5, 0.35), (1, 0.8), (20, 0.49), (5, 0.1)], []),
    ], ids=["interleaved", "diagonal-beside-narrow", "spread"])
    def test_rows_on_different_grids_march_as_alone(self, kernel, t_jumps, rows, diagonal_rows):
        rng = np.random.default_rng(len(rows))
        states, tensors = [], []
        for r, rho in rows:
            _, (tensor,) = density_batch(kernel, t_jumps, r, (rho,))
            states.append(rng.dirichlet(np.ones(tensor.n_cells)) * rho)
            tensors.append(tensor)
        assert [i for i, t in enumerate(tensors)
                if dynamics._diagonal_plan(t.band[None])[0]] == diagonal_rows
        trajs = integrate_many(states, tensors, 1.0, 20.0)
        wants = [rk4_reference(f0, tensor, 1.0, 20.0) for f0, tensor in zip(states, tensors)]
        # every row takes its own number of steps
        assert len({round(20.0 / want.times[1]) for want in wants}) == len(rows)
        for tensor, traj, want in zip(tensors, trajs, wants):
            assert same_run(traj, want)
            assert traj.states.shape[1] == tensor.n_cells  # no padded cell
            assert traj.grid == tensor.grid

    def test_one_tensor_per_row(self):
        tensor = build_delta_tensor_integer(VelocityGrid(7, 1.0), GridRatio(Fraction(2)), 0.4)
        with pytest.raises(ConfigurationError, match="one per row"):
            integrate_many([np.full(7, 0.1)], [tensor, tensor], 1.0, 1.0)

    @pytest.mark.parametrize("f0,tensor,step", [
        (np.full(7, 1e160), "jump", None),
        (np.full(7, 1e160), "jump", 1.0),
        (np.full(4, 0.05), "overdriven", None),
        (np.array([0.1, -0.05, 0.1, 0.1, 0.1, 0.1, 0.1]), "jump", None),
    ])
    def test_one_row_keeps_the_scalar_messages(self, f0, tensor, step):
        if tensor == "jump":
            tensor = build_delta_tensor_integer(VelocityGrid(7, 1.0), GridRatio(Fraction(2)), 0.4)
        else:
            tensor = overdriven_tensor(VelocityGrid(4, 1.0), 5.0)
        messages = []
        with np.errstate(over="ignore", invalid="ignore"):
            for march in (integrate, rk4_reference):
                with pytest.raises((ConfigurationError, NumericalError)) as info:
                    march(f0, tensor, 1.0, 5.0, IntegratorControls(step=step))
                messages.append((type(info.value), str(info.value)))
        assert messages[0] == messages[1]


def same_bits(got, want) -> bool:
    """Equal arrays of float64, down to the sign of every zero."""
    return got.shape == want.shape and np.array_equal(got.view(np.int64), want.view(np.int64))


class TestDiagonalProduct:
    """The band product's diagonal rows against the vecdot of each row."""

    @pytest.mark.parametrize("t_jumps,r", DIAGONAL_GRIDS)
    @pytest.mark.parametrize("ps", [(0.35,), (0.0, 1.0, 0.35), (1.0, 0.6, 0.0, 0.2)])
    def test_bit_identical_to_vecdot(self, t_jumps, r, ps):
        # one tensor for a stack of three states, or one tensor per state,
        # with different P in one stack
        n = int(r * t_jumps) + 1
        grid = VelocityGrid(n_cells=n, v_max=1.0)
        tensors = [build_delta_tensor_generic(grid, GridRatio(r), p) for p in ps]
        band = np.stack([t.band for t in tensors])
        assert dynamics._diagonal_plan(band)[0] == n - 1
        rows = max(len(ps), 3)
        out = np.empty((rows, n))
        product = dynamics._make_band_product(band, out)
        rng = np.random.default_rng(n)
        for _ in range(10):
            f = rng.uniform(0.0, 0.01, (rows, n))
            f[rng.uniform(size=f.shape) < 0.2] = 0.0
            f[rng.uniform(size=f.shape) < 0.1] = -1e-13  # products of -0
            want = np.stack([
                _accel_operator(tensors[i % len(ps)])(row) for i, row in enumerate(f)
            ])
            product(f)
            assert same_bits(out, want)

    @pytest.mark.parametrize("tensor", [
        # b + 1 = 63, one column short of the floor
        build_delta_tensor_generic(VelocityGrid(n_cells=187, v_max=1.0), GridRatio(62), 0.4),
        build_chi_tensor(VelocityGrid(n_cells=401, v_max=1.0), GridRatio(100), 0.4),
    ], ids=["narrow-jump", "spread"])
    def test_narrow_and_spread_bands_keep_vecdot(self, tensor):
        assert dynamics._diagonal_plan(tensor.band[None]) == (0, [])

    def test_one_row_at_n_1001(self):
        # the N=1001 jump-kernel simulate run, over a short horizon
        (f0,), (tensor,) = density_batch(Kernel.DELTA, 3, Fraction(1000, 3), (0.6,))
        traj = integrate(f0, tensor, 1.0, 2.0)
        assert same_run(traj, rk4_reference(f0, tensor, 1.0, 2.0))
        assert len(traj.times) > 3

    def test_batch_at_n_401(self):
        states, tensors = density_batch(Kernel.DELTA, 3, Fraction(400, 3), (0.3, 0.7))
        trajs = integrate_many(states, tensors, 1.0, 5.0)
        for f0, tensor, traj in zip(states, tensors, trajs):
            assert same_run(traj, rk4_reference(f0, tensor, 1.0, 5.0))

    @pytest.mark.parametrize("empty", [3, 50])
    def test_empty_bottom_cells_stay_empty(self, empty):
        # the zero prefix on the diagonal path: cells below the lowest
        # occupied one never fill, and the march ends on the shifted chain
        _, (tensor,) = density_batch(Kernel.DELTA, 3, Fraction(400, 3), (0.75,))
        n = tensor.n_cells
        f0 = np.r_[np.zeros(empty), np.full(n - empty, 0.75 / (n - empty))]
        end = integrate(f0, tensor, 1.0, 200.0).states[-1]
        assert np.array_equal(end[:empty], np.zeros(empty))
        chain = banded_equilibrium(tensor, 0.75, empty=empty).masses
        assert np.abs(end - chain).max() <= 1e-12


class TestSteadyState:
    @pytest.mark.parametrize("r", [1, 2, 3])
    def test_uniform_start_reaches_the_closed_form(self, r):
        n = 3 * r + 1
        grid = VelocityGrid(n_cells=n, v_max=1.0)
        tensor = build_delta_tensor_integer(grid, GridRatio(Fraction(r)), 0.4)
        f0 = np.full(n, 0.6 / n)
        f_inf = find_steady_state(f0, tensor, 1.0, residual_tol=1e-10, t_max=1e7)
        ref = equilibrium_on_grid(closed_form_equilibrium(0.6, 0.4, 3), r, grid)
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

    @pytest.mark.parametrize("kernel,n_jumps,r", [
        (Kernel.CHI, 3, 4), (Kernel.DELTA, 3, 4), (Kernel.CHI, 2, 6),
    ])
    @pytest.mark.parametrize("empty", [0, 1, 2, 3])
    def test_random_starts_end_on_the_chain_above_their_empty_cells(
        self, kernel, n_jumps, r, empty
    ):
        params = ModelParams(delta_v=1.0 / n_jumps, kernel=kernel)
        grid, ratio = build_grid(params, r)
        rng = np.random.default_rng(100 * r + 10 * n_jumps + empty)
        for rho in (0.6, 0.75, 0.9):
            tensor = build_tensor(kernel, grid, ratio, evaluate_probability(PowerLaw(), rho, params))
            f0 = np.zeros(grid.n_cells)
            f0[empty:] = rng.uniform(0.0, 1.0, grid.n_cells - empty)
            f0 *= rho / f0.sum()
            got = find_steady_state(f0, tensor, 1.0, residual_tol=1e-10, t_max=1e7).masses
            assert np.array_equal(got[:empty], np.zeros(empty))
            assert np.abs(got - banded_equilibrium(tensor, rho, empty).masses).max() <= 1e-12

    def test_timeout_state_keeps_the_empty_cells(self):
        grid = VelocityGrid(n_cells=7, v_max=1.0)
        tensor = build_delta_tensor_integer(grid, GridRatio(Fraction(2)), 0.4)
        f0 = np.zeros(7)
        f0[2:] = 0.1
        with pytest.raises(SteadyStateTimeout) as exc:
            find_steady_state(f0, tensor, 1.0, residual_tol=1e-30, t_max=5.0)
        assert exc.value.state.grid == grid
        assert np.array_equal(exc.value.state.masses[:2], np.zeros(2))
        assert exc.value.state.masses.sum() == pytest.approx(0.5, rel=1e-10)

    def test_timeout_reports_progress(self, caplog):
        grid = VelocityGrid(n_cells=7, v_max=1.0)
        tensor = build_delta_tensor_integer(grid, GridRatio(Fraction(2)), 0.4)
        f0 = np.full(7, 0.5 / 7)
        with caplog.at_level(logging.DEBUG, logger="kinetic_traffic.dynamics"):
            with pytest.raises(SteadyStateTimeout) as exc:
                find_steady_state(f0, tensor, 1.0, residual_tol=1e-30, t_max=5.0)
        timeout = exc.value
        assert timeout.residual > 1e-30
        assert timeout.state.masses.sum() == pytest.approx(0.5, rel=1e-10)
        # the steps add up to t_max exactly, the last one cut to end there
        assert timeout.t_reached == 5.0
        assert timeout.steps > 0
        # one solve per accepted or rejected step, one RHS per accepted step
        # and one for the start
        assert timeout.jac_evals == timeout.steps + timeout.rejected
        assert timeout.rhs_evals == timeout.steps + 1
        assert timeout.polished == 0  # the polish follows a converged march only
        logged = caplog.records[-1].getMessage()
        assert logged == (
            f"steady-state solve ended: t_reached=5 steps={timeout.steps} "
            f"rejected={timeout.rejected} rhs_evals={timeout.rhs_evals} "
            f"jac_evals={timeout.jac_evals} polished=0"
        )

    def test_endless_rejections_end_in_a_numerical_error(self, monkeypatch):
        # with every solve vetoed, dt is quartered until it no longer moves
        # the clock; the march must stop there, not spin, and say how far it got
        vetoes = []
        monkeypatch.setattr(dynamics, "_make_implicit_solve",
                            lambda tensor, eta: lambda f, rate, sigma: vetoes.append(sigma))
        grid = VelocityGrid(n_cells=7, v_max=1.0)
        tensor = build_delta_tensor_integer(grid, GridRatio(Fraction(2)), 0.4)
        with pytest.raises(NumericalError, match="too small to advance") as exc:
            find_steady_state(np.full(7, 0.5 / 7), tensor, 1.0, t_max=10.0)
        assert type(exc.value) is NumericalError
        assert len(vetoes) > 500
        assert str(exc.value).endswith(f"(t_reached=0 steps=0 rejected={len(vetoes)})")

    @pytest.mark.parametrize("kernel,n_jumps,r,rho", [
        (Kernel.CHI, 2, 1, 0.3),
        (Kernel.CHI, 2, 20, 0.45),
        (Kernel.DELTA, 4, 100, 0.6),
    ])
    def test_matches_the_solve_ivp_reference(self, kernel, n_jumps, r, rho):
        tensor, f0 = _diagram_problem(kernel, n_jumps, r, rho)
        got = find_steady_state(f0, tensor, 1.0, residual_tol=1e-10, t_max=1e7)
        want = solve_ivp_steady_state(f0, tensor, 1.0, residual_tol=1e-10, t_max=1e7)
        assert np.abs(got.masses - want.masses).max() <= 1e-12

    @pytest.mark.parametrize("n_jumps,r,rho,budget", [
        (4, 100, 0.3, 60), (4, 100, 0.45, 110), (2, 20, 0.49, 130),
    ])
    def test_draining_cells_do_not_hold_the_step(self, caplog, n_jumps, r, rho, budget):
        # most cells of a spread march drain towards 0; sized against their
        # own mass alone they would hold dt in place, at 138, 298 and 562
        # accepted steps on these three cases
        tensor, f0 = _diagram_problem(Kernel.CHI, n_jumps, r, rho)
        with caplog.at_level(logging.DEBUG, logger="kinetic_traffic.dynamics"):
            got = find_steady_state(f0, tensor, 1.0, residual_tol=1e-10, t_max=1e7).masses
        logged = caplog.records[-1].getMessage().split()
        work = dict(item.split("=") for item in logged if "=" in item)
        assert int(work["rejected"]) == 0
        assert int(work["steps"]) <= budget
        assert np.abs(got - banded_equilibrium(tensor, rho).masses).max() <= 1e-15

    # Densities within 0.03 of 1/2 are left out: there the stable branch
    # and the shifted one above an empty rest cell meet (P = 1/2 for the
    # jump kernel), so a jump march times out (criterion 02) and a spread
    # start whose rest cell holds 1e-12 of the mass meets residual_tol on
    # the shifted branch, 2e-3 to 2e-2 from the chain at rho 0.485-0.5.
    # A spread march also times out within about 3e-5 of a density where a
    # cell's steady mass leaves 0 (rho 0.4666 on T=3, r=4 and T=4, r=4;
    # 0.4782 on T=2, r=6), as it did before the step floor; draws from
    # these ranges land there about once in 3e4.
    # The two examples end near a slow mode, where a Newton step that does
    # not lower the rounding-level residual still moves the state 1.6e-14
    # and 1.8e-14 towards the chain; a polish that stopped there failed.
    @settings(max_examples=40, deadline=None)
    @example(kernel=Kernel.CHI, shape=(3, 4), rho=0.4332141128447915,
             exponents=[-1.5, -0.125, -0.75, -2.0, -3.0, -1.0, -2.5, -5.0, 0.0,
                        -1.0, -1.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0],
             empty=2)
    @example(kernel=Kernel.CHI, shape=(4, 4), rho=0.35570250355308514,
             exponents=[-8.538811438565958, -7.262256182694083, -5.398510818701954e-290,
                        -3.204777369845292, -0.99999, -2.9909203377131632,
                        -8.538811438565958, -8.278017387249545, -10.178857808599652,
                        -2.015447884126784, -10.298700048039318, -1.021462146558157e-242,
                        -5.398510818701954e-290, -7.135682400452124e-68,
                        -5.458688944108804, -1.0711586920193206, -9.88216908671605],
             empty=2)
    @given(
        kernel=st.sampled_from([Kernel.CHI, Kernel.DELTA]),
        shape=st.sampled_from([(3, 4), (2, 6), (4, 4)]),
        rho=st.floats(0.3, 0.47) | st.floats(0.53, 0.9),
        exponents=st.lists(st.floats(-12.0, 0.0), min_size=17, max_size=17),
        empty=st.integers(0, 3),
    )
    def test_random_starts_reach_the_chain(self, kernel, shape, rho, exponents, empty):
        n_jumps, r = shape
        params = ModelParams(delta_v=1.0 / n_jumps, kernel=kernel)
        grid, ratio = build_grid(params, r)
        n = grid.n_cells
        tensor = build_tensor(kernel, grid, ratio, evaluate_probability(PowerLaw(), rho, params))
        f0 = np.zeros(n)
        f0[empty:] = np.power(10.0, exponents[:n - empty])
        f0 *= rho / f0.sum()
        got = find_steady_state(f0, tensor, 1.0, residual_tol=1e-10, t_max=1e7).masses
        assert np.abs(got - banded_equilibrium(tensor, rho, empty=empty).masses).max() <= 1e-14

    def test_near_critical_sample_reaches_the_chain(self):
        # criterion 09's spread sample at rho=0.49, r=20: the LSODA reference
        # dips below the negativity floor, the implicit march does not
        rho = 0.01 + 0.02 * 24
        tensor, f0 = _diagram_problem(Kernel.CHI, 2, 20, rho)
        with pytest.raises(NumericalError, match="-1.737e-09"):
            solve_ivp_steady_state(f0, tensor, 1.0, residual_tol=1e-10, t_max=1e7)
        got = find_steady_state(f0, tensor, 1.0, residual_tol=1e-10, t_max=1e7).masses
        assert got.min() >= 0.0
        assert np.abs(got - banded_equilibrium(tensor, rho).masses).max() <= 1e-10


def _diagram_problem(kernel, n_jumps, r, rho):
    """Tensor and uniform start of one fundamental-diagram sample."""
    params = ModelParams(delta_v=1.0 / n_jumps, kernel=kernel)
    grid, ratio = build_grid(params, r)
    tensor = build_tensor(kernel, grid, ratio, evaluate_probability(PowerLaw(1.0), rho, params))
    return tensor, np.full(grid.n_cells, rho / grid.n_cells)


BAD_INPUTS = [
    (call, eta, None)
    for call in ("integrate", "find_steady_state", "collision_rhs")
    for eta in (-1.0, 0.0, math.inf, math.nan)
] + [
    (call, 1.0, mass)
    for call in ("integrate", "find_steady_state", "collision_rhs", "state")
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
            with pytest.raises(NumericalError, match="drift") as exc:
                if call == "integrate":
                    integrate(f0, tensor, 1.0, 1.0, IntegratorControls(step=1.0))
                else:
                    find_steady_state(f0, tensor, 1.0, t_max=10.0)
        if call == "find_steady_state":
            assert str(exc.value).endswith("(t_reached=0 steps=0 rejected=0)")

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
            elif call == "collision_rhs":
                collision_rhs(f0, tensor, eta)
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

        monkeypatch.setattr(dynamics, "_make_batch_rhs", no_stepping)
        with pytest.raises(ConfigurationError, match="budget"):
            integrate(np.full(7, 1e160), tensor, 1.0, 1.0)
        with pytest.raises(ConfigurationError, match="budget"):
            integrate(np.full(7, 0.1), tensor, 1.0, 1.0,
                      IntegratorControls(step=1.0 / (dynamics.MAX_STEPS + 1)))

    @pytest.mark.parametrize("eta,t_end", [(1.0, 1e308), (1e308, 1.0)])
    def test_step_count_past_the_float_range_is_refused_without_a_warning(self, eta, t_end):
        # t_end / h is past the largest float, or eta * rho is and the
        # default step is 0: the count is inf, and no overflow or
        # division warning comes before the refusal
        grid = VelocityGrid(n_cells=7, v_max=1.0)
        tensor = build_delta_tensor_integer(grid, GridRatio(Fraction(2)), 0.4)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ConfigurationError, match="needs inf steps"):
                integrate(np.full(7, 1.0), tensor, eta, t_end)

    @pytest.mark.parametrize("call,kwargs,message", [
        ("integrate", dict(t_end=math.nan), "t_end must be positive"),
        ("find_steady_state", dict(residual_tol=math.nan), "residual_tol must be positive"),
        ("find_steady_state", dict(t_max=math.nan), "t_max must be positive"),
        ("find_steady_state", dict(t_max=0.0), "t_max must be positive"),
    ])
    def test_nan_or_non_positive_horizons_and_tolerances_are_refused(self, call, kwargs, message):
        grid = VelocityGrid(n_cells=7, v_max=1.0)
        tensor = build_delta_tensor_integer(grid, GridRatio(Fraction(2)), 0.4)
        f0 = np.full(7, 0.5 / 7)
        with pytest.raises(ConfigurationError, match=message):
            if call == "integrate":
                integrate(f0, tensor, 1.0, **kwargs)
            else:
                find_steady_state(f0, tensor, 1.0, **kwargs)

    @pytest.mark.parametrize("step", [math.nan, math.inf, -1.0, 0.0])
    def test_controls_refuse_a_non_finite_or_non_positive_step(self, step):
        with pytest.raises(ConfigurationError, match="step must be positive and finite"):
            IntegratorControls(step=step)

    @pytest.mark.parametrize("factor", [math.nan, math.inf, 1.0])
    def test_controls_refuse_a_non_finite_or_small_store_factor(self, factor):
        with pytest.raises(ConfigurationError, match="store_factor must exceed 1"):
            IntegratorControls(store_factor=factor)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_controls_refuse_non_finite_sample_times(self, bad):
        with pytest.raises(ConfigurationError, match="sample_times must be finite"):
            IntegratorControls(sample_times=[0.5, bad, 1.0])


START_MARCHES = {  # each gives the masses it computed
    "integrate": lambda f0, tensor: integrate(f0, tensor, 1.0, 1.0).states,
    "integrate_many": lambda f0, tensor: integrate_many(
        [np.full(tensor.n_cells, 0.1), f0], [tensor] * 2, 1.0, 1.0)[1].states,
    "find_steady_state": lambda f0, tensor: find_steady_state(f0, tensor, 1.0).masses,
}


class TestStartChecks:
    """Every march checks its start as the CellMassVector constructor does,
    with the constructor's own message; a batch names the row."""

    @pytest.mark.parametrize("march", START_MARCHES)
    @pytest.mark.parametrize("start,error", [
        (np.array([0.1, -0.05, 0.1, 0.1, 0.1, 0.1, 0.1]), NumericalError),
        (np.full(5, 0.1), ConfigurationError),
        (np.array([0.1, 0.1, math.nan, 0.1, 0.1, 0.1, 0.1]), ConfigurationError),
        (np.array([0.1, 0.1, 0.1, math.inf, 0.1, 0.1, 0.1]), ConfigurationError),
        (CellMassVector(np.full(5, 0.1), VelocityGrid(n_cells=5, v_max=1.0)),
         ConfigurationError),
    ], ids=["below-floor", "short", "nan", "inf", "other-grid"])
    def test_start_gets_the_constructor_refusal(self, march, start, error):
        grid = VelocityGrid(n_cells=7, v_max=1.0)
        tensor = build_tensor(Kernel.DELTA, grid, GridRatio(2), 0.4)
        with pytest.raises(error) as want:
            CellMassVector(getattr(start, "masses", start), grid)
        with pytest.raises(error) as got:
            START_MARCHES[march](start, tensor)
        prefix = ""
        if march == "integrate_many":
            prefix = f"row 1 (rho={float(np.sum(getattr(start, 'masses', start))):.6g}): "
        assert str(got.value) == prefix + str(want.value)

    @pytest.mark.parametrize("march", START_MARCHES)
    def test_rounding_negatives_in_a_start_are_set_to_zero(self, march):
        grid = VelocityGrid(n_cells=7, v_max=1.0)
        tensor = build_tensor(Kernel.DELTA, grid, GridRatio(2), 0.4)
        f0 = np.full(7, 0.1)
        f0[2] = -1e-13
        clean = f0.copy()
        clean[2] = 0.0
        assert np.array_equal(START_MARCHES[march](f0, tensor), START_MARCHES[march](clean, tensor))
        assert f0[2] == -1e-13  # the caller's array is left as it was


class TestRefusals:
    """Refusals of the dynamics module, each from an input that reaches it."""

    def test_trajectory_times_must_increase(self):
        grid = VelocityGrid(n_cells=5, v_max=1.0)
        for times in ([0.0, 1.0, 1.0], [0.0, 2.0, 1.0]):
            with pytest.raises(ConfigurationError, match="strictly increasing"):
                Trajectory(times=np.array(times), states=np.zeros((3, 5)), grid=grid,
                           terminal_residual=0.0)

    def test_rhs_refuses_a_state_of_another_grid(self):
        grid = VelocityGrid(n_cells=7, v_max=1.0)
        tensor = build_tensor(Kernel.DELTA, grid, GridRatio(2), 0.4)
        state = CellMassVector(np.full(5, 0.1), VelocityGrid(n_cells=5, v_max=1.0))
        with pytest.raises(ConfigurationError, match="state and tensor grids differ"):
            collision_rhs(state, tensor, 1.0)

    @pytest.mark.parametrize("bad", [[-0.1, 0.5], [0.5, 1.5]])
    def test_sample_times_outside_the_run_are_refused(self, bad):
        grid = VelocityGrid(n_cells=7, v_max=1.0)
        tensor = build_tensor(Kernel.DELTA, grid, GridRatio(2), 0.4)
        with pytest.raises(ConfigurationError, match=r"sample_times outside \[0, t_end\]"):
            integrate(np.full(7, 0.1), tensor, 1.0, 1.0, IntegratorControls(sample_times=bad))

    def test_distance_reference_of_the_wrong_size_is_refused(self):
        grid = VelocityGrid(n_cells=7, v_max=1.0)
        tensor = build_tensor(Kernel.DELTA, grid, GridRatio(2), 0.4)
        traj = integrate(np.full(7, 0.1), tensor, 1.0, 1.0)
        with pytest.raises(ConfigurationError, match="wrong dimension"):
            distance_to_equilibrium(traj, np.zeros(6))

    @pytest.mark.parametrize("bad", [0.0, -1e-3])
    def test_fit_window_with_a_non_positive_distance_is_refused(self, bad):
        series = TimeSeries(times=np.arange(4.0), values=np.array([1.0, 0.5, bad, 0.1]))
        with pytest.raises(NumericalError, match="zero or negative distances"):
            fit_convergence_rate(series)


class TestTrustedStates:
    """States the package computes itself skip the constructor's checks; a
    state built from outside keeps every refusal."""

    @staticmethod
    def _same_as_checked(state):
        checked = CellMassVector(state.masses.copy(), state.grid)
        assert state.masses.tobytes() == checked.masses.tobytes()
        assert state.masses.dtype == checked.masses.dtype
        assert not state.masses.flags.writeable
        assert not checked.masses.flags.writeable

    @pytest.mark.parametrize("kernel", [Kernel.CHI, Kernel.DELTA])
    @pytest.mark.parametrize("rho,empty", [(0.3, 0), (0.6, 0), (0.7, 3), (0.4, 8)])
    def test_chain_state_has_the_checked_bits_and_flags(self, kernel, rho, empty):
        tensor = build_tensor(kernel, VelocityGrid(n_cells=9, v_max=1.0), GridRatio(4), 1.0 - rho)
        self._same_as_checked(banded_equilibrium(tensor, rho, empty))

    def test_march_states_have_the_checked_bits_and_flags(self):
        tensor, f0 = _diagram_problem(Kernel.CHI, 2, 20, 0.45)
        self._same_as_checked(find_steady_state(f0, tensor, 1.0, residual_tol=1e-10, t_max=1e7))
        # a start already at rest is returned as it came, in a copy
        rest = banded_equilibrium(tensor, 0.45)
        again = find_steady_state(rest, tensor, 1.0)
        self._same_as_checked(again)
        assert not np.shares_memory(again.masses, rest.masses)
        grid = VelocityGrid(n_cells=7, v_max=1.0)
        with pytest.raises(SteadyStateTimeout) as exc:
            find_steady_state(np.full(7, 0.5 / 7), build_tensor(Kernel.DELTA, grid, GridRatio(2), 0.4),
                              1.0, residual_tol=1e-30, t_max=5.0)
        self._same_as_checked(exc.value.state)

    @pytest.mark.parametrize("bad,error", [
        (-1e-9, NumericalError), (math.nan, ConfigurationError),
        (math.inf, ConfigurationError), (-math.inf, ConfigurationError),
    ])
    def test_outside_construction_refuses_negative_or_non_finite_masses(self, bad, error):
        grid = VelocityGrid(n_cells=5, v_max=1.0)
        masses = np.full(5, 0.1)
        masses[2] = bad
        with pytest.raises(error):
            CellMassVector(masses, grid)

    def test_outside_construction_copies_and_clamps(self):
        grid = VelocityGrid(n_cells=5, v_max=1.0)
        masses = np.array([0.1, -1e-13, 0.2, 0.0, 0.3])
        state = CellMassVector(masses, grid)
        assert state.masses.tolist() == [0.1, 0.0, 0.2, 0.0, 0.3]
        assert masses[1] == -1e-13 and masses.flags.writeable
        with pytest.raises(ConfigurationError):
            CellMassVector(np.full(4, 0.1), grid)


class TestRateFitting:
    def test_exact_exponential_is_recovered(self):
        t = np.linspace(0.0, 10.0, 201)
        series = TimeSeries(times=t, values=3.0 * np.exp(-2.0 * t))
        assert abs(fit_convergence_rate(series).rate - 2.0) <= 1e-10
        window = select_fit_window(series)
        assert window[0] > 0.0 and window[1] <= 10.0
        result = fit_convergence_rate(series, window)
        assert result.rate == pytest.approx(2.0, abs=1e-10)
        assert result.residual <= 1e-10

    def test_congested_rate_matches_the_linearization(self):
        rho, p, n_jumps = 0.8, 0.2, 5
        grid = VelocityGrid(n_cells=6, v_max=1.0)
        tensor = build_delta_tensor_integer(grid, GridRatio(Fraction(1)), p)
        f0 = np.full(6, rho / 6)
        traj = integrate(f0, tensor, 1.0, 200.0)
        ref = equilibrium_on_grid(closed_form_equilibrium(rho, p, n_jumps), 1, grid)
        series = distance_to_equilibrium(traj, ref)
        rate = fit_convergence_rate(series, select_fit_window(series)).rate
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
            ref = equilibrium_on_grid(closed_form_equilibrium(0.2, 0.8, n_jumps), 1, grid)
            series = distance_to_equilibrium(traj, ref)
            rates[n_jumps] = fit_convergence_rate(series, select_fit_window(series)).rate
        assert rates[3] == pytest.approx(0.10261920469378773, rel=1e-9)
        assert rates[5] == pytest.approx(0.09024306951306985, rel=1e-9)
        assert abs(rates[3] - rates[5]) / rates[3] > 0.05

    def test_distance_series_vanishes_at_the_fixed_point(self):
        f = equilibrium_on_grid(closed_form_equilibrium(0.6, 0.4, 3), 1,
                                VelocityGrid(n_cells=4, v_max=1.0))
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
        with pytest.raises(ConfigurationError, match="at least one jump"):
            staircase_distance(uniform, [], [])
