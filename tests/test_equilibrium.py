"""Closed-form quantized equilibria against a high-precision recursion oracle.

The package's double-precision evaluation is compared to an independent
60-digit mpmath implementation of the same root recursion, then checked to
actually be a fixed point of the discretized collision operator.  The
cell-by-cell chain on the grid is checked the same way, and against the
closed form and the ODE march.
"""
import math
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from kinetic_traffic import (
    CellMassVector,
    ConfigurationError,
    GridRatio,
    InteractionTensor,
    Kernel,
    ModelParams,
    NumericalError,
    PowerLaw,
    VelocityGrid,
    banded_equilibrium,
    build_chi_tensor,
    build_delta_tensor_integer,
    build_grid,
    build_tensor,
    closed_form_equilibrium,
    collision_rhs,
    equilibrium_on_grid,
    evaluate_probability,
    find_steady_state,
    unstable_equilibrium,
    verify_quantized_support,
)
from kinetic_traffic.dynamics import NEGATIVITY_TOL

from _oracles import banded_equilibrium_mp, equilibrium_mp


class TestClosedForm:
    def test_hand_worked_case(self):
        # rho=0.6, braking-dominated p=0.4, three speed classes above rest
        eq = closed_form_equilibrium(0.6, 0.4, 3)
        want = (
            0.19999999999999996,
            0.2,
            0.11231056256176605,
            0.08768943743823399,
        )
        assert np.abs(np.asarray(eq.masses, float) - want).max() <= 1e-15
        # top non-saturated class solves m^2 + 0.2 m - 0.08 = 0 exactly
        m = float(eq.masses[1])
        assert abs(m * m + 0.2 * m - 0.08) <= 1e-15
        assert abs(float(eq.masses[2]) - (math.sqrt(0.68) - 0.6) / 2) <= 1e-15
        assert eq.discriminants == pytest.approx((0.1296, 0.2448), abs=1e-15)

    def test_mass_accounting(self):
        eq = closed_form_equilibrium(0.6, 0.4, 3)
        assert abs(sum(map(float, eq.masses)) - 0.6) <= 1e-15
        assert eq.rho == 0.6 and eq.p == 0.4
        assert eq.speeds(1.0) == pytest.approx([0.0, 1 / 3, 2 / 3, 1.0])
        assert eq.speeds(28.0) == pytest.approx([0.0, 28 / 3, 56 / 3, 28.0])

    @pytest.mark.parametrize("rho", [0.1, 0.3, 0.5, 0.6, 0.8, 0.95])
    @pytest.mark.parametrize("p", [0.05, 0.3, 0.49, 0.499999])
    @pytest.mark.parametrize("n_jumps", [1, 3, 5, 8])
    def test_against_high_precision_recursion(self, rho, p, n_jumps):
        eq = closed_form_equilibrium(rho, p, n_jumps)
        ref = equilibrium_mp(rho, p, n_jumps)
        err = max(abs(float(m) - float(r)) for m, r in zip(eq.masses, ref))
        assert err <= 1e-14

    @pytest.mark.parametrize("p", [0.5, 0.7, 1.0])
    def test_free_branch_concentrates_at_top(self, p):
        eq = closed_form_equilibrium(0.3, p, 3)
        assert tuple(map(float, eq.masses)) == (0.0, 0.0, 0.0, 0.3)

    def test_branch_continuity_toward_one_half(self):
        # lower-class mass decays monotonically as p approaches 1/2 from below
        rho, n_jumps = 0.3, 3
        lower = [
            sum(map(float, closed_form_equilibrium(rho, p, n_jumps).masses[:-1]))
            for p in (0.49, 0.499, 0.49999, 0.4999999)
        ]
        assert all(a > b > 0.0 for a, b in zip(lower, lower[1:]))
        assert lower[-1] < 0.01

    def test_parameter_validation(self):
        with pytest.raises(ConfigurationError):
            closed_form_equilibrium(-0.1, 0.4, 3)
        with pytest.raises(ConfigurationError):
            closed_form_equilibrium(0.6, 1.2, 3)
        with pytest.raises(ConfigurationError):
            closed_form_equilibrium(0.6, 0.4, 0)

    @settings(max_examples=60, deadline=None)
    @given(
        rho=st.floats(1e-3, 1.0),
        p=st.floats(0.0, 1.0),
        n_jumps=st.integers(1, 10),
    )
    def test_masses_form_a_distribution(self, rho, p, n_jumps):
        eq = closed_form_equilibrium(rho, p, n_jumps)
        masses = np.asarray(eq.masses, float)
        assert masses.min() >= 0.0
        assert abs(masses.sum() - rho) <= 1e-12 * max(rho, 1.0)


class TestOnGrid:
    @pytest.mark.parametrize("rho", [0.3, 0.6, 0.9])
    @pytest.mark.parametrize("n_jumps", [3, 5])
    @pytest.mark.parametrize("r", [1, 4, 8])
    def test_is_fixed_point_of_collision_operator(self, rho, n_jumps, r):
        p = 1.0 - rho
        eq = closed_form_equilibrium(rho, p, n_jumps)
        f = equilibrium_on_grid(eq, r)
        assert f.grid.n_cells == r * n_jumps + 1
        tensor = build_delta_tensor_integer(f.grid, GridRatio(Fraction(r)), p)
        assert np.abs(collision_rhs(f, tensor, 1.0)).max() <= 1e-10

    def test_refinement_places_mass_at_quantized_cells(self):
        eq = closed_form_equilibrium(0.6, 0.4, 3)
        f = equilibrium_on_grid(eq, 4)
        masses = f.masses
        occupied = np.nonzero(masses)[0]
        assert occupied.tolist() == [0, 4, 8, 12]
        assert masses[occupied] == pytest.approx(list(map(float, eq.masses)))

    def test_support_check_accepts_quantized_state(self):
        eq = closed_form_equilibrium(0.6, 0.4, 3)
        f = equilibrium_on_grid(eq, 4)
        report = verify_quantized_support(f, 1 / 3, tol_mass=1e-10, tol_loc=f.grid.dv)
        assert report.passed
        assert report.stray_mass == 0.0
        assert len(report.clusters) == 4
        # boundary half-cells park their centers a quarter step off the lattice
        assert max(c.offset for c in report.clusters) <= f.grid.dv / 4 + 1e-12

    def test_support_check_rejects_spread_kernel_steady_state(self):
        rho, n_jumps, r = 0.6, 3, 8
        grid = VelocityGrid(n_cells=r * n_jumps + 1, v_max=1.0)
        tensor = build_chi_tensor(grid, GridRatio(Fraction(r)), 1.0 - rho)
        f0 = np.full(grid.n_cells, rho / grid.n_cells)
        f_inf = find_steady_state(f0, tensor, 1.0, residual_tol=1e-10, t_max=1e7)
        report = verify_quantized_support(
            f_inf, 1 / 3, tol_mass=1e-8 * rho, tol_loc=2 * grid.dv
        )
        assert not report.passed

    def test_support_check_on_unaligned_grid(self):
        # 60 cells never line up with thirds; nearest-cell placement must pass
        grid = VelocityGrid(n_cells=60, v_max=1.0)
        masses = np.zeros(60)
        for speed, mass in zip((0.0, 1 / 3, 2 / 3, 1.0), (0.2, 0.2, 0.1, 0.1)):
            masses[np.argmin(np.abs(grid.centers - speed))] += mass
        f = CellMassVector(masses, grid)
        report = verify_quantized_support(f, 1 / 3, tol_mass=0.0, tol_loc=2 * grid.dv)
        assert report.passed


class TestUnstable:
    @pytest.mark.parametrize(
        "rho,n_jumps,r,shift",
        [(0.7, 4, 4, 3), (0.7, 4, 4, 1), (0.6, 3, 8, 5), (0.9, 5, 2, 1)],
    )
    def test_shifted_family_is_also_a_fixed_point(self, rho, n_jumps, r, shift):
        p = 1.0 - rho
        f = unstable_equilibrium(rho, p, n_jumps, r, shift)
        tensor = build_delta_tensor_integer(f.grid, GridRatio(Fraction(r)), p)
        assert np.abs(collision_rhs(f, tensor, 1.0)).max() <= 1e-10
        assert f.masses.sum() == pytest.approx(rho, rel=1e-12)
        # shifted support misses the rest cell and the quantized lattice
        assert f.masses[0] == 0.0

    @pytest.mark.parametrize("shift", [0, 4, 5])
    def test_degenerate_shifts_rejected(self, shift):
        with pytest.raises(ConfigurationError):
            unstable_equilibrium(0.7, 0.3, 4, 4, shift)


def uniform_start_cases(kernel, n_jumps, ratio, rhos):
    """(tensor, rho) for each density, with P from the gamma = 1 power law."""
    params = ModelParams(delta_v=1.0 / n_jumps, kernel=kernel)
    grid, ratio_obj = build_grid(params, ratio)
    for rho in rhos:
        p = evaluate_probability(PowerLaw(1.0), rho, params)
        yield build_tensor(kernel, grid, ratio_obj, p), rho


def march(tensor, rho):
    f0 = np.full(tensor.n_cells, rho / tensor.n_cells)
    return find_steady_state(f0, tensor, 1.0, residual_tol=1e-10, t_max=1e7)


CRITERION_09_RHOS = [0.01 + 0.02 * k for k in range(50)]


class TestBandedEquilibrium:
    def test_matches_the_march_on_the_criterion_09_sweep(self):
        gaps, solved = [], 0
        for r in (1, 20):
            for tensor, rho in uniform_start_cases(Kernel.CHI, 2, r, CRITERION_09_RHOS):
                chain = banded_equilibrium(tensor, rho)
                assert np.abs(collision_rhs(chain, tensor, 1.0)).max() <= 1e-15
                try:
                    marched = march(tensor, rho)
                except NumericalError:
                    continue  # rho=0.49, r=20: the march dips below the floor
                solved += 1
                gaps.append(np.abs(chain.masses - marched.masses).max())
        assert solved >= 99
        assert max(gaps) <= 1e-15

    @pytest.mark.parametrize("kernel,n_jumps,ratio,rhos", [
        (Kernel.CHI, 4, 100, (0.3, 0.45, 0.6, 0.8)),
        (Kernel.DELTA, 4, 100, (0.3, 0.45, 0.6, 0.8)),
        (Kernel.DELTA, 3, Fraction(400, 3), (0.6,)),
    ])
    def test_matches_the_march_on_refined_grids(self, kernel, n_jumps, ratio, rhos):
        # N = 401.  The march stops at residual 1e-10, which leaves its top
        # cell 1.7e-15 off at chi rho=0.45; the chain is exact there (below)
        for tensor, rho in uniform_start_cases(kernel, n_jumps, ratio, rhos):
            gap = np.abs(banded_equilibrium(tensor, rho).masses - march(tensor, rho).masses)
            assert gap.max() <= 2e-15

    @pytest.mark.parametrize("kernel,n_jumps,ratio,rho", [
        (Kernel.CHI, 4, 100, 0.45),
        (Kernel.CHI, 2, 20, 0.49),
        (Kernel.DELTA, 3, Fraction(400, 3), 0.6),
        (Kernel.CHI, 3, 7, 0.2),
    ])
    def test_matches_50_digit_arithmetic(self, kernel, n_jumps, ratio, rho):
        ((tensor, rho),) = uniform_start_cases(kernel, n_jumps, ratio, [rho])
        want = banded_equilibrium_mp(tensor, rho)
        assert np.abs(banded_equilibrium(tensor, rho).masses - want).max() <= 1e-16

    @pytest.mark.parametrize("n_jumps", [2, 3, 5])
    @pytest.mark.parametrize("r", [1, 2, 4, 20])
    def test_jump_kernel_is_the_closed_form(self, n_jumps, r):
        grid = VelocityGrid(n_cells=r * n_jumps + 1, v_max=1.0)
        for rho in [0.025 + 0.05 * k for k in range(20)]:
            p = 1.0 - rho
            tensor = build_delta_tensor_integer(grid, GridRatio(r), p)
            want = equilibrium_on_grid(closed_form_equilibrium(rho, p, n_jumps), r, grid=grid)
            got = banded_equilibrium(tensor, rho).masses
            assert np.abs(got - want.masses).max() <= 1e-15
            # every class but the top one (which closes the mass balance by a
            # subtraction) to a few ulps relative, however small it is
            mp = np.array(equilibrium_mp(rho, p, n_jumps))
            classes = got[np.arange(n_jumps + 1) * r]
            assert np.abs(classes - mp).max() <= 1e-15
            assert np.all(np.abs(classes - mp)[:-1] <= 4e-15 * mp[:-1])

    def test_near_critical_sample_the_march_loses(self):
        # test_dynamics pins the march's failure on this sample
        ((tensor, rho),) = uniform_start_cases(Kernel.CHI, 2, 20, [0.49])
        f = banded_equilibrium(tensor, rho)
        assert np.abs(collision_rhs(f, tensor, 1.0)).max() <= 1e-15
        assert f.masses.min() >= 0.0
        assert f.rho == pytest.approx(rho, abs=1e-15)

    @pytest.mark.parametrize("p,where", [(0.0, 0), (1.0, -1)])
    @pytest.mark.parametrize("kernel", [Kernel.CHI, Kernel.DELTA])
    def test_extreme_probabilities_without_a_warning(self, kernel, p, where):
        # P = 0: everyone brakes to rest; P = 1: everyone reaches top speed,
        # and the chain's equations are linear
        tensor = build_tensor(kernel, VelocityGrid(n_cells=41, v_max=1.0), GridRatio(20), p)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            f = banded_equilibrium(tensor, 0.4)
        want = np.zeros(41)
        want[where] = 0.4
        assert np.array_equal(f.masses, want)

    def test_overfull_low_cell_is_a_numerical_error(self):
        # a hand-built band whose first cell keeps all its acceleration mass
        # makes that cell hold 2 rho, so the top cell would need -rho
        tensor = InteractionTensor(
            kernel=Kernel.DELTA, p=0.5, grid=VelocityGrid(n_cells=3, v_max=1.0),
            band=np.array([[1.0], [0.0], [0.0]]),
        )
        with pytest.raises(NumericalError, match="top cell"):
            banded_equilibrium(tensor, 0.3)

    @pytest.mark.parametrize("rho", [0.0, -0.1, math.inf, math.nan])
    def test_density_must_be_positive(self, rho):
        tensor = build_delta_tensor_integer(VelocityGrid(n_cells=7, v_max=1.0), GridRatio(2), 0.4)
        with pytest.raises(ConfigurationError):
            banded_equilibrium(tensor, rho)
