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
    QuantizedEquilibrium,
    VelocityGrid,
    banded_equilibrium,
    build_chi_tensor,
    build_delta_tensor_integer,
    build_grid,
    build_tensor,
    closed_form_equilibrium,
    closed_form_on_grid,
    collision_rhs,
    equilibrium_on_grid,
    evaluate_probability,
    find_steady_state,
    integrate,
    reference_equilibrium,
    verify_quantized_support,
)
from kinetic_traffic.dynamics import NEGATIVITY_TOL
from kinetic_traffic.equilibrium import _closed_form_masses

from _oracles import (
    banded_equilibrium_mp,
    closed_form_reference,
    equilibrium_mp,
    unstable_equilibrium,
)


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

    @pytest.mark.parametrize("masses", [[1.0], [], [[0.5, 0.5]]])
    def test_needs_two_speed_classes(self, masses):
        with pytest.raises(ConfigurationError, match="at least two speed classes"):
            QuantizedEquilibrium(masses=masses, rho=1.0, p=0.3)

    @pytest.mark.parametrize("rho", [0.0, -0.1, math.inf, math.nan])
    def test_density_rule_is_the_chains(self, rho):
        tensor = build_tensor(Kernel.DELTA, VelocityGrid(n_cells=7, v_max=1.0), GridRatio(2), 0.4)
        with pytest.raises(ConfigurationError) as closed:
            closed_form_equilibrium(rho, 0.4, 3)
        with pytest.raises(ConfigurationError) as chain:
            banded_equilibrium(tensor, rho)
        assert str(closed.value) == str(chain.value)

    @pytest.mark.parametrize("p", [-0.1, 1.2, math.nan])
    def test_probability_rule_is_the_tensors(self, p):
        with pytest.raises(ConfigurationError) as closed:
            closed_form_equilibrium(0.6, p, 3)
        with pytest.raises(ConfigurationError) as tensor:
            build_tensor(Kernel.DELTA, VelocityGrid(n_cells=7, v_max=1.0), GridRatio(2), p)
        assert str(closed.value) == str(tensor.value)

    @pytest.mark.parametrize("p", [0.6, 0.3])
    def test_infinite_density_rejected(self, p):
        # once gave masses [0, 0, 0, inf] (p >= 1/2) and [inf, nan, nan, nan]
        with pytest.raises(ConfigurationError, match="finite and positive"):
            closed_form_equilibrium(math.inf, p, 3)

    def test_nan_class_mass_rejected(self):
        # NaN passes a `>` check; the mass checks are written to fail on it
        with pytest.raises(NumericalError):
            QuantizedEquilibrium(masses=[math.nan, 1.0], rho=1.0, p=0.3)

    def test_mass_check_prints_the_sum_as_a_plain_float(self):
        message = r"^class masses sum to 0\.30000000000000004, expected 0\.5$"
        with pytest.raises(NumericalError, match=message):
            QuantizedEquilibrium(masses=np.array([0.1, 0.2]), rho=0.5, p=0.5)

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

    @settings(max_examples=200, deadline=None)
    @given(
        rho=st.floats(1e-6, 1.0),
        p=st.one_of(st.floats(0.0, 1.0), st.floats(0.49, 0.5)),
        n_jumps=st.integers(1, 12),
    )
    def test_bits_of_the_scalar_chain(self, rho, p, n_jumps):
        # the one-row case of the stacked chain keeps the former scalar
        # chain's operations, so every class mass keeps its bits
        got = closed_form_equilibrium(rho, p, n_jumps).masses.tolist()
        assert [x.hex() for x in got] == [
            x.hex() for x in closed_form_reference(rho, p, n_jumps)
        ]

    def test_stacked_rows_keep_the_bits_they_get_alone(self):
        rhos = np.array([0.05, 0.3, 0.499, 0.5, 0.51, 0.9, 1.0])
        ps = np.array([0.95, 0.7, 0.501, 0.5, 0.49, 0.1, 0.0])
        for n_jumps in (1, 3, 4, 10):
            stacked = _closed_form_masses(rhos, ps, n_jumps)
            for row, rho, p in zip(stacked, rhos, ps):
                alone = closed_form_equilibrium(float(rho), float(p), n_jumps).masses
                assert row.tobytes() == alone.tobytes()

    # float64 reaches both chain failures only where the chain's products
    # leave the normal range: a subnormal density rounds (1 - 2p) rho and
    # the first class to 0, so b_2 = 0, and near 1e-161 the square of b
    # falls to a subnormal and its root loses the digits that keep the
    # classes below rho
    def test_linear_coefficient_that_loses_its_sign_is_refused(self):
        with pytest.raises(NumericalError, match=r"class 2: linear coefficient 0\.000e\+00 "
                           r"lost its sign at density 5e-324"):
            closed_form_equilibrium(5e-324, 0.25, 3)

    def test_top_class_below_the_floor_is_refused(self):
        with pytest.raises(NumericalError,
                           match=r"top class mass -4\.461e-163 went negative at density 1e-161"):
            closed_form_equilibrium(1e-161, 0.4, 5)

    @pytest.mark.parametrize("rhos,message", [
        # the top class fails after the lost sign in the chain's class
        # order, yet the earlier density is the one named
        ([0.3, 1e-161, 5e-324], r"top class mass .* went negative at density 1e-161"),
        ([0.3, 5e-324, 1e-161], r"class 2: linear coefficient .* lost its sign at "
                                r"density 5e-324"),
    ])
    def test_stacked_chain_names_the_first_density_with_a_fault(self, rhos, message):
        with pytest.raises(NumericalError, match=message):
            _closed_form_masses(np.array(rhos), np.full(len(rhos), 0.4), 5)


class TestOnGrid:
    @pytest.mark.parametrize("rho", [0.3, 0.6, 0.9])
    @pytest.mark.parametrize("n_jumps", [3, 5])
    @pytest.mark.parametrize("r", [1, 4, 8])
    def test_is_fixed_point_of_collision_operator(self, rho, n_jumps, r):
        p = 1.0 - rho
        eq = closed_form_equilibrium(rho, p, n_jumps)
        f = equilibrium_on_grid(eq, r, VelocityGrid(n_cells=r * n_jumps + 1, v_max=1.0))
        tensor = build_delta_tensor_integer(f.grid, GridRatio(Fraction(r)), p)
        assert np.abs(collision_rhs(f, tensor, 1.0)).max() <= 1e-10

    def test_refinement_places_mass_at_quantized_cells(self):
        eq = closed_form_equilibrium(0.6, 0.4, 3)
        f = equilibrium_on_grid(eq, 4, VelocityGrid(n_cells=13, v_max=1.0))
        masses = f.masses
        occupied = np.nonzero(masses)[0]
        assert occupied.tolist() == [0, 4, 8, 12]
        assert masses[occupied] == pytest.approx(list(map(float, eq.masses)))

    def test_grid_must_fit_the_ratio(self):
        eq = closed_form_equilibrium(0.6, 0.4, 3)
        with pytest.raises(ConfigurationError, match="at ratio 4 needs 13"):
            equilibrium_on_grid(eq, 4, VelocityGrid(n_cells=7, v_max=1.0))
        with pytest.raises(ConfigurationError, match="positive integer"):
            equilibrium_on_grid(eq, 1.5, VelocityGrid(n_cells=13, v_max=1.0))

    @pytest.mark.parametrize("kernel,ratio,has_closed_form", [
        (Kernel.DELTA, Fraction(4), True),
        (Kernel.DELTA, Fraction(14, 3), False),
        (Kernel.CHI, Fraction(4), False),
    ])
    def test_closed_form_on_grid_only_where_it_exists(self, kernel, ratio, has_closed_form):
        params = ModelParams(delta_v=1 / 3, kernel=kernel)
        grid, _ = build_grid(params, ratio)
        got = closed_form_on_grid(params, PowerLaw(), 0.6, ratio, grid)
        if not has_closed_form:
            assert got is None
            return
        p = evaluate_probability(PowerLaw(), 0.6, params)
        want = equilibrium_on_grid(closed_form_equilibrium(0.6, p, 3), 4, grid=grid)
        assert got.grid == grid and np.array_equal(got.masses, want.masses)

    def test_support_check_accepts_quantized_state(self):
        eq = closed_form_equilibrium(0.6, 0.4, 3)
        f = equilibrium_on_grid(eq, 4, VelocityGrid(n_cells=13, v_max=1.0))
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

    @pytest.mark.parametrize("delta_v,tol_mass,tol_loc", [
        (0.0, 1e-10, 0.1), (-1 / 3, 1e-10, 0.1), (1 / 3, -1e-10, 0.1), (1 / 3, 1e-10, -0.1),
    ])
    def test_support_check_refuses_bad_tolerances(self, delta_v, tol_mass, tol_loc):
        eq = closed_form_equilibrium(0.6, 0.4, 3)
        f = equilibrium_on_grid(eq, 4, VelocityGrid(n_cells=13, v_max=1.0))
        with pytest.raises(ConfigurationError, match="tolerances non-negative"):
            verify_quantized_support(f, delta_v, tol_mass=tol_mass, tol_loc=tol_loc)

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

    def test_near_critical_sample_is_a_clean_fixed_point(self):
        # the sample the former LSODA march lost; test_dynamics checks the
        # implicit march against this state
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

    @pytest.mark.parametrize("kernel", [Kernel.CHI, Kernel.DELTA])
    def test_density_whose_roots_overflow_is_refused(self, kernel):
        # the chain's squares overflow past rho ~ 1e154; its state is
        # trusted, not re-checked, so the chain itself must refuse it
        tensor = build_tensor(kernel, VelocityGrid(n_cells=9, v_max=1.0), GridRatio(4), 0.3)
        assert np.isfinite(banded_equilibrium(tensor, 1e150).masses).all()
        with pytest.raises(ConfigurationError, match="non-finite"):
            banded_equilibrium(tensor, 1e160)

    @pytest.mark.parametrize("n_jumps", [2, 3, 4, 5])
    @pytest.mark.parametrize("r", [2, 3, 4, 8])
    def test_empty_prefix_is_the_unstable_branch(self, n_jumps, r):
        grid = VelocityGrid(n_cells=r * n_jumps + 1, v_max=1.0)
        for rho in [0.55 + 0.05 * k for k in range(8)]:
            p = 1.0 - rho
            tensor = build_delta_tensor_integer(grid, GridRatio(r), p)
            for shift in range(1, r):
                got = banded_equilibrium(tensor, rho, empty=shift).masses
                want = unstable_equilibrium(rho, p, n_jumps, r, shift).masses
                assert np.abs(got - want).max() <= 1.1e-16

    def test_empty_prefix_is_where_rk4_ends_on_a_starved_bottom(self):
        # spread kernel, T=2, r=6, P=0.4: RK4 keeps cells 1-3 exactly empty
        ((tensor, rho),) = uniform_start_cases(Kernel.CHI, 2, 6, [0.6])
        f0 = np.r_[np.zeros(3), np.full(10, 0.06)]
        end = integrate(f0, tensor, 1.0, 2000.0).states[-1]
        chain = banded_equilibrium(tensor, rho, empty=3).masses
        assert np.array_equal(end[:3], np.zeros(3))
        assert np.abs(end - chain).max() <= 7.5e-16

    def test_all_but_the_top_cell_empty(self):
        tensor = build_chi_tensor(VelocityGrid(n_cells=9, v_max=1.0), GridRatio(4), 0.3)
        want = np.zeros(9)
        want[-1] = 0.7
        assert np.array_equal(banded_equilibrium(tensor, 0.7, empty=8).masses, want)

    @pytest.mark.parametrize("empty", [-1, 9])
    def test_empty_prefix_must_leave_a_cell(self, empty):
        tensor = build_chi_tensor(VelocityGrid(n_cells=9, v_max=1.0), GridRatio(4), 0.3)
        with pytest.raises(ConfigurationError, match="empty prefix"):
            banded_equilibrium(tensor, 0.7, empty=empty)


class TestReferenceEquilibrium:
    """The one rule for the steady state a start is compared against."""

    def case(self, kernel, ratio, rho=0.6):
        params = ModelParams(delta_v=1 / 3, kernel=kernel)
        grid, ratio_obj = build_grid(params, ratio)
        p = evaluate_probability(PowerLaw(), rho, params)
        tensor = build_tensor(kernel, grid, ratio_obj, p)
        return params, ratio_obj.fraction, tensor

    def reference(self, kernel, ratio, f0, rho=0.6):
        params, fraction, tensor = self.case(kernel, ratio, rho)
        return reference_equilibrium(params, PowerLaw(), rho, fraction, tensor, f0)

    @pytest.mark.parametrize("kernel", [Kernel.DELTA, Kernel.CHI])
    def test_an_empty_road_stays_empty(self, kernel):
        got = self.reference(kernel, Fraction(2), np.zeros(7), rho=0.0)
        assert np.array_equal(got.masses, np.zeros(7))

    def test_a_filled_rest_cell_gets_the_closed_form(self):
        params, fraction, tensor = self.case(Kernel.DELTA, Fraction(2))
        want = closed_form_on_grid(params, PowerLaw(), 0.6, fraction, tensor.grid)
        got = self.reference(Kernel.DELTA, Fraction(2), np.full(7, 0.6 / 7))
        assert np.array_equal(got.masses, want.masses)

    @pytest.mark.parametrize("kernel,ratio,empty", [
        (Kernel.DELTA, Fraction(2), 1),
        (Kernel.DELTA, Fraction(14, 3), 0),
        (Kernel.DELTA, Fraction(14, 3), 2),
        (Kernel.CHI, Fraction(2), 0),
        (Kernel.CHI, Fraction(2), 3),
    ])
    def test_every_other_start_gets_the_chain(self, kernel, ratio, empty):
        _, _, tensor = self.case(kernel, ratio)
        f0 = np.zeros(tensor.n_cells)
        f0[empty:] = 0.6 / (tensor.n_cells - empty)
        got = self.reference(kernel, ratio, f0)
        want = banded_equilibrium(tensor, 0.6, empty=empty)
        assert np.array_equal(got.masses, want.masses)
        assert np.all(got.masses[:empty] == 0.0)
