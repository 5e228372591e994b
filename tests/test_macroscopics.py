"""Macroscopic outputs: moments, fundamental diagrams, relaxation times.

Flux and mean-speed formulas are pinned against hand-computed values, the
diagram machinery against exact free and jammed branches, and the capacity
drop detector against a bisection-located transition.
"""
import dataclasses
import inspect
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from kinetic_traffic import (
    CellMassVector,
    ConfigurationError,
    CustomLaw,
    Kernel,
    ModelParams,
    NumericalError,
    PowerLaw,
    VelocityGrid,
    banded_equilibrium,
    build_grid,
    build_tensor,
    closed_form_equilibrium,
    compare_diagrams,
    deceleration_time,
    detect_capacity_drop,
    evaluate_probability,
    expected_speed,
    flux_infinite_r,
    fundamental_diagram,
    initial_acceleration,
    moments,
)
from kinetic_traffic import macroscopics

from _oracles import closed_form_reference

LAW = PowerLaw(1.0)


class TestMoments:
    def test_hand_case(self):
        grid = VelocityGrid(n_cells=4, v_max=1.0)
        m = moments(CellMassVector(np.array([0.1, 0.2, 0.2, 0.1]), grid))
        assert m.rho == pytest.approx(0.6)
        assert m.flux == pytest.approx(0.3)
        assert m.mean_speed == pytest.approx(0.5)

    def test_vacuum_has_no_mean_speed(self):
        grid = VelocityGrid(n_cells=4, v_max=1.0)
        m = moments(CellMassVector(np.zeros(4), grid))
        assert m.rho == 0.0 and m.flux == 0.0


class TestExpectedSpeed:
    def test_pure_braking_takes_the_minimum(self):
        assert expected_speed(Kernel.DELTA, 0.5, 0.3, 0.0, 0.25, 1.0) == pytest.approx(0.3)
        assert expected_speed(Kernel.CHI, 0.5, 0.3, 0.0, 0.25, 1.0) == pytest.approx(0.3)

    def test_spread_kernel_halves_the_mean_gain(self):
        # away from the speed cap a uniform spread over twice the jump has
        # exactly the jump's mean gain
        d = expected_speed(Kernel.DELTA, 0.5, 0.7, 0.6, 0.25, 1.0)
        c = expected_speed(Kernel.CHI, 0.5, 0.7, 0.6, 0.5, 1.0)
        assert d == pytest.approx(0.6 * 0.75 + 0.4 * 0.5)
        assert c == pytest.approx(d, rel=1e-15)

    @settings(max_examples=60, deadline=None)
    @given(
        v_star=st.floats(0.0, 0.5),
        v_field=st.floats(0.0, 1.0),
        p=st.floats(0.0, 1.0),
        delta_v=st.floats(0.01, 0.5),
    )
    def test_equivalence_holds_below_saturation(self, v_star, v_field, p, delta_v):
        d = expected_speed(Kernel.DELTA, v_star, v_field, p, delta_v / 2, 1.0)
        c = expected_speed(Kernel.CHI, v_star, v_field, p, delta_v, 1.0)
        assert c == pytest.approx(d, abs=1e-12)

    @pytest.mark.parametrize("v_star,v_field", [(-0.1, 0.5), (1.1, 0.5), (0.5, -0.1),
                                                (0.5, 1.5), ([0.2, 1.2], 0.5)])
    def test_speeds_outside_the_range_are_refused(self, v_star, v_field):
        for kernel in (Kernel.DELTA, Kernel.CHI):
            with pytest.raises(ConfigurationError, match=r"speeds must lie in \[0, v_max\]"):
                expected_speed(kernel, v_star, v_field, 0.5, 0.25, 1.0)

    def test_saturation_splits_the_kernels(self):
        # at the cap the jump stalls while the spread still averages upward
        top_d = expected_speed(Kernel.DELTA, 1.0, 1.0, 1.0, 0.25, 1.0)
        top_c = expected_speed(Kernel.CHI, 0.9, 1.0, 1.0, 0.5, 1.0)
        assert top_d == pytest.approx(1.0)
        assert top_c == pytest.approx(0.95)


class TestInitialAcceleration:
    def test_rest_state_slopes(self):
        a_d = initial_acceleration(Kernel.DELTA, 0.15, 0.85, 10.0, 1 / 3)
        a_c = initial_acceleration(Kernel.CHI, 0.15, 0.85, 10.0, 2 / 3)
        assert a_d == pytest.approx(0.425, rel=1e-12)
        assert a_c == pytest.approx(a_d, rel=1e-12)

    def test_dimensional_example(self):
        # rate 2.5/7 interactions per time, certain acceleration, 7 m/s jumps
        a = initial_acceleration(Kernel.DELTA, 1.0, 1.0, 2.5 / 7, 7.0)
        assert a == pytest.approx(2.5, rel=1e-12)


class TestFundamentalDiagram:
    @pytest.mark.parametrize("r", [1, 4])
    def test_free_branch_is_exactly_linear(self, r):
        params = ModelParams(delta_v=0.25)
        rhos = [0.05, 0.1, 0.2, 0.3, 0.4, 0.45, 0.49]
        d = fundamental_diagram(params, LAW, r, rhos)
        assert d.all_converged
        slope = 1.0 - 0.25 / (4 * r)
        for s in d.samples:
            assert abs(s.flux - slope * s.rho) <= 1e-10
            assert s.mean_speed == pytest.approx(slope, rel=1e-9)

    @pytest.mark.parametrize("r", [1, 4, 20])
    def test_jam_flux_is_the_half_cell_crawl(self, r):
        params = ModelParams(delta_v=0.25)
        jam = fundamental_diagram(params, LAW, r, [1.0]).samples[0]
        assert jam.flux == pytest.approx(0.25 / (4 * r), rel=1e-12)

    def test_infinite_ratio_free_branch_moves_at_full_speed(self):
        d = fundamental_diagram(ModelParams(delta_v=0.25), LAW, math.inf, [0.3])
        assert d.samples[0].flux == pytest.approx(0.3)
        assert d.samples[0].mean_speed == pytest.approx(1.0)

    def test_negative_infinite_ratio_is_refused(self):
        with pytest.raises(ConfigurationError, match="grid ratio -inf"):
            fundamental_diagram(ModelParams(delta_v=1 / 3), LAW, -math.inf, [0.3])

    @pytest.mark.parametrize("kernel,delta_v,ratio,message", [
        # T=4, r=7/2: a 15-cell grid whose classes fall between cells
        (Kernel.DELTA, 0.25, Fraction(7, 2), "non-integer ratio grid is not defined"),
        # T=2, r=3/2: a 4-cell grid
        (Kernel.CHI, 0.5, Fraction(3, 2), "spread-kernel grids require integer ratios"),
    ])
    def test_fractional_ratio_grid_is_refused(self, kernel, delta_v, ratio, message):
        params = ModelParams(delta_v=delta_v, kernel=kernel)
        build_grid(params, ratio)  # the grid itself exists
        with pytest.raises(ConfigurationError, match=message):
            fundamental_diagram(params, LAW, ratio, [0.3])

    @pytest.mark.parametrize("r", [1, 4])
    def test_finite_ratio_flux_stays_near_the_limit(self, r):
        params = ModelParams(delta_v=0.25)
        rhos = [0.3, 0.6, 0.9]
        fin = fundamental_diagram(params, LAW, r, rhos)
        inf = fundamental_diagram(params, LAW, math.inf, rhos)
        for sf, si in zip(fin.samples, inf.samples):
            bound = sf.rho * 0.25 / (4 * r)
            # free branch attains the bound exactly; allow rounding slack
            assert abs(sf.flux - si.flux) <= bound * (1 + 1e-9)

    def test_spread_samples_are_the_banded_equilibrium(self):
        params = ModelParams(delta_v=0.5, kernel=Kernel.CHI)
        grid, ratio = build_grid(params, 4)
        d = fundamental_diagram(params, LAW, 4, [0.2, 0.6])
        assert d.all_converged
        for s in d.samples:
            tensor = build_tensor(Kernel.CHI, grid, ratio, 1.0 - s.rho)
            want = moments(banded_equilibrium(tensor, s.rho))
            assert (s.flux, s.mean_speed) == (want.flux, want.mean_speed)

    def test_spread_sample_above_the_residual_tolerance_is_flagged(self, monkeypatch):
        # a state that is not a fixed point stays in the diagram, marked
        def uniform(tensor, rho):
            return CellMassVector(np.full(tensor.n_cells, rho / tensor.n_cells), tensor.grid)

        monkeypatch.setattr(macroscopics, "banded_equilibrium", uniform)
        d = fundamental_diagram(ModelParams(delta_v=0.5, kernel=Kernel.CHI), LAW, 4, [0.6])
        assert not d.all_converged
        assert d.samples[0].rho == 0.6

    @pytest.mark.parametrize("rhos,message", [
        ([], "at least one density"),
        ([0.3, 0.0], r"must lie in \(0, rho_max\]"),
        ([1.0 + 1e-9], r"must lie in \(0, rho_max\]"),
        ([0.3, math.nan], r"must lie in \(0, rho_max\]"),
    ])
    def test_density_samples_outside_the_range_are_refused(self, rhos, message):
        with pytest.raises(ConfigurationError, match=message):
            fundamental_diagram(ModelParams(delta_v=0.25), LAW, 1, rhos)

    # gamma=2 is past PowerLaw's range, so the convex law is a table of
    # 1 - rho^2 fine enough to cross P = 1/2 between samples
    LAWS = {0.5: PowerLaw(0.5), 1.0: PowerLaw(1.0),
            2.0: CustomLaw([(k / 400, 1.0 - (k / 400) ** 2) for k in range(401)])}
    # both sides of rho_c (0.25, 0.5 and 0.7071 for the three laws), the
    # P >= 1/2 rows among them, and rho = rho_max
    RHOS = sorted({0.01 + 0.02 * k for k in range(50)}
                  | {0.25 - 1e-9, 0.25 + 1e-9, 0.5 - 1e-6, 0.5 + 1e-6, 0.7071, 0.7072, 1.0})

    @pytest.mark.parametrize("gamma", sorted(LAWS))
    @pytest.mark.parametrize("n_jumps", [1, 3, 4])
    @pytest.mark.parametrize("r", [1, 4, 20, math.inf])
    def test_jump_samples_keep_their_scalar_bits(self, r, n_jumps, gamma):
        params = ModelParams(delta_v=1.0 / n_jumps)
        law = self.LAWS[gamma]
        d = fundamental_diagram(params, law, r, self.RHOS)
        if r == math.inf:
            speeds = np.arange(n_jumps + 1) * (1.0 / n_jumps)
        else:
            grid, _ = build_grid(params, r)
            speeds = grid.centers[np.arange(n_jumps + 1) * r]
        assert any(evaluate_probability(law, x, params) >= 0.5 for x in self.RHOS)
        assert any(evaluate_probability(law, x, params) < 0.5 for x in self.RHOS)
        for s in d.samples:
            masses = closed_form_reference(s.rho, evaluate_probability(law, s.rho, params),
                                           n_jumps)
            flux = float(np.array(masses) @ speeds)
            assert (s.flux.hex(), s.mean_speed.hex()) == (flux.hex(), (flux / s.rho).hex())

    @pytest.mark.parametrize("r", [1, 4, 20])
    def test_spread_samples_equal_their_one_density_calls(self, r):
        params = ModelParams(delta_v=0.5, kernel=Kernel.CHI)
        rhos = [0.01 + 0.02 * k for k in range(50)]
        together = fundamental_diagram(params, LAW, r, rhos).samples
        alone = [fundamental_diagram(params, LAW, r, [rho]).samples[0] for rho in rhos]
        assert [tuple(map(repr, s)) for s in together] == [tuple(map(repr, s)) for s in alone]

    @pytest.mark.parametrize("r", [1, math.inf])
    @pytest.mark.parametrize("delta_v,p,bad,message", [
        (1 / 3, 0.25, 5e-324, r"class 2: linear coefficient .* lost its sign at density 5e-324"),
        (0.2, 0.4, 1e-161, r"top class mass .* went negative at density 1e-161"),
    ])
    def test_chain_failure_names_its_density(self, r, delta_v, p, bad, message):
        # a flat law puts P < 1/2 at a density whose chain leaves the
        # normal range (see TestClosedForm in test_equilibrium.py)
        law = CustomLaw([(0.0, p), (1.0, p)])
        with pytest.raises(NumericalError, match=message):
            fundamental_diagram(ModelParams(delta_v=delta_v), law, r, [0.3, bad, 0.6])

    @pytest.mark.parametrize("rhos,message", [
        ([0.3, 1e-161, 5e-324], r"top class mass .* went negative at density 1e-161"),
        ([0.3, 5e-324, 1e-161], r"lost its sign at density 5e-324"),
    ])
    def test_chain_failure_names_the_first_bad_density(self, rhos, message):
        # at T = 5 and P = 0.4, 5e-324 loses its sign at class 2 and 1e-161
        # fails only at the top class; the density named is the first
        law = CustomLaw([(0.0, 0.4), (1.0, 0.4)])
        with pytest.raises(NumericalError, match=message):
            fundamental_diagram(ModelParams(delta_v=0.2), law, 4, rhos)

    @pytest.mark.parametrize("kernel", [Kernel.DELTA, Kernel.CHI])
    @pytest.mark.parametrize("tol", [math.nan, -1.0, 0.0])
    def test_residual_tolerance_must_be_positive(self, kernel, tol):
        # NaN once flagged every spread sample, -1 logged every one as
        # unsolved, and a jump diagram ignored the value
        params = ModelParams(delta_v=0.5, kernel=kernel)
        with pytest.raises(ConfigurationError,
                           match=rf"^residual_tol must be positive; got {tol!r}$"):
            fundamental_diagram(params, LAW, 4, [0.3, 0.6], residual_tol=tol)

    def test_sample_flux_must_be_rho_times_speed(self):
        d = fundamental_diagram(ModelParams(delta_v=0.25), LAW, 1, [0.3])
        bad = d.samples[0]._replace(flux=d.samples[0].flux * (1 + 1e-9))
        with pytest.raises(ConfigurationError, match=r"flux .* != rho\*u"):
            dataclasses.replace(d, samples=(bad,))

    def test_no_march_settings(self):
        assert list(inspect.signature(fundamental_diagram).parameters) == [
            "params", "law", "ratio", "rho_samples", "residual_tol",
        ]

    def test_quantized_limit_flux(self):
        eq = closed_form_equilibrium(0.6, 0.4, 3)
        assert flux_infinite_r(eq) == pytest.approx(0.22922981247941135, abs=1e-15)
        assert flux_infinite_r(closed_form_equilibrium(0.3, 0.7, 3)) == pytest.approx(0.3)
        assert flux_infinite_r(closed_form_equilibrium(1.0, 0.0, 3)) == 0.0


class TestCapacityDrop:
    def test_fine_grid_brackets_the_critical_density(self):
        rhos = sorted({0.01 + 0.02 * k for k in range(50)} | {0.5 - 1e-6, 0.5 + 1e-6})
        params = ModelParams(delta_v=0.25)
        rep = detect_capacity_drop(fundamental_diagram(params, LAW, 1, rhos))
        assert rep.drop_magnitude == pytest.approx(0.025673221469854179, rel=1e-9)
        assert rep.bracket[0] < 0.5 < rep.bracket[1]
        assert rep.bracket == pytest.approx((0.499999, 0.500001))
        assert rep.warnings == ()

    def test_gentle_exponent_shifts_the_transition(self):
        gamma = 0.25
        rc = 0.5 ** (1 / gamma)
        rhos = sorted({0.01 + 0.02 * k for k in range(50)} | {rc - 1e-6, rc + 1e-6})
        rep = detect_capacity_drop(
            fundamental_diagram(ModelParams(delta_v=0.25), PowerLaw(gamma), 1, rhos)
        )
        assert rep.drop_magnitude == pytest.approx(0.0035777525471464774, rel=1e-9)
        assert rep.bracket[0] < rc < rep.bracket[1]

    def test_coarse_sampling_is_flagged_and_widened(self):
        rhos = [round(0.1 * k, 10) for k in range(1, 11)]
        rep = detect_capacity_drop(
            fundamental_diagram(ModelParams(delta_v=0.25), LAW, 1, rhos)
        )
        assert rep.bracket == (0.4, 0.7)
        assert len(rep.warnings) == 1
        assert "spacing" in rep.warnings[0]

    def test_flux_that_never_falls_brackets_its_maximum(self):
        # every density below the critical one: the flux only rises
        rhos = [0.05, 0.1, 0.15, 0.2]
        rep = detect_capacity_drop(fundamental_diagram(ModelParams(delta_v=0.25), LAW, 1, rhos))
        assert rep.drop_magnitude == 0.0
        assert rep.rho_at_max_flux == 0.2
        assert rep.bracket == (0.15, 0.2)
        assert rep.transitions == ()
        assert rep.warnings == ("flux never falls; bracket spans the flux maximum",)

    @pytest.mark.parametrize("rhos,message", [
        ([0.2, 0.5], "at least three samples"),
        ([0.2, 0.8, 0.5], "sorted by density"),
    ])
    def test_too_few_or_unsorted_samples_are_refused(self, rhos, message):
        d = fundamental_diagram(ModelParams(delta_v=0.25), LAW, 1, rhos)
        with pytest.raises(ConfigurationError, match=message):
            detect_capacity_drop(d)


class TestCompareDiagrams:
    def test_identical_diagrams_have_zero_distance(self):
        d = fundamental_diagram(ModelParams(delta_v=0.25), LAW, 1, [0.2, 0.5, 0.8])
        assert compare_diagrams(d, d) == 0.0

    def test_mismatched_density_grids_rejected(self):
        params = ModelParams(delta_v=0.25)
        a = fundamental_diagram(params, LAW, 1, [0.2, 0.5, 0.8])
        b = fundamental_diagram(params, LAW, 1, [0.2, 0.5])
        with pytest.raises(ConfigurationError):
            compare_diagrams(a, b)
        c = fundamental_diagram(params, LAW, 1, [0.2, 0.5, 0.9])
        with pytest.raises(ConfigurationError, match="different densities"):
            compare_diagrams(a, c)

    def test_kernel_gap_peaks_at_the_transition(self):
        # the flux mismatch between the two kernels lives near the critical
        # density, not at the sparse end
        rhos = [0.01, 0.49, 0.51, 0.99]
        dd = fundamental_diagram(ModelParams(delta_v=0.25, kernel=Kernel.DELTA), LAW, 1, rhos)
        dc = fundamental_diagram(ModelParams(delta_v=0.5, kernel=Kernel.CHI), LAW, 1, rhos)
        gaps = np.abs(np.asarray(dd.fluxes) - np.asarray(dc.fluxes))
        assert gaps[1] == pytest.approx(0.19403448, abs=1e-6)
        assert gaps[1] > 100 * gaps[0]
        assert gaps[1] > 2.5 * max(gaps[2], gaps[3])


class TestDecelerationTime:
    def test_jump_size_barely_matters(self):
        times = {}
        for n_jumps in (3, 5):
            params = ModelParams(delta_v=1.0 / n_jumps)
            times[n_jumps] = deceleration_time(params, LAW, 4, 0.65)
        assert times[3] == pytest.approx(29.538630, abs=1e-5)
        assert times[5] == pytest.approx(30.203045, abs=1e-5)
        assert abs(times[3] - times[5]) / times[3] < 0.10

    def test_interaction_rate_sets_the_clock(self):
        slow = deceleration_time(ModelParams(delta_v=0.2, eta=1.0), LAW, 4, 0.9)
        fast = deceleration_time(ModelParams(delta_v=0.2, eta=4.0), LAW, 4, 0.9)
        assert slow == pytest.approx(12.966192, abs=1e-5)
        assert fast == pytest.approx(slow / 4.0, rel=1e-6)

    def test_validation(self):
        params = ModelParams(delta_v=1 / 3)
        with pytest.raises(ConfigurationError):
            deceleration_time(params, LAW, 4, 0.9, seed=0.0)
        with pytest.raises(ConfigurationError):
            deceleration_time(params, LAW, 4, 0.9, seed=0.9)
        with pytest.raises(ConfigurationError):
            deceleration_time(params, LAW, 4, 0.9, factor=1.0)
        with pytest.raises(ConfigurationError):
            deceleration_time(ModelParams(delta_v=1 / 3, kernel=Kernel.CHI), LAW, 4, 0.9)
        # T=3 and r=5/3 give a 6-cell grid, whose ratio is not whole
        with pytest.raises(ConfigurationError, match="needs an integer ratio"):
            deceleration_time(params, LAW, Fraction(5, 3), 0.9)

    def test_start_already_below_the_target(self):
        # at rho=0.3 P=0.7 >= 1/2, so the terminal speed is the top cell's,
        # which a start with a seed at rest is already below
        params = ModelParams(delta_v=0.25)
        with pytest.raises(ConfigurationError, match="already below target"):
            deceleration_time(params, LAW, 2, 0.3)

    def test_target_never_reached_within_t_max(self):
        params = ModelParams(delta_v=0.25)
        with pytest.raises(ConfigurationError, match=r"never reached .* within t_max=0\.5"):
            deceleration_time(params, LAW, 2, 0.8, t_max=0.5)
