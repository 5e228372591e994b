"""Macroscopic outputs: moments, fundamental diagrams, relaxation times.

Flux and mean-speed formulas are pinned against hand-computed values, the
diagram machinery against exact free and jammed branches, and the capacity
drop detector against a bisection-located transition.
"""
import inspect
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from kinetic_traffic import (
    CellMassVector,
    ConfigurationError,
    Kernel,
    ModelParams,
    PowerLaw,
    VelocityGrid,
    banded_equilibrium,
    build_grid,
    build_tensor,
    closed_form_equilibrium,
    compare_diagrams,
    deceleration_time,
    detect_capacity_drop,
    expected_speed,
    flux_infinite_r,
    fundamental_diagram,
    initial_acceleration,
    moments,
)
from kinetic_traffic import macroscopics

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
        with pytest.raises(ConfigurationError):
            deceleration_time(params, LAW, Fraction(7, 2), 0.9)
