"""Parameter containers, braking-probability laws, and the critical density."""
import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from kinetic_traffic import (
    ConfigurationError,
    CustomLaw,
    Kernel,
    ModelParams,
    PowerLaw,
    critical_density,
    evaluate_probability,
)

PARAMS = ModelParams(v_max=1.0, rho_max=1.0, delta_v=0.25, eta=1.0, kernel=Kernel.DELTA)


class TestModelParams:
    def test_defaults_are_normalized(self):
        p = ModelParams()
        assert p.v_max == 1.0 and p.rho_max == 1.0 and p.eta == 1.0

    def test_n_jumps(self):
        assert ModelParams(delta_v=0.2).n_jumps == 5
        assert ModelParams(v_max=2.0, delta_v=0.5).n_jumps == 4

    def test_increment_must_divide_top_speed(self):
        with pytest.raises(ConfigurationError):
            ModelParams(delta_v=0.3)

    @pytest.mark.parametrize("field", ["v_max", "rho_max", "eta"])
    def test_positivity(self, field):
        with pytest.raises(ConfigurationError):
            ModelParams(**{field: 0.0})

    @pytest.mark.parametrize("value", [math.nan, math.inf])
    @pytest.mark.parametrize("field", ["v_max", "rho_max", "eta"])
    def test_non_finite_values_are_refused(self, field, value):
        # rho_max=nan once gave P = nan, eta=inf a diagram of flagged
        # samples, and v_max=inf an OverflowError
        with pytest.raises(ConfigurationError, match="must be finite and positive"):
            ModelParams(**{field: value})

    def test_increment_above_top_speed_rejected(self):
        with pytest.raises(ConfigurationError):
            ModelParams(delta_v=2.0)


class TestPowerLaw:
    def test_empty_road(self):
        assert evaluate_probability(PowerLaw(1.0), 0.0, PARAMS) == 1.0

    def test_jammed_road(self):
        assert evaluate_probability(PowerLaw(1.0), 1.0, PARAMS) == 0.0

    def test_linear_case(self):
        assert evaluate_probability(PowerLaw(1.0), 0.3, PARAMS) == pytest.approx(0.7, abs=1e-15)

    def test_exponent_domain(self):
        for bad in (0.0, -0.5, 1.5):
            with pytest.raises(ConfigurationError):
                PowerLaw(bad)
        PowerLaw(1.0)  # closed top end is allowed

    def test_density_domain(self):
        for bad in (-0.1, 1.1):
            with pytest.raises(ConfigurationError):
                evaluate_probability(PowerLaw(1.0), bad, PARAMS)

    @pytest.mark.parametrize("law", [PowerLaw(0.5), CustomLaw([(0.0, 1.0), (1.0, 0.0)])])
    @pytest.mark.parametrize("rho", [math.nan, [0.2, math.nan, 0.4]])
    def test_nan_density_is_a_domain_error(self, law, rho):
        # every comparison with NaN is false, so a check that rho is below 0
        # or above rho_max lets it through, and P comes back as nan
        with pytest.raises(ConfigurationError):
            evaluate_probability(law, rho, PARAMS)

    @pytest.mark.parametrize("law", [PowerLaw(0.5), CustomLaw([(0.0, 1.0), (1.0, 0.0)])])
    def test_finite_densities_keep_their_bits(self, law):
        rho = np.array([0.0, 0.2, 0.49, 1.0, 1.0 + 1e-13])
        expected = np.clip(law._evaluate(rho, PARAMS.rho_max), 0.0, 1.0)
        assert evaluate_probability(law, rho, PARAMS).tobytes() == expected.tobytes()
        assert [evaluate_probability(law, float(x), PARAMS) for x in rho] == list(expected)

    @pytest.mark.parametrize("gamma", [1.0, 0.75, 0.5, 1.0 / 3.0, 0.05])
    @pytest.mark.parametrize("rho_max", [1.0, 0.7, 133.0])
    def test_scalar_calls_keep_the_array_bits(self, gamma, rho_max):
        # a scalar goes through Python floats, a 0-d array through numpy;
        # both take the C library's pow.  (A longer array may take numpy's
        # vectorised pow, which rounds some powers one ulp apart.)
        params = ModelParams(rho_max=rho_max)
        law = PowerLaw(gamma)
        top = rho_max * (1 + 1e-12)  # the last density the check lets through
        rho = np.r_[np.linspace(0.0, rho_max, 2001),
                    5e-324, 1e-300, np.nextafter(rho_max, 0.0), rho_max, top]
        arrays = [evaluate_probability(law, np.asarray(x), params) for x in rho]
        for scalar in (float, np.float64):
            got = [evaluate_probability(law, scalar(x), params) for x in rho.tolist()]
            assert all(type(p) is float for p in got + arrays)
            assert np.array(got).tobytes() == np.array(arrays).tobytes()
        for bad in (-5e-324, np.nextafter(top, math.inf), math.nan):
            with pytest.raises(ConfigurationError, match="outside"):
                evaluate_probability(law, bad, params)
            with pytest.raises(ConfigurationError, match="outside"):
                evaluate_probability(law, np.array([bad]), params)

    def test_unnormalized_density_scale(self):
        params = ModelParams(rho_max=133.0, delta_v=0.25)
        assert evaluate_probability(PowerLaw(1.0), 66.5, params) == pytest.approx(0.5)

    @given(
        gamma=st.floats(0.05, 1.0),
        x=st.floats(0.0, 1.0),
        y=st.floats(0.0, 1.0),
    )
    def test_bounded_and_non_increasing(self, gamma, x, y):
        law = PowerLaw(gamma)
        lo, hi = sorted((x, y))
        p_lo = evaluate_probability(law, lo, PARAMS)
        p_hi = evaluate_probability(law, hi, PARAMS)
        assert 0.0 <= p_hi <= p_lo <= 1.0


class TestCriticalDensity:
    @pytest.mark.parametrize(
        "gamma,expected", [(1.0, 0.5), (0.5, 0.25), (0.25, 0.0625)]
    )
    def test_power_law_closed_form(self, gamma, expected):
        assert critical_density(PowerLaw(gamma), PARAMS) == pytest.approx(expected, abs=1e-15)

    @given(gamma=st.floats(0.1, 1.0))
    def test_round_trip_hits_one_half(self, gamma):
        law = PowerLaw(gamma)
        rho_c = critical_density(law, PARAMS)
        assert abs(evaluate_probability(law, rho_c, PARAMS) - 0.5) <= 1e-12

    def test_custom_law_bisection(self):
        law = CustomLaw([(0.0, 1.0), (0.4, 0.8), (0.8, 0.2), (1.0, 0.0)])
        rho_c = critical_density(law, PARAMS)
        # linear stretch from (0.4, 0.8) to (0.8, 0.2) crosses 1/2 at 0.6
        assert rho_c == pytest.approx(0.6, abs=1e-12)

    def test_custom_law_without_transition(self):
        law = CustomLaw([(0.0, 1.0), (1.0, 0.75)])
        assert critical_density(law, PARAMS) is None


class TestCustomLaw:
    def test_interpolates_between_points(self):
        law = CustomLaw([(0.0, 1.0), (0.5, 0.6), (1.0, 0.0)])
        assert evaluate_probability(law, 0.25, PARAMS) == pytest.approx(0.8)

    def test_rejects_increasing_probabilities(self):
        with pytest.raises(ConfigurationError):
            CustomLaw([(0.0, 0.5), (1.0, 0.9)])

    def test_rejects_unsorted_densities(self):
        with pytest.raises(ConfigurationError):
            CustomLaw([(0.5, 0.8), (0.2, 0.9), (1.0, 0.0)])

    def test_rejects_probability_out_of_range(self):
        with pytest.raises(ConfigurationError):
            CustomLaw([(0.0, 1.2), (1.0, 0.0)])

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_rejects_non_finite_densities(self, bad):
        # no comparison holds for NaN, so the ordering check alone passes it
        with pytest.raises(ConfigurationError, match="rho values must be finite"):
            CustomLaw([(0.0, 1.0), (bad, 0.5), (1.0, 0.0)])

    def test_table_must_cover_density_range(self):
        law = CustomLaw([(0.2, 0.9), (1.0, 0.1)])
        with pytest.raises(ConfigurationError):
            evaluate_probability(law, 0.5, PARAMS)
