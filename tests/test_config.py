"""Run configuration: ratio parsing, grid resolution, initial states.

Covers the YAML loader's override semantics, the four-way grid resolver
(N, dv, r, T), and every initial-condition builder including the
perturbed-equilibrium kind used for stability experiments.
"""
from fractions import Fraction

import numpy as np
import pytest
import yaml

from kinetic_traffic import (
    ConfigurationError,
    CustomLaw,
    Kernel,
    PowerLaw,
    VelocityGrid,
    build_grid,
    closed_form_equilibrium,
    equilibrium_on_grid,
)
from kinetic_traffic.config import (
    InitialCondition,
    build_initial_state,
    load_config,
    parse_ratio,
)


class TestParseRatio:
    def test_accepted_spellings(self):
        assert parse_ratio("7/2") == Fraction(7, 2)
        assert parse_ratio("3.5") == Fraction(7, 2)
        assert parse_ratio("4") == Fraction(4)
        assert parse_ratio(4) == Fraction(4)
        assert parse_ratio(4.0) == Fraction(4)
        assert parse_ratio(Fraction(14, 3)) == Fraction(14, 3)

    @pytest.mark.parametrize("bad", ["three", "1/0", 0, -2, "0", None])
    def test_rejected_values(self, bad):
        with pytest.raises(ConfigurationError):
            parse_ratio(bad)


class TestGridResolution:
    def test_ratio_and_jumps(self):
        cfg = load_config(overrides={"r": 2, "T": 4})
        assert cfg.ratio == Fraction(2)
        assert cfg.params.n_jumps == 4
        assert cfg.params.delta_v == pytest.approx(0.25)

    def test_cells_and_ratio(self):
        cfg = load_config(overrides={"N": 13, "r": 4})
        assert cfg.params.n_jumps == 3

    def test_cells_and_jumps(self):
        cfg = load_config(overrides={"N": 13, "T": 3})
        assert cfg.ratio == Fraction(4)

    def test_width_and_ratio(self):
        cfg = load_config(overrides={"dv": 0.125, "r": 2})
        assert cfg.params.n_jumps == 4

    def test_width_and_jumps(self):
        cfg = load_config(overrides={"dv": 1 / 12, "T": 3})
        assert cfg.ratio == Fraction(4)

    def test_jumps_alone_leaves_ratio_open(self):
        cfg = load_config(overrides={"T": 3})
        assert cfg.ratio is None
        with pytest.raises(ConfigurationError):
            cfg.require_ratio()

    def test_conflicting_cell_count(self):
        with pytest.raises(ConfigurationError):
            load_config(overrides={"N": 13, "r": 4, "T": 4})

    def test_conflicting_cell_width(self):
        with pytest.raises(ConfigurationError):
            load_config(overrides={"dv": 0.3, "r": 1, "T": 3})

    def test_fractional_jump_count(self):
        with pytest.raises(ConfigurationError):
            load_config(overrides={"N": 14, "r": 4})

    def test_cells_and_width_only_pin_the_product(self):
        with pytest.raises(ConfigurationError):
            load_config(overrides={"N": 13, "dv": 1 / 12})

    def test_underdetermined(self):
        with pytest.raises(ConfigurationError):
            load_config(overrides={"r": 4})
        with pytest.raises(ConfigurationError):
            load_config()

    def test_resolved_grid_matches_builder(self):
        cfg = load_config(overrides={"r": "14/3", "T": 3})
        grid, ratio = build_grid(cfg.params, cfg.ratio)
        assert grid.n_cells == 15
        assert ratio.fraction == Fraction(14, 3)


class TestLawsAndValidation:
    def test_power_law_from_gamma(self):
        cfg = load_config(overrides={"T": 3, "gamma": 0.5})
        assert isinstance(cfg.law, PowerLaw)
        assert cfg.law.gamma == 0.5

    def test_custom_law_from_table(self):
        cfg = load_config(
            overrides={"T": 3, "law": [[0.0, 1.0], [0.5, 0.6], [1.0, 0.0]]}
        )
        assert isinstance(cfg.law, CustomLaw)

    def test_gamma_and_table_conflict(self):
        with pytest.raises(ConfigurationError):
            load_config(
                overrides={"T": 3, "gamma": 1.0, "law": [[0.0, 1.0], [1.0, 0.0]]}
            )

    def test_density_bounds(self):
        with pytest.raises(ConfigurationError):
            load_config(overrides={"T": 3, "rho": 1.5})

    def test_worker_count(self):
        with pytest.raises(ConfigurationError):
            load_config(overrides={"T": 3, "workers": 0})

    def test_kernel_spelling(self):
        cfg = load_config(overrides={"T": 3, "kernel": "CHI"})
        assert cfg.params.kernel is Kernel.CHI


class TestYamlRoundTrip:
    def test_file_plus_overrides(self, tmp_path):
        doc = {
            "kernel": "delta",
            "gamma": 1.0,
            "rho": 0.6,
            "T": 3,
            "r": 2,
            "initial_condition": {"kind": "congested", "epsilon": 0.1},
            "integrator": {"t_end": 25.0, "residual_tol": 1e-9},
            "output": {"directory": "out/demo", "prefix": "demo"},
            "diagram": {
                "rho_grid": {"start": 0.1, "stop": 0.9, "count": 5},
                "ratios": [1, "inf"],
            },
            "convergence": {"rho_set": [0.2, 0.8], "ratios": [1, 2]},
            "workers": 2,
        }
        path = tmp_path / "run.yaml"
        path.write_text(yaml.safe_dump(doc))
        cfg = load_config(path, overrides={"rho": 0.4, "eta": None})
        assert cfg.rho == 0.4  # override wins, None override ignored
        assert cfg.params.eta == 1.0
        assert cfg.initial.kind == "congested"
        assert cfg.integrator.t_end == 25.0
        assert cfg.output.prefix == "demo"
        assert cfg.diagram.rho_grid == pytest.approx(np.linspace(0.1, 0.9, 5))
        assert cfg.diagram.ratios[1] == float("inf")
        assert cfg.workers == 2

    def test_section_overrides_merge_key_by_key(self, tmp_path):
        path = tmp_path / "run.yaml"
        path.write_text(
            "T: 3\nr: 2\ninitial_condition: congested\n"
            "integrator: {t_end: 25.0, residual_tol: 1.0e-9}\n"
            "diagram: {rho_grid: [0.3], kink_threshold: 0.5}\n"
        )
        cfg = load_config(path, overrides={
            "initial_condition": {"epsilon": 0.1, "cell": None},
            "integrator": {"t_end": 5.0, "step": None},
            "diagram": {"rho_grid": [0.4, 0.6], "ratios": None},
        })
        assert (cfg.initial.kind, cfg.initial.epsilon) == ("congested", 0.1)
        assert (cfg.integrator.t_end, cfg.integrator.residual_tol) == (5.0, 1e-9)
        assert cfg.diagram.rho_grid == (0.4, 0.6)
        assert cfg.diagram.kink_threshold == 0.5

    def test_density_count_defaults_to_the_full_range(self):
        cfg = load_config(overrides={
            "T": 3, "rho_max": 2.0, "diagram": {"rho_grid": {"count": 3}},
        })
        assert cfg.diagram.rho_grid == tuple(np.linspace(0.01, 2.0, 3))
        cfg = load_config(overrides={
            "T": 3, "convergence": {"rho_set": {"count": 2, "start": 0.5}},
        })
        assert cfg.convergence.rho_set == (0.5, 1.0)

    @pytest.mark.parametrize("section,default", [
        ("diagram", (1.0,)), ("convergence", (1.0, 2.0)),
    ])
    def test_ratios_default_to_the_run_ratio(self, section, default):
        with_r = load_config(overrides={"T": 4, "r": 20, section: {}})
        assert getattr(with_r, section).ratios == (20.0,)
        without_r = load_config(overrides={"T": 4, section: {}})
        assert getattr(without_r, section).ratios == default
        given = load_config(overrides={"T": 4, "r": 20, section: {"ratios": [3]}})
        assert getattr(given, section).ratios == (3.0,)

    def test_convergence_workers_key_is_rejected(self, tmp_path):
        path = tmp_path / "run.yaml"
        path.write_text("T: 3\nconvergence: {rho_set: [0.3], workers: 2}\n")
        with pytest.raises(ConfigurationError, match="top level"):
            load_config(path)

    @pytest.mark.parametrize("overrides", [
        {"kernel": "foo"},
        {"eta": "abc"},
        {"r": float("nan")},
        {"r": float("inf")},
        {"dv": 0.0},
        {"dv": float("nan")},
        {"N": "many"},
        {"integrator": 5},
        {"output": "out"},
        {"integrator": {"t_end": "soon"}},
        {"initial_condition": {"masses": 3}},
        {"diagram": {"rho_grid": [0.3, "abc"]}},
        {"diagram": {"rho_grid": {"start": 0.1}}},
        {"diagram": {"ratios": 2}},
        {"law": [[0.0, 1.0], [1.0]]},
    ])
    def test_malformed_values_are_configuration_errors(self, overrides):
        with pytest.raises(ConfigurationError):
            load_config(overrides={"T": 3, **overrides})

    def test_shipped_example_parses(self):
        cfg = load_config("configs/equilibrium_refined.yaml")
        assert cfg.rho == 0.6
        assert cfg.ratio == Fraction(8)
        assert cfg.params.n_jumps == 3
        assert cfg.initial.kind == "uniform"

    def test_non_mapping_file_rejected(self, tmp_path):
        path = tmp_path / "bad.yaml"
        path.write_text("- just\n- a\n- list\n")
        with pytest.raises(ConfigurationError):
            load_config(path)


class TestStrictReading:
    @pytest.mark.parametrize("overrides,key", [
        ({"integrator": {"t_ned": 5}}, "integrator.t_ned"),
        ({"rhoo": 0.3}, "rhoo"),
        ({"output": {"dir": "out"}}, "output.dir"),
        ({"initial_condition": {"kind": "uniform", "eps": 0.1}}, "initial_condition.eps"),
        ({"diagram": {"ratio": [1]}}, "diagram.ratio"),
        ({"convergence": {"rho_sets": [0.3]}}, "convergence.rho_sets"),
        ({"diagram": {"rho_grid": {"count": 3, "end": 0.5}}}, "end"),
        ({"law": {"points": [[0.0, 1.0], [1.0, 0.0]], "kind": "table"}}, "law.kind"),
    ])
    def test_unknown_keys_are_named(self, overrides, key):
        with pytest.raises(ConfigurationError, match=f"unknown key {key}"):
            load_config(overrides={"T": 3, **overrides})

    def test_misspelt_keys_from_a_file(self, tmp_path):
        path = tmp_path / "run.yaml"
        path.write_text("T: 3\nr: 2\nintegrator: {t_ned: 5}\n")
        with pytest.raises(ConfigurationError, match="integrator.t_ned"):
            load_config(path)
        path.write_text("T: 3\nr: 2\nrhoo: 0.3\n")
        with pytest.raises(ConfigurationError, match="rhoo"):
            load_config(path)

    @pytest.mark.parametrize("value", ["false", "true", 0, 1])
    def test_insert_critical_takes_only_booleans(self, value):
        with pytest.raises(ConfigurationError, match="diagram.insert_critical"):
            load_config(overrides={"T": 3, "diagram": {"insert_critical": value}})
        cfg = load_config(overrides={"T": 3, "diagram": {"insert_critical": False}})
        assert cfg.diagram.insert_critical is False

    @pytest.mark.parametrize("overrides,key", [
        ({"T": 3.7}, "T"),
        ({"N": 7.5}, "N"),
        ({"T": True}, "T"),
        ({"T": "3"}, "T"),
        ({"initial_condition": {"cell": 1.5}}, "initial_condition.cell"),
        ({"workers": 2.5}, "workers"),
        ({"diagram": {"rho_grid": {"count": 4.5}}}, "diagram.rho_grid"),
    ])
    def test_integer_keys_take_only_integers(self, overrides, key):
        base = {"T": 3, **overrides}
        with pytest.raises(ConfigurationError, match=f"{key}: expected an integer"):
            load_config(overrides=base)

    def test_integral_floats_are_integers(self):
        cfg = load_config(overrides={"T": 3.0, "r": 2, "workers": 2.0})
        assert (cfg.params.n_jumps, cfg.workers) == (3, 2)


class TestInitialStates:
    def make_cfg(self, **overrides):
        base = {"T": 3, "r": 2, "rho": 0.6}
        base.update(overrides)
        return load_config(overrides=base)

    def grid(self):
        return VelocityGrid(n_cells=7, v_max=1.0)

    def test_uniform(self):
        f = build_initial_state(self.make_cfg(), self.grid())
        assert f == pytest.approx(np.full(7, 0.6 / 7))

    def test_all_at_rest(self):
        cfg = self.make_cfg(initial_condition="all-at-rest")
        f = build_initial_state(cfg, self.grid())
        assert f[0] == 0.6 and not np.any(f[1:])

    def test_congested(self):
        cfg = self.make_cfg(initial_condition={"kind": "congested", "epsilon": 0.2})
        f = build_initial_state(cfg, self.grid())
        assert f[-1] == pytest.approx(0.6 * 0.8)
        assert f[:-1] == pytest.approx(np.full(6, 0.6 * 0.2 / 6))
        assert f.sum() == pytest.approx(0.6)

    def test_custom(self):
        masses = [0.1, 0.0, 0.2, 0.0, 0.1, 0.0, 0.2]
        cfg = self.make_cfg(
            initial_condition={"kind": "custom", "masses": masses}
        )
        assert build_initial_state(cfg, self.grid()) == pytest.approx(masses)

    def test_custom_validation(self):
        bad_len = self.make_cfg(
            initial_condition={"kind": "custom", "masses": [0.3, 0.3]}
        )
        with pytest.raises(ConfigurationError):
            build_initial_state(bad_len, self.grid())
        bad_sum = self.make_cfg(
            initial_condition={"kind": "custom", "masses": [0.1] * 7}
        )
        with pytest.raises(ConfigurationError):
            build_initial_state(bad_sum, self.grid())

    def test_negative_custom_mass(self):
        with pytest.raises(ConfigurationError):
            build_initial_state(
                self.make_cfg(
                    initial_condition={
                        "kind": "custom",
                        "masses": [0.7, -0.1, 0.0, 0.0, 0.0, 0.0, 0.0],
                    }
                ),
                self.grid(),
            )

    def test_equilibrium_with_perturbation(self):
        cfg = self.make_cfg(
            initial_condition={"kind": "equilibrium", "epsilon": 1e-3, "cell": 1}
        )
        f = build_initial_state(cfg, self.grid())
        ref = equilibrium_on_grid(closed_form_equilibrium(0.6, 0.4, 3), 2).masses
        assert f[0] == pytest.approx(ref[0] + 1e-3)
        assert f[1:] == pytest.approx(ref[1:])

    def test_equilibrium_perturbation_guards(self):
        too_negative = self.make_cfg(
            initial_condition={"kind": "equilibrium", "epsilon": -1.0, "cell": 1}
        )
        with pytest.raises(ConfigurationError):
            build_initial_state(too_negative, self.grid())
        beyond = self.make_cfg(
            initial_condition={"kind": "equilibrium", "cell": 99}
        )
        with pytest.raises(ConfigurationError):
            build_initial_state(beyond, self.grid())

    def test_equilibrium_needs_the_jump_kernel(self):
        cfg = self.make_cfg(kernel="chi", initial_condition="equilibrium")
        with pytest.raises(ConfigurationError):
            build_initial_state(cfg, self.grid())

    def test_equilibrium_needs_integer_ratio(self):
        cfg = load_config(
            overrides={
                "T": 2,
                "r": "7/2",
                "rho": 0.6,
                "initial_condition": "equilibrium",
            }
        )
        with pytest.raises(ConfigurationError):
            build_initial_state(cfg, VelocityGrid(n_cells=8, v_max=1.0))

    def test_kind_validation(self):
        with pytest.raises(ConfigurationError):
            InitialCondition(kind="gaussian")
        with pytest.raises(ConfigurationError):
            InitialCondition(kind="congested", epsilon=1.5)
        with pytest.raises(ConfigurationError):
            InitialCondition(kind="custom")
        with pytest.raises(ConfigurationError):
            InitialCondition(cell=0)
