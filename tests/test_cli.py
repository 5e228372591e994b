"""Command-line interface: outputs, determinism, exit codes.

Every data file must be byte-identical across reruns of the same
configuration; wall-clock details are confined to the JSON manifest.
"""
import argparse
import json

import numpy as np
import pytest
import yaml

from kinetic_traffic import (
    banded_equilibrium,
    build_grid,
    build_tensor,
    cli,
    evaluate_probability,
)
from kinetic_traffic.cli import main
from kinetic_traffic.config import load_config


def run(tmp_path, *argv):
    return main([*argv, "--out", str(tmp_path)])


def read_csv(path):
    lines = path.read_text().strip().splitlines()
    header = lines[0].split(",")
    rows = [line.split(",") for line in lines[1:]]
    return header, rows


class TestSimulate:
    def test_trajectory_output(self, tmp_path):
        code = run(
            tmp_path, "simulate", "--rho", "0.6", "--T", "3", "--r", "2",
            "--t-end", "10", "--prefix", "sim",
        )
        assert code == 0
        header, rows = read_csv(tmp_path / "sim_trajectory.csv")
        assert header == ["t"] + [f"f_{j}" for j in range(1, 8)] + ["u", "residual"]
        assert float(rows[0][0]) == 0.0
        assert float(rows[-1][0]) == 10.0
        for row in rows:
            masses = np.array([float(x) for x in row[1:8]])
            assert masses.sum() == pytest.approx(0.6, abs=1e-9)
        manifest = json.loads((tmp_path / "sim_manifest.json").read_text())
        assert manifest["command"] == "simulate"
        assert manifest["stored_states"] == len(rows)
        assert str(tmp_path / "sim_trajectory.csv") in manifest["outputs"]

    def test_reruns_are_byte_identical(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            code = main([
                "simulate", "--rho", "0.5", "--T", "3", "--r", "1",
                "--t-end", "5", "--out", str(out),
            ])
            assert code == 0
        assert (a / "run_trajectory.csv").read_bytes() == (
            b / "run_trajectory.csv"
        ).read_bytes()

    def test_vacuum_road_is_a_constant_zero(self, tmp_path):
        code = run(tmp_path, "simulate", "--rho", "0", "--T", "3", "--r", "1")
        assert code == 0
        _, rows = read_csv(tmp_path / "run_trajectory.csv")
        assert len(rows) == 2
        for row in rows:
            assert all(float(x) == 0.0 for x in row[1:])

    def test_custom_masses_on_an_empty_road_are_refused(self, tmp_path, capsys):
        path = tmp_path / "run.yaml"
        path.write_text(
            "kernel: delta\nrho: 0\nT: 2\nr: 1\n"
            "initial_condition: {kind: custom, masses: [0.1, 0.2, 0.3]}\n"
        )
        assert run(tmp_path, "simulate", "--config", str(path)) == 2
        assert "declared rho is 0.0" in capsys.readouterr().err
        assert not (tmp_path / "run_trajectory.csv").exists()


class TestEquilibrium:
    @pytest.mark.parametrize("r", [1, 2])
    def test_oracle_columns_for_the_jump_kernel(self, tmp_path, r):
        code = run(
            tmp_path, "equilibrium", "--rho", "0.6", "--T", "3", "--r", str(r),
        )
        assert code == 0
        header, rows = read_csv(tmp_path / "run_equilibrium.csv")
        assert header == ["cell", "speed", "oracle", "ode", "difference"]
        assert len(rows) == 3 * r + 1
        diffs = [abs(float(r[4])) for r in rows]
        assert max(diffs) <= 1e-9
        manifest = json.loads((tmp_path / "run_manifest.json").read_text())
        assert manifest["max_oracle_difference"] <= 1e-9
        assert manifest["terminal_residual"] <= 1e-10

    def test_free_flow_oracle_concentrates_at_the_top(self, tmp_path):
        code = run(
            tmp_path, "equilibrium", "--rho", "0.3", "--T", "3", "--r", "1",
        )
        assert code == 0
        _, rows = read_csv(tmp_path / "run_equilibrium.csv")
        oracle = [float(r[2]) for r in rows]
        assert oracle == [0.0, 0.0, 0.0, 0.3]

    @pytest.mark.parametrize("kernel,r", [("chi", "4"), ("delta", "14/3")])
    def test_band_chain_oracle_without_a_closed_form(self, tmp_path, kernel, r):
        # the spread kernel has no closed form, and at r = 14/3 the jump
        # kernel's closed-form masses fall between cells; the oracle is then
        # the band chain
        code = run(
            tmp_path, "equilibrium", "--kernel", kernel, "--rho", "0.6",
            "--T", "3", "--r", r,
        )
        assert code == 0
        header, rows = read_csv(tmp_path / "run_equilibrium.csv")
        assert header == ["cell", "speed", "oracle", "ode", "difference"]
        cfg = load_config(overrides={"kernel": kernel, "rho": 0.6, "T": 3, "r": r})
        grid, ratio = build_grid(cfg.params, cfg.ratio)
        p = evaluate_probability(cfg.law, 0.6, cfg.params)
        chain = banded_equilibrium(build_tensor(cfg.params.kernel, grid, ratio, p), 0.6)
        assert [float(row[2]) for row in rows] == chain.masses.tolist()
        manifest = json.loads((tmp_path / "run_manifest.json").read_text())
        assert "note" not in manifest
        assert manifest["max_oracle_difference"] <= 1e-9

    def test_starved_bottom_stays_empty_and_meets_the_reference(self, tmp_path):
        # a start with cells 1-3 empty keeps them empty under exact dynamics;
        # the march runs on cells 4-13 alone and ends on the shifted chain
        path = tmp_path / "run.yaml"
        path.write_text(yaml.safe_dump({
            "kernel": "chi", "T": 2, "r": 6, "rho": 0.6,
            "initial_condition": {"kind": "custom", "masses": [0, 0, 0] + [0.06] * 10},
        }))
        code = run(tmp_path, "equilibrium", "--config", str(path), "--t-max", "1e7")
        assert code == 0
        _, rows = read_csv(tmp_path / "run_equilibrium.csv")
        assert [float(row[2]) for row in rows[:3]] == [0.0, 0.0, 0.0]
        assert [float(row[3]) for row in rows[:3]] == [0.0, 0.0, 0.0]
        assert float(rows[3][2]) == pytest.approx(0.23333, abs=1e-5)
        manifest = json.loads((tmp_path / "run_manifest.json").read_text())
        assert manifest["max_oracle_difference"] <= 1e-12

    def test_near_critical_spread_sample_meets_the_chain(self, tmp_path):
        # the former LSODA march dipped to -1.737e-9 here and exited 3
        code = run(
            tmp_path, "equilibrium", "--kernel", "chi", "--rho", "0.49",
            "--T", "2", "--r", "20",
        )
        assert code == 0
        _, rows = read_csv(tmp_path / "run_equilibrium.csv")
        assert min(float(row[3]) for row in rows) >= 0.0
        manifest = json.loads((tmp_path / "run_manifest.json").read_text())
        assert manifest["max_oracle_difference"] <= 1e-10

    @pytest.mark.parametrize("kernel", ["delta", "chi"])
    def test_empty_road_has_an_all_zero_oracle(self, tmp_path, kernel):
        code = run(
            tmp_path, "equilibrium", "--kernel", kernel, "--rho", "0",
            "--T", "3", "--r", "2",
        )
        assert code == 0
        _, rows = read_csv(tmp_path / "run_equilibrium.csv")
        assert len(rows) == 7
        assert all(float(x) == 0.0 for row in rows for x in row[2:])
        manifest = json.loads((tmp_path / "run_manifest.json").read_text())
        assert manifest["max_oracle_difference"] == 0.0

    def test_top_cell_start_stays_at_the_top(self, tmp_path):
        # congested with the default epsilon 0 fills only the top cell,
        # which is already a fixed point; the closed form is not its oracle
        code = run(
            tmp_path, "equilibrium", "--rho", "0.6", "--T", "3", "--r", "2",
            "--ic", "congested",
        )
        assert code == 0
        _, rows = read_csv(tmp_path / "run_equilibrium.csv")
        assert [float(row[2]) for row in rows] == [0.0] * 6 + [0.6]
        manifest = json.loads((tmp_path / "run_manifest.json").read_text())
        assert manifest["max_oracle_difference"] == 0.0


class TestDiagram:
    def test_single_density_single_row(self, tmp_path):
        code = run(
            tmp_path, "diagram", "--T", "4", "--rho-list", "0.3",
            "--ratios", "1", "--no-insert-critical",
        )
        assert code == 0
        header, rows = read_csv(tmp_path / "run_diagram.csv")
        assert header == ["rho", "flux", "u", "kernel", "T", "r", "gamma", "converged"]
        assert len(rows) == 1
        rho, flux = float(rows[0][0]), float(rows[0][1])
        assert rho == 0.3
        assert flux == pytest.approx(0.3 * (1 - 0.25 / 4), abs=1e-10)
        assert rows[0][7] == "1"

    def test_empty_density_grid_is_refused(self, tmp_path, capsys):
        assert run(tmp_path, "diagram", "--T", "4", "--no-insert-critical") == 2
        message = "configuration error: diagram needs a non-empty density grid"
        assert message in capsys.readouterr().err
        assert not (tmp_path / "run_diagram.csv").exists()

    def test_critical_density_samples_inserted_by_default(self, tmp_path):
        code = run(
            tmp_path, "diagram", "--T", "4", "--rho-list", "0.3", "--ratios", "1",
        )
        assert code == 0
        _, rows = read_csv(tmp_path / "run_diagram.csv")
        rhos = sorted(float(r[0]) for r in rows)
        assert rhos == pytest.approx([0.3, 0.5 - 1e-6, 0.5 + 1e-6])

    def test_summary_reports_the_transition(self, tmp_path):
        code = run(
            tmp_path, "diagram", "--T", "4",
            "--rho-list", "0.1,0.3,0.45,0.49,0.55,0.7,0.9", "--ratios", "1",
        )
        assert code == 0
        summary = json.loads((tmp_path / "run_summary.json").read_text())
        assert len(summary) == 1
        bracket = summary[0]["critical_density_bracket"]
        assert bracket[0] < 0.5 < bracket[1]
        assert summary[0]["all_converged"] is True

    def test_near_critical_spread_sweep_converges(self, tmp_path):
        # includes rho=0.49 at r=20, where a march from the uniform start
        # dips below the negativity floor
        code = run(
            tmp_path, "diagram", "--kernel", "chi", "--T", "2",
            "--rho-count", "30", "--ratios", "1,20",
        )
        assert code == 0
        summary = json.loads((tmp_path / "run_summary.json").read_text())
        assert [s["all_converged"] for s in summary] == [True, True]
        _, rows = read_csv(tmp_path / "run_diagram.csv")
        assert len(rows) == 2 * 32  # 30 densities plus two around rho_c
        assert all(row[7] == "1" for row in rows)

    def test_no_t_max_flag(self, tmp_path, capsys):
        # spread samples are solved without a march, so nothing reads it
        with pytest.raises(SystemExit) as exc:
            run(tmp_path, "diagram", "--T", "2", "--t-max", "100")
        assert exc.value.code == 2
        assert "--t-max" in capsys.readouterr().err

    @pytest.mark.parametrize("command,argv,flag", [
        ("diagram", ["--rho", "0.7"], "--rho"),
        ("diagram", ["--ic", "all-at-rest"], "--ic"),
        ("convergence", ["--rho", "0.7"], "--rho"),
    ])
    def test_unread_shared_flags_are_refused(self, tmp_path, capsys, command, argv, flag):
        # diagram reads no density or start; convergence takes its densities
        # from --rho-set.  argparse calls --rho an ambiguous prefix there
        with pytest.raises(SystemExit) as exc:
            run(tmp_path, command, "--T", "2", *argv)
        assert exc.value.code == 2
        assert flag in capsys.readouterr().err

    @pytest.mark.parametrize("yaml_text,key", [
        ("rho: 0.7", "rho"),
        ("initial_condition: {kind: all-at-rest}", "initial_condition"),
        ("initial_condition: uniform", "initial_condition"),
        ("integrator: {t_max: 5}", "integrator.t_max"),
    ])
    def test_unread_yaml_keys_are_refused(self, tmp_path, capsys, yaml_text, key):
        path = tmp_path / "run.yaml"
        path.write_text(f"T: 4\ndiagram: {{rho_grid: [0.3]}}\n{yaml_text}\n")
        assert run(tmp_path, "diagram", "--config", str(path)) == 2
        message = f"configuration error: {key}: the diagram command does not read this key"
        assert message in capsys.readouterr().err
        assert not (tmp_path / "run_diagram.csv").exists()

    def test_read_integrator_key_is_kept(self, tmp_path):
        path = tmp_path / "run.yaml"
        path.write_text("T: 4\ndiagram: {rho_grid: [0.3]}\nintegrator: {residual_tol: 1.0e-9}\n")
        assert run(tmp_path, "diagram", "--config", str(path)) == 0

    @pytest.mark.parametrize("argv,message", [
        (["--rho-start", "0.2", "--rho-stop", "0.6"],
         "a {start, stop, count} mapping needs a count"),
        (["--rho-list", "0.3", "--rho-count", "3"],
         "give --rho-list or --rho-start/stop/count, not both"),
    ])
    def test_half_given_density_grid_is_refused(self, tmp_path, capsys, argv, message):
        assert run(tmp_path, "diagram", "--T", "4", *argv) == 2
        assert message in capsys.readouterr().err
        assert not (tmp_path / "run_diagram.csv").exists()

    def test_fractional_jump_ratio_is_refused(self, tmp_path, capsys):
        code = run(
            tmp_path, "diagram", "--kernel", "delta", "--T", "4", "--rho-list", "0.3",
            "--ratios", "7/2",
        )
        assert code == 2
        assert "non-integer ratio grid is not defined" in capsys.readouterr().err
        assert not (tmp_path / "run_diagram.csv").exists()

    def test_infinite_ratio_rows(self, tmp_path):
        code = run(
            tmp_path, "diagram", "--T", "4", "--rho-list", "0.3",
            "--ratios", "inf", "--no-insert-critical",
        )
        assert code == 0
        _, rows = read_csv(tmp_path / "run_diagram.csv")
        assert rows[0][5] == "inf"
        assert float(rows[0][1]) == pytest.approx(0.3)

    def test_three_resolution_curves_in_one_sweep(self, tmp_path):
        # coarse, fine, and limiting curves side by side in one CSV
        code = run(
            tmp_path, "diagram", "--T", "4", "--rho-list", "0.2,0.6,0.9",
            "--ratios", "1,20,inf", "--no-insert-critical",
        )
        assert code == 0
        _, rows = read_csv(tmp_path / "run_diagram.csv")
        by_ratio = {}
        for row in rows:
            by_ratio.setdefault(row[5], []).append(float(row[1]))
        assert set(by_ratio) == {"1", "20", "inf"}
        assert all(len(v) == 3 for v in by_ratio.values())
        # finer grids waste less flux in the half-width boundary cells
        assert by_ratio["1"][0] < by_ratio["20"][0] < by_ratio["inf"][0]


class TestConvergence:
    def test_empty_density_set_is_refused(self, tmp_path, capsys):
        assert run(tmp_path, "convergence", "--T", "4") == 2
        message = "configuration error: convergence needs a non-empty density set and ratio list"
        assert message in capsys.readouterr().err
        assert not (tmp_path / "run_convergence.csv").exists()

    def test_run_density_key_is_refused(self, tmp_path, capsys):
        path = tmp_path / "run.yaml"
        path.write_text("T: 3\nrho: 0.7\nconvergence: {rho_set: [0.3], ratios: [1]}\n")
        assert run(tmp_path, "convergence", "--config", str(path)) == 2
        message = "configuration error: rho: the convergence command does not read this key"
        assert message in capsys.readouterr().err
        assert not (tmp_path / "run_convergence.csv").exists()

    def test_rate_rows(self, tmp_path):
        code = run(
            tmp_path, "convergence", "--T", "3", "--rho-set", "0.2,0.8",
            "--ratios", "1,2", "--fit-t-end", "200",
        )
        assert code == 0
        header, rows = read_csv(tmp_path / "run_convergence.csv")
        assert header == [
            "rho", "r", "delta_v", "rate",
            "window_lo", "window_hi", "fit_residual", "status",
        ]
        assert len(rows) == 4
        assert all(row[7] == "ok" for row in rows)
        congested = [row for row in rows if float(row[0]) == 0.8]
        for row in congested:
            assert float(row[3]) == pytest.approx(0.48, rel=1e-3)
        manifest = json.loads((tmp_path / "run_manifest.json").read_text())
        assert manifest["failed_rows"] == 0

    def test_refinement_barely_moves_the_rates(self, tmp_path):
        code = run(
            tmp_path, "convergence", "--T", "3",
            "--rho-set", "0.2,0.3,0.4,0.6,0.7,0.8", "--ratios", "1,2",
        )
        assert code == 0
        _, rows = read_csv(tmp_path / "run_convergence.csv")
        assert len(rows) == 12
        rates = {}
        for row in rows:
            rates.setdefault(float(row[0]), {})[float(row[1])] = float(row[3])
        for rho, by_r in rates.items():
            spread = abs(by_r[1.0] - by_r[2.0]) / by_r[1.0]
            assert spread < 0.05, (rho, by_r)

    def test_rows_are_density_major_from_one_march(self, tmp_path, monkeypatch):
        marches = []
        real = cli.integrate_many

        def counting(states, tensors, *args, **kwargs):
            marches.append(len(states))
            return real(states, tensors, *args, **kwargs)

        monkeypatch.setattr(cli, "integrate_many", counting)
        code = run(
            tmp_path, "convergence", "--T", "3", "--rho-set", "0.2,0.5,0.8",
            "--ratios", "1,2", "--fit-t-end", "100",
        )
        assert code == 0
        assert marches == [6]
        _, rows = read_csv(tmp_path / "run_convergence.csv")
        assert [(float(r[0]), float(r[1])) for r in rows] == [
            (rho, r) for rho in (0.2, 0.5, 0.8) for r in (1.0, 2.0)
        ]

    def test_a_failed_fit_is_reported_in_its_row(self, tmp_path):
        # each row starts on its own fixed point, so its distance series is zero
        code = run(
            tmp_path, "convergence", "--T", "3", "--rho-set", "0.3,0.6",
            "--ratios", "1", "--ic", "equilibrium",
        )
        assert code == 0
        _, rows = read_csv(tmp_path / "run_convergence.csv")
        assert [float(row[0]) for row in rows] == [0.3, 0.6]
        for row in rows:
            assert row[3:7] == ["nan"] * 4
            assert row[7] == "failed: distance series is identically zero; nothing to fit"
        manifest = json.loads((tmp_path / "run_manifest.json").read_text())
        assert manifest["failed_rows"] == 2

    def test_two_sample_fit_is_a_failed_row(self, tmp_path):
        # t_end=0.05 is one step at rho=0.3, so the series holds the start
        # and the end alone; a line through them would fit with residual 0
        code = run(
            tmp_path, "convergence", "--rho-set", "0.3", "--ratios", "1", "--T", "3",
            "--fit-t-end", "0.05",
        )
        assert code == 0
        _, rows = read_csv(tmp_path / "run_convergence.csv")
        assert len(rows) == 1
        assert rows[0][3:7] == ["nan"] * 4
        assert rows[0][7] == "failed: fit window [0.0 to 0.05] holds 2 samples"
        manifest = json.loads((tmp_path / "run_manifest.json").read_text())
        assert manifest["failed_rows"] == 1

    def test_spread_kernel_references_are_not_marched(self, tmp_path, monkeypatch):
        # no closed form exists for the spread kernel, so every density and
        # ratio gets the band chain as its reference, with no march
        solves = []
        real = cli.find_steady_state

        def counting(*args, **kwargs):
            solves.append(args[0].size)
            return real(*args, **kwargs)

        monkeypatch.setattr(cli, "find_steady_state", counting)
        code = run(
            tmp_path, "convergence", "--kernel", "chi", "--T", "2",
            "--rho-set", "0.3,0.7", "--ratios", "1,2",
        )
        assert code == 0
        assert solves == []
        _, rows = read_csv(tmp_path / "run_convergence.csv")
        assert [row[7] for row in rows] == ["ok"] * 4
        assert [float(row[3]) for row in rows] == pytest.approx(
            [0.01616, 0.02386, 0.3326, 0.3062], rel=1e-3
        )

    def test_empty_rest_cell_start_decays_to_the_shifted_chain(self, tmp_path):
        # the march ends on the ladder shifted up one cell, so the unshifted
        # closed form is no reference: against it the fit reads -5.34e-4
        path = tmp_path / "run.yaml"
        path.write_text(yaml.safe_dump({
            "initial_condition": {"kind": "custom", "masses": [0] + [0.1] * 6},
        }))
        code = run(
            tmp_path, "convergence", "--config", str(path), "--T", "3",
            "--rho-set", "0.6", "--ratios", "2",
        )
        assert code == 0
        _, rows = read_csv(tmp_path / "run_convergence.csv")
        assert len(rows) == 1 and rows[0][7] == "ok"
        assert float(rows[0][3]) == pytest.approx(0.12, abs=1e-3)

    def test_near_critical_spread_density_keeps_the_sweep(self, tmp_path):
        # a marched reference at rho=0.49, r=20 dips below the negativity
        # floor; the band chain has no march to fail
        code = run(
            tmp_path, "convergence", "--kernel", "chi", "--T", "2",
            "--rho-set", "0.3,0.49,0.5", "--ratios", "1,20",
        )
        assert code == 0
        _, rows = read_csv(tmp_path / "run_convergence.csv")
        assert [row[7] for row in rows] == ["ok"] * 6

    @pytest.mark.parametrize("kernel", ["delta", "chi"])
    def test_empty_road_is_a_failed_row(self, tmp_path, kernel):
        code = run(
            tmp_path, "convergence", "--kernel", kernel, "--T", "3",
            "--rho-set", "0,0.3", "--ratios", "1",
        )
        assert code == 0
        _, rows = read_csv(tmp_path / "run_convergence.csv")
        assert rows[0][7] == "failed: distance series is identically zero; nothing to fit"
        assert rows[1][7] == "ok"

    def test_removed_workers_flag_is_refused(self, tmp_path, capsys):
        # the YAML key is an unknown key, see TestExitCodes
        with pytest.raises(SystemExit) as exc:
            run(
                tmp_path, "convergence", "--T", "3", "--rho-set", "0.2,0.8", "--ratios", "1",
                "--workers", "2",
            )
        assert exc.value.code == 2
        assert "unrecognized arguments: --workers 2" in capsys.readouterr().err
        assert not (tmp_path / "run_convergence.csv").exists()


# (command, flags, section, key, value): each flag next to the YAML key it
# sets; section None is the top level.
FLAG_KEYS = [
    ("simulate", ["--kernel", "chi"], None, "kernel", "chi"),
    ("simulate", ["--gamma", "0.5"], None, "gamma", 0.5),
    ("simulate", ["--eta", "2"], None, "eta", 2.0),
    ("simulate", ["--rho", "0.3"], None, "rho", 0.3),
    ("simulate", ["-N", "9"], None, "N", 9),
    ("simulate", ["--dv", "0.125"], None, "dv", 0.125),
    ("simulate", ["--r", "14/3"], None, "r", "14/3"),
    ("simulate", ["--T", "5"], None, "T", 5),
    ("simulate", ["--v-max", "2"], None, "v_max", 2.0),
    ("simulate", ["--rho-max", "2"], None, "rho_max", 2.0),
    ("simulate", ["--out", "elsewhere"], "output", "directory", "elsewhere"),
    ("simulate", ["--prefix", "p"], "output", "prefix", "p"),
    ("simulate", ["--ic", "congested"], "initial_condition", "kind", "congested"),
    ("simulate", ["--ic-epsilon", "0.1"], "initial_condition", "epsilon", 0.1),
    ("simulate", ["--ic-cell", "2"], "initial_condition", "cell", 2),
    ("simulate", ["--t-end", "7"], "integrator", "t_end", 7.0),
    ("simulate", ["--step", "0.01"], "integrator", "step", 0.01),
    ("equilibrium", ["--residual-tol", "1e-9"], "integrator", "residual_tol", 1e-9),
    ("equilibrium", ["--t-max", "100"], "integrator", "t_max", 100.0),
    ("diagram", ["--rho-list", "0.2,0.4"], "diagram", "rho_grid", [0.2, 0.4]),
    ("diagram", ["--rho-count", "4"], "diagram", "rho_grid", {"count": 4}),
    ("diagram", ["--rho-count", "4", "--rho-start", "0.2"], "diagram", "rho_grid",
     {"count": 4, "start": 0.2}),
    ("diagram", ["--rho-count", "4", "--rho-stop", "0.5"], "diagram", "rho_grid",
     {"count": 4, "stop": 0.5}),
    ("diagram", ["--ratios", "1,inf"], "diagram", "ratios", [1, "inf"]),
    ("diagram", ["--no-insert-critical"], "diagram", "insert_critical", False),
    ("diagram", ["--kink-threshold", "0.3"], "diagram", "kink_threshold", 0.3),
    ("diagram", ["--residual-tol", "1e-9"], "integrator", "residual_tol", 1e-9),
    ("convergence", ["--rho-set", "0.2,0.8"], "convergence", "rho_set", [0.2, 0.8]),
    ("convergence", ["--ratios", "3"], "convergence", "ratios", [3]),
    ("convergence", ["--fit-t-end", "80"], "convergence", "t_end", 80.0),
]


class TestFlagsAreYamlKeys:
    BASE = {"T": 3, "r": 2, "rho": 0.5}

    def captured(self, monkeypatch, command, argv):
        seen = []
        monkeypatch.setattr(cli, f"_cmd_{command}", lambda cfg: seen.append(cfg) or 0)
        assert main([command, *argv]) == 0
        return seen[0]

    @pytest.mark.parametrize("command,flags,section,key,value", FLAG_KEYS)
    def test_flag_equals_its_yaml_key(
        self, tmp_path, monkeypatch, command, flags, section, key, value
    ):
        base = dict(self.BASE)
        if key in ("N", "dv"):
            del base["r"]  # N or dv plus T pins the grid
        if command in ("diagram", "convergence"):
            base[command] = {}  # a sweep command always runs with its section
            del base["rho"]  # and refuses a run density
        doc = {**base, key: value} if section is None else {**base, section: {key: value}}
        path = tmp_path / "run.yaml"
        path.write_text(yaml.safe_dump(doc))
        want = load_config(path)
        path.write_text(yaml.safe_dump(base))
        got = self.captured(monkeypatch, command, ["--config", str(path), *flags])
        assert got == want

    def test_flags_win_over_the_file_key_by_key(self, tmp_path, monkeypatch):
        path = tmp_path / "run.yaml"
        path.write_text(yaml.safe_dump({
            **self.BASE,
            "integrator": {"t_end": 9.0, "step": 0.05},
            "initial_condition": {"kind": "congested", "epsilon": 0.2},
        }))
        cfg = self.captured(
            monkeypatch, "simulate",
            ["--config", str(path), "--t-end", "3", "--ic-epsilon", "0.4"],
        )
        assert (cfg.integrator.t_end, cfg.integrator.step) == (3.0, 0.05)
        assert (cfg.initial.kind, cfg.initial.epsilon) == ("congested", 0.4)

    @pytest.mark.parametrize("command,default", [
        ("diagram", (1.0,)), ("convergence", (1.0, 2.0)),
    ])
    def test_ratios_default_to_the_run_ratio(self, tmp_path, monkeypatch, command, default):
        # one rule for flags and files: [r] when the run has r, else the default
        def ratios(*argv):
            return getattr(self.captured(monkeypatch, command, list(argv)), command).ratios

        assert ratios("--T", "4", "--r", "20") == (20.0,)
        assert ratios("--T", "4") == default
        path = tmp_path / "run.yaml"
        path.write_text(yaml.safe_dump({"T": 4, "r": 20, command: {"rho_" + (
            "grid" if command == "diagram" else "set"): [0.3]}}))
        assert ratios("--config", str(path)) == (20.0,)
        assert ratios("--config", str(path), "--ratios", "1") == (1.0,)


MODEL_OPTIONS = ["-h", "--help", "--config", "-c", "--kernel", "--gamma", "--eta"]
GRID_OPTIONS = [
    "-N", "--n-cells", "--dv", "--r", "--T", "--v-max", "--rho-max", "--out", "--prefix",
]
START_OPTIONS = ["--ic", "--ic-epsilon", "--ic-cell"]
# Each subcommand's option strings in --help order, written out by hand.
OPTIONS = {
    "simulate": [
        *MODEL_OPTIONS, "--rho", *GRID_OPTIONS, *START_OPTIONS, "--t-end", "--step",
    ],
    "equilibrium": [
        *MODEL_OPTIONS, "--rho", *GRID_OPTIONS, *START_OPTIONS,
        "--residual-tol", "--t-max",
    ],
    "diagram": [
        *MODEL_OPTIONS, *GRID_OPTIONS, "--rho-start", "--rho-stop", "--rho-count",
        "--rho-list", "--ratios", "--insert-critical", "--no-insert-critical",
        "--kink-threshold", "--residual-tol",
    ],
    "convergence": [
        *MODEL_OPTIONS, *GRID_OPTIONS, *START_OPTIONS,
        "--rho-set", "--ratios", "--fit-t-end",
    ],
}


@pytest.mark.parametrize("command", list(OPTIONS))
def test_each_command_has_exactly_its_flags(command):
    parser = cli.build_parser()
    (subparsers,) = (a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    actions = subparsers.choices[command]._actions
    assert [name for action in actions for name in action.option_strings] == OPTIONS[command]


class TestExitCodes:
    def test_configuration_error(self, tmp_path, capsys):
        assert run(tmp_path, "simulate", "--rho", "0.6", "--r", "2") == 2
        assert "configuration error" in capsys.readouterr().err

    def test_numerical_failure(self, tmp_path, capsys):
        code = run(
            tmp_path, "equilibrium", "--rho", "0.6", "--T", "3", "--r", "1",
            "--t-max", "1.0", "--residual-tol", "1e-14",
        )
        assert code == 3
        assert "numerical failure" in capsys.readouterr().err

    def test_io_failure(self, tmp_path, capsys):
        blocker = tmp_path / "blocked"
        blocker.write_text("a file, not a directory")
        code = main([
            "simulate", "--rho", "0.6", "--T", "3", "--r", "1",
            "--out", str(blocker),
        ])
        assert code == 4
        assert "i/o failure" in capsys.readouterr().err

    @pytest.mark.parametrize("command,yaml_text,argv", [
        ("simulate", "T: 3\nkernel: foo", []),
        ("simulate", "T: 3\neta: abc", []),
        ("simulate", "T: 3\nintegrator: 5", []),
        ("simulate", "T: 3\nr: .nan", []),
        ("simulate", "T: 3\nr: .inf", []),
        ("simulate", "", ["--dv", "0", "--T", "3"]),
        ("simulate", "", ["--r", "2", "--dv", "0"]),
        ("diagram", "", ["--T", "4", "--rho-list", "0.3,abc"]),
        ("convergence", "", ["--T", "4", "--rho-set", "abc"]),
    ])
    def test_malformed_run_input(self, tmp_path, capsys, command, yaml_text, argv):
        path = tmp_path / "run.yaml"
        path.write_text(f"rho: 0.5\n{yaml_text}\n")
        assert run(tmp_path, command, "--config", str(path), *argv) == 2
        assert "configuration error" in capsys.readouterr().err

    @pytest.mark.parametrize("command,yaml_text,message", [
        ("simulate", "T: 3\nr: 2\nintegrator: {t_ned: 5}", "unknown key integrator.t_ned"),
        ("simulate", "T: 3\nr: 2\nrhoo: 0.3", "unknown key rhoo"),
        ("diagram", "T: 3\ndiagram: {rho_grid: [0.3], insert_critical: \"false\"}",
         "diagram.insert_critical: expected true or false, got 'false'"),
        ("simulate", "T: 3.7\nr: 2", "T: expected an integer, got 3.7"),
        ("simulate", "N: 7.5\nT: 3", "N: expected an integer, got 7.5"),
        ("simulate", "T: 3\nr: 2\ninitial_condition: {kind: equilibrium, cell: 1.5}",
         "initial_condition.cell: expected an integer, got 1.5"),
        ("simulate", "T: 3\nr: 2\nworkers: 2", "unknown key workers"),
        ("diagram", "T: 3\ndiagram: {rho_grid: {count: 4.5}}",
         "diagram.rho_grid: expected an integer, got 4.5"),
    ])
    def test_unknown_keys_and_loose_values(self, tmp_path, capsys, command, yaml_text, message):
        path = tmp_path / "run.yaml"
        path.write_text(f"rho: 0.5\n{yaml_text}\n")
        assert run(tmp_path, command, "--config", str(path)) == 2
        assert f"configuration error: {message}" in capsys.readouterr().err

    def test_missing_density(self, tmp_path, capsys):
        assert run(tmp_path, "simulate", "--T", "3", "--r", "1") == 2
        capsys.readouterr()
