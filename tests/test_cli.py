"""Command-line surface: run, sweep, field, validate."""

import csv
import json

import pytest

from riskrl.cli import FIELD_COLUMNS, SWEEP_COLUMNS, TRACE_COLUMNS, main

GOLDEN_TRACE_HEADER = (
    "step,time,ego_x,ego_y,ego_heading,ego_speed,station,lateral_offset,"
    "terminal,l0_rules,l1_progress,l1_risk,l2_style,l3_comfort,total,"
    "max_risk_actor,geom_penalty,dyn_penalty,ttc"
)


def read_rows(path):
    with open(path, newline="") as handle:
        return list(csv.reader(handle))


class TestCmdRun:
    def test_empty_road_success(self, tmp_path, scenarios_dir, capsys):
        out = tmp_path / "out"
        code = main([
            "run", "--scenario", str(scenarios_dir / "empty_road.json"), "--out", str(out),
        ])
        assert code == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["outcome"] == "success"
        assert summary["route_progress"] == 1.0
        assert "outcome=success" in capsys.readouterr().out

    def test_trace_golden_header_and_shape(self, tmp_path, scenarios_dir):
        out = tmp_path / "out"
        assert main([
            "run", "--scenario", str(scenarios_dir / "empty_road.json"), "--out", str(out),
        ]) == 0
        lines = (out / "trace.csv").read_text().splitlines()
        assert lines[0] == GOLDEN_TRACE_HEADER
        assert len(TRACE_COLUMNS) == 19
        rows = read_rows(out / "trace.csv")
        summary = json.loads((out / "summary.json").read_text())
        assert len(rows) - 1 == summary["steps"]
        assert all(len(row) == len(TRACE_COLUMNS) for row in rows)
        # empty road: no interacting actor, so the risk columns stay blank
        assert rows[1][15] == "" and rows[1][18] == ""

    def test_blocked_road_full_throttle_collides(self, tmp_path, scenarios_dir):
        out = tmp_path / "out"
        code = main([
            "run", "--scenario", str(scenarios_dir / "blocked_road.json"),
            "--policy", "full_throttle", "--out", str(out),
        ])
        assert code == 0  # a completed episode is a successful command
        summary = json.loads((out / "summary.json").read_text())
        assert summary["outcome"] == "collision"
        rows = read_rows(out / "trace.csv")
        assert rows[-1][15] == "0"  # the wall is the highest-risk actor
        assert rows[-1][18] == "inf"  # static interaction carries no TTC

    def test_missing_scenario_names_path(self, tmp_path, capsys):
        code = main(["run", "--scenario", str(tmp_path / "nope.json"), "--out", str(tmp_path)])
        assert code != 0
        assert "nope.json" in capsys.readouterr().err

    def test_unknown_policy_lists_builtins(self, tmp_path, scenarios_dir, capsys):
        with pytest.raises(SystemExit) as exc:
            main([
                "run", "--scenario", str(scenarios_dir / "empty_road.json"),
                "--policy", "teleport", "--out", str(tmp_path),
            ])
        assert exc.value.code != 0
        err = capsys.readouterr().err
        assert "lane_follower" in err and "full_throttle" in err and "idle" in err

    def test_env_var_supplies_flag(self, tmp_path, scenarios_dir, monkeypatch):
        monkeypatch.setenv("RISKRL_SCENARIO", str(scenarios_dir / "empty_road.json"))
        out = tmp_path / "out"
        assert main(["run", "--out", str(out)]) == 0
        assert (out / "summary.json").exists()


class TestFlagValues:
    @pytest.mark.parametrize("argv, flag", [
        (["field", "--ego-speed", "nan"], "--ego-speed"),
        (["field", "--grid=0,1,0,1,nan"], "--grid"),
        (["field", "--grid=0,1,0,1,x"], "--grid"),
        (["sweep", "--densities", "abc"], "--densities"),
    ])
    def test_bad_value_names_its_flag(self, argv, flag, tmp_path, scenarios_dir, monkeypatch,
                                      capsys):
        monkeypatch.setenv("RISKRL_SCENARIO", str(scenarios_dir / "empty_road.json"))
        assert main(argv + ["--out", str(tmp_path / "out.csv")]) == 2
        assert flag in capsys.readouterr().err

    def test_bad_env_value_fails_only_the_subcommand_that_reads_it(
        self, tmp_path, configs_dir, scenarios_dir, monkeypatch, capsys
    ):
        monkeypatch.setenv("RISKRL_SEED", "x")
        assert main(["validate", str(configs_dir / "default.json")]) == 0
        with pytest.raises(SystemExit) as exc:
            main(["sweep", "--scenario", str(scenarios_dir / "empty_road.json"),
                  "--out", str(tmp_path / "s.csv")])
        assert exc.value.code == 2
        assert "--seed" in capsys.readouterr().err


class TestCmdSweep:
    def test_zero_episodes_rejected(self, tmp_path, scenarios_dir, capsys):
        code = main([
            "sweep", "--scenario", str(scenarios_dir / "intersection.json"),
            "--episodes", "0", "--out", str(tmp_path / "s.csv"),
        ])
        assert code != 0
        assert "episodes" in capsys.readouterr().err

    def test_density_out_of_range_rejected(self, tmp_path, scenarios_dir, capsys):
        code = main([
            "sweep", "--scenario", str(scenarios_dir / "intersection.json"),
            "--densities", "0.5,1.5", "--episodes", "1", "--out", str(tmp_path / "s.csv"),
        ])
        assert code != 0
        assert "densities" in capsys.readouterr().err

    def test_small_sweep_layout_and_determinism(self, tmp_path, scenarios_dir):
        args = [
            "sweep", "--scenario", str(scenarios_dir / "intersection.json"),
            "--densities", "0.5,1.0", "--episodes", "3", "--seed", "9",
        ]
        first, second = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(args + ["--out", str(first)]) == 0
        assert main(args + ["--out", str(second)]) == 0
        assert first.read_bytes() == second.read_bytes()
        rows = read_rows(first)
        assert tuple(rows[0]) == SWEEP_COLUMNS
        assert len(rows) == 3  # header + one row per density
        for row in rows[1:]:
            outcome_sum = sum(float(v) for v in row[2:6])
            assert outcome_sum == pytest.approx(100.0)

    def test_scenario_directory_cycles_files(self, tmp_path, scenarios_dir):
        out = tmp_path / "s.csv"
        code = main([
            "sweep", "--scenario", str(scenarios_dir),
            "--densities", "0.5", "--episodes", "3", "--out", str(out),
        ])
        assert code == 0
        assert read_rows(out)[1][1] == "3"


class TestCmdField:
    def run_field(self, tmp_path, mode, grid, ego_speed=4.0, other_speed=0.0):
        out = tmp_path / "field.csv"
        code = main([
            "field", "--mode", mode, f"--grid={grid}",
            "--ego-speed", str(ego_speed), "--other-speed", str(other_speed),
            "--out", str(out),
        ])
        assert code == 0
        rows = read_rows(out)
        assert tuple(rows[0]) == FIELD_COLUMNS
        return {(float(r[0]), float(r[1])): tuple(float(v) for v in r[2:]) for r in rows[1:]}

    def test_cell_at_field_center_saturates(self, tmp_path):
        cells = self.run_field(tmp_path, "same_direction", "-6,6,-3,3,1.0")
        geom, dyn, combined = cells[(0.0, 0.0)]
        assert geom == 1.0 and dyn == 1.0 and combined == 1.0

    def test_mirror_symmetry_about_ego_axis(self, tmp_path):
        cells = self.run_field(tmp_path, "static_obstacle", "-8,8,-4,4,1.0")
        for (x, y), values in cells.items():
            assert cells[(x, -y)] == values

    def test_longitudinal_slice_plateau_then_decay(self, tmp_path):
        cells = self.run_field(tmp_path, "same_direction", "0,40,0,0,0.5", ego_speed=6.0)
        xs = sorted(x for x, _ in cells)
        combined = [cells[(x, 0.0)][2] for x in xs]
        c_x = 4.5  # two default cars bumper to bumper
        for x, value in zip(xs, combined):
            if x <= c_x:
                assert value == 1.0
        tail = [v for x, v in zip(xs, combined) if x >= c_x]
        assert all(a >= b - 1e-15 for a, b in zip(tail, tail[1:]))
        assert combined[-1] < 1e-4

    def test_bad_resolution_rejected(self, tmp_path, capsys):
        code = main([
            "field", "--grid", "0,10,0,10,0", "--out", str(tmp_path / "f.csv"),
        ])
        assert code != 0
        assert "resolution" in capsys.readouterr().err


class TestCmdValidate:
    def test_default_config_is_valid(self, configs_dir, capsys):
        assert main(["validate", str(configs_dir / "default.json")]) == 0
        assert "valid config" in capsys.readouterr().out

    def test_shipped_scenarios_are_valid(self, scenarios_dir):
        for path in sorted(scenarios_dir.glob("*.json")):
            assert main(["validate", str(path)]) == 0

    def test_beta_constraint_cited(self, tmp_path, capsys):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"beta": 1.5}))
        assert main(["validate", str(path)]) != 0
        err = capsys.readouterr().err
        assert "beta" in err and "< 1" in err

    def test_underflowing_step_distance_is_not_valid(self, tmp_path, scenarios_dir, capsys):
        # v_max * dt would underflow to 0 and divide the progress reward by it
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"v_max": 1e-200, "dt": 1e-200}))
        assert main(["validate", str(path)]) == 2
        err = capsys.readouterr().err
        assert "v_max must lie in [1e-12, 1e6]" in err and "dt must lie in [1e-12, 1e6]" in err
        scenario = str(scenarios_dir / "empty_road.json")
        out = str(tmp_path / "out")
        assert main(["run", "--scenario", scenario, "--config", str(path), "--out", out]) == 2

    def test_malformed_document_reports_line(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text('{\n  "beta": 0.25,\n  oops\n}\n')
        assert main(["validate", str(path)]) != 0
        assert "line 3" in capsys.readouterr().err

    def test_scenario_violations_all_reported(self, tmp_path, capsys):
        path = tmp_path / "s.json"
        path.write_text(json.dumps({
            "schema_version": 99,
            "route": {"centerline": [[0, 0], [50, 0]], "lane_width": -2.0, "goal_station": 10.0},
            "ego": {"station": 5.0},
            "traffic_density": 3.0,
        }))
        assert main(["validate", str(path)]) != 0
        err = capsys.readouterr().err
        assert "schema_version" in err
        assert "route.lane_width" in err
        assert "traffic_density" in err
