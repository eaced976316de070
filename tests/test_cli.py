"""Command-line surface: run, sweep, field, validate."""

import csv
import gzip
import io
import json
import math
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

from riskrl import (
    ActorKind, ActorState, InteractionMode, RewardConfig, dynamic_risk, geometric_risk,
)
from riskrl import cli
from riskrl.cli import FIELD_COLUMNS, MAX_FIELD_CELLS, SWEEP_COLUMNS, TRACE_COLUMNS, main

GOLDEN_TRACE_HEADER = (
    "step,time,ego_x,ego_y,ego_heading,ego_speed,station,lateral_offset,"
    "terminal,l0_rules,l1_progress,l1_risk,l2_style,l3_comfort,total,"
    "max_risk_actor,geom_penalty,dyn_penalty,ttc"
)


# Outputs of the criterion-7 sweep shape (intersection.json, seed 7) frozen by the
# benchmark, and the absolute tolerance it holds every compared float to.
SWEEP_REFERENCE = (
    Path(__file__).resolve().parent.parent / "perfbench" / "reference" / "sweep_intersection.json.gz"
)
REFERENCE_TOLERANCE = 1e-9


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

    def test_sweeps_in_two_threads_match_a_serial_sweep(self, tmp_path, scenarios_dir):
        args = [
            "sweep", "--scenario", str(scenarios_dir / "intersection.json"),
            "--densities", "0.5,1.0", "--episodes", "3", "--seed", "9",
        ]
        serial = tmp_path / "serial.csv"
        assert main(args + ["--out", str(serial)]) == 0
        outs = [tmp_path / f"thread_{i}.csv" for i in range(2)]
        codes = [None] * len(outs)

        def sweep(i):
            codes[i] = main(args + ["--out", str(outs[i])])

        threads = [threading.Thread(target=sweep, args=(i,)) for i in range(len(outs))]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)  # switch often, so the two sweeps interleave finely
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert codes == [0, 0]
        assert [out.read_bytes() for out in outs] == [serial.read_bytes()] * len(outs)

    def test_matches_frozen_benchmark_reference(
        self, tmp_path, scenarios_dir, configs_dir, monkeypatch
    ):
        reference = json.loads(gzip.decompress(SWEEP_REFERENCE.read_bytes()))
        assert reference["key"] == {"seed": 7, "episodes": 20, "densities": [0.5, 0.75, 1.0]}
        traces = []
        run_episode = cli.run_episode

        def capture(*args, **kwargs):
            trace = run_episode(*args, **kwargs)
            traces.append(trace)
            return trace

        monkeypatch.setattr(cli, "run_episode", capture)
        out = tmp_path / "sweep.csv"
        assert main([
            "sweep", "--scenario", str(scenarios_dir / "intersection.json"),
            "--config", str(configs_dir / "default.json"),
            "--densities", "0.5,0.75,1.0", "--episodes", "20", "--seed", "7", "--out", str(out),
        ]) == 0
        assert [(t.outcome.value, len(t.records)) for t in traces] == [
            (outcome, steps) for outcome, steps, _ in reference["episodes"]
        ]
        for trace, (_, _, cumulative) in zip(traces, reference["episodes"]):
            assert abs(trace.cumulative_reward - cumulative) <= REFERENCE_TOLERANCE
        rows = [[float(v) for v in row] for row in read_rows(out)[1:]]
        assert [len(row) for row in rows] == [len(row) for row in reference["rows"]]
        for row, expected in zip(rows, reference["rows"]):
            assert all(abs(a - b) <= REFERENCE_TOLERANCE for a, b in zip(row, expected))

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

    @staticmethod
    def scalar_field_bytes(mode, grid, ego_speed, other_speed):
        """The field CSV from a per-cell loop over the scalar pair functions and _fmt."""
        config, interaction = RewardConfig(), InteractionMode(mode)
        ego = ActorState(position=(0.0, 0.0), heading=0.0, speed_long=ego_speed,
                         kind=ActorKind.EGO_VEHICLE)
        template = {"speed_long": other_speed} | cli._FIELD_ACTORS[interaction]
        x_min, x_max, y_min, y_max, resolution = grid
        expected = io.StringIO(newline="")
        writer = csv.writer(expected, lineterminator="\n")
        writer.writerow(FIELD_COLUMNS)
        for y in np.arange(y_min, y_max + resolution / 2.0, resolution):
            for x in np.arange(x_min, x_max + resolution / 2.0, resolution):
                other = ActorState(position=(x, y), **template)
                geom = geometric_risk(ego, other, interaction, config)
                dyn, _ = dynamic_risk(ego, other, interaction, config)
                combined = config.w_geom * geom + config.w_dyn * dyn
                writer.writerow([cli._fmt(v) for v in (float(x), float(y), geom, dyn, combined)])
        return expected.getvalue().encode()

    def field_bytes(self, tmp_path, mode, grid, ego_speed, other_speed):
        out = tmp_path / "field.csv"
        assert main([
            "field", "--mode", mode, "--grid=" + ",".join(map(repr, grid)),
            "--ego-speed", repr(ego_speed), "--other-speed", repr(other_speed), "--out", str(out),
        ]) == 0
        return out.read_bytes()

    @pytest.mark.parametrize("mode", [m.value for m in InteractionMode])
    def test_bytes_equal_the_scalar_loop(self, tmp_path, mode):
        grid = (-12.0, 12.0, -3.0, 3.0, 0.75)
        assert self.field_bytes(tmp_path, mode, grid, 6.0, 3.0) == self.scalar_field_bytes(
            mode, grid, 6.0, 3.0)

    def test_grid_of_several_blocks_equals_the_scalar_loop(self, tmp_path, capsys):
        # 501 x 141 = 70,641 cells: one block of 130 whole rows, then one of the last 11
        grid = (-25.0, 25.0, -7.0, 7.0, 0.1)
        assert 501 * 141 > cli._FIELD_BLOCK_CELLS > 501
        assert self.field_bytes(tmp_path, "same_direction", grid, 6.0, 3.0) == (
            self.scalar_field_bytes("same_direction", grid, 6.0, 3.0))
        assert "wrote 70641 cells" in capsys.readouterr().out

    @pytest.mark.parametrize("mode", [m.value for m in InteractionMode])
    @pytest.mark.parametrize("block", [1, 7, 25, 26, 200], ids=lambda b: f"block{b}")
    def test_small_blocks_write_the_same_bytes(self, tmp_path, monkeypatch, mode, block):
        # 25 cells per row: a block smaller than a row still takes a whole row; then one
        # row, and several rows at once
        grid = (-6.0, 6.0, -2.0, 2.0, 0.5)
        monkeypatch.setattr(cli, "_FIELD_BLOCK_CELLS", block)
        assert self.field_bytes(tmp_path, mode, grid, 6.0, 3.0) == self.scalar_field_bytes(
            mode, grid, 6.0, 3.0)

    @pytest.mark.parametrize("grid, cells", [
        ("0,1e20,0,0,1", "100,000,000,000,000,000,000 x 1"),
        ("-30,30,-10,10,0.001", "60,001 x 20,001"),
        ("0,10000000,0,0,1", "10,000,001 x 1"),
        ("-1e308,1e308,0,0,1e307", "inf x 1"),
        ("0,0,0,1e300,5e-324", "0 x inf"),
    ])
    def test_grid_beyond_the_cell_limit_rejected(self, tmp_path, capsys, grid, cells):
        out = tmp_path / "f.csv"
        assert main(["field", f"--grid={grid}", "--out", str(out)]) == 2
        assert f"--grid gives {cells} cells, more than 10,000,000" in capsys.readouterr().err
        assert not out.exists()

    def test_grid_at_the_cell_limit_passes(self):
        # checked without building it: np.arange would hold 10,000,000 cells
        assert cli._parse_grid("0,9999999,0,0,1") == (0.0, 9999999.0, 0.0, 0.0, 1.0)
        assert cli._axis_count(0.0, 9999999.0, 1.0) == MAX_FIELD_CELLS == 10_000_000

    @pytest.mark.parametrize("flag", ["--ego-speed", "--other-speed"])
    @pytest.mark.parametrize("speed", ["1e308", "-1000000.5"])
    def test_speed_beyond_the_document_range_rejected(self, tmp_path, capsys, flag, speed):
        # 1e308 for both speeds once wrote nan: the squared speeds overflow to inf - inf
        out = tmp_path / "f.csv"
        assert main(["field", "--grid=-2,2,0,0,1", flag, speed, "--out", str(out)]) == 2
        assert f"{flag} must be a number in [-1e6, 1e6] (got {float(speed)})" in (
            capsys.readouterr().err)
        assert not out.exists()

    def test_speed_at_the_document_bound_gives_a_finite_field(self, tmp_path):
        for mode in InteractionMode:
            cells = self.run_field(tmp_path, mode.value, "-2,2,0,0,1", ego_speed=1e6,
                                   other_speed=-1e6)
            assert len(cells) == 5
            assert all(math.isfinite(v) for values in cells.values() for v in values)

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
