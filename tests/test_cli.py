"""Command-line surface: run, sweep, field, validate."""

import csv
import dataclasses
import gzip
import hashlib
import io
import json
import math
import os
import shlex
import subprocess
import sys
import threading
import weakref
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from riskrl import (
    ActorKind, ActorState, InteractionMode, RewardConfig, RouteFramePose, StepContext,
    aggregate_metrics, build_policy, dynamic_risk, geometric_risk, load_scenario, run_episode,
)
from riskrl import cli, core, reward, risk, sim
from riskrl.cli import FIELD_COLUMNS, MAX_FIELD_CELLS, SWEEP_COLUMNS, TRACE_COLUMNS, main

GOLDEN_TRACE_HEADER = (
    "step,time,ego_x,ego_y,ego_heading,ego_speed,station,lateral_offset,"
    "terminal,l0_rules,l1_progress,l1_risk,l2_style,l3_comfort,total,"
    "max_risk_actor,geom_penalty,dyn_penalty,ttc"
)

REPO_ROOT = Path(__file__).resolve().parent.parent

# Outputs of the criterion-7 sweep shape (intersection.json, seed 7) frozen by the
# benchmark, and the absolute tolerance it holds every compared float to.
SWEEP_REFERENCE = REPO_ROOT / "perfbench" / "reference" / "sweep_intersection.json.gz"
REFERENCE_TOLERANCE = 1e-9


# sha256 of (trace.csv, summary.json) that `riskrl run` writes with the default config
RUN_DIGESTS = {
    ("blocked_road", "lane_follower"): (
        "b7f07fcad4f303152f66ef46bf4acbb74278549dd6eb88b8606cfb3e8dca2f6f",
        "4cdfb00caea7a0f61145e55de6ee59d112f07f4a7f2497f9f3e6993bbc497ba9",
    ),
    ("blocked_road", "full_throttle"): (
        "a29c18baee972d54aa0a076d40b1bf49a96494749e5dad54aadb46c7243e7bd5",
        "1abb631f665931418ff68e0e79f35e6f740ddcf8ccb5fd69522296784f5fb827",
    ),
    ("blocked_road", "idle"): (
        "fa96d62c52200841b48fa006f7e7ea8e5b63ab7e4a1a8969940d8051df35dd33",
        "043e1e08526954f7096d0e5238c4271179f924388ebc900c0d42e9a3e79b6c37",
    ),
    ("empty_road", "lane_follower"): (
        "da557a2426340adae65e78306034af3450566768bc6d0adf0c911fa2b2f4f558",
        "a177492f7accf6d0d828962c90525b86991d0700e9b2f24609ab97d12f10ccdc",
    ),
    ("empty_road", "full_throttle"): (
        "8a97e4f3317b956349bc157e2b8ff8503fc196b6623637e68e96a560bb973b60",
        "ee23592ca796189d0731363d43e8111e8d8c79071228600dd89334b28c158130",
    ),
    ("empty_road", "idle"): (
        "95eb6520088d47d98e93039a87bf1aa2bfe1c331aaa9ffdd2eb355c8544307dd",
        "379b6a1da5a049a0aecf3596f61f0131542a948cd637c212ac21e6c230103788",
    ),
    ("intersection", "lane_follower"): (
        "97b09f21bc6a58830e2a047bdbbded3d50c3189235519ea7c3b25152fca3498f",
        "451b89e89cb1b96ae2f6976ba0ba29d5aa2712778f7d81f02ad936409aaf7291",
    ),
    ("intersection", "full_throttle"): (
        "4575da2159882455837c75772d169e884b03a0214b191f4a02f249bbb6163d68",
        "e1f821e3a68a13866f5acb98f83bb25aaf498072f47bca8723888c5a2587c349",
    ),
    ("intersection", "idle"): (
        "511e1ccae81579bb971a682f14e8b8fa8b92867ab1db33fb9989fb729ff04822",
        "e735c46747b2db53d9473d65a8dfdc95469a66e03f74491ff1ac8b65cfbd527f",
    ),
}
# the same for the six seed-7 documents of perfbench's `run_waypoints` workload, in order
WAYPOINT_RUN_DIGESTS = (
    ("cc5b286d83da5ef3e401d49863b719073a04bf4c21c799fcdfad1280f971e2e2",
     "190cde39bf0bccae3e57ab0e7be2802e1e10ecd843ca681f5fc56ce9a20664ea"),
    ("3a799f8d611e06b54caf41527c7663c4d6c640d9afab35a02990097341f41c8d",
     "039876bf3ca31d6382025f00ffade29636f72794e1721da1883d3a54ec620599"),
    ("b0e7196e3432dd2d09f84fc3619fa0e6c6f163ab560fb2688bd89d4dcfbbea82",
     "522af50a2c92454b0266e262c13c0ced5e0aaca1a8ae94814ebcedd5af5c0f0c"),
    ("b5f23a3739a5f00b64715c30d27df220e9a1cb47336cb18d81af4dde00fd2573",
     "3b76badc24e1825fd1305ef8441ae81d3c6578e90f7e6a83f6390d0d99cbe639"),
    ("52c425771da00aab024777567fe097141751ea34bc451f68140aec115b72516f",
     "24d3665f4be456f0d0efe8e62d65b1181a90e97bb6ef92567a6032277d9624ea"),
    ("3d21b8245067531745fa329931b53a3287a8bd9ea1679270ada8af3fbbf7ec1c",
     "2510c5a3cd33fbb9001037e63ebe6f120dd039aff30f066fd7bf1e99971f51e3"),
)
# sha256 of the criterion-7 sweep.csv (intersection.json, seed 7, 20 episodes per density)
SWEEP_DIGEST = "92b156bc99fdcf8e10f988b2ac7840a2140176a3574fc6a8cc6f8f30bc7ffe9f"


def run_digests(out):
    return tuple(hashlib.sha256((out / name).read_bytes()).hexdigest()
                 for name in ("trace.csv", "summary.json"))


def read_rows(path):
    with open(path, newline="") as handle:
        return list(csv.reader(handle))


def expected_trace_rows(trace):
    """trace.csv's rows worked out from each StepRecord field by field, not through
    TRACE_COLUMNS, the worst actor by `np.argmax` over the step's `risk_assessments`."""
    rows = []
    for r in trace.records:
        b = r.breakdown
        values = (r.time, *r.ego.position, r.ego.heading, r.ego.speed, r.pose.station,
                  r.pose.lateral_offset, b.terminal, b.l0_rules, b.l1_progress, b.l1_risk,
                  b.l2_style, b.l3_comfort, b.total)
        row = [str(r.step)] + [repr(float(v)) for v in values]
        if b.risk_assessments:
            k = int(np.argmax([a.combined for a in b.risk_assessments]))
            worst = b.risk_assessments[k]
            row += [str(k)] + [repr(float(v)) for v in
                               (worst.geom_penalty, worst.dyn_penalty, worst.ttc)]
        else:
            row += [""] * 4
        rows.append(row)
    return rows


def replaced_traces(scenarios_dir):
    """Traces that `dataclasses.replace` builds around other records, as tests do to make
    wrong traces: records from a busier or quieter episode, from one without actors, or a
    mix of steps with 8, 0 and 4 actors."""
    config = RewardConfig()
    policy = build_policy("lane_follower", config)
    busy, quiet = (run_episode(load_scenario(scenarios_dir / "intersection.json"), policy,
                               config, density, seed) for density, seed in ((1.0, 3), (0.5, 4)))
    empty = run_episode(load_scenario(scenarios_dir / "empty_road.json"), policy, config)
    assert [len(t.records[0].breakdown.risk_assessments) for t in (busy, quiet, empty)] == [
        8, 4, 0]
    mixed = busy.records[:3] + empty.records[:2] + quiet.records[:3] + empty.records[:1]
    return [dataclasses.replace(trace, records=records)
            for trace, records in ((busy, quiet.records), (quiet, busy.records),
                                   (empty, busy.records), (busy, empty.records), (busy, mixed))]


def capture_traces(monkeypatch):
    """Make `cli.run_episode` keep each trace it returns in the list this returns."""
    traces, run = [], cli.run_episode

    def capture(*args, **kwargs):
        traces.append(run(*args, **kwargs))
        return traces[-1]

    monkeypatch.setattr(cli, "run_episode", capture)
    return traces


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

    def test_every_trace_cell_is_the_text_of_its_step_record_value(
        self, tmp_path, scenarios_dir, monkeypatch
    ):
        traces = capture_traces(monkeypatch)
        assert main(["run", "--scenario", str(scenarios_dir / "intersection.json"),
                     "--out", str(tmp_path)]) == 0
        rows = read_rows(tmp_path / "trace.csv")[1:]
        assert len(rows) == len(traces[0].records) > 0
        assert rows == expected_trace_rows(traces[0])
        assert any(row[15] not in ("", "0") for row in rows)  # a worst actor other than the first

    @settings(max_examples=20, deadline=None)
    @given(scenario=st.sampled_from(["intersection", "blocked_road"]),
           policy=st.sampled_from(["lane_follower", "full_throttle"]),
           seed=st.integers(0, 2**32 - 1), density=st.none() | st.floats(0.0, 1.0))
    def test_trace_rows_equal_the_step_records_at_any_seed(self, scenario, policy, seed,
                                                           density):
        # each seed draws its own slots and jitters, which no pinned digest covers
        config = RewardConfig()
        trace = run_episode(load_scenario(REPO_ROOT / "scenarios" / f"{scenario}.json"),
                            build_policy(policy, config), config, density=density, seed=seed)
        assert cli.trace_rows(trace) == expected_trace_rows(trace)

    def test_tied_actors_name_the_first(self, tmp_path):
        # two obstacles mirrored about the lane of a straight road, passed at heading 0:
        # their combined risk is equal at every step, and the first one is the worst
        obstacles = [{"station": 20.0, "lateral_offset": side, "length": 1.0, "width": 1.0}
                     for side in (2.5, -2.5)]
        document = {"schema_version": 1, "seed": 1, "max_steps": 250,
                    "route": {"centerline": [[0.0, 0.0], [60.0, 0.0]], "lane_width": 3.5,
                              "goal_station": 50.0},
                    "ego": {"station": 5.0, "lateral_offset": 0.0, "speed": 0.0},
                    "obstacles": obstacles}
        path = tmp_path / "mirrored.json"
        path.write_text(json.dumps(document))
        config = RewardConfig()
        trace = run_episode(load_scenario(path), build_policy("full_throttle", config), config)
        assert trace.outcome.value == "success"
        assert all(a.combined == b.combined > 0.0
                   for a, b in (r.breakdown.risk_assessments for r in trace.records))
        assert main(["run", "--scenario", str(path), "--policy", "full_throttle",
                     "--out", str(tmp_path / "out")]) == 0
        rows = read_rows(tmp_path / "out" / "trace.csv")[1:]
        assert len(rows) == len(trace.records)
        assert all(row[15] == "0" for row in rows)

    def test_run_builds_no_risk_assessment(self, tmp_path, scenarios_dir, monkeypatch):
        calls, make = [], risk._make_assessment
        monkeypatch.setattr(risk, "_make_assessment", lambda *args: calls.append(1) or make(*args))
        assert main(["run", "--scenario", str(scenarios_dir / "intersection.json"),
                     "--out", str(tmp_path)]) == 0
        assert any(row[15] for row in read_rows(tmp_path / "trace.csv")[1:])
        assert calls == []

    def test_cmd_run_calls_the_names_perfbench_traces(self, tmp_path, scenarios_dir,
                                                      monkeypatch):
        # perfbench's tracer times `riskrl run` by patching these names on the cli module;
        # a rename or a direct import would leave its spans at zero
        called = []

        def spy(name):
            original = getattr(cli, name)
            return lambda *args, **kwargs: called.append(name) or original(*args, **kwargs)

        for name in ("load_scenario", "run_episode"):
            monkeypatch.setattr(cli, name, spy(name))
        rows = [[str(i)] * len(TRACE_COLUMNS) for i in range(3)]
        monkeypatch.setattr(cli, "trace_rows", lambda trace: called.append("trace_rows") or rows)
        assert main(["run", "--scenario", str(scenarios_dir / "intersection.json"),
                     "--out", str(tmp_path)]) == 0
        assert called == ["load_scenario", "run_episode", "trace_rows"]
        assert read_rows(tmp_path / "trace.csv") == [list(TRACE_COLUMNS), *rows]

    def test_a_trace_replaced_with_other_records_writes_their_risk(self, scenarios_dir):
        # its risk cells must be its records' own, whichever trace each came from
        for replaced in replaced_traces(scenarios_dir):
            assert cli.trace_rows(replaced) == expected_trace_rows(replaced)

    def test_the_named_actor_sets_the_risk_reward(self, scenarios_dir, waypoint_documents):
        # the reward and trace.csv's worst actor read one maximum per step: the actor a row
        # names has the combined risk whose negation is the step's l1_risk, and a row names
        # none just where its step has no pairs; pinned runs and replaced traces alike
        config = RewardConfig()
        runs = [(scenarios_dir / f"{scenario}.json", policy)
                for scenario, policy in sorted(RUN_DIGESTS)]
        runs += [(path, "lane_follower") for path in waypoint_documents]
        traces = [run_episode(load_scenario(path), build_policy(policy, config), config)
                  for path, policy in runs]
        named = 0
        for trace in traces + replaced_traces(scenarios_dir):
            for row, record in zip(cli.trace_rows(trace), trace.records, strict=True):
                b = record.breakdown
                assert (row[15] == "") == (b.risk_assessments == ())
                if row[15]:
                    named += 1
                    risk = config.w_geom * float(row[16]) + config.w_dyn * float(row[17])
                    assert risk == b.risk_assessments[int(row[15])].combined == -b.l1_risk
        assert named > 1000

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

    @pytest.mark.parametrize("scenario, policy", sorted(RUN_DIGESTS))
    def test_pinned_run_digests(self, tmp_path, scenarios_dir, configs_dir, scenario, policy):
        # a negative --seed keeps the scenario's own seed: the bytes of a run without one
        for i, seed in enumerate([[], ["--seed", "-5"]]):
            out = tmp_path / f"run_{i}"
            assert main(["run", "--scenario", str(scenarios_dir / f"{scenario}.json"),
                         "--config", str(configs_dir / "default.json"), "--policy", policy,
                         *seed, "--out", str(out)]) == 0
            assert run_digests(out) == RUN_DIGESTS[scenario, policy]

    def test_pinned_waypoint_run_digests(self, tmp_path, configs_dir, waypoint_documents):
        digests = []
        for i, path in enumerate(waypoint_documents):
            out = tmp_path / f"run_{i}"
            assert main(["run", "--scenario", str(path), "--config",
                         str(configs_dir / "default.json"), "--policy", "lane_follower",
                         "--seed=-1", "--out", str(out)]) == 0
            digests.append(run_digests(out))
        assert tuple(digests) == WAYPOINT_RUN_DIGESTS

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

    def test_out_under_a_regular_file_is_an_io_error(self, tmp_path, scenarios_dir, capsys):
        (tmp_path / "file").write_text("")
        assert main(["run", "--scenario", str(scenarios_dir / "empty_road.json"),
                     "--out", str(tmp_path / "file" / "out")]) == 2
        assert capsys.readouterr().err.startswith("i/o error: ")

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
        (["sweep", "--seed", "-1"], "--seed"),
        (["field", "--grid=1,0,0,1,1"], "--grid"),
        (["field", "--grid=0,1,1,0,1"], "--grid"),
        # half a resolution step vanishes next to 1e16: the x axis has no cell
        (["field", "--grid=1e16,1e16,0,0,1"], "--grid"),
        (["field", "--grid=1e16,1e16,-1,1,1"], "--grid"),
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

    def test_each_trace_is_dropped_before_the_next_but_one_episode(
        self, tmp_path, scenarios_dir, monkeypatch
    ):
        traces, alive = [], []
        run_episode = cli.run_episode

        def spy(*args, **kwargs):
            # traces from before the previous episode still alive when this one starts;
            # aggregate_metrics' loop variable may still hold the previous trace
            alive.append(sum(trace() is not None for trace in traces[:-1]))
            trace = run_episode(*args, **kwargs)
            traces.append(weakref.ref(trace))
            return trace

        monkeypatch.setattr(cli, "run_episode", spy)
        assert main([
            "sweep", "--scenario", str(scenarios_dir / "intersection.json"),
            "--densities", "0.5,1.0", "--episodes", "4", "--seed", "9",
            "--out", str(tmp_path / "s.csv"),
        ]) == 0
        assert alive == [0] * 8

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

    def test_pinned_criterion_7_sweep_digest(self, tmp_path, scenarios_dir, configs_dir):
        out = tmp_path / "sweep.csv"
        assert main([
            "sweep", "--scenario", str(scenarios_dir / "intersection.json"),
            "--config", str(configs_dir / "default.json"),
            "--densities", "0.5,0.75,1.0", "--episodes", "20", "--seed", "7", "--out", str(out),
        ]) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == SWEEP_DIGEST

    def test_a_sweep_scores_its_levels_without_the_scalar_combination(
        self, tmp_path, scenarios_dir, configs_dir, monkeypatch
    ):
        # each ego step's levels come from `reward._ego_levels`, called as the ego track appends
        # the row, and each episode's from one `reward._totals` call; `_combine` is the
        # one-step path of `total_reward`, so it is spied on wherever a module binds it
        combine, calls = reward._combine, []

        def spy(*args):
            calls.append(args)
            return combine(*args)

        for module in (cli, core, reward, risk, sim):
            for name, value in list(vars(module).items()):
                if value is combine:
                    monkeypatch.setattr(module, name, spy)
        assert main([
            "sweep", "--scenario", str(scenarios_dir / "intersection.json"),
            "--config", str(configs_dir / "default.json"),
            "--densities", "0.5,0.75,1.0", "--episodes", "20", "--seed", "7",
            "--out", str(tmp_path / "sweep.csv"),
        ]) == 0
        assert len(calls) == 0
        ego = ActorState(position=(0.0, 0.0), heading=0.0)
        pose = RouteFramePose(0.0, 0.0, 0.0)
        reward.total_reward(StepContext(ego, pose, pose, (), 3.5), RewardConfig())
        assert len(calls) == 1  # the spy is live

    def test_the_criterion_7_sweep_steps_the_ego_once_per_step_of_its_longest_episode(
        self, tmp_path, scenarios_dir, configs_dir, monkeypatch
    ):
        # the episodes share one ego track, so the policy decides each step once, not once
        # per episode that reaches it
        calls, build = [], cli.build_policy

        def counted(name, config):
            drive = build(name, config)
            return lambda obs: calls.append(obs.step) or drive(obs)

        monkeypatch.setattr(cli, "build_policy", counted)
        traces = capture_traces(monkeypatch)
        assert main([
            "sweep", "--scenario", str(scenarios_dir / "intersection.json"),
            "--config", str(configs_dir / "default.json"),
            "--densities", "0.5,0.75,1.0", "--episodes", "20", "--seed", "7",
            "--out", str(tmp_path / "sweep.csv"),
        ]) == 0
        lengths = [len(trace.records) for trace in traces]
        assert (len(lengths), sum(lengths), max(lengths)) == (60, 7644, 171)
        assert calls == list(range(171))

    def test_the_criterion_7_sweep_scores_the_ego_once_per_row_of_its_longest_episode(
        self, tmp_path, scenarios_dir, configs_dir, monkeypatch
    ):
        # each episode reads the ego's levels and kernel rows off its shared track, which
        # scores each row once as it is appended and builds its kernel rows once per track
        # row, not once per episode step
        built = {}
        for name, size in (("_ego_levels", lambda levels: 1), ("_rows", len)):  # one row, many
            def counted(*args, build=getattr(sim, name), sizes=built.setdefault(name, []),
                        size=size):
                sizes.append(size(built_rows := build(*args)))
                return built_rows

            monkeypatch.setattr(sim, name, counted)
        traces = capture_traces(monkeypatch)
        assert main([
            "sweep", "--scenario", str(scenarios_dir / "intersection.json"),
            "--config", str(configs_dir / "default.json"),
            "--densities", "0.5,0.75,1.0", "--episodes", "20", "--seed", "7",
            "--out", str(tmp_path / "sweep.csv"),
        ]) == 0
        assert sum(len(trace.records) for trace in traces) == 7644
        assert {name: sum(sizes) for name, sizes in built.items()} == {"_ego_levels": 171,
                                                                     "_rows": 171}

    def test_the_criterion_7_sweep_grows_constant_velocity_rows_only_past_the_held_rows(
        self, tmp_path, scenarios_dir, configs_dir, monkeypatch
    ):
        # an episode runs the steps whose ego rows its shared track holds as array passes, which
        # give a constant-velocity NPC's rows by np.add.accumulate; only the steps past them,
        # which also grow the ego track, grow its rows one `_Track._extend` at a time, so the
        # sweep makes 513 such calls, where one per NPC and step would be 27,946
        grown, extend = [], sim._Track._extend
        monkeypatch.setattr(sim._Track, "_extend",
                            lambda track: grown.append(type(track.script)) or extend(track))
        traces = capture_traces(monkeypatch)
        assert main([
            "sweep", "--scenario", str(scenarios_dir / "intersection.json"),
            "--config", str(configs_dir / "default.json"),
            "--densities", "0.5,0.75,1.0", "--episodes", "20", "--seed", "7",
            "--out", str(tmp_path / "sweep.csv"),
        ]) == 0
        scenario, held, past = load_scenario(scenarios_dir / "intersection.json"), 0, 0
        episodes = [(density, cli._episode_seed(7, d_idx, episode))
                    for d_idx, density in enumerate((0.5, 0.75, 1.0)) for episode in range(20)]
        for (density, seed), trace in zip(episodes, traces, strict=True):
            npcs, _ = sim.realize_traffic(scenario, density, seed)
            steps = len(trace.records)
            past += max(steps - held, 0) * sum(isinstance(s, sim.ConstantVelocity) for _, s in npcs)
            held = max(held, steps)
        assert grown.count(sim.ConstantVelocity) == past == 513

    def test_a_directory_sweep_equals_plain_episodes(self, tmp_path, scenarios_dir,
                                                     monkeypatch):
        args = ["sweep", "--scenario", str(scenarios_dir), "--densities", "0.5,1.0",
                "--episodes", "7", "--seed", "5"]
        shared, plain = tmp_path / "shared.csv", tmp_path / "plain.csv"
        assert main(args + ["--out", str(shared)]) == 0
        tracks = {}

        def unshared(scenario, track, config, **kwargs):  # the track's policy, run plainly
            assert isinstance(track, sim._EgoTrack) and track.scenario is scenario
            tracks[id(track)] = track
            return run_episode(scenario, track.policy, config, **kwargs)

        monkeypatch.setattr(cli, "run_episode", unshared)
        assert main(args + ["--out", str(plain)]) == 0
        assert len({id(track.scenario) for track in tracks.values()}) == len(tracks) == 3
        assert shared.read_bytes() == plain.read_bytes()

    def test_empty_scenario_directory_rejected(self, tmp_path, capsys):
        assert main(["sweep", "--scenario", str(tmp_path), "--out", str(tmp_path / "s.csv")]) == 2
        assert f"no scenario files found in {tmp_path}" in capsys.readouterr().err

    def test_scenario_directory_cycles_files(self, tmp_path, scenarios_dir):
        out = tmp_path / "s.csv"
        code = main([
            "sweep", "--scenario", str(scenarios_dir),
            "--densities", "0.5", "--episodes", "3", "--out", str(out),
        ])
        assert code == 0
        assert read_rows(out)[1][1] == "3"


class TestFmt:
    @pytest.mark.parametrize("value", [
        math.inf, -math.inf, math.nan, -0.0, 5e-324, 1e300, 3, np.float64(0.1),
    ], ids=repr)
    def test_equals_the_csv_text_of_the_float(self, value):
        text = io.StringIO(newline="")
        csv.writer(text, lineterminator="\n").writerow([float(value)])
        assert cli._fmt(value) + "\n" == text.getvalue()


class TestPerDistinct:
    """`func` once per distinct float, keyed by its bits, gathered back in input order."""

    def test_input_order_kept_and_signed_zeros_apart(self):
        values = np.array([2.5, -0.0, 0.0, 2.5, -0.0, 1.0])
        got = cli._per_distinct(repr, values, object)
        assert got.tolist() == ["2.5", "-0.0", "0.0", "2.5", "-0.0", "1.0"]

    def test_nan_and_inf(self):
        values = np.array([math.inf, math.nan, -math.inf, math.nan, math.inf, 1e300])
        got = cli._per_distinct(repr, values, object)
        assert got.tolist() == ["inf", "nan", "-inf", "nan", "inf", "1e+300"]

    def test_one_call_per_bit_pattern(self):
        calls = []

        def double(value):
            calls.append(value)
            return 2.0 * value

        other_nan = (np.array([math.nan]).view(np.int64) | 1).view(float)[0]
        values = np.array([3.0, 1.0, 3.0, -0.0, 0.0, 3.0, math.nan, other_nan, math.nan])
        got = cli._per_distinct(double, values, float)
        assert got[:6].tolist() == [6.0, 2.0, 6.0, -0.0, 0.0, 6.0]
        assert [math.copysign(1.0, v) for v in got[3:5]] == [-1.0, 1.0]
        assert np.isnan(got[6:]).all()
        assert len(calls) == 6  # 3, 1, -0, 0 and two NaN payloads

    def test_empty(self):
        got = cli._per_distinct(repr, np.array([]), object)
        assert got.shape == (0,) and got.dtype == object


class TestCsvBytes:
    @pytest.mark.parametrize("command, scenario", [
        ("run", "intersection.json"),
        ("run", "empty_road.json"),  # no interacting actor: each row ends in four empty cells
        ("sweep", "intersection.json"),
    ], ids=["trace_intersection", "trace_empty_road", "sweep"])
    def test_file_equals_the_csv_module_rendering(self, tmp_path, scenarios_dir, monkeypatch,
                                                  command, scenario):
        # the cells are joined without quoting; csv.writer would quote none of them
        traces = capture_traces(monkeypatch)
        argv = [command, "--scenario", str(scenarios_dir / scenario), "--policy", "lane_follower"]
        if command == "run":
            out = tmp_path / "trace.csv"
            assert main(argv + ["--out", str(tmp_path)]) == 0
            header, rows = TRACE_COLUMNS, cli.trace_rows(traces[0])
            assert scenario != "empty_road.json" or all(row[-4:] == [""] * 4 for row in rows)
        else:
            out = tmp_path / "sweep.csv"
            argv += ["--densities", "0.5,1.0", "--episodes", "2"]
            assert main(argv + ["--out", str(out)]) == 0
            header = SWEEP_COLUMNS
            rows = [[density, *dataclasses.astuple(aggregate_metrics(traces[2 * i:2 * i + 2]))]
                    for i, density in enumerate((0.5, 1.0))]
        expected = io.StringIO(newline="")
        writer = csv.writer(expected, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)
        assert out.read_bytes() == expected.getvalue().encode()


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
        # 25 cells per row: a block smaller than a row takes parts of it; then one
        # row, and several rows at once
        grid = (-6.0, 6.0, -2.0, 2.0, 0.5)
        monkeypatch.setattr(cli, "_FIELD_BLOCK_CELLS", block)
        assert self.field_bytes(tmp_path, mode, grid, 6.0, 3.0) == self.scalar_field_bytes(
            mode, grid, 6.0, 3.0)

    @pytest.mark.parametrize("block, grid, cells", [
        (None, "0,66000,0,0,1", 66_001),  # one row longer than a block
        (7, "-6,6,-2,2,0.5", 225),
        (30, "-6,6,-2,2,0.5", 225),
    ], ids=["real_block", "block7", "block30"])
    def test_no_block_exceeds_the_block_size(self, tmp_path, monkeypatch, block, grid, cells):
        if block is not None:
            monkeypatch.setattr(cli, "_FIELD_BLOCK_CELLS", block)
        limit, real_field, sizes = cli._FIELD_BLOCK_CELLS, cli.risk_field, []

        def spy(ego, other, xs, ys, mode, config):
            sizes.append(len(xs) * len(ys))
            return real_field(ego, other, xs, ys, mode, config)

        monkeypatch.setattr(cli, "risk_field", spy)
        out = tmp_path / "field.csv"
        args = ["field", "--mode", "intersecting", f"--grid={grid}", "--out", str(out)]
        assert main(args) == 0
        assert max(sizes) <= limit and sum(sizes) == cells
        monkeypatch.setattr(cli, "_FIELD_BLOCK_CELLS", cells)  # the whole grid in one block
        whole = tmp_path / "whole.csv"
        assert main(args[:-1] + [str(whole)]) == 0
        assert sizes[-1] == cells and out.read_bytes() == whole.read_bytes()

    @pytest.mark.parametrize("mode", [m.value for m in InteractionMode])
    def test_each_distinct_value_formatted_once(self, tmp_path, monkeypatch, mode):
        # the benchmark grid: 241 x 81 = 19,521 cells, 97,605 values
        real_fmt, calls = cli._fmt, []

        def counted(value):
            calls.append(value)
            return real_fmt(value)

        monkeypatch.setattr(cli, "_fmt", counted)
        out = tmp_path / "field.csv"
        assert main(["field", "--mode", mode, "--ego-speed", "6", "--other-speed", "3",
                     "--grid=-30,30,-10,10,0.25", "--out", str(out)]) == 0
        columns = list(zip(*read_rows(out)[1:]))
        assert len(columns[0]) == 19_521
        # one block, and repr tells every two floats apart that are not NaN
        assert len(calls) == sum(len(set(column)) for column in columns) < 5 * 19_521 // 2

    def test_out_into_a_missing_directory(self, tmp_path):
        out = tmp_path / "a" / "b" / "field.csv"
        assert main(["field", "--grid=-2,2,0,0,1", "--out", str(out)]) == 0
        assert read_rows(out)[0] == list(FIELD_COLUMNS) and len(read_rows(out)) == 6

    @pytest.mark.parametrize("mode, digest", [
        ("same_direction", "616ebe57c078c05419f7c76b3dffcc355ddfce198579027d3663586827d4e589"),
        ("opposite_direction", "f3e16cc4e3674e1a794721f19a71ef604037c4c49fc895be4c7af05b42228daa"),
        ("intersecting", "7c4e3e3f1e96ab559749a6f5d5fba5535bed972c7e1f49968963c035b3bc9f52"),
        ("static_obstacle", "bffe252b92f7a41cec13e0f0e3c9a1994f00c2f424ef48271ed0d870290f8681"),
    ])
    def test_pinned_grid_digest(self, tmp_path, configs_dir, mode, digest):
        # the bytes csv.writer gives for this grid
        out = tmp_path / "field.csv"
        assert main(["field", "--config", str(configs_dir / "default.json"), "--mode", mode,
                     "--ego-speed", "6", "--other-speed", "3", "--grid=-30,30,-10,10,0.25",
                     "--out", str(out)]) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == digest

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
        # the module runs as a script too, exiting with main's status
        src = str(Path(cli.__file__).resolve().parent.parent)
        done = subprocess.run([sys.executable, "-m", "riskrl.cli", "validate",
                               str(configs_dir / "default.json")], capture_output=True, text=True,
                              env=os.environ | {"PYTHONPATH": src})
        assert done.returncode == 0 and "valid config" in done.stdout

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

    @pytest.mark.parametrize("content", [b"\xff\xfe\x00\x7b", b"[" * 100_000],
                             ids=["utf16_bom", "deep_nesting"])
    @pytest.mark.parametrize("command", ["validate", "run_scenario", "run_config"])
    def test_unreadable_document_is_an_error_not_a_traceback(self, tmp_path, scenarios_dir,
                                                              capsys, content, command):
        path = tmp_path / "doc.json"
        path.write_bytes(content)
        argv = {"validate": ["validate", str(path)],
                "run_scenario": ["run", "--scenario", str(path)],
                "run_config": ["run", "--scenario", str(scenarios_dir / "empty_road.json"),
                               "--config", str(path)]}[command]
        out = tmp_path / "out"
        assert main(argv + (["--out", str(out)] if command != "validate" else [])) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and str(path) in err and "Traceback" not in err
        assert not out.exists()

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


class TestReadmeCli:
    def test_every_command_runs_and_writes_its_files(self, tmp_path, monkeypatch):
        # the fenced block under README's "## CLI", one command per line once the
        # backslash continuations are joined; inputs are read from the repository
        root = Path(__file__).resolve().parent.parent
        block = (root / "README.md").read_text().split("## CLI\n\n```bash\n", 1)[1]
        commands = [shlex.split(line)
                    for line in block.split("```", 1)[0].replace("\\\n", " ").splitlines()]
        assert [argv[:2] for argv in commands] == [
            ["riskrl", "run"], ["riskrl", "run"], ["riskrl", "sweep"], ["riskrl", "field"],
            ["riskrl", "validate"],
        ]
        monkeypatch.chdir(tmp_path)
        for argv in commands:
            argv = [str(root / arg) if Path(arg).parts[0] in ("scenarios", "configs") else arg
                    for arg in argv[1:]]
            assert main(argv) == 0, argv
        written = sorted(p.relative_to(tmp_path).as_posix() for p in tmp_path.rglob("*")
                         if p.is_file())
        assert written == ["field.csv", "out/summary.json", "out/trace.csv", "sweep.csv"]
