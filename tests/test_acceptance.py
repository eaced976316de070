"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest -s tests/test_acceptance.py` to see the per-criterion report.
Every tolerance and runtime budget is pinned here; nothing is deferred.
"""

import math
import time
from contextlib import contextmanager

import numpy as np

from oracles import brute_force_ttc
from riskrl import (
    ActorKind,
    ActorState,
    EllipseParams,
    Outcome,
    RewardConfig,
    RouteFramePose,
    StepContext,
    approach_clearance,
    away_clearance,
    build_policy,
    collision_penalty,
    ellipsoid_penalty,
    leading_clearance,
    level_weight,
    load_scenario,
    run_episode,
    total_reward,
    ttc_circle,
    ttc_penalty,
)
from riskrl.cli import SWEEP_COLUMNS, main as cli_main
from riskrl.sim import scenario_from_dict

CFG = RewardConfig()


@contextmanager
def criterion(number: int, name: str, budget_s: float):
    start = time.monotonic()
    try:
        yield
    except BaseException:
        print(f"[acceptance] criterion {number} ({name}): FAIL")
        raise
    elapsed = time.monotonic() - start
    if elapsed > budget_s:
        print(f"[acceptance] criterion {number} ({name}): FAIL (runtime {elapsed:.2f}s)")
        raise AssertionError(f"criterion {number} exceeded its {budget_s}s budget: {elapsed:.2f}s")
    print(f"[acceptance] criterion {number} ({name}): PASS ({elapsed:.2f}s)")


def test_criterion_1_formula_exactness():
    with criterion(1, "formula exactness", budget_s=1.0):
        assert abs(collision_penalty(0.0, CFG.v_max) - (-0.5)) <= 1e-12
        assert abs(collision_penalty(CFG.v_max, CFG.v_max) - (-1.0)) <= 1e-12
        assert abs(level_weight(1, 0.25) - 1.0) <= 1e-12
        assert abs(level_weight(2, 0.25) - 0.25) <= 1e-12
        assert abs(level_weight(3, 0.25) - 0.0625) <= 1e-12
        assert abs(ttc_penalty(CFG.ttc_max, CFG) - 0.0) <= 1e-12
        assert abs(ttc_penalty(0.1 * CFG.ttc_max, CFG) - 1.0) <= 1e-12
        assert abs(ttc_penalty(math.inf, CFG) - 0.0) <= 1e-12


def test_criterion_2_ellipsoid_field():
    with criterion(2, "ellipsoid field", budget_s=5.0):
        params = EllipseParams(c_x=2.75, c_y=1.4, r_x=2.0, r_y=0.5, p_x=4, p_y=4, p_outer=4)
        # unity at and inside the minimum clearance
        assert abs(ellipsoid_penalty(params.c_x, params.c_y, params) - 1.0) <= 1e-9
        rng = np.random.default_rng(20)
        for _ in range(200):
            dx = float(rng.uniform(-params.c_x, params.c_x))
            dy = float(rng.uniform(-params.c_y, params.c_y))
            assert abs(ellipsoid_penalty(dx, dy, params) - 1.0) <= 1e-9
        # exactly one longitudinal radius out with p_x = p_outer = 4
        assert abs(ellipsoid_penalty(params.c_x + params.r_x, params.c_y, params) - 0.0625) <= 1e-9
        # monotone non-increasing along 1,000 random rays
        for _ in range(1000):
            angle = float(rng.uniform(0.0, 2.0 * math.pi))
            direction = (math.cos(angle), math.sin(angle))
            radii = np.sort(rng.uniform(0.0, 60.0, size=12))
            values = [
                ellipsoid_penalty(r * direction[0], r * direction[1], params) for r in radii
            ]
            for near, far in zip(values, values[1:]):
                assert far <= near + 1e-9
        # symmetry under axis reflection
        for _ in range(500):
            dx = float(rng.uniform(-40, 40))
            dy = float(rng.uniform(-40, 40))
            value = ellipsoid_penalty(dx, dy, params)
            assert abs(ellipsoid_penalty(-dx, dy, params) - value) <= 1e-9
            assert abs(ellipsoid_penalty(dx, -dy, params) - value) <= 1e-9


def test_criterion_3_clearance_chain():
    with criterion(3, "worst-case clearance chain", budget_s=1.0):
        assert abs(leading_clearance(6.0, 4.0, "long", CFG) - 8.675) <= 1e-9
        assert abs(approach_clearance(4.0, 4.0, "long", CFG) - 11.35) <= 1e-9
        assert abs(away_clearance(0.1, 0.1, CFG) - 0.009) <= 1e-9


def _random_actor(rng) -> ActorState:
    return ActorState(
        position=rng.uniform(-20.0, 20.0, size=2),
        heading=float(rng.uniform(-math.pi, math.pi)),
        speed_long=float(rng.uniform(0.0, 6.0)),
        speed_lat=float(rng.uniform(-1.0, 1.0)),
        length=float(rng.uniform(3.5, 5.5)),
        width=float(rng.uniform(1.5, 2.2)),
    )


def test_criterion_4_ttc_oracle_equivalence():
    with criterion(4, "TTC oracle equivalence", budget_s=30.0):
        rng = np.random.default_rng(40)
        horizon = 50.0
        checked = 0
        infinite_cases = 0
        while checked < 200:
            a = _random_actor(rng)
            b = _random_actor(rng)
            analytic = ttc_circle(a, b)
            sweep = brute_force_ttc(a, b, dt_fine=1e-4, horizon=horizon)
            if math.isinf(analytic):
                assert math.isinf(sweep)
                infinite_cases += 1
            elif analytic > horizon - 5.0:
                # beyond the sweep horizon the oracle can only report +inf
                assert math.isinf(sweep) or sweep > horizon - 5.0
            else:
                assert abs(analytic - sweep) <= 1e-3
            checked += 1
        # parallel motion must sit on the +inf side as well
        mover = ActorState(position=[0.0, 0.0], heading=0.0, speed_long=3.0)
        twin = ActorState(position=[25.0, 0.0], heading=0.0, speed_long=3.0)
        assert math.isinf(ttc_circle(mover, twin))
        assert math.isinf(brute_force_ttc(mover, twin, dt_fine=1e-4, horizon=horizon))
        assert infinite_cases > 0


def test_criterion_5_blocked_road_anti_pathology(scenarios_dir):
    with criterion(5, "waiting beats crashing", budget_s=10.0):
        scenario = load_scenario(scenarios_dir / "blocked_road.json")
        waiting = run_episode(scenario, build_policy("idle", CFG), CFG)
        crashing = run_episode(scenario, build_policy("full_throttle", CFG), CFG)
        assert waiting.outcome is Outcome.TIMEOUT
        assert crashing.outcome is Outcome.COLLISION
        assert waiting.cumulative_reward > crashing.cumulative_reward


def _random_context(rng) -> StepContext:
    # forward-motion envelope: per-step station gain in [0, v_max * dt]
    prev_station = float(rng.uniform(0.0, 60.0))
    station = prev_station + float(rng.uniform(0.0, CFG.v_max * CFG.dt))
    offset = float(rng.uniform(-4.0, 4.0))
    ego = ActorState(
        position=[station, offset],
        heading=float(rng.uniform(-math.pi, math.pi)),
        speed_long=float(rng.uniform(0.0, CFG.v_max)),
        accel_long=float(rng.uniform(-8.0, 6.0)),
        kind=ActorKind.EGO_VEHICLE,
    )
    others = []
    for _ in range(int(rng.integers(0, 4))):
        if rng.random() < 0.3:
            others.append(
                ActorState(
                    position=ego.position + rng.uniform(-25.0, 25.0, size=2),
                    heading=0.0,
                    length=float(rng.uniform(0.5, 2.0)),
                    width=float(rng.uniform(0.5, 2.0)),
                    kind=ActorKind.STATIC_OBSTACLE,
                )
            )
        else:
            others.append(
                ActorState(
                    position=ego.position + rng.uniform(-25.0, 25.0, size=2),
                    heading=float(rng.uniform(-math.pi, math.pi)),
                    speed_long=float(rng.uniform(0.0, CFG.v_max)),
                    speed_lat=float(rng.uniform(-1.0, 1.0)),
                )
            )
    return StepContext(
        ego=ego,
        pose=RouteFramePose(station=station, lateral_offset=offset,
                            heading_error=float(rng.uniform(-math.pi, math.pi))),
        prev_pose=RouteFramePose(station=prev_station, lateral_offset=offset, heading_error=0.0),
        others=tuple(others),
        lane_width=3.5,
        steering_rate=float(rng.uniform(-2.0, 2.0)),
        jerk=float(rng.uniform(-150.0, 150.0)),
        violations=frozenset({"speeding"}) if rng.random() < 0.5 else frozenset(),
        outcome=Outcome.NONE,
    )


def test_criterion_6_normalization_suite():
    with criterion(6, "normalization suite", budget_s=10.0):
        bound = 1.0 + CFG.beta + CFG.beta ** 2 + 1.0
        rng = np.random.default_rng(60)
        for _ in range(10_000):
            b = total_reward(_random_context(rng), CFG)
            assert -1.0 <= b.l0_rules <= 1.0
            assert -1.0 <= b.l1_progress <= 1.0
            assert -1.0 <= b.l1_risk <= 1.0
            assert -1.0 <= b.l2_style <= 1.0
            assert -1.0 <= b.l3_comfort <= 1.0
            assert abs(b.total) <= bound + 1e-12


def test_criterion_7_sweep_determinism(tmp_path, scenarios_dir):
    with criterion(7, "sweep determinism", budget_s=300.0):
        args = [
            "sweep",
            "--scenario", str(scenarios_dir / "intersection.json"),
            "--densities", "0.5,0.75,1.0",
            "--episodes", "20",
            "--seed", "7",
        ]
        first, second = tmp_path / "first.csv", tmp_path / "second.csv"
        assert cli_main(args + ["--out", str(first)]) == 0
        assert cli_main(args + ["--out", str(second)]) == 0
        assert first.read_bytes() == second.read_bytes()
        header = first.read_text().splitlines()[0].split(",")
        assert tuple(header) == SWEEP_COLUMNS
        # the seven reported metrics: four outcome rates plus three run statistics
        for column in (
            "success_pct", "offroad_pct", "collision_pct", "timeout_pct",
            "reward_mean", "progress_mean", "velocity_mean",
        ):
            assert column in header
        assert len(first.read_text().splitlines()) == 4  # header + three densities


def test_criterion_8_risk_monotone_while_closing():
    with criterion(8, "closing-gap risk monotonicity", budget_s=5.0):
        scenario = scenario_from_dict({
            "schema_version": 1,
            "route": {
                "centerline": [[0.0, 0.0], [200.0, 0.0]],
                "lane_width": 3.5,
                "goal_station": 190.0,
            },
            "ego": {"station": 5.0, "speed": 6.0},
            "npcs": [{"station": 30.0, "speed": 2.0,
                      "script": {"kind": "constant_velocity"}}],
            "max_steps": 200,
        })
        hold_speed = build_policy("idle", CFG)  # zero action keeps both speeds constant
        trace = run_episode(scenario, hold_speed, CFG)
        assert trace.outcome is Outcome.COLLISION  # the gap really does close
        closing = [r for r in trace.records if r.outcome is Outcome.NONE]
        assert len(closing) > 20
        gaps = [30.0 + 2.0 * r.time - (5.0 + 6.0 * r.time) for r in closing]
        assert all(later < earlier for earlier, later in zip(gaps, gaps[1:]))
        risks = [-r.breakdown.l1_risk for r in closing]
        for earlier, later in zip(risks, risks[1:]):
            assert later >= earlier - 1e-12
