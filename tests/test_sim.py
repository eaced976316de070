"""World stepping, collision/off-road detection, scenarios, episodes, metrics."""

import copy
import dataclasses
import json
import math
import pickle
import re
import sys
import threading
import tracemalloc
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, Phase, example, given, settings, strategies as st

from oracles import (
    collision_checks, footprints_overlap, matches_replay, replayed_contexts, same_bits,
    sampled_overlap, step_npc, transformed, within_reach,
)
from riskrl import (
    ActorKind,
    ActorState,
    Braking,
    ConstantVelocity,
    ContractError,
    Outcome,
    RewardConfig,
    Route,
    RouteFramePose,
    Scenario,
    ScenarioError,
    StepContext,
    WaypointFollower,
    World,
    aggregate_metrics,
    build_policy,
    check_offroad,
    collision_penalty,
    detect_collision,
    full_throttle_policy,
    leading_clearance,
    load_scenario,
    realize_traffic,
    risk_reward,
    run_episode,
    scripted_replay_policy,
    step_world,
)
from riskrl.cli import _episode_seed, trace_rows
from riskrl.core import validate_config_data
from riskrl import reward as reward_module, risk as risk_module, sim as sim_module
from riskrl.sim import BUILTIN_POLICIES, scenario_from_dict, validate_scenario_data

CFG = RewardConfig()
# ActorState is slotted, so its defaults are read through its fields
DEFAULT_LENGTH = next(f.default for f in dataclasses.fields(ActorState) if f.name == "length")


def straight_route(length=200.0, goal=None):
    return Route(
        centerline=np.array([[0.0, 0.0], [length, 0.0]]),
        lane_width=3.5,
        goal_station=length if goal is None else goal,
    )


def held_rows(scenario, policy, shared, config=CFG, steps=30):
    """`policy`, or if `shared`, an ego track of `scenario`, `policy` and `config` that holds
    rows 1 to `steps`, or up to the ego's own outcome if that comes first: the rows that an
    earlier, longer episode on a track that episodes share would have left, which a later
    episode runs as array passes."""
    if not shared:
        return policy
    track = sim_module._EgoTrack(scenario, policy, config)
    while len(track.rows) <= steps and track._extend()[4] is Outcome.NONE:
        pass
    return track


ON_A_SHARED_TRACK = pytest.mark.parametrize("shared", [False, True], ids=["plain", "shared"])


def overflowing_npc_scenario():
    """A constant-velocity NPC whose x is finite for three steps of 1e307 * dt and
    overflows to inf on the fourth; the ego stays well clear of it."""
    x = 1.79e308 - 3e307 * CFG.dt * 0.999
    npc = ActorState((x, 50.0), 0.0, speed_long=1e307)
    ego = ActorState((5.0, 0.0), 0.0, kind=ActorKind.EGO_VEHICLE)
    return Scenario(route=straight_route(80.0), ego_spawn=ego, npcs=((npc, ConstantVelocity()),))


def make_world(ego=None, npcs=(), scripts=(), obstacles=(), route=None):
    if ego is None:
        ego = ActorState(position=[0.0, 0.0], heading=0.0, kind=ActorKind.EGO_VEHICLE)
    return World(
        route=route or straight_route(),
        time=0.0,
        ego=ego,
        npcs=tuple(npcs),
        scripts=tuple(scripts),
        obstacles=tuple(obstacles),
    )


def minimal_scenario_data(**overrides):
    data = {
        "schema_version": 1,
        "route": {
            "centerline": [[0.0, 0.0], [80.0, 0.0]],
            "lane_width": 3.5,
            "goal_station": 70.0,
        },
        "ego": {"station": 5.0, "speed": 0.0},
    }
    data.update(overrides)
    return data


class TestStepWorld:
    def test_zero_action_at_rest_only_advances_time(self):
        world = make_world()
        stepped = step_world(world, (0.0, 0.0), CFG)
        assert stepped.time == pytest.approx(CFG.dt)
        assert np.allclose(stepped.ego.position, world.ego.position)
        assert stepped.ego.speed_long == 0.0

    def test_constant_accel_matches_discrete_sum_oracle(self):
        world = make_world()
        for _ in range(10):
            world = step_world(world, (1.0, 0.0), CFG)
        # oracle: explicit Euler sum of v_k * dt with v_k = k * a * dt
        expected = sum(k * 1.0 * CFG.dt * CFG.dt for k in range(10))
        assert expected == pytest.approx(0.45)
        assert world.ego.speed_long == pytest.approx(1.0, abs=1e-12)
        assert world.ego.position[0] == pytest.approx(expected, abs=1e-12)

    def test_speed_clamped_to_v_max_with_effective_accel(self):
        ego = ActorState(position=[0, 0], heading=0.0, speed_long=5.95,
                         kind=ActorKind.EGO_VEHICLE)
        stepped = step_world(make_world(ego=ego), (6.0, 0.0), CFG)
        assert stepped.ego.speed_long == CFG.v_max
        assert stepped.ego.accel_long == pytest.approx(0.05 / CFG.dt)

    def test_reverse_command_clamps_at_standstill(self):
        stepped = step_world(make_world(), (-4.0, 0.0), CFG)
        assert stepped.ego.speed_long == 0.0

    def test_steering_rotates_heading(self):
        stepped = step_world(make_world(), (0.0, 0.5), CFG)
        assert stepped.ego.heading == pytest.approx(0.05)

    def test_constant_velocity_npc_advances(self):
        npc = ActorState(position=[10, 0], heading=0.0, speed_long=3.0)
        world = make_world(npcs=[npc], scripts=[ConstantVelocity()])
        stepped = step_world(world, (0.0, 0.0), CFG)
        assert stepped.npcs[0].position[0] == pytest.approx(10.3)

    def test_braking_npc_stops_after_trigger(self):
        npc = ActorState(position=[10, 0], heading=0.0, speed_long=3.0)
        world = make_world(npcs=[npc], scripts=[Braking(trigger_station=12.0, decel=6.0)])
        for _ in range(40):
            world = step_world(world, (0.0, 0.0), CFG)
        assert world.npcs[0].speed_long == 0.0
        assert world.npcs[0].position[0] < 14.0

    def test_waypoint_follower_tracks_polyline_and_stops(self):
        script = WaypointFollower(waypoints=((0.0, 5.0), (4.0, 5.0), (4.0, 9.0)), speed=2.0)
        npc = ActorState(position=[0, 5], heading=0.0, speed_long=2.0)
        world = make_world(npcs=[npc], scripts=[script])
        for _ in range(45):  # 4.5 s at 2 m/s along an 8 m path, then parked
            world = step_world(world, (0.0, 0.0), CFG)
        assert np.allclose(world.npcs[0].position, [4.0, 9.0], atol=1e-9)
        assert world.npcs[0].speed_long == 0.0

    def test_waypoint_follower_keeps_its_arc_length_on_a_self_crossing_polyline(self):
        # the last leg crosses the first at (5, 0), where the nearest polyline
        # point ties between the two passes
        script = WaypointFollower(
            waypoints=((0.0, 0.0), (10.0, 0.0), (10.0, 10.0), (5.0, 10.0), (5.0, -5.0)), speed=5.0
        )
        npc = ActorState(position=[0, 0], heading=0.0, speed_long=5.0)
        world = make_world(npcs=[npc], scripts=[script])
        for _ in range(80):  # 40 m at 0.5 m per step
            world = step_world(world, (0.0, 0.0), CFG)
        assert np.allclose(world.npcs[0].position, [5.0, -5.0], atol=1e-9)
        assert world.npcs[0].speed_long == 0.0

    def test_npc_tuples_of_unequal_length_are_rejected(self):
        npcs = [ActorState(position=[10, 0], heading=0.0), ActorState(position=[20, 0], heading=0.0)]
        message = "step_world world.scripts must hold one entry per NPC (got 1 for 2 NPCs)"
        with pytest.raises(ContractError, match=re.escape(message)):  # not a dropped NPC
            step_world(make_world(npcs=npcs, scripts=[ConstantVelocity()]), (0.0, 0.0), CFG)

    def test_stations_of_another_length_are_rejected(self):
        npcs = [ActorState(position=[10, 0], heading=0.0), ActorState(position=[20, 0], heading=0.0)]
        world = make_world(npcs=npcs, scripts=[ConstantVelocity()] * 2)
        message = "step_world world.stations must hold one entry per NPC (got 1 for 2 NPCs)"
        with pytest.raises(ContractError, match=re.escape(message)):
            step_world(dataclasses.replace(world, stations=(None,)), (0.0, 0.0), CFG)

    def test_energy_free_kinematics(self):
        ego = ActorState(position=[0, 0], heading=0.2, speed_long=3.0,
                         kind=ActorKind.EGO_VEHICLE)
        npc = ActorState(position=[30, 1], heading=-0.4, speed_long=2.0)
        world = make_world(ego=ego, npcs=[npc], scripts=[ConstantVelocity()])
        for _ in range(50):
            world = step_world(world, (0.0, 0.0), CFG)
            assert world.ego.speed_long == pytest.approx(3.0, abs=1e-12)
            assert world.npcs[0].speed_long == pytest.approx(2.0, abs=1e-12)

    def test_non_finite_action_rejected(self):
        with pytest.raises(ContractError):
            step_world(make_world(), (math.nan, 0.0), CFG)

    @pytest.mark.parametrize("case, message", [
        ("constant_velocity_overflows", "ActorState position must be two finite numbers "
                                        "(got (inf, 5.0))"),
        ("static_npc_follows_waypoints", "static obstacles must have zero velocity"),
        ("static_ego_accelerates", "static obstacles must have zero velocity"),
        ("ego_accel_overflows", "ActorState accel_long must be a finite number (got -inf)"),
        ("ego_heading_overflows", "wrap_angle angle must be a finite number (got inf)"),
    ])
    def test_a_state_the_constructor_rejects_fails_the_step(self, case, message):
        # states built in code, beyond the document bounds: the step raises as
        # ActorState does for any caller, or as wrap_angle does for a heading
        config, static, action = CFG, ActorKind.STATIC_OBSTACLE, (1.0, 0.0)
        if case == "constant_velocity_overflows":
            npc = ActorState(position=(1.7e308, 5.0), heading=0.0, speed_long=1e308)
            world = make_world(npcs=[npc], scripts=[ConstantVelocity()])
        elif case == "static_npc_follows_waypoints":
            npc = ActorState(position=(0.0, 5.0), heading=0.0, kind=static)
            world = make_world(npcs=[npc], scripts=[WaypointFollower(((0, 5), (50, 5)), 3.0)])
        elif case == "static_ego_accelerates":
            world = make_world(ego=ActorState(position=(0.0, 0.0), heading=0.0, kind=static))
        elif case == "ego_accel_overflows":
            world = make_world(ego=ActorState(position=(0.0, 0.0), heading=0.0, speed_long=1e300))
            config = RewardConfig(dt=1e-12)
        else:  # the steering rate times dt overflows
            world, config, action = make_world(), RewardConfig(dt=2.0), (0.0, 1.7e308)
        with pytest.raises(ContractError) as error:
            step_world(world, action, config)
        assert str(error.value) == message

    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_stepped_states_equal_the_checked_constructor(self, data):
        number = st.floats(-1e3, 1e3)

        def state(kind, speed=st.floats(0.0, 20.0)):
            return ActorState(
                position=(data.draw(number), data.draw(number)),
                heading=data.draw(st.floats(-math.pi, math.pi)), speed_long=data.draw(speed),
                speed_lat=0.0 if kind is ActorKind.STATIC_OBSTACLE else data.draw(number),
                accel_long=data.draw(number), length=data.draw(st.floats(0.3, 10.0)),
                width=data.draw(st.floats(0.3, 5.0)), kind=kind)

        def script():
            kind = data.draw(st.sampled_from(["constant_velocity", "braking", "waypoints"]))
            if kind == "constant_velocity":
                return ConstantVelocity()
            if kind == "braking":
                return Braking(data.draw(number), data.draw(st.floats(0.1, 10.0)))
            points = [(data.draw(number), data.draw(number))]
            for _ in range(data.draw(st.integers(1, 3))):  # each step moves x by 0.5 m or more
                points.append((points[-1][0] + data.draw(st.floats(0.5, 20.0)),
                               points[-1][1] + data.draw(st.floats(-20.0, 20.0))))
            return WaypointFollower(tuple(points), data.draw(st.floats(0.0, 20.0)))

        count = data.draw(st.integers(0, 3))
        world = make_world(
            ego=state(ActorKind.EGO_VEHICLE, st.floats(0.0, CFG.v_max)),
            npcs=[state(ActorKind.NPC_VEHICLE) for _ in range(count)],
            scripts=[script() for _ in range(count)],
            obstacles=[state(ActorKind.STATIC_OBSTACLE, st.just(0.0))])
        for _ in range(data.draw(st.integers(1, 4))):
            action = (data.draw(st.floats(-10.0, 10.0)), data.draw(st.floats(-2.0, 2.0)))
            world = step_world(world, action, CFG)
            for new in (world.ego, *world.npcs):
                checked = ActorState(*(getattr(new, f.name) for f in dataclasses.fields(new)))
                assert all(
                    type(getattr(new, f.name)) is type(getattr(checked, f.name))
                    and repr(getattr(new, f.name)) == repr(getattr(checked, f.name))
                    for f in dataclasses.fields(new)
                )


class TestDetectCollision:
    def test_coincident_centers(self):
        assert detect_collision(
            ActorState(position=[0, 0], heading=0.3, kind=ActorKind.EGO_VEHICLE),
            [ActorState(position=[0, 0], heading=1.0)],
        )

    def test_far_apart(self):
        assert not detect_collision(
            ActorState(position=[0, 0], heading=0.0, kind=ActorKind.EGO_VEHICLE),
            [ActorState(position=[100, 0], heading=0.0)],
        )

    def test_no_actors(self):
        assert not detect_collision(
            ActorState(position=[0, 0], heading=0.0, kind=ActorKind.EGO_VEHICLE), []
        )

    def test_agrees_with_sampling_oracle_near_touching(self):
        rng = np.random.default_rng(12)
        disagreements = 0
        for _ in range(120):
            ego = ActorState(
                position=rng.uniform(-1, 1, size=2), heading=float(rng.uniform(0, math.pi)),
                kind=ActorKind.EGO_VEHICLE,
            )
            other = ActorState(
                position=rng.uniform(-4, 4, size=2), heading=float(rng.uniform(0, math.pi)),
                length=float(rng.uniform(1.0, 5.0)), width=float(rng.uniform(0.8, 2.2)),
            )
            sat = detect_collision(ego, [other])
            oracle = sampled_overlap(ego, other)
            disagreements += sat != oracle
        assert disagreements == 0

    @pytest.mark.parametrize("gap, hit", [(0.0, True), (1e-9, False)], ids=["touching", "gap"])
    @pytest.mark.parametrize("dx, dy", [(4.5, 0.0), (4.5, 1.8)], ids=["edges", "corners"])
    def test_exact_touch_is_a_collision(self, dx, dy, gap, hit):
        ego = ActorState(position=[0.0, 0.0], heading=0.0, kind=ActorKind.EGO_VEHICLE)
        other = ActorState(position=[dx + gap, dy + gap if dy else 0.0], heading=0.0)
        assert detect_collision(ego, [other]) is hit

    @settings(max_examples=500, deadline=None)
    @given(data=st.data())
    def test_decides_as_the_nested_loop_oracle(self, data):
        # footprints from 1e-12 to 1e6 m at any heading: random pairs within a few sizes of
        # each other, and edge or corner touches built as in test_exact_touch_is_a_collision
        exponent = data.draw(st.floats(-12.0, 6.0))
        size = st.floats(max(exponent - 1.0, -12.0), min(exponent + 1.0, 6.0)).map(
            lambda e: 10.0 ** e)
        la, wa, lb, wb = (data.draw(size) for _ in range(4))
        x, y = (data.draw(st.just(0.0) | st.floats(-1e6, 1e6)) for _ in range(2))
        case = data.draw(st.sampled_from(["random", "edges", "corners"]))
        if case == "random":
            heading = st.floats(-10.0, 10.0) | st.floats(-1e9, 1e9) | st.sampled_from(
                [0.0, math.pi / 2.0, math.pi, -math.pi / 2.0])
            ha, hb = data.draw(heading), data.draw(heading)
            offset = st.floats(-3.0, 3.0).map(lambda f: f * 10.0 ** exponent)
            dx, dy = data.draw(offset), data.draw(offset)
        else:
            ha = hb = 0.0
            gap = data.draw(st.sampled_from([0.0, 1e-9 * 10.0 ** exponent]))
            dx = (la + lb) / 2.0 + gap
            dy = (wa + wb) / 2.0 + gap if case == "corners" else 0.0
        a = ActorState(position=(x, y), heading=ha, length=la, width=wa,
                       kind=ActorKind.EGO_VEHICLE)
        b = ActorState(position=(x + dx, y + dy), heading=hb, length=lb, width=wb)
        assert sim_module._footprints_overlap(a, b) is footprints_overlap(a, b)


class TestCheckOffroad:
    def test_centered_is_on_road(self):
        ego = ActorState(position=[0, 0], heading=0.0, kind=ActorKind.EGO_VEHICLE)
        pose = RouteFramePose(station=0.0, lateral_offset=0.0, heading_error=0.0)
        assert not check_offroad(pose, ego, straight_route())

    def test_full_lane_width_offset_is_off_road(self):
        route = straight_route()
        ego = ActorState(position=[0, 3.5], heading=0.0, width=1.8, kind=ActorKind.EGO_VEHICLE)
        pose = RouteFramePose(station=0.0, lateral_offset=3.5, heading_error=0.0)
        assert check_offroad(pose, ego, route)

    def test_boundary_is_inclusive_of_road(self):
        route = straight_route()
        boundary = route.lane_width / 2.0 + 0.9  # car body exactly at the corridor edge
        ego = ActorState(position=[0, boundary], heading=0.0, width=1.8,
                         kind=ActorKind.EGO_VEHICLE)
        pose = RouteFramePose(station=0.0, lateral_offset=boundary, heading_error=0.0)
        assert not check_offroad(pose, ego, route)


class TestScenarioLoading:
    def test_minimal_scenario_has_no_actors(self, tmp_path):
        path = tmp_path / "s.json"
        path.write_text(json.dumps(minimal_scenario_data()))
        scenario = load_scenario(path)
        npcs, obstacles = realize_traffic(scenario)
        assert npcs == () and obstacles == ()

    def test_density_selects_round_of_slots(self):
        slots = [
            {"kind": "obstacle", "station": 10.0 + 5.0 * i, "lateral_offset": 1.0}
            for i in range(8)
        ]
        scenario = scenario_from_dict(minimal_scenario_data(slots=slots, traffic_density=0.5))
        npcs, obstacles = realize_traffic(scenario)
        assert len(npcs) + len(obstacles) == 4

    def test_realization_is_seed_deterministic(self):
        slots = [
            {"kind": "vehicle", "station": 10.0 + 5.0 * i, "speed": 3.0,
             "speed_jitter": 1.0, "lateral_jitter": 1.0}
            for i in range(8)
        ]
        scenario = scenario_from_dict(minimal_scenario_data(slots=slots, traffic_density=0.5))
        first_npcs, _ = realize_traffic(scenario, seed=123)
        second_npcs, _ = realize_traffic(scenario, seed=123)
        othered_npcs, _ = realize_traffic(scenario, seed=124)
        first = [(tuple(s.position), s.speed_long) for s, _ in first_npcs]
        second = [(tuple(s.position), s.speed_long) for s, _ in second_npcs]
        third = [(tuple(s.position), s.speed_long) for s, _ in othered_npcs]
        assert first == second
        assert first != third

    @pytest.mark.parametrize("seed", [-1, 1.5, True], ids=["negative", "fraction", "boolean"])
    @pytest.mark.parametrize("call", ["realize_traffic", "run_episode"])
    def test_bad_seed_names_seed(self, call, seed):
        slots = [{"kind": "vehicle", "station": 20.0, "speed": 3.0}]
        scenario = scenario_from_dict(minimal_scenario_data(slots=slots))
        with pytest.raises(ScenarioError, match="seed must be a non-negative integer"):
            if call == "realize_traffic":
                realize_traffic(scenario, seed=seed)
            else:
                run_episode(scenario, build_policy("idle", CFG), CFG, seed=seed)

    @pytest.mark.parametrize("density", ["0.5", True, False, math.nan, math.inf, 1.5, -0.25],
                             ids=["string", "true", "false", "nan", "inf", "above", "below"])
    @pytest.mark.parametrize("call", ["realize_traffic", "run_episode"])
    def test_bad_density_names_density(self, call, density):
        slots = [{"kind": "vehicle", "station": 20.0, "speed": 3.0}]
        scenario = scenario_from_dict(minimal_scenario_data(slots=slots))
        with pytest.raises(ScenarioError, match="density must be a number in"):
            if call == "realize_traffic":
                realize_traffic(scenario, density=density)
            else:
                run_episode(scenario, build_policy("idle", CFG), CFG, density=density)

    @pytest.mark.parametrize("density, count", [(None, 1), (0, 0), (np.float64(1.0), 1)])
    def test_density_takes_numbers_and_none_takes_the_scenarios(self, density, count):
        slots = [{"kind": "vehicle", "station": 20.0, "speed": 3.0}]
        scenario = scenario_from_dict(minimal_scenario_data(slots=slots))
        npcs, _ = realize_traffic(scenario, density=density)
        assert len(npcs) == count

    def test_negative_lane_width_names_field(self, tmp_path):
        data = minimal_scenario_data()
        data["route"]["lane_width"] = -1.0
        path = tmp_path / "s.json"
        path.write_text(json.dumps(data))
        with pytest.raises(ScenarioError, match="route.lane_width"):
            load_scenario(path)

    def test_bad_schema_version(self):
        with pytest.raises(ScenarioError, match="schema_version"):
            scenario_from_dict(minimal_scenario_data(schema_version=99))

    def test_unknown_top_level_key_rejected(self):
        with pytest.raises(ScenarioError, match="max_stepz"):
            scenario_from_dict(minimal_scenario_data(max_stepz=10))

    def test_npc_station_out_of_range_names_path(self):
        npcs = [{"station": 500.0}]
        with pytest.raises(ScenarioError, match=r"npcs\[0\].station"):
            scenario_from_dict(minimal_scenario_data(npcs=npcs))

    def test_braking_script_requires_positive_decel(self):
        npcs = [{"station": 20.0, "speed": 3.0,
                 "script": {"kind": "braking", "trigger_station": 30.0, "decel": 0.0}}]
        with pytest.raises(ScenarioError, match=r"npcs\[0\].script.decel"):
            scenario_from_dict(minimal_scenario_data(npcs=npcs))

    def test_moving_obstacle_rejected(self):
        with pytest.raises(ScenarioError, match=r"obstacles\[0\].speed"):
            scenario_from_dict(
                minimal_scenario_data(obstacles=[{"station": 20.0, "speed": 1.0}])
            )

    @pytest.mark.parametrize("field, value", [
        ("speed", 5.0),
        ("script", {"kind": "braking", "trigger_station": 30.0, "decel": 2.0}),
        ("speed_jitter", 1.0),
    ])
    def test_obstacle_slot_fails_as_an_obstacle_does(self, field, value):
        # each field is an error, not silently dropped when the slot is realised
        spec = {"station": 20.0, field: value}
        slots = [{"kind": "obstacle"} | spec]
        problems = validate_scenario_data(minimal_scenario_data(slots=slots))
        expected = validate_scenario_data(minimal_scenario_data(obstacles=[spec]))
        assert expected and problems == [p.replace("obstacles[0]", "slots[0]") for p in expected]

    @pytest.mark.parametrize("kind", [[], {}, 3, "truck"], ids=repr)
    def test_slot_kind_must_be_vehicle_or_obstacle(self, kind):
        slots = [{"kind": kind, "station": 20.0}]
        problems = validate_scenario_data(minimal_scenario_data(slots=slots))
        assert problems == [f"slots[0].kind must be 'vehicle' or 'obstacle' (got {kind!r})"]

    @pytest.mark.parametrize("goal", [0.0, 3.0, 5.0])
    def test_goal_must_lie_past_ego_spawn(self, goal):
        data = minimal_scenario_data()
        data["route"]["goal_station"] = goal
        with pytest.raises(ScenarioError, match="route.goal_station"):
            scenario_from_dict(data)

    def test_a_goal_past_the_route_end_fails_validation(self):
        # a projected station never passes the route's length, so no episode could reach it
        data = minimal_scenario_data()
        data["route"]["goal_station"] = goal = math.nextafter(80.0, math.inf)
        assert validate_scenario_data(data) == [
            f"route.goal_station must be a number within [0, 80] (got {goal!r})"]

    @pytest.mark.parametrize("policy", ["full_throttle", "lane_follower"])
    def test_a_goal_at_the_route_end_is_reached(self, policy):
        data = minimal_scenario_data(ego={"station": 0.0, "speed": 0.0})
        data["route"] |= {"centerline": [[0.0, 0.0], [20.0, 0.0]], "goal_station": 20.0}
        trace = run_episode(scenario_from_dict(data), build_policy(policy, CFG), CFG)
        assert trace.outcome is Outcome.SUCCESS

    @pytest.mark.parametrize("section, key, value", [
        ("route", "goal_station", "70"),
        ("route", "lane_width", True),
        (None, "max_steps", True),
    ])
    def test_numeric_fields_must_be_json_numbers(self, section, key, value):
        data = minimal_scenario_data()
        (data[section] if section else data)[key] = value
        problems = validate_scenario_data(data)
        assert len(problems) == 1
        assert problems[0].startswith(f"{section}.{key}" if section else key)

    @pytest.mark.parametrize("call", [
        lambda: WaypointFollower(((0.0, 0.0), (1.0, 0.0)), "3"),
        lambda: WaypointFollower(((0.0, 0.0), (1.0, 0.0)), True),
        lambda: Braking("x", 1.0),
        lambda: Braking(10.0, True),
        lambda: build_policy("teleport", CFG),
    ], ids=["waypoint-speed-string", "waypoint-speed-boolean", "trigger-string",
            "decel-boolean", "unknown-policy"])
    def test_bad_script_or_policy_raises_scenario_error(self, call):
        with pytest.raises(ScenarioError):
            call()

    @pytest.mark.parametrize("data, problem", [
        ([], "document must be an object"),
        ({"schema_version": 1, "ego": {"station": 5.0}}, "route is required"),
        (minimal_scenario_data(npcs=[{"station": 20.0, "script": {"kind": "teleport"}}]),
         "npcs[0].script.kind must be one of ('constant_velocity', 'waypoint_follower', "
         "'braking') (got 'teleport')"),
        (minimal_scenario_data(ego={"station": 5.0, "lateral_offset": -4.0}),
         "ego.lateral_offset must keep the ego on or near the lane (got -4.0)"),
    ], ids=["list", "no-route", "unknown-script-kind", "ego-off-the-lane"])
    def test_document_shape_problems(self, data, problem):
        assert validate_scenario_data(data) == [problem]

    def test_repeated_waypoints_fail_validation(self):
        npcs = [{"station": 20.0, "speed": 2.0,
                 "script": {"kind": "waypoint_follower", "speed": 2.0,
                            "waypoints": [[20.0, 0.0], [30.0, 0.0], [30.0, 0.0], [40.0, 0.0]]}}]
        with pytest.raises(ScenarioError, match=r"npcs\[0\].script.waypoints"):
            scenario_from_dict(minimal_scenario_data(npcs=npcs))

    @pytest.mark.parametrize("goal_station", [50.0, 0])
    def test_underflowing_centerline_segment_fails_validation(self, goal_station):
        # the squared length of [[0, 0], [1e-300, 0]] underflows to 0
        data = copy.deepcopy(SHIPPED_SCENARIOS["blocked_road.json"])
        data["route"]["centerline"][1][0] = 1e-300
        data["route"]["goal_station"] = goal_station
        problems = validate_scenario_data(data)
        assert len(problems) == 1
        assert problems[0].startswith("route.centerline has repeated consecutive points")

    def test_underflowing_waypoint_segment_fails_validation(self):
        npcs = [{"station": 20.0, "speed": 2.0,
                 "script": {"kind": "waypoint_follower", "speed": 2.0,
                            "waypoints": [[0.0, 0.0], [1e-300, 0.0], [40.0, 0.0]]}}]
        with pytest.raises(ScenarioError, match=r"npcs\[0\].script.waypoints"):
            scenario_from_dict(minimal_scenario_data(npcs=npcs))

    def test_huge_speed_fails_validation_with_the_range(self):
        # at 1e308 m/s the NPC's next position would overflow to inf mid-episode
        problems = validate_scenario_data(
            minimal_scenario_data(npcs=[{"station": 20.0, "speed": 1e308}])
        )
        assert problems == ["npcs[0].speed must lie in [0, 1e6] (got 1e+308)"]

    def test_heading_offset_places_crossing_actor(self):
        npcs = [{"station": 40.0, "lateral_offset": -20.0, "heading_offset_deg": 90.0,
                 "speed": 3.0}]
        scenario = scenario_from_dict(minimal_scenario_data(npcs=npcs))
        state, _ = scenario.npcs[0]
        assert state.heading == pytest.approx(math.pi / 2.0)
        assert np.allclose(state.position, [40.0, -20.0])


class TestRunEpisode:
    def test_empty_road_lane_follower_succeeds(self, scenarios_dir):
        scenario = load_scenario(scenarios_dir / "empty_road.json")
        trace = run_episode(scenario, build_policy("lane_follower", CFG), CFG)
        assert trace.outcome is Outcome.SUCCESS
        assert trace.route_progress == 1.0
        assert all(r.breakdown.l1_risk == 0.0 for r in trace.records)
        assert trace.records[-1].breakdown.terminal == pytest.approx(50.0)

    def test_full_throttle_into_wall_collides_at_impact_speed(self, scenarios_dir):
        scenario = load_scenario(scenarios_dir / "blocked_road.json")
        trace = run_episode(scenario, build_policy("full_throttle", CFG), CFG)
        assert trace.outcome is Outcome.COLLISION
        impact_speed = trace.records[-1].ego.speed
        expected = CFG.w_terminal * collision_penalty(impact_speed, CFG.v_max)
        assert trace.records[-1].breakdown.terminal == pytest.approx(expected, abs=1e-12)

    def test_waiting_times_out_with_dense_penalties_only(self, scenarios_dir):
        scenario = load_scenario(scenarios_dir / "blocked_road.json")
        trace = run_episode(scenario, build_policy("idle", CFG), CFG)
        assert trace.outcome is Outcome.TIMEOUT
        assert len(trace.records) == scenario.max_steps
        assert trace.records[-1].breakdown.total == 0.0
        style = sum(r.breakdown.l2_style for r in trace.records)
        assert style < 0.0
        assert trace.cumulative_reward < 0.0

    def test_waiting_beats_crashing(self, scenarios_dir):
        scenario = load_scenario(scenarios_dir / "blocked_road.json")
        waiting = run_episode(scenario, build_policy("idle", CFG), CFG)
        crashing = run_episode(scenario, build_policy("full_throttle", CFG), CFG)
        assert waiting.cumulative_reward > crashing.cumulative_reward

    @pytest.mark.parametrize("policy", BUILTIN_POLICIES)
    @pytest.mark.parametrize("name", ["blocked_road", "empty_road", "intersection"])
    def test_breakdowns_have_the_bits_of_total_reward(self, scenarios_dir, name, policy):
        # the risk of every step is scored after the loop, by the array kernel
        scenario = load_scenario(scenarios_dir / f"{name}.json")
        for density, seed in [(None, None), (1.0, 3)]:
            with collision_checks() as checked:
                trace = run_episode(scenario, build_policy(policy, CFG), CFG, density, seed)
            assert matches_replay(trace, scenario, CFG, density, seed, checked)

    @pytest.mark.parametrize("name", ["blocked_road", "empty_road", "intersection"])
    def test_contexts_carry_the_actors_the_policy_sees_next(self, scenarios_dir, name):
        seen, drive = [], build_policy("lane_follower", CFG)

        def spy(obs):
            seen.append(obs.others)
            return drive(obs)

        scenario = load_scenario(scenarios_dir / f"{name}.json")
        with collision_checks() as checked:
            trace = run_episode(scenario, spy, CFG, 1.0, 3)
        contexts = replayed_contexts(trace, scenario, CFG, 1.0, 3)
        npcs, obstacles = realize_traffic(scenario, 1.0, 3)
        assert len(contexts) == len(seen) == len(checked) and any(seen) is (name != "empty_road")
        # the spawn states first, then each step's replayed actors, the last step's aside
        spawned = tuple(state for state, _ in npcs) + obstacles
        assert same_bits(seen, [spawned] + [ctx.others for ctx in contexts[:-1]])
        # every step's checked actors, the last one's too, are its replayed ones within reach
        assert matches_replay(trace, scenario, CFG, 1.0, 3, checked)

    def test_waypoint_breakdowns_have_the_bits_of_total_reward(self, waypoint_documents):
        for path in waypoint_documents:
            scenario = load_scenario(path)
            with collision_checks() as checked:
                trace = run_episode(scenario, build_policy("lane_follower", CFG), CFG)
            assert any(r.breakdown.risk_assessments for r in trace.records)
            assert matches_replay(trace, scenario, CFG, checked=checked)

    def test_trace_is_bit_deterministic(self, scenarios_dir):
        scenario = load_scenario(scenarios_dir / "intersection.json")
        policy = build_policy("lane_follower", CFG)
        first = run_episode(scenario, policy, CFG, density=0.75, seed=5)
        second = run_episode(scenario, policy, CFG, density=0.75, seed=5)
        assert trace_rows(first) == trace_rows(second)

    def test_goal_at_station_zero_fails_before_the_first_step(self):
        # documents reject this goal, but a Scenario built in code can hold it
        ego = ActorState(position=(5.0, 0.0), heading=0.0, kind=ActorKind.EGO_VEHICLE)
        scenario = Scenario(route=straight_route(80.0, goal=0.0), ego_spawn=ego)
        steps = []
        with pytest.raises(ContractError, match="route.goal_station must be positive"):
            run_episode(scenario, lambda obs: steps.append(obs) or (0.0, 0.0), CFG)
        assert steps == []

    @pytest.mark.parametrize("script", [None, object()], ids=["none", "object"])
    def test_unknown_npc_script_names_its_type(self, script):
        # documents build only known scripts, but a Scenario built in code can hold anything
        ego = ActorState(position=(5.0, 0.0), heading=0.0, kind=ActorKind.EGO_VEHICLE)
        npc = ActorState(position=(30.0, 0.0), heading=0.0, speed_long=2.0)
        scenario = Scenario(route=straight_route(80.0), ego_spawn=ego, npcs=((npc, script),))
        name = type(script).__name__
        with pytest.raises(ContractError, match=rf"^NPC script must be .* \(got {name}\)$"):
            run_episode(scenario, full_throttle_policy(1.0), CFG)

    @pytest.mark.parametrize("max_steps", [0, -3, 2.5, True])
    def test_bad_max_steps_fails_before_the_first_step(self, max_steps):
        # documents reject these, but a Scenario built in code can hold them
        ego = ActorState(position=(5.0, 0.0), heading=0.0, kind=ActorKind.EGO_VEHICLE)
        scenario = Scenario(route=straight_route(80.0), ego_spawn=ego, max_steps=max_steps)
        steps = []
        with pytest.raises(ContractError, match=r"^max_steps must be an integer >= 1 \(got "):
            run_episode(scenario, lambda obs: steps.append(obs) or (0.0, 0.0), CFG)
        assert steps == []

    @pytest.mark.parametrize("max_steps, steps", [(1, 1), (np.int64(3), 3), (10**7, 14)])
    def test_max_steps_takes_any_integer_from_one(self, max_steps, steps):
        ego = ActorState(position=(5.0, 0.0), heading=0.0, kind=ActorKind.EGO_VEHICLE)
        scenario = Scenario(route=straight_route(80.0, goal=10.0), ego_spawn=ego,
                            max_steps=max_steps)
        assert len(run_episode(scenario, full_throttle_policy(6.0), CFG).records) == steps

    def test_only_spawned_states_run_the_constructor_checks(self, scenarios_dir, monkeypatch):
        scenario = load_scenario(scenarios_dir / "intersection.json")
        npcs, obstacles = realize_traffic(scenario, density=1.0, seed=3)
        spawned = len(npcs) + len(obstacles) - len(scenario.npcs) - len(scenario.obstacles)
        checks, post_init = [], ActorState.__post_init__

        def counted(state):
            checks.append(state)
            post_init(state)

        monkeypatch.setattr(ActorState, "__post_init__", counted)
        trace = run_episode(scenario, build_policy("lane_follower", CFG), CFG, density=1.0, seed=3)
        assert spawned > 0 and len(trace.records) > 10
        assert len(checks) == spawned  # one per slot placed this episode, none per step

    def test_offroad_detected_for_runaway_heading(self):
        scenario = scenario_from_dict(minimal_scenario_data(
            ego={"station": 5.0, "speed": 4.0, "heading_offset_deg": 40.0},
        ))
        trace = run_episode(scenario, scripted_replay_policy([]), CFG)
        assert trace.outcome is Outcome.OFFROAD
        assert trace.records[-1].breakdown.terminal == pytest.approx(-50.0)

    def test_scripted_replay_policy_replays_then_idles(self):
        scenario = scenario_from_dict(minimal_scenario_data(max_steps=5))
        policy = scripted_replay_policy([(2.0, 0.0), (1.0, 0.0)])
        trace = run_episode(scenario, policy, CFG)
        actions = [r.action[0] for r in trace.records]
        assert actions == [2.0, 1.0, 0.0, 0.0, 0.0]

    def test_replay_policy_object_is_reusable(self, scenarios_dir):
        scenario = load_scenario(scenarios_dir / "empty_road.json")
        policy = scripted_replay_policy([(2.0, 0.0)] * 30)
        first = run_episode(scenario, policy, CFG)
        second = run_episode(scenario, policy, CFG)
        assert trace_rows(first) == trace_rows(second)
        assert first.outcome is Outcome.SUCCESS

    @pytest.mark.parametrize("action", [("x", 0.0), (True, False), (math.nan, 0.0), None, (1.0,)],
                             ids=["string", "booleans", "nan", "none", "one-value"])
    @pytest.mark.parametrize("source", ["policy action", "ego action", "scripted action"])
    def test_bad_action_names_its_source(self, source, action):
        with pytest.raises(ContractError, match=f"^{source} must be two finite numbers"):
            if source == "policy action":
                scenario = scenario_from_dict(minimal_scenario_data(max_steps=3))
                run_episode(scenario, lambda obs: action, CFG)
            elif source == "ego action":
                step_world(make_world(), action, CFG)
            else:
                scripted_replay_policy([(1.0, 0.0), action])

    def test_cumulative_reward_is_sum_of_step_totals(self, scenarios_dir):
        scenario = load_scenario(scenarios_dir / "intersection.json")
        trace = run_episode(scenario, build_policy("lane_follower", CFG), CFG, seed=2)
        assert trace.cumulative_reward == pytest.approx(
            sum(r.breakdown.total for r in trace.records)
        )

    def test_trace_survives_a_pickle_round_trip(self, scenarios_dir):
        # slotted frozen records pickle through their generated __getstate__/__setstate__,
        # which sending episodes to worker processes would need
        scenario = load_scenario(scenarios_dir / "intersection.json")
        trace = run_episode(scenario, build_policy("lane_follower", CFG), CFG, seed=3)
        restored = pickle.loads(pickle.dumps(trace))
        assert len(restored.records) == len(trace.records) > 1
        assert any(r.breakdown.risk_assessments for r in trace.records)
        assert same_bits(restored.records, trace.records)

    def test_speeding_violation_flags_level_zero(self):
        cfg = RewardConfig(speed_limit=2.0)
        scenario = scenario_from_dict(minimal_scenario_data(max_steps=30))
        trace = run_episode(scenario, full_throttle_policy(6.0), cfg)
        flagged = [r.breakdown.l0_rules for r in trace.records if r.ego.speed_long > 2.0 + 1e-9]
        assert flagged and all(v == -1.0 for v in flagged)


class TestBuiltOnRead:
    """The loop builds an NPC's state only for a pair the broad phase keeps, a policy's
    `obs.others` when first read, and a step's `risk_assessments` when first read."""

    @pytest.fixture
    def intersection(self, scenarios_dir):
        return load_scenario(scenarios_dir / "intersection.json")

    def run(self, scenario, policy=None):
        return run_episode(scenario, policy or build_policy("lane_follower", CFG), CFG, 1.0, 3)

    def test_states_are_built_for_the_ego_and_the_kept_pairs_only(self, intersection,
                                                                  monkeypatch):
        calls, make = [], sim_module._make_state
        monkeypatch.setattr(sim_module, "_make_state", lambda *args: calls.append(1) or make(*args))
        with collision_checks() as checked:
            trace = self.run(intersection)
        kept = sum(actor.kind is ActorKind.NPC_VEHICLE for actors in checked for actor in actors)
        npcs = len(realize_traffic(intersection, 1.0, 3)[0])
        assert 0 < kept < npcs * len(trace.records)
        assert len(calls) == len(trace.records) + kept

    def test_assessments_are_built_when_read_with_the_bits_of_risk_reward(self, intersection,
                                                                         monkeypatch):
        calls, make = [], risk_module._make_assessment
        monkeypatch.setattr(risk_module, "_make_assessment",
                            lambda *args: calls.append(1) or make(*args))
        trace = self.run(intersection)
        assert calls == []
        contexts = replayed_contexts(trace, intersection, CFG, 1.0, 3)
        assert all(same_bits(record.breakdown.risk_assessments,
                             risk_reward(ctx.ego, ctx.others, CFG)[1])
                   for record, ctx in zip(trace.records, contexts))
        assert len(calls) == sum(len(ctx.others) for ctx in contexts) > 0

    @ON_A_SHARED_TRACK
    def test_a_static_npc_set_moving_fails_the_first_step(self, shared):
        npc = ActorState((0.0, 5.0), 0.0, kind=ActorKind.STATIC_OBSTACLE)
        ego = ActorState((5.0, 0.0), 0.0, kind=ActorKind.EGO_VEHICLE)
        scenario = Scenario(route=straight_route(80.0), ego_spawn=ego,
                            npcs=((npc, WaypointFollower(((0, 5), (50, 5)), 3.0)),))
        calls = []
        policy = held_rows(scenario, lambda obs: calls.append(obs) or (0.0, 0.0), shared)
        with collision_checks() as checked, pytest.raises(
                ContractError, match="^static obstacles must have zero velocity$"):
            run_episode(scenario, policy, CFG)
        assert (len(checked), len(calls)) == (0, 30 if shared else 1)

    def test_a_trace_pickled_before_and_after_a_read_round_trips(self, intersection):
        unread, read = self.run(intersection), self.run(intersection)
        assert any(r.breakdown.risk_assessments for r in read.records)
        for trace in (unread, read):
            unpickled = pickle.loads(pickle.dumps(trace))
            assert same_bits(unpickled, read)
            assert trace_rows(unpickled) == trace_rows(trace)

    def test_observations_pickle_before_and_after_a_read(self, intersection):
        seen, drive = [], build_policy("lane_follower", CFG)

        def spy(obs):
            seen.append((pickle.dumps(obs), obs.others, pickle.dumps(obs)))
            return drive(obs)

        self.run(intersection, spy)
        assert any(others for _, others, _ in seen)
        for before, others, after in seen:
            assert same_bits(pickle.loads(before).others, others)
            assert same_bits(pickle.loads(after).others, others)

    def test_four_threads_reading_one_trace_get_equal_assessments(self, intersection):
        trace, serial = self.run(intersection), self.run(intersection)
        barrier = threading.Barrier(4, timeout=30)

        def read(_):
            barrier.wait()
            return [record.breakdown.risk_assessments for record in trace.records]

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)  # switch often, so the first reads race
        try:
            with ThreadPoolExecutor(max_workers=4) as pool:
                reads = list(pool.map(read, range(4)))
        finally:
            sys.setswitchinterval(interval)
        expected = [record.breakdown.risk_assessments for record in serial.records]
        assert any(expected) and all(same_bits(got, expected) for got in reads)


class TestRssClosure:
    """The reward's safe gap against the simulator: RSS (Shalev-Shwartz et al.,
    arXiv:1708.06374) says a follower at the leading clearance that accelerates for the
    reaction time and then brakes at the minimum rate never hits a leader braking hard."""

    @pytest.mark.xfail(strict=True, reason=(
        "ROADMAP item 10: step_world moves an actor at its pre-step speed, so a braking actor "
        "travels about v * dt / 2 past its continuous stopping distance and a gap of "
        "leading_clearance + 0.05 m is not safe in the simulator"))
    @settings(deadline=None)
    @given(v_ego=st.floats(0.0, CFG.v_max), v_lead=st.floats(0.0, CFG.v_max))
    @example(v_ego=3.0, v_lead=0.0)  # collides at step 14
    def test_a_worst_case_follower_at_the_leading_clearance_never_collides(self, v_ego, v_lead):
        gap = leading_clearance(v_ego, v_lead, "long", CFG) + 0.05  # bumper to bumper
        braking = {"kind": "braking", "trigger_station": 0.0, "decel": CFG.a_brk_max_x}
        scenario = scenario_from_dict(minimal_scenario_data(
            route={"centerline": [[0.0, 0.0], [2000.0, 0.0]], "lane_width": 3.5,
                   "goal_station": 2000.0},
            ego={"station": 10.0, "speed": v_ego}, max_steps=40,
            npcs=[{"station": 10.0 + DEFAULT_LENGTH + gap, "speed": v_lead,
                   "script": braking}]))
        reaction = round(CFG.rho / CFG.dt)
        actions = [(CFG.a_acc_max_x, 0.0)] * reaction + [(-CFG.a_brk_min_x, 0.0)] * 40
        trace = run_episode(scenario, scripted_replay_policy(actions), CFG)
        assert trace.outcome is not Outcome.COLLISION


# A waypoint polyline whose last leg crosses its first, where the nearest point of the
# crossing ties between the two passes
SELF_CROSSING = [[0.0, 0.0], [10.0, 0.0], [10.0, 10.0], [5.0, 10.0], [5.0, -5.0]]
SPEEDS = st.just(0.0) | st.floats(0.0, 8.0)


class TestTracks:
    """Open-loop NPCs step along tracks built as the loop reaches them, one plain-float step
    at a time, as repeated `step_world` calls and per-state steps would."""

    def test_tracks_are_built_only_as_far_as_the_loop_reaches(self):
        # one NPC of each script, built in code well clear of the ego's lane
        npcs = ((ActorState((30.0, 20.0), 0.0, speed_long=2.0), ConstantVelocity()),
                (ActorState((50.0, -20.0), 0.0, speed_long=3.0), Braking(51.0, 2.0)),
                (ActorState((0.0, 30.0), 0.0, speed_long=2.0),
                 WaypointFollower(tuple((x, y + 30.0) for x, y in SELF_CROSSING), 2.0)))
        ego = ActorState((5.0, 0.0), 0.0, kind=ActorKind.EGO_VEHICLE)
        scenario = Scenario(route=straight_route(80.0, goal=10.0), ego_spawn=ego, npcs=npcs,
                            max_steps=10**7)
        tracemalloc.start()
        try:
            trace = run_episode(scenario, full_throttle_policy(6.0), CFG)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert trace.outcome is Outcome.SUCCESS and len(trace.records) == 14
        # 10**7 steps of one track's five float columns alone would take 381 MiB
        assert peak < 4 * 2**20

    def test_an_episode_without_actors_calls_no_numpy(self, scenarios_dir, monkeypatch):
        scenario = load_scenario(scenarios_dir / "empty_road.json")
        for module in (sim_module, risk_module, reward_module):
            monkeypatch.setattr(module, "np", None, raising=False)  # reward imports no numpy
        trace = run_episode(scenario, build_policy("lane_follower", CFG), CFG)
        assert trace.outcome is Outcome.SUCCESS

    def test_an_episode_builds_no_step_context(self, scenarios_dir, monkeypatch):
        # the loop keeps each step's values and scores them after it; StepContext is the
        # scalar path's record, which total_reward takes
        scenario = load_scenario(scenarios_dir / "intersection.json")
        policy = build_policy("lane_follower", CFG)
        normal = run_episode(scenario, policy, CFG, 1.0, 3)

        def refuse(ctx):
            raise AssertionError("run_episode built a StepContext")

        monkeypatch.setattr(StepContext, "__post_init__", refuse)
        trace = run_episode(scenario, policy, CFG, 1.0, 3)
        assert len(trace.records) > 10 and any(r.breakdown.risk_assessments for r in trace.records)
        assert same_bits((trace.records, trace.outcome), (normal.records, normal.outcome))

    def test_a_non_finite_jerk_raises_at_the_step_that_made_it(self):
        # a Scenario built in code can spawn the ego at any finite acceleration; from
        # 1e308 m/s^2 to the first step's 0, the jerk is -1e309, which overflows
        ego = ActorState((5.0, 0.0), 0.0, accel_long=1e308, kind=ActorKind.EGO_VEHICLE)
        scenario = Scenario(route=straight_route(80.0), ego_spawn=ego)
        calls = []
        with pytest.raises(ContractError, match="^steering_rate and jerk must be finite numbers$"):
            run_episode(scenario, lambda obs: calls.append(obs) or (0.0, 0.0), CFG)
        assert len(calls) == 1

    @ON_A_SHARED_TRACK
    def test_an_overflow_raises_at_the_step_whose_state_holds_it(self, shared):
        # x is finite for three steps of 1e307 * dt and overflows on the fourth; the row
        # that holds it is built at that step, or with the rows after it, and its state
        # raises at that step
        scenario, calls = overflowing_npc_scenario(), []
        policy = held_rows(scenario, lambda obs: calls.append(obs) or (0.0, 0.0), shared)
        message = "ActorState position must be two finite numbers (got (inf, 50.0))"
        with collision_checks() as checked, pytest.raises(ContractError,
                                                           match=f"^{re.escape(message)}$"):
            run_episode(scenario, policy, CFG)
        assert (len(checked), len(calls)) == (3, 30 if shared else 4)

    @ON_A_SHARED_TRACK
    def test_an_overflow_after_the_collision_step_raises_nothing(self, shared):
        # the ego spawns against an obstacle, so the episode ends at step 1, before the NPC's
        # row overflows at step 4, even where the array pass has built that row
        scenario = dataclasses.replace(overflowing_npc_scenario(),
                                       obstacles=(ActorState((8.0, 1.0), 0.3),))
        trace = run_episode(scenario, held_rows(scenario, lambda obs: (0.0, 0.0), shared), CFG)
        assert (trace.outcome, len(trace.records)) == (Outcome.COLLISION, 1)

    @ON_A_SHARED_TRACK
    def test_a_braking_row_made_nan_raises_at_its_step(self, shared):
        # at dt 2.0 a step at 1e308 m/s is inf m, and inf * sin(0.0) is NaN, so the first row
        # holds a NaN y; the array pass builds the rows after it too, unprojected
        config = RewardConfig(dt=2.0)
        npc = ActorState((30.0, 20.0), 0.0, speed_long=1e308)
        ego = ActorState((5.0, 0.0), 0.0, kind=ActorKind.EGO_VEHICLE)
        scenario = Scenario(route=straight_route(), ego_spawn=ego,
                            npcs=((npc, Braking(0.0, 1.0)),))
        message = "ActorState position must be two finite numbers (got (inf, nan))"
        with collision_checks() as checked, pytest.raises(ContractError,
                                                           match=f"^{re.escape(message)}$"):
            run_episode(scenario, held_rows(scenario, lambda obs: (0.0, 0.0), shared, config),
                        config)
        assert checked == []

    @ON_A_SHARED_TRACK
    def test_a_waypoint_step_whose_arc_length_overflows_warns_nothing(self, shared):
        # at 1e308 m/s each step adds 1e307 m of arc length, so an unclamped running sum
        # would overflow to inf at its 18th step; the line's end clamps it, and no
        # RuntimeWarning (an error under the suite's filterwarnings) escapes
        npc = ActorState((0.0, 30.0), 0.0, speed_long=2.0)
        script = WaypointFollower(tuple((x, y + 30.0) for x, y in SELF_CROSSING), speed=1e308)
        ego = ActorState((5.0, 0.0), 0.0, kind=ActorKind.EGO_VEHICLE)
        scenario = Scenario(route=straight_route(80.0, goal=10.0), ego_spawn=ego,
                            npcs=((npc, script),), max_steps=40)
        trace = run_episode(scenario, held_rows(scenario, full_throttle_policy(6.0), shared), CFG)
        assert trace.outcome is Outcome.SUCCESS and len(trace.records) == 14

    @pytest.mark.parametrize("speed", [0.0, 3.0])
    @pytest.mark.parametrize("station", [-5.0, -0.0, math.nan, math.inf, 60.0],
                             ids=["negative", "minus-zero", "nan", "inf", "past-the-end"])
    def test_a_carried_station_off_the_line_steps_as_the_oracle(self, station, speed):
        # a World built in code may carry any arc length: below the line's start the pose
        # clamps to its first point and past its end to its last, while NaN has no pose
        script = WaypointFollower(((0.0, 5.0), (20.0, 5.0), (50.0, 5.0)), speed=speed)
        npc = ActorState((10.0, 5.0), 0.0, speed_long=3.0, accel_long=0.5)
        world = dataclasses.replace(make_world(npcs=[npc], scripts=[script]), stations=(station,))
        if math.isnan(station):
            with pytest.raises(ContractError) as oracle:
                step_npc(npc, script, world.route, CFG.dt, station)
            with pytest.raises(ContractError, match=f"^{re.escape(str(oracle.value))}$"):
                step_world(world, (0.0, 0.0), CFG)
            return
        state = npc
        for _ in range(3):
            state, station = step_npc(state, script, world.route, CFG.dt, station)
            world = step_world(world, (0.0, 0.0), CFG)
            assert same_bits((world.npcs, world.stations), ((state,), (station,)))
        if speed and world.stations[0] < 0.0:  # still short of the line's start
            assert world.npcs[0].position == (0.0, 5.0)

    def test_step_world_steps_npcs_of_every_script_without_numpy(
            self, scenarios_dir, waypoint_documents, monkeypatch):
        # the seed-3, density-1.0 intersection world: five constant-velocity NPCs and one
        # braking NPC, which reaches its trigger station at step 31 and brakes from step 32;
        # and the first seed-7 waypoint world, whose NPCs all follow waypoints
        worlds = []
        for path, density, seed in ((scenarios_dir / "intersection.json", 1.0, 3),
                                    (waypoint_documents[0], None, None)):
            scenario = load_scenario(path)
            npcs, obstacles = realize_traffic(scenario, density, seed)
            worlds.append(World(route=scenario.route, time=0.0, ego=scenario.ego_spawn,
                                npcs=tuple(state for state, _ in npcs),
                                scripts=tuple(script for _, script in npcs), obstacles=obstacles))
        assert [{type(script) for script in world.scripts} for world in worlds] == [
            {ConstantVelocity, Braking}, {WaypointFollower}]

        def stepped():
            states = []
            for state in worlds:
                for _ in range(40):
                    state = step_world(state, (1.0, 0.0), CFG)
                states.append((state.time, state.ego, state.npcs, state.stations))
            return states

        expected = stepped()
        monkeypatch.setattr(sim_module, "np", None)
        assert same_bits(stepped(), expected)
        intersection = worlds[0]
        braking = next(i for i, s in enumerate(intersection.scripts) if isinstance(s, Braking))
        assert expected[0][2][braking].speed_long < intersection.npcs[braking].speed_long
        assert all(station > 0.0 for station in expected[1][3])

    def test_waypoint_episodes_in_two_threads_match_a_serial_run(self, waypoint_documents):
        # both threads run every document, in step, on the same Scenario and script objects
        scenarios = [load_scenario(path) for path in waypoint_documents]
        policy = build_policy("lane_follower", CFG)

        def run_all(_):
            return [run_episode(scenario, policy, CFG) for scenario in scenarios]

        serial = run_all(None)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)  # switch often, so the two runs interleave finely
        try:
            with ThreadPoolExecutor(max_workers=2) as pool:
                threaded = list(pool.map(run_all, range(2)))
        finally:
            sys.setswitchinterval(interval)
        assert same_bits(threaded, [serial, serial])

    @settings(max_examples=300, deadline=None)
    @given(x=st.floats(-1.79e308, 1.79e308), y=st.floats(-1.79e308, 1.79e308),
           heading=st.sampled_from([0.0, -0.0, math.pi / 2, -math.pi]) | st.floats(-4.0, 4.0),
           speed=st.floats(-1e3, 1e3) | st.floats(-1.79e308, 1.79e308),
           dt=st.sampled_from([0.05, 0.1, 0.3, 2.0]), steps=st.integers(1, 2 * sim_module._CHUNK),
           data=st.data())
    # x overflows to inf at step 4; at dt 2.0, speed * dt overflows and inf * sin(0.0) is NaN
    @example(x=1.79e308 - 3e307 * 0.1 * 0.999, y=50.0, heading=0.0, speed=1e307, dt=0.1, steps=9,
             data=None)
    @example(x=0.0, y=-0.0, heading=0.0, speed=1e308, dt=2.0, steps=3, data=None)
    def test_accumulated_constant_velocity_rows_have_the_bits_of_repeated_steps(
            self, x, y, heading, speed, dt, steps, data):
        # the array pass fills a constant-velocity track's rows by np.add.accumulate, a chunk
        # of steps at a time; `_extend` adds one plain-float step per row
        state = ActorState((x, y), heading, speed_long=speed, accel_long=-0.5)
        scalar, track = (sim_module._Track(state, ConstantVelocity(), straight_route(), dt)
                         for _ in range(2))
        for _ in range(steps):
            scalar._extend()
        track.block = np.zeros((steps + 1, 7))
        track.block[0] = track.rows[0]
        chunk = data.draw(st.integers(1, steps), label="chunk") if data else steps
        with np.errstate(all="ignore"):
            for start in range(1, steps + 1, chunk):
                track._fill(start, min(start + chunk - 1, steps))
        assert same_bits(track.block.tolist(), scalar.rows)
        assert same_bits(track.columns(steps), np.array(scalar.rows)[1:, :6])

    @settings(max_examples=60, deadline=None)
    @given(cv_speed=SPEEDS, cv_heading=st.floats(-180.0, 180.0), brake_speed=SPEEDS,
           trigger_ahead=st.floats(-2.0, 12.0), decel=st.floats(0.5, 8.0), wp_speed=SPEEDS,
           wp_spawn=st.floats(0.0, 20.0), dt=st.sampled_from([0.05, 0.1, 0.3]),
           policy=st.sampled_from(BUILTIN_POLICIES))
    @example(cv_speed=0.0, cv_heading=0.0, brake_speed=0.0, trigger_ahead=0.0, decel=1.0,
             wp_speed=0.0, wp_spawn=0.0, dt=0.1, policy="idle")  # nothing moves
    @example(cv_speed=4.0, cv_heading=90.0, brake_speed=3.0, trigger_ahead=1.0, decel=0.5,
             wp_speed=5.0, wp_spawn=0.0, dt=0.1, policy="idle")  # brakes once 1 m on
    def test_tracks_equal_repeated_step_world_and_per_state_steps(
            self, cv_speed, cv_heading, brake_speed, trigger_ahead, decel, wp_speed, wp_spawn,
            dt, policy):
        # a document with one NPC of each script, mutated; the episode runs up to 70 steps
        # unless the ego ends it first
        brake_station = 30.0
        scenario = scenario_from_dict(minimal_scenario_data(
            max_steps=70, ego={"station": 1.0},
            npcs=[{"station": 10.0, "lateral_offset": 25.0, "heading_offset_deg": cv_heading,
                   "speed": cv_speed},
                  {"station": brake_station, "lateral_offset": -12.0, "speed": brake_speed,
                   "script": {"kind": "braking", "decel": decel,
                              "trigger_station": brake_station + trigger_ahead}},
                  {"station": wp_spawn, "lateral_offset": 30.0, "speed": wp_speed,
                   "script": {"kind": "waypoint_follower", "speed": wp_speed,
                              "waypoints": [[x + 2.0, y + 30.0] for x, y in SELF_CROSSING]}}]))
        config, seen = RewardConfig(dt=dt), []
        drive = build_policy(policy, config)

        def spy(obs):  # the NPCs after each step but the last, as the loop made them
            seen.append(obs.others)
            return drive(obs)

        with collision_checks() as checked:  # each step's NPCs within reach of the ego
            trace = run_episode(scenario, spy, config)
        npcs, _ = realize_traffic(scenario)
        world = make_world(ego=scenario.ego_spawn, npcs=[state for state, _ in npcs],
                           scripts=[script for _, script in npcs], route=scenario.route)
        states, stations = world.npcs, (None,) * len(npcs)
        for record, actors, next_seen in zip(trace.records, checked, seen[1:] + [None]):
            world = step_world(world, record.action, config)
            states, stations = zip(*(step_npc(state, script, scenario.route, dt, station)
                                     for state, station, script
                                     in zip(states, stations, world.scripts)))
            assert same_bits((world.time, world.ego, within_reach(world.ego, world.npcs)),
                             (record.time, record.ego, actors))
            assert next_seen is None or same_bits(world.npcs, next_seen)
            assert same_bits((states, stations), (world.npcs, world.stations))
        if brake_speed > 0.0 and trigger_ahead <= 0.0:  # it brakes from the first step
            assert world.npcs[1].speed_long < brake_speed


# the (density, seed) of each episode of the criterion-7 sweep: seed 7, 20 episodes per density
CRITERION_7_EPISODES = [(density, _episode_seed(7, d_idx, episode))
                        for d_idx, density in enumerate((0.5, 0.75, 1.0)) for episode in range(20)]


def at_distance(centre, distance, np_distance):
    """A point whose `math.hypot` distance from `centre` is `distance`, and whose `np.hypot`
    distance is `np_distance` if a seeded search over 5,000 directions finds one."""
    cx, cy = centre
    found = []
    for theta in np.random.default_rng(0).uniform(-math.pi, math.pi, 5000).tolist():
        x, y = cx + distance * math.cos(theta), cy + distance * math.sin(theta)
        for x in (x, math.nextafter(x, -math.inf), math.nextafter(x, math.inf)):
            if math.hypot(x - cx, y - cy) == distance:
                if np.hypot(x - cx, y - cy) == np_distance:
                    return x, y
                found.append((x, y))
    return found[0]


def same_trace(trace, other):
    return same_bits(
        (trace.records, trace.outcome, trace.cumulative_reward, trace.route_progress,
         trace.average_velocity),
        (other.records, other.outcome, other.cumulative_reward, other.route_progress,
         other.average_velocity))


class TestEgoTrack:
    """The ego's steps are a track that `riskrl sweep` shares between the episodes of a
    scenario, which is sound because no built-in policy reads the traffic."""

    @pytest.mark.parametrize("name", ["blocked_road", "empty_road", "intersection"])
    def test_no_builtin_policy_reads_the_traffic(self, scenarios_dir, monkeypatch, name):
        made, reads, make = [], [], sim_module._make_observation

        def counted(ego, pose, others, step):  # `others` is the lazy traffic callable
            made.append(step)
            return make(ego, pose, lambda obs: reads.append(step) or others(obs), step)

        monkeypatch.setattr(sim_module, "_make_observation", counted)
        scenario = load_scenario(scenarios_dir / f"{name}.json")
        for policy in BUILTIN_POLICIES:
            for density, seed in CRITERION_7_EPISODES:
                run_episode(scenario, build_policy(policy, CFG), CFG, density, seed)
        assert len(made) > 60 * 3 and reads == []

    def test_a_shared_track_whose_policy_reads_the_traffic_raises_at_that_step(
            self, scenarios_dir):
        scenario = load_scenario(scenarios_dir / "intersection.json")
        drive = build_policy("lane_follower", CFG)

        def peek(obs):  # reads the traffic at its sixth decision only
            if obs.step == 5:
                assert isinstance(obs.others, tuple)
            return drive(obs)

        plain = run_episode(scenario, peek, CFG, 1.0, 3)  # an episode's own track reads it
        track = sim_module._EgoTrack(scenario, peek, CFG)
        with pytest.raises(ContractError, match="^obs.others is not available on an ego track "):
            run_episode(scenario, track, CFG, 1.0, 3)
        assert len(plain.records) > 5 and len(track.rows) == 6  # the spawn and steps 1 to 5

    @pytest.mark.parametrize("spawn, policy, rows, message", [
        # from 1e308 m/s to v_max in one step is an acceleration of -1e309, which overflows
        ({"speed_long": 1e308}, full_throttle_policy(1.0), 1,
         "ActorState accel_long must be a finite number (got -inf)"),
        ({}, lambda obs: (math.nan, 0.0) if obs.step == 3 else (1.0, 0.0), 4,
         "policy action must be two finite numbers"),
        # from 1e308 m/s^2 to the first step's 0, the jerk is -1e309, which overflows
        ({"accel_long": 1e308}, lambda obs: (0.0, 0.0), 1,
         "steering_rate and jerk must be finite numbers"),
    ], ids=["ego-state", "policy-action", "jerk"])
    def test_a_step_that_fails_its_checks_leaves_the_track_unextended(
            self, spawn, policy, rows, message):
        ego = ActorState((5.0, 0.0), 0.0, **spawn, kind=ActorKind.EGO_VEHICLE)
        scenario = Scenario(route=straight_route(80.0), ego_spawn=ego)
        track = sim_module._EgoTrack(scenario, policy, CFG)
        for _ in range(2):  # the second episode reaches the same step and raises the same
            with pytest.raises(ContractError, match=f"^{re.escape(message)}"):
                run_episode(scenario, track, CFG)
            assert len(track.rows) == rows

    def test_a_track_runs_only_its_scenario_and_config(self, scenarios_dir):
        scenario = load_scenario(scenarios_dir / "intersection.json")
        policy = build_policy("lane_follower", CFG)
        track = sim_module._EgoTrack(scenario, policy, CFG)
        for other, config in ((load_scenario(scenarios_dir / "intersection.json"), CFG),
                              (scenario, RewardConfig())):
            with pytest.raises(ContractError, match="^an ego track runs only the scenario and "):
                run_episode(other, track, config)
        assert len(track.rows) == 1

    @pytest.mark.parametrize("policy", BUILTIN_POLICIES)
    @pytest.mark.parametrize("name", ["blocked_road", "empty_road", "intersection"])
    def test_episodes_of_a_shared_track_have_the_bits_of_plain_episodes(
            self, scenarios_dir, name, policy):
        scenario = load_scenario(scenarios_dir / f"{name}.json")
        drive, calls = build_policy(policy, CFG), []
        episodes = [(density, seed) for density in (0.5, 1.0) for seed in (0, 3, 11)]
        plain = {episode: run_episode(scenario, drive, CFG, *episode) for episode in episodes}
        by_length = sorted(episodes, key=lambda episode: len(plain[episode].records))
        longest = len(plain[by_length[-1]].records)
        for order in (by_length[::-1], by_length):  # the longest episode first, then last
            calls.clear()
            track = sim_module._EgoTrack(scenario, lambda obs: calls.append(1) or drive(obs), CFG)
            for episode in order:
                assert same_trace(run_episode(scenario, track, CFG, *episode), plain[episode])
            assert len(calls) == longest == len(track.rows) - 1

    @pytest.mark.parametrize("kind", ["npc", "obstacle"])
    def test_a_later_episode_keeps_an_npc_at_exactly_its_reach_as_the_plain_path_does(self, kind):
        # NPCs at rest, or static obstacles: one whose centre lies exactly at the reach from the
        # ego's, and one a ulp beyond it, by math.hypot; where a search finds them, np.hypot
        # rounds the first distance up past the reach and the second down onto it
        ego = ActorState((5.0, 0.0), 0.0, kind=ActorKind.EGO_VEHICLE)
        reach = sim_module._reach(ego, ActorState((0.0, 0.0), 0.0))
        beyond = math.nextafter(reach, math.inf)
        points = [at_distance(ego.position, reach, beyond),
                  at_distance(ego.position, beyond, reach)]
        if kind == "npc":
            traffic = {"npcs": tuple((ActorState(p, 0.0), ConstantVelocity()) for p in points)}
        else:
            traffic = {"obstacles": tuple(ActorState(p, 0.0, kind=ActorKind.STATIC_OBSTACLE)
                                          for p in points)}
        scenario = Scenario(route=straight_route(80.0), ego_spawn=ego, max_steps=5, **traffic)
        idle = build_policy("idle", CFG)
        with collision_checks() as plain:
            expected = run_episode(scenario, idle, CFG)
        with collision_checks() as shared:
            trace = run_episode(scenario, held_rows(scenario, idle, True), CFG)
        assert same_trace(trace, expected) and same_bits(shared, plain)
        assert [[actor.position for actor in actors] for actors in plain] == [[points[0]]] * 5

    def test_a_later_episode_keeps_an_npc_at_a_subnormal_reach_as_the_plain_path_does(self):
        # footprints of 5e-313 m make a subnormal reach, 143,120,005,985 steps of 5e-324; the
        # NPC's centre is exactly at it by math.hypot, and np.hypot rounds it a step up, past
        # any relative margin of 1e-12
        size, point = 5e-313, (5.95716677106e-313, 3.8094834509e-313)
        ego = ActorState((0.0, 0.0), 0.0, kind=ActorKind.EGO_VEHICLE, length=size, width=size)
        npc = ActorState(point, 0.0, length=size, width=size)
        assert math.hypot(*point) == sim_module._reach(ego, npc) == 143120005985 * 5e-324
        scenario = Scenario(route=straight_route(80.0), ego_spawn=ego, max_steps=5,
                            npcs=((npc, ConstantVelocity()),))
        idle = build_policy("idle", CFG)
        with collision_checks() as plain:
            expected = run_episode(scenario, idle, CFG)
        with collision_checks() as shared:
            trace = run_episode(scenario, held_rows(scenario, idle, True), CFG)
        assert same_trace(trace, expected) and same_bits(shared, plain)
        assert [[actor.position for actor in actors] for actors in plain] == [[point]] * 5

    def test_a_later_episode_keeps_a_braking_npc_at_rest_as_the_plain_path_does(self):
        # the NPC brakes from its spawn and comes to rest by step 11, within the ego's reach;
        # its rows at rest, acceleration 0 from the second, are built once in the array pass
        ego = ActorState((5.0, 0.0), 0.0, kind=ActorKind.EGO_VEHICLE)
        npc = ActorState((2.0, 3.0), 0.0, speed_long=2.0, accel_long=0.5)
        scenario = Scenario(route=straight_route(80.0), ego_spawn=ego, max_steps=40,
                            npcs=((npc, Braking(0.0, 2.0)),))
        idle = build_policy("idle", CFG)
        with collision_checks() as plain:
            expected = run_episode(scenario, idle, CFG)
        with collision_checks() as shared:
            trace = run_episode(scenario, held_rows(scenario, idle, True, steps=40), CFG)
        assert same_trace(trace, expected) and same_bits(shared, plain)
        speeds, accels = zip(*((actor.speed_long, actor.accel_long) for (actor,) in plain))
        assert len(speeds) == 40 and speeds[10:] == (0.0,) * 30 and accels[11:] == (0.0,) * 29
        assert accels[10] < 0.0

    def test_an_episode_past_a_held_prefix_longer_than_one_pass_has_the_plain_bits(self):
        # the track holds 200 rows: array passes run steps 1-192 and 193-200, then steps 201-260
        # run one at a time. Within reach: the constant-velocity NPC at steps 143-197, across the
        # passes' boundary; the braking NPC, at rest from step 11, and the obstacle throughout;
        # the waypoint NPC from step 232, past the held rows
        ego = ActorState((5.0, 0.0), 0.0, kind=ActorKind.EGO_VEHICLE)
        npcs = ((ActorState((-12.0, 4.0), 0.0, speed_long=1.0), ConstantVelocity()),
                (ActorState((2.0, 3.0), 0.0, speed_long=2.0), Braking(0.0, 2.0)),
                (ActorState((30.0, -4.5), math.pi, speed_long=1.0),
                 WaypointFollower(((30.0, -4.5), (-10.0, -4.5)), 1.0)))
        obstacle = ActorState((8.0, -3.0), 0.0, kind=ActorKind.STATIC_OBSTACLE)
        scenario = Scenario(route=straight_route(80.0), ego_spawn=ego, max_steps=260, npcs=npcs,
                            obstacles=(obstacle,))
        idle = build_policy("idle", CFG)
        with collision_checks() as plain:
            expected = run_episode(scenario, idle, CFG)
        track = held_rows(scenario, idle, True, steps=200)
        assert len(track.rows) == 201
        with collision_checks() as shared:
            trace = run_episode(scenario, track, CFG)
        assert same_trace(trace, expected) and same_bits(shared, plain)
        assert same_bits(trace._risk_table, expected._risk_table)
        assert trace_rows(trace) == trace_rows(expected)
        assert expected.outcome is Outcome.TIMEOUT
        assert [len(actors) for actors in plain] == [
            3 if 143 <= step <= 197 or step >= 232 else 2 for step in range(1, 261)]

    @pytest.mark.parametrize("lead", [[], [(0.0, 0)]], ids=["by-length", "no-traffic-first"])
    def test_columns_that_grow_with_longer_episodes_give_the_bits_of_plain_episodes(
            self, scenarios_dir, lead):
        # by increasing length, each episode reaches rows the track has not covered; an
        # episode without traffic (density 0) first appends every row but builds no kernel row
        scenario = load_scenario(scenarios_dir / "intersection.json")
        drive = build_policy("lane_follower", CFG)
        episodes = lead + CRITERION_7_EPISODES
        plain = {episode: run_episode(scenario, drive, CFG, *episode) for episode in episodes}
        track, kernel_rows = sim_module._EgoTrack(scenario, drive, CFG), []
        for episode in lead + sorted(CRITERION_7_EPISODES, key=lambda e: len(plain[e].records)):
            trace, expected = run_episode(scenario, track, CFG, *episode), plain[episode]
            assert same_trace(trace, expected)
            assert same_bits(trace._risk_table, expected._risk_table)
            assert trace_rows(trace) == trace_rows(expected)
            kernel_rows.append(len(track.kernel))
        assert len(set(kernel_rows)) > 5


def _trace_stub(outcome, reward=0.0, progress=1.0, velocity=3.0):
    # aggregate_metrics only touches these four attributes
    class Stub:
        pass

    stub = Stub()
    stub.outcome = outcome
    stub.cumulative_reward = reward
    stub.route_progress = progress
    stub.average_velocity = velocity
    return stub


class TestAggregateMetrics:
    def test_all_success(self):
        m = aggregate_metrics([_trace_stub(Outcome.SUCCESS) for _ in range(10)])
        assert m.success_pct == 100.0
        assert m.collision_pct == m.offroad_pct == m.timeout_pct == 0.0

    def test_outcome_counting(self):
        traces = [
            _trace_stub(Outcome.SUCCESS),
            _trace_stub(Outcome.COLLISION),
            _trace_stub(Outcome.COLLISION),
            _trace_stub(Outcome.TIMEOUT),
        ]
        m = aggregate_metrics(traces)
        assert (m.success_pct, m.offroad_pct, m.collision_pct, m.timeout_pct) == (
            25.0, 0.0, 50.0, 25.0,
        )
        assert m.success_pct + m.offroad_pct + m.collision_pct + m.timeout_pct == 100.0

    def test_mean_std_match_two_pass_oracle(self):
        rng = np.random.default_rng(5)
        rewards = rng.uniform(-50, 50, size=17)
        traces = [_trace_stub(Outcome.SUCCESS, reward=float(v)) for v in rewards]
        m = aggregate_metrics(traces)
        assert m.reward_mean == pytest.approx(float(np.mean(rewards)), abs=1e-12)
        assert m.reward_std == pytest.approx(float(np.std(rewards)), abs=1e-12)

    def test_empty_input_rejected(self):
        with pytest.raises(ContractError):
            aggregate_metrics([])

    def test_any_iterable_gives_the_bits_of_a_list(self):
        rng = np.random.default_rng(23)
        outcomes = [o for o in Outcome if o is not Outcome.NONE] * 5
        traces = [_trace_stub(outcome, *map(float, rng.uniform(-50, 50, size=3)))
                  for outcome in outcomes]
        listed = aggregate_metrics(traces)
        assert same_bits(aggregate_metrics(trace for trace in traces), listed)
        assert same_bits(aggregate_metrics(iter(traces)), listed)
        with pytest.raises(ContractError):
            aggregate_metrics(trace for trace in ())


REPO_ROOT = Path(__file__).resolve().parent.parent
SHIPPED_SCENARIOS = {
    path.name: json.loads(path.read_text())
    for path in sorted((REPO_ROOT / "scenarios").glob("*.json"))
}
DEFAULT_CONFIG = json.loads((REPO_ROOT / "configs" / "default.json").read_text())
ANY_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(), inner, max_size=3),
    max_leaves=5,
)
# Modest numbers come often, so that many mutants pass validation and run, and
# so do extreme magnitudes, which overflow or underflow in an episode.
LEAF_VALUES = (st.integers(-10, 60) | st.floats(-10.0, 60.0) | st.floats(1e100, 1e308)
               | st.floats(1e-300, 1e-100) | ANY_JSON)
# A problem starts with the JSON path of a field, e.g. "npcs[0].script.decel".
PROBLEM_PATH = re.compile(r"[a-z_]+(\[\d+\])?(\.[a-z_]+(\[\d+\])?)* ")


def _leaf_paths(value, path=()):
    if isinstance(value, (dict, list)) and value:
        for key, item in value.items() if isinstance(value, dict) else enumerate(value):
            yield from _leaf_paths(item, path + (key,))
    else:
        yield path


def second_on_a_shared_track(scenario, policy, config, seed=None):
    """(the trace, each step's `collision_checks`) of the episode of `scenario` under the
    built-in `policy`, run second on an ego track shared with the episode at density 0 and
    `seed`. That one has the same NPCs bar the slots', so it lasts at least as long, and the
    second runs every step as array passes over the rows it left."""
    track = sim_module._EgoTrack(scenario, build_policy(policy, config), config)
    run_episode(scenario, track, config, 0.0, seed)
    with collision_checks() as checked:
        trace = run_episode(scenario, track, config, seed=seed)
    return trace, checked


@settings(max_examples=500, deadline=None)
@given(name=st.sampled_from(sorted(SHIPPED_SCENARIOS)), data=st.data())
def test_mutated_documents_fail_with_paths_or_run_within_bounds(name, data):
    docs = copy.deepcopy({"scenario": SHIPPED_SCENARIOS[name], "config": DEFAULT_CONFIG})
    # The step budget is short and never mutated, only so that each run stays quick.
    docs["scenario"]["max_steps"] = 30
    paths = [p for p in _leaf_paths(docs) if p[-1] != "max_steps"]
    for path in data.draw(st.lists(st.sampled_from(paths), min_size=1, max_size=3, unique=True)):
        parent = docs
        for key in path[:-1]:
            parent = parent[key]
        parent[path[-1]] = data.draw(LEAF_VALUES)
    problems = validate_scenario_data(docs["scenario"]) + validate_config_data(docs["config"])
    if problems:
        assert all(PROBLEM_PATH.match(problem) for problem in problems), problems
        return
    config = RewardConfig.from_dict(docs["config"])
    scenario = scenario_from_dict(docs["scenario"])
    step_bound = 2.0 + config.beta + config.beta ** 2 + 1e-12  # criterion 6
    for policy in ("lane_follower", "full_throttle"):
        with collision_checks() as checked:
            trace = run_episode(scenario, build_policy(policy, config), config)
        assert matches_replay(trace, scenario, config, checked=checked)
        assert same_bits(second_on_a_shared_track(scenario, policy, config), (trace, checked))
        totals = [record.breakdown.total for record in trace.records]
        assert trace.outcome is not Outcome.NONE
        assert all(math.isfinite(total) for total in totals)
        assert all(abs(total) <= step_bound for total in totals[:-1])
        assert abs(totals[-1]) <= config.w_terminal + 1e-12


# a float64's unit roundoff: each correctly rounded operation errs by at most this share
UNIT_ROUNDOFF = 2.0 ** -53


# no shrinking: each candidate runs two episodes of up to 600 steps, so shrinking a failure
# took minutes; the examples tried and the assertions on them are the same
@settings(max_examples=80, deadline=None, phases=[p for p in Phase if p is not Phase.shrink],
          suppress_health_check=[HealthCheck.function_scoped_fixture])  # the files are only read
@given(data=st.data(), policy=st.sampled_from(["lane_follower", "full_throttle"]),
       seed=st.none() | st.integers(0, 2**32 - 1), theta=st.floats(-math.pi, math.pi),
       shift=st.tuples(st.floats(-1e5, 1e5), st.floats(-1e5, 1e5)))
def test_a_rigid_motion_of_a_scenario_changes_only_rounding(waypoint_documents, data, policy,
                                                             seed, theta, shift):
    """Every objective is read in the ego's or the route's frame, so turning a whole
    scenario by `theta` and shifting it by `shift` (`oracles.transformed`) leaves every
    outcome and step count as they were, and the rewards equal up to rounding.

    The tolerance: a step rounds each world coordinate to within u * R, with u the unit
    roundoff and R the largest coordinate magnitude of the moved centerline, so by step k
    the geometry a reward reads has moved by at most about k * u * R, and each level's
    reward by its slope times that. Over 2,700 scratch draws of this kind, shifts up to 1e5 m,
    the largest difference at step k was 3.9 * k * u * R, and the episode's largest was
    0.37 * n * (n + 1) * u * R over its n steps. Step k may differ by 32 * k * u * R, and
    the episode's reward by the sum of those, 16 * n * (n + 1) * u * R.
    """
    documents = {**SHIPPED_SCENARIOS,
                 **{path.name: json.loads(path.read_text()) for path in waypoint_documents}}
    document = documents[data.draw(st.sampled_from(sorted(documents)), label="document")]
    moved = transformed(document, theta, shift)
    before, after = (run_episode(scenario_from_dict(doc), build_policy(policy, CFG), CFG,
                                 seed=seed) for doc in (document, moved))
    for doc, trace in ((document, before), (moved, after)):
        shared, _ = second_on_a_shared_track(scenario_from_dict(doc), policy, CFG, seed)
        assert same_trace(shared, trace)
    assert (after.outcome, len(after.records)) == (before.outcome, len(before.records))
    u_r = UNIT_ROUNDOFF * max(abs(v) for point in moved["route"]["centerline"] for v in point)
    for k, (a, b) in enumerate(zip(before.records, after.records), 1):
        assert abs(a.breakdown.total - b.breakdown.total) <= 32 * k * u_r
    n = len(before.records)
    assert abs(before.cumulative_reward - after.cumulative_reward) <= 16 * n * (n + 1) * u_r


def jitter_free(document):
    """`document` with every slot jitter set to 0, so that a slot spawns where it says."""
    document = copy.deepcopy(document)
    for slot in document.get("slots", []):
        slot.update({key: 0.0 for key in slot if key.endswith("_jitter")})
    return document


@settings(max_examples=80, deadline=None, phases=[p for p in Phase if p is not Phase.shrink],
          suppress_health_check=[HealthCheck.function_scoped_fixture])  # the files are only read
@given(data=st.data(), policy=st.sampled_from(["lane_follower", "full_throttle"]),
       seed=st.none() | st.integers(0, 2**32 - 1),
       theta=st.just(0.0) | st.floats(-math.pi, math.pi),  # a reflection alone, or moved too
       shift=st.just((0.0, 0.0)) | st.tuples(st.floats(-1e5, 1e5), st.floats(-1e5, 1e5)))
def test_a_mirrored_scenario_changes_only_rounding(waypoint_documents, data, policy, seed, theta,
                                                   shift):
    """Reflecting a whole scenario in the x axis (`oracles.transformed(..., mirror=True)`:
    every y, lateral offset and heading offset negated), alone or then moved rigidly, leaves
    every outcome and step count as they were, and the rewards equal up to rounding.

    Slots are made jitter-free in both documents: `realize_traffic` adds the same lateral
    jitter draw to the negated offset, so a mirrored jittered slot spawns somewhere else.
    A reflection is exact in floats, so the rigid-motion tolerance carries over: step k may
    differ by 32 * k * u * R and the episode by 16 * n * (n + 1) * u * R. Over 2,200 scratch
    draws of this kind, half of them reflections alone, no outcome or step count changed, and
    the largest differences were 1.7 * k * u * R at step k and 0.077 * n * (n + 1) * u * R
    for an episode.
    """
    documents = {**SHIPPED_SCENARIOS,
                 **{path.name: json.loads(path.read_text()) for path in waypoint_documents}}
    document = jitter_free(documents[data.draw(st.sampled_from(sorted(documents)),
                                               label="document")])
    mirrored = transformed(document, theta, shift, mirror=True)
    before, after = (run_episode(scenario_from_dict(doc), build_policy(policy, CFG), CFG,
                                 seed=seed) for doc in (document, mirrored))
    for doc, trace in ((document, before), (mirrored, after)):
        shared, _ = second_on_a_shared_track(scenario_from_dict(doc), policy, CFG, seed)
        assert same_trace(shared, trace)
    assert (after.outcome, len(after.records)) == (before.outcome, len(before.records))
    u_r = UNIT_ROUNDOFF * max(abs(v) for point in mirrored["route"]["centerline"] for v in point)
    for k, (a, b) in enumerate(zip(before.records, after.records), 1):
        assert abs(a.breakdown.total - b.breakdown.total) <= 32 * k * u_r
    n = len(before.records)
    assert abs(before.cumulative_reward - after.cumulative_reward) <= 16 * n * (n + 1) * u_r


def test_a_mirror_negates_every_lateral_field_and_y():
    document = {"route": {"centerline": [[0.0, 1.5], [80.0, -2.0]]},
                "ego": {"station": 4.0, "lateral_offset": 0.5},
                "npcs": [{"lateral_offset": -1.0, "heading_offset_deg": 30.0,
                          "script": {"kind": "waypoint_follower", "waypoints": [[1.0, 2.0],
                                                                                [3.0, -4.0]]}}],
                "obstacles": [{"lateral_offset": 2.0}],
                "slots": [{"lateral_offset": 3.0, "heading_offset_deg": -90.0,
                           "lateral_jitter": 0.5}]}
    mirrored = transformed(document, 0.0, (0.0, 0.0), mirror=True)
    assert mirrored["route"]["centerline"] == [[0.0, -1.5], [80.0, 2.0]]
    assert mirrored["ego"] == {"station": 4.0, "lateral_offset": -0.5}
    assert mirrored["npcs"][0]["lateral_offset"] == 1.0
    assert mirrored["npcs"][0]["heading_offset_deg"] == -30.0
    assert mirrored["npcs"][0]["script"]["waypoints"] == [[1.0, -2.0], [3.0, 4.0]]
    assert mirrored["obstacles"] == [{"lateral_offset": -2.0}]
    assert mirrored["slots"] == [{"lateral_offset": -3.0, "heading_offset_deg": 90.0,
                                  "lateral_jitter": 0.5}]
    assert transformed(document, 0.0, (0.0, 0.0)) == document
