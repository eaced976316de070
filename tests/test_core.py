"""Route geometry, displacement frames, and config loading."""

import ast
import dataclasses
import inspect
import json
import math
import sys
from pathlib import Path
from types import ModuleType

import numpy as np
import pytest
from hypothesis import given, strategies as st

from oracles import dense_nearest_distance, numpy_projection, point_at, rotation, same_bits
from riskrl import (
    ActorKind,
    ActorState,
    ConfigError,
    ContractError,
    InteractionMode,
    Outcome,
    RewardBreakdown,
    RewardConfig,
    RiskAssessment,
    Route,
    RouteFramePose,
    StepRecord,
    load_config,
    project_to_route,
    relative_displacement,
    wrap_angle,
)
import riskrl
from riskrl.core import _make_pose, validate_config_data
from riskrl.reward import _make_breakdown
from riskrl.risk import _make_assessment
from riskrl.sim import Observation, _make_observation, _make_record, _make_state

DEFAULT_CONFIG = json.loads(
    (Path(__file__).resolve().parent.parent / "configs" / "default.json").read_text()
)
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(), inner, max_size=3),
    max_leaves=5,
)


def straight_route(length=100.0, lane_width=3.5, goal=None):
    return Route(
        centerline=np.array([[0.0, 0.0], [length, 0.0]]),
        lane_width=lane_width,
        goal_station=length if goal is None else goal,
    )


def random_polyline(rng, points):
    """A seeded polyline with uneven segment lengths and turns."""
    headings = np.cumsum(rng.uniform(-1.2, 1.2, size=points - 1))
    steps = rng.uniform(0.5, 20.0, size=points - 1)[:, None] * np.stack(
        [np.cos(headings), np.sin(headings)], axis=1
    )
    return np.concatenate([[[0.0, 0.0]], np.cumsum(steps, axis=0)])


class TestRouteTables:
    """Projection and station lookups over the tables built once per route."""

    def test_projection_matches_per_call_segment_arrays(self):
        rng = np.random.default_rng(8)
        for points in (2, 3, 7, 40):
            centerline = random_polyline(rng, points)
            route = Route(centerline=centerline, lane_width=3.5, goal_station=0.0)
            for point in centerline[:-1] + rng.uniform(-6.0, 6.0, size=(points - 1, 2)):
                heading = float(rng.uniform(-4.0, 4.0))
                pose = project_to_route(point, heading, route)
                expected = numpy_projection(point, heading, centerline)
                assert (pose.station, pose.lateral_offset, pose.heading_error) == expected

    @pytest.mark.parametrize("points", [2, 17, 40, 400])
    def test_block_search_matches_numpy_projection(self, points):
        rng = np.random.default_rng(points)
        centerline = random_polyline(rng, points)
        route = Route(centerline=centerline, lane_width=3.5, goal_station=0.0)
        stations = rng.uniform(0.0, route.length, size=40)
        on_route = [*centerline, *(point_at(route, s) for s in stations[:20])]
        near = [point_at(route, s) + rng.uniform(-3.5, 3.5, size=2) for s in stations[20:]]
        centre = (centerline.min(axis=0) + centerline.max(axis=0)) / 2.0
        reach = 3.0 * float(np.ptp(centerline, axis=0).max())
        far = [centre + reach * np.array([math.cos(a), math.sin(a)])
               for a in rng.uniform(-math.pi, math.pi, size=20)]
        for x, y in far:
            assert all(math.hypot(x - cx, y - cy) > r for cx, cy, r, *_ in route._blocks)
        for point in on_route + near + far:
            heading = float(rng.uniform(-4.0, 4.0))
            pose = project_to_route(point, heading, route)
            expected = numpy_projection(point, heading, centerline)
            assert (pose.station, pose.lateral_offset, pose.heading_error) == expected

    def test_straight_drivers_off_a_curved_road_match_numpy_projection(self):
        # a 0.3 m-spaced road of gently varying heading; queries run straight on from
        # points of the road along its tangent, out to well over 100 m off it
        rng = np.random.default_rng(11)
        stations = np.arange(368) * 0.3
        heading = 0.7 + 0.4 * np.sin(stations / 9.0) + 0.25 * np.sin(stations / 5.0 + 1.0)
        steps = 0.3 * np.stack([np.cos(heading[:-1]), np.sin(heading[:-1])], axis=1)
        centerline = np.concatenate([[[0.0, 0.0]], np.cumsum(steps, axis=0)])
        route = Route(centerline=centerline, lane_width=3.5, goal_station=0.0)
        for start in rng.uniform(0.0, route.length, size=12):
            pose = route._pose_at(start)
            origin, tangent = np.array(pose[:2]), np.array(pose[3:])
            for run in np.arange(0.0, 160.0, 4.0):
                point = origin + run * tangent
                pose = project_to_route(point, 0.3, route)
                expected = numpy_projection(point, 0.3, centerline)
                assert (pose.station, pose.lateral_offset, pose.heading_error) == expected

    def test_block_bounds_never_exceed_the_block_distance(self):
        rng = np.random.default_rng(12)
        centerline = random_polyline(rng, 120)
        route = Route(centerline=centerline, lane_width=3.5, goal_station=0.0)
        for point in rng.uniform(centerline.min() - 50.0, centerline.max() + 50.0, size=(60, 2)):
            for cx, cy, r, first, stop, ax, ay, dx, dy, inv, band in route._blocks:
                nearest = dense_nearest_distance(centerline[first:stop + 1], point, step=0.05)
                t = min(max(((point[0] - ax) * dx + (point[1] - ay) * dy) * inv, 0.0), 1.0)
                chord = math.hypot(point[0] - ax - t * dx, point[1] - ay - t * dy)
                assert math.hypot(point[0] - cx, point[1] - cy) - r <= nearest
                assert chord - band <= nearest

    @pytest.mark.parametrize("loop", [8, 16, 40])
    def test_closed_loops_queried_at_their_centre(self, loop):
        # a regular polygon that ends where it starts, then a tail: at the centre every
        # vertex is equally far, and the loop of exactly one block has a chord of length 0
        angles = np.linspace(0.0, 2.0 * math.pi, loop + 1)
        ring = 5.0 * np.stack([np.cos(angles), np.sin(angles)], axis=1) + [5.0, 0.0]
        ring[-1] = ring[0]
        centerline = np.concatenate([ring, [[20.0, 0.0], [30.0, 5.0]]])
        route = Route(centerline=centerline, lane_width=3.5, goal_station=0.0)
        assert (route._blocks[0][9] == 0.0) == (loop == 16)  # inv: the chord is a point
        for point in ([5.0, 0.0], [5.0, 1e-9], [4.0, 0.5], [5.0, 20.0], [25.0, -3.0]):
            pose = project_to_route(point, 0.0, route)
            expected = numpy_projection(np.array(point), 0.0, centerline)
            assert (pose.station, pose.lateral_offset, pose.heading_error) == expected

    def test_tie_across_blocks_takes_the_smaller_station(self):
        # out along y = 1 and back along y = -1: a point on y = 0 is exactly 1 m from both legs
        out = [[float(x), 1.0] for x in range(41)]
        back = [[float(x), -1.0] for x in range(40, -1, -1)]
        centerline = np.array(out + [[41.0, 0.0]] + back)
        route = Route(centerline=centerline, lane_width=3.5, goal_station=0.0)
        assert len(route._blocks) > 2
        visited_back_first = 0
        for x in np.arange(0.5, 40.0, 1.0):
            pose = project_to_route([x, 0.0], 0.0, route)
            assert (pose.station, pose.lateral_offset) == (x, -1.0)
            assert (pose.station, pose.lateral_offset, pose.heading_error) == numpy_projection(
                np.array([x, 0.0]), 0.0, centerline)
            first = min(route._blocks, key=lambda b: (math.hypot(x - b[0], b[1]) - b[2], b))
            visited_back_first += first[3] > x  # the first block searched lies on the way back
        assert visited_back_first > 0

    def test_rotated_near_ties_match_numpy_projection(self):
        # U-turns turned and moved off the axes: the two legs' distances differ only
        # in rounding, so a bound without its margin skips the block that wins the tie
        rng = np.random.default_rng(13)
        for _ in range(100):
            angle, half = rng.uniform(-math.pi, math.pi), rng.uniform(0.05, 3.0)
            step = rng.uniform(0.1, 1.0)
            xs = np.arange(41) * step
            legs = [np.stack([xs, np.full(41, half)], axis=1), [[41 * step, 0.0]],
                    np.stack([xs[::-1], np.full(41, -half)], axis=1)]
            cos, sin = math.cos(angle), math.sin(angle)
            turn = np.array([[cos, -sin], [sin, cos]])
            shift = rng.uniform(-100.0, 100.0, size=2)
            centerline = np.concatenate(legs) @ turn.T + shift
            route = Route(centerline=centerline, lane_width=3.5, goal_station=0.0)
            for x in rng.uniform(0.0, 40 * step, size=10):
                point = np.array([x, 0.0]) @ turn.T + shift
                pose = project_to_route(point, 0.0, route)
                expected = numpy_projection(point, 0.0, centerline)
                assert (pose.station, pose.lateral_offset, pose.heading_error) == expected

    def test_station_lookups_match_segment_arrays(self):
        rng = np.random.default_rng(9)
        centerline = random_polyline(rng, 12)
        route = Route(centerline=centerline, lane_width=3.5, goal_station=0.0)
        d = np.diff(centerline, axis=0)
        seg_len = np.hypot(d[:, 0], d[:, 1])
        cum = np.concatenate([[0.0], np.cumsum(seg_len)])
        for station in np.concatenate([[-1.0, 0.0, route.length, route.length + 1.0], cum,
                                       rng.uniform(0.0, route.length, size=30)]):
            s = min(max(float(station), 0.0), route.length)
            i = min(int(np.searchsorted(cum, s, side="right")) - 1, len(d) - 1)
            tangent = d[i] / seg_len[i]
            point = centerline[i] + (s - cum[i]) / seg_len[i] * d[i]
            heading = math.atan2(tangent[1], tangent[0])
            assert route._pose_at(station) == (*point.tolist(), heading, *tangent.tolist())

    def test_tables_are_read_only(self):
        route = straight_route()
        with pytest.raises(ValueError):
            route.centerline[0] = 1.0
        for table in (route._segments, route._blocks, route._seg_len, route._stations,
                      route._tangent, route._tangent_heading, route._heading):
            assert isinstance(table, tuple) and all(isinstance(row, (tuple, float))
                                                    for row in table)
        for column in route._columns:
            with pytest.raises(ValueError):
                column[0] = 1.0

    def test_pose_arrays_have_the_bits_of_pose_at(self):
        # a self-crossing polyline, and stations at, between and beyond its vertices
        rng = np.random.default_rng(10)
        for centerline in (random_polyline(rng, 12),
                           np.array([[0, 0], [10, 0], [10, 10], [5, 10], [5, -5]], dtype=float)):
            route = Route(centerline=centerline, lane_width=3.5, goal_station=0.0)
            stations = np.concatenate([[-1.0, -0.0, 0.0, route.length, route.length + 1.0],
                                       route._stations, np.nextafter(route._stations, math.inf),
                                       rng.uniform(0.0, route.length, size=50)])
            x, y, heading = route._poses_at(stations)
            assert same_bits(list(zip(x.tolist(), y.tolist(), heading.tolist())),
                             [route._pose_at(station)[:3] for station in stations.tolist()])


class TestProjectToRoute:
    def test_point_on_centerline_midpoint(self):
        pose = project_to_route([50.0, 0.0], 0.0, straight_route())
        assert pose.station == pytest.approx(50.0, abs=1e-12)
        assert pose.lateral_offset == pytest.approx(0.0, abs=1e-12)
        assert pose.heading_error == pytest.approx(0.0, abs=1e-12)

    def test_left_offset_is_positive(self):
        pose = project_to_route([10.0, 1.2], 0.0, straight_route())
        assert pose.station == pytest.approx(10.0, abs=1e-12)
        assert pose.lateral_offset == pytest.approx(1.2, abs=1e-12)

    def test_right_offset_is_negative(self):
        pose = project_to_route([10.0, -0.7], 0.0, straight_route())
        assert pose.lateral_offset == pytest.approx(-0.7, abs=1e-12)

    def test_heading_error_wraps(self):
        pose = project_to_route([10.0, 0.0], math.pi + 0.3, straight_route())
        assert pose.heading_error == pytest.approx(0.3 - math.pi)

    def test_matches_dense_sampling_oracle_on_l_shape(self):
        centerline = np.array([[0.0, 0.0], [20.0, 0.0], [20.0, 15.0]])
        route = Route(centerline=centerline, lane_width=3.5, goal_station=30.0)
        rng = np.random.default_rng(3)
        for _ in range(50):
            point = rng.uniform([-3.0, -3.0], [25.0, 18.0])
            if dense_nearest_distance(centerline, point, step=1e-3) < 0.05:
                continue  # keep the sampling-oracle error budget tight
            pose = project_to_route(point, 0.0, route)
            oracle = dense_nearest_distance(centerline, point)
            assert abs(pose.lateral_offset) == pytest.approx(oracle, abs=1e-6)

    def test_station_beyond_route_end_clamps_to_length(self):
        pose = project_to_route([130.0, 2.0], 0.0, straight_route())
        assert pose.station == pytest.approx(100.0)

    def test_degenerate_route_rejected(self):
        with pytest.raises(ConfigError):
            Route(centerline=np.array([[1.0, 1.0]]), lane_width=3.5, goal_station=0.0)
        with pytest.raises(ConfigError):
            Route(
                centerline=np.array([[0.0, 0.0], [0.0, 0.0]]),
                lane_width=3.5,
                goal_station=0.0,
            )
        # the middle segment's squared length underflows to 0: the projection would divide by it
        with pytest.raises(ConfigError, match="route.centerline"):
            Route(
                centerline=np.array([[0.0, 0.0], [1e-300, 0.0], [80.0, 0.0]]),
                lane_width=3.5,
                goal_station=10.0,
            )
        with pytest.raises(ConfigError, match="route.centerline must be finite"):
            Route(centerline=np.array([[0.0, 0.0], [math.nan, 0.0]]), lane_width=3.5,
                  goal_station=0.0)
        # the squared length overflows to inf, and the difference itself to inf for the second
        for centerline in ([[0.0, 0.0], [1e200, 1e200]], [[-1e308, 0.0], [1e308, 0.0]]):
            with pytest.raises(ConfigError, match="route.centerline .* overflows"):
                Route(centerline=np.array(centerline), lane_width=3.5, goal_station=0.0)

    def test_block_chord_whose_square_overflows_is_searched_without_a_bound(self):
        # every segment is finite, but the 16-segment chord of a block squares past the
        # float range: its band is NaN, so it is no bound and that block is always searched
        route = Route(np.array([[i * 1e153, 0.0] for i in range(40)]), 3.5, 0.0)
        assert route._blocks[0][-1] == math.inf
        for k in (0, 5, 17, 39):
            assert project_to_route(route.centerline[k], 0.0, route).station == route._stations[k]

    @pytest.mark.parametrize("lane_width", [math.nan, math.inf], ids=["nan", "inf"])
    def test_non_finite_lane_width_rejected(self, lane_width):
        with pytest.raises(ConfigError, match="route.lane_width"):
            straight_route(lane_width=lane_width)

    @pytest.mark.parametrize("goal", ["5", True, None, math.nan, -1.0, 100.5],
                             ids=["string", "boolean", "none", "nan", "negative", "past-end"])
    def test_bad_goal_station_names_field(self, goal):
        with pytest.raises(ConfigError, match="route.goal_station must be a number within"):
            Route(centerline=[[0.0, 0.0], [100.0, 0.0]], lane_width=3.5, goal_station=goal)

    @pytest.mark.parametrize(
        "position",
        [[1, 2, 3], [1, "x"], ["1", "2"], [True, False], [1 + 2j, 0.0], [1.0], None,
         [[1.0, 2.0], [3.0]], [math.nan, 0.0], [0.0, math.inf]],
        ids=["three", "string", "numeric-strings", "booleans", "complex", "one", "none", "ragged",
             "nan", "inf"],
    )
    def test_malformed_position_names_position(self, position):
        with pytest.raises(ContractError, match="project_to_route position must be two finite"):
            project_to_route(position, 0.0, straight_route())

    @pytest.mark.parametrize("heading", [math.nan, math.inf, "1", None, True],
                             ids=["nan", "inf", "string", "none", "boolean"])
    def test_malformed_heading_names_heading(self, heading):
        # NaN once gave a NaN heading error, inf a bare math domain error, True 1 rad
        route = Route([[0.0, 0.0], [10.0, 0.0]], 3.5, 5.0)
        with pytest.raises(ContractError, match="project_to_route heading must be a finite number"):
            project_to_route((1.0, 1.0), heading, route)


class TestRelativeDisplacement:
    def test_ahead_along_heading(self):
        ego = ActorState(position=[0.0, 0.0], heading=0.0)
        other = ActorState(position=[10.0, 0.0], heading=0.0)
        assert relative_displacement(ego, other) == pytest.approx((10.0, 0.0))

    def test_directly_left(self):
        ego = ActorState(position=[0.0, 0.0], heading=0.0)
        other = ActorState(position=[0.0, 5.0], heading=0.0)
        assert relative_displacement(ego, other) == pytest.approx((0.0, 5.0))

    def test_rotated_ego_frame(self):
        # ego facing north; world offset (3, 4) lands ahead-and-right
        ego = ActorState(position=[0.0, 0.0], heading=math.pi / 2.0)
        other = ActorState(position=[3.0, 4.0], heading=0.0)
        assert relative_displacement(ego, other) == pytest.approx((4.0, -3.0))

    @given(
        heading=st.floats(-10.0, 10.0),
        dx=st.floats(-100.0, 100.0),
        dy=st.floats(-100.0, 100.0),
    )
    def test_inverse_consistency(self, heading, dx, dy):
        ego = ActorState(position=[0.0, 0.0], heading=heading)
        other = ActorState(position=[dx, dy], heading=0.0)
        local = np.array(relative_displacement(ego, other))
        world = rotation(heading) @ local
        assert world[0] == pytest.approx(dx, abs=1e-9)
        assert world[1] == pytest.approx(dy, abs=1e-9)


class TestActorState:
    def test_static_obstacle_must_be_still(self):
        with pytest.raises(ContractError):
            ActorState(position=[0, 0], heading=0.0, speed_long=1.0,
                       kind=ActorKind.STATIC_OBSTACLE)

    @pytest.mark.parametrize("kind", ["static_obstacle", "npc_vehicle", None, 0],
                             ids=["static-string", "npc-string", "none", "int"])
    def test_kind_must_be_an_actor_kind(self, kind):
        # a string kind would skip the static-obstacle rule and read as a vehicle
        with pytest.raises(ContractError, match="ActorState kind must be an ActorKind"):
            ActorState((0, 0), 0.0, kind=kind, speed_long=3.0)

    def test_dimensions_must_be_positive(self):
        with pytest.raises(ContractError):
            ActorState(position=[0, 0], heading=0.0, length=0.0)

    @pytest.mark.parametrize(
        "position",
        [[1, 2, 3], [1, "x"], ["1", "2"], [True, False], [1 + 2j, 0.0], [1.0], None,
         [[1.0, 2.0], [3.0]], [math.nan, 0.0], [0.0, math.inf]],
        ids=["three", "string", "numeric-strings", "booleans", "complex", "one", "none", "ragged",
             "nan", "inf"],
    )
    def test_malformed_position_names_position(self, position):
        with pytest.raises(ContractError, match="position must be two finite numbers"):
            ActorState(position=position, heading=0.0)

    @pytest.mark.parametrize(
        "position",
        [[3, -4], np.array([3, -4], dtype=np.int64), np.array([3.0, -4.0], dtype=np.float32)],
        ids=["list", "int64-array", "float32-array"],
    )
    def test_position_is_two_floats_the_caller_cannot_move(self, position):
        # new coverage: the position is stored as its own tuple of Python floats
        state = ActorState(position=position, heading=0.0)
        assert state.position == (3.0, -4.0)
        assert type(state.position) is tuple
        assert all(type(value) is float for value in state.position)
        position[0] = 100
        assert state.position == (3.0, -4.0)

    @pytest.mark.parametrize(
        "field", ["heading", "speed_long", "speed_lat", "accel_long", "length", "width"]
    )
    @pytest.mark.parametrize("value", ["0", None, 1 + 0j, True],
                             ids=["string", "none", "complex", "boolean"])
    def test_malformed_scalar_names_field(self, field, value):
        with pytest.raises(ContractError, match=f"ActorState {field} must be a finite number"):
            ActorState(**{"position": [0.0, 0.0], "heading": 0.0, field: value})

    def test_circumradius_is_half_diagonal(self):
        state = ActorState(position=[0, 0], heading=0.0, length=4.5, width=1.8)
        assert state.circumradius == pytest.approx(math.hypot(2.25, 0.9))


# One value per field of each slotted per-step type, in declared order, with -0.0 and an inf TTC
_STATE = (1.5, -0.0), -0.0, 3.0, 0.0, -0.0, 4.5, 1.8, ActorKind.NPC_VEHICLE
_POSE = 12.0, -0.0, 0.25
_ASSESSMENT = InteractionMode.INTERSECTING, 0.0, -0.0, 0.125, math.inf
_BREAKDOWN = (-0.0, 0.0, 0.5, -0.125, -0.1, -0.0, 0.3,
              (RiskAssessment(*_ASSESSMENT), RiskAssessment(InteractionMode.SAME_DIRECTION,
                                                            1.0, 0.5, 0.75, math.inf)))
_RECORD = (3, 0.30000000000000004, ActorState(*_STATE), RouteFramePose(*_POSE), (1.0, -0.0),
           RewardBreakdown(*_BREAKDOWN), Outcome.NONE)
_OBSERVATION = (ActorState(*_STATE), RouteFramePose(*_POSE),
                (ActorState(*_STATE), ActorState((9.0, 2.0), 0.5)), 0)
BUILDERS = [(ActorState, _make_state, _STATE), (RouteFramePose, _make_pose, _POSE),
            (RiskAssessment, _make_assessment, _ASSESSMENT),
            (RewardBreakdown, _make_breakdown, _BREAKDOWN), (StepRecord, _make_record, _RECORD),
            (Observation, _make_observation, _OBSERVATION)]


@pytest.mark.parametrize("cls, build, values", BUILDERS, ids=[c.__name__ for c, _, _ in BUILDERS])
class TestRecordBuilders:
    """Each hot path builds its records through `core._maker`, without the constructor."""

    def test_builder_gives_the_constructors_bits(self, cls, build, values):
        built, constructed = build(*values), cls(*values)
        assert type(built) is cls
        assert same_bits(built, constructed)

    def test_records_are_slotted_and_frozen(self, cls, build, values):
        for record in (build(*values), cls(*values)):
            assert not hasattr(record, "__dict__")
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(record, dataclasses.fields(cls)[0].name, values[0])

    def test_builder_takes_one_argument_per_field(self, cls, build, values):
        assert list(inspect.signature(build).parameters) == [
            f.name for f in dataclasses.fields(cls)]


def test_replace_still_runs_the_actor_state_checks():
    state = ActorState((0.0, 0.0), 0.0, speed_long=2.0)
    with pytest.raises(ContractError, match="ActorState heading must be a finite number"):
        dataclasses.replace(state, heading=math.nan)


class TestWrapAngle:
    @given(st.floats(-50.0, 50.0))
    def test_range(self, angle):
        wrapped = wrap_angle(angle)
        assert -math.pi < wrapped <= math.pi
        assert math.isclose(math.cos(wrapped), math.cos(angle), abs_tol=1e-9)
        assert math.isclose(math.sin(wrapped), math.sin(angle), abs_tol=1e-9)


class TestConfig:
    def test_empty_document_takes_published_defaults(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text("{}")
        cfg = load_config(path)
        assert cfg.beta == 0.25
        assert cfg.rho == 0.3
        assert cfg.ttc_max == 7.0
        assert cfg.v_max == 6.0
        assert cfg.w_terminal == 50.0

    def test_beta_out_of_range_names_field(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"beta": 1.5}))
        with pytest.raises(ConfigError, match="beta"):
            load_config(path)

    def test_missing_pair_weight_completes_to_one(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"w_geom": 0.7}))
        cfg = load_config(path)
        assert cfg.w_dyn == pytest.approx(0.3)

    def test_inconsistent_pair_rejected(self):
        with pytest.raises(ConfigError, match="w_vel"):
            RewardConfig(w_vel=0.6, w_lane=0.6)

    def test_unknown_keys_rejected(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"bета_typo": 1}))
        with pytest.raises(ConfigError, match="unknown"):
            load_config(path)

    def test_round_trip(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"beta": 0.5, "w_vel": 0.8, "v_max": 5.0}))
        cfg = load_config(path)
        again = tmp_path / "cfg2.json"
        again.write_text(json.dumps(cfg.to_dict()))
        assert load_config(again) == cfg

    def test_speed_limit_follows_v_max_when_absent(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"v_max": 9.0}))
        assert load_config(path).speed_limit == 9.0

    def test_speed_limit_follows_v_max_in_constructor_too(self):
        assert RewardConfig(v_max=10).speed_limit == 10.0
        assert RewardConfig.from_dict({"v_max": 10}).speed_limit == 10.0
        assert RewardConfig(v_max=10, speed_limit=7.0).speed_limit == 7.0

    def test_braking_order_enforced(self):
        with pytest.raises(ConfigError, match="a_brk_min_x"):
            RewardConfig(a_brk_min_x=9.0, a_brk_max_x=8.0)

    def test_default_config_file_is_valid(self, configs_dir):
        cfg = load_config(configs_dir / "default.json")
        assert cfg == RewardConfig()

    @pytest.mark.parametrize(
        "key, value",
        [("beta", "0.5"), ("timeout_steps", True), ("v_max", True), ("v_max", 10**400)],
        ids=["string", "bool-integer", "bool-number", "int-beyond-float"],
    )
    def test_non_numbers_rejected_with_field_name(self, key, value):
        with pytest.raises(ConfigError, match=key):
            RewardConfig.from_dict({key: value})
        assert any(problem.startswith(key) for problem in validate_config_data({key: value}))

    def test_huge_step_time_fails_with_the_range(self):
        # a 1.7e308 s step would overflow the first advanced position to inf
        problems = validate_config_data({"dt": 1.7e308})
        assert problems == ["dt must lie in [1e-12, 1e6] (got 1.7e+308)"]

    def test_integer_valued_exponent_loads_as_integer(self):
        for cfg in (RewardConfig.from_dict({"p_min": 2.0}), RewardConfig(p_min=2.0)):
            assert cfg.p_min == 2 and isinstance(cfg.p_min, int)

    @given(key=st.sampled_from(sorted(DEFAULT_CONFIG)), value=JSON_VALUES)
    def test_validation_agrees_with_loading(self, key, value):
        data = {**DEFAULT_CONFIG, key: value}
        if validate_config_data(data):
            with pytest.raises(ConfigError):
                RewardConfig.from_dict(data)
        else:
            RewardConfig.from_dict(data)


def test_package_exports_no_module():
    assert not [name for name in riskrl.__all__ if isinstance(getattr(riskrl, name), ModuleType)]


def test_public_surface_is_exactly_this_list():
    # a name added to or removed from the package's surface must be added or removed here
    assert sorted(riskrl.__all__) == [
        "ActorKind", "ActorState", "Braking", "ConfigError", "ConstantVelocity", "ContractError",
        "EllipseParams", "EpisodeTrace", "InteractionMode", "MetricsSummary", "Observation",
        "Outcome", "RewardBreakdown", "RewardConfig", "RiskAssessment", "Route",
        "RouteFramePose", "Scenario", "ScenarioError", "StepContext", "StepRecord",
        "WaypointFollower", "World", "accel_distance", "aggregate_metrics",
        "approach_clearance", "assess_interaction", "away_clearance", "build_policy",
        "check_offroad", "classify_interaction", "clearance_center", "collision_penalty",
        "comfort_reward", "detect_collision", "driving_style_reward", "dynamic_risk",
        "ellipsoid_penalty", "full_throttle_policy", "geometric_risk", "idle_policy",
        "lane_follower_policy", "leading_clearance", "level_weight", "load_config",
        "load_scenario", "progress_reward", "project_to_route", "realize_traffic",
        "relative_displacement", "risk_field", "risk_reward", "run_episode",
        "scripted_replay_policy", "step_world", "stop_distance", "success_reward",
        "terminal_reward", "total_reward", "traffic_rule_reward", "ttc_circle", "ttc_penalty",
        "wrap_angle",
    ]


def test_package_imports_only_the_standard_library_and_numpy():
    # the one runtime dependency beyond Python itself is numpy
    sources = sorted(Path(riskrl.__file__).resolve().parent.glob("*.py"))
    imported = set()
    for source in sources:
        for node in ast.walk(ast.parse(source.read_text(), str(source))):
            if isinstance(node, ast.Import):
                imported |= {(source.name, alias.name.split(".")[0]) for alias in node.names}
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                imported.add((source.name, node.module.split(".")[0]))
    assert len(sources) >= 6 and imported
    assert sorted((name, module) for name, module in imported
                  if module not in sys.stdlib_module_names and module != "numpy") == []
