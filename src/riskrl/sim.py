"""Deterministic 2D kinematic traffic world.

Scenarios are declarative JSON documents; everything random (slot selection,
attribute jitter) resolves from the scenario seed, so identical inputs always
produce identical traces. One episode runs single-threaded. The ego's steps are
a track grown as episodes reach them: each `run_episode` call of a policy builds
its own, so distinct calls share no mutable state and may run in parallel, and
`riskrl sweep` shares one per scenario between the episodes of one call.
"""

from __future__ import annotations

import bisect
import math
import reprlib
from dataclasses import dataclass, fields
from functools import cached_property
from itertools import chain, repeat
from pathlib import Path
from types import MappingProxyType
from typing import Callable, Iterable, Mapping, Sequence

import numpy as np

from .core import (
    ActorKind,
    ActorState,
    ConfigError,
    ContractError,
    Route,
    RouteFramePose,
    ScenarioError,
    RewardConfig,
    project_to_route,
    wrap_angle,
)
from .core import (
    _REQUIRED, _Field, _finite, _is_count, _is_integer, _is_number, _maker, _pair, _positive,
    _project, _read, _read_json, _wrap,
)
from .reward import (STEER_SPEED_FLOOR, Outcome, RewardBreakdown, _ego_levels, _make_breakdown,
                     _totals)
# perfbench's tracer patches total_reward on this module, so the name stays importable here
from .reward import total_reward  # noqa: F401
from .risk import _assessed_table, _risk_rewards, _rows, _track_rows

SCHEMA_VERSION = 1
SPEEDING_RULE = "speeding"
# a step's rule violations, as the loop hands them to the level combination
_NO_VIOLATION, _SPEEDING = frozenset(), frozenset((SPEEDING_RULE,))

# ---------------------------------------------------------------------------
# Actor scripts


@dataclass(frozen=True)
class ConstantVelocity:
    """Drive along the spawn heading at the spawn speed forever."""


@dataclass(frozen=True)
class WaypointFollower:
    """Follow a private polyline at constant speed, stopping at its end."""

    waypoints: tuple[tuple[float, float], ...]
    speed: float  # m/s

    def __post_init__(self) -> None:
        if not (_finite(self.speed) and self.speed >= 0.0):
            raise ScenarioError(f"speed must be >= 0 (got {self.speed!r})")
        try:
            line = Route(
                centerline=np.array(self.waypoints, dtype=float), lane_width=1.0, goal_station=0.0
            )
        except ConfigError as exc:
            raise ScenarioError(str(exc).replace("route.centerline", "waypoints", 1)) from exc
        object.__setattr__(self, "_line", line)


@dataclass(frozen=True)
class Braking:
    """Hold the spawn speed, then brake to a stop once past a route station."""

    trigger_station: float  # m along the scenario route
    decel: float            # m/s^2, positive

    def __post_init__(self) -> None:
        if not (_finite(self.decel) and self.decel > 0.0):
            raise ScenarioError(f"decel must be positive (got {self.decel!r})")
        if not _finite(self.trigger_station):
            raise ScenarioError("trigger_station must be finite")


ActorScript = ConstantVelocity | WaypointFollower | Braking


@dataclass(frozen=True, eq=False)
class Scenario:
    """Declarative world description; see docs in the repo for the file schema."""

    route: Route
    ego_spawn: ActorState
    npcs: tuple[tuple[ActorState, ActorScript], ...] = ()
    obstacles: tuple[ActorState, ...] = ()
    slots: tuple[Mapping[str, object], ...] = ()  # slot specs as read, defaults filled in
    traffic_density: float = 1.0
    seed: int = 0
    max_steps: int | None = None


# ---------------------------------------------------------------------------
# Scenario document handling: one field table per document object, read by a
# single pass that both validates and builds.


def _is_points(value: object) -> bool:
    return isinstance(value, list) and len(value) >= 2 and all(
        isinstance(p, list) and len(p) == 2 and _is_number(p[0]) and _is_number(p[1])
        for p in value
    )


def _as_is(value: object) -> object:
    return value


def _points(value: list) -> tuple[tuple[float, float], ...]:
    return tuple((float(x), float(y)) for x, y in value)


def _number(default: object = _REQUIRED) -> _Field:
    return _Field(default, _is_number, "must lie in [-1e6, 1e6]")


_NON_NEGATIVE = _Field(0.0, lambda v: _is_number(v) and v >= 0.0, "must lie in [0, 1e6]")
_OBJECT = _Field(_REQUIRED, lambda v: isinstance(v, dict), "must be an object", _as_is)
_LIST = _Field((), lambda v: isinstance(v, list), "must be a list", _as_is)
_POINTS = _Field(_REQUIRED, _is_points,
                 "must be a list of at least 2 [x, y] points in [-1e6, 1e6]", _points)

_TOP_LEVEL = {
    "schema_version": _Field(_REQUIRED, lambda v: _is_integer(v) and v == SCHEMA_VERSION,
                             f"must equal {SCHEMA_VERSION}", int),
    "seed": _Field(0, lambda v: _is_integer(v) and v >= 0, "must be an integer in [0, 1e6]", int),
    "max_steps": _Field(None, lambda v: v is None or (_is_integer(v) and v >= 1),
                        "must be an integer in [1, 1e6]", _as_is),
    "traffic_density": _Field(1.0, lambda v: _is_number(v) and 0.0 <= v <= 1.0,
                              "must lie in [0, 1]"),
    "route": _OBJECT,
    "ego": _OBJECT,
    "npcs": _LIST,
    "obstacles": _LIST,
    "slots": _LIST,
}
_ROUTE = {"centerline": _POINTS, "lane_width": _positive(), "goal_station": _number()}
_ACTOR_DEFAULTS = {f.name: f.default for f in fields(ActorState)}  # slots hide class defaults
_SPAWN = {
    "station": _number(),
    "lateral_offset": _number(0.0),
    "heading_offset_deg": _number(0.0),
    "speed": _NON_NEGATIVE,
    "length": _positive(_ACTOR_DEFAULTS["length"]),  # the ActorState default footprint
    "width": _positive(_ACTOR_DEFAULTS["width"]),
}
_OBSTACLE = {**_SPAWN, "speed": _Field(0.0, lambda v: _is_number(v) and v == 0.0, "must be 0")}
_NPC = {
    **_SPAWN,
    "script": _Field(None, lambda v: v is None or isinstance(v, dict), "must be an object", _as_is),
}
_KIND = _Field(_REQUIRED, lambda v: v in ("vehicle", "obstacle"),
               "must be 'vehicle' or 'obstacle'", _as_is)
_JITTERS = {"lateral_jitter": _NON_NEGATIVE, "length_jitter": _NON_NEGATIVE,
            "width_jitter": _NON_NEGATIVE}
_VEHICLE_SLOT = {**_NPC, "kind": _KIND, "speed_jitter": _NON_NEGATIVE, **_JITTERS}
_OBSTACLE_SLOT = {**_OBSTACLE, "kind": _KIND, **_JITTERS}  # no speed, script or speed_jitter
_SCRIPTS = {  # script "kind" -> (script type, table of its other fields)
    "constant_velocity": (ConstantVelocity, {}),
    "waypoint_follower": (WaypointFollower, {"waypoints": _POINTS, "speed": _NON_NEGATIVE}),
    "braking": (Braking, {"trigger_station": _number(), "decel": _positive()}),
}


def _read_script(spec: dict | None, path: str, problems: list[str]) -> ActorScript | None:
    if spec is None:
        return ConstantVelocity()
    kind = spec.get("kind")
    if not isinstance(kind, str) or kind not in _SCRIPTS:
        problems.append(f"{path}.kind must be one of {tuple(_SCRIPTS)} (got {reprlib.repr(kind)})")
        return None
    script_type, table = _SCRIPTS[kind]
    count = len(problems)
    values = _read({k: v for k, v in spec.items() if k != "kind"}, path, table, problems)
    if len(problems) > count:
        return None
    try:
        return script_type(**values)
    except ScenarioError as exc:  # script errors name the field, e.g. "waypoints ..."
        problems.append(f"{path}.{exc}")
        return None


def _spawn_actor(route: Route, spec: dict, kind: ActorKind) -> ActorState:
    """Place an actor from a route-relative spec with every default filled in."""
    station, offset = spec["station"], spec["lateral_offset"]
    x, y, heading, tx, ty = route._pose_at(station)
    return ActorState(
        position=(x - offset * ty, y + offset * tx),  # offset times the unit normal (-ty, tx)
        heading=wrap_angle(heading + math.radians(spec["heading_offset_deg"])),
        speed_long=0.0 if kind is ActorKind.STATIC_OBSTACLE else spec["speed"],
        length=spec["length"],
        width=spec["width"],
        kind=kind,
    )


def _read_actor(spec: object, path: str, table: dict[str, _Field], route: Route | None,
                problems: list[str]) -> dict:
    """Read one actor spec, building its script and checking its station."""
    values = _read(spec, path, table, problems)
    if "script" in values:
        values["script"] = _read_script(values["script"], f"{path}.script", problems)
    station = values.get("station")
    if route is not None and station is not None and not 0.0 <= station <= route.length:
        problems.append(f"{path}.station must lie within [0, {route.length:.6g}] (got {station})")
    return values


def _slot_table(spec: object) -> dict[str, _Field]:
    """An obstacle slot's fields if the spec names that kind, else a vehicle slot's."""
    is_obstacle = isinstance(spec, dict) and spec.get("kind") == "obstacle"
    return _OBSTACLE_SLOT if is_obstacle else _VEHICLE_SLOT


def _read_scenario(data: object) -> tuple[Scenario | None, list[str]]:
    """The one pass over a scenario document: (scenario, []) or (None, problems)."""
    problems: list[str] = []
    top = _read(data, "", _TOP_LEVEL, problems)
    route = None
    if "route" in top:
        values = _read(top["route"], "route", _ROUTE, problems)
        if len(values) == len(_ROUTE):
            try:
                route = Route(**values)
            except ConfigError as exc:
                problems.append(str(exc))  # Route errors already carry route.* paths
    ego = {}
    if "ego" in top:
        ego = _read_actor(top["ego"], "ego", _SPAWN, route, problems)
    if route is not None and "station" in ego:
        if route.goal_station <= ego["station"]:
            problems.append(
                f"route.goal_station must lie past the ego spawn station {ego['station']:.6g} "
                f"(got {route.goal_station:.6g})"
            )
        offset = ego.get("lateral_offset", 0.0)
        if abs(offset) > route.lane_width:
            problems.append(
                f"ego.lateral_offset must keep the ego on or near the lane (got {offset})"
            )
    actors = {
        name: [_read_actor(spec, f"{name}[{i}]", table(spec), route, problems)
               for i, spec in enumerate(top.get(name, ()))]
        for name, table in (("npcs", lambda spec: _NPC), ("obstacles", lambda spec: _OBSTACLE),
                            ("slots", _slot_table))
    }
    if problems:
        return None, problems
    # slots are placed per episode, by realize_traffic
    return Scenario(
        route=route,
        ego_spawn=_spawn_actor(route, ego, ActorKind.EGO_VEHICLE),
        npcs=tuple((_spawn_actor(route, spec, ActorKind.NPC_VEHICLE), spec["script"])
                   for spec in actors["npcs"]),
        obstacles=tuple(_spawn_actor(route, spec, ActorKind.STATIC_OBSTACLE)
                        for spec in actors["obstacles"]),
        slots=tuple(MappingProxyType(spec) for spec in actors["slots"]),
        traffic_density=top["traffic_density"],
        seed=top["seed"],
        max_steps=top["max_steps"],
    ), []


def validate_scenario_data(data: object) -> list[str]:
    """Validate a parsed scenario document; return every violation found."""
    return _read_scenario(data)[1]


def scenario_from_dict(data: dict) -> Scenario:
    """Build a validated Scenario from a parsed document."""
    scenario, problems = _read_scenario(data)
    if problems:
        raise ScenarioError("; ".join(problems))
    return scenario


def load_scenario(path: str | Path) -> Scenario:
    """Load and validate a scenario JSON file."""
    return scenario_from_dict(_read_json(path, ScenarioError, "scenario"))


def realize_traffic(
    scenario: Scenario, density: float | None = None, seed: int | None = None
) -> tuple[tuple[tuple[ActorState, ActorScript], ...], tuple[ActorState, ...]]:
    """Materialise the episode's traffic: explicit actors plus seeded slots.

    `round(density * len(slots))` slots are chosen without replacement; their
    jitters resolve deterministically from the seed. A `density` or `seed` of
    None takes the scenario's own.
    """
    density = scenario.traffic_density if density is None else density
    seed = scenario.seed if seed is None else seed
    if not (_is_number(density) and 0.0 <= density <= 1.0):
        got = reprlib.repr(density)
        raise ScenarioError(f"traffic density must be a number in [0, 1] (got {got})")
    if not _is_count(seed, 0):
        raise ScenarioError(f"seed must be a non-negative integer (got {reprlib.repr(seed)})")
    npcs = list(scenario.npcs)
    obstacles = list(scenario.obstacles)
    if scenario.slots:
        rng = np.random.default_rng(seed)
        count = int(round(density * len(scenario.slots)))
        chosen = sorted(
            rng.choice(len(scenario.slots), size=count, replace=False).tolist()
        )
        for idx in chosen:
            slot = scenario.slots[idx]
            jitter = rng.uniform(-1.0, 1.0, size=4).tolist()  # plain floats, like a read spec
            spec = slot | {
                "speed": max(slot["speed"] + jitter[0] * slot.get("speed_jitter", 0.0), 0.0),
                "lateral_offset": slot["lateral_offset"] + jitter[1] * slot["lateral_jitter"],
                "length": max(slot["length"] + jitter[2] * slot["length_jitter"], 0.3),
                "width": max(slot["width"] + jitter[3] * slot["width_jitter"], 0.3),
            }
            kind = ActorKind.NPC_VEHICLE if slot["kind"] == "vehicle" else ActorKind.STATIC_OBSTACLE
            actor = _spawn_actor(scenario.route, spec, kind)
            if kind is ActorKind.NPC_VEHICLE:
                npcs.append((actor, slot["script"]))
            else:
                obstacles.append(actor)
    return tuple(npcs), tuple(obstacles)


# ---------------------------------------------------------------------------
# World stepping


@dataclass(frozen=True, eq=False)
class World:
    """Complete kinematic state at one instant."""

    route: Route
    time: float
    ego: ActorState
    npcs: tuple[ActorState, ...]
    scripts: tuple[ActorScript, ...]
    obstacles: tuple[ActorState, ...]
    # Per NPC, the arc length a waypoint follower has reached on its polyline
    # (None for other scripts); empty until the first step.
    stations: tuple[float | None, ...] = ()

    @property
    def actors(self) -> tuple[ActorState, ...]:
        """Everything the ego can interact with."""
        return self.npcs + self.obstacles


_make_state = _maker(ActorState)  # only behind `_moved`'s guard
_CHUNK = 192  # steps per array pass of `_rollout`: a criterion-7 episode has at most 171


def _moved(state: ActorState, position: tuple[float, float], heading: float,
           speed_long: float, accel_long: float) -> ActorState:
    """`state` at a new pose and longitudinal motion; footprint, kind and lateral speed kept.

    `state` passed ActorState's checks and the new numbers are worked out from
    checked ones, so only an overflow or a static actor set moving can fail them.
    Only then is the constructor run, to raise as it does for any caller; otherwise
    the new state is built by `_make_state`, which stores the fields and runs no check.
    """
    x, y = position
    # each difference is 0.0 if its field is finite and NaN if not, so the sum cannot overflow
    if not math.isfinite(x - x + y - y + heading - heading + speed_long - speed_long
                         + accel_long - accel_long) or (
            speed_long != 0.0 and state.kind is ActorKind.STATIC_OBSTACLE):
        return ActorState(position, heading, speed_long, state.speed_lat, accel_long,
                          state.length, state.width, state.kind)
    return _make_state((float(x), float(y)), heading, speed_long, state.speed_lat, accel_long,
                       state.length, state.width, state.kind)


class _Track:
    """An open-loop NPC's state at each step of one episode, built as the loop reaches it.

    Row k is the NPC's x, y, heading, speed_long, the cos and sin of that heading, and
    accel_long at step k, from its spawn at step 0. `_extend` appends the next row in plain
    floats and returns it, with the arithmetic of `step_world`'s step: a constant-velocity NPC
    takes a braking NPC's step without the trigger, and a waypoint follower takes
    `Route._pose_at` at its carried arc length, written out; both keep the spawn acceleration.
    A single step of `_rollout` grows each track by one row; its array pass fills `block`, a
    chunk of steps at a time: a constant-velocity track's x and y by `np.add.accumulate`,
    which gives the bits of those repeated adds, any other track's rows by `_extend`. A
    heading's cos and sin are made with it: a constant-velocity or braking row carries the
    spawn's, a waypoint row its segment's. The script's kind is settled once. Building never
    raises: an overflow fails at the step whose state holds it, as that state is made
    (`_rollout` makes it when the row fails its cheap test). A track belongs to one episode,
    never kept on a scenario or script.
    """

    def __init__(self, state: ActorState, script: ActorScript, route: Route, dt: float,
                 station: float | None = None) -> None:
        if not isinstance(script, (ConstantVelocity, WaypointFollower, Braking)):
            raise ContractError(f"NPC script must be a ConstantVelocity, Braking or "
                                f"WaypointFollower (got {type(script).__name__})")
        self.state, self.script, self.route, self.dt = state, script, route, dt
        # the arc length a waypoint follower has reached on its polyline, once it is known
        self.station = station
        self.rows = [[*state.position, state.heading, state.speed_long, math.cos(state.heading),
                      math.sin(state.heading), state.accel_long]]
        self.follows, self.brakes = (isinstance(script, t) for t in (WaypointFollower, Braking))
        self.block = ()  # rows 0 to the held steps of a shared ego track, if the array pass ran

    def at(self, step: int) -> ActorState:
        """The NPC's state at `step`, which is at most one past the last step reached."""
        x, y, heading, speed, _, _, accel = (self.rows[step] if step < len(self.rows)
                                             else self._extend())
        return _moved(self.state, (x, y), heading, speed, accel)

    def columns(self, steps: int) -> np.ndarray:
        """The first six fields of rows 1 to `steps`, which the loop has reached, as an array."""
        if steps < len(self.block):
            return self.block[1:steps + 1, :6]
        rows = chain.from_iterable(self.rows[1:steps + 1])
        return np.fromiter(rows, float, 7 * steps).reshape(steps, 7)[:, :6]

    def _fill(self, start: int, stop: int) -> None:
        """Rows `start` to `stop` of `block`, which holds row start - 1; never raises."""
        block, rows = self.block[start - 1:stop + 1], self.rows
        if not (self.follows or self.brakes):
            block[1:] = block[0]
            block[1:, :2] = block[0, 3] * self.dt * block[0, 4:6]  # step * cos, step * sin
            np.add.accumulate(block[:, :2], out=block[:, :2])
            return
        # a braking row after one at rest repeats; rows after a NaN one (it raises) go unread
        while len(rows) <= stop and not (self.brakes and (len(rows) > 1 and rows[-2][3] == 0.0
                                                          or math.isnan(sum(rows[-1][:2])))):
            self._extend()
        grown = rows[start:stop + 1]
        block[1:] = grown + rows[-1:] * (stop + 1 - start - len(grown))

    def _extend(self) -> list:
        script, dt = self.script, self.dt
        x, y, heading, speed, cos, sin, accel = self.rows[-1]
        if not self.follows:
            new_speed = speed
            if self.brakes:
                # only a moving NPC can brake, so only it is projected
                if speed > 0.0 and _project(
                        x, y, heading, self.route).station >= script.trigger_station:
                    new_speed = max(speed - script.decel * dt, 0.0)
                accel = (new_speed - speed) / dt
            step = speed * dt  # the ego's advance, at the speed the step starts with
            self.rows.append(row := [x + step * cos, y + step * sin, heading, new_speed, cos, sin,
                                     accel])
            return row
        # advance by arc length from where it first meets its polyline; the carried arc
        # length keeps a self-crossing polyline from sending it back
        line = script._line
        if self.station is None:
            self.station = project_to_route(self.state.position, self.state.heading, line).station
        # min(station, length), its bits without the call: once at the line's end, or past it
        # by an overflow to inf, it stays there
        stations = line._stations
        station = self.station + script.speed * dt
        if stations[-1] < station:
            station = stations[-1]
        self.station = station
        # `line._pose_at(station)` written out, its upper clamp done: a World may carry a
        # station short of the line's start, or NaN, which gives a NaN pose that `_moved` rejects
        s = 0.0 if 0.0 > station else station  # max(station, 0.0)
        i = bisect.bisect_right(stations, s, 1, len(stations) - 1) - 1
        ax, ay, dx, dy, _ = line._segments[i]
        t = (s - stations[i]) / line._seg_len[i]
        heading, speed = line._heading[i], script.speed if station < stations[-1] else 0.0
        self.rows.append(row := [ax + t * dx, ay + t * dy, heading, speed, math.cos(heading),
                                 math.sin(heading), accel])
        return row


def _step_ego(ego: ActorState, accel_cmd: float, steer_rate: float,
              config: RewardConfig) -> ActorState:
    """The ego one step of config.dt on: a kinematic unicycle update (see `step_world`)."""
    dt = config.dt
    (x, y), step = ego.position, ego.speed_long * dt  # along the heading the step starts with
    position = x + step * math.cos(ego.heading), y + step * math.sin(ego.heading)
    heading = ego.heading + steer_rate * dt  # an overflow goes to wrap_angle, which raises
    heading = _wrap(heading) if math.isfinite(heading) else wrap_angle(heading)
    new_speed = min(max(ego.speed_long + accel_cmd * dt, 0.0), config.v_max)
    effective_accel = (new_speed - ego.speed_long) / dt
    return _moved(ego, position, heading, new_speed, effective_accel)


def step_world(world: World, ego_action: tuple[float, float], config: RewardConfig) -> World:
    """Advance the world one step of config.dt.

    The ego follows a kinematic unicycle update: it moves along its current
    heading at its current speed, then integrates the steering rate and the
    (clamped) acceleration. The recorded ego acceleration is the effective one,
    so speed saturation at 0 or v_max shows up in the comfort objective. Each
    NPC takes the first step of its script's track.
    """
    accel_cmd, steer_rate = _pair(ego_action, "ego action")
    new_ego = _step_ego(world.ego, accel_cmd, steer_rate, config)
    n = len(world.npcs)
    if len(world.scripts) != n or len(world.stations) not in (0, n):
        name = "scripts" if len(world.scripts) != n else "stations"
        raise ContractError(f"step_world world.{name} must hold one entry per NPC "
                            f"(got {len(getattr(world, name))} for {n} NPCs)")
    tracks = [_Track(state, script, world.route, config.dt, station) for state, script, station
              in zip(world.npcs, world.scripts, world.stations or (None,) * n)]
    npcs = tuple(track.at(1) for track in tracks)  # a waypoint track's station is then known
    return World(route=world.route, time=world.time + config.dt, ego=new_ego, npcs=npcs,
                 scripts=world.scripts, obstacles=world.obstacles,
                 stations=tuple(track.station for track in tracks))


# ---------------------------------------------------------------------------
# Collision and off-road checks


# Relative margin on the circumcircle reject: far beyond rounding, so a pair it
# rejects is one the separating-axis test would also find apart.
_BROAD_PHASE_MARGIN = 1e-9


def _reach(a: ActorState, b: ActorState) -> float:
    """Centre distance beyond which the circumcircles of `a` and `b` are clearly disjoint."""
    return (a.circumradius + b.circumradius) * (1.0 + _BROAD_PHASE_MARGIN)


def _footprints_overlap(a: ActorState, b: ActorState) -> bool:
    """Separating-axis test on the four footprint axes; touching counts.

    The footprints are apart on an axis when their centre distance projected
    onto it exceeds `a`'s half-extents projected onto it plus `b`'s; the axes are `a`'s
    heading and its normal, then `b`'s. Pairs whose centres are further apart than
    `_reach(a, b)` are rejected before that test.
    """
    (ax, ay), (bx, by) = a.position, b.position
    if math.hypot(dx := bx - ax, dy := by - ay) > _reach(a, b):
        return False
    ca, sa, la, wa = math.cos(a.heading), math.sin(a.heading), a.length / 2.0, a.width / 2.0
    cb, sb, lb, wb = math.cos(b.heading), math.sin(b.heading), b.length / 2.0, b.width / 2.0
    # each extent has the bits of a projection of half-extents onto the axis: a footprint's
    # own is one times cos^2 + sin^2 (the cross term is exactly 0), the other's two times
    # |cos| and |sin| of the heading difference
    na, nb = ca * ca + sa * sa, cb * cb + sb * sb
    cos_ab, sin_ab = abs(ca * cb + sa * sb), abs(sa * cb - ca * sb)
    return not (abs(dx * ca + dy * sa) > la * na + (lb * cos_ab + wb * sin_ab)
                or abs(dy * ca - dx * sa) > wa * na + (lb * sin_ab + wb * cos_ab)
                or abs(dx * cb + dy * sb) > (la * cos_ab + wa * sin_ab) + lb * nb
                or abs(dy * cb - dx * sb) > (la * sin_ab + wa * cos_ab) + wb * nb)


def detect_collision(ego: ActorState, actors: Iterable[ActorState]) -> bool:
    """True iff the ego's oriented rectangle overlaps any actor's.

    `run_episode` hands it only the actors its broad phase kept, those whose
    centres lie within `_reach(ego, actor)` of the ego's.
    """
    for actor in actors:  # not `any` of a generator, whose set-up every step would pay
        if _footprints_overlap(ego, actor):
            return True
    return False


def check_offroad(pose: RouteFramePose, ego: ActorState, route: Route) -> bool:
    """True once the ego body has fully left the lane corridor."""
    return abs(pose.lateral_offset) > route.lane_width / 2.0 + ego.width / 2.0


# ---------------------------------------------------------------------------
# Policies


@dataclass(frozen=True, eq=False, slots=True)
class Observation:
    """What a policy sees each step."""

    ego: ActorState
    pose: RouteFramePose
    others: tuple[ActorState, ...]
    step: int  # steps already taken this episode; 0 at the first decision


_make_observation = _maker(Observation, "others")  # built when a policy reads them
Policy = Callable[[Observation], tuple[float, float]]


def idle_policy() -> Policy:
    """Never move."""
    return lambda obs: (0.0, 0.0)


def full_throttle_policy(accel: float = 6.0) -> Policy:
    """Accelerate straight ahead regardless of anything."""
    return lambda obs: (accel, 0.0)


def lane_follower_policy(
    target_speed: float,
    accel_gain: float = 2.0,
    steer_gain: float = 2.0,
    offset_gain: float = 0.5,
    accel_limits: tuple[float, float] = (-8.0, 6.0),
    max_steer_rate: float = 1.5,
) -> Policy:
    """Proportional speed hold plus a pull toward the centerline."""

    def policy(obs: Observation) -> tuple[float, float]:
        accel = min(max(accel_gain * (target_speed - obs.ego.speed_long), accel_limits[0]),
                    accel_limits[1])
        target_heading_error = -math.atan2(
            offset_gain * obs.pose.lateral_offset, max(obs.ego.speed_long, 1.0)
        )
        steer = steer_gain * (target_heading_error - obs.pose.heading_error)
        steer = min(max(steer, -max_steer_rate), max_steer_rate)
        return accel, steer

    return policy


def scripted_replay_policy(actions: Sequence[tuple[float, float]]) -> Policy:
    """Replay a recorded action sequence, then hold still."""
    actions = [_pair(action, "scripted action") for action in actions]

    def policy(obs: Observation) -> tuple[float, float]:
        return actions[obs.step] if obs.step < len(actions) else (0.0, 0.0)

    return policy


# Each built-in policy by name, parameterised from the config.
_BUILTINS: dict[str, Callable[[RewardConfig], Policy]] = {
    "lane_follower": lambda config: lane_follower_policy(
        target_speed=config.v_desired, accel_limits=(-config.a_brk_max_x, config.a_acc_max_x)),
    "full_throttle": lambda config: full_throttle_policy(accel=config.a_acc_max_x),
    "idle": lambda config: idle_policy(),
}
BUILTIN_POLICIES = tuple(_BUILTINS)


def build_policy(name: str, config: RewardConfig) -> Policy:
    """Instantiate a built-in policy by name, parameterised from the config."""
    if name not in _BUILTINS:
        raise ScenarioError(f"unknown policy {name!r}; built-in policies: {', '.join(_BUILTINS)}")
    return _BUILTINS[name](config)


# ---------------------------------------------------------------------------
# Episode execution


@dataclass(frozen=True, eq=False, slots=True)
class StepRecord:
    """One simulation step: post-step state plus its reward breakdown."""

    step: int
    time: float
    ego: ActorState
    pose: RouteFramePose
    action: tuple[float, float]
    breakdown: RewardBreakdown
    outcome: Outcome


_make_record = _maker(StepRecord)


@dataclass(frozen=True, eq=False)
class EpisodeTrace:
    """Full per-step record of a run plus its episode statistics."""

    records: tuple[StepRecord, ...]
    outcome: Outcome
    cumulative_reward: float
    route_progress: float     # final station / goal station, clamped to [0, 1]
    average_velocity: float   # m/s

    @cached_property
    def _risk_table(self) -> tuple | None:
        """The risk table of `records`, which `trace.csv` reads: the one `run_episode` scored
        them with, or for a trace made otherwise (by `dataclasses.replace`, say) the table of
        their `risk_assessments`, built when first read."""
        return _assessed_table([record.breakdown.risk_assessments for record in self.records])


# (MetricsSummary name, EpisodeTrace field) of each statistic an episode reports
_EPISODE_STATS = (("reward", "cumulative_reward"), ("progress", "route_progress"),
                  ("velocity", "average_velocity"))


def _shared_traffic(obs: Observation) -> tuple[ActorState, ...]:
    raise ContractError("obs.others is not available on an ego track that episodes share")


class _EgoTrack:
    """The ego's steps under one policy, scenario and config, built as episodes reach them.

    Row 0 is the spawn's (time, state, pose); row k is step k's (time, ego, pose, action,
    outcome, l0, l1_progress, l2, l3): the outcome the ego makes alone (off-road, success,
    timeout or none), over which `_rollout` takes a collision with its traffic, then the
    levels that read the ego alone, scored by `_ego_levels` as the row is appended. The
    ego's steps depend on its traffic only through `obs.others`, which reads `traffic`:
    an episode's own NPC tracks, or, for a track that `riskrl sweep` shares between the
    episodes of a scenario, `_shared_traffic`, which raises. A step that raises appends no
    row, so the next episode to reach it raises the same error. The ego's kernel rows, the
    `risk._rows` of its states, are built once, by the first episode with actors to reach
    them, and die with the track.
    """

    def __init__(self, scenario: Scenario, policy: Policy, config: RewardConfig,
                 traffic: Callable[[Observation], tuple] = _shared_traffic) -> None:
        route = scenario.route
        if not route.goal_station > 0.0:  # route_progress divides by it
            raise ContractError(f"route.goal_station must be positive to run an episode "
                                f"(got {route.goal_station})")
        max_steps = scenario.max_steps if scenario.max_steps is not None else config.timeout_steps
        if not _is_count(max_steps, 1):
            got = reprlib.repr(max_steps)
            raise ContractError(f"max_steps must be an integer >= 1 (got {got})")
        self.scenario, self.policy, self.config, self.traffic = scenario, policy, config, traffic
        self.route, self.max_steps, self.speed_limit = route, max_steps, config.speed_limit + 1e-9
        ego = scenario.ego_spawn
        self.rows: list[tuple] = [(0.0, ego, project_to_route(ego.position, ego.heading, route))]
        self.kernel = self.xy = ()  # the kernel rows and the x, y of rows 1, 2, ..., as read

    def _extend(self) -> tuple:
        config, route, step = self.config, self.route, len(self.rows)
        time, ego, pose = self.rows[-1][:3]
        accel_cmd, steer_cmd = _pair(
            self.policy(_make_observation(ego, pose, self.traffic, step - 1)), "policy action")
        accel_cmd = min(max(accel_cmd, -config.a_brk_max_x), config.a_acc_max_x)
        steer_limit = max(ego.speed_long, STEER_SPEED_FLOOR) * config.kappa_max
        steer_cmd = min(max(steer_cmd, -steer_limit), steer_limit)
        new_ego = _step_ego(ego, accel_cmd, steer_cmd, config)  # step_world's ego step
        new_pose = _project(*new_ego.position, new_ego.heading, route)
        if check_offroad(new_pose, new_ego, route):
            outcome = Outcome.OFFROAD
        elif new_pose.station >= route.goal_station:
            outcome = Outcome.SUCCESS
        elif step == self.max_steps:
            outcome = Outcome.TIMEOUT
        else:
            outcome = Outcome.NONE
        # the one StepContext check a step can fail: the steering rate is clamped from a finite
        # command, but a difference of two finite accelerations (a hand-built spawn's) can overflow
        if not math.isfinite(jerk := (new_ego.accel_long - ego.accel_long) / config.dt):
            raise ContractError("steering_rate and jerk must be finite numbers")
        violations = _SPEEDING if new_ego.speed_long > self.speed_limit else _NO_VIOLATION
        self.rows.append(row := (time + config.dt, new_ego, new_pose, (accel_cmd, steer_cmd),
                                 outcome, *_ego_levels(new_ego, new_pose, pose, route.lane_width,
                                                       steer_cmd, jerk, violations, config)))
        return row

    def _kernel_rows(self, n: int) -> np.ndarray:
        """The ego's kernel rows of rows 1 to `n`, which episodes have reached; rows not yet
        covered are appended."""
        have = len(self.kernel)
        if have < n:
            rows = _rows(row[1] for row in self.rows[have + 1:n + 1])
            self.kernel = np.concatenate((self.kernel, rows)) if have else rows
        return self.kernel[:n]


def run_episode(
    scenario: Scenario,
    policy: Policy,
    config: RewardConfig,
    density: float | None = None,
    seed: int | None = None,
) -> EpisodeTrace:
    """Run one episode to its outcome; bit-deterministic for fixed inputs.

    Terminal checks run on the post-step state in the order collision,
    off-road, goal reached; hitting the step budget ends the episode as a
    timeout whose final step contributes zero reward. Ego acceleration
    commands are clamped to the braking/acceleration limits and the steering
    rate to the curvature-feasible envelope.
    """
    return _score(*_rollout(scenario, policy, config, density, seed))


def _rollout(scenario: Scenario, policy: Policy | _EgoTrack, config: RewardConfig,
             density: float | None, seed: int | None) -> tuple:
    """The episode's ego track, its step count and outcome, its actors (NPCs, then obstacles)
    and the NPCs' tracks. The ego's steps are the rows of an `_EgoTrack`: the one passed for
    `policy`, or a new one whose observations read this episode's traffic. One loop runs them
    in segments: while the track holds the next steps' rows, an array pass of up to `_CHUNK`
    steps, whose numpy mask gives each step's candidates; past them, one step, whose candidates
    are every actor's row. One body decides each step: the scalar broad phase on its candidates,
    NPC states built for what it keeps, or to raise, then `detect_collision`."""
    def traffic(obs: Observation) -> tuple[ActorState, ...]:  # `obs.others`, on its first read
        return tuple([track.at(obs.step) for track in tracks]) + obstacles  # rows the loop read

    ego_track = (policy if isinstance(policy, _EgoTrack)
                 else _EgoTrack(scenario, policy, config, traffic))
    if ego_track.scenario is not scenario or ego_track.config is not config:
        raise ContractError("an ego track runs only the scenario and config it was built for")
    npcs, obstacles = realize_traffic(scenario, density=density, seed=seed)
    tracks = [_Track(state, script, scenario.route, config.dt) for state, script in npcs]
    actors = tuple(state for state, _ in npcs) + obstacles
    reaches = [_reach(scenario.ego_spawn, actor) for actor in actors]  # _moved keeps footprints
    statics = [actor.kind is ActorKind.STATIC_OBSTACLE for actor in actors]
    spawns = [(*actor.position, 0.0, 0.0, 0.0, 0.0, 0.0) for actor in obstacles]  # their rows
    rows, n = ego_track.rows, len(tracks)
    step, held = 0, (len(rows) - 1 if actors else 0)  # no pass without actors
    if held:
        if len(ego_track.xy) < held:
            ego_track.xy = np.array([row[1].position for row in rows[1:]])
        limits = np.array(reaches) * (1.0 + 1e-12) + 1e-300  # np.hypot's last bit, any reach
        table = np.empty((held + 1, len(actors), 7))  # every actor's row at steps 0 to held
        table[0] = [track.rows[0] for track in tracks] + spawns
        for j, track in enumerate(tracks):
            track.block = table[:, j]
    while True:  # the ego's row at max_steps ends the episode, if nothing before it does
        if step < held:  # an array pass of the held rows' next steps
            start, stop = step + 1, min(step + _CHUNK, held)
            now, (ex, ey) = table[start:stop + 1], ego_track.xy[start - 1:stop].T[:, :, None]
            now[:, n:] = table[0, n:]  # obstacles stay at their spawn rows
            with np.errstate(all="ignore"):  # rows overflow silently, as Python floats do
                for track in tracks:
                    track._fill(start, stop)
                x, y, heading, speed, accel = (now[:, :, i] for i in (0, 1, 2, 3, 6))
                # a superset of the scalar test's keeps, which the body below decides
                near = ((np.hypot(x - ex, y - ey) <= limits) | np.array(statics) & (speed != 0.0)
                        | ~np.isfinite(x - x + y - y + heading - heading + speed - speed
                                       + accel - accel))
            segment = [(s, []) for s in range(start, stop + 1)]  # candidates in actor order
            ks, js = near.nonzero()
            for k, j, values in zip(ks.tolist(), js.tolist(), now[ks, js].tolist()):
                segment[k][1].append((j, values))
        else:  # one step: every actor's row
            if step == held and held:  # the tracks grow past the held rows from here
                for track in tracks:
                    track.rows = track.block.tolist()
            if (step := step + 1) == len(rows):
                ego_track._extend()
            # each track holds rows 0 to step - 1, so each grows by one
            segment = ((step, enumerate(chain(map(_Track._extend, tracks), spawns))),)
        for step, candidates in segment:
            # `_footprints_overlap`'s broad phase on the rows; a row the state checks reject (an
            # overflow, a static NPC set moving) goes to `_moved` too, which raises
            ego = rows[step][1]
            (ex, ey), kept = ego.position, []
            for j, (x, y, heading, speed, _, _, accel) in candidates:
                if (math.hypot(x - ex, y - ey) <= reaches[j] or statics[j] and speed
                        or not math.isfinite(x - x + y - y + heading - heading + speed - speed
                                             + accel - accel)):
                    kept.append(_moved(actors[j], (x, y), heading, speed, accel) if j < n
                                else actors[j])
            outcome = Outcome.COLLISION if detect_collision(ego, kept) else rows[step][4]
            if outcome is not Outcome.NONE:
                return ego_track, step, outcome, actors, tracks


def _score(ego_track: _EgoTrack, n: int, outcome: Outcome, actors: tuple[ActorState, ...],
           tracks: list[_Track]) -> EpisodeTrace:
    """The trace of the episode `_rollout` ran: `n` steps of `ego_track`, ending in `outcome`.
    The track's rows 1 to `n`, scored as they were appended, are transposed once; the episode's
    own work is its traffic's: the actors' rows, the risk in one array-kernel call, and the
    levels combined with it in one `_totals` call, each step with `total_reward`'s bits."""
    config, route = ego_track.config, ego_track.route
    times, egos, poses, actions, _, l0, progress, l2, l3 = zip(*ego_track.rows[1:n + 1])
    ego_rows = ego_track._kernel_rows(n) if actors else None
    others = _track_rows(actors, n, [track.columns(n) for track in tracks]) if actors else None
    l1_risk, assessments, table = _risk_rewards(ego_rows, others, [len(actors)] * n, config)
    terminal, total = _totals(l0, progress, l2, l3, l1_risk, outcome, egos[-1].speed,
                              poses[-1].lateral_offset, config)
    breakdowns = map(_make_breakdown, terminal, l0, progress, l1_risk, l2, l3, total, assessments)
    trace = EpisodeTrace(
        records=tuple(map(_make_record, range(1, n + 1), times, egos, poses, actions, breakdowns,
                          chain(repeat(Outcome.NONE, n - 1), (outcome,)))),
        outcome=outcome,
        cumulative_reward=sum(total),
        route_progress=min(max(poses[-1].station / route.goal_station, 0.0), 1.0),
        average_velocity=sum(ego.speed for ego in egos) / n,
    )
    object.__setattr__(trace, "_risk_table", table)  # the table the records were scored with
    return trace


# ---------------------------------------------------------------------------
# Metrics


@dataclass(frozen=True)
class MetricsSummary:
    """Aggregate episode statistics over a batch of traces."""

    episodes: int
    success_pct: float
    offroad_pct: float
    collision_pct: float
    timeout_pct: float
    reward_mean: float
    reward_std: float
    progress_mean: float
    progress_std: float
    velocity_mean: float
    velocity_std: float


def _mean_std(values: Sequence[float]) -> tuple[float, float]:
    n = len(values)
    mean = sum(values) / n
    var = sum((v - mean) ** 2 for v in values) / n
    return mean, math.sqrt(var)


def aggregate_metrics(traces: Iterable[EpisodeTrace]) -> MetricsSummary:
    """Outcome percentages plus mean and standard deviation of the run metrics.

    `traces` may be any iterable, a one-shot generator included. Each trace is
    read once, for its outcome and its three statistics, and not kept, so a
    generator of `run_episode` calls holds one episode at a time: memory does
    not grow with the number of episodes.
    """
    rows = [(trace.outcome, *(getattr(trace, f) for _, f in _EPISODE_STATS)) for trace in traces]
    if not rows:
        raise ContractError("aggregate_metrics requires at least one trace")
    n = len(rows)
    outcomes, *stats = zip(*rows)
    values = {f"{o.value}_pct": 100.0 * outcomes.count(o) / n
              for o in Outcome if o is not Outcome.NONE}
    for (stat, _), column in zip(_EPISODE_STATS, stats):
        values[f"{stat}_mean"], values[f"{stat}_std"] = _mean_std(column)
    return MetricsSummary(episodes=n, **values)
