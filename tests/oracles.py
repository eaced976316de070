"""Test oracles: numpy and brute-force forms of what the library computes in plain floats,
and the checks that hold the library's array and two-phase paths to its scalar ones."""

import copy
import dataclasses
import math
from contextlib import contextmanager

import numpy as np

from riskrl import (
    ActorState, ContractError, Outcome, Route, StepContext, project_to_route, total_reward,
    wrap_angle,
)
from riskrl import sim


def rotation(angle):
    c, s = math.cos(angle), math.sin(angle)
    return np.array([[c, -s], [s, c]])


def transformed(doc, theta, shift):
    """A scenario document moved rigidly: every world-frame point, the route's centerline
    and each waypoint follower's polyline, turned by `theta` about the origin and then
    shifted by `shift`. Route-frame fields (stations, lateral and heading offsets) carry
    over unchanged, so each actor spawns at its moved pose."""
    c, s = math.cos(theta), math.sin(theta)

    def move(points):
        return [[c * x - s * y + shift[0], s * x + c * y + shift[1]] for x, y in points]

    doc = copy.deepcopy(doc)
    doc["route"]["centerline"] = move(doc["route"]["centerline"])
    for actor in doc.get("npcs", []) + doc.get("slots", []):
        if (actor.get("script") or {}).get("kind") == "waypoint_follower":
            actor["script"]["waypoints"] = move(actor["script"]["waypoints"])
    return doc


def numpy_velocity(actor):
    """World-frame velocity vector, m/s."""
    return rotation(actor.heading) @ np.array([actor.speed_long, actor.speed_lat])


def point_at(route: Route, station: float) -> np.ndarray:
    """Centerline point at the given (clamped) station."""
    return np.array(route._pose_at(station)[:2])


def brute_force_ttc(
    a: ActorState, b: ActorState, dt_fine: float = 1e-4, horizon: float = 60.0
) -> float:
    """First circumcircle-overlap time by linear sweep; the TTC oracle.

    Propagates both actors at constant world velocity and scans the gap on a
    fine time grid; +inf if no overlap occurs within the horizon.
    """
    if not 0.0 < dt_fine <= 1e-3:
        raise ContractError(f"dt_fine must lie in (0, 1e-3] (got {dt_fine})")
    if not 0.0 <= horizon < math.inf:
        raise ContractError(f"horizon must be finite and >= 0 (got {horizon})")
    dp = np.subtract(b.position, a.position)
    dv = numpy_velocity(b) - numpy_velocity(a)
    radius = a.circumradius + b.circumradius
    times = np.arange(0.0, horizon + dt_fine, dt_fine)
    px = dp[0] + times * dv[0]
    py = dp[1] + times * dv[1]
    hit = px * px + py * py <= radius * radius
    idx = int(np.argmax(hit))
    if not hit[idx]:
        return math.inf
    return float(times[idx])


def dense_nearest_distance(centerline: np.ndarray, point: np.ndarray, step=1e-4) -> float:
    """Independent nearest-point oracle: brute-force sampling of the polyline."""
    best = math.inf
    for a, b in zip(centerline[:-1], centerline[1:]):
        seg_len = float(np.hypot(*(b - a)))
        n = max(int(seg_len / step), 1) + 1
        ts = np.linspace(0.0, 1.0, n)
        samples = a + ts[:, None] * (b - a)
        d = np.min(np.hypot(samples[:, 0] - point[0], samples[:, 1] - point[1]))
        best = min(best, float(d))
    return best


def numpy_projection(point, heading, centerline):
    """The projection over segment arrays rebuilt on every call: (station, offset, heading error)."""
    a = centerline[:-1]
    d = centerline[1:] - a
    seg_len = np.hypot(d[:, 0], d[:, 1])
    seg_len2 = np.einsum("ij,ij->i", d, d)
    t = np.clip(np.einsum("ij,ij->i", point - a, d) / seg_len2, 0.0, 1.0)
    diff = point - (a + t[:, None] * d)
    dist2 = np.einsum("ij,ij->i", diff, diff)
    i = int(np.argmin(dist2))
    station = float(np.concatenate([[0.0], np.cumsum(seg_len)])[i] + t[i] * seg_len[i])
    tangent = d[i] / math.sqrt(seg_len2[i])
    offset = math.copysign(math.sqrt(dist2[i]), tangent[0] * diff[i][1] - tangent[1] * diff[i][0])
    return station, offset, wrap_angle(heading - math.atan2(tangent[1], tangent[0]))


def step_npc(state, script, route, dt, station):
    """(the NPC one step of dt on by its script, the arc length a waypoint follower carries).

    The per-state stepping that the simulator's tracks grow by, one row per step, with
    every new state checked by the ActorState constructor.
    """
    def moved(position, heading, speed, accel):
        return dataclasses.replace(state, position=position, heading=heading, speed_long=speed,
                                   accel_long=accel)

    x, y = state.position
    step = state.speed_long * dt
    ahead = (x + step * math.cos(state.heading), y + step * math.sin(state.heading))
    if isinstance(script, sim.ConstantVelocity):
        return moved(ahead, state.heading, state.speed_long, state.accel_long), None
    if isinstance(script, sim.Braking):
        speed = state.speed_long
        if speed > 0.0 and project_to_route(
                state.position, state.heading, route).station >= script.trigger_station:
            speed = max(speed - script.decel * dt, 0.0)
        return moved(ahead, state.heading, speed, (speed - state.speed_long) / dt), None
    line = script._line
    if station is None:
        station = project_to_route(state.position, state.heading, line).station
    station = min(station + script.speed * dt, line.length)
    x, y, heading, _, _ = line._pose_at(station)
    speed = script.speed if station < line.length else 0.0
    return moved((x, y), heading, speed, state.accel_long), station


def rectangle_contains(state: ActorState, points: np.ndarray) -> np.ndarray:
    """Membership test used by the sampling oracle."""
    local = points - state.position
    c, s = math.cos(state.heading), math.sin(state.heading)
    lon = local @ np.array([c, s])
    lat = local @ np.array([-s, c])
    return (np.abs(lon) <= state.length / 2.0 + 1e-12) & (np.abs(lat) <= state.width / 2.0 + 1e-12)


def sampled_overlap(a: ActorState, b: ActorState, resolution=0.02) -> bool:
    """Dense point-sampling containment oracle for rectangle overlap."""
    for first, second in ((a, b), (b, a)):
        nx = max(int(first.length / resolution), 2) + 1
        ny = max(int(first.width / resolution), 2) + 1
        lon = np.linspace(-first.length / 2.0, first.length / 2.0, nx)
        lat = np.linspace(-first.width / 2.0, first.width / 2.0, ny)
        grid = np.stack(np.meshgrid(lon, lat), axis=-1).reshape(-1, 2)
        c, s = math.cos(first.heading), math.sin(first.heading)
        world = first.position + grid @ np.array([[c, s], [-s, c]])
        if bool(np.any(rectangle_contains(second, world))):
            return True
    return False


def footprints_overlap(a: ActorState, b: ActorState) -> bool:
    """The separating-axis test as nested loops over both footprints' axes and extents.

    On each axis, `a`'s heading and its left normal, then `b`'s, the footprints are
    apart when the centre distance projected onto it exceeds `sum` of both footprints'
    projected half-extents, `a`'s first. Pairs beyond `sim._reach` are rejected first.
    """
    (ax, ay), (bx, by) = a.position, b.position
    if math.hypot(bx - ax, by - ay) > sim._reach(a, b):
        return False
    boxes = [(math.cos(x.heading), math.sin(x.heading), x.length / 2.0, x.width / 2.0)
             for x in (a, b)]
    for c, s, _, _ in boxes:
        for ux, uy in ((c, s), (-s, c)):
            extent = sum(half_l * abs(ux * bc + uy * bs) + half_w * abs(uy * bc - ux * bs)
                         for bc, bs, half_l, half_w in boxes)
            if abs((bx - ax) * ux + (by - ay) * uy) > extent:
                return False
    return True


def same_bits(a, b) -> bool:
    """True when a and b hold the same floats bit for bit, compared by `float.hex`.

    So -0.0 differs from 0.0, where `==` would miss it, and NaN equals NaN.
    Recurses through tuples, lists and dataclasses; a float matches only a value of
    its own type, a numpy array one of the same dtype, shape and bytes, and anything
    else compares with `==`.
    """
    if type(a) is not type(b):
        return False
    if isinstance(a, float):
        return a.hex() == b.hex()
    if isinstance(a, np.ndarray):
        return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()
    if isinstance(a, (tuple, list)):
        return len(a) == len(b) and all(map(same_bits, a, b))
    if dataclasses.is_dataclass(a):
        return all(same_bits(getattr(a, f.name), getattr(b, f.name))
                   for f in dataclasses.fields(a))
    return a == b


def within_reach(ego, actors):
    """The actors whose centres lie at most `sim._reach` from the ego's: the broad phase's."""
    (ex, ey) = ego.position
    return tuple(actor for actor in actors
                 if math.hypot(actor.position[0] - ex, actor.position[1] - ey)
                 <= sim._reach(ego, actor))


@contextmanager
def collision_checks():
    """Yield a list that fills with the actors of each `sim.detect_collision` call, as made.

    `run_episode` checks each step's actors within reach of the ego (`within_reach`) once,
    the last step's too, which no policy sees.
    """
    checked, detect = [], sim.detect_collision

    def spy(ego, actors, **kwargs):
        checked.append(tuple(actors))
        return detect(ego, actors, **kwargs)

    sim.detect_collision = spy
    try:
        yield checked
    finally:
        sim.detect_collision = detect


def replayed_contexts(trace, scenario, config, density=None, seed=None):
    """Each step's `StepContext`, rebuilt one step at a time by the public scalar path.

    The world starts from `realize_traffic` and takes `step_world` on each record's action;
    the ego is projected by `project_to_route`, and the outcome is decided by
    `detect_collision` and `check_offroad` in `run_episode`'s order. Returns None unless
    every replayed step, time, ego, pose and outcome has the bits of its record's, the
    replay ends where the trace does, and the trace's outcome is its last record's.
    """
    route = scenario.route
    max_steps = scenario.max_steps if scenario.max_steps is not None else config.timeout_steps
    npcs, obstacles = sim.realize_traffic(scenario, density, seed)
    world = sim.World(route=route, time=0.0, ego=scenario.ego_spawn,
                      npcs=tuple(state for state, _ in npcs),
                      scripts=tuple(script for _, script in npcs), obstacles=obstacles)
    pose = project_to_route(world.ego.position, world.ego.heading, route)
    contexts, outcome = [], None
    for step, record in enumerate(trace.records, 1):
        if outcome not in (None, Outcome.NONE):
            return None  # the trace goes on past its end
        prev_ego, prev_pose = world.ego, pose
        world = sim.step_world(world, record.action, config)
        ego = world.ego
        pose = project_to_route(ego.position, ego.heading, route)
        if sim.detect_collision(ego, world.actors):
            outcome = Outcome.COLLISION
        elif sim.check_offroad(pose, ego, route):
            outcome = Outcome.OFFROAD
        elif pose.station >= route.goal_station:
            outcome = Outcome.SUCCESS
        elif step == max_steps:
            outcome = Outcome.TIMEOUT
        else:
            outcome = Outcome.NONE
        if not same_bits((step, world.time, ego, pose, outcome),
                         (record.step, record.time, record.ego, record.pose, record.outcome)):
            return None
        speeding = ego.speed_long > config.speed_limit + 1e-9
        contexts.append(StepContext(
            ego=ego, pose=pose, prev_pose=prev_pose, others=world.actors,
            lane_width=route.lane_width, steering_rate=record.action[1],
            jerk=(ego.accel_long - prev_ego.accel_long) / config.dt,
            violations={sim.SPEEDING_RULE} if speeding else (), outcome=outcome))
    if outcome in (None, Outcome.NONE) or trace.outcome is not outcome:
        return None
    return contexts


def matches_replay(trace, scenario, config, density=None, seed=None, checked=None) -> bool:
    """Whether `trace` is its scalar replay's (`replayed_contexts`), step for step, bit for bit.

    Each record's breakdown must have the bits of `total_reward` of its replayed context,
    and when `checked` is given, as `collision_checks` fills it while the trace runs, each
    step's actors in the run must have the bits of exactly that context's actors within
    reach of its ego.
    """
    contexts = replayed_contexts(trace, scenario, config, density, seed)
    return contexts is not None and all(
        same_bits(record.breakdown, total_reward(ctx, config))
        for record, ctx in zip(trace.records, contexts)) and (
        checked is None or same_bits(checked, [within_reach(ctx.ego, ctx.others)
                                               for ctx in contexts]))
