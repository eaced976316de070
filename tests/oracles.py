"""Test oracles: numpy and brute-force forms of what the library computes in plain floats,
and the checks that hold the library's array and two-phase paths to its scalar ones."""

import dataclasses
import math
from contextlib import contextmanager

import numpy as np

from riskrl import ActorState, ContractError, Route, total_reward, wrap_angle
from riskrl import sim


def rotation(angle):
    c, s = math.cos(angle), math.sin(angle)
    return np.array([[c, -s], [s, c]])


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


def same_bits(a, b) -> bool:
    """True when a and b hold the same floats bit for bit, compared by `float.hex`.

    So -0.0 differs from 0.0, where `==` would miss it, and NaN equals NaN.
    Recurses through tuples, lists and dataclasses; a float matches only a value of
    its own type, and anything else compares with `==`.
    """
    if type(a) is not type(b):
        return False
    if isinstance(a, float):
        return a.hex() == b.hex()
    if isinstance(a, (tuple, list)):
        return len(a) == len(b) and all(map(same_bits, a, b))
    if dataclasses.is_dataclass(a):
        return all(same_bits(getattr(a, f.name), getattr(b, f.name))
                   for f in dataclasses.fields(a))
    return a == b


@contextmanager
def recorded_contexts():
    """Yield a list that fills with each step's full `StepContext` as `run_episode` runs.

    `run_episode` scores the risk of its steps after its loop, so the context it
    builds in the loop has no others; the actors of the world stepped to are put in.
    """
    worlds, contexts, full = [], [], []
    step_world, step_context = sim.step_world, sim.StepContext

    def record_world(*args):
        worlds.append(step_world(*args))
        return worlds[-1]

    def record_context(**fields):
        contexts.append(step_context(**fields))
        full.append(dataclasses.replace(contexts[-1], others=worlds[-1].actors))
        return contexts[-1]

    sim.step_world, sim.StepContext = record_world, record_context
    try:
        yield full
    finally:
        sim.step_world, sim.StepContext = step_world, step_context


def breakdowns_match_total_reward(trace, contexts, config) -> bool:
    """Whether each record's breakdown has the bits of `total_reward` of its step's context."""
    return len(trace.records) == len(contexts) and all(
        same_bits(record.breakdown, total_reward(ctx, config))
        for record, ctx in zip(trace.records, contexts))
