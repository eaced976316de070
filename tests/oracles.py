"""Test oracles: numpy and brute-force forms of what the library computes in plain floats."""

import math

import numpy as np

from riskrl import ActorState, ContractError, Route, wrap_angle


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
