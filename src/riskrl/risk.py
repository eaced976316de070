"""Risk-awareness objective: interaction modes, the ellipsoid risk field,
worst-case safety clearances, time-to-collision, and the combined risk reward.

All functions are pure over immutable inputs.
"""

from __future__ import annotations

import math
import reprlib
from collections import namedtuple
from dataclasses import dataclass
from enum import Enum
from functools import partial
from itertools import accumulate, chain
from typing import Callable, Iterable, Literal, Sequence

import numpy as np

from .core import (
    TWO_PI, ActorKind, ActorState, ContractError, RewardConfig, _finite, _maker, _rotate, _turn,
    relative_displacement, wrap_angle,
)

Axis = Literal["long", "lat"]

# Heading-difference partition between the vehicle-vehicle interaction modes.
SAME_DIRECTION_MAX = math.pi / 4.0       # 45 deg
OPPOSITE_DIRECTION_MIN = 3.0 * math.pi / 4.0  # 135 deg


class InteractionMode(Enum):
    SAME_DIRECTION = "same_direction"
    OPPOSITE_DIRECTION = "opposite_direction"
    INTERSECTING = "intersecting"
    STATIC_OBSTACLE = "static_obstacle"


_MODES = tuple(InteractionMode)  # a mode's code in the array kernel is its index here


@dataclass(frozen=True)
class EllipseParams:
    """Shape of one risk field evaluation: centers, radii, and exponents."""

    c_x: float  # m, minimum longitudinal clearance (ellipse center)
    c_y: float  # m, minimum lateral clearance
    r_x: float  # m, desired longitudinal clearance (radius)
    r_y: float  # m, desired lateral clearance
    p_x: int
    p_y: int
    p_outer: int

    def __post_init__(self) -> None:
        if not all(_finite(r) and r > 0.0 for r in (self.r_x, self.r_y)):
            raise ContractError("ellipse radii must be positive finite numbers")
        if not all(_finite(c) and c >= 0.0 for c in (self.c_x, self.c_y)):
            raise ContractError("ellipse centers must be non-negative finite numbers")
        for p in (self.p_x, self.p_y, self.p_outer):
            if not (isinstance(p, int) and p >= 2 and p % 2 == 0):
                raise ContractError(f"ellipse exponents must be even integers >= 2 (got {p})")


@dataclass(frozen=True, slots=True)
class RiskAssessment:
    """Per-interaction risk summary for one other actor."""

    mode: InteractionMode
    geom_penalty: float   # in [0, 1]
    dyn_penalty: float    # in [0, 1]
    combined: float       # w_geom * geom + w_dyn * dyn
    ttc: float            # s; +inf unless the interaction is intersecting


_make_assessment = _maker(RiskAssessment)


def classify_interaction(ego: ActorState, other: ActorState) -> InteractionMode:
    """Pick the interaction mode from the other actor's kind and relative heading."""
    if other.kind is ActorKind.STATIC_OBSTACLE:
        return InteractionMode.STATIC_OBSTACLE
    if math.isinf(dpsi := other.heading - ego.heading):
        raise ContractError(f"classify_interaction headings {ego.heading!r} (ego) and "
                            f"{other.heading!r} (other) differ by more than a float holds")
    dpsi = abs(wrap_angle(dpsi))
    if dpsi <= SAME_DIRECTION_MAX:
        return InteractionMode.SAME_DIRECTION
    if dpsi >= OPPOSITE_DIRECTION_MIN:
        return InteractionMode.OPPOSITE_DIRECTION
    return InteractionMode.INTERSECTING


def clearance_center(
    ego: ActorState, other: ActorState, mode: InteractionMode
) -> tuple[float, float]:
    """Minimum clearance pair (c_x, c_y) below which a collision is unavoidable.

    Directional modes add the half-dimensions per axis; the intersecting mode
    uses the sum of both circumradii on both axes. Every risk function takes
    its mode through here, so this is where a mode that is no InteractionMode
    raises ContractError.
    """
    if not isinstance(mode, InteractionMode):
        raise ContractError(f"mode must be an InteractionMode (got {mode!r})")
    if mode is InteractionMode.INTERSECTING:
        c = ego.circumradius + other.circumradius
        return c, c
    return 0.5 * (ego.length + other.length), 0.5 * (ego.width + other.width)


def ellipsoid_penalty(d_x: float, d_y: float, params: EllipseParams) -> float:
    """Evaluate the risk field at a displacement; result in [0, 1].

    The numerators are clamped at zero so the penalty saturates at 1 anywhere
    inside the minimum-clearance box, not just on its boundary.
    """
    return _ellipse_power(max(abs(d_x) - params.c_x, 0.0) / params.r_x,
                          max(abs(d_y) - params.c_y, 0.0) / params.r_y,
                          params.p_x, params.p_y, params.p_outer)


def _even_power(t: float | np.ndarray, p: int) -> float | np.ndarray:
    """`t ** p` for an even integer p >= 2, by squaring in one fixed order."""
    t = t * t
    q = p // 2  # t ** p is now t ** q
    while not q & 1:
        t = t * t
        q >>= 1
    if q == 1:  # p is a power of two, as all the default exponents are
        return t
    result = t
    while q := q >> 1:
        t = t * t
        if q & 1:
            result = result * t
    return result


def _ellipse_power(tx: float | np.ndarray, ty: float | np.ndarray,
                   p_x: int, p_y: int, p_outer: int) -> float | np.ndarray:
    """The field from the normalised excesses over the clearance box.

    One code for Python floats and float arrays: each step is one correctly
    rounded operation, so both get the same bits. So far out that a power
    overflows to inf, the field is at its limit, 0.
    """
    return 1.0 / _even_power(_even_power(tx, p_x) + _even_power(ty, p_y) + 1.0, p_outer)


def accel_distance(v: float, rho: float, a_acc: float) -> float:
    """Distance covered while accelerating at a_acc for the reaction time rho."""
    return v * rho + 0.5 * a_acc * rho * rho


def stop_distance(v: float, rho: float, a_acc: float, a_brk_min: float) -> float:
    """Braking distance after the reaction phase, using the minimum braking rate."""
    v_rho = v + rho * a_acc
    return v_rho * v_rho / (2.0 * a_brk_min)


def _axis_params(axis: Axis, config: RewardConfig) -> tuple[float, float, float, float]:
    """(a_acc_max, a_brk_min, a_brk_max, geometric radius) for one axis."""
    if axis == "long":
        return config.a_acc_max_x, config.a_brk_min_x, config.a_brk_max_x, config.r_x_geom
    if axis == "lat":
        return config.a_acc_max_y, config.a_brk_min_y, config.a_brk_max_y, config.r_y_geom
    raise ContractError(f"axis must be 'long' or 'lat' (got {axis!r})")


def _require_speeds(func: str, **speeds: object) -> None:
    """Raise ContractError naming the first speed that is no finite number >= 0."""
    for name, v in speeds.items():
        if not (_finite(v) and v >= 0.0):
            got = reprlib.repr(v)
            raise ContractError(f"{func} {name} must be a finite number >= 0 (got {got})")


def _floored(r, floor: float):
    """max(r, floor) of a float, or of each element of an array; NaN reads as inf."""
    if isinstance(r, np.ndarray):
        return np.where(np.isnan(r), math.inf, np.where(floor > r, floor, r))
    return math.inf if math.isnan(r) else max(r, floor)


def _ratio(excess, r):
    """excess / r of floats or arrays; an infinite excess is far away even past an inf r."""
    if isinstance(excess, np.ndarray):
        return np.where(excess == math.inf, math.inf, excess / r)
    return math.inf if excess == math.inf else excess / r


def _clearances(v_ego, v_other, axis: Axis, config: RewardConfig):
    """(`leading_clearance`, `approach_clearance`) of floats or arrays, unchecked.

    A leading clearance is NaN before its floor when both stop distances overflow.
    """
    (a_acc, a_brk_min, a_brk_max, r_geom), rho = _axis_params(axis, config), config.rho
    r = accel_distance(v_ego, rho, a_acc) + stop_distance(v_ego, rho, a_acc, a_brk_min)
    return (_floored(r - v_other * v_other / (2.0 * a_brk_max), r_geom), _floored(
        r + accel_distance(v_other, rho, a_acc) + stop_distance(v_other, rho, a_acc, a_brk_min),
        r_geom))


def leading_clearance(v_ego: float, v_other: float, axis: Axis, config: RewardConfig) -> float:
    """Worst-case clearance behind a leader that may brake at its maximum rate.

    Ego worst case: accelerate through the reaction time, then brake at the
    minimum rate; the leader's own stopping distance is credited back. The
    result is floored at the geometric radius for the axis so the field never
    demands less than the typical driver clearance; where both stop distances
    overflow, it is inf, the conservative clearance. Speeds are magnitudes, >= 0.
    """
    _require_speeds("leading_clearance", v_ego=v_ego, v_other=v_other)
    return _clearances(v_ego, v_other, axis, config)[0]


def approach_clearance(v_ego: float, v_other: float, axis: Axis, config: RewardConfig) -> float:
    """Worst-case clearance when both agents close in on each other.

    Both agents accelerate through the reaction time and then brake at the
    minimum rate; the clearance is the sum of both stopping envelopes, floored
    at the geometric radius for the axis. Speeds are magnitudes, >= 0.
    """
    _require_speeds("approach_clearance", v_ego=v_ego, v_other=v_other)
    return _clearances(v_ego, v_other, axis, config)[1]


def away_clearance(v_ego_away: float, v_other_toward: float, config: RewardConfig) -> float:
    """Lateral clearance for an ego retreating from an approaching actor.

    Required only while the other actor could out-accelerate the retreat within
    the reaction time; otherwise no dynamic clearance is needed. Lateral axis
    parameters apply. Floored at zero; the geometric floor is applied at the
    point of use. Speeds are magnitudes, >= 0.
    """
    _require_speeds("away_clearance", v_ego_away=v_ego_away, v_other_toward=v_other_toward)
    v_other_rho = v_other_toward + config.rho * config.a_acc_max_y
    if v_ego_away <= v_other_rho:
        r = accel_distance(v_other_toward, config.rho, config.a_acc_max_y) - v_ego_away * config.rho
        return max(r, 0.0)
    return 0.0


def ttc_circle(a: ActorState, b: ActorState) -> float:
    """Time until the two circumcircles first touch under constant velocities.

    Returns the smallest non-negative root of the gap quadratic, 0.0 when the
    circles already overlap, and +inf when they never meet. A relative velocity
    with a component above 1e150, whose square may overflow, is scaled by 2**-e to
    below 1; that scaling is exact, so the root found with it, times 2**-e, is the TTC.
    """
    (ax, ay), (bx, by) = a.position, b.position
    (avx, avy), (bvx, bvy) = (_rotate(x.speed_long, x.speed_lat, x.heading) for x in (a, b))
    dvx, dvy = bvx - avx, bvy - avy
    big = max(abs(dvx), abs(dvy))
    e = math.frexp(big)[1] if big > 1e150 else 0
    dvx, dvy, radius = math.ldexp(dvx, -e), math.ldexp(dvy, -e), a.circumradius + b.circumradius
    dpx, dpy = bx - ax, by - ay
    c = dpx * dpx + dpy * dpy - radius * radius
    if c <= 0.0:
        return 0.0
    aa = dvx * dvx + dvy * dvy
    if aa == 0.0:
        return math.inf
    bb = dpx * dvx + dpy * dvy
    disc = bb * bb - aa * c
    if disc < 0.0:
        return math.inf
    t_first = (-bb - math.sqrt(disc)) / aa
    # c > 0 means both roots share a sign, so a negative first root is a miss
    return math.ldexp(t_first, -e) if t_first >= 0.0 else math.inf


def ttc_penalty(ttc: float, config: RewardConfig) -> float:
    """Map a TTC onto a [0, 1] penalty on a log10 scale.

    The 0.1 ratio floor together with the base-10 logarithm pins the output
    range exactly to [0, 1]; anything at or beyond ttc_max is risk-free.
    The TTC is a number >= 0 or +inf.
    """
    if not (isinstance(ttc, float) and ttc >= 0.0 or _finite(ttc) and ttc >= 0.0):
        got = reprlib.repr(ttc)
        raise ContractError(f"ttc_penalty ttc must be a number >= 0 or +inf (got {got})")
    ratio = max(0.1, min(ttc / config.ttc_max, 1.0))
    return -math.log10(ratio) + 0.0  # normalise -0.0 at the risk-free end


def geometric_risk(
    ego: ActorState, other: ActorState, mode: InteractionMode, config: RewardConfig
) -> float:
    """Risk field with fixed, speed-independent clearances (pays for dynamic_risk's too)."""
    return _pair_risk(ego, other, mode, config)[0]


def _lateral_dynamic_radius(
    ego: ActorState, other: ActorState, d_y: float, config: RewardConfig
) -> float:
    """Pick the lateral clearance case from the signed lateral velocities.

    Velocities are expressed in the ego frame; `side` is the side the other
    actor occupies. Four cases: both closing, ego chasing a retreating actor,
    ego retreating from a closing actor, and both opening (no dynamic
    clearance). Every case is floored at the geometric radius.
    """
    side = 0.0 if d_y == 0.0 else math.copysign(1.0, d_y)
    v_ego_lat = ego.speed_lat
    world_vx, world_vy = _rotate(other.speed_long, other.speed_lat, other.heading)
    v_other_lat = _rotate(world_vx, world_vy, -ego.heading)[1]
    ego_toward = side * v_ego_lat > 0.0
    other_toward = side * v_other_lat < 0.0
    if ego_toward and other_toward:
        return approach_clearance(abs(v_ego_lat), abs(v_other_lat), "lat", config)
    if ego_toward:
        return leading_clearance(abs(v_ego_lat), abs(v_other_lat), "lat", config)
    if other_toward:
        v_away = max(-side * v_ego_lat, 0.0)
        return max(away_clearance(v_away, abs(v_other_lat), config), config.r_y_geom)
    return config.r_y_geom


def dynamic_risk(
    ego: ActorState, other: ActorState, mode: InteractionMode, config: RewardConfig
) -> tuple[float, float]:
    """Risk under worst-case dynamics; returns (penalty, ttc).

    Directional modes evaluate the ellipsoid with clearances grown from the
    reaction-time stopping envelopes; the intersecting mode scores the
    circumcircle time-to-collision instead. The TTC is only meaningful (finite)
    for the intersecting mode. Both scalar risks work out both penalties, so a
    caller that wants the two calls assess_interaction, which does that once.
    """
    return _pair_risk(ego, other, mode, config)[1:]


def _pair_risk(
    ego: ActorState, other: ActorState, mode: InteractionMode, config: RewardConfig
) -> tuple[float, float, float]:
    """(geometric penalty, dynamic penalty, ttc) of one pair, its geometry worked out once.

    Each mode has its centres, its exponents, which favour the axis it is critical on, and
    its dynamic longitudinal clearance r_x; the intersecting mode scores the TTC instead.
    """
    d_x, d_y = relative_displacement(ego, other)
    c_x, c_y = clearance_center(ego, other, mode)
    v_ego, v_other = abs(ego.speed_long), abs(other.speed_long)
    p_x, p_y = config.p_max, config.p_max
    if mode is InteractionMode.SAME_DIRECTION:
        p_y, r_x = config.p_min, _clearances(v_ego, v_other, "long", config)[0]
    elif mode is InteractionMode.OPPOSITE_DIRECTION:
        p_x, r_x = config.p_min, _clearances(v_ego, v_other, "long", config)[1]
    elif mode is InteractionMode.STATIC_OBSTACLE:
        p_x, r_x = config.p_min, _clearances(v_ego, 0.0, "long", config)[0]
    excess_x = max(abs(d_x) - c_x, 0.0)
    excess_y = max(abs(d_y) - c_y, 0.0)
    geom = _ellipse_power(excess_x / config.r_x_geom, excess_y / config.r_y_geom,
                          p_x, p_y, config.p_outer)
    if mode is InteractionMode.INTERSECTING:
        ttc = ttc_circle(ego, other)
        return geom, ttc_penalty(ttc, config), ttc
    r_y = _lateral_dynamic_radius(ego, other, d_y, config)
    dyn = _ellipse_power(_ratio(excess_x, r_x), _ratio(excess_y, r_y), p_x, p_y, config.p_outer)
    return geom, dyn, math.inf


def _grid_axis(values: Sequence[float], name: str) -> np.ndarray:
    axis = np.asarray(values)
    if axis.ndim != 1 or axis.dtype.kind not in "iuf" or not np.all(np.isfinite(axis)):
        raise ContractError(f"risk_field {name} must be a 1-D sequence of finite numbers")
    return axis.astype(float)


def _per_distinct(func: Callable[[float], object], values: np.ndarray,
                  dtype: type) -> np.ndarray:
    """`func` of each element of the float array `values`, called once per distinct value.

    Values are keyed by their bits, so -0.0 and 0.0 (and NaN payloads) stay apart.
    """
    keys, inverse = np.unique(np.asarray(values, dtype=float).view(np.int64), return_inverse=True)
    return np.array([func(v) for v in keys.view(float).tolist()], dtype=dtype)[inverse]


def risk_field(
    ego: ActorState, other: ActorState, xs: Sequence[float], ys: Sequence[float],
    mode: InteractionMode, config: RewardConfig,
) -> tuple[np.ndarray, np.ndarray]:
    """`geometric_risk` and the `dynamic_risk` penalty with `other` at every grid cell.

    Returns (geom, dyn), one value per cell in row order: `ys` outer, `xs`
    inner. `other`'s own position is ignored. This is the array kernel with
    every field but `other`'s position shared by all cells, so each value equals
    the scalar function's for that cell bit for bit.
    """
    clearance_center(ego, other, mode)  # a bad mode fails before the grid is built
    xs, ys = _grid_axis(xs, "xs"), _grid_axis(ys, "ys")
    ego, other = (_Actors(*_row(a)) for a in (ego, other))
    cells = other._replace(x=np.tile(xs, ys.size), y=np.repeat(ys, xs.size))
    with np.errstate(all="ignore"):  # Python floats overflow to inf silently
        return _pairs_risk(_MODES.index(mode), ego, cells, config)[:2]


# Actors as the array kernel takes them, one `_row` each: the cos and sin of the heading are
# made where the heading is. A field is one value for all pairs or an array of them.
_Actors = namedtuple("_Actors", "x y heading speed_long speed_lat length width circumradius "
                                "static cos sin")


def _row(actor: ActorState) -> tuple:
    return (*actor.position, actor.heading, actor.speed_long, actor.speed_lat, actor.length,
            actor.width, actor.circumradius, actor.kind is ActorKind.STATIC_OBSTACLE,
            math.cos(actor.heading), math.sin(actor.heading))


def _rows(actors: Iterable[ActorState]) -> np.ndarray:
    """The `_row` of each actor, one array row each."""
    return np.fromiter(chain.from_iterable(map(_row, actors)), float).reshape(-1, 11)


def _track_rows(actors: Sequence[ActorState], steps: int,
                tracks: Sequence[np.ndarray]) -> np.ndarray:
    """`_rows` of `actors` at each of `steps` steps, step-major. The columns of `tracks[j]` (one
    row per step) give the x, y, heading, speed_long, cos and sin of actor j, for j <
    len(tracks); every other field, and every field of the other actors, is the actor's own."""
    rows = np.tile(_rows(actors), (steps, 1)).reshape(steps, len(actors), 11)
    for j, track in enumerate(tracks):
        rows[:, j, [0, 1, 2, 3, 9, 10]] = track
    return rows.reshape(-1, 11)


def _columns(rows: np.ndarray, repeats: Sequence[int] | None = None) -> _Actors:
    """The `_Actors` of an array of `_row`s, each taken `repeats[i]` times when given."""
    return _Actors(*(rows if repeats is None else np.repeat(rows, repeats, axis=0)).T)


def _pairs_risk(codes, e: _Actors, o: _Actors,
                config: RewardConfig) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(geom, dyn, ttc) of each pair in its own mode, `_MODES[codes[i]]` for pair i (`codes` may
    be one code for all pairs; `o.x` is an array), with `_pair_risk`'s bits: each of its mode
    branches worked out for all pairs, cos and sin from `math`, the ego frame as the turn by
    (cos, -sin), `ttc_penalty` once per distinct TTC, every other step one correctly rounded
    array operation in the scalar order, `max(a, b)` as `np.where(b > a, b, a)`."""
    dx, dy = o.x - e.x, o.y - e.y
    d_x, d_y = _turn(e.cos, -e.sin, dx, dy)
    over = np.isinf(dx) | np.isinf(dy)
    if over.any():  # relative_displacement's rule: turn the halves, which are finite, and double
        halves = _turn(e.cos, -e.sin, o.x / 2 - e.x / 2, o.y / 2 - e.y / 2)
        d_x, d_y = (np.where(over, 2.0 * h, d) for h, d in zip(halves, (d_x, d_y)))
    intersecting = codes == 2
    radii = e.circumradius + o.circumradius  # clearance_center's centres
    c_x = np.where(intersecting, radii, 0.5 * (e.length + o.length))
    c_y = np.where(intersecting, radii, 0.5 * (e.width + o.width))
    excess_x, excess_y = np.abs(d_x) - c_x, np.abs(d_y) - c_y
    excess_x, excess_y = (np.where(0.0 > excess, 0.0, excess) for excess in (excess_x, excess_y))
    # p_max on x in the same-direction and intersecting modes, on y in all but the former
    wide = (codes == 0) | intersecting, codes != 0
    geom = _modes_field(excess_x / config.r_x_geom, excess_y / config.r_y_geom, wide, config)
    # approach for opposite directions, else leading, behind a static obstacle at speed 0
    leading, approach = _clearances(abs(e.speed_long), np.where(
        codes == 3, 0.0, abs(o.speed_long)), "long", config)
    r_x = np.where(codes == 1, approach, leading)
    # _lateral_dynamic_radius: the side of the other actor, and the lateral speeds toward it
    side = np.where(d_y == 0.0, 0.0, np.copysign(1.0, d_y))
    w = _turn(e.cos, -e.sin, *_turn(o.cos, o.sin, o.speed_long, o.speed_lat))[1]
    r_y = _lateral_radius(side, e.speed_lat, w, config)
    dyn = _modes_field(_ratio(excess_x, r_x), _ratio(excess_y, r_y), wide, config)
    if not np.any(intersecting):
        return geom, dyn, np.full(dyn.shape, math.inf)
    # ttc_circle, its velocity scaling included, of every pair; only the intersecting keep it
    (bvx, bvy), (avx, avy) = (_turn(a.cos, a.sin, a.speed_long, a.speed_lat) for a in (o, e))
    dvx, dvy = bvx - avx, bvy - avy
    big = np.where(abs(dvy) > abs(dvx), abs(dvy), abs(dvx))
    scale = np.where(big > 1e150, np.frexp(big)[1], 0) if np.any(big > 1e150) else 0
    dvx, dvy = np.ldexp(dvx, -scale), np.ldexp(dvy, -scale)
    c = dx * dx + dy * dy - radii * radii
    aa = dvx * dvx + dvy * dvy
    bb = dx * dvx + dy * dvy
    # ttc_circle's misses: a negative disc gives a NaN root, which fails `>= 0`; with
    # aa == 0 the root is NaN, -inf or, when bb * bb underflows, +inf, which ldexp keeps
    t_first = (-bb - np.sqrt(bb * bb - aa * c)) / aa
    ttc = np.where(c <= 0.0, 0.0, np.where(t_first >= 0.0, np.ldexp(t_first, -scale), math.inf))
    ttc = np.where(intersecting, ttc, math.inf)
    return geom, np.where(intersecting, _per_distinct(
        lambda t: ttc_penalty(t, config), ttc, float), dyn), ttc


def _modes_field(tx, ty, wide: tuple, config: RewardConfig) -> np.ndarray:
    """`_ellipse_power` with each pair's exponent on each axis: p_max where `wide` holds for the
    axis, else p_min; `wide` is one bool per axis when one code serves all pairs."""
    px, py = (np.where(on, _even_power(t, config.p_max), _even_power(t, config.p_min))
              for t, on in zip((tx, ty), wide))
    return 1.0 / _even_power(px + py + 1.0, config.p_outer)


def _lateral_radius(side: np.ndarray, v, w, config: RewardConfig) -> np.ndarray:
    """`_lateral_dynamic_radius` of each pair from its side and its lateral speeds: every
    case is worked out on every pair, and each pair takes its own as the branches would."""
    ego_toward, other_toward = side * v > 0.0, side * w < 0.0
    g, rho, a_acc = config.r_y_geom, config.rho, config.a_acc_max_y
    v_away, v, w = -side * v, abs(v), abs(w)
    leading, closing = _clearances(v, w, "lat", config)
    # max(away_clearance(v_away, w), g), whose floor at 0 changes nothing; where the ego is
    # not toward, v_away is >= 0 or -0.0, which max(., 0.0) keeps
    r = accel_distance(w, rho, a_acc) - v_away * rho
    away = np.where(v_away <= w + rho * a_acc, np.where(g > r, g, r), g)
    return np.where(ego_toward, np.where(other_toward, closing, leading),
                    np.where(other_toward, away, g))


# The risk kernel's output over an episode, step-major: per pair, its mode code (an index
# into _MODES), geom, dyn, combined and ttc; step k's pairs are bounds[k] to bounds[k + 1];
# `largest` has the largest `combined` of each step with pairs, for its reward and worst pair.
_RiskTable = namedtuple("_RiskTable", "codes geom dyn combined ttc bounds largest")


def _table(codes, geom, dyn, combined, ttc, counts: Iterable[int]) -> _RiskTable:
    """The one builder of a `_RiskTable`: these columns, in steps of `counts` pairs, not all 0."""
    bounds = [0, *accumulate(counts)]
    # each step's max, as `max` over its pairs takes it: `combined` is never NaN (a NaN
    # clearance is floored to inf and each penalty lies in [0, 1])
    largest = np.maximum.reduceat(combined, [i for i, j in zip(bounds, bounds[1:]) if j > i])
    return _RiskTable(codes, geom, dyn, combined, ttc, bounds, largest)


def _assessments(table: _RiskTable, start: int, stop: int, _=None) -> tuple[RiskAssessment, ...]:
    """The `RiskAssessment`s of pairs `start` to `stop` of `table`; a breakdown reading them
    passes itself as `_`."""
    codes, *values = (column[start:stop].tolist() for column in table[:5])
    return tuple(map(_make_assessment, [_MODES[c] for c in codes], *values))


def _assessed_table(steps: Sequence[Sequence[RiskAssessment]]) -> _RiskTable | None:
    """The table of each step's `RiskAssessment`s, as `_risk_rewards` builds it, or None."""
    pairs = [(_MODES.index(a.mode), a.geom_penalty, a.dyn_penalty, a.combined, a.ttc)
             for a in chain.from_iterable(steps)]
    return _table(*map(np.array, zip(*pairs)), map(len, steps)) if pairs else None


def _worst(table: _RiskTable | None, steps: int) -> list[list]:
    """Each step's worst pair in `table`, the first whose `combined` is the step's `largest`,
    as `max` takes it: four columns of `steps` values, the pair's index among its step's
    pairs, then its geom, dyn and ttc, each None at a step without pairs."""
    if table is None:
        return [[None] * steps] * 4
    starts, counts = np.array(table.bounds[:-1]), np.diff(table.bounds)
    full = counts > 0
    hits = np.flatnonzero(table.combined == np.repeat(table.largest, counts[full]))
    at = hits[np.minimum(np.searchsorted(hits, starts), hits.size - 1)]
    return [np.where(full, values, None).tolist()
            for values in (at - starts, table.geom[at], table.dyn[at], table.ttc[at])]


def _risk_rewards(egos: np.ndarray | None, others: np.ndarray | None, counts: Sequence[int],
                  config: RewardConfig) -> tuple[list[float], list[tuple | partial],
                                                 _RiskTable | None]:
    """`risk_reward(ego_i, others_i, config)` for every i < len(counts), from one kernel call,
    where ego_i is the actor whose `_rows` row, its cos and sin included, is `egos[i]` and
    others_i are the `counts[i]` actors whose rows come next in `others`, as columns: the
    rewards, each step's assessments left to `_assessments`, and the table they are read from.
    When no step has others, the table is None, numpy is not called and neither `egos` nor
    `others` is read."""
    if not any(counts):
        return [0.0] * len(counts), [()] * len(counts), None
    ego = _columns(egos, counts)  # each ego once per pair
    other = _columns(others)
    with np.errstate(all="ignore"):  # Python floats overflow to inf silently
        a = np.fmod(other.heading - ego.heading, TWO_PI)  # wrap_angle, then the partition
        dpsi = np.abs(np.where(a <= -math.pi, a + TWO_PI, np.where(a > math.pi, a - TWO_PI, a)))
        codes = np.where(other.static != 0.0, 3, np.where(  # indices into _MODES
            dpsi <= SAME_DIRECTION_MAX, 0, np.where(dpsi >= OPPOSITE_DIRECTION_MIN, 1, 2)))
        geom, dyn, ttc = _pairs_risk(codes, ego, other, config)
    table = _table(codes, geom, dyn, config.w_geom * geom + config.w_dyn * dyn, ttc, counts)
    # -m + 0.0 is 0.0 for either zero, so whichever equal value the max kept gives the same bits
    rewards = iter((-table.largest + 0.0).tolist())
    spans = list(zip(table.bounds, table.bounds[1:]))
    return ([next(rewards) if j > i else 0.0 for i, j in spans],
            [partial(_assessments, table, i, j) if j > i else () for i, j in spans], table)


def assess_interaction(
    ego: ActorState, other: ActorState, config: RewardConfig
) -> RiskAssessment:
    """Classify one ego-other pair and score both risk penalties."""
    mode = classify_interaction(ego, other)
    geom, dyn, ttc = _pair_risk(ego, other, mode, config)
    combined = config.w_geom * geom + config.w_dyn * dyn
    return RiskAssessment(mode=mode, geom_penalty=geom, dyn_penalty=dyn, combined=combined, ttc=ttc)


def risk_reward(
    ego: ActorState, others: Iterable[ActorState], config: RewardConfig
) -> tuple[float, tuple[RiskAssessment, ...]]:
    """Negative of the highest combined risk over all other actors.

    Returns 0 with no assessments when there is nothing to interact with; all
    per-actor assessments are returned for tracing.
    """
    assessments = tuple(assess_interaction(ego, other, config) for other in others)
    if not assessments:
        return 0.0, assessments
    worst = max(a.combined for a in assessments)
    return -worst + 0.0, assessments
