"""Domain types, route-relative geometry, and configuration handling.

Everything here is immutable after construction and free of hidden state,
so all operations are safe to call concurrently.
"""

from __future__ import annotations

import bisect
import json
import math
import reprlib
from dataclasses import dataclass, fields, replace
from enum import Enum
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

TWO_PI = 2.0 * math.pi
_REAL = (float, int, np.floating, np.integer)  # bool is an int; _finite excludes it


class ConfigError(ValueError):
    """A configuration document violates an invariant; message names the field."""


class ScenarioError(ValueError):
    """A scenario document violates the schema; message names the offending path."""


class ContractError(ValueError):
    """Inconsistent caller-supplied state (broken precondition)."""


def wrap_angle(angle: float) -> float:
    """Wrap an angle, a finite number, to (-pi, pi]."""
    if not _finite(angle):
        raise ContractError(f"wrap_angle angle must be a finite number (got {reprlib.repr(angle)})")
    return _wrap(angle)


def _wrap(angle: float) -> float:
    """`wrap_angle` of an angle known to be a finite number, without the check."""
    a = math.fmod(angle, TWO_PI)
    if a <= -math.pi:
        a += TWO_PI
    elif a > math.pi:
        a -= TWO_PI
    return a


def _rotate(x: float, y: float, angle: float) -> tuple[float, float]:
    """Rotate (x, y) counter-clockwise by `angle` radians, in plain floats."""
    return _turn(math.cos(angle), math.sin(angle), x, y)


def _turn(c, s, x, y):
    """(x, y) turned by the angle whose cos is c and sin is s; floats or arrays."""
    return c * x - s * y, s * x + c * y


class ActorKind(Enum):
    EGO_VEHICLE = "ego_vehicle"
    NPC_VEHICLE = "npc_vehicle"
    STATIC_OBSTACLE = "static_obstacle"


def _finite(v: object) -> bool:
    """A Python or numpy int or float that a float holds finitely; never a boolean."""
    try:
        return isinstance(v, _REAL) and type(v) is not bool and math.isfinite(v)
    except OverflowError:  # an int beyond the float range
        return False


def _pair(value: object, what: str) -> tuple[float, float]:
    """The one rule for positions and actions: exactly two finite real numbers, as floats."""
    try:
        x, y = value
        if _finite(x) and _finite(y):
            return float(x), float(y)
    except (TypeError, ValueError):  # not iterable, or not two values
        pass
    raise ContractError(f"{what} must be two finite numbers (got {reprlib.repr(value)})")


def _maker(cls: type, lazy: str | None = None) -> Callable[..., object]:
    """A positional constructor for the slotted dataclass `cls`, one argument per field.

    It makes the object with `object.__new__` and stores each argument through its
    slot's member descriptor, one call per field written out in declared order, as
    `dataclasses` writes out `__init__`: no `__init__`, `__post_init__` or frozen
    `__setattr__` runs. Only for values that already hold the type's invariants.
    The field named `lazy` may then hold a callable that stands for its value: the
    field's first read stores and returns that callable's value for the object, so
    racing first reads build equal values, and pickling, `replace` and `repr` read it.
    """
    names = cls.__slots__
    setters = [f"_set_{name}" for name in names]
    body = "".join(f"        {setter}(obj, {name})\n" for setter, name in zip(setters, names))
    source = (f"def make(_new, _cls, {', '.join(setters)}):\n"
              f"    def build({', '.join(names)}):\n"
              f"        obj = _new(_cls)\n{body}"
              f"        return obj\n"
              f"    return build\n")
    namespace: dict = {}
    exec(compile(source, f"<{cls.__name__} builder>", "exec"), namespace)
    build = namespace["make"](object.__new__, cls, *(getattr(cls, name).__set__ for name in names))
    build.__qualname__ = f"_maker.<{cls.__name__}>"
    if lazy is not None:
        slot = getattr(cls, lazy)

        def read(obj):
            if callable(value := slot.__get__(obj, cls)):
                slot.__set__(obj, value := value(obj))
            return value

        setattr(cls, lazy, property(read, slot.__set__))
    return build


@dataclass(frozen=True, eq=False, slots=True)
class ActorState:
    """Pose, velocity, and footprint of one traffic participant.

    `speed_long`/`speed_lat` are the velocity components in the actor's own
    heading frame (longitudinal = along heading, lateral = 90 deg left of it),
    so the world velocity is recoverable without any route context.
    """

    position: tuple[float, float]  # world frame, m; any two finite numbers, stored as floats
    heading: float        # rad, world frame
    speed_long: float = 0.0   # m/s along heading
    speed_lat: float = 0.0    # m/s, left-positive
    accel_long: float = 0.0   # m/s^2
    length: float = 4.5       # m
    width: float = 1.8        # m
    kind: ActorKind = ActorKind.NPC_VEHICLE

    def __post_init__(self) -> None:
        object.__setattr__(self, "position", _pair(self.position, "ActorState position"))
        for name in ("heading", "speed_long", "speed_lat", "accel_long", "length", "width"):
            if not _finite(value := getattr(self, name)):
                got = reprlib.repr(value)
                raise ContractError(f"ActorState {name} must be a finite number (got {got})")
        if self.length <= 0.0 or self.width <= 0.0:
            raise ContractError("ActorState length and width must be positive")
        if not isinstance(self.kind, ActorKind):
            got = reprlib.repr(self.kind)
            raise ContractError(f"ActorState kind must be an ActorKind (got {got})")
        if self.kind is ActorKind.STATIC_OBSTACLE and (
            self.speed_long != 0.0 or self.speed_lat != 0.0
        ):
            raise ContractError("static obstacles must have zero velocity")

    @property
    def speed(self) -> float:
        """Scalar speed, m/s."""
        return math.hypot(self.speed_long, self.speed_lat)

    @property
    def circumradius(self) -> float:
        """Radius of the footprint's circumcircle (half the rectangle diagonal), m."""
        return 0.5 * math.hypot(self.length, self.width)


# The projection searches segments in blocks of this many. Its bounds carry a
# margin of this share of the distances and coordinates, far beyond rounding.
_PROJECTION_BLOCK, _PROJECTION_MARGIN = 16, 1e-9


@dataclass(frozen=True, eq=False)
class Route:
    """Reference path: a polyline centerline with a lane corridor and a goal.

    Stations are arc lengths measured along the centerline from its first point.
    The segment tables are built once here and are read-only arrays or tuples.
    """

    centerline: np.ndarray  # (N, 2), m
    lane_width: float       # m
    goal_station: float     # m

    def __post_init__(self) -> None:
        line = np.array(self.centerline, dtype=float)
        if line.ndim != 2 or line.shape[1] != 2 or line.shape[0] < 2:
            raise ConfigError("route.centerline needs at least 2 points of shape (N, 2)")
        if not np.all(np.isfinite(line)):
            raise ConfigError("route.centerline must be finite")
        with np.errstate(over="ignore", invalid="ignore"):  # an overflow fails the check below
            seg = np.diff(line, axis=0)
            seg_len2 = np.einsum("ij,ij->i", seg, seg)
        if not np.all((seg_len2 > 0.0) & (seg_len2 < math.inf)):  # the projection divides by it
            raise ConfigError("route.centerline has repeated consecutive points, or points so "
                              "close that a segment's squared length underflows to 0 or so far "
                              "apart that it overflows")
        seg_len = np.hypot(seg[:, 0], seg[:, 1])
        if not (_finite(self.lane_width) and self.lane_width > 0.0):
            raise ConfigError(f"route.lane_width must be finite and > 0 (got {self.lane_width!r})")
        cum = np.concatenate([[0.0], np.cumsum(seg_len)])
        # a projected station never passes cum[-1], so no goal past it can be reached
        if not (_finite(self.goal_station) and 0.0 <= self.goal_station <= cum[-1]):
            raise ConfigError(f"route.goal_station must be a number within [0, {cum[-1]:.6g}] "
                              f"(got {reprlib.repr(self.goal_station)})")
        # The projection normalises a segment by sqrt(d . d), the station lookups
        # by its hypot length; the two can differ in the last bit, so each keeps
        # its own tangents.
        tx, ty = (seg / np.sqrt(seg_len2)[:, None]).T.tolist()
        ux, uy = (seg / seg_len[:, None]).T.tolist()
        # the projection's tables: (ax, ay, dx, dy, d . d) per segment; per block of
        # segments a circle around its points and its segment range. A circle holds
        # a segment when it holds both ends; no segment's square overflows, so a block
        # spans less than about 2.2e155 and every radius is finite.
        first = np.arange(0, len(seg), _PROJECTION_BLOCK)
        stop = np.minimum(first + _PROJECTION_BLOCK, len(seg))  # also a block's last point
        a, b, k = line[first], line[stop], np.arange(len(seg)) // _PROJECTION_BLOCK
        centre = a + (b - a) / 2.0
        r = np.maximum(np.maximum.reduceat(np.hypot(*(line[:-1] - centre[k]).T), first),
                       np.hypot(*(b - centre).T)) + _PROJECTION_MARGIN * np.abs(line).max()
        line.flags.writeable = False
        object.__setattr__(self, "centerline", line)
        object.__setattr__(self, "_segments", tuple(
            zip(*line[:-1].T.tolist(), *seg.T.tolist(), seg_len2.tolist())))
        object.__setattr__(self, "_blocks", tuple(
            zip(*centre.T.tolist(), r.tolist(), first.tolist(), stop.tolist())))
        object.__setattr__(self, "_seg_len", tuple(seg_len.tolist()))
        object.__setattr__(self, "_stations", tuple(cum.tolist()))
        object.__setattr__(self, "_tangent", tuple(zip(tx, ty)))
        object.__setattr__(self, "_tangent_heading", tuple(map(math.atan2, ty, tx)))
        object.__setattr__(self, "_heading", tuple(map(math.atan2, uy, ux)))

    @property
    def length(self) -> float:
        """Total arc length, m."""
        return self._stations[-1]

    def _pose_at(self, station: float) -> tuple[float, float, float, float, float]:
        """(x, y, heading, ux, uy) of the centerline at the station clamped to the route.

        (ux, uy) is the unit tangent of the segment holding the station; all plain floats.
        """
        s = min(max(station, 0.0), self.length)
        # the segment holding s: the last to start at or before it, the first if none does
        i = bisect.bisect_right(self._stations, s, 1, len(self._stations) - 1) - 1
        ax, ay, dx, dy, _ = self._segments[i]
        length = self._seg_len[i]
        t = (s - self._stations[i]) / length
        return ax + t * dx, ay + t * dy, self._heading[i], dx / length, dy / length


@dataclass(frozen=True, slots=True)
class RouteFramePose:
    """Position of an actor expressed relative to the route."""

    station: float         # m, arc length of the nearest centerline point
    lateral_offset: float  # m, signed, left of travel direction positive
    heading_error: float   # rad, wrapped to (-pi, pi]


_make_pose = _maker(RouteFramePose)


def project_to_route(position: Sequence[float], heading: float, route: Route) -> RouteFramePose:
    """Project a world pose onto the route centerline.

    Returns the station of the nearest centerline point (ties resolve to the
    smaller station), the signed lateral offset (left-positive), and the
    heading error relative to the local route tangent. Raises ContractError unless
    `position` is two finite numbers and `heading` one (ActorState's rule); `_project` searches.
    """
    px, py = _pair(position, "project_to_route position")
    if not _finite(heading):
        got = reprlib.repr(heading)
        raise ContractError(f"project_to_route heading must be a finite number (got {got})")
    return _project(px, py, heading, route)


def _project(px: float, py: float, heading: float, route: Route) -> RouteFramePose:
    """`project_to_route` of numbers that already hold its checks, such as an ActorState's."""
    # Blocks in order of the lower bound |p - centre| - r on their distance; a
    # block whose bound exceeds the best distance by more than rounding can
    # hold no nearer segment, and neither can any block after it. While the best
    # distance is inf no block is skipped; a lone one is neither sorted nor bounded.
    blocks = route._blocks
    bounds = (sorted([(math.hypot(px - b[0], py - b[1]) - b[2], b) for b in blocks])
              if len(blocks) > 1 else ((0.0, blocks[0]),))
    segments = route._segments
    best, i = math.inf, len(segments)  # i past the end: the first segment wins even at inf
    for bound, (_, _, _, first, stop) in bounds:
        if bound > math.sqrt(best) * (1.0 + _PROJECTION_MARGIN):
            break
        for j in range(first, stop):
            ax, ay, dx, dy, len2 = segments[j]
            t = ((px - ax) * dx + (py - ay) * dy) / len2
            # clamped to [0, 1]; -0.0 becomes 0.0, as numpy's maximum(t, 0.0) makes it
            t = 0.0 if not t > 0.0 else 1.0 if t > 1.0 else t
            ex, ey = px - (ax + t * dx), py - (ay + t * dy)
            dist2 = ex * ex + ey * ey
            if dist2 <= best and (dist2 < best or j < i):  # the smaller station wins a tie
                best, i, t_i, fx, fy = dist2, j, t, ex, ey
    station = route._stations[i] + t_i * route._seg_len[i]
    tx, ty = route._tangent[i]
    # magnitude is the distance to the nearest centerline point (matters in
    # corner wedges, where the foot is a vertex); the sign is the side of the
    # local travel direction, via the cross product tangent x (p - foot)
    offset = math.copysign(math.sqrt(best), tx * fy - ty * fx)
    heading_error = _wrap(heading - route._tangent_heading[i])
    return _make_pose(station, offset, heading_error)


def relative_displacement(ego: ActorState, other: ActorState) -> tuple[float, float]:
    """Center-to-center displacement of `other` in the ego-aligned frame.

    d_x points along the ego heading, d_y 90 deg to its left; signs preserved. Where
    `other - ego` overflows, the finite half-differences are turned and doubled, exactly.
    """
    (ex, ey), (ox, oy) = ego.position, other.position
    dx, dy = ox - ex, oy - ey
    if math.isinf(dx) or math.isinf(dy):
        d_x, d_y = _rotate(ox / 2 - ex / 2, oy / 2 - ey / 2, -ego.heading)
        return 2.0 * d_x, 2.0 * d_y
    return _rotate(dx, dy, -ego.heading)


# ---------------------------------------------------------------------------
# Document reading: one field table per document object, read by one pass that
# checks every field and converts the values that pass.

_REQUIRED = object()  # default of a field the document must give
# Every document number lies in [-1e6, 1e6] and every positive field is at
# least 1e-12, so that positions stay finite through an episode and no
# divisor such as v_max * dt underflows to 0.
_LARGEST, _SMALLEST = 1e6, 1e-12


def _is_number(value: object) -> bool:
    """A number in [-1e6, 1e6]; so not NaN, infinite, a boolean or an oversized integer."""
    return _finite(value) and -_LARGEST <= float(value) <= _LARGEST


def _is_integer(value: object) -> bool:
    return isinstance(value, int) and _is_number(value)


def _is_count(value: object, low: int) -> bool:
    """A Python or numpy int of at least `low`; never a boolean."""
    return isinstance(value, (int, np.integer)) and type(value) is not bool and value >= low


@dataclass(frozen=True)
class _Field:
    """One document field: its default, the check its value must pass, its conversion."""

    default: object  # taken as is when the field is absent; _REQUIRED if it must be given
    check: Callable[[object], bool]
    rule: str  # completes "<path> ..." when the check fails
    convert: Callable[[object], object] = float


def _positive(default: object = _REQUIRED) -> _Field:
    return _Field(default, lambda v: _is_number(v) and v >= _SMALLEST, "must lie in [1e-12, 1e6]")


def _read(spec: object, path: str, table: dict[str, _Field], problems: list[str]) -> dict:
    """Check one document object against its table.

    Returns the converted value of every field that passed, defaults filled
    in, and appends each failure to `problems` under its JSON path.
    """
    if not isinstance(spec, dict):
        problems.append(f"{path or 'document'} must be an object")
        return {}
    prefix = f"{path}." if path else ""
    # str orders string keys as before; repr parts a str key from a number that prints alike
    for key in sorted(set(spec) - set(table), key=lambda k: (str(k), repr(k))):
        problems.append(f"{prefix}{key} is an unknown field")
    values = {}
    for key, field in table.items():
        if key not in spec:
            if field.default is _REQUIRED:
                problems.append(f"{prefix}{key} is required")
            else:
                values[key] = field.default
        elif field.check(spec[key]):
            values[key] = field.convert(spec[key])
        else:
            problems.append(f"{prefix}{key} {field.rule} (got {reprlib.repr(spec[key])})")
    return values


def _read_json(path: str | Path, error: type[ValueError], what: str) -> object:
    """Read and parse a JSON file, raising `error` when either step fails."""
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise error(f"cannot read {what} {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise error(f"{what} {path} is not UTF-8 text: {exc}") from exc
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise error(f"{what} {path} is not valid JSON: {exc}") from exc
    except RecursionError as exc:
        raise error(f"{what} {path} nests too deeply to parse") from exc


@dataclass(frozen=True)
class RewardConfig:
    """All reward parameters, validated.

    Defaults follow the published parameter set for the reward; the purely
    artifact-level knobs (dt, timeout, offset threshold, speed limit) carry
    simulator-practice defaults.
    """

    beta: float = 0.25            # hierarchy base weight, in (0, 1)
    v_max: float = 6.0            # m/s
    w_terminal: float = 50.0
    r_x_geom: float = 2.0         # m, desired longitudinal clearance
    r_y_geom: float = 0.5         # m, desired lateral clearance
    p_min: int = 2                # ellipse exponent, even
    p_max: int = 4                # ellipse exponent, even
    p_outer: int = 4              # outer ellipse exponent, even
    rho: float = 0.3              # s, reaction time
    a_acc_max_x: float = 6.0      # m/s^2
    a_brk_min_x: float = 4.0      # m/s^2
    a_brk_max_x: float = 8.0      # m/s^2
    a_acc_max_y: float = 0.2      # m/s^2
    a_brk_min_y: float = 0.4      # m/s^2
    a_brk_max_y: float = 0.8      # m/s^2
    ttc_max: float = 7.0          # s
    w_geom: float = 0.5
    w_dyn: float = 0.5
    v_desired: float = 4.0        # m/s
    w_vel: float = 0.5
    w_lane: float = 0.5
    dt: float = 0.1               # s
    offset_threshold: float = 0.5  # m, success-grade lateral offset
    a_comfort_max: float = 8.0    # m/s^2
    kappa_max: float = 0.3        # 1/m
    speed_limit: float | None = None  # m/s; None takes v_max
    timeout_steps: int = 500

    def __post_init__(self) -> None:
        if self.speed_limit is None:
            object.__setattr__(self, "speed_limit", self.v_max)
        values, problems = _read_config(vars(self))
        if problems:
            raise ConfigError("; ".join(problems))
        for name, value in values.items():
            object.__setattr__(self, name, value)

    def to_dict(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self)}

    @classmethod
    def from_dict(cls, data: dict) -> "RewardConfig":
        """Build a config from a flat mapping; unknown keys are rejected.

        Absent fields take defaults; for the paired weights, a single present
        member fixes the other to its complement.
        """
        values, problems = _read_config(data)
        if problems:
            raise ConfigError("; ".join(problems))
        return cls(**values)


def _is_whole(value: object) -> bool:
    return _is_number(value) and float(value).is_integer()


_EXPONENT = _Field(_REQUIRED, lambda v: _is_whole(v) and v >= 2 and v % 2 == 0,
                   "must be an even integer in [2, 1e6]", int)
_WEIGHT = _Field(_REQUIRED, lambda v: _is_number(v) and 0.0 <= v <= 1.0, "must lie in [0, 1]")

# The check of each RewardConfig field that is not simply a positive number;
# every default comes from the dataclass field.
_CONFIG_CHECKS = {
    "beta": _Field(_REQUIRED, lambda v: _is_number(v) and 0.0 < v < 1.0,
                   "must satisfy 0 < beta < 1"),
    **dict.fromkeys(("p_min", "p_max", "p_outer"), _EXPONENT),
    **dict.fromkeys(("w_geom", "w_dyn", "w_vel", "w_lane"), _WEIGHT),
    "timeout_steps": _Field(_REQUIRED, lambda v: _is_whole(v) and v >= 1,
                            "must be an integer in [1, 1e6]", int),
}
_CONFIG = {
    f.name: replace(_CONFIG_CHECKS.get(f.name, _positive()), default=f.default)
    for f in fields(RewardConfig)
}

# Weight pairs that must sum to one; a missing partner takes the complement.
_COMPLEMENT_PAIRS = (("w_geom", "w_dyn"), ("w_vel", "w_lane"))


def _read_config(data: object) -> tuple[dict, list[str]]:
    """The one pass over config values: (converted values, problems).

    The cross-field rules run only once every field has passed.
    """
    problems: list[str] = []
    values = _read(data, "", _CONFIG, problems)
    if problems:
        return values, problems
    for pair in _COMPLEMENT_PAIRS:
        for given, partner in (pair, pair[::-1]):
            if given in data and partner not in data:
                values[partner] = 1.0 - values[given]
        total = values[pair[0]] + values[pair[1]]
        if abs(total - 1.0) > 1e-9:
            problems.append(f"{pair[0]} + {pair[1]} must equal 1 (got {total})")
    for axis in "xy":
        if values[f"a_brk_min_{axis}"] > values[f"a_brk_max_{axis}"]:
            problems.append(f"a_brk_min_{axis} must not exceed a_brk_max_{axis}")
    return values, problems


def validate_config_data(data: object) -> list[str]:
    """Validate a parsed config document without raising; return violations."""
    return _read_config(data)[1]


def load_config(path: str | Path) -> RewardConfig:
    """Load and validate a flat JSON config file; absent keys take defaults."""
    return RewardConfig.from_dict(_read_json(path, ConfigError, "config"))
