"""Risk field, safety clearances, TTC, and the combined risk reward."""

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from oracles import numpy_velocity, rotation, same_bits
from riskrl import (
    ActorKind,
    ActorState,
    ContractError,
    EllipseParams,
    InteractionMode,
    RewardConfig,
    accel_distance,
    approach_clearance,
    assess_interaction,
    away_clearance,
    classify_interaction,
    clearance_center,
    dynamic_risk,
    ellipsoid_penalty,
    geometric_risk,
    leading_clearance,
    relative_displacement,
    risk_field,
    risk_reward,
    stop_distance,
    ttc_circle,
    ttc_penalty,
    wrap_angle,
)
from riskrl import risk as risk_module
from riskrl.core import _rotate

CFG = RewardConfig()


def car(x=0.0, y=0.0, heading=0.0, v=0.0, v_lat=0.0, kind=ActorKind.NPC_VEHICLE,
        length=4.5, width=1.8):
    return ActorState(position=[x, y], heading=heading, speed_long=v, speed_lat=v_lat,
                      length=length, width=width, kind=kind)


def obstacle(x, y, length=1.0, width=1.0):
    return ActorState(position=[x, y], heading=0.0, length=length, width=width,
                      kind=ActorKind.STATIC_OBSTACLE)


# Pairs whose position difference overflows, one per mode: both axes, one axis, both signs
FAR_APART = [
    (car(x=-1e308, v=1.0, kind=ActorKind.EGO_VEHICLE), car(x=1e308, heading=math.pi, v=1.0)),
    (car(y=-1e308, v=3.0, kind=ActorKind.EGO_VEHICLE), car(y=1e308, v=2.0, v_lat=-1.0)),
    (car(x=-1e308, y=-1e308, heading=0.3, v=5.0, kind=ActorKind.EGO_VEHICLE),
     car(x=1e308, y=1e308, heading=0.3 + math.pi / 2, v=4.0)),
    (car(x=1e308, heading=1.0, v_lat=2.0, kind=ActorKind.EGO_VEHICLE), obstacle(-1e308, 5.0)),
]
# Far-apart pairs whose dynamic clearance overflows too, so the excess over it is inf / inf:
# three modes on the longitudinal axis, then the lateral one
FAR_AND_FAST = [
    *((car(x=-1e308, v=1e300, kind=ActorKind.EGO_VEHICLE), other)
      for other in (car(x=1e308, v=1.0), car(x=1e308, heading=math.pi, v=1.0),
                    obstacle(1e308, 0.0))),
    (car(y=-1e308, v_lat=1e300, kind=ActorKind.EGO_VEHICLE), car(y=1e308)),
]


class TestClassifyInteraction:
    def test_same_direction(self):
        assert classify_interaction(car(), car(x=10)) is InteractionMode.SAME_DIRECTION

    def test_opposite_direction(self):
        assert (
            classify_interaction(car(), car(x=10, heading=math.pi))
            is InteractionMode.OPPOSITE_DIRECTION
        )

    def test_intersecting(self):
        assert (
            classify_interaction(car(), car(x=10, heading=math.pi / 2))
            is InteractionMode.INTERSECTING
        )

    def test_static_obstacle_wins_over_heading(self):
        assert classify_interaction(car(), obstacle(5.0, 0.0)) is InteractionMode.STATIC_OBSTACLE

    def test_heading_difference_wraps(self):
        ego = car(heading=math.radians(170.0))
        other = car(x=5, heading=math.radians(-170.0))  # only 20 degrees apart
        assert classify_interaction(ego, other) is InteractionMode.SAME_DIRECTION

    def test_boundaries_inclusive(self):
        assert (
            classify_interaction(car(), car(x=5, heading=math.radians(45.0)))
            is InteractionMode.SAME_DIRECTION
        )
        assert (
            classify_interaction(car(), car(x=5, heading=math.radians(135.0)))
            is InteractionMode.OPPOSITE_DIRECTION
        )

    def test_headings_too_far_apart_to_subtract_are_named(self):
        ego, other = car(heading=-1e308), car(x=5.0, heading=1e308)
        match = r"classify_interaction headings -1e\+308 \(ego\) and 1e\+308 \(other\)"
        for call in (lambda: classify_interaction(ego, other),
                     lambda: risk_reward(ego, [other], CFG)):
            with pytest.raises(ContractError, match=match):
                call()


class TestClearanceCenter:
    def test_same_direction_uses_half_dimension_sums(self):
        c_x, c_y = clearance_center(car(), car(x=20), InteractionMode.SAME_DIRECTION)
        assert c_x == pytest.approx(4.5)
        assert c_y == pytest.approx(1.8)

    def test_static_obstacle(self):
        c_x, c_y = clearance_center(car(), obstacle(10, 0), InteractionMode.STATIC_OBSTACLE)
        assert c_x == pytest.approx(2.75)
        assert c_y == pytest.approx(1.4)

    def test_intersecting_uses_circumradii(self):
        c_x, c_y = clearance_center(car(), car(x=20), InteractionMode.INTERSECTING)
        expected = 2.0 * math.hypot(2.25, 0.9)
        assert c_x == pytest.approx(expected)
        assert c_y == pytest.approx(expected)


PARAMS = EllipseParams(c_x=2.75, c_y=1.4, r_x=2.0, r_y=0.5, p_x=4, p_y=4, p_outer=4)


class TestEllipsoidPenalty:
    def test_unity_at_minimum_clearance(self):
        assert ellipsoid_penalty(2.75, 1.4, PARAMS) == pytest.approx(1.0, abs=1e-15)

    def test_unity_inside_clearance_box(self):
        assert ellipsoid_penalty(1.0, 0.3, PARAMS) == 1.0
        assert ellipsoid_penalty(0.0, 0.0, PARAMS) == 1.0

    def test_one_radius_out(self):
        assert ellipsoid_penalty(2.75 + 2.0, 1.4, PARAMS) == pytest.approx(0.0625, abs=1e-15)

    def test_strictly_below_unity_outside_clearance_box(self):
        assert ellipsoid_penalty(2.75 + 0.5, 1.4, PARAMS) < 1.0
        assert ellipsoid_penalty(2.75, 1.4 + 0.1, PARAMS) < 1.0

    def test_overflow_far_out_gives_the_limit(self):
        assert ellipsoid_penalty(1e200, 0.0, PARAMS) == 0.0

    def test_exponent_validation(self):
        with pytest.raises(ContractError):
            EllipseParams(c_x=1.0, c_y=1.0, r_x=1.0, r_y=1.0, p_x=3, p_y=2, p_outer=4)
        with pytest.raises(ContractError):
            EllipseParams(c_x=1.0, c_y=1.0, r_x=0.0, r_y=1.0, p_x=2, p_y=2, p_outer=4)
        # a NaN radius or centre is rejected too: ellipsoid_penalty would return nan
        valid = {"c_x": 1.0, "c_y": 1.0, "r_x": 1.0, "r_y": 1.0, "p_x": 2, "p_y": 2, "p_outer": 4}
        for names in (("r_x",), ("r_y",), ("c_x",), ("c_y",), ("c_x", "r_x")):
            with pytest.raises(ContractError):
                EllipseParams(**(valid | dict.fromkeys(names, math.nan)))

    @given(
        dx=st.floats(-60.0, 60.0),
        dy=st.floats(-60.0, 60.0),
        scale=st.floats(1.0, 4.0),
    )
    def test_range_and_symmetry(self, dx, dy, scale):
        value = ellipsoid_penalty(dx, dy, PARAMS)
        assert 0.0 < value <= 1.0
        assert ellipsoid_penalty(-dx, dy, PARAMS) == value
        assert ellipsoid_penalty(dx, -dy, PARAMS) == value
        # moving strictly outward never raises the penalty
        assert ellipsoid_penalty(dx * scale, dy * scale, PARAMS) <= value + 1e-15

    @given(d1=st.floats(0.0, 50.0), d2=st.floats(0.0, 50.0))
    def test_monotone_in_each_axis(self, d1, d2):
        lo, hi = sorted((d1, d2))
        assert ellipsoid_penalty(hi, 0.7, PARAMS) <= ellipsoid_penalty(lo, 0.7, PARAMS) + 1e-15
        assert ellipsoid_penalty(0.7, hi, PARAMS) <= ellipsoid_penalty(0.7, lo, PARAMS) + 1e-15


def pow_ellipse(tx, ty, p_x, p_y, p_outer):
    """The field through libm `pow`, as the kernel's reference."""
    try:
        return (tx ** p_x + ty ** p_y + 1.0) ** (-p_outer)
    except OverflowError:
        return 0.0


def gamma(n):
    """Higham's bound on the relative error of n chained roundings to nearest."""
    u = 2.0 ** -53
    return n * u / (1.0 - n * u)


EXCESSES = st.floats(0.0, 50.0) | st.floats(0.0, 1e200) | st.sampled_from([0.0, 1.0, 1e200])
EVEN = st.integers(1, 8).map(lambda k: 2 * k) | st.just(1_000_000)


class TestEllipsePower:
    """One kernel for floats and arrays: the same bits, and close to `pow`."""

    @given(cells=st.lists(st.tuples(EXCESSES, EXCESSES), max_size=20),
           exponents=st.tuples(EVEN, EVEN, EVEN) | st.just((6, 10, 8)))
    def test_array_equals_float_calls_bit_for_bit(self, cells, exponents):
        tx = np.array([c[0] for c in cells], dtype=float)
        ty = np.array([c[1] for c in cells], dtype=float)
        with np.errstate(over="ignore"):  # as risk_field calls it
            got = risk_module._ellipse_power(tx, ty, *exponents)
        expected = np.array([risk_module._ellipse_power(a, b, *exponents) for a, b in cells],
                            dtype=float)
        assert got.shape == tx.shape
        assert got.view(np.int64).tolist() == expected.view(np.int64).tolist()

    def test_overflow_gives_zero(self):
        for exponents in ((2, 2, 2), (4, 2, 4), (6, 10, 8), (2, 2, 1_000_000)):
            assert risk_module._ellipse_power(1e200, 0.0, *exponents) == 0.0
            assert risk_module._ellipse_power(0.0, 1e200, *exponents) == 0.0
        assert risk_module._ellipse_power(0.0, 0.0, 1_000_000, 1_000_000, 1_000_000) == 1.0

    @given(tx=EXCESSES, ty=EXCESSES, exponents=st.tuples(*[st.sampled_from([2, 4, 6, 8])] * 3))
    def test_close_to_pow(self, tx, ty, exponents):
        p_x, p_y, p_outer = exponents
        # squaring makes t**p with p - 1 roundings, the sum adds two and the
        # reciprocal one; each libm pow is counted as two (it is within 1 ulp)
        kernel = p_outer * (max(p_x, p_y) + 2)
        reference = 4 * p_outer + 2
        got = risk_module._ellipse_power(tx, ty, *exponents)
        expected = pow_ellipse(tx, ty, *exponents)
        assert abs(got - expected) <= gamma(kernel + reference) * expected + 2.3e-308


class TestClearances:
    def test_accel_distance_values(self):
        assert accel_distance(6.0, 0.3, 6.0) == pytest.approx(2.07, abs=1e-12)
        assert accel_distance(0.0, 0.3, 6.0) == pytest.approx(0.27, abs=1e-12)
        assert accel_distance(5.0, 0.0, 6.0) == 0.0

    def test_stop_distance_values(self):
        assert stop_distance(6.0, 0.3, 6.0, 4.0) == pytest.approx(7.605, abs=1e-12)
        assert stop_distance(4.0, 0.3, 6.0, 4.0) == pytest.approx(4.205, abs=1e-12)
        assert stop_distance(0.0, 0.0, 6.0, 4.0) == 0.0

    def test_leading_clearance_chain(self):
        assert leading_clearance(6.0, 4.0, "long", CFG) == pytest.approx(8.675, abs=1e-12)
        assert leading_clearance(6.0, 0.0, "long", CFG) == pytest.approx(9.675, abs=1e-12)

    def test_leading_clearance_floors_at_geometric_radius(self):
        assert leading_clearance(0.0, 20.0, "long", CFG) == pytest.approx(CFG.r_x_geom)

    def test_approach_clearance_sums_both_envelopes(self):
        assert approach_clearance(4.0, 4.0, "long", CFG) == pytest.approx(11.35, abs=1e-12)
        # an agent at rest still contributes its reaction-time envelope
        expected = 9.675 + accel_distance(0.0, 0.3, 6.0) + stop_distance(0.0, 0.3, 6.0, 4.0)
        assert approach_clearance(6.0, 0.0, "long", CFG) == pytest.approx(expected, abs=1e-12)
        assert expected == pytest.approx(10.35, abs=1e-12)

    def test_approach_clearance_floors_when_rho_zero(self):
        cfg = RewardConfig(rho=1e-12)
        assert approach_clearance(0.0, 0.0, "long", cfg) == pytest.approx(cfg.r_x_geom)

    def test_away_clearance_value(self):
        assert away_clearance(0.1, 0.1, CFG) == pytest.approx(0.009, abs=1e-12)

    def test_away_clearance_otherwise_branch(self):
        assert away_clearance(1.0, 0.1, CFG) == 0.0

    def test_away_clearance_floors_at_zero(self):
        # large retreat speed still within the trigger makes the raw value negative
        cfg = RewardConfig(rho=0.3, a_acc_max_y=10.0)
        assert away_clearance(3.0, 0.1, cfg) == 0.0

    @given(v1=st.floats(0.0, 6.0), v2=st.floats(0.0, 6.0))
    def test_distances_nondecreasing_in_speed(self, v1, v2):
        lo, hi = sorted((v1, v2))
        assert accel_distance(hi, 0.3, 6.0) >= accel_distance(lo, 0.3, 6.0)
        assert stop_distance(hi, 0.3, 6.0, 4.0) >= stop_distance(lo, 0.3, 6.0, 4.0)

    @given(v_ego=st.floats(0.0, 6.0), v_other=st.floats(0.0, 20.0))
    def test_leading_clearance_largest_for_static_leader(self, v_ego, v_other):
        assert (
            leading_clearance(v_ego, 0.0, "long", CFG)
            >= leading_clearance(v_ego, v_other, "long", CFG)
        )


class TestNumberChecks:
    """The public scalar functions take numbers by ActorState's rule, and speeds >= 0."""

    @pytest.mark.parametrize("func, args, name", [
        (ttc_penalty, (math.nan, CFG), "ttc_penalty ttc"),
        (ttc_penalty, (-1.0, CFG), "ttc_penalty ttc"),
        (ttc_penalty, (-math.inf, CFG), "ttc_penalty ttc"),
        (ttc_penalty, (True, CFG), "ttc_penalty ttc"),
        (leading_clearance, (math.nan, 0.0, "long", CFG), "leading_clearance v_ego"),
        (leading_clearance, (True, 0.0, "long", CFG), "leading_clearance v_ego"),
        (leading_clearance, (1.0, -2.0, "lat", CFG), "leading_clearance v_other"),
        (approach_clearance, (math.nan, 0.0, "long", CFG), "approach_clearance v_ego"),
        (approach_clearance, (-5.0, 0.0, "long", CFG), "approach_clearance v_ego"),
        (approach_clearance, (0.0, math.inf, "long", CFG), "approach_clearance v_other"),
        (away_clearance, (math.nan, 1.0, CFG), "away_clearance v_ego_away"),
        (away_clearance, (0.0, "1", CFG), "away_clearance v_other_toward"),
        (wrap_angle, (math.inf,), "wrap_angle angle"),
        (wrap_angle, (math.nan,), "wrap_angle angle"),
        (wrap_angle, (True,), "wrap_angle angle"),
    ])
    def test_bad_number_names_its_argument(self, func, args, name):
        # each once gave a number (or a bare ValueError): ttc_penalty(nan) 1.0, True 0.845
        with pytest.raises(ContractError, match=f"^{name} must be "):
            func(*args)

    def test_edges_that_pass(self):
        zero = leading_clearance(0.0, 0.0, "long", CFG)
        assert leading_clearance(-0.0, -0.0, "long", CFG) == zero
        assert away_clearance(-0.0, 0.0, CFG) == away_clearance(0.0, 0.0, CFG)
        assert ttc_penalty(-0.0, CFG) == 1.0 and ttc_penalty(np.float64(math.inf), CFG) == 0.0
        assert ttc_penalty(3, CFG) == ttc_penalty(3.0, CFG)
        assert wrap_angle(np.int64(7)) == wrap_angle(7.0)


class TestTtc:
    def test_head_on_quadratic_roots(self):
        size = 2.0 * math.sqrt(2.0)  # circumradius 2.0
        a = ActorState(position=[0, 0], heading=0.0, speed_long=5.0, length=size, width=size)
        b = ActorState(position=[20, 0], heading=math.pi, speed_long=5.0, length=size, width=size)
        assert ttc_circle(a, b) == pytest.approx(1.6, abs=1e-12)

    def test_identical_velocities_never_collide(self):
        a = car(v=3.0)
        b = car(x=30.0, v=3.0)
        assert ttc_circle(a, b) == math.inf

    def test_receding_actors_never_collide(self):
        a = car(v=2.0, heading=math.pi)
        b = car(x=30.0, v=2.0)
        assert ttc_circle(a, b) == math.inf

    def test_overlapping_circles_collide_now(self):
        assert ttc_circle(car(), car(x=1.0)) == 0.0

    def test_overflowing_relative_speed_is_still_a_hit(self):
        # the squared relative speed overflows: an unscaled quadratic reads this as a miss
        ego = ActorState((0.0, 0.0), 0.0, speed_long=1e160, kind=ActorKind.EGO_VEHICLE)
        other = ActorState((20.0, -20.0), math.pi / 2, speed_long=1e160)
        assessment = assess_interaction(ego, other, CFG)
        assert assessment.mode is InteractionMode.INTERSECTING
        assert 0.0 < assessment.ttc < 1e-158 and assessment.dyn_penalty == 1.0
        mode = InteractionMode.INTERSECTING
        assert risk_field(ego, other, [20.0], [-20.0], mode, CFG)[1].tolist() == [1.0]
        # the largest power of two below the float limit: 2 ** 1024 itself overflows
        other = car(y=-30.0, v_lat=2.0 ** 1023)
        gap = 30.0 - 2.0 * other.circumradius
        assert ttc_circle(car(), other) == pytest.approx(gap / 2.0 ** 1023, rel=1e-12)

    def test_scaling_both_speeds_divides_the_ttc_exactly(self):
        def pair(speed):
            return car(v=speed), car(x=20.0, y=-20.0, heading=math.pi / 2, v=speed)

        ttc = ttc_circle(*pair(3.0))
        assert 0.0 < ttc < math.inf
        k = 0
        while 3.0 * 2.0 ** k <= 1e300:
            assert ttc_circle(*pair(3.0 * 2.0 ** k)) == ttc / 2.0 ** k
            k += 1

    def test_penalty_boundaries(self):
        assert ttc_penalty(7.0, CFG) == pytest.approx(0.0, abs=1e-15)
        assert ttc_penalty(0.7, CFG) == pytest.approx(1.0, abs=1e-15)
        assert ttc_penalty(math.inf, CFG) == 0.0
        assert ttc_penalty(0.0, CFG) == pytest.approx(1.0, abs=1e-15)

    def test_penalty_example_value(self):
        assert ttc_penalty(1.6, CFG) == pytest.approx(-math.log10(1.6 / 7.0), abs=1e-12)
        assert ttc_penalty(1.6, CFG) == pytest.approx(0.640978057358332, abs=1e-12)

    @given(ttc=st.floats(0.0, 100.0))
    def test_penalty_range(self, ttc):
        value = ttc_penalty(ttc, CFG)
        assert 0.0 <= value <= 1.0
        if ttc >= CFG.ttc_max:
            assert value == pytest.approx(0.0, abs=1e-12)
        if ttc <= 0.1 * CFG.ttc_max:
            assert value == pytest.approx(1.0, abs=1e-12)


class TestGeometricRisk:
    def test_touching_bumpers_saturates(self):
        ego = car(kind=ActorKind.EGO_VEHICLE)
        other = car(x=4.5)
        assert geometric_risk(ego, other, InteractionMode.SAME_DIRECTION, CFG) == 1.0

    def test_two_geometric_radii_ahead(self):
        ego = car(kind=ActorKind.EGO_VEHICLE)
        other = car(x=4.5 + 2.0 * CFG.r_x_geom)
        value = geometric_risk(ego, other, InteractionMode.SAME_DIRECTION, CFG)
        assert value == pytest.approx((2.0 ** 4 + 1.0) ** -4, abs=1e-12)
        assert value == pytest.approx(1.1973036721303624e-05, abs=1e-12)

    def test_far_field_is_negligible(self):
        ego = car(kind=ActorKind.EGO_VEHICLE)
        other = car(x=50.0, y=10.0)
        assert geometric_risk(ego, other, InteractionMode.SAME_DIRECTION, CFG) < 1e-6


class TestDynamicRisk:
    def test_touching_static_obstacle_saturates(self):
        ego = car(v=6.0, kind=ActorKind.EGO_VEHICLE)
        penalty, ttc = dynamic_risk(ego, obstacle(2.75, 0.0), InteractionMode.STATIC_OBSTACLE, CFG)
        assert penalty == 1.0
        assert ttc == math.inf

    def test_static_obstacle_30m_ahead(self):
        # longitudinal radius is the v=6 stopping envelope, 9.675 m
        ego = car(v=6.0, kind=ActorKind.EGO_VEHICLE)
        penalty, _ = dynamic_risk(ego, obstacle(30.0, 0.0), InteractionMode.STATIC_OBSTACLE, CFG)
        expected = (((30.0 - 2.75) / 9.675) ** 2 + 1.0) ** -4
        assert penalty == pytest.approx(expected, abs=1e-12)
        assert penalty == pytest.approx(1.5704834250415028e-04, abs=1e-12)

    def test_intersecting_uses_ttc_penalty(self):
        size = 2.0 * math.sqrt(2.0)
        ego = ActorState(position=[0, 0], heading=0.0, speed_long=5.0,
                         length=size, width=size, kind=ActorKind.EGO_VEHICLE)
        other = ActorState(position=[20, 0], heading=math.pi, speed_long=5.0,
                           length=size, width=size)
        penalty, ttc = dynamic_risk(ego, other, InteractionMode.INTERSECTING, CFG)
        assert ttc == pytest.approx(1.6, abs=1e-12)
        assert penalty == pytest.approx(-math.log10(1.6 / 7.0), abs=1e-12)

    def test_lateral_approach_grows_clearance(self):
        ego = car(v=4.0, v_lat=0.5, kind=ActorKind.EGO_VEHICLE)   # drifting left
        toward = car(x=10.0, y=4.0, v=4.0, v_lat=-0.5)            # drifting right, above ego
        still = car(x=10.0, y=4.0, v=4.0)
        p_toward, _ = dynamic_risk(ego, toward, InteractionMode.SAME_DIRECTION, CFG)
        ego_still = car(v=4.0, kind=ActorKind.EGO_VEHICLE)
        p_still, _ = dynamic_risk(ego_still, still, InteractionMode.SAME_DIRECTION, CFG)
        assert p_toward > p_still

    def test_both_retreating_floors_to_geometric(self):
        ego = car(v=4.0, v_lat=-0.5, kind=ActorKind.EGO_VEHICLE)  # moving away from other
        other = car(x=10.0, y=4.0, v=4.0, v_lat=0.5)              # also moving away
        p_dyn, _ = dynamic_risk(ego, other, InteractionMode.SAME_DIRECTION, CFG)
        geom_radius_penalty, _ = dynamic_risk(
            car(v=4.0, kind=ActorKind.EGO_VEHICLE), car(x=10.0, y=4.0, v=4.0),
            InteractionMode.SAME_DIRECTION, CFG,
        )
        assert p_dyn == pytest.approx(geom_radius_penalty, abs=1e-12)


class TestModeArgument:
    @pytest.mark.parametrize("mode", ["same_direction", None], ids=["string", "none"])
    @pytest.mark.parametrize(
        "func", [geometric_risk, dynamic_risk, risk_field, clearance_center],
        ids=["geometric_risk", "dynamic_risk", "risk_field", "clearance_center"],
    )
    def test_mode_must_be_an_interaction_mode(self, func, mode):
        # a mode's value string once scored the pair as no mode at all: 0.168, not 0.333
        ego, other = car(v=4.0, kind=ActorKind.EGO_VEHICLE), car(x=6.0, y=0.5, v=2.0)
        grid = ([0.0], [0.0]) if func is risk_field else ()
        config = () if func is clearance_center else (CFG,)  # the centres take no config
        with pytest.raises(ContractError, match="^mode must be an InteractionMode"):
            func(ego, other, *grid, mode, *config)


class TestRiskReward:
    def test_empty_road(self):
        value, assessments = risk_reward(car(kind=ActorKind.EGO_VEHICLE), [], CFG)
        assert value == 0.0
        assert assessments == ()

    def test_full_penalties_reach_minus_one(self):
        ego = car(v=6.0, kind=ActorKind.EGO_VEHICLE)
        value, assessments = risk_reward(ego, [obstacle(2.0, 0.0)], CFG)
        assert value == pytest.approx(-1.0)
        assert assessments[0].combined == pytest.approx(1.0)

    def test_max_selection(self):
        ego = car(v=6.0, kind=ActorKind.EGO_VEHICLE)
        near, far = obstacle(8.0, 0.0), obstacle(40.0, 0.0)
        value, assessments = risk_reward(ego, [far, near], CFG)
        assert value == pytest.approx(-max(a.combined for a in assessments))
        assert assessments[1].combined > assessments[0].combined

    def test_combined_is_weighted_sum(self):
        ego = car(v=5.0, kind=ActorKind.EGO_VEHICLE)
        _, (a,) = risk_reward(ego, [car(x=12.0, v=2.0)], CFG)
        assert a.combined == pytest.approx(
            CFG.w_geom * a.geom_penalty + CFG.w_dyn * a.dyn_penalty, abs=1e-15
        )

    @given(
        position=st.tuples(st.floats(-1e6, 1e6), st.floats(-1e6, 1e6)),
        offset=st.tuples(st.floats(-50.0, 50.0), st.floats(-50.0, 50.0)),
        headings=st.tuples(st.floats(-math.pi, math.pi), st.floats(-math.pi, math.pi)),
        speeds=st.tuples(*[st.floats(-1e308, 1e308) | st.sampled_from([0.0, 1e300])] * 4),
        static=st.booleans(),
    )
    # both stop distances of a leading clearance overflow to inf, longitudinally and laterally
    @example(position=(0.0, 0.0), offset=(50.0, 0.0), headings=(0.0, 0.0),
             speeds=(1e300, 0.0, 1e300, 0.0), static=False)
    @example(position=(0.0, 0.0), offset=(0.0, 5.0), headings=(0.0, 0.0),
             speeds=(0.0, 1e300, 0.0, 1e300), static=False)
    def test_penalties_lie_in_unit_interval_at_any_speed(self, position, offset, headings,
                                                          speeds, static):
        ego = ActorState(position, headings[0], speed_long=speeds[0], speed_lat=speeds[1],
                         kind=ActorKind.EGO_VEHICLE)
        other_at = (position[0] + offset[0], position[1] + offset[1])
        if static:
            other = ActorState(other_at, headings[1], kind=ActorKind.STATIC_OBSTACLE)
        else:
            other = ActorState(other_at, headings[1], speed_long=speeds[2], speed_lat=speeds[3])
        a = assess_interaction(ego, other, CFG)
        for value in (a.geom_penalty, a.dyn_penalty, a.combined):
            assert 0.0 <= value <= 1.0  # fails for NaN too

    @given(
        n_keep=st.integers(0, 3),
        seed=st.integers(0, 10_000),
    )
    def test_subset_never_riskier(self, n_keep, seed):
        rng = np.random.default_rng(seed)
        ego = car(v=float(rng.uniform(0, 6)), kind=ActorKind.EGO_VEHICLE)
        others = [
            car(x=float(rng.uniform(-30, 30)), y=float(rng.uniform(-10, 10)),
                heading=float(rng.uniform(-math.pi, math.pi)), v=float(rng.uniform(0, 6)))
            for _ in range(3)
        ]
        full, _ = risk_reward(ego, others, CFG)
        subset, _ = risk_reward(ego, others[:n_keep], CFG)
        assert -1.0 <= full <= 0.0
        assert abs(subset) <= abs(full) + 1e-15


def numpy_ttc(a, b):
    """The circumcircle TTC quadratic over numpy 2-vectors."""
    dp = np.subtract(b.position, a.position)
    dv = numpy_velocity(b) - numpy_velocity(a)
    radius = a.circumradius + b.circumradius
    c = dp @ dp - radius * radius
    if c <= 0.0:
        return 0.0
    aa, bb = dv @ dv, dp @ dv
    disc = bb * bb - aa * c
    if aa == 0.0 or disc < 0.0:
        return math.inf
    t_first = (-bb - math.sqrt(disc)) / aa
    return t_first if t_first >= 0.0 else math.inf


def random_pairs(count=400, seed=2024):
    """Seeded ego-actor pairs; headings and kinds spread over all four interaction modes."""
    rng = np.random.default_rng(seed)
    pairs = []
    for i in range(count):
        ego = car(x=float(rng.uniform(-20, 20)), y=float(rng.uniform(-20, 20)),
                  heading=float(rng.uniform(-4, 4)), v=float(rng.uniform(0, 8)),
                  v_lat=float(rng.uniform(-1, 1)), kind=ActorKind.EGO_VEHICLE)
        x, y = float(rng.uniform(-30, 30)), float(rng.uniform(-30, 30))
        length, width = float(rng.uniform(0.5, 6)), float(rng.uniform(0.5, 3))
        if i % 4 == 3:
            other = obstacle(x, y, length=length, width=width)
        else:
            relative = (0.0, math.pi, math.pi / 2.0)[i % 4] + float(rng.uniform(-0.7, 0.7))
            other = car(x=x, y=y, heading=ego.heading + relative, v=float(rng.uniform(0, 8)),
                        v_lat=float(rng.uniform(-1, 1)), length=length, width=width)
        pairs.append((ego, other))
    return pairs


class TestFarApart:
    """Positions whose difference overflows: the displacement turns the halves and doubles."""

    def test_displacement_has_no_nan(self):
        ego, other = FAR_APART[0][0], car(x=1e308, y=-1e308)
        assert relative_displacement(ego, other) == (math.inf, -1e308)  # d_y did not overflow
        ego = car(x=-1e308, heading=math.pi / 3)
        d_x, d_y = relative_displacement(ego, car(x=1e308))  # finite once turned
        assert d_x / 4 == pytest.approx(1e308 / 2 * math.cos(math.pi / 3), rel=1e-15)
        assert d_y / 4 == pytest.approx(-1e308 / 2 * math.sin(math.pi / 3), rel=1e-15)

    def test_penalties_are_zero_in_every_mode(self):
        expected = []
        for ego, other in FAR_APART:
            reward, (assessment,) = risk_reward(ego, [other], CFG)
            assert (reward, assessment.geom_penalty, assessment.dyn_penalty) == (0.0, 0.0, 0.0)
            expected.append((reward, (assessment,)))
        assert {a.mode for _, (a,) in expected} == set(InteractionMode)
        egos, others = zip(*FAR_APART)
        got = risk_rewards(egos, [[other] for other in others])
        assert same_bits(got, expected)

    def test_an_infinite_excess_reads_far_past_an_infinite_clearance(self):
        expected = [risk_reward(ego, [other], CFG) for ego, other in FAR_AND_FAST]
        assert [(reward, a.dyn_penalty) for reward, (a,) in expected] == [(0.0, 0.0)] * 4
        egos, others = zip(*FAR_AND_FAST)
        got = risk_rewards(egos, [[other] for other in others])
        assert same_bits(got, expected)


class TestPlainFloatOracles:
    """The float per-pair path against the numpy formulas and `EllipseParams` it replaces."""

    def test_pairs_cover_every_mode(self):
        modes = {classify_interaction(ego, other) for ego, other in random_pairs()}
        assert modes == set(InteractionMode)

    def test_frames_and_ttc_match_numpy(self):
        finite = 0
        for ego, other in random_pairs():
            local = rotation(-ego.heading) @ np.subtract(other.position, ego.position)
            assert relative_displacement(ego, other) == pytest.approx(tuple(local), abs=1e-12)
            expected = numpy_ttc(ego, other)
            if math.isinf(expected):
                assert ttc_circle(ego, other) == expected
            else:
                finite += 1
                assert ttc_circle(ego, other) == pytest.approx(expected, abs=1e-12)
        assert finite > 20

    def test_penalties_equal_explicit_ellipse_params(self):
        exponents = {
            InteractionMode.SAME_DIRECTION: (CFG.p_max, CFG.p_min),
            InteractionMode.INTERSECTING: (CFG.p_max, CFG.p_max),
            InteractionMode.OPPOSITE_DIRECTION: (CFG.p_min, CFG.p_max),
            InteractionMode.STATIC_OBSTACLE: (CFG.p_min, CFG.p_max),
        }
        for ego, other in random_pairs():
            mode = classify_interaction(ego, other)
            d_x, d_y = relative_displacement(ego, other)
            c_x, c_y = clearance_center(ego, other, mode)
            p_x, p_y = exponents[mode]

            def field(r_x, r_y):
                params = EllipseParams(c_x=c_x, c_y=c_y, r_x=r_x, r_y=r_y, p_x=p_x, p_y=p_y,
                                       p_outer=CFG.p_outer)
                return ellipsoid_penalty(d_x, d_y, params)

            assert geometric_risk(ego, other, mode, CFG) == field(CFG.r_x_geom, CFG.r_y_geom)
            penalty, ttc = dynamic_risk(ego, other, mode, CFG)
            if mode is InteractionMode.INTERSECTING:
                assert penalty == pytest.approx(ttc_penalty(numpy_ttc(ego, other), CFG), abs=1e-12)
                continue
            assert ttc == math.inf
            v_ego, v_other = abs(ego.speed_long), abs(other.speed_long)
            if mode is InteractionMode.OPPOSITE_DIRECTION:
                r_x = approach_clearance(v_ego, v_other, "long", CFG)
            elif mode is InteractionMode.STATIC_OBSTACLE:
                r_x = leading_clearance(v_ego, 0.0, "long", CFG)
            else:
                r_x = leading_clearance(v_ego, v_other, "long", CFG)
            # the lateral case, from the signed lateral velocities in the ego frame
            side = 0.0 if d_y == 0.0 else math.copysign(1.0, d_y)
            ego_lat = ego.speed_lat
            other_lat = _rotate(*_rotate(other.speed_long, other.speed_lat, other.heading),
                                -ego.heading)[1]
            if side * ego_lat > 0.0 and side * other_lat < 0.0:
                r_y = approach_clearance(abs(ego_lat), abs(other_lat), "lat", CFG)
            elif side * ego_lat > 0.0:
                r_y = leading_clearance(abs(ego_lat), abs(other_lat), "lat", CFG)
            elif side * other_lat < 0.0:
                r_y = away_clearance(max(-side * ego_lat, 0.0), abs(other_lat), CFG)
            else:
                r_y = 0.0
            assert penalty == field(max(r_x, CFG.r_x_geom), max(r_y, CFG.r_y_geom))


# Relative heading and kind of the actor placed in each field cell, per mode.
FIELD_OTHER = {
    InteractionMode.SAME_DIRECTION: (0.0, ActorKind.NPC_VEHICLE),
    InteractionMode.OPPOSITE_DIRECTION: (math.pi, ActorKind.NPC_VEHICLE),
    InteractionMode.INTERSECTING: (math.pi / 2.0, ActorKind.NPC_VEHICLE),
    InteractionMode.STATIC_OBSTACLE: (0.0, ActorKind.STATIC_OBSTACLE),
}
# Rows through y = 0, on both signed zeros, and through the clearance box.
ROWS_THROUGH_ZERO = [-10.0, -2.0, -1.0, -0.0, 0.0, 0.5, 1.0, 2.0, 10.0]


def field_case(name, mode):
    """(ego, other, xs, ys) for one named grid; `other` sits at the origin."""
    relative, kind = FIELD_OTHER[mode]
    moving = kind is not ActorKind.STATIC_OBSTACLE
    ego_kw = dict(kind=ActorKind.EGO_VEHICLE)
    if name == "ego_at_origin":
        # a lateral speed large enough that each side of y = 0 has its own dynamic radius
        ego = car(v=6.0, v_lat=-2.0, **ego_kw)
        other = car(heading=relative, v=3.0 * moving, kind=kind)
        xs, ys = np.arange(-30.0, 30.0 + 0.75, 1.5), ROWS_THROUGH_ZERO
    elif name == "ego_turned_off_origin":
        ego = car(x=3.5, y=-2.25, heading=0.7, v=5.0, v_lat=0.4, **ego_kw)
        other = car(heading=0.7 + relative, v=4.0 * moving, v_lat=-0.3 * moving, kind=kind)
        xs, ys = np.arange(-20.0, 26.0, 1.25), np.arange(-10.0, 6.0, 0.75)
    elif name == "standing_still":  # the TTC quadratic's aa == 0 case
        ego, other = car(**ego_kw), car(heading=relative, kind=kind)
        xs, ys = np.arange(-10.0, 10.25, 0.5), ROWS_THROUGH_ZERO
    else:  # "far": the powers overflow and the field is at its limit, 0
        ego, other = car(v=6.0, **ego_kw), car(heading=relative, v=3.0 * moving, kind=kind)
        xs, ys = np.arange(-1e300, 1e300 + 5e298, 1e299), [0.0]
    return ego, other, xs, ys


FIELD_CASES = ("ego_at_origin", "ego_turned_off_origin", "standing_still", "far")
# exponents with several set bits, so that the squaring multiplies partial powers
HIGH_EXPONENTS = RewardConfig(p_min=6, p_max=10, p_outer=8)


def scalar_cells(other, xs, ys):
    return [replace(other, position=(x, y)) for y in ys for x in xs]


class TestRiskField:
    """The array field against the scalar pair functions, cell by cell, bit for bit."""

    @pytest.mark.parametrize("cfg", [CFG, HIGH_EXPONENTS], ids=["default", "high_exponents"])
    @pytest.mark.parametrize("mode", list(InteractionMode))
    @pytest.mark.parametrize("name", FIELD_CASES)
    def test_equals_scalar_functions_on_every_cell(self, name, mode, cfg):
        ego, other, xs, ys = field_case(name, mode)
        geom, dyn = risk_field(ego, other, xs, ys, mode, cfg)
        cells = scalar_cells(other, xs, ys)
        assert same_bits(geom.tolist(), [geometric_risk(ego, cell, mode, cfg) for cell in cells])
        assert same_bits(dyn.tolist(), [dynamic_risk(ego, cell, mode, cfg)[0] for cell in cells])

    def test_directional_cases_reach_every_lateral_case(self):
        """Both closing, ego chasing, ego retreating and both opening, each in some cell."""
        cases = set()
        for mode in set(InteractionMode) - {InteractionMode.INTERSECTING}:
            for name in FIELD_CASES:
                ego, other, xs, ys = field_case(name, mode)
                other_lat = _rotate(*_rotate(other.speed_long, other.speed_lat, other.heading),
                                    -ego.heading)[1]
                for cell in scalar_cells(other, xs, ys):
                    d_y = relative_displacement(ego, cell)[1]
                    side = 0.0 if d_y == 0.0 else math.copysign(1.0, d_y)
                    cases.add((side * ego.speed_lat > 0.0, side * other_lat < 0.0))
        assert len(cases) == 4

    def test_cases_reach_the_edges(self):
        for mode in InteractionMode:
            geom, _ = risk_field(*field_case("ego_at_origin", mode), mode, CFG)
            assert 1.0 in geom.tolist()  # inside the saturated clearance box
            far, _ = risk_field(*field_case("far", mode), mode, CFG)
            assert far.tolist()[0] == 0.0
        # every branch of the TTC quadratic: overlap, never closing, a miss, a hit
        ego, other, xs, ys = field_case("ego_at_origin", InteractionMode.INTERSECTING)
        ttcs = [ttc_circle(ego, cell) for cell in scalar_cells(other, xs, ys)]
        assert 0.0 in ttcs and math.inf in ttcs and any(0.0 < t < math.inf for t in ttcs)
        dv = numpy_velocity(other) - numpy_velocity(ego)
        radius = ego.circumradius + other.circumradius
        discs = []
        for x, y in ((x, y) for y in ys for x in xs):
            dp = np.array([x, y])
            c = dp @ dp - radius * radius
            if c > 0.0:
                discs.append((dp @ dv) ** 2 - (dv @ dv) * c)
        assert min(discs) < 0.0 < max(discs)
        ego, other, _, _ = field_case("standing_still", InteractionMode.INTERSECTING)
        assert (numpy_velocity(other) - numpy_velocity(ego)).tolist() == [0.0, 0.0]  # aa == 0

    def test_other_position_is_ignored(self):
        mode = InteractionMode.SAME_DIRECTION
        ego, other, xs, ys = field_case("ego_turned_off_origin", mode)
        moved = replace(other, position=(40.0, -7.0))
        for got, expected in zip(risk_field(ego, moved, xs, ys, mode, CFG),
                                 risk_field(ego, other, xs, ys, mode, CFG)):
            assert got.tolist() == expected.tolist()

    def test_row_order_and_empty_grid(self):
        mode = InteractionMode.STATIC_OBSTACLE
        ego, other = car(v=4.0, kind=ActorKind.EGO_VEHICLE), obstacle(0.0, 0.0)
        geom, dyn = risk_field(ego, other, [5.0, 9.0], [0.0, 3.0, 6.0], mode, CFG)
        expected = [geometric_risk(ego, obstacle(x, y), mode, CFG)
                    for y in (0.0, 3.0, 6.0) for x in (5.0, 9.0)]
        assert geom.tolist() == expected and dyn.shape == (6,)
        for axes in (([], [1.0]), ([1.0], [])):
            geom, dyn = risk_field(ego, other, *axes, mode, CFG)
            assert geom.shape == dyn.shape == (0,)

    @pytest.mark.parametrize("xs", [[0.0, math.nan], [math.inf], [[1.0, 2.0]], ["1"], [True]])
    def test_bad_axis_rejected(self, xs):
        ego, other = car(kind=ActorKind.EGO_VEHICLE), car()
        with pytest.raises(ContractError, match="xs"):
            risk_field(ego, other, xs, [0.0], InteractionMode.SAME_DIRECTION, CFG)


class TestPerDistinct:
    """`func` once per distinct float, keyed by its bits, gathered back in input order."""

    def test_input_order_kept_and_signed_zeros_apart(self):
        values = np.array([2.5, -0.0, 0.0, 2.5, -0.0, 1.0])
        got = risk_module._per_distinct(repr, values, object)
        assert got.tolist() == ["2.5", "-0.0", "0.0", "2.5", "-0.0", "1.0"]

    def test_nan_and_inf(self):
        values = np.array([math.inf, math.nan, -math.inf, math.nan, math.inf, 1e300])
        got = risk_module._per_distinct(repr, values, object)
        assert got.tolist() == ["inf", "nan", "-inf", "nan", "inf", "1e+300"]

    def test_one_call_per_bit_pattern(self):
        calls = []

        def double(value):
            calls.append(value)
            return 2.0 * value

        other_nan = (np.array([math.nan]).view(np.int64) | 1).view(float)[0]
        values = np.array([3.0, 1.0, 3.0, -0.0, 0.0, 3.0, math.nan, other_nan, math.nan])
        got = risk_module._per_distinct(double, values, float)
        assert got[:6].tolist() == [6.0, 2.0, 6.0, -0.0, 0.0, 6.0]
        assert [math.copysign(1.0, v) for v in got[3:5]] == [-1.0, 1.0]
        assert np.isnan(got[6:]).all()
        assert len(calls) == 6  # 3, 1, -0, 0 and two NaN payloads

    def test_empty(self):
        got = risk_module._per_distinct(repr, np.array([]), object)
        assert got.shape == (0,) and got.dtype == object

    def test_intersecting_field_scores_each_distinct_ttc_once(self, monkeypatch):
        mode = InteractionMode.INTERSECTING
        ego, other, xs, ys = field_case("ego_at_origin", mode)
        expected = risk_field(ego, other, xs, ys, mode, CFG)[1].tolist()
        calls = []

        def counted(ttc, config):
            calls.append(ttc)
            return ttc_penalty(ttc, config)

        monkeypatch.setattr(risk_module, "ttc_penalty", counted)
        _, dyn = risk_field(ego, other, xs, ys, mode, CFG)
        ttcs = [ttc_circle(ego, cell) for cell in scalar_cells(other, xs, ys)]
        assert dyn.tolist() == expected
        assert sorted(calls) == sorted(set(ttcs)) and len(calls) < len(ttcs)


class TestAssessInteraction:
    """`assess_interaction` finds each pair's geometry once and scores it as the scalar API does."""

    def test_penalties_equal_the_scalar_functions(self):
        modes = set()
        for ego, other in random_pairs():
            assessment = assess_interaction(ego, other, CFG)
            mode = classify_interaction(ego, other)
            modes.add(mode)
            dyn, ttc = dynamic_risk(ego, other, mode, CFG)
            assert assessment.mode is mode
            assert assessment.geom_penalty == geometric_risk(ego, other, mode, CFG)
            assert (assessment.dyn_penalty, assessment.ttc) == (dyn, ttc)
        assert modes == set(InteractionMode)

    def test_displacement_is_computed_once_per_pair(self, monkeypatch):
        calls = []

        def counted(ego, other):
            calls.append(other)
            return relative_displacement(ego, other)

        monkeypatch.setattr(risk_module, "relative_displacement", counted)
        for ego, other in random_pairs(count=40):
            calls.clear()
            assess_interaction(ego, other, CFG)
            assert calls == [other]


def kernel_batch(seed, size):
    """(egos, others): fixed edge pairs, then `size` seeded random pairs.

    The random pairs spread over every mode and lateral case. Some speeds are 0
    or -0.0, some so large that the TTC scales the relative velocity (1e160) or
    that both stop distances of a clearance overflow (1e300). Some others sit on
    the ego's axis (d_y == 0) or overlap it; a fifth are static obstacles.
    """
    egos = [car(v=1e300, kind=ActorKind.EGO_VEHICLE),  # the NaN leading clearance, long
            car(v_lat=1e300, kind=ActorKind.EGO_VEHICLE),  # and lat
            ActorState((0.0, 0.0), 0.0, speed_long=1e160, kind=ActorKind.EGO_VEHICLE),
            car(kind=ActorKind.EGO_VEHICLE), car(y=-0.0, heading=-0.0, kind=ActorKind.EGO_VEHICLE)]
    others = [car(x=50.0, v=1e300), car(y=5.0, v_lat=1e300),
              ActorState((20.0, -20.0), math.pi / 2, speed_long=1e160),  # the TTC is scaled
              car(x=7.0, heading=math.pi / 2),  # standing still: aa == 0
              car(x=-9.0, heading=math.pi)]  # d_y == 0 exactly
    egos += [ego for ego, _ in FAR_APART + FAR_AND_FAST]  # the position difference overflows
    others += [other for _, other in FAR_APART + FAR_AND_FAST]
    rng = np.random.default_rng(seed)

    def speeds(moving=True):
        v, pick = rng.uniform(-8.0, 8.0, size), rng.random(size)
        for low, value in ((0.0, 0.0), (0.1, -0.0), (0.15, 1e160), (0.2, -1e160), (0.22, 1e300)):
            v[(pick >= low) & (pick < low + 0.05)] = value
        return np.where(moving, v, 0.0).tolist()

    static = rng.random(size) < 0.2
    on_axis = rng.random(size) < 0.1
    heading = np.where(on_axis, 0.0, rng.uniform(-4.0, 4.0, size))
    relative = (rng.choice([0.0, math.pi, math.pi / 2, -math.pi / 2], size)
                + rng.uniform(-0.9, 0.9, size))
    boundary = rng.choice([math.pi / 4, 3 * math.pi / 4], size)
    relative = np.where(rng.random(size) < 0.05, boundary, relative)
    x, y = rng.uniform(-20.0, 20.0, size), rng.uniform(-20.0, 20.0, size)
    reach = np.where(rng.random(size) < 0.1, 2.0, 30.0)
    dx = rng.uniform(-1.0, 1.0, size) * reach
    dy = np.where(on_axis, 0.0, rng.uniform(-1.0, 1.0, size) * reach)
    length, width = rng.uniform(0.5, 6.0, (2, size)), rng.uniform(0.5, 3.0, (2, size))
    columns = zip(x.tolist(), y.tolist(), heading.tolist(), speeds(), speeds(),
                  (x + dx).tolist(), (y + dy).tolist(), (heading + relative).tolist(),
                  speeds(~static), speeds(~static), static.tolist(), *length.tolist(),
                  *width.tolist())
    for ex, ey, eh, ev, ev_lat, ox, oy, oh, ov, ov_lat, stat, e_len, o_len, e_wid, o_wid in columns:
        egos.append(ActorState((ex, ey), eh, ev, ev_lat, length=e_len, width=e_wid,
                               kind=ActorKind.EGO_VEHICLE))
        kind = ActorKind.STATIC_OBSTACLE if stat else ActorKind.NPC_VEHICLE
        others.append(ActorState((ox, oy), oh, ov, ov_lat, length=o_len, width=o_wid, kind=kind))
    return egos, others


def kernel_rows(actors):
    return np.array([risk_module._row(a) for a in actors], dtype=float)


def risk_rewards(egos, others):
    """`_risk_rewards` of each ego, passed as its `_row`, against its step's sequence of
    actors in `others`, with each step's pending assessments built. The table it returns
    must have the bits of the table of those assessments, and each step's worst pair in it
    must be the first `np.argmax` of their `combined`."""
    rows = kernel_rows([actor for actors in others for actor in actors]).reshape(-1, 11)
    rewards, pending, table = risk_module._risk_rewards(kernel_rows(egos), rows,
                                                        [len(actors) for actors in others], CFG)
    built = [(reward, assessments() if actors else assessments)
             for reward, assessments, actors in zip(rewards, pending, others)]
    assert same_bits(table, risk_module._assessed_table([a for _, a in built]))
    worst = [(None,) * 4] * len(built)
    for i, (_, assessments) in enumerate(built):
        if assessments:
            k = int(np.argmax([a.combined for a in assessments]))
            worst[i] = (k, assessments[k].geom_penalty, assessments[k].dyn_penalty,
                        assessments[k].ttc)
    assert same_bits(risk_module._worst(table, len(built)), [list(c) for c in zip(*worst)])
    return built


def pairs_risk(codes, egos, others):
    """`_pairs_risk` of the pairs (egos[i], others[i]) in modes `codes`, one tuple per pair."""
    with np.errstate(all="ignore"):
        geom, dyn, ttc = risk_module._pairs_risk(
            codes, risk_module._columns(kernel_rows(egos)),
            risk_module._columns(kernel_rows(others)), CFG)
    return list(zip(geom.tolist(), dyn.tolist(), ttc.tolist()))


class TestPairRiskArrays:
    """The array kernel against the scalar pair functions, element by element, bit for bit."""

    def test_batch_covers_every_branch(self):
        egos, others = kernel_batch(seed=0, size=2000)
        modes, lateral, scaled, nan_clearance = set(), set(), 0, 0
        for ego, other in zip(egos, others):
            mode = classify_interaction(ego, other)
            modes.add(mode)
            if mode is InteractionMode.INTERSECTING:
                scaled += max(abs(numpy_velocity(other) - numpy_velocity(ego))) > 1e150
                continue
            d_y = relative_displacement(ego, other)[1]
            side = 0.0 if d_y == 0.0 else math.copysign(1.0, d_y)
            other_lat = _rotate(*_rotate(other.speed_long, other.speed_lat, other.heading),
                                -ego.heading)[1]
            lateral.add((side * ego.speed_lat > 0.0, side * other_lat < 0.0))
            for v, w, axis in ((ego.speed_long, other.speed_long, "long"),
                               (ego.speed_lat, other_lat, "lat")):
                # both stop distances of a leading clearance overflow: inf - inf
                a_acc, a_brk_min, a_brk_max, _ = risk_module._axis_params(axis, CFG)
                nan_clearance += math.isnan(accel_distance(abs(v), CFG.rho, a_acc) + stop_distance(
                    abs(v), CFG.rho, a_acc, a_brk_min) - w * w / (2.0 * a_brk_max))
        assert modes == set(InteractionMode) and len(lateral) == 4
        assert scaled > 5 and nan_clearance > 5

    @settings(max_examples=15, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1), size=st.integers(0, 10_000))
    def test_risk_rewards_have_the_bits_of_risk_reward(self, seed, size):
        pairs = kernel_batch(seed, size + 1)
        # cut the pairs into steps, each scored against the ego of its first pair: the first
        # step is empty, and each repeated cut makes another
        cuts = np.random.default_rng(seed).integers(0, size + 1, size // 3 + 1).tolist()
        bounds = [0, 0, *sorted(cuts), size + 1]
        egos = [pairs[0][start] for start in bounds[:-1]]
        others = [pairs[1][start:stop] for start, stop in zip(bounds, bounds[1:])]
        assert same_bits(risk_rewards(egos, others),
                         [risk_reward(ego, other, CFG) for ego, other in zip(egos, others)])

    @settings(max_examples=10, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1), size=st.integers(0, 5_000))
    def test_each_pair_in_its_own_mode_has_the_bits_of_pair_risk(self, seed, size):
        """Any mode for any pair, whatever its kind and headings, mixed in one call."""
        egos, others = kernel_batch(seed, size)
        codes = np.random.default_rng(seed).integers(0, 4, len(egos))
        assert same_bits(pairs_risk(codes, egos, others),
                         [risk_module._pair_risk(ego, other, risk_module._MODES[code], CFG)
                          for ego, other, code in zip(egos, others, codes.tolist())])

    def test_far_apart_pairs_in_every_mode_have_the_bits_of_pair_risk(self):
        pairs = [(ego, other, code) for code in range(4) for ego, other in FAR_APART + FAR_AND_FAST]
        egos, others, codes = zip(*pairs)
        assert same_bits(pairs_risk(np.array(codes), egos, others),
                         [risk_module._pair_risk(ego, other, risk_module._MODES[code], CFG)
                          for ego, other, code in pairs])

    @given(h=st.floats(allow_nan=False, allow_infinity=False))
    @example(h=0.0)
    @example(h=1e308)
    def test_math_cos_is_even_and_sin_odd_to_the_bit(self, h):
        """The scalar code turns into the ego frame by (cos(-h), sin(-h)), the kernel by
        (cos h, -sin h): on a libm where these differ, the two cannot share bits."""
        assert same_bits((math.cos(-h), math.sin(-h)), (math.cos(h), -math.sin(h)))

    def test_track_rows_take_the_moving_fields_from_the_tracks(self):
        actors = kernel_batch(seed=3, size=6)[1][-6:]
        tracks = np.random.default_rng(3).uniform(-50.0, 50.0, (4, 5, 6))  # 4 of 6 move, 5 steps
        expected = [[*tracks[j, i, :4].tolist(), *risk_module._row(a)[4:9], *tracks[j, i, 4:]]
                    if j < 4 else list(risk_module._row(a))
                    for i in range(5) for j, a in enumerate(actors)]
        rows = risk_module._track_rows(actors, 5, tracks)
        assert same_bits(rows.tolist(), [[float(v) for v in row] for row in expected])
        assert risk_module._track_rows([], 5, []).shape == (0, 11)

    def test_headings_are_never_deduplicated(self, monkeypatch):
        """Each kernel row carries its heading's cos and sin, so `_per_distinct` runs for the
        TTCs alone: not at all when no pair intersects, once when one does."""
        calls, per_distinct = [], risk_module._per_distinct
        monkeypatch.setattr(risk_module, "_per_distinct",
                            lambda *args: calls.append(args) or per_distinct(*args))
        egos = [car(kind=ActorKind.EGO_VEHICLE, heading=h) for h in (0.0, 0.5)]
        ahead, oncoming = car(10.0, heading=0.25), car(-10.0, 3.0, heading=3.0)
        for others, expected in (([ahead, oncoming], 0), ([ahead, car(5.0, 9.0, 1.5)], 1)):
            calls.clear()
            risk_module._risk_rewards(kernel_rows(egos), kernel_rows(others * 2), [2, 2], CFG)
            assert len(calls) == expected

    def test_no_pairs_call_no_numpy(self, monkeypatch):
        egos = kernel_rows([car(kind=ActorKind.EGO_VEHICLE)] * 2)
        monkeypatch.setattr(risk_module, "np", None)
        assert risk_module._risk_rewards(egos, None, [0, 0], CFG) == ([0.0] * 2, [()] * 2, None)
