"""Non-risk objectives and the hierarchical combination."""

import itertools
import math
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from riskrl import (
    ActorKind,
    ActorState,
    ContractError,
    Outcome,
    RewardConfig,
    RouteFramePose,
    StepContext,
    build_policy,
    collision_penalty,
    comfort_reward,
    driving_style_reward,
    level_weight,
    load_scenario,
    progress_reward,
    run_episode,
    success_reward,
    terminal_reward,
    total_reward,
    traffic_rule_reward,
)
import oracles
from oracles import same_bits
from riskrl.cli import _episode_seed
from riskrl.reward import STEER_SPEED_FLOOR, _ego_levels, _totals
from riskrl.risk import EllipseParams, leading_clearance
from riskrl.sim import detect_collision

CFG = RewardConfig()


def make_ctx(
    station=10.0,
    prev_station=10.0,
    offset=0.0,
    speed=4.0,
    accel=0.0,
    steering_rate=0.0,
    jerk=0.0,
    others=(),
    violations=frozenset(),
    outcome=Outcome.NONE,
    lane_width=3.5,
):
    ego = ActorState(
        position=[station, offset], heading=0.0, speed_long=speed, accel_long=accel,
        kind=ActorKind.EGO_VEHICLE,
    )
    return StepContext(
        ego=ego,
        pose=RouteFramePose(station=station, lateral_offset=offset, heading_error=0.0),
        prev_pose=RouteFramePose(station=prev_station, lateral_offset=offset, heading_error=0.0),
        others=tuple(others),
        lane_width=lane_width,
        steering_rate=steering_rate,
        jerk=jerk,
        violations=violations,
        outcome=outcome,
    )


class TestLevelWeight:
    def test_first_level_is_unweighted(self):
        assert level_weight(1, 0.25) == 1.0

    def test_geometric_decay(self):
        assert level_weight(2, 0.25) == 0.25
        assert level_weight(3, 0.25) == 0.0625
        assert level_weight(3, 0.5) == 0.25

    def test_invalid_inputs(self):
        with pytest.raises(ContractError):
            level_weight(0, 0.25)
        with pytest.raises(ContractError):
            level_weight(2, 1.0)
        # a fractional level once gave 0.7071 and a boolean level read as 1
        for level in (1.5, True):
            with pytest.raises(ContractError, match="level index must be an integer >= 1"):
                level_weight(level, 0.5)

    @given(beta=st.floats(0.01, 0.99))
    def test_strictly_decreasing_levels(self, beta):
        weights = [level_weight(i, beta) for i in (1, 2, 3, 4)]
        assert all(a > b for a, b in zip(weights, weights[1:]))


class TestCollisionPenalty:
    def test_standing_impact(self):
        assert collision_penalty(0.0, 6.0) == pytest.approx(-0.5, abs=1e-15)

    def test_full_speed_impact(self):
        assert collision_penalty(6.0, 6.0) == pytest.approx(-1.0, abs=1e-15)

    def test_half_speed_impact(self):
        assert collision_penalty(3.0, 6.0) == pytest.approx(-0.75, abs=1e-15)

    def test_speed_clamped_to_v_max(self):
        assert collision_penalty(12.0, 6.0) == pytest.approx(-1.0, abs=1e-15)

    @given(v=st.floats(0.0, 20.0))
    def test_range_and_monotonicity(self, v):
        value = collision_penalty(v, 6.0)
        assert -1.0 <= value <= -0.5
        assert collision_penalty(v + 0.5, 6.0) <= value


class TestSuccessReward:
    def test_inside_threshold(self):
        assert success_reward(0.2, 0.5) == 1.0

    def test_outside_threshold(self):
        assert success_reward(1.0, 0.5) == 0.5

    def test_boundary_is_strict(self):
        assert success_reward(0.5, 0.5) == 0.5

    def test_uses_magnitude(self):
        assert success_reward(-0.2, 0.5) == 1.0


class TestTerminalReward:
    def test_collision_at_v_max(self):
        assert terminal_reward(Outcome.COLLISION, 6.0, 0.0, CFG) == pytest.approx(-50.0)

    def test_offroad(self):
        assert terminal_reward(Outcome.OFFROAD, 3.0, 0.0, CFG) == pytest.approx(-50.0)

    def test_timeout_is_free(self):
        assert terminal_reward(Outcome.TIMEOUT, 3.0, 0.0, CFG) == 0.0

    def test_success_grades_by_offset(self):
        assert terminal_reward(Outcome.SUCCESS, 4.0, 0.1, CFG) == pytest.approx(50.0)
        assert terminal_reward(Outcome.SUCCESS, 4.0, 1.0, CFG) == pytest.approx(25.0)

    def test_requires_terminal_outcome(self):
        with pytest.raises(ContractError):
            terminal_reward(Outcome.NONE, 4.0, 0.0, CFG)

    def test_outcome_must_be_an_outcome(self):
        # a string once fell through every branch to the off-road value
        with pytest.raises(ContractError, match="terminal_reward outcome must be an Outcome"):
            terminal_reward("collision", 3.0, 0.0, CFG)


class TestTrafficRuleReward:
    def test_no_violation(self):
        assert traffic_rule_reward(frozenset()) == 0.0

    def test_single_violation(self):
        assert traffic_rule_reward({"speeding"}) == -1.0

    def test_violations_do_not_stack(self):
        assert traffic_rule_reward({"speeding", "other"}) == -1.0


class TestProgressReward:
    def test_no_movement(self):
        assert progress_reward(10.0, 10.0, CFG) == 0.0

    def test_maximum_step(self):
        assert progress_reward(10.6, 10.0, CFG) == pytest.approx(1.0)

    def test_half_step(self):
        assert progress_reward(10.3, 10.0, CFG) == pytest.approx(0.5)

    def test_reversing_is_negative_and_clamped(self):
        assert progress_reward(9.0, 10.0, CFG) == -1.0

    @given(d=st.floats(-5.0, 5.0))
    def test_clamped_range(self, d):
        assert -1.0 <= progress_reward(10.0 + d, 10.0, CFG) <= 1.0


class TestDrivingStyleReward:
    def test_ideal_driving(self):
        assert driving_style_reward(4.0, 0.0, 3.5, CFG) == 0.0

    def test_speed_deviation(self):
        assert driving_style_reward(2.0, 0.0, 3.5, CFG) == pytest.approx(-0.25)

    def test_lane_deviation(self):
        assert driving_style_reward(4.0, 1.75, 3.5, CFG) == pytest.approx(-0.25)

    def test_ratios_clamped(self):
        assert driving_style_reward(40.0, 40.0, 3.5, CFG) == pytest.approx(-1.0)

    @given(v=st.floats(0.0, 20.0), offset=st.floats(-10.0, 10.0))
    def test_range(self, v, offset):
        assert -1.0 <= driving_style_reward(v, offset, 3.5, CFG) <= 0.0


class TestComfortReward:
    def test_smooth_driving(self):
        assert comfort_reward(0.0, 0.0, 0.0, 4.0, CFG) == 0.0

    def test_all_ratios_at_limits(self):
        steer = 4.0 * CFG.kappa_max
        jerk = CFG.a_comfort_max / CFG.dt
        assert comfort_reward(8.0, steer, jerk, 4.0, CFG) == pytest.approx(-1.0)

    def test_half_acceleration(self):
        assert comfort_reward(4.0, 0.0, 0.0, 4.0, CFG) == pytest.approx(-1.0 / 6.0)

    def test_standing_vehicle_uses_speed_floor(self):
        value = comfort_reward(0.0, 0.05, 0.0, 0.0, CFG)
        expected = -(min(0.05 / (0.1 * CFG.kappa_max), 1.0)) / 3.0
        assert value == pytest.approx(expected)

    @given(
        a=st.floats(-20.0, 20.0),
        steer=st.floats(-5.0, 5.0),
        jerk=st.floats(-500.0, 500.0),
        v=st.floats(0.0, 6.0),
    )
    def test_range(self, a, steer, jerk, v):
        assert -1.0 <= comfort_reward(a, steer, jerk, v, CFG) <= 0.0


class TestTotalReward:
    def test_terminal_branch_reports_levels_but_totals_terminal(self):
        ctx = make_ctx(speed=6.0, prev_station=9.4, violations={"speeding"},
                       outcome=Outcome.COLLISION)
        b = total_reward(ctx, CFG)
        assert b.total == b.terminal == pytest.approx(-50.0)
        assert b.l0_rules == -1.0
        assert b.l1_progress == pytest.approx(1.0)

    def test_only_progress_active(self):
        ctx = make_ctx(station=10.6, prev_station=10.0, speed=4.0)
        b = total_reward(ctx, CFG)
        assert b.total == pytest.approx(1.0)

    def test_hand_computed_combination(self):
        # levels: l0 = -1, progress 0.5, risk -0.7, style -0.25, comfort -1/6
        expected = -1.0 + 1.0 * (0.5 - 0.7) + 0.25 * -0.25 + 0.0625 * (-1.0 / 6.0)
        w1, w2, w3 = (level_weight(i, CFG.beta) for i in (1, 2, 3))
        assert w1 == 1.0 and w2 == 0.25 and w3 == 0.0625
        assert expected == pytest.approx(-1.2729166666, abs=1e-9)

        ego = ActorState(position=[10.3, 0.0], heading=0.0, speed_long=2.0,
                         accel_long=4.0, kind=ActorKind.EGO_VEHICLE)
        # an obstacle placed so that the combined risk is exactly known is
        # fiddly; assemble the total from the reported levels instead
        ctx = make_ctx(station=10.3, prev_station=10.0, speed=2.0, accel=4.0,
                       violations={"speeding"})
        b = total_reward(ctx, CFG)
        assert b.total == pytest.approx(
            b.l0_rules
            + w1 * (b.l1_progress + b.l1_risk)
            + w2 * b.l2_style
            + w3 * b.l3_comfort,
            abs=1e-15,
        )
        assert b.l0_rules == -1.0
        assert b.l1_progress == pytest.approx(0.5)
        assert b.l2_style == pytest.approx(-0.25)
        assert b.l3_comfort == pytest.approx(-1.0 / 6.0)

    def test_timeout_step_contributes_zero(self):
        ctx = make_ctx(station=10.3, prev_station=10.0, outcome=Outcome.TIMEOUT)
        b = total_reward(ctx, CFG)
        assert b.total == 0.0
        assert b.terminal == 0.0
        assert b.l1_progress == pytest.approx(0.5)  # still reported

    def test_risk_enters_at_level_one_weight(self):
        obstacle = ActorState(position=[12.75, 0.0], heading=0.0, length=1.0, width=1.0,
                              kind=ActorKind.STATIC_OBSTACLE)
        ctx = make_ctx(station=10.0, prev_station=10.0, speed=0.0, others=[obstacle])
        b = total_reward(ctx, CFG)
        assert b.l1_risk < 0.0
        no_risk = total_reward(make_ctx(station=10.0, prev_station=10.0, speed=0.0), CFG)
        # style at v=0 is identical in both; the difference is exactly w1 * risk
        assert b.total - no_risk.total == pytest.approx(b.l1_risk, abs=1e-12)

    def test_monotone_in_progress(self):
        slow = total_reward(make_ctx(station=10.1, prev_station=10.0), CFG)
        fast = total_reward(make_ctx(station=10.5, prev_station=10.0), CFG)
        assert fast.total > slow.total

    def test_infinite_jerk_rejected(self):
        with pytest.raises(ContractError):
            make_ctx(jerk=math.inf)

    @given(seed=st.integers(0, 100_000))
    def test_levels_bounded_and_total_below_terminal_weight(self, seed):
        rng = np.random.default_rng(seed)
        others = [
            ActorState(
                position=rng.uniform(-20, 20, size=2), heading=float(rng.uniform(-math.pi, math.pi)),
                speed_long=float(rng.uniform(0, 6)),
            )
            for _ in range(int(rng.integers(0, 3)))
        ]
        ctx = make_ctx(
            station=float(rng.uniform(0, 50)),
            prev_station=float(rng.uniform(0, 50)),
            offset=float(rng.uniform(-4, 4)),
            speed=float(rng.uniform(0, 6)),
            accel=float(rng.uniform(-8, 6)),
            steering_rate=float(rng.uniform(-2, 2)),
            jerk=float(rng.uniform(-100, 100)),
            others=others,
            violations=frozenset({"speeding"}) if rng.random() < 0.5 else frozenset(),
        )
        b = total_reward(ctx, CFG)
        for level in (b.l1_progress,):
            assert -1.0 <= level <= 1.0
        for level in (b.l1_risk, b.l2_style, b.l3_comfort):
            assert -1.0 <= level <= 0.0
        assert b.l0_rules in (0.0, -1.0)
        assert abs(b.total) <= CFG.w_terminal

    @given(beta=st.floats(0.05, 0.95))
    def test_beta_rescales_but_never_flips_terms(self, beta):
        cfg = RewardConfig(beta=beta)
        ctx = make_ctx(station=10.2, prev_station=10.0, speed=2.0, accel=3.0,
                       violations={"speeding"})
        b = total_reward(ctx, cfg)
        assert b.l0_rules <= 0.0
        assert b.l1_progress > 0.0
        assert b.l2_style < 0.0
        assert b.l3_comfort < 0.0
        w2 = level_weight(2, beta)
        w3 = level_weight(3, beta)
        assert math.copysign(1.0, w2 * b.l2_style) == -1.0
        assert math.copysign(1.0, w3 * b.l3_comfort) == -1.0


# a config whose level divisors, weights and terminal values all differ from the default's
ODD_CONFIG = RewardConfig(beta=0.3, v_max=13.7, dt=0.05, v_desired=5.3, a_comfort_max=2.9,
                          kappa_max=0.37, w_vel=0.6, w_lane=0.4, w_terminal=7.0,
                          offset_threshold=0.2)
ANY_FLOAT = st.floats(allow_nan=False, allow_infinity=False)


def edge_or_any(*edges):
    """Each edge and its negation (so 0.0 and -0.0), or any finite float."""
    return st.sampled_from([v for edge in edges for v in (edge, -edge)]) | ANY_FLOAT


@st.composite
def level_steps(draw, config):
    """An episode's steps, each (ego, pose, prev_pose, lane_width, steering_rate, jerk,
    violations, outcome, risk term), at its levels' edges or anywhere: a progress of exactly
    +-v_max * dt, ratios of exactly 1, zeros of both signs, speeds under `STEER_SPEED_FLOOR`,
    speeding or not, and any outcome on the last step."""
    lane_width = draw(st.sampled_from([3.5]) | st.floats(1e-3, 1e6))
    steps = []
    for k in range(draw(st.integers(1, 6)), 0, -1):
        speed = draw(edge_or_any(0.0, 0.05, STEER_SPEED_FLOOR, config.v_desired,
                                 2.0 * config.v_desired, config.v_max))
        ego = ActorState(position=(0.0, 0.0), heading=0.0, speed_long=speed,
                         speed_lat=draw(st.sampled_from([0.0, -0.0]) | ANY_FLOAT),
                         accel_long=draw(edge_or_any(0.0, config.a_comfort_max)))
        prev = draw(edge_or_any(0.0, 10.0))
        station = draw(st.sampled_from([prev, prev + config.v_max * config.dt,
                                        prev - config.v_max * config.dt]) | ANY_FLOAT)
        offset = draw(edge_or_any(0.0, lane_width))
        steer_max = max(ego.speed, STEER_SPEED_FLOOR) * config.kappa_max
        steps.append((ego, RouteFramePose(station, offset, 0.0), RouteFramePose(prev, 0.0, 0.0),
                      lane_width, draw(edge_or_any(0.0, steer_max)),
                      draw(edge_or_any(0.0, config.a_comfort_max / config.dt)),
                      frozenset({"speeding"}) if draw(st.booleans()) else frozenset(),
                      draw(st.sampled_from(list(Outcome))) if k == 1 else Outcome.NONE,
                      draw(st.sampled_from([0.0, -0.0, -1.0]) | st.floats(-1.0, 0.0))))
    return steps


def levels_of(steps, config):
    """(terminal, l0, l1_progress, l2, l3, total) of `level_steps`-shaped steps in columns, as
    an episode scores them: `_ego_levels` of each step, as the ego track scores its rows,
    transposed, then one `_totals` call."""
    egos, poses, *_, outcomes, risks = zip(*steps)
    levels = [list(column) for column in zip(*(_ego_levels(*step[:7], config) for step in steps))]
    terminal, total = _totals(*levels, risks, outcomes[-1], egos[-1].speed,
                              poses[-1].lateral_offset, config)
    return terminal, *levels, total


def scored_alone(steps, config):
    """`levels_of` of each step alone, as `total_reward` scores it after its risk term."""
    alone = [levels_of([step], config) for step in steps]
    return tuple([column[0] for column in columns] for columns in zip(*alone))


@given(data=st.data(), config=st.sampled_from([CFG, ODD_CONFIG]))
def test_levels_have_the_bits_of_each_step_scored_alone(data, config):
    steps = data.draw(level_steps(config), label="steps")
    assert same_bits(levels_of(steps, config), scored_alone(steps, config))


def test_levels_keep_the_sign_of_a_zero_total():
    """A step at rest (every level 0, at the desired speed) for each sign of zero of its seven
    inputs: the total is 0.0 every time, a sign that random draws rarely reach."""
    steps = [(ActorState(position=(0.0, 0.0), heading=0.0, speed_long=CFG.v_desired,
                         accel_long=accel), RouteFramePose(station, offset, 0.0),
              RouteFramePose(prev, 0.0, 0.0), 3.5, rate, jerk, frozenset(), Outcome.NONE, risk)
             for station, prev, offset, accel, rate, jerk, risk
             in itertools.product((0.0, -0.0), repeat=7)]
    expected = scored_alone(steps, CFG)[5]
    total = levels_of(steps, CFG)[5]
    assert same_bits(total, expected) and {math.copysign(1.0, t) for t in total} == {1.0}


SPECIAL_FLOATS = (0.0, -0.0, math.inf, -math.inf, math.nan)


def at_edges(neutral, *edges):
    """`neutral`, the special floats, then each clamp edge, its negation and the floats on
    either side of both."""
    return (neutral, *SPECIAL_FLOATS, *(x for edge in edges for v in (edge, -edge)
                                        for x in (math.nextafter(v, -math.inf), v,
                                                  math.nextafter(v, math.inf))))


def edge_examples(edges_of):
    """`example`s of a test given `config` and float inputs: for each config, each input at
    each of its values in `edges_of(config)` (a name -> `at_edges` map), the others neutral."""
    def wrap(test):
        for config in (CFG, ODD_CONFIG):
            edges = edges_of(config)
            neutral = {name: values[0] for name, values in edges.items()}
            for name, values in edges.items():
                for value in values:
                    test = example(config=config, **neutral | {name: value})(test)
        return test
    return wrap


def assert_same_result(function, oracle, *args):
    """Both calls give the same bits, or both raise the same `ContractError`."""
    try:
        expected = oracle(*args)
    except ContractError as error:
        with pytest.raises(ContractError, match=f"^{re.escape(str(error))}$"):
            function(*args)
    else:
        assert same_bits(function(*args), expected)


CONFIGS = st.sampled_from([CFG, ODD_CONFIG])


class TestClampsAsComparisons:
    """The objectives clamp by comparisons; each keeps the bits of its `min`/`max` form in
    `oracles` for every float, NaN, infinities, both zeros and the clamp edges included."""

    @given(config=CONFIGS, station=st.floats(), prev_station=st.floats())
    @edge_examples(lambda c: dict.fromkeys(("station", "prev_station"),
                                           at_edges(0.0, c.v_max * c.dt)))
    def test_progress_reward(self, config, station, prev_station):
        assert_same_result(progress_reward, oracles.progress_reward, station, prev_station,
                           config)

    @given(config=CONFIGS, v=st.floats(), offset=st.floats(), lane_width=st.floats())
    @edge_examples(lambda c: {"v": at_edges(c.v_desired, 2.0 * c.v_desired),
                              "offset": at_edges(0.0, 3.5), "lane_width": at_edges(3.5, 3.5)})
    def test_driving_style_reward(self, config, v, offset, lane_width):
        assert_same_result(driving_style_reward, oracles.driving_style_reward, v, offset,
                           lane_width, config)

    @given(config=CONFIGS, accel=st.floats(), steering_rate=st.floats(), jerk=st.floats(),
           v=st.floats())
    @edge_examples(lambda c: {"accel": at_edges(0.0, c.a_comfort_max),
                              "steering_rate": at_edges(0.0, c.kappa_max,
                                                        STEER_SPEED_FLOOR * c.kappa_max),
                              "jerk": at_edges(0.0, c.a_comfort_max / c.dt),
                              "v": at_edges(1.0, STEER_SPEED_FLOOR)})
    def test_comfort_reward(self, config, accel, steering_rate, jerk, v):
        assert_same_result(comfort_reward, oracles.comfort_reward, accel, steering_rate, jerk, v,
                           config)


def extreme_context(every_level):
    """A non-colliding step whose levels sit at their lower ends.

    The ego drives at heading pi, one metre backwards along the route, with a
    rule violated and an NPC inside its clearance box; with `every_level` its
    style and comfort terms are saturated too.
    """
    speed, offset, accel = (10.0, 3.5, -20.0) if every_level else (6.0, 0.0, 0.0)
    harsh = dict(steering_rate=5.0, jerk=1000.0) if every_level else {}
    ego = ActorState(position=(0.0, 0.0), heading=math.pi, speed_long=speed, accel_long=accel,
                     kind=ActorKind.EGO_VEHICLE)
    npc = ActorState(position=(-4.4, 1.7), heading=math.pi + 0.5)
    return StepContext(
        ego=ego,
        pose=RouteFramePose(station=10.0, lateral_offset=offset, heading_error=0.0),
        prev_pose=RouteFramePose(station=11.0, lateral_offset=offset, heading_error=0.0),
        others=(npc,), lane_width=3.5, violations=frozenset({"speeding"}), **harsh,
    )


EXTREME_CASES = [(False, -0.25, 0.0, -3.0625), (True, -1.0, -1.0, -3.3125)]


class TestAdversarialLevels:
    """Every level at its extreme at once, which random contexts never draw."""

    @pytest.mark.parametrize("every_level, l2, l3, total", EXTREME_CASES,
                             ids=["style_and_comfort_mild", "every_level"])
    def test_levels_at_their_extremes(self, every_level, l2, l3, total):
        ctx = extreme_context(every_level)
        assert not detect_collision(ctx.ego, ctx.others)
        b = total_reward(ctx, CFG)
        assert (b.l0_rules, b.l1_progress, b.l1_risk) == (-1.0, -1.0, -1.0)
        assert (b.l2_style, b.l3_comfort, b.total) == (l2, l3, total)

    @pytest.mark.xfail(strict=True, reason=(
        "ROADMAP item 1: the criterion-6 bound 2 + beta + beta^2 is not a bound of "
        "total_reward, whose level 1 sums two terms in [-1, 1]; the contract is not settled"))
    @pytest.mark.parametrize("every_level", [False, True], ids=["style_and_comfort_mild",
                                                                "every_level"])
    def test_total_within_the_criterion_6_bound(self, every_level):
        bound = 1.0 + CFG.beta + CFG.beta ** 2 + 1.0  # as tests/test_acceptance.py states it
        assert abs(total_reward(extreme_context(every_level), CFG).total) <= bound + 1e-12


@pytest.fixture(scope="module")
def criterion_7_episodes():
    """(outcome, return) of each built-in policy's 60 criterion-7 episodes, in sweep order."""
    scenario = load_scenario(Path(__file__).resolve().parent.parent / "scenarios" /
                             "intersection.json")
    seeds = [(density, _episode_seed(7, d, episode))
             for d, density in enumerate((0.5, 0.75, 1.0)) for episode in range(20)]
    episodes = {}
    for name in ("idle", "lane_follower", "full_throttle"):
        traces = (run_episode(scenario, build_policy(name, CFG), CFG, *seed) for seed in seeds)
        episodes[name] = [(trace.outcome, trace.cumulative_reward) for trace in traces]
    return episodes


class TestSanityChecks:
    """Knox et al.'s sanity checks for driving rewards, on the criterion-7 episodes."""

    @pytest.mark.xfail(strict=True, reason=(
        "ROADMAP item 9: a waiting ego pays style penalties every step while a collision "
        "terminal is bounded, so every criterion-7 collision out-returns idling on its seed; "
        "Knox et al. (arXiv:2104.13906) require the return not to prefer a crash"))
    def test_no_collision_out_returns_idling(self, criterion_7_episodes):
        idle = [reward for _, reward in criterion_7_episodes["idle"]]
        for name in ("lane_follower", "full_throttle"):
            for (outcome, reward), waiting in zip(criterion_7_episodes[name], idle):
                assert outcome is not Outcome.COLLISION or reward <= waiting


ELLIPSE = {"c_x": 0.0, "c_y": 0.0, "r_x": 1.0, "r_y": 1.0, "p_x": 2, "p_y": 2, "p_outer": 2}


class TestContractGuards:
    @pytest.mark.parametrize("call", [
        lambda: make_ctx(steering_rate="x"),
        lambda: make_ctx(jerk=True),
        lambda: make_ctx(lane_width="3.5"),
        lambda: make_ctx(lane_width=math.nan),
        lambda: EllipseParams(0, 0, "1", 1, 2, 2, 2),
        lambda: EllipseParams(**(ELLIPSE | {"r_x": True})),
        lambda: EllipseParams(**(ELLIPSE | {"c_y": True})),
        lambda: EllipseParams(**(ELLIPSE | {"r_y": math.inf})),
        lambda: driving_style_reward(1.0, 0.5, math.nan, CFG),
        lambda: leading_clearance(1.0, 1.0, "vertical", CFG),
    ], ids=["steering_rate-string", "jerk-boolean", "lane_width-string", "lane_width-nan",
            "radius-string", "radius-boolean", "centre-boolean", "radius-inf",
            "style-lane_width-nan", "clearance-axis"])
    def test_bad_argument_raises_contract_error(self, call):
        with pytest.raises(ContractError):
            call()
