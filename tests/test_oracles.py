"""The brute-force TTC oracle, the bit comparison and the episode replay of `oracles.py`."""

import dataclasses
import math
import struct
from pathlib import Path

import numpy as np
import pytest

from oracles import brute_force_ttc, collision_checks, matches_replay, same_bits
from riskrl import (
    ActorState, ContractError, InteractionMode, Outcome, RewardBreakdown, RewardConfig,
    RiskAssessment, load_scenario, run_episode,
)
from riskrl.sim import build_policy

CFG = RewardConfig()
SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"


class TestBruteForceTtc:
    def test_head_on_case(self):
        size = 2.0 * math.sqrt(2.0)
        a = ActorState(position=[0, 0], heading=0.0, speed_long=5.0, length=size, width=size)
        b = ActorState(position=[20, 0], heading=math.pi, speed_long=5.0, length=size, width=size)
        assert brute_force_ttc(a, b, dt_fine=1e-4) == pytest.approx(1.6, abs=1e-4 + 1e-12)

    def test_diverging_actors(self):
        a = ActorState(position=[0, 0], heading=math.pi, speed_long=3.0)
        b = ActorState(position=[20, 0], heading=0.0, speed_long=3.0)
        assert brute_force_ttc(a, b, dt_fine=1e-3) == math.inf

    def test_overlap_at_start(self):
        a = ActorState(position=[0, 0], heading=0.0, speed_long=1.0)
        b = ActorState(position=[1, 0], heading=0.0, speed_long=0.5)
        assert brute_force_ttc(a, b, dt_fine=1e-3) == 0.0

    def test_requires_fine_step(self):
        a = ActorState(position=[0, 0], heading=0.0)
        b = ActorState(position=[30, 0], heading=0.0)
        with pytest.raises(ContractError):
            brute_force_ttc(a, b, dt_fine=0.01)

    @pytest.mark.parametrize("horizon", [-1.0, math.nan, math.inf])
    def test_rejects_a_bad_horizon(self, horizon):
        a = ActorState(position=[0, 0], heading=0.0)
        b = ActorState(position=[30, 0], heading=0.0)
        with pytest.raises(ContractError, match="horizon"):
            brute_force_ttc(a, b, dt_fine=1e-3, horizon=horizon)


class TestSameBits:
    def test_signed_zeros_and_nan(self):
        assert same_bits(math.nan, math.nan) and same_bits(-0.0, -0.0)
        assert not same_bits(-0.0, 0.0) and -0.0 == 0.0  # where == would miss it
        assert not same_bits(1.0, 1.0 + 2.0 ** -52)

    def test_recurses_through_tuples_lists_and_dataclasses(self):
        a = RiskAssessment(InteractionMode.INTERSECTING, 0.5, 0.25, 0.375, math.inf)
        b = RiskAssessment(InteractionMode.INTERSECTING, 0.5, -0.0, 0.375, math.inf)
        c = RiskAssessment(InteractionMode.INTERSECTING, 0.5, 0.0, 0.375, math.inf)
        assert same_bits([(0.0, (a,))], [(0.0, (a,))])
        assert not same_bits((b,), (c,)) and b == c
        assert not same_bits((a,), [a]) and not same_bits((a, a), (a,))

    def test_a_float_matches_only_its_own_type(self):
        assert not same_bits(1.0, 1) and not same_bits(1.0, np.float64(1.0))
        assert same_bits(np.float64(1.0), np.float64(1.0))


def flip_last_bit(value: float) -> float:
    (bits,) = struct.unpack("<q", struct.pack("<d", value))
    return struct.unpack("<d", struct.pack("<q", bits ^ 1))[0]


@pytest.fixture(scope="module")
def episode():
    """A seed-3 `intersection.json` episode at density 1.0: (scenario, trace, checked actors)."""
    scenario = load_scenario(SCENARIOS / "intersection.json")
    with collision_checks() as checked:
        trace = run_episode(scenario, build_policy("lane_follower", CFG), CFG, 1.0, 3)
    return scenario, trace, checked


def with_record(trace, k, **changes):
    records = list(trace.records)
    records[k] = dataclasses.replace(records[k], **changes)
    return dataclasses.replace(trace, records=tuple(records))


class TestMatchesReplay:
    def test_a_run_matches_its_replay(self, episode):
        scenario, trace, checked = episode
        assert len(trace.records) > 10 and any(checked)
        assert matches_replay(trace, scenario, CFG, 1.0, 3, checked)

    @pytest.mark.parametrize("field", [f.name for f in dataclasses.fields(RewardBreakdown)
                                       if f.type == "float"])
    def test_one_breakdown_bit_flipped_fails(self, episode, field):
        scenario, trace, checked = episode
        k = len(trace.records) // 2
        breakdown = trace.records[k].breakdown
        flipped = dataclasses.replace(breakdown,
                                      **{field: flip_last_bit(getattr(breakdown, field))})
        assert not matches_replay(with_record(trace, k, breakdown=flipped), scenario, CFG, 1.0, 3,
                                  checked)

    def test_a_wrong_outcome_fails(self, episode):
        scenario, trace, checked = episode
        wrong = Outcome.TIMEOUT if trace.outcome is not Outcome.TIMEOUT else Outcome.SUCCESS
        assert not matches_replay(dataclasses.replace(trace, outcome=wrong), scenario, CFG, 1.0, 3)
        last = len(trace.records) - 1
        assert not matches_replay(with_record(trace, last, outcome=wrong), scenario, CFG, 1.0, 3)
        assert not matches_replay(with_record(trace, 0, outcome=wrong), scenario, CFG, 1.0, 3)

    def test_other_actors_than_the_run_checked_fail(self, episode):
        scenario, trace, checked = episode
        assert not matches_replay(trace, scenario, CFG, 1.0, 3, checked[:-1] + checked[-2:-1])
