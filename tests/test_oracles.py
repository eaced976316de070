"""The brute-force TTC oracle of `oracles.py`."""

import math

import pytest

from oracles import brute_force_ttc
from riskrl import ActorState, ContractError


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
