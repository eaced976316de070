"""The brute-force TTC oracle and the bit comparison of `oracles.py`."""

import math

import numpy as np
import pytest

from oracles import brute_force_ttc, same_bits
from riskrl import ActorState, ContractError, InteractionMode, RiskAssessment


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
