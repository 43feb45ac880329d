"""Focused tests for WildPolicy internals (percentile binning, state)."""

import numpy as np
import pytest

from repro.sota.wild import WildPolicy
from repro.traces.schema import FunctionSpec, Trace


def bound_policy(gpt, **kw):
    trace = Trace(
        counts=np.zeros((1, 100), dtype=np.int64),
        functions=(FunctionSpec(0, "f0"),),
    )
    p = WildPolicy(**kw)
    p.bind(trace, {0: gpt}, 240)
    return p


class TestPercentileBin:
    def test_point_mass(self, gpt):
        p = bound_policy(gpt)
        counts = np.zeros(240, dtype=np.int64)
        counts[19] = 10  # all idle times equal 20 minutes
        assert p._percentile_bins(counts, 5) == [20]
        assert p._percentile_bins(counts, 99) == [20]

    def test_two_modes(self, gpt):
        p = bound_policy(gpt)
        counts = np.zeros(240, dtype=np.int64)
        counts[4] = 50  # idle time 5
        counts[59] = 50  # idle time 60
        assert p._percentile_bins(counts, 5) == [5]
        assert p._percentile_bins(counts, 99) == [60]
        assert p._percentile_bins(counts, 50) == [5]

    def test_uniform_distribution(self, gpt):
        p = bound_policy(gpt)
        counts = np.ones(100, dtype=np.int64)
        assert p._percentile_bins(counts, 50) == [50]
        assert p._percentile_bins(counts, 99) == [99]


class TestStateTracking:
    def test_oob_counting(self, gpt):
        p = bound_policy(gpt, histogram_range=30, min_samples=2)
        p.observe_invocation(0, 0, 1)
        p.observe_invocation(0, 10, 1)  # in range
        p.observe_invocation(0, 100, 1)  # 90 min: out of range
        s = p._state[0]
        assert s.n_in_range == 1
        assert s.n_oob == 1

    def test_same_minute_reinvocation_no_gap(self, gpt):
        p = bound_policy(gpt)
        p.observe_invocation(0, 5, 3)
        p.observe_invocation(0, 5, 2)
        assert p._state[0].n_total == 0

    def test_plan_length_matches_capacity(self, gpt):
        p = bound_policy(gpt)
        p.observe_invocation(0, 0, 1)
        plan = p.plan(0, 0)
        assert len(plan) == 240

    def test_not_an_oracle(self):
        assert WildPolicy().is_oracle is False
