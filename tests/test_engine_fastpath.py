"""Golden equivalence: the event-driven fast path vs the reference loop.

The fast engine (:mod:`repro.runtime.fastpath`) must produce *bit-identical*
metrics to the reference minute loop — not approximately equal: both loops
accumulate the same floats in the same order over the shared incremental
ledger, so any drift is a bug. The matrix below crosses every bundled
policy family with the engine features that change the fast path's shape
(event log, container pool, capacity valve, series recording).

Also home to the property test for :class:`KeepAliveSchedule`'s
incremental memory ledger: after any write sequence, ``memory_at`` must
match a from-scratch recomputation over the entry maps.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines.openwhisk import FixedKeepAlivePolicy, OpenWhiskPolicy
from repro.baselines.static import (
    AllLowQualityPolicy,
    IntelligentOraclePolicy,
    RandomMixedPolicy,
)
from repro.core.pulse import PulsePolicy
from repro.milp.policy import MilpPolicy
from repro.models.zoo import default_zoo
from repro.runtime.schedule import KeepAliveSchedule
from repro.runtime.simulator import Simulation, SimulationConfig
from repro.sota.icebreaker import IceBreakerPolicy
from repro.sota.integration import PulseIntegratedPolicy
from repro.sota.wild import WildPolicy

POLICIES = {
    "openwhisk": OpenWhiskPolicy,
    "fixed-lowest": AllLowQualityPolicy,
    "fixed-level-1": lambda: FixedKeepAlivePolicy(level=1),
    "random-mixed": lambda: RandomMixedPolicy(seed=3),
    "oracle": IntelligentOraclePolicy,
    "pulse": PulsePolicy,
    "wild": WildPolicy,
    "icebreaker": IceBreakerPolicy,
    "integrated-wild": lambda: PulseIntegratedPolicy(WildPolicy()),
}


def both_engines(trace, assignment, factory, cfg):
    ref = Simulation(trace, assignment, factory(), cfg).run(engine="reference")
    fast = Simulation(trace, assignment, factory(), cfg).run(engine="fast")
    return ref, fast


def assert_identical(ref, fast):
    """Every deterministic RunResult field matches exactly (wall clock and
    overhead instrumentation excluded by design)."""
    assert fast.policy_name == ref.policy_name
    assert fast.n_invocations == ref.n_invocations
    assert fast.n_warm == ref.n_warm
    assert fast.n_cold == ref.n_cold
    assert fast.n_forced_downgrades == ref.n_forced_downgrades
    assert fast.n_spawn_failures == ref.n_spawn_failures
    assert fast.n_retries == ref.n_retries
    assert fast.n_policy_faults == ref.n_policy_faults
    assert fast.n_degraded_minutes == ref.n_degraded_minutes
    assert fast.total_service_time_s == ref.total_service_time_s
    assert fast.keepalive_cost_usd == ref.keepalive_cost_usd
    assert fast.mean_accuracy == ref.mean_accuracy
    for a, b in (
        (ref.memory_series_mb, fast.memory_series_mb),
        (ref.ideal_memory_series_mb, fast.ideal_memory_series_mb),
    ):
        assert (a is None) == (b is None)
        if a is not None:
            np.testing.assert_array_equal(a, b)
    assert (ref.pool_stats is None) == (fast.pool_stats is None)
    if ref.pool_stats is not None:
        assert fast.pool_stats == ref.pool_stats
    assert (ref.events is None) == (fast.events is None)
    if ref.events is not None:
        assert list(fast.events) == list(ref.events)


class TestGoldenEquivalence:
    @pytest.mark.parametrize("name", sorted(POLICIES))
    def test_default_config(self, small_trace, assignment, name):
        cfg = SimulationConfig()  # series + container pool on
        assert_identical(
            *both_engines(small_trace, assignment, POLICIES[name], cfg)
        )

    @pytest.mark.parametrize("name", ["openwhisk", "pulse", "random-mixed"])
    def test_lean_config(self, small_trace, assignment, name):
        cfg = SimulationConfig(record_series=False, track_containers=False)
        assert_identical(
            *both_engines(small_trace, assignment, POLICIES[name], cfg)
        )

    @pytest.mark.parametrize("name", ["openwhisk", "pulse"])
    def test_event_log(self, small_trace, assignment, name):
        cfg = SimulationConfig(record_events=True)
        assert_identical(
            *both_engines(small_trace, assignment, POLICIES[name], cfg)
        )

    @pytest.mark.parametrize("name", ["openwhisk", "pulse", "oracle"])
    def test_capacity_valve(self, small_trace, assignment, name):
        # Tight enough that the valve fires (forces random downgrades, so
        # this also pins the shared capacity_seed RNG stream).
        cfg = SimulationConfig(memory_capacity_mb=4000.0, capacity_seed=11)
        ref, fast = both_engines(small_trace, assignment, POLICIES[name], cfg)
        assert ref.n_forced_downgrades > 0  # the axis is actually exercised
        assert_identical(ref, fast)

    def test_capacity_and_events_together(self, small_trace, assignment):
        cfg = SimulationConfig(
            record_events=True, memory_capacity_mb=4000.0, capacity_seed=11
        )
        assert_identical(
            *both_engines(small_trace, assignment, POLICIES["pulse"], cfg)
        )

    def test_milp_policy(self, tiny_trace, tiny_assignment):
        cfg = SimulationConfig()
        assert_identical(
            *both_engines(tiny_trace, tiny_assignment, MilpPolicy, cfg)
        )

    def test_tiny_trace_all_policies(self, tiny_trace, tiny_assignment):
        cfg = SimulationConfig(record_events=True)
        for name, factory in POLICIES.items():
            assert_identical(
                *both_engines(tiny_trace, tiny_assignment, factory, cfg)
            )

    def test_measure_overhead_stays_on_reference(self, tiny_trace, tiny_assignment):
        # Figure 9's overhead metric needs the per-minute cadence: "auto"
        # must resolve to the reference loop, and asking for "fast"
        # outright is a contradiction the engine refuses.
        cfg = SimulationConfig(measure_overhead=True)
        ref = Simulation(
            tiny_trace, tiny_assignment, PulsePolicy(), cfg
        ).run(engine="reference")
        auto = Simulation(
            tiny_trace, tiny_assignment, PulsePolicy(), cfg
        ).run(engine="auto")
        assert auto.n_policy_decisions == ref.n_policy_decisions > 0
        with pytest.raises(ValueError, match="measure_overhead"):
            Simulation(
                tiny_trace, tiny_assignment, PulsePolicy(), cfg
            ).run(engine="fast")

    def test_unknown_engine_rejected(self, tiny_trace, tiny_assignment):
        with pytest.raises(ValueError, match="engine"):
            Simulation(
                tiny_trace, tiny_assignment, PulsePolicy(), SimulationConfig()
            ).run(engine="warp")


# -- incremental ledger property test ------------------------------------

_FAMILIES = list(default_zoo())
_N_FN = 3
_HORIZON = 64


@st.composite
def _ops(draw):
    n = draw(st.integers(min_value=1, max_value=40))
    ops = []
    for _ in range(n):
        kind = draw(st.sampled_from(["mark", "plan", "clear", "downgrade", "advance"]))
        fid = draw(st.integers(min_value=0, max_value=_N_FN - 1))
        minute = draw(st.integers(min_value=0, max_value=_HORIZON - 12))
        level = draw(st.integers(min_value=0, max_value=2))
        ops.append((kind, fid, minute, level))
    return ops


def _variant(fid, level):
    family = _FAMILIES[fid % len(_FAMILIES)]
    return family.variant(min(level, family.n_variants - 1))


@given(_ops())
@settings(max_examples=60, deadline=None)
def test_incremental_ledger_matches_recomputation(ops):
    schedule = KeepAliveSchedule(_N_FN, keep_alive_window=10)
    frontier = 0
    for kind, fid, minute, level in ops:
        minute = max(minute, frontier)  # writes behind the frontier are UB
        if kind == "mark":
            schedule.mark_alive(fid, minute, _variant(fid, level))
        elif kind == "plan":
            plan = [
                _variant(fid, level) if (minute + off) % 3 else None
                for off in range(1, 11)
            ]
            schedule.set_plan(fid, minute, plan)
        elif kind == "clear":
            schedule.clear(fid, minute)
        elif kind == "downgrade":
            schedule.downgrade(
                fid, minute, _FAMILIES[fid % len(_FAMILIES)], allow_drop=level != 0
            )
        else:
            schedule.advance(minute)
            frontier = max(frontier, minute)
    for m in range(_HORIZON + 12):
        incremental = schedule.memory_at(m)
        exact = schedule.recompute_memory_at(m)
        assert incremental == pytest.approx(exact, abs=1e-6)
        if exact == 0.0:
            assert incremental == 0.0  # empty minutes are exactly zero


@given(_ops())
@settings(max_examples=30, deadline=None)
def test_memory_vector_matches_per_minute_reads(ops):
    schedule = KeepAliveSchedule(_N_FN, keep_alive_window=10)
    for kind, fid, minute, level in ops:
        if kind in ("mark", "clear"):
            if kind == "mark":
                schedule.mark_alive(fid, minute, _variant(fid, level))
            else:
                schedule.clear(fid, minute)
        elif kind == "plan":
            schedule.set_plan(fid, minute, [_variant(fid, level)] * 10)
    sliced = schedule.memory_slice(0, _HORIZON)  # grows the ledger to cover it
    vec = schedule.memory_vector
    for m in range(len(vec)):
        assert vec[m] == schedule.memory_at(m)
    assert sliced == list(vec[:_HORIZON])


# -- bounded entry maps ----------------------------------------------------


@pytest.mark.parametrize("policy", ["pulse", "wild+pulse"])
def test_fast_session_forgets_past_entries(policy):
    """The fast engine forgets past entries once per keep-alive window:
    over three simulated days no entry map holds more than two windows
    (one planned ahead, at most one behind), and the session's result
    still matches the batch run bit for bit."""
    from repro.api import simulate
    from repro.experiments.assignments import sample_assignment
    from repro.serve.session import open_session
    from repro.traces.synthetic import SyntheticTraceConfig, generate_trace

    trace = generate_trace(SyntheticTraceConfig(horizon_minutes=3 * 1440, seed=7))
    assignment = sample_assignment(trace.n_functions, seed=3)
    session = open_session(
        trace, policy=policy, assignment=assignment, engine="fast"
    )
    schedule = session.stepper.schedule
    window = schedule.keep_alive_window
    peak = 0
    for _ in range(trace.horizon):
        session.advance()
        peak = max(peak, max(len(e) for e in schedule._entries))
    assert peak <= 2 * (window + 1)
    # Forgotten minutes leave the ledger's dirty set too.
    assert len(schedule._dirty) <= 2 * (window + 1)
    batch = simulate(trace, assignment=assignment, policy=policy, engine="fast")
    assert_identical(batch, session.result())
