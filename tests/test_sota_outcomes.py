"""Pinned outcomes of the long keep-alive-window policies (Figure 8).

The engine goldens compare engines with each other, and both engines run
the same policy code, so a change inside Wild, IceBreaker or their PULSE
integrations would move both sides alike and pass them. These values pin
the policies themselves: the summary of each run on the paper's trace
(one day, seed 2024) under two seeded assignments, compared exactly.
"""

from __future__ import annotations

import pytest

from repro.api import simulate
from repro.experiments.assignments import sample_assignment
from repro.traces.synthetic import SyntheticTraceConfig, generate_trace

_ZERO_FAULTS = {
    "n_forced_downgrades": 0.0,
    "n_spawn_failures": 0.0,
    "n_retries": 0.0,
    "n_policy_faults": 0.0,
    "n_degraded_minutes": 0.0,
}


def _summary(policy, warm_fraction, service_time_s, cost_usd, accuracy):
    return {
        "policy": policy,
        "invocations": 3867.0,
        "warm_fraction": warm_fraction,
        "service_time_s": service_time_s,
        "keepalive_cost_usd": cost_usd,
        "accuracy_percent": accuracy,
        **_ZERO_FAULTS,
    }


PINNED = {
    (7, "wild"): _summary(
        "Wild", 0.9787949314714248, 18138.889169533493,
        24.460134471763386, 78.49900956814172,
    ),
    (7, "icebreaker"): _summary(
        "IceBreaker", 0.8368244116886475, 25408.271942043448,
        8.950895485441023, 78.49900956814172,
    ),
    (7, "wild+pulse"): _summary(
        "Wild+PULSE", 0.9555210757693302, 16267.491548487968,
        8.457316466392616, 76.72219550038831,
    ),
    (7, "icebreaker+pulse"): _summary(
        "IceBreaker+PULSE", 0.8295836565813292, 23780.22268775686,
        3.8002304862801166, 77.31780449961275,
    ),
    (11, "wild"): _summary(
        "Wild", 0.9787949314714248, 30333.8659687834,
        21.82669472182627, 81.62854409102746,
    ),
    (11, "icebreaker"): _summary(
        "IceBreaker", 0.8368244116886475, 33592.524677630696,
        11.456636737433946, 81.62854409102746,
    ),
    (11, "wild+pulse"): _summary(
        "Wild+PULSE", 0.9570726661494698, 27644.773610807824,
        11.477646637156985, 80.10506335660689,
    ),
    (11, "icebreaker+pulse"): _summary(
        "IceBreaker+PULSE", 0.830618050168089, 29371.303950378577,
        5.919730467399525, 80.49162658391498,
    ),
}


@pytest.fixture(scope="module")
def paper_day():
    return generate_trace(SyntheticTraceConfig(horizon_minutes=1440, seed=2024))


@pytest.mark.parametrize("seed, policy", sorted(PINNED))
def test_summary_matches_pinned(paper_day, seed, policy):
    assignment = sample_assignment(paper_day.n_functions, seed=seed)
    summary = simulate(paper_day, assignment=assignment, policy=policy).summary()
    del summary["wall_clock_s"], summary["overhead_s"]
    assert summary == PINNED[(seed, policy)]
