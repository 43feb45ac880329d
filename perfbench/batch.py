"""The batch workloads, ``fleet-10k`` and ``paper-12``.

Each run generates a seeded synthetic trace (set-up), then repeats
*passes* until the measuring time is used up. A pass runs every policy
of the workload once through :func:`repro.api.simulate`, then drives the
same PULSE run minute by minute through the public session API
(:func:`repro.serve.session.open_session`) to time single advances.
Every timed unit is scaled to reference machine speed by a calibration
taken right before it (see :mod:`calibration`).
"""

from __future__ import annotations

import resource
import statistics
from collections import defaultdict
from dataclasses import dataclass
from time import perf_counter

from outcome import Outcome, geomean, result_digest
from calibration import speed_factor
from catalogue import SELF_LAYERS
from tracing import (
    Tracer,
    highest_supported_percentile,
    outermost_time,
    self_time_by_name,
    tail,
)

from repro.api import simulate
from repro.experiments.assignments import sample_assignment
from repro.runtime.simulator import SimulationConfig
from repro.serve.session import open_session
from repro.traces.synthetic import SyntheticTraceConfig, generate_trace

#: Set-up is repeated at least this many times per run, and more while
#: the repeats have taken under ``SETUP_MIN_S`` (a 12-function trace takes
#: milliseconds); the median is reported.
SETUPS = 3
SETUP_MIN_S = 0.5
#: Calibration samples (about 9 ms each) before and after each timed
#: unit; one sample is as noisy as the drift it corrects.
CALIBRATION_SAMPLES = 3
#: The minute-by-minute drive calibrates again after this many seconds.
RECALIBRATE_S = 0.5


@dataclass(frozen=True)
class BatchWorkload:
    name: str
    n_functions: int | None  # None: the paper's 12-function mix
    horizon: int
    trace_seed: int | None  # None: the run's seed; else a fixed trace
    n_assignments: int  # passes cycle through this many seeded assignments
    policies: tuple[str, ...]
    engine: str | None  # None: simulate's default engine
    config: SimulationConfig | None  # None: the default SimulationConfig
    tail_q: int  # the advance-latency tail percentile it reports


FLEET_10K = BatchWorkload(
    name="fleet-10k",
    n_functions=10_000,
    horizon=120,
    trace_seed=None,
    n_assignments=1,
    policies=("pulse", "openwhisk"),
    engine="fleet",
    config=SimulationConfig(record_series=False, track_containers=False),
    # 120 advances per pass and at least two passes per run.
    tail_q=95,
)

PAPER_12 = BatchWorkload(
    name="paper-12",
    n_functions=None,
    # One day, not the paper's fourteen: one pass of all five policies
    # then takes ~3 s instead of ~33 s, so a run holds several passes.
    horizon=1440,
    # The paper's fixed trace (ExperimentConfig's seed), with the run's
    # seed drawing the model assignments, as the paper's repeated runs
    # do. The cost of a PULSE run differs by 15-20% between 12-function
    # traces and between assignments, so a run cycles through several.
    trace_seed=2024,
    n_assignments=4,
    policies=("openwhisk", "pulse", "wild", "icebreaker", "wild+pulse"),
    engine=None,
    config=None,
    tail_q=99,
)


def metric_key(policy: str) -> str:
    """Metric names allow no '+': ``wild+pulse`` reports as ``wild-pulse``."""
    return policy.replace("+", "-")


def _engine_kwargs(w: BatchWorkload) -> dict:
    kw: dict = {}
    if w.engine is not None:
        kw["engine"] = w.engine
    if w.config is not None:
        kw["config"] = w.config
    return kw


def make_inputs(w: BatchWorkload, seed: int, tracer: Tracer | None = None):
    """The run's trace and assignments, made from ``seed`` alone."""
    cfg = SyntheticTraceConfig(
        horizon_minutes=w.horizon,
        seed=seed if w.trace_seed is None else w.trace_seed,
        n_functions=w.n_functions,
    )
    if tracer is None:
        trace = generate_trace(cfg)
    else:
        with tracer.span("traces.generate"):
            trace = generate_trace(cfg)
    return trace, [
        sample_assignment(trace.n_functions, seed=seed * 100 + i)
        for i in range(w.n_assignments)
    ]


class _Pass:
    """Timings and digests of one pass."""

    def __init__(self) -> None:
        self.wall: dict[str, float] = {}  # at reference speed
        self.raw_wall: dict[str, float] = {}  # as timed
        self.digest: dict[str, str] = {}
        self.warm_share: dict[str, float] = {}
        self.advance_s: list[float] = []
        self.spans: dict[str, list] = {}
        self.downgrades = 0
        self.assignment = 0  # index into the run's assignments


def run_pass(w, trace, assignment, out: Outcome, tracer=None) -> _Pass:
    """Every policy through simulate(); untraced passes then also drive
    PULSE one advance at a time."""
    kw = _engine_kwargs(w)
    total = trace.total_invocations()
    p = _Pass()
    for policy in w.policies:
        before = speed_factor(CALIBRATION_SAMPLES)
        t0 = perf_counter()
        result = simulate(trace, assignment=assignment, policy=policy, **kw)
        p.raw_wall[policy] = perf_counter() - t0
        factor = (before + speed_factor(CALIBRATION_SAMPLES)) / 2
        p.wall[policy] = p.raw_wall[policy] * factor
        out.attempted += 1
        if tracer is not None:
            p.spans[policy] = tracer.take()
        out.check(
            result.n_invocations == total,
            f"{policy}: {result.n_invocations} invocations served, "
            f"trace holds {total}",
        )
        out.check(
            result.n_warm + result.n_cold == result.n_invocations,
            f"{policy}: warm {result.n_warm} + cold {result.n_cold} "
            f"!= {result.n_invocations}",
        )
        p.digest[policy] = result_digest(result)
        p.warm_share[policy] = result.n_warm / result.n_invocations
    if tracer is not None:
        return p
    session = open_session(
        trace, policy="pulse", assignment=assignment, **kw
    )
    calibrated = perf_counter()
    factor = speed_factor(CALIBRATION_SAMPLES)
    for _ in range(trace.horizon):
        if perf_counter() - calibrated > RECALIBRATE_S:
            calibrated = perf_counter()
            factor = speed_factor(CALIBRATION_SAMPLES)
        t0 = perf_counter()
        session.advance()
        p.advance_s.append((perf_counter() - t0) * factor)
    out.attempted += trace.horizon
    out.check(
        result_digest(session.result()) == p.digest["pulse"],
        "pulse: minute-by-minute session result differs from simulate()",
    )
    return p


def measure(w, trace, assignments, seconds: float, out: Outcome,
            min_passes: int | None = None) -> list[_Pass]:
    """Passes, cycling through the assignments, until ``seconds`` are
    used (ending within half a pass of it); by default at least one more
    pass than there are assignments, so a repeat can be compared."""
    if min_passes is None:
        min_passes = len(assignments) + 1
    passes: list[_Pass] = []
    t_end = perf_counter() + seconds
    while True:
        t0 = perf_counter()
        i = len(passes) % len(assignments)
        passes.append(run_pass(w, trace, assignments[i], out))
        passes[-1].assignment = i
        took = perf_counter() - t0
        if len(passes) >= min_passes and perf_counter() + took / 2 >= t_end:
            break
    check_repeats(w, passes, out)
    return passes


def check_repeats(w, passes: list[_Pass], out: Outcome) -> None:
    """Runs of one policy on one assignment must agree exactly."""
    for policy in w.policies:
        for i in {p.assignment for p in passes}:
            seen = {p.digest[policy] for p in passes if p.assignment == i}
            out.check(len(seen) == 1, f"{policy}, assignment {i}: results "
                      f"differ between repeats: {sorted(seen)}")


def fn_min_per_s(w, trace, passes: list[_Pass], raw: bool = False
                 ) -> dict[str, float]:
    """Function-minutes simulated per second over all passes (at
    reference speed unless ``raw``), per policy: a ratio of sums, so
    every assignment counts by its own cost."""
    work = trace.n_functions * trace.horizon * len(passes)
    return {
        policy: work / sum((p.raw_wall if raw else p.wall)[policy]
                           for p in passes)
        for policy in w.policies
    }


def _tail_q(w, samples: list[float]) -> int:
    """The workload's tail percentile, or a lower one if a short run
    collected too few samples for it."""
    return min(w.tail_q, highest_supported_percentile(len(samples)) or 50)


def _setup(w, seed):
    times: list[float] = []
    while len(times) < SETUPS or sum(times) < SETUP_MIN_S:
        factor = speed_factor(CALIBRATION_SAMPLES)
        t0 = perf_counter()
        trace, assignments = make_inputs(w, seed)
        times.append((perf_counter() - t0) * factor)
    return trace, assignments, statistics.median(times)


def _reference_check(w, trace, assignments, out: Outcome) -> None:
    """Untimed: PULSE on the default engine matches the reference engine."""
    if w.engine is not None:
        return
    ref = simulate(trace, assignment=assignments[0], policy="pulse",
                   engine="reference")
    default = simulate(trace, assignment=assignments[0], policy="pulse")
    out.attempted += 2
    out.check(result_digest(ref) == result_digest(default),
              "pulse: default engine differs from engine='reference'")


def run(w: BatchWorkload, seed: int, seconds: float) -> Outcome:
    """The untraced run: every end-to-end metric."""
    out = Outcome()
    trace, assignments, setup_s = _setup(w, seed)
    _reference_check(w, trace, assignments, out)
    passes = measure(w, trace, assignments, seconds, out)
    rates = fn_min_per_s(w, trace, passes)
    advances = [s for p in passes for s in p.advance_s]

    out.put("setup_s", setup_s)
    out.put("peak_rss_mb", peak_rss_mb())
    out.put("fn_min_per_s", geomean(list(rates.values())))
    out.put("fn_min_per_s.pulse", rates["pulse"])
    out.report.append(
        f"{w.name}: {trace.n_functions} functions x {trace.horizon} min, "
        f"{trace.total_invocations()} invocations, {len(passes)} passes"
    )
    raw = fn_min_per_s(w, trace, passes, raw=True)
    for policy, rate in rates.items():
        out.report.append(
            f"fn_min_per_s.{metric_key(policy)} {rate:.6g} fn-min/s "
            f"(as timed: {raw[policy]:.6g})"
        )
    q = _tail_q(w, advances)
    out.report.append(
        f"advance samples {len(advances)}; p50 "
        f"{1e3 * statistics.median(advances):.6g} ms, p{q} "
        f"{1e3 * tail(advances, q):.6g} ms"
    )
    return out


# -- the traced run ---------------------------------------------------------

_POLICY_KINDS = {
    "plan": "plan",
    "observe_invocation": "observe",
    "review_minute": "review",
    "idle_review": "review",
}


def _policy_classes() -> dict[str, type]:
    from repro.baselines.openwhisk import OpenWhiskPolicy
    from repro.core.pulse import PulsePolicy
    from repro.sota.icebreaker import IceBreakerPolicy
    from repro.sota.integration import PulseIntegratedPolicy
    from repro.sota.wild import WildPolicy

    return {
        "openwhisk": OpenWhiskPolicy,
        "pulse": PulsePolicy,
        "wild": WildPolicy,
        "icebreaker": IceBreakerPolicy,
        "wild-pulse": PulseIntegratedPolicy,
    }


def install_wraps(tracer: Tracer, downgrades: list[int]) -> None:
    """Wrap the public functions whose layers the traced run reports."""
    from repro.core.global_optimizer import GlobalOptimizer
    from repro.core.interarrival import InterArrivalEstimator
    from repro.runtime.columnar import ColumnarEstimator, RingSchedule
    from repro.runtime.fleet import FleetShards, FleetStepper
    from repro.runtime.policy import KeepAlivePolicy
    from repro.sota.icebreaker import IceBreakerPolicy
    from repro.sota.wild import WildPolicy

    def note_downgrades(args) -> None:
        downgrades.append(int(args[0].n_downgrades))

    tracer.wrap(FleetShards, "review", "runtime.fleet.review",
                after=note_downgrades)
    tracer.wrap(FleetShards, "memory_at", "runtime.fleet.memory_at")
    tracer.wrap(FleetStepper, "step", "runtime.fleet.step")
    tracer.wrap(ColumnarEstimator, "observe", "runtime.columnar.observe")
    tracer.wrap(ColumnarEstimator, "ip_and_max_remaining",
                "runtime.columnar.ip")
    tracer.wrap(RingSchedule, "write_plans", "runtime.columnar.write_plans")
    tracer.wrap(RingSchedule, "downgrade", "runtime.columnar.downgrade")
    tracer.wrap(GlobalOptimizer, "review", "core.global_optimizer.review")
    tracer.wrap(InterArrivalEstimator, "probabilities",
                "core.interarrival.probabilities")
    tracer.wrap(WildPolicy, "predicted_window", "sota.wild.predict")
    tracer.wrap(IceBreakerPolicy, "predicted_minutes", "sota.icebreaker.predict")
    for key, cls in _policy_classes().items():
        for attr, kind in _POLICY_KINDS.items():
            # Only overridden hooks: the engines test the base no-ops by
            # identity to skip idle minutes, and wrapping one would turn
            # that skipping off.
            if getattr(cls, attr) is not getattr(KeepAlivePolicy, attr):
                tracer.wrap(cls, attr, f"policy.{key}.{kind}")


def _is_policy(kind: str):
    return lambda n: n.startswith("policy.") and n.endswith("." + kind)


def _pass_layers(w, p: _Pass) -> dict[str, float]:
    """Per-layer figures of one traced pass."""
    m: dict[str, float] = defaultdict(float)
    for policy in w.policies:
        spans = p.spans[policy]
        key = metric_key(policy)
        for kind in ("plan", "observe", "review"):
            m[f"policy.{key}.{kind}_s"] = outermost_time(
                spans, _is_policy(kind)
            )
        m[f"policy.{key}.calls"] = sum(
            1 for s in spans if s[0].startswith("policy.")
        )
        m[f"runtime.engine.self_s.{key}"] = p.raw_wall[policy] - outermost_time(
            spans, lambda n: n.startswith("policy.")
        )
        m[f"runtime.warm_share.{key}"] = p.warm_share[policy]
        for span in spans:
            name = span[0]
            if name.startswith(("runtime.columnar.", "core.", "sota.")):
                m[f"{name}_s"] += span[2] - span[1]
                if name == "runtime.columnar.downgrade":
                    m["runtime.columnar.downgrade.calls"] += 1
        for layer, t in _self_by_layer(spans).items():
            m[f"self_s.{layer}"] += t
        if policy == "pulse" and w.engine == "fleet":
            review = [s for s in spans if s[0] == "runtime.fleet.review"]
            m["runtime.fleet.review_s"] = sum(s[2] - s[1] for s in review)
            m["runtime.fleet.review.calls"] = len(review)
            m["runtime.fleet.review.downgrades"] = p.downgrades
            m["runtime.fleet.review.share"] = (
                m["runtime.fleet.review_s"] / p.raw_wall[policy]
            )
            m["runtime.fleet.memory_at.calls"] = sum(
                1 for s in spans if s[0] == "runtime.fleet.memory_at"
            )
            m["runtime.fleet.step.self_s"] = self_time_by_name(spans).get(
                "runtime.fleet.step", 0.0
            )
    return m


def _self_by_layer(spans) -> dict[str, float]:
    out: dict[str, float] = defaultdict(float)
    for name, t in self_time_by_name(spans).items():
        for layer in SELF_LAYERS:
            if name.startswith(layer + "."):
                out[layer] += t
    return out


def run_traced(w: BatchWorkload, seed: int, seconds: float) -> Outcome:
    """Half the time untraced, half traced, each over every assignment
    at least once: per-layer figures from the traced passes, tracing
    overhead from the difference."""
    out = Outcome()
    trace, assignments, _ = _setup(w, seed)
    plain = measure(w, trace, assignments, seconds / 2, out,
                    min_passes=len(assignments))

    tracer = Tracer()
    downgrades: list[int] = []
    install_wraps(tracer, downgrades)
    try:
        gen_times = []
        for _ in range(SETUPS):
            make_inputs(w, seed, tracer)
            gen_times.append(tracer.take()[-1])
        traced: list[_Pass] = []
        t_end = perf_counter() + seconds / 2
        while len(traced) < len(assignments) or perf_counter() < t_end:
            i = len(traced) % len(assignments)
            downgrades.clear()
            traced.append(run_pass(w, trace, assignments[i], out, tracer))
            traced[-1].assignment = i
            traced[-1].downgrades = downgrades[-1] if downgrades else 0
    finally:
        tracer.unwrap()

    check_repeats(w, plain + traced, out)
    per_pass = [_pass_layers(w, p) for p in traced]
    for name in sorted(set().union(*per_pass)):
        out.put(name, statistics.median(m.get(name, 0.0) for m in per_pass))
    out.put("traces.generate_s",
            statistics.median(s[2] - s[1] for s in gen_times))
    advances = [s for p in plain for s in p.advance_s]
    out.put("runtime.session.advance_p50_ms",
            1e3 * statistics.median(advances))
    out.put("runtime.session.advance_tail_ms",
            1e3 * tail(advances, _tail_q(w, advances)))
    plain_rates = fn_min_per_s(w, trace, plain)
    for policy, rate in plain_rates.items():
        out.put(f"policy.{metric_key(policy)}.fn_min_per_s", rate)
    plain_rate = geomean(list(plain_rates.values()))
    traced_rate = geomean(list(fn_min_per_s(w, trace, traced).values()))
    out.put("trace.overhead_share", plain_rate / traced_rate - 1.0)
    out.report.append(
        f"{w.name} traced: {len(plain)} untraced + {len(traced)} traced "
        f"passes; fn_min_per_s {plain_rate:.6g} untraced, "
        f"{traced_rate:.6g} traced"
    )
    return out


def peak_rss_mb() -> float:
    """Peak resident set of this process, in MiB (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
