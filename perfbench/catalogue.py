"""Every metric the benchmark reports, with its unit.

``END_TO_END`` metrics come from untraced runs (``--trace 0``) and every
workload reports each of them; ``PER_LAYER`` metrics come from traced
runs (``--trace 1``), where a layer a workload does not exercise reads 0.
``BENCHMARK.json`` lists the same names (checked by the tests).
"""

from __future__ import annotations

POLICY_KEYS = ("openwhisk", "pulse", "wild", "icebreaker", "wild-pulse")
RATE_NAMES = ("low", "mid", "high")
SELF_LAYERS = (
    "runtime.fleet", "runtime.columnar", "core", "sota", "policy",
    "serve.app", "serve.session", "serve.journal", "obs",
)

END_TO_END: dict[str, str] = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "fn_min_per_s": "fn-min/s",
    "fn_min_per_s.pulse": "fn-min/s",
}


def _per_layer() -> dict[str, str]:
    m = {
        "runtime.fleet.review_s": "s",
        "runtime.fleet.review.calls": "count",
        "runtime.fleet.review.downgrades": "count",
        "runtime.fleet.review.share": "share",
        "runtime.fleet.memory_at.calls": "count",
        "runtime.fleet.step.self_s": "s",
        "runtime.columnar.observe_s": "s",
        "runtime.columnar.ip_s": "s",
        "runtime.columnar.write_plans_s": "s",
        "runtime.columnar.downgrade_s": "s",
        "runtime.columnar.downgrade.calls": "count",
        "core.global_optimizer.review_s": "s",
        "core.interarrival.probabilities_s": "s",
        "sota.wild.predict_s": "s",
        "sota.icebreaker.predict_s": "s",
        "runtime.session.advance_p50_ms": "ms",
        "runtime.session.advance_tail_ms": "ms",
    }
    for p in POLICY_KEYS:
        m[f"policy.{p}.plan_s"] = "s"
        m[f"policy.{p}.observe_s"] = "s"
        m[f"policy.{p}.review_s"] = "s"
        m[f"policy.{p}.calls"] = "count"
        m[f"policy.{p}.fn_min_per_s"] = "fn-min/s"
        m[f"runtime.engine.self_s.{p}"] = "s"
        m[f"runtime.warm_share.{p}"] = "share"
    for layer in SELF_LAYERS:
        m[f"self_s.{layer}"] = "s"
    m["traces.generate_s"] = "s"
    m.update({
        "serve.http.rtt_ms.p50": "ms",
        "serve.http.rtt_ms.p99": "ms",
        "serve.http.keepalive_rtt_ms.p50": "ms",
        "serve.gen.late_ms.p99": "ms",
        "serve.app.advance_ms.p50": "ms",
        "serve.app.advance_ms.p99": "ms",
        "serve.session.advance_ms.p50": "ms",
        "serve.journal.append_ms.p50": "ms",
        "serve.journal.append_ms.p99": "ms",
        "serve.journal.compact.calls": "count",
        "serve.journal.compact_ms": "ms",
        "serve.transport_ms.p50": "ms",
        "serve.response_bytes.mean": "bytes",
        "serve.requests.sent": "count",
        "serve.requests.ok": "count",
        "serve.requests.failed": "count",
    })
    for rate in RATE_NAMES:
        m[f"serve.advance_p50_ms.{rate}"] = "ms"
        m[f"serve.advance_p99_ms.{rate}"] = "ms"
    m["serve.read_tail_ms"] = "ms"
    m["serve.max_rate_rps"] = "1/s"
    m["trace.overhead_share"] = "share"
    return m


PER_LAYER: dict[str, str] = _per_layer()
