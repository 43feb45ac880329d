"""Tests of the benchmark's own code (not of the program it measures).

Run from the repository root: ``python -m pytest perfbench/tests -q``.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import catalogue  # noqa: E402
import serve_load  # noqa: E402
from serve_load import Record, meets_limit, schedule  # noqa: E402
from tracing import (  # noqa: E402
    Tracer,
    highest_supported_percentile,
    outermost_time,
    percentile,
    self_time_by_name,
    self_times,
    tail,
)


# -- the seeded arrival schedule ------------------------------------------

def test_schedule_is_a_function_of_the_seed():
    a = schedule(7, 2, 200.0, 64, 100)
    assert a == schedule(7, 2, 200.0, 64, 100)
    assert a != schedule(8, 2, 200.0, 64, 100)
    assert a != schedule(7, 3, 200.0, 64, 100)


def test_schedule_shape_and_order():
    per_tenant, start = 64, 208
    events = schedule(1, 1, 100.0, per_tenant, start)
    advances = [e for e in events if e.kind == "advance"]
    reads = [e for e in events if e.kind != "advance"]
    assert len(advances) == per_tenant * serve_load.N_TENANTS
    assert len(reads) == len(advances) // serve_load.READ_EVERY
    assert {e.kind for e in reads} == {"metrics", "info"}
    assert [e.due for e in events] == sorted(e.due for e in events)
    for tenant in range(serve_load.N_TENANTS):
        minutes = [e.minute for e in advances if e.tenant == tenant]
        assert minutes == list(range(start, start + per_tenant))


def test_tenant_arrivals_are_seeded():
    a = serve_load.tenant_arrivals(3, 5)
    assert np.array_equal(a, serve_load.tenant_arrivals(3, 5))
    assert not np.array_equal(a, serve_load.tenant_arrivals(3, 6))
    assert a.shape == (serve_load.N_FUNCTIONS, serve_load.ARRIVAL_MINUTES)


@pytest.mark.parametrize("per_tenant", range(serve_load.MIN_PER_TENANT,
                                             serve_load.MAX_PER_TENANT + 1))
def test_every_window_crosses_one_compaction_boundary(per_tenant):
    # The journal compacts when an advance moves next_minute into a new
    # bucket; a window's advances move it from start to start + n.
    every = serve_load.COMPACT_EVERY
    end = 2  # next_minute after the warm-up
    for k in range(1, len(serve_load.RATES) + 1):
        start = serve_load.window_start(k, per_tenant)
        assert start > end  # the untimed jump only moves forward
        end = start + per_tenant
        assert end // every - start // every == 1
    assert end <= serve_load.ARRIVAL_MINUTES


def test_window_sizes_follow_the_measuring_time():
    assert serve_load.per_tenant_advances(1) == serve_load.MIN_PER_TENANT
    assert serve_load.per_tenant_advances(1e6) == serve_load.MAX_PER_TENANT
    n = serve_load.per_tenant_advances(40)
    seconds = sum(n * serve_load.N_TENANTS / r
                  for r in serve_load.RATES.values())
    assert 38 <= seconds <= 40


# -- percentiles and the sample-count rule --------------------------------

def test_percentile_matches_numpy():
    rng = np.random.default_rng(0)
    values = rng.exponential(1.0, 537).tolist()
    for q in (0, 1, 50, 90, 99, 100):
        assert percentile(values, q) == pytest.approx(np.percentile(values, q))


@pytest.mark.parametrize("n,expected", [
    (19, None), (20, 50), (100, 90), (999, 98), (1000, 99), (10**6, 99),
])
def test_highest_supported_percentile(n, expected):
    assert highest_supported_percentile(n) == expected


def test_tail_refuses_an_unsupported_percentile():
    values = list(range(999))
    with pytest.raises(ValueError, match="p99"):
        tail(values, 99)
    assert tail(values, 98) == percentile(values, 98)


def test_percentile_with_infinite_samples():
    values = [1.0] * 95 + [float("inf")] * 5
    assert percentile(values, 50) == 1.0
    assert percentile(values, 99) == float("inf")


# -- spans and self time --------------------------------------------------

def test_self_time_over_nested_spans():
    # root [0, 10] > a [1, 4] > b [2, 3]; root > c [5, 9]
    spans = [
        ["b", 2.0, 3.0, 1, 2],
        ["a", 1.0, 4.0, 0, 1],
        ["c", 5.0, 9.0, 0, 3],
        ["root", 0.0, 10.0, -1, 0],
    ]
    assert self_times(spans) == {0: 3.0, 1: 2.0, 2: 1.0, 3: 4.0}
    assert self_time_by_name(spans) == {"root": 3.0, "a": 2.0, "b": 1.0,
                                        "c": 4.0}
    assert sum(self_times(spans).values()) == 10.0


def test_outermost_time_counts_nested_selected_spans_once():
    spans = [
        ["x.plan", 0.0, 5.0, -1, 0],
        ["y.other", 1.0, 4.0, 0, 1],
        ["z.plan", 2.0, 3.0, 1, 2],
        ["w.plan", 6.0, 7.0, -1, 3],
    ]
    assert outermost_time(spans, lambda n: n.endswith(".plan")) == 6.0


class _Toy:
    def outer(self):
        self.inner()
        self.inner()
        return "done"

    def inner(self):
        return None


class _ToyChild(_Toy):
    pass


def test_tracer_records_parents_and_restores_methods():
    outer, inner = _Toy.outer, _Toy.inner
    tracer = Tracer()
    tracer.wrap(_Toy, "outer", "toy.outer")
    tracer.wrap(_ToyChild, "inner", "toy.inner")  # inherited: child only
    try:
        assert _ToyChild().outer() == "done"
        _Toy().outer()
    finally:
        tracer.unwrap()
    assert _Toy.outer is outer and _Toy.inner is inner
    assert "inner" not in vars(_ToyChild)
    spans = tracer.take()
    names = [s[0] for s in spans]
    assert names.count("toy.outer") == 2 and names.count("toy.inner") == 2
    first_outer = next(s for s in spans if s[0] == "toy.outer")
    assert all(s[3] == first_outer[4] for s in spans if s[0] == "toy.inner")
    own = self_times(spans)
    for span in spans:
        assert 0.0 <= own[span[4]] <= span[2] - span[1]


# -- failures and the latency limit ---------------------------------------

def _records(n_ok: int, latency_s: float, failed: int = 0):
    recs = [Record("advance", i, i, i + latency_s, 200, 10)
            for i in range(n_ok)]
    recs += [Record("advance", n_ok + i, n_ok + i, n_ok + i + latency_s,
                    503, 10) for i in range(failed)]
    return recs


def test_fast_window_meets_the_limit():
    assert meets_limit(_records(1000, 0.001), 20.0)


def test_one_failed_request_misses_the_limit():
    records = _records(1000, 0.001, failed=1)
    assert records[-1].latency_ms == float("inf")
    assert not meets_limit(records, 20.0)


def test_a_failed_read_also_misses_the_limit():
    records = _records(1000, 0.001)
    records.append(Record("metrics", 0.5, 0.5, 0.6, 0, 0))
    assert not meets_limit(records, 20.0)


def test_backlog_misses_the_limit():
    records = _records(1000, 0.001)
    for r in records[-100:]:
        r.sent = r.due + 0.5
    assert not meets_limit(records, 20.0)


# -- the metric list -----------------------------------------------------

def test_benchmark_json_lists_the_catalogue():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == \
        catalogue.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == \
        catalogue.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == \
        ["fleet-10k", "paper-12", "serve-online"]
