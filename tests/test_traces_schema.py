"""Tests for repro.traces.schema."""

import dataclasses
import pickle

import numpy as np
import pytest

from repro.traces.schema import MINUTES_PER_DAY, FunctionSpec, Trace


def make_trace(counts):
    counts = np.asarray(counts)
    specs = tuple(
        FunctionSpec(function_id=i, name=f"f{i}") for i in range(counts.shape[0])
    )
    return Trace(counts=counts, functions=specs)


class TestTraceConstruction:
    def test_basic_shape(self):
        t = make_trace([[0, 1, 2], [3, 0, 0]])
        assert t.n_functions == 2
        assert t.horizon == 3
        assert t.total_invocations() == 6

    def test_rejects_negative_counts(self):
        with pytest.raises(ValueError, match="non-negative"):
            make_trace([[0, -1]])

    def test_rejects_non_integral(self):
        with pytest.raises(ValueError, match="integral"):
            make_trace([[0.5, 1.0]])

    def test_accepts_integral_floats(self):
        t = make_trace(np.array([[1.0, 2.0]]))
        assert t.counts.dtype.kind == "i"

    def test_rejects_1d(self):
        with pytest.raises(ValueError, match="2-D"):
            make_trace([1, 2, 3])

    def test_rejects_mismatched_specs(self):
        with pytest.raises(ValueError):
            Trace(
                counts=np.zeros((2, 5), dtype=np.int64),
                functions=(FunctionSpec(0, "only"),),
            )

    def test_rejects_out_of_order_ids(self):
        with pytest.raises(ValueError, match="function_ids"):
            Trace(
                counts=np.zeros((2, 5), dtype=np.int64),
                functions=(FunctionSpec(1, "a"), FunctionSpec(0, "b")),
            )


class TestTraceAccess:
    def test_invocation_minutes(self):
        t = make_trace([[0, 2, 0, 1]])
        np.testing.assert_array_equal(t.invocation_minutes(0), [1, 3])

    def test_invocation_minutes_cached(self):
        t = make_trace([[1, 0, 1]])
        assert t.invocation_minutes(0) is t.invocation_minutes(0)

    def test_total_per_minute(self):
        t = make_trace([[1, 0], [2, 3]])
        np.testing.assert_array_equal(t.total_per_minute(), [3, 3])

    def test_per_function_totals(self):
        t = make_trace([[1, 0], [2, 3]])
        assert t.total_invocations(0) == 1
        assert t.total_invocations(1) == 5

    def test_bad_fid(self):
        t = make_trace([[1]])
        with pytest.raises(IndexError):
            t.counts_for(1)


class TestTraceSlicing:
    def test_window(self):
        t = make_trace([[1, 2, 3, 4]])
        w = t.window(1, 3)
        np.testing.assert_array_equal(w.counts, [[2, 3]])
        assert w.horizon == 2

    def test_window_bounds(self):
        t = make_trace([[1, 2]])
        with pytest.raises(ValueError):
            t.window(1, 5)
        with pytest.raises(ValueError):
            t.window(2, 2)

    def test_days(self):
        counts = np.zeros((1, 3 * MINUTES_PER_DAY), dtype=np.int64)
        counts[0, MINUTES_PER_DAY] = 7  # first minute of day 2
        t = make_trace(counts)
        day2 = t.days(1, 1)
        assert day2.horizon == MINUTES_PER_DAY
        assert day2.counts[0, 0] == 7

    def test_select_functions_reindexes(self):
        t = make_trace([[1, 0], [0, 2], [3, 3]])
        sub = t.select_functions([2, 0])
        assert sub.n_functions == 2
        assert [f.function_id for f in sub.functions] == [0, 1]
        assert sub.functions[0].name == "f2"
        np.testing.assert_array_equal(sub.counts[0], [3, 3])

    def test_n_days(self):
        t = make_trace(np.zeros((1, MINUTES_PER_DAY * 2), dtype=np.int64))
        assert t.n_days == 2.0


def _specs(n):
    return tuple(FunctionSpec(function_id=i, name=f"f{i}") for i in range(n))


class TestIdleTrace:
    def test_counts_are_a_read_only_zero_stride_view(self):
        t = Trace.idle(_specs(3), 1000, name="idle")
        assert t.is_idle
        assert t.counts.shape == (3, 1000)
        assert t.counts.strides == (0, 0)
        assert not t.counts.flags.writeable
        assert (t.n_functions, t.horizon, t.name) == (3, 1000, "idle")
        assert t.total_invocations() == 0
        assert t.total_invocations(2) == 0
        with pytest.raises(IndexError):
            t.total_invocations(3)
        assert t.invocation_minutes(1).size == 0

    def test_pickles_as_its_shape(self):
        big = Trace.idle(_specs(100), 100_000)
        blob = pickle.dumps(big)
        # Shape and specs only: far below the 80 MB of dense zeros.
        assert len(blob) < 10_000
        back = pickle.loads(blob)
        assert back.is_idle
        assert back.counts.shape == (100, 100_000)
        assert back.functions == big.functions and back.name == big.name

    def test_dense_zeros_are_not_idle(self):
        dense = make_trace(np.zeros((2, 50), dtype=np.int64))
        assert not dense.is_idle
        back = pickle.loads(pickle.dumps(dense))
        assert not back.is_idle
        np.testing.assert_array_equal(back.counts, dense.counts)
        assert back.counts.flags.writeable

    def test_replace_with_dense_counts(self):
        """``np.zeros_like`` + ``dataclasses.replace`` turn an idle trace
        into an ordinary recorded one."""
        idle = Trace.idle(_specs(2), 30)
        idle.invocation_minutes(0)  # fill the cache before replacing
        counts = np.zeros_like(idle.counts)
        counts[0, 5] = 2
        t = dataclasses.replace(idle, counts=counts)
        assert not t.is_idle
        assert t.total_invocations() == 2
        np.testing.assert_array_equal(t.invocation_minutes(0), [5])

    def test_broadcast_negative_rejected(self):
        with pytest.raises(ValueError, match="non-negative"):
            Trace(counts=np.broadcast_to(np.int64(-1), (2, 5)),
                  functions=_specs(2))

    def test_horizon_validated(self):
        with pytest.raises(ValueError):
            Trace.idle(_specs(2), 0)


class TestFunctionSpec:
    def test_rejects_negative_id(self):
        with pytest.raises(ValueError):
            FunctionSpec(-1, "x")

    def test_rejects_empty_name(self):
        with pytest.raises(ValueError):
            FunctionSpec(0, "")
