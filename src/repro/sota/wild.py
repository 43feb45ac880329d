"""Serverless in the Wild (Shahrad et al., USENIX ATC'20).

The hybrid-histogram keep-alive policy: per function, track the idle-time
(inter-arrival) distribution in minute bins up to a range; after each
invocation,

- with a *representative* histogram, release the container and plan a
  **pre-warm** at the idle-time distribution's head percentile (5th,
  shrunk by a safety margin) and a **keep-alive** through its tail
  percentile (99th, grown by the margin);
- with a heavy-tailed / out-of-bounds pattern (too much mass beyond the
  histogram range), fall back to a time-series forecast of the next idle
  time (:class:`~repro.sota.arima.ARForecaster`) and warm a margin window
  around the prediction;
- while still learning (few samples), use the provider's standard fixed
  keep-alive window.

The policy is variant-unaware: it always warms the highest-quality
variant (§IV — "the conventional practice of invoking high-quality models
indiscriminately"). Run it with a schedule capacity that accommodates its
long keep-alives, e.g. ``SimulationConfig(keep_alive_window=240)``.
"""

from __future__ import annotations

from collections import deque

import numpy as np

from repro.models.variants import ModelVariant
from repro.runtime.policy import KeepAlivePolicy
from repro.sota.arima import ARForecaster
from repro.utils.validation import check_fraction, check_positive_int

__all__ = ["WildPolicy"]


class _WildState:
    """Per-function hybrid histogram state."""

    __slots__ = ("counts", "n_in_range", "n_oob", "recent_its", "last_arrival")

    def __init__(self, histogram_range: int, recent_len: int):
        self.counts = np.zeros(histogram_range, dtype=np.int64)  # bin d-1: IT == d
        self.n_in_range = 0
        self.n_oob = 0
        self.recent_its: deque[int] = deque(maxlen=recent_len)
        self.last_arrival: int | None = None

    @property
    def n_total(self) -> int:
        return self.n_in_range + self.n_oob


class WildPolicy(KeepAlivePolicy):
    """Hybrid histogram pre-warm / keep-alive prediction."""

    name = "Wild"

    def __init__(
        self,
        histogram_range: int = 240,
        head_percentile: float = 5.0,
        tail_percentile: float = 99.0,
        margin: float = 0.15,
        oob_threshold: float = 0.5,
        min_samples: int = 8,
        learning_window: int = 10,
        ar_order: int = 3,
    ):
        super().__init__()
        check_positive_int("histogram_range", histogram_range)
        if not 0.0 < head_percentile < tail_percentile <= 100.0:
            raise ValueError(
                "need 0 < head_percentile < tail_percentile <= 100, got "
                f"{head_percentile}/{tail_percentile}"
            )
        check_fraction("margin", margin)
        check_fraction("oob_threshold", oob_threshold)
        check_positive_int("min_samples", min_samples)
        check_positive_int("learning_window", learning_window)
        self.histogram_range = histogram_range
        self.head_percentile = head_percentile
        self.tail_percentile = tail_percentile
        self.margin = margin
        self.oob_threshold = oob_threshold
        self.min_samples = min_samples
        self.learning_window = learning_window
        self._forecaster = ARForecaster(order=ar_order)
        self._state: list[_WildState] = []

    def on_bind(self) -> None:
        self._state = [
            _WildState(self.histogram_range, recent_len=64)
            for _ in range(self.n_functions)
        ]

    # -- history ------------------------------------------------------------
    def observe_invocation(self, function_id: int, minute: int, count: int) -> None:
        s = self._state[function_id]
        if s.last_arrival is not None and minute > s.last_arrival:
            it = minute - s.last_arrival
            s.recent_its.append(it)
            if it <= self.histogram_range:
                s.counts[it - 1] += 1
                s.n_in_range += 1
            else:
                s.n_oob += 1
        s.last_arrival = minute

    # -- prediction -----------------------------------------------------------
    @staticmethod
    def _percentile_bins(counts: np.ndarray, *qs: float) -> list[int]:
        """Idle-time values at percentiles ``qs`` of the binned
        distribution, from one cumulative sum."""
        cdf = np.cumsum(counts)
        ranks = np.array(qs) / 100.0 * cdf[-1]
        return (np.searchsorted(cdf, ranks, side="left") + 1).tolist()

    def predicted_window(self, function_id: int, minute: int) -> tuple[int, int]:
        """(pre-warm offset, keep-alive end offset) after an invocation.

        Offsets are in minutes relative to the invocation; (1, W) means
        "stay warm from the next minute through offset W". A pre-warm
        offset > 1 releases the container and re-warms it later.
        """
        s = self._state[function_id]
        cap = self.keep_alive_window  # schedule capacity
        if s.n_total < self.min_samples:
            # Still learning: provider-standard fixed keep-alive.
            return 1, min(self.learning_window, cap)
        if s.n_oob / s.n_total > self.oob_threshold:
            # Heavy tail: time-series fallback around the forecast IT.
            pred = self._forecaster.forecast(np.array(s.recent_its, dtype=float))
            pred = max(1.0, pred)
            start = int(max(1.0, np.floor(pred * (1.0 - self.margin))))
            end = int(np.ceil(pred * (1.0 + self.margin)))
            return min(start, cap), min(max(end, start), cap)
        head, tail = self._percentile_bins(
            s.counts, self.head_percentile, self.tail_percentile
        )
        start = int(max(1.0, np.floor(head * (1.0 - self.margin))))
        end = int(np.ceil(tail * (1.0 + self.margin)))
        return min(start, cap), min(max(end, start), cap)

    # -- engine interface ---------------------------------------------------
    def cold_variant(self, function_id: int, minute: int) -> ModelVariant:
        return self.family(function_id).highest

    def plan(self, function_id: int, minute: int) -> list[ModelVariant | None]:
        start, end = self.predicted_window(function_id, minute)
        highest = self.family(function_id).highest
        return (
            [None] * (start - 1)
            + [highest] * (end - start + 1)
            + [None] * (self.keep_alive_window - end)
        )
