"""IceBreaker (Roy, Patel, Tiwari — ASPLOS'22).

IceBreaker forecasts each function's invocations with a fast
Fourier-transform method: the recent per-minute invocation signal is
decomposed, the dominant harmonics are kept, and the harmonic series is
extrapolated into the future; the function is warmed for the minutes
whose predicted intensity crosses a threshold.

(The original also scores heterogeneous node choices with a utility
function; the paper's evaluation pins a single node type, "thereby
eliminating the need for utility function computation in IceBreaker", so
only the predictor is relevant here.)

Standalone IceBreaker is variant-unaware and warms the highest-quality
variant at predicted minutes.
"""

from __future__ import annotations

from collections import deque
from functools import lru_cache

import numpy as np

from repro.models.variants import ModelVariant
from repro.runtime.policy import KeepAlivePolicy
from repro.utils.validation import check_fraction, check_positive_int

__all__ = ["IceBreakerPolicy", "fft_extrapolate"]


@lru_cache(maxsize=4)
def _phase_table(n: int, horizon: int) -> np.ndarray:
    """``exp(2πi·k·(n+j)/n)`` for rfft bin ``k`` and future step ``j``.

    Built with the elementwise expression the per-harmonic evaluation
    used, so every row is bit-identical to evaluating that harmonic on
    its own. Read-only: callers share the cached array.
    """
    k = np.arange(n // 2 + 1)[:, None]
    future = np.arange(n, n + horizon)
    table = np.exp((2j * np.pi * k) * future / n)
    table.setflags(write=False)
    return table


def fft_extrapolate(signal: np.ndarray, horizon: int, top_k: int) -> np.ndarray:
    """Extrapolate ``signal`` by ``horizon`` steps with its ``top_k``
    dominant harmonics.

    Returns the predicted values for steps ``len(signal) .. len(signal) +
    horizon - 1``. The DC component is always kept (it carries the base
    rate); the remaining k-1 slots go to the largest-magnitude harmonics.

    The harmonics are evaluated from a cached phase table (one per
    ``(len(signal), horizon)``), so a call costs a gather and a multiply
    instead of one complex ``exp`` over the horizon per kept harmonic.
    Their contributions are added row by row in ascending bin order: a
    reduction (``sum(axis=0)``) would sum a one-step horizon pairwise and
    can differ in the last ulp from the per-harmonic accumulation the
    forecasts were defined with.
    """
    x = np.asarray(signal, dtype=float)
    n = x.size
    if n == 0:
        raise ValueError("cannot extrapolate an empty signal")
    if horizon <= 0:
        raise ValueError(f"horizon must be positive, got {horizon}")
    if top_k <= 0:
        raise ValueError(f"top_k must be positive, got {top_k}")
    spectrum = np.fft.rfft(x)
    magnitude = np.abs(spectrum)
    keep = np.zeros(spectrum.size, dtype=bool)
    keep[0] = True  # DC
    if top_k > 1 and spectrum.size > 1:
        order = np.argsort(-magnitude[1:]) + 1
        keep[order[: top_k - 1]] = True
    # rfft bin k has frequency k/n; a real signal's reconstruction
    # doubles every bin except DC and (for even n) Nyquist.
    freqs = np.flatnonzero(keep)
    weight = np.full(freqs.size, 2.0)
    weight[0] = 1.0
    if n % 2 == 0 and freqs[-1] == n // 2:
        weight[-1] = 1.0
    rows = (
        weight[:, None]
        * np.real(spectrum[freqs, None] * _phase_table(n, horizon)[freqs])
        / n
    )
    pred = np.zeros(horizon)
    for row in rows:
        pred += row
    return pred


class IceBreakerPolicy(KeepAlivePolicy):
    """FFT-based invocation forecasting keep-alive."""

    name = "IceBreaker"

    def __init__(
        self,
        history_window: int = 256,
        top_k: int = 16,
        threshold: float = 0.25,
        min_history: int = 32,
        learning_window: int = 10,
    ):
        super().__init__()
        check_positive_int("history_window", history_window)
        check_positive_int("top_k", top_k)
        check_fraction("threshold", threshold, inclusive=False)
        check_positive_int("min_history", min_history)
        check_positive_int("learning_window", learning_window)
        self.history_window = history_window
        self.top_k = top_k
        self.threshold = threshold
        self.min_history = min_history
        self.learning_window = learning_window
        self._arrivals: list[deque[int]] = []
        self._first_seen: list[int | None] = []

    def on_bind(self) -> None:
        self._arrivals = [
            deque(maxlen=self.history_window) for _ in range(self.n_functions)
        ]
        self._first_seen = [None] * self.n_functions

    def observe_invocation(self, function_id: int, minute: int, count: int) -> None:
        arr = self._arrivals[function_id]
        if not arr or arr[-1] != minute:
            arr.append(minute)
        if self._first_seen[function_id] is None:
            self._first_seen[function_id] = minute

    def _signal(self, function_id: int, minute: int) -> np.ndarray:
        """Binary per-minute presence over the last ``history_window``
        minutes ending at ``minute`` (inclusive)."""
        x = np.zeros(self.history_window)
        start = minute - self.history_window + 1
        at = np.fromiter(self._arrivals[function_id], dtype=np.int64) - start
        x[at[at >= 0]] = 1.0
        return x

    def predicted_minutes(self, function_id: int, minute: int) -> list[int]:
        """Offsets (1..K) whose forecast intensity crosses the threshold."""
        first = self._first_seen[function_id]
        observed = 0 if first is None else minute - first
        if observed < self.min_history:
            # Cold model: fixed provider window while learning.
            return list(range(1, min(self.learning_window, self.keep_alive_window) + 1))
        x = self._signal(function_id, minute)
        pred = fft_extrapolate(x, self.keep_alive_window, self.top_k)
        return (np.flatnonzero(pred >= self.threshold) + 1).tolist()

    # -- engine interface ---------------------------------------------------
    def cold_variant(self, function_id: int, minute: int) -> ModelVariant:
        return self.family(function_id).highest

    def plan(self, function_id: int, minute: int) -> list[ModelVariant | None]:
        highest = self.family(function_id).highest
        plan: list[ModelVariant | None] = [None] * self.keep_alive_window
        for d in self.predicted_minutes(function_id, minute):
            plan[d - 1] = highest
        return plan
