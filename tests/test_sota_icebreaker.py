"""Tests for repro.sota.icebreaker."""

import numpy as np
import pytest

from repro.runtime.simulator import Simulation, SimulationConfig
from repro.sota.icebreaker import IceBreakerPolicy, fft_extrapolate
from repro.traces.schema import FunctionSpec, Trace


def one_function_trace(counts):
    counts = np.asarray([counts], dtype=np.int64)
    return Trace(counts=counts, functions=(FunctionSpec(0, "f0"),))


class TestFftExtrapolate:
    def test_pure_sinusoid_continues(self):
        n = 128
        t = np.arange(n)
        x = np.sin(2 * np.pi * t * 8 / n)  # period 16, integral frequency
        pred = fft_extrapolate(x, 16, top_k=4)
        expected = np.sin(2 * np.pi * np.arange(n, n + 16) * 8 / n)
        np.testing.assert_allclose(pred, expected, atol=1e-8)

    def test_constant_signal(self):
        pred = fft_extrapolate(np.full(64, 3.0), 5, top_k=1)
        np.testing.assert_allclose(pred, 3.0, atol=1e-9)

    def test_periodic_binary_signal(self):
        x = np.zeros(120)
        x[::6] = 1.0  # every 6 minutes, 20 periods
        pred = fft_extrapolate(x, 12, top_k=30)
        # Prediction must be clearly higher at the firing offsets.
        firing = [i for i in range(12) if (120 + i) % 6 == 0]
        quiet = [i for i in range(12) if (120 + i) % 6 != 0]
        assert min(pred[firing]) > max(pred[quiet])

    def test_validation(self):
        with pytest.raises(ValueError):
            fft_extrapolate(np.array([]), 5, 3)
        with pytest.raises(ValueError):
            fft_extrapolate(np.ones(8), 0, 3)
        with pytest.raises(ValueError):
            fft_extrapolate(np.ones(8), 5, 0)


def per_harmonic_extrapolate(signal, horizon, top_k):
    """The forecast as first defined: one complex ``exp`` over the
    horizon per kept harmonic, accumulated in ascending bin order."""
    x = np.asarray(signal, dtype=float)
    n = x.size
    spectrum = np.fft.rfft(x)
    magnitude = np.abs(spectrum)
    keep = np.zeros(spectrum.size, dtype=bool)
    keep[0] = True
    if top_k > 1 and spectrum.size > 1:
        order = np.argsort(-magnitude[1:]) + 1
        keep[order[: top_k - 1]] = True
    future = np.arange(n, n + horizon)
    pred = np.zeros(horizon)
    for k in np.flatnonzero(keep):
        coef = spectrum[k]
        weight = 1.0 if (k == 0 or (n % 2 == 0 and k == n // 2)) else 2.0
        pred += weight * np.real(coef * np.exp(2j * np.pi * k * future / n)) / n
    return pred


class TestPhaseTableBitIdentity:
    """The cached phase table must reproduce the per-harmonic forecast to
    the last bit: plans threshold it, so one ulp can move a warm start."""

    @pytest.mark.parametrize(
        "n, horizon, top_k",
        [
            (1, 1, 1),  # a single sample: DC only
            (1, 240, 16),
            (2, 1, 5),  # even n, Nyquist kept
            (3, 7, 2),
            (256, 1, 16),  # one-step horizon: where a reduction would differ
            (256, 240, 16),  # the policy's shape at paper scale
            (255, 240, 16),  # odd n: no Nyquist bin
            (64, 10, 100),  # top_k above the bin count
        ],
    )
    def test_edge_shapes(self, n, horizon, top_k):
        rng = np.random.default_rng(n * 1000 + horizon)
        for x in (
            (rng.random(n) < 0.3).astype(float),
            rng.normal(size=n),
        ):
            assert np.array_equal(
                fft_extrapolate(x, horizon, top_k),
                per_harmonic_extrapolate(x, horizon, top_k),
            )

    def test_random_shapes(self):
        rng = np.random.default_rng(2024)
        for _ in range(400):
            n = int(rng.integers(1, 300))
            horizon = int(rng.choice([1, 2, int(rng.integers(1, 260))]))
            top_k = int(rng.integers(1, 40))
            if rng.random() < 0.5:
                x = (rng.random(n) < 0.3).astype(float)
            else:
                x = rng.integers(0, 5, n).astype(float)
            assert np.array_equal(
                fft_extrapolate(x, horizon, top_k),
                per_harmonic_extrapolate(x, horizon, top_k),
            ), (n, horizon, top_k)


class TestIceBreakerPolicy:
    def test_learning_phase_fixed_window(self, gpt):
        trace = one_function_trace(np.zeros(600, dtype=np.int64))
        p = IceBreakerPolicy(min_history=32)
        p.bind(trace, {0: gpt}, 240)
        p.observe_invocation(0, 5, 1)
        assert p.predicted_minutes(0, 6) == list(range(1, 11))

    def test_periodic_function_predicted(self, gpt):
        p = IceBreakerPolicy(min_history=32, history_window=128)
        trace = one_function_trace(np.zeros(600, dtype=np.int64))
        p.bind(trace, {0: gpt}, 240)
        for m in range(0, 300, 5):
            p.observe_invocation(0, m, 1)
        predicted = p.predicted_minutes(0, 295)
        assert 5 in predicted  # next firing at offset 5
        assert 1 not in predicted

    def test_end_to_end_on_periodic_trace(self, gpt):
        counts = np.zeros(900, dtype=np.int64)
        counts[::5] = 1
        trace = one_function_trace(counts)
        cfg = SimulationConfig(keep_alive_window=240)
        r = Simulation(trace, {0: gpt}, IceBreakerPolicy(), cfg).run()
        # After the learning phase, predictions carry the warm starts.
        assert r.warm_fraction > 0.8

    def test_plan_is_highest_variant_only(self, gpt):
        p = IceBreakerPolicy()
        trace = one_function_trace(np.zeros(100, dtype=np.int64))
        p.bind(trace, {0: gpt}, 20)
        p.observe_invocation(0, 1, 1)
        plan = p.plan(0, 1)
        kept = [v for v in plan if v is not None]
        assert kept and all(v == gpt.highest for v in kept)

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            IceBreakerPolicy(top_k=0)
        with pytest.raises(ValueError):
            IceBreakerPolicy(threshold=0.0)
        with pytest.raises(ValueError):
            IceBreakerPolicy(history_window=0)
