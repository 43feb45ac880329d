"""Checkpoint/resume: bit-identical round-trips on both engines.

The contract under test (see :mod:`repro.runtime.checkpoint`): resuming
an interrupted run from any snapshot produces exactly the metrics the
uninterrupted run produced — same summary, same memory series bytes,
same observability counters — on both engines, with and without fault
injection.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import simulate
from repro.models.zoo import default_zoo
from repro.runtime.checkpoint import (
    CHECKPOINT_SCHEMA_VERSION,
    CheckpointConfig,
    SimulationState,
)
from repro.runtime.simulator import SimulationConfig
from repro.serve.session import ControlSession, open_session
from repro.traces.schema import FunctionSpec, Trace

ZOO = default_zoo()
FAMILIES = list(ZOO)

ENGINES = ("reference", "fast")
FAULT_SPECS = (None, "spawn=0.2,slow=0.1,seed=7")


def _assignment(trace):
    return {f: FAMILIES[f % len(FAMILIES)] for f in range(trace.n_functions)}


def _comparable(result):
    """Everything a resumed run must reproduce byte-for-byte."""
    d = result.summary()
    d.pop("wall_clock_s", None)
    for key, series in (
        ("memory_series", result.memory_series_mb),
        ("ideal_series", result.ideal_memory_series_mb),
    ):
        d[key] = None if series is None else series.tobytes()
    if result.obs is not None and result.obs.metrics_enabled:
        d["metrics"] = result.obs.metrics.as_flat_dict()
    return d


def _trace_from_matrix(matrix):
    counts = np.asarray(matrix, dtype=np.int64)
    specs = tuple(FunctionSpec(i, f"f{i}") for i in range(counts.shape[0]))
    return Trace(counts=counts, functions=specs)


small_traces = st.integers(min_value=1, max_value=3).flatmap(
    lambda n_fn: st.lists(
        st.lists(st.integers(min_value=0, max_value=3),
                 min_size=40, max_size=40),
        min_size=n_fn,
        max_size=n_fn,
    )
)


class TestRoundTrip:
    @pytest.mark.parametrize("engine", ENGINES)
    @pytest.mark.parametrize("faults", FAULT_SPECS)
    def test_resume_matches_uninterrupted_run(
        self, tiny_trace, tiny_assignment, engine, faults
    ):
        states: list[SimulationState] = []
        cp = CheckpointConfig(every_minutes=13, on_snapshot=states.append)
        full = simulate(
            tiny_trace, assignment=tiny_assignment, policy="pulse",
            engine=engine, faults=faults, checkpoint=cp,
        )
        assert full.n_checkpoints == len(states) > 1
        for state in states:
            resumed = simulate(
                tiny_trace, assignment=tiny_assignment, policy="pulse",
                engine=engine, faults=faults,
                checkpoint=CheckpointConfig(
                    every_minutes=13, on_snapshot=lambda s: None
                ),
                resume_from=state,
            )
            assert _comparable(resumed) == _comparable(full)
            assert resumed.n_checkpoints == full.n_checkpoints

    def test_checkpointing_does_not_perturb_metrics(
        self, tiny_trace, tiny_assignment
    ):
        plain = simulate(tiny_trace, assignment=tiny_assignment, policy="pulse", engine="fast")
        checked = simulate(
            tiny_trace, assignment=tiny_assignment, policy="pulse", engine="fast",
            checkpoint=CheckpointConfig(
                every_minutes=7, on_snapshot=lambda s: None
            ),
        )
        assert _comparable(plain) == _comparable(checked)

    def test_observed_resume_restores_counters(
        self, tiny_trace, tiny_assignment
    ):
        config = SimulationConfig(observe=True)
        states: list[SimulationState] = []
        cp = CheckpointConfig(every_minutes=20, on_snapshot=states.append)
        full = simulate(
            tiny_trace, assignment=tiny_assignment, policy="pulse",
            config=config,
            engine="reference", checkpoint=cp,
        )
        resumed = simulate(
            tiny_trace, assignment=tiny_assignment, policy="pulse",
            config=config,
            engine="reference",
            checkpoint=CheckpointConfig(
                every_minutes=20, on_snapshot=lambda s: None
            ),
            resume_from=states[-1],
        )
        assert _comparable(resumed) == _comparable(full)

    @given(matrix=small_traces, every=st.integers(min_value=3, max_value=17),
           engine_idx=st.integers(min_value=0, max_value=1))
    @settings(max_examples=15, deadline=None)
    def test_random_traces_round_trip(self, matrix, every, engine_idx):
        trace = _trace_from_matrix(matrix)
        assignment = _assignment(trace)
        engine = ENGINES[engine_idx]
        states: list[SimulationState] = []
        cp = CheckpointConfig(every_minutes=every,
                              on_snapshot=states.append)
        full = simulate(trace, assignment=assignment, policy="openwhisk",
                        engine=engine, checkpoint=cp)
        if not states:  # horizon shorter than the cadence: nothing to do
            return
        resumed = simulate(
            trace, assignment=assignment, policy="openwhisk", engine=engine,
            checkpoint=CheckpointConfig(
                every_minutes=every, on_snapshot=lambda s: None
            ),
            resume_from=states[len(states) // 2],
        )
        assert _comparable(resumed) == _comparable(full)


class TestStatePersistence:
    def test_save_load_round_trip(self, tiny_trace, tiny_assignment, tmp_path):
        path = tmp_path / "run.ckpt"
        full = simulate(
            tiny_trace, assignment=tiny_assignment, policy="pulse", engine="fast",
            checkpoint=CheckpointConfig(path=path, every_minutes=25),
        )
        assert full.n_checkpoints >= 1
        state = SimulationState.load(path)
        assert state.engine == "fast"
        assert state.schema_version == CHECKPOINT_SCHEMA_VERSION
        resumed = simulate(
            tiny_trace, assignment=tiny_assignment, policy="pulse", engine="fast",
            checkpoint=CheckpointConfig(path=tmp_path / "resumed.ckpt",
                                        every_minutes=25),
            resume_from=path,  # the facade loads paths itself
        )
        assert _comparable(resumed) == _comparable(full)

    def test_load_rejects_foreign_payload(self, tmp_path):
        path = tmp_path / "bogus.ckpt"
        path.write_bytes(b"not a checkpoint")
        with pytest.raises(Exception):
            SimulationState.load(path)

    def test_version_gate(self, tiny_trace, tiny_assignment):
        states: list[SimulationState] = []
        simulate(
            tiny_trace, assignment=tiny_assignment, policy="pulse", engine="fast",
            checkpoint=CheckpointConfig(every_minutes=30,
                                        on_snapshot=states.append),
        )
        session = open_session(
            tiny_trace, assignment=tiny_assignment, policy="pulse",
            engine="fleet",
        )
        for _ in range(30):
            session.advance()
        states.append(session.snapshot())
        assert states[-1].engine == "session:fleet"
        for state in (states[0], states[-1]):
            for version in (
                CHECKPOINT_SCHEMA_VERSION - 1, CHECKPOINT_SCHEMA_VERSION + 1
            ):
                stale = SimulationState(
                    engine=state.engine,
                    next_minute=state.next_minute,
                    cursor=state.cursor,
                    payload=state.payload,
                    schema_version=version,
                )
                with pytest.raises(ValueError, match="schema"):
                    stale.restore()
        with pytest.raises(ValueError, match="schema"):
            ControlSession.restore(stale)


class TestGuards:
    def test_engine_mismatch_refused(self, tiny_trace, tiny_assignment):
        states: list[SimulationState] = []
        simulate(
            tiny_trace, assignment=tiny_assignment, policy="pulse", engine="fast",
            checkpoint=CheckpointConfig(every_minutes=30,
                                        on_snapshot=states.append),
        )
        with pytest.raises(ValueError, match="engine"):
            simulate(
                tiny_trace, assignment=tiny_assignment, policy="pulse", engine="reference",
                resume_from=states[0],
            )

    def test_config_requires_sink(self):
        with pytest.raises(ValueError):
            CheckpointConfig()

    def test_config_rejects_bad_cadence(self, tmp_path):
        with pytest.raises(ValueError):
            CheckpointConfig(path=tmp_path / "x.ckpt", every_minutes=0)

    def test_run_rejects_non_config(self, tiny_trace, tiny_assignment):
        with pytest.raises(TypeError):
            simulate(
                tiny_trace, assignment=tiny_assignment, policy="pulse", engine="fast",
                checkpoint=42,
            )
