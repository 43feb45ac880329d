"""Golden equivalence + shard invariance for the fleet engine.

The columnar fleet engine (:mod:`repro.runtime.fleet`) must produce
*bit-identical* results to the reference minute loop — the same contract
the fast path carries, extended with one more axis: the shard count.
``shards=k`` splits the fleet into contiguous fid ranges whose per-minute
partials are merged by a deterministic reducer, so any ``k`` must yield
the same ``RunResult`` and event stream as ``shards=1`` (and as the
reference engine), including under capacity-valve pressure and fault
plans, and under permutations of function ids that straddle shard
boundaries.

Also home to the unit properties of the columnar kernel itself:
``seq_fold`` versus a scalar accumulation loop, the vectorized
threshold schemes versus their scalar ``select_level``, ``fold_memory``
and the ring's array ``downgrade`` versus ``KeepAliveSchedule``, and the
block reducer's Algorithm 2 victim order versus a brute-force argmin.
"""

from __future__ import annotations

from types import SimpleNamespace

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
from repro.core.priority import normalize
from repro.core.pulse import PulseConfig, PulsePolicy
from repro.core.thresholds import MonotoneScheme, TechniqueT1, TechniqueT2
from repro.core.utility import UtilityComponents, UtilityWeights
from repro.faults.plan import FaultPlan
from repro.experiments.assignments import sample_assignment
from repro.models.zoo import default_zoo
from repro.runtime.columnar import (
    RingSchedule,
    VariantTables,
    fold_memory,
    seq_fold,
)
from repro.runtime.fleet import DowngradeBlocks, _vector_levels
from repro.runtime.schedule import KeepAliveSchedule
from repro.runtime.simulator import Simulation, SimulationConfig
from repro.traces.synthetic import SyntheticTraceConfig, generate_trace

from tests.test_engine_fastpath import assert_identical

POLICIES = {
    "openwhisk": OpenWhiskPolicy,
    "fixed-lowest": AllLowQualityPolicy,
    "fixed-level-1": lambda: FixedKeepAlivePolicy(level=1),
    "random-mixed": lambda: RandomMixedPolicy(seed=3),
    "pulse": PulsePolicy,
    "pulse-t2": lambda: PulsePolicy(PulseConfig(threshold_scheme="T2")),
}


def ref_vs_fleet(trace, assignment, factory, cfg, shards=1):
    ref = Simulation(trace, assignment, factory(), cfg).run(engine="reference")
    fleet = Simulation(trace, assignment, factory(), cfg).run(
        engine="fleet", shards=shards
    )
    return ref, fleet


class TestGoldenEquivalence:
    @pytest.mark.parametrize("name", sorted(POLICIES))
    def test_default_config(self, small_trace, assignment, name):
        cfg = SimulationConfig()  # series + container pool on
        assert_identical(
            *ref_vs_fleet(small_trace, assignment, POLICIES[name], cfg)
        )

    @pytest.mark.parametrize("name", sorted(POLICIES))
    def test_lean_config(self, small_trace, assignment, name):
        cfg = SimulationConfig(record_series=False, track_containers=False)
        assert_identical(
            *ref_vs_fleet(small_trace, assignment, POLICIES[name], cfg)
        )

    @pytest.mark.parametrize("name", ["openwhisk", "pulse", "pulse-t2"])
    def test_event_log(self, small_trace, assignment, name):
        cfg = SimulationConfig(record_events=True)
        assert_identical(
            *ref_vs_fleet(small_trace, assignment, POLICIES[name], cfg)
        )

    @pytest.mark.parametrize("name", ["openwhisk", "pulse"])
    def test_capacity_valve(self, small_trace, assignment, name):
        cfg = SimulationConfig(memory_capacity_mb=4000.0, capacity_seed=11)
        ref, fleet = ref_vs_fleet(
            small_trace, assignment, POLICIES[name], cfg
        )
        assert ref.n_forced_downgrades > 0  # the axis is actually exercised
        assert_identical(ref, fleet)

    def test_capacity_and_events_together(self, small_trace, assignment):
        cfg = SimulationConfig(
            record_events=True, memory_capacity_mb=4000.0, capacity_seed=11
        )
        assert_identical(
            *ref_vs_fleet(small_trace, assignment, PulsePolicy, cfg)
        )

    @pytest.mark.parametrize(
        "spec",
        [
            "spawn=0.2,seed=7",
            "slow=0.3,seed=5",
            "pressure=0.1,pressure-mb=4000,seed=9",
            "drop=0.05,jitter=0.2,seed=3",
        ],
    )
    def test_fault_plans(self, small_trace, assignment, spec):
        cfg = SimulationConfig(
            record_events=True, faults=FaultPlan.from_spec(spec)
        )
        assert_identical(
            *ref_vs_fleet(small_trace, assignment, PulsePolicy, cfg)
        )

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_randomized_fleets(self, zoo, seed):
        """Seeded 50–500-function synthetics, with and without faults."""
        rng = np.random.default_rng(seed)
        n = int(rng.integers(50, 501))
        trace = generate_trace(
            SyntheticTraceConfig(
                horizon_minutes=180, seed=seed + 100, n_functions=n
            )
        )
        assignment = sample_assignment(n, zoo, seed=seed + 1)
        faults = (
            FaultPlan(seed=seed, spawn_failure_rate=0.1, cold_slowdown_rate=0.1)
            if seed % 2
            else None
        )
        cfg = SimulationConfig(
            record_events=True,
            memory_capacity_mb=300.0 * n,
            capacity_seed=seed,
            faults=faults,
        )
        ref, fleet = ref_vs_fleet(
            trace, assignment, PulsePolicy, cfg, shards=int(rng.integers(1, 9))
        )
        assert_identical(ref, fleet)


class TestShardInvariance:
    @pytest.mark.parametrize("shards", [2, 7])
    def test_matches_single_shard(self, small_trace, assignment, shards):
        cfg = SimulationConfig(
            record_events=True, memory_capacity_mb=4000.0, capacity_seed=11
        )
        one = Simulation(small_trace, assignment, PulsePolicy(), cfg).run(
            engine="fleet", shards=1
        )
        many = Simulation(small_trace, assignment, PulsePolicy(), cfg).run(
            engine="fleet", shards=shards
        )
        assert_identical(one, many)

    def test_more_shards_than_functions(self, tiny_trace, tiny_assignment):
        cfg = SimulationConfig()
        one = Simulation(
            tiny_trace, tiny_assignment, PulsePolicy(), cfg
        ).run(engine="fleet", shards=1)
        many = Simulation(
            tiny_trace, tiny_assignment, PulsePolicy(), cfg
        ).run(engine="fleet", shards=64)  # clamps to n_functions
        assert_identical(one, many)

    @settings(max_examples=10, deadline=None)
    @given(seed=st.integers(0, 10_000))
    def test_valve_decisions_shard_free(self, seed):
        """Property: the valve's downgrade decisions — victims, order,
        event stream — are identical for shards in {1, 2, 7}, including
        after a fid permutation chosen to straddle shard boundaries."""
        rng = np.random.default_rng(seed)
        n = int(rng.integers(24, 60))
        zoo = default_zoo()
        trace = generate_trace(
            SyntheticTraceConfig(
                horizon_minutes=90, seed=seed, n_functions=n
            )
        )
        assignment = sample_assignment(n, zoo, seed=seed + 1)
        # A permutation that moves every function across the 2- and
        # 7-shard boundaries (reversal maps each contiguous range onto
        # the opposite end of the fid space).
        perm = np.arange(n)[::-1].copy()
        trace = trace.select_functions(list(perm), name="permuted")
        assignment = {
            new: assignment[int(old)] for new, old in enumerate(perm)
        }
        cfg = SimulationConfig(
            record_events=True,
            memory_capacity_mb=250.0 * n,
            capacity_seed=seed,
        )
        runs = [
            Simulation(trace, assignment, PulsePolicy(), cfg).run(
                engine="fleet", shards=s
            )
            for s in (1, 2, 7)
        ]
        for other in runs[1:]:
            assert_identical(runs[0], other)
        # Decisions match the reference valve too, not just each other.
        ref = Simulation(trace, assignment, PulsePolicy(), cfg).run(
            engine="reference"
        )
        assert_identical(ref, runs[0])


class TestColumnarKernel:
    @settings(max_examples=50, deadline=None)
    @given(
        st.lists(
            st.floats(
                min_value=-1e6,
                max_value=1e6,
                allow_nan=False,
                allow_infinity=False,
            ),
            max_size=40,
        ),
        st.floats(min_value=-1e6, max_value=1e6),
    )
    def test_seq_fold_matches_scalar_loop(self, values, acc0):
        acc = acc0
        for v in values:
            acc += v
        assert seq_fold(acc0, np.array(values, dtype=np.float64)) == acc

    @settings(max_examples=50, deadline=None)
    @given(st.integers(0, 10_000))
    def test_vector_levels_match_scalar(self, seed):
        rng = np.random.default_rng(seed)
        m, w = 16, 6  # (functions, window offsets), the kernel's shape
        probs = rng.random((m, w))
        probs[rng.random((m, w)) < 0.2] = 0.0  # exercise the p == 0 branches
        probs[rng.random((m, w)) < 0.1] = 1.0
        nv = rng.integers(1, 5, size=m)
        for scheme in (
            TechniqueT1(),
            TechniqueT2(),
            MonotoneScheme(cuts=(0.2, 0.5, 0.8)),
        ):
            got = _vector_levels(probs, nv, scheme)
            for i in range(m):
                for j in range(w):
                    want = scheme.select_level(float(probs[i, j]), int(nv[i]))
                    assert got[i, j] == (-1 if want is None else want), (
                        scheme,
                        probs[i, j],
                        nv[i],
                    )

    @staticmethod
    def _random_schedules(rng, zoo):
        """The same random plans in a ring and a ``KeepAliveSchedule``:
        an entry at ``minute`` and a plan over ``minute+1 .. minute+K``
        per fid, with gaps."""
        n_fn = int(rng.integers(1, 9))
        window = int(rng.integers(1, 8))
        minute = int(rng.integers(0, 30))
        assignment = sample_assignment(n_fn, zoo, seed=int(rng.integers(1000)))
        tables = VariantTables(assignment, n_fn)
        ring = RingSchedule(n_fn, window, tables, tables.fam_idx)
        sched = KeepAliveSchedule(n_fn, window)
        for fid in range(n_fn):
            nv = int(tables.n_variants[fid])
            fam = int(tables.fam_idx[fid])
            lv = rng.integers(-1, nv, size=window + 1)
            if lv[0] >= 0:
                ring.mark_alive_one(fid, minute, int(lv[0]))
                sched.mark_alive(fid, minute, tables.variant(fam, int(lv[0])))
            ring.write_plans(np.array([fid]), minute, lv[None, 1:])
            sched.set_plan(
                fid, minute,
                [None if v < 0 else tables.variant(fam, int(v)) for v in lv[1:]],
            )
        return tables, ring, sched, assignment, minute

    @staticmethod
    def _assert_same_state(tables, ring, sched, minute):
        for m in range(minute, minute + ring.n_cols):
            col = m % ring.n_cols
            for fid in range(ring.n_functions):
                v = sched.alive_variant(fid, m)
                assert ring.levels[fid, col] == (-1 if v is None else v.level)
            want = sched.footprint_counts(m)
            got = {
                tables.slot_fps[s]: int(c)
                for s, c in enumerate(ring.cnt[col].tolist())
                if c
            }
            assert got == {fp: c for fp, c in want.items() if c}

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 10_000))
    def test_fold_memory_matches_schedule(self, seed):
        """Pinned to ``KeepAliveSchedule.memory_at`` row by row, over
        rings whose count rows leave footprint slots empty."""
        rng = np.random.default_rng(seed)
        tables, ring, sched, _, minute = self._random_schedules(
            rng, default_zoo()
        )
        cols = [(minute + d) % ring.n_cols for d in range(ring.n_cols)]
        got = fold_memory(ring.cnt[cols], tables.slot_fps)
        want = [sched.memory_at(minute + d) for d in range(ring.n_cols)]
        assert got.tolist() == want
        assert (ring.cnt[cols] == 0).any()  # empty slots are folded too

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 10_000))
    def test_ring_downgrade_matches_repeated_schedule_downgrade(self, seed):
        """``downgrade(lfids, n, ...)`` equals ``n[i]`` successive
        ``KeepAliveSchedule.downgrade`` calls per fid: levels and the
        footprint count ledger, in every ring column."""
        rng = np.random.default_rng(seed)
        tables, ring, sched, assignment, minute = self._random_schedules(
            rng, default_zoo()
        )
        k = int(rng.integers(1, ring.n_functions + 1))
        lfids = np.sort(rng.choice(ring.n_functions, size=k, replace=False))
        n = rng.integers(0, 5, size=k)
        allow_drop = rng.random(k) < 0.5
        ring.downgrade(lfids, n, minute, allow_drop)
        for fid, times, drop in zip(lfids.tolist(), n.tolist(), allow_drop.tolist()):
            for _ in range(times):
                sched.downgrade(fid, minute, assignment[fid], allow_drop=drop)
        self._assert_same_state(tables, ring, sched, minute)


def _peak_case(rng, regime: str) -> dict:
    """A random merged alive table at one peak minute, for
    :class:`DowngradeBlocks`.

    ``ties``: one family, ``Ip = 0``, equal counts — every first pick is
    an exact ``Uv`` tie broken by fid. ``spread``: counts far apart, so
    ``Pr`` grows slowly along a chain and later keys fall below earlier
    ones. ``shifts``: few functions with small counts, so picks move
    Eq. 1's ``vmax`` and empty its ``vmin`` tier mid-minute. Every regime
    mixes protected level-0 rows and droppable ones (``max_rem == 0``).
    """
    n_fam = 1 if regime == "ties" else int(rng.integers(1, 4))
    width = int(rng.integers(1, 5))
    n_var = rng.integers(1, width + 1, size=n_fam)
    n_var[0] = width
    # Coarse values make Uv ties common; unused footprints leave empty
    # slots in the fold.
    ai = rng.choice([0.0, 0.25, 0.5, 1.0], size=(n_fam, width))
    fp_of = rng.choice([32.0, 64.0, 96.0, 128.0, 256.0], size=(n_fam, width))
    slot_fps = sorted(set(fp_of.ravel().tolist()) | {8.0, 4096.0})
    slot_of = np.searchsorted(slot_fps, fp_of)
    n_fn = int(rng.integers(2, 8 if regime == "shifts" else 40))
    fam_idx = rng.integers(0, n_fam, size=n_fn)
    if regime == "ties":
        counts = np.full(n_fn, int(rng.integers(0, 3)))
    elif regime == "spread":
        counts = rng.integers(0, 60, size=n_fn)
    else:
        counts = rng.integers(0, 3, size=n_fn)
    alive = np.flatnonzero(rng.random(n_fn) < 0.8)
    levels = (rng.random(alive.size) * n_var[fam_idx[alive]]).astype(np.int64)
    if regime == "ties":
        ip = np.zeros(alive.size)
    else:
        ip = rng.choice([0.0, 0.0, 0.5, 1.0, rng.random()], size=alive.size)
    max_rem = np.where(rng.random(alive.size) < 0.5, 0.0, 0.3)
    mem_row = np.zeros(len(slot_fps), dtype=np.int64)
    np.add.at(mem_row, slot_of[fam_idx[alive], levels], 1)
    demand = float(fold_memory(mem_row[None, :], slot_fps)[0])
    # From flattening everything down to a single pick.
    target = demand * float(rng.choice([-1.0, 0.0, rng.random(), 0.95]))
    weights = UtilityWeights(*rng.choice([0.0, 0.5, 1.0, 1.0], size=3))
    tables = SimpleNamespace(
        ai=ai, slot_of=slot_of, slot_fps=slot_fps, fam_idx=fam_idx
    )
    return dict(
        tables=tables, weights=weights, alive=alive, levels=levels, ip=ip,
        max_rem=max_rem, counts=counts, mem_row=mem_row, memory=demand,
        target=target,
    )


def _argmin_oracle(case: dict) -> tuple[list[int], float, list[tuple]]:
    """Algorithm 2 as ``GlobalOptimizer.review`` runs it: per victim,
    Eq. 1 over the full counts, score every kept-alive model, take the
    first strict minimum in fid order, re-fold the memory. Returns the
    victim fids, the final memory and the pre-pick ``(levels,
    counts)`` of each pick."""
    t = case["tables"]
    w = case["weights"]
    alive = case["alive"].tolist()
    levels = dict(zip(alive, case["levels"].tolist()))
    row = {fid: i for i, fid in enumerate(alive)}
    counts = case["counts"].copy()
    mem = case["mem_row"].tolist()
    current = case["memory"]
    picks: list[int] = []
    states: list[tuple] = []
    while current > case["target"]:
        pr = normalize(counts)
        best, best_uv = None, float("inf")
        for fid in sorted(levels):
            i, lv = row[fid], levels[fid]
            if lv == 0 and case["max_rem"][i] > 0.0:
                continue
            fam = int(t.fam_idx[fid])
            uv = w.apply(
                UtilityComponents(
                    float(t.ai[fam, lv]), float(pr[fid]), float(case["ip"][i])
                )
            )
            if uv < best_uv:
                best, best_uv = fid, uv
        if best is None:
            break
        states.append((dict(levels), counts[alive].copy()))
        fam, lv = int(t.fam_idx[best]), levels[best]
        mem[t.slot_of[fam, lv]] -= 1
        if lv > 0:
            mem[t.slot_of[fam, lv - 1]] += 1
            levels[best] = lv - 1
        else:
            del levels[best]
        counts[best] += 1
        current = 0.0
        for slot, c in enumerate(mem):
            if c:
                current += c * t.slot_fps[slot]
        picks.append(best)
    return picks, current, states


class TestDowngradeBlocks:
    @settings(max_examples=300, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        regime=st.sampled_from(["ties", "spread", "shifts"]),
        chunk=st.sampled_from([1, 2, 5, DowngradeBlocks.chunk]),
        sampled=st.booleans(),
    )
    def test_victim_order_matches_argmin_oracle(
        self, seed, regime, chunk, sampled
    ):
        """The block reducer picks the oracle's victims in the oracle's
        order and ends at its memory, bit for bit; a stop row only ever
        heads a block, seeing the oracle's pre-pick state."""
        rng = np.random.default_rng(seed)
        case = _peak_case(rng, regime)
        want, want_memory, states = _argmin_oracle(case)
        stop = rng.random(case["alive"].size) < 0.3 if sampled else None
        blocks = DowngradeBlocks(**case, stop=stop)
        blocks.chunk = chunk  # small chunks cross many fold boundaries
        got: list[int] = []
        for rows, from_levels in blocks:
            if stop is not None:
                assert not stop[rows[1:]].any()
                if stop[rows[0]]:
                    levels, counts = states[len(got)]
                    kept = blocks.levels >= 0
                    assert dict(
                        zip(
                            blocks.alive[kept].tolist(),
                            blocks.levels[kept].tolist(),
                        )
                    ) == levels
                    assert blocks.counts_alive.tolist() == counts.tolist()
            assert (from_levels == blocks.levels[rows] - _chain_offsets(rows)).all()
            got.extend(blocks.alive[rows].tolist())
        assert got == want
        assert blocks.memory == want_memory

    def test_generated_tables_cover_the_hard_cases(self):
        """The property's generator reaches every case the block order
        must get right: exact Uv ties at the minimum, protected level-0
        rows, drops, chains whose later keys fall below earlier ones,
        and Eq. 1 vmax/vmin shifts after the first pick."""
        seen: set[str] = set()
        for seed in range(300):
            regime = ("ties", "spread", "shifts")[seed % 3]
            case = _peak_case(np.random.default_rng(seed), regime)
            picks, _, states = _argmin_oracle(case)
            if not picks:
                continue
            t, w = case["tables"], case["weights"]
            counts = case["counts"]
            pr = normalize(counts)
            span = float(counts.max() - counts.min()) or 1.0
            keys = []
            for i, (fid, lv) in enumerate(
                zip(case["alive"].tolist(), case["levels"].tolist())
            ):
                fam = int(t.fam_idx[fid])
                if lv == 0 and case["max_rem"][i] > 0.0:
                    seen.add("protected")
                    continue
                keys.append(w.apply(UtilityComponents(
                    float(t.ai[fam, lv]), float(pr[fid]), float(case["ip"][i])
                )))
                # The chain's second event scores lower than its first.
                if picks.count(fid) >= 2 and (
                    w.accuracy_improvement * t.ai[fam, lv - 1] + w.priority / span
                    < w.accuracy_improvement * t.ai[fam, lv]
                ):
                    seen.add("falling")
            if keys.count(min(keys)) >= 2:
                seen.add("tie")
            full = counts.copy()
            for k, fid in enumerate(picks):
                if states[k][0][fid] == 0:
                    seen.add("drop")
                lo, hi = full.min(), full.max()
                full[fid] += 1
                if k and full.max() > hi:
                    seen.add("vmax")
                if k and full.min() > lo:
                    seen.add("vmin")
        assert seen >= {
            "protected", "drop", "vmax", "vmin", "tie", "falling"
        }, seen


def _chain_offsets(rows: np.ndarray) -> np.ndarray:
    """For each event of a block, how many earlier events of the block
    picked the same row (so its from-level is that much lower)."""
    out = np.zeros(rows.size, dtype=np.int64)
    for i, r in enumerate(rows.tolist()):
        out[i] = int((rows[:i] == r).sum())
    return out


class TestRejections:
    def test_unsupported_policy(self, small_trace, assignment):
        sim = Simulation(
            small_trace, assignment, IntelligentOraclePolicy(),
            SimulationConfig(),
        )
        with pytest.raises(ValueError, match="fleet"):
            sim.run(engine="fleet")

    def test_checkpoint_rejected(self, small_trace, assignment, tmp_path):
        from repro.runtime.checkpoint import CheckpointConfig

        sim = Simulation(
            small_trace, assignment, PulsePolicy(), SimulationConfig()
        )
        with pytest.raises(ValueError, match="checkpoint"):
            sim.run(
                engine="fleet",
                checkpoint=CheckpointConfig(path=tmp_path / "c.ckpt"),
            )

    def test_observe_accepted(self, small_trace, assignment):
        # Observability is no longer rejected: the fleet engine carries
        # a columnar FleetObsSession (full coverage in test_fleet_obs.py).
        from repro.obs.fleet import FleetObsSession

        sim = Simulation(
            small_trace, assignment, PulsePolicy(),
            SimulationConfig(observe=True),
        )
        result = sim.run(engine="fleet")
        assert isinstance(result.obs, FleetObsSession)

    @pytest.mark.parametrize("shards", [0, -1, 2.5])
    def test_bad_shard_counts(self, small_trace, assignment, shards):
        sim = Simulation(
            small_trace, assignment, PulsePolicy(), SimulationConfig()
        )
        with pytest.raises((ValueError, TypeError)):
            sim.run(engine="fleet", shards=shards)

    def test_shards_require_fleet_engine(self, small_trace, assignment):
        sim = Simulation(
            small_trace, assignment, PulsePolicy(), SimulationConfig()
        )
        with pytest.raises(ValueError, match="shards"):
            sim.run(engine="fast", shards=2)


class TestFacadePlumbing:
    def test_api_simulate_fleet(self, small_trace, assignment):
        from repro.api import simulate

        ref = simulate(small_trace, assignment=assignment, policy=PulsePolicy())
        fleet = simulate(
            small_trace, assignment=assignment, policy=PulsePolicy(),
            engine="fleet", shards=3,
        )
        assert_identical(ref, fleet)

    def test_experiment_config_accepts_fleet(self):
        from repro.experiments.runner import ExperimentConfig

        cfg = ExperimentConfig(engine="fleet", shards=4)
        assert (cfg.engine, cfg.shards) == ("fleet", 4)
        with pytest.raises(ValueError, match="shards"):
            ExperimentConfig(engine="fast", shards=2)
        with pytest.raises(ValueError, match="engine"):
            ExperimentConfig(engine="warp")

    def test_run_policies_fleet_matches_fast(self, zoo):
        from functools import partial

        from repro.api import make_policy
        from repro.experiments.runner import ExperimentConfig, run_policies

        trace = generate_trace(
            SyntheticTraceConfig(horizon_minutes=120, seed=5)
        )
        factories = {"pulse": partial(make_policy, "pulse")}
        results = {}
        for engine, shards in (("fast", 1), ("fleet", 2)):
            cfg = ExperimentConfig(
                n_runs=2, horizon_minutes=120, engine=engine, shards=shards
            )
            results[engine] = run_policies(trace, factories, cfg, zoo)
        for a, b in zip(results["fast"]["pulse"], results["fleet"]["pulse"]):
            assert_identical(a, b)
