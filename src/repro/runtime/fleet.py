"""The fleet engine: vectorized simulation of 10⁴–10⁵ functions.

The reference loop (:mod:`repro.runtime.simulator`) and the event-driven
fast path (:mod:`repro.runtime.fastpath`) both iterate Python objects per
(function, minute); at fleet scale that is the bottleneck. This engine
keeps all per-function state in numpy arrays (:mod:`repro.runtime.columnar`)
partitioned into :class:`FleetShards` — contiguous function-id ranges,
each owning its slice of the estimator and keep-alive state — and runs
the per-minute cycle as array kernels:

1. **shard-local**: serve the minute's invocations (cold/warm split,
   service-time and accuracy contributions), feed the inter-arrival
   estimator, map probabilities through the threshold scheme and install
   the keep-alive plans — all batched over the shard's invoking fids;
2. **publish**: each shard exposes its per-minute memory partial (an
   integer count per footprint slot) and, on peak minutes, its alive
   set with the per-function utility inputs (*Ip*, the drop-protection
   max-remaining probability, current levels);
3. **reduce**: a single reducer merges the partials — integer adds for
   memory, fid-ordered concatenation for the alive set — and runs the
   *global* stages on the merged state: Algorithm 1 peak detection,
   Algorithm 2 lowest-utility downgrades (victim order from one sort
   of chained events, :class:`DowngradeBlocks`), and the provider
   capacity valve. Victim decisions flow back to the owning shard as
   array schedule edits (``n`` downgrades per fid).

Because the merge is exact integer addition and fid-ordered
concatenation, the reduced state is byte-identical for any shard count:
``shards=1`` ≡ ``shards=k``, and both are bit-identical to the reference
engine (pinned by ``tests/test_engine_fleet.py``). Shards are processed
serially in-process — the shard API is message-shaped (publish/reduce/
apply) so a process pool can be slotted in, but determinism, not
parallelism, is what the protocol buys today.

Two execution modes, chosen by the config:

- **lean** (``track_containers=False``, ``record_events=False``): fully
  vectorized serving; floats that the reference accumulates sequentially
  are folded with :func:`~repro.runtime.columnar.seq_fold` so the sums
  stay bit-identical. This is the fleet-scale mode.
- **compatibility** (container pool and/or event log on): the engine
  drives the real :class:`~repro.runtime.container.ContainerPool` and
  :class:`~repro.runtime.events.EventLog` in the reference loop's exact
  call order — a per-fid Python loop, so it scales like the reference —
  while planning stays columnar. Use it for parity checks and
  event-level analysis, not for 100k-function sweeps.

Observability runs columnar too: ``SimulationConfig.observe`` gets a
:class:`~repro.obs.fleet.FleetObsSession` whose ``tally_*`` batch hooks
fold per-shard numpy partials (cold/invocation totals, plan-level
histograms, memory/valve/downgrade series) instead of per-decision
``record_*`` calls, plus full decision traces for a seeded sample of
fids (``ObservabilityConfig.trace_sample``) so ``repro inspect``
why-queries keep working. Phase timers are hierarchical —
``shard-{i}/serve|observe|plan`` and ``reduce/peak-flatten|downgrade|
valve`` — and merge into one span tree per run
(:meth:`~repro.obs.spans.SpanTimer.tree`). All instrumentation only
*reads* engine state, so obs-on runs stay bit-identical to obs-off and
metric totals are shard-invariant (``tests/test_fleet_obs.py``).

Not supported (explicit ``ValueError``): ``measure_overhead`` (defined
over the reference loop's per-decision cadence), checkpoint/resume,
oracle policies, and policies the compiler cannot map onto columnar
state (anything beyond PULSE and the fixed baselines).
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from repro.baselines.openwhisk import FixedKeepAlivePolicy
from repro.baselines.static import RandomMixedPolicy
from repro.core.peak import PeakDetector
from repro.core.priority import PriorityStructure
from repro.core.pulse import PulsePolicy
from repro.core.thresholds import (
    MonotoneScheme,
    TechniqueT1,
    TechniqueT2,
    ThresholdScheme,
)
from repro.core.utility import UtilityWeights
from repro.faults.injector import FaultInjector
from repro.obs.fleet import CANDIDATE_CAP, FleetObsSession
from repro.obs.session import NULL_OBS
from repro.runtime.columnar import (
    ColumnarEstimator,
    RingSchedule,
    VariantTables,
    fold_memory,
    seq_fold,
)
from repro.runtime.container import ContainerPool
from repro.runtime.events import EventKind, EventLog
from repro.runtime.metrics import RunResult
from repro.runtime.policy import KeepAlivePolicy
from repro.runtime.simulator import collect_resilience, emit_downgrade
from repro.utils.rng import rng_from_seed

__all__ = ["FleetShards", "FleetStepper", "run_fleet"]


# -- policy compilation ------------------------------------------------------


@dataclass
class _PulseModel:
    """PULSE's tunables, extracted for columnar evaluation."""

    kind = "pulse"
    window: int
    local_window: int
    normalization: str
    mode: str
    scheme: ThresholdScheme
    enable_global: bool
    cold_highest: bool
    memory_threshold: float
    prior_rule: str
    weights: UtilityWeights


@dataclass
class _FixedModel:
    """A per-function constant variant level (the fixed baselines)."""

    kind = "fixed"
    levels: np.ndarray  # (n_functions,) int64


def _compile_policy(
    policy: KeepAlivePolicy, n_functions: int, keep_alive_window: int
) -> _PulseModel | _FixedModel:
    """Map a bound policy onto columnar state, or refuse.

    The fleet engine cannot drive arbitrary policy code per (function,
    minute) — that is the loop it exists to eliminate — so it supports
    exactly the policies whose decisions it can evaluate as array ops:
    PULSE itself, and the fixed single-variant baselines (probed for a
    constant full-window plan rather than trusted by type). Everything
    else must run on the reference or fast engine.
    """
    if type(policy) is PulsePolicy:
        cfg = policy.config
        return _PulseModel(
            window=cfg.window or keep_alive_window,
            local_window=cfg.local_window,
            normalization=cfg.probability_normalization,
            mode=cfg.probability_mode,
            scheme=policy._scheme,
            enable_global=cfg.enable_global,
            cold_highest=cfg.cold_variant == "highest",
            memory_threshold=cfg.memory_threshold,
            prior_rule=cfg.prior_rule,
            weights=cfg.utility_weights or UtilityWeights(),
        )
    fixed = isinstance(policy, (FixedKeepAlivePolicy, RandomMixedPolicy))
    if fixed and not policy.is_oracle and (
        type(policy).review_minute is KeepAlivePolicy.review_minute
    ):
        levels = np.empty(n_functions, dtype=np.int64)
        for fid in range(n_functions):
            plan = policy.plan(fid, 0)
            head = plan[0] if plan else None
            if (
                head is None
                or len(plan) != keep_alive_window
                or any(v is not head and v != head for v in plan)
                or policy.cold_variant(fid, 0) != head
            ):
                raise ValueError(
                    f"engine='fleet' cannot compile policy {policy.name!r}: "
                    "expected a constant full-window plan per function"
                )
            levels[fid] = head.level
        return _FixedModel(levels=levels)
    raise ValueError(
        f"engine='fleet' does not support policy {policy.name!r} "
        f"({type(policy).__name__}); supported: PULSE and the fixed "
        "single-variant baselines. Use engine='auto', 'reference' or 'fast'."
    )


# -- shards ------------------------------------------------------------------


class _Shard:
    """One contiguous fid range's columnar state and local kernels."""

    def __init__(
        self,
        lo: int,
        hi: int,
        tables: VariantTables,
        keep_alive_window: int,
        model: _PulseModel | _FixedModel,
        index: int = 0,
    ):
        self.lo = lo
        self.hi = hi
        self.index = index
        self.span_prefix = f"shard-{index}"
        self.tables = tables
        self.fam = tables.fam_idx[lo:hi]
        self.nv = tables.n_variants[lo:hi]
        self.ring = RingSchedule(hi - lo, keep_alive_window, tables, self.fam)
        if model.kind == "pulse":
            self.est: ColumnarEstimator | None = ColumnarEstimator(
                hi - lo,
                model.window,
                model.local_window,
                model.normalization,
                model.mode,
            )
            self.cold_levels = np.where(model.cold_highest, self.nv - 1, 0)
        else:
            self.est = None
            self.cold_levels = model.levels[lo:hi]
        # Sampled-trace fids falling in this shard, as local ids —
        # installed by ``FleetShards.bind_sample``; empty means the
        # sampled-record paths are skipped on one attribute read.
        self.sample_lfids = np.empty(0, dtype=np.int64)

    def sampled_rows(self, lfids: np.ndarray) -> np.ndarray:
        """Row indices of this shard's sampled fids within a sorted
        local-fid batch — O(k log n) for k sampled fids, instead of
        masking the whole batch per shard-minute."""
        s = self.sample_lfids
        pos = np.searchsorted(lfids, s)
        ok = pos < lfids.size
        pos = pos[ok]
        return pos[lfids[pos] == s[ok]]

    def begin_minute(self, minute: int) -> None:
        self.ring.begin_minute(minute)
        if self.est is not None:
            self.est.evict(minute)

    def serve(
        self,
        lfids: np.ndarray,
        counts: np.ndarray,
        minute: int,
        injector: FaultInjector | None,
        obs: FleetObsSession | None = None,
    ) -> tuple[np.ndarray, np.ndarray, int]:
        """Vectorized serving of one minute's invocations (lean mode).

        Returns (service-time contributions, accuracy contributions,
        cold-start count); marks cold starts alive on the ring. Each
        contribution is the same float expression the reference evaluates
        per function, computed elementwise. ``obs`` (when given) receives
        the shard-minute tallies and, for sampled fids, full ``cold``
        trace records — all read-only on the engine state.
        """
        tables = self.tables
        alive = self.ring.alive_levels(lfids, minute)
        cold = alive < 0
        serve_lv = np.where(cold, self.cold_levels[lfids], alive)
        fam = self.fam[lfids]
        warm_s = tables.warm_s[fam, serve_lv]
        rec = obs if obs is not None and self.sample_lfids.size else None
        if injector is None:
            cold_part = tables.cold_s[fam, serve_lv] + (counts - 1) * warm_s
        else:
            penalty = np.zeros(len(lfids))
            # repro: lint-ok[RPR009] fault-injection path only (injector
            # attached): iterates the injected cold starts of one shard-
            # minute, bounded by the chaos scenario, not fleet cardinality
            for i in np.flatnonzero(cold).tolist():
                gfid = int(lfids[i]) + self.lo
                variant = tables.variant(int(fam[i]), int(serve_lv[i]))
                penalty[i] = injector.cold_start_penalty(
                    minute, gfid, variant,
                    rec if rec is not None and rec.is_sampled(gfid) else None,
                    None,
                )
            cold_part = (
                tables.cold_s[fam, serve_lv] + penalty + (counts - 1) * warm_s
            )
        service = np.where(cold, cold_part, counts * warm_s)
        accuracy = counts * tables.accuracy[fam, serve_lv]
        self.ring.mark_alive(lfids[cold], minute, serve_lv[cold])
        n_cold = int(cold.sum())
        if obs is not None:
            obs.tally_serve(self.index, int(counts.sum()), n_cold)
            if rec is not None:
                rows = self.sampled_rows(lfids)
                # repro: lint-ok[RPR009] trace-sampling path: iterates the
                # cold starts of the sampled fids only, bounded by the obs
                # session's sample size, not fleet cardinality
                for i in rows[cold[rows]].tolist():
                    gfid = int(lfids[i]) + self.lo
                    variant = tables.variant(int(fam[i]), int(serve_lv[i]))
                    obs.record_cold(
                        minute, gfid, variant.name, int(counts[i]),
                        obs.last_seen(gfid),
                    )
        return service, accuracy, n_cold

    def observe_and_plan(
        self,
        lfids: np.ndarray,
        minute: int,
        model: _PulseModel | _FixedModel,
        obs: FleetObsSession | None = None,
    ) -> None:
        """Feed the estimator and install keep-alive plans for the
        minute's invoking functions (both modes — planning is columnar
        even when serving is scalar). ``obs`` tallies the plan-level
        histogram and writes full ``plan`` records for sampled fids."""
        if model.kind == "fixed":
            width = self.ring.keep_alive_window
            plan = np.broadcast_to(
                self.cold_levels[lfids][:, None], (len(lfids), width)
            )
            self.ring.write_plans(lfids, minute, plan)
            if obs is not None:
                obs.tally_plans(plan)
                if self.sample_lfids.size:
                    self._record_sampled_plans(lfids, minute, plan, None, obs)
            return
        est = self.est
        assert est is not None
        spans = obs.spans if obs is not None and obs.spans_enabled else None
        t0 = time.perf_counter() if spans is not None else 0.0
        est.observe(lfids, minute)
        probs = est.mode_rows(est.exact_rows(lfids))
        if spans is not None:
            t1 = time.perf_counter()
            spans.add(self.span_prefix + "/observe", t1 - t0)
        levels = _vector_levels(probs, self.nv[lfids], model.scheme)
        no_history = est.no_history(lfids)
        if no_history.any():
            # No inter-arrival data yet: behave like the fixed policy
            # (FunctionCentricOptimizer's cold_start_fallback="highest").
            levels[no_history] = (self.nv[lfids[no_history]] - 1)[:, None]
        self.ring.write_plans(lfids, minute, levels)
        if spans is not None:
            spans.add(self.span_prefix + "/plan", time.perf_counter() - t1)
        if obs is not None:
            obs.tally_plans(levels)
            if self.sample_lfids.size:
                self._record_sampled_plans(
                    lfids, minute, levels, probs, obs, no_history
                )

    def _record_sampled_plans(
        self,
        lfids: np.ndarray,
        minute: int,
        levels: np.ndarray,
        probs: np.ndarray | None,
        obs: FleetObsSession,
        no_history: np.ndarray | None = None,
    ) -> None:
        """Full ``plan`` trace records for this batch's sampled fids.

        Mirror of FunctionCentricOptimizer: the probability vector is
        staged only when it actually drove the plan — fids with no
        inter-arrival history (``no_history``) fell back blind.
        """
        for j in self.sampled_rows(lfids).tolist():
            gfid = int(lfids[j]) + self.lo
            if probs is not None and (
                no_history is None or not no_history[j]
            ):
                obs.stage_probs(gfid, minute, probs[j])
            fam = int(self.fam[lfids[j]])
            plan = [
                None if lv < 0 else self.tables.variant(fam, int(lv))
                for lv in levels[j].tolist()
            ]
            obs.record_plan(minute, gfid, plan)
            obs.note_arrival(gfid, minute)

    def publish_memory(self, minute: int) -> np.ndarray:
        """This shard's per-footprint-slot entry counts at ``minute``."""
        return self.ring.cnt[minute % self.ring.n_cols]

    def publish_alive(
        self, minute: int, with_probabilities: bool
    ) -> tuple[np.ndarray, ...]:
        """The shard's alive set at ``minute`` as global fids + levels,
        plus (on peak minutes) the utility inputs *Ip* / max-remaining."""
        local = self.ring.alive_lfids(minute)
        fids = local + self.lo
        levels = self.ring.alive_levels(local, minute)
        if not with_probabilities:
            return fids, levels
        assert self.est is not None
        ip, max_rem = self.est.ip_and_max_remaining(local, minute)
        return fids, levels, ip, max_rem

    def apply_downgrades(
        self,
        fids: np.ndarray,
        n: np.ndarray | int,
        minute: int,
        allow_drop: np.ndarray | bool,
    ) -> None:
        """Reducer decisions flowing back: downgrade each of this shard's
        global ``fids`` ``n`` times (see :meth:`RingSchedule.downgrade`)."""
        self.ring.downgrade(fids - self.lo, n, minute, allow_drop)

    def level_at(self, fid: int, minute: int) -> int:
        return int(self.ring.levels[fid - self.lo, minute % self.ring.n_cols])

    def variant_at(self, fid: int, minute: int):
        level = self.level_at(fid, minute)
        if level < 0:
            return None
        return self.tables.variant(int(self.fam[fid - self.lo]), level)


# -- reduce: Algorithm 2 in blocks --------------------------------------------


class DowngradeBlocks:
    """Algorithm 2's victim sequence at one peak minute, in blocks.

    The argmin loop — score every kept-alive model's ``Uv = Ai + Pr +
    Ip``, downgrade the eligible minimum (ties: lowest alive index, i.e.
    lowest fid), repeat until memory is under the flatten target — is
    evaluated without one argmin per victim. Between Eq. 1 shifts
    (``vmin``/``vmax`` of the downgrade counts fixed) a row's successive
    downgrades form a *chain* of ``level + (max_rem == 0)`` pop events
    whose keys ``w_ai·ai[fam, level-j] + w_pr·pr(count+j) + t_ip`` are
    all known up front. Popping the minimum head of every chain pops the
    events in ``(e, row, j)`` order, ``e`` being the running max of the
    key along the chain: an event whose key sits below an earlier one
    of its chain is popped right after that earlier event, since nothing
    else is lower then. So one stable sort of the flattened ``(row, j)``
    grid by ``e`` is the victim order (``docs/architecture.md``,
    "Algorithm 2 in blocks", sketches the proof).

    Iterating yields ``(rows, from_levels)`` blocks of that order. A
    block ends at the first of: the event whose prefix memory — a
    vectorized fold of cumulative slot-count deltas, bit-identical to
    :meth:`FleetShards.memory_at` — is at or under ``target`` (the
    review is then done); the event that raises ``vmax`` or exhausts
    the rows at ``vmin`` (keys are re-sorted under the new Eq. 1
    normalization); the end of a :attr:`chunk`; and just before a
    ``stop`` row, so a stop row always heads its block. While a block is
    held, the attributes describe the state before its first pick —
    what :meth:`FleetShards._candidate_table` snapshots.

    ``counts`` are the full-fleet downgrade counts (Eq. 1 normalizes
    over every function, not only the alive ones); ``mem_row`` is the
    merged slot-count row of the minute and ``memory`` its fold.
    """

    #: Events folded per prefix-memory chunk — bounds the ``(chunk,
    #: n_slots)`` count matrices of :meth:`_prefix` however many victims
    #: a peak minute takes.
    chunk = 2048

    def __init__(
        self,
        tables: VariantTables,
        weights: UtilityWeights,
        alive: np.ndarray,
        levels: np.ndarray,
        ip: np.ndarray,
        max_rem: np.ndarray,
        counts: np.ndarray,
        mem_row: np.ndarray,
        memory: float,
        target: float,
        stop: np.ndarray | None = None,
    ):
        self.tables = tables
        self.weights = weights
        self.alive = alive
        self.fam = tables.fam_idx[alive]
        self.levels = levels.astype(np.int64)  # −1 once dropped
        self.ip = ip
        self.max_rem = max_rem
        self.t_ip = weights.invocation_probability * ip
        self.counts = counts.astype(float)
        self.counts_alive = self.counts[alive]
        self.vmin = float(self.counts.min())
        self.vmax = float(self.counts.max())
        self.n_at_min = int((self.counts == self.vmin).sum())
        self.mem_row = mem_row.astype(np.int64)
        self.memory = memory
        self.target = target
        self.stop = stop

    def eligible(self) -> np.ndarray:
        """Rows that may be picked: not a lowest variant with remaining
        invocation mass (PULSE's drop protection)."""
        return ~((self.levels == 0) & (self.max_rem > 0.0))

    def _sorted_events(self) -> tuple[np.ndarray, ...]:
        """Every remaining chain event as ``(row, from_level, count
        before)``, in pick order under the current ``vmin``/``vmax``."""
        levels = self.levels
        chain = np.where(levels < 0, 0, levels + (self.max_rem == 0.0))
        rows = np.flatnonzero(chain)
        if rows.size == 0:
            empty = np.empty(0, dtype=np.int64)
            return empty, empty, np.empty(0)
        j = np.arange(int(chain[rows].max()))
        lv = levels[rows, None] - j
        valid = j < chain[rows, None]
        cnt = self.counts_alive[rows, None] + j
        # The loop's float expression, (w_ai·ai + w_pr·pr) + t_ip, per
        # event — evaluated in place to keep the grid's footprint small.
        w = self.weights
        key = self.tables.ai[self.fam[rows, None], np.maximum(lv, 0)]
        key *= w.accuracy_improvement
        pr = cnt - self.vmin
        if self.vmax != self.vmin:
            pr /= self.vmax - self.vmin
        pr *= w.priority
        key += pr
        key += self.t_ip[rows, None]
        np.maximum.accumulate(key, axis=1, out=key)
        e = key[valid]
        # The grid flattens in (row, j) order, so a stable sort on e
        # alone yields the (e, row, j) order.
        order = np.argsort(e, kind="stable")
        ev_rows = np.broadcast_to(rows[:, None], lv.shape)[valid]
        return ev_rows[order], lv[valid][order], cnt[valid][order]

    def _prefix(
        self, rows: np.ndarray, from_levels: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Slot counts and folded memory after each prefix of ``rows``."""
        slot_of = self.tables.slot_of
        fam = self.fam[rows]
        k = rows.size
        delta = np.zeros((k, self.mem_row.size), dtype=np.int64)
        at = np.arange(k)
        delta[at, slot_of[fam, from_levels]] = -1
        down = from_levels > 0
        delta[at[down], slot_of[fam[down], from_levels[down] - 1]] += 1
        counts = np.cumsum(delta, axis=0)
        counts += self.mem_row
        return counts, fold_memory(counts, self.tables.slot_fps)

    def __iter__(self):
        resort = True
        while self.memory > self.target:
            if resort:
                rows, lvs, cnts = self._sorted_events()
                pos, resort = 0, False
            if pos == rows.size:
                return  # every candidate is dropped or protected
            r = rows[pos : pos + self.chunk]
            lv = lvs[pos : pos + self.chunk]
            c = cnts[pos : pos + self.chunk]
            cut = r.size
            if self.stop is not None:
                later = np.flatnonzero(self.stop[r[1:]])
                if later.size:
                    cut = int(later[0]) + 1
            # Eq. 1 shifts: the event that raises vmax or empties the
            # vmin tier is the block's last under this normalization.
            shift = np.flatnonzero(
                (c[:cut] + 1.0 > self.vmax)
                | (np.cumsum(c[:cut] == self.vmin) == self.n_at_min)
            )
            if shift.size:
                cut = int(shift[0]) + 1
                resort = True
            slot_counts, memory = self._prefix(r[:cut], lv[:cut])
            under = np.flatnonzero(memory <= self.target)
            if under.size:
                cut = int(under[0]) + 1
            r, lv, c = r[:cut], lv[:cut], c[:cut]
            yield r, lv
            self.mem_row = slot_counts[cut - 1]
            self.memory = float(memory[cut - 1])
            n = np.bincount(r, minlength=self.alive.size)
            self.levels -= n
            self.counts_alive += n
            self.counts[self.alive] = self.counts_alive
            self.vmax = max(self.vmax, float(c.max()) + 1.0)
            self.n_at_min -= int((c == self.vmin).sum())
            if self.n_at_min == 0:
                self.vmin = float(self.counts.min())
                self.n_at_min = int((self.counts == self.vmin).sum())
            pos += cut


class FleetShards:
    """The shard set plus the global reducer (Algorithms 1 & 2, valve).

    Owns everything that is *cross-function* state in the reference
    policy stack — the peak detector, the priority structure, the
    capacity RNG — and drives it on merged shard partials. All merges
    are exact: memory partials are integer slot counts summed across
    shards; alive sets are concatenated in shard (= fid) order. The
    reducer therefore makes byte-identical decisions for any shard
    count, which the shards then apply locally.
    """

    def __init__(
        self,
        n_functions: int,
        n_shards: int,
        keep_alive_window: int,
        tables: VariantTables,
        model: _PulseModel | _FixedModel,
        capacity_seed: int,
    ):
        n_shards = max(1, min(n_shards, n_functions))
        self.n_functions = n_functions
        self.tables = tables
        self.model = model
        bounds = [i * n_functions // n_shards for i in range(n_shards + 1)]
        self.shards = [
            _Shard(
                bounds[i], bounds[i + 1], tables, keep_alive_window, model,
                index=i,
            )
            for i in range(n_shards)
        ]
        self.bounds = np.array(bounds[1:], dtype=np.int64)  # split points
        self.shard_index = np.empty(n_functions, dtype=np.int64)
        for i, shard in enumerate(self.shards):
            self.shard_index[shard.lo : shard.hi] = i
        self.capacity_rng = rng_from_seed(capacity_seed)
        self.n_forced = 0
        self.n_downgrades = 0
        if model.kind == "pulse":
            self.detector: PeakDetector | None = PeakDetector(
                memory_threshold=model.memory_threshold,
                local_window=model.local_window,
                prior_rule=model.prior_rule,
            )
            self.priority: PriorityStructure | None = PriorityStructure(
                n_functions
            )
        else:
            self.detector = None
            self.priority = None

    def bind_sample(self, sample_fids: np.ndarray) -> None:
        """Distribute an obs session's sampled fids to their shards (as
        local ids), so the per-batch sampled-record lookups are O(k) in
        this shard's sample size rather than the batch size."""
        for shard in self.shards:
            in_range = sample_fids[
                (sample_fids >= shard.lo) & (sample_fids < shard.hi)
            ]
            shard.sample_lfids = (in_range - shard.lo).astype(np.int64)

    def shard_for(self, fid: int) -> _Shard:
        return self.shards[self.shard_index[fid]]

    def split(self, fids: np.ndarray) -> np.ndarray:
        """Offsets partitioning a fid-ascending array by shard."""
        cuts = np.searchsorted(fids, self.bounds)
        return np.concatenate(([0], cuts))

    # -- reduce: merged memory ---------------------------------------------
    def merged_counts(self, minute: int) -> np.ndarray:
        """The fleet's per-footprint-slot entry counts at ``minute`` —
        the shard partials summed (exact integer addition)."""
        merged = self.shards[0].publish_memory(minute)
        for shard in self.shards[1:]:
            merged = merged + shard.publish_memory(minute)
        return merged

    def memory_at(self, minute: int) -> float:
        """The fleet's keep-alive memory at ``minute`` — the canonical
        :func:`~repro.runtime.columnar.fold_memory` of the merged counts,
        bit-identical to ``KeepAliveSchedule.memory_at``."""
        merged = self.merged_counts(minute)
        return float(fold_memory(merged[None, :], self.tables.slot_fps)[0])

    def alive_fids(self, minute: int) -> np.ndarray:
        """Global alive set at ``minute``, fid-ascending (valve input)."""
        parts = [s.publish_alive(minute, False)[0] for s in self.shards]
        return np.concatenate(parts) if parts else np.empty(0, dtype=np.int64)

    # -- reduce: Algorithms 1 & 2 -------------------------------------------
    def review(
        self,
        minute: int,
        events: EventLog | None,
        obs: FleetObsSession | None = None,
    ) -> None:
        """The global optimizer's per-minute review on merged state.

        Mirrors ``GlobalOptimizer.review``: detect a peak against the
        prior (Algorithm 1), then downgrade the lowest-``Uv = Ai + Pr +
        Ip`` model one at a time (Algorithm 2) until demand is back
        under the flatten target — the victim order comes from
        :class:`DowngradeBlocks`, and the victims' total downgrades are
        applied to the owning shards and the priority structure once;
        always feed the detector demand + committed memory. ``obs``
        tallies peaks/downgrades, times the ``reduce/peak-flatten`` and
        ``reduce/downgrade`` phases, and — for sampled victims — records
        the full (capped) candidate table.
        """
        detector, priority = self.detector, self.priority
        assert detector is not None and priority is not None
        model = self.model
        assert isinstance(model, _PulseModel)
        rec = obs if obs is not None and obs.decisions_enabled else None
        spans = obs.spans if obs is not None and obs.spans_enabled else None
        mem_row = self.merged_counts(minute)
        demand = float(fold_memory(mem_row[None, :], self.tables.slot_fps)[0])
        prior = detector.prior_memory()
        current = demand
        if detector.is_peak(demand, prior):
            t_flatten = time.perf_counter() if spans is not None else 0.0
            target = detector.flatten_target(prior)
            if obs is not None:
                obs.tally_peak()
            if rec is not None:
                rec.record_peak(minute, demand, prior, target)
            parts = [s.publish_alive(minute, True) for s in self.shards]
            alive = np.concatenate([p[0] for p in parts])
            levels = np.concatenate([p[1] for p in parts])
            ip = np.minimum(np.concatenate([p[2] for p in parts]), 1.0)
            max_rem = np.concatenate([p[3] for p in parts])
            sample_mask = rec.sample_mask if rec is not None else None
            blocks = DowngradeBlocks(
                self.tables, model.weights, alive, levels, ip, max_rem,
                priority.counts, mem_row, demand, target,
                stop=sample_mask[alive] if sample_mask is not None else None,
            )
            if spans is not None:
                t_downgrade = time.perf_counter()
                spans.add("reduce/peak-flatten", t_downgrade - t_flatten)
            for rows, from_levels in blocks:
                if events is not None or (
                    sample_mask is not None and blocks.stop[rows[0]]
                ):
                    self._emit_block(
                        minute, blocks, rows, from_levels, events, rec
                    )
            n = levels - blocks.levels
            hit = np.flatnonzero(n)
            if hit.size:
                fids = alive[hit]
                allow_drop = max_rem[hit] == 0.0
                offsets = self.split(fids)
                for i, shard in enumerate(self.shards):
                    a, b = int(offsets[i]), int(offsets[i + 1])
                    if a < b:
                        shard.apply_downgrades(
                            fids[a:b], n[hit[a:b]], minute, allow_drop[a:b]
                        )
                # repro: lint-ok[RPR002] Alg. 2 line 10 bookkeeping on the
                # PriorityStructure, not an obs hook; the loop engines make
                # the same update through GlobalOptimizer.review
                priority.record_downgrades(fids, n[hit])
                total = int(n.sum())
                self.n_downgrades += total
                if obs is not None:
                    obs.tally_downgrade(minute, total)
            current = blocks.memory
            if spans is not None:
                spans.add("reduce/downgrade", time.perf_counter() - t_downgrade)
        detector.observe(demand, current)

    def _emit_block(
        self,
        minute: int,
        blocks: DowngradeBlocks,
        rows: np.ndarray,
        from_levels: np.ndarray,
        events: EventLog | None,
        rec: FleetObsSession | None,
    ) -> None:
        """Telemetry for one block of Algorithm 2 victims, in pick order:
        a DOWNGRADE event per pick, and the decision record with the
        scored candidate table for a sampled block head (only a head can
        be sampled — ``DowngradeBlocks`` ends blocks before stop rows —
        and the table is read while ``blocks`` still holds the pre-pick
        state)."""
        head_rec = rec if blocks.stop is not None and blocks.stop[rows[0]] else None
        cand = None
        if head_rec is not None:
            keep = blocks.levels >= 0
            cand = self._candidate_table(
                blocks.alive[keep], blocks.levels[keep], blocks.fam[keep],
                blocks.ip[keep], blocks.counts_alive[keep], blocks.vmin,
                blocks.vmax, blocks.eligible()[keep], blocks.weights,
            )
        if events is None:
            rows, from_levels = rows[:1], from_levels[:1]
        tables = self.tables
        # One emit per victim, as the reference engine emits them — only
        # with an event log attached or for a sampled head.
        for i, (row, level) in enumerate(zip(rows.tolist(), from_levels.tolist())):
            fam = int(blocks.fam[row])
            emit_downgrade(
                minute,
                int(blocks.alive[row]),
                tables.variant(fam, level).name,
                tables.variant(fam, level - 1).name if level > 0 else None,
                events,
                head_rec if i == 0 else None,
                candidates=cand if i == 0 else None,
            )

    def _candidate_table(
        self,
        alive: np.ndarray,
        levels: np.ndarray,
        fam: np.ndarray,
        ip: np.ndarray,
        counts_alive: np.ndarray,
        vmin: float,
        vmax: float,
        eligible: np.ndarray,
        weights: UtilityWeights,
    ) -> list[dict]:
        """The reference trace's scored candidate table, rebuilt from the
        reducer's columnar state: one row per kept-alive model with its
        unweighted ``Ai``/``Pr``/``Ip`` terms and the weighted ``Uv``, or
        a ``protected`` marker — capped at :data:`CANDIDATE_CAP`
        lowest-``Uv`` rows (the victim is the eligible minimum, so it
        always survives the cap) with an ``omitted`` trailer row noting
        the truncation."""
        ai = self.tables.ai[fam, levels]
        if vmax == vmin:
            pr = counts_alive - vmin
        else:
            pr = (counts_alive - vmin) / (vmax - vmin)
        uv = (
            weights.accuracy_improvement * ai
            + weights.priority * pr
            + weights.invocation_probability * ip
        )
        # Protected rows sort last (inf), matching the selection mask;
        # ties stay fid-ascending like the reference loop. A full stable
        # argsort over the alive set costs O(n log n) per sampled victim
        # (~0.5 ms at 10k functions), so select the CANDIDATE_CAP head
        # with an O(n) argpartition instead, reproducing the stable
        # order exactly: rows strictly below the cap boundary value,
        # then boundary ties filled lowest-fid first (``alive`` is fid-
        # ascending, so index order is fid order).
        key = np.where(eligible, uv, np.inf)
        if key.size <= CANDIDATE_CAP:
            order = np.argsort(key, kind="stable")
        else:
            pool = np.argpartition(key, CANDIDATE_CAP - 1)[:CANDIDATE_CAP]
            boundary = key[pool].max()
            strict = np.flatnonzero(key < boundary)
            strict = strict[np.argsort(key[strict], kind="stable")]
            ties = np.flatnonzero(key == boundary)[
                : CANDIDATE_CAP - strict.size
            ]
            order = np.concatenate((strict, ties))
        rows: list[dict] = []
        for idx in order[:CANDIDATE_CAP].tolist():
            fid = int(alive[idx])
            vname = self.tables.variant(int(fam[idx]), int(levels[idx])).name
            if not eligible[idx]:
                rows.append({"fid": fid, "variant": vname, "protected": True})
            else:
                rows.append({
                    "fid": fid,
                    "variant": vname,
                    "Ai": float(ai[idx]),
                    "Pr": float(pr[idx]),
                    "Ip": float(ip[idx]),
                    "Uv": float(uv[idx]),
                })
        if alive.size > CANDIDATE_CAP:
            rows.append({"omitted": int(alive.size - CANDIDATE_CAP)})
        return rows

    # -- reduce: provider capacity valve -------------------------------------
    def valve(
        self,
        minute: int,
        capacity_mb: float,
        events: EventLog | None,
        obs: FleetObsSession | None = None,
    ) -> int:
        """§III-A's pressure valve on the merged alive set.

        Byte-compatible with ``apply_capacity_valve``: the candidate
        array is the fid-ascending merged alive set, victims are drawn
        from the shared capacity RNG, and a victim leaves the candidate
        array only when its keep-alive is dropped entirely — so the RNG
        stream (which depends on the array length sequence) matches the
        reference's exactly. ``obs`` tallies the per-minute victim count,
        times the ``reduce/valve`` phase, and records sampled victims'
        forced downgrades.
        """
        if self.memory_at(minute) <= capacity_mb:
            return 0
        rec = obs if obs is not None and obs.decisions_enabled else None
        spans = obs.spans if obs is not None and obs.spans_enabled else None
        t0 = time.perf_counter() if spans is not None else 0.0
        alive = self.alive_fids(minute)
        sample_mask = rec.sample_mask if rec is not None else None
        forced = 0
        while self.memory_at(minute) > capacity_mb and alive.size:
            victim = int(self.capacity_rng.choice(alive))
            shard = self.shard_for(victim)
            victim_rec = (
                rec
                if sample_mask is not None and sample_mask[victim]
                else None
            )
            record = events is not None or victim_rec is not None
            if record:
                from_name = self.tables.variant(
                    int(self.tables.fam_idx[victim]),
                    shard.level_at(victim, minute),
                ).name
            shard.apply_downgrades(np.array([victim]), 1, minute, True)
            forced += 1
            level = shard.level_at(victim, minute)
            if record:
                to_name = (
                    self.tables.variant(int(self.tables.fam_idx[victim]), level).name
                    if level >= 0
                    else None
                )
                emit_downgrade(
                    minute, victim, from_name, to_name, events, victim_rec,
                    forced=True,
                )
            if level < 0:
                alive = alive[alive != victim]
        self.n_forced += forced
        if obs is not None:
            obs.tally_valve(minute, forced)
            if spans is not None:
                spans.add("reduce/valve", time.perf_counter() - t0)
        return forced


# -- threshold-scheme kernels ------------------------------------------------


def _vector_levels(
    probs: np.ndarray, n_variants: np.ndarray, scheme: ThresholdScheme
) -> np.ndarray:
    """Map probability rows to variant levels (−1 = keep nothing).

    ``probs`` is (k, W); ``n_variants`` is (k,). The closed forms are the
    schemes' own expressions evaluated elementwise (``int()`` and
    ``astype(int64)`` both truncate toward zero; every probability is
    already ≤ 1.0, so the reference's ``p if p < 1.0 else 1.0`` clamp is
    the identity).
    """
    nv = n_variants[:, None]
    if type(scheme) is TechniqueT1:
        return np.minimum((probs * nv).astype(np.int64), nv - 1)
    if type(scheme) is TechniqueT2:
        upper = nv - 1
        banded = 1 + np.minimum(
            (probs * upper).astype(np.int64), np.maximum(upper - 1, 0)
        )
        return np.where((probs == 0.0) | (nv == 1), 0, banded)
    if type(scheme) is MonotoneScheme:
        flat = np.searchsorted(np.asarray(scheme.cuts), probs.ravel(), side="right")
        return np.minimum(flat.reshape(probs.shape).astype(np.int64), nv - 1)
    # Arbitrary user scheme: fall back to scalar calls per (fid, offset).
    out = np.empty(probs.shape, dtype=np.int64)
    for i, row in enumerate(probs.tolist()):
        n = int(n_variants[i])
        for j, p in enumerate(row):
            level = scheme.select_level(p if p < 1.0 else 1.0, n)
            out[i, j] = -1 if level is None else level
    return out


# -- the engine --------------------------------------------------------------


class FleetStepper:
    """The columnar fleet engine's run state, steppable one minute at a
    time.

    Constructed fresh (``live=None``: compiles the policy into its
    vectorized model, builds the sharded state) or from a restored
    session-snapshot payload (``live=`` the dict from
    :meth:`SimulationState.restore` — the whole columnar state graph,
    shards and compiled model included, comes back as one pickle so
    shared identities survive). Batch runs (:func:`run_fleet`) feed it
    every minute from the sparse event table; sessions
    (:mod:`repro.serve.session`) call :meth:`step` one ``advance()`` at
    a time — the per-minute body is the same code either way, so a
    stepped replay is bit-identical to the batch run by construction.

    Entry validation (``measure_overhead``, shard count,
    checkpoint/resume rejection for batch runs) stays with the callers;
    the stepper assumes a config it can honor.
    """

    engine = "fleet"

    def __init__(self, sim, shards: int = 1, *, live: dict | None = None):
        cfg = sim.config
        trace = sim.trace
        self.sim = sim
        self.cfg = cfg
        self.horizon = trace.horizon
        self.n_fn = n_fn = trace.n_functions

        if live is None:
            policy = sim.policy
            self.events = EventLog() if cfg.record_events else None
            self.obs = (
                FleetObsSession(
                    cfg.observe,
                    n_functions=n_fn,
                    n_shards=max(1, min(shards, n_fn)),
                    horizon=self.horizon,
                )
                if cfg.observe is not None
                else None
            )
            if self.obs is not None or self.events is not None:
                policy.attach_observability(
                    self.obs if self.obs is not None else NULL_OBS, self.events
                )
            policy.bind(trace, sim.assignment, cfg.keep_alive_window)
            self.policy = policy
            self.model = _compile_policy(policy, n_fn, cfg.keep_alive_window)
            self.tables = VariantTables(sim.assignment, n_fn)
            self.fleet = FleetShards(
                n_fn, shards, cfg.keep_alive_window, self.tables, self.model,
                cfg.capacity_seed,
            )
            if self.obs is not None and self.obs.has_sample:
                self.fleet.bind_sample(self.obs.sample_fids)
            self.pool = (
                ContainerPool(self.events)
                if (cfg.track_containers or cfg.record_events)
                else None
            )
            self.injector = (
                FaultInjector(cfg.faults, self.horizon)
                if cfg.faults is not None and cfg.faults.injects_runtime
                else None
            )
            self.service_time = 0.0
            self.accuracy_sum = 0.0
            self.n_invocations = 0
            self.n_cold = 0
            self.total_mb_minutes = 0.0
            self.mem_series = (
                np.zeros(self.horizon) if cfg.record_series else None
            )
            self.ideal_series = (
                np.zeros(self.horizon) if cfg.record_series else None
            )
            self.next_minute = 0
        else:
            # Single-payload restore: the sharded columnar state, the
            # compiled model and the variant tables come back with their
            # shared identities intact; attach_observability/bind and
            # _compile_policy are NOT re-run.
            self.policy = live["policy"]
            self.events = live["events"]
            self.obs = live["obs"]
            self.model = live["model"]
            self.tables = live["tables"]
            self.fleet = live["fleet"]
            self.pool = live["pool"]
            self.injector = live["injector"]
            self.service_time = live["service_time"]
            self.accuracy_sum = live["accuracy_sum"]
            self.n_invocations = live["n_invocations"]
            self.n_cold = live["n_cold"]
            self.total_mb_minutes = live["total_mb_minutes"]
            self.mem_series = live["mem_series"]
            self.ideal_series = live["ideal_series"]
            self.next_minute = live["next_minute"]

        # Hot-loop telemetry handles, mirroring the loop engines (each
        # None when its layer is off; columnar tallies ride ``obs``).
        obs = self.obs
        self.rec = obs if obs is not None and obs.decisions_enabled else None
        self.met = (
            obs.metrics if obs is not None and obs.metrics_enabled else None
        )
        self.spans = (
            obs.spans if obs is not None and obs.spans_enabled else None
        )
        self.capacity = cfg.memory_capacity_mb
        has_pressure = (
            self.injector is not None
            and self.injector.pressure_minutes is not None
        )
        self.valve_on = self.capacity is not None or has_pressure
        self.is_pulse = self.model.kind == "pulse"
        self.last_memory_mb = 0.0
        self._result: RunResult | None = None

    def live_state(self) -> dict:
        """The columnar state graph, in session-snapshot payload shape
        (one dict → one pickle, identities preserved)."""
        return {
            "policy": self.policy,
            "events": self.events,
            "obs": self.obs,
            "model": self.model,
            "tables": self.tables,
            "fleet": self.fleet,
            "pool": self.pool,
            "injector": self.injector,
            "service_time": self.service_time,
            "accuracy_sum": self.accuracy_sum,
            "n_invocations": self.n_invocations,
            "n_cold": self.n_cold,
            "total_mb_minutes": self.total_mb_minutes,
            "mem_series": self.mem_series,
            "ideal_series": self.ideal_series,
            "next_minute": self.next_minute,
        }

    def step(self, t: int, inv_fids: np.ndarray, inv_counts: np.ndarray) -> None:
        """Execute minute ``t``. ``inv_fids`` are the invoking function
        ids (int64, ascending) and ``inv_counts`` the aligned counts;
        pass empty arrays for an idle minute. Minutes must be fed
        strictly in order."""
        fleet = self.fleet
        tables = self.tables
        pool = self.pool
        events = self.events
        obs = self.obs
        rec = self.rec
        spans = self.spans
        injector = self.injector
        model = self.model
        n_fn = self.n_fn
        service_time = self.service_time
        accuracy_sum = self.accuracy_sum
        n_cold = self.n_cold

        for shard in fleet.shards:
            shard.begin_minute(t)

        if pool is not None:
            # Pre-warm pass (reference order: every fid, ascending).
            t_pool = time.perf_counter() if spans is not None else 0.0
            # repro: lint-ok[RPR009] compat mode only (a reference
            # ContainerPool is attached): golden-equivalence runs mirror
            # the reference loop's per-fid reconcile; the lean fleet path
            # has pool=None and never enters this branch
            for fid in range(n_fn):
                pool.reconcile(fid, fleet.shard_for(fid).variant_at(fid, t), t)
            if spans is not None:
                spans.add("pool-reconcile", time.perf_counter() - t_pool)

        n_events = int(inv_fids.size)
        if n_events:
            if pool is None and events is None:
                # Lean serving: vectorized per shard, folded sequentially
                # so the accumulators match the reference's scalar adds.
                offsets = fleet.split(inv_fids)
                service_parts = []
                accuracy_parts = []
                for i, shard in enumerate(fleet.shards):
                    a, b = int(offsets[i]), int(offsets[i + 1])
                    if a == b:
                        continue
                    lf = inv_fids[a:b] - shard.lo
                    t_serve = time.perf_counter() if spans is not None else 0.0
                    svc, acc, cold = shard.serve(
                        lf, inv_counts[a:b], t, injector, obs
                    )
                    if spans is not None:
                        spans.add(
                            shard.span_prefix + "/serve",
                            time.perf_counter() - t_serve,
                        )
                    n_cold += cold
                    service_parts.append(svc)
                    accuracy_parts.append(acc)
                service_time = seq_fold(
                    service_time, np.concatenate(service_parts)
                )
                accuracy_sum = seq_fold(
                    accuracy_sum, np.concatenate(accuracy_parts)
                )
            else:
                # Compatibility serving: the reference loop's exact call
                # and event order, per invoking fid ascending.
                # repro: lint-ok[RPR009] compat mode only (pool or event
                # log attached): replays the reference loop's exact
                # per-event order for golden equivalence; the lean path
                # takes the vectorized branch above
                for i in range(n_events):
                    fid = int(inv_fids[i])
                    count = int(inv_counts[i])
                    shard = fleet.shard_for(fid)
                    level = shard.level_at(fid, t)
                    if level < 0:
                        cold_level = int(shard.cold_levels[fid - shard.lo])
                        variant = tables.variant(
                            int(tables.fam_idx[fid]), cold_level
                        )
                        fid_rec = (
                            rec
                            if rec is not None and rec.is_sampled(fid)
                            else None
                        )
                        if injector is None:
                            service_time += (
                                variant.cold_service_time_s
                                + (count - 1) * variant.warm_service_time_s
                            )
                        else:
                            service_time += (
                                variant.cold_service_time_s
                                + injector.cold_start_penalty(
                                    t, fid, variant, fid_rec, events
                                )
                                + (count - 1) * variant.warm_service_time_s
                            )
                        n_cold += 1
                        accuracy_sum += count * variant.accuracy
                        if obs is not None:
                            obs.tally_serve(
                                int(fleet.shard_index[fid]), count, 1
                            )
                        if fid_rec is not None:
                            fid_rec.record_cold(
                                t, fid, variant.name, count,
                                fid_rec.last_seen(fid),
                            )
                        shard.ring.mark_alive_one(fid - shard.lo, t, cold_level)
                        if pool is not None:
                            pool.cold_start(fid, variant, t)
                            pool.record_served(fid, count)
                        if events is not None:
                            events.emit(
                                t, EventKind.COLD_START, fid, variant.name, 1
                            )
                            if count > 1:
                                events.emit(
                                    t,
                                    EventKind.WARM_START,
                                    fid,
                                    variant.name,
                                    count - 1,
                                )
                    else:
                        variant = tables.variant(int(tables.fam_idx[fid]), level)
                        service_time += count * variant.warm_service_time_s
                        accuracy_sum += count * variant.accuracy
                        if obs is not None:
                            obs.tally_serve(
                                int(fleet.shard_index[fid]), count, 0
                            )
                        if pool is not None:
                            pool.record_served(fid, count)
                        if events is not None:
                            events.emit(
                                t, EventKind.WARM_START, fid, variant.name, count
                            )
            self.n_invocations += int(inv_counts.sum())

            # Estimator feed + plan installation — batched per shard in
            # both modes. (Safe to run after the serve loop: plans only
            # write minutes t+1.., and each function's estimator state is
            # independent, so the interleaved reference order and this
            # batched order reach identical state.)
            offsets = fleet.split(inv_fids)
            for i, shard in enumerate(fleet.shards):
                a, b = int(offsets[i]), int(offsets[i + 1])
                if a == b:
                    continue
                shard.observe_and_plan(inv_fids[a:b] - shard.lo, t, model, obs)

        # Cross-function review (peak flattening) on the merged state.
        if self.is_pulse:
            if model.enable_global:
                fleet.review(t, events, obs)
            else:
                assert fleet.detector is not None
                fleet.detector.observe(fleet.memory_at(t))

        # Provider pressure valve on the merged state.
        if self.valve_on:
            cap_t = (
                self.capacity
                if injector is None
                else injector.effective_capacity(t, self.capacity)
            )
            if cap_t is not None:
                fleet.valve(t, cap_t, events, obs)

        # Commit the minute.
        if pool is not None:
            t_pool = time.perf_counter() if spans is not None else 0.0
            # repro: lint-ok[RPR009] compat mode only (a reference
            # ContainerPool is attached): the commit-side mirror of the
            # pre-warm reconcile above; pool=None on the lean fleet path
            for fid in range(n_fn):
                pool.reconcile(fid, fleet.shard_for(fid).variant_at(fid, t), t)
            pool.tick_all()
            if spans is not None:
                spans.add("pool-reconcile", time.perf_counter() - t_pool)
        mem_t = fleet.memory_at(t)
        self.total_mb_minutes += mem_t
        if obs is not None:
            obs.tally_memory(t, mem_t)
        if events is not None:
            events.emit(t, EventKind.MEMORY_COMMIT, value=mem_t)
        if self.mem_series is not None:
            self.mem_series[t] = mem_t
        if self.ideal_series is not None and n_events:
            # repro: lint-ok[RPR009] same expression, operand dtype and
            # operand order as the reference engine's ideal-series sum, so
            # numpy's pairwise reduction is bitwise-identical across
            # engines; pinned by the golden equivalence tests
            self.ideal_series[t] = tables.highest_mb[inv_fids].sum()

        self.service_time = service_time
        self.accuracy_sum = accuracy_sum
        self.n_cold = n_cold
        self.last_memory_mb = mem_t
        self.next_minute = t + 1

    def finalize(self) -> RunResult:
        """Close the run and build its :class:`RunResult` (idempotent —
        the metric/obs finalizers below mutate, so the result is cached)."""
        if self._result is not None:
            return self._result
        cfg = self.cfg
        fleet = self.fleet
        obs = self.obs
        met = self.met
        n_invocations = self.n_invocations
        n_cold = self.n_cold
        mean_accuracy = (
            self.accuracy_sum / n_invocations if n_invocations else 0.0
        )
        if met is not None:
            assert obs is not None
            # The shared cross-engine metric names, fed from the columnar
            # partials. The loop engines label invocation/cold counters
            # per function; per-function series cannot scale to 100k
            # fids, so the fleet labels them per shard — totals stay
            # identical for any shard count (exact integer partials).
            _inv = met.counter("invocations_total", "invocations served")
            _cold = met.counter("cold_starts_total", "user-visible cold starts")
            for i in range(len(fleet.shards)):
                _inv.labels(shard=i).inc(int(obs.shard_invocations[i]))
                _cold.labels(shard=i).inc(int(obs.shard_cold[i]))
            met.counter("warm_starts_total", "invocations served warm").inc(
                n_invocations - n_cold
            )
            met.histogram(
                "keepalive_mb", "per-minute committed keep-alive memory"
            ).observe_many(obs.mem_series)
            met.counter(
                "forced_downgrades_total", "capacity-valve downgrades"
            ).inc(fleet.n_forced)
            met.gauge("horizon_minutes").set(self.horizon)
            met.gauge("n_functions").set(self.n_fn)
            met.gauge("keepalive_mb_minutes").set(self.total_mb_minutes)
        if obs is not None:
            obs.finalize_fleet_metrics()
        resilience = collect_resilience(
            self.policy, self.injector, self.horizon
        )
        self._result = RunResult(
            policy_name=self.policy.name,
            n_invocations=n_invocations,
            n_warm=n_invocations - n_cold,
            n_cold=n_cold,
            total_service_time_s=self.service_time,
            keepalive_cost_usd=cfg.cost_model.minute_cost(
                self.total_mb_minutes
            ),
            mean_accuracy=mean_accuracy,
            policy_overhead_s=0.0,
            n_policy_decisions=0,
            memory_series_mb=self.mem_series,
            ideal_memory_series_mb=self.ideal_series,
            pool_stats=self.pool.stats if self.pool is not None else None,
            events=self.events,
            n_forced_downgrades=fleet.n_forced,
            n_checkpoints=0,
            obs=obs,
            **resilience,
        )
        return self._result


def validate_fleet_config(cfg, shards: int) -> None:
    """Entry validation shared by :func:`run_fleet` and the session
    layer: reject configs the columnar engine cannot honor."""
    if cfg.measure_overhead:
        raise ValueError(
            "engine='fleet' cannot honor measure_overhead=True (Figure 9's "
            "metric needs the reference loop's per-minute decision "
            "cadence); use engine='auto' or 'reference'"
        )
    if not isinstance(shards, int) or isinstance(shards, bool) or shards < 1:
        raise ValueError(f"shards must be a positive int, got {shards!r}")


def run_fleet(sim, shards: int = 1, checkpoint=None, resume_from=None) -> RunResult:
    """Execute ``sim`` on the fleet engine with ``shards`` shards.

    Called by :meth:`Simulation.run` — use ``run(engine="fleet",
    shards=...)`` (or :func:`repro.api.simulate`) rather than calling
    this directly. A thin driver over :class:`FleetStepper`: extracts
    the sparse minute-major event table once, then feeds the stepper
    every minute.
    """
    if checkpoint is not None or resume_from is not None:
        raise ValueError(
            "engine='fleet' does not support checkpoint/resume; use "
            "engine='reference' or 'fast'"
        )
    validate_fleet_config(sim.config, shards)

    trace = sim.trace
    horizon = trace.horizon
    counts = trace.counts
    stepper = FleetStepper(sim, shards)

    # Sparse minute-major event table: the per-minute kernels index only
    # the invoking functions (fid-ascending within each minute, matching
    # the reference's flatnonzero order).
    ev_minute, ev_fid = np.nonzero(counts.T)
    ev_count = counts[ev_fid, ev_minute]
    minute_starts = np.searchsorted(ev_minute, np.arange(horizon + 1))

    for t in range(horizon):
        lo, hi = int(minute_starts[t]), int(minute_starts[t + 1])
        stepper.step(t, ev_fid[lo:hi], ev_count[lo:hi])

    return stepper.finalize()
