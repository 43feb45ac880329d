"""Tests for repro.runtime.schedule — the keep-alive ledger."""

import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.models.zoo import default_zoo
from repro.runtime.schedule import KeepAliveSchedule


@pytest.fixture()
def sched():
    return KeepAliveSchedule(n_functions=3, keep_alive_window=10)


class TestPlans:
    def test_set_plan_covers_offsets(self, sched, gpt):
        plan = [gpt.highest] * 3 + [None] * 7
        sched.set_plan(0, 100, plan)
        assert sched.alive_variant(0, 101) == gpt.highest
        assert sched.alive_variant(0, 103) == gpt.highest
        assert sched.alive_variant(0, 104) is None
        assert sched.alive_variant(0, 100) is None  # plan starts at +1

    def test_plan_overwrites_previous(self, sched, gpt):
        sched.set_plan(0, 100, [gpt.highest] * 10)
        sched.set_plan(0, 103, [None] * 10)
        # minutes 104..113 cleared; 101..103 still from the first plan
        assert sched.alive_variant(0, 103) == gpt.highest
        assert sched.alive_variant(0, 107) is None

    def test_reinstalled_plan_after_gap_covers_only_its_offsets(
        self, sched, gpt
    ):
        # A cached uniform plan re-installed past the end of its previous
        # install must not fill the gap up to the invocation minute.
        plan = [gpt.highest] * 10
        sched.set_plan(0, 0, plan)
        sched.set_plan(0, 1, plan)  # re-install: classified uniform
        sched.set_plan(0, 15, plan)
        assert sched.planned_minutes(0) == list(range(1, 12)) + list(
            range(16, 26)
        )

    def test_plan_too_long_rejected(self, sched, gpt):
        with pytest.raises(ValueError, match="exceeds"):
            sched.set_plan(0, 0, [gpt.highest] * 11)

    def test_short_plan_allowed(self, sched, gpt):
        sched.set_plan(0, 0, [gpt.lowest])
        assert sched.alive_variant(0, 1) == gpt.lowest

    def test_mark_alive_same_minute(self, sched, gpt):
        sched.mark_alive(1, 50, gpt.lowest)
        assert sched.alive_variant(1, 50) == gpt.lowest

    def test_bad_fid(self, sched, gpt):
        with pytest.raises(IndexError):
            sched.set_plan(3, 0, [gpt.highest])


class TestMemoryAccounting:
    def test_memory_at_sums_variants(self, sched, gpt, bert):
        sched.mark_alive(0, 5, gpt.highest)
        sched.mark_alive(1, 5, bert.lowest)
        expected = gpt.highest.memory_mb + bert.lowest.memory_mb
        assert sched.memory_at(5) == pytest.approx(expected)

    def test_empty_minute_is_zero(self, sched):
        assert sched.memory_at(0) == 0.0

    def test_alive_at(self, sched, gpt):
        sched.mark_alive(2, 7, gpt.lowest)
        assert sched.alive_at(7) == {2: gpt.lowest}


class TestDowngrade:
    def test_downgrade_steps_one_level(self, sched, gpt):
        sched.set_plan(0, 0, [gpt.highest] * 10)
        freed = sched.downgrade(0, 1, gpt)
        assert sched.alive_variant(0, 1).level == gpt.highest.level - 1
        assert freed == pytest.approx(
            gpt.highest.memory_mb - gpt.variant(gpt.highest.level - 1).memory_mb
        )

    def test_downgrade_applies_to_future_entries(self, sched, gpt):
        sched.set_plan(0, 0, [gpt.highest] * 10)
        sched.downgrade(0, 5, gpt)
        assert sched.alive_variant(0, 3).level == 2  # before from_minute
        assert sched.alive_variant(0, 9).level == 1

    def test_lowest_dropped_when_allowed(self, sched, gpt):
        sched.set_plan(0, 0, [gpt.lowest] * 10)
        freed = sched.downgrade(0, 1, gpt, allow_drop=True)
        assert sched.alive_variant(0, 1) is None
        assert freed == pytest.approx(gpt.lowest.memory_mb)

    def test_lowest_kept_when_drop_forbidden(self, sched, gpt):
        sched.set_plan(0, 0, [gpt.lowest] * 10)
        freed = sched.downgrade(0, 1, gpt, allow_drop=False)
        assert sched.alive_variant(0, 1) == gpt.lowest
        assert freed == 0.0

    def test_mixed_levels_downgraded_entrywise(self, sched, gpt):
        plan = [gpt.lowest, gpt.highest, gpt.variant(1)]
        sched.set_plan(0, 0, plan)
        sched.downgrade(0, 1, gpt, allow_drop=False)
        assert sched.alive_variant(0, 1) == gpt.lowest  # was lowest, kept
        assert sched.alive_variant(0, 2).level == 1
        assert sched.alive_variant(0, 3).level == 0

    def test_memory_never_increases(self, sched, gpt):
        sched.set_plan(0, 0, [gpt.highest] * 10)
        before = sched.memory_at(4)
        for _ in range(5):
            sched.downgrade(0, 4, gpt)
            after = sched.memory_at(4)
            assert after <= before
            before = after


class TestAdvance:
    def test_advance_drops_past(self, sched, gpt):
        sched.set_plan(0, 0, [gpt.highest] * 10)
        sched.advance(5)
        assert sched.alive_variant(0, 4) is None
        assert sched.alive_variant(0, 5) == gpt.highest
        assert sched.planned_minutes(0) == [5, 6, 7, 8, 9, 10]

    def test_constructor_validation(self):
        with pytest.raises(ValueError):
            KeepAliveSchedule(0, 10)
        with pytest.raises(ValueError):
            KeepAliveSchedule(1, 0)


# -- long plans against a from-scratch model -------------------------------

_K = 240
_FAMILIES = list(default_zoo())
_N_FN = 3
_MINUTES = 600


def _family(fid):
    return _FAMILIES[fid % len(_FAMILIES)]


def _variant(fid, level):
    family = _family(fid)
    return family.variant(min(level, family.n_variants - 1))


# Uniform plans are shared objects, as fixed policies cache theirs, so a
# re-install takes set_plan's plan-identity path.
_UNIFORM = {
    (fid, level, length): [_variant(fid, level)] * length
    for fid in range(_N_FN)
    for level in range(3)
    for length in (10, _K)
}


@st.composite
def _long_plan(draw, fid):
    """A plan of up to K offsets built from runs, most of them None."""
    if draw(st.booleans()):
        level = draw(st.integers(0, 2))
        return _UNIFORM[(fid, level, draw(st.sampled_from((10, _K))))]
    plan = []
    while len(plan) < _K:
        length = draw(st.integers(1, 120))
        level = draw(st.integers(-3, 2))  # negative: a None run
        plan += [None if level < 0 else _variant(fid, level)] * length
    return plan[: draw(st.integers(1, _K))]


@st.composite
def _long_ops(draw):
    ops = []
    for _ in range(draw(st.integers(1, 30))):
        kind = draw(st.sampled_from(
            ["plan", "plan", "plan", "mark", "clear", "downgrade", "advance"]
        ))
        fid = draw(st.integers(0, _N_FN - 1))
        minute = draw(st.integers(0, _MINUTES - _K - 1))
        plan = draw(_long_plan(fid)) if kind == "plan" else None
        ops.append((kind, fid, minute, draw(st.integers(0, 2)), plan))
    return ops


def _apply(schedule, model, op):
    """Apply one op to the schedule and to the per-function minute maps."""
    kind, fid, minute, level, plan = op
    minute = max(minute, schedule.frontier)  # writes behind it are UB
    entries = model[fid]
    if kind == "plan":
        schedule.set_plan(fid, minute, plan)
        for d, variant in enumerate(plan, start=1):
            if variant is None:
                entries.pop(minute + d, None)
            else:
                entries[minute + d] = variant
    elif kind == "mark":
        variant = _variant(fid, level)
        schedule.mark_alive(fid, minute, variant)
        entries[minute] = variant
    elif kind == "clear":
        schedule.clear(fid, minute)
        entries.pop(minute, None)
    elif kind == "downgrade":
        family = _family(fid)
        schedule.downgrade(fid, minute, family, allow_drop=level != 0)
        for m in range(minute, minute + _K + 1):
            if m in entries:
                new = family.downgrade(entries[m])
                if new is not None:
                    entries[m] = new
                elif level != 0:
                    del entries[m]
    else:
        schedule.advance(minute)
        for e in model:
            for m in [m for m in e if m < minute]:
                del e[m]


def _check(schedule, model):
    for fid in range(_N_FN):
        assert schedule.planned_minutes(fid) == sorted(model[fid])
        for m, variant in model[fid].items():
            assert schedule.alive_variant(fid, m) == variant
    for m in range(_MINUTES):
        expected = sum(e[m].memory_mb for e in model if m in e)
        got = schedule.memory_at(m)
        assert got == pytest.approx(expected, abs=1e-6)
        if expected == 0.0:
            assert got == 0.0


@given(_long_ops())
@settings(max_examples=60, deadline=None)
def test_long_plans_match_model(ops):
    schedule = KeepAliveSchedule(_N_FN, keep_alive_window=_K)
    model = [{} for _ in range(_N_FN)]
    for op in ops:
        _apply(schedule, model, op)
    _check(schedule, model)


@given(_long_ops(), _long_ops())
@settings(max_examples=30, deadline=None)
def test_restore_without_bounds_continues_identically(before, after):
    """A schedule pickled before the per-function bound existed (no
    ``_hi``) restores and then evolves exactly like one that kept it."""
    schedule = KeepAliveSchedule(_N_FN, keep_alive_window=_K)
    model = [{} for _ in range(_N_FN)]
    for op in before:
        _apply(schedule, model, op)
    current = pickle.loads(pickle.dumps(schedule))
    old_layout = pickle.loads(pickle.dumps(schedule))
    del old_layout._hi
    restored = pickle.loads(pickle.dumps(old_layout))
    for op in after:
        _apply(current, [{} for _ in range(_N_FN)], op)
        _apply(restored, model, op)
    _check(restored, model)
    for m in range(_MINUTES):
        assert restored.memory_at(m) == current.memory_at(m)
