"""In-memory trace representation.

A :class:`Trace` is a dense minute-resolution invocation-count matrix for a
set of serverless functions — the same shape as the public Azure Functions
dataset the paper uses (per-minute counts, 1440 columns per day). Minute
resolution is exactly what PULSE consumes: the paper computes inter-arrival
times "in minutes".

:meth:`Trace.idle` builds the one sparse exception: an all-idle trace
whose ``counts`` is a read-only zero-stride view, so its cost is O(1) in
the horizon. Online serving sessions use it as their placeholder, and it
pickles as its shape and function specs instead of ``n × horizon`` zeros.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, SupportsIndex

import numpy as np

from repro.utils.validation import check_positive_int

__all__ = [
    "FunctionSpec",
    "IngestReport",
    "MalformedRowError",
    "RowIssue",
    "Trace",
    "MINUTES_PER_DAY",
]

MINUTES_PER_DAY = 1440


@dataclass(frozen=True)
class RowIssue:
    """One malformed CSV row: where it was and why it was rejected."""

    file: str
    line: int  # 1-based physical line number in the CSV
    function: str  # HashFunction value, "" when the cell itself is broken
    reason: str

    def as_dict(self) -> dict[str, object]:
        return {
            "file": self.file,
            "line": self.line,
            "function": self.function,
            "reason": self.reason,
        }


class MalformedRowError(ValueError):
    """A trace row failed validation under strict ingestion.

    Carries the :class:`RowIssue` so callers (and error messages) name
    the exact file, line and reason instead of a bare parse failure.
    """

    def __init__(self, issue: RowIssue):
        self.issue = issue
        super().__init__(
            f"{issue.file}:{issue.line}: {issue.reason}"
            + (f" (function {issue.function})" if issue.function else "")
        )


@dataclass
class IngestReport:
    """Outcome of one hardened trace load (see ``traces.azure``).

    Filled in-place by :func:`~repro.traces.azure.load_azure_csv`; under
    lenient mode ``issues`` lists every quarantined row and
    ``quarantine_path`` points at the JSONL sidecar. The durable sweep
    layer copies these counts into its manifest.
    """

    mode: str = "strict"
    n_rows: int = 0
    n_ok: int = 0
    n_quarantined: int = 0
    issues: list[RowIssue] = field(default_factory=list)
    quarantine_path: str | None = None

    def record_issue(self, issue: RowIssue) -> None:
        self.n_quarantined += 1
        self.issues.append(issue)

    def as_dict(self) -> dict[str, object]:
        """Manifest-ready summary (issue details live in the sidecar)."""
        return {
            "mode": self.mode,
            "n_rows": self.n_rows,
            "n_ok": self.n_ok,
            "n_quarantined": self.n_quarantined,
            "quarantine_path": self.quarantine_path,
        }


@dataclass(frozen=True)
class FunctionSpec:
    """Static metadata for one serverless function in a trace.

    ``archetype`` records the invocation-pattern class the function was
    generated from (or ``"azure"`` for loaded production functions); it is
    informational only — no policy may read it (that would be an oracle).
    """

    function_id: int
    name: str
    archetype: str = "azure"

    def __post_init__(self) -> None:
        if self.function_id < 0:
            raise ValueError(f"function_id must be >= 0, got {self.function_id}")
        if not self.name:
            raise ValueError("name must be non-empty")


@dataclass(frozen=True)
class Trace:
    """Per-minute invocation counts for ``n_functions`` over ``horizon`` minutes."""

    counts: np.ndarray  # shape (n_functions, horizon), non-negative ints
    functions: tuple[FunctionSpec, ...]
    name: str = "trace"
    _invocation_minutes_cache: dict = field(
        default_factory=dict, init=False, repr=False, compare=False, hash=False
    )

    @classmethod
    def idle(
        cls,
        functions: tuple[FunctionSpec, ...],
        horizon: int,
        name: str = "trace",
    ) -> "Trace":
        """An all-idle trace in O(1) memory: ``counts`` is a read-only
        zero-stride view of a single zero (see :attr:`is_idle`)."""
        check_positive_int("horizon", horizon)
        counts = np.broadcast_to(np.int64(0), (len(functions), horizon))
        return cls(counts=counts, functions=functions, name=name)

    @property
    def is_idle(self) -> bool:
        """True for a trace built by :meth:`idle` (a zero-stride zero
        view). A dense all-zero array is *not* idle in this sense: it
        keeps its dense pickle and content hash."""
        counts = self.counts
        return (
            counts.size > 0
            and counts.strides == (0, 0)
            and counts[0, 0] == 0
        )

    def __post_init__(self) -> None:
        counts = np.asarray(self.counts)
        if counts.ndim != 2:
            raise ValueError(f"counts must be 2-D, got shape {counts.shape}")
        if counts.shape[0] != len(self.functions):
            raise ValueError(
                f"counts has {counts.shape[0]} rows but {len(self.functions)} "
                "function specs were given"
            )
        if counts.size:
            # A zero-stride view holds one value: check it, not n × horizon.
            low = counts[0, 0] if counts.strides == (0, 0) else counts.min()
            if low < 0:
                raise ValueError("counts must be non-negative")
        if not np.issubdtype(counts.dtype, np.integer):
            if not np.allclose(counts, np.round(counts)):
                raise ValueError("counts must be integral")
            counts = counts.astype(np.int64)
        object.__setattr__(self, "counts", counts)
        ids = [f.function_id for f in self.functions]
        if ids != list(range(len(self.functions))):
            raise ValueError(
                "function_ids must be 0..n-1 in order, got " + repr(ids)
            )

    def __reduce_ex__(self, protocol: SupportsIndex) -> str | tuple[Any, ...]:
        # An idle trace pickles as its shape; every other trace takes the
        # default dataclass pickle, byte for byte.
        if self.is_idle:
            return (Trace.idle, (self.functions, self.horizon, self.name))
        return super().__reduce_ex__(protocol)

    # -- shape -----------------------------------------------------------
    @property
    def n_functions(self) -> int:
        return self.counts.shape[0]

    @property
    def horizon(self) -> int:
        """Trace length in minutes."""
        return self.counts.shape[1]

    @property
    def n_days(self) -> float:
        return self.horizon / MINUTES_PER_DAY

    # -- access ----------------------------------------------------------
    def counts_for(self, function_id: int) -> np.ndarray:
        """Per-minute counts for one function (a view, do not mutate)."""
        self._check_fid(function_id)
        return self.counts[function_id]

    def invocation_minutes(self, function_id: int) -> np.ndarray:
        """Sorted minutes at which the function has >= 1 invocation."""
        self._check_fid(function_id)
        cached = self._invocation_minutes_cache.get(function_id)
        if cached is None:
            cached = np.flatnonzero(self.counts[function_id])
            self._invocation_minutes_cache[function_id] = cached
        return cached

    def total_per_minute(self) -> np.ndarray:
        """Cumulative invocation count across all functions per minute."""
        return self.counts.sum(axis=0)

    def total_invocations(self, function_id: int | None = None) -> int:
        """Total invocations of one function (or of the whole trace)."""
        if function_id is not None:
            self._check_fid(function_id)
        if self.is_idle:
            return 0
        if function_id is None:
            return int(self.counts.sum())
        return int(self.counts[function_id].sum())

    # -- slicing ---------------------------------------------------------
    def window(self, start: int, stop: int, name: str | None = None) -> "Trace":
        """A sub-trace covering minutes ``[start, stop)``."""
        if not (0 <= start < stop <= self.horizon):
            raise ValueError(
                f"invalid window [{start}, {stop}) for horizon {self.horizon}"
            )
        return Trace(
            counts=self.counts[:, start:stop].copy(),
            functions=self.functions,
            name=name or f"{self.name}[{start}:{stop}]",
        )

    def days(self, first_day: int, n_days: int, name: str | None = None) -> "Trace":
        """A sub-trace covering whole days ``[first_day, first_day + n_days)``."""
        check_positive_int("n_days", n_days)
        start = first_day * MINUTES_PER_DAY
        stop = start + n_days * MINUTES_PER_DAY
        return self.window(start, stop, name=name)

    def select_functions(
        self, function_ids: list[int] | np.ndarray, name: str | None = None
    ) -> "Trace":
        """A trace restricted to the given functions (re-indexed from 0)."""
        fids = list(function_ids)
        for fid in fids:
            self._check_fid(fid)
        specs = tuple(
            FunctionSpec(
                function_id=i,
                name=self.functions[fid].name,
                archetype=self.functions[fid].archetype,
            )
            for i, fid in enumerate(fids)
        )
        return Trace(
            counts=self.counts[fids, :].copy(),
            functions=specs,
            name=name or f"{self.name}(subset)",
        )

    def _check_fid(self, function_id: int) -> None:
        if not 0 <= function_id < self.n_functions:
            raise IndexError(
                f"function_id {function_id} out of range "
                f"(trace has {self.n_functions} functions)"
            )

    def __repr__(self) -> str:
        return (
            f"Trace({self.name!r}, functions={self.n_functions}, "
            f"horizon={self.horizon}min, invocations={self.total_invocations()})"
        )
