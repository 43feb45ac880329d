"""What one workload run hands back to the command line front end."""

from __future__ import annotations

import hashlib
import json
import math
import statistics
from dataclasses import dataclass, field

from catalogue import END_TO_END, PER_LAYER


@dataclass
class Outcome:
    """Metrics, operation counts and correctness findings of one run.

    ``problems`` lists every failed correctness check; the run is
    correct only when it is empty and no operation failed.
    """

    attempted: int = 0
    failed: int = 0
    metrics: dict[str, float] = field(default_factory=dict)
    report: list[str] = field(default_factory=list)
    problems: list[str] = field(default_factory=list)

    @property
    def correct(self) -> bool:
        return not self.problems and self.failed == 0

    def put(self, name: str, value: float) -> None:
        if name not in END_TO_END and name not in PER_LAYER:
            raise KeyError(f"{name} is not in the metric catalogue")
        self.metrics[name] = float(value)

    def check(self, ok: bool, message: str) -> None:
        if not ok:
            self.problems.append(message)


def result_digest(result) -> str:
    """A digest of a run's simulated outcome: everything in its summary
    (cost, cold starts, accuracy, ...) except host timings."""
    summary = {
        k: v for k, v in result.summary().items()
        if k not in ("wall_clock_s", "overhead_s")
    }
    return digest_summary(summary)


def digest_summary(summary: dict) -> str:
    body = json.dumps(summary, sort_keys=True).encode()
    return hashlib.sha256(body).hexdigest()[:16]


def geomean(values: list[float]) -> float:
    return math.exp(statistics.fmean(math.log(v) for v in values))
