"""Summary statistics for multi-run experiments.

The paper averages 1000 simulation runs; any honest reproduction should
also report run-to-run spread. These helpers compute mean, standard
deviation and a normal-approximation confidence interval, plus an ASCII
histogram used by the distribution figures (Figure 9a is a histogram
over simulation runs).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.utils.validation import check_fraction, check_positive_int

__all__ = ["SummaryStats", "ascii_histogram", "summarize"]


@dataclass(frozen=True)
class SummaryStats:
    """Mean with spread for one metric across runs."""

    n: int
    mean: float
    std: float
    ci_low: float
    ci_high: float
    minimum: float
    maximum: float

    def __str__(self) -> str:
        return (
            f"{self.mean:.4g} ± {self.std:.2g} "
            f"(95% CI [{self.ci_low:.4g}, {self.ci_high:.4g}], n={self.n})"
        )


def summarize(values, confidence: float = 0.95) -> SummaryStats:
    """Mean/std and a t-interval for the mean of ``values``."""
    # Imported here, not at module level: everything that imports
    # repro.experiments (the server included) would otherwise load scipy.
    from scipy import stats as sps

    check_fraction("confidence", confidence, inclusive=False)
    x = np.asarray(list(values), dtype=float)
    if x.size == 0:
        raise ValueError("cannot summarize an empty sample")
    mean = float(x.mean())
    if x.size == 1:
        return SummaryStats(1, mean, 0.0, mean, mean, mean, mean)
    std = float(x.std(ddof=1))
    sem = std / np.sqrt(x.size)
    tval = float(sps.t.ppf(0.5 + confidence / 2.0, df=x.size - 1))
    return SummaryStats(
        n=int(x.size),
        mean=mean,
        std=std,
        ci_low=mean - tval * sem,
        ci_high=mean + tval * sem,
        minimum=float(x.min()),
        maximum=float(x.max()),
    )


def ascii_histogram(
    values,
    bins: int = 10,
    width: int = 40,
    log_bins: bool = False,
) -> str:
    """Render a histogram of ``values`` as text rows.

    ``log_bins`` uses logarithmically spaced bins (Figure 9a's overhead
    ratios span orders of magnitude).
    """
    check_positive_int("bins", bins)
    x = np.asarray(list(values), dtype=float)
    if x.size == 0:
        return "(no samples)"
    lo, hi = float(x.min()), float(x.max())
    if lo == hi:
        return f"[{lo:.3g}] {'#' * width} ({x.size})"
    if log_bins:
        if lo <= 0:
            raise ValueError("log_bins requires strictly positive values")
        edges = np.logspace(np.log10(lo), np.log10(hi), bins + 1)
    else:
        edges = np.linspace(lo, hi, bins + 1)
    counts, _ = np.histogram(x, bins=edges)
    peak = counts.max() or 1
    lines = []
    for i, c in enumerate(counts):
        bar = "#" * int(round(c / peak * width))
        lines.append(f"[{edges[i]:10.3g}, {edges[i + 1]:10.3g})  {c:6d}  {bar}")
    return "\n".join(lines)
