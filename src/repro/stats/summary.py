"""Latency distribution summaries.

:class:`LatencySummary` is the unit of comparison throughout the
experiments: mean, standard deviation, the paper's tail metric (p95),
and the quartiles needed for the violin/box figures (Figs 6 and 10).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import numpy.ma  # noqa: F401  (np.quantile imports it lazily; load it before workers fork)

__all__ = ["LatencySummary", "summarize"]


@dataclass(frozen=True)
class LatencySummary:
    """Moments and quantiles of a latency sample (seconds)."""

    count: int
    mean: float
    std: float
    p25: float
    p50: float
    p75: float
    p95: float
    p99: float
    min: float
    max: float

    @property
    def cv2(self) -> float:
        """Squared coefficient of variation of the sample."""
        if self.mean == 0:
            return 0.0
        return (self.std / self.mean) ** 2

    @property
    def iqr(self) -> float:
        """Interquartile range (box height in the Figure 10 box plot)."""
        return self.p75 - self.p25

    def as_ms(self) -> dict[str, float]:
        """Summary fields in milliseconds (for report rendering)."""
        return {
            "mean": self.mean * 1e3,
            "std": self.std * 1e3,
            "p25": self.p25 * 1e3,
            "p50": self.p50 * 1e3,
            "p75": self.p75 * 1e3,
            "p95": self.p95 * 1e3,
            "p99": self.p99 * 1e3,
            "min": self.min * 1e3,
            "max": self.max * 1e3,
        }

    def __str__(self) -> str:
        m = self.as_ms()
        return (
            f"n={self.count} mean={m['mean']:.2f}ms p50={m['p50']:.2f}ms "
            f"p95={m['p95']:.2f}ms p99={m['p99']:.2f}ms"
        )


def summarize(latencies: np.ndarray) -> LatencySummary:
    """Compute a :class:`LatencySummary` from a latency array (seconds).

    Raises
    ------
    ValueError
        If the sample is empty or contains negative/NaN values.
    """
    x = np.asarray(latencies, dtype=float)
    if x.size == 0:
        raise ValueError("cannot summarize an empty latency sample")
    if np.any(~np.isfinite(x)) or x.min() < 0:
        raise ValueError("latencies must be finite and non-negative")
    q = np.quantile(x, [0.25, 0.5, 0.75, 0.95, 0.99])
    return LatencySummary(
        count=int(x.size),
        mean=float(x.mean()),
        std=float(x.std()),
        p25=float(q[0]),
        p50=float(q[1]),
        p75=float(q[2]),
        p95=float(q[3]),
        p99=float(q[4]),
        min=float(x.min()),
        max=float(x.max()),
    )
