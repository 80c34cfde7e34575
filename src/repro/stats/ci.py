"""Batch-means confidence intervals for steady-state simulation output.

Latency samples from one simulation run are autocorrelated (consecutive
requests share queue state), so the naive i.i.d. CI is too narrow.  The
standard remedy is the method of non-overlapping batch means: split the
run into b batches, treat batch averages as (approximately) independent,
and build a Student-t interval over them.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = ["batch_means_ci"]


def batch_means_ci(
    samples: np.ndarray, batches: int = 20, confidence: float = 0.95
) -> tuple[float, float]:
    """Return ``(mean, half_width)`` of a batch-means confidence interval.

    Parameters
    ----------
    samples:
        Ordered per-request samples from a single run (post warm-up).
    batches:
        Number of equal batches (≥ 2); trailing remainder samples are
        dropped so batches stay equal-sized.
    confidence:
        Two-sided confidence level in (0, 1).
    """
    x = np.asarray(samples, dtype=float)
    if batches < 2:
        raise ValueError(f"batches must be >= 2, got {batches}")
    if not 0.0 < confidence < 1.0:
        raise ValueError(f"confidence must be in (0, 1), got {confidence}")
    if x.size < 2 * batches:
        raise ValueError(
            f"need at least 2 samples per batch ({2 * batches}), got {x.size}"
        )
    per = x.size // batches
    means = x[: per * batches].reshape(batches, per).mean(axis=1)
    grand = float(means.mean())
    se = float(means.std(ddof=1)) / math.sqrt(batches)
    # Local import keeps scipy off the import path; stdtrit(df, p) is t.ppf(p, df).
    from scipy.special import stdtrit

    t = float(stdtrit(batches - 1, 0.5 + confidence / 2.0))
    return grand, t * se
