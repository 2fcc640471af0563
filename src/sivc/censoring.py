"""Censoring-distribution estimation and the synthetic response transform.

The censoring survival G(s) = P(C >= s) is estimated by the product-limit
(Kaplan-Meier) estimator with censorings treated as the events of
interest. The curve uses the left-limit convention: the value at s is the
product over jump times strictly below s, so G-hat(s) estimates
P(C >= s) and stays positive at the largest censored observation.

Synthetic responses are the sign-aware step-function integral

    T*_i = min(y_i, 0) + integral_0^max(y_i, 0) 1/G-hat(s) ds

(Koul, Susarla & Van Ryzin 1981; Leurgans 1987), evaluated exactly as a
finite sum over the constancy intervals of G-hat intersected with
[0, y_i]. Censoring times are nonnegative, so G = 1 on (-inf, 0] and a
negative response keeps its value; this keeps E[T* | x] = E[Y* | x] for
latent responses of either sign. Uncensored samples (G-hat == 1)
reproduce every response bit-for-bit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import EstimationError
from .model import Dataset, _check_ascending, _frozen

__all__ = [
    "SurvivalCurve",
    "estimate_censoring_survival",
    "synthetic_responses",
    "calibrate_censoring",
]

# Latent draws in the calibration probe. Its rate falls with slope at most
# 1/c, so bisecting to a width of 1e-12 * max(1, c) misses by <= 1e-6.
_PROBE_N = 100_000


@dataclass(frozen=True)
class SurvivalCurve:
    """Right-censoring survival step function.

    ``values[k]`` is the survival probability on the interval just after
    ``jump_times[k]``; before the first jump the curve equals 1.
    """

    jump_times: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        jumps = _frozen(self.jump_times)
        values = _frozen(self.values)
        object.__setattr__(self, "jump_times", jumps)
        object.__setattr__(self, "values", values)
        if jumps.ndim != 1 or values.ndim != 1 or jumps.size != values.size:
            raise ValueError("jump_times and values must be equal-length vectors")
        _check_ascending(jumps, "jump times")
        if not np.all((values >= 0) & (values <= 1)):
            raise ValueError("survival values must lie in [0, 1]")
        if np.any(np.diff(values) > 0):
            raise ValueError("survival values must be non-increasing from 1")


def estimate_censoring_survival(dataset: Dataset) -> SurvivalCurve:
    """Product-limit estimate of the censoring survival G(s) = P(C >= s).

    Censorings (delta == 0) are the events. At each distinct censoring
    time c with d_c events and n_c at risk (y >= c) the curve picks up a
    factor (1 - d_c / n_c). Rows with delta == 1 tied at c stay in the
    risk set: events are taken to occur just before censorings.
    """
    # Both sorts return values alone, so no tie order can reach a sum.
    y_sorted = np.sort(dataset.y)
    censored = dataset.y[dataset.delta == 0]
    ctimes, counts = np.unique(censored, return_counts=True)
    at_risk = dataset.n - np.searchsorted(y_sorted, ctimes, side="left")
    factors = 1.0 - counts / at_risk
    return SurvivalCurve(jump_times=ctimes, values=np.cumprod(factors))


def _segment_table(curve: SurvivalCurve):
    """Positive breakpoints of the curve plus the value on each interval.

    Returns (pts, seg, prefix): the curve is constant equal to seg[k] on
    (pts[k], pts[k+1]] with pts[0] = 0, and prefix[k] is the integral of
    1/curve over [0, pts[k]] (inf once a zero segment is crossed, or on
    overflow).
    """
    pos = curve.jump_times > 0
    pts = np.concatenate(([0.0], curve.jump_times[pos]))
    n_nonpos = int(np.count_nonzero(~pos))
    start = 1.0 if n_nonpos == 0 else float(curve.values[n_nonpos - 1])
    seg = np.concatenate(([start], curve.values[pos]))
    with np.errstate(divide="ignore", over="ignore"):
        prefix = np.concatenate(([0.0], np.cumsum(np.diff(pts) / seg[:-1])))
    return pts, seg, prefix


def synthetic_responses(dataset: Dataset, curve: SurvivalCurve) -> np.ndarray:
    """Synthetic responses T* for every row of the dataset.

    T*_i integrates 1/G-hat over [0, y_i] for y_i > 0 and is y_i itself
    for y_i <= 0 (``Dataset`` refuses a censored y_i < 0). Raises
    ``EstimationError`` (naming the first offending row) when G-hat
    vanishes strictly inside some [0, y_i) or when T*_i overflows.
    """
    y = dataset.y
    pts, seg, prefix = _segment_table(curve)
    out = np.minimum(y, 0.0)
    positive = y > 0
    rows = np.flatnonzero(positive)
    # pts[k] < y_i <= pts[k + 1], so the last interval, (pts[k], y_i], is
    # never empty; G-hat is non-increasing, so it vanishes inside [0, y_i)
    # exactly when it is 0 there.
    k = np.searchsorted(pts[1:], y[positive], side="left")
    seg_val = seg[k]
    unbounded = seg_val <= 0.0
    if np.any(unbounded):
        raise EstimationError(f"unbounded synthetic weight at row {int(rows[unbounded][0])}")
    with np.errstate(over="ignore"):
        values = prefix[k] + (y[positive] - pts[k]) / seg_val
    overflow = ~np.isfinite(values)
    if np.any(overflow):
        raise EstimationError(f"synthetic response overflows at row {int(rows[overflow][0])}")
    out[positive] = values
    return out


def calibrate_censoring(target_rate: float, dgp, seed: int = 0) -> float:
    """Upper bound c for C ~ Uniform(0, c) hitting a target censoring rate.

    ``dgp`` must expose ``draw_latent(rng, size)`` returning latent
    responses. One probe sample of ``_PROBE_N`` draws is taken; the
    censoring probability given a latent value y is
    P(C <= y) = clip(y, 0, c) / c, so the rate is continuous and decreasing
    in c with slope at most 1/c. Bisection runs to a width of
    1e-12 * max(1, c), so its midpoint misses the target rate on the probe
    by at most (hi - lo) / lo <= 1e-6. Deterministic given ``seed``.
    Raises ``EstimationError`` when no c in [1e-6, 1e6] reaches the target.
    """
    if not 0.0 < target_rate < 1.0:
        raise ValueError(f"target rate must lie in (0, 1) (got {target_rate})")
    rng = np.random.default_rng(seed)
    latent = np.asarray(dgp.draw_latent(rng, _PROBE_N), dtype=float)
    # np.clip copies, so the caller's array is never written and the
    # probe can be dropped at once; every bisection step reuses one
    # scratch buffer.
    clipped = np.clip(latent, 0.0, None)
    del latent
    buf = np.empty_like(clipped)

    def rate(c: float) -> float:
        return float(np.mean(np.minimum(clipped, c, out=buf)) / c)

    lo, hi = 1e-6, 1e6
    if not (rate(lo) >= target_rate >= rate(hi)):
        raise EstimationError(
            f"no c in [{lo}, {hi}] achieves censoring rate {target_rate}"
        )
    while hi - lo > 1e-12 * max(1.0, hi):
        c = 0.5 * (lo + hi)
        if rate(c) > target_rate:
            lo = c
        else:
            hi = c
    return 0.5 * (lo + hi)
