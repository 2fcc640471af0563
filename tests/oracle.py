"""Numeric oracles for the censored conditional mean and the link (test helpers).

The two-stage estimator rests on one identity: with eps and C independent
of x, the observed (censored) response has conditional mean w(m(u)),
where

    w(t) = E[min(t + eps, C)].

So the observed response follows the same single-index structure with
link w o m, which is what justifies fitting the direction curves on the
observed responses directly.

This module makes the identity executable two ways for the study's
laws, gaussian noise and uniform censoring. ``censored_mean`` is w in
closed form: min(t + eps, c) = c - (c - t - eps)+, and with s the
noise sd, E[(u - eps)+] = u Phi(u/s) + s phi(u/s) has the antiderivative

    G(u) = (u^2 + s^2)/2 Phi(u/s) + (s u/2) phi(u/s),

so for C uniform on (a, b)

    w(t) = (a + b)/2 - [G(b - t) - G(a - t)] / (b - a).

``mc_conditional_mean`` is the brute-force Monte Carlo mean of
min(t + eps, C) that cross-checks it.

No fit, study or CLI path needs the oracle, so it lives with the tests
(``tests/test_theory.py`` and acceptance criterion 3) and ``sivc``
itself runs on numpy alone.

``loop_link`` is the reference for ``sivc.fit_link``: the per-grid-point
Nadaraya-Watson loop over every row, which the windowed smoother must
match in ``defined`` exactly and in value up to the rounding of its
reordered sums.

``ReferenceObjective`` holds two references for
``sivc.estimator._LocalObjective.value``. Its ``sorted_value`` is the
sorted prefix-sum evaluation as it stood before its numpy calls were
cut, kept verbatim, so a rewrite that changes any value or skipped-row
count by a single bit shows. Its ``dense_value`` is the m x m kernel
matrix formula, which the sorted evaluation must match to rounding.

``reference_draws`` is the reference for the draws of
``sivc.generate_dataset`` and ``SimConfig.draw_latent``: one call per
kind of draw over every row, in the stream's order, which
``generate_dataset`` takes as it is and ``draw_latent``'s block-wise walk
must match bit for bit.

``reference_write_table`` is the reference for ``sivc.cli._write_table``:
the ``csv`` module writing cells formatted one by one with ``str.format``,
whose bytes the block writer must match exactly.
"""

from __future__ import annotations

import csv
import math
from typing import Callable, Tuple

import numpy as np

from sivc import Bandwidths, Dataset, FitConfig
from sivc.estimator import _EPS, _EXPANSION_GUARD, _local_weights
from sivc.smoothing import kernel_values

_SQRT2 = math.sqrt(2.0)
_SQRT_2PI = math.sqrt(2.0 * math.pi)


def _tail(u: float, sd: float) -> float:
    """G(u) less its polynomial part (u^2 + sd^2)/2 where u > 0.

    There Phi(u/s) - 1 comes from ``erfc`` directly, so a censoring
    support far to the right leaves terms that vanish rather than a
    difference of two large numbers; u = 0 takes the Phi form."""
    z = u / sd
    cdf = -0.5 * math.erfc(z / _SQRT2) if u > 0 else 0.5 * math.erfc(-z / _SQRT2)
    density = math.exp(-0.5 * z * z) / _SQRT_2PI
    return 0.5 * (u * u + sd * sd) * cdf + 0.5 * sd * u * density


def censored_mean(t: float, sd: float, upper: float, lower: float = 0.0) -> float:
    """w(t) = E[min(t + eps, C)] for eps ~ N(0, sd^2) and C uniform on
    (lower, upper), in closed form."""
    width = upper - lower
    lo, hi = lower - t, upper - t
    tails = (_tail(hi, sd) - _tail(lo, sd)) / width
    if lo > 0:
        # Both polynomial parts: (hi^2 - lo^2) / (2 width) = (lower + upper)/2 - t.
        return t - tails
    poly = 0.5 * (hi * hi + sd * sd) if hi > 0 else 0.0
    return 0.5 * (lower + upper) - poly / width - tails


def gaussian_noise_sampler(sd: float) -> Callable:
    if not sd > 0:
        raise ValueError("sd must be positive")
    return lambda rng, size: rng.normal(0.0, sd, size)


def uniform_censor_sampler(upper: float, lower: float = 0.0) -> Callable:
    if not upper > lower:
        raise ValueError("upper must exceed lower")
    return lambda rng, size: rng.uniform(lower, upper, size)


def mc_conditional_mean(
    m_value: float,
    noise_sampler: Callable,
    censor_sampler: Callable,
    draws: int,
    seed: int,
) -> Tuple[float, float]:
    """Sample mean and standard error of min(m_value + eps, C).

    Deterministic given the seed; the brute-force cross-check for
    ``censored_mean``.
    """
    if draws < 1000:
        raise ValueError(f"draws must be at least 1000 (got {draws})")
    rng = np.random.default_rng(seed)
    eps = np.asarray(noise_sampler(rng, draws), dtype=float)
    c = np.asarray(censor_sampler(rng, draws), dtype=float)
    vals = np.minimum(m_value + eps, c)
    mean = float(vals.mean())
    se = float(vals.std(ddof=1) / math.sqrt(draws))
    return mean, se


def loop_link(index, synthetic, u_grid, h, spec):
    """Link estimate by a loop over the grid, each point weighting all
    rows: sum_i y_i K((u0 - u_i)/h) / sum_i K((u0 - u_i)/h), undefined
    (NaN) where no weight is positive. Returns ``(m_hat, defined)``."""
    index = np.asarray(index, dtype=float)
    synthetic = np.asarray(synthetic, dtype=float)
    m_hat = np.full(len(u_grid), np.nan)
    defined = np.zeros(len(u_grid), dtype=bool)
    for k, u0 in enumerate(u_grid):
        w = kernel_values(spec, (float(u0) - index) / h)
        total = float(w.sum())
        if not total > 0:
            continue
        m_hat[k] = float(w @ synthetic) / total
        defined[k] = True
    return m_hat, defined


class ReferenceObjective:
    """The leave-one-out objective at one t0: the dense kernel-matrix
    formula, and the sorted evaluation with the set-up it had before it
    was rewritten with fewer numpy calls (both verbatim)."""

    def __init__(self, dataset: Dataset, t0: float, bw: Bandwidths):
        kt, active, m = _local_weights(dataset, t0, bw)
        self.x = dataset.x[active]
        self.y = dataset.y[active]
        self.kt = kt[active]
        self.h1 = bw.h1
        self.norm = dataset.n * bw.h2
        self.m = m
        self.last_skipped = 0
        # Residuals are shift-invariant in y; centring keeps the sorted
        # path's window sums of kt y q^k small.
        self._yc = self.y - self.y.mean()
        self._weights = np.stack((self.kt, self.kt * self._yc))
        self._upper = np.arange(m) >= m // 2

    def dense_value(self, theta_components: np.ndarray) -> float:
        proj = self.x @ theta_components
        u = proj[None, :] - proj[:, None]
        u /= self.h1
        w = kernel_values(FitConfig.kernel, u)
        w *= self.kt[None, :]
        # Zero the self weight instead of subtracting it from the row sum,
        # which would lose neighbour weights below its rounding.
        w.flat[:: self.m + 1] = 0.0
        den_loo = w.sum(axis=1)
        num_loo = w @ self.y
        valid = den_loo > 0
        self.last_skipped = int(np.count_nonzero(~valid))
        resid = self.y[valid] - num_loo[valid] / den_loo[valid]
        return float(np.sum(self.kt[valid] * resid * resid) / self.norm)

    def sorted_value(self, theta_components: np.ndarray) -> float:
        """The objective from sorted prefix sums."""
        proj = self.x @ theta_components
        order = np.argsort(proj, kind="stable")
        p = proj[order]
        weights = self._weights[:, order]
        kt = weights[0]
        y = self._yc[order]
        m, h1 = self.m, self.h1
        # Window of row i: the rows j with |p_j - p_i| < h1, i included.
        lo = np.searchsorted(p, p - h1, side="right")
        hi = np.searchsorted(p, p + h1, side="left")
        # Inside it the weight is 0.75 kt_j (1 - (q_j - q_i)^2) with
        # q = (p - median) / h1, so window sums of {kt, kt y} x {1, q, q^2}
        # give the smoother; the 0.75 cancels from it.
        q = (p - p[m // 2]) / h1
        q2 = q * q
        # Rows below the median difference prefix sums taken from the
        # left, rows above from the right, so the partial sums a window
        # subtracts only span the tail beyond it.
        cum = np.zeros((6, 2, m + 1))
        cum[0:2, 0, 1:] = weights
        cum[2:4, 0, 1:] = weights * q
        cum[4:6, 0, 1:] = cum[2:4, 0, 1:] * q
        cum[:, 1, 1:] = cum[:, 0, :0:-1]
        np.cumsum(cum, axis=2, out=cum)
        flat = cum.reshape(6, 2 * m + 2)
        top = flat[:, np.where(self._upper, 2 * m + 1 - lo, hi)]
        bottom = flat[:, np.where(self._upper, 2 * m + 1 - hi, lo)]
        sums = (top - bottom).reshape(3, 2, m)
        den, num = (1.0 - q2) * sums[0] + 2.0 * q * sums[1] - sums[2] - weights
        # A row's window holds another row iff its nearest sorted
        # neighbour does, judged with the rounding of the dense kernel.
        close = (p[1:] - p[:-1]) / h1 < 1.0
        valid = np.zeros(m, dtype=bool)
        valid[1:] = close
        valid[:-1] |= close
        # The rounding error of den is a few eps times the magnitudes the
        # expansion cancels (bounded via 2|q_i q_j| <= q_i^2 + q_j^2); a
        # den too close to it is recomputed from its kernel weights.
        scale = (1.0 + 2.0 * q2) * (top[0] + bottom[0]) + 2.0 * (top[4] + bottom[4])
        for i in np.flatnonzero(valid & (den < _EXPANSION_GUARD * _EPS * scale)):
            w = kernel_values(FitConfig.kernel, (p - p[i]) / h1) * kt
            w[i] = 0.0
            den[i] = w.sum()
            num[i] = w @ y
        self.last_skipped = m - int(np.count_nonzero(valid))
        resid = y[valid] - num[valid] / den[valid]
        return float(np.sum(kt[valid] * resid * resid) / self.norm)


def reference_draws(config, rng, size: int, censor_scale: float):
    """``(x, t, index, y_star, censor_times)`` of ``size`` rows drawn as
    the study's stream lays them out, one call each: all covariates, then
    all modifiers, then the noise, then the censoring times."""
    x = rng.standard_normal((size, config.d))
    t = rng.uniform(0.0, 1.0, size)
    index = np.einsum("ij,ij->i", x, config.true_directions(t))
    y_star = config.true_link(index) + rng.normal(0.0, config.noise_sd, size)
    censor_times = rng.uniform(0.0, censor_scale, size)
    return x, t, index, y_star, censor_times


def reference_write_table(path, header, columns) -> None:
    """The table writer as it stood before it formatted whole blocks: each
    cell through ``"{:d}"`` (integer and boolean columns) or ``"{:.17g}"``,
    each row through ``csv.writer``."""
    cells = [
        map("{:d}".format if col.dtype.kind in "biu" else "{:.17g}".format, col.tolist())
        for col in columns
    ]
    with open(path, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(header)
        writer.writerows(zip(*cells, strict=True))
