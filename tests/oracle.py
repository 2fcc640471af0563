"""Numeric oracles for the censored conditional mean and the link (test helpers).

The two-stage estimator rests on one identity: conditioning on the index,
the observed (censored) response has mean w(m(u)) where

    w(t) = E[min(t + eps, C)]
         = integral over c of [ c - integral_{-inf}^{c-t} F(e) de ] f_C(c) dc,

with F the noise distribution function (integration by parts of the
conditional expectation, using lim_{e -> -inf} e F(e) = 0). So the
observed response follows the same single-index structure with link
w o m, which is what justifies fitting the direction curves on the
observed responses directly.

This module makes the identity executable two ways: nested adaptive
quadrature of the display above, and a brute-force Monte Carlo mean of
min(t + eps, C). The quadrature uses the equivalent form

    c - integral_{-inf}^{c-t} F = t + L + integral_L^{c-t} (1 - F(e)) de

(for c - t >= L, else the bracket is just c), where L is the lower
1e-12 noise quantile; this keeps every intermediate quantity small even
when the censoring support sits far to the right. The survival-function
integrand is truncated at the upper 1e-12 quantile, which is negligible
for noise with sub-exponential tails such as the built-in gaussian.

No fit, study or CLI path needs the oracle, so it lives with the tests
(``tests/test_theory.py`` and acceptance criterion 3) and ``sivc``
itself runs on numpy alone. Quadrature that fails raises
``RuntimeError``.

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
import warnings
from dataclasses import dataclass
from typing import Callable, Tuple

import numpy as np
from scipy import integrate, optimize, special

from sivc import Bandwidths, Dataset, FitConfig
from sivc.estimator import _EPS, _EXPANSION_GUARD, _local_weights
from sivc.smoothing import kernel_values

TAIL_PROBABILITY = 1e-12


@dataclass(frozen=True)
class NoiseModel:
    """Noise distribution given by its cdf and density, symmetric about 0."""

    cdf: Callable[[float], float]
    density: Callable[[float], float]

    def validate(self, scale: float, n_probe: int = 41) -> None:
        """Numeric spot-check of the distribution invariants.

        Verifies on a probe grid of width ``8 * scale`` that the cdf is
        non-decreasing from ~0 to ~1, the density is nonnegative, and
        the density is symmetric about zero.
        """
        xs = np.linspace(-4 * scale, 4 * scale, n_probe)
        cdf_vals = np.array([self.cdf(x) for x in xs])
        if np.any(np.diff(cdf_vals) < -1e-12):
            raise ValueError("cdf must be non-decreasing")
        if self.cdf(-40 * scale) > 1e-6 or self.cdf(40 * scale) < 1 - 1e-6:
            raise ValueError("cdf must run from 0 to 1")
        dens = np.array([self.density(x) for x in xs])
        if np.any(dens < 0):
            raise ValueError("density must be nonnegative")
        if not np.allclose(dens, dens[::-1], atol=1e-9):
            raise ValueError("density must be symmetric around zero")


@dataclass(frozen=True)
class CensorModel:
    """Censoring-time density with finite support bounds for quadrature."""

    density: Callable[[float], float]
    support: Tuple[float, float]

    def __post_init__(self):
        lo, hi = self.support
        if not (np.isfinite(lo) and np.isfinite(hi) and lo < hi):
            raise ValueError("support must be a finite interval (lo, hi)")
        mass, _ = integrate.quad(self.density, lo, hi, limit=200)
        if abs(mass - 1.0) > 1e-6:
            raise ValueError(f"censor density integrates to {mass!r}, not 1")


def gaussian_noise(sd: float) -> NoiseModel:
    """Mean-zero gaussian noise model."""
    if not sd > 0:
        raise ValueError("sd must be positive")
    return NoiseModel(
        cdf=lambda x: float(special.ndtr(x / sd)),
        density=lambda x: float(np.exp(-0.5 * (x / sd) ** 2) / (sd * math.sqrt(2 * math.pi))),
    )


def gaussian_noise_sampler(sd: float) -> Callable:
    if not sd > 0:
        raise ValueError("sd must be positive")
    return lambda rng, size: rng.normal(0.0, sd, size)


def uniform_censor(upper: float, lower: float = 0.0) -> CensorModel:
    """Censoring times uniform on (lower, upper)."""
    if not upper > lower:
        raise ValueError("upper must exceed lower")
    width = upper - lower
    return CensorModel(density=lambda c: 1.0 / width, support=(lower, upper))


def uniform_censor_sampler(upper: float, lower: float = 0.0) -> Callable:
    if not upper > lower:
        raise ValueError("upper must exceed lower")
    return lambda rng, size: rng.uniform(lower, upper, size)


def _quantile(cdf: Callable[[float], float], p: float) -> float:
    """Solve cdf(x) = p by bracket expansion and Brent's method."""
    lo, hi = -1.0, 1.0
    for _ in range(200):
        if cdf(lo) <= p:
            break
        lo *= 2.0
    else:
        raise RuntimeError(f"could not bracket the {p} noise quantile from below")
    for _ in range(200):
        if cdf(hi) >= p:
            break
        hi *= 2.0
    else:
        raise RuntimeError(f"could not bracket the {p} noise quantile from above")
    return float(optimize.brentq(lambda x: cdf(x) - p, lo, hi, xtol=1e-12))


def _quad(f, lo, hi, tol, points=None):
    with warnings.catch_warnings():
        warnings.simplefilter("error", integrate.IntegrationWarning)
        try:
            val, abserr = integrate.quad(
                f, lo, hi, epsabs=tol, limit=200, points=points
            )
        except integrate.IntegrationWarning as exc:
            raise RuntimeError(f"quadrature did not converge: {exc}") from exc
    if abserr > max(10.0 * tol, 1e-8 * abs(val)):
        raise RuntimeError(
            f"quadrature error estimate {abserr!r} exceeds tolerance {tol!r}"
        )
    return val


def theoretical_mean_response(
    m_value: float,
    noise: NoiseModel,
    censor: CensorModel,
    inner_tol: float = 1e-8,
    outer_tol: float = 1e-6,
) -> float:
    """E[min(m_value + eps, C)] by nested adaptive quadrature.

    This is the induced link w evaluated at t = m_value. Requires noise
    with lim_{e -> -inf} e F(e) = 0 and fast-decaying tails (the built-in
    gaussian qualifies); the inner integral is truncated at the two-sided
    1e-12 noise quantiles.
    """
    t = float(m_value)
    lower_q = _quantile(noise.cdf, TAIL_PROBABILITY)
    upper_q = _quantile(noise.cdf, 1.0 - TAIL_PROBABILITY)

    def survival(e: float) -> float:
        return 1.0 - noise.cdf(e)

    def conditional_mean(c: float) -> float:
        a = c - t
        if a <= lower_q:
            return c
        tail = _quad(survival, lower_q, min(a, upper_q), inner_tol)
        return t + lower_q + tail

    lo, hi = censor.support
    kinks = [p for p in (t + lower_q, t + upper_q) if lo < p < hi] or None
    return _quad(
        lambda c: conditional_mean(c) * censor.density(c),
        lo,
        hi,
        outer_tol,
        points=kinks,
    )


def mc_conditional_mean(
    m_value: float,
    noise_sampler: Callable,
    censor_sampler: Callable,
    draws: int,
    seed: int,
) -> Tuple[float, float]:
    """Sample mean and standard error of min(m_value + eps, C).

    Deterministic given the seed; the brute-force cross-check for
    ``theoretical_mean_response``.
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
