"""Monte Carlo study: data generation, replication runner, quantile bands.

The "paper" preset draws two independent standard normal covariates, a
uniform [0, 1] modifier, gaussian noise, direction curve
(cos t, sin t), and quadratic link u^2; censoring times are uniform on
(0, c) with c calibrated so the expected censoring fraction hits the
target. The "constant" preset keeps the direction fixed and uses the
identity link, which gives a known-truth oracle for direction recovery.

Every replication draws from its own stream seeded by (master seed,
replication index), so results do not depend on execution order or
worker count; aggregation happens in replication order on one thread.

A stream holds all covariates, then all modifiers, then the noise, then
the censoring times: ``generate_dataset`` draws each with one call.
``SimConfig.draw_latent`` replays the same stream a block of rows at a
time, so the calibration probe holds one block beside its index.
"""

from __future__ import annotations

import copy
import os
import warnings
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Optional

import numpy as np

from .censoring import calibrate_censoring
from .errors import SivcError
from .estimator import FitConfig, fit_model
from .model import Dataset, _count, _real, censoring_rate, normalize_direction

__all__ = [
    "SimConfig",
    "TruthRecord",
    "SimSummary",
    "generate_dataset",
    "run_monte_carlo",
    "resolve_censor_scale",
]

_PRESETS = ("paper", "constant")
_CALIBRATION_STREAM = 0x5EEDCA1
# Rows per block of `SimConfig.draw_latent`: bounds what the
# 100 000-draw calibration probe holds beside its index to one block. A
# normal draw takes a variable number of raw outputs, so the stream cannot
# jump past the covariates: it draws and drops them (the skip pass).
_INDEX_BLOCK = 8192


@dataclass(frozen=True)
class SimConfig:
    """Data-generating process and replication settings."""

    n: int = 500
    d: int = 2
    reps: int = 100
    censor_target: float = 0.3
    noise_sd: float = 0.2
    seed: int = 0
    preset: str = "paper"
    constant_direction: Optional[tuple[float, ...]] = None

    def __post_init__(self):
        for name in ("n", "d", "reps", "seed"):
            object.__setattr__(self, name, _count(getattr(self, name), name))
        if self.n < 10:
            raise ValueError("n must be at least 10")
        if self.reps < 1:
            raise ValueError("reps must be at least 1")
        if self.seed < 0:
            raise ValueError(f"seed must be non-negative (got {self.seed})")
        for name in ("censor_target", "noise_sd"):
            object.__setattr__(self, name, _real(getattr(self, name), name))
        if not 0.0 <= self.censor_target < 1.0:
            raise ValueError("censor_target must lie in [0, 1)")
        if not self.noise_sd > 0:
            raise ValueError("noise_sd must be positive")
        if self.preset not in _PRESETS:
            raise ValueError(f"unknown preset {self.preset!r}; expected one of {_PRESETS}")
        if self.preset == "paper":
            if self.d != 2:
                raise ValueError('the "paper" preset requires d = 2')
            if self.constant_direction is not None:
                raise ValueError(
                    'constant_direction is only for the "constant" preset '
                    f"(got {self.constant_direction!r})"
                )
        else:
            if self.constant_direction is None:
                raise ValueError('the "constant" preset requires constant_direction')
            given = self.constant_direction
            try:
                direction = tuple(_real(v, "constant_direction entry") for v in given)
            except TypeError:
                raise ValueError(
                    f"constant_direction must be a list of numbers (got {given!r})"
                ) from None
            if len(direction) != self.d:
                raise ValueError("constant_direction length must equal d")
            normalize_direction(np.asarray(direction))
            object.__setattr__(self, "constant_direction", direction)

    def true_directions(self, ts: np.ndarray) -> np.ndarray:
        """True direction at each modifier value, one row per value."""
        ts = np.asarray(ts, dtype=float)
        if self.preset == "paper":
            return np.column_stack((np.cos(ts), np.sin(ts)))
        unit = normalize_direction(np.asarray(self.constant_direction)).components
        return np.tile(unit, (ts.size, 1))

    def true_link(self, u: np.ndarray) -> np.ndarray:
        u = np.asarray(u, dtype=float)
        return u * u if self.preset == "paper" else u.copy()

    def draw_latent(self, rng: np.random.Generator, size: int) -> np.ndarray:
        """Latent (uncensored) responses from the preset; used to
        calibrate the censoring scale. The draws of ``generate_dataset``,
        ``_INDEX_BLOCK`` rows at a time: a copy of ``rng`` reads the
        covariates while ``rng`` skips past them to the modifiers."""
        covariates = copy.deepcopy(rng)
        for start in range(0, size, _INDEX_BLOCK):
            rng.standard_normal((min(_INDEX_BLOCK, size - start), self.d))
        latent = np.empty(size)
        for start in range(0, size, _INDEX_BLOCK):
            m = min(_INDEX_BLOCK, size - start)
            x = covariates.standard_normal((m, self.d))
            ts = rng.uniform(0.0, 1.0, m)
            np.einsum("ij,ij->i", x, self.true_directions(ts), out=latent[start : start + m])
        for start in range(0, size, _INDEX_BLOCK):
            rows = slice(start, start + _INDEX_BLOCK)
            link = self.true_link(latent[rows])
            np.add(rng.normal(0.0, self.noise_sd, link.size), link, out=latent[rows])
        return latent


@dataclass(frozen=True)
class TruthRecord:
    """Hidden simulation truth for one replication."""

    y_star: np.ndarray
    censor_times: Optional[np.ndarray]
    index: np.ndarray


@dataclass(frozen=True)
class SimSummary:
    """Pointwise quantile bands over replications, plus run bookkeeping.

    ``beta_reps`` has shape (reps, grid, d) and ``m_reps`` shape
    (reps, link grid); failed replications hold NaN rows and are listed
    in ``failures``. The bands, the link's defined counts and
    ``degraded`` are derived from these; band arrays hold NaN where no
    replication produced a defined value.
    """

    t_grid: np.ndarray
    u_grid: np.ndarray
    censoring_rates: np.ndarray
    failures: tuple[tuple[int, str], ...]
    failure_log: tuple[str, ...]
    beta_reps: np.ndarray = field(repr=False)
    m_reps: np.ndarray = field(repr=False)
    beta_median: np.ndarray = field(init=False)
    beta_q05: np.ndarray = field(init=False)
    beta_q95: np.ndarray = field(init=False)
    m_median: np.ndarray = field(init=False)
    m_q05: np.ndarray = field(init=False)
    m_q95: np.ndarray = field(init=False)
    m_defined_counts: np.ndarray = field(init=False)
    degraded: bool = field(init=False)

    def __post_init__(self):
        for prefix, reps in (("beta", self.beta_reps), ("m", self.m_reps)):
            for name, band in zip(("median", "q05", "q95"), _band(reps)):
                object.__setattr__(self, f"{prefix}_{name}", band)
        defined = np.count_nonzero(np.isfinite(self.m_reps), axis=0)
        object.__setattr__(self, "m_defined_counts", defined)
        object.__setattr__(self, "degraded", len(self.failures) > 0.2 * len(self.m_reps))


@lru_cache(maxsize=32)
def resolve_censor_scale(config: SimConfig) -> Optional[float]:
    """Calibrated upper bound of the uniform censoring law (None when
    the target rate is zero). Cached: calibration is deterministic in
    the config."""
    if config.censor_target == 0.0:
        return None
    return calibrate_censoring(
        config.censor_target, config, seed=(config.seed, _CALIBRATION_STREAM)
    )


def generate_dataset(
    config: SimConfig,
    rep_index: int,
    censor_scale: Optional[float] = None,
) -> tuple[Dataset, TruthRecord]:
    """One replication's data, deterministic given (seed, rep_index).

    Draw order within the stream: covariates, modifiers, noise,
    censoring times.
    """
    rep_index = _count(rep_index, "rep_index")
    if rep_index < 0:
        raise ValueError(f"rep_index must be non-negative (got {rep_index})")
    if censor_scale is None:
        censor_scale = resolve_censor_scale(config)
    rng = np.random.default_rng((config.seed, rep_index))
    x = rng.standard_normal((config.n, config.d))
    ts = rng.uniform(0.0, 1.0, config.n)
    index = np.einsum("ij,ij->i", x, config.true_directions(ts))
    y_star = rng.normal(0.0, config.noise_sd, config.n) + config.true_link(index)
    if config.censor_target == 0.0:
        censor_times, y, delta = None, y_star, np.ones(config.n, dtype=int)
    else:
        censor_times = rng.uniform(0.0, censor_scale, config.n)
        y = np.minimum(y_star, censor_times)
        delta = (y_star < censor_times).astype(int)
    return Dataset(y=y, delta=delta, x=x, t=ts), TruthRecord(y_star, censor_times, index)


def _replicate(task) -> tuple | str:
    """One replication: fitted curves, link, censoring rate, non-converged
    and link-undefined point counts, or a failed fit's error text."""
    config, fit_config, rep, censor_scale = task
    try:
        dataset, _ = generate_dataset(config, rep, censor_scale)
        fit = fit_model(dataset, fit_config)
    except SivcError as exc:
        return str(exc)
    return (
        fit.curves.matrix,
        fit.link.m_hat,
        censoring_rate(dataset),
        fit.diagnostics["non_converged_points"],
        fit.diagnostics["link_undefined_points"],
    )


def run_monte_carlo(
    sim: SimConfig,
    fit: FitConfig,
    workers: Optional[int] = None,
) -> SimSummary:
    """Generate-and-fit over all replications and aggregate the bands.

    Replications run independently (optionally in a process pool), and
    their outcomes come back in replication order, so worker count never
    changes the result. A replication whose fit fails entirely is logged
    and excluded, and the log lists replications in order; more than 20%
    whole-replication failures flips the ``degraded`` flag. Grid points
    left undefined by some replications are excluded pointwise, with the
    defined count reported. ``workers`` defaults to the cores this
    process may run on, at most 4.
    """
    censor_scale = resolve_censor_scale(sim)
    t_grid = fit.t_grid
    u_grid = fit.u_grid
    reps = sim.reps
    if workers is None:
        # os.cpu_count() ignores the affinity mask.
        if hasattr(os, "sched_getaffinity"):
            cores = len(os.sched_getaffinity(0))
        else:
            cores = os.cpu_count() or 1
        workers = max(1, min(4, cores))
    tasks = [(sim, fit, rep, censor_scale) for rep in range(reps)]
    if workers > 1 and reps > 1:
        # Imported here: it loads multiprocessing, which only a pool needs.
        from concurrent.futures import ProcessPoolExecutor

        # Under fork, the pool starts all its workers at the first submit.
        with ProcessPoolExecutor(max_workers=min(workers, reps)) as pool:
            outcomes = list(pool.map(_replicate, tasks))
    else:
        outcomes = map(_replicate, tasks)
    beta_reps = np.full((reps, t_grid.size, sim.d), np.nan)
    m_reps = np.full((reps, u_grid.size), np.nan)
    rates = []
    failures: list[tuple[int, str]] = []
    failure_log: list[str] = []
    for rep, result in enumerate(outcomes):
        if isinstance(result, str):
            failures.append((rep, result))
            failure_log.append(f"rep {rep}: failed ({result})")
            continue
        beta_reps[rep], m_reps[rep], rate, non_converged, link_undefined = result
        rates.append(rate)
        if non_converged:
            failure_log.append(f"rep {rep}: {non_converged} non-converged grid points")
        if link_undefined:
            failure_log.append(
                f"rep {rep}: {link_undefined} link grid points without local data"
            )

    return SimSummary(
        t_grid=t_grid,
        u_grid=u_grid,
        censoring_rates=np.asarray(rates),
        failures=tuple(failures),
        failure_log=tuple(failure_log),
        beta_reps=beta_reps,
        m_reps=m_reps,
    )


def _band(values: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Pointwise nearest-rank bands over axis 0, skipping NaN entries.

    Each band is the ceil(p*k)-th smallest of the k non-NaN values
    (median p = 0.5, q05, q95); a column with no value gives NaN.
    """
    with warnings.catch_warnings():
        warnings.filterwarnings("ignore", "All-NaN slice", RuntimeWarning)
        median, q05, q95 = np.nanquantile(
            values, [0.5, 0.05, 0.95], axis=0, method="inverted_cdf"
        )
    return median, q05, q95
