"""Two-stage fit for the censored single-index varying-coefficient model.

Stage 1 estimates the direction curve on a grid of modifier values by
local profile least squares: at each t0 the candidate direction theta is
scored by

    M(theta; t0) = (n h2)^-1 sum_i (y_i - g_loo(theta.x_i; theta))^2
                   K((t_i - t0) / h2),

where g_loo is the leave-one-out product-kernel smoother of y on the
candidate index and the modifier. Leaving row i out stops the smoother
from collapsing onto its own response as h1 shrinks, which would make
the objective trivially small for any direction. Because the observed
response keeps the single-index structure of the latent one (see
``sivc.theory``), Stage 1 runs on the observed responses directly.

Only the m rows with modifier weight at t0 enter M. For the Epanechnikov
kernel the index weight is a quadratic on |u| < 1, so after sorting the
projections every row's window sums of kt {1, q, q^2} and kt y {1, q, q^2}
(q the projection over h1) come from prefix sums and ``searchsorted``:
O(m log m) per evaluation instead of the m x m kernel matrix, and exact up
to rounding (Fan & Marron, JCGS 1994). A row whose window holds no other
row is skipped, decided from its neighbours rather than from a rounded
denominator, and a denominator within reach of the expansion's rounding
error is recomputed directly. Below ``_SORTED_MIN_ROWS`` active rows the
dense matrix is used instead, as it is for the gaussian kernel. The
constant predates the in-place dense kernel; re-measured since, the two
paths cross at m ~ 140-160, but moving the constant changes rounding.

The unit-norm, positive-first-component constraint is enforced by
construction through a spherical-angle parameterization: the open
hemisphere maps to the open box (-pi/2, pi/2)^(d-1) and Nelder-Mead
runs on the angles, warm-started along the grid sweep. The Nelder-Mead
routine is the package's own: on Python floats it takes the same steps
as scipy's non-adaptive ``minimize(method="Nelder-Mead")`` and returns
the same result bit for bit, without importing ``scipy.optimize``.
Nelder-Mead asks again for vertices it has already scored, so at each t0
every distinct vertex is computed once and repeats are served from a
cache; the steps and counts it reports stay those of the uncached run.

Stage 2 computes the synthetic responses from the Kaplan-Meier censoring
survival, projects each covariate vector onto the fitted direction at
its modifier value, and smooths the synthetic responses on that index by
Nadaraya-Watson to estimate the link.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, NamedTuple, Optional, Sequence

import numpy as np

from .censoring import estimate_censoring_survival, synthetic_responses
from .errors import (
    EstimationError,
    InsufficientLocalSampleError,
    NoLocalDataError,
    SivcError,
)
from .model import (
    CoefficientCurves,
    Dataset,
    UnitDirection,
    evaluate_curves,
    normalize_direction,
)
from .smoothing import (
    WEIGHT_FLOOR,
    Bandwidths,
    KernelSpec,
    kernel_values,
    nw_estimate,
    select_bandwidths,
)

__all__ = [
    "OptimizerConfig",
    "FitConfig",
    "LinkEstimate",
    "DirectionFit",
    "ModelFit",
    "direction_from_angles",
    "angles_from_direction",
    "local_objective",
    "fit_direction_at",
    "fit_coefficient_curves",
    "compute_index",
    "fit_link",
    "fit_model",
]

_ANGLE_BOX = math.pi / 2 - 1e-9
_SIMPLEX_STEP = 0.1
_XATOL = 1e-5
# Active row count from which the sorted Epanechnikov evaluation is used
# (the crossover measured when it was set; see the module docstring).
_SORTED_MIN_ROWS = 100
# Recompute a sorted-path denominator directly when it is below this
# multiple of its rounding bound.
_EXPANSION_GUARD = 1e8
_EPS = float(np.finfo(float).eps)


@dataclass(frozen=True)
class OptimizerConfig:
    """Nelder-Mead settings: restart count, iteration cap, objective tolerance."""

    restarts: int = 4
    max_iter: int = 150
    tol: float = 1e-8

    def __post_init__(self):
        if self.restarts < 1:
            raise ValueError("restarts must be at least 1")
        if self.max_iter < 1:
            raise ValueError("max_iter must be at least 1")
        if not self.tol > 0:
            raise ValueError("tol must be positive")


@dataclass(frozen=True)
class FitConfig:
    """Settings for the two-stage fit."""

    t_grid_size: int = 21
    link_grid: tuple[float, float, int] = (-0.5, 0.5, 100)
    bandwidths: Bandwidths | str = "auto"
    kernel: KernelSpec = KernelSpec("epanechnikov")
    optimizer: OptimizerConfig = OptimizerConfig()

    def __post_init__(self):
        if self.t_grid_size < 2:
            raise ValueError("t_grid_size must be at least 2")
        lo, hi, count = self.link_grid
        object.__setattr__(self, "link_grid", (float(lo), float(hi), int(count)))
        if not (np.isfinite(lo) and np.isfinite(hi) and lo < hi):
            raise ValueError("link_grid min must be below max")
        if count < 2:
            raise ValueError("link_grid count must be at least 2")
        if not (self.bandwidths == "auto" or isinstance(self.bandwidths, Bandwidths)):
            raise ValueError('bandwidths must be a Bandwidths instance or "auto"')

    @property
    def t_grid(self) -> np.ndarray:
        return np.linspace(0.0, 1.0, self.t_grid_size)

    @property
    def u_grid(self) -> np.ndarray:
        lo, hi, count = self.link_grid
        return np.linspace(lo, hi, count)


@dataclass(frozen=True)
class LinkEstimate:
    """Link values on an ascending index grid; NaN marks "no local data"."""

    u_grid: np.ndarray
    m_hat: np.ndarray
    defined: np.ndarray

    def __post_init__(self):
        u = np.ascontiguousarray(self.u_grid, dtype=float)
        m = np.ascontiguousarray(self.m_hat, dtype=float)
        dfn = np.ascontiguousarray(self.defined, dtype=bool)
        for name, arr in (("u_grid", u), ("m_hat", m), ("defined", dfn)):
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)
        if not (u.shape == m.shape == dfn.shape) or u.ndim != 1:
            raise ValueError("u_grid, m_hat, defined must be equal-length vectors")
        if np.any(np.diff(u) <= 0):
            raise ValueError("u_grid must be strictly ascending")
        if not np.all(np.isfinite(m[dfn])):
            raise ValueError("defined link estimates must be finite")


@dataclass(frozen=True)
class DirectionFit:
    """One grid point's direction estimate plus optimizer diagnostics.

    ``iterations`` and ``evaluations`` are Nelder-Mead's iteration and
    function-evaluation counts summed over the starts (both 0 at d = 1);
    ``active_rows`` is the number of rows with modifier weight at t0;
    ``objective_calls`` is the number of distinct vertices among the
    evaluations, each computed once (``evaluations - objective_calls``
    were repeats served from a cache; 0 at d = 1).
    """

    direction: UnitDirection
    objective: float
    iterations: int
    converged: bool
    skipped_rows: int
    evaluations: int
    active_rows: int
    objective_calls: int


@dataclass(frozen=True)
class ModelFit:
    """Assembled two-stage estimate."""

    curves: CoefficientCurves
    link: LinkEstimate
    synthetic: np.ndarray
    bandwidths: Bandwidths
    diagnostics: dict = field(repr=False)
    config: FitConfig = field(repr=False)


def direction_from_angles(angles: Sequence[float] | np.ndarray) -> np.ndarray:
    """Map d-1 angles in (-pi/2, pi/2) to a unit vector with positive
    first component (bijective onto the open hemisphere)."""
    v = [1.0]
    for a in np.atleast_1d(np.asarray(angles, dtype=float)).tolist():
        c = math.cos(a)
        v = [x * c for x in v]
        v.append(math.sin(a))
    return np.array(v)


def angles_from_direction(direction: UnitDirection) -> np.ndarray:
    """Inverse of ``direction_from_angles``."""
    v = np.array(direction.components, dtype=float)
    d = v.size
    angles = np.zeros(d - 1)
    for k in range(d - 1, 1, -1):
        a = math.asin(float(np.clip(v[k], -1.0, 1.0)))
        angles[k - 1] = a
        cos_a = math.cos(a)
        if cos_a <= 0:
            raise ValueError("direction lies on the hemisphere boundary")
        v = v[:k] / cos_a
    if d > 1:
        angles[0] = math.atan2(v[1], v[0])
    return angles


class _LocalObjective:
    """Profile least-squares objective at one t0, vectorized over the
    rows that carry modifier weight.

    ``dense_value`` builds the m x m kernel matrix and serves any kernel;
    ``sorted_value`` is the O(m log m) Epanechnikov evaluation described
    in the module docstring. Both give the same value up to rounding, and
    ``value`` uses the one that is faster at this t0's active row count.
    """

    def __init__(self, dataset: Dataset, t0: float, bw: Bandwidths, spec: KernelSpec):
        if not 0.0 <= float(t0) <= 1.0:
            raise ValueError(f"t0 must lie in [0, 1] (got {t0})")
        kt = kernel_values(spec, (dataset.t - t0) / bw.h2)
        active = kt > 0
        m = int(np.count_nonzero(active))
        if m < 2:
            raise InsufficientLocalSampleError(
                f"insufficient local sample at t0={t0}: {m} rows carry weight"
            )
        self.x = dataset.x[active]
        self.y = dataset.y[active]
        self.kt = kt[active]
        self.h1 = bw.h1
        self.spec = spec
        self.norm = dataset.n * bw.h2
        self.m = m
        self.last_skipped = 0
        # Residuals are shift-invariant in y; centring keeps the sorted
        # path's window sums of kt y q^k small.
        self._yc = self.y - self.y.mean()
        self._weights = np.stack((self.kt, self.kt * self._yc))
        self._upper = np.arange(m) >= m // 2
        if spec.family == "epanechnikov" and m >= _SORTED_MIN_ROWS:
            self._evaluate = self.sorted_value
        else:
            self._evaluate = self.dense_value

    def value(self, theta_components: np.ndarray) -> float:
        return self._evaluate(theta_components)

    def dense_value(self, theta_components: np.ndarray) -> float:
        proj = self.x @ theta_components
        u = proj[None, :] - proj[:, None]
        u /= self.h1
        w = kernel_values(self.spec, u)
        w *= self.kt[None, :]
        # Zero the self weight instead of subtracting it from the row sum,
        # which would lose neighbour weights below its rounding.
        w.flat[:: self.m + 1] = 0.0
        den_loo = w.sum(axis=1)
        num_loo = w @ self.y
        valid = den_loo >= WEIGHT_FLOOR
        self.last_skipped = int(np.count_nonzero(~valid))
        resid = self.y[valid] - num_loo[valid] / den_loo[valid]
        return float(np.sum(self.kt[valid] * resid * resid) / self.norm)

    def sorted_value(self, theta_components: np.ndarray) -> float:
        """The Epanechnikov objective from sorted prefix sums."""
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
            w = kernel_values(self.spec, (p - p[i]) / h1) * kt
            w[i] = 0.0
            den[i] = w.sum()
            num[i] = w @ y
        self.last_skipped = m - int(np.count_nonzero(valid))
        resid = y[valid] - num[valid] / den[valid]
        return float(np.sum(kt[valid] * resid * resid) / self.norm)


def local_objective(
    dataset: Dataset,
    t0: float,
    theta: UnitDirection,
    bw: Bandwidths,
    spec: KernelSpec,
) -> float:
    """Leave-one-out profile least-squares score of a candidate direction.

    Rows whose leave-one-out smoother has no local data contribute zero;
    their count is available through the fitting diagnostics.
    """
    return _LocalObjective(dataset, t0, bw, spec).value(theta.components)


class _Simplex(NamedTuple):
    """Nelder-Mead outcome: the best vertex and its value, the iteration
    and evaluation counts, whether it stopped before the iteration cap,
    and the final vertex values in ascending order."""

    x: tuple[float, ...]
    fun: float
    nit: int
    nfev: int
    success: bool
    fsim: tuple[float, ...]


def _rank(vertex: tuple[float, list[float]]) -> tuple[bool, float]:
    # Ascending by value with NaN last, as numpy's argsort orders them.
    f = vertex[0]
    return (f != f, f)


def _nelder_mead(
    func: Callable[[list[float]], float],
    simplex: Sequence[Sequence[float]],
    xatol: float,
    fatol: float,
    maxiter: int,
) -> _Simplex:
    """Minimize ``func`` from the N + 1 vertices of ``simplex``.

    It is scipy 1.17's non-adaptive Nelder-Mead on Python floats, step
    for step: reflection 2 xbar - w, expansion 3 xbar - 2 w, outside
    contraction 1.5 xbar - 0.5 w, inside contraction 0.5 xbar + 0.5 w and
    shrink v0 + 0.5 (vj - v0), with scipy's strict and non-strict
    comparisons. xbar sums the N best vertices row by row from 0.0, as
    ``np.add.reduce`` does. The vertices are re-sorted stably after each
    iteration; numpy's default argsort is stable too up to three
    vertices, beyond which its order of tied values depends on the CPU.
    The run stops when every vertex is within ``xatol`` of the best in
    each coordinate and within ``fatol`` of it in value (a NaN never
    passes), or when the iteration count, which starts at 1, reaches
    ``maxiter``; there is no evaluation cap.
    """
    n = len(simplex) - 1
    verts = sorted(((func(x), x) for x in map(list, simplex)), key=_rank)
    nfev = n + 1
    nit = 1
    while nit < maxiter:
        f0, x0 = verts[0]
        if all(
            abs(a - b) <= xatol for _, x in verts[1:] for a, b in zip(x, x0)
        ) and all(abs(f0 - f) <= fatol for f, _ in verts[1:]):
            break
        xbar = [0.0] * n
        for _, x in verts[:-1]:
            xbar = [a + b for a, b in zip(xbar, x)]
        xbar = [a / n for a in xbar]
        fw, w = verts[-1]
        xr = [2 * a - b for a, b in zip(xbar, w)]
        fxr = func(xr)
        nfev += 1
        if fxr < f0:
            xe = [3 * a - 2 * b for a, b in zip(xbar, w)]
            fxe = func(xe)
            nfev += 1
            verts[-1] = (fxe, xe) if fxe < fxr else (fxr, xr)
        elif fxr < verts[-2][0]:
            verts[-1] = (fxr, xr)
        else:
            if fxr < fw:
                xc = [1.5 * a - 0.5 * b for a, b in zip(xbar, w)]
                fxc = func(xc)
                keep = fxc <= fxr
            else:
                xc = [0.5 * a + 0.5 * b for a, b in zip(xbar, w)]
                fxc = func(xc)
                keep = fxc < fw
            nfev += 1
            if keep:
                verts[-1] = (fxc, xc)
            else:
                for j in range(1, n + 1):
                    v = [a + 0.5 * (b - a) for a, b in zip(x0, verts[j][1])]
                    verts[j] = (func(v), v)
                nfev += n
        nit += 1
        verts.sort(key=_rank)
    fsim = tuple(f for f, _ in verts)
    # numpy's min, which scipy reports, is NaN if any value is.
    fun = math.nan if fsim[-1] != fsim[-1] else fsim[0]
    return _Simplex(tuple(verts[0][1]), fun, nit, nfev, nit < maxiter, fsim)


def _spread_starts(restarts: int, dim: int) -> list[list[float]]:
    step = math.pi / restarts
    return [[-math.pi / 2 + (i + 0.5) * step] * dim for i in range(restarts)]


def _initial_simplex(a0: list[float]) -> list[list[float]]:
    verts = [a0]
    for k, a in enumerate(a0):
        v = list(a0)
        v[k] = a + _SIMPLEX_STEP if a + _SIMPLEX_STEP < _ANGLE_BOX else a - _SIMPLEX_STEP
        verts.append(v)
    return verts


def fit_direction_at(
    dataset: Dataset,
    t0: float,
    config: FitConfig,
    bw: Bandwidths,
    warm_start: Optional[UnitDirection] = None,
) -> DirectionFit:
    """Minimize the local objective over the unit hemisphere at one t0,
    with the resolved bandwidths ``bw``.

    Nelder-Mead runs on the spherical angles from the warm start (if
    given) plus ``restarts`` starting points spread across the angle box.
    Candidates whose objectives agree within 10x the optimizer tolerance
    are tied; ties resolve to the lexicographically smaller angle vector.
    Hitting the iteration cap with the final simplex still spread wider
    than the tolerance is flagged (not raised) in the result.
    """
    if dataset.n < 10:
        raise ValueError(f"direction fitting needs n >= 10 (got {dataset.n})")
    obj = _LocalObjective(dataset, t0, bw, config.kernel)
    if dataset.d == 1:
        direction = UnitDirection(components=np.array([1.0]))
        value = obj.value(direction.components)
        return DirectionFit(direction, value, 0, True, obj.last_skipped, 0, obj.m, 0)

    # Nelder-Mead asks again for vertices it has evaluated (in one
    # dimension a failed inside contraction is followed by a shrink to the
    # same point), so each distinct vertex is computed once per t0.
    values: dict[tuple[float, ...], float] = {}

    def penalized(angles: list[float]) -> float:
        key = tuple(angles)
        value = values.get(key)
        if value is None:
            if any(abs(a) > _ANGLE_BOX for a in angles):
                excess = np.abs(angles) - _ANGLE_BOX
                value = 1e12 * (1.0 + float(np.sum(np.maximum(excess, 0.0))))
            else:
                value = obj.value(direction_from_angles(angles))
            values[key] = value
        return value

    starts = []
    if warm_start is not None:
        starts.append(angles_from_direction(warm_start).tolist())
    starts.extend(_spread_starts(config.optimizer.restarts, dataset.d - 1))

    best_angles, best_val, best_converged = None, math.inf, False
    total_iters = total_evals = 0
    tie_tol_base = 10.0 * config.optimizer.tol
    for a0 in starts:
        res = _nelder_mead(
            penalized,
            _initial_simplex(a0),
            _XATOL,
            config.optimizer.tol,
            config.optimizer.max_iter,
        )
        total_iters += res.nit
        total_evals += res.nfev
        converged = res.success or res.fsim[-1] - res.fsim[0] <= config.optimizer.tol
        if best_angles is None:
            take = True
        else:
            tie_tol = max(tie_tol_base, 1e-12 * max(1.0, abs(best_val)))
            take = res.fun < best_val - tie_tol or (
                res.fun <= best_val + tie_tol and res.x < best_angles
            )
        if take:
            best_angles, best_val, best_converged = res.x, float(res.fun), converged

    direction = normalize_direction(direction_from_angles(best_angles))
    value = obj.value(direction.components)
    return DirectionFit(
        direction,
        value,
        total_iters,
        best_converged,
        obj.last_skipped,
        total_evals,
        obj.m,
        len(values),
    )


def fit_coefficient_curves(
    dataset: Dataset,
    config: FitConfig,
    bw: Bandwidths,
) -> tuple[CoefficientCurves, list[DirectionFit]]:
    """Fit the direction at every grid point of [0, 1].

    The sweep walks the grid in ascending order warm-starting each point
    from its left neighbor (the first point is a cold multi-restart).
    """
    grid = config.t_grid
    fits: list[DirectionFit] = []
    warm: Optional[UnitDirection] = None
    for t0 in grid:
        try:
            fit = fit_direction_at(dataset, float(t0), config, bw, warm_start=warm)
        except SivcError as exc:
            raise EstimationError(f"direction fit failed at t0={t0:g}: {exc}") from exc
        fits.append(fit)
        warm = fit.direction
    curves = CoefficientCurves(grid=grid, directions=tuple(f.direction for f in fits))
    return curves, fits


def compute_index(dataset: Dataset, curves: CoefficientCurves) -> np.ndarray:
    """Fitted index u_i = x_i . beta-hat(t_i) for every row."""
    directions = evaluate_curves(curves, dataset.t)
    # A batched matmul rounds each row like a 1-D dot product.
    return (dataset.x[:, None, :] @ directions[:, :, None])[:, 0, 0]


def fit_link(
    index: np.ndarray,
    synthetic: np.ndarray,
    config: FitConfig,
    h_link: float,
) -> LinkEstimate:
    """Nadaraya-Watson estimate of the link from (index, synthetic) pairs
    with bandwidth ``h_link``.

    Grid points with no local data carry a marker instead of a number so
    the harness can see them.
    """
    index = np.asarray(index, dtype=float)
    synthetic = np.asarray(synthetic, dtype=float)
    if index.shape != synthetic.shape or index.ndim != 1:
        raise ValueError("index and synthetic must be equal-length vectors")
    u_grid = config.u_grid
    m_hat = np.full(u_grid.size, np.nan)
    defined = np.zeros(u_grid.size, dtype=bool)
    for k, u0 in enumerate(u_grid):
        try:
            m_hat[k] = nw_estimate(index, synthetic, float(u0), h_link, config.kernel)
            defined[k] = True
        except NoLocalDataError:
            pass
    return LinkEstimate(u_grid=u_grid, m_hat=m_hat, defined=defined)


def fit_model(dataset: Dataset, config: FitConfig) -> ModelFit:
    """Run both stages and assemble the full estimate.

    Deterministic given (dataset, config): the optimizer restarts are a
    fixed spread, so no randomness enters the fit.
    """
    bw = config.bandwidths
    if not isinstance(bw, Bandwidths):
        bw = select_bandwidths(dataset, config.kernel)
    try:
        curves, fits = fit_coefficient_curves(dataset, config, bw)
    except SivcError as exc:
        raise EstimationError(f"stage 1 (direction curves): {exc}") from exc
    try:
        survival = estimate_censoring_survival(dataset)
        tstar = synthetic_responses(dataset, survival)
        index = compute_index(dataset, curves)
        link = fit_link(index, tstar, config, bw.h_link)
    except SivcError as exc:
        raise EstimationError(f"stage 2 (synthetic link): {exc}") from exc
    diagnostics = {
        "objectives": [f.objective for f in fits],
        "iterations": [f.iterations for f in fits],
        "converged": [f.converged for f in fits],
        "nfev": [f.evaluations for f in fits],
        "objective_calls": [f.objective_calls for f in fits],
        "skipped_rows": [f.skipped_rows for f in fits],
        "active_rows": [f.active_rows for f in fits],
        "non_converged_points": sum(1 for f in fits if not f.converged),
        "link_undefined_points": int(np.count_nonzero(~link.defined)),
    }
    return ModelFit(
        curves=curves,
        link=link,
        synthetic=tstar,
        bandwidths=bw,
        diagnostics=diagnostics,
        config=config,
    )
