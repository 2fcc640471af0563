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
response keeps the single-index structure of the latent one (checked
numerically by the closed-form oracle in ``tests/oracle.py``, acceptance
criterion 3), Stage 1 runs on the observed responses directly.

Only the m rows with modifier weight at t0 enter M. The Epanechnikov
index weight is a quadratic on |u| < 1, so after sorting the projections
every row's window sums of kt {1, q, q^2} and kt y {1, q, q^2} (q the
projection over h1) come from prefix sums and ``searchsorted``:
O(m log m) per evaluation instead of the m x m kernel matrix, and exact up
to rounding (Fan & Marron, JCGS 1994). A row whose window holds no other
row is skipped, decided from its neighbours rather than from a rounded
denominator, and a denominator within reach of the expansion's rounding
error is recomputed directly.

At m of a few hundred a numpy call's overhead costs about as much as its
arithmetic, so each evaluation keeps its calls few and cheap: one
``take`` gathers kt, kt y and y into sorted order, the products go into
a prefix-sum buffer made once per t0, and one ``take`` reads both ends
of every window. The boolean indexing of the final sum is skipped when
every row is valid (has a neighbour within h1). Over 20 replications of
seed-1729 data at n = 500, and 3 at n = 2 000, that holds for ~70% and
~64% of the evaluations; in the others some row in a tail of the
projection is alone in its window. Below ~80 active rows the m x m
kernel matrix is faster, by up to ~20 us per evaluation on a 2-vCPU VM
with numpy 2.4, which makes an n = 100 fit ~7 ms slower (15 -> 22 ms);
the one evaluation serves every m all the same.

The unit-norm, positive-first-component constraint is enforced by
construction through a tangent-plane chart centred at each grid point's
start b0: Nelder-Mead runs on s in R^(d-1), and vertex s is the direction
b0 + T s scaled to unit norm, its sign chosen so the first component is
positive. T, the last d - 1 columns of the Householder reflector
I - v v' / v_1 with v = b0 + e1, is an orthonormal basis of the tangent
space at b0. The objective is even in the direction, so the sign fold
leaves it continuous; a zero first component scores +inf. The
Nelder-Mead routine is the package's own: on Python floats it takes the
same steps as SciPy's non-adaptive ``minimize(method="Nelder-Mead")`` and
returns the same result bit for bit (the tests compare the two).
Nelder-Mead asks again for vertices it has already scored, so at each t0
every distinct vertex, the final one included, is computed once and
repeats are served from a cache, with no evaluation after the run; the
steps and counts it reports stay those of the uncached run.

Each run stops on its chart coordinates alone, as soon as every vertex
is within a tolerance of the best in each coordinate; no test on the
vertex values holds it back. The objective is only piecewise smooth, so
a value test kept polishing far below what the estimator resolves: with
one, on seed-1729 data at n = 500 and 2 000, 57-59% of the evaluations
fell within 1e-3 rad of where their run ended, against a per-replication
angle error of ~0.11 rad at the time. That error is ~0.05 rad now, and
the runs stop at ``_XATOL`` = 1e-3, a tangent length and so ~1e-3 rad
near b0, as the first step ``_SIMPLEX_STEP`` = 0.1 is ~0.1 rad. Stopping
at 1e-4 rad instead took 1.4x the objective calls and lowered 1 of 6
statistics of that error (its mean, p95 and max over 100 replications
each of seeds 1729 and 8191 at n = 500), by 0.00002 rad.

Each grid point runs Nelder-Mead once, to ``_XATOL`` or ``_max_iter(d)``
iterations, max(150, 100 (d - 1)): 150 up to d = 2, 700 at d = 8. A
fixed 150 stopped 1-4 grid points short in every replication at d = 8
(constant preset, n = 500, 6 replications each of seeds 1729 and 8191);
700 let every one converge, within 275 iterations, for 2-5% more
objective calls. Every grid point after the first centres its chart at
its left neighbour's direction: the sweep's warm start. The first grid
point has no neighbour, so it starts from (1, 0, ..., 0). Racing 4 or 8
spread starts there instead (measured with an earlier spherical-angle
chart) took 13% / 30% more objective calls, lowered none of those 6
statistics by more than 0.00012 rad and raised some by up to 0.0028 rad;
racing a spread start beside each warm start took 1.85x the calls.

Stage 2 computes the synthetic responses from the Kaplan-Meier censoring
survival, projects each covariate vector onto the fitted direction at
its modifier value, and smooths the synthetic responses on that index by
Nadaraya-Watson to estimate the link. With the index sorted once, each
link grid point sums over its ``searchsorted`` window [u0 - h_link,
u0 + h_link] only, which holds every row of non-zero weight.

A sort whose order reaches a sum is stable, so tied values keep their
row order. Reordering a sum changes its last bits, and the order in
which numpy's default sort leaves tied values depends on the CPU, so
without it a fit on tied data (a discrete covariate, duplicated rows)
would write other bytes on another CPU. Stage 1's projections, the
link's index and ``_nelder_mead``'s vertices are all sorted stably.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, ClassVar, NamedTuple, Optional, Sequence

import numpy as np

from .censoring import estimate_censoring_survival, synthetic_responses
from .errors import EstimationError, SivcError
from .model import (
    CoefficientCurves,
    Dataset,
    UnitDirection,
    _check_ascending,
    _count,
    _frozen,
    _real,
    evaluate_curves,
)
from .smoothing import Bandwidths, kernel_values, select_bandwidths

__all__ = [
    "FitConfig",
    "LinkEstimate",
    "DirectionFit",
    "ModelFit",
    "fit_direction_at",
    "fit_coefficient_curves",
    "compute_index",
    "fit_link",
    "fit_model",
]

_SIMPLEX_STEP = 0.1
_XATOL = 1e-3
# A run that reaches its iteration cap still counts as converged when its
# vertex values span at most this.
_FLAT_TOL = 1e-8
# Recompute a denominator directly when it is below this multiple of its
# rounding bound.
_EXPANSION_GUARD = 1e8
_EPS = float(np.finfo(float).eps)


@dataclass(frozen=True)
class FitConfig:
    """Settings for the two-stage fit. ``kernel`` names the one kernel
    family the fit smooths with (see ``sivc.smoothing``); it is a
    constant, not a setting."""

    kernel: ClassVar[str] = "epanechnikov"

    t_grid_size: int = 21
    link_grid: tuple[float, float, int] = (-0.5, 0.5, 100)
    bandwidths: Bandwidths | str = "auto"

    def __post_init__(self):
        object.__setattr__(self, "t_grid_size", _count(self.t_grid_size, "t_grid_size"))
        if self.t_grid_size < 2:
            raise ValueError("t_grid_size must be at least 2")
        self.t_grid  # built now, so a count numpy cannot build is rejected here
        try:
            lo, hi, count = self.link_grid
        except (TypeError, ValueError):
            raise ValueError(
                f"link_grid must hold 3 values [min, max, count] (got {self.link_grid!r})"
            ) from None
        lo, hi = _real(lo, "link_grid min"), _real(hi, "link_grid max")
        count = _count(count, "link_grid count")
        object.__setattr__(self, "link_grid", (lo, hi, count))
        if not lo < hi:
            raise ValueError("link_grid min must be below max")
        if count < 2:
            raise ValueError("link_grid count must be at least 2")
        # The grid LinkEstimate will hold: linspace turns a span too wide
        # for a float into NaN, and a step below the smallest float into
        # repeated points.
        with np.errstate(all="ignore"):
            u = self.u_grid
        _check_ascending(u, "link_grid points")
        if not (self.bandwidths == "auto" or isinstance(self.bandwidths, Bandwidths)):
            raise ValueError('bandwidths must be a Bandwidths instance or "auto"')

    @property
    def t_grid(self) -> np.ndarray:
        return _grid(0.0, 1.0, self.t_grid_size, "t_grid_size")

    @property
    def u_grid(self) -> np.ndarray:
        lo, hi, count = self.link_grid
        return _grid(lo, hi, count, "link_grid count")


def _grid(lo: float, hi: float, count: int, name: str) -> np.ndarray:
    """``count`` evenly spaced points from ``lo`` to ``hi``. A count whose
    array numpy cannot build (too big for an index or for memory) is a
    ``ValueError`` naming ``name``."""
    try:
        return np.linspace(lo, hi, count)
    except (IndexError, ValueError, MemoryError):
        raise ValueError(f"{name} is too large for numpy to build its grid (got {count})") from None


@dataclass(frozen=True)
class LinkEstimate:
    """Link values on an ascending index grid; NaN marks "no local data"."""

    u_grid: np.ndarray
    m_hat: np.ndarray

    def __post_init__(self):
        u = _frozen(self.u_grid)
        m = _frozen(self.m_hat)
        object.__setattr__(self, "u_grid", u)
        object.__setattr__(self, "m_hat", m)
        if u.shape != m.shape or u.ndim != 1:
            raise ValueError("u_grid and m_hat must be equal-length vectors")
        _check_ascending(u, "u_grid")
        if np.any(np.isinf(m)):
            raise ValueError("link estimates must be finite or NaN")


@dataclass(frozen=True)
class DirectionFit:
    """One grid point's direction estimate plus optimizer diagnostics.

    ``iterations`` and ``evaluations`` are the iteration and
    function-evaluation counts of the grid point's one Nelder-Mead run
    (both 0 at d = 1);
    ``objective`` and ``skipped_rows`` (rows with no leave-one-out data)
    are the best vertex's cached pair, None at d = 1, where the direction
    is fixed and not scored;
    ``active_rows`` is the number of rows with modifier weight at t0;
    ``objective_calls`` is the number of distinct vertices among the
    evaluations, each computed once (``evaluations - objective_calls``
    were repeats served from a cache; 0 at d = 1).
    """

    direction: UnitDirection
    objective: Optional[float]
    iterations: int
    converged: bool
    skipped_rows: Optional[int]
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


def _local_weights(dataset: Dataset, t0: float, bw: Bandwidths):
    """Modifier weights at t0, the mask of rows they are non-zero on and
    its count; ``EstimationError`` when fewer than 2 rows carry weight."""
    if not 0.0 <= float(t0) <= 1.0:
        raise ValueError(f"t0 must lie in [0, 1] (got {t0})")
    kt = kernel_values(FitConfig.kernel, (dataset.t - t0) / bw.h2)
    active = kt > 0
    m = int(np.count_nonzero(active))
    if m < 2:
        raise EstimationError(f"insufficient local sample at t0={t0}: {m} rows carry weight")
    return kt, active, m


class _LocalObjective:
    """Profile least-squares objective at one t0, vectorized over the
    rows that carry modifier weight; ``value`` is the O(m log m)
    evaluation described in the module docstring, and it returns the
    objective with the count of rows that have no leave-one-out data.
    Its callers silence the overflow warnings of a tiny h1, not ``value``."""

    def __init__(self, dataset: Dataset, t0: float, bw: Bandwidths):
        kt, active, m = _local_weights(dataset, t0, bw)
        self.x = dataset.x[active]
        self.h1 = bw.h1
        self.norm = dataset.n * bw.h2
        self.m = m
        # Residuals are shift-invariant in y; centring keeps the window
        # sums of kt y q^k small. The rows kt, kt yc and yc are gathered
        # into sorted order by one take.
        kt, y = kt[active], dataset.y[active]
        yc = y - y.mean()
        self._rows = np.stack((kt, kt * yc, yc))
        # Prefix sums of {kt, kt yc} x {1, q, q^2}, from the left and from
        # the right, and the two window ends that are read from them; the
        # zero column 0 is never written.
        self._cum = np.zeros((6, 2, m + 1))
        self._ends = np.empty((2, m), dtype=np.intp)
        # Whether each gap between sorted neighbours is below h1, padded
        # with a False gap at each end.
        self._close = np.zeros(m + 1, dtype=bool)

    def value(self, theta_components: np.ndarray) -> tuple[float, int]:
        proj = self.x @ theta_components
        order = proj.argsort(kind="stable")
        p = proj.take(order)
        rows = self._rows.take(order, axis=1)
        weights, kt, y = rows[:2], rows[0], rows[2]
        m, h1, half = self.m, self.h1, self.m // 2
        # Window of row i: the rows j with |p_j - p_i| < h1, i included.
        lo = p.searchsorted(p - h1, side="right")
        hi = p.searchsorted(p + h1, side="left")
        # Inside it the weight is 0.75 kt_j (1 - (q_j - q_i)^2) with
        # q = (p - median) / h1, so window sums of {kt, kt y} x {1, q, q^2}
        # give the smoother; the 0.75 cancels from it.
        q = (p - p[half]) / h1
        q2 = q * q
        # Rows below the median difference prefix sums taken from the
        # left, rows above from the right, so the partial sums a window
        # subtracts only span the tail beyond it.
        cum = self._cum
        cum[0:2, 0, 1:] = weights
        np.multiply(weights, q, out=cum[2:4, 0, 1:])
        np.multiply(cum[2:4, 0, 1:], q, out=cum[4:6, 0, 1:])
        cum[:, 1, 1:] = cum[:, 0, :0:-1]
        np.add.accumulate(cum, axis=2, out=cum)
        # Flat column j <= m is the left sum of the first j rows, column
        # 2 m + 1 - j the right sum of the last j; ends[0] indexes a
        # window's upper partial sum and ends[1] its lower one.
        ends = self._ends
        ends[0, :half] = hi[:half]
        ends[1, :half] = lo[:half]
        np.subtract(2 * m + 1, lo[half:], out=ends[0, half:])
        np.subtract(2 * m + 1, hi[half:], out=ends[1, half:])
        both = cum.reshape(6, 2 * m + 2).take(ends, axis=1)
        top, bottom = both[:, 0], both[:, 1]
        sums = (top - bottom).reshape(3, 2, m)
        den, num = (1.0 - q2) * sums[0] + 2.0 * q * sums[1] - sums[2] - weights
        # A row's window holds another row iff its nearest sorted
        # neighbour does, judged with the rounding of the kernel's |u| < 1.
        close = self._close
        np.less((p[1:] - p[:-1]) / h1, 1.0, out=close[1:-1])
        valid = close[:-1] | close[1:]
        # The rounding error of den is a few eps times the magnitudes the
        # expansion cancels (bounded via 2|q_i q_j| <= q_i^2 + q_j^2); a
        # den too close to it is recomputed from its kernel weights.
        edge_sums = top[0::4] + bottom[0::4]
        scale = (1.0 + 2.0 * q2) * edge_sums[0] + 2.0 * edge_sums[1]
        # A NaN den (h1 so small that q overflows) is recomputed too.
        suspect = ~(den >= _EXPANSION_GUARD * _EPS * scale)
        suspect &= valid
        for i in suspect.nonzero()[0]:
            w = kernel_values(FitConfig.kernel, (p - p[i]) / h1) * kt
            w[i] = 0.0
            den[i] = w.sum()
            num[i] = w @ y
        kept = int(np.count_nonzero(valid))
        if kept < m:
            y, kt, num, den = y[valid], kt[valid], num[valid], den[valid]
        resid = y - num / den
        return float(np.add.reduce(kt * resid * resid) / self.norm), m - kept


def local_objective(
    dataset: Dataset,
    t0: float,
    theta: UnitDirection,
    bw: Bandwidths,
    spec: str,
) -> float:
    """Leave-one-out profile least-squares score of a candidate direction,
    kept outside ``__all__`` for ``perfbench/run.py``; ``spec`` is ignored.

    Rows whose leave-one-out smoother has no local data contribute zero;
    the fit reports their count as a grid point's ``skipped_rows``.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        return _LocalObjective(dataset, t0, bw).value(theta.components)[0]


class _Simplex(NamedTuple):
    """Nelder-Mead outcome: the best vertex, the iteration and evaluation
    counts, whether it stopped before the iteration cap, and the final
    vertex values in ascending order."""

    x: tuple[float, ...]
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
    maxiter: int,
) -> _Simplex:
    """Minimize ``func`` from the N + 1 vertices of ``simplex``.

    It is SciPy 1.17's non-adaptive Nelder-Mead on Python floats, step
    for step: reflection 2 xbar - w, expansion 3 xbar - 2 w, outside
    contraction 1.5 xbar - 0.5 w, inside contraction 0.5 xbar + 0.5 w and
    shrink v0 + 0.5 (vj - v0), with SciPy's strict and non-strict
    comparisons. xbar sums the N best vertices row by row from 0.0, as
    ``np.add.reduce`` does. The vertices are re-sorted stably after each
    iteration; numpy's default argsort is stable too up to three
    vertices, beyond which its order of tied values depends on the CPU.
    The run stops when every vertex is within ``xatol`` of the best in
    each coordinate and no difference of its value from the best one is
    NaN (SciPy's value test at ``fatol = inf``), or when the iteration
    count, which starts at 1, reaches ``maxiter``; there is no evaluation
    cap. The objective is NaN only for responses near 1e308, which
    overflow the smoother; a simplex that keeps a NaN vertex runs on to
    the cap, which ``fit_direction_at`` reports as not converged.
    """
    n = len(simplex) - 1
    verts = sorted(((func(x), x) for x in map(list, simplex)), key=_rank)
    nfev = n + 1
    nit = 1
    while nit < maxiter:
        f0, x0 = verts[0]
        if all(
            abs(a - b) <= xatol for _, x in verts[1:] for a, b in zip(x, x0)
        ) and not any(math.isnan(f0 - f) for f, _ in verts[1:]):
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
    return _Simplex(tuple(verts[0][1]), nit, nfev, nit < maxiter, tuple(f for f, _ in verts))


def _max_iter(d: int) -> int:
    """Nelder-Mead's iteration cap at each grid point for d covariates."""
    return max(150, 100 * (d - 1))


def _tangent_basis(b0: np.ndarray) -> np.ndarray:
    """The last d - 1 columns of the Householder reflector I - v v' / v_1,
    v = b0 + e1, for a unit b0 with b0_1 > 0: an orthonormal basis of the
    tangent space of the unit sphere at b0."""
    v = b0.copy()
    v[0] += 1.0
    return np.eye(v.size)[:, 1:] - np.outer(v, v[1:] / v[0])


def _chart_point(
    b0: np.ndarray, basis: np.ndarray, s: Sequence[float]
) -> Optional[np.ndarray]:
    """The direction at coordinates ``s`` of the chart centred at ``b0``:
    b0 + basis s scaled to unit norm with a positive first component, or
    None where that component is 0 (or NaN)."""
    # Plain numpy, in place: ``normalize_direction``'s checks would cost
    # ~25 us a vertex, a third of an n = 500 evaluation, and np.dot
    # converts the list s faster than @.
    b = np.dot(basis, s)
    b += b0
    b /= math.copysign(math.sqrt(np.dot(b, b)), b[0])
    return b if b[0] > 0 else None


def fit_direction_at(
    dataset: Dataset,
    t0: float,
    bw: Bandwidths,
    warm_start: Optional[UnitDirection] = None,
) -> DirectionFit:
    """Minimize the local objective over the unit hemisphere at one t0,
    with the resolved bandwidths ``bw``.

    Nelder-Mead runs once in the tangent-plane chart centred at the warm
    start if one is given, and otherwise at (1, 0, ..., 0), until its
    vertices are within ``_XATOL`` (a tangent length, ~rad near the centre)
    of the best in every coordinate or for ``_max_iter(d)`` iterations.
    Hitting the iteration cap with the final vertex values
    still spread wider than ``_FLAT_TOL``, or NaN (responses near 1e308),
    is flagged (not raised) in the result.
    """
    if dataset.n < 10:
        raise ValueError(f"direction fitting needs n >= 10 (got {dataset.n})")
    if dataset.d == 1:
        m = _local_weights(dataset, t0, bw)[2]
        direction = UnitDirection(components=np.array([1.0]))
        return DirectionFit(direction, None, 0, True, None, 0, m, 0)
    # Nelder-Mead asks again for vertices it has evaluated (in one
    # dimension a failed inside contraction is followed by a shrink to the
    # same point), so each distinct vertex's (objective, skipped rows) is
    # computed once per t0; a vertex with no direction holds (inf, None).
    values: dict[tuple[float, ...], tuple[float, Optional[int]]] = {}

    def score(s: list[float]) -> float:
        key = tuple(s)
        scored = values.get(key)
        if scored is None:
            theta = _chart_point(b0, basis, s)
            scored = (math.inf, None) if theta is None else obj.value(theta)
            values[key] = scored
        return scored[0]

    b0 = np.eye(dataset.d)[0] if warm_start is None else warm_start.components
    basis = _tangent_basis(b0)
    simplex = [[0.0] * (dataset.d - 1)] + (_SIMPLEX_STEP * np.eye(dataset.d - 1)).tolist()
    # A tiny fixed h1 overflows q on the way to a finite value, and
    # responses near 1e308 overflow the centring mean; numpy is told once
    # per grid point, not per evaluation, not to warn of either.
    with np.errstate(over="ignore", invalid="ignore"):
        obj = _LocalObjective(dataset, t0, bw)
        res = _nelder_mead(score, simplex, _XATOL, _max_iter(dataset.d))
    value, skipped = values[res.x]
    return DirectionFit(
        UnitDirection(components=_chart_point(b0, basis, res.x)),
        value,
        res.nit,
        res.success or res.fsim[-1] - res.fsim[0] <= _FLAT_TOL,
        skipped,
        res.nfev,
        obj.m,
        len(values),
    )


def fit_coefficient_curves(
    dataset: Dataset,
    config: FitConfig,
    bw: Bandwidths,
) -> tuple[CoefficientCurves, list[DirectionFit]]:
    """Fit the direction at every grid point of [0, 1].

    The sweep walks the grid in ascending order, warm-starting each point
    from its left neighbor; the first point, which has none, starts from
    (1, 0, ..., 0).
    """
    grid = config.t_grid
    fits: list[DirectionFit] = []
    warm: Optional[UnitDirection] = None
    for t0 in grid:
        fit = fit_direction_at(dataset, float(t0), bw, warm_start=warm)
        fits.append(fit)
        warm = fit.direction
    curves = CoefficientCurves(grid=grid, matrix=[f.direction.components for f in fits])
    return curves, fits


def compute_index(dataset: Dataset, curves: CoefficientCurves) -> np.ndarray:
    """Fitted index u_i = x_i . beta-hat(t_i) for every row."""
    if dataset.d == 1:
        # Every unit direction in one dimension is [1.0].
        return dataset.x[:, 0]
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
    with bandwidth ``h_link``, each grid point over its sorted window.

    Grid points with no local data are NaN. Raises ``EstimationError``
    naming the first grid point whose window sum overflows (synthetic
    responses near 1e308).
    """
    index = np.asarray(index, dtype=float)
    synthetic = np.asarray(synthetic, dtype=float)
    if index.shape != synthetic.shape or index.ndim != 1:
        raise ValueError("index and synthetic must be equal-length vectors")
    if not h_link > 0:
        raise ValueError("bandwidth must be positive")
    u_grid = config.u_grid
    # Tied index values keep their row order: the order of a window's
    # rows reaches its sums, and the default sort's tie order depends on
    # the CPU.
    order = np.argsort(index, kind="stable")
    p, ys = index[order], synthetic[order]
    # A weight is non-zero only where |u0 - p| < h exactly, as rounding
    # is monotone, and round-to-nearest puts every such p inside the
    # rounded window ends.
    lo = np.searchsorted(p, u_grid - h_link, side="left").tolist()
    hi = np.searchsorted(p, u_grid + h_link, side="right").tolist()
    m_hat = np.full(u_grid.size, np.nan)
    with np.errstate(over="ignore", invalid="ignore"):
        for k, (u0, a, b) in enumerate(zip(u_grid.tolist(), lo, hi)):
            w = kernel_values(FitConfig.kernel, (u0 - p[a:b]) / h_link)
            total = float(w.sum())
            if total > 0:
                value = float(w @ ys[a:b]) / total
                if not math.isfinite(value):
                    raise EstimationError(f"link window sum overflows at u0={u0}")
                m_hat[k] = value
    return LinkEstimate(u_grid=u_grid, m_hat=m_hat)


def _first_dependent_column(x: np.ndarray) -> Optional[int]:
    """Index of the first column of ``x`` (no column constant) that is a
    linear combination of the columns before it once every column is
    centred and sd-scaled; None when there is none, at d = 1, or when a
    column's sd overflows (or underflows to 0).

    Classical Gram-Schmidt with one reorthogonalisation pass ("twice is
    enough": Giraud, Langou & Rozloznik 2005) projects each scaled column
    off the ones before it. A column is dependent when its residual norm
    is at most d sqrt(n) max(n, d) eps: numpy's ``matrix_rank`` tolerance
    for the whole n x d matrix with the largest singular value replaced by
    its Frobenius bound sqrt(d n), times sqrt(d) for the gap between the
    residual and the smallest singular value. One tolerance serves every
    column because a dependence at column j also shrinks the smallest
    singular value of every wider prefix. Only matrix products enter, so
    the check pages in no LAPACK code.
    """
    n, d = x.shape
    if d == 1:
        return None
    with np.errstate(over="ignore", invalid="ignore"):
        sd = x.std(axis=0)
    if not np.all((sd > 0) & (sd < np.inf)):
        return None
    z = (x - x.mean(axis=0)) / sd
    tol = d * math.sqrt(n) * max(n, d) * _EPS
    basis = np.empty((d, n))
    for j in range(d):
        v = z[:, j]
        for _ in range(2):
            v = v - (basis[:j] @ v) @ basis[:j]
        norm = math.sqrt(v @ v)
        if norm <= tol:
            return j
        basis[j] = v / norm
    return None


def fit_model(dataset: Dataset, config: FitConfig) -> ModelFit:
    """Run both stages and assemble the full estimate.

    Deterministic given (dataset, config): the optimizer starts from
    (1, 0, ..., 0) and then from the warm starts, so no
    randomness enters the fit. Raises ``ValueError`` on fewer than 10
    rows, before any other check, whatever the bandwidths. Then raises
    ``EstimationError`` before either stage when the data cannot identify
    the model: no uncensored row (the censoring survival then falls to 0
    at the largest response, and the synthetic responses say nothing of
    the latent ones), a constant covariate column (the direction is then
    identified only up to that column's coefficient), or a column that is
    a linear combination of the ones before it (the link absorbs any
    shift, so after centring the index cannot tell such columns apart).
    Dependence is tested on the centred, sd-scaled columns by Gram-Schmidt:
    a column is refused when its residual norm after projecting out the
    columns before it is at most d sqrt(n) max(n, d) eps, so only exact
    dependence up to rounding is refused. A sample sd that overflows is
    left to bandwidth selection, which names it.
    """
    if dataset.n < 10:
        raise ValueError(f"direction fitting needs n >= 10 (got {dataset.n})")
    if not np.any(dataset.delta):
        raise EstimationError("no uncensored row: every row has delta = 0")
    constant = np.flatnonzero(np.ptp(dataset.x, axis=0) == 0)
    if constant.size:
        raise EstimationError(
            f"covariate x{constant[0] + 1} is constant, so the direction is not identified"
        )
    dependent = _first_dependent_column(dataset.x)
    if dependent is not None:
        raise EstimationError(
            f"covariate x{dependent + 1} is a linear combination of the covariates"
            " before it, so the direction is not identified"
        )
    bw = config.bandwidths
    if not isinstance(bw, Bandwidths):
        bw = select_bandwidths(dataset, FitConfig.kernel)
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
        "link_undefined_points": int(np.count_nonzero(np.isnan(link.m_hat))),
    }
    return ModelFit(
        curves=curves,
        link=link,
        synthetic=tstar,
        bandwidths=bw,
        diagnostics=diagnostics,
    )
