"""Domain types for censored single-index varying-coefficient data.

An observation is one ``(y, delta, x, t)`` record: the observed response
(minimum of the latent response and the censoring time), the event
indicator (1 = uncensored), a covariate vector of length ``d``, and an
effect modifier in [0, 1]. Coefficient direction curves are stored as
unit vectors (positive first component) sampled on a grid over [0, 1].

All types are immutable after construction and all functions here are
pure, so everything is safe to share across threads.
"""

from __future__ import annotations

import contextlib
import math
import numbers
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .errors import ValidationError

__all__ = [
    "Dataset",
    "UnitDirection",
    "CoefficientCurves",
    "normalize_direction",
    "evaluate_curves",
    "censoring_rate",
]

UNIT_NORM_TOL = 1e-12


def _frozen(value, dtype=float) -> np.ndarray:
    """A read-only contiguous copy of ``value``; the caller's array stays
    writeable and cannot change the object that holds the copy."""
    a = np.array(value, dtype=dtype, order="C")
    a.setflags(write=False)
    return a


def _check_ascending(values: np.ndarray, what: str) -> None:
    """Raise unless every entry of ``values`` is finite and each steps up
    from the one before. NaN compares False, so each test asks that every
    entry passes; a step too wide for a float still steps up."""
    if not np.all(np.isfinite(values)):
        raise ValueError(f"{what} must be finite")
    with np.errstate(over="ignore"):
        ascending = np.all(np.diff(values) > 0)
    if not ascending:
        raise ValueError(f"{what} must be strictly ascending")


def _count(value, name: str) -> int:
    """``value`` as an int; a count is never rounded or read from a bool."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValueError(f"{name} must be an integer (got {value!r})")
    return int(value)


def _real(value, name: str) -> float:
    """``value`` as a finite float; a bool or a string is no number."""
    if isinstance(value, numbers.Real) and not isinstance(value, bool):
        # An integer too large for a float overflows here.
        with contextlib.suppress(OverflowError):
            if math.isfinite(value):
                return float(value)
    raise ValueError(f"{name} must be a finite number (got {value!r})")


# Rows named per problem in a ValidationError; the rest are counted.
_NAMED_ROWS = 5


def _column(value, name: str) -> np.ndarray:
    try:
        return _frozen(value)
    except (TypeError, ValueError) as exc:
        raise ValidationError([(None, f"column {name} must be numeric ({exc})")]) from None


def _flag_rows(problems: list, bad: np.ndarray, message: str) -> None:
    rows = np.flatnonzero(bad)
    problems.extend((int(i), message) for i in rows[:_NAMED_ROWS])
    if rows.size > _NAMED_ROWS:
        problems.append((None, f"{message}: {rows.size - _NAMED_ROWS} more rows"))


@dataclass(frozen=True)
class Dataset:
    """Validated sample of censored observations with common dimension d.

    Arrays are stored column-wise (``y``, ``delta``, ``x``, ``t``) and are
    read-only. Every violation is collected into one ``ValidationError``
    that names the first offending rows of each kind; malformed data is
    never repaired.
    """

    y: np.ndarray
    delta: np.ndarray
    x: np.ndarray
    t: np.ndarray

    def __post_init__(self):
        y, delta, x, t = (
            _column(getattr(self, name), name) for name in ("y", "delta", "x", "t")
        )
        n = y.shape[0] if y.ndim else 0
        problems = []
        if n < 2:
            problems.append((None, f"dataset needs at least 2 rows (got {n})"))
            # With no values at all there is nothing more to report: an
            # empty covariate list arrives 1-D, not as n x d.
            if not (y.size or delta.size or x.size or t.size):
                raise ValidationError(problems)
        if y.ndim != 1 or x.ndim != 2 or x.shape[0] != n or delta.shape != (n,) or t.shape != (n,):
            problems.append((None, "column arrays must share the same row count"))
        elif x.shape[1] < 1:
            problems.append((None, "covariate dimension d must be at least 1"))
        else:
            _flag_rows(problems, ~np.isfinite(y), "response must be finite")
            _flag_rows(problems, (delta != 0) & (delta != 1), "delta must be 0 or 1")
            # No censoring time is negative; -inf is flagged above.
            _flag_rows(
                problems, (delta == 0) & (-np.inf < y) & (y < 0), "censored response must be >= 0"
            )
            _flag_rows(problems, ~((t >= 0) & (t <= 1)), "modifier t must lie in [0, 1]")
            _flag_rows(problems, ~np.all(np.isfinite(x), axis=1), "covariates must be finite")
        if problems:
            raise ValidationError(problems)
        object.__setattr__(self, "y", y)
        object.__setattr__(self, "delta", _frozen(delta, int))
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "t", t)

    @property
    def n(self) -> int:
        return self.y.shape[0]

    @property
    def d(self) -> int:
        return self.x.shape[1]


@dataclass(frozen=True)
class UnitDirection:
    """Vector of unit Euclidean norm with strictly positive first component."""

    components: np.ndarray

    def __post_init__(self):
        c = _frozen(self.components)
        object.__setattr__(self, "components", c)
        if c.ndim != 1 or c.size < 1:
            raise ValueError("direction must be a non-empty vector")
        norm = float(np.linalg.norm(c))
        # A NaN norm fails this test too.
        if not abs(norm - 1.0) <= UNIT_NORM_TOL:
            raise ValueError(f"direction norm {norm!r} is not 1 within {UNIT_NORM_TOL}")
        if not c[0] > 0:
            raise ValueError("first component must be strictly positive")


@dataclass(frozen=True)
class CoefficientCurves:
    """Direction curves sampled on an ascending grid over [0, 1]: row k of
    the grid-by-dimension ``matrix`` is the unit direction at ``grid[k]``."""

    grid: np.ndarray
    matrix: np.ndarray = field(repr=False)

    def __post_init__(self):
        grid = _frozen(self.grid)
        matrix = _frozen(self.matrix)
        object.__setattr__(self, "grid", grid)
        object.__setattr__(self, "matrix", matrix)
        if grid.ndim != 1 or grid.size < 1:
            raise ValueError("grid must be a non-empty vector")
        if not np.all((grid >= 0) & (grid <= 1)):
            raise ValueError("grid points must lie in [0, 1]")
        _check_ascending(grid, "grid")
        if matrix.ndim != 2 or matrix.shape[0] != grid.size:
            raise ValueError("one direction required per grid point")
        for row in matrix:
            UnitDirection(row)


def normalize_direction(v: Sequence[float] | np.ndarray) -> UnitDirection:
    """Scale ``v`` to unit norm and flip its sign so the first component
    is positive.

    Raises ``ValueError`` for an empty or non-finite vector, for the zero
    vector, and when the first component is zero or underflows to zero
    (the sign convention is undefined there).
    """
    arr = np.asarray(v, dtype=float)
    if arr.ndim != 1 or arr.size < 1:
        raise ValueError("direction must be a non-empty vector")
    if not np.all(np.isfinite(arr)):
        raise ValueError("direction components must be finite")
    scale = float(np.max(np.abs(arr)))
    if scale == 0.0:
        raise ValueError("degenerate direction: zero vector")
    if arr[0] == 0.0:
        raise ValueError("unidentifiable sign: first component is zero")
    scaled = arr / scale
    unit = scaled / np.linalg.norm(scaled)
    if unit[0] == 0.0:
        # |v1| below the underflow threshold relative to ||v||
        raise ValueError("unidentifiable sign: first component underflows to zero")
    if unit[0] < 0:
        unit = -unit
    return UnitDirection(components=unit)


def evaluate_curves(curves: CoefficientCurves, t) -> np.ndarray:
    """Direction at each modifier value in ``t`` (a scalar gives shape
    ``(d,)``, a vector of m values shape ``(m, d)``).

    Exact grid hits return the stored direction. Between grid points the
    two bracketing directions are linearly interpolated and re-normalized,
    which keeps the result on the unit sphere. Outside the grid range the
    nearest end direction is used.
    """
    ts = np.asarray(t, dtype=float)
    flat = np.atleast_1d(ts)
    outside = ~((flat >= 0.0) & (flat <= 1.0))
    if np.any(outside):
        raise ValueError(f"modifier t must lie in [0, 1] (got {flat[outside][0]})")
    grid, matrix = curves.grid, curves.matrix
    idx = np.searchsorted(grid, flat, side="left")
    nearest = np.minimum(idx, grid.size - 1)
    out = matrix[nearest]
    inner = (idx > 0) & (idx < grid.size) & (grid[nearest] != flat)
    k = idx[inner]
    w = ((flat[inner] - grid[k - 1]) / (grid[k] - grid[k - 1]))[:, None]
    blend = (1.0 - w) * matrix[k - 1] + w * matrix[k]
    # normalize_direction's steps, row by row. The batched matmul gives
    # the same squared norm as its 1-D dot to the last bit, which
    # np.linalg.norm(axis=1) and einsum do not.
    scaled = blend / np.max(np.abs(blend), axis=1, keepdims=True)
    out[inner] = scaled / np.sqrt(scaled[:, None, :] @ scaled[:, :, None])[:, 0]
    return out[0] if ts.ndim == 0 else out


def censoring_rate(dataset: Dataset) -> float:
    """Fraction of censored rows (delta == 0)."""
    return float(np.count_nonzero(dataset.delta == 0) / dataset.n)
