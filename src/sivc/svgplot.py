"""Minimal self-contained SVG line charts with quantile bands.

Renders median curves, dashed truth overlays, and filled 5%-95% bands
directly as SVG paths: no plotting toolchain, no external resources, and
byte-stable output for fixed inputs. Undefined points (NaN) split the
curves and bands into separate segments.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from html import escape

import numpy as np

from .model import _check_ascending

__all__ = ["Panel", "render_figure"]

_MARGIN_LEFT = 58.0
_MARGIN_RIGHT = 16.0
_MARGIN_TOP = 34.0
_MARGIN_BOTTOM = 46.0
_PANEL_WIDTH = 420.0
_PANEL_HEIGHT = 330.0

_AXIS_COLOR = "#333333"
_AXIS_STROKE = {"stroke": _AXIS_COLOR, "stroke-width": "1"}
_BAND_STYLE = {"fill": "#bdd7ee", "fill-opacity": "0.75"}
_MEDIAN_STYLE = {"stroke": "#1f4e79", "stroke-width": "1.8"}
_TRUTH_STYLE = {"stroke": "#c00000", "stroke-width": "1.4", "stroke-dasharray": "6,4"}


@dataclass(frozen=True)
class Panel:
    """One chart: x values, a band, the median and the truth curve; ``x``
    holds at least 2 finite, ascending points, each series one value per
    point, and the series a y range that ``_y_range`` can pad and scale."""

    title: str
    xlabel: str
    ylabel: str
    x: np.ndarray
    median: np.ndarray
    band_lo: np.ndarray
    band_hi: np.ndarray
    truth: np.ndarray

    def __post_init__(self):
        x = np.asarray(self.x, dtype=float)
        if x.ndim != 1 or x.size < 2:
            raise ValueError(f"x must hold at least 2 points (got shape {x.shape})")
        _check_ascending(x, "x")
        if not np.isfinite(float(x[-1]) - float(x[0])):
            raise ValueError("x must span a finite range")
        for name in ("median", "band_lo", "band_hi", "truth"):
            if np.shape(getattr(self, name)) != x.shape:
                raise ValueError(f"{name} must hold one value per point of x")
        _y_range(self)


def _y_range(panel: Panel) -> tuple[float, float]:
    """The y range a panel is drawn on: the finite extent of its series
    ([0, 1] when none is finite, widened by 0.5 each way when it is one
    value), padded by 6% each way. ``ValueError`` when the padded range is
    zero or too wide for a float, which no scale can map."""
    series = [panel.median, panel.band_lo, panel.band_hi, panel.truth]
    stacked = np.concatenate(series, dtype=float)
    finite = stacked[np.isfinite(stacked)]
    ylo, yhi = (float(finite.min()), float(finite.max())) if finite.size else (0.0, 1.0)
    if yhi == ylo:
        ylo, yhi = ylo - 0.5, yhi + 0.5
    pad = 0.06 * (yhi - ylo)
    ylo, yhi = ylo - pad, yhi + pad
    if not 0.0 < yhi - ylo < math.inf:
        raise ValueError(f"series must span a y range a float can scale (got {ylo} to {yhi})")
    return ylo, yhi


def _fmt(v: float) -> str:
    return f"{v:.2f}"


def _element(tag: str, attrs: dict, text: str | None = None) -> str:
    """The one writer of an SVG element: a float attribute value is written
    by ``_fmt``, any other as given, and ``text`` is escaped."""
    cells = " ".join(f'{k}="{_fmt(v) if isinstance(v, float) else v}"' for k, v in attrs.items())
    end = "/>" if text is None else f">{escape(text, quote=False)}</{tag}>"
    return f"<{tag} {cells}{end}"


def _finite_runs(*series) -> list[tuple[int, int]]:
    """Index ranges [start, stop) of at least two consecutive points at
    which every one of ``series`` is finite."""
    ok = np.logical_and.reduce([np.isfinite(np.asarray(s, dtype=float)) for s in series])
    padded = np.concatenate(([False], ok, [False]))
    edges = np.flatnonzero(padded[1:] != padded[:-1]).reshape(-1, 2)
    return [(start, stop) for start, stop in edges.tolist() if stop - start >= 2]


class _PanelScale:
    def __init__(self, panel: Panel, x0: float):
        self.px = x0 + _MARGIN_LEFT
        self.py = _MARGIN_TOP
        self.pw = _PANEL_WIDTH - _MARGIN_LEFT - _MARGIN_RIGHT
        self.ph = _PANEL_HEIGHT - _MARGIN_TOP - _MARGIN_BOTTOM
        self.xlo, self.xhi = float(panel.x[0]), float(panel.x[-1])
        self.ylo, self.yhi = _y_range(panel)

    def sx(self, x: float) -> float:
        return self.px + (x - self.xlo) / (self.xhi - self.xlo) * self.pw

    def sy(self, y: float) -> float:
        return self.py + self.ph - (y - self.ylo) / (self.yhi - self.ylo) * self.ph


def _points(scale: _PanelScale, xs, ys, indices) -> str:
    return " ".join(
        f"{_fmt(scale.sx(float(xs[i])))},{_fmt(scale.sy(float(ys[i])))}" for i in indices
    )


def _polyline(scale: _PanelScale, xs, ys, style: dict) -> list[str]:
    lines = (_points(scale, xs, ys, range(a, b)) for a, b in _finite_runs(ys))
    return [_element("polyline", {"fill": "none", **style, "points": p}) for p in lines]


def _band_polygons(scale: _PanelScale, xs, lo, hi) -> list[str]:
    outlines = (
        f"{_points(scale, xs, hi, range(a, b))} {_points(scale, xs, lo, range(b - 1, a - 1, -1))}"
        for a, b in _finite_runs(lo, hi)
    )
    return [_element("polygon", {**_BAND_STYLE, "stroke": "none", "points": p}) for p in outlines]


def _tick(value: float, mark: dict, label_at: dict, anchor: str) -> list[str]:
    """One axis tick: its line, ``mark`` holding x1, y1, x2 and y2, and its
    label at ``label_at``, holding x and y."""
    label = {**label_at, "font-size": "11", "text-anchor": anchor, "fill": _AXIS_COLOR}
    return [_element("line", {**mark, **_AXIS_STROKE}), _element("text", label, f"{value:.3g}")]


def _axes(scale: _PanelScale, panel: Panel) -> list[str]:
    x0, y0 = scale.px, scale.py
    x1, y1 = scale.px + scale.pw, scale.py + scale.ph
    frame = {"x": x0, "y": y0, "width": scale.pw, "height": scale.ph, "fill": "none"}
    parts = [_element("rect", {**frame, **_AXIS_STROKE})]
    for xv in np.linspace(scale.xlo, scale.xhi, 5):
        sx = scale.sx(xv)
        parts += _tick(xv, dict(x1=sx, y1=y1, x2=sx, y2=y1 + 4), dict(x=sx, y=y1 + 17), "middle")
    for yv in np.linspace(scale.ylo, scale.yhi, 5):
        sy = scale.sy(yv)
        parts += _tick(yv, dict(x1=x0 - 4, y1=sy, x2=x0, y2=sy), dict(x=x0 - 7, y=sy + 4), "end")
    cx, cy = 0.5 * (x0 + x1), 0.5 * (y0 + y1)
    label = {"font-size": "12", "text-anchor": "middle"}
    rotate = f"rotate(-90 {_fmt(x0 - 42)} {_fmt(cy)})"
    title = {"font-size": "13", "font-weight": "bold", "text-anchor": "middle"}
    for attrs, text in [
        ({"x": cx, "y": y1 + 34, **label}, panel.xlabel),
        ({"x": x0 - 42, "y": cy, **label, "transform": rotate}, panel.ylabel),
        ({"x": cx, "y": y0 - 10, **title}, panel.title),
    ]:
        parts.append(_element("text", {**attrs, "fill": _AXIS_COLOR}, text))
    return parts


def _legend(scale: _PanelScale) -> list[str]:
    parts = []
    x, y = scale.px + 8.0, scale.py + 14.0
    for label, style in (("median", _MEDIAN_STYLE), ("truth", _TRUTH_STYLE), ("5%-95% band", None)):
        if style:
            swatch = _element("line", {"x1": x, "y1": y, "x2": x + 18, "y2": y, **style})
        else:
            box = {"x": x, "y": y - 5, "width": "18", "height": "8", **_BAND_STYLE}
            swatch = _element("rect", box)
        text = {"x": x + 23, "y": y + 4, "font-size": "11", "fill": _AXIS_COLOR}
        parts += [swatch, _element("text", text, label)]
        y += 15.0
    return parts


def render_figure(panels: list[Panel]) -> str:
    """Render the panels side by side into one standalone SVG document."""
    if not panels:
        raise ValueError("at least one panel is required")
    width = int(_PANEL_WIDTH * len(panels))
    height = int(_PANEL_HEIGHT)
    parts = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
        f'height="{height}" viewBox="0 0 {width} {height}">',
        _element("rect", {"x": 0, "y": 0, "width": width, "height": height, "fill": "white"}),
    ]
    for k, panel in enumerate(panels):
        scale = _PanelScale(panel, k * _PANEL_WIDTH)
        parts.extend(_band_polygons(scale, panel.x, panel.band_lo, panel.band_hi))
        parts.extend(_polyline(scale, panel.x, panel.truth, _TRUTH_STYLE))
        parts.extend(_polyline(scale, panel.x, panel.median, _MEDIAN_STYLE))
        parts.extend(_axes(scale, panel))
        parts.extend(_legend(scale))
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
