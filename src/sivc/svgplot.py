"""Minimal self-contained SVG line charts with quantile bands.

Renders median curves, dashed truth overlays, and filled 5%-95% bands
directly as SVG paths: no plotting toolchain, no external resources, and
byte-stable output for fixed inputs. Undefined points (NaN) split the
curves and bands into separate segments.
"""

from __future__ import annotations

from dataclasses import dataclass
from html import escape

import numpy as np

__all__ = ["Panel", "render_figure"]

_MARGIN_LEFT = 58.0
_MARGIN_RIGHT = 16.0
_MARGIN_TOP = 34.0
_MARGIN_BOTTOM = 46.0
_PANEL_WIDTH = 420.0
_PANEL_HEIGHT = 330.0

_BAND_FILL = "#bdd7ee"
_MEDIAN_COLOR = "#1f4e79"
_TRUTH_COLOR = "#c00000"
_AXIS_COLOR = "#333333"
_MEDIAN_STYLE = f'stroke="{_MEDIAN_COLOR}" stroke-width="1.8"'
_TRUTH_STYLE = f'stroke="{_TRUTH_COLOR}" stroke-width="1.4" stroke-dasharray="6,4"'


@dataclass(frozen=True)
class Panel:
    """One chart: x values, a band, the median and the truth curve."""

    title: str
    xlabel: str
    ylabel: str
    x: np.ndarray
    median: np.ndarray
    band_lo: np.ndarray
    band_hi: np.ndarray
    truth: np.ndarray


def _fmt(v: float) -> str:
    return f"{v:.2f}"


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
        xs = np.asarray(panel.x, dtype=float)
        series = (panel.median, panel.band_lo, panel.band_hi, panel.truth)
        stacked = np.concatenate([np.asarray(s, dtype=float) for s in series])
        finite = stacked[np.isfinite(stacked)]
        if finite.size == 0:
            finite = np.array([0.0, 1.0])
        ylo, yhi = float(finite.min()), float(finite.max())
        if yhi == ylo:
            ylo, yhi = ylo - 0.5, yhi + 0.5
        pad = 0.06 * (yhi - ylo)
        self.xlo, self.xhi = float(xs.min()), float(xs.max())
        self.ylo, self.yhi = ylo - pad, yhi + pad

    def sx(self, x: float) -> float:
        return self.px + (x - self.xlo) / (self.xhi - self.xlo) * self.pw

    def sy(self, y: float) -> float:
        return self.py + self.ph - (y - self.ylo) / (self.yhi - self.ylo) * self.ph


def _points(scale: _PanelScale, xs, ys, indices) -> str:
    return " ".join(
        f"{_fmt(scale.sx(float(xs[i])))},{_fmt(scale.sy(float(ys[i])))}" for i in indices
    )


def _polyline(scale: _PanelScale, xs, ys, style: str) -> list[str]:
    return [
        f'<polyline fill="none" {style} points="{_points(scale, xs, ys, range(start, stop))}"/>'
        for start, stop in _finite_runs(ys)
    ]


def _band_polygons(scale: _PanelScale, xs, lo, hi) -> list[str]:
    return [
        f'<polygon fill="{_BAND_FILL}" fill-opacity="0.75" stroke="none" '
        f'points="{_points(scale, xs, hi, range(start, stop))} '
        f'{_points(scale, xs, lo, range(stop - 1, start - 1, -1))}"/>'
        for start, stop in _finite_runs(lo, hi)
    ]


def _tick(value: float, mark: tuple, label_at: tuple, anchor: str) -> list[str]:
    """One axis tick: its line, ``mark`` = (x1, y1, x2, y2), and its label
    at ``label_at`` = (x, y)."""
    x1, y1, x2, y2 = map(_fmt, mark)
    tx, ty = map(_fmt, label_at)
    return [
        f'<line x1="{x1}" y1="{y1}" x2="{x2}" y2="{y2}" '
        f'stroke="{_AXIS_COLOR}" stroke-width="1"/>',
        f'<text x="{tx}" y="{ty}" font-size="11" '
        f'text-anchor="{anchor}" fill="{_AXIS_COLOR}">{value:.3g}</text>',
    ]


def _axes(scale: _PanelScale, panel: Panel) -> list[str]:
    parts = []
    x0, y0 = scale.px, scale.py
    x1, y1 = scale.px + scale.pw, scale.py + scale.ph
    parts.append(
        f'<rect x="{_fmt(x0)}" y="{_fmt(y0)}" width="{_fmt(scale.pw)}" '
        f'height="{_fmt(scale.ph)}" fill="none" stroke="{_AXIS_COLOR}" stroke-width="1"/>'
    )
    for xv in np.linspace(scale.xlo, scale.xhi, 5):
        sx = scale.sx(xv)
        parts += _tick(xv, (sx, y1, sx, y1 + 4), (sx, y1 + 17), "middle")
    for yv in np.linspace(scale.ylo, scale.yhi, 5):
        sy = scale.sy(yv)
        parts += _tick(yv, (x0 - 4, sy, x0, sy), (x0 - 7, sy + 4), "end")
    cx = 0.5 * (x0 + x1)
    parts.append(
        f'<text x="{_fmt(cx)}" y="{_fmt(y1 + 34)}" font-size="12" '
        f'text-anchor="middle" fill="{_AXIS_COLOR}">{escape(panel.xlabel, quote=False)}</text>'
    )
    cy = 0.5 * (y0 + y1)
    parts.append(
        f'<text x="{_fmt(x0 - 42)}" y="{_fmt(cy)}" font-size="12" text-anchor="middle" '
        f'transform="rotate(-90 {_fmt(x0 - 42)} {_fmt(cy)})" '
        f'fill="{_AXIS_COLOR}">{escape(panel.ylabel, quote=False)}</text>'
    )
    parts.append(
        f'<text x="{_fmt(cx)}" y="{_fmt(y0 - 10)}" font-size="13" font-weight="bold" '
        f'text-anchor="middle" fill="{_AXIS_COLOR}">{escape(panel.title, quote=False)}</text>'
    )
    return parts


def _legend(scale: _PanelScale) -> list[str]:
    parts = []
    x = scale.px + 8.0
    y = scale.py + 14.0
    entries = [
        ("median", _MEDIAN_STYLE),
        ("truth", _TRUTH_STYLE),
        ("5%-95% band", None),
    ]
    for label, stroke in entries:
        if stroke is None:
            parts.append(
                f'<rect x="{_fmt(x)}" y="{_fmt(y - 5)}" width="18" height="8" '
                f'fill="{_BAND_FILL}" fill-opacity="0.75"/>'
            )
        else:
            parts.append(
                f'<line x1="{_fmt(x)}" y1="{_fmt(y)}" x2="{_fmt(x + 18)}" '
                f'y2="{_fmt(y)}" {stroke}/>'
            )
        parts.append(
            f'<text x="{_fmt(x + 23)}" y="{_fmt(y + 4)}" font-size="11" '
            f'fill="{_AXIS_COLOR}">{escape(label, quote=False)}</text>'
        )
        y += 15.0
    return parts


def render_figure(panels: list[Panel]) -> str:
    """Render the panels side by side into one standalone SVG document."""
    if not panels:
        raise ValueError("at least one panel is required")
    width = _PANEL_WIDTH * len(panels)
    height = _PANEL_HEIGHT
    parts = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{int(width)}" '
        f'height="{int(height)}" viewBox="0 0 {int(width)} {int(height)}">',
        f'<rect x="0" y="0" width="{int(width)}" height="{int(height)}" fill="white"/>',
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
