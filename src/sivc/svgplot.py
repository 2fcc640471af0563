"""Minimal self-contained SVG line charts with quantile bands.

Renders median curves, dashed truth overlays, and filled 5%-95% bands
directly as SVG paths: no plotting toolchain, no external resources, and
byte-stable output for fixed inputs. Undefined points (NaN) split the
curves and bands into separate segments.
"""

from __future__ import annotations

from dataclasses import dataclass
from html import escape
from typing import Optional

import numpy as np

__all__ = ["Panel", "render_figure"]

_MARGIN_LEFT = 58.0
_MARGIN_RIGHT = 16.0
_MARGIN_TOP = 34.0
_MARGIN_BOTTOM = 46.0

_BAND_FILL = "#bdd7ee"
_MEDIAN_COLOR = "#1f4e79"
_TRUTH_COLOR = "#c00000"
_AXIS_COLOR = "#333333"


@dataclass(frozen=True)
class Panel:
    """One chart: x values, optional band, median, optional truth curve."""

    title: str
    xlabel: str
    ylabel: str
    x: np.ndarray
    median: np.ndarray
    band_lo: Optional[np.ndarray] = None
    band_hi: Optional[np.ndarray] = None
    truth: Optional[np.ndarray] = None


def _fmt(v: float) -> str:
    return f"{v:.2f}"


def _tick_label(v: float) -> str:
    return f"{v:.3g}"


def _finite_runs(mask: np.ndarray):
    """Index ranges [start, stop) of consecutive True entries."""
    runs = []
    start = None
    for i, ok in enumerate(mask):
        if ok and start is None:
            start = i
        elif not ok and start is not None:
            runs.append((start, i))
            start = None
    if start is not None:
        runs.append((start, mask.size))
    return runs


class _PanelScale:
    def __init__(self, panel: Panel, x0: float, y0: float, width: float, height: float):
        self.px = x0 + _MARGIN_LEFT
        self.py = y0 + _MARGIN_TOP
        self.pw = width - _MARGIN_LEFT - _MARGIN_RIGHT
        self.ph = height - _MARGIN_TOP - _MARGIN_BOTTOM
        xs = np.asarray(panel.x, dtype=float)
        series = [panel.median]
        for extra in (panel.band_lo, panel.band_hi, panel.truth):
            if extra is not None:
                series.append(extra)
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


def _polyline(scale: _PanelScale, xs, ys, style: str) -> list[str]:
    parts = []
    finite = np.isfinite(np.asarray(ys, dtype=float))
    for start, stop in _finite_runs(finite):
        if stop - start < 2:
            continue
        points = " ".join(
            f"{_fmt(scale.sx(float(xs[i])))},{_fmt(scale.sy(float(ys[i])))}"
            for i in range(start, stop)
        )
        parts.append(f'<polyline fill="none" {style} points="{points}"/>')
    return parts


def _band_polygons(scale: _PanelScale, xs, lo, hi) -> list[str]:
    parts = []
    finite = np.isfinite(np.asarray(lo, dtype=float)) & np.isfinite(
        np.asarray(hi, dtype=float)
    )
    for start, stop in _finite_runs(finite):
        if stop - start < 2:
            continue
        forward = [
            f"{_fmt(scale.sx(float(xs[i])))},{_fmt(scale.sy(float(hi[i])))}"
            for i in range(start, stop)
        ]
        backward = [
            f"{_fmt(scale.sx(float(xs[i])))},{_fmt(scale.sy(float(lo[i])))}"
            for i in range(stop - 1, start - 1, -1)
        ]
        parts.append(
            f'<polygon fill="{_BAND_FILL}" fill-opacity="0.75" stroke="none" '
            f'points="{" ".join(forward + backward)}"/>'
        )
    return parts


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
        parts.append(
            f'<line x1="{_fmt(sx)}" y1="{_fmt(y1)}" x2="{_fmt(sx)}" y2="{_fmt(y1 + 4)}" '
            f'stroke="{_AXIS_COLOR}" stroke-width="1"/>'
        )
        parts.append(
            f'<text x="{_fmt(sx)}" y="{_fmt(y1 + 17)}" font-size="11" '
            f'text-anchor="middle" fill="{_AXIS_COLOR}">{_tick_label(xv)}</text>'
        )
    for yv in np.linspace(scale.ylo, scale.yhi, 5):
        sy = scale.sy(yv)
        parts.append(
            f'<line x1="{_fmt(x0 - 4)}" y1="{_fmt(sy)}" x2="{_fmt(x0)}" y2="{_fmt(sy)}" '
            f'stroke="{_AXIS_COLOR}" stroke-width="1"/>'
        )
        parts.append(
            f'<text x="{_fmt(x0 - 7)}" y="{_fmt(sy + 4)}" font-size="11" '
            f'text-anchor="end" fill="{_AXIS_COLOR}">{_tick_label(yv)}</text>'
        )
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


def _legend(scale: _PanelScale, has_truth: bool, has_band: bool) -> list[str]:
    parts = []
    x = scale.px + 8.0
    y = scale.py + 14.0
    entries = [("median", f'stroke="{_MEDIAN_COLOR}" stroke-width="1.8"')]
    if has_truth:
        entries.append(
            ("truth", f'stroke="{_TRUTH_COLOR}" stroke-width="1.4" stroke-dasharray="6,4"')
        )
    if has_band:
        entries.append(("5%-95% band", None))
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


def render_figure(
    panels: list[Panel],
    panel_width: float = 420.0,
    panel_height: float = 330.0,
) -> str:
    """Render the panels side by side into one standalone SVG document."""
    if not panels:
        raise ValueError("at least one panel is required")
    width = panel_width * len(panels)
    height = panel_height
    parts = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{int(width)}" '
        f'height="{int(height)}" viewBox="0 0 {int(width)} {int(height)}">',
        f'<rect x="0" y="0" width="{int(width)}" height="{int(height)}" fill="white"/>',
    ]
    for k, panel in enumerate(panels):
        scale = _PanelScale(panel, k * panel_width, 0.0, panel_width, panel_height)
        has_band = panel.band_lo is not None and panel.band_hi is not None
        if has_band:
            parts.extend(_band_polygons(scale, panel.x, panel.band_lo, panel.band_hi))
        if panel.truth is not None:
            parts.extend(
                _polyline(
                    scale,
                    panel.x,
                    panel.truth,
                    f'stroke="{_TRUTH_COLOR}" stroke-width="1.4" stroke-dasharray="6,4"',
                )
            )
        parts.extend(
            _polyline(
                scale,
                panel.x,
                panel.median,
                f'stroke="{_MEDIAN_COLOR}" stroke-width="1.8"',
            )
        )
        parts.extend(_axes(scale, panel))
        parts.extend(_legend(scale, panel.truth is not None, has_band))
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
