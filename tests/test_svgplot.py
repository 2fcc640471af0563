"""Tests of the SVG renderer: its text escaping and its input."""

import xml.etree.ElementTree as ET
from xml.sax import saxutils

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from sivc import svgplot
from sivc.cli import main
from sivc.svgplot import Panel, render_figure

LABELS = ["a & b", "<beta_1(t)>", 'say "hi"', "it's", "&amp; <&>\"'", "plain"]


def sax_escape(text, quote=False):
    """The escaping ``svgplot`` used before: ``xml.sax.saxutils.escape``."""
    return saxutils.escape(text)


def test_html_escape_matches_saxutils():
    for label in LABELS:
        assert svgplot.escape(label, quote=False) == saxutils.escape(label)


def loop_runs(ys):
    """Runs of at least two finite points, found by a scalar loop."""
    runs, start = [], None
    for i, y in enumerate(list(ys) + [np.nan]):
        if np.isfinite(y) and start is None:
            start = i
        elif not np.isfinite(y) and start is not None:
            if i - start >= 2:
                runs.append((start, i))
            start = None
    return runs


@given(st.lists(st.sampled_from([0.5, -1.0, np.nan, np.inf]), max_size=12))
def test_finite_runs_match_a_loop(ys):
    assert svgplot._finite_runs(ys) == loop_runs(ys)
    lo = np.array(ys[::-1])
    assert svgplot._finite_runs(ys, lo) == loop_runs(np.add(ys, lo))


def test_rendered_labels_unchanged(monkeypatch):
    x = np.linspace(0.0, 1.0, 5)
    panels = [
        Panel(
            title=label,
            xlabel=label,
            ylabel=label,
            x=x,
            median=x * x,
            band_lo=x * x - 0.1,
            band_hi=x * x + 0.1,
            truth=x,
        )
        for label in LABELS
    ]
    current = render_figure(panels)
    monkeypatch.setattr(svgplot, "escape", sax_escape)
    assert render_figure(panels) == current


def test_reproduce_figures_svgs_unchanged(tmp_path, monkeypatch):
    args = ["reproduce-figures", "--reps", "2", "--seed", "3"]
    assert main(args + ["--out", str(tmp_path / "html")]) == 0
    monkeypatch.setattr(svgplot, "escape", sax_escape)
    assert main(args + ["--out", str(tmp_path / "sax")]) == 0
    for name in ("fig1.svg", "fig2.svg"):
        assert (tmp_path / "html" / name).read_bytes() == (tmp_path / "sax" / name).read_bytes()


def test_render_figure_needs_a_panel():
    with pytest.raises(ValueError, match="^at least one panel is required$"):
        render_figure([])


# No finite value: the y range falls back to [0, 1]. One value v: it widens
# to [v - 0.5, v + 0.5]. Either is then padded by 6 % on each side.
@pytest.mark.parametrize(
    "value, labels",
    [
        (np.nan, ["-0.06", "0.22", "0.5", "0.78", "1.06"]),
        (2.0, ["1.44", "1.72", "2", "2.28", "2.56"]),
    ],
    ids=["all-nan", "all-equal"],
)
def test_y_range_of_a_panel_without_spread(value, labels):
    x = np.linspace(0.0, 1.0, 5)
    flat = np.full(5, value)
    svg = render_figure([Panel("p", "x", "y", x, flat, flat, flat, flat)])
    texts = ET.fromstring(svg).iter("{http://www.w3.org/2000/svg}text")
    assert [t.text for t in texts if t.get("text-anchor") == "end"] == labels


# An x the renderer cannot scale, or a series that does not match it.
@pytest.mark.parametrize(
    "x, series, message",
    [
        ([0.5, 0.5, 0.5], 3, "^x must be strictly ascending$"),
        ([0.5], 1, r"^x must hold at least 2 points \(got shape \(1,\)\)$"),
        ([], 0, r"^x must hold at least 2 points \(got shape \(0,\)\)$"),
        ([[0.0, 1.0]], 2, r"^x must hold at least 2 points \(got shape \(1, 2\)\)$"),
        ([0.0, np.nan, 1.0], 3, "^x must be finite$"),
        ([0.0, np.inf], 2, "^x must be finite$"),
        ([1.0, 0.0], 2, "^x must be strictly ascending$"),
        ([-1e308, 1e308], 2, "^x must span a finite range$"),
        ([0.0, 0.5, 1.0], 2, "^median must hold one value per point of x$"),
    ],
    ids=[
        "constant",
        "one-point",
        "empty",
        "2-d",
        "nan",
        "infinite",
        "descending",
        "span-overflows",
        "short-series",
    ],
)
def test_panel_refuses_an_x_it_cannot_scale(x, series, message):
    values = np.zeros(series)
    with pytest.raises(ValueError, match=message):
        Panel("p", "x", "y", np.array(x), values, values, values, values)


# Series whose y range, padded by 6% each way, is too wide for a float or
# has no width left to scale.
@pytest.mark.parametrize(
    "values, message",
    [
        ([-1e308, 0.0, 0.0, 0.0, 1e308], "got -inf to inf"),
        ([0.0, 0.0, 0.0, 0.0, 1.7e308], "to inf"),
        ([1e308] * 5, "got 1e[+]308 to 1e[+]308"),
    ],
    ids=["spans-both-ends", "pad-overflows", "one-value-too-large-to-widen"],
)
def test_panel_refuses_series_it_cannot_scale(values, message):
    x, y = np.linspace(0.0, 1.0, 5), np.array(values)
    with pytest.raises(ValueError, match=f"^series must span a y range a float can scale .*{message}"):
        Panel("p", "x", "y", x, y, y, y, y)


def test_panel_of_a_wide_but_finite_range_renders():
    x = np.linspace(0.0, 1.0, 5)
    median = np.array([-1e307, 0.0, 0.0, 0.0, 1e307])
    svg = render_figure([Panel("p", "x", "y", x, median, median, median, median)])
    assert "nan" not in svg and "inf" not in svg
