"""Tests of the SVG renderer's text escaping."""

from xml.sax import saxutils

import numpy as np

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


def test_rendered_labels_unchanged(monkeypatch):
    x = np.linspace(0.0, 1.0, 5)
    panels = [
        Panel(title=label, xlabel=label, ylabel=label, x=x, median=x * x, truth=x)
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
