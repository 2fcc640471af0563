"""Tests of the package namespace."""

import importlib
import types

import pytest

import sivc


def test_all_lists_resolvable_names_and_no_modules():
    assert len(set(sivc.__all__)) == len(sivc.__all__)
    for name in sivc.__all__:
        assert not isinstance(getattr(sivc, name), types.ModuleType), name


@pytest.mark.parametrize(
    "module",
    ["censoring", "cli", "estimator", "model", "simulate", "smoothing", "svgplot", "theory"],
)
def test_module_all_resolves(module):
    mod = importlib.import_module(f"sivc.{module}")
    for name in mod.__all__:
        getattr(mod, name)
