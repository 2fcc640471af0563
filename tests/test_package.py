"""Tests of the package namespace."""

import importlib
import os
import subprocess
import sys
import types
from pathlib import Path

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


def test_cli_import_leaves_scipy_submodules_unloaded():
    # Only the bare scipy package (for the manifest's version string) may
    # load with the CLI; the quadrature oracle imports the rest lazily.
    src = str(Path(sivc.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    probe = (
        "import sys, sivc.cli; "
        "print(' '.join(m for m in ('scipy.optimize', 'scipy.integrate', "
        "'scipy.special', 'scipy.linalg') if m in sys.modules))"
    )
    done = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, timeout=120
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == ""
