"""Tests of the package namespace."""

import importlib
import json
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
    ["censoring", "cli", "estimator", "model", "simulate", "smoothing", "svgplot"],
)
def test_module_all_resolves(module):
    mod = importlib.import_module(f"sivc.{module}")
    for name in mod.__all__:
        getattr(mod, name)


# Blocks scipy (any ``import scipy`` raises), then fits a small generated CSV
# through the CLI and reports which scipy and multiprocessing modules got
# loaded: a fit builds no process pool.
_NO_SCIPY_FIT = """
import json, sys
sys.modules["scipy"] = None
import sivc
from sivc.cli import main, write_dataset_csv
write_dataset_csv("data.csv", sivc.generate_dataset(sivc.SimConfig(n=200, reps=1, seed=7), 0)[0])
with open("config.json", "w") as handle:
    json.dump({"fit": {"t_grid_size": 5}}, handle)
code = main(["fit", "--data", "data.csv", "--config", "config.json", "--out", "out"])
def loaded(package):
    return [m for m, mod in sys.modules.items() if m.split(".")[0] == package and mod is not None]
print(json.dumps({"code": code, "scipy_loaded": loaded("scipy"), "multiprocessing_loaded": loaded("multiprocessing")}))
"""


def test_cli_fit_runs_with_scipy_blocked(tmp_path):
    src = str(Path(sivc.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    done = subprocess.run(
        [sys.executable, "-c", _NO_SCIPY_FIT],
        cwd=tmp_path,
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout.splitlines()[-1]) == {
        "code": 0,
        "scipy_loaded": [],
        "multiprocessing_loaded": [],
    }
    for name in ("curves.csv", "link.csv", "diagnostics.json", "manifest.json"):
        assert (tmp_path / "out" / name).stat().st_size > 0, name
