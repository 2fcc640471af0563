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


# The public surface, pinned: a change to it edits this list.
PUBLIC_NAMES = [
    "Bandwidths",
    "CoefficientCurves",
    "Dataset",
    "DirectionFit",
    "EstimationError",
    "FitConfig",
    "LinkEstimate",
    "ModelFit",
    "SimConfig",
    "SimSummary",
    "SivcError",
    "SurvivalCurve",
    "TruthRecord",
    "UnitDirection",
    "ValidationError",
    "calibrate_censoring",
    "censoring_rate",
    "compute_index",
    "estimate_censoring_survival",
    "evaluate_curves",
    "fit_coefficient_curves",
    "fit_direction_at",
    "fit_link",
    "fit_model",
    "generate_dataset",
    "kernel_values",
    "local_objective",
    "normalize_direction",
    "resolve_censor_scale",
    "rule_of_thumb_bandwidth",
    "run_monte_carlo",
    "select_bandwidths",
    "synthetic_responses",
]


def test_all_is_the_pinned_public_surface():
    assert len(PUBLIC_NAMES) == 33
    assert sorted(sivc.__all__) == PUBLIC_NAMES


@pytest.mark.parametrize(
    "module",
    ["censoring", "cli", "estimator", "model", "simulate", "smoothing", "svgplot"],
)
def test_module_all_resolves(module):
    mod = importlib.import_module(f"sivc.{module}")
    for name in mod.__all__:
        getattr(mod, name)


# Runs one sivc command in a fresh interpreter, with scipy blocked (any
# ``import scipy`` raises) or installed, and reports which scipy and
# multiprocessing modules got loaded. A blocked scipy alone would miss an
# import that is only tried. The first argument says whether to block
# scipy; the rest are the command's.
_CLI_RUN = """
import json, sys
if sys.argv[1] == "blocked":
    sys.modules["scipy"] = None
import sivc
from sivc.cli import main, write_dataset_csv
write_dataset_csv("data.csv", sivc.generate_dataset(sivc.SimConfig(n=200, reps=1, seed=7), 0)[0])
with open("config.json", "w") as handle:
    json.dump({"fit": {"t_grid_size": 5}}, handle)
code = main(sys.argv[2:])
def loaded(package):
    return [m for m, mod in sys.modules.items() if m.split(".")[0] == package and mod is not None]
print(json.dumps({"code": code, "scipy_loaded": loaded("scipy"), "multiprocessing_loaded": loaded("multiprocessing")}))
"""

_FIT = ["fit", "--data", "data.csv", "--config", "config.json", "--out", "out"]
_FIGURES = ["reproduce-figures", "--reps", "2", "--seed", "7", "--out", "out"]


@pytest.mark.parametrize(
    "scipy, argv",
    [("blocked", _FIT), ("installed", _FIT), ("blocked", _FIGURES)],
    ids=["fit-scipy-blocked", "fit-scipy-installed", "reproduce-figures-scipy-blocked"],
)
def test_cli_loads_no_scipy(tmp_path, scipy, argv):
    src = str(Path(sivc.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    done = subprocess.run(
        [sys.executable, "-c", _CLI_RUN, scipy, *argv],
        cwd=tmp_path,
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    report = json.loads(done.stdout.splitlines()[-1])
    assert (report["code"], report["scipy_loaded"]) == (0, [])
    if argv[0] == "fit":
        # A fit builds no process pool.
        assert report["multiprocessing_loaded"] == []
        outputs = ("curves.csv", "link.csv", "diagnostics.json", "manifest.json")
    else:
        outputs = ("summary.csv", "link_summary.csv", "fig1.svg", "fig2.svg", "manifest.json")
    for name in outputs:
        assert (tmp_path / "out" / name).stat().st_size > 0, name
