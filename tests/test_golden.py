"""Golden values: small fixed-seed fits against ``golden_fits.json``.

The file holds the curves, the link and the objectives of each case, and
the numpy version that computed them. Each array is compared at relative
1e-12 plus an absolute 1e-12 times its largest magnitude, so a link
estimate near zero is held to the scale of its array. The tolerance
absorbs last-bit differences in sums; it does not absorb a Nelder-Mead
search that takes another branch, so under another numpy or BLAS the test
may fail without a change to the estimator. A change that moves these
numbers regenerates the file with ``python tools/byte_gate.py --golden``
and says so. A case with an ``x_step`` rounds its covariates to multiples
of it, which ties the index of a d = 1 fit.

The byte gate that writes the file also runs here: its whole case matrix
must hash to one ``sha256  path`` line per file.
"""

import contextlib
import importlib.util
import io
import json
import re
import types
from pathlib import Path

import numpy as np
import pytest

from sivc import Dataset, fit_model, generate_dataset
from sivc.cli import parse_fit_config, parse_sim_config

GOLDEN = json.loads((Path(__file__).parent / "golden_fits.json").read_text(encoding="utf-8"))
BYTE_GATE = Path(__file__).parent.parent / "tools" / "byte_gate.py"


# A mismatch names both numpy versions, since another numpy may move a
# golden number without a change to the estimator.
NUMPY_VERSIONS = (
    f"golden_fits.json was written with numpy {GOLDEN['written_with']['numpy']}; "
    f"this run uses numpy {np.__version__}"
)


def assert_golden(actual, expected):
    # null in the file is NaN; assert_allclose requires NaN at the same
    # positions on both sides.
    expected = np.array(expected, dtype=float)
    scale = np.max(np.abs(expected[np.isfinite(expected)]), initial=0.0)
    np.testing.assert_allclose(
        np.asarray(actual, dtype=float),
        expected,
        rtol=1e-12,
        atol=1e-12 * scale,
        err_msg=NUMPY_VERSIONS,
    )


@pytest.mark.parametrize("case", GOLDEN["cases"], ids=lambda case: case["name"])
def test_fit_matches_golden_values(case):
    dataset, _ = generate_dataset(parse_sim_config(case["sim"]), 0)
    if "x_step" in case:
        x = np.round(dataset.x / case["x_step"]) * case["x_step"]
        dataset = Dataset(y=dataset.y, delta=dataset.delta, x=x, t=dataset.t)
    fit = fit_model(dataset, parse_fit_config(case["fit"]))
    assert_golden(fit.curves.matrix, case["curves"])
    assert_golden(fit.link.m_hat, case["link"])
    assert_golden(fit.diagnostics["objectives"], case["objectives"])


def load_byte_gate():
    spec = importlib.util.spec_from_file_location("byte_gate", BYTE_GATE)
    byte_gate = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(byte_gate)
    return byte_gate


def test_byte_gate_hashes_its_whole_case_matrix():
    # Same-bytes changes are checked with `byte_gate.py --against` a
    # checkout of their parent, so the gate itself must keep running.
    byte_gate = load_byte_gate()
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert byte_gate.main([]) == 0
    lines = out.getvalue().splitlines()
    assert len(lines) == 111
    for line in lines:
        assert re.fullmatch(r"[0-9a-f]{64}  [^ ]+", line), line


def test_each_checkout_writes_the_matrix_with_its_own_byte_gate(tmp_path, monkeypatch):
    # A checkout whose commands differ from this one's writes the matrix
    # its own byte gate names.
    byte_gate = load_byte_gate()
    calls = []

    def run(argv, env, check):
        calls.append((argv, env))

    monkeypatch.setattr(byte_gate, "subprocess", types.SimpleNamespace(run=run))
    checkout = (tmp_path / "parent").resolve()
    assert byte_gate.matrix_of(checkout, tmp_path / "out") == {}
    [(argv, env)] = calls
    assert argv[1:] == [str(checkout / "tools" / "byte_gate.py"), "--write", str(tmp_path / "out")]
    assert env["PYTHONPATH"] == str(checkout / "src")
