"""End-to-end tests for the command-line interface."""

import csv
import dataclasses
import json
import warnings
import xml.etree.ElementTree as ET

import numpy as np
import pytest
from oracle import reference_write_table

from sivc import SimConfig, cli, generate_dataset
from sivc.cli import (
    EXIT_ESTIMATION,
    EXIT_IO,
    EXIT_OK,
    EXIT_VALIDATION,
    main,
    read_dataset_csv,
    write_dataset_csv,
)
from sivc.errors import ValidationError
from sivc.estimator import Bandwidths, FitConfig, LinkEstimate, ModelFit
from sivc.model import CoefficientCurves, Dataset
from sivc.simulate import SimSummary


@pytest.fixture(scope="module")
def paper_csv(tmp_path_factory):
    path = tmp_path_factory.mktemp("data") / "paper.csv"
    dataset, _ = generate_dataset(SimConfig(n=500, reps=1, seed=33), 0)
    write_dataset_csv(path, dataset)
    return path


def write_config(tmp_path, doc, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc), encoding="utf-8")
    return path


def no_scanner(path):
    """Stands in for ``cli._scan_rows`` where a file must be read in bulk."""
    raise AssertionError(f"row scanner used on {path}")


def read_rows(path):
    with open(path, newline="", encoding="utf-8") as handle:
        return list(csv.DictReader(handle))


SMALL_SIM = {
    "sim": {"n": 120, "reps": 3, "seed": 11},
    "fit": {
        "t_grid_size": 5,
        "link_grid": [-0.5, 0.5, 21],
    },
}


class TestFitCommand:
    def test_full_run_writes_four_files(self, paper_csv, tmp_path):
        config = write_config(tmp_path, {"fit": {"t_grid_size": 5}})
        out = tmp_path / "out"
        code = main(
            ["fit", "--data", str(paper_csv), "--config", str(config), "--out", str(out)]
        )
        assert code == EXIT_OK
        for name in ("curves.csv", "link.csv", "diagnostics.json", "manifest.json"):
            assert (out / name).exists()
        diagnostics = json.loads((out / "diagnostics.json").read_text())
        for key in ("iterations", "nfev", "objective_calls", "active_rows", "skipped_rows"):
            assert len(diagnostics[key]) == 5
        assert read_rows(out / "curves.csv")[0].keys() == {"t0", "beta_1", "beta_2"}
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["command"] == "fit"
        for name in manifest["outputs"]:
            assert (out / name).exists()

    def test_univariate_diagnostics_are_strict_json_with_null_objectives(self, tmp_path):
        sim = SimConfig(n=400, d=1, seed=7, preset="constant", constant_direction=(1.0,))
        data = tmp_path / "d1.csv"
        write_dataset_csv(data, generate_dataset(sim, 0)[0])
        config = write_config(tmp_path, {"fit": {"t_grid_size": 5}})
        out = tmp_path / "out"
        code = main(["fit", "--data", str(data), "--config", str(config), "--out", str(out)])
        assert code == EXIT_OK

        def reject(name):
            raise AssertionError(f"diagnostics.json holds {name}")

        diagnostics = json.loads((out / "diagnostics.json").read_text(), parse_constant=reject)
        # At d = 1 the direction is fixed, so no objective is computed.
        assert diagnostics["objectives"] == diagnostics["skipped_rows"] == [None] * 5
        assert diagnostics["converged"] == [True] * 5
        assert all(m >= 2 for m in diagnostics["active_rows"])
        assert [row["beta_1"] for row in read_rows(out / "curves.csv")] == ["1"] * 5

    def test_overflowing_objectives_are_written_as_null(self, tmp_path):
        # Uncensored responses near 1e160 square to infinity in every
        # objective, so no grid point converges; the fit still succeeds.
        dataset, _ = generate_dataset(SimConfig(n=500, seed=1729), 0)
        data = tmp_path / "scaled.csv"
        write_dataset_csv(
            data,
            Dataset(
                y=dataset.y * 1e160, delta=np.ones(dataset.n, dtype=int), x=dataset.x, t=dataset.t
            ),
        )
        config = write_config(tmp_path, {"fit": {"t_grid_size": 5}})
        out = tmp_path / "out"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(["fit", "--data", str(data), "--config", str(config), "--out", str(out)])
        assert code == EXIT_OK

        def reject(name):
            raise AssertionError(f"diagnostics.json holds {name}")

        diagnostics = json.loads((out / "diagnostics.json").read_text(), parse_constant=reject)
        assert diagnostics["objectives"] == [None] * 5
        assert diagnostics["non_converged_points"] == 5

    def test_overflow_in_stage_2_exits_4_on_one_line(self, tmp_path, capsys):
        # 1e308 is a valid response, but its synthetic response overflows.
        dataset, _ = generate_dataset(SimConfig(n=500, seed=1729), 0)
        y = dataset.y.copy()
        y[0] = 1e308
        data = tmp_path / "huge.csv"
        write_dataset_csv(data, Dataset(y=y, delta=dataset.delta, x=dataset.x, t=dataset.t))
        config = write_config(tmp_path, {"fit": {"t_grid_size": 5}})
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(
                ["fit", "--data", str(data), "--config", str(config), "--out", str(tmp_path / "o")]
            )
        assert code == EXIT_ESTIMATION
        assert capsys.readouterr().err == (
            "estimation error: stage 2 (synthetic link): synthetic response overflows at row 0\n"
        )

    @pytest.mark.parametrize(
        "row, sd",
        [
            # 1e300 is a valid covariate, but its square overflows;
            ([1e300, 0.0], "inf"),
            # the pilot projection of this row overflows itself.
            ([1.5e308, 1.5e308], "nan"),
        ],
        ids=["square", "projection"],
    )
    def test_overflowing_bandwidth_exits_4_on_one_line(self, tmp_path, capsys, row, sd):
        dataset, _ = generate_dataset(SimConfig(n=500, seed=1729), 0)
        x = dataset.x.copy()
        x[0] = row
        data = tmp_path / "huge.csv"
        write_dataset_csv(data, Dataset(y=dataset.y, delta=dataset.delta, x=x, t=dataset.t))
        config = write_config(tmp_path, {"fit": {}})
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(
                ["fit", "--data", str(data), "--config", str(config), "--out", str(tmp_path / "o")]
            )
        assert code == EXIT_ESTIMATION
        assert capsys.readouterr().err == (
            f"estimation error: bandwidth is not finite: the sample sd overflows (got {sd})\n"
        )

    @pytest.mark.parametrize(
        "case, code, message",
        [
            pytest.param(
                "not-utf-8",
                EXIT_VALIDATION,
                "validation error: row {row}: {data}: byte 20013 is not UTF-8 (invalid start byte)",
                id="not-utf-8",
            ),
            # Refused when the data are read, not when Stage 2 meets it.
            pytest.param(
                "censored-negative",
                EXIT_VALIDATION,
                "validation error: row {row}: censored response must be >= 0",
                id="censored-negative",
            ),
            # A study whose figure cannot be drawn writes none of its files:
            # the truth of fig2 spans more than a float can pad.
            pytest.param(
                "figure-out-of-range",
                EXIT_VALIDATION,
                "validation error: series must span a y range a float can scale"
                " (got 9.53866e+307 to inf)",
                id="figure-out-of-range",
            ),
            pytest.param(
                "all-censored",
                EXIT_ESTIMATION,
                "estimation error: no uncensored row: every row has delta = 0",
                id="all-censored",
            ),
            pytest.param(
                "constant-x2",
                EXIT_ESTIMATION,
                "estimation error: covariate x2 is constant, so the direction is not identified",
                id="constant-x2",
            ),
            pytest.param(
                "dependent-x2",
                EXIT_ESTIMATION,
                "estimation error: covariate x2 is a linear combination of the covariates"
                " before it, so the direction is not identified",
                id="dependent-x2",
            ),
        ],
    )
    def test_refused_input_exits_on_one_line(self, tmp_path, capsys, case, code, message):
        dataset, _ = generate_dataset(SimConfig(n=300, seed=1729), 0)
        delta, x = dataset.delta, dataset.x.copy()
        if case == "all-censored":
            delta = np.zeros(dataset.n, dtype=int)
        elif case == "constant-x2":
            x[:, 1] = 0.25
        elif case == "dependent-x2":
            x[:, 1] = 2.0 * x[:, 0]
        data = tmp_path / "refused.csv"
        write_dataset_csv(data, Dataset(y=np.abs(dataset.y), delta=delta, x=x, t=dataset.t))
        raw = data.read_bytes()
        # Rows count from 0 after the header.
        row = raw[:20013].count(b"\n") - 1
        if case == "not-utf-8":
            data.write_bytes(raw[:20013] + b"\xff" + raw[20014:])
        if case == "censored-negative":
            # Dataset refuses the row, so it is edited into the file.
            row = int(np.flatnonzero(delta == 0)[0])
            lines = raw.split(b"\r\n")
            lines[row + 1] = b"-0.5" + lines[row + 1][lines[row + 1].index(b","):]
            data.write_bytes(b"\r\n".join(lines))
        config = write_config(tmp_path, {"fit": {}})
        out = tmp_path / "o"
        argv = ["fit", "--data", str(data), "--config", str(config), "--out", str(out)]
        if case == "figure-out-of-range":
            study = {
                "sim": {"n": 200, "reps": 2, "seed": 3},
                "fit": {"t_grid_size": 5, "link_grid": [1e154, 1.33e154, 3]},
            }
            argv = ["simulate", "--config", str(write_config(tmp_path, study)), "--out", str(out)]
        assert main(argv) == code
        assert capsys.readouterr().err == message.format(row=row, data=data) + "\n"
        assert not out.exists()

    # Spreadsheet programs save "CSV UTF-8" with a leading byte order mark.
    @pytest.mark.parametrize("marked", ["data", "config"])
    def test_byte_order_mark_is_skipped(self, paper_csv, tmp_path, monkeypatch, marked):
        monkeypatch.setattr(cli, "_scan_rows", no_scanner)
        plain = {"data": paper_csv, "config": write_config(tmp_path, {"fit": {"t_grid_size": 5}})}
        inputs = dict(plain, **{marked: tmp_path / f"marked-{plain[marked].name}"})
        inputs[marked].write_bytes(b"\xef\xbb\xbf" + plain[marked].read_bytes())
        for files, out in ((plain, "plain"), (inputs, "marked")):
            args = ["--data", str(files["data"]), "--config", str(files["config"])]
            assert main(["fit", *args, "--out", str(tmp_path / out)]) == EXIT_OK
        for name in ("curves.csv", "link.csv"):
            marked_bytes = (tmp_path / "marked" / name).read_bytes()
            assert marked_bytes == (tmp_path / "plain" / name).read_bytes()

    def test_curves_csv_roundtrips_to_12_digits(self, paper_csv, tmp_path):
        from sivc import FitConfig, fit_model

        config = write_config(tmp_path, {"fit": {"t_grid_size": 5}})
        out = tmp_path / "out_rt"
        assert main(
            ["fit", "--data", str(paper_csv), "--config", str(config), "--out", str(out)]
        ) == EXIT_OK
        fit = fit_model(read_dataset_csv(paper_csv), FitConfig(t_grid_size=5))
        rows = read_rows(out / "curves.csv")
        assert len(rows) == 5
        for k, row in enumerate(rows):
            for j in range(2):
                got = float(row[f"beta_{j + 1}"])
                want = fit.curves.matrix[k, j]
                assert got == pytest.approx(want, rel=1e-12)

    def test_missing_data_file(self, tmp_path, capsys):
        config = write_config(tmp_path, {"fit": {}})
        code = main(
            [
                "fit",
                "--data",
                str(tmp_path / "nope.csv"),
                "--config",
                str(config),
                "--out",
                str(tmp_path / "out"),
            ]
        )
        assert code == EXIT_IO
        assert "nope.csv" in capsys.readouterr().err

    def test_missing_promised_output_exits_3(self, paper_csv, tmp_path, capsys, monkeypatch):
        # A writer that leaves its file out: the manifest names the gap.
        monkeypatch.setattr(cli, "write_link_csv", lambda path, fit: None)
        config = write_config(tmp_path, {"fit": {"t_grid_size": 5}})
        code = main(
            ["fit", "--data", str(paper_csv), "--config", str(config), "--out", str(tmp_path / "o")]
        )
        assert code == EXIT_IO
        assert capsys.readouterr().err == (
            "i/o error: promised outputs missing after run: ['link.csv']\n"
        )

    @pytest.mark.parametrize(
        "text, named",
        [
            ("y,delta,t,x1\n" + "1" * 140_000 + ",1,0.5,0.2\n2,0,0.4,0.1\n\n", "row 0"),
            ("y" * 140_000 + ",delta,t,x1\n1,1,0.5,0.2\n2,0,0.4,0.1\n", "header"),
        ],
        ids=["data-row", "header"],
    )
    def test_field_over_the_csv_limit_rejected(self, tmp_path, capsys, text, named):
        data = tmp_path / "long.csv"
        data.write_text(text, encoding="utf-8")
        config = write_config(tmp_path, {"fit": {}})
        code = main(
            ["fit", "--data", str(data), "--config", str(config), "--out", str(tmp_path / "o")]
        )
        assert code == EXIT_VALIDATION
        err = capsys.readouterr().err
        assert named in err and "field larger than field limit" in err

    def test_estimation_failure_exit_code(self, tmp_path):
        dataset, _ = generate_dataset(SimConfig(n=20, reps=1, seed=2), 0)
        data = tmp_path / "tiny.csv"
        write_dataset_csv(data, dataset)
        config = write_config(
            tmp_path,
            {
                "fit": {
                    "t_grid_size": 3,
                    # JSON integers are numbers too.
                    "bandwidths": {"h1": 1, "h2": 1e-9, "h_link": 1},
                }
            },
        )
        code = main(
            ["fit", "--data", str(data), "--config", str(config), "--out", str(tmp_path / "o")]
        )
        assert code == EXIT_ESTIMATION


class TestSimulateCommand:
    def test_summary_files_written(self, tmp_path):
        config = write_config(tmp_path, SMALL_SIM)
        out = tmp_path / "sim"
        assert main(["simulate", "--config", str(config), "--out", str(out)]) == EXIT_OK
        rows = read_rows(out / "summary.csv")
        assert len(rows) == 5
        assert set(rows[0]) == {
            "t0",
            "beta_1_median",
            "beta_1_q05",
            "beta_1_q95",
            "beta_2_median",
            "beta_2_q05",
            "beta_2_q95",
        }
        link_rows = read_rows(out / "link_summary.csv")
        assert len(link_rows) == 21
        assert float(link_rows[0]["u"]) == -0.5
        assert float(link_rows[-1]["u"]) == 0.5

    def test_byte_identical_reruns(self, tmp_path):
        config = write_config(tmp_path, SMALL_SIM)
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert main(["simulate", "--config", str(config), "--out", str(out1)]) == EXIT_OK
        assert main(["simulate", "--config", str(config), "--out", str(out2)]) == EXIT_OK
        assert (out1 / "summary.csv").read_bytes() == (out2 / "summary.csv").read_bytes()
        assert (out1 / "link_summary.csv").read_bytes() == (
            out2 / "link_summary.csv"
        ).read_bytes()

    def test_writes_per_replication_files(self, tmp_path):
        config = write_config(tmp_path, SMALL_SIM)
        out = tmp_path / "raw"
        assert main(["simulate", "--config", str(config), "--out", str(out)]) == EXIT_OK
        raw = read_rows(out / "raw_curves.csv")
        assert len(raw) == 3 * 5
        assert {row["rep"] for row in raw} == {"0", "1", "2"}
        assert (out / "raw_link.csv").exists()

    def test_single_replication_bands_collapse(self, tmp_path):
        doc = {"sim": dict(SMALL_SIM["sim"], reps=1), "fit": SMALL_SIM["fit"]}
        config = write_config(tmp_path, doc)
        out = tmp_path / "one"
        assert main(["simulate", "--config", str(config), "--out", str(out)]) == EXIT_OK
        for row in read_rows(out / "summary.csv"):
            assert row["beta_1_median"] == row["beta_1_q05"] == row["beta_1_q95"]

    def test_unknown_config_key_rejected(self, tmp_path, capsys):
        config = write_config(tmp_path, {"sim": {"bogus": 1}})
        code = main(["simulate", "--config", str(config), "--out", str(tmp_path / "o")])
        assert code == EXIT_VALIDATION
        assert "bogus" in capsys.readouterr().err

    def test_invalid_json_rejected(self, tmp_path):
        config = tmp_path / "broken.json"
        config.write_text("{not json", encoding="utf-8")
        code = main(["simulate", "--config", str(config), "--out", str(tmp_path / "o")])
        assert code == EXIT_VALIDATION


# Config documents that must end in a validation error naming the section
# or the missing key, never in a traceback.
REJECTED_CONFIG = {
    "fit-not-an-object": ({"fit": []}, "fit config must be a JSON object (got [])"),
    "sim-not-an-object": ({"sim": "x"}, 'sim config must be a JSON object (got "x")'),
    # The iteration cap is a rule of d, so max_iter is an unknown key, and
    # so is the former optimizer section, whatever it holds.
    "max_iter": ({"fit": {"max_iter": 150}}, "unknown fit config keys: ['max_iter']"),
    "optimizer-not-an-object": (
        {"fit": {"optimizer": 3}},
        "unknown fit config keys: ['optimizer']",
    ),
    "optimizer-max_iter": (
        {"fit": {"optimizer": {"max_iter": 100}}},
        "unknown fit config keys: ['optimizer']",
    ),
    "bandwidths-not-an-object": (
        {"fit": {"bandwidths": "foo"}},
        'bandwidths config must be a JSON object (got "foo")',
    ),
    "bandwidths-missing-h2-h_link": (
        {"fit": {"bandwidths": {"h1": 1}}},
        "bandwidths config is missing keys: ['h2', 'h_link']",
    ),
    "bandwidths-missing-h1": (
        {"fit": {"bandwidths": {"h2": 0.2, "h_link": 0.3}}},
        "bandwidths config is missing keys: ['h1']",
    ),
    "link_grid-not-a-list": (
        {"fit": {"link_grid": 5}},
        "fit config: link_grid must hold 3 values [min, max, count] (got 5)",
    ),
    "n-a-string": (
        {"sim": {"n": "abc"}},
        "sim config: n must be an integer (got 'abc')",
    ),
    "constant_direction-a-number": (
        {"sim": {"constant_direction": 3}},
        'sim config: constant_direction is only for the "constant" preset (got 3)',
    ),
    # Each grid point runs once, so a restarts key is unknown, in the fit
    # section or in the former optimizer section.
    "restarts-null": (
        {"fit": {"optimizer": {"restarts": None}}},
        "unknown fit config keys: ['optimizer']",
    ),
    "restarts-in-fit": (
        {"fit": {"restarts": 4}},
        "unknown fit config keys: ['restarts']",
    ),
    "t_grid_size-null": (
        {"fit": {"t_grid_size": None}},
        "fit config: t_grid_size must be an integer (got None)",
    ),
    "h1-null": (
        {"fit": {"bandwidths": {"h1": None, "h2": 1, "h_link": 1}}},
        "fit config: h1 must be a finite number (got None)",
    ),
    # Integer fields take JSON integers only, and number fields any finite
    # JSON number; neither takes a boolean or a string.
    "reps-a-fraction": (
        {"sim": {"reps": 2.5}},
        "sim config: reps must be an integer (got 2.5)",
    ),
    "n-a-fraction": (
        {"sim": {"n": 50.5}},
        "sim config: n must be an integer (got 50.5)",
    ),
    "d-a-float": (
        {"sim": {"d": 2.0}},
        "sim config: d must be an integer (got 2.0)",
    ),
    "seed-a-fraction": (
        {"sim": {"seed": 1.5}},
        "sim config: seed must be an integer (got 1.5)",
    ),
    "noise_sd-a-boolean": (
        {"sim": {"noise_sd": True}},
        "sim config: noise_sd must be a finite number (got True)",
    ),
    "constant_direction-a-string-entry": (
        {"sim": {"preset": "constant", "constant_direction": [1, "0"]}},
        "sim config: constant_direction entry must be a finite number (got '0')",
    ),
    "t_grid_size-a-fraction": (
        {"fit": {"t_grid_size": 5.7}},
        "fit config: t_grid_size must be an integer (got 5.7)",
    ),
    "link_grid-count-a-fraction": (
        {"fit": {"link_grid": [-0.5, 0.5, 10.9]}},
        "fit config: link_grid count must be an integer (got 10.9)",
    ),
    "link_grid-two-values": (
        {"fit": {"link_grid": [0, 1]}},
        "fit config: link_grid must hold 3 values [min, max, count] (got [0, 1])",
    ),
    "link_grid-four-values": (
        {"fit": {"link_grid": [0, 1, 10, 2]}},
        "fit config: link_grid must hold 3 values [min, max, count] (got [0, 1, 10, 2])",
    ),
    "link_grid-end-a-string": (
        {"fit": {"link_grid": ["-0.5", 0.5, 10]}},
        "fit config: link_grid min must be a finite number (got '-0.5')",
    ),
    "restarts-a-boolean": (
        {"fit": {"optimizer": {"restarts": True}}},
        "unknown fit config keys: ['optimizer']",
    ),
    "restarts-a-string": (
        {"fit": {"optimizer": {"restarts": "3"}}},
        "unknown fit config keys: ['optimizer']",
    ),
    "tol-removed": (
        {"fit": {"optimizer": {"tol": 1e-8}}},
        "unknown fit config keys: ['optimizer']",
    ),
    "tol-in-fit": (
        {"fit": {"tol": 1e-8}},
        "unknown fit config keys: ['tol']",
    ),
    # Ends that linspace cannot turn into a grid: the span overflows, or
    # the step is below the smallest float.
    "link_grid-span-overflows": (
        {"fit": {"link_grid": [-1e308, 1e308, 5]}},
        "fit config: link_grid points must be finite",
    ),
    "link_grid-step-underflows": (
        {"fit": {"link_grid": [0, 5e-324, 3]}},
        "fit config: link_grid points must be strictly ascending",
    ),
    "link_grid-one-point": (
        {"fit": {"link_grid": [-1, 1, 1]}},
        "fit config: link_grid count must be at least 2",
    ),
    # Counts numpy refuses before it allocates anything: one too big for
    # an index, and one whose array is too big for any memory.
    "link_grid-count-2**63-1": (
        {"fit": {"link_grid": [-1, 1, 2**63 - 1]}},
        "fit config: link_grid count is too large for numpy to build its grid "
        f"(got {2**63 - 1})",
    ),
    "link_grid-count-2**62": (
        {"fit": {"link_grid": [-1, 1, 2**62]}},
        f"fit config: link_grid count is too large for numpy to build its grid (got {2**62})",
    ),
    "t_grid_size-2**63-1": (
        {"fit": {"t_grid_size": 2**63 - 1}},
        f"fit config: t_grid_size is too large for numpy to build its grid (got {2**63 - 1})",
    ),
    "t_grid_size-2**62": (
        {"fit": {"t_grid_size": 2**62}},
        f"fit config: t_grid_size is too large for numpy to build its grid (got {2**62})",
    ),
    # The kernel is a constant of the fit, so any kernel value is an
    # unknown key, the one family it smooths with included.
    "kernel-epanechnikov": (
        {"fit": {"kernel": "epanechnikov"}},
        "unknown fit config keys: ['kernel']",
    ),
    "kernel-gaussian": (
        {"fit": {"kernel": "gaussian"}},
        "unknown fit config keys: ['kernel']",
    ),
    "h1-a-boolean": (
        {"fit": {"bandwidths": {"h1": True, "h2": 1, "h_link": 1}}},
        "fit config: h1 must be a finite number (got True)",
    ),
    "constant_direction-on-paper": (
        {"sim": {"preset": "paper", "constant_direction": [1, 0]}},
        'sim config: constant_direction is only for the "constant" preset (got [1, 0])',
    ),
    "constant_direction-a-number-on-constant": (
        {"sim": {"preset": "constant", "constant_direction": 3}},
        "sim config: constant_direction must be a list of numbers (got 3)",
    ),
    "constant_direction-shorter-than-d": (
        {"sim": {"preset": "constant", "d": 3, "constant_direction": [1, 0]}},
        "sim config: constant_direction length must equal d",
    ),
    # JSON 1e400 parses to inf.
    "noise_sd-infinite": (
        {"sim": {"noise_sd": 1e400}},
        "sim config: noise_sd must be a finite number (got inf)",
    ),
}

# More digits than Python's default limit lets int() convert.
LONG_INTEGER = "1" * 5000


def int_refusal(text):
    """What int() says when it refuses ``text``."""
    try:
        int(text)
    except ValueError as exc:
        return str(exc)
    raise AssertionError(f"int() read {len(text)} digits")


# Config files no dict can hold or Python cannot read, with the problem
# found in them after "config <path>: ".
UNREADABLE_CONFIG = {
    "fit-key-twice": (
        '{"fit": {"t_grid_size": 5, "t_grid_size": 3}}',
        "duplicate key 't_grid_size'",
    ),
    "sim-key-twice": ('{"sim": {"reps": 2, "reps": 3}}', "duplicate key 'reps'"),
    "section-twice": ('{"fit": {}, "fit": {"t_grid_size": 3}}', "duplicate key 'fit'"),
    "bandwidths-key-twice": (
        '{"fit": {"bandwidths": {"h1": 1, "h2": 1, "h_link": 1, "h1": 2}}}',
        "duplicate key 'h1'",
    ),
    "fit-integer-too-long": (
        '{"fit": {"t_grid_size": %s}}' % LONG_INTEGER,
        f"unreadable number ({int_refusal(LONG_INTEGER)})",
    ),
}


class TestConfigErrors:
    def test_each_section_takes_every_field_of_its_dataclass(self):
        bandwidths = {"h1": 0.4, "h2": 0.3, "h_link": 0.2}
        fit = {
            "t_grid_size": 5,
            "link_grid": [-1, 1, 11],
            "bandwidths": bandwidths,
        }
        sim = {
            "n": 50,
            "d": 3,
            "reps": 2,
            "censor_target": 0.1,
            "noise_sd": 0.5,
            "seed": 4,
            "preset": "constant",
            "constant_direction": [1, 0, 0],
        }
        for cls, section in (
            (FitConfig, fit),
            (SimConfig, sim),
            (Bandwidths, bandwidths),
        ):
            assert set(section) == {f.name for f in dataclasses.fields(cls)}
        parsed = cli.parse_fit_config(fit)
        assert parsed.bandwidths == Bandwidths(**bandwidths)
        assert (parsed.t_grid_size, parsed.link_grid) == (5, (-1.0, 1.0, 11))
        assert cli.parse_sim_config(sim) == SimConfig(**dict(sim, constant_direction=(1, 0, 0)))

    @pytest.mark.parametrize("case", sorted(REJECTED_CONFIG))
    def test_parse_raises_validation_error(self, case):
        doc, message = REJECTED_CONFIG[case]
        parse = cli.parse_sim_config if "sim" in doc else cli.parse_fit_config
        with pytest.raises(ValidationError) as excinfo:
            parse(next(iter(doc.values())))
        assert [text for _, text in excinfo.value.problems] == [message]

    @pytest.mark.parametrize(
        "command, case",
        [("simulate", case) for case in sorted(REJECTED_CONFIG) + sorted(UNREADABLE_CONFIG)]
        # sivc fit reads no sim section.
        + [
            ("fit", case)
            for case in sorted(REJECTED_CONFIG)
            if "sim" not in REJECTED_CONFIG[case][0]
        ]
        + [("fit", case) for case in sorted(UNREADABLE_CONFIG) if "sim" not in case],
    )
    def test_command_exits_2(self, paper_csv, tmp_path, capsys, monkeypatch, command, case):
        # The config is refused on one line, with no numpy warning, before
        # any fit or study runs.
        def no_fit(*args, **kwargs):
            raise AssertionError("the fit ran")

        monkeypatch.setattr(cli, "fit_model", no_fit)
        monkeypatch.setattr(cli, "run_monte_carlo", no_fit)
        if case in UNREADABLE_CONFIG:
            text, problem = UNREADABLE_CONFIG[case]
            config = tmp_path / "config.json"
            config.write_text(text, encoding="utf-8")
            message = f"config {config}: {problem}"
        else:
            doc, message = REJECTED_CONFIG[case]
            config = write_config(tmp_path, doc)
        data = ["--data", str(paper_csv)] if command == "fit" else []
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = main([command, *data, "--config", str(config), "--out", str(tmp_path / "o")])
        assert code == EXIT_VALIDATION
        assert capsys.readouterr().err == f"validation error: {message}\n"
        assert caught == []
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize(
        "direction, problem",
        [
            ([0, 0], "degenerate direction: zero vector"),
            ([0, 1], "unidentifiable sign: first component is zero"),
        ],
        ids=["zero-vector", "zero-first-component"],
    )
    def test_constant_direction_without_a_sign_exits_2(self, tmp_path, capsys, direction, problem):
        doc = {"sim": {"preset": "constant", "constant_direction": direction}}
        config = write_config(tmp_path, doc)
        code = main(["simulate", "--config", str(config), "--out", str(tmp_path / "o")])
        assert code == EXIT_VALIDATION
        assert f"validation error: sim config: {problem}" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("command", ["fit", "simulate"])
    def test_gaussian_kernel_exits_2(self, paper_csv, tmp_path, capsys, command):
        config = write_config(tmp_path, {"fit": {"kernel": "gaussian"}})
        data = ["--data", str(paper_csv)] if command == "fit" else []
        code = main([command, *data, "--config", str(config), "--out", str(tmp_path / "o")])
        assert code == EXIT_VALIDATION
        err = capsys.readouterr().err
        assert err == "validation error: unknown fit config keys: ['kernel']\n"
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("command", ["fit", "simulate"])
    def test_config_holding_a_json_array_exits_2(self, paper_csv, tmp_path, capsys, command):
        config = write_config(tmp_path, [{"fit": {}}])
        data = ["--data", str(paper_csv)] if command == "fit" else []
        code = main([command, *data, "--config", str(config), "--out", str(tmp_path / "o")])
        assert code == EXIT_VALIDATION
        err = capsys.readouterr().err
        assert err == f"validation error: config {config}: expected a JSON object\n"
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("command", ["fit", "simulate"])
    def test_config_that_is_not_utf8_exits_2(self, paper_csv, tmp_path, capsys, command):
        config = tmp_path / "config.json"
        config.write_bytes(b'{"fit": {"t_grid_size": 5}}\n\xff\n')
        data = ["--data", str(paper_csv)] if command == "fit" else []
        code = main([command, *data, "--config", str(config), "--out", str(tmp_path / "o")])
        assert code == EXIT_VALIDATION
        err = capsys.readouterr().err
        assert err == f"validation error: config {config}: byte 28 is not UTF-8 (invalid start byte)\n"
        assert not (tmp_path / "o").exists()

    def test_bad_byte_after_a_byte_order_mark_is_counted_from_the_file_start(
        self, tmp_path, capsys
    ):
        config = tmp_path / "config.json"
        config.write_bytes(b'\xef\xbb\xbf{"fit": {"t_grid_size": 5}}\n\xff\n')
        code = main(["simulate", "--config", str(config), "--out", str(tmp_path / "o")])
        assert code == EXIT_VALIDATION
        err = capsys.readouterr().err
        assert err == f"validation error: config {config}: byte 31 is not UTF-8 (invalid start byte)\n"
        assert not (tmp_path / "o").exists()

    def test_fit_on_nine_rows_with_fixed_bandwidths_exits_2(self, tmp_path, capsys):
        # Fixed bandwidths skip the selection rule, which would refuse the
        # nine rows first; the direction fit refuses them instead.
        ds, _ = generate_dataset(SimConfig(n=10, reps=1, seed=3), 0)
        data = tmp_path / "nine.csv"
        write_dataset_csv(data, Dataset(y=ds.y[:9], delta=ds.delta[:9], x=ds.x[:9], t=ds.t[:9]))
        bandwidths = {"h1": 0.5, "h2": 0.3, "h_link": 0.3}
        config = write_config(tmp_path, {"fit": {"bandwidths": bandwidths}})
        out = tmp_path / "o"
        code = main(["fit", "--data", str(data), "--config", str(config), "--out", str(out)])
        assert code == EXIT_VALIDATION
        err = capsys.readouterr().err
        assert err == "validation error: direction fitting needs n >= 10 (got 9)\n"
        assert not out.exists()

    @pytest.mark.parametrize("n, d, events", [(5, 5, 1), (9, 2, 0)], ids=["5x5", "9-censored"])
    def test_fit_on_fewer_than_ten_rows_exits_2_before_identification(
        self, tmp_path, capsys, n, d, events
    ):
        # Five rows in five columns are always dependent, and nine fully
        # censored rows have no event; the row count is named first.
        rng = np.random.default_rng(34)
        data = tmp_path / "small.csv"
        ds = Dataset(
            y=rng.uniform(1.0, 2.0, n),
            delta=np.full(n, events),
            x=rng.normal(size=(n, d)),
            t=rng.uniform(size=n),
        )
        write_dataset_csv(data, ds)
        config = write_config(tmp_path, {"fit": {}})
        out = tmp_path / "o"
        code = main(["fit", "--data", str(data), "--config", str(config), "--out", str(out)])
        assert code == EXIT_VALIDATION
        err = capsys.readouterr().err
        assert err == f"validation error: direction fitting needs n >= 10 (got {n})\n"
        assert not out.exists()

    @pytest.mark.parametrize("command", ["simulate", "reproduce-figures"])
    def test_negative_seed_exits_2(self, tmp_path, capsys, command):
        if command == "simulate":
            args = ["--config", str(write_config(tmp_path, {"sim": {"seed": -1}}))]
            section = "sim config: "
        else:
            args = ["--seed", "-1"]
            section = ""
        code = main([command, *args, "--out", str(tmp_path / "o")])
        assert code == EXIT_VALIDATION
        problem = f"validation error: {section}seed must be non-negative (got -1)"
        assert problem in capsys.readouterr().err
        assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("command", ["simulate", "reproduce-figures"])
def test_degraded_study_warns(tmp_path, capsys, monkeypatch, command):
    study = cli.run_monte_carlo

    def degraded(*args, **kwargs):
        return dataclasses.replace(study(*args, **kwargs), failures=((0, "injected"),))

    monkeypatch.setattr(cli, "run_monte_carlo", degraded)
    if command == "simulate":
        doc = {"sim": dict(SMALL_SIM["sim"], reps=2), "fit": SMALL_SIM["fit"]}
        args = ["--config", str(write_config(tmp_path, doc))]
    else:
        args = ["--reps", "2", "--seed", "3"]
    assert main([command, *args, "--out", str(tmp_path / "o")]) == EXIT_OK
    assert "warning: 1 of 2 replications failed; summary is degraded" in capsys.readouterr().err


# Both study commands write one set of files.
STUDY_OUTPUTS = [
    "summary.csv", "link_summary.csv", "raw_curves.csv", "raw_link.csv", "fig1.svg", "fig2.svg"
]


@pytest.fixture(scope="module")
def figure_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("figs")
    code = main(
        ["reproduce-figures", "--out", str(out), "--reps", "2", "--seed", "3"]
    )
    return code, out


class TestReproduceFiguresCommand:
    def test_all_outputs_present(self, figure_run):
        code, out = figure_run
        assert code == EXIT_OK
        for name in [*STUDY_OUTPUTS, "manifest.json"]:
            assert (out / name).exists()

    def test_manifest_records_settings(self, figure_run):
        _, out = figure_run
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["command"] == "reproduce-figures"
        assert manifest["config"]["sim"]["reps"] == 2
        assert manifest["seed"] == 3
        assert manifest["versions"]["sivc"]

    def test_svg_is_wellformed_and_selfcontained(self, figure_run):
        _, out = figure_run
        for name in ("fig1.svg", "fig2.svg"):
            text = (out / name).read_text(encoding="utf-8")
            root = ET.fromstring(text)
            assert root.tag.endswith("svg")
            assert "href" not in text
            assert "url(" not in text
            assert "<image" not in text

    def test_fig1_has_two_panels_fig2_one(self, figure_run):
        _, out = figure_run
        fig1 = (out / "fig1.svg").read_text(encoding="utf-8")
        fig2 = (out / "fig2.svg").read_text(encoding="utf-8")
        assert fig1.count("Coefficient curve") == 2
        assert fig2.count("Link function") == 1

    def test_link_grid_endpoints(self, figure_run):
        _, out = figure_run
        rows = read_rows(out / "link_summary.csv")
        assert float(rows[0]["u"]) == -0.5
        assert float(rows[-1]["u"]) == 0.5

    def test_writes_what_simulate_writes_for_its_sim_config(self, figure_run, tmp_path):
        _, figures = figure_run
        config = write_config(tmp_path, {"sim": {"reps": 2, "seed": 3}})
        out = tmp_path / "sim"
        assert main(["simulate", "--config", str(config), "--out", str(out)]) == EXIT_OK
        for name in STUDY_OUTPUTS:
            assert (out / name).read_bytes() == (figures / name).read_bytes(), name
        manifests = [json.loads((where / "manifest.json").read_text()) for where in (out, figures)]
        assert [m.pop("command") for m in manifests] == ["simulate", "reproduce-figures"]
        for manifest in manifests:
            del manifest["duration_seconds"]
        assert manifests[0] == manifests[1]


MANIFEST_CASES = {
    "fit": (["curves.csv", "link.csv", "diagnostics.json"], None),
    "simulate": (STUDY_OUTPUTS, 11),
    "reproduce-figures": (STUDY_OUTPUTS, 3),
}


@pytest.mark.parametrize("command", list(MANIFEST_CASES))
def test_manifest_lists_every_output_last_itself(paper_csv, tmp_path, capsys, command):
    out = tmp_path / "out"
    if command == "fit":
        config = write_config(tmp_path, {"fit": {"t_grid_size": 5}})
        args = ["--data", str(paper_csv), "--config", str(config)]
    elif command == "simulate":
        args = ["--config", str(write_config(tmp_path, SMALL_SIM))]
    else:
        args = ["--reps", "2", "--seed", "3"]
    assert main([command, *args, "--out", str(out)]) == EXIT_OK
    written, seed = MANIFEST_CASES[command]
    outputs = written + ["manifest.json"]
    assert capsys.readouterr().out.splitlines() == [f"wrote {out / name}" for name in outputs]
    manifest = json.loads((out / "manifest.json").read_text())
    assert list(manifest) == ["command", "config", "seed", "versions", "outputs", "duration_seconds"]
    assert manifest["command"] == command
    assert list(manifest["config"]) == (["fit"] if command == "fit" else ["fit", "sim"])
    assert manifest["seed"] == seed
    assert list(manifest["versions"]) == ["sivc", "numpy", "python"]
    assert manifest["outputs"] == outputs
    assert sorted(path.name for path in out.iterdir()) == sorted(outputs)
    assert manifest["duration_seconds"] >= 0


class TestDatasetCsvRoundtrip:
    def test_exact_roundtrip(self, tmp_path):
        # The second size spans three of the writer's conversion blocks.
        for n in (50, 2 * cli._BLOCK_ROWS + 3):
            dataset, _ = generate_dataset(SimConfig(n=n, reps=1, seed=44), 0)
            path = tmp_path / f"ds{n}.csv"
            write_dataset_csv(path, dataset)
            back = read_dataset_csv(path)
            assert np.array_equal(back.y, dataset.y)
            assert np.array_equal(back.delta, dataset.delta)
            assert np.array_equal(back.x, dataset.x)
            assert np.array_equal(back.t, dataset.t)

    def test_accepts_plain_string_paths(self, tmp_path):
        dataset, _ = generate_dataset(SimConfig(n=20, reps=1, seed=45), 0)
        path = str(tmp_path / "ds.csv")
        write_dataset_csv(path, dataset)
        back = read_dataset_csv(path)
        assert back.n == dataset.n


class TestTableWriter:
    def test_bytes_match_the_reference_writer(self, tmp_path):
        # Three formatting blocks, the last one partial.
        n = 2 * cli._BLOCK_ROWS + 3
        rng = np.random.default_rng(21)
        specials = np.resize([-0.0, 5e-324, 1.7976931348623157e308, 1 / 3, np.nan], n)
        spread = rng.standard_normal(n) * 10.0 ** rng.integers(-300, 300, n)
        spread[::7] = specials[::7]
        columns = [
            specials,
            spread,
            rng.integers(-(10**12), 10**12, n),
            rng.random(n) < 0.5,
        ]
        header = ["a", "b", "count", "defined"]
        cli._write_table(tmp_path / "new.csv", header, columns)
        reference_write_table(tmp_path / "ref.csv", header, columns)
        assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()

    def test_unequal_columns_raise_before_writing(self, tmp_path):
        path = tmp_path / "t.csv"
        n = cli._BLOCK_ROWS + 1
        with pytest.raises(ValueError):
            cli._write_table(path, ["a", "b"], [np.zeros(n), np.zeros(n - 1)])
        assert not path.exists()


def csv_file(tmp_path, text):
    # A lone surrogate U+DC80..U+DCFF writes the byte 0x80..0xff alone,
    # which is not UTF-8.
    path = tmp_path / "in.csv"
    path.write_bytes(text.encode("utf-8", "surrogateescape"))
    return path


# The reader's contract: each accepted file with the rows it must give,
# as (y, delta, t, x) with x a tuple, and each rejected file with the
# exact problems list of its ValidationError, ``{path}`` standing for the
# file's path.
ACCEPTED_CSV = {
    "crlf": (
        "y,delta,t,x1\r\n1,1,0.5,0.2\r\n2,0,0.4,0.1\r\n",
        [(1.0, 1, 0.5, (0.2,)), (2.0, 0, 0.4, (0.1,))],
    ),
    "lone-cr": (
        "y,delta,t,x1\r1,1,0.5,0.2\r2,0,0.4,0.1\r",
        [(1.0, 1, 0.5, (0.2,)), (2.0, 0, 0.4, (0.1,))],
    ),
    "no-final-newline": (
        "y,delta,t,x1\n1,1,0.5,0.2\n2,0,0.4,0.1",
        [(1.0, 1, 0.5, (0.2,)), (2.0, 0, 0.4, (0.1,))],
    ),
    "quoted-numeric-field": (
        'y,delta,t,x1\n"1.5",1,0.5,0.2\n2,0,0.4,"0.1"\n',
        [(1.5, 1, 0.5, (0.2,)), (2.0, 0, 0.4, (0.1,))],
    ),
    "underscore-in-number": (
        "y,delta,t,x1\n1_0,1,0.5,0.2\n2,0,0.4,0.1\n",
        [(10.0, 1, 0.5, (0.2,)), (2.0, 0, 0.4, (0.1,))],
    ),
    "padded-delta": (
        "y,delta,t,x1\n1, 1,0.5,0.2\n2,0 ,0.4,0.1\n",
        [(1.0, 1, 0.5, (0.2,)), (2.0, 0, 0.4, (0.1,))],
    ),
    "padded-numbers": (
        "y,delta,t,x1\n 1.5 ,1,\t0.5,0.2 \n2,0,0.4, 0.1\n",
        [(1.5, 1, 0.5, (0.2,)), (2.0, 0, 0.4, (0.1,))],
    ),
    # A leading byte order mark is skipped by the bulk parse and, past a
    # quote the bulk parse refuses, by the row scanner.
    "byte-order-mark": (
        "\ufeffy,delta,t,x1\n1,1,0.5,0.2\n2,0,0.4,0.1\n",
        [(1.0, 1, 0.5, (0.2,)), (2.0, 0, 0.4, (0.1,))],
    ),
    "byte-order-mark-quoted-field": (
        '\ufeffy,delta,t,x1\n"1.5",1,0.5,0.2\n2,0,0.4,0.1\n',
        [(1.5, 1, 0.5, (0.2,)), (2.0, 0, 0.4, (0.1,))],
    ),
    "signed-zero-17-digits-subnormal": (
        "y,delta,t,x1,x2\n-0.0,1,0.30000000000000004,5e-324,-1E+300\n"
        "-2.5,1,1,0,1.7976931348623157e308\n",
        [
            (-0.0, 1, 0.30000000000000004, (5e-324, -1e300)),
            (-2.5, 1, 1.0, (0.0, 1.7976931348623157e308)),
        ],
    ),
}

# Text before a byte that is not UTF-8, longer than a text reader's
# buffer and after a record that spans two lines.
NOT_UTF8_HEAD = 'y,delta,t,x1\n"1\n",1,0.5,0.2\n' + "0.5,1,0.5,0.2\n" * 1500 + "2,0,0.4,0.1"

REJECTED_CSV = {
    "header-only": (
        "y,delta,t,x1\n",
        [(None, "dataset needs at least 2 rows (got 0)")],
    ),
    "one-data-row": (
        "y,delta,t,x1\n1.5,1,0.5,0.2\n",
        [(None, "dataset needs at least 2 rows (got 1)")],
    ),
    "wrong-header": (
        "a,b,c\n1,2,3\n",
        [(None, "{path}: header must be y,delta,t,x1,...,xd (got ['a', 'b', 'c'])")],
    ),
    "blank-line-mid-file": (
        "y,delta,t,x1\n1,1,0.5,0.2\n\n2,0,0.4,0.1\n",
        [(1, "expected 4 fields, got 0")],
    ),
    "blank-line-at-end": (
        "y,delta,t,x1\n1,1,0.5,0.2\n2,0,0.4,0.1\n\n",
        [(2, "expected 4 fields, got 0")],
    ),
    "blank-line-crlf": (
        "y,delta,t,x1\r\n1,1,0.5,0.2\r\n\r\n2,0,0.4,0.1\r\n",
        [(1, "expected 4 fields, got 0")],
    ),
    "whitespace-line": (
        "y,delta,t,x1\n1,1,0.5,0.2\n \n2,0,0.4,0.1\n",
        [(1, "expected 4 fields, got 1")],
    ),
    "trailing-hash-is-no-comment": (
        "y,delta,t,x1\n1,1,0.5,0.2#x\n2,0,0.4,0.1\n",
        [(0, "non-numeric field in ['1', '1', '0.5', '0.2#x']")],
    ),
    "hash-line-is-no-comment": (
        "y,delta,t,x1\n#x\n1,1,0.5,0.2\n2,0,0.4,0.1\n",
        [(0, "expected 4 fields, got 1")],
    ),
    "delta-1.0": (
        "y,delta,t,x1\n1,1.0,0.5,0.2\n2,0,0.4,0.1\n",
        [(0, "delta must be 0 or 1 (got '1.0')")],
    ),
    "delta-2": (
        "y,delta,t,x1\n1,1,0.5,0.2\n2,2,0.4,0.1\n",
        [(1, "delta must be 0 or 1 (got '2')")],
    ),
    "delta-minus-0": (
        "y,delta,t,x1\n1,-0,0.5,0.2\n2,0,0.4,0.1\n",
        [(0, "delta must be 0 or 1 (got '-0')")],
    ),
    "wrong-field-counts": (
        "y,delta,t,x1\n1,1,0.5\n2,0,0.4,0.1\n3,1,0.2,0.1,9\n4,0\n"
        "5,1,0.1,0.1\n6\n7,0,0.5,0.5,0.5\n8,1,0.5\n",
        [
            (0, "expected 4 fields, got 3"),
            (2, "expected 4 fields, got 5"),
            (3, "expected 4 fields, got 2"),
            (5, "expected 4 fields, got 1"),
            (6, "expected 4 fields, got 5"),
            (7, "expected 4 fields, got 3"),
        ],
    ),
    "extra-field-on-every-row": (
        "y,delta,t,x1\n1,1,0.5,0.2,9\n2,0,0.4,0.1,9\n",
        [(0, "expected 4 fields, got 5"), (1, "expected 4 fields, got 5")],
    ),
    "non-numeric-field": (
        "y,delta,t,x1\nabc,1,0.5,0.2\n2,0,0.4,0.1\n",
        [(0, "non-numeric field in ['abc', '1', '0.5', '0.2']")],
    ),
    # numpy strips U+001C..U+001F around a number; float() does not.
    "information-separator": (
        "y,delta,t,x1\n1,1,0.5,0.2\x1c\n2,0,0.4,0.1\n",
        [(0, "non-numeric field in ['1', '1', '0.5', '0.2\\x1c']")],
    ),
    # The trailing blank line sends the file to the row scanner.
    "field-over-the-csv-limit": (
        "y,delta,t,x1\nx,1,0.5,0.2\n" + "2" * 140_000 + ",0,0.4,0.1\n3,0,0.4,0.1\n\n",
        [
            (0, "non-numeric field in ['x', '1', '0.5', '0.2']"),
            (1, "unreadable record (field larger than field limit (131072))"),
        ],
    ),
    "nan-and-inf-response": (
        "y,delta,t,x1\nnan,1,0.5,0.2\n-inf,0,0.4,0.1\n3,0,0.4,0.1\n",
        [(0, "response must be finite"), (1, "response must be finite")],
    ),
    # The row is counted in records and the byte from the start of the file.
    "not-utf-8": (
        NOT_UTF8_HEAD + "\udcff\n3,0,0.4,0.1\n",
        [(1501, f"{{path}}: byte {len(NOT_UTF8_HEAD)} is not UTF-8 (invalid start byte)")],
    ),
    "not-utf-8-after-a-byte-order-mark": (
        "\ufeff" + NOT_UTF8_HEAD + "\udcff\n3,0,0.4,0.1\n",
        [(1501, f"{{path}}: byte {len(NOT_UTF8_HEAD) + 3} is not UTF-8 (invalid start byte)")],
    ),
    # The whole file is decoded before its header is read, so a byte that
    # is not UTF-8 is named wherever it lies, here past a bad header.
    "not-utf-8-after-a-bad-header": (
        "y,delta,t,z1\n" + "0.5,1,0.5,0.2\n" * 1000 + "\udcff\n",
        [(1000, "{path}: byte 14013 is not UTF-8 (invalid start byte)")],
    ),
    "not-utf-8-in-header": (
        "y,delta,t,x\udce91\n1,1,0.5,0.2\n2,0,0.4,0.1\n",
        [(None, "{path}: byte 11 is not UTF-8 (invalid continuation byte)")],
    ),
}


@pytest.mark.filterwarnings("error")
class TestDatasetCsvContract:
    @pytest.mark.parametrize("case", sorted(ACCEPTED_CSV))
    def test_accepted(self, tmp_path, case):
        text, rows = ACCEPTED_CSV[case]
        ds = read_dataset_csv(csv_file(tmp_path, text))
        y, delta, t, x = zip(*rows)
        assert ds.y.tobytes() == np.array(y, dtype=float).tobytes()
        assert ds.delta.tobytes() == np.array(delta, dtype=int).tobytes()
        assert ds.t.tobytes() == np.array(t, dtype=float).tobytes()
        assert ds.x.tobytes() == np.array(x, dtype=float).tobytes()
        assert ds.x.shape == (len(rows), len(x[0]))

    @pytest.mark.parametrize("case", sorted(REJECTED_CSV))
    def test_rejected(self, tmp_path, case):
        text, problems = REJECTED_CSV[case]
        path = csv_file(tmp_path, text)
        with pytest.raises(ValidationError) as info:
            read_dataset_csv(path)
        assert info.value.problems == [(i, p.replace("{path}", str(path))) for i, p in problems]

    def test_empty_file(self, tmp_path):
        path = csv_file(tmp_path, "")
        with pytest.raises(ValidationError) as info:
            read_dataset_csv(path)
        assert info.value.problems == [(None, f"{path}: empty file")]

    def test_blank_line_found_at_any_offset_of_a_long_file(self, tmp_path):
        # The file is long enough to be read in pieces; the line ending
        # before the blank line ends at each offset around 2**16.
        head = "y,delta,t,x1\n" + "0.5,1,0.5,0.2\n" * 4600
        for end in range(2**16 - 4, 2**16 + 5):
            pad = "0" * (end - len(head) - len("0.5,1,0.5,0.2\n"))
            text = head + f"0.5{pad},1,0.5,0.2\n" + "\n" + "2,0,0.4,0.1\n" * 2
            assert len(text.split("\n\n")[0]) + 1 == end
            with pytest.raises(ValidationError) as info:
                read_dataset_csv(csv_file(tmp_path, text))
            assert info.value.problems == [(4601, "expected 4 fields, got 0")]


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("d", [1, 2, 5])
def test_written_csv_is_read_in_bulk(tmp_path, monkeypatch, d):
    monkeypatch.setattr(cli, "_scan_rows", no_scanner)
    preset = {"preset": "paper"} if d == 2 else {
        "preset": "constant",
        "constant_direction": (1.0,) * d,
    }
    dataset, _ = generate_dataset(SimConfig(n=300, d=d, reps=1, seed=46, **preset), 0)
    path = tmp_path / "ds.csv"
    write_dataset_csv(path, dataset)
    back = read_dataset_csv(path)
    assert back.delta.dtype == dataset.delta.dtype
    assert np.issubdtype(back.delta.dtype, np.integer)
    for name in ("y", "delta", "t", "x"):
        got, want = getattr(back, name), getattr(dataset, name)
        assert got.shape == want.shape
        assert got.tobytes() == want.tobytes()


THIRD = 1 / 3
TINY = 1e-300
NAN = float("nan")


@pytest.fixture(scope="module")
def golden_tables(tmp_path_factory):
    """Every table writer run on hand-built inputs holding -0.0, 1/3, 1e-300,
    NaN link points, a failed replication and integer flags and counts."""
    dataset = Dataset(
        y=[THIRD, -0.0, TINY],
        delta=[1, 0, 1],
        t=[0.0, THIRD, 1.0],
        x=[[-0.0, 1.0], [THIRD, TINY], [2.5, -7.0]],
    )
    fit = ModelFit(
        curves=CoefficientCurves(
            grid=[0.0, THIRD, 1.0],
            matrix=[[1.0, -0.0], [1.0, TINY], [0.6, 0.8]],
        ),
        link=LinkEstimate(u_grid=[-0.5, -0.0, TINY, THIRD], m_hat=[NAN, THIRD, -0.0, NAN]),
        synthetic=np.zeros(3),
        bandwidths=Bandwidths(1.0, 1.0, 1.0),
        diagnostics={},
    )
    # Three defined replications give each nearest-rank band its own
    # replication (q05, median, q95 are the 1st, 2nd and 3rd smallest);
    # replication 1 failed.
    summary = SimSummary(
        t_grid=np.array([0.0, 1.0]),
        u_grid=np.array([-0.5, THIRD]),
        censoring_rates=np.array([0.25, NAN]),
        failures=((1, "failed"),),
        failure_log=(),
        beta_reps=np.array(
            [
                [[1.0, -0.0], [THIRD, TINY]],
                [[NAN, NAN], [NAN, NAN]],
                [[0.5, -0.5], [0.25, -0.0]],
                [[1.5, 0.5], [0.5, 1.0]],
            ]
        ),
        m_reps=np.array([[THIRD, NAN], [NAN, NAN], [0.25, NAN], [0.5, NAN]]),
    )
    out = tmp_path_factory.mktemp("golden")
    write_dataset_csv(out / "data.csv", dataset)
    cli.write_curves_csv(out / "curves.csv", fit)
    cli.write_link_csv(out / "link.csv", fit)
    cli.write_summary_csv(out / "summary.csv", summary)
    cli.write_link_summary_csv(out / "link_summary.csv", summary)
    cli.write_raw_estimates_csv(out / "raw_curves.csv", out / "raw_link.csv", summary)
    return out


# Floats carry 17 significant digits, flags and counts are integers, and
# the raw tables run rep by rep.
GOLDEN_TABLES = {
    "data.csv": [
        "y,delta,t,x1,x2",
        "0.33333333333333331,1,0,-0,1",
        "-0,0,0.33333333333333331,0.33333333333333331,1e-300",
        "1e-300,1,1,2.5,-7",
    ],
    "curves.csv": [
        "t0,beta_1,beta_2",
        "0,1,-0",
        "0.33333333333333331,1,1e-300",
        "1,0.59999999999999998,0.80000000000000004",
    ],
    "link.csv": [
        "u,m_hat,defined",
        "-0.5,nan,0",
        "-0,0.33333333333333331,1",
        "1e-300,-0,1",
        "0.33333333333333331,nan,0",
    ],
    "summary.csv": [
        "t0,beta_1_median,beta_1_q05,beta_1_q95,beta_2_median,beta_2_q05,beta_2_q95",
        "0,1,0.5,1.5,-0,-0.5,0.5",
        "1,0.33333333333333331,0.25,0.5,1e-300,-0,1",
    ],
    "link_summary.csv": [
        "u,m_median,m_q05,m_q95,defined_count",
        "-0.5,0.33333333333333331,0.25,0.5,3",
        "0.33333333333333331,nan,nan,nan,0",
    ],
    "raw_curves.csv": [
        "rep,t0,beta_1,beta_2",
        "0,0,1,-0",
        "0,1,0.33333333333333331,1e-300",
        "1,0,nan,nan",
        "1,1,nan,nan",
        "2,0,0.5,-0.5",
        "2,1,0.25,-0",
        "3,0,1.5,0.5",
        "3,1,0.5,1",
    ],
    "raw_link.csv": [
        "rep,u,m_hat,defined",
        "0,-0.5,0.33333333333333331,1",
        "0,0.33333333333333331,nan,0",
        "1,-0.5,nan,0",
        "1,0.33333333333333331,nan,0",
        "2,-0.5,0.25,1",
        "2,0.33333333333333331,nan,0",
        "3,-0.5,0.5,1",
        "3,0.33333333333333331,nan,0",
    ],
}


@pytest.mark.parametrize("name", GOLDEN_TABLES)
def test_table_bytes(golden_tables, name):
    expected = "".join(line + "\r\n" for line in GOLDEN_TABLES[name])
    assert (golden_tables / name).read_bytes() == expected.encode("utf-8")

