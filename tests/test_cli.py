"""End-to-end tests for the command-line interface."""

import csv
import json
import xml.etree.ElementTree as ET

import numpy as np
import pytest

from sivc import SimConfig, generate_dataset
from sivc.cli import (
    EXIT_ESTIMATION,
    EXIT_IO,
    EXIT_OK,
    EXIT_VALIDATION,
    main,
    read_dataset_csv,
    write_dataset_csv,
)


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


def read_rows(path):
    with open(path, newline="", encoding="utf-8") as handle:
        return list(csv.DictReader(handle))


SMALL_SIM = {
    "sim": {"n": 120, "reps": 3, "seed": 11},
    "fit": {
        "t_grid_size": 5,
        "link_grid": [-0.5, 0.5, 21],
        "optimizer": {"restarts": 3, "max_iter": 100, "tol": 1e-8},
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

    def test_bad_delta_row_named(self, tmp_path, capsys):
        data = tmp_path / "bad.csv"
        data.write_text(
            "y,delta,t,x1\n1.0,1,0.5,0.2\n2.0,2,0.4,0.1\n0.5,0,0.3,0.9\n",
            encoding="utf-8",
        )
        config = write_config(tmp_path, {"fit": {}})
        code = main(
            ["fit", "--data", str(data), "--config", str(config), "--out", str(tmp_path / "o")]
        )
        assert code == EXIT_VALIDATION
        assert "row 1" in capsys.readouterr().err

    def test_wrong_header_rejected(self, tmp_path, capsys):
        data = tmp_path / "head.csv"
        data.write_text("a,b,c\n1,2,3\n", encoding="utf-8")
        config = write_config(tmp_path, {"fit": {}})
        code = main(
            ["fit", "--data", str(data), "--config", str(config), "--out", str(tmp_path / "o")]
        )
        assert code == EXIT_VALIDATION
        assert "header" in capsys.readouterr().err

    def test_estimation_failure_exit_code(self, tmp_path):
        dataset, _ = generate_dataset(SimConfig(n=20, reps=1, seed=2), 0)
        data = tmp_path / "tiny.csv"
        write_dataset_csv(data, dataset)
        config = write_config(
            tmp_path,
            {
                "fit": {
                    "t_grid_size": 3,
                    "bandwidths": {"h1": 1.0, "h2": 1e-9, "h_link": 1.0},
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

    def test_raw_flag_writes_per_replication_files(self, tmp_path):
        config = write_config(tmp_path, SMALL_SIM)
        out = tmp_path / "raw"
        assert main(
            ["simulate", "--config", str(config), "--out", str(out), "--raw"]
        ) == EXIT_OK
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
        for name in (
            "fig1.svg",
            "fig2.svg",
            "summary.csv",
            "link_summary.csv",
            "manifest.json",
        ):
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


class TestDatasetCsvRoundtrip:
    def test_exact_roundtrip(self, tmp_path):
        dataset, _ = generate_dataset(SimConfig(n=50, reps=1, seed=44), 0)
        path = tmp_path / "ds.csv"
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
