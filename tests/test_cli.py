"""End-to-end tests for the command-line interface."""

import csv
import json
import xml.etree.ElementTree as ET

import numpy as np
import pytest

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


def csv_file(tmp_path, text):
    path = tmp_path / "in.csv"
    path.write_bytes(text.encode("utf-8"))
    return path


# The reader's contract: each accepted file with the rows it must give,
# as (y, delta, t, x) with x a tuple, and each rejected file with the
# exact problems list of its ValidationError.
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
    "signed-zero-17-digits-subnormal": (
        "y,delta,t,x1,x2\n-0.0,1,0.30000000000000004,5e-324,-1E+300\n"
        "-2.5,1,1,0,1.7976931348623157e308\n",
        [
            (-0.0, 1, 0.30000000000000004, (5e-324, -1e300)),
            (-2.5, 1, 1.0, (0.0, 1.7976931348623157e308)),
        ],
    ),
}

REJECTED_CSV = {
    "header-only": (
        "y,delta,t,x1\n",
        [
            (None, "dataset needs at least 2 rows (got 0)"),
            (None, "column arrays must share the same row count"),
        ],
    ),
    "one-data-row": (
        "y,delta,t,x1\n1.5,1,0.5,0.2\n",
        [(None, "dataset needs at least 2 rows (got 1)")],
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
    "nan-and-inf-response": (
        "y,delta,t,x1\nnan,1,0.5,0.2\n-inf,0,0.4,0.1\n3,0,0.4,0.1\n",
        [(0, "response must be finite"), (1, "response must be finite")],
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
        with pytest.raises(ValidationError) as info:
            read_dataset_csv(csv_file(tmp_path, text))
        assert info.value.problems == problems

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
    def no_scanner(path):
        raise AssertionError(f"row scanner used on {path}")

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
