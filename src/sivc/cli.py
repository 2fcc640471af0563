"""Command-line interface.

Three commands: ``fit`` (estimate from a CSV file), ``simulate`` (run the
Monte Carlo study from a JSON config), and ``reproduce-figures`` (run the
same study on the quadratic-link preset with the default fit). Both study
commands write the same files: band summaries, per-replication
estimates and the two SVG figures. Numbers are serialized with 17
significant digits so identical runs produce byte-identical outputs.

Exit codes: 0 success, 2 validation error, 3 I/O error, 4 estimation
failure.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import dataclasses
import io
import itertools
import json
import math
import sys
import time
from pathlib import Path
from typing import Optional

import numpy as np

from . import __version__
from .errors import SivcError, ValidationError
from .estimator import Bandwidths, FitConfig, ModelFit, fit_model
from .model import Dataset, censoring_rate
from .simulate import SimConfig, SimSummary, run_monte_carlo
from .svgplot import Panel, render_figure

__all__ = ["cmd_fit", "cmd_simulate", "cmd_reproduce_figures", "main"]

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_IO = 3
EXIT_ESTIMATION = 4

# ---------------------------------------------------------------------------
# config file handling


def _require_keys(
    section: dict, allowed: set[str], where: str, required: bool = False
) -> None:
    """Reject a section that is not a JSON object or has keys outside
    ``allowed``; with ``required``, also one that lacks any of them."""
    if not isinstance(section, dict):
        raise ValidationError(
            [(None, f"{where} config must be a JSON object (got {json.dumps(section)})")]
        )
    unknown = set(section) - allowed
    if unknown:
        raise ValidationError(
            [(None, f"unknown {where} config keys: {sorted(unknown)}")]
        )
    missing = allowed - set(section) if required else set()
    if missing:
        raise ValidationError(
            [(None, f"{where} config is missing keys: {sorted(missing)}")]
        )


@contextlib.contextmanager
def _typed_values(where: str):
    """Turn a ``ValueError`` or ``TypeError`` raised by a constructor into
    a validation error naming the config section."""
    try:
        yield
    except (TypeError, ValueError) as exc:
        raise ValidationError([(None, f"{where} config: {exc}")]) from exc


def _fields(cls) -> set[str]:
    """The keys a config section for the dataclass ``cls`` may hold."""
    return {f.name for f in dataclasses.fields(cls)}


def parse_fit_config(section: dict) -> FitConfig:
    _require_keys(section, _fields(FitConfig), "fit")
    kwargs = dict(section)
    with _typed_values("fit"):
        bw = kwargs.get("bandwidths", "auto")
        if bw != "auto":
            _require_keys(bw, _fields(Bandwidths), "bandwidths", required=True)
            kwargs["bandwidths"] = Bandwidths(**bw)
        return FitConfig(**kwargs)


def parse_sim_config(section: dict) -> SimConfig:
    _require_keys(section, _fields(SimConfig), "sim")
    with _typed_values("sim"):
        return SimConfig(**section)


def load_config(path: Path) -> dict:
    path = Path(path)

    def unique_keys(pairs: list) -> dict:
        # Left to itself, json.loads keeps the last of two equal keys.
        doc = {}
        for key, value in pairs:
            if key in doc:
                raise ValidationError([(None, f"config {path}: duplicate key {key!r}")])
            doc[key] = value
        return doc

    try:
        text = path.read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        # The whole file is decoded at once, so the offset is the file's.
        raise ValidationError([(None, f"config {path}: {_not_utf8(exc)}")]) from None
    try:
        # A leading byte order mark is skipped. Decoding as utf-8-sig would
        # count the offset of a bad byte after it, not from the file's start.
        doc = json.loads(text.removeprefix("\ufeff"), object_pairs_hook=unique_keys)
    except json.JSONDecodeError as exc:
        raise ValidationError([(None, f"config {path}: invalid JSON ({exc})")])
    except ValueError as exc:
        # An integer too long for int() to convert.
        raise ValidationError([(None, f"config {path}: unreadable number ({exc})")]) from None
    if not isinstance(doc, dict):
        raise ValidationError([(None, f"config {path}: expected a JSON object")])
    _require_keys(doc, {"sim", "fit"}, "top-level")
    return doc


# ---------------------------------------------------------------------------
# CSV I/O


# Field delta must be spelled exactly 0 or 1 for the bulk parse; any
# other spelling raises there and is left to the row scanner.
_DELTA = {"0": 0.0, "1": 1.0}.__getitem__

# numpy strips these ASCII information separators around a number as
# whitespace; float() does not.
_SEPARATORS = "\x1c\x1d\x1e\x1f"


def _dataset_header(d: int) -> list[str]:
    return ["y", "delta", "t"] + [f"x{j}" for j in range(1, d + 1)]


def read_dataset_csv(path: Path) -> Dataset:
    """Parse the fixed schema ``y,delta,t,x1,...,xd`` (strict, no coercion).

    The data rows are parsed in bulk by numpy. A file the bulk parse refuses
    goes to the row scanner, which reads it once, decides what is accepted
    and names every offending row. A leading UTF-8 byte order mark is skipped.
    """
    path = Path(path)
    rows = _bulk_rows(path)
    if rows is None:
        rows = _scan_rows(path)
    return Dataset(y=rows[:, 0], delta=rows[:, 1], t=rows[:, 2], x=rows[:, 3:])


def _bulk_rows(path: Path) -> Optional[np.ndarray]:
    """The data rows of ``path`` as one float array, or None wherever
    numpy's parse could differ from the row scanner's.

    The file is read with universal newlines, so CRLF and lone-CR line
    endings both arrive as line feeds. It is refused here if a line is blank
    (``loadtxt`` skips those) or holds an information separator; numpy
    refuses quotes, ``_`` in numbers, ``#``, a field count unlike the
    header's and a delta not spelled ``0`` or ``1``. On every field it
    accepts, numpy's parse gives the bits ``float()`` gives.
    """
    try:
        with path.open(encoding="utf-8-sig") as handle:
            tail = ""
            while chunk := handle.read(1 << 16):
                if "\n\n" in tail + chunk or any(c in chunk for c in _SEPARATORS):
                    return None
                tail = chunk[-1]
            handle.seek(0)
            header = handle.readline().rstrip("\n").split(",")
            first = handle.readline()
            d = len(header) - 3
            if d < 1 or header != _dataset_header(d) or not first:
                return None
            rows = np.loadtxt(
                itertools.chain([first], handle),
                delimiter=",",
                comments=None,
                ndmin=2,
                converters={1: _DELTA},
            )
    except ValueError:
        return None
    return rows if rows.shape[1] == len(header) else None


def _scan_rows(path: Path) -> np.ndarray:
    """Row-by-row reader: the authority on what the CSV contract accepts.

    The file is read and decoded once, so a byte that is not UTF-8 is
    named by its offset in the file, a byte order mark counted, and by
    the data row that holds it, numbered as ``_records`` numbers them.
    Returns the data rows as ``_bulk_rows`` does, one float array."""
    raw = path.read_bytes()
    try:
        text = raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        # The records of the text before the bad byte, the header first;
        # one more character ends the record holding the byte, cut off or
        # not yet begun there.
        before = io.StringIO(raw[: exc.start].decode("utf-8") + "?", newline="")
        unsplit = []
        row = sum(1 for _ in _records(csv.reader(before), unsplit)) - 2
        # A record the csv module cannot split ends the count: no row then.
        row = row if row >= 0 and not unsplit else None
        raise ValidationError([(row, f"{path}: {_not_utf8(exc)}")]) from None
    reader = csv.reader(io.StringIO(text.removeprefix("\ufeff"), newline=""))
    try:
        header = next(reader)
    except StopIteration:
        raise ValidationError([(None, f"{path}: empty file")])
    except csv.Error as exc:
        raise ValidationError([(None, f"{path}: unreadable header ({exc})")]) from None
    d = len(header) - 3
    if d < 1 or header != _dataset_header(d):
        raise ValidationError(
            [(None, f"{path}: header must be y,delta,t,x1,...,xd (got {header})")]
        )
    rows = []
    problems = []
    for i, record in _records(reader, problems):
        if len(record) != len(header):
            problems.append((i, f"expected {len(header)} fields, got {len(record)}"))
            continue
        try:
            y = float(record[0])
            delta = record[1].strip()
            if delta not in ("0", "1"):
                problems.append((i, f"delta must be 0 or 1 (got {record[1]!r})"))
                continue
            rows.append([y, float(delta), *map(float, record[2:])])
        except ValueError:
            problems.append((i, f"non-numeric field in {record!r}"))
    if problems:
        raise ValidationError(problems)
    return np.array(rows, dtype=float).reshape(-1, len(header))


def _not_utf8(exc: UnicodeDecodeError) -> str:
    return f"byte {exc.start} is not UTF-8 ({exc.reason})"


def _records(reader, problems: list):
    """Number the data records of ``reader``. A record it cannot split, such
    as one with a field over the csv module's size limit, is added to
    ``problems`` and ends the file: the reader cannot resume after it."""
    for i in itertools.count():
        try:
            record = next(reader)
        except StopIteration:
            return
        except csv.Error as exc:
            problems.append((i, f"unreadable record ({exc})"))
            return
        yield i, record


_BLOCK_ROWS = 1024


def _write_table(path: Path, header: list[str], columns) -> None:
    """Write one CSV table: a header row, then one row per entry of the
    equal-length 1-D arrays ``columns``, each row ending in CRLF.

    The only place a cell is formatted: a float with 17 significant digits,
    so identical runs give identical bytes, and an integer or a boolean as
    an integer. No cell needs CSV quoting. The rows are formatted and
    written ``_BLOCK_ROWS`` at a time, so no table is held in memory at once.
    """
    n = len(columns[0])
    if any(len(col) != n for col in columns):
        raise ValueError(f"{path}: columns of unequal lengths {[len(col) for col in columns]}")
    row = ",".join("%d" if col.dtype.kind in "biu" else "%.17g" for col in columns) + "\r\n"
    with Path(path).open("w", newline="", encoding="utf-8") as handle:
        handle.write(",".join(header) + "\r\n")
        for k in range(0, n, _BLOCK_ROWS):
            block = [col[k : k + _BLOCK_ROWS].tolist() for col in columns]
            handle.write(row * len(block[0]) % tuple(itertools.chain.from_iterable(zip(*block))))


def write_dataset_csv(path: Path, dataset: Dataset) -> None:
    _write_table(
        path,
        _dataset_header(dataset.d),
        [dataset.y, dataset.delta, dataset.t, *dataset.x.T],
    )


def write_curves_csv(path: Path, fit: ModelFit) -> None:
    matrix = fit.curves.matrix
    _write_table(
        path,
        ["t0"] + [f"beta_{j}" for j in range(1, matrix.shape[1] + 1)],
        [fit.curves.grid, *matrix.T],
    )


def write_link_csv(path: Path, fit: ModelFit) -> None:
    link = fit.link
    _write_table(
        path, ["u", "m_hat", "defined"], [link.u_grid, link.m_hat, ~np.isnan(link.m_hat)]
    )


def write_summary_csv(path: Path, summary: SimSummary) -> None:
    d = summary.beta_median.shape[1]
    bands = np.stack((summary.beta_median, summary.beta_q05, summary.beta_q95), axis=2)
    _write_table(
        path,
        ["t0"] + [f"beta_{j}_{b}" for j in range(1, d + 1) for b in ("median", "q05", "q95")],
        [summary.t_grid, *bands.reshape(-1, 3 * d).T],
    )


def write_link_summary_csv(path: Path, summary: SimSummary) -> None:
    _write_table(
        path,
        ["u", "m_median", "m_q05", "m_q95", "defined_count"],
        [summary.u_grid, summary.m_median, summary.m_q05, summary.m_q95, summary.m_defined_counts],
    )


def write_raw_estimates_csv(
    curves_path: Path, link_path: Path, summary: SimSummary
) -> None:
    """Write every replication's curves and link, rep by rep."""
    reps, grid, d = summary.beta_reps.shape
    _write_table(
        curves_path,
        ["rep", "t0"] + [f"beta_{j}" for j in range(1, d + 1)],
        [
            np.repeat(np.arange(reps), grid),
            np.tile(summary.t_grid, reps),
            *summary.beta_reps.reshape(reps * grid, d).T,
        ],
    )
    m = summary.m_reps.ravel()
    _write_table(
        link_path,
        ["rep", "u", "m_hat", "defined"],
        [
            np.repeat(np.arange(reps), summary.u_grid.size),
            np.tile(summary.u_grid, reps),
            m,
            np.isfinite(m),
        ],
    )


def _write_json(path: Path, doc: dict) -> None:
    """The one JSON writer: strict (no NaN or infinity), indented by 2, newline-ended."""
    path.write_text(json.dumps(doc, indent=2, allow_nan=False) + "\n", encoding="utf-8")


# ---------------------------------------------------------------------------
# commands


def _write_manifest(
    out_dir: Path,
    command: str,
    fit: FitConfig,
    sim: Optional[SimConfig],
    outputs: list[str],
    started: float,
) -> list[str]:
    """Write ``manifest.json``, the record of one run: its command, its
    configs (``fit``, then ``sim`` if the run had one), the seed of ``sim``,
    versions, outputs and wall time. Returns the names of the files the run
    wrote, ``manifest.json`` last; ``OSError`` if one is missing."""
    outputs = outputs + ["manifest.json"]
    config = {"fit": dataclasses.asdict(fit)}
    if sim is not None:
        config["sim"] = dataclasses.asdict(sim)
    manifest = {
        "command": command,
        "config": config,
        "seed": None if sim is None else sim.seed,
        "versions": {
            "sivc": __version__,
            "numpy": np.__version__,
            "python": ".".join(str(v) for v in sys.version_info[:3]),
        },
        "outputs": outputs,
        "duration_seconds": time.monotonic() - started,
    }
    _write_json(out_dir / "manifest.json", manifest)
    missing = [name for name in outputs if not (out_dir / name).exists()]
    if missing:
        raise OSError(f"promised outputs missing after run: {missing}")
    return outputs


def _run_study(
    command: str, sim: SimConfig, fit: FitConfig, out_dir: Path, started: float
) -> list[str]:
    """Run the Monte Carlo study and write its band summaries, every
    replication's estimates, both figures and the manifest. The figures are
    drawn before any file is written, so a study whose figure cannot be
    drawn writes nothing. Warns on stderr when too many replications
    failed."""
    summary = run_monte_carlo(sim, fit)
    truth = sim.true_directions(summary.t_grid)
    figures = {
        "fig1.svg": [
            Panel(
                title=f"Coefficient curve {j + 1}",
                xlabel="t",
                ylabel=f"beta_{j + 1}(t)",
                x=summary.t_grid,
                median=summary.beta_median[:, j],
                band_lo=summary.beta_q05[:, j],
                band_hi=summary.beta_q95[:, j],
                truth=truth[:, j],
            )
            for j in range(summary.beta_median.shape[1])
        ],
        "fig2.svg": [
            Panel(
                title="Link function",
                xlabel="u",
                ylabel="m(u)",
                x=summary.u_grid,
                median=summary.m_median,
                band_lo=summary.m_q05,
                band_hi=summary.m_q95,
                truth=sim.true_link(summary.u_grid),
            )
        ],
    }
    svgs = {name: render_figure(panels) for name, panels in figures.items()}
    out_dir.mkdir(parents=True, exist_ok=True)
    write_summary_csv(out_dir / "summary.csv", summary)
    write_link_summary_csv(out_dir / "link_summary.csv", summary)
    write_raw_estimates_csv(out_dir / "raw_curves.csv", out_dir / "raw_link.csv", summary)
    for name, svg in svgs.items():
        (out_dir / name).write_text(svg, encoding="utf-8")
    if summary.degraded:
        print(
            f"warning: {len(summary.failures)} of {sim.reps} replications "
            "failed; summary is degraded",
            file=sys.stderr,
        )
    outputs = ["summary.csv", "link_summary.csv", "raw_curves.csv", "raw_link.csv", *svgs]
    return _write_manifest(out_dir, command, fit, sim, outputs, started)


def cmd_fit(data_path: Path, config_path: Path, out_dir: Path) -> list[str]:
    """Fit the model to a CSV file and write curves, link, diagnostics."""
    started = time.monotonic()
    doc = load_config(config_path)
    fit_config = parse_fit_config(doc.get("fit", {}))
    dataset = read_dataset_csv(data_path)
    fit = fit_model(dataset, fit_config)
    out_dir.mkdir(parents=True, exist_ok=True)
    write_curves_csv(out_dir / "curves.csv", fit)
    write_link_csv(out_dir / "link.csv", fit)
    diagnostics = {
        "n": dataset.n,
        "d": dataset.d,
        "censoring_rate": censoring_rate(dataset),
        "bandwidths": dataclasses.asdict(fit.bandwidths),
        **fit.diagnostics,
        # An objective that overflowed is written as null, as d = 1's
        # unscored ones are, so the file stays strict JSON.
        "objectives": [
            v if v is not None and math.isfinite(v) else None
            for v in fit.diagnostics["objectives"]
        ],
    }
    _write_json(out_dir / "diagnostics.json", diagnostics)
    outputs = ["curves.csv", "link.csv", "diagnostics.json"]
    return _write_manifest(out_dir, "fit", fit_config, None, outputs, started)


def cmd_simulate(config_path: Path, out_dir: Path) -> list[str]:
    """Run the Monte Carlo study of a JSON config."""
    started = time.monotonic()
    doc = load_config(config_path)
    sim_config = parse_sim_config(doc.get("sim", {}))
    fit_config = parse_fit_config(doc.get("fit", {}))
    return _run_study("simulate", sim_config, fit_config, out_dir, started)


def cmd_reproduce_figures(out_dir: Path, reps: int, seed: int) -> list[str]:
    """Run the study of the quadratic-link preset with the default fit."""
    started = time.monotonic()
    sim_config = SimConfig(reps=reps, seed=seed)
    return _run_study("reproduce-figures", sim_config, FitConfig(), out_dir, started)


# ---------------------------------------------------------------------------
# entry point


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sivc",
        description=(
            "Censored single-index varying-coefficient estimation: "
            "fit CSV data, run Monte Carlo studies, reproduce figures."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_fit = sub.add_parser("fit", help="fit the model to a CSV data file")
    p_fit.add_argument("--data", required=True, type=Path, help="input CSV path")
    p_fit.add_argument("--config", required=True, type=Path, help="JSON config path")
    p_fit.add_argument("--out", required=True, type=Path, help="output directory")

    p_sim = sub.add_parser("simulate", help="run the Monte Carlo study")
    p_sim.add_argument("--config", required=True, type=Path, help="JSON config path")
    p_sim.add_argument("--out", required=True, type=Path, help="output directory")

    p_fig = sub.add_parser(
        "reproduce-figures", help="reproduce the two result figures"
    )
    p_fig.add_argument("--out", required=True, type=Path, help="output directory")
    p_fig.add_argument("--reps", type=int, default=SimConfig.reps, help="replication count")
    p_fig.add_argument("--seed", type=int, default=SimConfig.seed, help="master seed")
    return parser


def main(argv: Optional[list[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "fit":
            outputs = cmd_fit(args.data, args.config, args.out)
        elif args.command == "simulate":
            outputs = cmd_simulate(args.config, args.out)
        else:
            outputs = cmd_reproduce_figures(args.out, reps=args.reps, seed=args.seed)
    except (ValidationError, ValueError) as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO
    except SivcError as exc:
        print(f"estimation error: {exc}", file=sys.stderr)
        return EXIT_ESTIMATION
    for name in outputs:
        print(f"wrote {args.out / name}")
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
