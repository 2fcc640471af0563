"""Command-line interface.

Three commands: ``fit`` (estimate from a CSV file), ``simulate`` (run the
Monte Carlo study from a JSON config), and ``reproduce-figures`` (run the
quadratic-link preset and emit the two SVG figures plus their CSV
tables). Numbers are serialized with 17 significant digits so identical
runs produce byte-identical outputs.

Exit codes: 0 success, 2 validation error, 3 I/O error, 4 estimation
failure.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import itertools
import json
import sys
import time
from pathlib import Path
from typing import Optional

import numpy as np
import scipy

from . import __version__
from .errors import SivcError, ValidationError
from .estimator import Bandwidths, FitConfig, ModelFit, OptimizerConfig, fit_model
from .model import Dataset, censoring_rate, validate_dataset
from .simulate import SimConfig, SimSummary, run_monte_carlo
from .smoothing import KernelSpec
from .svgplot import Panel, render_figure

__all__ = ["RunManifest", "cmd_fit", "cmd_simulate", "cmd_reproduce_figures", "main"]

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_IO = 3
EXIT_ESTIMATION = 4

_DEFAULT_FIGURE_SEED = 12345


@dataclasses.dataclass(frozen=True)
class RunManifest:
    """Record of one CLI run: inputs, outputs, versions, timing."""

    command: str
    config: dict
    seed: Optional[int]
    versions: dict
    outputs: tuple[str, ...]
    duration_seconds: float

    def to_dict(self) -> dict:
        return {
            "command": self.command,
            "config": self.config,
            "seed": self.seed,
            "versions": self.versions,
            "outputs": list(self.outputs),
            "duration_seconds": self.duration_seconds,
        }


def _versions() -> dict:
    return {
        "sivc": __version__,
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "python": ".".join(str(v) for v in sys.version_info[:3]),
    }


def _num(v: float) -> str:
    return f"{float(v):.17g}"


# ---------------------------------------------------------------------------
# config file handling


def _require_keys(section: dict, allowed: set[str], where: str) -> None:
    unknown = set(section) - allowed
    if unknown:
        raise ValidationError(
            [(None, f"unknown {where} config keys: {sorted(unknown)}")]
        )


def parse_fit_config(section: dict) -> FitConfig:
    _require_keys(
        section,
        {"t_grid_size", "link_grid", "bandwidths", "kernel", "optimizer"},
        "fit",
    )
    kwargs = {}
    if "t_grid_size" in section:
        kwargs["t_grid_size"] = int(section["t_grid_size"])
    if "link_grid" in section:
        lo, hi, count = section["link_grid"]
        kwargs["link_grid"] = (float(lo), float(hi), int(count))
    bw = section.get("bandwidths", "auto")
    if bw != "auto":
        _require_keys(bw, {"h1", "h2", "h_link"}, "bandwidths")
        bw = Bandwidths(
            h1=float(bw["h1"]), h2=float(bw["h2"]), h_link=float(bw["h_link"])
        )
    kwargs["bandwidths"] = bw
    if "kernel" in section:
        kwargs["kernel"] = KernelSpec(section["kernel"])
    if "optimizer" in section:
        opt = section["optimizer"]
        _require_keys(opt, {"restarts", "max_iter", "tol"}, "optimizer")
        kwargs["optimizer"] = OptimizerConfig(
            restarts=int(opt.get("restarts", 4)),
            max_iter=int(opt.get("max_iter", 150)),
            tol=float(opt.get("tol", 1e-8)),
        )
    return FitConfig(**kwargs)


def parse_sim_config(section: dict) -> SimConfig:
    _require_keys(
        section,
        {
            "n",
            "d",
            "reps",
            "censor_target",
            "noise_sd",
            "seed",
            "preset",
            "constant_direction",
        },
        "sim",
    )
    kwargs = dict(section)
    if "constant_direction" in kwargs and kwargs["constant_direction"] is not None:
        kwargs["constant_direction"] = tuple(
            float(v) for v in kwargs["constant_direction"]
        )
    return SimConfig(**kwargs)


def load_config(path: Path) -> dict:
    path = Path(path)
    text = path.read_text(encoding="utf-8")
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValidationError([(None, f"config {path}: invalid JSON ({exc})")])
    if not isinstance(doc, dict):
        raise ValidationError([(None, f"config {path}: expected a JSON object")])
    _require_keys(doc, {"sim", "fit"}, "top-level")
    return doc


def _config_echo(sim: Optional[SimConfig], fit: FitConfig) -> dict:
    def jsonable(obj):
        if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
            return {
                k: jsonable(v) for k, v in dataclasses.asdict(obj).items()
            }
        if isinstance(obj, (tuple, list)):
            return [jsonable(v) for v in obj]
        if isinstance(obj, np.ndarray):
            return [jsonable(v) for v in obj.tolist()]
        if isinstance(obj, (np.floating, np.integer)):
            return obj.item()
        return obj

    echo: dict = {"fit": jsonable(fit)}
    if sim is not None:
        echo["sim"] = jsonable(sim)
    return echo


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
    goes through the row scanner, which decides what is accepted and
    names every offending row.
    """
    path = Path(path)
    rows = _bulk_rows(path)
    if rows is None:
        return _scan_rows(path)
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
        with path.open(encoding="utf-8") as handle:
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


def _scan_rows(path: Path) -> Dataset:
    """Row-by-row reader: the authority on what the CSV contract accepts."""
    with path.open(newline="", encoding="utf-8") as handle:
        reader = csv.reader(handle)
        try:
            header = next(reader)
        except StopIteration:
            raise ValidationError([(None, f"{path}: empty file")])
        d = len(header) - 3
        if d < 1 or header != _dataset_header(d):
            raise ValidationError(
                [(None, f"{path}: header must be y,delta,t,x1,...,xd (got {header})")]
            )
        rows = []
        problems = []
        for i, record in enumerate(reader):
            if len(record) != len(header):
                problems.append((i, f"expected {len(header)} fields, got {len(record)}"))
                continue
            try:
                y = float(record[0])
                delta_raw = record[1].strip()
                if delta_raw not in ("0", "1"):
                    problems.append((i, f"delta must be 0 or 1 (got {record[1]!r})"))
                    continue
                delta = int(delta_raw)
                t = float(record[2])
                x = tuple(float(v) for v in record[3:])
            except ValueError:
                problems.append((i, f"non-numeric field in {record!r}"))
                continue
            rows.append((y, delta, x, t))
        if problems:
            raise ValidationError(problems)
    return validate_dataset(rows)


def _write_table(path: Path, header: list[str], rows) -> None:
    """Write one CSV table: a header row, then every row of ``rows``."""
    with Path(path).open("w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(header)
        writer.writerows(rows)


def write_dataset_csv(path: Path, dataset: Dataset) -> None:
    _write_table(
        path,
        _dataset_header(dataset.d),
        (
            [_num(dataset.y[i]), str(int(dataset.delta[i])), _num(dataset.t[i])]
            + [_num(v) for v in dataset.x[i]]
            for i in range(dataset.n)
        ),
    )


def write_curves_csv(path: Path, fit: ModelFit) -> None:
    matrix = fit.curves.matrix
    _write_table(
        path,
        ["t0"] + [f"beta_{j}" for j in range(1, matrix.shape[1] + 1)],
        ([_num(t0)] + [_num(v) for v in matrix[k]] for k, t0 in enumerate(fit.curves.grid)),
    )


def write_link_csv(path: Path, fit: ModelFit) -> None:
    link = fit.link
    _write_table(
        path,
        ["u", "m_hat", "defined"],
        (
            [_num(u), _num(link.m_hat[k]), "1" if link.defined[k] else "0"]
            for k, u in enumerate(link.u_grid)
        ),
    )


def write_summary_csv(path: Path, summary: SimSummary) -> None:
    d = summary.beta_median.shape[1]
    header = ["t0"]
    for j in range(1, d + 1):
        header += [f"beta_{j}_median", f"beta_{j}_q05", f"beta_{j}_q95"]
    bands = (summary.beta_median, summary.beta_q05, summary.beta_q95)
    _write_table(
        path,
        header,
        (
            [_num(t0)] + [_num(band[k, j]) for j in range(d) for band in bands]
            for k, t0 in enumerate(summary.t_grid)
        ),
    )


def write_link_summary_csv(path: Path, summary: SimSummary) -> None:
    _write_table(
        path,
        ["u", "m_median", "m_q05", "m_q95", "defined_count"],
        (
            [
                _num(u),
                _num(summary.m_median[k]),
                _num(summary.m_q05[k]),
                _num(summary.m_q95[k]),
                str(int(summary.m_defined_counts[k])),
            ]
            for k, u in enumerate(summary.u_grid)
        ),
    )


def write_raw_estimates_csv(
    curves_path: Path, link_path: Path, summary: SimSummary
) -> None:
    reps, grid, d = summary.beta_reps.shape
    _write_table(
        curves_path,
        ["rep", "t0"] + [f"beta_{j}" for j in range(1, d + 1)],
        (
            [str(r), _num(summary.t_grid[k])] + [_num(v) for v in summary.beta_reps[r, k]]
            for r in range(reps)
            for k in range(grid)
        ),
    )
    _write_table(
        link_path,
        ["rep", "u", "m_hat", "defined"],
        (
            [str(r), _num(u), _num(v), "1" if np.isfinite(v) else "0"]
            for r in range(reps)
            for u, v in zip(summary.u_grid, summary.m_reps[r])
        ),
    )


# ---------------------------------------------------------------------------
# commands


def _finish_manifest(
    command: str,
    config_echo: dict,
    seed: Optional[int],
    out_dir: Path,
    outputs: list[str],
    started: float,
) -> RunManifest:
    manifest = RunManifest(
        command=command,
        config=config_echo,
        seed=seed,
        versions=_versions(),
        outputs=tuple(outputs + ["manifest.json"]),
        duration_seconds=time.monotonic() - started,
    )
    (out_dir / "manifest.json").write_text(
        json.dumps(manifest.to_dict(), indent=2) + "\n", encoding="utf-8"
    )
    missing = [name for name in manifest.outputs if not (out_dir / name).exists()]
    if missing:
        raise OSError(f"promised outputs missing after run: {missing}")
    return manifest


def cmd_fit(data_path: Path, config_path: Path, out_dir: Path) -> RunManifest:
    """Fit the model to a CSV file and write curves, link, diagnostics."""
    started = time.monotonic()
    out_dir = Path(out_dir)
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
        "bandwidths": {
            "h1": fit.bandwidths.h1,
            "h2": fit.bandwidths.h2,
            "h_link": fit.bandwidths.h_link,
        },
        **fit.diagnostics,
    }
    (out_dir / "diagnostics.json").write_text(
        json.dumps(diagnostics, indent=2) + "\n", encoding="utf-8"
    )
    return _finish_manifest(
        "fit",
        _config_echo(None, fit_config),
        None,
        out_dir,
        ["curves.csv", "link.csv", "diagnostics.json"],
        started,
    )


def cmd_simulate(
    config_path: Path, out_dir: Path, raw: bool = False
) -> RunManifest:
    """Run the Monte Carlo study and write the band summaries."""
    started = time.monotonic()
    out_dir = Path(out_dir)
    doc = load_config(config_path)
    sim_config = parse_sim_config(doc.get("sim", {}))
    fit_config = parse_fit_config(doc.get("fit", {}))
    summary = run_monte_carlo(sim_config, fit_config)
    out_dir.mkdir(parents=True, exist_ok=True)
    write_summary_csv(out_dir / "summary.csv", summary)
    write_link_summary_csv(out_dir / "link_summary.csv", summary)
    outputs = ["summary.csv", "link_summary.csv"]
    if raw:
        write_raw_estimates_csv(
            out_dir / "raw_curves.csv", out_dir / "raw_link.csv", summary
        )
        outputs += ["raw_curves.csv", "raw_link.csv"]
    if summary.degraded:
        print(
            f"warning: {len(summary.failures)} of {sim_config.reps} replications "
            "failed; summary is degraded",
            file=sys.stderr,
        )
    return _finish_manifest(
        "simulate",
        _config_echo(sim_config, fit_config),
        sim_config.seed,
        out_dir,
        outputs,
        started,
    )


def cmd_reproduce_figures(
    out_dir: Path, reps: int = 100, seed: int = _DEFAULT_FIGURE_SEED
) -> RunManifest:
    """Run the quadratic-link preset and render both figures as SVG."""
    started = time.monotonic()
    out_dir = Path(out_dir)
    sim_config = SimConfig(reps=reps, seed=seed)
    fit_config = FitConfig()
    summary = run_monte_carlo(sim_config, fit_config)
    out_dir.mkdir(parents=True, exist_ok=True)
    write_summary_csv(out_dir / "summary.csv", summary)
    write_link_summary_csv(out_dir / "link_summary.csv", summary)

    truth = sim_config.true_directions(summary.t_grid)
    fig1 = render_figure(
        [
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
        ]
    )
    (out_dir / "fig1.svg").write_text(fig1, encoding="utf-8")
    fig2 = render_figure(
        [
            Panel(
                title="Link function",
                xlabel="u",
                ylabel="m(u)",
                x=summary.u_grid,
                median=summary.m_median,
                band_lo=summary.m_q05,
                band_hi=summary.m_q95,
                truth=sim_config.true_link(summary.u_grid),
            )
        ]
    )
    (out_dir / "fig2.svg").write_text(fig2, encoding="utf-8")
    return _finish_manifest(
        "reproduce-figures",
        _config_echo(sim_config, fit_config),
        seed,
        out_dir,
        ["summary.csv", "link_summary.csv", "fig1.svg", "fig2.svg"],
        started,
    )


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
    p_sim.add_argument(
        "--raw", action="store_true", help="also write per-replication estimates"
    )

    p_fig = sub.add_parser(
        "reproduce-figures", help="reproduce the two result figures"
    )
    p_fig.add_argument("--out", required=True, type=Path, help="output directory")
    p_fig.add_argument("--reps", type=int, default=100, help="replication count")
    p_fig.add_argument(
        "--seed", type=int, default=_DEFAULT_FIGURE_SEED, help="master seed"
    )
    return parser


def main(argv: Optional[list[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "fit":
            manifest = cmd_fit(args.data, args.config, args.out)
        elif args.command == "simulate":
            manifest = cmd_simulate(args.config, args.out, raw=args.raw)
        else:
            manifest = cmd_reproduce_figures(args.out, reps=args.reps, seed=args.seed)
    except ValidationError as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except ValueError as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO
    except SivcError as exc:
        print(f"estimation error: {exc}", file=sys.stderr)
        return EXIT_ESTIMATION
    for name in manifest.outputs:
        print(f"wrote {args.out / name}")
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
