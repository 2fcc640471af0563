#!/usr/bin/env python3
"""Benchmark of the sivc estimator: three closed-loop workloads.

Run from the repository root:

    python3 perfbench/run.py --workload fit_paper_n2000 --seed 1 --seconds 20 --trace 0

Each workload drives the ``sivc`` command line in-process, one call at a
time (a closed loop with one client): the next fit or study starts only
after the previous one returned. The loop makes whole passes over its
inputs, so every input weighs the same. Inputs are generated from ``--seed``,
plus a fixed set of reference inputs; the program receives only the
generated CSV files (or the study seed).

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` re-runs the
same calls with spans recorded around the public functions of every
``sivc`` module and prints the per-layer metrics and the tracing
overhead. Metric names and units come from ``BENCHMARK.json``. The last
line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``. Details (quartiles, sample
counts, environment, output fingerprints, layer self times) go to
``perfbench/out/``; spans of a traced run go to a JSON-lines file next
to them. ``--smoke`` shrinks every workload for a quick check of the
harness itself.
"""

from __future__ import annotations

import os

# Pinned before numpy loads: pool workers x BLAS threads must not exceed
# the cores, and one BLAS thread keeps serial timings comparable.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import contextlib
import csv
import dataclasses
import hashlib
import io
import json
import math
import platform
import re
import resource
import shutil
import statistics
import subprocess
import sys
import time
import xml.etree.ElementTree as ET
from pathlib import Path
from typing import Optional

import spans

ROOT = Path(__file__).resolve().parent.parent
BENCH = Path(__file__).resolve().parent
OUT = BENCH / "out"

# The acceptance suite's master seed. Accuracy and convergence are
# graded on reference inputs made from it, so those metrics repeat
# exactly whatever ``--seed`` is, and the byte fingerprint of their
# outputs can be compared with the seed commit's.
REFERENCE_SEED = 1729
# Never used while the benchmark or a change is tuned: a later speed
# claim must also hold with ``--seed 8191``.
HELD_OUT_SEED = 8191

SETUP_REPEATS = 3
OBJECTIVE_BUDGET_S = 0.5
INTERIOR = (0.05, 0.95)
LINK_RANGE = 0.4
UNIT_NORM_TOL = 1e-9


@dataclasses.dataclass(frozen=True)
class Workload:
    name: str
    kind: str  # "study" (sivc reproduce-figures) or "fit" (sivc fit)
    sim: dict  # SimConfig fields besides the seed
    refs: int  # reference inputs, graded for accuracy
    inputs: int  # inputs made from --seed
    beta_tol: float  # gate on the reference beta_max_err
    reps: int = 0  # replications per study


WORKLOADS = {
    w.name: w
    for w in (
        # The acceptance suite's interior-error bound for a 20-rep study.
        Workload("study_paper_n500", "study", {}, refs=1, inputs=1, beta_tol=0.2, reps=20),
        # Single fits, not a median band: the worst interior error seen
        # over six seeds was 0.096-0.223.
        Workload("fit_paper_n2000", "fit", {"n": 2000}, refs=2, inputs=2, beta_tol=0.3),
        # The direction is fixed at d = 1, so it must come back exact.
        Workload(
            "fit_d1_n20000",
            "fit",
            {"n": 20000, "d": 1, "preset": "constant", "constant_direction": (1.0,)},
            refs=1,
            inputs=2,
            beta_tol=1e-12,
        ),
    )
}

# Smoke sizes check the harness, not the estimator: accuracy is not
# gated where so few rows or replications leave it to chance.
SMOKE = {
    "study_paper_n500": {"inputs": 1, "reps": 2, "beta_tol": math.inf},
    "fit_paper_n2000": {"refs": 1, "inputs": 2, "sim": {"n": 200}, "beta_tol": math.inf},
    "fit_d1_n20000": {
        "sim": {"n": 1000, "d": 1, "preset": "constant", "constant_direction": (1.0,)},
    },
}


@dataclasses.dataclass(frozen=True)
class Item:
    """One input of the closed loop."""

    key: str  # "ref-<k>" or "in-<k>"
    seed: int  # SimConfig seed the input was made from
    arg: str  # CSV path (fit) or master seed (study)

    @property
    def reference(self) -> bool:
        return self.key.startswith("ref")


class Run:
    """State of one benchmark invocation: counters, problems, samples."""

    def __init__(self, workload: Workload, seed: int, work: Path):
        self.workload = workload
        self.seed = seed
        self.work = work
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.samples: dict[str, list[float]] = {}
        self.info: dict = {"output_sha256": {}}
        # Distinct input -> (fits, failed fits), counted once per input so
        # the failure ratio does not depend on how often inputs repeat.
        self.outcomes: dict[str, tuple[int, int]] = {}
        # Reference input -> graded outputs.
        self.graded: dict[str, dict] = {}

    def problem(self, message: str) -> None:
        self.problems.append(message)
        print(f"check failed: {message}", file=sys.stderr)

    def outcome(self, key: str, fits: int, failed: int) -> None:
        self.attempted += fits
        self.failed += failed
        self.outcomes.setdefault(key, (fits, failed))


# ---------------------------------------------------------------------------
# set-up: calibration, data generation, input files


def sim_config(workload: Workload, seed: int):
    from sivc.simulate import SimConfig

    if workload.kind == "study":
        # The config ``sivc reproduce-figures --reps R --seed s`` builds.
        return SimConfig(reps=workload.reps, seed=seed)
    return SimConfig(**workload.sim, seed=seed)


def prepare(workload: Workload, seed: int, where: Path) -> list[Item]:
    """Calibrate censoring and write every input the closed loop needs."""
    import numpy as np
    from sivc import cli, simulate

    where.mkdir(parents=True)
    if workload.kind == "study":
        seeds = [int(np.random.SeedSequence([seed, k]).generate_state(1)[0]) for k in range(workload.inputs)]
        items = [Item(f"ref-{k}", REFERENCE_SEED, str(REFERENCE_SEED)) for k in range(workload.refs)]
        items += [Item(f"in-{k}", s, str(s)) for k, s in enumerate(seeds)]
        for item in items:
            simulate.resolve_censor_scale(sim_config(workload, item.seed))
        return items
    (where / "config.json").write_text(json.dumps({"fit": {}}) + "\n", encoding="utf-8")
    items = []
    for tag, s, count in (("ref", REFERENCE_SEED, workload.refs), ("in", seed, workload.inputs)):
        sim = sim_config(workload, s)
        scale = simulate.resolve_censor_scale(sim)
        for rep in range(count):
            dataset, _ = simulate.generate_dataset(sim, rep, scale)
            path = where / f"{tag}-{rep}.csv"
            cli.write_dataset_csv(path, dataset)
            items.append(Item(f"{tag}-{rep}", s, str(path)))
    return items


def setup(run: Run, k: int) -> list[Item]:
    """One set-up from a cold calibration cache, into ``setup<k>``."""
    from sivc import simulate

    where = run.work / f"setup{k}"
    simulate.resolve_censor_scale.cache_clear()
    started = time.perf_counter()
    items = prepare(run.workload, run.seed, where)
    run.samples.setdefault("prepare_s", []).append(time.perf_counter() - started)
    run.info.setdefault("config", str(where / "config.json"))
    return items


def import_seconds() -> float:
    """Import time of numpy, scipy and sivc in a fresh interpreter."""
    probe = (
        "import sys, time; t = time.perf_counter(); sys.path.insert(0, 'src'); "
        "import sivc.cli; print(time.perf_counter() - t)"
    )
    proc = subprocess.run(
        [sys.executable, "-c", probe], cwd=ROOT, capture_output=True, text=True, timeout=120, check=True
    )
    return float(proc.stdout)


def setup_seconds(run: Run) -> float:
    """Median import time plus median set-up time. The first set-up ran
    before the timed loop; the others run after it, with the import
    probes, so that a slow spell of the machine does not hit them all."""
    for k in range(1, SETUP_REPEATS):
        setup(run, k)
        shutil.rmtree(run.work / f"setup{k}")
    run.samples["import_s"] = [import_seconds() for _ in range(SETUP_REPEATS)]
    return statistics.median(run.samples["import_s"]) + statistics.median(run.samples["prepare_s"])


# ---------------------------------------------------------------------------
# program calls and output checks


def run_cli(argv: list[str]) -> int:
    """One in-process ``sivc`` call; its progress lines are discarded."""
    from sivc import cli

    with contextlib.redirect_stdout(io.StringIO()):
        return cli.main(argv)


def call_item(run: Run, item: Item, out: Path, workers: int):
    """Run one item through the CLI; a study runs on ``workers`` pool
    processes. Returns (exit code, SimSummary or None); the study's
    summary is captured on its way to the writers, because only it
    records per-replication failures and convergence."""
    from sivc import cli

    if run.workload.kind == "fit":
        argv = ["fit", "--data", item.arg, "--config", run.info["config"], "--out", str(out)]
        return run_cli(argv), None
    captured = []
    study = cli.run_monte_carlo

    def capture(*args, **kwargs):
        captured.append(study(*args, workers=workers, **kwargs))
        return captured[-1]

    argv = ["reproduce-figures", "--out", str(out), "--reps", str(run.workload.reps), "--seed", item.arg]
    cli.run_monte_carlo = capture
    try:
        code = run_cli(argv)
    finally:
        cli.run_monte_carlo = study
    return code, captured[0] if captured else None


def sha256_files(paths: list[Path]) -> str:
    digest = hashlib.sha256()
    for path in paths:
        digest.update(path.read_bytes())
    return digest.hexdigest()


def read_table(path: Path):
    import numpy as np

    with path.open(newline="", encoding="utf-8") as handle:
        rows = list(csv.reader(handle))
    return rows[0], np.array(rows[1:], dtype=float)


def curve_problems(beta) -> list[str]:
    """Curve rows (last axis) must be finite, of unit norm and have a
    positive first component."""
    import numpy as np

    if not np.all(np.isfinite(beta)):
        return ["non-finite curve values"]
    if beta.size and np.max(np.abs(np.linalg.norm(beta, axis=-1) - 1.0)) > UNIT_NORM_TOL:
        return ["curve rows are not unit norm"]
    if np.any(beta[..., 0] <= 0):
        return ["curve rows have a nonpositive first component"]
    return []


def check_fit(out: Path, d: int, grid: int) -> tuple[list[str], dict]:
    """Structural checks of one ``sivc fit`` output directory."""
    import numpy as np

    header, curves = read_table(out / "curves.csv")
    beta = curves[:, 1:]
    _, link = read_table(out / "link.csv")
    diag = json.loads((out / "diagnostics.json").read_text(encoding="utf-8"))
    bad = []
    if header != ["t0"] + [f"beta_{j}" for j in range(1, d + 1)] or beta.shape != (grid, d):
        bad.append(f"curves.csv has shape {beta.shape}, expected ({grid}, {d})")
    else:
        bad += curve_problems(beta)
    defined = link[:, 2] == 1
    if not np.all(np.isfinite(link[defined, 1])):
        bad.append("non-finite defined link values")
    if len(diag.get("converged", ())) != grid:
        bad.append("diagnostics.json lacks one converged flag per grid point")
    return bad, {
        "t": curves[:, 0],
        "beta": beta,
        "u": link[:, 0],
        "m": np.where(defined, link[:, 1], np.nan),
        "converged": sum(bool(c) for c in diag.get("converged", ())),
        "points": grid,
        "sha": sha256_files([out / "curves.csv", out / "link.csv"]),
    }


def check_study(out: Path, summary) -> tuple[list[str], dict]:
    """Structural checks of a study's replication curves, band tables
    and figures."""
    import numpy as np

    header, table = read_table(out / "summary.csv")
    _, link = read_table(out / "link_summary.csv")
    fitted_reps = np.delete(summary.beta_reps, [rep for rep, _ in summary.failures], axis=0)
    bad = [f"replication {message}" for message in curve_problems(fitted_reps)]
    med, lo, hi = table[:, 1::3], table[:, 2::3], table[:, 3::3]
    if len(header) != 1 + 3 * med.shape[1] or not np.all(np.isfinite(table)):
        bad.append("summary.csv is malformed or has non-finite bands")
    elif not np.all((lo <= med) & (med <= hi)):
        bad.append("coefficient bands are not ordered q05 <= median <= q95")
    defined = link[:, 4] > 0
    m_med, m_lo, m_hi = link[defined, 1], link[defined, 2], link[defined, 3]
    if not (np.all(np.isfinite(link[defined, 1:4])) and np.all((m_lo <= m_med) & (m_med <= m_hi))):
        bad.append("link bands are non-finite or not ordered")
    for name in ("fig1.svg", "fig2.svg"):
        try:
            root = ET.parse(out / name).getroot()
        except (ET.ParseError, OSError) as exc:
            bad.append(f"{name} is not readable SVG ({exc})")
            continue
        if not root.tag.endswith("svg"):
            bad.append(f"{name} root element is {root.tag}")
    fitted = summary.beta_reps.shape[0] - len(summary.failures)
    nonconverged = sum(
        int(m.group(1))
        for m in (re.search(r"(\d+) non-converged", line) for line in summary.failure_log)
        if m
    )
    points = fitted * table.shape[0]
    return bad, {
        "t": table[:, 0],
        "beta": med,
        "u": link[:, 0],
        "m": np.where(defined, link[:, 1], np.nan),
        "converged": points - nonconverged,
        "points": points,
        "failed": len(summary.failures),
        "sha": sha256_files([out / "summary.csv", out / "link_summary.csv"]),
    }


def record(run: Run, item: Item, out: Path, code: int, summary) -> Optional[str]:
    """Check one call's outputs, count its fits and failures, and keep a
    reference input's outputs the first time it runs. Returns the hash
    of the output tables, or None when a check failed."""
    from sivc.estimator import FitConfig

    workload = run.workload
    fits = workload.reps if workload.kind == "study" else 1
    if code != 0:
        run.outcome(item.key, fits, fits)
        run.problem(f"{item.key}: sivc exited with code {code}")
        return None
    if workload.kind == "study":
        bad, result = check_study(out, summary)
    else:
        bad, result = check_fit(out, sim_config(workload, item.seed).d, FitConfig().t_grid_size)
    run.outcome(item.key, fits, result.get("failed", 0))
    if result.get("failed"):
        bad.append(f"{result['failed']} replications failed")
    for message in bad:
        run.problem(f"{item.key}: {message}")
    if item.reference and item.key not in run.graded:
        run.graded[item.key] = result
    return None if bad else result["sha"]


def accuracy(run: Run) -> dict:
    """Accuracy and convergence over the reference inputs."""
    import numpy as np

    truth = sim_config(run.workload, REFERENCE_SEED)
    errs, coss, resids, converged, points = [], [], [], 0, 0
    for result in run.graded.values():
        t, beta = result["t"], result["beta"]
        interior = (t >= INTERIOR[0] - 1e-12) & (t <= INTERIOR[1] + 1e-12)
        true_beta = truth.true_directions(t)
        errs.append(float(np.abs(beta - true_beta)[interior].max()))
        cos = np.sum(beta * true_beta, axis=1) / np.linalg.norm(beta, axis=1)
        coss.append(float(cos[interior].min()))
        sel = np.abs(result["u"]) <= LINK_RANGE + 1e-12
        resids.append(result["m"][sel] - truth.true_link(result["u"][sel]))
        converged += result["converged"]
        points += result["points"]
    if len(run.graded) < run.workload.refs:
        run.problem("some reference inputs produced no gradable output")
    if not errs:
        return {}
    resid = np.concatenate(resids)
    if not np.all(np.isfinite(resid)):
        run.problem(f"link undefined somewhere on |u| <= {LINK_RANGE} in the reference outputs")
    err = max(errs)
    if not err <= run.workload.beta_tol:
        run.problem(f"reference beta_max_err {err:.4g} exceeds the tolerance {run.workload.beta_tol:g}")
    graded = {
        "beta_worst_cos": min(coss),
        "link_rmse": float(np.sqrt(np.nanmean(resid * resid))),
        "converged_ratio": converged / points,
    }
    run.info["reference"] = {
        "seed": REFERENCE_SEED,
        "beta_max_err": err,
        "beta_tol": run.workload.beta_tol,
        "sha256": hashlib.sha256(
            "".join(r["sha"] for _, r in sorted(run.graded.items())).encode()
        ).hexdigest(),
        **graded,
    }
    return graded


# ---------------------------------------------------------------------------
# timed closed loop


def timed_call(run: Run, item: Item) -> float:
    """One timed call. Its outputs are checked outside the timed region;
    a repeated item must reproduce its first outputs byte for byte."""
    out = run.work / f"out-{item.key}"
    started = time.perf_counter()
    code, summary = call_item(run, item, out, run.info["env"]["pool_workers"])
    wall = time.perf_counter() - started
    sha = record(run, item, out, code, summary)
    if sha is not None and run.info["output_sha256"].setdefault(item.key, sha) != sha:
        run.problem(f"{item.key}: a repeat run gave different outputs")
    return wall


def timed_loop(
    run: Run, items: list[Item], seconds: float, tracer: Optional[spans.Tracer] = None
) -> tuple[list[float], list[float]]:
    """Run whole passes over the items, one call at a time, and stop at
    the end of the first pass that brings the untraced time to
    ``seconds``. Every item thus runs equally often, whatever the speed.
    With a tracer, each item also runs traced, next to its untraced call
    and in alternating order, so the overhead is measured in the same
    spell of the machine. Returns the untraced and traced call times."""
    walls: list[float] = []
    traced: list[float] = []
    i = 0
    while sum(walls) < seconds:
        for item in items:
            if tracer is None:
                walls.append(timed_call(run, item))
                continue
            for with_trace in (False, True) if i % 2 == 0 else (True, False):
                if not with_trace:
                    walls.append(timed_call(run, item))
                    continue
                tracer.patch()
                try:
                    traced.append(timed_call(run, item))
                finally:
                    tracer.restore()
            i += 1
    return walls, traced


# ---------------------------------------------------------------------------
# per-layer measurements


def objective_sample(run: Run, items: list[Item]) -> tuple[float, int]:
    """Median time of one public ``local_objective`` call at t0 = 0.5 at
    the workload's n, on the first seeded input, at the true direction;
    and the number m of rows with modifier weight there."""
    import numpy as np
    from sivc import cli, estimator, simulate, smoothing
    from sivc.model import normalize_direction

    item = next(i for i in items if not i.reference)
    sim = sim_config(run.workload, item.seed)
    if run.workload.kind == "study":
        dataset, _ = simulate.generate_dataset(sim, 0)
    else:
        dataset = cli.read_dataset_csv(Path(item.arg))
    spec = estimator.FitConfig().kernel
    bw = smoothing.select_bandwidths(dataset, spec)
    theta = normalize_direction(sim.true_directions(np.array([0.5]))[0])
    active = int(np.count_nonzero(smoothing.kernel_values(spec, (dataset.t - 0.5) / bw.h2) > 0))
    times = []
    budget_end = time.perf_counter() + OBJECTIVE_BUDGET_S
    while len(times) < 5 or time.perf_counter() < budget_end:
        started = time.perf_counter()
        estimator.local_objective(dataset, 0.5, theta, bw, spec)
        times.append(time.perf_counter() - started)
    return statistics.median(times) * 1e3, active


def serial_study(run: Run, items: list[Item]) -> None:
    """Replay the first study with one worker, so every layer's spans land
    in this process; its outputs must match the pooled run's."""
    item = items[0]
    out = run.work / "serial"
    code, summary = call_item(run, item, out, workers=1)
    if record(run, item, out, code, summary) != run.info["output_sha256"].get(item.key):
        run.problem("the one-worker study replay differs from the pooled run")


def layer_metrics(run: Run, tracer: spans.Tracer, items, walls, traced, phase: int, share_from: int) -> dict:
    """Per-layer metrics from the spans of the traced calls (from index
    ``phase``); shares and the study's replay from index ``share_from``."""
    s = tracer.spans

    def median_or_zero(values):
        return statistics.median(values) if values else 0.0

    def per_fit(layer, count=None):
        return median_or_zero(spans.per_group(s, "estimator.fit_model", layer, phase, count))

    def per_command(layer):
        return median_or_zero(spans.per_group(s, "cli.command", layer, phase))

    def each(layer, first=0):
        return median_or_zero([spans.duration(x) for x in s[first:] if x[0] == layer])

    def total(layer, first):
        return sum(spans.duration(x) for x in s[first:] if x[0] == layer)

    objective_ms, active = objective_sample(run, items)
    km = spans.per_group(s, "estimator.fit_model", "censoring.km", phase)
    synth = spans.per_group(s, "estimator.fit_model", "censoring.synthetic", phase)
    fitted = total("estimator.fit_model", share_from)
    if run.workload.kind == "study":
        # Serial per-replication time (generate + fit) in the replay,
        # against the time the pool took for the same study.
        per_rep = fitted + total("simulate.generate", share_from)
        busy = per_rep / (run.info["env"]["pool_workers"] * walls[0])
        aggregate = total("simulate.run_monte_carlo", share_from) - per_rep
    else:
        busy = fitted / sum(traced)
        aggregate = 0.0
    self_s = spans.self_times(s, share_from)
    base = spans.root_time(s, share_from)
    run.info["layer_self_s"] = self_s
    run.info["share_base_s"] = base
    metrics = {
        "estimator.objective_ms": objective_ms,
        "estimator.active_rows": active,
        "estimator.fit_s": per_fit("estimator.fit_model"),
        "estimator.stage1_s": per_fit("estimator.stage1"),
        "estimator.direction_fit_s": each("estimator.direction_fit", phase),
        "estimator.nm_iterations": per_fit("estimator.direction_fit", "nm_iterations"),
        "estimator.index_s": per_fit("estimator.index"),
        "estimator.link_s": per_fit("estimator.link"),
        "smoothing.bandwidths_s": per_fit("smoothing.bandwidths"),
        "censoring.km_synthetic_s": median_or_zero([a + b for a, b in zip(km, synth)]),
        "cli.read_csv_s": per_command("cli.read_csv"),
        "cli.write_s": per_command("cli.write"),
        "svgplot.render_s": per_command("svgplot.render"),
        "simulate.generate_s": each("simulate.generate"),
        "censoring.calibrate_s": each("censoring.calibrate"),
        "simulate.worker_busy_ratio": busy,
        "simulate.aggregate_s": aggregate,
        "trace.overhead_ratio": sum(traced) / sum(walls) - 1.0,
    }
    for layer in spans.LAYERS:
        metrics[f"share.{layer}"] = self_s.get(layer, 0.0) / base if base > 0 else 0.0
    return metrics


def predictions(workload: Workload, metrics: dict) -> dict:
    """The layer predictions the benchmark was defined with."""
    shares = {k[len("share."):]: v for k, v in metrics.items() if k.startswith("share.")}
    index_share = shares["estimator.index"]
    checks = {}
    if workload.name == "fit_d1_n20000":
        checks["nm_iterations is 0 at d = 1"] = metrics["estimator.nm_iterations"] == 0
        checks["compute_index is a visible share (>= 5%)"] = index_share >= 0.05
    else:
        checks["compute_index share is at most 3%"] = index_share <= 0.03
    if workload.name == "fit_paper_n2000":
        checks["the LOO objective has the largest self-time share"] = (
            max(shares, key=shares.get) == "estimator.loo_objective"
        )
    return checks


# ---------------------------------------------------------------------------
# reporting


def environment() -> dict:
    import numpy as np
    import scipy

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        blas = "unknown"
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "OPENBLAS_NUM_THREADS": os.environ["OPENBLAS_NUM_THREADS"],
        # The study's pool runs one worker per usable core.
        "pool_workers": len(os.sched_getaffinity(0)),
        "reference_seed": REFERENCE_SEED,
        "held_out_seed": HELD_OUT_SEED,
    }


def spread(values: list[float]) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) >= 2 else values * 3
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "samples": len(values)}


def peak_rss_mb() -> float:
    # ru_maxrss is in KiB on Linux: this process plus its largest child
    # (a pool worker on the study).
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + child) / 1024.0


def baseline_sha(workload: str) -> Optional[str]:
    path = BENCH / "baseline.json"
    if not path.exists():
        return None
    return json.loads(path.read_text(encoding="utf-8")).get("fingerprints", {}).get(workload)


# ---------------------------------------------------------------------------


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny inputs, for the harness test")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "sivc" / "__init__.py").is_file():
        print(f"sivc sources not found under {ROOT / 'src'}; nothing to benchmark", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    sys.path.insert(0, str(ROOT / "src"))
    import sivc.cli  # noqa: F401  (loads numpy, scipy and every sivc module)

    if not Path(sivc.__file__).resolve().is_relative_to(ROOT / "src"):
        print(f"imported sivc from {sivc.__file__}, not from this checkout", file=sys.stderr)
        return 2

    workload = WORKLOADS[args.workload]
    if args.smoke:
        workload = dataclasses.replace(workload, **SMOKE[workload.name])
    OUT.mkdir(exist_ok=True)
    tag = f"{workload.name}-seed{args.seed}-trace{args.trace}{'-smoke' if args.smoke else ''}"
    run = Run(workload, args.seed, OUT / f"work-{tag}-{os.getpid()}")
    run.info["env"] = environment()
    tracer = spans.Tracer()
    try:
        if args.trace:
            tracer.patch()
        items = setup(run, 0)
        tracer.restore()
        phase = tracer.mark()
        walls, traced = timed_loop(run, items, args.seconds, tracer if args.trace else None)
        graded = accuracy(run)
        if args.trace:
            share_from = phase
            if workload.kind == "study":
                share_from = tracer.mark()
                tracer.patch()
                serial_study(run, items)
                tracer.restore()
            metrics = layer_metrics(run, tracer, items, walls, traced, phase, share_from)
            tracer.write_jsonl(OUT / f"spans-{tag}.jsonl")
            run.info["predictions"] = predictions(workload, metrics)
            declared = spec["per_layer"]
        else:
            fits_per_call = workload.reps if workload.kind == "study" else 1
            passes = [walls[k : k + len(items)] for k in range(0, len(walls), len(items))]
            run.samples["fits_per_s"] = [fits_per_call * len(p) / sum(p) for p in passes]
            run.info["call_wall_s"] = walls
            outcomes = run.outcomes.values()
            metrics = {
                # Whole passes only, so every input has the same weight.
                "fits_per_s": fits_per_call * len(walls) / sum(walls),
                # Read before the import probes start child processes.
                "peak_rss_mb": peak_rss_mb(),
                "setup_s": setup_seconds(run),
                **graded,
                "fit_ok_ratio": 1.0 - sum(x for _, x in outcomes) / sum(f for f, _ in outcomes),
            }
            declared = spec["end_to_end"]
    finally:
        tracer.restore()
        shutil.rmtree(run.work, ignore_errors=True)

    for m in declared:
        value = metrics.get(m["name"])
        if not (isinstance(value, (int, float)) and math.isfinite(value)):
            run.problem(f"metric {m['name']} is missing or not a finite number ({value})")
            metrics[m["name"]] = -1.0
    sha = run.info.get("reference", {}).get("sha256")
    expected = None if args.smoke else baseline_sha(workload.name)
    run.info["fingerprint_matches_baseline"] = None if expected is None else sha == expected
    result = {
        "correct": not run.problems and run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in declared},
    }
    why = next(w["why"] for w in spec["workloads"] if w["name"] == workload.name)
    detail = {
        "workload": workload.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "smoke": args.smoke,
        "result": result,
        "spreads": {k: spread(v) for k, v in run.samples.items()},
        "problems": run.problems,
        **run.info,
    }
    (OUT / f"result-{tag}.json").write_text(json.dumps(detail, indent=2) + "\n", encoding="utf-8")

    print(f"workload {workload.name} (closed loop, one client), seed {args.seed}: {why}")
    print("environment " + json.dumps(run.info["env"]))
    for name, stats in detail["spreads"].items():
        print(
            f"  {name}: median {stats['median']:.6g}, q1 {stats['q1']:.6g}, "
            f"q3 {stats['q3']:.6g}, {stats['samples']} samples"
        )
    if "reference" in run.info:
        ref = run.info["reference"]
        match = run.info["fingerprint_matches_baseline"]
        print(
            f"reference seed {REFERENCE_SEED}: beta_max_err {ref['beta_max_err']:.4g} "
            f"(tolerance {ref['beta_tol']:g}), link_rmse {ref['link_rmse']:.4g} (not gated), "
            f"outputs sha256 {ref['sha256']} "
            + ("(no baseline)" if match is None else "(same as baseline)" if match else "(DIFFERS from baseline)")
        )
    if "layer_self_s" in run.info:
        base = run.info["share_base_s"]
        for layer, self_s in sorted(run.info["layer_self_s"].items(), key=lambda kv: -kv[1]):
            print(f"  self time {layer}: {self_s:.6g} s ({self_s / base:.1%} of {base:.6g} s)")
        print(f"  tracing overhead: {metrics['trace.overhead_ratio']:+.1%}")
    for claim, held in run.info.get("predictions", {}).items():
        print(f"prediction {'holds' if held else 'FAILS'}: {claim}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
