"""Byte gate: write the standard fixed-seed case matrix and hash every file.

Usage, from the root of a checkout:

    python tools/byte_gate.py                  # print "sha256  path" per file
    python tools/byte_gate.py --against PATH   # compare with the checkout at PATH
    python tools/byte_gate.py --golden         # rewrite tests/golden_fits.json

The matrix, for seeds 1729 and 8191:

- ``sivc fit`` with the default config on replication 0 of the paper
  preset at n = 100 / 500 / 2 000 and of the constant preset at
  d = 1 / 3 / 5 (n = 500), each with its input CSV;
- ``sivc fit`` with the default config on two inputs whose fitted index
  ties, so a sort's tie order would reach the link's sums: the d = 1
  constant preset with its covariate rounded to a multiple of 0.25, and
  d = 2 noise with every row duplicated and its response shifted by 1;
- ``sivc simulate`` (n = 200, 4 replications) with a link grid
  wider than the index, so some link points have no local data and
  ``raw_link.csv`` writes them with ``defined`` 0;
- ``sivc reproduce-figures --reps 4``.

Each checkout writes the matrix with its own copy of this script and its
own ``src/``, in a fresh interpreter.
``manifest.json`` is hashed without its ``duration_seconds``, the one
field that differs between identical runs. ``--against`` lists every file
that differs or exists on one side only, and exits 1 if there is any.

``--golden`` writes the curves, link and objectives of the small fits
that ``tests/test_golden.py`` compares, with the Python and numpy
versions that computed them. A case with an ``x_step`` rounds its
covariates to multiples of it before the fit. A change that moves a
fixed-seed number regenerates the file and says so.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
GOLDEN_PATH = ROOT / "tests" / "golden_fits.json"

SEEDS = (1729, 8191)
PAPER_N = (100, 500, 2000)
CONSTANT_DIRECTIONS = ((1.0,), (1.0, 0.5, -0.5), (1.0, 0.5, -0.5, 0.25, 0.25))
STUDY = {
    "sim": {"n": 200, "reps": 4},
    "fit": {"link_grid": [-3.0, 3.0, 50]},
}

TIED_STEP = 0.25

# Small fits pinned in tests/golden_fits.json, each fitted on replication
# 0 of its sim config; a case with an ``x_step`` rounds its covariates to
# multiples of it first. The wide link grid of the second puts NaN at its
# ends; the rounded covariate of the last ties the index.
GOLDEN_CASES = (
    {"name": "paper_n100_seed1729", "sim": {"n": 100, "seed": 1729}, "fit": {}},
    {
        "name": "paper_n300_seed8191_wide_link",
        "sim": {"n": 300, "seed": 8191},
        "fit": {"t_grid_size": 11, "link_grid": [-3.0, 3.0, 41]},
    },
    {
        "name": "constant_d3_n200_seed1729",
        "sim": {
            "n": 200,
            "d": 3,
            "seed": 1729,
            "preset": "constant",
            "constant_direction": [1.0, 0.5, -0.5],
        },
        "fit": {"t_grid_size": 11},
    },
    {
        "name": "constant_d1_n300_seed1729_tied",
        "sim": {"n": 300, "d": 1, "seed": 1729, "preset": "constant", "constant_direction": [1.0]},
        "fit": {"t_grid_size": 11},
        "x_step": TIED_STEP,
    },
)


def _run(args: list[str]) -> None:
    """Run ``sivc`` in this process; any exit code but 0 stops the gate."""
    from sivc.cli import main

    with contextlib.redirect_stdout(io.StringIO()):
        code = main(args)
    if code != 0:
        raise SystemExit(f"sivc {' '.join(args)} exited with {code}")


def rounded_covariates(dataset, step: float):
    """``dataset`` with every covariate rounded to a multiple of ``step``."""
    import numpy as np

    from sivc import Dataset

    x = np.round(dataset.x / step) * step
    return Dataset(y=dataset.y, delta=dataset.delta, x=x, t=dataset.t)


def duplicated_rows(seed: int):
    """100 rows of d = 2 noise, each twice, the copy's response shifted
    by 1: every fitted index value ties with its copy's."""
    import numpy as np

    from sivc import Dataset

    rng = np.random.default_rng(seed)
    x = rng.normal(size=(100, 2))
    t = rng.uniform(0, 1, 100)
    y = rng.normal(size=100)
    return Dataset(
        y=np.concatenate([y, y + 1.0]),
        delta=np.ones(200, dtype=int),
        x=np.vstack([x, x]),
        t=np.concatenate([t, t]),
    )


def write_matrix(out: Path) -> None:
    """Write every case of the matrix under ``out`` with the ``sivc`` on
    ``sys.path``."""
    from sivc import SimConfig, generate_dataset
    from sivc.cli import write_dataset_csv

    out.mkdir(parents=True, exist_ok=True)
    fit_config = out / "fit.json"
    fit_config.write_text('{"fit": {}}\n', encoding="utf-8")
    for seed in SEEDS:
        base = out / f"seed{seed}"
        sims = {f"paper_n{n}": SimConfig(n=n, seed=seed) for n in PAPER_N}
        for direction in CONSTANT_DIRECTIONS:
            sims[f"constant_d{len(direction)}"] = SimConfig(
                d=len(direction), seed=seed, preset="constant", constant_direction=direction
            )
        datasets = {name: generate_dataset(sim, 0)[0] for name, sim in sims.items()}
        datasets["tied_d1"] = rounded_covariates(datasets["constant_d1"], TIED_STEP)
        datasets["tied_d2"] = duplicated_rows(seed)
        for name, dataset in datasets.items():
            case = base / name
            case.mkdir(parents=True)
            write_dataset_csv(case / "data.csv", dataset)
            data = str(case / "data.csv")
            _run(["fit", "--data", data, "--config", str(fit_config), "--out", str(case / "fit")])
        study = {"sim": {**STUDY["sim"], "seed": seed}, "fit": STUDY["fit"]}
        study_config = base / "simulate.json"
        study_config.write_text(json.dumps(study) + "\n", encoding="utf-8")
        _run(["simulate", "--config", str(study_config), "--out", str(base / "simulate")])
        # A link point without local data is written with defined = 0.
        if b",0\r\n" not in (base / "simulate" / "raw_link.csv").read_bytes():
            raise SystemExit(f"the seed-{seed} study left every link point defined")
        figures = str(base / "figures")
        _run(["reproduce-figures", "--reps", "4", "--seed", str(seed), "--out", figures])


def digest(path: Path) -> str:
    data = path.read_bytes()
    if path.name == "manifest.json":
        manifest = json.loads(data)
        del manifest["duration_seconds"]
        data = json.dumps(manifest, indent=2).encode()
    return hashlib.sha256(data).hexdigest()


def hash_tree(out: Path) -> dict[str, str]:
    return {
        path.relative_to(out).as_posix(): digest(path)
        for path in sorted(out.rglob("*"))
        if path.is_file()
    }


def matrix_of(checkout: Path, out: Path) -> dict[str, str]:
    """Write the matrix with the byte gate and the ``sivc`` of
    ``checkout`` and hash it: each side runs the commands it has."""
    checkout = checkout.resolve()
    env = dict(os.environ, PYTHONPATH=str(checkout / "src"))
    script = checkout / "tools" / "byte_gate.py"
    subprocess.run([sys.executable, str(script), "--write", str(out)], env=env, check=True)
    return hash_tree(out)


def golden_fit(case: dict):
    """The fit of one golden case, as written to ``golden_fits.json`` or
    read back from it, with the ``sivc`` on ``sys.path``."""
    from sivc import fit_model, generate_dataset
    from sivc.cli import parse_fit_config, parse_sim_config

    dataset, _ = generate_dataset(parse_sim_config(case["sim"]), 0)
    if "x_step" in case:
        dataset = rounded_covariates(dataset, case["x_step"])
    return fit_model(dataset, parse_fit_config(case["fit"]))


def write_golden(path: Path) -> None:
    """Fit every golden case and write the values that
    ``tests/test_golden.py`` compares."""
    import numpy as np

    def plain(values):
        # NaN, and d = 1's unscored objective, as null: strict JSON.
        return [None if v is None or v != v else v for v in values]

    cases = []
    for case in GOLDEN_CASES:
        result = golden_fit(case)
        cases.append({
            **case,
            "curves": result.curves.matrix.tolist(),
            "link": plain(result.link.m_hat.tolist()),
            "objectives": plain(result.diagnostics["objectives"]),
        })
    doc = {
        "note": "Written by tools/byte_gate.py --golden: replication 0 of each case, "
        "compared by tests/test_golden.py at relative 1e-12 plus absolute 1e-12 "
        "times each array's largest magnitude; null is NaN.",
        "written_with": {"python": platform.python_version(), "numpy": np.__version__},
        "cases": cases,
    }
    path.write_text(json.dumps(doc, indent=1, allow_nan=False) + "\n", encoding="utf-8")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--against", type=Path, metavar="PATH", help="checkout to compare with")
    parser.add_argument("--golden", action="store_true", help=f"rewrite {GOLDEN_PATH.name}")
    parser.add_argument("--write", type=Path, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.write is not None:
        write_matrix(args.write)
        return 0
    if args.golden:
        sys.path.insert(0, str(ROOT / "src"))
        write_golden(GOLDEN_PATH)
        print(f"wrote {GOLDEN_PATH}")
        return 0
    with tempfile.TemporaryDirectory() as scratch:
        ours = matrix_of(ROOT, Path(scratch) / "this")
        for name, sha in ours.items():
            print(f"{sha}  {name}")
        if args.against is None:
            return 0
        theirs = matrix_of(args.against, Path(scratch) / "against")
    differ = sorted(
        name for name in ours.keys() | theirs.keys() if ours.get(name) != theirs.get(name)
    )
    for name in differ:
        if name not in theirs:
            print(f"only here: {name}")
        elif name not in ours:
            print(f"only in {args.against}: {name}")
        else:
            print(f"differs: {name}")
    print(f"{len(ours)} files here, {len(theirs)} in {args.against}, {len(differ)} differ")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
