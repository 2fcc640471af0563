#!/usr/bin/env python3
"""Run the benchmark over several seeds and write a baseline summary.

Run from the repository root:

    python3 perfbench/collect.py --seeds 101-110 --out perfbench/baseline.json

For each workload in ``BENCHMARK.json`` it makes one plain run per seed
and one traced run on the first seed. It then writes each end-to-end
metric's median, quartiles and spread (the interquartile range over the
median), the traced per-layer metrics, the reference fingerprints and
the pinned environment. Runs are sequential, so no two measurements
share the machine.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = Path(__file__).resolve().parent / "out"

# Hand measurements in ROADMAP.md's baseline, for a cross-check.
ROADMAP = {
    ("study_paper_n500", "estimator.fit_s"): 0.45,
    ("study_paper_n500", "estimator.objective_ms"): 0.06,
    ("fit_paper_n2000", "estimator.objective_ms"): 0.6,
}


def parse_seeds(text: str) -> list[int]:
    if "-" in text:
        lo, hi = (int(v) for v in text.split("-"))
        return list(range(lo, hi + 1))
    return [int(v) for v in text.split(",")]


def run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    argv = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed)]
    argv += ["--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(argv)} failed:\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    values = {k: v["value"] for k, v in result["metrics"].items()}
    print(f"{workload} seed {seed} trace {trace}: correct {result['correct']} {values}", flush=True)
    detail = json.loads((OUT / f"result-{workload}-seed{seed}-trace{trace}.json").read_text())
    return {"result": result, "detail": detail}


def summarize(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {
        "median": median,
        "q1": q1,
        "q3": q3,
        "spread": (q3 - q1) / median,
        "runs": len(values),
        "values": values,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", default="101-110")
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    seeds = parse_seeds(args.seeds)
    summary = {"seeds": seeds, "run_seconds": spec["run_seconds"], "workloads": {}, "fingerprints": {}}
    for name in (w["name"] for w in spec["workloads"]):
        plain = [run(name, seed, spec["run_seconds"], 0) for seed in seeds]
        traced = run(name, seeds[0], spec["run_seconds"], 1)
        end_to_end = {
            m["name"]: summarize([r["result"]["metrics"][m["name"]]["value"] for r in plain])
            for m in spec["end_to_end"]
        }
        bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
        layers = {k: v["value"] for k, v in traced["result"]["metrics"].items()}
        summary["workloads"][name] = {
            "all_correct": all(r["result"]["correct"] for r in plain + [traced]),
            "end_to_end": end_to_end,
            "spread_within_bound_over_3": {
                k: v["spread"] <= bounds[k] / 3 for k, v in end_to_end.items() if k != "setup_s"
            },
            "per_layer": layers,
            "predictions": traced["detail"].get("predictions", {}),
            "reference": plain[0]["detail"].get("reference", {}),
            "roadmap_cross_check": {
                metric: {"measured": layers[metric], "roadmap": value}
                for (workload, metric), value in ROADMAP.items()
                if workload == name
            },
        }
        summary["fingerprints"][name] = plain[0]["detail"].get("reference", {}).get("sha256")
        summary["environment"] = plain[0]["detail"]["env"]
    args.out.write_text(json.dumps(summary, indent=2) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
