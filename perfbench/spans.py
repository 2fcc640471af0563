"""In-memory call spans recorded around the public functions of ``sivc``.

The benchmark traces the program from outside: ``Tracer.patch`` replaces
each targeted function, wherever a ``sivc`` module holds a reference to
it, by a wrapper that records one span per call (name, start, end,
parent span, root span and optional counts taken from the return value).
``Tracer.restore`` puts the original functions back. Spans stay in
memory until ``write_jsonl`` writes them out at the end of a run.

Only the standard library is imported here, so the benchmark can time
the import of numpy, scipy and ``sivc`` itself as part of its set-up.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import defaultdict
from pathlib import Path
from typing import Callable, Optional

# (defining module, qualified name) -> span name. Several functions can
# share one span name; a layer's time is the sum over its spans.
TARGETS = {
    ("sivc.cli", "cmd_fit"): "cli.command",
    ("sivc.cli", "cmd_reproduce_figures"): "cli.command",
    ("sivc.cli", "read_dataset_csv"): "cli.read_csv",
    ("sivc.cli", "write_curves_csv"): "cli.write",
    ("sivc.cli", "write_link_csv"): "cli.write",
    ("sivc.cli", "write_summary_csv"): "cli.write",
    ("sivc.cli", "write_link_summary_csv"): "cli.write",
    ("sivc.model", "validate_dataset"): "model.validate",
    ("sivc.simulate", "run_monte_carlo"): "simulate.run_monte_carlo",
    ("sivc.simulate", "generate_dataset"): "simulate.generate",
    ("sivc.censoring", "calibrate_censoring"): "censoring.calibrate",
    ("sivc.censoring", "estimate_censoring_survival"): "censoring.km",
    ("sivc.censoring", "synthetic_responses"): "censoring.synthetic",
    ("sivc.smoothing", "select_bandwidths"): "smoothing.bandwidths",
    ("sivc.estimator", "fit_model"): "estimator.fit_model",
    ("sivc.estimator", "fit_coefficient_curves"): "estimator.stage1",
    ("sivc.estimator", "fit_direction_at"): "estimator.direction_fit",
    ("sivc.estimator", "compute_index"): "estimator.index",
    ("sivc.estimator", "fit_link"): "estimator.link",
    # The fit evaluates the leave-one-out objective through this method,
    # not through the public ``local_objective``; it is the one private
    # hook. If a later version renames it, the span is simply absent.
    ("sivc.estimator", "_LocalObjective.value"): "estimator.loo_objective",
    ("sivc.svgplot", "render_figure"): "svgplot.render",
}

# Every span name above, in reporting order.
LAYERS = tuple(dict.fromkeys(TARGETS.values()))

# Counts read off a return value at the span that produced it.
COUNTS: dict[str, Callable[[object], dict]] = {
    "estimator.direction_fit": lambda fit: {"nm_iterations": int(fit.iterations)},
}


class Tracer:
    """Records spans for calls made through patched functions."""

    def __init__(self):
        # Each span: [name, start, end, parent index, root index, counts].
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def wrap(self, name: str, fn: Callable) -> Callable:
        spans, stack = self.spans, self._stack
        count = COUNTS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1] if stack else None
            index = len(spans)
            span = [name, 0.0, 0.0, parent, index if parent is None else spans[parent][4], None]
            spans.append(span)
            stack.append(index)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()
            if count is not None:
                span[5] = count(result)
            return result

        return traced

    def patch(self, package: str = "sivc") -> None:
        """Wrap every target function in every loaded module of ``package``."""
        wrappers: dict[int, Callable] = {}

        def replace(owner, attr: str, value) -> None:
            key = (getattr(value, "__module__", None), getattr(value, "__qualname__", None))
            if key not in TARGETS:
                return
            if id(value) not in wrappers:
                wrappers[id(value)] = self.wrap(TARGETS[key], value)
            setattr(owner, attr, wrappers[id(value)])
            self._patched.append((owner, attr, value))

        modules = [
            m for name, m in sorted(sys.modules.items())
            if m is not None and (name == package or name.startswith(package + "."))
        ]
        for module in modules:
            for attr, value in list(vars(module).items()):
                if isinstance(value, type) and value.__module__ == module.__name__:
                    for method, fn in list(vars(value).items()):
                        replace(value, method, fn)
                else:
                    replace(module, attr, value)

    def restore(self) -> None:
        while self._patched:
            owner, attr, value = self._patched.pop()
            setattr(owner, attr, value)

    def mark(self) -> int:
        """Index of the next span, to select the spans of one phase."""
        return len(self.spans)

    def write_jsonl(self, path: Path) -> None:
        with Path(path).open("w", encoding="utf-8") as handle:
            for name, start, end, parent, root, counts in self.spans:
                record = {"name": name, "start": start, "end": end, "parent": parent, "root": root}
                if counts:
                    record["counts"] = counts
                handle.write(json.dumps(record) + "\n")


def duration(span: list) -> float:
    return span[2] - span[1]


def self_times(spans: list[list], first: int = 0) -> dict[str, float]:
    """Per-layer self time (span time minus time covered by child spans)
    over the spans from index ``first`` on."""
    covered: dict[int, float] = defaultdict(float)
    for span in spans[first:]:
        if span[3] is not None:
            covered[span[3]] += duration(span)
    totals: dict[str, float] = defaultdict(float)
    for index in range(first, len(spans)):
        totals[spans[index][0]] += duration(spans[index]) - covered[index]
    return dict(totals)


def root_time(spans: list[list], first: int = 0) -> float:
    """Summed duration of the top-level spans from index ``first`` on."""
    return sum(duration(s) for s in spans[first:] if s[3] is None)


def per_group(
    spans: list[list], group: str, layer: str, first: int = 0, count: Optional[str] = None
) -> list[float]:
    """For each span named ``group``, the summed duration (or summed
    ``count``) of the ``layer`` spans at or below it."""
    owner: dict[int, Optional[int]] = {}
    sums: dict[int, float] = {}
    for index in range(first, len(spans)):
        name, _, _, parent, _, counts = spans[index]
        if name == group:
            owner[index] = index
            sums[index] = 0.0
        else:
            owner[index] = owner.get(parent) if parent is not None else None
        g = owner[index]
        if g is not None and name == layer:
            sums[g] += (counts or {}).get(count, 0) if count else duration(spans[index])
    return list(sums.values())
