"""Tracing of relurec's layers from outside the program.

``Tracer.install`` replaces every public function of the modules in
``LAYERS`` (and the harness's cell runners) with a wrapper that records a
span: name, start, end, parent span and cell id.  Every module attribute
that refers to an original function is rebound, so calls across modules
and within a module both pass through the wrappers.  Calls into
``scipy.integrate.quad`` made from ``relurec.lasso`` are counted without
a span.  ``uninstall`` puts the original functions back.  Spans stay in
memory until ``write`` saves them.

Self time is a span's duration minus the durations of its child spans.
A span whose parent lies in the same module and the same cell hands its
self time to that parent, so each metric below is the time of one call
into a layer, including that layer's own helpers but none of the layers
it calls.
"""

from __future__ import annotations

import csv
import functools
import inspect
import statistics
import time
from collections import Counter, defaultdict

import relurec
from relurec import bias, cli, generate, harness, lasso, replearn, subspace
from scipy import integrate

LAYERS = {
    "cli": cli,
    "harness": harness,
    "generate": generate,
    "bias": bias,
    "replearn": replearn,
    "subspace": subspace,
    "lasso": lasso,
}
CELL_RUNNERS = ("_run_rep_cell", "_run_recovery_cell")
NO_CELL = -1

# (metric, unit, kind, selector); every metric is a median
#   cell_ms:    per cell, self time of the entry calls selected
#   cell_count: per cell, number of calls selected
#   sweep_ms:   per sweep, self time of the entry calls selected
#   round_count: per round (one pass over the workload's cells), calls selected
# a selector is a layer name ("generate") or a function ("lasso.solve_robust_lasso")
PER_LAYER = (
    ("cli.self_ms", "ms", "sweep_ms", ("cli.cli_dispatch",)),
    ("harness.self_ms_per_cell", "ms", "cell_ms", ("harness",)),
    ("harness.emit_ms", "ms", "sweep_ms", ("harness.emit_results",)),
    ("generate.ms_per_cell", "ms", "cell_ms", ("generate",)),
    ("bias.constants_ms_per_cell", "ms", "cell_ms", ("bias.compute_bias_constants",)),
    ("replearn.reconstruct_ms_per_cell", "ms", "cell_ms", ("replearn.reconstruct_matrix",)),
    (
        "replearn.row_calls_per_cell", "count", "cell_count",
        ("replearn.row_support", "replearn.feasible_shift_interval", "replearn.row_log_likelihood"),
    ),
    ("subspace.svd_ms_per_cell", "ms", "cell_ms", ("subspace.truncated_svd",)),
    ("subspace.svd_calls_per_cell", "count", "cell_count", ("subspace.truncated_svd",)),
    ("lasso.stats_ms_per_cell", "ms", "cell_ms", ("lasso.make_nonlinearity_stats",)),
    ("lasso.stats_calls", "count", "round_count", ("lasso.make_nonlinearity_stats",)),
    ("lasso.quad_calls_per_cell", "count", "cell_count", ("lasso.quad",)),
    ("lasso.solve_ms_per_cell", "ms", "cell_ms", ("lasso.solve_robust_lasso",)),
    ("lasso.iters_per_cell", "count", "cell_count", ("lasso.lasso_objective",)),
)


def _selected(name: str, selector: tuple[str, ...]) -> bool:
    return name in selector or name.partition(".")[0] in selector


class Tracer:
    def __init__(self) -> None:
        # span: [name, start_ns, end_ns, parent, cell]
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.cell = NO_CELL
        self.cells = 0
        self.quad_calls: Counter = Counter()
        self.replaced: list[tuple] = []

    def _wrap(self, name: str, fn, opens_cell: bool):
        spans, stack = self.spans, self.stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            outer_cell = self.cell
            if opens_cell:
                self.cell = self.cells
                self.cells += 1
            span = [name, 0, 0, stack[-1] if stack else -1, self.cell]
            stack.append(len(spans))
            spans.append(span)
            span[1] = time.perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter_ns()
                stack.pop()
                self.cell = outer_cell

        return traced

    def _quad(self, *args, **kwargs):
        self.quad_calls[self.cell] += 1
        return integrate.quad(*args, **kwargs)

    def install(self) -> None:
        wrappers = {}
        for layer, module in LAYERS.items():
            names = [n for n in module.__all__ if inspect.isfunction(getattr(module, n))]
            if module is harness:
                names += CELL_RUNNERS
            for attr in names:
                fn = getattr(module, attr)
                if fn.__module__ == module.__name__:
                    wrappers[fn] = self._wrap(f"{layer}.{attr}", fn, attr in CELL_RUNNERS)
        for module in (relurec, *LAYERS.values()):
            for attr, value in list(vars(module).items()):
                if inspect.isfunction(value) and value in wrappers:
                    self.replaced.append((module, attr, value))
                    setattr(module, attr, wrappers[value])
        self.replaced.append((lasso, "integrate", integrate))
        lasso.integrate = _CountingIntegrate(self._quad)

    def uninstall(self) -> None:
        for module, attr, value in self.replaced:
            setattr(module, attr, value)
        self.replaced.clear()

    def _credited(self) -> dict[int, int]:
        """Self time in ns of each entry span (see the module docstring)."""
        self_ns = [end - start for _, start, end, _, _ in self.spans]
        entry = list(range(len(self.spans)))
        for i, (name, start, end, parent, cell) in enumerate(self.spans):
            if parent < 0:
                continue
            self_ns[parent] -= end - start
            pname, _, _, _, pcell = self.spans[parent]
            if pcell == cell and pname.partition(".")[0] == name.partition(".")[0]:
                entry[i] = entry[parent]
        credited: dict[int, int] = defaultdict(int)
        for i, ns in enumerate(self_ns):
            credited[entry[i]] += ns
        return credited

    def samples(self) -> tuple[dict[str, list[float]], dict[str, int]]:
        """Samples of each per-layer metric, and each layer's self time in cells.

        A metric's samples are one value per cell, per sweep or per round
        (see ``PER_LAYER``); ``summarise`` takes their median over a run.
        """
        credited = self._credited()
        sweep_of: list[int] = []
        for i, span in enumerate(self.spans):
            sweep_of.append(i if span[3] < 0 else sweep_of[span[3]])
        samples = {}
        for metric, _, kind, selector in PER_LAYER:
            per_cell = [0.0] * self.cells
            per_sweep = {i: 0.0 for i, span in enumerate(self.spans) if span[3] < 0}
            calls = 0
            for i, (name, _, _, _, cell) in enumerate(self.spans):
                if not _selected(name, selector):
                    continue
                value = credited.get(i, 0) / 1e6 if kind.endswith("_ms") else 1.0
                calls += 1
                per_sweep[sweep_of[i]] += value
                if cell != NO_CELL:
                    per_cell[cell] += value
            if "lasso.quad" in selector:  # counted in _quad, without spans
                for cell, count in self.quad_calls.items():
                    if cell != NO_CELL:
                        per_cell[cell] += count
            if kind.startswith("cell"):
                samples[metric] = per_cell
            elif kind == "sweep_ms":
                samples[metric] = list(per_sweep.values())
            else:
                samples[metric] = [float(calls)]
        layer_ns: Counter = Counter()
        for i, ns in credited.items():
            name, _, _, _, cell = self.spans[i]
            if cell != NO_CELL:
                layer_ns[name.partition(".")[0]] += ns
        return samples, {layer: layer_ns[layer] for layer in LAYERS}

    def write(self, path) -> None:
        with open(path, "w", encoding="ascii", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["span", "parent", "cell", "name", "start_ns", "end_ns"])
            for i, (name, start, end, parent, cell) in enumerate(self.spans):
                writer.writerow([i, parent, cell, name, start, end])


class _CountingIntegrate:
    """Stands in for ``scipy.integrate`` inside ``relurec.lasso``."""

    def __init__(self, quad) -> None:
        self.quad = quad

    def __getattr__(self, attr):
        return getattr(integrate, attr)


def summarise(rounds: list[dict]) -> tuple[dict[str, float], dict[str, float]]:
    """Per-layer metrics of a run, and each layer's share of the cell time.

    ``rounds`` holds the ``samples`` and ``layer_ns`` of each round; a
    metric is the median of its samples over all rounds.
    """
    values = {
        metric: statistics.median(x for r in rounds for x in r["samples"][metric])
        for metric, _, _, _ in PER_LAYER
    }
    layer_ns = {layer: sum(r["layer_ns"][layer] for r in rounds) for layer in LAYERS}
    total = sum(layer_ns.values()) or 1
    return values, {layer: ns / total for layer, ns in layer_ns.items()}
