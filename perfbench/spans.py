"""Spans and counts recorded around the package's public functions.

The tracer never edits the package.  While installed, it replaces each
traced function, in every ``pdcfilter`` module namespace that holds it, by a
wrapper that records a span (name, start, end, parent, op id) and counts
derived from the arguments and the result; uninstalling restores the
originals.  Spans stay in memory until the run ends.

A layer's time is its self time: span duration minus the time its child
spans cover.  Functions missing from the package are skipped, and their
layers then report zero.
"""

from __future__ import annotations

import json
import sys
import time
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

_ASYMMETRY_WARN = 1e-8  # the package's own warning threshold


def _array_bytes(obj) -> int:
    return sum(v.nbytes for v in vars(obj).values() if isinstance(v, np.ndarray))


def _on_schmidt(tracer, fn, args, kwargs, result):
    n, k = result.grid.n_points, result.signal_modes.shape[0]
    tracer.count("spectral.schmidt_calls", 1)
    # Golub & Van Loan: a full SVD with both factors costs ~21 n^3 flops;
    # scaled by the number of singular triples actually returned.
    tracer.count("spectral.schmidt_gflop_computed", 21.0 * n * n * k / 1e9)


def _on_gain(tracer, fn, args, kwargs, result):
    r = getattr(result, "r_values", None)
    if r is not None:
        excited = int(np.count_nonzero(np.asarray(r) > 1e-12))
        tracer.sample("spectral.excited_modes", excited)
        tracer.sample("spectral.excited_frac", excited / result.grid.n_points)


def _on_kernels(tracer, fn, args, kwargs, result):
    tracer.count("filters.kernels_mb_computed", _array_bytes(result) / 1e6)


def _on_effective(tracer, fn, args, kwargs, result):
    tracer.count("basis_opt.effective_svd_calls", 1)


def _on_covariance(tracer, fn, args, kwargs, result):
    if getattr(result, "asymmetry", 0.0) > _ASYMMETRY_WARN:
        tracer.count("covariance.asymmetry_warnings", 1)


def _on_ga(tracer, fn, args, kwargs, result):
    tracer.count("genetic.generations", sum(result.generations_used))
    tracer.converged.extend(bool(c) for c in result.converged)


def _on_export(tracer, fn, args, kwargs, result):
    tracer.count("cli.export_bytes", sum(Path(p).stat().st_size for p in result))
    tracer.last_export = (fn, args, kwargs)


# layer -> [(module, function, hook)]
LAYERS = {
    "spectral.jsa": [
        ("pdcfilter.spectral", "build_frequency_grid", None),
        ("pdcfilter.spectral", "build_gaussian_jsa", None),
    ],
    "spectral.schmidt": [
        ("pdcfilter.spectral", "schmidt_decompose", _on_schmidt),
        ("pdcfilter.spectral", "gain_for_target_db", None),
        ("pdcfilter.spectral", "apply_gain", _on_gain),
    ],
    "filters.kernels": [("pdcfilter.filters", "build_uv_kernels", _on_kernels)],
    "basis_opt.effective_svd": [("pdcfilter.basis_opt", "svd_effective_basis", _on_effective)],
    "filters.projections": [("pdcfilter.filters", "filtered_projections", None)],
    "covariance.assemble": [("pdcfilter.covariance", "assemble_covariance", _on_covariance)],
    "metrics.report": [
        ("pdcfilter.metrics", "squeezing_report", None),
        ("pdcfilter.metrics", "purity", None),
        ("pdcfilter.metrics", "single_mode_character", None),
    ],
    "genetic.state_context": [("pdcfilter.genetic", "make_state_context", None)],
    "genetic.search": [("pdcfilter.genetic", "ga_optimize_basis", _on_ga)],
    "cli.config": [("pdcfilter.cli", "build_config", None)],
    "cli.export": [
        ("pdcfilter.cli", "export_report", _on_export),
        ("pdcfilter.cli", "export_tradeoff", _on_export),
    ],
}


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    op_id: int


@dataclass
class Tracer:
    """In-memory spans and counts; one instance per benchmark run."""

    spans: list[Span] = field(default_factory=list)
    counts: dict = field(default_factory=lambda: defaultdict(float))
    samples: dict = field(default_factory=lambda: defaultdict(list))
    converged: list[bool] = field(default_factory=list)
    last_export: tuple | None = None
    op_id: int = -1
    _stack: list[int] = field(default_factory=list)
    _patched: list[tuple] = field(default_factory=list)

    # -- recording -------------------------------------------------------
    def count(self, name: str, amount: float) -> None:
        self.counts[name] += amount

    def sample(self, name: str, value: float) -> None:
        self.samples[name].append(value)

    def begin(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else None
        self.spans.append(Span(name, time.perf_counter(), 0.0, parent, self.op_id))
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def end(self, index: int) -> None:
        self.spans[index].end = time.perf_counter()
        self._stack.pop()

    def _wrap(self, layer: str, fn, hook):
        tracer = self

        def traced(*args, **kwargs):
            index = tracer.begin(layer)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.end(index)
            if hook is not None:
                hook(tracer, fn, args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    # -- installing ------------------------------------------------------
    def install(self) -> None:
        modules = [m for name, m in list(sys.modules.items()) if name.startswith("pdcfilter") and m]
        for layer, targets in LAYERS.items():
            for module_name, fn_name, hook in targets:
                original = getattr(sys.modules.get(module_name), fn_name, None)
                if original is None:
                    continue
                wrapper = self._wrap(layer, original, hook)
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            setattr(module, attr, wrapper)
                            self._patched.append((module, attr, original))
        context = getattr(sys.modules.get("pdcfilter.genetic"), "StateContext", None)
        if context is not None and hasattr(context, "fitness"):
            original = context.fitness

            def fitness(ctx, columns):
                result = original(ctx, columns)
                self.count("genetic.fitness_evals", len(result))
                return result

            context.fitness = fitness
            self._patched.append((context, "fitness", original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    # -- summarizing -----------------------------------------------------
    def self_times(self) -> dict[str, float]:
        """Total self time per span name."""
        child_time = defaultdict(float)
        for span in self.spans:
            if span.parent is not None:
                child_time[span.parent] += span.end - span.start
        totals = defaultdict(float)
        for i, span in enumerate(self.spans):
            totals[span.name] += span.end - span.start - child_time[i]
        return dict(totals)

    def layer_time_under_ops(self) -> float:
        """Summed duration of the spans whose parent is an ``op`` span."""
        return sum(
            s.end - s.start
            for s in self.spans
            if s.parent is not None and self.spans[s.parent].name == "op"
        )

    def write(self, path: Path) -> None:
        with open(path, "w") as fh:
            for i, s in enumerate(self.spans):
                fh.write(
                    json.dumps(
                        {"id": i, "name": s.name, "start": s.start, "end": s.end, "parent": s.parent, "op": s.op_id}
                    )
                    + "\n"
                )
