"""Outside-in stage trace: wrap emprob's public functions from the benchmark
and record one span per call, without changing the program.

Each wrapper is installed in every ``emprob`` module namespace that bound the
original function, so the calls ``prepare()`` makes itself are timed too
(``emprob.pipeline.em_fit`` and ``emprob.density.em_fit`` are the same
wrapper).  A span has a name, start, end, parent and the counters read from
the call's arguments and result.  A function that no longer exists is
reported as missing instead of failing the run.
"""

from __future__ import annotations

import functools
import importlib
import sys
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter
from typing import Callable


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    counters: dict[str, float] = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


def _tree_nodes(root) -> int:
    n, stack = 0, [root]
    while stack:
        node = stack.pop()
        n += 1
        stack.extend(c for c in (getattr(node, "true_child", None),
                                 getattr(node, "false_child", None)) if c is not None)
    return n


def _em_counters(args, kwargs, result) -> dict[str, float]:
    report = result[1]
    return {"em_iterations": report.iterations, "em_unconverged": int(not report.converged)}


def _distinct_sums(args, kwargs, result) -> dict[str, float]:
    return {"n_distinct_sums": len(set(result.raw_sums.tolist()))}


def _kde_pairs(args, kwargs, result) -> dict[str, float]:
    kde = args[2] if len(args) > 2 else kwargs["kde"]
    return {"kde_cdf_pairs": len(result) * kde.n_points}


def _lattice_size(args, kwargs, result) -> dict[str, float]:
    return {"n_concepts": len(result.concepts), "n_edges": len(result.edges)}


def _files_written(args, kwargs, result) -> dict[str, float]:
    return {"files_written": len(result),
            "bytes_written": sum(Path(p).stat().st_size for p in result)}


# (layer, home module, attribute path, counters read from the call)
TARGETS: tuple[tuple[str, str, str, Callable | None], ...] = (
    ("schema", "emprob.pipeline", "load_inputs", None),
    ("schema", "emprob.schema", "mean_weights", None),
    ("cases", "emprob.cases", "enumerate_cases", lambda a, k, r: {"n_cases": len(r)}),
    ("cases", "emprob.cases", "weight_sum_table", _distinct_sums),
    ("density", "emprob.density", "select_component_count", None),
    ("density", "emprob.density", "em_fit", _em_counters),
    ("density", "emprob.density", "KernelDensityEstimate.from_data", None),
    ("scoring", "emprob.scoring", "elicit_probabilities", _kde_pairs),
    ("scoring", "emprob.scoring", "score_patient", None),
    ("tree", "emprob.tree", "fit_decision_tree", lambda a, k, r: {"nodes_full": _tree_nodes(r)}),
    ("tree", "emprob.tree", "prune_tree", lambda a, k, r: {"nodes_pruned": _tree_nodes(r)}),
    ("fca", "emprob.fca", "build_band_context", None),
    ("fca", "emprob.fca", "enumerate_concepts", None),
    ("fca", "emprob.fca", "build_lattice", _lattice_size),
    ("io", "emprob.pipeline", "write_artifacts", _files_written),
    ("pipeline", "emprob.pipeline", "prepare", None),
    ("cli", "emprob.cli", "main", None),
)

LAYER_OF = {attr.rpartition(".")[2]: layer for layer, _, attr, _ in TARGETS}


class Tracer:
    """Collects spans from the wrappers it installs; use as a context
    manager so every wrapper is removed again on exit."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.missing: list[str] = []
        self.wrapped: list[str] = []
        # time spent in the wrappers themselves, counters included
        self.wrapper_s = 0.0
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn: Callable, counters: Callable | None) -> Callable:
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            entered = perf_counter()
            span = Span(name, entered, float("nan"), self._stack[-1] if self._stack else None)
            self._stack.append(len(self.spans))
            self.spans.append(span)
            span.start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = perf_counter()
                self._stack.pop()
            if counters is not None:
                try:
                    span.counters = counters(args, kwargs, result)
                except Exception as exc:  # noqa: BLE001  (a changed API must not end the run)
                    self.missing.append(f"{name} counters: {exc!r}")
            self.wrapper_s += span.start - entered + perf_counter() - span.end
            return result

        return traced

    def _set(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self) -> None:
        for _, module_name, path, counters in TARGETS:
            try:
                owner = importlib.import_module(module_name)
            except ImportError:
                self.missing.append(f"{module_name}.{path}")
                continue
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part, None)
            raw = getattr(owner, "__dict__", {}).get(attr)
            if raw is None:
                self.missing.append(f"{module_name}.{path}")
                continue
            self.wrapped.append(f"{module_name}.{path}")
            if isinstance(raw, classmethod):
                self._set(owner, attr, classmethod(self._wrap(attr, raw.__func__, counters)))
                continue
            wrapper = self._wrap(attr, raw, counters)
            for name, module in list(sys.modules.items()):
                if (name == "emprob" or name.startswith("emprob.")) and \
                        vars(module).get(attr) is raw:
                    self._set(module, attr, wrapper)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()


def self_time(spans: list[Span], i: int) -> float:
    """Span i's duration minus the part of it that its child spans cover."""
    parent = spans[i]
    covered = sorted((max(s.start, parent.start), min(s.end, parent.end))
                     for s in spans if s.parent == i)
    busy, reach = 0.0, parent.start
    for start, end in covered:
        start = max(start, reach)
        if end > start:
            busy += end - start
            reach = end
    return parent.duration - busy


def layer_metrics(spans: list[Span]) -> dict[str, float]:
    """Per-layer metrics from one traced operation.  A ``_s`` metric sums the
    durations of every call of a function, ``.self_s`` sums self times;
    counters sum over calls.  Layers the operation never entered read 0."""
    total: dict[str, float] = {}
    own: dict[str, float] = {}
    calls: dict[str, int] = {}
    counts: dict[str, float] = {}
    layer_self: dict[str, float] = {layer: 0.0 for layer in set(LAYER_OF.values())}
    for i, s in enumerate(spans):
        st = self_time(spans, i)
        total[s.name] = total.get(s.name, 0.0) + s.duration
        own[s.name] = own.get(s.name, 0.0) + st
        calls[s.name] = calls.get(s.name, 0) + 1
        layer_self[LAYER_OF[s.name]] += st
        for k, v in s.counters.items():
            counts[k] = counts.get(k, 0) + v
    t = lambda name: total.get(name, 0.0)  # noqa: E731
    c = lambda name: counts.get(name, 0)  # noqa: E731
    metrics = {
        "schema.load_inputs_s": t("load_inputs"),
        "schema.mean_weights_s": t("mean_weights"),
        "cases.enumerate_s": t("enumerate_cases"),
        "cases.sum_table_s": t("weight_sum_table"),
        "cases.n_cases": c("n_cases"),
        "cases.n_distinct_sums": c("n_distinct_sums"),
        "density.select.self_s": own.get("select_component_count", 0.0),
        "density.em_fit_s": t("em_fit"),
        "density.em_fit_calls": calls.get("em_fit", 0),
        "density.em_iterations": c("em_iterations"),
        "density.em_unconverged": c("em_unconverged"),
        "density.kde_fit_s": t("from_data"),
        "scoring.elicit_s": t("elicit_probabilities"),
        "scoring.kde_cdf_pairs": c("kde_cdf_pairs"),
        "scoring.patient_s": t("score_patient"),
        "tree.fit_s": t("fit_decision_tree"),
        "tree.prune_s": t("prune_tree"),
        "tree.nodes_full": c("nodes_full"),
        "tree.nodes_pruned": c("nodes_pruned"),
        "fca.context_s": t("build_band_context"),
        "fca.concepts_s": t("enumerate_concepts"),
        # the cover search: build_lattice minus the enumeration it calls
        "fca.lattice_s": own.get("build_lattice", 0.0),
        "fca.n_concepts": c("n_concepts"),
        "fca.n_edges": c("n_edges"),
        "io.write_s": t("write_artifacts"),
        "io.files_written": c("files_written"),
        "io.bytes_written": c("bytes_written"),
        "pipeline.prepare_s": t("prepare"),
        "pipeline.prepare.self_s": own.get("prepare", 0.0),
        "cli.main_s": t("main"),
    }
    for layer in ("schema", "cases", "density", "scoring", "tree", "fca", "io"):
        metrics[f"{layer}.self_s"] = layer_self[layer]
    return metrics


def span_records(spans: list[Span]) -> list[dict]:
    """Spans as plain records, times relative to the first span's start."""
    t0 = spans[0].start if spans else 0.0
    return [{"name": s.name, "start": s.start - t0, "end": s.end - t0,
             "parent": s.parent, "counters": s.counters} for s in spans]
