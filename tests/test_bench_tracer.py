"""The benchmark's tracer still finds every function it times and reads the
default run's counters.  The tracer lives in ``bench/``; its own tests trace
only two calls, so a counter that stops resolving would go unnoticed there.
"""

import importlib
from pathlib import Path

import emprob.pipeline
from emprob import PipelineConfig

BENCH = Path(__file__).resolve().parents[1] / "bench"


def test_tracer_reads_every_counter_of_the_default_report(tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    tracing = importlib.import_module("tracing")
    with tracing.Tracer() as tracer:
        result = emprob.pipeline.prepare(PipelineConfig())
        emprob.pipeline.write_artifacts(result, tmp_path)
    assert tracer.missing == []
    assert len(tracer.wrapped) == len(tracing.TARGETS) == 17
    metrics = tracing.layer_metrics(tracer.spans)
    # bytes written and EM cycles are left out: both depend on the CPU's bits
    assert {name: metrics[name] for name in (
        "fca.n_concepts", "fca.n_edges", "tree.nodes_full", "tree.nodes_pruned",
        "io.files_written", "density.em_fit_calls", "cases.n_distinct_sums",
    )} == {
        "fca.n_concepts": 13_683, "fca.n_edges": 52_858, "tree.nodes_full": 679,
        "tree.nodes_pruned": 25, "io.files_written": 35, "density.em_fit_calls": 4,
        "cases.n_distinct_sums": 364,
    }
