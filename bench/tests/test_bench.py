"""Tests of the benchmark itself: the input generator, the self-time
arithmetic, the output checks and the failure accounting.

    python3 -m pytest -q bench/tests
"""

import csv
import json
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

import checks
import run_bench
import tracing
import workloads
from tracing import Span, layer_metrics, self_time

BENCHMARK_JSON = workloads.ROOT / "BENCHMARK.json"


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_generator_is_deterministic_for_a_seed(tmp_path, workload):
    a = workloads.write_inputs(workload, 7, tmp_path / "a")
    b = workloads.write_inputs(workload, 7, tmp_path / "b")
    assert a.keys() == b.keys()
    for role in a:
        assert a[role].read_bytes() == b[role].read_bytes()


def test_seeds_draw_different_inputs(tmp_path):
    for workload, role in (("report-unmerged", "weights"), ("patient-cli", "patients")):
        a = workloads.write_inputs(workload, 1, tmp_path / "a")[role].read_bytes()
        b = workloads.write_inputs(workload, 2, tmp_path / "b")[role].read_bytes()
        assert a != b


def test_unmerged_weights_merge_back_to_the_shipped_matrix(tmp_path):
    files = workloads.write_inputs("report-unmerged", 3, tmp_path)
    with open(files["weights"], newline="") as f:
        rows = list(csv.DictReader(f))
    header, shipped = workloads.shipped_weights()
    assert len(rows) == 15 and len(rows[0]) == 1 + 22
    merged = header.index(workloads.MERGED_ID)
    for row, ship in zip(rows, shipped):
        four = [Fraction(row[sid]) for sid, _ in workloads.SYMPTOMS]
        assert all(-1 <= v <= 3 and (v * 4).denominator == 1 for v in four)
        assert sum(four) / 4 == Fraction(ship[merged])
    doc = json.loads(files["questionnaire"].read_text())
    assert "merge_rules" not in doc
    assert workloads.case_count(doc) == 12288
    assert workloads.case_count(workloads.shipped_questionnaire()) == 1536


def test_patients_are_admissible_and_cover_none_and_multi_symptom(tmp_path):
    files = workloads.write_inputs("patient-cli", 5, tmp_path)
    doc = json.loads(files["patients"].read_text())
    reference = checks.load_reference()
    assert all(" ".join(p) in reference for p in doc["patients"])
    first, second = doc["patients"][:2]
    assert "a_1_q1" in first
    assert sum(a.endswith("_q1") for a in second) >= 2


def _span(name, start, end, parent=None, **counters):
    return Span(name, float(start), float(end), parent, counters)


def test_self_time_subtracts_the_union_of_child_intervals():
    spans = [
        _span("prepare", 0, 10),
        _span("select_component_count", 1, 3, 0),
        _span("em_fit", 1, 2, 1),  # a grandchild is not subtracted again
        _span("from_data", 2, 4, 0),  # overlaps its sibling by 1
        _span("elicit_probabilities", 6, 7, 0),
        _span("build_lattice", 9, 12, 0),  # clipped to the parent's end
    ]
    assert self_time(spans, 0) == pytest.approx(10 - 3 - 1 - 1)
    assert self_time(spans, 1) == pytest.approx(1)
    assert self_time(spans, 2) == pytest.approx(1)


def test_layer_metrics_on_a_hand_built_tree():
    spans = [
        _span("prepare", 0, 20),
        _span("select_component_count", 1, 9, 0),
        _span("em_fit", 1, 4, 1, em_iterations=30, em_unconverged=0),
        _span("em_fit", 4, 8, 1, em_iterations=10000, em_unconverged=1),
        _span("em_fit", 9, 11, 0, em_iterations=30, em_unconverged=0),
        _span("build_lattice", 12, 18, 0, n_concepts=5, n_edges=7),
        _span("enumerate_concepts", 12, 14, 5),
    ]
    m = layer_metrics(spans)
    assert m["pipeline.prepare_s"] == 20
    assert m["pipeline.prepare.self_s"] == pytest.approx(20 - 8 - 2 - 6)
    assert m["density.select.self_s"] == pytest.approx(1)
    assert m["density.em_fit_s"] == pytest.approx(9)
    assert m["density.em_fit_calls"] == 3
    assert m["density.em_iterations"] == 10060
    assert m["density.em_unconverged"] == 1
    assert m["density.self_s"] == pytest.approx(10)
    assert m["fca.concepts_s"] == pytest.approx(2)
    assert m["fca.lattice_s"] == pytest.approx(4)
    assert m["fca.self_s"] == pytest.approx(6)
    assert m["fca.n_concepts"] == 5
    assert m["cli.main_s"] == 0 and m["tree.nodes_full"] == 0


def test_tracer_wraps_every_namespace_and_restores_them():
    import emprob.density
    import emprob.pipeline

    original = emprob.density.em_fit
    x = np.linspace(0.0, 1.0, 50)
    with tracing.Tracer() as tracer:
        assert emprob.pipeline.em_fit is emprob.density.em_fit is not original
        emprob.density.select_component_count(x, m_max=2)
        emprob.density.KernelDensityEstimate.from_data(x)
    assert emprob.pipeline.em_fit is emprob.density.em_fit is original
    assert not tracer.missing and len(tracer.wrapped) == len(tracing.TARGETS)
    names = [s.name for s in tracer.spans]
    assert names == ["select_component_count", "em_fit", "em_fit", "from_data"]
    assert [s.parent for s in tracer.spans] == [None, 0, 0, None]


def test_tracer_reports_a_missing_function(monkeypatch):
    monkeypatch.setattr(tracing, "TARGETS", tracing.TARGETS + (
        ("density", "emprob.density", "no_such_function", None),
        ("density", "emprob.no_such_module", "em_fit", None),
    ))
    with tracing.Tracer() as tracer:
        pass
    assert tracer.missing == ["emprob.density.no_such_function", "emprob.no_such_module.em_fit"]


def test_benchmark_json_names_what_the_runs_report():
    spec = json.loads(BENCHMARK_JSON.read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run_bench.E2E_UNITS
    traced = set(layer_metrics([])) | set(run_bench.TRACE_EXTRA)
    assert {m["name"] for m in spec["per_layer"]} == traced
    assert {w["name"] for w in spec["workloads"]} <= set(workloads.WORKLOADS)


# --- failure accounting, with emprob replaced by fakes -------------------

def _fake_report_emprob(score: str = "0.5"):
    """An emprob stand-in whose report writes the 35-file set for 1,536
    cases, every score equal to `score`."""
    def write_artifacts(result, out):
        out = Path(out)
        out.mkdir(parents=True)
        for name in checks.expected_artifacts(result.bands):
            (out / name).write_text("x\n")
        rows = [",".join(checks.SCORE_KEYS)] + [",".join([score] * 3)] * 1536
        (out / "scores.csv").write_text("\n".join(rows) + "\n")

    cfg = SimpleNamespace(bands=tuple((i / 10, (i + 1) / 10) for i in range(10)))
    pipeline = SimpleNamespace(PipelineConfig=lambda: cfg, prepare=lambda c: c,
                               write_artifacts=write_artifacts)
    return SimpleNamespace(pipeline=pipeline)


def _report_run(tmp_path, emprob):
    return run_bench.Run("report-default", tmp_path, {}, emprob)


def test_a_correct_report_passes(tmp_path):
    metrics, _ = run_bench.run_untraced(_report_run(tmp_path, _fake_report_emprob()), 0)
    assert metrics["pass_ratio"] == 1.0


def test_a_score_outside_the_unit_interval_fails(tmp_path):
    run = _report_run(tmp_path, _fake_report_emprob(score="1.5"))
    metrics, _ = run_bench.run_untraced(run, 0)
    assert metrics["pass_ratio"] == 0.0 and run.failed == run.attempted == run_bench.MIN_OPS


def test_an_artifact_that_changes_between_ops_fails(tmp_path):
    emprob = _fake_report_emprob()
    run = _report_run(tmp_path, emprob)
    run.report_op()
    emprob.pipeline.write_artifacts = _fake_report_emprob(score="0.25").pipeline.write_artifacts
    run.report_op()
    assert (run.attempted, run.failed) == (2, 1)
    assert "differ from the run's first operation" in run.failures[0]


def test_a_crashing_op_fails(tmp_path):
    emprob = _fake_report_emprob()
    emprob.pipeline.prepare = lambda cfg: 1 / 0
    run = _report_run(tmp_path, emprob)
    assert run.report_op() is None
    assert (run.attempted, run.failed) == (1, 1)


def _patient_run(tmp_path, doc_for):
    """A patient-cli run whose in-process cli.main prints doc_for(answers)."""
    inputs = workloads.write_inputs("patient-cli", 1, tmp_path / "inputs")

    def main(argv):
        print(json.dumps(doc_for(argv[1].split(","))))
        return 0

    return run_bench.Run("patient-cli", tmp_path, inputs,
                         SimpleNamespace(cli=SimpleNamespace(main=main)))


def _reference_doc(answers):
    ref = checks.load_reference()[" ".join(sorted(answers))]
    exact = workloads.exact_mean_weights()
    return {"answers": sorted(answers), "raw_sum": float(sum(exact[a] for a in answers)),
            "category": checks.category_of(ref["p_gmm_cdf"], workloads.THRESHOLDS), **ref}


def test_a_reference_patient_row_passes(tmp_path):
    run = _patient_run(tmp_path, _reference_doc)
    assert run.patient_inprocess_op() is not None
    assert (run.attempted, run.failed) == (1, 0)


@pytest.mark.parametrize("corrupt", [
    lambda d: {**d, "p_posterior": d["p_posterior"] - 0.05 if d["p_posterior"] > 0.5
               else d["p_posterior"] + 0.05},
    lambda d: {**d, "raw_sum": d["raw_sum"] + 1 / 60},
    lambda d: {**d, "category": "HIGH" if d["category"] != "HIGH" else "LOW"},
    lambda d: {k: v for k, v in d.items() if k != "p_kde_cdf"},
])
def test_a_wrong_patient_row_fails(tmp_path, corrupt):
    run = _patient_run(tmp_path, lambda answers: corrupt(_reference_doc(answers)))
    run.patient_inprocess_op()
    assert (run.attempted, run.failed) == (1, 1)


def test_a_nonzero_exit_fails():
    assert checks.check_patient("", 2, ["a_1_q1"], {}, {}) == ["exit code 2"]
