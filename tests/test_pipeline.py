import dataclasses
import filecmp
import json

import numpy as np
import pytest

from emprob import pipeline
from emprob import (
    DEFAULT_BANDS,
    PipelineConfig,
    SILVERMAN_CONVENTIONS,
    ValidationError,
    band_tag,
    categorize_array,
    em_fit,
    fit_report_document,
    load_inputs,
    node_count,
    prepare,
    run_pipeline,
    write_artifacts,
)
from reference_data import unmerged_questionnaire_doc, unmerged_weight_matrix
from test_cases import RAW_MAX, RAW_MIN

CHEAP = dict(n_components=1, m_max=1, density_samples=11,
             bands=((0.0, 0.5), (0.5, 1.0)))


@pytest.fixture(scope="module")
def prepared():
    """The default prepare(), with the component count of every EM fit it
    ran."""
    fitted = []

    def counting_em_fit(data, m, **kwargs):
        fitted.append(m)
        return em_fit(data, m, **kwargs)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(pipeline, "em_fit", counting_em_fit)
        result = prepare(PipelineConfig())
    return result, fitted


@pytest.fixture(scope="module")
def result(prepared):
    return prepared[0]


def expected_artifact_names(cfg):
    names = {"scores.csv", "fit_report.json", "density_samples.csv",
             "tree_full.dot", "tree_pruned.dot"}
    for band in cfg.bands:
        tag = band_tag(band)
        names |= {f"band_{tag}.cxt", f"lattice_{tag}.dot", f"supports_{tag}.csv"}
    return names


def test_default_bands_are_deciles():
    assert DEFAULT_BANDS == tuple((i / 10, (i + 1) / 10) for i in range(10))
    assert PipelineConfig().bands == DEFAULT_BANDS


def test_config_defaults():
    cfg = PipelineConfig()
    assert cfg.n_components == 2
    assert cfg.m_max == 4
    assert cfg.thresholds == (0.33, 0.68)
    assert cfg.band_approach == 1
    assert cfg.prune_alpha == 0.01
    assert cfg.em_tol == 1e-9
    assert cfg.em_max_iter == 10000
    assert cfg.density_samples == 1001
    assert cfg.output_dir == "out"
    assert cfg.questionnaire_path is None and cfg.weights_path is None


@pytest.mark.parametrize("overrides", [
    {"thresholds": (0.9, 0.1)},
    {"thresholds": (0.0, 0.5)},
    {"bands": ((-0.1, 0.5),)},
    {"bands": ((0.2, 1.2),)},
    {"bands": ((0.5, 0.5),)},
    {"band_approach": 4},
    {"n_components": 0},
    {"m_max": 0},
    {"prune_alpha": -0.5},
    {"density_samples": 1},
    {"min_samples_leaf": 0},
])
def test_config_validation_errors(overrides):
    with pytest.raises(ValidationError):
        PipelineConfig(**overrides)


def test_config_from_mapping():
    cfg = PipelineConfig.from_mapping({
        "thresholds": [0.2, 0.8],
        "bands": [[0.0, 0.5], [0.5, 1.0]],
        "n_components": None,
        "output_dir": "elsewhere",
    })
    assert cfg.thresholds == (0.2, 0.8)
    assert cfg.bands == ((0.0, 0.5), (0.5, 1.0))
    assert cfg.n_components is None
    assert cfg.output_dir == "elsewhere"


def test_config_from_mapping_rejects_unknown_keys():
    with pytest.raises(ValidationError, match="unknown config keys"):
        PipelineConfig.from_mapping({"n_component": 2})


def test_config_from_file(tmp_path):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"prune_alpha": 0.05, "m_max": 3}))
    cfg = PipelineConfig.from_file(path)
    assert cfg == PipelineConfig(prune_alpha=0.05, m_max=3)
    path.write_text(json.dumps([1, 2, 3]))
    with pytest.raises(ValidationError):
        PipelineConfig.from_file(path)


def test_band_tag_format():
    assert band_tag((0.0, 0.1)) == "0_0.1"
    assert band_tag((0.5, 1.0)) == "0.5_1"
    assert band_tag((0.25, 0.75)) == "0.25_0.75"


def test_load_inputs_defaults():
    questionnaire, wm = load_inputs(PipelineConfig())
    assert len(questionnaire.answer_ids) == 19
    assert len(wm.doctors) == 15
    assert questionnaire.case_count() == 1536


def test_load_inputs_config_merge_rule():
    rule = {
        "source_answer_ids": ["a_3_q1", "a_4_q1"],
        "merged_answer": {"id": "a_34_q1", "label": "Joint pain/ Itching"},
    }
    questionnaire, wm = load_inputs(PipelineConfig(merge_rules=(rule,)))
    assert len(questionnaire.answer_ids) == 18
    assert "a_34_q1" in questionnaire.answer_ids
    assert questionnaire.case_count() == 4 * 4 * 3 * 2 * 4 * 2

    base_q, base_wm = load_inputs(PipelineConfig())
    joint = base_wm.values[:, base_wm.answer_ids.index("a_3_q1")]
    itch = base_wm.values[:, base_wm.answer_ids.index("a_4_q1")]
    merged = wm.values[:, wm.answer_ids.index("a_34_q1")]
    np.testing.assert_allclose(merged, (joint + itch) / 2, rtol=0, atol=1e-12)


def test_load_inputs_embedded_merge_rule(tmp_path):
    q_path = tmp_path / "questionnaire.json"
    q_path.write_text(json.dumps(unmerged_questionnaire_doc()))
    uwm = unmerged_weight_matrix()
    lines = ["doctor," + ",".join(uwm.answer_ids)]
    for d, row in zip(uwm.doctors, uwm.values):
        lines.append(d + "," + ",".join(repr(float(v)) for v in row))
    w_path = tmp_path / "weights.csv"
    w_path.write_text("\n".join(lines) + "\n")

    cfg = PipelineConfig(questionnaire_path=str(q_path), weights_path=str(w_path))
    questionnaire, wm = load_inputs(cfg)
    base_q, base_wm = load_inputs(PipelineConfig())
    assert questionnaire.answer_ids == base_q.answer_ids
    assert wm.answer_ids == base_wm.answer_ids
    np.testing.assert_array_equal(wm.values, base_wm.values)


def test_prepare_default_result(result):
    assert result.gmm.n_components == 2
    assert result.kde.n_points == 1536
    assert result.kde.bandwidth == 0.037185163136342486
    assert len(result.selection.reports) == 4
    assert result.selection.aic_best_m == 2
    assert result.selection.bic_best_m == 1
    assert not result.selection.criteria_agree
    assert result.tree_full.split_answer_id == "a_1_q3"
    assert node_count(result.tree_pruned) < node_count(result.tree_full)
    assert tuple(band for band, _ in result.band_contexts) == DEFAULT_BANDS
    assert tuple(band for band, _ in result.lattices) == DEFAULT_BANDS


def test_prepare_fits_each_mixture_once(prepared):
    # the selection fits m = 1..4 and the chosen m=2 mixture reuses its fit
    result, fitted = prepared
    assert sorted(fitted) == [1, 2, 3, 4]
    assert result.gmm_report is result.selection.reports[1]


def test_pipeline_result_is_lazy(monkeypatch):
    def never(*args, **kwargs):
        raise AssertionError("stage computed without being read")

    for name in ("load_inputs", "em_fit", "fit_decision_tree", "build_lattice"):
        monkeypatch.setattr(pipeline, name, never)
    res = pipeline.PipelineResult(PipelineConfig())
    assert res.config == PipelineConfig()
    with pytest.raises(AssertionError, match="without being read"):
        res.questionnaire


def test_prepare_band_counts_partition_cases(result):
    sizes = [ctx.n_objects for _, ctx in result.band_contexts]
    assert sum(sizes) == 1536
    scores = result.table.score_gmm_cdf
    for (lo, hi), ctx in result.band_contexts:
        mask = (scores >= lo) & (scores < hi)
        if hi == 1.0:
            mask |= scores == 1.0
        assert ctx.n_objects == int(mask.sum())


def test_prepare_category_matches_thresholds(result):
    np.testing.assert_array_equal(
        result.table.category,
        categorize_array(result.table.score_gmm_cdf, result.config.thresholds),
    )


def test_prepare_auto_component_count():
    cfg = PipelineConfig.from_mapping({**CHEAP, "n_components": None, "m_max": 2})
    res = prepare(cfg)
    assert res.gmm.n_components == res.selection.best_m


def test_fit_report_document(result):
    doc = fit_report_document(result)
    assert doc["n_observations"] == 1536
    assert doc["normalization"] == {"raw_min": RAW_MIN, "raw_max": RAW_MAX}
    assert doc["thresholds"] == [0.33, 0.68]
    assert doc["selected_components"] == 2
    sel = doc["selection"]
    assert sel["aic_best_m"] == 2 and sel["bic_best_m"] == 1
    assert [c["n_components"] for c in sel["candidates"]] == [1, 2, 3, 4]
    assert doc["gmm"]["weights"] == [float(w) for w in result.gmm.weights]
    assert doc["kde"]["bandwidth"] == result.kde.bandwidth
    assert doc["kde"]["conventions"] == dict(SILVERMAN_CONVENTIONS)
    json.dumps(doc)  # must be serializable as-is


def test_write_artifacts_file_set(result, tmp_path):
    paths = write_artifacts(result, tmp_path)
    assert {p.name for p in paths} == expected_artifact_names(result.config)
    assert len(paths) == 35
    for p in paths:
        assert p.exists() and p.parent == tmp_path
    listed = {p.name for p in tmp_path.iterdir()}
    assert listed == expected_artifact_names(result.config)


def test_write_artifacts_deterministic(result, tmp_path):
    first = write_artifacts(result, tmp_path / "a")
    second = write_artifacts(result, tmp_path / "b")
    for pa, pb in zip(first, second):
        assert pa.name == pb.name
        assert filecmp.cmp(pa, pb, shallow=False), pa.name


def test_run_pipeline_rerun_byte_identical(tmp_path):
    cfg = PipelineConfig(**CHEAP, output_dir=str(tmp_path / "a"))
    run_pipeline(cfg)
    run_pipeline(dataclasses.replace(cfg, output_dir=str(tmp_path / "b")))
    names = expected_artifact_names(cfg)
    assert {p.name for p in (tmp_path / "a").iterdir()} == names
    for name in names:
        assert filecmp.cmp(tmp_path / "a" / name, tmp_path / "b" / name,
                           shallow=False), name
