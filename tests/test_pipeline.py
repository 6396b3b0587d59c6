import ast
import csv
import dataclasses
import filecmp
import hashlib
import json
from importlib.resources import files
from pathlib import Path

import numpy as np
import pytest

from emprob import fca, pipeline, tree
from emprob.scoring import APPROACHES
from emprob import (
    DEFAULT_BANDS,
    PipelineConfig,
    SILVERMAN_CONVENTIONS,
    ValidationError,
    band_tag,
    build_band_context,
    build_lattice,
    categorize_array,
    context_to_cxt,
    density_samples_to_csv,
    em_fit,
    enumerate_cases,
    fit_report_document,
    lattice_to_dot,
    load_inputs,
    node_count,
    prepare,
    score_patient,
    scores_to_csv,
    supports_to_csv,
    tree_to_dot,
    write_artifacts,
)
from reference_data import (
    CHAINED_Q2_RULES,
    UNMERGED_SYMPTOM_IDS,
    unmerged_weight_matrix,
    write_unmerged_inputs,
)
from test_cases import RAW_MAX, RAW_MIN

CHEAP = dict(n_components=1, m_max=1, bands=((0.0, 0.5), (0.5, 1.0)))


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
    {"prune_alpha": float("nan")},
    {"band_approach": 0},
    # a bound is a real number, and a bool or a numeric string is none
    {"bands": ((False, True),)},
    {"bands": (("0", "0.5"),)},
    {"bands": ((0.0, True),)},
    {"thresholds": ("1e-1", "5e-1")},
    {"thresholds": (False, 0.5)},
])
def test_config_validation_errors(overrides):
    with pytest.raises(ValidationError):
        PipelineConfig(**overrides)


def test_config_takes_numpy_bounds():
    cfg = PipelineConfig(bands=((np.float64(0.0), np.float32(0.5)), (np.int64(0), 1)),
                         thresholds=(np.float64(0.25), np.float32(0.5)))
    assert cfg.bands == ((0.0, 0.5), (0.0, 1.0))
    assert cfg.thresholds == (0.25, 0.5)
    assert all(type(v) is float for v in (*cfg.thresholds, *cfg.bands[0], *cfg.bands[1]))


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
    # merge rules come only from the questionnaire document
    for doc in ({"n_component": 2}, {"merge_rules": []}):
        with pytest.raises(ValidationError, match="unknown config keys"):
            PipelineConfig.from_mapping(doc)


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
    assert len(enumerate_cases(questionnaire)) == 1536


def test_load_inputs_merge_rule_on_the_shipped_schema(tmp_path):
    """A merge rule embedded in a copy of the shipped questionnaire merges
    the shipped weights."""
    doc = json.loads((files("emprob.data") / "questionnaire.json").read_text())
    doc["merge_rules"] = [{
        "source_answer_ids": ["a_3_q1", "a_4_q1"],
        "merged_answer": {"id": "a_34_q1", "label": "Joint pain/ Itching"},
    }]
    (tmp_path / "questionnaire.json").write_text(json.dumps(doc))
    questionnaire, wm = load_inputs(
        PipelineConfig(questionnaire_path=str(tmp_path / "questionnaire.json")))
    assert len(questionnaire.answer_ids) == 18
    assert "a_34_q1" in questionnaire.answer_ids
    assert len(enumerate_cases(questionnaire)) == 4 * 4 * 3 * 2 * 4 * 2

    base_q, base_wm = load_inputs(PipelineConfig())
    joint = base_wm.values[:, base_wm.answer_ids.index("a_3_q1")]
    itch = base_wm.values[:, base_wm.answer_ids.index("a_4_q1")]
    merged = wm.values[:, wm.answer_ids.index("a_34_q1")]
    np.testing.assert_allclose(merged, (joint + itch) / 2, rtol=0, atol=1e-12)


def test_load_inputs_embedded_merge_rule(tmp_path):
    inputs = write_unmerged_inputs(tmp_path)
    questionnaire, wm = load_inputs(PipelineConfig(**inputs))
    base_q, base_wm = load_inputs(PipelineConfig())
    assert questionnaire.answer_ids == base_q.answer_ids
    assert wm.answer_ids == base_wm.answer_ids
    np.testing.assert_array_equal(wm.values, base_wm.values)

    # a later rule may name an earlier rule's merged answer
    rule = {"source_answer_ids": ["a_2_q1", "a_3_q1"],
            "merged_answer": {"id": "a_23_q1", "label": "Symptoms or joint pain"}}
    doc = json.loads(Path(inputs["questionnaire_path"]).read_text())
    doc["merge_rules"].append(rule)
    (tmp_path / "chained.json").write_text(json.dumps(doc))
    sources = [base_wm.answer_ids.index(a) for a in ("a_2_q1", "a_3_q1")]
    questionnaire, wm = load_inputs(
        PipelineConfig(**{**inputs, "questionnaire_path": str(tmp_path / "chained.json")}))
    assert [a.id for a in questionnaire.questions[0].answers] == ["a_1_q1", "a_23_q1", "a_4_q1"]
    np.testing.assert_array_equal(wm.values[:, 1], base_wm.values[:, sources].mean(axis=1))


def test_load_inputs_chained_merge_rules(tmp_path):
    """Rules whose sources are all earlier rules' merged answers: q2's four
    answers become m3, weighted by the mean of the four source weights.
    The shipped q2 weights are whole numbers, so every mean is exact."""
    doc = json.loads((files("emprob.data") / "questionnaire.json").read_text())
    doc["merge_rules"] = CHAINED_Q2_RULES
    (tmp_path / "questionnaire.json").write_text(json.dumps(doc))
    questionnaire, wm = load_inputs(
        PipelineConfig(questionnaire_path=str(tmp_path / "questionnaire.json")))
    assert [a.id for a in questionnaire.questions[1].answers] == ["m3"]
    base_q, base_wm = load_inputs(PipelineConfig())
    sources = [base_wm.answer_ids.index(f"a_{k}_q2") for k in range(1, 5)]
    merged = wm.values[:, wm.answer_ids.index("m3")]
    np.testing.assert_array_equal(merged, base_wm.values[:, sources].sum(axis=1) / 4)


@pytest.mark.parametrize("order", ["reversed", "rotated"])
def test_load_inputs_accepts_weight_columns_in_any_order(tmp_path, order):
    """Weights are matched to the questionnaire by answer id, not position."""
    n = len(unmerged_weight_matrix().answer_ids)
    columns = list(range(n))[::-1] if order == "reversed" else [*range(5, n), *range(5)]
    (tmp_path / "permuted").mkdir()
    permuted = PipelineConfig(**write_unmerged_inputs(tmp_path / "permuted", columns))
    questionnaire, wm = load_inputs(permuted)
    base_q, base_wm = load_inputs(PipelineConfig(**write_unmerged_inputs(tmp_path)))
    assert questionnaire == base_q
    assert wm.answer_ids == base_wm.answer_ids == questionnaire.answer_ids
    np.testing.assert_array_equal(wm.values, base_wm.values)


def test_load_inputs_validates_weights_before_merging(tmp_path):
    wm = unmerged_weight_matrix()
    values = wm.values.copy()
    symptoms = [wm.answer_ids.index(a) for a in UNMERGED_SYMPTOM_IDS]
    # one source weight out of range; the merged mean stays 0.75, as shipped
    values[wm.doctors.index("d_4"), symptoms] = (3.5, -0.5, 0.5, -0.5)
    cfg = PipelineConfig(**write_unmerged_inputs(tmp_path, weights=dataclasses.replace(
        wm, values=values)))
    with pytest.raises(ValidationError, match="weight 3.5 for doctor 'd_4'"):
        load_inputs(cfg)


def test_prepare_default_result(result):
    assert result.gmm.n_components == 2
    assert result.kde.n_points == 1536
    assert result.kde.bandwidth == 0.03718516313634248
    assert len(result.selection.reports) == 4
    assert result.selection.aic_best_m == 2
    assert result.selection.bic_best_m == 1
    assert not result.selection.criteria_agree
    assert result.tree_full.split_answer_id == "a_1_q3"
    assert node_count(result.tree_pruned) < node_count(result.tree_full)
    assert tuple(band for band, _ in result.lattices) == DEFAULT_BANDS


# per default band: concepts, covering edges, and the SHA-256 of its
# lattice DOT file, from an independent O(n^2) cover search (13,683
# concepts and 52,858 edges in all)
DEFAULT_LATTICES = {
    "0_0.1": (886, 3371, "29e2e3f31ece1572127c87e03f05c10e07480434af5415f43339776670dc690e"),
    "0.1_0.2": (1175, 4436, "fc7a44f1491c5ceeda0fe925df9fa50445b4373d1574e420b0e355956ccdeb4c"),
    "0.2_0.3": (1495, 5790, "0564811e6d555f03b7d42a08a700f6d980f7f85e5ad97c6b8683e0bd597eaea0"),
    "0.3_0.4": (1590, 6134, "19ecddcbb6d6fcdba9410db2a8e24e54bd14d7dc0832043759f37f4659aeaf0c"),
    "0.4_0.5": (1671, 6474, "41e2323fff938408eecf823d370262bb0a8c0ac1bb72271da5891ee2b4f97074"),
    "0.5_0.6": (1582, 6084, "823b67c0a9335db3b7c049e1cc08c7e6653ae5b7230c2a733950db69e1333691"),
    "0.6_0.7": (1621, 6326, "f75d975dadf060be5b28bb5dce631e16ac48e483f9ff560ca395274184019a58"),
    "0.7_0.8": (1629, 6422, "2c4e1a497ecf1d86b33ff32ebb8671de531482db3273f39c7a86f6eed1cdc14b"),
    "0.8_0.9": (1160, 4402, "f16b8150d52afc9e46d39d16434fd042fb1f4fdf7630574cbd10bb303bb2e786"),
    "0.9_1": (874, 3419, "aed9f469f53d77e18dbd9664b427bd86cf2b2ac7794e6131c1f3fb1a5be41a9a"),
}


# per default band: the SHA-256 of its context (CXT) and supports (CSV)
# files, as written before the writers rendered from byte arrays
DEFAULT_BAND_FILES = {
    "0_0.1": (
        "5ba2646ab0422977950d7e6493bb72f8647f1130427219fdc3225c5430f50e74",
        "fdc85b6fa426132805910586fbc9d1df6bd9ed54a337989b3ec98de81cd5e4be",
    ),
    "0.1_0.2": (
        "73696eb0766d7854d872c393d0a5a03aca559f7e21bff42294cf53049aa5c50b",
        "712712409f38697d09e51280642fb50a80b900cfc677d99179674ac2a6572447",
    ),
    "0.2_0.3": (
        "5b9160291493f9ae0e3d8e9c71bcce68574bf685e3ac2a7677d07b508759835e",
        "5539cfdfa77c7f3fb8b90886a7cdcd3b757b5c41a68b9f7ac47ad1c6dea6e5b8",
    ),
    "0.3_0.4": (
        "f2d24a0021d6620577d8feabc10d6e97c68f690ead691a91bb25d6c93bac74e8",
        "121e22e74cffb859287884d87c9ee704a84e50575d780a97794cd28a677287ef",
    ),
    "0.4_0.5": (
        "a394dd7c4a4df1514088831b6c9b463599a7999557d883623e52fef4af4427ce",
        "6b038cf0f57b590534dcd59d22abc449c3f562ba0c85071a9b077a634c7d0c58",
    ),
    "0.5_0.6": (
        "37b7b782135cc31a08a2c1706926bdcd2f4e24098d25fde4460f0dd0d7efd808",
        "d7c174f2f54972c398c0052a40192e005308e70d35f3631ac2b79a11142cd1a9",
    ),
    "0.6_0.7": (
        "41eda077b51a963b9f7002a2b701a3fe3ac93a9beef97b48cb95f5994e975c13",
        "f5d7512cee2f8ba05253dc8c6f0b1d9114cca8df9cd0009b53f481ab1ee88c92",
    ),
    "0.7_0.8": (
        "04d91b25309e9b0e9e7e2e3aff5e5203f154da1752dca9729460263f62b45e4e",
        "6a5a09a9fd82857444d9368b3cefbdb0c1c49358fdf6332aaa5a438e1d8aec03",
    ),
    "0.8_0.9": (
        "415dfa801cf2b625f4acc05a62ec0dade7dd9c82e350ec43cfb7062162881a69",
        "cc5038187363392a694f210cc50356cd58be213f1e5f95a7518e680da2288759",
    ),
    "0.9_1": (
        "cd4fd60cfe32c80478499ccd29025241e15086c4aa2cb98af978638c127313f7",
        "23e349aed8e6f676cc3e13bf4047a5c9103ede006ae0196bf1c8c76bf3a9c839",
    ),
}


def test_default_lattices_match_reference(result, tmp_path):
    got = {band_tag(band): (len(lattice.concepts), len(lattice.edges))
           for band, lattice in result.lattices}
    assert got == {tag: sizes[:2] for tag, sizes in DEFAULT_LATTICES.items()}
    pipeline.write_lattices(result, tmp_path)
    for tag, (_, _, digest) in DEFAULT_LATTICES.items():
        dot = (tmp_path / f"lattice_{tag}.dot").read_bytes()
        assert hashlib.sha256(dot).hexdigest() == digest, tag
    for tag, digests in DEFAULT_BAND_FILES.items():
        written = (tmp_path / f"band_{tag}.cxt", tmp_path / f"supports_{tag}.csv")
        assert tuple(hashlib.sha256(f.read_bytes()).hexdigest() for f in written) == digests, tag


def test_one_band_lattice_matches_reference(result):
    """All 1,536 cases as one band: the largest lattice of the shipped data
    (8,101 concepts, 41,919 edges), with the SHA-256 of its DOT text."""
    ctx = build_band_context(result.table, (0.0, 1.0))
    lattice = build_lattice(ctx)
    assert (ctx.n_objects, len(lattice.intents), len(lattice.covers)) == (1536, 8101, 41919)
    digest = hashlib.sha256(lattice_to_dot(lattice).encode()).hexdigest()
    assert digest == "3421aebfbd59e06cd1eb9f8553fa5e40f98796892b1d97ae8c8e7f145e6aa8cb"


# SHA-256 of the default trees' DOT files and of the category column of
# scores.csv (labels joined by newlines), from the fits before each EM cycle
# ended in a Newton step: the refined optimum moves no category
DEFAULT_TREE_DIGESTS = {
    "tree_full.dot": "704ceaf8ce9ade18f1ac67b19fd5fe45009d2cd41fdc0528e59f98c322a5a1bb",
    "tree_pruned.dot": "cd1812f484281119e5d09aa61152c60d600c86c07f09ddea79e6459305e07d0a",
}
DEFAULT_CATEGORY_DIGEST = "a4747bd58d12947a1a8fc0660b3560cee465204edd3b573b4949870684e92b45"


def test_default_trees_and_categories_match_reference(result, tmp_path):
    pipeline.write_trees(result, tmp_path)
    for name, digest in DEFAULT_TREE_DIGESTS.items():
        assert hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() == digest, name
    pipeline.write_scores(result, tmp_path)
    with open(tmp_path / "scores.csv", newline="") as fh:
        labels = [row["category"] for row in csv.DictReader(fh)]
    assert len(labels) == 1536
    assert hashlib.sha256("\n".join(labels).encode()).hexdigest() == DEFAULT_CATEGORY_DIGEST


@pytest.fixture(scope="module")
def default_files(result, tmp_path_factory):
    """The 35 default artifacts by file name."""
    out = tmp_path_factory.mktemp("default")
    return {path.name: path.read_bytes() for path in write_artifacts(result, out)}


def files_from_weights(tmp_path, edit):
    """The 35 artifacts of a run on the shipped weights file with its doctor
    rows passed through ``edit``."""
    header, *rows = (files("emprob.data") / "weights.csv").read_text().splitlines()
    weights = tmp_path / "weights.csv"
    weights.write_text("\n".join([header, *edit(rows)]) + "\n")
    result = prepare(PipelineConfig(weights_path=str(weights)))
    return {path.name: path.read_bytes() for path in write_artifacts(result, tmp_path / "out")}


def changed_files(got, expected):
    assert got.keys() == expected.keys()
    return {name for name in got if got[name] != expected[name]}


# Mean weights and case sums are exact (the shipped weights are quarter
# points), so no whole-run result depends on the order or multiplicity of
# the doctors, and halving every weight scales only the raw sums.
def test_reversed_doctor_rows_keep_the_trees(tmp_path, default_files):
    """Reversing the doctors moves no byte of any of the 35 files."""
    assert changed_files(files_from_weights(tmp_path, lambda rows: rows[::-1]),
                         default_files) == set()


def test_every_doctor_listed_twice_keeps_every_file(tmp_path, default_files):
    def twice(rows):
        return rows + [row.replace(",", "_copy,", 1) for row in rows]

    assert changed_files(files_from_weights(tmp_path, twice), default_files) == set()


def test_halved_weights_halve_only_the_raw_sums(tmp_path, default_files):
    def halved(rows):
        return [",".join([doctor, *(repr(float(w) / 2) for w in weights)])
                for doctor, *weights in (row.split(",") for row in rows)]

    got = files_from_weights(tmp_path, halved)
    assert changed_files(got, default_files) == {"scores.csv", "fit_report.json"}
    half, full = (list(csv.DictReader(f["scores.csv"].decode().splitlines()))
                  for f in (got, default_files))
    assert len(half) == len(full) == 1536
    for h, f in zip(half, full):
        assert float(h.pop("raw_sum")) == float(f.pop("raw_sum")) / 2
        assert h == f
    half, full = (json.loads(f["fit_report.json"]) for f in (got, default_files))
    for key in ("raw_min", "raw_max"):
        assert half["normalization"].pop(key) == full["normalization"].pop(key) / 2
    assert half == full


def test_reversed_questions_keep_the_tree_sizes(tmp_path, result):
    """Reversing the questions reverses the answer columns.  Every case keeps
    its row, scores and category bit for bit, and the trees keep their sizes
    and root, but Gini ties resolve to the lowest answer index, so some split
    labels move."""
    doc = json.loads((files("emprob.data") / "questionnaire.json").read_text())
    doc["questions"].reverse()
    questionnaire = tmp_path / "questionnaire.json"
    questionnaire.write_text(json.dumps(doc))
    reversed_result = prepare(PipelineConfig(questionnaire_path=str(questionnaire)))
    assert reversed_result.case_set.answer_ids[0] == "a_1_q6"
    assert node_count(reversed_result.tree_full) == 679
    assert node_count(reversed_result.tree_pruned) == 25
    assert reversed_result.tree_full.split_answer_id == "a_1_q3"
    assert reversed_result.kde.bandwidth == result.kde.bandwidth
    for i in range(len(result.case_set)):
        case = result.case_set.case(i)
        rows = [score_patient(case, r.sum_table, r.gmm, r.kde) for r in (reversed_result, result)]
        assert rows[0] == rows[1]


def test_equal_sums_get_identical_scores(result):
    """Cases whose sums are equal (on the shipped 1/60 grid) get equal
    scores, bit for bit, under every approach."""
    table = result.table
    grid = np.rint(table.raw_sums * 60)
    assert np.unique(grid).size == 364
    for approach in APPROACHES:
        assert len(set(zip(grid, table.scores_by_approach(approach)))) == 364, approach


def test_prepare_fits_each_mixture_once(prepared):
    # the selection fits m = 1..4 and the chosen m=2 mixture reuses its fit
    result, fitted = prepared
    assert sorted(fitted) == [1, 2, 3, 4]
    assert result.gmm_report is result.selection.reports[1]


def test_pipeline_result_is_lazy(monkeypatch):
    def never(*args, **kwargs):
        raise AssertionError("stage computed without being read")

    for owner, name in ((pipeline, "load_inputs"), (pipeline, "em_fit"),
                        (tree, "fit_decision_tree"), (fca, "build_lattice")):
        monkeypatch.setattr(owner, name, never)
    res = pipeline.PipelineResult(PipelineConfig())
    assert res.config == PipelineConfig()
    with pytest.raises(AssertionError, match="without being read"):
        res.questionnaire


def test_prepare_band_counts_partition_cases(result):
    sizes = [lattice.context.n_objects for _, lattice in result.lattices]
    assert sum(sizes) == 1536
    scores = result.table.score_gmm_cdf
    for (lo, hi), lattice in result.lattices:
        mask = (scores >= lo) & (scores < hi)
        if hi == 1.0:
            mask |= scores == 1.0
        assert lattice.context.n_objects == int(mask.sum())


def test_prepare_category_matches_thresholds(result):
    np.testing.assert_array_equal(
        result.table.category,
        categorize_array(result.table.score_gmm_cdf, result.config.thresholds),
    )


def test_prepare_auto_component_count():
    cfg = PipelineConfig.from_mapping({**CHEAP, "n_components": None, "m_max": 2})
    res = prepare(cfg)
    assert res.gmm.n_components == res.selection.bic_best_m


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


def stored_arrays(obj, path, seen):
    """(path, array) for every numpy array stored on obj: the instance
    attributes of the package's objects, walked through tuples, lists and
    dicts.  A property that computes a fresh array stores nothing."""
    if isinstance(obj, np.ndarray):
        yield path, obj
        return
    if id(obj) in seen:
        return
    seen.add(id(obj))
    if isinstance(obj, (tuple, list)):
        for i, item in enumerate(obj):
            yield from stored_arrays(item, f"{path}[{i}]", seen)
    elif isinstance(obj, dict):
        for key, item in obj.items():
            yield from stored_arrays(item, f"{path}[{key!r}]", seen)
    elif type(obj).__module__.startswith("emprob."):
        for name, item in vars(obj).items():
            yield from stored_arrays(item, f"{path}.{name}", seen)


def test_every_stored_array_of_a_prepared_result_is_read_only(result):
    """No stage's array can be written through: a write to the score
    table's category would change the tree and lattices built after it."""
    arrays = dict(stored_arrays(result, "result", set()))
    assert {"result.table.category", "result.table.score_gmm_cdf", "result.case_set.matrix",
            "result.kde._atoms", "result.kde._counts", "result.lattices[9][1].extent_bits",
            "result.lattices[9][1].context.incidence"} <= set(arrays)
    assert [path for path, a in arrays.items() if a.flags.writeable] == []


def test_writing_the_default_run_leaves_the_extents_packed(tmp_path):
    """The DOT writer reads extent sizes from the packed bits, so writing
    the default run unpacks no lattice's extents: none builds its concepts."""
    result = prepare(PipelineConfig())
    write_artifacts(result, tmp_path)
    assert [band for band, lattice in result.lattices if "concepts" in vars(lattice)] == []


def test_written_files_equal_their_renderers_text(result, default_files):
    """Each default artifact, in the order written, is its renderer's text
    encoded as UTF-8."""
    expected = {
        "scores.csv": scores_to_csv(result.table),
        "fit_report.json": json.dumps(fit_report_document(result), indent=2, sort_keys=True)
        + "\n",
        "density_samples.csv": density_samples_to_csv(result.gmm, result.kde),
        "tree_full.dot": tree_to_dot(result.tree_full),
        "tree_pruned.dot": tree_to_dot(result.tree_pruned),
    }
    for band, lattice in result.lattices:
        tag = band_tag(band)
        expected[f"band_{tag}.cxt"] = context_to_cxt(lattice.context)
        expected[f"lattice_{tag}.dot"] = lattice_to_dot(lattice)
        expected[f"supports_{tag}.csv"] = supports_to_csv(lattice.context)
    assert list(default_files) == list(expected)
    for name, text in expected.items():
        assert default_files[name] == text.encode("utf-8"), name


def writing_calls(path):
    """(enclosing function, line) of each call in a module that writes: a
    write_text, write_bytes or mkdir, or an open whose mode is not read-only
    (a mode that is not a string constant counts as writing)."""
    def writes(call):
        func = call.func
        name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
        if name in {"write_text", "write_bytes", "mkdir"}:
            return True
        if name != "open":
            return False
        # Path.open(mode, ...) and open(file, mode, ...)
        position = 0 if isinstance(func, ast.Attribute) else 1
        modes = [kw.value for kw in call.keywords if kw.arg == "mode"]
        modes += call.args[position : position + 1]
        if not modes:
            return False
        if not (isinstance(modes[0], ast.Constant) and isinstance(modes[0].value, str)):
            return True
        return bool(set(modes[0].value) & set("wax+"))

    def visit(node, function):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                yield from visit(child, child.name)
                continue
            if isinstance(child, ast.Call) and writes(child):
                yield function, child.lineno
            yield from visit(child, function)

    return list(visit(ast.parse(path.read_text(encoding="utf-8")), None))


def test_only_pipeline_write_writes_files():
    """pipeline._write is the package's one place that writes a file; the
    readers in schema open theirs read-only."""
    package = Path(pipeline.__file__).parent
    found = {path.name: writing_calls(path) for path in sorted(package.glob("*.py"))}
    assert [function for function, _ in found.pop("pipeline.py")] == ["_write", "_write"]
    assert {name: calls for name, calls in found.items() if calls} == {}


def self_calling_functions(path):
    """Qualified names of the module's functions that call themselves by
    name, as a plain name or as a method of self or cls."""
    def calls_itself(function):
        for node in ast.walk(function):
            func = getattr(node, "func", None)
            if isinstance(func, ast.Name) and func.id == function.name:
                return True
            if isinstance(func, ast.Attribute) and func.attr == function.name and \
                    isinstance(func.value, ast.Name) and func.value.id in {"self", "cls"}:
                return True
        return False

    def visit(node, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                if not isinstance(child, ast.ClassDef) and calls_itself(child):
                    yield prefix + child.name
                yield from visit(child, prefix + child.name + ".")
            else:
                yield from visit(child, prefix)

    return list(visit(ast.parse(path.read_text(encoding="utf-8")), ""))


def test_no_function_calls_itself():
    """Every walk in the package is a loop, so no input, however deep its
    tree, reaches the interpreter's recursion limit."""
    package = Path(pipeline.__file__).parent
    found = {path.name: self_calling_functions(path) for path in sorted(package.glob("*.py"))}
    assert {name: functions for name, functions in found.items() if functions} == {}


def test_write_artifacts_deterministic(result, tmp_path):
    first = write_artifacts(result, tmp_path / "a")
    second = write_artifacts(result, tmp_path / "b")
    for pa, pb in zip(first, second):
        assert pa.name == pb.name
        assert filecmp.cmp(pa, pb, shallow=False), pa.name


def test_run_pipeline_rerun_byte_identical(tmp_path):
    cfg = PipelineConfig(**CHEAP, output_dir=str(tmp_path / "a"))
    write_artifacts(prepare(cfg))
    write_artifacts(prepare(dataclasses.replace(cfg, output_dir=str(tmp_path / "b"))))
    names = expected_artifact_names(cfg)
    assert {p.name for p in (tmp_path / "a").iterdir()} == names
    for name in names:
        assert filecmp.cmp(tmp_path / "a" / name, tmp_path / "b" / name,
                           shallow=False), name
