import dataclasses

import numpy as np
import pytest
from numpy.testing import assert_array_equal

from emprob import (
    CaseVector,
    PipelineConfig,
    ProbabilityCategory,
    Questionnaire,
    ScoreTable,
    ValidationError,
    WeightSumTable,
    categorize_array,
    elicit_probabilities,
    enumerate_cases,
    ill_component,
    prepare,
    score_patient,
    validate_thresholds,
    weight_sum_table,
)
from emprob.scoring import APPROACHES, COLUMNS
from reference_data import REFERENCE_GMM, score_columns
from test_cases import MAX_CASE, MIN_CASE

# the ScoreTable field of each approach's scores
APPROACH_FIELDS = ("score_gmm_cdf", "score_kde_cdf", "score_posterior")


def test_threshold_validation():
    assert validate_thresholds((0.33, 0.68)) == (0.33, 0.68)
    assert validate_thresholds((np.float32(0.25), np.float64(0.5))) == (0.25, 0.5)
    for bad in ((0.5, 0.4), (0.0, 0.5), (0.5, 1.0), (-0.1, 0.5), (0.4, 0.4),
                ("0.1", "0.5"), (False, 0.5), (0.2, np.bool_(True)), (0.1, 0.2, 0.3)):
        with pytest.raises(ValidationError):
            validate_thresholds(bad)


def test_categorize_boundaries():
    low, medium, high = ProbabilityCategory
    assert_array_equal(categorize_array([0.0, 0.329999, 0.33, 0.679999, 0.68, 1.0]),
                       [low, low, medium, medium, high, high])
    assert categorize_array([]).size == 0


def test_categorize_rejects_out_of_range():
    for bad in (-0.001, 1.001, np.nan):
        with pytest.raises(ValidationError):
            categorize_array([0.5, bad])


def test_category_order():
    assert ProbabilityCategory.LOW < ProbabilityCategory.MEDIUM < ProbabilityCategory.HIGH


def test_ill_component_is_highest_mean():
    assert ill_component(REFERENCE_GMM) == 1


def test_score_table_ranges_and_category_column(score_table):
    for s in (score_table.score_gmm_cdf, score_table.score_kde_cdf, score_table.score_posterior):
        assert s.shape == (1536,)
        assert (s >= 0).all() and (s <= 1).all()
    assert_array_equal(score_table.category, categorize_array(score_table.score_gmm_cdf))
    # the category column follows the table's own thresholds
    other = dataclasses.replace(score_table, thresholds=(0.2, 0.9))
    assert_array_equal(other.category, categorize_array(score_table.score_gmm_cdf, (0.2, 0.9)))
    assert (other.category != score_table.category).any()


@pytest.mark.parametrize("bad", [np.nan, -0.001, 1.001])
@pytest.mark.parametrize("field", APPROACH_FIELDS)
def test_score_table_rejects_a_score_outside_the_unit_interval(score_table, field, bad):
    scores = getattr(score_table, field).copy()
    scores[7] = bad
    with pytest.raises(ValidationError, match="scores outside"):
        dataclasses.replace(score_table, **{field: scores})


@pytest.mark.parametrize("field", ["sums", *APPROACH_FIELDS])
def test_score_table_rejects_a_column_of_another_length(score_table, questionnaire, field):
    if field == "sums":  # the sums of the first question's cases alone
        cases = enumerate_cases(Questionnaire(questionnaire.questions[:1]))
        shorter = WeightSumTable(np.arange(float(len(cases))), cases)
        fault = "score_gmm_cdf"
    else:
        shorter, fault = getattr(score_table, field)[1:], field
    with pytest.raises(ValidationError, match=f"{fault} length does not match the sums"):
        dataclasses.replace(score_table, **{field: shorter})


def test_scores_by_approach_mapping(score_table):
    assert_array_equal(score_table.scores_by_approach(1), score_table.score_gmm_cdf)
    assert_array_equal(score_table.scores_by_approach(2), score_table.score_kde_cdf)
    assert_array_equal(score_table.scores_by_approach(3), score_table.score_posterior)
    assert APPROACHES == (1, 2, 3)
    # an approach is an integer, and a bool or a float is none
    for bad in (0, 4, "1", 1.0, True, np.float64(1.0)):
        with pytest.raises(ValidationError):
            score_table.scores_by_approach(bad)
    assert_array_equal(score_table.scores_by_approach(np.int64(2)), score_table.score_kde_cdf)


def test_elicit_requires_case_set(sum_table):
    """Every weight-sum table carries the case set its rows belong to, and
    takes nothing else: its bounds and normalized sums are derived."""
    with pytest.raises(TypeError):
        WeightSumTable(sum_table.raw_sums)
    with pytest.raises(TypeError):
        WeightSumTable(sum_table.raw_sums, sum_table.normalized, sum_table.case_set)
    one_case = enumerate_cases(Questionnaire(questions=(), merge_rules=()))
    with pytest.raises(ValidationError, match="case set size does not match sums"):
        WeightSumTable(sum_table.raw_sums, one_case)


def test_score_table_reads_its_sums_from_the_sum_table(sum_table, case_set):
    """Each per-case number has one home: the score table holds its sum
    table, whose bounds and normalized sums derive from the raw sums."""
    result = prepare(PipelineConfig())
    assert result.table.sums is result.sum_table
    assert result.table.case_set is result.case_set
    assert result.kde.n_points == len(result.case_set)
    direct = WeightSumTable(sum_table.raw_sums, case_set)
    assert [f.name for f in dataclasses.fields(WeightSumTable) if f.init] == [
        "raw_sums", "case_set"]
    assert (direct.raw_min, direct.raw_max) == (sum_table.raw_min, sum_table.raw_max)
    assert direct.normalized.tobytes() == sum_table.normalized.tobytes()
    names = {f.name for f in dataclasses.fields(ScoreTable)}
    assert names.isdisjoint({"raw_sums", "normalized", "case_set", "answer_ids"})
    assert not hasattr(result.table, "raw_sums") and not hasattr(result.table, "normalized")


def test_reference_scores_at_minimum_case(reference_score_table, questionnaire):
    from emprob import canonical_index

    i = canonical_index(MIN_CASE, questionnaire)
    assert reference_score_table.sums.normalized[i] == 0.0
    p1 = reference_score_table.score_gmm_cdf[i]
    p3 = reference_score_table.score_posterior[i]
    assert p1 == 0.0010337908499836654
    assert p1 == pytest.approx(0.0010, abs=5e-5)
    assert p3 == pytest.approx(0.0784644665122424, rel=1e-12)
    assert p3 == pytest.approx(0.077, abs=2e-3)


def test_posterior_dominates_spot_check(score_table):
    rng = np.random.default_rng(31)
    idx = rng.integers(0, 1536, size=64)
    assert (score_table.score_posterior[idx] > score_table.score_gmm_cdf[idx]).all()
    assert (score_table.score_posterior[idx] > score_table.score_kde_cdf[idx]).all()


def test_score_patient_matches_table_rows(sum_table, gmm, kde, score_table, case_set):
    """Scored at its own sum, each of the 1,536 cases gets its table row bit
    for bit: the answers, every column under its output name, and the
    category name, in that order."""
    for i in range(len(case_set)):
        case = case_set.case(i)
        row = score_patient(case, sum_table, gmm, kde)
        assert list(row) == ["answers", *COLUMNS, "category"]
        assert row["answers"] == sorted(case.true_answers)
        for column, values in zip(COLUMNS, score_columns(score_table)):
            assert row[column].hex() == float(values[i]).hex(), column
        assert row["category"] == ProbabilityCategory(score_table.category[i]).name


def test_score_patient_reference_extremes(sum_table, kde):
    top = score_patient(MAX_CASE, sum_table, REFERENCE_GMM, kde)
    assert top["normalized_sum"] == 1.0
    assert top["p_gmm_cdf"] == pytest.approx(0.998, abs=5e-4)
    bottom = score_patient(MIN_CASE, sum_table, REFERENCE_GMM, kde)
    assert bottom["normalized_sum"] == 0.0
    assert bottom["p_gmm_cdf"] == pytest.approx(0.0010, abs=5e-5)
    assert bottom["category"] == "LOW"


def test_score_patient_uses_the_table_thresholds(sum_table, gmm, kde, case_set):
    # rows whose category differs between the default thresholds and these
    table = elicit_probabilities(sum_table, gmm, kde, thresholds=(0.2, 0.5))
    p1 = table.score_gmm_cdf
    moved = np.flatnonzero(((p1 >= 0.2) & (p1 < 0.33)) | ((p1 >= 0.5) & (p1 < 0.68)))
    assert moved.size
    for i in moved[:: max(1, moved.size // 20)]:
        row = score_patient(case_set.case(i), sum_table, gmm, kde, thresholds=(0.2, 0.5))
        category = ProbabilityCategory[row["category"]]
        assert category == ProbabilityCategory(table.category[i])
        assert category == categorize_array([row["p_gmm_cdf"]], (0.2, 0.5))[0]
        assert category != categorize_array([row["p_gmm_cdf"]])[0]


def test_score_patient_accepts_answer_ids(sum_table, gmm, kde):
    row = score_patient(sorted(MAX_CASE.true_answers), sum_table, gmm, kde)
    assert row == score_patient(MAX_CASE, sum_table, gmm, kde)
    assert row["answers"] == sorted(MAX_CASE.true_answers)


def test_score_patient_rejects_a_bare_string(sum_table, gmm, kde):
    # iterating it would read the characters of one answer id as answers
    with pytest.raises(ValidationError, match="got the string 'a_2_q1'"):
        score_patient("a_2_q1", sum_table, gmm, kde)


def test_score_patient_rejects_invalid_case(sum_table, gmm, kde):
    bad = CaseVector(
        frozenset({"a_1_q1", "a_1_q2", "a_1_q3", "a_1_q4", "a_2_q4", "a_1_q5", "a_1_q6"})
    )
    with pytest.raises(ValidationError):
        score_patient(bad, sum_table, gmm, kde)
