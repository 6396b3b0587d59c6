import numpy as np
import pytest
from numpy.testing import assert_array_equal

from emprob import (
    CaseVector,
    ModelBundle,
    ProbabilityCategory,
    ValidationError,
    categorize,
    categorize_array,
    elicit_probabilities,
    ill_component,
    normalize_sums,
    score_patient,
    validate_thresholds,
)
from reference_data import REFERENCE_GMM
from test_cases import MAX_CASE, MIN_CASE


def test_threshold_validation():
    assert validate_thresholds((0.33, 0.68)) == (0.33, 0.68)
    for bad in ((0.5, 0.4), (0.0, 0.5), (0.5, 1.0), (-0.1, 0.5), (0.4, 0.4)):
        with pytest.raises(ValidationError):
            validate_thresholds(bad)


def test_categorize_boundaries():
    assert categorize(0.0) is ProbabilityCategory.LOW
    assert categorize(0.329999) is ProbabilityCategory.LOW
    assert categorize(0.33) is ProbabilityCategory.MEDIUM
    assert categorize(0.679999) is ProbabilityCategory.MEDIUM
    assert categorize(0.68) is ProbabilityCategory.HIGH
    assert categorize(1.0) is ProbabilityCategory.HIGH


def test_categorize_rejects_out_of_range():
    with pytest.raises(ValidationError):
        categorize(-0.001)
    with pytest.raises(ValidationError):
        categorize(1.001)


def test_categorize_array_matches_scalar():
    scores = np.linspace(0, 1, 101)
    cats = categorize_array(scores)
    assert_array_equal(cats, [categorize(float(s)) for s in scores])


def test_category_order():
    assert ProbabilityCategory.LOW < ProbabilityCategory.MEDIUM < ProbabilityCategory.HIGH


def test_ill_component_is_highest_mean():
    assert ill_component(REFERENCE_GMM) == 1


def test_score_table_ranges_and_category_column(score_table):
    for name in ("gmm_cdf", "kde_cdf", "posterior"):
        s = score_table.scores(name)
        assert s.shape == (1536,)
        assert (s >= 0).all() and (s <= 1).all()
    assert_array_equal(
        score_table.category, categorize_array(score_table.scores("gmm_cdf"))
    )


def test_scores_by_approach_mapping(score_table):
    assert_array_equal(score_table.scores_by_approach(1), score_table.score_gmm_cdf)
    assert_array_equal(score_table.scores_by_approach(2), score_table.score_kde_cdf)
    assert_array_equal(score_table.scores_by_approach(3), score_table.score_posterior)
    with pytest.raises(ValidationError):
        score_table.scores_by_approach(4)
    with pytest.raises(ValidationError):
        score_table.scores("bogus")


def test_elicit_requires_case_set(sum_table, gmm, kde):
    bare = normalize_sums(sum_table.raw_sums)
    with pytest.raises(ValidationError):
        elicit_probabilities(bare, gmm, kde)


def test_reference_scores_at_minimum_case(reference_score_table, questionnaire):
    from emprob import canonical_index

    i = canonical_index(MIN_CASE, questionnaire)
    assert reference_score_table.normalized[i] == 0.0
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


def test_model_bundle_validates_bounds(questionnaire, mean_vector, gmm, kde):
    with pytest.raises(ValidationError):
        ModelBundle(
            questionnaire=questionnaire,
            mean_weight_vector=mean_vector,
            raw_min=1.0,
            raw_max=1.0,
            gmm=gmm,
            kde=kde,
        )


def test_score_patient_matches_table_rows(bundle, score_table, case_set, questionnaire):
    rng = np.random.default_rng(37)
    for i in rng.integers(0, len(case_set), size=40):
        i = int(i)
        ps = score_patient(case_set.case(i), bundle)
        assert ps.raw_sum == score_table.raw_sums[i]
        assert ps.normalized == score_table.normalized[i]
        assert ps.score_gmm_cdf == score_table.score_gmm_cdf[i]
        assert ps.score_kde_cdf == score_table.score_kde_cdf[i]
        assert ps.score_posterior == score_table.score_posterior[i]
        assert ps.category == score_table.category[i]
        assert not ps.clamped


def test_score_patient_reference_extremes(
    questionnaire, mean_vector, sum_table, kde
):
    bundle = ModelBundle(
        questionnaire=questionnaire,
        mean_weight_vector=mean_vector,
        raw_min=sum_table.raw_min,
        raw_max=sum_table.raw_max,
        gmm=REFERENCE_GMM,
        kde=kde,
    )
    top = score_patient(MAX_CASE, bundle)
    assert top.normalized == 1.0
    assert top.score_gmm_cdf == pytest.approx(0.998, abs=5e-4)
    bottom = score_patient(MIN_CASE, bundle)
    assert bottom.normalized == 0.0
    assert bottom.score_gmm_cdf == pytest.approx(0.0010, abs=5e-5)
    assert bottom.category is ProbabilityCategory.LOW


def test_score_patient_accepts_answer_ids(bundle):
    ps = score_patient(sorted(MAX_CASE.true_answers), bundle)
    assert ps.case == MAX_CASE


def test_score_patient_rejects_invalid_case(bundle):
    bad = CaseVector(
        frozenset({"a_1_q1", "a_1_q2", "a_1_q3", "a_1_q4", "a_2_q4", "a_1_q5", "a_1_q6"})
    )
    with pytest.raises(ValidationError):
        score_patient(bad, bundle)


def test_score_patient_clamps_out_of_range(questionnaire, mean_vector, gmm, kde):
    # artificially tight bounds force raw sums outside [min, max]
    tight = ModelBundle(
        questionnaire=questionnaire,
        mean_weight_vector=mean_vector,
        raw_min=0.0,
        raw_max=1.0,
        gmm=gmm,
        kde=kde,
    )
    high = score_patient(MAX_CASE, tight)
    assert high.clamped
    assert high.normalized == 1.0
    low = score_patient(MIN_CASE, tight)
    assert low.clamped
    assert low.normalized == 0.0
