import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from emprob import (
    CaseVector,
    Questionnaire,
    ValidationError,
    canonical_index,
    case_from_index,
    enumerate_cases,
    load_questionnaire,
    normalize_sums,
    validate_case,
    weight_sum,
    weight_sum_table,
    weight_sums,
)
from reference_data import unmerged_questionnaire

RAW_MIN = -2.5999999999999996
RAW_MAX = 12.566666666666666

MAX_CASE = CaseVector(
    frozenset({"a_2_q1", "a_3_q1", "a_3_q2", "a_1_q3", "a_1_q4", "a_4_q5", "a_1_q6"})
)
MIN_CASE = CaseVector(
    frozenset({"a_4_q1", "a_1_q2", "a_2_q3", "a_2_q4", "a_1_q5", "a_2_q6"})
)


def test_merged_case_count(case_set):
    assert len(case_set) == 1536


def test_unmerged_case_count():
    q = unmerged_questionnaire()
    assert len(enumerate_cases(q)) == 12288


def test_single_exclusive_question_counts():
    for k in (1, 2, 5):
        doc = {
            "questions": [
                {
                    "id": "q1",
                    "mode": "exclusive",
                    "answers": [{"id": f"a{i}", "label": str(i)} for i in range(k)],
                }
            ]
        }
        assert len(enumerate_cases(load_questionnaire(doc))) == k


def test_empty_questionnaire_yields_one_empty_case():
    cs = enumerate_cases(Questionnaire(questions=(), merge_rules=()))
    assert len(cs) == 1
    assert cs.case(0).true_answers == frozenset()


def test_cardinality_is_product_of_per_question_counts(questionnaire, case_set):
    counts = [q.combination_count() for q in questionnaire.questions]
    assert counts == [8, 4, 3, 2, 4, 2]
    assert len(case_set) == int(np.prod(counts))


def test_no_duplicate_cases(case_set):
    seen = {case.true_answers for case in case_set}
    assert len(seen) == len(case_set)


def test_every_case_is_admissible(questionnaire, case_set):
    for case in case_set:
        validate_case(case, questionnaire)


def test_canonical_order_endpoints(questionnaire, case_set):
    first = case_set.case(0)
    assert first.true_answers == frozenset(
        {"a_1_q1", "a_1_q2", "a_1_q3", "a_1_q4", "a_1_q5", "a_1_q6"}
    )
    assert canonical_index(first, questionnaire) == 0
    assert canonical_index(case_set.case(1535), questionnaire) == 1535


def test_canonical_index_round_trip(questionnaire, case_set):
    for i, case in enumerate(case_set):
        assert canonical_index(case, questionnaire) == i
    for i in (0, 1, 7, 191, 192, 1000, 1535):
        assert canonical_index(case_from_index(i, questionnaire), questionnaire) == i


def test_canonical_index_rejects_invalid(questionnaire):
    with pytest.raises(ValidationError):
        canonical_index(CaseVector(frozenset({"a_1_q1"})), questionnaire)
    with pytest.raises(ValidationError):
        case_from_index(1536, questionnaire)
    with pytest.raises(ValidationError):
        case_from_index(-1, questionnaire)


def test_validate_case_errors(questionnaire):
    base = {"a_1_q1", "a_1_q2", "a_1_q3", "a_1_q4", "a_1_q5", "a_1_q6"}
    # two answers on the exclusive q4
    with pytest.raises(ValidationError):
        validate_case(CaseVector(frozenset(base | {"a_2_q4"})), questionnaire)
    # none-answer combined with a symptom on q1
    with pytest.raises(ValidationError):
        validate_case(CaseVector(frozenset(base | {"a_2_q1"})), questionnaire)
    # unknown answer id
    with pytest.raises(ValidationError):
        validate_case(CaseVector(frozenset(base | {"a_9_q9"})), questionnaire)
    # q1 unanswered
    with pytest.raises(ValidationError):
        validate_case(CaseVector(frozenset(base - {"a_1_q1"})), questionnaire)


def test_weight_sum_examples(mean_vector):
    assert weight_sum(CaseVector(frozenset()), mean_vector) == 0.0
    assert weight_sum(MAX_CASE, mean_vector) == pytest.approx(188.5 / 15)
    assert weight_sum(MIN_CASE, mean_vector) == pytest.approx(-2.6)
    with pytest.raises(ValidationError):
        weight_sum(CaseVector(frozenset({"a_9_q9"})), mean_vector)


def test_weight_sum_extremes_are_global(sum_table, mean_vector):
    assert sum_table.raw_sums.min() == weight_sum(MIN_CASE, mean_vector)
    assert sum_table.raw_sums.max() == weight_sum(MAX_CASE, mean_vector)
    assert sum_table.raw_min == RAW_MIN
    assert sum_table.raw_max == RAW_MAX


def test_weight_sum_additive_across_questions(questionnaire, mean_vector, case_set):
    rng = np.random.default_rng(7)
    for i in rng.integers(0, len(case_set), size=20):
        case = case_set.case(int(i))
        partial = 0.0
        for q in questionnaire.questions:
            chosen = case.true_answers & {a.id for a in q.answers}
            partial += weight_sum(CaseVector(frozenset(chosen)), mean_vector)
        assert partial == pytest.approx(weight_sum(case, mean_vector), abs=1e-12)


def test_weight_sums_batch_matches_single(case_set, mean_vector):
    batch = weight_sums(case_set, mean_vector)
    single = np.array([weight_sum(c, mean_vector) for c in case_set])
    assert_array_equal(batch, single)


def test_normalize_bounds_and_known_value(sum_table):
    assert sum_table.normalized.min() == 0.0
    assert sum_table.normalized.max() == 1.0
    zero_raw = np.where(sum_table.raw_sums == 0.0)[0]
    if zero_raw.size:
        assert sum_table.normalized[zero_raw[0]] == 0.1714285714285714
    # recompute the known point directly from the persisted bounds
    assert (0.0 - sum_table.raw_min) / (
        sum_table.raw_max - sum_table.raw_min
    ) == 0.1714285714285714


def test_normalize_order_preserving(sum_table):
    # ties may appear under the affine map, but never inversions
    order = np.argsort(sum_table.raw_sums, kind="stable")
    assert (np.diff(sum_table.normalized[order]) >= 0).all()
    distinct = np.diff(np.sort(sum_table.raw_sums)) > 1e-9
    collapsed = np.diff(np.sort(sum_table.normalized))[distinct]
    assert (collapsed > 0).all()


def test_normalize_sums_errors():
    with pytest.raises(ValidationError):
        normalize_sums(np.array([1.0, 1.0, 1.0]))
    with pytest.raises(ValidationError):
        normalize_sums(np.array([1.0]))
    with pytest.raises(ValidationError):
        normalize_sums(np.array([0.0, np.nan]))


def test_weight_sum_table_carries_case_set(case_set, sum_table):
    assert sum_table.case_set is case_set
    assert len(sum_table) == len(case_set)
    assert_allclose(
        sum_table.normalized,
        (sum_table.raw_sums - sum_table.raw_min) / (sum_table.raw_max - sum_table.raw_min),
    )


def test_case_set_matrix_matches_membership(questionnaire, case_set):
    ids = case_set.answer_ids
    assert ids == questionnaire.answer_ids
    rng = np.random.default_rng(11)
    for i in rng.integers(0, len(case_set), size=25):
        case = case_set.case(int(i))
        assert_array_equal(
            case_set.matrix[int(i)], [aid in case for aid in ids]
        )
