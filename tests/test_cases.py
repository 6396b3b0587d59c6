import math
from fractions import Fraction

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from emprob import (
    AnswerWeightVector,
    CaseVector,
    Questionnaire,
    ValidationError,
    WeightMatrix,
    WeightSumTable,
    canonical_index,
    enumerate_cases,
    load_questionnaire,
    mean_weights,
    weight_sum_table,
)
from reference_data import unmerged_questionnaire, unmerged_weight_matrix

RAW_MIN = -2.6  # float(Fraction(-39, 15))
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
    counts = [len(q.combinations()) for q in questionnaire.questions]
    assert counts == [8, 4, 3, 2, 4, 2]
    assert len(case_set) == int(np.prod(counts))


def all_cases(case_set):
    return [case_set.case(i) for i in range(len(case_set))]


def test_no_duplicate_cases(case_set):
    seen = {case.true_answers for case in all_cases(case_set)}
    assert len(seen) == len(case_set)


def test_every_case_is_admissible(questionnaire, case_set):
    for case in all_cases(case_set):
        canonical_index(case, questionnaire)


def test_canonical_order_endpoints(questionnaire, case_set):
    first = case_set.case(0)
    assert first.true_answers == frozenset(
        {"a_1_q1", "a_1_q2", "a_1_q3", "a_1_q4", "a_1_q5", "a_1_q6"}
    )
    assert canonical_index(first, questionnaire) == 0
    assert canonical_index(case_set.case(1535), questionnaire) == 1535


def test_canonical_index_round_trip(questionnaire, case_set):
    for i, case in enumerate(all_cases(case_set)):
        assert canonical_index(case, questionnaire) == i


def test_canonical_index_rejects_invalid(questionnaire, case_set):
    with pytest.raises(ValidationError):
        canonical_index(CaseVector(frozenset({"a_1_q1"})), questionnaire)
    with pytest.raises(ValidationError):
        case_set.case(1536)
    with pytest.raises(ValidationError):
        case_set.case(-1)


def test_validate_case_errors(questionnaire):
    base = {"a_1_q1", "a_1_q2", "a_1_q3", "a_1_q4", "a_1_q5", "a_1_q6"}
    # two answers on the exclusive q4
    with pytest.raises(ValidationError):
        canonical_index(CaseVector(frozenset(base | {"a_2_q4"})), questionnaire)
    # none-answer combined with a symptom on q1
    with pytest.raises(ValidationError):
        canonical_index(CaseVector(frozenset(base | {"a_2_q1"})), questionnaire)
    # unknown answer id
    with pytest.raises(ValidationError):
        canonical_index(CaseVector(frozenset(base | {"a_9_q9"})), questionnaire)
    # q1 unanswered
    with pytest.raises(ValidationError):
        canonical_index(CaseVector(frozenset(base - {"a_1_q1"})), questionnaire)


def raw_sum(sum_table, case):
    return sum_table.raw_sums[canonical_index(case, sum_table.case_set.questionnaire)]


def test_weight_sum_examples(sum_table, case_set, mean_vector):
    assert raw_sum(sum_table, MAX_CASE) == pytest.approx(188.5 / 15)
    assert raw_sum(sum_table, MIN_CASE) == pytest.approx(-2.6)
    reordered = AnswerWeightVector(mean_vector.answer_ids[::-1], mean_vector.totals[::-1],
                                   mean_vector.n_doctors)
    with pytest.raises(ValidationError):
        weight_sum_table(case_set, reordered)


def test_weight_sum_extremes_are_global(sum_table):
    assert sum_table.raw_sums.min() == raw_sum(sum_table, MIN_CASE)
    assert sum_table.raw_sums.max() == raw_sum(sum_table, MAX_CASE)
    assert sum_table.raw_min == RAW_MIN
    assert sum_table.raw_max == RAW_MAX


def test_weight_sum_additive_across_questions(questionnaire, mean_vector, case_set, sum_table):
    rng = np.random.default_rng(7)
    for i in rng.integers(0, len(case_set), size=20):
        case = case_set.case(int(i))
        partial = 0.0
        for q in questionnaire.questions:
            partial += sum(
                mean_vector.value(a.id) for a in q.answers if a.id in case.true_answers
            )
        assert partial == pytest.approx(sum_table.raw_sums[i], abs=1e-12)


def exact_sums(case_set, wm):
    """Each case's mean-weight sum, computed in exact rational arithmetic and
    then rounded once to the nearest float."""
    totals = [sum(map(Fraction, column.tolist()), Fraction(0)) for column in wm.values.T]
    scale = math.lcm(*(t.denominator for t in totals))
    numerators = np.array([int(t * scale) for t in totals], dtype=np.int64)
    per_case = case_set.matrix.astype(np.int64) @ numerators
    return np.array([float(Fraction(int(k), scale * len(wm.doctors))) for k in per_case])


def test_weight_sums_are_exact(case_set, weight_matrix):
    sums = weight_sum_table(case_set, mean_weights(weight_matrix)).raw_sums
    assert_array_equal(sums, exact_sums(case_set, weight_matrix))
    assert np.unique(sums).size == 364


def test_unmerged_weight_sums_are_exact():
    case_set, wm = enumerate_cases(unmerged_questionnaire()), unmerged_weight_matrix()
    assert len(case_set) == 12288
    assert_array_equal(weight_sum_table(case_set, mean_weights(wm)).raw_sums,
                       exact_sums(case_set, wm))


def test_normalize_bounds_and_known_value(sum_table):
    assert sum_table.normalized.min() == 0.0
    assert sum_table.normalized.max() == 1.0
    zero_raw = np.where(sum_table.raw_sums == 0.0)[0]
    if zero_raw.size:
        assert sum_table.normalized[zero_raw[0]] == float(Fraction(6, 35))
    # recompute the known point directly from the persisted bounds
    assert (0.0 - sum_table.raw_min) / (
        sum_table.raw_max - sum_table.raw_min
    ) == float(Fraction(6, 35))


def test_normalize_order_preserving(sum_table):
    # ties may appear under the affine map, but never inversions
    order = np.argsort(sum_table.raw_sums, kind="stable")
    assert (np.diff(sum_table.normalized[order]) >= 0).all()
    distinct = np.diff(np.sort(sum_table.raw_sums)) > 1e-9
    collapsed = np.diff(np.sort(sum_table.normalized))[distinct]
    assert (collapsed > 0).all()


def test_normalize_sums_errors(case_set, weight_matrix):
    def table(values, cases=case_set):
        wm = WeightMatrix(("d_1",), cases.answer_ids, np.reshape(values, (1, -1)))
        return weight_sum_table(cases, mean_weights(wm))

    with pytest.raises(ValidationError, match="all case sums identical"):
        table(np.zeros(len(case_set.answer_ids)))
    with pytest.raises(ValidationError, match="at least two sums"):
        table([], enumerate_cases(Questionnaire(questions=(), merge_rules=())))
    with pytest.raises(ValidationError, match="non-finite"):
        table(np.r_[np.nan, weight_matrix.values[0, 1:]])


@pytest.mark.parametrize("raw, normalized, fault", [
    (np.zeros(2), np.zeros(3), "equal-length vectors"),
    (np.zeros((1, 2)), np.zeros((1, 2)), "equal-length vectors"),
    (np.zeros(2), np.array([0.0, 1.5]), r"must lie in \[0, 1\]"),
    (np.zeros(2), np.array([-0.5, 1.0]), r"must lie in \[0, 1\]"),
], ids=["lengths", "2-d", "above", "below"])
def test_weight_sum_table_rejects_malformed_sums(raw, normalized, fault):
    one_case = enumerate_cases(Questionnaire(questions=(), merge_rules=()))
    with pytest.raises(ValidationError, match=fault):
        WeightSumTable(raw, normalized, 0.0, 1.0, one_case)


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
            case_set.matrix[int(i)], [aid in case.true_answers for aid in ids]
        )
