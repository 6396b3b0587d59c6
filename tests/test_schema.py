import json
import re
from importlib.resources import files

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from emprob import (
    AnswerOption,
    AnswerWeightVector,
    MergeRule,
    Question,
    QuestionMode,
    ValidationError,
    WeightMatrix,
    default_questionnaire,
    default_weight_matrix,
    load_questionnaire,
    load_weight_matrix,
    mean_weights,
    merge_answers,
    validate_weights,
)
from emprob.schema import parse_merge_rule
from reference_data import CHAINED_Q2_RULES, unmerged_questionnaire, unmerged_weight_matrix


def test_default_questionnaire_shape():
    q = default_questionnaire()
    assert len(q.questions) == 6
    assert len(q.answer_ids) == 19
    assert q.questions[0].mode is QuestionMode.MULTI_SELECT_WITH_EXCLUSIVE_NONE
    assert q.questions[0].none_answer_id == "a_1_q1"
    for question in q.questions[1:]:
        assert question.mode is QuestionMode.EXCLUSIVE
    assert [len(question.answers) for question in q.questions] == [4, 4, 3, 2, 4, 2]


def test_default_weight_matrix_shape():
    wm = default_weight_matrix()
    assert len(wm.doctors) == 15
    assert len(wm.answer_ids) == 19
    assert wm.values.shape == (15, 19)
    # spot checks against the shipped matrix
    col = wm.answer_ids.index("a_1_q3")
    assert_array_equal(wm.values[:, col], [3, 1, 3, 3, 3, 3, 3, 3, 2, 3, 3, 3, 3, 3, 3])
    assert wm.values[3, wm.answer_ids.index("a_2_q1")] == 0.75


def test_weight_matrix_values_read_only():
    wm = default_weight_matrix()
    with pytest.raises(ValueError):
        wm.values[0, 0] = 99.0


def test_load_questionnaire_rejects_bad_documents():
    with pytest.raises(ValidationError):
        load_questionnaire({"no_questions": []})
    with pytest.raises(ValidationError):
        load_questionnaire({"questions": [{"id": "q1", "mode": "bogus", "answers": []}]})
    with pytest.raises(ValidationError):
        load_questionnaire({"questions": [{"id": "q1", "answers": [{"id": "a1"}]}]})


def test_question_validation():
    doc = {
        "questions": [
            {
                "id": "q1",
                "mode": "multi_select_with_exclusive_none",
                "answers": [{"id": "a1", "label": "No"}, {"id": "a2", "label": "X"}],
            }
        ]
    }
    # none-exclusive mode requires a none_answer_id naming one of the answers
    with pytest.raises(ValidationError):
        load_questionnaire(doc)
    doc["questions"][0]["none_answer_id"] = "missing"
    with pytest.raises(ValidationError):
        load_questionnaire(doc)
    doc["questions"][0]["none_answer_id"] = "a1"
    q = load_questionnaire(doc)
    assert q.questions[0].selectable_answer_ids == ("a2",)
    # an exclusive question has no none option: every answer is selectable
    exclusive = Question("q2", "", QuestionMode.EXCLUSIVE, q.questions[0].answers)
    assert exclusive.selectable_answer_ids == ("a1", "a2")
    with pytest.raises(KeyError):
        q.question_of_answer("a3")
    faults = {  # expected message -> questions
        "empty answer list": [{"id": "q1", "answers": []}],
        "at least one answer besides the none option": [
            {"id": "q1", "mode": "multi_select_with_exclusive_none", "none_answer_id": "a1",
             "answers": [{"id": "a1", "label": "No"}]}],
        "only applies to multi-select questions": [
            {"id": "q1", "none_answer_id": "a1", "answers": [{"id": "a1", "label": "No"}]}],
        "duplicate question ids": [{"id": "q1", "answers": [{"id": "a1", "label": ""}]},
                                   {"id": "q1", "answers": [{"id": "a2", "label": ""}]}],
        "duplicate answer ids across questions": [
            {"id": "q1", "answers": [{"id": "a1", "label": ""}]},
            {"id": "q2", "answers": [{"id": "a1", "label": ""}]}],
    }
    for fault, questions in faults.items():
        with pytest.raises(ValidationError, match=fault):
            load_questionnaire({"questions": questions})


def test_duplicate_answer_ids_rejected():
    doc = {
        "questions": [
            {"id": "q1", "mode": "exclusive",
             "answers": [{"id": "a1", "label": "x"}, {"id": "a1", "label": "y"}]},
        ]
    }
    with pytest.raises(ValidationError):
        load_questionnaire(doc)


def test_validate_weights_accepts_shipped_data(questionnaire, weight_matrix):
    validate_weights(weight_matrix, questionnaire)


def test_validate_weights_errors(questionnaire, weight_matrix):
    import dataclasses

    # missing answer column
    wm = dataclasses.replace(
        weight_matrix,
        answer_ids=weight_matrix.answer_ids[:-1],
        values=weight_matrix.values[:, :-1],
    )
    with pytest.raises(ValidationError):
        validate_weights(wm, questionnaire)
    # out-of-range weight
    bad = weight_matrix.values.copy()
    bad[0, 0] = 3.5
    wm = dataclasses.replace(weight_matrix, values=bad)
    with pytest.raises(ValidationError):
        validate_weights(wm, questionnaire)
    # non-finite weight
    bad = weight_matrix.values.copy()
    bad[2, 5] = np.nan
    wm = dataclasses.replace(weight_matrix, values=bad)
    with pytest.raises(ValidationError):
        validate_weights(wm, questionnaire)
    # a column the questionnaire lacks
    wm = dataclasses.replace(
        weight_matrix,
        answer_ids=(*weight_matrix.answer_ids, "extra"),
        values=np.column_stack([weight_matrix.values, weight_matrix.values[:, 0]]),
    )
    with pytest.raises(ValidationError, match=r"unknown answers: \['extra'\]"):
        validate_weights(wm, questionnaire)


def test_header_only_weights_file_has_no_doctors(tmp_path, questionnaire):
    path = tmp_path / "weights.csv"
    path.write_text("doctor," + ",".join(questionnaire.answer_ids) + "\n")
    with pytest.raises(ValidationError, match="no doctors"):
        validate_weights(load_weight_matrix(path), questionnaire)


def test_mean_weights_reference_examples(mean_vector):
    assert mean_vector.value("a_1_q3") == pytest.approx(2.8)
    # exact ratio: -4.5 / 15
    assert mean_vector.value("a_4_q1") == pytest.approx(-0.3)
    assert len(mean_vector.answer_ids) == 19


def test_mean_weights_constant_column():
    wm = unmerged_weight_matrix()
    mv = mean_weights(wm)
    # every doctor repeats the same value on the replicated symptom columns
    # except d_4, so dropping d_4 the mean equals the value itself
    col = wm.answer_ids.index("a_1_q4")
    assert mv.value("a_1_q4") == pytest.approx(wm.values[:, col].mean())


def test_mean_weights_bounded_by_column_extremes(weight_matrix, mean_vector):
    for j, aid in enumerate(weight_matrix.answer_ids):
        column = weight_matrix.values[:, j]
        assert column.min() <= mean_vector.value(aid) <= column.max()


def test_merge_answers_rule_statement():
    q = unmerged_questionnaire()
    _, merged = merge_answers(q, unmerged_weight_matrix(), q.merge_rules[0])
    col = merged.answer_ids.index("a_2_q1")
    d4 = merged.doctors.index("d_4")
    # (1 + 0.5 + 1.5 + 0) / 4
    assert merged.values[d4, col] == 0.75


def test_merge_answers_reproduces_shipped_matrix(weight_matrix):
    q = unmerged_questionnaire()
    _, merged = merge_answers(q, unmerged_weight_matrix(), q.merge_rules[0])
    assert merged.answer_ids == weight_matrix.answer_ids
    assert merged.values.shape == (15, 19)
    assert_array_equal(merged.values, weight_matrix.values)


def test_merge_answers_errors(questionnaire, weight_matrix):
    with pytest.raises(ValidationError):
        parse_merge_rule(
            {"source_answer_ids": ["a_1_q1", "a_1_q2"],
             "merged_answer": {"id": "m", "label": "m"}},
            questionnaire,
        )
    with pytest.raises(ValidationError):
        parse_merge_rule(
            {"source_answer_ids": ["nope"], "merged_answer": {"id": "m", "label": "m"}},
            questionnaire,
        )
    with pytest.raises(ValidationError, match="missing field 'merged_answer'"):
        parse_merge_rule({"source_answer_ids": ["a_3_q1", "a_4_q1"]}, questionnaire)
    for sources, fault in ((("a_3_q1",), "at least two source answers"),
                           (("a_3_q1", "a_3_q1"), "lists a source answer twice")):
        with pytest.raises(ValidationError, match=fault):
            MergeRule(sources, AnswerOption("m", "m"))
    # the message names the sources as written, also those the questionnaire
    # lacks, next to an earlier rule's merged answer or not
    rules = {
        "('zz1', 'zz2')": [{"source_answer_ids": ["zz1", "zz2"],
                            "merged_answer": {"id": "m", "label": "m"}}],
        "('m', 'zz')": [{"source_answer_ids": ["a_3_q1", "a_4_q1"],
                         "merged_answer": {"id": "m", "label": "m"}},
                        {"source_answer_ids": ["m", "zz"],
                         "merged_answer": {"id": "n", "label": "n"}}],
    }
    shipped = json.loads((files("emprob.data") / "questionnaire.json").read_text())
    for sources, merge_rules in rules.items():
        with pytest.raises(ValidationError, match=re.escape(f"merge rule sources {sources} ")):
            load_questionnaire({**shipped, "merge_rules": merge_rules})
    q = unmerged_questionnaire()
    with pytest.raises(ValidationError):
        merge_answers(q, weight_matrix, q.merge_rules[0])  # sources absent from matrix
    malformed = {  # expected message -> (sources, merged answer)
        "none-answer": (("a_1_q1", "a_3_q1"), AnswerOption("m", "m")),
        "collides": (("a_3_q1", "a_4_q1"), AnswerOption("a_2_q1", "m")),
    }
    for fault, (sources, merged) in malformed.items():
        with pytest.raises(ValidationError, match=fault):
            merge_answers(questionnaire, weight_matrix, MergeRule(sources, merged))


def test_load_questionnaire_chained_merge_rules(weight_matrix):
    """A rule whose sources are all earlier rules' merged answers resolves
    against the questions as those rules leave them."""
    shipped = json.loads((files("emprob.data") / "questionnaire.json").read_text())
    q = load_questionnaire({**shipped, "merge_rules": CHAINED_Q2_RULES})
    assert q.questions == default_questionnaire().questions
    assert [r.source_answer_ids for r in q.merge_rules] == [
        ("a_1_q2", "a_2_q2"), ("a_3_q2", "a_4_q2"), ("m1", "m2")]
    merged, weights = q, weight_matrix
    for rule in q.merge_rules:
        merged, weights = merge_answers(merged, weights, rule)
    assert merged.question_of_answer("m3").id == "q2"


def test_merge_answers_questionnaire_structure():
    q = unmerged_questionnaire()
    assert len(q.answer_ids) == 22
    merged, _ = merge_answers(q, unmerged_weight_matrix(), q.merge_rules[0])
    assert len(merged.answer_ids) == 19
    q1 = merged.questions[0]
    # merged answer sits where the first source answer was
    assert [a.id for a in q1.answers] == ["a_1_q1", "a_2_q1", "a_3_q1", "a_4_q1"]
    assert q1.mode is QuestionMode.MULTI_SELECT_WITH_EXCLUSIVE_NONE


def test_merge_then_mean_commutes():
    wm = unmerged_weight_matrix()
    q = unmerged_questionnaire()
    rule = q.merge_rules[0]
    first = mean_weights(merge_answers(q, wm, rule)[1])
    pre = mean_weights(wm)
    source_mean = np.mean([pre.value(s) for s in rule.source_answer_ids])
    assert first.value("a_2_q1") == pytest.approx(source_mean, rel=0, abs=1e-15)
    for aid in first.answer_ids:
        if aid != "a_2_q1":
            assert first.value(aid) == pre.value(aid)


def test_load_weight_matrix_round_trip(tmp_path, weight_matrix):
    path = tmp_path / "weights.csv"
    header = "doctor," + ",".join(weight_matrix.answer_ids)
    rows = [
        d + "," + ",".join(repr(float(v)) for v in row)
        for d, row in zip(weight_matrix.doctors, weight_matrix.values)
    ]
    # a blank row is skipped
    path.write_text("\n".join([header, *rows[:3], "", *rows[3:]]) + "\n", encoding="utf-8")
    loaded = load_weight_matrix(path)
    assert loaded.doctors == weight_matrix.doctors
    assert loaded.answer_ids == weight_matrix.answer_ids
    assert_array_equal(loaded.values, weight_matrix.values)


def test_answer_weight_vector_lookup(mean_vector):
    d = mean_vector.as_dict()
    assert set(d) == set(mean_vector.answer_ids)
    assert d["a_1_q3"] == mean_vector.value("a_1_q3")
    with pytest.raises(KeyError):
        mean_vector.value("missing")


def test_doctor_count_configurable(questionnaire, weight_matrix):
    import dataclasses

    wm = dataclasses.replace(
        weight_matrix, doctors=weight_matrix.doctors[:7], values=weight_matrix.values[:7]
    )
    validate_weights(wm, questionnaire)
    mv = mean_weights(wm)
    assert_allclose(
        [mv.value(a) for a in wm.answer_ids], weight_matrix.values[:7].mean(axis=0)
    )


@pytest.mark.parametrize("build, fault", [
    (lambda: WeightMatrix(("d", "d"), ("a",), np.zeros((2, 1))), "duplicate doctor ids"),
    (lambda: WeightMatrix(("d",), ("a", "a"), np.zeros((1, 2))),
     "duplicate answer ids in weight matrix"),
    (lambda: WeightMatrix(("d",), ("a", "b"), np.zeros((1, 3))),
     re.escape("weight matrix shape (1, 3) does not match 1 doctors x 2 answers")),
    (lambda: AnswerWeightVector(("a",), np.zeros(2), 1), "length mismatch"),
    (lambda: AnswerWeightVector(("a",), np.zeros(1), 0), "need at least one doctor"),
    (lambda: mean_weights(WeightMatrix((), ("a",), np.zeros((0, 1)))), "empty doctor list"),
], ids=["doctors", "answers", "shape", "totals", "n_doctors", "mean"])
def test_weight_containers_reject_malformed_input(build, fault):
    with pytest.raises(ValidationError, match=fault):
        build()
