"""Questionnaire structure, expert weight matrices, and answer merging.

A questionnaire is an ordered list of questions.  Each question is either
EXCLUSIVE (a patient picks exactly one answer) or multi-select with an
exclusive "none" option (the none-answer alone, or a non-empty subset of the
remaining answers).  Fifteen dermatology experts assigned each answer a
weight in [-1, 3]; per-answer means over the experts drive all downstream
scoring.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass, replace
from enum import Enum
from importlib import resources
from numbers import Integral
from pathlib import Path
from typing import Mapping

import numpy as np

WEIGHT_MIN = -1.0
WEIGHT_MAX = 3.0

_ID_FORBIDDEN = ',;"\r\n'


class ValidationError(ValueError):
    """Invalid input data: malformed schema, out-of-range or missing weights,
    or a case assignment that violates question constraints."""


def _read_only_copy(value, dtype=None) -> np.ndarray:
    """A new read-only array of ``value``: what every record that holds an
    array stores, so that no write crosses between it and its caller; such
    records compare and hash by identity (``eq=False``)."""
    a = np.array(value, dtype=dtype)
    a.setflags(write=False)
    return a


class QuestionMode(Enum):
    EXCLUSIVE = "exclusive"
    MULTI_SELECT_WITH_EXCLUSIVE_NONE = "multi_select_with_exclusive_none"


@dataclass(frozen=True)
class AnswerOption:
    """One selectable answer, identified by a stable id such as ``a_2_q6``."""

    id: str
    label: str

    def __post_init__(self) -> None:
        # ids become CSV cells, supports keys ("a;b") and CXT lines
        if not self.id or any(ch in self.id for ch in _ID_FORBIDDEN):
            raise ValidationError(
                f"answer id {self.id!r} must be non-empty and contain none of , ; \" CR LF"
            )


@dataclass(frozen=True)
class Question:
    id: str
    label: str
    mode: QuestionMode
    answers: tuple[AnswerOption, ...]
    none_answer_id: str | None = None

    def __post_init__(self) -> None:
        if not self.answers:
            raise ValidationError(f"question {self.id!r}: empty answer list")
        ids = [a.id for a in self.answers]
        if len(set(ids)) != len(ids):
            raise ValidationError(f"question {self.id!r}: duplicate answer ids")
        if self.mode is QuestionMode.MULTI_SELECT_WITH_EXCLUSIVE_NONE:
            if self.none_answer_id is None:
                raise ValidationError(
                    f"question {self.id!r}: multi-select mode requires none_answer_id"
                )
            if self.none_answer_id not in ids:
                raise ValidationError(
                    f"question {self.id!r}: none_answer_id {self.none_answer_id!r} "
                    "not among its answers"
                )
            if len(self.answers) < 2:
                raise ValidationError(
                    f"question {self.id!r}: multi-select needs at least one "
                    "answer besides the none option"
                )
        elif self.none_answer_id is not None:
            raise ValidationError(
                f"question {self.id!r}: none_answer_id only applies to "
                "multi-select questions"
            )

    @property
    def selectable_answer_ids(self) -> tuple[str, ...]:
        """The answers besides the none option: for an exclusive question,
        which has none, every answer."""
        return tuple(a.id for a in self.answers if a.id != self.none_answer_id)

    def combinations(self) -> list[tuple[str, ...]]:
        """Admissible combinations in canonical order.

        Exclusive questions follow answer-list order.  Multi-select questions
        put the none-answer first, then symptom subsets in binary-counting
        order over answer-list positions.
        """
        if self.mode is QuestionMode.EXCLUSIVE:
            return [(a.id,) for a in self.answers]
        symptoms = self.selectable_answer_ids
        combos: list[tuple[str, ...]] = [(self.none_answer_id,)]  # type: ignore[list-item]
        for bits in range(1, 2 ** len(symptoms)):
            combos.append(tuple(s for i, s in enumerate(symptoms) if bits >> i & 1))
        return combos


@dataclass(frozen=True)
class MergeRule:
    """Replace several answers of one question by a single answer whose
    per-doctor weight is the arithmetic mean of the source weights."""

    source_answer_ids: tuple[str, ...]
    merged_answer: AnswerOption

    def __post_init__(self) -> None:
        if len(self.source_answer_ids) < 2:
            raise ValidationError("merge rule needs at least two source answers")
        if len(set(self.source_answer_ids)) != len(self.source_answer_ids):
            raise ValidationError("merge rule lists a source answer twice")


@dataclass(frozen=True)
class Questionnaire:
    questions: tuple[Question, ...]
    merge_rules: tuple[MergeRule, ...] = ()

    def __post_init__(self) -> None:
        qids = [q.id for q in self.questions]
        if len(set(qids)) != len(qids):
            raise ValidationError("duplicate question ids")
        aids = [a.id for a in self.answers]
        if len(set(aids)) != len(aids):
            raise ValidationError("duplicate answer ids across questions")

    @property
    def answers(self) -> tuple[AnswerOption, ...]:
        return tuple(a for q in self.questions for a in q.answers)

    @property
    def answer_ids(self) -> tuple[str, ...]:
        return tuple(a.id for a in self.answers)

    def question_of_answer(self, answer_id: str) -> Question:
        for q in self.questions:
            if any(a.id == answer_id for a in q.answers):
                return q
        raise KeyError(answer_id)


@dataclass(frozen=True, eq=False)
class WeightMatrix:
    """Per-doctor, per-answer weights, every cell present and in [-1, 3],
    held as a read-only copy."""

    doctors: tuple[str, ...]
    answer_ids: tuple[str, ...]
    values: np.ndarray  # shape (n_doctors, n_answers), float64

    def __post_init__(self) -> None:
        if len(set(self.doctors)) != len(self.doctors):
            raise ValidationError("duplicate doctor ids")
        if len(set(self.answer_ids)) != len(self.answer_ids):
            raise ValidationError("duplicate answer ids in weight matrix")
        object.__setattr__(self, "values", _read_only_copy(self.values, float))
        if self.values.shape != (len(self.doctors), len(self.answer_ids)):
            raise ValidationError(
                f"weight matrix shape {self.values.shape} does not match "
                f"{len(self.doctors)} doctors x {len(self.answer_ids)} answers"
            )


@dataclass(frozen=True, eq=False)
class AnswerWeightVector:
    """Per-answer weight totals over doctors, a read-only copy; the mean
    weights are ``totals / n_doctors``.  Quarter-point weights and their merge
    means are dyadic, so the totals, and any sum of them, are exact floats."""

    answer_ids: tuple[str, ...]
    totals: np.ndarray  # shape (n_answers,), float64
    n_doctors: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "totals", _read_only_copy(self.totals, float))
        if self.totals.shape != (len(self.answer_ids),):
            raise ValidationError("weight total vector length mismatch")
        n = self.n_doctors
        if isinstance(n, bool) or not isinstance(n, Integral) or n < 1:
            raise ValidationError(f"weight totals need at least one doctor, counted "
                                  f"by an integer, got {n!r}")

    @property
    def values(self) -> np.ndarray:
        """Per-answer mean weights."""
        return self.totals / self.n_doctors

    def value(self, answer_id: str) -> float:
        try:
            return float(self.values[self.answer_ids.index(answer_id)])
        except ValueError:
            raise KeyError(answer_id) from None

    def as_dict(self) -> dict[str, float]:
        return {a: float(v) for a, v in zip(self.answer_ids, self.values)}


def _mapping(raw, where: str) -> Mapping:
    if not isinstance(raw, Mapping):
        raise ValidationError(f"{where} must be a key/value document, got {raw!r}")
    return raw


def read_json_mapping(path: str | Path) -> Mapping:
    """The key/value document in a JSON file; a file that cannot be opened
    raises OSError, a malformed one ValidationError."""
    with open(path, "r", encoding="utf-8") as f:
        try:
            doc = json.load(f)
        except ValueError as e:  # invalid JSON or invalid UTF-8
            raise ValidationError(f"{path}: not valid JSON: {e}") from None
    return _mapping(doc, str(path))


def _list(doc: Mapping, key: str, where: str = "questionnaire") -> list:
    value = doc.get(key, [])
    if not isinstance(value, (list, tuple)):
        raise ValidationError(f"{where}: {key!r} must be a list, got {value!r}")
    return list(value)


def _string(raw: Mapping, key: str, where: str, default: str | None = None) -> str:
    """The string at ``key``, or ``default`` if given when the key is missing."""
    value = raw.get(key, default)
    if value is None and key not in raw:
        raise ValidationError(f"{where} missing field {key!r}")
    if not isinstance(value, str):
        raise ValidationError(f"{where}: {key!r} must be a string, got {value!r}")
    return value


def _parse_answer(raw: Mapping, question_id: str) -> AnswerOption:
    where = f"answer in question {question_id!r}"
    raw = _mapping(raw, where)
    return AnswerOption(id=_string(raw, "id", where), label=_string(raw, "label", where))


def _source_question(questionnaire: Questionnaire, sources: tuple[str, ...]) -> Question:
    """The one question of ``questionnaire`` that owns every merge source."""
    owners = {q.id: q for q in questionnaire.questions for a in q.answers if a.id in sources}
    if len(owners) != 1 or not set(sources) <= set(questionnaire.answer_ids):
        raise ValidationError(
            f"merge rule sources {sources} must all belong to one existing question"
        )
    return owners.popitem()[1]


def parse_merge_rule(doc: Mapping, questionnaire: Questionnaire) -> MergeRule:
    """Build a MergeRule from its mapping in a questionnaire document,
    resolved against a questionnaire as the earlier rules leave it (the
    sources must all belong to one of its questions)."""
    doc = _mapping(doc, "merge rule")
    for key in ("source_answer_ids", "merged_answer"):
        if key not in doc:
            raise ValidationError(f"merge rule missing field {key!r}")
    sources = tuple(_list(doc, "source_answer_ids", "merge rule"))
    if not all(isinstance(s, str) for s in sources):
        raise ValidationError(f"merge rule: source answer ids must be strings, got {sources!r}")
    question = _source_question(questionnaire, sources)
    return MergeRule(sources, _parse_answer(doc["merged_answer"], question.id))


def _merge_questions(questionnaire: Questionnaire, rule: MergeRule) -> Questionnaire:
    """The questionnaire with the rule's source answers, all of one
    question, replaced by the merged answer at the first source's position,
    and the rule dropped from its merge rules."""
    sources, merged = rule.source_answer_ids, rule.merged_answer
    question = _source_question(questionnaire, sources)
    if question.none_answer_id in sources:
        raise ValidationError("cannot merge away the none-answer of a question")
    if merged.id in set(questionnaire.answer_ids) - set(sources):
        raise ValidationError(f"merged answer id {merged.id!r} collides with an existing answer")
    first = min(map([a.id for a in question.answers].index, sources))
    kept = [a for a in question.answers if a.id not in sources]
    answers = (*kept[:first], merged, *kept[first:])
    return Questionnaire(
        questions=tuple(
            replace(q, answers=answers) if q is question else q
            for q in questionnaire.questions
        ),
        merge_rules=tuple(r for r in questionnaire.merge_rules if r != rule),
    )


def load_questionnaire(source: Mapping | str | Path) -> Questionnaire:
    """Build a validated Questionnaire from a config mapping or a JSON file.

    The document holds a ``questions`` list (fields ``id``, ``label``,
    ``mode``, ``answers``, optional ``none_answer_id``) and an optional
    ``merge_rules`` list.
    """
    doc = read_json_mapping(source) if isinstance(source, (str, Path)) else source
    if not isinstance(doc, Mapping) or "questions" not in doc:
        raise ValidationError("questionnaire config must contain a 'questions' list")
    questions = []
    for raw_q in _list(doc, "questions"):
        raw_q = _mapping(raw_q, "question")
        qid = _string(raw_q, "id", "question", "")
        if not qid:
            raise ValidationError("question without id")
        mode_name = _string(raw_q, "mode", f"question {qid!r}", "exclusive")
        try:
            mode = QuestionMode(mode_name)
        except ValueError:
            raise ValidationError(f"question {qid!r}: unknown mode {mode_name!r}") from None
        answers = tuple(_parse_answer(a, qid) for a in _list(raw_q, "answers", f"question {qid}"))
        questions.append(
            Question(
                id=qid,
                label=_string(raw_q, "label", f"question {qid!r}", ""),
                mode=mode,
                answers=answers,
                none_answer_id=raw_q.get("none_answer_id"),
            )
        )
    questionnaire = Questionnaire(questions=tuple(questions))
    # each rule is resolved against the questions as the earlier rules leave them
    rules, merged = [], questionnaire
    for raw in _list(doc, "merge_rules"):
        rules.append(parse_merge_rule(raw, merged))
        merged = _merge_questions(merged, rules[-1])
    return replace(questionnaire, merge_rules=tuple(rules))


def load_weight_matrix(source: str | Path) -> WeightMatrix:
    """Read a weight matrix from delimited text.

    Header row: ``doctor`` followed by answer ids; one row per doctor,
    decimal-point floats.
    """
    with open(source, "r", encoding="utf-8", newline="") as f:
        try:
            rows = list(csv.reader(f))
        except (UnicodeDecodeError, csv.Error) as e:
            raise ValidationError(f"{source}: not a UTF-8 CSV file: {e}") from None
    if not rows:
        raise ValidationError(f"{source}: empty weight matrix file")
    header = rows[0]
    if len(header) < 2:
        raise ValidationError(f"{source}: header must list answer ids")
    answer_ids = tuple(h.strip() for h in header[1:])
    doctors = []
    values = []
    for lineno, row in enumerate(rows[1:], start=2):
        if not row or all(not c.strip() for c in row):
            continue
        if len(row) != len(header):
            raise ValidationError(f"{source}:{lineno}: expected {len(header)} columns")
        doctors.append(row[0].strip())
        try:
            values.append([float(c) for c in row[1:]])
        except ValueError as e:
            raise ValidationError(f"{source}:{lineno}: {e}") from None
    values = np.array(values, dtype=float).reshape(len(doctors), len(answer_ids))
    return WeightMatrix(doctors=tuple(doctors), answer_ids=answer_ids, values=values)


def validate_weights(wm: WeightMatrix, questionnaire: Questionnaire) -> WeightMatrix:
    """Return ``wm`` with its columns in the questionnaire's answer order iff
    it has exactly the questionnaire's answers and every weight lies in
    [-1, 3]."""
    expected = set(questionnaire.answer_ids)
    present = set(wm.answer_ids)
    missing = expected - present
    if missing:
        raise ValidationError(f"weight matrix missing answers: {sorted(missing)}")
    extra = present - expected
    if extra:
        raise ValidationError(f"weight matrix has unknown answers: {sorted(extra)}")
    if not wm.doctors:
        raise ValidationError("weight matrix has no doctors")
    if not np.all(np.isfinite(wm.values)):
        bad = np.argwhere(~np.isfinite(wm.values))[0]
        raise ValidationError(
            f"non-finite weight for doctor {wm.doctors[bad[0]]!r}, "
            f"answer {wm.answer_ids[bad[1]]!r}"
        )
    if np.any(wm.values < WEIGHT_MIN) or np.any(wm.values > WEIGHT_MAX):
        bad = np.argwhere((wm.values < WEIGHT_MIN) | (wm.values > WEIGHT_MAX))[0]
        raise ValidationError(
            f"weight {wm.values[bad[0], bad[1]]} for doctor {wm.doctors[bad[0]]!r}, "
            f"answer {wm.answer_ids[bad[1]]!r} outside [{WEIGHT_MIN}, {WEIGHT_MAX}]"
        )
    if wm.answer_ids == questionnaire.answer_ids:
        return wm
    order = [wm.answer_ids.index(a) for a in questionnaire.answer_ids]
    return WeightMatrix(wm.doctors, questionnaire.answer_ids, wm.values[:, order])


def merge_answers(
    questionnaire: Questionnaire, weights: WeightMatrix, rule: MergeRule
) -> tuple[Questionnaire, WeightMatrix]:
    """Apply a merge rule to a questionnaire and its validated weights.

    The rule's source answers, all of one question, are replaced by the
    merged answer at the first source's position; each doctor's weight for
    it is the mean of that doctor's source weights.  The weights come back in
    the merged questionnaire's answer order.
    """
    if weights.answer_ids != questionnaire.answer_ids:
        raise ValidationError("weight matrix answers differ from the questionnaire's")
    merged_q = _merge_questions(questionnaire, rule)
    source_cols = [questionnaire.answer_ids.index(a) for a in rule.source_answer_ids]
    columns = dict(zip(weights.answer_ids, weights.values.T))
    columns[rule.merged_answer.id] = weights.values[:, source_cols].mean(axis=1)
    values = np.column_stack([columns[a] for a in merged_q.answer_ids])
    return merged_q, WeightMatrix(weights.doctors, merged_q.answer_ids, values)


def mean_weights(wm: WeightMatrix) -> AnswerWeightVector:
    """Per-answer weight totals across doctors, whose quotient by the doctor
    count is the arithmetic mean, no rounding."""
    if not wm.doctors:
        raise ValidationError("cannot average an empty doctor list")
    return AnswerWeightVector(wm.answer_ids, wm.values.sum(axis=0), len(wm.doctors))


def default_questionnaire() -> Questionnaire:
    """The shipped six-question schema (19 answers after symptom merging)."""
    with resources.files("emprob.data").joinpath("questionnaire.json").open(
        "r", encoding="utf-8"
    ) as f:
        return load_questionnaire(json.load(f))


def default_weight_matrix() -> WeightMatrix:
    """The shipped 15-doctor weight matrix for the default questionnaire."""
    path = resources.files("emprob.data").joinpath("weights.csv")
    with resources.as_file(path) as p:
        return load_weight_matrix(p)
