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
from dataclasses import dataclass, field
from enum import Enum
from importlib import resources
from pathlib import Path
from typing import Iterable, Mapping

import numpy as np

WEIGHT_MIN = -1.0
WEIGHT_MAX = 3.0


class ValidationError(ValueError):
    """Invalid input data: malformed schema, out-of-range or missing weights,
    or a case assignment that violates question constraints."""


class QuestionMode(Enum):
    EXCLUSIVE = "exclusive"
    MULTI_SELECT_WITH_EXCLUSIVE_NONE = "multi_select_with_exclusive_none"


@dataclass(frozen=True)
class AnswerOption:
    """One selectable answer, identified by a stable id such as ``a_2_q6``."""

    id: str
    label: str
    question_id: str


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
        for a in self.answers:
            if a.question_id != self.id:
                raise ValidationError(
                    f"answer {a.id!r} claims question {a.question_id!r}, "
                    f"listed under {self.id!r}"
                )
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
        """Non-none answers for multi-select; all answers for exclusive."""
        if self.mode is QuestionMode.EXCLUSIVE:
            return tuple(a.id for a in self.answers)
        return tuple(a.id for a in self.answers if a.id != self.none_answer_id)

    def combination_count(self) -> int:
        """Number of admissible answer combinations for this question."""
        if self.mode is QuestionMode.EXCLUSIVE:
            return len(self.answers)
        # none-answer alone, XOR a non-empty subset of the remaining answers
        return 2 ** len(self.selectable_answer_ids)

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

    def case_count(self) -> int:
        n = 1
        for q in self.questions:
            n *= q.combination_count()
        return n


@dataclass(frozen=True)
class WeightMatrix:
    """Per-doctor, per-answer weights, every cell present and in [-1, 3]."""

    doctors: tuple[str, ...]
    answer_ids: tuple[str, ...]
    values: np.ndarray  # shape (n_doctors, n_answers), float64

    def __post_init__(self) -> None:
        if len(set(self.doctors)) != len(self.doctors):
            raise ValidationError("duplicate doctor ids")
        if len(set(self.answer_ids)) != len(self.answer_ids):
            raise ValidationError("duplicate answer ids in weight matrix")
        values = np.asarray(self.values, dtype=float)
        if values.shape != (len(self.doctors), len(self.answer_ids)):
            raise ValidationError(
                f"weight matrix shape {values.shape} does not match "
                f"{len(self.doctors)} doctors x {len(self.answer_ids)} answers"
            )
        values.setflags(write=False)
        object.__setattr__(self, "values", values)


@dataclass(frozen=True)
class AnswerWeightVector:
    """Per-answer mean weight over doctors, kept at full precision."""

    answer_ids: tuple[str, ...]
    values: np.ndarray  # shape (n_answers,), float64

    def __post_init__(self) -> None:
        values = np.asarray(self.values, dtype=float)
        if values.shape != (len(self.answer_ids),):
            raise ValidationError("mean weight vector length mismatch")
        values.setflags(write=False)
        object.__setattr__(self, "values", values)

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


def _parse_answer(raw: Mapping, question_id: str) -> AnswerOption:
    raw = _mapping(raw, f"answer in question {question_id!r}")
    try:
        return AnswerOption(id=str(raw["id"]), label=str(raw["label"]), question_id=question_id)
    except KeyError as e:
        raise ValidationError(f"answer in question {question_id!r} missing field {e}") from None


def _parse_merge_rule(raw: Mapping, questions: Iterable[Question]) -> MergeRule:
    raw = _mapping(raw, "merge rule")
    for key in ("source_answer_ids", "merged_answer"):
        if key not in raw:
            raise ValidationError(f"merge rule missing field {key!r}")
    sources = tuple(str(s) for s in _list(raw, "source_answer_ids", "merge rule"))
    owners = {q.id for q in questions for a in q.answers if a.id in sources}
    if len(owners) != 1:
        raise ValidationError(
            f"merge rule sources {sources} must all belong to one existing question"
        )
    merged = _parse_answer(raw["merged_answer"], owners.pop())
    return MergeRule(source_answer_ids=sources, merged_answer=merged)


def parse_merge_rule(doc: Mapping, questionnaire: Questionnaire) -> MergeRule:
    """Build a MergeRule from its config mapping, resolved against a
    questionnaire (sources must all belong to one of its questions)."""
    return _parse_merge_rule(doc, questionnaire.questions)


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
        try:
            mode = QuestionMode(str(raw_q.get("mode", "exclusive")))
        except ValueError:
            raise ValidationError(
                f"question {raw_q.get('id')!r}: unknown mode {raw_q.get('mode')!r}"
            ) from None
        qid = str(raw_q.get("id", ""))
        if not qid:
            raise ValidationError("question without id")
        answers = tuple(_parse_answer(a, qid) for a in _list(raw_q, "answers", f"question {qid}"))
        questions.append(
            Question(
                id=qid,
                label=str(raw_q.get("label", "")),
                mode=mode,
                answers=answers,
                none_answer_id=raw_q.get("none_answer_id"),
            )
        )
    rules = tuple(_parse_merge_rule(r, questions) for r in _list(doc, "merge_rules"))
    return Questionnaire(questions=tuple(questions), merge_rules=rules)


def load_weight_matrix(source: str | Path) -> WeightMatrix:
    """Read a weight matrix from delimited text.

    Header row: ``doctor`` followed by answer ids; one row per doctor,
    decimal-point floats.
    """
    with open(source, "r", encoding="utf-8", newline="") as f:
        rows = list(csv.reader(f))
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
    return WeightMatrix(
        doctors=tuple(doctors), answer_ids=answer_ids, values=np.array(values, dtype=float)
    )


def validate_weights(wm: WeightMatrix, questionnaire: Questionnaire) -> WeightMatrix:
    """Return ``wm`` unchanged iff it is complete for the questionnaire and
    every weight lies in [-1, 3]."""
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
    return wm


def apply_merge(
    wm: WeightMatrix, rule: MergeRule, questionnaire: Questionnaire | None = None
) -> WeightMatrix:
    """Drop the rule's source answers and add the merged answer, whose weight
    per doctor is the mean of that doctor's source weights.

    When a questionnaire is given, the sources are additionally checked to
    belong to a single question.
    """
    for aid in rule.source_answer_ids:
        if aid not in wm.answer_ids:
            raise ValidationError(f"merge source {aid!r} not in weight matrix")
    if questionnaire is not None:
        owners = set()
        for aid in rule.source_answer_ids:
            try:
                owners.add(questionnaire.question_of_answer(aid).id)
            except KeyError:
                raise ValidationError(f"merge source {aid!r} not in questionnaire") from None
        if len(owners) != 1:
            raise ValidationError(
                f"merge sources span multiple questions: {sorted(owners)}"
            )
    src_idx = [wm.answer_ids.index(a) for a in rule.source_answer_ids]
    keep_idx = [i for i in range(len(wm.answer_ids)) if i not in src_idx]
    merged_col = wm.values[:, src_idx].mean(axis=1)

    remaining = [wm.answer_ids[i] for i in keep_idx]
    if rule.merged_answer.id in remaining:
        raise ValidationError(
            f"merged answer id {rule.merged_answer.id!r} collides with an existing answer"
        )
    insert_at = min(src_idx)
    # merged column takes the position of the first source answer
    new_ids: list[str] = []
    new_cols: list[np.ndarray] = []
    placed = False
    for i in range(len(wm.answer_ids)):
        if i == insert_at:
            new_ids.append(rule.merged_answer.id)
            new_cols.append(merged_col)
            placed = True
        if i in src_idx:
            continue
        new_ids.append(wm.answer_ids[i])
        new_cols.append(wm.values[:, i])
    if not placed:  # first source was the last column
        new_ids.append(rule.merged_answer.id)
        new_cols.append(merged_col)
    return WeightMatrix(
        doctors=wm.doctors, answer_ids=tuple(new_ids), values=np.column_stack(new_cols)
    )


def merge_questionnaire(questionnaire: Questionnaire, rule: MergeRule) -> Questionnaire:
    """Apply a merge rule to the questionnaire itself: the source answers are
    replaced by the merged answer at the first source position."""
    owners = set()
    for aid in rule.source_answer_ids:
        try:
            owners.add(questionnaire.question_of_answer(aid).id)
        except KeyError:
            raise ValidationError(f"merge source {aid!r} not in questionnaire") from None
    if len(owners) != 1:
        raise ValidationError(f"merge sources span multiple questions: {sorted(owners)}")
    qid = owners.pop()
    if rule.merged_answer.question_id != qid:
        raise ValidationError(
            f"merged answer {rule.merged_answer.id!r} assigned to question "
            f"{rule.merged_answer.question_id!r}, sources belong to {qid!r}"
        )
    new_questions = []
    for q in questionnaire.questions:
        if q.id != qid:
            new_questions.append(q)
            continue
        answers: list[AnswerOption] = []
        placed = False
        for a in q.answers:
            if a.id in rule.source_answer_ids:
                if not placed:
                    answers.append(rule.merged_answer)
                    placed = True
                continue
            answers.append(a)
        none_id = q.none_answer_id
        if none_id in rule.source_answer_ids:
            raise ValidationError("cannot merge away the none-answer of a question")
        new_questions.append(
            Question(id=q.id, label=q.label, mode=q.mode, answers=tuple(answers),
                     none_answer_id=none_id)
        )
    remaining_rules = tuple(r for r in questionnaire.merge_rules if r != rule)
    return Questionnaire(questions=tuple(new_questions), merge_rules=remaining_rules)


def mean_weights(wm: WeightMatrix) -> AnswerWeightVector:
    """Per-answer arithmetic mean across doctors, no rounding."""
    if not wm.doctors:
        raise ValidationError("cannot average an empty doctor list")
    return AnswerWeightVector(answer_ids=wm.answer_ids, values=wm.values.mean(axis=0))


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
