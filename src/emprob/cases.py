"""Enumeration of admissible questionnaire cases and per-case weight sums.

A case assigns every question one of the admissible answer combinations that
``Question.combinations()`` lists: exactly one answer for an exclusive
question; for a multi-select question either the none-answer alone or a
non-empty subset of the symptom answers.  Cases are
ordered canonically: questions vary like mixed-radix digits with the first
question most significant, each question running through its combinations in
canonical order (answer-list order for exclusive questions; none first, then
symptom subsets in binary-counting order).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from emprob.schema import AnswerWeightVector, Questionnaire, ValidationError


@dataclass(frozen=True)
class CaseVector:
    """One admissible response pattern, held as the set of true answers."""

    true_answers: frozenset[str]


def _digits(case: CaseVector, questionnaire: Questionnaire) -> list[int]:
    """Each question's index of the case's answers in its combinations();
    raises ValidationError unless the case is admissible."""
    unknown = case.true_answers - set(questionnaire.answer_ids)
    if unknown:
        raise ValidationError(f"unknown answers in case: {sorted(unknown)}")
    digits = []
    for q in questionnaire.questions:
        chosen = tuple(a.id for a in q.answers if a.id in case.true_answers)
        try:
            digits.append(q.combinations().index(chosen))
        except ValueError:
            raise ValidationError(
                f"question {q.id!r}: {list(chosen)} is not an admissible answer combination"
            ) from None
    return digits


def canonical_index(case: CaseVector, questionnaire: Questionnaire) -> int:
    """Mixed-radix rank of the case in canonical order; ValidationError unless admissible."""
    idx = 0
    for q, d in zip(questionnaire.questions, _digits(case, questionnaire)):
        idx = idx * q.combination_count() + d
    return idx


class CaseSet:
    """All admissible cases in canonical order, as a boolean indicator matrix.

    Rows are cases, columns follow the questionnaire's answer order.
    """

    def __init__(self, questionnaire: Questionnaire):
        self.questionnaire = questionnaire
        self.answer_ids: tuple[str, ...] = questionnaire.answer_ids
        # Cartesian product of the per-question blocks, later questions
        # varying fastest; the empty product is one case with no answers
        matrix = np.zeros((1, 0), dtype=bool)
        for q in questionnaire.questions:
            block = np.array([[a.id in c for a in q.answers] for c in q.combinations()])
            matrix = np.hstack([np.repeat(matrix, len(block), axis=0),
                                np.tile(block, (len(matrix), 1))])
        matrix.setflags(write=False)
        self.matrix = matrix

    def __len__(self) -> int:
        return self.matrix.shape[0]

    def case(self, index: int) -> CaseVector:
        """The case at a canonical index; the inverse of canonical_index."""
        if not 0 <= index < len(self):
            raise ValidationError(f"case index {index} outside [0, {len(self)})")
        row = self.matrix[index]
        return CaseVector(
            true_answers=frozenset(a for a, v in zip(self.answer_ids, row) if v)
        )


def enumerate_cases(questionnaire: Questionnaire) -> CaseSet:
    """All admissible cases, exactly once, in canonical order."""
    return CaseSet(questionnaire)


@dataclass(frozen=True)
class WeightSumTable:
    """Raw and min-max normalized weight sums, with the bounds kept for the
    fit report."""

    raw_sums: np.ndarray
    normalized: np.ndarray
    raw_min: float
    raw_max: float
    case_set: CaseSet

    def __post_init__(self) -> None:
        raw = np.asarray(self.raw_sums, dtype=float)
        norm = np.asarray(self.normalized, dtype=float)
        if raw.shape != norm.shape or raw.ndim != 1:
            raise ValidationError("raw and normalized sums must be equal-length vectors")
        if norm.size and (norm.min() < 0.0 or norm.max() > 1.0):
            raise ValidationError("normalized sums must lie in [0, 1]")
        if len(self.case_set) != raw.size:
            raise ValidationError("case set size does not match sums")
        for a in (raw, norm):
            a.setflags(write=False)
        object.__setattr__(self, "raw_sums", raw)
        object.__setattr__(self, "normalized", norm)

    def __len__(self) -> int:
        return int(self.raw_sums.size)


def weight_sum_table(case_set: CaseSet, weights: AnswerWeightVector) -> WeightSumTable:
    """Per-case sums of the mean weights of the true answers, in canonical
    order, with their min-max normalization onto [0, 1].

    The minimum maps to 0 and the maximum to 1; the bounds are stored in the
    table.  Fewer than two sums, a non-finite sum, or all sums equal is an
    error, since the affine map is then undefined.
    """
    if tuple(weights.answer_ids) != tuple(case_set.answer_ids):
        raise ValidationError("weight vector answer order differs from case set")
    # the totals of quarter-point weights add up exactly, so each sum is one
    # correctly rounded division of its exact total
    raw = (case_set.matrix * weights.totals).sum(axis=1) / weights.n_doctors
    if raw.size < 2:
        raise ValidationError("normalization needs at least two sums")
    if not np.all(np.isfinite(raw)):
        raise ValidationError("sums contain non-finite values")
    lo = float(raw.min())
    hi = float(raw.max())
    if hi == lo:
        raise ValidationError("cannot normalize: all case sums identical")
    return WeightSumTable(
        raw_sums=raw,
        normalized=(raw - lo) / (hi - lo),
        raw_min=lo,
        raw_max=hi,
        case_set=case_set,
    )
