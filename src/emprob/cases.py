"""Enumeration of admissible questionnaire cases and per-case weight sums.

A case assigns every question one of the admissible answer combinations that
``Question.combinations()`` lists: exactly one answer for an exclusive
question; for a multi-select question either the none-answer alone or a
non-empty subset of the symptom answers.  Cases are
ordered canonically: questions vary like mixed-radix digits with the first
question most significant, each question running through its combinations in
canonical order (answer-list order for exclusive questions; none first, then
symptom subsets in binary-counting order).  A ``WeightSumTable`` takes only
the raw sums and derives their normalization, so it cannot disagree with them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from numbers import Integral

import numpy as np

from emprob.schema import AnswerWeightVector, Questionnaire, ValidationError, _read_only_copy


@dataclass(frozen=True)
class CaseVector:
    """One admissible response pattern, held as the set of true answers."""

    true_answers: frozenset[str]


def _digits(case: CaseVector, questionnaire: Questionnaire) -> list[tuple[int, int]]:
    """Each question's (digit, radix): the index of the case's answers in
    its combinations(), and their number; raises ValidationError unless the
    case is admissible."""
    unknown = case.true_answers - set(questionnaire.answer_ids)
    if unknown:
        raise ValidationError(f"unknown answers in case: {sorted(unknown)}")
    digits = []
    for q in questionnaire.questions:
        chosen = tuple(a.id for a in q.answers if a.id in case.true_answers)
        combinations = q.combinations()
        try:
            digits.append((combinations.index(chosen), len(combinations)))
        except ValueError:
            raise ValidationError(
                f"question {q.id!r}: {list(chosen)} is not an admissible answer combination"
            ) from None
    return digits


def canonical_index(case: CaseVector, questionnaire: Questionnaire) -> int:
    """Mixed-radix rank of the case in canonical order; ValidationError unless admissible."""
    idx = 0
    for digit, radix in _digits(case, questionnaire):
        idx = idx * radix + digit
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
        self.matrix = _read_only_copy(matrix)

    def __len__(self) -> int:
        return self.matrix.shape[0]

    def case(self, index: int) -> CaseVector:
        """The case at a canonical index; the inverse of canonical_index."""
        n = len(self)
        if isinstance(index, bool) or not isinstance(index, Integral) or not 0 <= index < n:
            raise ValidationError(f"case index must be an integer in [0, {n}), got {index!r}")
        row = self.matrix[index]
        return CaseVector(
            true_answers=frozenset(a for a, v in zip(self.answer_ids, row) if v)
        )


def enumerate_cases(questionnaire: Questionnaire) -> CaseSet:
    """All admissible cases, exactly once, in canonical order."""
    return CaseSet(questionnaire)


@dataclass(frozen=True, eq=False)
class WeightSumTable:
    """Per-case weight sums in canonical order, held as a read-only copy,
    and their min-max normalization onto [0, 1], derived on construction:
    the minimum maps to 0 and the maximum to 1, and the fit report records
    both bounds.  Fewer than two sums, a non-finite sum, or all sums equal
    is an error, since the affine map is then undefined."""

    raw_sums: np.ndarray
    case_set: CaseSet
    raw_min: float = field(init=False)
    raw_max: float = field(init=False)
    normalized: np.ndarray = field(init=False)

    def __post_init__(self) -> None:
        raw = _read_only_copy(self.raw_sums, float)
        if raw.shape != (len(self.case_set),):
            raise ValidationError("case set size does not match sums")
        if raw.size < 2:
            raise ValidationError("normalization needs at least two sums")
        if not np.all(np.isfinite(raw)):
            raise ValidationError("sums contain non-finite values")
        lo, hi = float(raw.min()), float(raw.max())
        if hi == lo:
            raise ValidationError("cannot normalize: all case sums identical")
        for name, value in (("raw_sums", raw), ("raw_min", lo), ("raw_max", hi),
                            ("normalized", _read_only_copy((raw - lo) / (hi - lo)))):
            object.__setattr__(self, name, value)

    def __len__(self) -> int:
        return int(self.raw_sums.size)


def weight_sum_table(case_set: CaseSet, weights: AnswerWeightVector) -> WeightSumTable:
    """Per-case sums of the mean weights of the true answers, in canonical
    order, as a ``WeightSumTable`` that normalizes them."""
    if tuple(weights.answer_ids) != tuple(case_set.answer_ids):
        raise ValidationError("weight vector answer order differs from case set")
    # the totals of quarter-point weights add up exactly, so each sum is one
    # correctly rounded division of its exact total
    return WeightSumTable((case_set.matrix * weights.totals).sum(axis=1) / weights.n_doctors,
                          case_set)
