"""Probability-style scores for questionnaire cases.

Three scores are derived from the normalized weight sum x of a case:

1. ``gmm_cdf``: the fitted mixture's distribution function at x.
2. ``kde_cdf``: the kernel estimate's distribution function at x.
3. ``posterior``: the posterior probability that x belongs to the
   highest-mean ("ill") mixture component.

Scores map onto LOW / MEDIUM / HIGH categories by two thresholds; the
table's category column comes from the gmm_cdf score, the consensus default.
Batch scoring evaluates each distinct normalized sum once and gathers the
scores back per case.  With quarter-point weights every raw sum is the
correctly rounded exact value, so cases with equal sums get identical scores.
The table holds every admissible case, so scoring a single case is a lookup
of its row at ``canonical_index``.  ``COLUMNS`` names the per-case numbers
once, for the table, the score files and the single-case row alike.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import IntEnum
from typing import Any, Iterable

import numpy as np

from emprob.cases import CaseSet, CaseVector, WeightSumTable, canonical_index
from emprob.density import GaussianMixture, KernelDensityEstimate
from emprob.schema import ValidationError

DEFAULT_THRESHOLDS = (0.33, 0.68)

# (output column, ScoreTable field) of each per-case number, in output
# order; the last three are the scores of approaches 1, 2 and 3
COLUMNS = (
    ("raw_sum", "raw_sums"),
    ("normalized_sum", "normalized"),
    ("p_gmm_cdf", "score_gmm_cdf"),
    ("p_kde_cdf", "score_kde_cdf"),
    ("p_posterior", "score_posterior"),
)

APPROACHES = (1, 2, 3)


class ProbabilityCategory(IntEnum):
    """Ordered label bands; ties elsewhere resolve toward LOW."""

    LOW = 0
    MEDIUM = 1
    HIGH = 2


def validate_thresholds(thresholds: tuple[float, float]) -> tuple[float, float]:
    try:
        t1, t2 = (float(t) for t in thresholds)
    except (TypeError, ValueError):
        raise ValidationError(f"thresholds must be two floats, got {thresholds!r}") from None
    if not (0.0 < t1 < t2 < 1.0):
        raise ValidationError(
            f"thresholds must satisfy 0 < t1 < t2 < 1, got ({t1}, {t2})"
        )
    return t1, t2


def categorize_array(
    p: np.ndarray, thresholds: tuple[float, float] = DEFAULT_THRESHOLDS
) -> np.ndarray:
    """Category values of an array of scores: LOW on [0, t1), MEDIUM on
    [t1, t2), HIGH on [t2, 1]; a score outside [0, 1] is an error."""
    t1, t2 = validate_thresholds(thresholds)
    p = np.asarray(p, dtype=float)
    if p.size and (not np.all(np.isfinite(p)) or p.min() < 0.0 or p.max() > 1.0):
        raise ValidationError("scores outside [0, 1]")
    return np.where(p < t1, int(ProbabilityCategory.LOW),
                    np.where(p < t2, int(ProbabilityCategory.MEDIUM),
                             int(ProbabilityCategory.HIGH)))


def ill_component(model: GaussianMixture) -> int:
    """Index of the highest-mean component, the ill subpopulation."""
    return int(np.argmax(model.means))


@dataclass(frozen=True)
class ScoreTable:
    """Scores for every case of a weight-sum table, rows in canonical order.

    The category column is the approach-1 (gmm_cdf) category under the
    stored thresholds.
    """

    case_set: CaseSet
    raw_sums: np.ndarray
    normalized: np.ndarray
    score_gmm_cdf: np.ndarray
    score_kde_cdf: np.ndarray
    score_posterior: np.ndarray
    category: np.ndarray
    thresholds: tuple[float, float]

    def __post_init__(self) -> None:
        n = self.raw_sums.size
        for name in (*(field for _, field in COLUMNS), "category"):
            if getattr(self, name).shape != (n,):
                raise ValidationError(f"{name} length does not match raw_sums")
        for approach in APPROACHES:
            s = self.scores_by_approach(approach)
            if s.size and (s.min() < 0.0 or s.max() > 1.0):
                raise ValidationError(f"approach {approach} scores outside [0, 1]")

    def __len__(self) -> int:
        return int(self.raw_sums.size)

    @property
    def answer_ids(self) -> tuple[str, ...]:
        return self.case_set.answer_ids

    def scores_by_approach(self, approach: int) -> np.ndarray:
        if approach not in APPROACHES:
            raise ValidationError(f"approach must be one of {APPROACHES}, got {approach!r}")
        return getattr(self, COLUMNS[-len(APPROACHES):][approach - 1][1])


def elicit_probabilities(
    table: WeightSumTable,
    gmm: GaussianMixture,
    kde: KernelDensityEstimate,
    *,
    thresholds: tuple[float, float] = DEFAULT_THRESHOLDS,
) -> ScoreTable:
    """Evaluate the three scores for every case of a weight-sum table.

    The models must have been fitted on the table's normalized sums.
    """
    thresholds = validate_thresholds(thresholds)
    x = table.normalized
    # each distinct sum is scored once and the scores gathered back per case
    atoms, inverse = np.unique(x, return_inverse=True)
    p1 = gmm.cdf(atoms)[inverse]
    return ScoreTable(
        case_set=table.case_set,
        raw_sums=table.raw_sums,
        normalized=x,
        score_gmm_cdf=p1,
        score_kde_cdf=kde.cdf(atoms)[inverse],
        score_posterior=gmm.posterior(atoms, ill_component(gmm))[inverse],
        category=categorize_array(p1, thresholds),
        thresholds=thresholds,
    )


def score_patient(case: CaseVector | Iterable[str], table: ScoreTable) -> dict[str, Any]:
    """The row of a score table for one admissible case, as ``emprob
    score-patient`` prints it: the sorted answer ids, the ``COLUMNS`` and
    the category name.

    The table holds every case of its questionnaire, so the case is
    validated and its row found at ``canonical_index``; the category is the
    table's, under the table's thresholds.  A bare string is no case.
    """
    if isinstance(case, str):
        raise ValidationError(f"a case is a collection of answer ids, got the string {case!r}")
    if not isinstance(case, CaseVector):
        case = CaseVector(true_answers=frozenset(case))
    i = canonical_index(case, table.case_set.questionnaire)
    return {
        "answers": sorted(case.true_answers),
        **{column: float(getattr(table, field)[i]) for column, field in COLUMNS},
        "category": ProbabilityCategory(int(table.category[i])).name,
    }
