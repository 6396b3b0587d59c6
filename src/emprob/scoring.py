"""Probability-style scores for questionnaire cases.

Three scores are derived from the normalized weight sum x of a case:

1. ``gmm_cdf``: the fitted mixture's distribution function at x.
2. ``kde_cdf``: the kernel estimate's distribution function at x.
3. ``posterior``: the posterior probability that x belongs to the
   highest-mean ("ill") mixture component.

Scores map onto LOW / MEDIUM / HIGH categories by two thresholds; the
table's category column comes from the gmm_cdf score, the consensus default.
``approach_scores`` evaluates the three for the table and the density
samples alike; the table scores each distinct normalized sum once and
gathers the scores back per case.  With quarter-point weights every raw sum
is the correctly rounded exact value, so cases with equal sums get
identical scores.  A single case is scored at its own normalized sum alone:
each point's scores are computed on their own, so they are the bits of the
case's table row, without the table.  ``COLUMNS``
names the per-case numbers once, for the table, the score files and the
single-case row alike.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import IntEnum
from numbers import Real
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


def real_bound(value: Any) -> float:
    """A threshold or band bound as a float.  It must be a ``numbers.Real``
    that is not a bool, so numpy floats pass and numeric strings do not;
    TypeError otherwise, and OverflowError for an integer beyond any float."""
    if isinstance(value, bool) or not isinstance(value, Real):
        raise TypeError(f"not a real number: {value!r}")
    return float(value)


def validate_thresholds(thresholds: tuple[float, float]) -> tuple[float, float]:
    try:
        t1, t2 = (real_bound(t) for t in thresholds)
    except (TypeError, ValueError, OverflowError):
        raise ValidationError(
            f"thresholds must be two real numbers, got {thresholds!r}"
        ) from None
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


def approach_scores(gmm: GaussianMixture, kde: KernelDensityEstimate, x) -> tuple:
    """The scores of approaches 1-3 at normalized sums x, in ``COLUMNS``
    order: mixture cdf, kernel cdf, and the ill component's posterior."""
    return gmm.cdf(x), kde.cdf(x), gmm.posterior(x, ill_component(gmm))


def _check_scores(scores) -> None:
    """Each approach's scores, in ``APPROACHES`` order, must lie in [0, 1]
    (a NaN fails both comparisons)."""
    for approach, s in zip(APPROACHES, scores):
        s = np.asarray(s)
        if s.size and not (s.min() >= 0.0 and s.max() <= 1.0):
            raise ValidationError(f"approach {approach} scores outside [0, 1]")


@dataclass(frozen=True)
class ScoreTable:
    """Scores for every case of a weight-sum table, rows in canonical order.

    The category column is computed on construction: the approach-1
    (gmm_cdf) category under the table's thresholds.  Every column is
    read-only.
    """

    case_set: CaseSet
    raw_sums: np.ndarray
    normalized: np.ndarray
    score_gmm_cdf: np.ndarray
    score_kde_cdf: np.ndarray
    score_posterior: np.ndarray
    thresholds: tuple[float, float]
    category: np.ndarray = field(init=False)

    def __post_init__(self) -> None:
        n = self.raw_sums.size
        names = [name for _, name in COLUMNS]
        for name in names:
            if getattr(self, name).shape != (n,):
                raise ValidationError(f"{name} length does not match raw_sums")
        _check_scores(self.scores_by_approach(approach) for approach in APPROACHES)
        object.__setattr__(self, "category",
                           categorize_array(self.score_gmm_cdf, self.thresholds))
        for name in (*names, "category"):
            getattr(self, name).setflags(write=False)

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
    p1, p2, p3 = (s[inverse] for s in approach_scores(gmm, kde, atoms))
    return ScoreTable(case_set=table.case_set, raw_sums=table.raw_sums, normalized=x,
                      score_gmm_cdf=p1, score_kde_cdf=p2, score_posterior=p3,
                      thresholds=thresholds)


def score_patient(
    case: CaseVector | Iterable[str],
    table: WeightSumTable,
    gmm: GaussianMixture,
    kde: KernelDensityEstimate,
    *,
    thresholds: tuple[float, float] = DEFAULT_THRESHOLDS,
) -> dict[str, Any]:
    """One admissible case's row of the score table, as ``emprob
    score-patient`` prints it: the sorted answer ids, the ``COLUMNS`` and
    the category name.

    The case is validated and its sums read at ``canonical_index`` of the
    weight-sum table; the three scores are evaluated at its normalized sum
    only.  The models must have been fitted on the table's normalized sums,
    as for ``elicit_probabilities``.  A bare string is no case.
    """
    if isinstance(case, str):
        raise ValidationError(f"a case is a collection of answer ids, got the string {case!r}")
    if not isinstance(case, CaseVector):
        case = CaseVector(true_answers=frozenset(case))
    i = canonical_index(case, table.case_set.questionnaire)
    x = table.normalized[i]
    scores = approach_scores(gmm, kde, x)
    _check_scores(scores)
    category = categorize_array(scores[0], thresholds)
    return {
        "answers": sorted(case.true_answers),
        **{column: float(v) for (column, _), v in zip(COLUMNS, (table.raw_sums[i], x, *scores))},
        "category": ProbabilityCategory(int(category)).name,
    }
