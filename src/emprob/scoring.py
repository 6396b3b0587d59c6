"""Probability-style scores for questionnaire cases.

Three scores are derived from the normalized weight sum x of a case:

1. ``gmm_cdf``: the fitted mixture's distribution function at x.
2. ``kde_cdf``: the kernel estimate's distribution function at x.
3. ``posterior``: the posterior probability that x belongs to the
   highest-mean ("ill") mixture component.

Scores map onto LOW / MEDIUM / HIGH categories by two thresholds; the
table's category column comes from the gmm_cdf score, the consensus default.
Batch scoring over all cases and single-case scoring share the same code
paths, so a single case reproduces its batch row bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import IntEnum
from typing import Iterable

import numpy as np

from emprob.cases import (
    CaseSet,
    CaseVector,
    WeightSumTable,
    validate_case,
    weight_sum,
)
from emprob.density import FitReport, GaussianMixture, KernelDensityEstimate
from emprob.schema import AnswerWeightVector, Questionnaire, ValidationError

DEFAULT_THRESHOLDS = (0.33, 0.68)

SCORE_NAMES = ("gmm_cdf", "kde_cdf", "posterior")

APPROACHES = {1: "gmm_cdf", 2: "kde_cdf", 3: "posterior"}


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


def categorize(p: float, thresholds: tuple[float, float] = DEFAULT_THRESHOLDS) -> ProbabilityCategory:
    """LOW on [0, t1), MEDIUM on [t1, t2), HIGH on [t2, 1]."""
    t1, t2 = validate_thresholds(thresholds)
    if not np.isfinite(p) or p < 0.0 or p > 1.0:
        raise ValidationError(f"score {p} outside [0, 1]")
    if p < t1:
        return ProbabilityCategory.LOW
    if p < t2:
        return ProbabilityCategory.MEDIUM
    return ProbabilityCategory.HIGH


def categorize_array(
    p: np.ndarray, thresholds: tuple[float, float] = DEFAULT_THRESHOLDS
) -> np.ndarray:
    """Vectorized categorize; returns an int array of category values."""
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
    raw_min: float
    raw_max: float
    score_gmm_cdf: np.ndarray
    score_kde_cdf: np.ndarray
    score_posterior: np.ndarray
    category: np.ndarray
    thresholds: tuple[float, float]

    def __post_init__(self) -> None:
        n = self.raw_sums.size
        for name in ("normalized", "score_gmm_cdf", "score_kde_cdf",
                     "score_posterior", "category"):
            if getattr(self, name).shape != (n,):
                raise ValidationError(f"{name} length does not match raw_sums")
        for name in SCORE_NAMES:
            s = self.scores(name)
            if s.size and (s.min() < 0.0 or s.max() > 1.0):
                raise ValidationError(f"score_{name} outside [0, 1]")

    def __len__(self) -> int:
        return int(self.raw_sums.size)

    @property
    def answer_ids(self) -> tuple[str, ...]:
        return self.case_set.answer_ids

    def scores(self, name: str) -> np.ndarray:
        if name not in SCORE_NAMES:
            raise ValidationError(f"unknown score {name!r}, expected one of {SCORE_NAMES}")
        return getattr(self, f"score_{name}")

    def scores_by_approach(self, approach: int) -> np.ndarray:
        if approach not in APPROACHES:
            raise ValidationError(f"approach must be 1, 2, or 3, got {approach!r}")
        return self.scores(APPROACHES[approach])


@dataclass(frozen=True)
class ModelBundle:
    """Everything needed to score one patient exactly like the batch run:
    the schema, mean weights, normalization bounds, and fitted models."""

    questionnaire: Questionnaire
    mean_weight_vector: AnswerWeightVector
    raw_min: float
    raw_max: float
    gmm: GaussianMixture
    kde: KernelDensityEstimate

    def __post_init__(self) -> None:
        if not self.raw_min < self.raw_max:
            raise ValidationError("normalization bounds must satisfy min < max")


def elicit_probabilities(
    table: WeightSumTable,
    gmm: GaussianMixture,
    kde: KernelDensityEstimate,
    *,
    thresholds: tuple[float, float] = DEFAULT_THRESHOLDS,
) -> ScoreTable:
    """Evaluate the three scores for every case of a weight-sum table.

    The models must have been fitted on the table's normalized sums.  The
    table needs its case set attached so rows keep their answer assignments.
    """
    thresholds = validate_thresholds(thresholds)
    if table.case_set is None:
        raise ValidationError("weight-sum table has no case set attached")
    x = table.normalized
    p1 = gmm.cdf(x)
    return ScoreTable(
        case_set=table.case_set,
        raw_sums=table.raw_sums,
        normalized=x,
        raw_min=table.raw_min,
        raw_max=table.raw_max,
        score_gmm_cdf=p1,
        score_kde_cdf=kde.cdf(x),
        score_posterior=gmm.posterior(x, ill_component(gmm)),
        category=categorize_array(p1, thresholds),
        thresholds=thresholds,
    )


@dataclass(frozen=True)
class PatientScore:
    """Scores for one case; the category follows the gmm_cdf score."""

    case: CaseVector
    raw_sum: float
    normalized: float
    clamped: bool
    score_gmm_cdf: float
    score_kde_cdf: float
    score_posterior: float
    category: ProbabilityCategory


def score_patient(
    case: CaseVector | Iterable[str],
    bundle: ModelBundle,
    thresholds: tuple[float, float] = DEFAULT_THRESHOLDS,
) -> PatientScore:
    """Score a single admissible case against an existing batch fit.

    Uses the bundle's normalization bounds and fitted models, so a case from
    the enumerated space reproduces its batch table row exactly.  A raw sum
    outside the bounds (possible only with weights other than those the
    bundle was built from) clamps the normalized value into [0, 1] and sets
    the warning flag.
    """
    if not isinstance(case, CaseVector):
        case = CaseVector(true_answers=frozenset(case))
    validate_case(case, bundle.questionnaire)
    raw = weight_sum(case, bundle.mean_weight_vector)
    x = (raw - bundle.raw_min) / (bundle.raw_max - bundle.raw_min)
    clamped = False
    if x < 0.0:
        x, clamped = 0.0, True
    elif x > 1.0:
        x, clamped = 1.0, True
    p1 = float(bundle.gmm.cdf(x))
    return PatientScore(
        case=case,
        raw_sum=raw,
        normalized=x,
        clamped=clamped,
        score_gmm_cdf=p1,
        score_kde_cdf=float(bundle.kde.cdf(x)),
        score_posterior=float(bundle.gmm.posterior(x, ill_component(bundle.gmm))),
        category=categorize(p1, thresholds),
    )
