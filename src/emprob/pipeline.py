"""End-to-end orchestration: load inputs, fit, score, explain, export.

PipelineResult(config) computes each stage the first time something reads
it and keeps it, so a caller pays only for the stages it reads; the
component selection and the chosen mixture share one EM fit per m.
prepare() reads every stage.  Each artifact group has its own writer, and
write_artifacts writes all four:

- write_scores: scores.csv, one row per case with sums, scores, and category
- write_fit: fit_report.json (candidate fits, information criteria, chosen
  model, kernel bandwidth with the conventions behind it, normalization
  bounds) and density_samples.csv (fitted curves on an even grid over [0, 1])
- write_trees: tree_full.dot / tree_pruned.dot, the explanation tree before
  and after cost-complexity pruning
- write_lattices: band_<lo>_<hi>.cxt, lattice_<lo>_<hi>.dot,
  supports_<lo>_<hi>.csv: one formal context, concept lattice, and support
  table per probability band

Each writer renders its texts with ``emprob.io`` and hands them to one
private ``_write``, the only code in the package that writes files.  Reruns
on identical inputs reproduce every artifact byte for byte.  The tree,
lattice and renderer modules are imported by the stages and writers that use
them, so a run that only scores loads none of them.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, fields
from functools import cached_property
from numbers import Integral, Real
from pathlib import Path
from typing import TYPE_CHECKING, Iterable, Mapping

from emprob.cases import CaseSet, WeightSumTable, enumerate_cases, weight_sum_table
from emprob.density import (
    ComponentSelection,
    FitReport,
    GaussianMixture,
    KernelDensityEstimate,
    SILVERMAN_CONVENTIONS,
    check_component_count,
    em_fit,
)
from emprob.schema import (
    AnswerWeightVector,
    Questionnaire,
    ValidationError,
    WeightMatrix,
    default_questionnaire,
    default_weight_matrix,
    load_questionnaire,
    load_weight_matrix,
    mean_weights,
    merge_answers,
    read_json_mapping,
    validate_weights,
)
from emprob.scoring import (
    APPROACHES,
    DEFAULT_THRESHOLDS,
    ScoreTable,
    elicit_probabilities,
    real_bound,
    validate_thresholds,
)

if TYPE_CHECKING:
    from emprob.fca import ConceptLattice
    from emprob.tree import TreeNode

DEFAULT_BANDS = tuple((i / 10, (i + 1) / 10) for i in range(10))

# field annotation -> required type; config values come from outside the
# program, so each is checked before it is compared
_FIELD_KINDS = {"int": Integral, "float": Real, "str": str}


@dataclass(frozen=True)
class PipelineConfig:
    """Pipeline settings; unset paths fall back to the shipped data."""

    questionnaire_path: str | None = None
    weights_path: str | None = None
    n_components: int | None = 2
    m_max: int = 4
    thresholds: tuple[float, float] = DEFAULT_THRESHOLDS
    bands: tuple[tuple[float, float], ...] = DEFAULT_BANDS
    band_approach: int = 1
    prune_alpha: float = 0.01
    output_dir: str = "out"

    def __post_init__(self) -> None:
        for f in fields(self):
            kind = f.type.removesuffix(" | None")
            value = getattr(self, f.name)
            if kind in _FIELD_KINDS and not (value is None and kind != f.type) and (
                isinstance(value, bool) or not isinstance(value, _FIELD_KINDS[kind])
            ):
                raise ValidationError(f"{f.name} must be {f.type}, got {value!r}")
        object.__setattr__(self, "thresholds", validate_thresholds(self.thresholds))
        try:
            bands = tuple((real_bound(lo), real_bound(hi)) for lo, hi in self.bands)
        except (TypeError, ValueError, OverflowError):
            raise ValidationError(
                f"bands must be [lo, hi] pairs of real numbers, got {self.bands!r}"
            ) from None
        seen: dict[str, tuple[float, float]] = {}
        for lo, hi in bands:
            if not (0.0 <= lo < hi <= 1.0):
                raise ValidationError(f"band must satisfy 0 <= lo < hi <= 1, got ({lo}, {hi})")
            # two bands with one tag would write the same three files
            tag = band_tag((lo, hi))
            if tag in seen:
                raise ValidationError(
                    f"bands {seen[tag]} and {(lo, hi)} share the file tag {tag!r}"
                )
            seen[tag] = (lo, hi)
        object.__setattr__(self, "bands", bands)
        if self.n_components is not None and self.n_components < 1:
            raise ValidationError("n_components must be at least 1 (or null for automatic)")
        if self.m_max < 1:
            raise ValidationError("m_max must be at least 1")
        if self.band_approach not in APPROACHES:
            raise ValidationError(
                f"band_approach must be one of {APPROACHES}, got {self.band_approach!r}"
            )
        if not self.prune_alpha >= 0:  # also rejects NaN
            raise ValidationError(f"prune_alpha must be nonnegative, got {self.prune_alpha!r}")

    @classmethod
    def from_mapping(cls, doc: Mapping) -> "PipelineConfig":
        """Build a config from a key/value document, rejecting unknown keys."""
        known = {f.name for f in fields(cls)}
        unknown = set(doc) - known
        if unknown:
            raise ValidationError(f"unknown config keys: {sorted(unknown)}")
        return cls(**doc)

    @classmethod
    def from_file(cls, path: str | Path, **overrides) -> "PipelineConfig":
        """Build a config from a JSON file, with overrides replacing its values."""
        return cls.from_mapping({**read_json_mapping(path), **overrides})


class PipelineResult:
    """The pipeline for one config: each stage is computed the first time it
    is read, from only the stages it depends on, and then kept."""

    def __init__(self, config: PipelineConfig) -> None:
        self.config = config
        self._mixtures: dict[int, tuple[GaussianMixture, FitReport]] = {}

    @cached_property
    def _inputs(self) -> tuple[Questionnaire, WeightMatrix]:
        return load_inputs(self.config)

    @property
    def questionnaire(self) -> Questionnaire:
        return self._inputs[0]

    @property
    def weight_matrix(self) -> WeightMatrix:
        return self._inputs[1]

    @cached_property
    def mean_weight_vector(self) -> AnswerWeightVector:
        return mean_weights(self.weight_matrix)

    @cached_property
    def case_set(self) -> CaseSet:
        return enumerate_cases(self.questionnaire)

    @cached_property
    def sum_table(self) -> WeightSumTable:
        return weight_sum_table(self.case_set, self.mean_weight_vector)

    def mixture(self, m: int) -> tuple[GaussianMixture, FitReport]:
        """The m-component EM fit on the normalized sums; each m is fitted
        at most once, so the selection and the chosen mixture share fits."""
        if m not in self._mixtures:
            self._mixtures[m] = em_fit(self.sum_table.normalized, m)
        return self._mixtures[m]

    @cached_property
    def selection(self) -> ComponentSelection:
        check_component_count(self.sum_table.normalized, self.config.m_max)
        return ComponentSelection(
            tuple(self.mixture(m)[1] for m in range(1, self.config.m_max + 1))
        )

    @cached_property
    def gmm_report(self) -> FitReport:
        """The fit of the config's mixture size, or of the selection's best
        when the config leaves it unset."""
        m = self.config.n_components
        return self.mixture(self.selection.bic_best_m if m is None else m)[1]

    @property
    def gmm(self) -> GaussianMixture:
        return self.mixture(self.gmm_report.n_components)[0]

    @cached_property
    def kde(self) -> KernelDensityEstimate:
        return KernelDensityEstimate.from_data(self.sum_table.normalized)

    @cached_property
    def table(self) -> ScoreTable:
        return elicit_probabilities(
            self.sum_table, self.gmm, self.kde, thresholds=self.config.thresholds
        )

    @cached_property
    def tree_full(self) -> TreeNode:
        from emprob.tree import fit_decision_tree

        return fit_decision_tree(self.case_set, self.table.category)

    @cached_property
    def tree_pruned(self) -> TreeNode:
        from emprob.tree import prune_tree

        return prune_tree(self.tree_full, self.config.prune_alpha)

    @cached_property
    def lattices(self) -> tuple[tuple[tuple[float, float], ConceptLattice], ...]:
        """Each band's concept lattice; its context is ``lattice.context``."""
        from emprob.fca import build_band_context, build_lattice

        approach = self.config.band_approach
        return tuple(
            (band, build_lattice(build_band_context(self.table, band, approach)))
            for band in self.config.bands
        )


def load_inputs(cfg: PipelineConfig) -> tuple[Questionnaire, WeightMatrix]:
    """Load the questionnaire and weight matrix, validate the weights against
    the questionnaire as read, and apply the questionnaire document's merge
    rules in order, returning a consistent merged pair."""
    questionnaire = (
        default_questionnaire()
        if cfg.questionnaire_path is None
        else load_questionnaire(cfg.questionnaire_path)
    )
    weight_matrix = validate_weights(
        default_weight_matrix()
        if cfg.weights_path is None
        else load_weight_matrix(cfg.weights_path),
        questionnaire,
    )
    for rule in questionnaire.merge_rules:
        questionnaire, weight_matrix = merge_answers(questionnaire, weight_matrix, rule)
    return questionnaire, weight_matrix


def prepare(cfg: PipelineConfig) -> PipelineResult:
    """Compute every pipeline stage in memory, writing nothing."""
    result = PipelineResult(cfg)
    for stage in ("selection", "gmm_report", "table", "tree_pruned", "lattices"):
        getattr(result, stage)
    return result


def _report_entry(rep: FitReport) -> dict:
    return {
        "n_components": rep.n_components,
        "log_likelihood": rep.log_likelihood,
        "aic": rep.aic,
        "bic": rep.bic,
        "iterations": rep.iterations,
        "converged": rep.converged,
    }


def fit_report_document(result: PipelineResult) -> dict:
    """The fit report as a plain JSON-serializable mapping."""
    # both component counts are checked before the first fit runs
    check_component_count(result.sum_table.normalized, result.config.m_max)
    gmm, sel = result.gmm, result.selection
    return {
        "n_observations": len(result.sum_table),
        "normalization": {
            "raw_min": result.sum_table.raw_min,
            "raw_max": result.sum_table.raw_max,
        },
        "thresholds": list(result.config.thresholds),
        "selection": {
            "aic_best_m": sel.aic_best_m,
            "bic_best_m": sel.bic_best_m,
            "criteria_agree": sel.criteria_agree,
            "candidates": [_report_entry(r) for r in sel.reports],
        },
        "selected_components": gmm.n_components,
        "gmm": {
            "weights": [float(v) for v in gmm.weights],
            "means": [float(v) for v in gmm.means],
            "sigmas": [float(v) for v in gmm.sigmas],
            **_report_entry(result.gmm_report),
        },
        "kde": {
            "bandwidth": result.kde.bandwidth,
            "n_points": result.kde.n_points,
            "conventions": dict(SILVERMAN_CONVENTIONS),
        },
    }


def band_tag(band: tuple[float, float]) -> str:
    return f"{band[0]:g}_{band[1]:g}"


def _write(
    result: PipelineResult, output_dir: str | Path | None, files: Iterable[tuple[str, str]]
) -> list[Path]:
    """Write each (file name, text) pair into the output directory, created
    first; returns the paths.  Each writer reads its stages before it calls
    this, so a run whose inputs are rejected leaves no directory behind."""
    out = Path(result.config.output_dir if output_dir is None else output_dir)
    out.mkdir(parents=True, exist_ok=True)
    paths = []
    for name, text in files:
        paths.append(out / name)
        paths[-1].write_text(text, encoding="utf-8")
    return paths


def write_scores(result: PipelineResult, output_dir: str | Path | None = None) -> list[Path]:
    """Write scores.csv; returns the paths written."""
    from emprob.io import scores_to_csv

    return _write(result, output_dir, [("scores.csv", scores_to_csv(result.table))])


def write_fit(result: PipelineResult, output_dir: str | Path | None = None) -> list[Path]:
    """Write fit_report.json and density_samples.csv."""
    from emprob.io import density_samples_to_csv

    report = json.dumps(fit_report_document(result), indent=2, sort_keys=True) + "\n"
    return _write(result, output_dir, [
        ("fit_report.json", report),
        ("density_samples.csv", density_samples_to_csv(result.gmm, result.kde)),
    ])


def write_trees(result: PipelineResult, output_dir: str | Path | None = None) -> list[Path]:
    """Write tree_full.dot and tree_pruned.dot."""
    from emprob.io import tree_to_dot

    return _write(result, output_dir, [
        ("tree_full.dot", tree_to_dot(result.tree_full)),
        ("tree_pruned.dot", tree_to_dot(result.tree_pruned)),
    ])


def write_lattices(result: PipelineResult, output_dir: str | Path | None = None) -> list[Path]:
    """Write each band's context (CXT), lattice (DOT) and supports (CSV),
    rendering one band's texts at a time."""
    from emprob.io import context_to_cxt, lattice_to_dot, supports_to_csv

    def files(lattices):
        for band, lattice in lattices:
            tag = band_tag(band)
            yield f"band_{tag}.cxt", context_to_cxt(lattice.context)
            yield f"lattice_{tag}.dot", lattice_to_dot(lattice)
            yield f"supports_{tag}.csv", supports_to_csv(lattice.context)

    return _write(result, output_dir, files(result.lattices))


def write_artifacts(result: PipelineResult, output_dir: str | Path | None = None) -> list[Path]:
    """Write every artifact group; returns the paths written."""
    return [
        path
        for write in (write_scores, write_fit, write_trees, write_lattices)
        for path in write(result, output_dir)
    ]
