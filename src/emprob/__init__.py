"""Batch probability scoring for weighted questionnaire case spaces.

The package turns per-doctor answer weights into calibrated probability
scores for every admissible answer combination, fitting a Gaussian mixture
by expectation-maximization alongside a kernel density estimate, and
explains the resulting categories with a decision tree and per-band
concept lattices.

The namespace loads lazily (PEP 562): ``import emprob`` imports neither
numpy nor any submodule, and each public name imports the submodule that
defines it on first use.  The resolved objects are not kept here, so
``emprob.name`` always reads the submodule's current binding.
"""

from importlib import import_module as _import_module

__version__ = "0.1.0"

# submodule -> the public names it defines
_EXPORTS = {
    "cases": (
        "CaseSet",
        "CaseVector",
        "WeightSumTable",
        "canonical_index",
        "enumerate_cases",
        "weight_sum_table",
    ),
    "cli": (),
    "density": (
        "SILVERMAN_CONVENTIONS",
        "ComponentSelection",
        "FitReport",
        "GaussianMixture",
        "KernelDensityEstimate",
        "em_fit",
        "select_component_count",
        "silverman_bandwidth",
    ),
    "fca": (
        "ConceptLattice",
        "FormalContext",
        "build_band_context",
        "build_lattice",
        "enumerate_concepts",
    ),
    "io": (
        "context_to_cxt",
        "density_samples_to_csv",
        "lattice_to_dot",
        "scores_to_csv",
        "supports_to_csv",
        "tree_to_dot",
    ),
    "pipeline": (
        "DEFAULT_BANDS",
        "PipelineConfig",
        "PipelineResult",
        "band_tag",
        "fit_report_document",
        "load_inputs",
        "prepare",
        "write_artifacts",
    ),
    "schema": (
        "AnswerOption",
        "AnswerWeightVector",
        "MergeRule",
        "Question",
        "QuestionMode",
        "Questionnaire",
        "ValidationError",
        "WeightMatrix",
        "default_questionnaire",
        "default_weight_matrix",
        "load_questionnaire",
        "load_weight_matrix",
        "mean_weights",
        "merge_answers",
        "validate_weights",
    ),
    "scoring": (
        "DEFAULT_THRESHOLDS",
        "ProbabilityCategory",
        "ScoreTable",
        "categorize_array",
        "elicit_probabilities",
        "ill_component",
        "score_patient",
        "validate_thresholds",
    ),
    "tree": (
        "TreeNode",
        "fit_decision_tree",
        "iter_nodes",
        "leaf_count",
        "node_count",
        "prune_tree",
        "tree_depth",
    ),
}

_OWNER = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_OWNER)


def __getattr__(name: str):
    if name in _OWNER:
        return getattr(_import_module(f"{__name__}.{_OWNER[name]}"), name)
    if name in _EXPORTS:
        return _import_module(f"{__name__}.{name}")
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__, *_EXPORTS})
