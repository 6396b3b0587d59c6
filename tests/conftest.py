"""Shared fixtures; expensive fits run once per session."""

import pytest

from emprob import (
    KernelDensityEstimate,
    default_questionnaire,
    default_weight_matrix,
    elicit_probabilities,
    em_fit,
    enumerate_cases,
    fit_decision_tree,
    mean_weights,
    weight_sum_table,
)
from reference_data import REFERENCE_GMM


@pytest.fixture(scope="session")
def questionnaire():
    return default_questionnaire()


@pytest.fixture(scope="session")
def weight_matrix():
    return default_weight_matrix()


@pytest.fixture(scope="session")
def mean_vector(weight_matrix):
    return mean_weights(weight_matrix)


@pytest.fixture(scope="session")
def case_set(questionnaire):
    return enumerate_cases(questionnaire)


@pytest.fixture(scope="session")
def sum_table(case_set, mean_vector):
    return weight_sum_table(case_set, mean_vector)


@pytest.fixture(scope="session")
def fitted_gmm(sum_table):
    model, report = em_fit(sum_table.normalized, 2)
    return model, report


@pytest.fixture(scope="session")
def gmm(fitted_gmm):
    return fitted_gmm[0]


@pytest.fixture(scope="session")
def kde(sum_table):
    return KernelDensityEstimate.from_data(sum_table.normalized)


@pytest.fixture(scope="session")
def score_table(sum_table, gmm, kde):
    return elicit_probabilities(sum_table, gmm, kde)


@pytest.fixture(scope="session")
def reference_score_table(sum_table, kde):
    return elicit_probabilities(sum_table, REFERENCE_GMM, kde)


@pytest.fixture(scope="session")
def tree_full(case_set, score_table):
    return fit_decision_tree(case_set, score_table.category)
