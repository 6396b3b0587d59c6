"""
From expert answer weights to calibrated case scores
====================================================

The full batch path: load the shipped questionnaire and weight matrix,
average the experts, enumerate every admissible answer combination,
normalize the weight sums, fit the two density models, and read off the
three probability scores for a few cases.
"""

import numpy as np

from emprob import (
    KernelDensityEstimate,
    default_questionnaire,
    default_weight_matrix,
    elicit_probabilities,
    em_fit,
    enumerate_cases,
    mean_weights,
    weight_sum_table,
)

# the questionnaire: six questions, five exclusive-choice and one
# multi-select symptom question whose "No" answer excludes the rest
questionnaire = default_questionnaire()
for q in questionnaire.questions:
    print(f"{q.id}: {q.label} ({len(q.answers)} answers, {q.mode.value})")

# fifteen experts each weighted every answer on a -1..3 scale; the model
# consumes the per-answer mean
weights = default_weight_matrix()
vector = mean_weights(weights)
print(f"\n{len(weights.doctors)} experts, {len(weights.answer_ids)} answers")
print("strongest answer:", max(vector.as_dict(), key=vector.value))
print("weakest answer:  ", min(vector.as_dict(), key=vector.value))

# every admissible combination of answers is one case; the multi-select
# question contributes 2**3 combinations, the exclusive ones their answer
# counts, 1536 in total
cases = enumerate_cases(questionnaire)
print(f"\ncase space: {len(cases)} cases")

# per case, sum the mean weights of the selected answers and rescale the
# sums onto [0, 1] by the observed extremes
table = weight_sum_table(cases, vector)
print(f"raw sums span [{table.raw_min:.4f}, {table.raw_max:.4f}]")

# two density models over the normalized sums: a two-component Gaussian
# mixture fitted by EM, and a Gaussian-kernel density estimate
gmm, report = em_fit(table.normalized, 2)
kde = KernelDensityEstimate.from_data(table.normalized)
print(f"\nEM converged after {report.iterations} cycles")
print(f"mixture means: {gmm.means[0]:.4f} and {gmm.means[1]:.4f}")
print(f"kernel bandwidth: {kde.bandwidth:.6f}")

# three scores per case: mixture CDF, kernel CDF, and the posterior of the
# higher-mean (ill) component; a two-threshold split labels each case
scores = elicit_probabilities(table, gmm, kde)
top = int(np.argmax(table.normalized))
bottom = int(np.argmin(table.normalized))
print("\ncase     normalized  p_gmm_cdf  p_kde_cdf  p_posterior  category")
for i in (bottom, 0, top):
    print(
        f"c{i:<7d} {table.normalized[i]:>10.4f} "
        f"{scores.score_gmm_cdf[i]:>10.4f} {scores.score_kde_cdf[i]:>10.4f} "
        f"{scores.score_posterior[i]:>12.4f}  "
        f"{('LOW', 'MEDIUM', 'HIGH')[scores.category[i]]}"
    )
