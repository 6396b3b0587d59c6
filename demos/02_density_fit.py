"""
Mixture fitting, model selection, and the kernel alternative
============================================================

How the density layer behaves: candidate mixtures from one to four
components scored by AIC and BIC, the expectation-maximization trace, and
the Silverman-bandwidth kernel estimate with its conventions.
"""

import numpy as np

from emprob import (
    KernelDensityEstimate,
    SILVERMAN_CONVENTIONS,
    default_questionnaire,
    default_weight_matrix,
    em_fit,
    enumerate_cases,
    mean_weights,
    select_component_count,
    silverman_bandwidth,
    weight_sum_table,
)

table = weight_sum_table(
    enumerate_cases(default_questionnaire()),
    mean_weights(default_weight_matrix()),
)
x = table.normalized

# fit every candidate once and compare the information criteria; they
# disagree on this data: AIC prefers two components, BIC the single
# Gaussian with its stronger parameter penalty
selection = select_component_count(x, m_max=4)
print("m   logL        AIC        BIC           cycles  converged")
for r in selection.reports:
    print(
        f"{r.n_components}  {r.log_likelihood:9.3f}  {r.aic:9.3f}  "
        f"{r.bic:9.3f}  {r.iterations:>10d}  {r.converged}"
    )
print(
    f"AIC favors {selection.aic_best_m}, BIC favors {selection.bic_best_m}"
    f" (agreement: {selection.criteria_agree})"
)

# the two-component fit, components ordered by mean; the higher-mean
# component plays the role of the ill subpopulation
gmm, report = em_fit(x, 2)
print("\ntwo-component fit:")
for k in range(2):
    print(
        f"  component {k + 1}: weight {gmm.weights[k]:.6f}, "
        f"mean {gmm.means[k]:.6f}, sigma {gmm.sigmas[k]:.6f}"
    )

# EM maximizes the log-likelihood monotonically; the trace records every
# cycle (one SQUAREM step, then one Newton step kept only if it does not
# lower the likelihood) so the climb is auditable
trace = np.asarray(report.log_likelihood_trace)
print(f"log-likelihood climbed {trace[0]:.3f} -> {trace[-1]:.3f}")
print(f"monotone trace: {bool((np.diff(trace) >= -1e-9).all())}")

# the kernel estimate needs one number, the bandwidth; Silverman's rule
# uses the gentler of the standard deviation and the scaled IQR
h = silverman_bandwidth(x)
kde = KernelDensityEstimate.from_data(x)
print(f"\nSilverman bandwidth: {h:.6f}")
print("conventions:", dict(SILVERMAN_CONVENTIONS))

# both models integrate to one and give a cumulative probability for any
# normalized sum; they broadly agree away from the kernel's local wiggles
for point in (0.25, 0.5, 0.75):
    g = gmm.cdf(np.array([point]))[0]
    k = kde.cdf(np.array([point]))[0]
    print(f"cdf({point}): mixture {g:.4f}, kernel {k:.4f}")
