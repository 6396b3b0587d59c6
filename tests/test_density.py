import math

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from emprob import (
    GaussianMixture,
    KernelDensityEstimate,
    ValidationError,
    aic,
    bic,
    em_fit,
    gmm_parameter_count,
    select_component_count,
    silverman_bandwidth,
)
from reference_data import REFERENCE_GMM

INV_SQRT_2PI = 1.0 / math.sqrt(2.0 * math.pi)

STANDARD_NORMAL = GaussianMixture(weights=(1.0,), means=(0.0,), sigmas=(1.0,))

# standard normal CDF on a reference grid, 22 significant digits
PHI = {
    -8.0: 6.220960574271784123516e-16,
    -6.0: 9.865876450376981407009e-10,
    -5.0: 2.866515718791939116738e-7,
    -4.0: 0.00003167124183311992125377,
    -3.0: 0.001349898031630094526652,
    -2.0: 0.02275013194817920720028,
    -1.0: 0.1586552539314570514148,
    -0.5: 0.3085375387259868963623,
    0.0: 0.5,
    0.5: 0.6914624612740131036377,
    1.0: 0.8413447460685429485852,
    2.0: 0.9772498680518207927997,
    3.0: 0.9986501019683699054733,
    4.0: 0.9999683287581668800787,
    5.0: 0.9999997133484281208061,
    6.0: 0.9999999990134123549623,
    8.0: 0.9999999999999993779039,
}


def test_normal_cdf_against_reference_grid():
    z = np.array(sorted(PHI))
    expected = np.array([PHI[v] for v in sorted(PHI)])
    assert np.abs(STANDARD_NORMAL.cdf(z) - expected).max() <= 1e-10


def test_mixture_construction_validation():
    with pytest.raises(ValidationError):
        GaussianMixture(weights=(0.6, 0.6), means=(0.0, 1.0), sigmas=(1.0, 1.0))
    with pytest.raises(ValidationError):
        GaussianMixture(weights=(1.0, 0.0), means=(0.0, 1.0), sigmas=(1.0, 1.0))
    with pytest.raises(ValidationError):
        GaussianMixture(weights=(1.0,), means=(0.0,), sigmas=(0.0,))
    with pytest.raises(ValidationError):
        GaussianMixture(weights=(0.5, 0.5), means=(1.0, 0.0), sigmas=(1.0, 1.0))


def test_pdf_standard_normal_peak():
    assert STANDARD_NORMAL.pdf(np.array([0.0]))[0] == pytest.approx(INV_SQRT_2PI, rel=1e-15)


def test_pdf_nonnegative_and_matches_direct_formula():
    x = np.linspace(-0.5, 1.5, 401)
    p = REFERENCE_GMM.pdf(x)
    assert (p >= 0).all()
    direct = sum(
        w / (s * math.sqrt(2 * math.pi)) * np.exp(-0.5 * ((x - m) / s) ** 2)
        for w, m, s in zip(REFERENCE_GMM.weights, REFERENCE_GMM.means, REFERENCE_GMM.sigmas)
    )
    assert_allclose(p, direct, rtol=1e-12)
    assert REFERENCE_GMM.pdf(np.array([0.5]))[0] == 2.0782053402876857


def test_component_pdfs_sum_to_mixture():
    x = np.linspace(0, 1, 101)
    parts = REFERENCE_GMM.component_pdfs(x)
    assert parts.shape == (101, 2)
    assert_allclose(parts.sum(axis=1), REFERENCE_GMM.pdf(x), rtol=1e-12)


def test_cdf_limits_and_midpoint():
    assert STANDARD_NORMAL.cdf(np.array([-1e6]))[0] == 0.0
    assert STANDARD_NORMAL.cdf(np.array([1e6]))[0] == 1.0
    assert STANDARD_NORMAL.cdf(np.array([0.0]))[0] == 0.5


def test_cdf_reference_model_values():
    x = np.array([0.0, 0.5, 1.0])
    assert_array_equal(
        REFERENCE_GMM.cdf(x),
        [0.0010337908499836654, 0.518108769720056, 0.9980110781441658],
    )
    assert REFERENCE_GMM.cdf(np.array([0.5]))[0] == pytest.approx(0.518, abs=5e-4)


def test_posterior_degenerate_weight():
    lopsided = GaussianMixture(weights=(1.0,), means=(0.3,), sigmas=(0.1,))
    assert_array_equal(lopsided.posterior(np.linspace(0, 1, 11), 0), np.ones(11))


def test_posterior_crossing_point():
    model = GaussianMixture(weights=(0.5, 0.5), means=(-1.0, 1.0), sigmas=(0.4, 0.4))
    assert model.posterior(np.array([0.0]), 1)[0] == pytest.approx(0.5, rel=1e-12)


def test_posterior_reference_value():
    assert REFERENCE_GMM.posterior(np.array([0.0]), 1)[0] == pytest.approx(
        0.0784644665122424, rel=1e-12
    )


def test_posterior_rows_sum_to_one():
    x = np.linspace(-0.2, 1.2, 57)
    total = REFERENCE_GMM.posterior(x, 0) + REFERENCE_GMM.posterior(x, 1)
    assert_allclose(total, np.ones_like(x), rtol=1e-12)


def test_posterior_far_tail_returns_prior():
    # all component densities underflow; the prior weight is the answer
    x = np.array([1e200, -1e200])
    assert_array_equal(REFERENCE_GMM.posterior(x, 1), [REFERENCE_GMM.weights[1]] * 2)
    assert_array_equal(REFERENCE_GMM.posterior(x, 0), [REFERENCE_GMM.weights[0]] * 2)


def test_em_single_component_closed_form():
    rng = np.random.default_rng(3)
    x = rng.normal(0.4, 0.2, size=200)
    model, report = em_fit(x, 1)
    assert model.weights == (1.0,)
    assert model.means[0] == pytest.approx(x.mean(), rel=1e-12)
    assert model.sigmas[0] == pytest.approx(x.std(), rel=1e-12)
    assert report.converged
    assert report.log_likelihood == pytest.approx(model.log_likelihood(x), rel=1e-12)


def test_em_symmetric_two_cluster_data():
    x = np.array([-0.1, 0.0, 0.1, 0.9, 1.0, 1.1])
    model, report = em_fit(x, 2)
    assert_allclose(model.weights, [0.5, 0.5], atol=1e-9)
    assert_allclose(model.means, [0.0, 1.0], atol=1e-6)
    assert model.sigmas[0] == pytest.approx(model.sigmas[1], rel=1e-6)
    assert report.converged


def test_em_deterministic():
    rng = np.random.default_rng(5)
    x = np.concatenate([rng.normal(0, 1, 80), rng.normal(4, 0.5, 120)])
    a, ra = em_fit(x, 2)
    b, rb = em_fit(x, 2)
    assert a == b
    assert ra.iterations == rb.iterations
    assert ra.log_likelihood == rb.log_likelihood


def test_em_reported_likelihood_belongs_to_returned_model():
    rng = np.random.default_rng(9)
    x = np.concatenate([rng.normal(0, 1, 50), rng.normal(3, 1, 50)])
    for m in (1, 2, 3):
        model, report = em_fit(x, m)
        assert report.log_likelihood == pytest.approx(model.log_likelihood(x), rel=1e-12)


def test_em_trace_monotone():
    rng = np.random.default_rng(13)
    x = np.concatenate([rng.normal(-1, 0.3, 60), rng.normal(1, 0.6, 90)])
    _, report = em_fit(x, 3)
    trace = np.asarray(report.log_likelihood_trace)
    assert trace.size == report.iterations + 1
    assert (np.diff(trace) >= -1e-9 * np.abs(trace[:-1])).all()


def test_em_errors():
    with pytest.raises(ValidationError):
        em_fit(np.array([1.0, 2.0]), 2)  # needs size > M
    with pytest.raises(ValidationError):
        em_fit(np.array([1.0, np.inf, 2.0]), 1)
    with pytest.raises(ValidationError):
        em_fit(np.array([1.0, 2.0, 3.0]), 0)


def test_parameter_count_and_criteria_arithmetic():
    assert gmm_parameter_count(1) == 2
    assert gmm_parameter_count(2) == 5
    assert gmm_parameter_count(4) == 11
    # M=1, n=100: AIC - BIC = 2p - p ln n = 4 - 2 ln 100
    ll = -12.5
    p = gmm_parameter_count(1)
    assert aic(ll, p) - bic(ll, p, 100) == pytest.approx(4 - 2 * math.log(100))
    assert aic(ll, 2 * p) - aic(ll, p) == pytest.approx(2 * p)
    assert aic(ll, p) == pytest.approx(2 * p - 2 * ll)
    assert bic(ll, p, 100) == pytest.approx(p * math.log(100) - 2 * ll)


def test_select_component_count_m_max_one():
    rng = np.random.default_rng(17)
    x = rng.normal(0, 1, 100)
    sel = select_component_count(x, m_max=1)
    assert sel.best_m == 1
    assert len(sel.reports) == 1


def test_select_component_count_single_gaussian():
    rng = np.random.default_rng(19)
    x = rng.normal(0.5, 0.01, 400)
    sel = select_component_count(x, m_max=3)
    assert sel.best_m == 1
    assert sel.bic_best_m == 1
    assert [r.n_components for r in sel.reports] == [1, 2, 3]


def test_select_component_count_two_clusters():
    rng = np.random.default_rng(23)
    x = np.concatenate([rng.normal(0, 0.5, 150), rng.normal(3, 0.7, 150)])
    sel = select_component_count(x, m_max=4)
    assert sel.best_m == 2
    assert sel.aic_best_m == 2
    assert sel.bic_best_m == 2
    assert sel.criteria_agree


def test_silverman_reference_bandwidth(sum_table):
    h = silverman_bandwidth(sum_table.normalized)
    assert h == 0.037185163136342486


def test_silverman_scaling():
    rng = np.random.default_rng(29)
    x = rng.normal(0, 1, 150)
    assert silverman_bandwidth(3.0 * x) == pytest.approx(
        3.0 * silverman_bandwidth(x), rel=1e-12
    )


def test_silverman_uses_smaller_spread():
    # heavy outliers inflate the standard deviation; IQR side must win
    x = np.concatenate([np.linspace(-0.1, 0.1, 96), [50.0, -50.0, 60.0, -60.0]])
    iqr = np.percentile(x, 75) - np.percentile(x, 25)
    assert iqr / 1.34 < x.std(ddof=1)
    expected = 0.9 * (iqr / 1.34) * len(x) ** -0.2
    assert silverman_bandwidth(x) == pytest.approx(expected, rel=1e-12)
    # and a tight spread keeps the standard-deviation side
    y = np.linspace(0.0, 1.0, 100)
    assert silverman_bandwidth(y) == pytest.approx(
        0.9 * min(y.std(ddof=1), (np.percentile(y, 75) - np.percentile(y, 25)) / 1.34)
        * 100 ** -0.2,
        rel=1e-12,
    )


def test_silverman_errors():
    with pytest.raises(ValidationError):
        silverman_bandwidth(np.array([1.0]))
    with pytest.raises(ValidationError):
        silverman_bandwidth(np.full(50, 3.25))


def test_kde_single_point():
    k = KernelDensityEstimate(data=(0.0,), bandwidth=1.0)
    assert k.pdf(np.array([0.0]))[0] == pytest.approx(INV_SQRT_2PI, rel=1e-15)
    assert k.cdf(np.array([0.0]))[0] == 0.5


def test_kde_tail_bound(kde, sum_table):
    x = np.array([sum_table.normalized.max() + 10 * kde.bandwidth])
    assert kde.cdf(x)[0] >= 1 - 1e-9


def test_kde_from_data_uses_silverman(kde, sum_table):
    assert kde.bandwidth == silverman_bandwidth(sum_table.normalized)
    assert kde.n_points == 1536


def test_kde_pdf_matches_brute_force(kde, sum_table):
    x = float(sum_table.normalized.mean())
    h = kde.bandwidth
    n = kde.n_points
    brute = sum(
        math.exp(-0.5 * ((x - t) / h) ** 2) / (n * h * math.sqrt(2 * math.pi))
        for t in sum_table.normalized
    )
    value = kde.pdf(np.array([x]))[0]
    assert value == pytest.approx(brute, rel=1e-12)
    assert value > 0


def test_kde_validation():
    with pytest.raises(ValidationError):
        KernelDensityEstimate(data=(), bandwidth=1.0)
    with pytest.raises(ValidationError):
        KernelDensityEstimate(data=(0.0,), bandwidth=0.0)
