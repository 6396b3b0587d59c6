import dataclasses
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose, assert_array_equal
from scipy.special import ndtr

from emprob import (
    ComponentSelection,
    GaussianMixture,
    KernelDensityEstimate,
    ValidationError,
    em_fit,
    select_component_count,
    silverman_bandwidth,
)
from emprob import density
from emprob.density import ndtr as port_ndtr
from reference_data import REFERENCE_GMM, log_likelihood

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


def same_bits(a, b):
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return a.shape == b.shape and np.array_equal(a.view(np.uint64), b.view(np.uint64))


def test_ndtr_port_is_scipy_bit_for_bit_on_every_branch():
    rng = np.random.default_rng(11)
    one = 8.292361075813597  # the smallest a with ndtr(a) == 1.0
    ulps = np.arange(-8, 9)
    a = np.concatenate([
        rng.uniform(-math.sqrt(2), math.sqrt(2), 20000),  # erf: |a/sqrt2| < 1
        rng.uniform(-8 * math.sqrt(2), 8 * math.sqrt(2), 20000),  # erfc, P/Q
        rng.uniform(-40, -8 * math.sqrt(2), 5000),  # erfc, R/S, and underflow
        rng.uniform(8 * math.sqrt(2), 40, 5000),
        rng.normal(size=20000),
        one + ulps * np.spacing(one),  # both sides of ndtr(a) == 1.0
        rng.uniform(-38.5, -37.5, 5000),  # where exp(-a^2/2) underflows
        -math.sqrt(2 * 7.09782712893383996843e2) + ulps * 1e-14,
        [math.sqrt(2), -math.sqrt(2), 8 * math.sqrt(2), -8 * math.sqrt(2)],
        [np.inf, -np.inf, np.nan, 0.0, -0.0, 5e-324, -5e-324, 1e300, -1e300],
    ])
    assert same_bits(port_ndtr(a), ndtr(a))
    assert port_ndtr(np.nextafter(one, 0)) < 1.0 == port_ndtr(one)
    assert port_ndtr(np.inf) == 1.0 and port_ndtr(-np.inf) == 0.0
    assert np.isnan(port_ndtr(np.nan)) and port_ndtr(-0.0) == 0.5


def test_ndtr_port_is_scipy_bit_for_bit_on_the_kde_grids(kde, sum_table):
    atoms = np.unique(sum_table.normalized)
    for x in (atoms, np.linspace(0.0, 1.0, 1001)):  # scoring, density samples
        z = (x[:, None] - atoms) / kde.bandwidth
        assert same_bits(port_ndtr(z), ndtr(z))


def test_ndtr_port_shapes():
    for a in (0.25, np.float64(-3.0), np.array(9.0), np.nan):
        x = port_ndtr(a)  # a 0-d input gives a scalar
        assert np.ndim(x) == 0 and isinstance(x, float) and same_bits(x, ndtr(a))
    assert port_ndtr(np.empty((0, 3))).shape == (0, 3)
    batch = np.linspace(-3.0, 3.0, 12).reshape(3, 4)
    assert same_bits(port_ndtr(batch), ndtr(batch))
    assert same_bits(port_ndtr(batch.T), ndtr(batch.T))


def test_libm_exp_is_math_exp_bit_for_bit():
    """ndtr takes exp(-x^2) from the complex exp's real part, which must be
    libm's exp: even steps over the range ndtr uses, the arguments next to
    -MAXLOG (the last one ndtr passes), and random ones."""
    rng = np.random.default_rng(23)
    edge = -density._MAXLOG
    v = np.concatenate([
        np.linspace(-709.8, 0.0, 1_000_001),
        edge + np.arange(-500, 500) * np.spacing(edge),
        -rng.exponential(50.0, 200_000),
        rng.uniform(-709.8, 0.0, 200_000),
    ])
    assert same_bits(density._libm_exp(v), np.fromiter(map(math.exp, v), float, v.size))


def test_mixture_construction_validation():
    with pytest.raises(ValidationError):
        GaussianMixture(weights=(0.6, 0.6), means=(0.0, 1.0), sigmas=(1.0, 1.0))
    with pytest.raises(ValidationError):
        GaussianMixture(weights=(1.0, 0.0), means=(0.0, 1.0), sigmas=(1.0, 1.0))
    with pytest.raises(ValidationError):
        GaussianMixture(weights=(1.0,), means=(0.0,), sigmas=(0.0,))
    with pytest.raises(ValidationError):
        GaussianMixture(weights=(0.5, 0.5), means=(1.0, 0.0), sigmas=(1.0, 1.0))
    faults = {  # expected message -> (weights, means, sigmas)
        "1-d and equal length": ((0.5, 0.5), (0.0, 1.0), (1.0,)),
        "at least one component": ((), (), ()),
        "must be finite": ((1.0,), (np.nan,), (1.0,)),
    }
    for fault, (w, m, s) in faults.items():
        with pytest.raises(ValidationError, match=fault):
            GaussianMixture(weights=w, means=m, sigmas=s)
    for k in (-1, 1):
        with pytest.raises(ValidationError, match=r"component index -?1 outside \[0, 1\)"):
            STANDARD_NORMAL.posterior(0.0, k)


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
    assert report.log_likelihood == pytest.approx(log_likelihood(model, x), rel=1e-12)


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
        assert report.log_likelihood == pytest.approx(log_likelihood(model, x), rel=1e-12)


def test_em_trace_monotone():
    rng = np.random.default_rng(13)
    x = np.concatenate([rng.normal(-1, 0.3, 60), rng.normal(1, 0.6, 90)])
    _, report = em_fit(x, 3)
    trace = np.asarray(report.log_likelihood_trace)
    assert trace.size == report.iterations + 1
    assert (np.diff(trace) >= -1e-9 * np.abs(trace[:-1])).all()


# converged log-likelihoods of the default candidates on the shipped sums
SHIPPED_LL = {1: 461.5443961667637, 2: 467.212844188889, 3: 468.52120736907983,
              4: 471.112149943251}

# (weights, means, sigmas) where SQUAREM alone stopped, before each cycle
# ended in a Newton step; the optimum is the same within 1e-5
SQUAREM_FITS = {
    2: ((0.3638139277553101, 0.6361860722446903),
        (0.35935670228301964, 0.5726563149154282),
        (0.12872559860352023, 0.15630503863763667)),
    3: ((0.1631340981819017, 0.7389824893220762, 0.09788341249602182),
        (0.2868515255209243, 0.5060208029847583, 0.7592621220840058),
        (0.10635067521172858, 0.1432645633513812, 0.10580881808698603)),
    4: ((0.2710436988895084, 0.3145699339180986, 0.10500554911387833, 0.3093808180785143),
        (0.29849547187924685, 0.45143705007927964, 0.5915357571422599, 0.6788609893419036),
        (0.10426349785150978, 0.0763129722079146, 0.0453739437199727, 0.12202730161941662)),
}


@pytest.fixture(scope="module")
def shipped_fits(sum_table):
    return {m: em_fit(sum_table.normalized, m) for m in SHIPPED_LL}


def plain_em_step(model, x):
    """One textbook EM step on every observation, no weighting or speed-up."""
    w, mu, sg = (np.asarray(a) for a in (model.weights, model.means, model.sigmas))
    dens = w * np.exp(-0.5 * ((x[:, None] - mu) / sg) ** 2) / (sg * math.sqrt(2 * math.pi))
    resp = dens / dens.sum(axis=1, keepdims=True)
    nk = resp.sum(axis=0)
    mu1 = (resp * x[:, None]).sum(axis=0) / nk
    sg1 = np.sqrt((resp * (x[:, None] - mu1) ** 2).sum(axis=0) / nk)
    return (nk / x.size, mu1, sg1), (w, mu, sg)


def test_em_default_candidates_converge(shipped_fits):
    for m, ll in SHIPPED_LL.items():
        _, report = shipped_fits[m]
        assert report.converged, f"m={m} stopped unconverged"
        assert report.log_likelihood == pytest.approx(ll, abs=1e-9), f"m={m}"
        trace = np.asarray(report.log_likelihood_trace)
        assert trace.size == report.iterations + 1
        assert (np.diff(trace) >= -1e-9 * np.abs(trace[:-1])).all()
    # a Newton step ends each cycle: 61 cycles in all, against 909 for
    # SQUAREM alone, and 168 with one Hessian cross term missing
    assert sum(report.iterations for _, report in shipped_fits.values()) <= 100


def test_em_converged_means_a_plain_step_moves_nothing(shipped_fits, sum_table):
    # "converged" must mean the fit is at a fixed point of EM on the full
    # sample, not merely that the likelihood changes slowly
    for m, (model, report) in shipped_fits.items():
        assert report.converged
        after, before = plain_em_step(model, sum_table.normalized)
        moved = max(np.abs(a - b).max() for a, b in zip(after, before))
        assert moved <= 1e-7, f"m={m}: one EM step moves a parameter by {moved:.2e}"


def full_sample_score(model, x):
    """Gradient of the log-likelihood over every observation, per coordinate:
    sum r_k - n w_k, sum r_k (x - mu_k) / sigma_k^2 and sum r_k (z_k^2 - 1)."""
    w, mu, sg = (np.asarray(a) for a in (model.weights, model.means, model.sigmas))
    z = (x[:, None] - mu) / sg
    dens = w * np.exp(-0.5 * z * z) / sg
    resp = dens / dens.sum(axis=1, keepdims=True)
    return np.concatenate([resp.sum(axis=0) - x.size * w, (resp * z / sg).sum(axis=0),
                           (resp * (z * z - 1.0)).sum(axis=0)])


def test_em_default_fits_are_stationary(shipped_fits, sum_table):
    for m, (model, report) in shipped_fits.items():
        assert report.converged
        score = full_sample_score(model, sum_table.normalized)
        assert np.abs(score).max() <= 1e-6, f"m={m}: score {np.abs(score).max():.2e}"


def test_em_default_fits_match_squarem_optimum(shipped_fits):
    for m, expected in SQUAREM_FITS.items():
        model, _ = shipped_fits[m]
        got = (model.weights, model.means, model.sigmas)
        for name, a, b in zip(("weights", "means", "sigmas"), got, expected):
            assert_allclose(a, b, rtol=0, atol=1e-5, err_msg=f"m={m} {name}")


def plain_em(samples, m, steps):
    """Log-likelihood after `steps` textbook EM steps from the block start,
    for every sample at once: the distinct values of all samples side by
    side, one row per component, sample sums and spreads as matrix products."""
    atoms, counts = zip(*(np.unique(x, return_counts=True) for x in samples))
    owner = np.repeat(np.arange(len(samples)), [a.size for a in atoms])
    member = (owner[:, None] == np.arange(len(samples))).astype(float)
    spread = member.T.copy()
    x, c = np.concatenate(atoms), np.concatenate(counts).astype(float)
    n = np.array([s.size for s in samples], dtype=float)
    blocks = [np.array_split(np.sort(s), m) for s in samples]
    w = np.array([[b.size for b in bs] for bs in blocks]).T / n
    mu = np.array([[b.mean() for b in bs] for bs in blocks]).T
    sg = np.maximum(np.array([[b.std() for b in bs] for bs in blocks]).T, 1e-6)
    for _ in range(steps + 1):
        z = (x - mu @ spread) / (sg @ spread)
        logc = np.log(w / sg) @ spread - 0.5 * z * z
        mx = logc.max(axis=0)
        dens = np.exp(logc - mx)
        tot = dens.sum(axis=0)
        resp = dens * (c / tot)
        nk = resp @ member
        w = nk / n
        mu = (resp * x) @ member / nk
        d = x - mu @ spread
        sg = np.maximum(np.sqrt((resp * d * d) @ member / nk), 1e-6)
    # the likelihood belongs to the parameters before the last update
    return (c * (mx + np.log(tot))) @ member - 0.5 * n * math.log(2 * math.pi)


def robustness_samples():
    """Seeded small samples per component count, n from 30 to 300; every
    other size lies on a 1/64 grid, so that values tie."""
    rng = np.random.default_rng(2024)
    samples = {2: [], 3: [], 4: []}
    for i, n in enumerate((30, 45, 60, 80, 100, 120, 150, 200, 250, 300)):
        for m in samples:
            centres = rng.uniform(0.0, 1.0, size=m)
            for _ in range(1 + (i + m) % 2):
                x = rng.choice(centres, n) + rng.normal(0.0, rng.uniform(0.03, 0.2), n)
                samples[m].append(np.round(x * 64) / 64 if i % 2 else x)
    return samples


def test_em_small_samples_reach_plain_em_optimum():
    groups = robustness_samples()
    assert sum(map(len, groups.values())) == 45
    for m, samples in groups.items():
        for x, ll_ref in zip(samples, plain_em(samples, m, 20000)):
            model, report = em_fit(x, m)
            tag = f"m={m} n={x.size} distinct={np.unique(x).size}"
            assert report.converged, tag
            trace = np.asarray(report.log_likelihood_trace)
            assert trace.size == report.iterations + 1, tag
            # a plain EM step may lose a few ulps once the fit has converged
            assert (np.diff(trace) >= -1e-12 * np.abs(trace[:-1])).all(), tag
            assert report.log_likelihood >= ll_ref - 1e-9, tag
            assert report.log_likelihood == pytest.approx(log_likelihood(model, x), rel=1e-12)


def test_em_cycle_cap_reports_unconverged(sum_table, monkeypatch):
    monkeypatch.setattr(density, "_MAX_CYCLES", 1)
    model, report = em_fit(sum_table.normalized, 3)
    assert not report.converged
    assert report.iterations == 1
    assert len(report.log_likelihood_trace) == 2
    assert report.log_likelihood == pytest.approx(
        log_likelihood(model, sum_table.normalized), rel=1e-12
    )


def test_em_on_tied_data_reports_full_sample_likelihood():
    rng = np.random.default_rng(41)
    x = np.concatenate([rng.integers(0, 6, 300), rng.integers(9, 16, 200)]) / 15.0
    assert np.unique(x).size <= 13
    for m in (1, 2, 3):
        model, report = em_fit(x, m)
        assert report.log_likelihood == pytest.approx(log_likelihood(model, x), rel=1e-12)


def test_em_errors():
    with pytest.raises(ValidationError):
        em_fit(np.array([1.0, 2.0]), 2)  # needs size > M
    with pytest.raises(ValidationError):
        em_fit(np.array([1.0, np.inf, 2.0]), 1)
    with pytest.raises(ValidationError):
        em_fit(np.array([1.0, 2.0, 3.0]), 0)
    with pytest.raises(ValidationError, match="m_max must be at least 1"):
        select_component_count(np.array([1.0, 2.0, 3.0]), m_max=0)
    # a mixture size is an integer and not a bool; numpy integers pass
    for bad in (2.5, "2", True, np.float64(2.0)):
        with pytest.raises(ValidationError, match="n_components must be an integer"):
            em_fit(np.array([1.0, 2.0, 3.0, 4.0]), bad)
        with pytest.raises(ValidationError, match="n_components must be an integer"):
            select_component_count(np.array([1.0, 2.0, 3.0, 4.0]), m_max=bad)
    assert em_fit(np.array([1.0, 2.0, 3.0, 4.0]), np.int64(2))[1].n_components == 2
    # k = 3 distinct values, 40 times each: with one component per value
    # the likelihood is unbounded, so m = k is rejected and m = k - 1 fits
    x = np.repeat([0.1, 0.5, 0.9], 40)
    with pytest.raises(ValidationError, match="more distinct values than components"):
        em_fit(x, 3)
    with pytest.raises(ValidationError, match="more distinct values than components"):
        select_component_count(x, m_max=3)
    assert em_fit(x, 2)[1].n_components == 2


def test_parameter_count_and_criteria_arithmetic():
    # p = 3m - 1 free parameters: a weight, mean and sigma per component,
    # less the weight that normalization fixes
    rng = np.random.default_rng(29)
    x = np.concatenate([rng.normal(0, 1, 60), rng.normal(4, 1, 40)])
    for m, p in ((1, 2), (2, 5), (4, 11)):
        _, report = em_fit(x, m)
        ll = report.log_likelihood
        assert report.aic == pytest.approx(2 * p - 2 * ll, rel=1e-12)
        assert report.bic == pytest.approx(p * math.log(100) - 2 * ll, rel=1e-12)
        # M=1, n=100: AIC - BIC = 2p - p ln n = 4 - 2 ln 100
        if m == 1:
            assert report.aic - report.bic == pytest.approx(4 - 2 * math.log(100))


def test_select_component_count_m_max_one():
    rng = np.random.default_rng(17)
    x = rng.normal(0, 1, 100)
    sel = select_component_count(x, m_max=1)
    assert sel.bic_best_m == 1
    assert len(sel.reports) == 1


def test_select_component_count_single_gaussian():
    rng = np.random.default_rng(19)
    x = rng.normal(0.5, 0.01, 400)
    sel = select_component_count(x, m_max=3)
    assert sel.bic_best_m == 1
    assert [r.n_components for r in sel.reports] == [1, 2, 3]


def test_select_component_count_two_clusters():
    rng = np.random.default_rng(23)
    x = np.concatenate([rng.normal(0, 0.5, 150), rng.normal(3, 0.7, 150)])
    sel = select_component_count(x, m_max=4)
    assert sel.aic_best_m == 2
    assert sel.bic_best_m == 2
    assert sel.criteria_agree
    # the criteria are read off the reports, and a tie goes to the first
    tied = [dataclasses.replace(r, aic=r.n_components % 2, bic=0.0) for r in sel.reports[::-1]]
    sel = ComponentSelection(tuple(tied))
    assert (sel.aic_best_m, sel.bic_best_m, sel.criteria_agree) == (4, 4, True)
    sel = ComponentSelection(tuple(tied[1:]))
    assert (sel.aic_best_m, sel.bic_best_m, sel.criteria_agree) == (2, 3, False)


def test_silverman_reference_bandwidth(sum_table):
    h = silverman_bandwidth(sum_table.normalized)
    assert h == 0.03718516313634248


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


@settings(max_examples=300, derandomize=True, database=None, deadline=None)
@given(st.lists(st.sampled_from([-2.5, -1.0, -0.0, 0.0, 0.25, 1.0])
                | st.floats(allow_nan=False, allow_infinity=False), min_size=2, max_size=400))
def test_linear_quartiles_match_numpy_percentile(values):
    """The quartiles behind Silverman's rule are np.percentile's, bit for
    bit, with ties (zeros of both signs among them) and negative values."""
    x = np.array(values)
    with np.errstate(over="ignore", invalid="ignore"):  # far-apart values overflow b - a
        expected = np.percentile(x, [75, 25])
    assert np.array(density._linear_quartiles(x)).tobytes() == expected.tobytes()


def test_silverman_errors():
    with pytest.raises(ValidationError):
        silverman_bandwidth(np.array([1.0]))
    with pytest.raises(ValidationError):
        silverman_bandwidth(np.full(50, 3.25))
    with pytest.raises(ValidationError, match="non-finite"):
        silverman_bandwidth(np.array([0.1, np.inf, 0.3]))


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
    # the estimate sums over distinct values weighted by their counts; the
    # reference sums one kernel per observation, all 1,536 of them, exactly
    data = sum_table.normalized
    assert kde.n_points == data.size == 1536
    h = kde.bandwidth
    for x in (data, np.linspace(-0.2, 1.2, 1401)):
        z = (x[:, None] - data) / h
        pdf = np.array([math.fsum(row) for row in np.exp(-0.5 * z * z)])
        pdf = pdf / data.size / (h * math.sqrt(2 * math.pi))
        cdf = np.array([math.fsum(row) for row in ndtr(z)]) / data.size
        assert np.abs(kde.pdf(x) - pdf).max() <= 1e-15
        assert np.abs(kde.cdf(x) - cdf).max() <= 1e-15
    assert (kde.pdf(data) > 0).all()


def test_kde_grid_memory_is_bounded(kde, monkeypatch):
    # 10,001 points against the 364 distinct sums would be a 29 MB grid at
    # once; pdf and cdf evaluate it 22 rows (128 KiB of complex128) at a time
    x = np.linspace(-0.2, 1.2, 10001)
    grid = x[::10]  # the report's 1,001-point grid
    for f in (kde.pdf, kde.cdf):
        tracemalloc.start()
        try:
            values = f(x)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20, (f.__name__, peak)
        # each row sums on its own, so the blocks give one point's bits, and
        # blocks of one row or one block of the whole grid give the same bits
        assert same_bits(values[::997], [f(v) for v in x[::997]])
        whole = grid.size * kde._atoms.size * density._BLOCK_ENTRY_BYTES
        for block_bytes in (1, whole):
            monkeypatch.setattr(density, "_BLOCK_BYTES", block_bytes)
            assert same_bits(f(grid), values[::10]), (f.__name__, block_bytes)
        monkeypatch.undo()


def test_kde_validation():
    with pytest.raises(ValidationError):
        KernelDensityEstimate(data=(), bandwidth=1.0)
    with pytest.raises(ValidationError):
        KernelDensityEstimate(data=(0.0,), bandwidth=0.0)
    with pytest.raises(ValidationError, match="non-finite"):
        KernelDensityEstimate(data=(0.0, np.nan), bandwidth=1.0)
