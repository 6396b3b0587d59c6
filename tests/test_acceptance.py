"""End-to-end acceptance checks.

Each test covers one numbered requirement and prints a single
``criterion N: PASS/FAIL`` line directly to the terminal (bypassing
capture) so a full run leaves a visible scorecard.  The checks run
against the shipped questionnaire and weight matrix at their stated
tolerances; reference values are asserted exactly where the requirement
says exactly.
"""

import math
import time
from contextlib import contextmanager

import numpy as np
import pytest
from scipy.integrate import quad

from emprob import (
    PipelineConfig,
    ProbabilityCategory,
    SILVERMAN_CONVENTIONS,
    build_band_context,
    context_to_cxt,
    em_fit,
    enumerate_cases,
    enumerate_concepts,
    fit_report_document,
    mean_weights,
    prepare,
    scores_to_csv,
    select_component_count,
    silverman_bandwidth,
    supports_to_csv,
)
from reference_data import (
    REFERENCE_GMM,
    SCORE_FIELDS,
    extent,
    intent,
    log_likelihood,
    random_context,
    read_cxt,
    read_scores_csv,
    support,
    unmerged_questionnaire,
)
from test_fca import brute_force_concepts

# expert-average weight per answer, two decimals, in shipped answer order
REFERENCE_AVERAGES = (
    1.27, 0.5, 0.87, -0.3,
    -0.67, 1.0, 2.4, 0.0,
    2.8, -0.67, 0.07,
    2.47, 0.1,
    -0.4, 1.07, 1.47, 1.8,
    1.73, -0.67,
)
REFERENCE_BANDWIDTH = 0.03676
PARAM_TOLERANCE = 0.03
EM_STOP_SLACK = 0.0  # nats an EM fit may end short of the reference LL


_CAPTURE = None


@pytest.fixture(autouse=True)
def _route_around_capture(capsys):
    # criterion lines go to the real terminal so a full run shows the
    # scorecard even though pytest captures test output
    global _CAPTURE
    _CAPTURE = capsys
    yield
    _CAPTURE = None


def _emit(line):
    if _CAPTURE is None:
        print(line, flush=True)
    else:
        with _CAPTURE.disabled():
            print(line, flush=True)


@contextmanager
def criterion(n, description):
    try:
        yield
    except BaseException:
        _emit(f"criterion {n:2d}: FAIL - {description}")
        raise
    _emit(f"criterion {n:2d}: PASS - {description}")


@pytest.fixture(scope="module")
def selection(sum_table):
    return select_component_count(sum_table.normalized, m_max=4)


def test_criterion_01_mean_weights(weight_matrix, questionnaire):
    with criterion(1, "19 mean answer weights round to their reference values"):
        start = time.perf_counter()
        vector = mean_weights(weight_matrix)
        elapsed = time.perf_counter() - start
        rounded = tuple(round(vector.value(a), 2) for a in questionnaire.answer_ids)
        assert rounded == REFERENCE_AVERAGES
        assert elapsed < 0.05, f"averaging took {elapsed:.4f}s, expected milliseconds"


def test_criterion_02_case_space_sizes(questionnaire):
    with criterion(2, "case space sizes: 1536 merged, 12288 unmerged"):
        start = time.perf_counter()
        merged = enumerate_cases(questionnaire)
        unmerged = enumerate_cases(unmerged_questionnaire())
        elapsed = time.perf_counter() - start
        assert len(merged) == 1536
        assert len(unmerged) == 12288
        assert elapsed < 1.0, f"enumeration took {elapsed:.2f}s"


def test_criterion_03_bandwidth(sum_table):
    with criterion(3, "bandwidth within 5% of reference, conventions reported"):
        h = silverman_bandwidth(sum_table.normalized)
        rel = abs(h - REFERENCE_BANDWIDTH) / REFERENCE_BANDWIDTH
        assert rel <= 0.05, f"h={h:.6f} deviates {rel:.2%} from {REFERENCE_BANDWIDTH}"
        if rel > 0.01:
            # outside the 1% comfort zone the fit report must spell out the
            # conventions behind the estimate
            doc = fit_report_document(
                prepare(PipelineConfig(n_components=1, m_max=1))
            )
            assert doc["kde"]["conventions"] == dict(SILVERMAN_CONVENTIONS)
            assert doc["kde"]["conventions"]
            _emit(
                f"criterion  3: note - h={h:.6f} is {rel:+.2%} from "
                f"{REFERENCE_BANDWIDTH}; conventions: {doc['kde']['conventions']}"
            )


def test_criterion_04_information_criteria_select_two(selection, sum_table):
    with criterion(4, "AIC and BIC both select two components"):
        x = sum_table.normalized
        n = x.size
        reports = {r.n_components: r for r in selection.reports}
        assert sorted(reports) == [1, 2, 3, 4]

        # the fits and criteria themselves are sound: a regression in EM or
        # in the AIC/BIC arithmetic fails here, not at the selection below
        sigma = float(np.std(x))
        closed_form_ll = -0.5 * n * (math.log(2.0 * math.pi * sigma**2) + 1.0)
        ll1 = reports[1].log_likelihood
        assert ll1 == pytest.approx(closed_form_ll, rel=1e-9), (
            f"m=1 LL {ll1!r} differs from the closed-form Gaussian LL "
            f"{closed_form_ll!r}"
        )
        for m, r in reports.items():
            k = 3 * m - 1
            assert r.aic == pytest.approx(2 * k - 2 * r.log_likelihood, rel=1e-12), (
                f"m={m}: AIC {r.aic!r} is not 2k - 2LL with k={k}"
            )
            assert r.bic == pytest.approx(
                k * math.log(n) - 2 * r.log_likelihood, rel=1e-12
            ), f"m={m}: BIC {r.bic!r} is not k ln(n) - 2LL with k={k}, n={n}"
        # EM stops only once neither the likelihood nor any parameter still
        # moves, so the converged m=2 fit (467.2128442) is at least as likely
        # as the reference mixture (467.212840) with no slack; a fit cut
        # short of its optimum misses it.
        ll_ref = log_likelihood(REFERENCE_GMM, x)
        ll2 = reports[2].log_likelihood
        assert ll2 >= ll_ref - EM_STOP_SLACK, (
            f"m=2 LL {ll2:.6f} is {ll_ref - ll2:.2e} nats below the reference "
            f"mixture's {ll_ref:.6f} (allowed {EM_STOP_SLACK:.0e})"
        )

        # the paper's claim: both criteria choose two components
        table = ", ".join(
            f"m={r.n_components}: AIC={r.aic:.2f} BIC={r.bic:.2f}"
            for r in selection.reports
        )
        gain = ll2 - ll1
        needed = 1.5 * math.log(n)
        assert selection.aic_best_m == 2, f"AIC selects {selection.aic_best_m} ({table})"
        assert selection.bic_best_m == 2, (
            f"BIC selects {selection.bic_best_m} ({table}); the m=2 LL gain over "
            f"m=1 is {gain:.2f} nats, BIC needs more than 1.5 ln {n} = {needed:.2f}"
        )


def test_criterion_05_em_recovers_reference_fit(sum_table):
    with criterion(5, "two-component fit matches reference parameters in <10s"):
        x = sum_table.normalized
        start = time.perf_counter()
        model, report = em_fit(x, 2)
        elapsed = time.perf_counter() - start
        assert elapsed < 10.0, f"fit took {elapsed:.2f}s"
        deltas = [
            abs(a - b)
            for got, ref in (
                (model.weights, REFERENCE_GMM.weights),
                (model.means, REFERENCE_GMM.means),
                (model.sigmas, REFERENCE_GMM.sigmas),
            )
            for a, b in zip(got, ref)
        ]
        params_ok = max(deltas) <= PARAM_TOLERANCE
        ll_ok = report.log_likelihood >= log_likelihood(REFERENCE_GMM, x)
        assert params_ok or ll_ok, (
            f"max parameter delta {max(deltas):.4f} > {PARAM_TOLERANCE} and "
            f"LL {report.log_likelihood:.4f} below reference"
        )


def test_criterion_06_low_band_count(reference_score_table, score_table):
    with criterion(6, "band [0, 0.1) holds 162 cases (fitted within +/-2)"):
        ref_ctx = build_band_context(reference_score_table, (0.0, 0.1))
        assert ref_ctx.n_objects == 162
        fit_ctx = build_band_context(score_table, (0.0, 0.1))
        scores = score_table.score_gmm_cdf
        near = int(((scores >= 0.098) & (scores < 0.102)).sum())
        _emit(
            f"criterion  6: note - fitted-model band count {fit_ctx.n_objects}; "
            f"{near} scores within 0.002 of the 0.1 boundary"
        )
        assert abs(fit_ctx.n_objects - 162) <= 2


def test_criterion_07_band_supports(reference_score_table):
    with criterion(7, "band supports: no-outdoor 145, plus no-bite 128"):
        ctx = build_band_context(reference_score_table, (0.0, 0.1))
        assert support(ctx, "a_2_q6") == 145
        assert support(ctx, "a_2_q4", "a_2_q6") == 128
        rows = supports_to_csv(ctx).splitlines()
        assert {"a_2_q6,145", "a_2_q4;a_2_q6,128"} <= set(rows)


def test_criterion_08_posterior_dominates(score_table):
    with criterion(8, "posterior score strictly dominates both CDF scores"):
        p1 = score_table.score_gmm_cdf
        p2 = score_table.score_kde_cdf
        p3 = score_table.score_posterior
        assert int((p3 > p1).sum()) == 1536
        assert int((p3 > p2).sum()) == 1536


def test_criterion_09_tree_root(tree_full):
    with criterion(9, "tree root tests rash growth; yes-branch majority HIGH"):
        assert tree_full.split_answer_id == "a_1_q3"
        yes = tree_full.true_child
        assert yes.prediction == int(ProbabilityCategory.HIGH)
        # a majority, not an implication: the yes branch still holds
        # non-HIGH cases, so no strict rule is claimed here
        assert yes.counts[int(ProbabilityCategory.HIGH)] < yes.n_samples


def test_criterion_10_property_suite(gmm, fitted_gmm, kde, sum_table,
                                     score_table):
    with criterion(10, "property suite green in under 60s"):
        start = time.perf_counter()
        rng = np.random.default_rng(2024)

        # EM log-likelihood never decreases across iterations
        traces = [fitted_gmm[1].log_likelihood_trace]
        bimodal = np.concatenate(
            [rng.normal(0.0, 0.5, 200), rng.normal(3.0, 0.7, 200)]
        )
        for m in (2, 3):
            traces.append(em_fit(bimodal, m)[1].log_likelihood_trace)
        for trace in traces:
            t = np.asarray(trace)
            assert (np.diff(t) >= -1e-9 * np.abs(t[:-1])).all()

        # both fitted densities carry unit probability mass
        edges = np.linspace(-1.0, 2.0, 31)
        for model in (gmm, kde):
            mass = sum(
                quad(lambda t: float(model.pdf(np.array([t]))[0]), a, b,
                     limit=200)[0]
                for a, b in zip(edges, edges[1:])
            )
            assert abs(mass - 1.0) <= 1e-6, f"mass {mass!r}"

        # both CDFs are monotone on a dense grid
        grid = np.linspace(-0.5, 1.5, 10000)
        assert (np.diff(gmm.cdf(grid)) >= 0).all()
        assert (np.diff(kde.cdf(grid)) >= 0).all()

        # component posteriors sum to one everywhere, extremes included
        post_grid = np.concatenate([grid, [-1e200, 1e200]])
        m3, _ = em_fit(bimodal, 3)
        for model in (gmm, REFERENCE_GMM, m3):
            total = sum(
                model.posterior(post_grid, k) for k in range(model.n_components)
            )
            np.testing.assert_allclose(total, 1.0, rtol=0, atol=1e-9)

        # concept enumeration agrees with subset brute force, and the two
        # derivation maps satisfy the Galois-connection laws
        contexts = [random_context(rng, max_side=8) for _ in range(50)]
        for ctx in contexts:
            concepts = enumerate_concepts(ctx)
            got = set(concepts)
            assert len(got) == len(concepts)
            assert got == brute_force_concepts(ctx)
            subset = tuple(o for o in range(ctx.n_objects) if rng.random() < 0.5)
            up = intent(ctx, subset)
            down_up = extent(ctx, up)
            assert set(subset) <= set(down_up)
            assert intent(ctx, down_up) == up

        # rendered artifacts read back bit for bit
        for ctx in contexts[:5]:
            back = read_cxt(context_to_cxt(ctx))
            assert back.objects == ctx.objects
            assert back.attributes == ctx.attributes
            np.testing.assert_array_equal(back.incidence, ctx.incidence)
        parsed = read_scores_csv(scores_to_csv(score_table))
        for field in (*SCORE_FIELDS, "category"):
            np.testing.assert_array_equal(getattr(parsed, field), getattr(score_table, field))

        elapsed = time.perf_counter() - start
        _emit(f"criterion 10: note - property suite ran in {elapsed:.1f}s")
        assert elapsed < 60.0, f"property suite took {elapsed:.1f}s"
