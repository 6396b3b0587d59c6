"""Univariate Gaussian mixture fitting and kernel density estimation.

The mixture is fitted by expectation-maximization with a deterministic
initialization (sorted data split into equal-count blocks), so repeated runs
on the same data give identical parameters.  All likelihood work happens in
log space with max-subtraction to avoid underflow.  Model order can be
chosen by information criteria; the kernel estimate uses a Gaussian kernel
with Silverman's bandwidth.
"""

from __future__ import annotations

from dataclasses import InitVar, dataclass, field
from typing import Sequence

import numpy as np
from scipy.special import ndtr

from emprob.schema import ValidationError

_LOG_2PI = float(np.log(2.0 * np.pi))
_SIGMA_FLOOR = 1e-6


@dataclass(frozen=True)
class GaussianMixture:
    """Mixture of univariate normals, components in ascending order of mean.

    Weights must sum to 1 within 1e-12 and sigmas must be positive.
    """

    weights: tuple[float, ...]
    means: tuple[float, ...]
    sigmas: tuple[float, ...]

    def __post_init__(self) -> None:
        w = np.asarray(self.weights, dtype=float)
        m = np.asarray(self.means, dtype=float)
        s = np.asarray(self.sigmas, dtype=float)
        if not (w.ndim == m.ndim == s.ndim == 1 and w.shape == m.shape == s.shape):
            raise ValidationError("mixture parameter arrays must be 1-d and equal length")
        if w.size == 0:
            raise ValidationError("mixture needs at least one component")
        if not (np.all(np.isfinite(w)) and np.all(np.isfinite(m)) and np.all(np.isfinite(s))):
            raise ValidationError("mixture parameters must be finite")
        if np.any(w <= 0) or abs(w.sum() - 1.0) > 1e-12:
            raise ValidationError("mixture weights must be positive and sum to 1")
        if np.any(s <= 0):
            raise ValidationError("mixture sigmas must be positive")
        if np.any(np.diff(m) < 0):
            raise ValidationError("mixture components must be ordered by ascending mean")
        object.__setattr__(self, "weights", tuple(float(v) for v in w))
        object.__setattr__(self, "means", tuple(float(v) for v in m))
        object.__setattr__(self, "sigmas", tuple(float(v) for v in s))
        for name, a in (("_w", w), ("_m", m), ("_s", s)):
            a.setflags(write=False)
            object.__setattr__(self, name, a)

    @property
    def n_components(self) -> int:
        return len(self.weights)

    def _log_components(self, x: np.ndarray) -> np.ndarray:
        """log(phi_k N(x | mu_k, sigma_k)) with trailing component axis."""
        z = (x[..., None] - self._m) / self._s
        with np.errstate(over="ignore"):  # far-tail z*z may hit inf, handled downstream
            return np.log(self._w) - np.log(self._s) - 0.5 * _LOG_2PI - 0.5 * z * z

    def component_pdfs(self, x):
        """Weighted per-component densities phi_k N(x|mu_k, sigma_k), last
        axis indexing components; their sum over that axis is pdf(x)."""
        x = np.asarray(x, dtype=float)
        return np.exp(self._log_components(x))

    def pdf(self, x):
        x = np.asarray(x, dtype=float)
        logc = self._log_components(x)
        mx = logc.max(axis=-1, keepdims=True)
        with np.errstate(invalid="ignore"):
            out = np.exp(mx[..., 0]) * np.exp(logc - mx).sum(axis=-1)
        out = np.where(np.isfinite(mx[..., 0]), out, 0.0)
        return out if out.ndim else float(out)

    def logpdf(self, x):
        x = np.asarray(x, dtype=float)
        logc = self._log_components(x)
        mx = logc.max(axis=-1, keepdims=True)
        with np.errstate(invalid="ignore"):
            out = mx[..., 0] + np.log(np.exp(logc - mx).sum(axis=-1))
        out = np.where(np.isfinite(mx[..., 0]), out, -np.inf)
        return out if out.ndim else float(out)

    def cdf(self, x):
        """Mixture distribution function: sum of weighted normal CDFs."""
        x = np.asarray(x, dtype=float)
        out = (self._w * ndtr((x[..., None] - self._m) / self._s)).sum(axis=-1)
        return out if out.ndim else float(out)

    def posterior(self, x, component: int):
        """Posterior responsibility of one component given an observation.

        Computed in log space with max-subtraction; where every component
        underflows to zero density the prior weight is returned.
        """
        k = component
        if not 0 <= k < self.n_components:
            raise ValidationError(f"component index {k} outside [0, {self.n_components})")
        x = np.asarray(x, dtype=float)
        logc = self._log_components(x)
        mx = logc.max(axis=-1, keepdims=True)
        with np.errstate(invalid="ignore"):
            ratios = np.exp(logc - mx)
            resp = ratios[..., k] / ratios.sum(axis=-1)
        degenerate = ~np.isfinite(mx[..., 0])
        if np.any(degenerate):
            resp = np.where(degenerate, self.weights[k], resp)
        return resp if resp.ndim else float(resp)

    def log_likelihood(self, x) -> float:
        return float(np.sum(self.logpdf(np.asarray(x, dtype=float))))


@dataclass(frozen=True)
class FitReport:
    """Outcome of one EM run; the trace holds the log-likelihood after the
    initialization and after each iteration."""

    n_components: int
    log_likelihood: float
    aic: float
    bic: float
    iterations: int
    converged: bool
    log_likelihood_trace: tuple[float, ...] = field(repr=False)


@dataclass(frozen=True)
class ComponentSelection:
    """Information-criterion comparison across candidate component counts."""

    best_m: int
    reports: tuple[FitReport, ...]
    aic_best_m: int
    bic_best_m: int
    criteria_agree: bool

    @classmethod
    def from_reports(cls, reports: Sequence[FitReport]) -> "ComponentSelection":
        """Compare candidate fits; best_m minimizes BIC, and criteria_agree
        says whether AIC prefers the same count."""
        aic_best = min(reports, key=lambda r: r.aic).n_components
        bic_best = min(reports, key=lambda r: r.bic).n_components
        return cls(
            best_m=bic_best,
            reports=tuple(reports),
            aic_best_m=aic_best,
            bic_best_m=bic_best,
            criteria_agree=aic_best == bic_best,
        )


def gmm_parameter_count(n_components: int) -> int:
    """Free parameters of a univariate mixture: per component a weight, mean,
    and sigma, minus one weight fixed by normalization."""
    return 3 * n_components - 1


def aic(log_likelihood: float, n_params: int) -> float:
    return 2.0 * n_params - 2.0 * log_likelihood


def bic(log_likelihood: float, n_params: int, n_observations: int) -> float:
    return n_params * float(np.log(n_observations)) - 2.0 * log_likelihood


def _block_init(x_sorted: np.ndarray, m: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Deterministic start: m contiguous equal-count blocks of sorted data."""
    blocks = np.array_split(x_sorted, m)
    w = np.array([b.size / x_sorted.size for b in blocks])
    mu = np.array([b.mean() for b in blocks])
    sg = np.maximum(np.array([b.std() for b in blocks]), _SIGMA_FLOOR)
    return w, mu, sg


def em_fit(
    data,
    n_components: int,
    *,
    tol: float = 1e-9,
    max_iter: int = 10000,
) -> tuple[GaussianMixture, FitReport]:
    """Fit a univariate Gaussian mixture by EM.

    Parameters
    ----------
    data : array_like
        One-dimensional observations, strictly more than n_components.
    n_components : int
        Number of mixture components, at least 1.
    tol : float
        Relative log-likelihood change below which EM stops.
    max_iter : int
        Iteration cap; the fit is flagged unconverged when reached.

    Returns
    -------
    (GaussianMixture, FitReport)
        Fitted model with components sorted by ascending mean, plus the run
        report.  The reported log-likelihood always belongs to the returned
        parameters.
    """
    x = np.asarray(data, dtype=float).ravel()
    if not np.all(np.isfinite(x)):
        raise ValidationError("EM input contains non-finite values")
    m = int(n_components)
    if m < 1:
        raise ValidationError("n_components must be at least 1")
    if x.size <= m:
        raise ValidationError(
            f"EM needs more observations than components, got {x.size} <= {m}"
        )
    if tol < 0:
        raise ValidationError("tol must be nonnegative")
    if max_iter < 1:
        raise ValidationError("max_iter must be at least 1")

    x_sorted = np.sort(x)
    w, mu, sg = _block_init(x_sorted, m)

    def log_components() -> tuple[np.ndarray, np.ndarray]:
        """Per-point component log-densities and their log-sum-exp."""
        z = (x_sorted[:, None] - mu) / sg
        logc = np.log(w) - np.log(sg) - 0.5 * _LOG_2PI - 0.5 * z * z
        mx = logc.max(axis=1, keepdims=True)
        return logc, mx[:, 0] + np.log(np.exp(logc - mx).sum(axis=1))

    logc, lognorm = log_components()
    ll = float(lognorm.sum())
    trace = [ll]
    converged = False
    iterations = 0
    for it in range(1, max_iter + 1):
        # M-step from the responsibilities of the current parameters
        resp = np.exp(logc - lognorm[:, None])
        nk = resp.sum(axis=0)
        mu = (resp * x_sorted[:, None]).sum(axis=0) / nk
        sg = np.maximum(
            np.sqrt((resp * (x_sorted[:, None] - mu) ** 2).sum(axis=0) / nk), _SIGMA_FLOOR
        )
        w = nk / x_sorted.size
        logc, lognorm = log_components()
        new_ll = float(lognorm.sum())
        trace.append(new_ll)
        iterations = it
        if abs(new_ll - ll) <= tol * abs(new_ll):
            ll = new_ll
            converged = True
            break
        ll = new_ll

    order = np.argsort(mu, kind="stable")
    model = GaussianMixture(weights=w[order], means=mu[order], sigmas=sg[order])
    p = gmm_parameter_count(m)
    report = FitReport(
        n_components=m,
        log_likelihood=ll,
        aic=aic(ll, p),
        bic=bic(ll, p, x_sorted.size),
        iterations=iterations,
        converged=converged,
        log_likelihood_trace=tuple(trace),
    )
    return model, report


def select_component_count(
    data,
    *,
    m_max: int = 4,
    tol: float = 1e-9,
    max_iter: int = 10000,
) -> ComponentSelection:
    """Fit mixtures for 1..m_max components and compare information criteria.

    The returned best_m minimizes BIC; when AIC prefers a different count the
    selection is flagged via criteria_agree=False so a caller can decide.
    """
    if m_max < 1:
        raise ValidationError("m_max must be at least 1")
    return ComponentSelection.from_reports(
        [em_fit(data, m, tol=tol, max_iter=max_iter)[1] for m in range(1, m_max + 1)]
    )


SILVERMAN_CONVENTIONS = {
    "factor": 0.9,
    "spread": "min(std, iqr / 1.34)",
    "std_ddof": 1,
    "quantile_method": "linear",
    "exponent": -0.2,
}


def silverman_bandwidth(data) -> float:
    """Silverman's rule of thumb for a Gaussian kernel.

    h = 0.9 min(sample std, IQR / 1.34) n^(-1/5), with the ddof=1 standard
    deviation and linear-interpolation quartiles.
    """
    x = np.asarray(data, dtype=float).ravel()
    if x.size < 2:
        raise ValidationError("bandwidth needs at least two observations")
    if not np.all(np.isfinite(x)):
        raise ValidationError("bandwidth input contains non-finite values")
    sd = float(np.std(x, ddof=1))
    q75, q25 = np.percentile(x, [75, 25])
    spread = min(sd, (q75 - q25) / 1.34)
    if spread <= 0:
        raise ValidationError("degenerate sample: zero spread")
    return 0.9 * spread * x.size ** (-1.0 / 5.0)


# compared by identity: the sample is an init-only value, not a field
@dataclass(frozen=True, eq=False)
class KernelDensityEstimate:
    """Gaussian-kernel density estimate over a fixed sample."""

    data: InitVar[Sequence[float]]
    bandwidth: float

    def __post_init__(self, data) -> None:
        x = np.array(data, dtype=float).ravel()
        if x.size == 0:
            raise ValidationError("kernel estimate needs data")
        if not np.all(np.isfinite(x)):
            raise ValidationError("kernel estimate input contains non-finite values")
        if not (np.isfinite(self.bandwidth) and self.bandwidth > 0):
            raise ValidationError(f"bandwidth must be positive, got {self.bandwidth}")
        x.setflags(write=False)
        object.__setattr__(self, "bandwidth", float(self.bandwidth))
        object.__setattr__(self, "_x", x)

    @classmethod
    def from_data(cls, data) -> "KernelDensityEstimate":
        """Build with Silverman's bandwidth."""
        return cls(data=np.asarray(data, dtype=float).ravel(),
                   bandwidth=silverman_bandwidth(data))

    @property
    def n_points(self) -> int:
        return self._x.size

    def pdf(self, x):
        x = np.asarray(x, dtype=float)
        z = (x[..., None] - self._x) / self.bandwidth
        with np.errstate(over="ignore"):
            out = np.exp(-0.5 * z * z).mean(axis=-1) / (self.bandwidth * np.sqrt(2.0 * np.pi))
        return out if out.ndim else float(out)

    def cdf(self, x):
        """Average of kernel CDFs: (1/n) sum Phi((x - x_t) / h)."""
        x = np.asarray(x, dtype=float)
        out = ndtr((x[..., None] - self._x) / self.bandwidth).mean(axis=-1)
        return out if out.ndim else float(out)
