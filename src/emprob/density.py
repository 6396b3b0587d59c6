"""Univariate Gaussian mixture fitting and kernel density estimation.

The mixture is fitted by expectation-maximization with a deterministic
initialization (sorted data split into equal-count blocks), so repeated runs
on the same data give identical parameters.  Each cycle is one SQUAREM step
followed by one safeguarded Newton step, which takes the fit from EM's slow
crawl near the optimum to a stationary point in a few cycles.  All likelihood
work happens in log space with max-subtraction to avoid underflow, from one
log-density of the weighted components (_log_components) that EM's E-step
and the fitted model share.  The stop rule is fixed in the constants
_LL_TOL, _PARAM_TOL and _MAX_CYCLES.  A fit needs more distinct values than
components (check_component_count).  Model order can be chosen by
information criteria; the kernel estimate uses a Gaussian kernel with
Silverman's bandwidth.  Both work on the distinct values of the sample
weighted by their counts.  The kernel estimate evaluates its (point, atom)
grid in blocks of whole rows, the one place that bounds such a grid: a
block's largest temporary, 16 B an entry, stays within 128 KiB (2^13
entries), so kde.cdf on 10,001 points peaks at 0.81 MiB (tracemalloc).

The normal distribution function both models use, ndtr, is a numpy port of
Cephes ndtr/erf/erfc (Moshier 1989, Methods and Programs for Mathematical
Functions), whose coefficients scipy.special uses too.  It gives the same
bits as scipy.special.ndtr, so the package needs no scipy at run time.
"""

from __future__ import annotations

import math
from dataclasses import InitVar, dataclass, field
from numbers import Integral
from typing import Sequence

import numpy as np

from emprob.schema import ValidationError, _read_only_copy

_LOG_2PI = float(np.log(2.0 * np.pi))
_SIGMA_FLOOR = 1e-6
# EM's stop rule, fixed: a fit converges once, in one cycle, the
# log-likelihood changes by at most _LL_TOL relative and no weight, mean or
# sigma moves by more than _PARAM_TOL; it stops unconverged after _MAX_CYCLES
_LL_TOL = 1e-9
_PARAM_TOL = 1e-8
_MAX_CYCLES = 10_000
# a Newton step that lowers the log-likelihood is halved at most this often
_NEWTON_HALVINGS = 8
# saddle-free steps: the gradient norm per observation below which one is
# taken, and the floor on -H's absolute eigenvalues relative to the largest
_SADDLE_FREE_GRAD = 0.01
_SADDLE_FREE_FLOOR = 1e-8

# Cephes ndtr.c: erf(x) = x T(x^2) / U(x^2) for |x| < 1; above, erfc(x) =
# exp(-x^2) P(x) / Q(x) for x < 8 and exp(-x^2) R(x) / S(x) from 8.  The
# leading 1 of Q, S and U is Cephes' p1evl: 1 * x + c is x + c exactly.
_NDTR_P = (2.46196981473530512524e-10, 5.64189564831068821977e-1, 7.46321056442269912687e0,
           4.86371970985681366614e1, 1.96520832956077098242e2, 5.26445194995477358631e2,
           9.34528527171957607540e2, 1.02755188689515710272e3, 5.57535335369399327526e2)
_NDTR_Q = (1.0, 1.32281951154744992508e1, 8.67072140885989742329e1, 3.54937778887819891062e2,
           9.75708501743205489753e2, 1.82390916687909736289e3, 2.24633760818710981792e3,
           1.65666309194161350182e3, 5.57535340817727675546e2)
_NDTR_R = (5.64189583547755073984e-1, 1.27536670759978104416e0, 5.01905042251180477414e0,
           6.16021097993053585195e0, 7.40974269950448939160e0, 2.97886665372100240670e0)
_NDTR_S = (1.0, 2.26052863220117276590e0, 9.39603524938001434673e0, 1.20489539808096656605e1,
           1.70814450747565897222e1, 9.60896809063285878198e0, 3.36907645100081516355e0)
_NDTR_T = (9.60497373987051638749e0, 9.00260197203842689217e1, 2.23200534594684319226e3,
           7.00332514112805075473e3, 5.55923013010394962768e4)
_NDTR_U = (1.0, 3.35617141647503099647e1, 5.21357949780152679795e2, 4.59432382970980127987e3,
           2.26290000613890934246e4, 4.92673942608635921086e4)
_SQRT1_2 = 7.07106781186547524401e-1
# Cephes MAXLOG = log(DBL_MAX): erfc is 0 where x^2 exceeds it
_MAXLOG = 7.09782712893383996843e2
# the smallest double a with ndtr(a) == 1.0; from there no exp is needed
_NDTR_ONE = 8.292361075813597


def _polevl(x: np.ndarray, coefs) -> np.ndarray:
    """Cephes polevl: the polynomial with these coefficients, highest
    first, at x by Horner's rule."""
    y = np.full_like(x, coefs[0])
    for c in coefs[1:]:
        y *= x
        y += c
    return y


def _libm_exp(v: np.ndarray) -> np.ndarray:
    """exp of each element with libm's bits, as Cephes takes it: numpy's
    SIMD exp differs in the last bit.  numpy's complex exp calls the C
    library's cexp, which numpy does not dispatch by CPU, and glibc's
    cexp(x + 0i) is exp(x) * cos 0, so its real part is libm's exp(x)."""
    return np.exp(v.astype(np.complex128)).real


def ndtr(a):
    """Standard normal distribution function, elementwise and bit for bit as
    Cephes ndtr; a 0-d input gives a scalar.  exp(-x^2) comes from
    _libm_exp, which assumes the platform's cexp(x + 0i) equals its exp(x),
    as glibc's does."""
    a = np.asarray(a, dtype=float)
    x = a * _SQRT1_2
    z = np.abs(x)
    inner = z < 1.0
    # 0.5 erfc(z) needs exp(-z^2) only below _NDTR_ONE and above underflow
    with np.errstate(over="ignore"):
        tail = (z >= 1.0) & (a < _NDTR_ONE) & (z * z <= _MAXLOG)
    # 1.0 from _NDTR_ONE up, 0.0 where exp underflows, and Cephes' NaN for NaN
    out = np.where(np.isnan(a), np.nan, x > 0)
    xi = x[inner]
    zi = xi * xi
    out[inner] = 0.5 + 0.5 * (xi * _polevl(zi, _NDTR_T) / _polevl(zi, _NDTR_U))
    w = z[tail]
    y = _libm_exp(-(w * w))
    p, q = _polevl(w, _NDTR_P), _polevl(w, _NDTR_Q)
    far = w >= 8.0
    if far.any():  # only for a below -8 sqrt(2)
        p[far], q[far] = _polevl(w[far], _NDTR_R), _polevl(w[far], _NDTR_S)
    y *= p
    y /= q
    y *= 0.5
    np.subtract(1.0, y, out=y, where=x[tail] > 0)
    out[tail] = y
    return out if out.ndim else out[()]


def _log_components(x: np.ndarray, w, mu, sg) -> np.ndarray:
    """log(w_k N(x | mu_k, sg_k)) with a trailing component axis."""
    z = (x[..., None] - mu) / sg
    with np.errstate(over="ignore"):  # far-tail z*z may hit inf, handled downstream
        return np.log(w) - np.log(sg) - 0.5 * _LOG_2PI - 0.5 * z * z


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

    @property
    def n_components(self) -> int:
        return len(self.weights)

    def component_pdfs(self, x):
        """Weighted per-component densities phi_k N(x|mu_k, sigma_k), last
        axis indexing components; their sum over that axis is pdf(x)."""
        x = np.asarray(x, dtype=float)
        return np.exp(_log_components(x, self.weights, self.means, self.sigmas))

    def pdf(self, x):
        x = np.asarray(x, dtype=float)
        logc = _log_components(x, self.weights, self.means, self.sigmas)
        mx = logc.max(axis=-1, keepdims=True)
        with np.errstate(invalid="ignore"):
            out = np.exp(mx[..., 0]) * np.exp(logc - mx).sum(axis=-1)
        out = np.where(np.isfinite(mx[..., 0]), out, 0.0)
        return out if out.ndim else float(out)

    def cdf(self, x):
        """Mixture distribution function: sum of weighted normal CDFs."""
        x = np.asarray(x, dtype=float)
        out = (self.weights * ndtr((x[..., None] - self.means) / self.sigmas)).sum(axis=-1)
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
        logc = _log_components(x, self.weights, self.means, self.sigmas)
        mx = logc.max(axis=-1, keepdims=True)
        with np.errstate(invalid="ignore"):
            ratios = np.exp(logc - mx)
            resp = ratios[..., k] / ratios.sum(axis=-1)
        degenerate = ~np.isfinite(mx[..., 0])
        if np.any(degenerate):
            resp = np.where(degenerate, self.weights[k], resp)
        return resp if resp.ndim else float(resp)


@dataclass(frozen=True)
class FitReport:
    """Outcome of one EM run; iterations counts cycles (one SQUAREM step and
    one Newton step each), and the trace holds the log-likelihood after the
    initialization and after each cycle."""

    n_components: int
    log_likelihood: float
    aic: float
    bic: float
    iterations: int
    converged: bool
    log_likelihood_trace: tuple[float, ...] = field(repr=False)


@dataclass(frozen=True)
class ComponentSelection:
    """Information-criterion comparison across candidate fits.  Each best
    count is the first candidate's with the least criterion; criteria_agree
    says whether AIC and BIC prefer the same count."""

    reports: tuple[FitReport, ...]

    @property
    def aic_best_m(self) -> int:
        return min(self.reports, key=lambda r: r.aic).n_components

    @property
    def bic_best_m(self) -> int:
        return min(self.reports, key=lambda r: r.bic).n_components

    @property
    def criteria_agree(self) -> bool:
        return self.aic_best_m == self.bic_best_m


def check_component_count(data, n_components: int) -> np.ndarray:
    """The data as a flat float array, checked for an n_components mixture:
    finite, with an integer count (not a bool) of at least one component
    and more distinct values than components.  With as many components as
    distinct values, each component can collapse onto one value and the
    likelihood is unbounded (McLachlan & Peel 2000, Finite Mixture Models,
    sec. 3.8)."""
    x = np.asarray(data, dtype=float).ravel()
    if not np.all(np.isfinite(x)):
        raise ValidationError("EM input contains non-finite values")
    if isinstance(n_components, bool) or not isinstance(n_components, Integral):
        raise ValidationError(f"n_components must be an integer, got {n_components!r}")
    if n_components < 1:
        raise ValidationError("n_components must be at least 1")
    # counted from a sort: np.unique without counts imports numpy.ma
    xs = np.sort(x)
    distinct = int(np.count_nonzero(xs[1:] != xs[:-1])) + min(xs.size, 1)
    if distinct <= n_components:
        raise ValidationError(
            f"EM needs more distinct values than components, got {distinct} <= {n_components}"
        )
    return x


def _block_init(x_sorted: np.ndarray, m: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Deterministic start: m contiguous equal-count blocks of sorted data."""
    blocks = np.array_split(x_sorted, m)
    w = np.array([b.size / x_sorted.size for b in blocks])
    mu = np.array([b.mean() for b in blocks])
    sg = np.maximum(np.array([b.std() for b in blocks]), _SIGMA_FLOOR)
    return w, mu, sg


def _to_theta(params) -> np.ndarray:
    """(weights, means, sigmas) as one (log w, mu, log sigma) vector."""
    w, mu, sg = params
    return np.concatenate([np.log(w), mu, np.log(sg)])


def _from_theta(theta: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    lw, mu, lsg = np.split(theta, 3)
    w = np.exp(lw - lw.max())
    return w / w.sum(), mu, np.maximum(np.exp(lsg), _SIGMA_FLOOR)


def _newton_step(atoms, counts, params, resp):
    """Newton step for the count-weighted log-likelihood at params.

    The coordinates are (weight logits against the last component, means, log
    sigmas), with the analytic gradient and Hessian; resp holds the
    count-weighted responsibilities at params.  Where -H is not positive
    definite, near a stationary point, the step is saddle-free (Dauphin et
    al. 2014, NeurIPS; Nocedal & Wright 2006, Numerical Optimization, 3.4):
    it solves with the absolute eigenvalues of -H, and its norm is capped
    at 1.  Returns the point's coordinates and the step, or None.
    """
    w, mu, sg = params
    m = w.size
    k = np.arange(m)
    lead = w[:-1]
    z = (atoms[:, None] - mu) / sg
    # jac[i, k]: gradient of log(w_k N(x_i | mu_k, sigma_k)) in the coordinates
    jac = np.zeros((atoms.size, m, 3 * m - 1))
    jac[:, :, : m - 1] = np.eye(m)[:, : m - 1] - lead
    jac[:, k, m - 1 + k] = z / sg
    jac[:, k, 2 * m - 1 + k] = z * z - 1.0
    per_atom = np.einsum("ik,ikp->ip", resp, jac)
    grad = per_atom.sum(axis=0)
    flat = jac.reshape(atoms.size * m, -1)
    hess = flat.T @ (resp.reshape(-1, 1) * flat) - per_atom.T @ (per_atom / counts[:, None])
    # plus each component's own second derivatives, summed under resp
    hess[: m - 1, : m - 1] -= counts.sum() * (np.diag(lead) - np.outer(lead, lead))
    hess[m - 1 + k, m - 1 + k] -= resp.sum(axis=0) / sg**2
    cross = 2.0 * (resp * z).sum(axis=0) / sg
    hess[m - 1 + k, 2 * m - 1 + k] -= cross
    hess[2 * m - 1 + k, m - 1 + k] -= cross
    hess[2 * m - 1 + k, 2 * m - 1 + k] -= 2.0 * (resp * z * z).sum(axis=0)
    if not (np.all(np.isfinite(hess)) and np.all(np.isfinite(grad))):
        return None
    try:
        np.linalg.cholesky(-hess)
        step = np.linalg.solve(-hess, grad)
    except np.linalg.LinAlgError:
        if np.linalg.norm(grad) > _SADDLE_FREE_GRAD * counts.sum():
            return None
        evals, evecs = np.linalg.eigh(-hess)
        evals = np.abs(evals)
        evals = np.maximum(evals, _SADDLE_FREE_FLOOR * evals.max())
        step = evecs @ (evecs.T @ grad / evals)
        norm = np.linalg.norm(step)
        if norm > 1.0:
            step *= 1.0 / norm
    theta = np.concatenate([np.log(lead / w[-1]), mu, np.log(sg)])
    return theta, step


def em_fit(data, n_components: int) -> tuple[GaussianMixture, FitReport]:
    """Fit a univariate Gaussian mixture by EM with SQUAREM and Newton steps.

    EM runs on the distinct values of the data, each weighted by how often it
    occurs, which gives the same likelihood as the full sample.  Each cycle
    is one SQUAREM step plus one safeguarded Newton step.  The SQUAREM step
    takes two plain EM steps, extrapolates along them in (log weight, mean,
    log sigma) space with the S3 step length of Varadhan & Roland (2008,
    Scand. J. Stat. 35:335), and applies one EM step to the extrapolated
    point; that point is kept only when its log-likelihood is at least the
    second plain step's.  For two or more components the cycle ends with a
    Newton step on the log-likelihood in (weight logit against the last
    component, mean, log sigma) coordinates, as in the hybrid EM/Newton
    scheme of Aitkin & Aitkin (1996, Stat. Comput. 6:127), saddle-free
    where the Hessian is not negative definite.  It is halved up to 8 times
    and kept only when its log-likelihood is at least the SQUAREM point's,
    so the trace never decreases.  The stop rule is fixed (_LL_TOL,
    _PARAM_TOL and _MAX_CYCLES); a fit at the cycle cap is unconverged.

    Parameters
    ----------
    data : array_like
        One-dimensional finite observations with more distinct values than
        n_components.
    n_components : int
        Number of mixture components: an integer, not a bool, of at least 1.

    Returns
    -------
    (GaussianMixture, FitReport)
        Fitted model with components sorted by ascending mean, plus the run
        report, whose iterations count cycles.  The reported
        log-likelihood always belongs to the returned parameters.
    """
    x_sorted = np.sort(check_component_count(data, n_components))
    m = int(n_components)
    atoms, counts = np.unique(x_sorted, return_counts=True)
    counts = counts.astype(float)

    def e_step(params):
        """Log-likelihood and count-weighted responsibilities at params."""
        logc = _log_components(atoms, *params)
        mx = logc.max(axis=1, keepdims=True)
        lognorm = mx[:, 0] + np.log(np.exp(logc - mx).sum(axis=1))
        return float(counts @ lognorm), np.exp(logc - lognorm[:, None]) * counts[:, None]

    def m_step(resp):
        nk = resp.sum(axis=0)
        mu = (resp * atoms[:, None]).sum(axis=0) / nk
        sg = np.sqrt((resp * (atoms[:, None] - mu) ** 2).sum(axis=0) / nk)
        return nk / x_sorted.size, mu, np.maximum(sg, _SIGMA_FLOOR)

    params = _block_init(x_sorted, m)
    ll, resp = e_step(params)
    trace = [ll]
    converged = False
    for iterations in range(1, _MAX_CYCLES + 1):
        p1 = m_step(resp)
        p2 = m_step(e_step(p1)[1])
        best = (p2, *e_step(p2))
        t0, t1, t2 = (_to_theta(p) for p in (params, p1, p2))
        r, v = t1 - t0, t2 - 2.0 * t1 + t0
        v_norm = np.linalg.norm(v)
        if v_norm > 0.0:
            # S3 step length; alpha = -1 would land on the second step
            alpha = min(-np.linalg.norm(r) / v_norm, -1.0)
            # a wild jump ends in a NaN or -inf likelihood and is rejected
            with np.errstate(all="ignore"):
                p3 = m_step(e_step(_from_theta(t0 - 2.0 * alpha * r + alpha**2 * v))[1])
                ll3, resp3 = e_step(p3)
            if ll3 >= best[1]:
                best = (p3, ll3, resp3)
        # a degenerate point gives no step, and a NaN likelihood is rejected
        with np.errstate(all="ignore"):
            newton = _newton_step(atoms, counts, best[0], best[2]) if m > 1 else None
            if newton is not None:
                theta, step = newton
                for _ in range(_NEWTON_HALVINGS + 1):
                    # the last component's logit is 0 against itself
                    p4 = _from_theta(np.insert(theta + step, m - 1, 0.0))
                    ll4, resp4 = e_step(p4)
                    if ll4 >= best[1]:
                        best = (p4, ll4, resp4)
                        break
                    step = step / 2.0
        moved = max(float(np.abs(new - old).max()) for new, old in zip(best[0], params))
        params, new_ll, resp = best
        trace.append(new_ll)
        converged = abs(new_ll - ll) <= _LL_TOL * abs(new_ll) and moved <= _PARAM_TOL
        ll = new_ll
        if converged:
            break

    w, mu, sg = params
    order = np.argsort(mu, kind="stable")
    model = GaussianMixture(weights=w[order], means=mu[order], sigmas=sg[order])
    # free parameters: a weight, mean and sigma per component, less the one
    # weight that normalization fixes
    p = 3 * m - 1
    report = FitReport(
        n_components=m,
        log_likelihood=ll,
        aic=2.0 * p - 2.0 * ll,
        bic=p * float(np.log(x_sorted.size)) - 2.0 * ll,
        iterations=iterations,
        converged=converged,
        log_likelihood_trace=tuple(trace),
    )
    return model, report


def select_component_count(data, *, m_max: int = 4) -> ComponentSelection:
    """Fit mixtures for 1..m_max components and compare information criteria.

    The returned bic_best_m minimizes BIC; when AIC prefers a different
    count the selection is flagged via criteria_agree=False so a caller can
    decide.  An m_max that is not an integer, or not below the number of
    distinct values, is rejected before any fit.
    """
    if isinstance(m_max, Integral) and m_max < 1:
        raise ValidationError("m_max must be at least 1")
    check_component_count(data, m_max)
    return ComponentSelection(tuple(em_fit(data, m)[1] for m in range(1, m_max + 1)))


SILVERMAN_CONVENTIONS = {
    "factor": 0.9,
    "spread": "min(std, iqr / 1.34)",
    "std_ddof": 1,
    "quantile_method": "linear",
    "exponent": -0.2,
}


def _linear_quartiles(x: np.ndarray) -> tuple[float, float]:
    """np.percentile(x, [75, 25]) of at least two values, bit for bit, since
    np.percentile imports numpy.ma: numpy's linear-method index
    n q + (alpha + q (1 - alpha - beta)) - 1 with alpha = beta = 1, the
    order statistics from a partition at numpy's points (which places tied
    zeros of either sign as numpy does), and numpy's lerp, which measures
    from the upper value where the weight is at least 1/2."""
    n = x.size
    v = [n * q + (1 - q) - 1 for q in (0.75, 0.25)]
    lower = [math.floor(vi) for vi in v]
    xp = np.partition(x, sorted({0, -1, *lower, *(i + 1 for i in lower)}))
    quartiles = []
    for vi, i in zip(v, lower):
        a, b, t = float(xp[i]), float(xp[i + 1]), vi - i
        d = b - a
        quartiles.append(b - d * (1 - t) if t >= 0.5 else a + d * t)
    return quartiles[0], quartiles[1]


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
    q75, q25 = _linear_quartiles(x)
    spread = min(sd, (q75 - q25) / 1.34)
    if spread <= 0:
        raise ValidationError("degenerate sample: zero spread")
    return 0.9 * spread * x.size ** (-1.0 / 5.0)


# A kernel estimate evaluates its (point, atom) grid a block of rows at a
# time, sized by the bytes of the block's largest temporary: the complex128
# copy through which _libm_exp takes libm's exp, 16 B an entry.  It stays
# within 128 KiB, so a block holds 2^13 entries (22 rows of the 364 default
# sums).  Measured on one 2-core x86-64 VM: at 256 KiB (2^14 entries)
# kde.cdf on a 10,001-point grid peaked at 1.57 MiB under tracemalloc,
# against 0.81 MiB, and the default report's peak RSS, then set inside
# write_fit, read 0.66 MiB higher in the benchmark (BENCH_31.json).  64 KiB
# lowers a bare report process's peak by a further 0.2 MiB, at twice the
# blocks, each costing about 40 us of fixed overhead.
_BLOCK_BYTES = 128 << 10
_BLOCK_ENTRY_BYTES = np.dtype(np.complex128).itemsize


@dataclass(frozen=True, eq=False)
class KernelDensityEstimate:
    """Gaussian-kernel density estimate over a fixed sample.

    The sample is kept as its distinct values and their counts; pdf and cdf
    sum count-weighted kernels along the last axis, so one point and a row
    of a batch give the same bits.
    """

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
        atoms, counts = np.unique(x, return_counts=True)
        object.__setattr__(self, "bandwidth", float(self.bandwidth))
        object.__setattr__(self, "_atoms", _read_only_copy(atoms))
        object.__setattr__(self, "_counts", _read_only_copy(counts, float))

    @classmethod
    def from_data(cls, data) -> "KernelDensityEstimate":
        """Build with Silverman's bandwidth."""
        return cls(data, silverman_bandwidth(data))

    @property
    def n_points(self) -> int:
        return int(self._counts.sum())

    def _kernel_mean(self, x, kernel):
        """(1/n) sum_t count_t kernel((x - x_t) / h) at each point of x.

        pdf and cdf share this loop.  It takes a block of whole rows of the
        (point, atom) grid at a time, as many as keep the block's largest
        temporary, 16 B an entry, within _BLOCK_BYTES (at least one row);
        each row sums on its own, so the blocks give the bits of one grid.
        """
        x = np.asarray(x, dtype=float)
        points = x.reshape(-1)
        out = np.empty(points.size)
        rows = max(1, _BLOCK_BYTES // (_BLOCK_ENTRY_BYTES * self._atoms.size))
        for i in range(0, points.size, rows):
            k = points[i : i + rows, None] - self._atoms
            with np.errstate(over="ignore"):  # a far tail's kernel is 0 or 1
                k /= self.bandwidth
                k = kernel(k)
            k *= self._counts
            out[i : i + rows] = k.sum(axis=-1)
        out = out.reshape(x.shape) / self.n_points
        return out if out.ndim else float(out)

    def pdf(self, x):
        density = self._kernel_mean(x, lambda u: np.exp(u * u * -0.5))
        return density / (self.bandwidth * np.sqrt(2.0 * np.pi))

    def cdf(self, x):
        """Average of kernel CDFs: (1/n) sum Phi((x - x_t) / h)."""
        return self._kernel_mean(x, ndtr)
