"""Mono-compartment pharmacokinetics with rough mean-reverting noise.

After a bolus injection (absorption rate 0) the drug concentration is
modeled by dC = -Ke C dt + sigma C^beta dW with C_0 = A0/v, driven by a
Gaussian process with smooth enough paths (typically fBm with a high
Hurst index). The concentration is the explicit a = 0 solution truncated
at its first zero hit. The module provides the deterministic oracle, the
exact Gaussian likelihood of discrete concentration observations, its
maximization over theta = (Ke, sigma, beta), and two estimators of the
sensitivity of E[F(C_tau^x)] to the initial concentration x.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np
from scipy.linalg import solve_triangular
from scipy.optimize import minimize

from .artifacts import write_csv
from .drivers import (
    CovarianceError,
    CovarianceKernel,
    covariance_matrix,
    grid_index,
    sample_path_matrix,
    sample_paths,
    uniform_grid,
    _cholesky_with_jitter,
)
from .transform import (
    ModelParams,
    TruncatedPath,
    check_lift,
    explicit_solution_a0,
    first_hit,
    lift,
    tilde_w_matrix,
)

__all__ = [
    "AdmissibilityError",
    "PkParams",
    "ConcentrationSeries",
    "ThetaBounds",
    "ThetaEstimate",
    "SensitivitySpec",
    "SensitivityReport",
    "deterministic_concentration",
    "simulate_concentration",
    "z_mean",
    "build_quad_grid",
    "gamma_matrix_from_theta",
    "log_likelihood",
    "fit_mle",
    "concentration_functional_samples",
    "sensitivity_plsin",
    "sensitivity_fd",
]


class AdmissibilityError(RuntimeError):
    """No admissible parameters: every likelihood evaluation was -inf."""


@dataclass(frozen=True)
class PkParams:
    """Mono-compartment model constants.

    Ka = 0 is the bolus convention (instantaneous dose, initial
    concentration A0/v); the stochastic model always uses the bolus route.
    """

    A0: float
    v: float
    Ke: float
    sigma: float
    beta: float
    Ka: float = 0.0

    def __post_init__(self):
        if self.A0 <= 0 or self.v <= 0:
            raise ValueError("A0 and v must be positive")
        if self.Ke <= 0:
            raise ValueError("Ke must be positive")
        if self.Ka < 0:
            raise ValueError("Ka must be nonnegative")
        if self.sigma <= 0:
            raise ValueError("sigma must be positive")
        if not 0.0 < self.beta < 1.0:
            raise ValueError("beta must lie in (0, 1)")

    @property
    def initial_concentration(self) -> float:
        return self.A0 / self.v

    def to_model_params(self, x0: Optional[float] = None) -> ModelParams:
        """The underlying SDE coefficients: x0 = A0/v, a = 0, b = Ke."""
        return ModelParams(
            x0=self.initial_concentration if x0 is None else x0,
            a=0.0,
            b=self.Ke,
            sigma=self.sigma,
            beta=self.beta,
        )


@dataclass(frozen=True)
class ConcentrationSeries:
    """Observed concentrations x_i at strictly positive times t_i.

    Pairs are sorted by time at construction, which makes the likelihood
    invariant under permutation of the input pairs. The likelihood itself
    is only finite when every concentration is positive.
    """

    times: np.ndarray
    concentrations: np.ndarray

    def __post_init__(self):
        t = np.asarray(self.times, dtype=float)
        x = np.asarray(self.concentrations, dtype=float)
        if t.ndim != 1 or t.shape != x.shape or t.size == 0:
            raise ValueError("times and concentrations must be equal-length 1-d arrays")
        order = np.argsort(t, kind="stable")
        t, x = t[order], x[order]
        if t[0] <= 0:
            raise ValueError("observation times must be strictly positive")
        if np.any(np.diff(t) <= 0):
            raise ValueError("observation times must be distinct")
        object.__setattr__(self, "times", t)
        object.__setattr__(self, "concentrations", x)

    def __len__(self) -> int:
        return self.times.size

    def to_csv(self, path) -> None:
        write_csv(path, ["t", "concentration"], zip(self.times, self.concentrations))

    @classmethod
    def from_csv(cls, path, column: Optional[str] = None,
                 drop_nonpositive: bool = False) -> "ConcentrationSeries":
        """Read ``t,concentration`` CSV; also accepts simulation output.

        Falls back to a ``stochastic`` column (pk simulation files) and
        then to the second column. A time or concentration that is not
        finite raises ValueError naming its data row. Rows at t = 0 are
        never observations and are dropped; ``drop_nonpositive``
        additionally drops rows with concentration <= 0 (post-hit zeros).
        """
        with open(path, "r", newline="") as fh:
            reader = csv.reader(fh)
            header = next(reader)
            rows = [r for r in reader if r]
        if "t" not in header:
            raise ValueError("CSV must have a 't' column")
        ti = header.index("t")
        if column is not None:
            if column not in header:
                raise ValueError(f"CSV has no column {column!r}")
            ci = header.index(column)
        elif "concentration" in header:
            ci = header.index("concentration")
        elif "stochastic" in header:
            ci = header.index("stochastic")
        else:
            ci = 1 if ti != 1 else 0
        t = np.array([float(r[ti]) for r in rows])
        x = np.array([float(r[ci]) for r in rows])
        bad = ~(np.isfinite(t) & np.isfinite(x))
        if bad.any():
            raise ValueError(f"data row {int(bad.argmax()) + 1}: t and {header[ci]!r} "
                             f"must be finite")
        keep = t > 0
        if drop_nonpositive:
            keep &= x > 0
        if not keep.any():
            raise ValueError("no usable observations in CSV")
        return cls(t[keep], x[keep])


def deterministic_concentration(pk: PkParams, t):
    """Classical mono-compartment solution (absorption Ka, elimination Ke).

    Ka = 0 is the bolus case (A0/v) e^(-Ke t); Ka = Ke degenerates to the
    t e^(-Ke t) profile; otherwise the usual two-exponential formula.
    """
    t = np.asarray(t, dtype=float)
    c0 = pk.initial_concentration
    if pk.Ka == 0.0:
        out = c0 * np.exp(-pk.Ke * t)
    elif pk.Ka == pk.Ke:
        out = c0 * pk.Ka * t * np.exp(-pk.Ke * t)
    else:
        rate = c0 * pk.Ka / (pk.Ke - pk.Ka)
        out = rate * (np.exp(-pk.Ka * t) - np.exp(-pk.Ke * t))
    return float(out) if out.ndim == 0 else out


def simulate_concentration(
    pk: PkParams, kernel: CovarianceKernel, n: int, seed: int, horizon: float = 1.0
) -> TruncatedPath:
    """One stochastic concentration path, absorbed at its first zero hit."""
    grid = uniform_grid(n, horizon)
    driver = sample_paths(kernel, grid, 1, seed)[0]
    return explicit_solution_a0(driver, pk.to_model_params())


def z_mean(t, pk: PkParams):
    """Mean of the transformed concentration: (A0/v)^(1-beta) e^(-Ke(1-beta)t)."""
    t = np.asarray(t, dtype=float)
    omb = 1.0 - pk.beta
    out = pk.initial_concentration**omb * np.exp(-pk.Ke * omb * t)
    return float(out) if out.ndim == 0 else out


def build_quad_grid(times: np.ndarray, refine: Optional[int] = None) -> np.ndarray:
    """Quadrature grid from 0 through the observation times.

    Each gap is split into ``refine`` equal pieces (default: enough for
    roughly 256 intervals overall), so every observation time is a grid
    point and the covariance quadrature resolves the weight's growth.
    """
    times = np.asarray(times, dtype=float)
    if refine is None:
        refine = max(1, -(-256 // times.size))
    knots = np.concatenate(([0.0], times))
    pieces = [np.array([0.0])]
    for lo, hi in zip(knots[:-1], knots[1:]):
        pieces.append(np.linspace(lo, hi, refine + 1)[1:])
    return np.concatenate(pieces)


class _ObservationBlock:
    """G(kappa) = R C R^T, the damped wtilde covariance at the observation times.

    With kappa = Ke(1-beta) the weight is theta_t = sigma(1-beta) e^(kappa t),
    its derivative is kappa theta_t and the damping of the transformed
    observations is e^(-kappa t), so Gamma(Ke, sigma, beta) =
    sigma^2 (1-beta)^2 G(kappa). C is the driver covariance on the
    quadrature grid s_0 = 0 < ... < s_N, and row i of the n x (N+1) matrix R
    is the integration-by-parts quadrature of tilde_w_matrix at t_i = s_k,
    damped:

        (R w)_i = e^(-kappa t_i) (e^(kappa s_k) w_k - kappa int_0^{s_k} e^(kappa s) w_s ds),

    that is R = diag(e^(-kappa t)) (E - kappa TW) diag(e^(kappa s)) with E the
    selector of the observation indices and TW the trapezoid weights of the
    integrals. G therefore equals the damped observation block of
    tilde_w_covariance_matrix up to rounding. E and TW do not depend on
    theta and are built once. R C is one matrix product; R^T is applied on
    the right as a running trapezoid sum along the rows of R C, which costs
    n N instead of the n^2 N of a second product.
    """

    def __init__(self, times: np.ndarray, kernel: CovarianceKernel, quad_grid: np.ndarray):
        times = np.asarray(times, dtype=float)
        if np.any(times <= 0) or np.any(np.diff(times) <= 0):
            raise ValueError("observation times must be positive and increasing")
        grid = np.asarray(quad_grid, dtype=float)
        if grid[0] != 0.0 or np.any(np.diff(grid) <= 0):
            raise ValueError("grid must be strictly increasing and start at 0")
        self.times = times
        self.grid = grid
        self.cov = covariance_matrix(kernel, grid)
        self.idx = np.array([grid_index(grid, t) for t in times])
        self.rows = np.arange(times.size)
        half = 0.5 * np.diff(grid)
        # a running sum with these weights integrates by trapezoid through
        # s_k plus the half interval right of s_k, which ``end`` takes back
        self.weights = np.concatenate(([0.0], half)) + np.concatenate((half, [0.0]))
        self.end = np.concatenate((half, [0.0]))[self.idx]
        self.tw = np.where(np.arange(grid.size) <= self.idx[:, None], self.weights, 0.0)
        self.tw[self.rows, self.idx] -= self.end

    def __call__(self, kappa: float) -> np.ndarray:
        with np.errstate(over="ignore", invalid="ignore"):
            ek = np.exp(kappa * self.grid)
            damp = np.exp(-kappa * self.times)
            r = self.tw * (-kappa * ek)
            r[self.rows, self.idx] += ek[self.idx]
            r *= damp[:, None]
            rc = r @ self.cov
            # (R C) R^T: the same quadrature, as a running sum along the rows of R C
            running = np.cumsum(rc * (ek * self.weights), axis=1)[:, self.idx]
            g = rc[:, self.idx] * ((1.0 + kappa * self.end) * ek[self.idx]) - kappa * running
            g *= damp
        if not np.all(np.isfinite(g)):
            raise CovarianceError(
                f"observation covariance overflows at kappa = {kappa!r} "
                f"(kappa s up to {kappa * self.grid[-1]:.3g})")
        return 0.5 * (g + g.T)


def gamma_matrix_from_theta(
    theta,
    times: np.ndarray,
    kernel: CovarianceKernel,
    quad_grid: np.ndarray,
) -> np.ndarray:
    """Covariance of the transformed observations for theta = (Ke, sigma, beta).

    The transformed process minus its mean is e^(-Ke(1-beta)t) wtilde_t,
    so entry (i, j) is e^(-Ke(1-beta)(t_i+t_j)) Cov(wtilde_ti, wtilde_tj).
    It is computed as sigma^2 (1-beta)^2 G(Ke(1-beta)), where G is the
    observation block R C R^T of _ObservationBlock; it equals the
    observation rows and columns of tilde_w_covariance_matrix, damped, up
    to rounding.
    """
    ke, sigma, beta = (float(v) for v in theta)
    if ke < 0 or sigma < 0 or not 0.0 < beta < 1.0:
        raise ValueError("theta out of domain: need Ke, sigma >= 0 and beta in (0, 1)")
    omb = 1.0 - beta
    return sigma**2 * omb**2 * _ObservationBlock(times, kernel, quad_grid)(ke * omb)


def _likelihood_core(ke, beta, obs, block, A0, v):
    """log det L_1 and q = |L_1^{-1} U|^2, with L_1 the Cholesky factor of Gamma_1.

    Gamma_1 = (1-beta)^2 G(Ke(1-beta)) is the observation covariance at
    sigma = 1, from ``block``, the _ObservationBlock of obs.times. Every
    entry of the covariance carries two weights sigma(1-beta)e^(Ke(1-beta)t),
    so Gamma(Ke, sigma, beta) = sigma^2 Gamma_1 and U does not depend on
    sigma. The jitter ladder is relative to the largest diagonal entry, so
    Gamma_1 needs the jitter that Gamma would, up to rounding.
    """
    t = obs.times
    omb = 1.0 - beta
    factor = _cholesky_with_jitter(omb**2 * block(ke * omb))
    u = obs.concentrations**omb - (A0 / v) ** omb * np.exp(-ke * omb * t)
    half = solve_triangular(factor, u, lower=True)
    return float(np.sum(np.log(np.diag(factor)))), float(np.dot(half, half))


def _log_likelihood_from(sigma, beta, x, logdet, q) -> float:
    n = x.size
    return float(n * math.log(1.0 - beta) - 0.5 * n * math.log(2.0 * math.pi) - logdet
                 - n * math.log(sigma) - 0.5 * q / sigma**2 - beta * np.sum(np.log(x)))


def log_likelihood(
    theta,
    obs: ConcentrationSeries,
    kernel: CovarianceKernel,
    A0: float,
    v: float,
    quad_grid: Optional[np.ndarray] = None,
) -> float:
    """Exact log-likelihood of positive observations under theta = (Ke, sigma, beta).

    Computed stably through the Cholesky factor L_1 of the covariance at
    sigma = 1 (Gamma = sigma^2 Gamma_1):

        n log(1-beta) - (n/2) log(2 pi) - log det L_1 - n log sigma
        - q / (2 sigma^2) - beta sum log x_i,    q = U' Gamma_1^{-1} U,

    with U_i = x_i^(1-beta) - (A0/v)^(1-beta) e^(-Ke(1-beta)t_i); n log(1-beta)
    and the last term are the Jacobian of x -> x^(1-beta). Returns -inf when
    any observation is nonpositive (the indicator factor).
    """
    ke, sigma, beta = (float(u) for u in theta)
    if ke <= 0 or sigma <= 0 or not 0.0 < beta < 1.0:
        raise ValueError("theta out of domain: need Ke, sigma > 0 and beta in (0, 1)")
    if np.any(obs.concentrations <= 0):
        return -math.inf
    if quad_grid is None:
        quad_grid = build_quad_grid(obs.times)
    block = _ObservationBlock(obs.times, kernel, quad_grid)
    logdet, q = _likelihood_core(ke, beta, obs, block, A0, v)
    return _log_likelihood_from(sigma, beta, obs.concentrations, logdet, q)


@dataclass(frozen=True)
class ThetaBounds:
    """Fitting box: Ke in (0, ke_max], sigma in (0, sigma_max], beta in [lo, hi]."""

    ke_max: float = 50.0
    sigma_max: float = 20.0
    beta_min: float = 0.05
    beta_max: float = 0.95

    def __post_init__(self):
        if self.ke_max <= 0 or self.sigma_max <= 0:
            raise ValueError("upper bounds must be positive")
        if not 0.0 < self.beta_min < self.beta_max < 1.0:
            raise ValueError("beta bounds must satisfy 0 < lo < hi < 1")

    def contains(self, theta) -> bool:
        ke, sigma, beta = theta
        return (
            0 < ke <= self.ke_max
            and 0 < sigma <= self.sigma_max
            and self.beta_min <= beta <= self.beta_max
        )


@dataclass(frozen=True)
class ThetaEstimate:
    Ke: float
    sigma: float
    beta: float
    log_likelihood: float
    converged: bool
    iterations: int

    def __post_init__(self):
        if self.Ke <= 0 or self.sigma <= 0 or not 0.0 < self.beta < 1.0:
            raise ValueError("estimate out of the admissible domain")


def _to_unconstrained(ke, beta, bounds: ThetaBounds) -> np.ndarray:
    frac = (beta - bounds.beta_min) / (bounds.beta_max - bounds.beta_min)
    frac = min(max(frac, 1e-12), 1.0 - 1e-12)
    return np.array([math.log(ke), math.log(frac / (1.0 - frac))])


def _from_unconstrained(u: np.ndarray, bounds: ThetaBounds):
    frac = 1.0 / (1.0 + math.exp(-u[1]))
    return math.exp(u[0]), bounds.beta_min + (bounds.beta_max - bounds.beta_min) * frac


def fit_mle(
    obs: ConcentrationSeries,
    kernel: CovarianceKernel,
    init,
    A0: float,
    v: float,
    bounds: ThetaBounds = ThetaBounds(),
    quad_grid: Optional[np.ndarray] = None,
    max_iter: int = 2000,
) -> ThetaEstimate:
    """Maximize the likelihood over theta = (Ke, sigma, beta).

    sigma is profiled out: at each (Ke, beta) the likelihood is unimodal in
    sigma with its maximum at sqrt(q/n) (see _likelihood_core), clamped to
    sigma_max. Nelder-Mead then searches (log Ke, logit beta over its
    bracket); derivative-free on purpose, the objective goes through a
    quadrature-built covariance. ``init`` is a full theta whose sigma is
    only checked against the bounds. Convergence means Nelder-Mead stopped
    on its own, not at its iteration or evaluation cap, with a final
    simplex of diameter below 1e-6; by construction the returned value is
    at least as likely as the initial point.
    """
    init = tuple(float(u) for u in init)
    if not bounds.contains(init):
        raise ValueError("initial theta must lie inside the bounds")
    if np.any(obs.concentrations <= 0):
        # the indicator kills the likelihood at every theta
        raise AdmissibilityError("no admissible parameters")
    if quad_grid is None:
        quad_grid = build_quad_grid(obs.times)
    block = _ObservationBlock(obs.times, kernel, quad_grid)  # theta-independent

    def profile(u):
        """(theta, -log-likelihood) with sigma at its profile maximum."""
        ke, beta = _from_unconstrained(u, bounds)
        if ke > bounds.ke_max:
            return None, math.inf
        try:
            logdet, q = _likelihood_core(ke, beta, obs, block, A0, v)
        except CovarianceError:
            return None, math.inf  # degenerate Gamma at an extreme theta: step back
        sigma = min(math.sqrt(q / len(obs)), bounds.sigma_max)
        ll = _log_likelihood_from(sigma, beta, obs.concentrations, logdet, q)
        return (ke, sigma, beta), -ll

    u0 = _to_unconstrained(init[0], init[2], bounds)
    f0 = profile(u0)[1]
    # explicit initial simplex: the default (5% per coordinate, absolute
    # fallback near 0) collapses along coordinates starting at 0, e.g. the
    # logit of a centered beta, and the fit would never leave them
    simplex = np.vstack([u0, u0 + [0.5, 0.0], u0 + [0.0, 0.5]])
    # stop on the simplex size alone (fatol = inf): with an ill-conditioned
    # Gamma the objective's rounding noise (~1e-9) can stay above any fatol
    options = dict(maxiter=max_iter, maxfev=8 * max_iter, xatol=1e-7, fatol=math.inf,
                   initial_simplex=simplex)
    result = minimize(lambda u: profile(u)[1], u0, method="Nelder-Mead", options=options)
    # Nelder-Mead never worsens the start vertex, but be safe
    theta, best_f = profile(result.x if result.fun <= f0 else u0)
    if not np.isfinite(best_f):
        raise AdmissibilityError("no admissible parameters")
    vertices = result.final_simplex[0]
    diameter = max(
        float(np.linalg.norm(va - vb)) for va in vertices for vb in vertices
    )
    # -best_f is log_likelihood(theta) bitwise: the same core and the same sum
    return ThetaEstimate(
        *theta,
        log_likelihood=-best_f,
        converged=bool(diameter < 1e-6 and result.status == 0),
        iterations=int(result.nit),
    )


@dataclass(frozen=True)
class SensitivitySpec:
    """Setup for the initial-concentration sensitivity of E[F(C_tau^x)].

    F and its derivative are supplied by the caller (their polynomial
    growth is trusted, not verified; finiteness is checked on the
    simulated range). tau is either a fixed time capped at the zero hit,
    or the zero hit itself capped at the horizon.
    """

    F: Callable[[np.ndarray], np.ndarray]
    Fdot: Callable[[np.ndarray], np.ndarray]
    tau_kind: str
    M: int
    n: int = 256
    horizon: float = 1.0
    tau_time: Optional[float] = None
    seed: int = 0

    def __post_init__(self):
        if self.tau_kind not in ("fixed", "hit_capped"):
            raise ValueError("tau_kind must be 'fixed' or 'hit_capped'")
        if self.tau_kind == "fixed":
            if self.tau_time is None or not 0.0 <= self.tau_time <= self.horizon:
                raise ValueError("fixed tau needs tau_time in [0, horizon]")
        if self.M < 1:
            raise ValueError("M must be >= 1")
        if self.n < 2:
            raise ValueError("n must be >= 2")


@dataclass(frozen=True)
class SensitivityReport:
    estimate: float
    std_error: float
    M: int
    tau_kind: str
    capped_fraction: float


def _tau_and_level(mp: ModelParams, spec: SensitivitySpec, wt: np.ndarray,
                   times: np.ndarray):
    """Per-path stopping time, clamped transformed level and concentration.

    The level x^(1-beta) + wtilde (x = mp.x0) is followed until the
    requested time or its first nonpositive grid value, whichever comes
    first; absorbed paths carry level 0 (they contribute F(0) and a
    vanishing weight). A lift that is not finite raises OverflowError.
    """
    y = mp.y0 + wt
    first_dead = first_hit(y)  # == n+1 when never absorbed
    if spec.tau_kind == "fixed":
        k_star = grid_index(times, spec.tau_time)
        tau_idx = np.minimum(k_star, first_dead)
        capped = first_dead <= k_star
    else:
        tau_idx = np.minimum(first_dead, times.size - 1)
        capped = first_dead < times.size
    rows = np.arange(y.shape[0])
    y_tau = np.where(capped, 0.0, y[rows, np.minimum(tau_idx, times.size - 1)])
    tau = times[tau_idx]
    with np.errstate(over="ignore", invalid="ignore"):
        c_tau = lift(y_tau, tau, mp)
    return tau, y_tau, check_lift(c_tau, tau, mp), capped


def _ensemble_wtilde(pk: PkParams, x: float, spec: SensitivitySpec,
                    kernel: CovarianceKernel):
    """The model at initial concentration x, the grid and the spec's wtilde rows."""
    if x <= 0:
        raise ValueError("initial concentration must be positive")
    mp = pk.to_model_params(x0=x)
    times = uniform_grid(spec.n, spec.horizon)
    drivers = sample_path_matrix(kernel, times, spec.M, spec.seed)
    return mp, times, tilde_w_matrix(drivers, times, mp)


def _finite(values, name: str) -> np.ndarray:
    values = np.asarray(values, dtype=float)
    if not np.all(np.isfinite(values)):
        raise ValueError(f"{name} is not finite on the simulated range")
    return values


def _report(samples: np.ndarray, spec: SensitivitySpec, capped) -> SensitivityReport:
    se = float(np.std(samples, ddof=1) / math.sqrt(spec.M)) if spec.M > 1 else 0.0
    return SensitivityReport(estimate=float(np.mean(samples)), std_error=se, M=spec.M,
                             tau_kind=spec.tau_kind, capped_fraction=float(np.mean(capped)))


def concentration_functional_samples(
    pk: PkParams, x: float, spec: SensitivitySpec, kernel: CovarianceKernel
) -> np.ndarray:
    """Per-path values F(C_tau^x) for the spec's ensemble (for oracles)."""
    mp, times, wt = _ensemble_wtilde(pk, x, spec, kernel)
    return _finite(spec.F(_tau_and_level(mp, spec, wt, times)[2]), "F")


def sensitivity_plsin(
    pk: PkParams, x: float, spec: SensitivitySpec, kernel: CovarianceKernel
) -> SensitivityReport:
    """Pathwise-derivative estimator of d/dx E[F(C_tau^x)].

    Monte Carlo average of
        x^(-beta) e^(-Ke tau) Fdot(C_tau^x) (x^(1-beta) + wtilde_tau)^gamma
    over the driver ensemble; paths absorbed before a fixed tau enter at
    the capped time, where the weight vanishes.
    """
    mp, times, wt = _ensemble_wtilde(pk, x, spec, kernel)
    tau, y_tau, c_tau, capped = _tau_and_level(mp, spec, wt, times)
    fdot = _finite(spec.Fdot(c_tau), "Fdot")
    return _report(x**-pk.beta * np.exp(-pk.Ke * tau) * fdot * y_tau**mp.gamma, spec, capped)


def sensitivity_fd(
    pk: PkParams,
    x: float,
    spec: SensitivitySpec,
    kernel: CovarianceKernel,
    h: float,
) -> SensitivityReport:
    """Central finite-difference oracle with common random numbers.

    (F(C_tau^{x+h}) - F(C_tau^{x-h})) / (2h) averaged path by path over
    one shared driver ensemble, so the difference variance stays small.
    """
    if not 0.0 < h < x:
        raise ValueError("bump must satisfy 0 < h < x")
    _, times, wt = _ensemble_wtilde(pk, x, spec, kernel)
    values = {}
    capped_any = np.zeros(spec.M, dtype=bool)
    for bump in (x + h, x - h):
        _, _, c_tau, capped = _tau_and_level(pk.to_model_params(x0=bump), spec, wt, times)
        values[bump] = _finite(spec.F(c_tau), "F")
        capped_any |= capped
    return _report((values[x + h] - values[x - h]) / (2.0 * h), spec, capped_any)
