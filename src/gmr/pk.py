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
    explicit_solution_a0,
    first_hit,
    lift,
    tilde_w_covariance_matrix,
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
    "gamma_matrix",
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
        then to the second column. Rows at t = 0 are never observations
        and are dropped; ``drop_nonpositive`` additionally drops rows with
        concentration <= 0 (post-hit zeros).
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


def gamma_matrix_from_theta(
    theta,
    times: np.ndarray,
    kernel: CovarianceKernel,
    quad_grid: np.ndarray,
    A0_over_v: float = 1.0,
    cov: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Covariance of the transformed observations for theta = (Ke, sigma, beta).

    The transformed process minus its mean is e^(-Ke(1-beta)t) wtilde_t,
    so entry (i, j) is e^(-Ke(1-beta)(t_i+t_j)) Cov(wtilde_ti, wtilde_tj).
    """
    ke, sigma, beta = (float(v) for v in theta)
    times = np.asarray(times, dtype=float)
    if np.any(times <= 0) or np.any(np.diff(times) <= 0):
        raise ValueError("observation times must be positive and increasing")
    p = ModelParams(x0=A0_over_v, a=0.0, b=ke, sigma=sigma, beta=beta)
    full = tilde_w_covariance_matrix(p, kernel, quad_grid, cov=cov)
    idx = np.array([grid_index(quad_grid, t) for t in times])
    damp = np.exp(-ke * (1.0 - beta) * times)
    out = np.outer(damp, damp) * full[np.ix_(idx, idx)]
    return 0.5 * (out + out.T)


def gamma_matrix(
    pk: PkParams,
    times: np.ndarray,
    kernel: CovarianceKernel,
    quad_grid: np.ndarray,
) -> np.ndarray:
    """Observation covariance matrix at the model's own parameters."""
    return gamma_matrix_from_theta(
        (pk.Ke, pk.sigma, pk.beta),
        times,
        kernel,
        quad_grid,
        A0_over_v=pk.initial_concentration,
    )


def log_likelihood(
    theta,
    obs: ConcentrationSeries,
    kernel: CovarianceKernel,
    A0: float,
    v: float,
    quad_grid: Optional[np.ndarray] = None,
    cov: Optional[np.ndarray] = None,
) -> float:
    """Exact log-likelihood of positive observations under theta = (Ke, sigma, beta).

    Computed stably through a Cholesky factorization of the observation
    covariance:

        n log(2(1-beta)) - (n/2) log(2 pi) - (1/2) logdet Gamma
        - (1/2) U' Gamma^{-1} U - beta sum log x_i

    with U_i = x_i^(1-beta) - (A0/v)^(1-beta) e^(-Ke(1-beta)t_i). Returns
    -inf when any observation is nonpositive (the indicator factor).
    """
    ke, sigma, beta = (float(u) for u in theta)
    if ke <= 0 or sigma <= 0 or not 0.0 < beta < 1.0:
        raise ValueError("theta out of domain: need Ke, sigma > 0 and beta in (0, 1)")
    x = obs.concentrations
    if np.any(x <= 0):
        return -math.inf
    t = obs.times
    if quad_grid is None:
        quad_grid = build_quad_grid(t)
    gam = gamma_matrix_from_theta(
        (ke, sigma, beta), t, kernel, quad_grid, A0_over_v=A0 / v, cov=cov
    )
    factor = _cholesky_with_jitter(gam)
    omb = 1.0 - beta
    u = x**omb - (A0 / v) ** omb * np.exp(-ke * omb * t)
    half = solve_triangular(factor, u, lower=True)
    n = x.size
    return float(
        n * math.log(2.0 * omb)
        - 0.5 * n * math.log(2.0 * math.pi)
        - np.sum(np.log(np.diag(factor)))
        - 0.5 * np.dot(half, half)
        - beta * np.sum(np.log(x))
    )


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


def _to_unconstrained(theta, bounds: ThetaBounds) -> np.ndarray:
    ke, sigma, beta = theta
    frac = (beta - bounds.beta_min) / (bounds.beta_max - bounds.beta_min)
    frac = min(max(frac, 1e-12), 1.0 - 1e-12)
    return np.array([math.log(ke), math.log(sigma), math.log(frac / (1.0 - frac))])


def _from_unconstrained(u: np.ndarray, bounds: ThetaBounds):
    ke = math.exp(u[0])
    sigma = math.exp(u[1])
    frac = 1.0 / (1.0 + math.exp(-u[2]))
    beta = bounds.beta_min + (bounds.beta_max - bounds.beta_min) * frac
    return ke, sigma, beta


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

    Nelder-Mead on a box-transformed parameterization (log for Ke and
    sigma, logit for beta over its bracket); derivative-free on purpose,
    the objective goes through a quadrature-built covariance. Convergence
    means the final simplex has diameter below 1e-6 within the iteration
    cap; by construction the returned value is at least as likely as the
    initial point.
    """
    init = tuple(float(u) for u in init)
    if not bounds.contains(init):
        raise ValueError("initial theta must lie inside the bounds")
    if np.any(obs.concentrations <= 0):
        # the indicator kills the likelihood at every theta
        raise AdmissibilityError("no admissible parameters")
    if quad_grid is None:
        quad_grid = build_quad_grid(obs.times)
    cov = covariance_matrix(kernel, quad_grid)  # theta-independent, reused per eval

    def objective(u):
        theta = _from_unconstrained(u, bounds)
        if theta[0] > bounds.ke_max or theta[1] > bounds.sigma_max:
            return math.inf
        try:
            ll = log_likelihood(theta, obs, kernel, A0, v, quad_grid=quad_grid, cov=cov)
        except CovarianceError:
            return math.inf  # degenerate Gamma at an extreme theta: step back
        return math.inf if ll == -math.inf else -ll

    u0 = _to_unconstrained(init, bounds)
    f0 = objective(u0)
    # explicit initial simplex: the default (5% per coordinate, absolute
    # fallback near 0) collapses along coordinates starting at 0, e.g. the
    # logit of a centered beta, and the fit would never leave them
    simplex = np.vstack([u0] + [u0 + 0.5 * np.eye(3)[i] for i in range(3)])
    result = minimize(
        objective,
        u0,
        method="Nelder-Mead",
        options={
            "maxiter": max_iter,
            "maxfev": 8 * max_iter,
            "xatol": 1e-7,
            "fatol": 1e-10,
            "initial_simplex": simplex,
        },
    )
    best_u, best_f = result.x, result.fun
    if best_f > f0:  # Nelder-Mead never worsens the start vertex, but be safe
        best_u, best_f = u0, f0
    if not np.isfinite(best_f):
        raise AdmissibilityError("no admissible parameters")
    vertices = result.final_simplex[0]
    diameter = max(
        float(np.linalg.norm(va - vb)) for va in vertices for vb in vertices
    )
    ke, sigma, beta = _from_unconstrained(best_u, bounds)
    return ThetaEstimate(
        Ke=ke,
        sigma=sigma,
        beta=beta,
        log_likelihood=float(-best_f),
        converged=bool(diameter < 1e-6 and result.nit <= max_iter),
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
    vanishing weight).
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
    return tau, y_tau, lift(y_tau, tau, mp), capped


def concentration_functional_samples(
    pk: PkParams, x: float, spec: SensitivitySpec, kernel: CovarianceKernel
) -> np.ndarray:
    """Per-path values F(C_tau^x) for the spec's ensemble (for oracles)."""
    if x <= 0:
        raise ValueError("initial concentration must be positive")
    mp = pk.to_model_params(x0=x)
    times = uniform_grid(spec.n, spec.horizon)
    drivers = sample_path_matrix(kernel, times, spec.M, spec.seed)
    _, _, c_tau, _ = _tau_and_level(mp, spec, tilde_w_matrix(drivers, times, mp), times)
    values = np.asarray(spec.F(c_tau), dtype=float)
    if not np.all(np.isfinite(values)):
        raise ValueError("F is not finite on the simulated range")
    return values


def sensitivity_plsin(
    pk: PkParams, x: float, spec: SensitivitySpec, kernel: CovarianceKernel
) -> SensitivityReport:
    """Pathwise-derivative estimator of d/dx E[F(C_tau^x)].

    Monte Carlo average of
        x^(-beta) e^(-Ke tau) Fdot(C_tau^x) (x^(1-beta) + wtilde_tau)^gamma
    over the driver ensemble; paths absorbed before a fixed tau enter at
    the capped time, where the weight vanishes.
    """
    if x <= 0:
        raise ValueError("initial concentration must be positive")
    mp = pk.to_model_params(x0=x)
    times = uniform_grid(spec.n, spec.horizon)
    drivers = sample_path_matrix(kernel, times, spec.M, spec.seed)
    wt = tilde_w_matrix(drivers, times, mp)
    tau, y_tau, c_tau, capped = _tau_and_level(mp, spec, wt, times)
    fdot = np.asarray(spec.Fdot(c_tau), dtype=float)
    if not np.all(np.isfinite(fdot)):
        raise ValueError("Fdot is not finite on the simulated range")
    weights = x**-pk.beta * np.exp(-pk.Ke * tau) * fdot * y_tau**mp.gamma
    se = float(np.std(weights, ddof=1) / math.sqrt(spec.M)) if spec.M > 1 else 0.0
    return SensitivityReport(
        estimate=float(np.mean(weights)),
        std_error=se,
        M=spec.M,
        tau_kind=spec.tau_kind,
        capped_fraction=float(np.mean(capped)),
    )


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
    if x <= 0:
        raise ValueError("initial concentration must be positive")
    if not 0.0 < h < x:
        raise ValueError("bump must satisfy 0 < h < x")
    times = uniform_grid(spec.n, spec.horizon)
    drivers = sample_path_matrix(kernel, times, spec.M, spec.seed)
    wt = tilde_w_matrix(drivers, times, pk.to_model_params(x0=x))
    values = {}
    capped_any = np.zeros(spec.M, dtype=bool)
    for bump in (x + h, x - h):
        _, _, c_tau, capped = _tau_and_level(pk.to_model_params(x0=bump), spec, wt, times)
        vals = np.asarray(spec.F(c_tau), dtype=float)
        if not np.all(np.isfinite(vals)):
            raise ValueError("F is not finite on the simulated range")
        values[bump] = vals
        capped_any |= capped
    diff = (values[x + h] - values[x - h]) / (2.0 * h)
    se = float(np.std(diff, ddof=1) / math.sqrt(spec.M)) if spec.M > 1 else 0.0
    return SensitivityReport(
        estimate=float(np.mean(diff)),
        std_error=se,
        M=spec.M,
        tau_kind=spec.tau_kind,
        capped_fraction=float(np.mean(capped_any)),
    )
