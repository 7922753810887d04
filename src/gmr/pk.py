"""Mono-compartment pharmacokinetics with rough mean-reverting noise.

After a bolus injection (absorption rate 0) the drug concentration is
modeled by dC = -Ke C dt + sigma C^beta dW with C_0 = A0/v, driven by a
Gaussian process with smooth enough paths (typically fBm with a high
Hurst index). The concentration is the explicit a = 0 solution truncated
at its first zero hit. The module provides the deterministic oracle, the
exact Gaussian likelihood of discrete concentration observations, its
maximization over theta = (Ke, sigma, beta), and two estimators of the
sensitivity of E[F(C_tau^x)] to the initial concentration x.

scipy.linalg is imported by the likelihood and the fit when they run,
so importing gmr does not load scipy.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .drivers import (
    CovarianceError,
    CovarianceKernel,
    SamplePath,
    checked_grid,
    covariance_matrix,
    grid_index,
    sample_paths,
    uniform_grid,
    _cholesky_with_jitter,
)
from .solver import solve_gmr
from .transform import ModelParams, first_hit, lift_into, wtilde_blocks

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
    "build_quad_grid",
    "log_likelihood",
    "fit_mle",
    "sensitivity_plsin",
    "sensitivity_fd",
]


class AdmissibilityError(RuntimeError):
    """No admissible parameters: every likelihood evaluation was -inf."""


@dataclass(frozen=True)
class PkParams:
    """Mono-compartment model constants of a bolus dose: the initial
    concentration is A0/v."""

    A0: float
    v: float
    Ke: float
    sigma: float
    beta: float

    def __post_init__(self):
        for name in ("A0", "v", "Ke", "sigma"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")
        _check_dose(self.A0, self.v)
        if self.Ke <= 0:
            raise ValueError("Ke must be positive")
        if self.sigma <= 0:
            raise ValueError("sigma must be positive")
        if not 0.0 < self.beta < 1.0:
            raise ValueError("beta must lie in (0, 1)")

    @property
    def initial_concentration(self) -> float:
        return self.A0 / self.v

    def to_model_params(self) -> ModelParams:
        """The underlying SDE coefficients: x0 = A0/v, a = 0, b = Ke."""
        return ModelParams(
            x0=self.initial_concentration, a=0.0, b=self.Ke, sigma=self.sigma, beta=self.beta)


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
        if not (np.all(np.isfinite(t)) and np.all(np.isfinite(x))):
            raise ValueError("times and concentrations must be finite")
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


def deterministic_concentration(pk: PkParams, t):
    """Noise-free bolus solution (A0/v) e^(-Ke t); scalar or array t."""
    out = pk.initial_concentration * np.exp(-pk.Ke * np.asarray(t, dtype=float))
    return float(out) if out.ndim == 0 else out


def simulate_concentration(
    pk: PkParams, kernel: CovarianceKernel, n: int, seed: int, horizon: float = 1.0
) -> SamplePath:
    """One stochastic concentration path on n steps, absorbed at its first zero hit."""
    driver = sample_paths(kernel, uniform_grid(n, horizon), 1, seed)[0]
    return solve_gmr(pk.to_model_params(), driver, n)


def build_quad_grid(times: np.ndarray, refine: Optional[int] = None) -> np.ndarray:
    """Quadrature grid from 0 through the observation times.

    Each gap is split into ``refine`` equal pieces (default: enough for
    roughly 256 intervals overall), so every observation time is a grid
    point and the covariance quadrature resolves the weight's growth.
    """
    times = np.asarray(times, dtype=float)
    if times.size == 0:
        raise ValueError("times must be nonempty")
    if refine is None:
        refine = max(1, -(-256 // times.size))
    if refine < 1:
        raise ValueError("refine must be >= 1")
    knots = np.concatenate(([0.0], times))
    pieces = [np.array([0.0])]
    for lo, hi in zip(knots[:-1], knots[1:]):
        pieces.append(np.linspace(lo, hi, refine + 1)[1:])
    return np.concatenate(pieces)


# G(kappa) depends on the design (observation times, quadrature grid and
# kernel) and on kappa, never on the data, so fits on one design share it:
# the last design's block stays in one slot with a cache of G(kappa) and its
# factor. The block and its cache together take at most this many bytes.
# The slot is one reference, read and written whole, and lru_cache is
# thread-safe, so threads fitting at one design need no lock.
_DESIGN_BUDGET = 4 << 20
_design: Optional[_ObservationBlock] = None


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
    tilde_w_covariance_matrix up to rounding. C, E and TW do not depend on
    theta and are built once; G is the two products (R C) R^T.

    ``pair(kappa)`` is (G(kappa), its lower Cholesky factor), read-only, from
    a least-recently-used cache keyed by the exact kappa. It holds as many
    pairs as fit beside the block in _DESIGN_BUDGET bytes, none for a block
    that alone exceeds it. The cache wraps a function of the block's arrays,
    not a bound method, so a block holds no reference cycle and is freed as
    soon as the slot lets it go.
    """

    def __init__(self, times: np.ndarray, kernel: CovarianceKernel, quad_grid: np.ndarray,
                 cov: Optional[np.ndarray] = None):
        # private copies: a kept block compares them with later designs
        times = np.array(times, dtype=float)
        if np.any(times <= 0) or np.any(np.diff(times) <= 0):
            raise ValueError("observation times must be positive and increasing")
        grid = np.array(checked_grid(quad_grid))
        self.times = times
        self.grid = grid
        self.kind, self.hurst = kernel.kind, kernel.hurst
        # cov, when given, is covariance_matrix(kernel, quad_grid), built by the caller
        self.cov = covariance_matrix(kernel, grid) if cov is None else cov
        idx = grid_index(grid, times)
        rows = np.arange(times.size)
        half = 0.5 * np.diff(grid)
        left, right = np.append(0.0, half), np.append(half, 0.0)
        # trapezoid through s_k: both half intervals inside, the left one at s_k
        col, k = np.arange(grid.size), idx[:, None]
        tw = np.where(col < k, left + right, np.where(col == k, left, 0.0))
        self.nbytes = sum(a.nbytes for a in (times, grid, self.cov, idx, rows, tw))
        pairs = max(0, (_DESIGN_BUDGET - self.nbytes) // (16 * times.size**2))
        self.pair = functools.lru_cache(maxsize=pairs)(
            functools.partial(_g_and_factor, times, grid, self.cov, idx, rows, tw))


def _g_matrix(times, grid, cov, idx, rows, tw, kappa: float) -> np.ndarray:
    """G(kappa) of the block with these arrays; CovarianceError if it overflows."""
    with np.errstate(over="ignore", invalid="ignore"):
        ek = np.exp(kappa * grid)
        r = tw * (-kappa * ek)
        r[rows, idx] += ek[idx]
        r *= np.exp(-kappa * times)[:, None]
        g = (r @ cov) @ r.T
    if not np.all(np.isfinite(g)):
        raise CovarianceError(
            f"observation covariance overflows at kappa = {kappa!r} "
            f"(kappa s up to {kappa * grid[-1]:.3g})")
    return 0.5 * (g + g.T)


def _g_and_factor(times, grid, cov, idx, rows, tw, kappa: float):
    """(G(kappa), its lower factor with jitter if needed), both read-only.

    G is built in its own call, so the n x (N+1) temporaries of the build
    are freed before the factorization.
    """
    g = _g_matrix(times, grid, cov, idx, rows, tw, kappa)
    g.flags.writeable = False
    factor = _cholesky_with_jitter(g)
    factor.flags.writeable = False
    return g, factor


def _design_block(times, kernel: CovarianceKernel, quad_grid=None) -> _ObservationBlock:
    """The _ObservationBlock of this design: the kept one if it is equal by value.

    The design is the times, the grid (build_quad_grid(times) by default)
    and the kernel's kind and Hurst index, and for a custom kernel its
    matrix on the grid. Otherwise a new block, kept in the slot in place of
    the last one if it fits in _DESIGN_BUDGET.
    """
    global _design
    grid = checked_grid(build_quad_grid(times) if quad_grid is None else quad_grid)
    # a custom kernel's matrix on the grid is compared, and built only once
    cov = covariance_matrix(kernel, grid) if kernel.kind == "custom" else None
    block = _design
    if (block is not None and np.array_equal(block.times, times)
            and np.array_equal(block.grid, grid)
            and (block.kind, block.hurst) == (kernel.kind, kernel.hurst)
            and (cov is None or np.array_equal(block.cov, cov))):
        return block
    block = _ObservationBlock(times, kernel, grid, cov)
    _design = block if block.nbytes <= _DESIGN_BUDGET else None
    return block


def _check_dose(A0, v) -> None:
    if not (0.0 < A0 < math.inf and 0.0 < v < math.inf):
        raise ValueError("A0 and v must be positive and finite")
    if not 0.0 < A0 / v < math.inf:  # the initial concentration
        raise ValueError("A0 / v must be positive and finite")


def _likelihood_core(ke, beta, obs, block, A0, v):
    """log det L_1 and q = |L_1^{-1} U|^2, with L_1 the Cholesky factor of Gamma_1.

    Gamma_1 = (1-beta)^2 G(Ke(1-beta)) is the observation covariance at
    sigma = 1, from ``block``, the _ObservationBlock of obs.times; building
    and factoring G, unless the block's cache holds it, is most of the cost
    of a call. Every entry of the covariance carries two weights
    sigma(1-beta)e^(Ke(1-beta)t), so Gamma(Ke, sigma, beta) = sigma^2 Gamma_1
    and U does not depend on sigma. The jitter ladder is relative to the
    largest diagonal entry, so Gamma_1 needs the jitter that Gamma would,
    up to rounding. A zero covariance (from a zero kernel) factors as 0 and
    raises CovarianceError.
    """
    from scipy.linalg import solve_triangular

    t = obs.times
    omb = 1.0 - beta
    factor = _cholesky_with_jitter(omb**2 * block.pair(ke * omb)[0])
    if not np.diag(factor).min() > 0.0:
        raise CovarianceError("observation covariance is singular (a Cholesky pivot is 0)")
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
    if not (0.0 < ke < math.inf and 0.0 < sigma < math.inf and 0.0 < beta < 1.0):
        raise ValueError("theta out of domain: need Ke, sigma > 0 and beta in (0, 1)")
    _check_dose(A0, v)
    if np.any(obs.concentrations <= 0):
        return -math.inf
    block = _design_block(obs.times, kernel, quad_grid)
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
        for name in ("ke_max", "sigma_max"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")
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


# fit_mle's outer scan divides the top of the kappa box by _SCAN_RATIO this
# many times, and extends it below by decades at most _SCAN_EXTENSIONS times
_SCAN_POINTS = 6
_SCAN_RATIO = 4.0
_SCAN_EXTENSIONS = 8
_XATOL_LOG_KAPPA = 1e-6
_XATOL_BETA = 1e-7
_GOLDEN = 0.5 * (3.0 - math.sqrt(5.0))
_SQRT_EPS = math.sqrt(2.2e-16)


def _brent_minimize(f, lo: float, hi: float, xatol: float):
    """Local minimum of f on (lo, hi) by Brent's method, as (x, f(x)).

    Golden-section steps with parabolic interpolation (Brent 1973,
    Algorithms for Minimization without Derivatives, ch. 5), the rule
    and the tolerance sqrt(eps)|x| + xatol/3 of scipy's bounded
    minimize_scalar, in plain floats: the search itself costs about a
    microsecond per step, against ten for scipy's. A parabola through an
    infinite value is NaN and never accepted, so +inf scores (an
    infeasible point) only ever lead to golden-section steps.
    """
    a, b = lo, hi
    x = w = v = a + _GOLDEN * (b - a)
    fx = fw = fv = f(x)
    d = e = 0.0
    while True:
        m = 0.5 * (a + b)
        tol1 = _SQRT_EPS * abs(x) + xatol / 3.0
        tol2 = 2.0 * tol1
        if abs(x - m) <= tol2 - 0.5 * (b - a):
            return x, fx
        golden = True
        if abs(e) > tol1:
            r = (x - w) * (fx - fv)
            q = (x - v) * (fx - fw)
            p = (x - v) * q - (x - w) * r
            q = 2.0 * (q - r)
            if q > 0.0:
                p = -p
            q = abs(q)
            r, e = e, d
            if abs(p) < abs(0.5 * q * r) and q * (a - x) < p < q * (b - x):
                d = p / q
                u = x + d
                if u - a < tol2 or b - u < tol2:
                    d = tol1 if m >= x else -tol1
                golden = False
        if golden:
            e = (a - x) if x >= m else (b - x)
            d = _GOLDEN * e
        u = x + math.copysign(max(abs(d), tol1), d)
        fu = f(u)
        if fu <= fx:
            if u >= x:
                a = x
            else:
                b = x
            v, fv, w, fw, x, fx = w, fw, x, fx, u, fu
        else:
            if u < x:
                a = u
            else:
                b = u
            if fu <= fw or w == x:
                v, fv, w, fw = w, fw, u, fu
            elif fu <= fv or v == x or v == w:
                v, fv = u, fu


class _StepCap(Exception):
    """fit_mle's outer search reached max_iter steps."""


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

    The search runs over kappa = Ke(1-beta) and beta. Gamma_1 =
    (1-beta)^2 G(kappa) (see _ObservationBlock), so the n log(1-beta) of
    the Jacobian cancels against log det L_1, and

        -log-likelihood = log det L_G + n log sigma + q / (2 sigma^2)
                          + beta sum log x_i + const,
        q = |L_G^{-1} U|^2 / (1-beta)^2,  U = x^(1-beta) - (A0/v)^(1-beta) e^(-kappa t).

    One Cholesky factor L_G of G(kappa) thus serves every beta. sigma is
    profiled out in closed form, sqrt(q/n) clamped to sigma_max. The
    inner search is Brent's over beta in [beta_min, min(beta_max,
    1 - kappa/ke_max)], which keeps Ke <= ke_max, at one triangular solve
    per step. The outer search over log kappa in (0, ke_max(1-beta_min)]
    first scans kappa_max 4^-k, k = 1..6, and the start's kappa; while the
    lowest point is best, it adds one a decade lower, up to 8 times (Ke
    has no lower bound); then Brent's search runs between the best
    point's neighbours. A kappa whose G cannot be factored, or whose beta
    bracket is empty, scores +inf. Derivative-free on purpose: the
    objective goes through a quadrature-built covariance.

    ``init`` is a full theta whose sigma is only checked against the
    bounds; when it is at least as likely as the optimum found, it is
    returned, so the result never loses likelihood against the start.
    ``max_iter`` caps the outer steps, each one evaluation at a kappa whose
    beta bracket is not empty; ``iterations`` counts them, whether G(kappa)
    and its factor were built or came from the design's cache (see
    _design_block), so both read the same on a warm and a cold design.
    Convergence means the outer search stopped on its tolerance, not at
    the cap, and not at the lowest point of the extended scan.
    """
    from scipy.linalg.blas import dtrsv

    init = tuple(float(u) for u in init)
    if not bounds.contains(init):
        raise ValueError("initial theta must lie inside the bounds")
    _check_dose(A0, v)
    if max_iter < 0:
        raise ValueError("max_iter must be >= 0")
    x = obs.concentrations
    if np.any(x <= 0):
        # the indicator kills the likelihood at every theta
        raise AdmissibilityError("no admissible parameters")
    block = _design_block(obs.times, kernel, quad_grid)  # theta-independent
    n, c0, sum_log_x = x.size, A0 / v, float(np.sum(np.log(x)))
    kappa_max = bounds.ke_max * (1.0 - bounds.beta_min)
    steps = 0
    best = (math.inf, None, None)  # -log-likelihood up to a constant, kappa, beta

    def outer(log_kappa: float) -> float:
        """-log-likelihood at kappa, up to a constant, maximized over beta and sigma."""
        nonlocal steps, best
        kappa = math.exp(log_kappa)
        beta_hi = min(bounds.beta_max, 1.0 - kappa / bounds.ke_max)
        if not beta_hi > bounds.beta_min:
            return math.inf
        if steps == max_iter:
            raise _StepCap
        steps += 1
        try:
            _, factor = block.pair(kappa)
        except CovarianceError:
            return math.inf  # degenerate G at an extreme kappa: step back
        diag = np.diag(factor)
        if not diag.min() > 0.0:  # G = 0, from a zero kernel, factors as 0
            return math.inf
        upper = factor.T  # Fortran-ordered, so the BLAS solve copies nothing
        damp = np.exp(-kappa * obs.times)

        def inner(beta: float) -> float:
            omb = 1.0 - beta
            half = dtrsv(upper, x**omb - c0**omb * damp, lower=0, trans=1)
            q = float(half @ half) / omb**2
            sigma = min(math.sqrt(q / n), bounds.sigma_max)
            return n * math.log(sigma) + 0.5 * q / sigma**2 + beta * sum_log_x

        beta, f = _brent_minimize(inner, bounds.beta_min, beta_hi, _XATOL_BETA)
        # Brent's search never evaluates the ends of its bracket, and
        # beta_max is often the optimum: try the nearer end itself
        end = bounds.beta_min if beta - bounds.beta_min < beta_hi - beta else beta_hi
        f_end = inner(end)
        if f_end <= f:
            beta, f = end, f_end
        f += float(np.sum(np.log(diag)))
        if f < best[0]:
            best = (f, kappa, beta)
        return f

    kappa0 = init[0] * (1.0 - init[2])
    top = math.log(kappa_max)
    points = sorted({top - k * math.log(_SCAN_RATIO) for k in range(1, _SCAN_POINTS + 1)}
                    | {math.log(kappa0)})
    converged = False
    try:
        values = [outer(p) for p in points]
        for _ in range(_SCAN_EXTENSIONS):
            if int(np.argmin(values)) != 0:
                break
            points.insert(0, points[0] - math.log(10.0))
            values.insert(0, outer(points[0]))
        i = int(np.argmin(values))
        if math.isfinite(values[i]):
            hi = points[i + 1] if i + 1 < len(points) else top
            _brent_minimize(outer, points[max(i - 1, 0)], hi, _XATOL_LOG_KAPPA)
            converged = i > 0  # not pinned at the lowest point of the extended scan
    except _StepCap:
        pass

    def at(ke: float, beta: float):
        """theta with sigma at its profile maximum, and its log-likelihood."""
        try:
            logdet, q = _likelihood_core(ke, beta, obs, block, A0, v)
        except CovarianceError:
            return None, -math.inf
        sigma = min(math.sqrt(q / n), bounds.sigma_max)
        return (ke, sigma, beta), _log_likelihood_from(sigma, beta, x, logdet, q)

    theta, ll = at(init[0], init[2])
    if best[1] is not None:
        _, kappa, beta = best
        found, ll_found = at(min(kappa / (1.0 - beta), bounds.ke_max), beta)
        if ll_found > ll:
            theta, ll = found, ll_found
    if not math.isfinite(ll):
        raise AdmissibilityError("no admissible parameters")
    # ll is log_likelihood(theta) bitwise: the same core and the same sum
    return ThetaEstimate(*theta, log_likelihood=ll, converged=converged, iterations=steps)


@dataclass(frozen=True)
class SensitivitySpec:
    """Setup for the initial-concentration sensitivity of E[F(C_tau^x)].

    F and its derivative are supplied by the caller (their polynomial
    growth is trusted, not verified; finiteness is checked on the
    simulated range). tau is either a fixed time capped at the zero hit,
    or the zero hit itself capped at the horizon, which is the fixed
    tau_time = horizon: a hit-capped spec takes no tau_time and sets it so.
    A fixed time must be a point of the uniform n-step grid on
    [0, horizon]; it is checked here, before any path is drawn.
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
        if not 0 < self.horizon < math.inf:
            raise ValueError("horizon must be positive and finite")
        if self.tau_kind == "hit_capped":
            if self.tau_time is not None:
                raise ValueError("hit_capped tau takes no tau_time")
            object.__setattr__(self, "tau_time", self.horizon)
        elif self.tau_time is None or not 0.0 <= self.tau_time <= self.horizon:
            raise ValueError("fixed tau needs tau_time in [0, horizon]")
        if self.M < 1:
            raise ValueError("M must be >= 1")
        if self.n < 2:
            raise ValueError("n must be >= 2")
        grid_index(uniform_grid(self.n, self.horizon), self.tau_time)


@dataclass(frozen=True)
class SensitivityReport:
    estimate: float
    std_error: float
    M: int
    tau_kind: str
    capped_fraction: float


def _stopped_levels(pk: PkParams, xs, spec: SensitivitySpec, kernel: CovarianceKernel):
    """Per-path stopping time and transformed level at each initial concentration in xs.

    The level x^(1-beta) + wtilde is followed until spec.tau_time or its
    first nonpositive grid value, whichever comes first; absorbed paths
    carry level 0 (they contribute F(0) and a vanishing weight). wtilde
    and the lift do not depend on x, so one pass over wtilde_blocks, cut
    at tau_time's column, serves every x and keeps only per-path scalars.
    Returns (pk's model, [(tau, y_tau, capped) per x]) with (M,) arrays;
    the model's lift reads no x0, so it serves every x.
    """
    if not all(0.0 < x < math.inf for x in xs):
        raise ValueError("initial concentration must be positive and finite")
    model = pk.to_model_params()
    times = uniform_grid(spec.n, spec.horizon)
    last = grid_index(times, spec.tau_time)
    y0s = [x ** (1.0 - pk.beta) for x in xs]  # bitwise ModelParams(x0=x, ...).y0
    out = [(np.empty(spec.M), np.empty(spec.M), np.empty(spec.M, dtype=bool)) for _ in xs]
    for start, wt in wtilde_blocks(kernel, times, model, spec.M, spec.seed, stop=last + 1):
        block = slice(start, start + wt.shape[0])
        for y0, (tau, y_tau, capped) in zip(y0s, out):
            y = y0 + wt
            first_dead = first_hit(y)  # == last + 1 when not absorbed by then
            tau_idx = np.minimum(first_dead, last)
            capped[block] = first_dead <= last
            tau[block] = times[tau_idx]
            y_tau[block] = np.where(capped[block], 0.0, y[np.arange(y.shape[0]), tau_idx])
    return model, out


def _finite(values, name: str) -> np.ndarray:
    values = np.asarray(values, dtype=float)
    if not np.all(np.isfinite(values)):
        raise ValueError(f"{name} is not finite on the simulated range")
    return values


def _report(samples: np.ndarray, spec: SensitivitySpec, capped) -> SensitivityReport:
    se = float(np.std(samples, ddof=1) / math.sqrt(spec.M)) if spec.M > 1 else 0.0
    return SensitivityReport(estimate=float(np.mean(samples)), std_error=se, M=spec.M,
                             tau_kind=spec.tau_kind, capped_fraction=float(np.mean(capped)))


def sensitivity_plsin(
    pk: PkParams, x: float, spec: SensitivitySpec, kernel: CovarianceKernel
) -> SensitivityReport:
    """Pathwise-derivative estimator of d/dx E[F(C_tau^x)].

    Monte Carlo average of
        x^(-beta) e^(-Ke tau) Fdot(C_tau^x) (x^(1-beta) + wtilde_tau)^gamma
    over the driver ensemble; paths absorbed before a fixed tau enter at
    the capped time, where the weight vanishes.
    """
    mp, [(tau, y_tau, capped)] = _stopped_levels(pk, (x,), spec, kernel)
    fdot = _finite(spec.Fdot(lift_into(np.empty_like(y_tau), y_tau, tau, mp)), "Fdot")
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
    values = []
    capped_any = np.zeros(spec.M, dtype=bool)
    mp, levels = _stopped_levels(pk, (x + h, x - h), spec, kernel)
    for tau, y_tau, capped in levels:
        values.append(_finite(spec.F(lift_into(np.empty_like(y_tau), y_tau, tau, mp)), "F"))
        capped_any |= capped
    return _report((values[0] - values[1]) / (2.0 * h), spec, capped_any)
