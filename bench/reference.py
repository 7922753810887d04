"""Reference computations made apart from gmr, for the benchmark's checks.

Everything here uses numpy and scipy only. The weighted driver comes from
the integration-by-parts identity wtilde_t = theta_t w_t - int_0^t
theta'_s w_s ds, with the remaining integral done by the trapezoid rule.
For driver paths that is a cumulative sum along each path. For the
covariance it is the matrix T = diag(theta) - Q diag(theta'), where Q
holds the cumulative trapezoid weights, and Cov(wtilde) = T C T' for a
driver covariance C, which is a different route to the quantity gmr
computes with cumulative quadratures.

scipy.stats is imported only inside the check that needs it, so importing
this module adds nothing to the benchmark's set-up time beyond numpy.
"""

from __future__ import annotations

import math

import numpy as np

# the implicit scheme stops at |f| <= 1e-12 max(1, |A|); the benchmark's own
# quadrature may differ from gmr's in the last bits of A, so allow as much
# again for that
SOLVER_RTOL = 2e-12


def fbm_cov(hurst: float, s, t):
    """Closed-form fBm covariance 0.5 (s^2H + t^2H - |t - s|^2H)."""
    s, t = np.asarray(s, dtype=float), np.asarray(t, dtype=float)
    h2 = 2.0 * hurst
    return 0.5 * (s**h2 + t**h2 - np.abs(t - s) ** h2)


def brownian_cov(s, t):
    """Closed-form Brownian covariance min(s, t)."""
    return np.minimum(np.asarray(s, dtype=float), np.asarray(t, dtype=float))


def cumulative_trapezoid_matrix(times: np.ndarray) -> np.ndarray:
    """Q with (Q f)_i = trapezoid integral of f over [t_0, t_i]."""
    times = np.asarray(times, dtype=float)
    n = times.size - 1
    half = 0.5 * np.diff(times)
    steps = np.zeros((n, n + 1))
    steps[np.arange(n), np.arange(n)] = half
    steps[np.arange(n), np.arange(1, n + 1)] = half
    return np.vstack([np.zeros(n + 1), np.cumsum(steps, axis=0)])


def wtilde_operator(times: np.ndarray, sigma: float, beta: float, b: float) -> np.ndarray:
    """Matrix T with wtilde = T w on the grid (trapezoid quadrature)."""
    times = np.asarray(times, dtype=float)
    rate = b * (1.0 - beta)
    theta = sigma * (1.0 - beta) * np.exp(rate * times)
    q = cumulative_trapezoid_matrix(times)
    return np.diag(theta) - q * (rate * theta)[None, :]


def wtilde_paths(times: np.ndarray, sigma: float, beta: float, b: float,
                 paths: np.ndarray) -> np.ndarray:
    """wtilde of each row of paths by a cumulative trapezoid sum."""
    times = np.asarray(times, dtype=float)
    rate = b * (1.0 - beta)
    theta = sigma * (1.0 - beta) * np.exp(rate * times)
    slope = paths * (rate * theta)
    steps = 0.5 * np.diff(times) * (slope[:, :-1] + slope[:, 1:])
    integral = np.concatenate([np.zeros((paths.shape[0], 1)), np.cumsum(steps, axis=1)], axis=1)
    return theta * paths - integral


def step_residuals(params, times: np.ndarray, drivers: np.ndarray, y: np.ndarray):
    """Residual of every implicit step and the tolerance it must meet.

    The scheme solves y_{k+1} - B_k y_{k+1}^(-gamma) = y_k + (wtilde_{k+1}
    - wtilde_k) with B_k = a (1-beta) (T/n) e^(b t_{k+1}); wtilde comes from
    the drivers through the benchmark's own quadrature.
    """
    p = params
    wt = wtilde_paths(times, p.sigma, p.beta, p.b, drivers)
    n = times.size - 1
    gamma = p.beta / (1.0 - p.beta)
    rhs = y[:, :-1] + np.diff(wt, axis=1)
    coef = p.a * (1.0 - p.beta) * (times[-1] / n) * np.exp(p.b * times[1:])
    resid = y[:, 1:] - coef[None, :] * y[:, 1:] ** -gamma - rhs
    return resid, SOLVER_RTOL * np.maximum(1.0, np.abs(rhs))


def covariance_z(samples_s: np.ndarray, samples_t: np.ndarray, c_ss: float,
                 c_tt: float, c_st: float) -> float:
    """z-score of the sample covariance of two Gaussian coordinates.

    For a centered Gaussian pair the sample covariance has variance
    (c_ss c_tt + c_st^2) / (m - 1) to leading order.
    """
    m = samples_s.size
    est = float(np.cov(samples_s, samples_t, ddof=1)[0, 1])
    return (est - c_st) / math.sqrt((c_ss * c_tt + c_st**2) / (m - 1))


def power_means_nondecreasing(estimates: dict) -> bool:
    """E[S^p]^(1/p) grows with p (Lyapunov); allows rounding in the last bits."""
    values = [estimates[p] for p in sorted(estimates)]
    return all(b >= a * (1.0 - 1e-12) for a, b in zip(values, values[1:]))


def pk_observations(rng: np.random.Generator, count: int, obs_times: np.ndarray,
                    sim_n: int, hurst: float, ke: float, sigma: float, beta: float,
                    c0: float = 1.0) -> list:
    """count bolus concentration paths observed at obs_times, with no zero hit.

    fBm on a uniform sim_n-step grid of [0, 1] through a dense Cholesky
    factor, the explicit a = 0 solution
    C_t = (c0^(1-beta) + wtilde_t)^(1/(1-beta)) e^(-Ke t), and rejection
    of paths that reach 0 on the grid. obs_times must lie on the grid.
    """
    t = np.linspace(0.0, 1.0, sim_n + 1)
    factor = np.linalg.cholesky(fbm_cov(hurst, t[1:, None], t[None, 1:]))
    op = wtilde_operator(t, sigma, beta, ke)
    idx = np.rint(np.asarray(obs_times) * sim_n).astype(int)
    out = []
    while len(out) < count:
        w = np.concatenate(([0.0], factor @ rng.standard_normal(sim_n)))
        level = c0 ** (1.0 - beta) + op @ w
        if np.all(level > 0.0):
            conc = level ** (1.0 / (1.0 - beta)) * np.exp(-ke * t)
            out.append(conc[idx])
    return out


def pk_quad_grid(obs_times: np.ndarray, refine: int) -> np.ndarray:
    """0 and the observation times, each gap split into refine pieces."""
    knots = np.concatenate(([0.0], obs_times))
    pieces = [np.linspace(lo, hi, refine + 1)[1:] for lo, hi in zip(knots[:-1], knots[1:])]
    return np.concatenate([[0.0]] + pieces)


def pk_log_likelihood(theta, obs_times: np.ndarray, conc: np.ndarray, hurst: float,
                      quad_grid: np.ndarray, c0: float = 1.0) -> float:
    """Log-density of positive observations under theta = (Ke, sigma, beta).

    z_i = x_i^(1-beta) is Gaussian with mean c0^(1-beta) e^(-Ke(1-beta)t_i)
    and covariance e^(-Ke(1-beta)(t_i+t_j)) Cov(wtilde_ti, wtilde_tj); the
    density of x adds the Jacobian sum log((1-beta) x_i^(-beta)).
    """
    from scipy.stats import multivariate_normal

    ke, sigma, beta = (float(v) for v in theta)
    omb = 1.0 - beta
    op = wtilde_operator(quad_grid, sigma, beta, ke)
    cov = fbm_cov(hurst, quad_grid[:, None], quad_grid[None, :])
    idx = np.searchsorted(quad_grid, obs_times)
    rows = op[idx]
    damp = np.exp(-ke * omb * obs_times)
    gamma = np.outer(damp, damp) * (rows @ cov @ rows.T)
    mean = c0**omb * damp
    z = conc**omb
    jacobian = np.sum(np.log(omb) - beta * np.log(conc))
    return float(multivariate_normal(mean, 0.5 * (gamma + gamma.T)).logpdf(z) + jacobian)
