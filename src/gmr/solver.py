"""Implicit Euler scheme for the transformed equation and its harness.

Each step solves f(x) = x - B x^(-gamma) - A = 0 for the unique positive
root (f is increasing and concave on (0, inf) with f(0+) = -inf), which
keeps every node strictly positive whatever the sign of the Gaussian
increment. The scheme converges uniformly with rate n^(-alpha*min(1,gamma))
for alpha-Holder drivers; convergence_study measures the empirical slope
against a nested fine-grid reference.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Union

import numpy as np

from .artifacts import write_csv, write_json
from .drivers import SamplePath
from .transform import (
    ModelParams,
    TruncatedPath,
    explicit_solution_a0,
    lift_y_to_x,
    tilde_w_path,
)

__all__ = [
    "RootSolveError",
    "EulerSolution",
    "RateReport",
    "implicit_step_root",
    "implicit_euler",
    "implicit_euler_nodes",
    "solve_gmr",
    "deterministic_ode_solution",
    "sup_bound",
    "y_sup_bound",
    "convergence_study",
    "rate_report_to_csv",
    "rate_report_to_json",
]

_MAX_ITER = 200


class RootSolveError(RuntimeError):
    """The per-step scalar root solve did not converge."""


@dataclass(frozen=True)
class EulerSolution:
    """Implicit-Euler nodes with their piecewise-linear interpolant.

    ``y_path`` holds the nodes on the uniform grid t_k = kT/n; between
    nodes the scheme is defined by linear interpolation in y, and the
    lifted solution is x_t = y_t^(gamma+1) e^(-bt).
    """

    n: int
    params: ModelParams
    y_path: SamplePath
    x_path: SamplePath

    def __post_init__(self):
        if np.any(self.y_path.values <= 0.0):
            raise ValueError("all Euler nodes must be strictly positive")


@dataclass(frozen=True)
class RateReport:
    """Self-convergence errors against a nested reference and fitted slope."""

    n_list: np.ndarray
    errors: np.ndarray
    fitted_slope: float
    theoretical_rate: float

    def __post_init__(self):
        n_list = np.asarray(self.n_list, dtype=int)
        errors = np.asarray(self.errors, dtype=float)
        if np.any(np.diff(n_list) <= 0):
            raise ValueError("n_list must be strictly increasing")
        if np.any(errors <= 0):
            raise ValueError("errors must be positive")
        object.__setattr__(self, "n_list", n_list)
        object.__setattr__(self, "errors", errors)


def _step_residual(x: float, A: float, B: float, gamma: float) -> float:
    return x - B * x**-gamma - A


def implicit_step_root(A: float, B: float, gamma: float) -> float:
    """Unique positive root of x - B x^(-gamma) - A = 0.

    Safeguarded Newton: start from max(A, B^(1/(gamma+1))), keep a
    bracket [lo, hi] with f(lo) < 0 < f(hi) (lo by downward doubling,
    hi = |A| + B^(1/(gamma+1)) + 1) and bisect whenever the Newton step
    leaves it. Stops at |f| <= 1e-12 * max(1, |A|).
    """
    if B <= 0:
        raise ValueError("B must be positive")
    if gamma <= 0:
        raise ValueError("gamma must be positive")
    tol = 1e-12 * max(1.0, abs(A))
    scale = B ** (1.0 / (gamma + 1.0))
    hi = abs(A) + scale + 1.0  # f(hi) >= 1 - A + |A| > 0
    lo = min(scale, hi)
    while _step_residual(lo, A, B, gamma) >= 0.0:
        lo *= 0.5
        if lo < 1e-300:
            raise RootSolveError("failed to bracket the root from below")
    x = max(A, scale)
    if not lo < x < hi:
        x = 0.5 * (lo + hi)
    for _ in range(_MAX_ITER):
        f = _step_residual(x, A, B, gamma)
        if abs(f) <= tol:
            return x
        if f < 0.0:
            lo = x
        else:
            hi = x
        fprime = 1.0 + B * gamma * x ** -(gamma + 1.0)
        step = x - f / fprime
        x = step if lo < step < hi else 0.5 * (lo + hi)
    raise RootSolveError(
        f"no convergence after {_MAX_ITER} iterations (A={A!r}, B={B!r}, gamma={gamma!r})"
    )


def _implicit_roots_newton(A: np.ndarray, B: float, gamma: float) -> np.ndarray:
    """Vectorized per-element Newton for the step equation.

    With s = B^(1/(gamma+1)), f(s) = -A, so every element starts where
    f <= 0: at max(A, s) when A > 0, else at (B/(s+|A|))^(1/gamma), where
    f equals that point minus s. f is concave and increasing on (0, inf),
    so from the left Newton climbs monotonically inside (0, root].
    Elements are masked out once they meet the residual tolerance, which
    keeps every entry's iterate sequence independent of the rest of the
    batch; a NaN residual never counts as converged.
    """
    A = np.asarray(A, dtype=float)
    tol = 1e-12 * np.maximum(1.0, np.abs(A))
    scale = B ** (1.0 / (gamma + 1.0))
    below = np.minimum(scale, (B / (scale + np.abs(A))) ** (1.0 / gamma))
    x = np.where(A > 0.0, np.maximum(A, scale), below)
    for _ in range(_MAX_ITER):
        f = x - B * x**-gamma - A
        active = ~(np.abs(f) <= tol)
        if not active.any():
            return x
        fprime = 1.0 + B * gamma * x ** -(gamma + 1.0)
        x = np.where(active, x - f / fprime, x)
    raise RootSolveError(f"vectorized step solve stalled after {_MAX_ITER} iterations")


def implicit_euler(p: ModelParams, tilde_w: SamplePath) -> EulerSolution:
    """Run the implicit scheme on a precomputed weighted driver.

    Parameters
    ----------
    p : ModelParams
        Coefficients with a > 0 (a = 0 has the explicit solution).
    tilde_w : SamplePath
        Weighted driver on n + 1 uniform times; the step at k solves the
        root equation with A = y_k + (wtilde_{k+1} - wtilde_k) and
        B = a(1-beta) (T/n) e^(b t_{k+1}).
    """
    if p.a <= 0:
        raise ValueError("implicit Euler requires a > 0")
    t = tilde_w.times
    n = tilde_w.n_steps
    dt = t[-1] / n
    if not np.allclose(np.diff(t), dt, rtol=1e-9, atol=0.0):
        raise ValueError("tilde_w must live on a uniform grid")
    dw = np.diff(tilde_w.values)
    coef = p.a * (1.0 - p.beta) * dt
    y = np.empty(n + 1)
    y[0] = p.y0
    for k in range(n):
        y[k + 1] = implicit_step_root(y[k] + dw[k], coef * math.exp(p.b * t[k + 1]), p.gamma)
    y_path = SamplePath(t, y)
    return EulerSolution(n=n, params=p, y_path=y_path, x_path=lift_y_to_x(y_path, p))


def implicit_euler_nodes(p: ModelParams, times: np.ndarray, tilde_w: np.ndarray) -> np.ndarray:
    """Vectorized scheme across an ensemble of weighted drivers.

    ``tilde_w`` has shape (M, n+1); returns the (M, n+1) array of y nodes.
    Produces the same roots (to the shared residual tolerance) as running
    implicit_euler path by path.
    """
    if p.a <= 0:
        raise ValueError("implicit Euler requires a > 0")
    times = np.asarray(times, dtype=float)
    tilde_w = np.atleast_2d(np.asarray(tilde_w, dtype=float))
    n = times.size - 1
    dt = times[-1] / n
    dw = np.diff(tilde_w, axis=1)
    coef = p.a * (1.0 - p.beta) * dt
    y = np.empty_like(tilde_w)
    y[:, 0] = p.y0
    for k in range(n):
        y[:, k + 1] = _implicit_roots_newton(
            y[:, k] + dw[:, k], coef * math.exp(p.b * times[k + 1]), p.gamma
        )
    return y


def solve_gmr(
    p: ModelParams, driver: SamplePath, n: int
) -> Union[SamplePath, TruncatedPath]:
    """Solve the equation along one driver path.

    a > 0 routes through the implicit Euler scheme (n steps; the driver
    grid must be nested over the scheme grid) and returns the lifted
    x path. a = 0 routes through the explicit truncated formula and
    returns a TruncatedPath.
    """
    if p.a == 0.0:
        return explicit_solution_a0(driver, p)
    wt = tilde_w_path(driver, p)
    fine = wt.n_steps
    if n < 1 or fine % n != 0:
        raise ValueError("driver grid must refine the scheme grid (n must divide it)")
    stride = fine // n
    sub = SamplePath(wt.times[::stride], wt.values[::stride])
    return implicit_euler(p, sub).x_path


def deterministic_ode_solution(p: ModelParams, t):
    """Noise-free oracle: solution of x' = a - b x with x(0) = x0."""
    t = np.asarray(t, dtype=float)
    if p.b > 0:
        mean = p.a / p.b
        out = mean + (p.x0 - mean) * np.exp(-p.b * t)
    else:
        out = p.x0 + p.a * t
    return float(out) if out.ndim == 0 else out


def y_sup_bound(p: ModelParams, driver_sup: float, horizon: float) -> float:
    """Pathwise bound on the transformed level y (and on every Euler node)."""
    if driver_sup < 0:
        raise ValueError("driver sup norm must be nonnegative")
    omb = 1.0 - p.beta
    drift = p.a * omb * math.exp(p.b * horizon) * p.y0**-p.gamma * horizon
    noise = (
        p.sigma * max(p.b, 2.0) * omb * (1.0 + horizon)
        * math.exp(p.b * omb * horizon) * driver_sup
    )
    return p.y0 + drift + noise


def sup_bound(p: ModelParams, driver_sup: float, horizon: float) -> float:
    """Explicit bound on ||x||_inf in terms of the realized ||w||_inf."""
    return y_sup_bound(p, driver_sup, horizon) ** (p.gamma + 1.0)


def convergence_study(
    p: ModelParams,
    driver: SamplePath,
    n_list,
    ref_n: int,
    holder_exponent: float,
) -> RateReport:
    """Self-convergence rate experiment on a single driver path.

    The reference is the scheme itself at ref_n on a nested grid; every
    n in n_list must divide ref_n and ref_n must be at least 8 times the
    largest n. Errors are sup norms over the coarse nodes; the slope is
    the negated least-squares slope of log error against log n.
    """
    n_list = sorted(int(n) for n in n_list)
    if any(n2 <= n1 for n1, n2 in zip(n_list, n_list[1:])):
        raise ValueError("n_list must be strictly increasing")
    if driver.n_steps != ref_n:
        raise ValueError("driver must be sampled on the reference grid")
    if any(ref_n % n != 0 for n in n_list):
        raise ValueError("each n must divide ref_n (nested grids)")
    if ref_n < 8 * max(n_list):
        raise ValueError("ref_n must be at least 8 * max(n_list)")
    if p.a <= 0:
        raise ValueError("the rate experiment runs the scheme, which needs a > 0")
    wt = tilde_w_path(driver, p)
    ref = implicit_euler(p, wt).x_path.values
    errors = []
    for n in n_list:
        stride = ref_n // n
        sub = SamplePath(wt.times[::stride], wt.values[::stride])
        x = implicit_euler(p, sub).x_path.values
        errors.append(float(np.max(np.abs(x - ref[::stride]))))
    slope = -np.polyfit(np.log(n_list), np.log(errors), 1)[0]
    return RateReport(
        n_list=np.array(n_list),
        errors=np.array(errors),
        fitted_slope=float(slope),
        theoretical_rate=float(holder_exponent * p.mu),
    )


def rate_report_to_csv(report: RateReport, path) -> None:
    write_csv(path, ["n", "error"], zip(report.n_list, report.errors))


def rate_report_to_json(report: RateReport, path) -> None:
    write_json(
        path,
        {"fitted_slope": report.fitted_slope, "theoretical_rate": report.theoretical_rate},
    )
