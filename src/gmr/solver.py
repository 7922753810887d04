"""Implicit Euler scheme for the transformed equation and its rate study.

Each step solves f(x) = x - B x^(-gamma) - A = 0 for the unique positive
root (f is increasing and concave on (0, inf) with f(0+) = -inf), which
keeps every node strictly positive whatever the sign of the Gaussian
increment. The scalar and the vectorized solver run one algorithm: plain
Newton from a start where f <= 0, which climbs monotonically to the root.
One path is one row: solve_matrix solves (M, n+1) rows of wtilde, and the
scheme picks its Newton kernel from the row count. The scheme converges
uniformly with rate n^(-alpha*min(1,gamma)) for alpha-Holder drivers;
convergence_study measures the empirical slope against a nested
fine-grid reference.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .artifacts import write_csv, write_json
from .drivers import SamplePath
from .transform import (
    ModelParams,
    absorbed_lift,
    explicit_a0_matrix,
    lift,
    lift_into,
    tilde_w_path,
)

__all__ = [
    "RootSolveError",
    "EulerSolution",
    "RateReport",
    "implicit_step_root",
    "implicit_euler",
    "implicit_euler_nodes",
    "solve_matrix",
    "solve_columns",
    "solve_gmr",
    "nested_sup_errors",
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


def implicit_step_root(A: float, B: float, gamma: float) -> float:
    """Unique positive root of x - B x^(-gamma) - A = 0.

    One element of _implicit_roots_newton, with the same start, the same
    plain Newton steps and the same stopping rule |f| <= 1e-12 * max(1, |A|).
    The start lies where f <= 0, so the iterates climb monotonically to
    the root and stay positive.
    """
    if B <= 0:
        raise ValueError("B must be positive")
    if gamma <= 0:
        raise ValueError("gamma must be positive")
    tol = 1e-12 * max(1.0, abs(A))
    scale = B ** (1.0 / (gamma + 1.0))
    # min returns its first argument when it compares with NaN, so a NaN A
    # gives a NaN start here, as np.minimum does in the vectorized solver
    x = max(A, scale) if A > 0.0 else min((B / (scale + abs(A))) ** (1.0 / gamma), scale)
    if not 0.0 < x < math.inf:  # the start underflowed, or A is NaN or inf
        raise RootSolveError(
            f"Newton start {x!r} is not positive and finite (A={A!r}, B={B!r}, gamma={gamma!r})")
    for _ in range(_MAX_ITER):
        f = x - B * x**-gamma - A
        if abs(f) <= tol:
            return x
        fprime = 1.0 + B * gamma * x ** -(gamma + 1.0)
        x -= f / fprime
    raise RootSolveError(
        f"no convergence after {_MAX_ITER} iterations (A={A!r}, B={B!r}, gamma={gamma!r})"
    )


def _implicit_roots_newton(A: np.ndarray, B: float, gamma: float) -> np.ndarray:
    """implicit_step_root's Newton iteration, run on every element of A at once.

    With s = B^(1/(gamma+1)), f(s) = -A, so every element starts where
    f <= 0: at max(A, s) when A > 0, else at min(s, z) with
    z = (B/(s+|A|))^(1/gamma), where f(z) = z - s; z is computed only for
    those elements. f is concave and increasing on (0, inf), so from the
    left Newton climbs monotonically inside (0, root]. A start that
    underflows to 0 or is not finite (an A that is NaN or inf) raises
    before any step. An element stops moving once it meets the residual
    tolerance (its step is set to 0), which keeps every entry's iterate
    sequence independent of the rest of the batch; a NaN residual never
    counts as converged.
    """
    A = np.asarray(A, dtype=float)
    tol = np.maximum(np.abs(A), 1.0)
    tol *= 1e-12
    scale = B ** (1.0 / (gamma + 1.0))
    x = np.maximum(A, scale)
    low = ~(A > 0.0)
    if low.any():
        x[low] = np.minimum(scale, (B / (scale + np.abs(A[low]))) ** (1.0 / gamma))
    # a start underflowed, or an A is NaN (then so is the min) or inf
    if x.size and not (0.0 < x.min() and x.max() < math.inf):
        raise RootSolveError("vectorized Newton start is not positive and finite")
    for _ in range(_MAX_ITER):
        # f = x - B x^-gamma - A and the step f / (1 + B gamma x^-(gamma+1)),
        # built in place with the rounding of those expressions
        f = x ** -gamma
        f *= B
        np.subtract(x, f, out=f)
        f -= A
        done = np.abs(f) <= tol
        if done.all():
            return x
        step = x ** -(gamma + 1.0)
        step *= B * gamma
        step += 1.0
        np.divide(f, step, out=step)
        if done.any():
            step[done] = 0.0
        x -= step
    raise RootSolveError(f"vectorized step solve stalled after {_MAX_ITER} iterations")


def implicit_euler(p: ModelParams, tilde_w: SamplePath) -> EulerSolution:
    """implicit_euler_nodes on one weighted driver path, with its lift."""
    t = tilde_w.times
    y = implicit_euler_nodes(p, t, tilde_w.values[None])[0]
    return EulerSolution(n=tilde_w.n_steps, params=p, y_path=SamplePath(t, y),
                         x_path=SamplePath(t, lift(y, t, p)))


def implicit_euler_nodes(p: ModelParams, times: np.ndarray, tilde_w: np.ndarray) -> np.ndarray:
    """The implicit scheme on (M, n+1) rows of wtilde on one uniform grid.

    Returns the (M, n+1) y nodes. The step at k solves the root equation
    with A = y_k + (wtilde_{k+1} - wtilde_k) and B = a(1-beta) (T/n)
    e^(b t_{k+1}). The kernel follows the row count: one row runs
    implicit_step_root (a one-row vectorized solve is 8-10x slower at
    n = 4096), more rows run _implicit_roots_newton on a column at a time.
    Both run one Newton iteration to one residual tolerance.

    Several rows are stepped time-major: on an (n+1, M) copy of wtilde,
    where each column of the rows is contiguous, and the nodes are
    returned as the (M, n+1) transpose of an (n+1, M) array, so they are
    Fortran-ordered. The transpose of a time-major array, as
    solve_columns passes, is used without a copy.
    """
    if p.a <= 0:
        raise ValueError("implicit Euler requires a > 0")
    times = np.asarray(times, dtype=float)
    tilde_w = np.atleast_2d(np.asarray(tilde_w, dtype=float))
    n = times.size - 1
    dt = times[-1] / n
    if tilde_w.shape[1] != times.size:
        raise ValueError("tilde_w must have one column per grid time")
    if not np.allclose(np.diff(times), dt, rtol=1e-9, atol=0.0):
        raise ValueError("tilde_w must live on a uniform grid")
    coef = p.a * (1.0 - p.beta) * dt
    if tilde_w.shape[0] == 1:
        dw = np.diff(tilde_w[0])
        y = np.empty(times.size)
        y[0] = p.y0
        for k in range(n):
            y[k + 1] = implicit_step_root(y[k] + dw[k], coef * math.exp(p.b * times[k + 1]),
                                          p.gamma)
        return y[None]
    w = np.ascontiguousarray(tilde_w.T)
    y = np.empty_like(w)
    y[0] = p.y0
    for k in range(n):
        y[k + 1] = _implicit_roots_newton(y[k] + (w[k + 1] - w[k]),
                                          coef * math.exp(p.b * times[k + 1]), p.gamma)
    return y.T


def solve_matrix(p: ModelParams, times: np.ndarray, tilde_w: np.ndarray):
    """Solve the equation on (M, n+1) rows of wtilde on one grid.

    a > 0 runs solve_columns on a time-major copy of the rows (the scheme
    steps time-major anyway); a = 0 is the explicit solution absorbed at
    its first zero hit (explicit_a0_matrix), on the rows as given. Either
    way a lift that is not finite raises OverflowError. Returns
    (x, y, hit): the lifted rows, the levels (before truncation for
    a = 0) and each row's first absorbed index, n+1 for a row that never
    hits (only a = 0 can hit). One path is one row.
    """
    if p.a == 0.0:
        return explicit_a0_matrix(tilde_w, times, p)
    return solve_columns(p, times, np.atleast_2d(tilde_w).T.copy())


def solve_columns(p: ModelParams, times: np.ndarray, wt: np.ndarray):
    """solve_matrix(p, times, wt.T), bitwise, in the buffer of wt.

    wt is a time-major (n+1, M) wtilde array, one path per column, and is
    overwritten. With a > 0 it is dead once implicit_euler_nodes has the
    nodes, so the lift is written into it; with a = 0 it takes the levels
    x0^(1-beta) + wtilde, from which absorbed_lift makes x. Either way
    the call holds two arrays of wt's size, x and y, which it returns as
    Fortran-ordered (M, n+1) views, with the hit indices.
    """
    if p.a == 0.0:
        y = np.add(wt.T, p.y0, out=wt.T)
        x, hit = absorbed_lift(y, times, p)
        return x, y, hit
    y = implicit_euler_nodes(p, times, wt.T)
    return lift_into(wt.T, y, times, p), y, np.full(y.shape[0], times.size)


def _stride(fine: int, n: int) -> int:
    if n < 1 or fine % n != 0:
        raise ValueError("the driver grid must refine the scheme grid (n must divide its steps)")
    return fine // n


def solve_gmr(p: ModelParams, driver: SamplePath, n: int) -> SamplePath:
    """Solve the equation along one driver path on n steps.

    Row 0 of solve_matrix on every (N/n)-th point of the driver's wtilde,
    where N is the driver's step count, which n must divide. An a = 0
    path is absorbed: its values are positive before first_hit(values)
    and exactly 0 from there on.
    """
    wt = tilde_w_path(driver, p)
    stride = _stride(wt.n_steps, n)
    times = wt.times[::stride]
    return SamplePath(times, solve_matrix(p, times, wt.values[None, ::stride])[0][0])


def nested_sup_errors(p: ModelParams, times: np.ndarray, tilde_w: np.ndarray, n_list):
    """Sup distance of each row's n-step solution to its reference, per n.

    The reference solves the (M, N+1) rows of wtilde on the whole grid;
    the n-step solution solves every (N/n)-th point of the same rows, so
    each n must divide N. Returns a (len(n_list), M) array.
    """
    x_ref = solve_matrix(p, times, tilde_w)[0]
    out = np.empty((len(n_list), x_ref.shape[0]))
    for i, n in enumerate(n_list):
        stride = _stride(times.size - 1, n)
        x = solve_matrix(p, times[::stride], tilde_w[:, ::stride])[0]
        out[i] = np.max(np.abs(x - x_ref[:, ::stride]), axis=1)
    return out


def convergence_study(
    p: ModelParams,
    driver: SamplePath,
    n_list,
    ref_n: int,
    holder_exponent: float,
) -> RateReport:
    """Self-convergence rate experiment on a single driver path.

    Row 0 of nested_sup_errors on the driver's wtilde, built once: the
    reference solves it at ref_n steps and each coarse solution at n
    steps on its subsample, so every n in n_list must divide ref_n;
    ref_n must be at least 8 times the largest n. Errors are sup norms
    over the coarse nodes; the slope is the negated least-squares slope
    of log error against log n.
    """
    n_list = sorted(int(n) for n in n_list)
    if any(n2 <= n1 for n1, n2 in zip(n_list, n_list[1:])):
        raise ValueError("n_list must be strictly increasing")
    if driver.n_steps != ref_n:
        raise ValueError("driver must be sampled on the reference grid")
    if ref_n < 8 * max(n_list):
        raise ValueError("ref_n must be at least 8 * max(n_list)")
    if p.a <= 0:
        raise ValueError("the rate experiment runs the scheme, which needs a > 0")
    wt = tilde_w_path(driver, p)
    errors = nested_sup_errors(p, wt.times, wt.values[None], n_list)[:, 0]
    slope = -np.polyfit(np.log(n_list), np.log(errors), 1)[0]
    return RateReport(
        n_list=np.array(n_list),
        errors=errors,
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
