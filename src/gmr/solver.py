"""Implicit Euler scheme for the transformed equation and its rate study.

Each step solves f(x) = x - B x^(-gamma) - A = 0 for the unique positive
root (f is increasing and concave on (0, inf) with f(0+) = -inf), which
keeps every node strictly positive whatever the sign of the Gaussian
increment. The scalar and the vectorized solver run one algorithm: plain
Newton from a start where f <= 0, which climbs monotonically to the root.
One solve serves every a: solve_columns takes the explicit solution when
a = 0 and runs the scheme otherwise, and solve_matrix is the same solve
on (M, n+1) rows of wtilde, one path a row. The scheme picks its Newton
kernel from the row count: one row runs the scalar kernel on Python
floats, and implicit_step_root is its one-step form. The scheme converges
uniformly with rate n^(-alpha*min(1,gamma)) for alpha-Holder drivers;
convergence_study measures the empirical slope against a nested
fine-grid reference.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .drivers import SamplePath, checked_grid
from .transform import ModelParams, absorbed_lift, lift_into, tilde_w_path

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

    One step of _newton_row from y = A with dw = 0 (A + 0.0 is A), so it
    runs the one-row scheme's Newton body, on Python floats.
    """
    if B <= 0:
        raise ValueError("B must be positive")
    if gamma <= 0:
        raise ValueError("gamma must be positive")
    return _newton_row(float(A), [(0.0, float(B))], float(gamma))[-1]


def _newton_row(y: float, steps, gamma: float) -> list:
    """The nodes [y, ...] of the scheme from y over (dw, B) steps, on Python floats.

    Step k solves the root equation with A = y_k + dw_k and B = B_k by
    _implicit_roots_newton's iteration for one element: the same start,
    the same plain Newton steps and the same stopping rule. steps may be
    lazy; a B that raises or is not positive is reached after the nodes
    before it.

    Float ** raises OverflowError where float64 arithmetic returns inf,
    and this does what float64 did. The start's (B/(s+|A|))^(1/gamma) is
    at most about s = B^(1/(gamma+1)) and overflows only for gamma below
    about 1e-8, where min(inf, s) is s. The iterates rise from the start,
    so x^-gamma or x^-(gamma+1) overflows on the first pass or never, and
    float64 then stalls with x unchanged (f / inf = 0) or NaN.

    The exponents, 1/gamma and 1/(gamma+1) are worked out once per call,
    and B gamma once per step (B gamma x^-(gamma+1) multiplies left to
    right, so that is the same product). Comparisons stand in for the
    builtins and give the same float in every case, NaN and -0.0
    included. max and min keep their first argument unless a later one
    compares strictly greater (smaller), so the order matters for NaN:
    max(A, s) is `s if s > A else A`, which keeps A when B is NaN, and
    min(z, s) is `s if s < z else z`, which keeps a NaN z when A is NaN.
    max(1, |A|) is `a if a > 1 else 1`; |A| is `-A if A < 0 else A`,
    which leaves -0.0 as it is, the same here since s + -0.0 is s and
    -0.0 compares as 0.0 does; and |f| <= tol is
    `(f if f >= 0 else -f) <= tol`, false for a NaN f.
    """
    out = [y]
    append = out.append
    inf = math.inf
    iterations = range(_MAX_ITER)
    neg_gamma, neg_gamma1 = -gamma, -(gamma + 1.0)
    inv_gamma, inv_gamma1 = 1.0 / gamma, 1.0 / (gamma + 1.0)
    for dw, B in steps:
        if B <= 0:
            raise ValueError("B must be positive")
        A = y + dw
        abs_A = -A if A < 0.0 else A
        tol = 1e-12 * (abs_A if abs_A > 1.0 else 1.0)
        scale = B**inv_gamma1
        Bg = B * gamma
        if A > 0.0:
            x = scale if scale > A else A
        else:
            try:
                x = (B / (scale + abs_A)) ** inv_gamma
                if scale < x:
                    x = scale
            except OverflowError:
                x = scale
        if not 0.0 < x < inf:  # the start underflowed, or A is NaN or inf
            raise RootSolveError(
                f"Newton start {x!r} is not positive and finite (A={A!r}, B={B!r}, gamma={gamma!r})")
        for _ in iterations:
            try:
                f = x - B * x**neg_gamma - A
                if (f if f >= 0.0 else -f) <= tol:
                    break
                x -= f / (1.0 + Bg * x**neg_gamma1)
            except OverflowError:
                x = math.nan  # stall, as float64 did
        else:
            raise RootSolveError(
                f"no convergence after {_MAX_ITER} iterations (A={A!r}, B={B!r}, gamma={gamma!r})"
            )
        append(x)
        y = x
    return out


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
                         x_path=SamplePath(t, lift_into(np.empty_like(y), y, t, p)))


def implicit_euler_nodes(p: ModelParams, times: np.ndarray, tilde_w: np.ndarray) -> np.ndarray:
    """The implicit scheme on (M, n+1) rows of wtilde on one uniform grid.

    Returns the (M, n+1) y nodes. The step at k solves the root equation
    with A = y_k + (wtilde_{k+1} - wtilde_k) and B = a(1-beta) (T/n)
    e^(b t_{k+1}). The kernel follows the row count: one row runs
    _newton_row on Python floats (a one-row vectorized solve is 30-70x
    slower at n = 4096), more rows run _implicit_roots_newton on a column
    at a time. Both run one Newton iteration to one residual tolerance.

    Several rows are stepped time-major: on an (n+1, M) copy of wtilde,
    where each column of the rows is contiguous, and the nodes are
    returned as the (M, n+1) transpose of an (n+1, M) array, so they are
    Fortran-ordered. The transpose of a time-major array, as
    solve_columns passes, is used without a copy.
    """
    if p.a <= 0:
        raise ValueError("implicit Euler requires a > 0")
    times = checked_grid(times, uniform=True)
    tilde_w = np.atleast_2d(np.asarray(tilde_w, dtype=float))
    if tilde_w.shape[1] != times.size:
        raise ValueError("tilde_w must have one column per grid time")
    n = times.size - 1
    dt = times[-1] / n
    coef = p.a * (1.0 - p.beta) * dt
    if tilde_w.shape[0] == 1:
        coef, b = float(coef), float(p.b)
        steps = zip(np.diff(tilde_w[0]).tolist(),
                    map(coef.__mul__, map(math.exp, map(b.__mul__, times[1:].tolist()))))
        return np.array(_newton_row(float(p.y0), steps, float(p.gamma)))[None]
    w = np.ascontiguousarray(tilde_w.T)
    y = np.empty_like(w)
    y[0] = p.y0
    for k in range(n):
        y[k + 1] = _implicit_roots_newton(y[k] + (w[k + 1] - w[k]),
                                          coef * math.exp(p.b * times[k + 1]), p.gamma)
    return y.T


def solve_matrix(p: ModelParams, times: np.ndarray, tilde_w: np.ndarray):
    """Solve the equation on (M, n+1) rows of wtilde on one grid.

    solve_columns on a time-major copy of the rows (the scheme steps
    time-major anyway), so tilde_w is left as it is. Returns (x, y, hit)
    as solve_columns does: the lifted rows, the levels (before truncation
    for a = 0) and each row's first absorbed index, n+1 for a row that
    never hits (only a = 0 can hit). A lift that is not finite raises
    OverflowError. One path is one row.
    """
    return solve_columns(p, times, np.atleast_2d(tilde_w).T.copy())


def solve_columns(p: ModelParams, times: np.ndarray, wt: np.ndarray):
    """The solution on a time-major (n+1, M) wtilde array, in its buffer.

    wt holds one path per column and is overwritten. With a > 0 it is
    dead once implicit_euler_nodes has the nodes, so the lift is written
    into it; with a = 0 it takes the levels x0^(1-beta) + wtilde of the
    explicit solution, from which absorbed_lift makes x, absorbed at the
    first zero hit. Either way the call holds two arrays of wt's size, x
    and y, which it returns as Fortran-ordered (M, n+1) views, with the
    hit indices.
    """
    if p.a == 0.0:
        y = np.add(wt.T, p.y0, out=wt.T)
        x, hit = absorbed_lift(y, times, p)
        return x, y, hit
    y = implicit_euler_nodes(p, times, wt.T)
    return lift_into(wt.T, y, times, p), y, np.full(y.shape[0], times.size)


def _stride(fine: int, n: int) -> int:
    if n < 1 or fine % n != 0:
        raise ValueError(f"the driver grid must refine the scheme grid: n = {n} does not divide "
                         f"its {fine} steps")
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
    each n must divide N, which is checked before the reference solve.
    Returns a (len(n_list), M) array.
    """
    strides = [_stride(times.size - 1, n) for n in n_list]
    x_ref = solve_matrix(p, times, tilde_w)[0]
    out = np.empty((len(n_list), x_ref.shape[0]))
    for i, stride in enumerate(strides):
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
    of log error against log n, so n_list needs at least two sizes.
    """
    n_list = sorted(int(n) for n in n_list)
    if len(n_list) < 2:
        raise ValueError("the slope fit needs at least two sizes in n_list")
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
