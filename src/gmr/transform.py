"""Change-of-variable layer for the mean-reverting equation.

The equation dx = (a - b x) dt + sigma x^beta dw is reduced, via
y = x^(1-beta) e^(b(1-beta)t), to an equation with additive rough forcing

    y_t = y_0 + a(1-beta) int_0^t y_s^(-gamma) e^(bs) ds + wtilde_t,

where gamma = beta/(1-beta) and wtilde is the Young integral of the
smooth weight theta_t = sigma(1-beta) e^(b(1-beta)t) against the driver.
Because the weight is smooth, wtilde is computed through the exact
integration-by-parts identity plus trapezoidal quadrature of the
absolutely continuous remainder; this is exact when b = 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .drivers import (
    CovarianceKernel,
    SamplePath,
    checked_grid,
    covariance_matrix,
    covariance_rows,
)

__all__ = [
    "ModelParams",
    "theta_weight",
    "tilde_w_path",
    "tilde_w_matrix",
    "tilde_w_covariance_matrix",
    "tilde_w_variance",
    "y0_from_x0",
    "lift_into",
    "check_lift",
    "first_hit",
    "absorbed_lift",
]

# rows of the driver covariance per block in tilde_w_variance: a few
# (_VARIANCE_ROWS, n+1) arrays at a time, 8 MiB each at n = 4096
_VARIANCE_ROWS = 256


@dataclass(frozen=True)
class ModelParams:
    """Coefficients of dx = (a - b x) dt + sigma x^beta dw.

    beta = 1 is excluded: the transform exponent gamma = beta/(1-beta)
    diverges there and the whole computational route is built on finite
    gamma (the linear case is elementary anyway).
    """

    x0: float
    a: float
    b: float
    sigma: float
    beta: float

    def __post_init__(self):
        for name in ("x0", "a", "b", "sigma"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")
        if not self.x0 > 0:
            raise ValueError("x0 must be positive")
        if self.a < 0:
            raise ValueError("a must be nonnegative")
        if self.b < 0:
            raise ValueError("b must be nonnegative")
        if self.sigma < 0:
            raise ValueError("sigma must be nonnegative")
        if not 0.0 < self.beta < 1.0:
            raise ValueError("beta must lie in (0, 1)")

    @property
    def gamma(self) -> float:
        return self.beta / (1.0 - self.beta)

    @property
    def mu(self) -> float:
        """Rate exponent min(1, gamma)."""
        return min(1.0, self.gamma)

    @property
    def y0(self) -> float:
        return y0_from_x0(self.x0, self)


def theta_weight(t, p: ModelParams):
    """Smooth weight sigma(1-beta) e^(b(1-beta)t); scalar or array t."""
    t = np.asarray(t, dtype=float)
    out = p.sigma * (1.0 - p.beta) * np.exp(p.b * (1.0 - p.beta) * t)
    return float(out) if out.ndim == 0 else out


def tilde_w_path(driver: SamplePath, p: ModelParams) -> SamplePath:
    """Weighted driver wtilde_t = int_0^t theta_s dw_s on the driver grid.

    The one-row case of tilde_w_matrix; the driver must start at 0.
    """
    if driver.values[0] != 0.0:
        raise ValueError("driver path must start at 0")
    return SamplePath(driver.times, tilde_w_matrix(driver.values[None], driver.times, p)[0])


def tilde_w_matrix(drivers: np.ndarray, times: np.ndarray, p: ModelParams) -> np.ndarray:
    """Weighted drivers for a stack of driver paths (M x (n+1)).

    Evaluated through integration by parts,
    wtilde_t = theta_t w_t - int_0^t theta'_s w_s ds with
    theta' = b(1-beta) theta, the remaining Riemann integral done by
    trapezoid. Exact at the grid points when b = 0 (the weight is then
    constant). The map is linear and acts on each row alone: it returns
    drivers A^T for one (n+1) x (n+1) matrix A.

    The running trapezoid sum is scipy's cumulative_trapezoid, operation
    for operation, so the result is bitwise the same without importing
    scipy.integrate.
    """
    th = theta_weight(times, p)
    v = (p.b * (1.0 - p.beta) * th)[None, :] * drivers
    out = th[None, :] * drivers
    trapezoids = v[:, 1:] + v[:, :-1]
    trapezoids *= np.diff(times)
    trapezoids /= 2.0
    out[:, 1:] -= np.cumsum(trapezoids, axis=1, out=trapezoids)
    return out


def tilde_w_covariance_matrix(
    p: ModelParams,
    kernel: CovarianceKernel,
    grid: np.ndarray,
) -> np.ndarray:
    """Covariance of wtilde at all grid pairs, from the driver covariance C.

    wtilde = A w for the matrix A that tilde_w_matrix applies to each
    path, so Cov(wtilde) = A C A^T: tilde_w_matrix on the rows of C gives
    C A^T, and on the rows of its transpose A C, A C A^T. Exact when b = 0.
    """
    grid = checked_grid(grid)
    cov_at = tilde_w_matrix(covariance_matrix(kernel, grid), grid, p)
    out = tilde_w_matrix(cov_at.T, grid, p)
    return 0.5 * (out + out.T)


def tilde_w_variance(p: ModelParams, kernel: CovarianceKernel, grid: np.ndarray) -> np.ndarray:
    """Variance of wtilde at each grid point: np.diag(tilde_w_covariance_matrix(...)), bitwise.

    The rows of C A^T are tilde_w_matrix of the rows of C, made
    _VARIANCE_ROWS at a time, so memory is O(_VARIANCE_ROWS n) instead
    of O(n^2). Entry k of the diagonal is the second map's value on
    column k of C A^T, whose running trapezoid sum needs rows 0 to k
    only: that sum runs down the columns from block to block, carried in
    one row, and a block carries only the columns its rows have not
    finished. numpy accumulates in order, so every partial sum is the
    full map's.
    """
    grid = checked_grid(grid)
    th = theta_weight(grid, p)
    dth = p.b * (1.0 - p.beta) * th
    dt = np.diff(grid)
    diag = np.empty(grid.size)
    for start in range(0, grid.size, _VARIANCE_ROWS):
        stop = min(start + _VARIANCE_ROWS, grid.size)
        cat = tilde_w_matrix(covariance_rows(kernel, grid, start, stop), grid, p)
        # columns before start were read by earlier blocks: v and sums
        # hold columns start to n only
        v = dth[start:stop, None] * cat[:, start:]
        # trapezoid j pairs rows j and j + 1 of v; this block completes
        # trapezoids first to stop - 2, the first with the block before's row
        first = max(start - 1, 0)
        sums = np.empty((stop - 1 - first, grid.size - start))
        if start > 0:
            np.add(v[0], v_last, out=sums[0])
        np.add(v[1:], v[:-1], out=sums[start - first:])
        sums *= dt[first:stop - 1, None]
        sums /= 2.0
        if start > 0:
            sums[0] += sum_last
        np.cumsum(sums, axis=0, out=sums)
        diag[start:stop] = th[start:stop] * cat.diagonal(start)
        k = np.arange(max(start, 1), stop)
        diag[k] -= sums[k - 1 - first, k - start]
        v_last, sum_last = v[-1, stop - start:].copy(), sums[-1, stop - start:].copy()
    return diag


def y0_from_x0(x0: float, p: ModelParams) -> float:
    """Transformed initial condition x0^(1-beta)."""
    if x0 <= 0:
        raise ValueError("x0 must be positive")
    return x0 ** (1.0 - p.beta)


def lift_into(out, y, times, p: ModelParams):
    """The lift x = y^(gamma+1) e^(-bt), elementwise, written into ``out``.

    ``times`` broadcasts against ``y``: one grid for (M, n+1) rows, or
    one time per entry (such as a per-row stopping time). ``out`` has y's
    shape and may be a dead buffer of the caller's (an ensemble's
    wtilde). y is copied into it and raised in place, which takes numpy's
    scalar-power route as ``y ** (gamma+1)`` does, so no temporary of y's
    size is made. Returns ``out``; OverflowError (check_lift) if a value
    is not finite.
    """
    np.copyto(out, y)
    with np.errstate(over="ignore", invalid="ignore"):
        out **= p.gamma + 1.0
        out *= np.exp(-p.b * times)
    return check_lift(out, times, p)


def check_lift(x, times, p: ModelParams):
    """Return the lifted values ``x``, raising OverflowError if one is not finite.

    Past b t of about 709, y^(gamma+1) of a positive level can overflow
    while e^(-bt) underflows, and inf * 0 = NaN must reach neither a hit
    rule nor a statistic. Callers lift with numpy's overflow and invalid
    warnings off and leave the report to this check. A lift is never
    -inf, so its max is finite exactly when every value is (NaN
    propagates through the max), and no mask of x's size is made.
    """
    with np.errstate(invalid="ignore"):  # a NaN in the max may set the flag
        finite = np.size(x) == 0 or np.isfinite(np.max(x))
    if not finite:
        raise OverflowError(f"lift y^(gamma+1) e^(-bt) of a positive level is not finite "
                            f"(b = {p.b!r}, t up to {float(np.max(times)):.6g})")
    return x


def first_hit(level: np.ndarray) -> np.ndarray:
    """First index along the last axis where ``level`` is not > 0.

    The length of that axis where there is no such index. NaN counts as
    a hit.
    """
    return _first_true(~(level > 0.0))


def _first_true(mask: np.ndarray) -> np.ndarray:
    return np.where(mask.any(axis=-1), mask.argmax(axis=-1), mask.shape[-1])


def absorbed_lift(y: np.ndarray, times: np.ndarray, p: ModelParams):
    """The a = 0 solution from its levels y = x0^(1-beta) + wtilde: (x, hit).

    x_t = y_t^(gamma+1) e^(-bt) while the level is positive. A row hits at
    the first grid index where y <= 0 or where the lift of a positive y
    underflows to x == 0.0 (large b t does this, e.g. b = 800 at t = 60/64
    with no noise), so x is strictly positive before the hit and exactly 0
    from it on; hit is n+1 for a row that never hits. Zero-hit detection
    is grid-based. x is one new array of y's shape.

    Raises OverflowError (check_lift) when the lift of a positive level
    before the hit is not finite; a NaN there would otherwise read as a
    hit.
    """
    # the lift of max(y, 0), in place: x holds no more than one (M, n+1) array
    x = np.where(y > 0.0, y, 0.0)
    with np.errstate(over="ignore", invalid="ignore"):
        x **= p.gamma + 1.0
        x *= np.exp(-p.b * times)
    # x is >= 0, inf or NaN: only a finite 0 is a hit. The mask is made
    # C-ordered, so argmax reads each row in place on a time-major x too
    hit = _first_true(np.less_equal(x, 0.0, order="C"))
    x[np.arange(x.shape[-1]) >= hit[..., None]] = 0.0
    check_lift(x, times, p)  # only values before the hit are left to check
    return x, hit

