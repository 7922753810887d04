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

from dataclasses import dataclass
from typing import Optional

import numpy as np
from scipy.integrate import cumulative_trapezoid

from .drivers import CovarianceKernel, SamplePath, covariance_matrix

__all__ = [
    "ModelParams",
    "TruncatedPath",
    "theta_weight",
    "theta_weight_derivative",
    "tilde_w_path",
    "tilde_w_matrix",
    "tilde_w_covariance_matrix",
    "y0_from_x0",
    "lift",
    "lift_y_to_x",
    "check_lift",
    "first_hit",
    "explicit_a0_matrix",
    "explicit_solution_a0",
]


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


@dataclass(frozen=True)
class TruncatedPath:
    """A nonnegative path absorbed at its first zero hit.

    ``hit_index`` is the first grid index where the pre-lift level
    reached 0 (None when there is no hit on the horizon); values are
    strictly positive before it and exactly 0 from it on.
    """

    path: SamplePath
    hit_index: Optional[int]

    def __post_init__(self):
        v = self.path.values
        if self.hit_index is None:
            if np.any(v <= 0):
                raise ValueError("untruncated path must stay positive")
        else:
            k = self.hit_index
            if not 0 <= k <= v.size - 1:
                raise ValueError("hit_index out of range")
            if np.any(v[:k] <= 0) or np.any(v[k:] != 0.0):
                raise ValueError("values must be positive before the hit and 0 after")


def theta_weight(t, p: ModelParams):
    """Smooth weight sigma(1-beta) e^(b(1-beta)t); scalar or array t."""
    t = np.asarray(t, dtype=float)
    out = p.sigma * (1.0 - p.beta) * np.exp(p.b * (1.0 - p.beta) * t)
    return float(out) if out.ndim == 0 else out


def theta_weight_derivative(t, p: ModelParams):
    """Time derivative of the weight: b(1-beta) * theta_weight."""
    t = np.asarray(t, dtype=float)
    out = p.b * (1.0 - p.beta) * theta_weight(t, p)
    return float(out) if np.ndim(out) == 0 else out


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
    wtilde_t = theta_t w_t - int_0^t theta'_s w_s ds, with the remaining
    Riemann integral done by trapezoid. Exact at the grid points when
    b = 0 (the weight is then constant). Rows are independent of each
    other.
    """
    th = theta_weight(times, p)
    correction = cumulative_trapezoid(
        theta_weight_derivative(times, p)[None, :] * drivers, times, axis=1, initial=0.0
    )
    return th[None, :] * drivers - correction


def tilde_w_covariance_matrix(
    p: ModelParams,
    kernel: CovarianceKernel,
    grid: np.ndarray,
) -> np.ndarray:
    """Covariance of wtilde at all grid pairs, from the driver covariance.

    Uses the same integration-by-parts representation as tilde_w_path:

        Cov(wtilde_s, wtilde_t) = theta_s theta_t c(s,t)
            - theta_s int_0^t theta'_v c(s,v) dv
            - theta_t int_0^s theta'_u c(u,t) du
            + int_0^s int_0^t theta'_u theta'_v c(u,v) du dv

    with all integrals by trapezoid on the grid; exact when b = 0.
    """
    grid = np.asarray(grid, dtype=float)
    if grid[0] != 0.0 or np.any(np.diff(grid) <= 0):
        raise ValueError("grid must be strictly increasing and start at 0")
    cov = covariance_matrix(kernel, grid)
    th = theta_weight(grid, p)
    dth = theta_weight_derivative(grid, p)
    inner = cumulative_trapezoid(cov * dth[None, :], grid, axis=1, initial=0.0)
    double = cumulative_trapezoid(inner * dth[:, None], grid, axis=0, initial=0.0)
    cross = th[:, None] * inner
    out = np.outer(th, th) * cov - cross - cross.T + double
    return 0.5 * (out + out.T)


def y0_from_x0(x0: float, p: ModelParams) -> float:
    """Transformed initial condition x0^(1-beta)."""
    if x0 <= 0:
        raise ValueError("x0 must be positive")
    return x0 ** (1.0 - p.beta)


def lift(y, times, p: ModelParams):
    """The lift x = y^(gamma+1) e^(-bt), elementwise.

    ``times`` broadcasts against ``y``: one grid for (M, n+1) rows, or
    one time per entry (such as a per-row stopping time).
    """
    return y ** (p.gamma + 1.0) * np.exp(-p.b * times)


def lift_y_to_x(y: SamplePath, p: ModelParams) -> SamplePath:
    """Pointwise lift of a path; y must be positive."""
    if np.any(y.values <= 0.0):
        raise ValueError("y must be strictly positive; truncate before lifting")
    return SamplePath(y.times, lift(y.values, y.times, p))


def check_lift(x, times, p: ModelParams):
    """Return the lifted values ``x``, raising OverflowError if one is not finite.

    Past b t of about 709, y^(gamma+1) of a positive level can overflow
    while e^(-bt) underflows, and inf * 0 = NaN must reach neither a hit
    rule nor a statistic. Callers lift with numpy's overflow and invalid
    warnings off and leave the report to this check.
    """
    if not np.all(np.isfinite(x)):
        raise OverflowError(f"lift y^(gamma+1) e^(-bt) of a positive level is not finite "
                            f"(b = {p.b!r}, t up to {float(np.max(times)):.6g})")
    return x


def first_hit(level: np.ndarray) -> np.ndarray:
    """First index along the last axis where ``level`` is not > 0.

    The length of that axis where there is no such index. NaN counts as
    a hit.
    """
    dead = ~(level > 0.0)
    return np.where(dead.any(axis=-1), dead.argmax(axis=-1), dead.shape[-1])


def explicit_a0_matrix(tilde_w: np.ndarray, times: np.ndarray, p: ModelParams):
    """Closed-form a = 0 solution for rows of wtilde, absorbed at the first hit.

    x_t = (x0^(1-beta) + wtilde_t)^(gamma+1) e^(-bt) while the level
    y = x0^(1-beta) + wtilde is positive. A row hits at the first grid
    index where y <= 0 or where the lift of a positive y underflows to
    x == 0.0 (large b t does this, e.g. b = 800 at t = 60/64 with no
    noise), so x is strictly positive before the hit and exactly 0 from
    it on. Zero-hit detection is grid-based.

    Raises OverflowError (check_lift) when the lift of a positive level
    before the hit is not finite; a NaN there would otherwise read as a
    hit.

    Returns (x, y, hit): the lifted rows, the untruncated levels and the
    per-row hit indices (n+1 for a row that never hits).
    """
    if p.a != 0.0:
        raise ValueError("explicit solution requires a = 0")
    y = p.y0 + tilde_w
    with np.errstate(over="ignore", invalid="ignore"):
        x = lift(np.where(y > 0.0, y, 0.0), times, p)
    hit = first_hit(np.where(np.isfinite(x), x, 1.0))
    x[np.arange(x.shape[-1]) >= hit[..., None]] = 0.0
    check_lift(x, times, p)  # only values before the hit are left to check
    return x, y, hit


def explicit_solution_a0(driver: SamplePath, p: ModelParams) -> TruncatedPath:
    """The one-row case of explicit_a0_matrix, as a TruncatedPath."""
    wt = tilde_w_path(driver, p)
    x, _, hit = explicit_a0_matrix(wt.values[None], wt.times, p)
    k = int(hit[0])
    return TruncatedPath(SamplePath(wt.times, x[0]), k if k < x.shape[1] else None)
