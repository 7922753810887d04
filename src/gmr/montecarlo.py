"""Ensemble simulation and statistics of the solution law.

Covers moment estimates E||X||_inf^p, marginal samples, zero-hit
statistics of the a = 0 solution and the Gaussian survival-probability
lower bound. Everything is reproducible: path i of an ensemble depends
only on (seed, i), never on the ensemble size or execution order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .drivers import (
    _BLOCK,
    CovarianceKernel,
    driver_blocks,
    grid_index,
    uniform_grid,
)
from .solver import solve_columns
from .transform import ModelParams, tilde_w_matrix, tilde_w_variance

__all__ = [
    "EnsembleSpec",
    "EnsembleStats",
    "EnsembleResult",
    "SurvivalReport",
    "HorizonHitRate",
    "ensemble_simulate",
    "ensemble_stats",
    "survival_bound_check",
    "hitting_time_stats",
]

_DEFAULT_P = (1.0, 2.0, 4.0, 8.0)

# paths per chunk of ensemble_stats. Each time step of the scheme costs a
# fixed number of numpy calls per chunk, so narrow chunks pay that more
# often: on a 2-CPU VM, M = 2000 and n = 1024 took 0.36 s in chunks of
# 1024 paths and 0.30 s in one chunk. Past n = 511 the chunk shrinks, in
# whole sampler blocks, to keep each (n+1, chunk) array within
# _CHUNK_BYTES: 4064 paths at n = 1024, 992 at n = 4096
_CHUNK_PATHS = 8192
_CHUNK_BYTES = 32 << 20


@dataclass(frozen=True)
class EnsembleSpec:
    """Everything needed to reproduce an ensemble bit for bit.

    Checked when built, before any path is drawn: every marginal time
    must lie on uniform_grid(n, horizon), and every moment exponent must
    be finite and >= 1. Each error message starts with its field's name.
    """

    params: ModelParams
    kernel: CovarianceKernel
    M: int
    n: int
    seed: int
    horizon: float = 1.0
    marginal_times: tuple = ()
    p_exponents: tuple = _DEFAULT_P

    def __post_init__(self):
        if self.M < 1:
            raise ValueError("M: must be >= 1")
        if self.n < 2:
            raise ValueError("n: must be >= 2")
        if not 0 < self.horizon < math.inf:
            raise ValueError("horizon: must be positive and finite")
        if not all(1 <= p < math.inf for p in self.p_exponents):
            raise ValueError("p_exponents: must be finite and >= 1")
        times = uniform_grid(self.n, self.horizon)
        for t in self.marginal_times:
            try:
                grid_index(times, t)
            except ValueError as exc:
                raise ValueError(f"marginal_times: {exc}") from None


@dataclass(frozen=True)
class EnsembleStats:
    lp_estimates: dict
    hit_fraction: float
    hit_times: np.ndarray
    marginal_samples: dict


@dataclass(frozen=True)
class EnsembleResult:
    """Stats plus the raw arrays backing them (the raw paths handle)."""

    stats: EnsembleStats
    times: np.ndarray
    x: np.ndarray  # (M, n+1) solution values, possibly Fortran-ordered
    y: np.ndarray  # (M, n+1) transformed level (pre-truncation for a = 0), likewise


def _solved_chunks(spec: EnsembleSpec, times: np.ndarray, width: int):
    """The ensemble solved ``width`` paths at a time, in path order.

    Yields (first, x, y, hit) for paths first to first + len(hit) - 1.
    Each sampled block's wtilde is written into the columns of a
    time-major (n+1, width) array, which solve_columns then solves in
    place, so a chunk holds two such arrays and never the driver matrix.
    width is M or a multiple of the sampler's block, so no block
    straddles two chunks. Every path's Newton iterates are independent of
    the rest of its batch, so the chunks are bitwise the whole ensemble's
    columns.
    """
    blocks = driver_blocks(spec.kernel, times, spec.M, spec.seed)
    for first in range(0, spec.M, width):
        wt = np.empty((times.size, min(width, spec.M - first)))
        for start, rows in blocks:
            cols = slice(start - first, start - first + rows.shape[0])
            wt[:, cols] = tilde_w_matrix(rows, times, spec.params).T
            if cols.stop == wt.shape[1]:
                break
        yield (first, *solve_columns(spec.params, times, wt))


def _statistics(spec: EnsembleSpec, times: np.ndarray, chunks) -> EnsembleStats:
    """EnsembleStats of solved chunks, each reduced to per-path numbers.

    A path keeps its sup norm, its hit index and its values at the
    marginal times. x >= 0 (a = 0 paths are 0 once absorbed), so the sup
    norm is the max of x. Raises OverflowError when an lp estimate is not
    finite: sups**p can overflow where x does not.
    """
    columns = {float(t): grid_index(times, t) for t in spec.marginal_times}
    sups = np.empty(spec.M)
    hit_steps = np.empty(spec.M, dtype=int)
    marginal = {t: np.empty(spec.M) for t in columns}
    for first, x, y, hit in chunks:
        stop = first + hit.size
        np.max(x, axis=1, out=sups[first:stop])
        hit_steps[first:stop] = hit
        for t, k in columns.items():
            marginal[t][first:stop] = x[:, k]
        del x, y  # free this chunk before the next one is solved
    with np.errstate(over="ignore"):
        lp = {float(p): float(np.mean(sups**p) ** (1.0 / p)) for p in spec.p_exponents}
    if not all(math.isfinite(v) for v in lp.values()):
        raise OverflowError(f"an lp estimate is not finite: {lp}")
    hits = hit_steps < times.size
    return EnsembleStats(
        lp_estimates=lp,
        hit_fraction=float(np.mean(hits)),
        hit_times=times[hit_steps[hits]] if hits.any() else np.empty(0),
        marginal_samples=marginal,
    )


def ensemble_simulate(spec: EnsembleSpec) -> EnsembleResult:
    """Simulate M independent solution paths and aggregate their stats.

    All M paths are solved as one chunk: a time-major (n+1, M) wtilde
    array that becomes x once the nodes exist, so the call holds two
    (M, n+1) arrays, x and y, which it returns. It is not chunked further,
    since chunks of 1024 paths cost about 20% more time at M = 2000; a
    caller that wants only the statistics takes ensemble_stats.
    """
    times = uniform_grid(spec.n, spec.horizon)
    (chunk,) = _solved_chunks(spec, times, spec.M)
    _, x, y, _ = chunk
    return EnsembleResult(
        stats=_statistics(spec, times, [chunk]),
        times=times,
        x=x,
        y=y,
    )


def ensemble_stats(spec: EnsembleSpec) -> EnsembleStats:
    """ensemble_simulate(spec).stats, bitwise, in O(chunk n + M) memory.

    The paths are solved in chunks of _CHUNK_PATHS, fewer where n is so
    large that a chunk's arrays would pass _CHUNK_BYTES, and each chunk is
    reduced to its per-path sup norms, hit indices and marginal values
    before the next is solved, so no (M, n+1) array is held.
    """
    times = uniform_grid(spec.n, spec.horizon)
    width = _BLOCK * max(1, min(_CHUNK_PATHS, _CHUNK_BYTES // (8 * times.size)) // _BLOCK)
    return _statistics(spec, times, _solved_chunks(spec, times, width))


@dataclass(frozen=True)
class SurvivalReport:
    applicable: bool
    empirical: float
    bound: float
    std_error: float
    sigma_bar_sq: float
    passed: bool


def survival_bound_check(
    y0: float,
    p: ModelParams,
    kernel: CovarianceKernel,
    grid: np.ndarray,
    M: int,
    seed: int = 0,
) -> SurvivalReport:
    """Gaussian concentration bound on the no-hit event for a = 0.

    The event {inf wtilde > -y0} implies the solution lives on the whole
    horizon; its probability is at least 1 - 2 exp(-y0^2 / (2 sbar^2))
    with sbar^2 the largest variance of wtilde on the grid, provided
    2 sbar^2 ln 2 < y0^2 (otherwise the check is reported not applicable).
    Of p, only the weight (b, sigma, beta) enters; its x0 is never read.

    Each block of sampled paths is reduced to its no-hit flags as it is
    drawn, and sbar^2 comes from row blocks of the driver covariance
    (tilde_w_variance), so neither the (M, n+1) paths nor an (n+1)^2
    matrix is held.
    """
    if y0 <= 0:
        raise ValueError("y0 must be positive")
    if M < 1:
        raise ValueError("M must be >= 1")
    grid = np.asarray(grid, dtype=float)
    blocks = driver_blocks(kernel, grid, M, seed)  # checks the grid before the O(n^2) work
    sigma_bar_sq = float(np.max(tilde_w_variance(p, kernel, grid)))
    applicable = 2.0 * sigma_bar_sq * math.log(2.0) < y0**2
    bound = 1.0 - 2.0 * math.exp(-(y0**2) / (2.0 * sigma_bar_sq)) if sigma_bar_sq > 0 else 1.0
    survived = np.empty(M, dtype=bool)
    for start, rows in blocks:
        survived[start:start + rows.shape[0]] = np.min(tilde_w_matrix(rows, grid, p), axis=1) > -y0
    empirical = float(np.mean(survived))
    se = math.sqrt(empirical * (1.0 - empirical) / M)
    passed = bool(applicable and empirical >= bound - 2.0 * se)
    return SurvivalReport(
        applicable=applicable,
        empirical=empirical,
        bound=bound,
        std_error=se,
        sigma_bar_sq=sigma_bar_sq,
        passed=passed,
    )


@dataclass(frozen=True)
class HorizonHitRate:
    horizon: float
    fraction: float
    ci_low: float
    ci_high: float


def hitting_time_stats(
    p: ModelParams,
    kernel: CovarianceKernel,
    M: int,
    horizons,
    steps_per_unit: int = 64,
    seed: int = 0,
) -> list[HorizonHitRate]:
    """Fraction of a = 0 paths absorbed by each horizon, with 95% CIs.

    One ensemble is simulated on the largest horizon and each path's hit
    time reused across horizons, so the fractions are monotone by
    construction. The paths go through ensemble_stats' loop in chunks of
    one sampler block, so only a few numbers per path are held.
    """
    if p.a != 0.0:
        raise ValueError("hitting-time statistics apply to the a = 0 solution")
    if M < 1:
        raise ValueError("M must be >= 1")
    if steps_per_unit < 1:
        raise ValueError("steps_per_unit must be >= 1")
    horizons = sorted(float(t) for t in horizons)
    if not horizons or not all(0 < t < math.inf for t in horizons):
        raise ValueError("horizons must be a nonempty list of positive finite times")
    t_max = horizons[-1]
    spec = EnsembleSpec(params=p, kernel=kernel, M=M, n=max(2, round(steps_per_unit * t_max)),
                        seed=seed, horizon=t_max, p_exponents=())
    times = uniform_grid(spec.n, t_max)
    hit_times = _statistics(spec, times, _solved_chunks(spec, times, _BLOCK)).hit_times
    out = []
    for t in horizons:
        frac = np.count_nonzero(hit_times <= t * (1 + 1e-12)) / M
        se = math.sqrt(frac * (1.0 - frac) / M)
        out.append(
            HorizonHitRate(
                horizon=t,
                fraction=frac,
                ci_low=max(0.0, frac - 1.96 * se),
                ci_high=min(1.0, frac + 1.96 * se),
            )
        )
    return out

