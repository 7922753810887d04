"""Ensemble simulation and statistical probes for the solution law.

Covers moment estimates and pathwise bounds, zero-hit statistics of the
a = 0 solution, the Gaussian survival-probability lower bound, the
self-similarity identity in distribution, small-noise concentration
around the deterministic skeleton, and a non-degeneracy smoke test for
marginal laws. Everything is reproducible: path i of an ensemble depends
only on (seed, i), never on the ensemble size or execution order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .artifacts import write_csv, write_json
from .drivers import (
    _BLOCK,
    CovarianceKernel,
    driver_blocks,
    fbm_kernel,
    grid_index,
    sample_path_matrix,
    uniform_grid,
)
from .solver import (
    deterministic_ode_solution,
    nested_sup_errors,
    solve_columns,
    solve_matrix,
    sup_bound,
)
from .transform import ModelParams, sample_tilde_w, tilde_w_matrix, tilde_w_variance

__all__ = [
    "EnsembleSpec",
    "EnsembleStats",
    "EnsembleResult",
    "SurvivalReport",
    "HorizonHitRate",
    "ScalingCheck",
    "DensitySmoke",
    "ensemble_simulate",
    "ensemble_stats",
    "sup_bound_violations",
    "lp_convergence_check",
    "survival_bound_check",
    "hitting_time_stats",
    "scaling_identity_check",
    "small_noise_probe",
    "density_smoke",
    "stats_to_json",
    "paths_to_csv",
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
    """Everything needed to reproduce an ensemble bit for bit."""

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
            raise ValueError("M must be >= 1")
        if self.n < 2:
            raise ValueError("n must be >= 2")
        if self.horizon <= 0:
            raise ValueError("horizon must be positive")
        if any(p < 1 for p in self.p_exponents):
            raise ValueError("moment exponents must be >= 1")


@dataclass(frozen=True)
class EnsembleStats:
    lp_estimates: dict
    hit_fraction: float
    hit_times: np.ndarray
    marginal_samples: dict


@dataclass(frozen=True)
class EnsembleResult:
    """Stats plus the raw arrays backing them (the raw paths handle)."""

    spec: EnsembleSpec
    stats: EnsembleStats
    times: np.ndarray
    x: np.ndarray  # (M, n+1) solution values, possibly Fortran-ordered
    y: np.ndarray  # (M, n+1) transformed level (pre-truncation for a = 0), likewise
    driver_sup: np.ndarray  # (M,) realized sup norms of the raw driver


def _solved_chunks(spec: EnsembleSpec, times: np.ndarray, width: int):
    """The ensemble solved ``width`` paths at a time, in path order.

    Yields (first, x, y, hit, driver_sup) for paths first to
    first + len(hit) - 1. Each sampled block's driver sup norms are taken
    and its wtilde written into the columns of a time-major (n+1, width)
    array, which solve_columns then solves in place, so a chunk holds two
    such arrays and never the driver matrix. width is M or a multiple of
    the sampler's block, so no block straddles two chunks. Every path's
    Newton iterates are independent of the rest of its batch, so the
    chunks are bitwise the whole ensemble's columns.
    """
    blocks = driver_blocks(spec.kernel, times, spec.M, spec.seed)
    for first in range(0, spec.M, width):
        wt = np.empty((times.size, min(width, spec.M - first)))
        driver_sup = np.empty(wt.shape[1])
        for start, rows in blocks:
            cols = slice(start - first, start - first + rows.shape[0])
            driver_sup[cols] = np.max(np.abs(rows), axis=1)
            wt[:, cols] = tilde_w_matrix(rows, times, spec.params).T
            if cols.stop == wt.shape[1]:
                break
        yield (first, *solve_columns(spec.params, times, wt), driver_sup)


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
    for first, x, _, hit, _ in chunks:
        stop = first + hit.size
        np.max(x, axis=1, out=sups[first:stop])
        hit_steps[first:stop] = hit
        for t, k in columns.items():
            marginal[t][first:stop] = x[:, k]
        del x  # free this chunk before the next one is solved
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
    _, x, y, _, driver_sup = chunk
    return EnsembleResult(
        spec=spec,
        stats=_statistics(spec, times, [chunk]),
        times=times,
        x=x,
        y=y,
        driver_sup=driver_sup,
    )


def ensemble_stats(spec: EnsembleSpec) -> EnsembleStats:
    """ensemble_simulate(spec).stats, bitwise, in O(chunk n + M) memory.

    The paths are solved in chunks of _CHUNK_PATHS, fewer where n is so
    large that a chunk's arrays would pass _CHUNK_BYTES, and each chunk is
    reduced to its per-path sup norms, hit indices and marginal values
    before the next is solved, so no (M, n+1) array is held. Off-grid
    marginal times raise before any path is drawn.
    """
    times = uniform_grid(spec.n, spec.horizon)
    width = _BLOCK * max(1, min(_CHUNK_PATHS, _CHUNK_BYTES // (8 * times.size)) // _BLOCK)
    return _statistics(spec, times, _solved_chunks(spec, times, width))


def sup_bound_violations(result: EnsembleResult, tol: float = 1e-9) -> int:
    """Count paths whose realized ||x||_inf exceeds the pathwise bound."""
    p = result.spec.params
    horizon = result.spec.horizon
    bounds = np.array([sup_bound(p, s, horizon) for s in result.driver_sup])
    return int(np.sum(np.max(np.abs(result.x), axis=1) > bounds * (1.0 + tol)))


def lp_convergence_check(
    p: ModelParams,
    kernel: CovarianceKernel,
    M: int,
    n_list,
    ref_n: int,
    p_exponent: float,
    horizon: float = 1.0,
    seed: int = 0,
) -> np.ndarray:
    """L^p error of the scheme against a nested fine reference.

    Returns E[||X^n - X^ref||_inf^p]^(1/p) for each n, estimated over M
    common driver paths: the mean over the rows of nested_sup_errors.
    """
    n_list = sorted(int(n) for n in n_list)
    if p.a <= 0:
        raise ValueError("the scheme error study needs a > 0")
    times = uniform_grid(ref_n, horizon)
    wt = sample_tilde_w(kernel, times, M, seed, p)
    return np.array([
        float(np.mean(d**p_exponent) ** (1.0 / p_exponent))
        for d in nested_sup_errors(p, times, wt, n_list)
    ])


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
    construction. Each block of sampled paths is solved as it is drawn
    and only its hit indices are kept.
    """
    if p.a != 0.0:
        raise ValueError("hitting-time statistics apply to the a = 0 solution")
    if M < 1:
        raise ValueError("M must be >= 1")
    if steps_per_unit < 1:
        raise ValueError("steps_per_unit must be >= 1")
    horizons = sorted(float(t) for t in horizons)
    if horizons[0] <= 0:
        raise ValueError("horizons must be positive")
    t_max = horizons[-1]
    n = max(2, int(round(steps_per_unit * t_max)))
    times = uniform_grid(n, t_max)
    hit_steps = np.empty(M, dtype=int)
    for start, rows in driver_blocks(kernel, times, M, seed):
        hit_steps[start:start + rows.shape[0]] = solve_matrix(
            p, times, tilde_w_matrix(rows, times, p))[2]
    hit_time = np.where(hit_steps < times.size, times[np.minimum(hit_steps, n)], np.inf)
    out = []
    for t in horizons:
        frac = float(np.mean(hit_time <= t * (1 + 1e-12)))
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


@dataclass(frozen=True)
class ScalingCheck:
    eps: float
    t: float
    ks_statistic: float
    p_value: float
    passed: bool


def scaling_identity_check(
    p: ModelParams,
    hurst: float,
    eps: float,
    t: float,
    M: int,
    n: int = 256,
    seed: int = 0,
) -> ScalingCheck:
    """Two-sample KS test of the self-similarity identity for fBm drivers.

    Compares samples of X_{eps t} with samples at t of the equation with
    coefficients (eps a, eps b, eps^H sigma); the identity says the two
    laws coincide. Passes when the KS p-value exceeds 1%.
    """
    if not 0.0 < eps <= 1.0:
        raise ValueError("eps must lie in (0, 1]")
    k = eps * n
    if abs(k - round(k)) > 1e-9:
        raise ValueError("eps * n must be an integer so eps*t is a grid point")
    kernel = fbm_kernel(hurst)
    times = uniform_grid(n, t)
    seed_left, seed_right = (int(s) for s in np.random.SeedSequence(seed).generate_state(2))
    x_left, _, _ = solve_matrix(p, times, sample_tilde_w(kernel, times, M, seed_left, p))
    left = x_left[:, int(round(k))]
    scaled = ModelParams(
        x0=p.x0, a=eps * p.a, b=eps * p.b, sigma=p.sigma * eps**hurst, beta=p.beta
    )
    x_right, _, _ = solve_matrix(scaled, times,
                                 sample_tilde_w(kernel, times, M, seed_right, scaled))
    right = x_right[:, -1]
    from scipy.stats import ks_2samp  # deferred: scipy.stats dominates import time

    stat, pvalue = ks_2samp(left, right)
    return ScalingCheck(
        eps=eps,
        t=t,
        ks_statistic=float(stat),
        p_value=float(pvalue),
        passed=bool(pvalue > 0.01),
    )


def small_noise_probe(
    p: ModelParams,
    kernel: CovarianceKernel,
    eps_list,
    M: int,
    n: int = 128,
    horizon: float = 1.0,
    seed: int = 0,
    quantiles=(0.5, 0.9),
) -> list[dict]:
    """Concentration of the solution around the noise-free skeleton.

    For each eps (decreasing), the noise scale becomes eps * sigma and
    the sup distance to the deterministic solution is summarized by
    quantiles over M paths; the same driver ensemble is reused across
    eps levels (common random numbers).
    """
    eps_list = [float(e) for e in eps_list]
    if any(e2 >= e1 for e1, e2 in zip(eps_list, eps_list[1:])):
        raise ValueError("eps_list must be strictly decreasing")
    if any(e < 0 for e in eps_list):
        raise ValueError("eps must be nonnegative")
    times = uniform_grid(n, horizon)
    skeleton = deterministic_ode_solution(p, times)
    drivers = sample_path_matrix(kernel, times, M, seed)
    out = []
    for eps in eps_list:
        if eps == 0.0:
            dist = np.zeros(M)
        else:
            scaled = ModelParams(x0=p.x0, a=p.a, b=p.b, sigma=eps * p.sigma, beta=p.beta)
            x, _, _ = solve_matrix(scaled, times, tilde_w_matrix(drivers, times, scaled))
            dist = np.max(np.abs(x - skeleton[None, :]), axis=1)
        out.append(
            {
                "eps": eps,
                "quantiles": {float(q): float(np.quantile(dist, q)) for q in quantiles},
            }
        )
    return out


@dataclass(frozen=True)
class DensitySmoke:
    applicable: bool
    sample_variance: float
    distinct_fraction: float


def density_smoke(spec: EnsembleSpec, t: float) -> DensitySmoke:
    """Weak numerical face of absolute continuity of the marginal law.

    With noise on and t > 0 the marginal sample must have positive
    variance and no repeated values at double precision.
    """
    applicable = spec.params.sigma > 0 and t > 0
    probe = replace(spec, marginal_times=(t,))
    samples = ensemble_simulate(probe).stats.marginal_samples[float(t)]
    var = float(np.var(samples, ddof=1)) if samples.size > 1 else 0.0
    distinct = float(np.unique(samples).size / samples.size)
    return DensitySmoke(
        applicable=applicable, sample_variance=var, distinct_fraction=distinct
    )


def stats_to_json(stats: EnsembleStats, path) -> None:
    write_json(
        path,
        {
            "lp_estimates": [
                {"p": p, "estimate": v} for p, v in sorted(stats.lp_estimates.items())
            ],
            "hit_fraction": stats.hit_fraction,
            "hit_times": [float(t) for t in stats.hit_times],
            "marginal_samples": {
                "%.17g" % t: [float(v) for v in vals]
                for t, vals in sorted(stats.marginal_samples.items())
            },
        },
    )


def paths_to_csv(result: EnsembleResult, path) -> None:
    """Raw ensemble matrix as CSV: columns t, path_0, ..., path_{M-1}."""
    header = ["t"] + [f"path_{i}" for i in range(result.x.shape[0])]
    write_csv(path, header, np.column_stack([result.times, result.x.T]))
