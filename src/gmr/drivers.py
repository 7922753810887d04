"""Centered Gaussian driver paths on uniform grids.

Supported covariance kernels: fractional Brownian motion (Hurst H),
standard Brownian motion, and user-supplied kernels pinned to a grid.
Every route samples exactly:

- Brownian motion is a scaled running sum of normals, O(n) per path;
- fBm on ``_CIRCULANT_MIN_N`` steps or more embeds its stationary
  increments in a circulant of size 2m, with m = _next_fast_len(n) >= n
  (Davies & Harte 1987), whose eigenvalues are nonnegative (Dietrich &
  Newsam 1997), O(n log n) per path after one rfft;
- fBm on fewer steps and custom kernels go through a dense Cholesky
  factor of the grid covariance, with a bounded jitter escalation for
  nearly singular matrices. The Cholesky route is also the tests' oracle.

Paths are drawn in fixed blocks of ``_BLOCK`` rows, one generator keyed
by (seed, block) and one GEMM or FFT per block; the last block is
zero-padded so every product has the same shape and row i never depends
on how many paths were asked for. driver_blocks hands the blocks out one
at a time; sample_path_matrix stacks them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional, Union

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

__all__ = [
    "CovarianceError",
    "SamplePath",
    "CovarianceKernel",
    "fbm_kernel",
    "brownian_kernel",
    "custom_kernel",
    "uniform_grid",
    "covariance_matrix",
    "covariance_rows",
    "sample_paths",
    "sample_path_matrix",
    "driver_blocks",
]

# jitter escalation: start at 1e-12 * max diagonal, x10 until 1e-8, then fail
_JITTER_START = 1e-12
_JITTER_STOP = 1e-8

_GRID_RTOL = 1e-9

# paths per generator and per GEMM or FFT; a fixed shape keeps rows
# count-independent
_BLOCK = 32

# fBm on at least this many steps is sampled by circulant embedding, below it
# by Cholesky: the circulant needs 2n normals per path against n, and for
# large ensembles a GEMM with the factor is cheaper up to n of about 900
# (2-core timings of 2000 and 5000 paths at n = 256 to 2048)
_CIRCULANT_MIN_N = 1024

# a circulant eigenvalue below -_EIG_RTOL times the largest is not rounding
_EIG_RTOL = 1e-12


class CovarianceError(RuntimeError):
    """Covariance matrix could not be factorized (even after jitter)."""


@dataclass(frozen=True)
class SamplePath:
    """A path on a time grid (checked_grid): times start at 0 and increase strictly.

    Used for drivers (values[0] == 0), weighted integrals and solutions
    alike; it is the common currency between modules.
    """

    times: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        times = checked_grid(self.times)
        values = np.asarray(self.values, dtype=float)
        if times.shape != values.shape:
            raise ValueError("times and values must have equal length")
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "values", values)

    @property
    def n_steps(self) -> int:
        return self.times.size - 1


def checked_grid(times, uniform: bool = False) -> np.ndarray:
    """times as a float array, which must be a time grid.

    A time grid is 1-d with at least 2 points, starts at 0, increases
    strictly and is finite (no NaN, and no inf at its end); with
    ``uniform`` its steps must also be equal (_is_uniform).
    """
    times = np.asarray(times, dtype=float)
    if not (times.ndim == 1 and times.size >= 2 and times[0] == 0.0
            and np.all(np.diff(times) > 0.0) and np.isfinite(times[-1])
            and (not uniform or _is_uniform(times))):
        shape = "uniform and increasing" if uniform else "strictly increasing"
        raise ValueError(f"grid must start at 0 and be finite and {shape}, "
                         "with at least 2 points")
    return times


def uniform_grid(n: int, horizon: float) -> np.ndarray:
    """n+1 equally spaced times on [0, horizon]."""
    if n < 1:
        raise ValueError("need at least one step")
    if horizon <= 0:
        raise ValueError("horizon must be positive")
    if not np.isfinite(horizon):
        raise ValueError("horizon must be finite")
    return np.linspace(0.0, float(horizon), n + 1)


def grid_index(grid: np.ndarray, t):
    """Index of t in grid, matched to relative tolerance; error off-grid.

    t may be an array of times, for an array of indices of its shape: one
    searchsorted, then the first of the neighbours i-1, i, i+1 within
    1e-9 max(|t|, grid[-1]) of t. A NaN or infinite time is off the
    grid. An off-grid time raises ValueError, naming the first one.
    """
    grid = np.asarray(grid, dtype=float)
    times = np.asarray(t)
    if times.dtype.kind not in "biuf":
        raise TypeError(f"grid times must be real numbers, not {times.dtype}")
    times = times.astype(float)
    i = np.searchsorted(grid, times)
    tol = _GRID_RTOL * np.maximum(np.maximum(np.abs(times), grid[-1]), 1e-300)
    idx = np.full(times.shape, -1)
    for j in (i + 1, i, i - 1):  # the last written, so the first in order, wins
        near = np.abs(grid[np.clip(j, 0, grid.size - 1)] - times) <= tol
        idx = np.where(near & (0 <= j) & (j < grid.size), j, idx)
    off = (idx < 0) | ~np.isfinite(times)
    if off.any():
        raise ValueError(f"time {float(times[off][0])!r} is not on the grid")
    return int(idx) if idx.ndim == 0 else idx


def _is_uniform(times: np.ndarray) -> bool:
    d = np.diff(times)
    return bool(np.all(np.abs(d - d[0]) <= 1e-9 * abs(d[0])))


@dataclass(frozen=True)
class CovarianceKernel:
    """Law of the centered Gaussian driver.

    ``holder_exponent`` is the path regularity exponent used downstream
    (for fBm we record H itself and absorb the epsilon loss in test
    tolerances). Custom kernels are pinned to the grid they were built
    on; evaluating them off that grid is an error.
    """

    kind: str
    holder_exponent: float
    hurst: Optional[float] = None
    grid: Optional[np.ndarray] = field(default=None, repr=False)
    matrix: Optional[np.ndarray] = field(default=None, repr=False)

    def __post_init__(self):
        if self.kind not in ("fbm", "brownian", "custom"):
            raise ValueError(f"unknown kernel kind {self.kind!r}")
        if not 0.0 < self.holder_exponent <= 1.0:
            raise ValueError("holder_exponent must lie in (0, 1]")
        if self.kind == "fbm":
            if self.hurst is None or not 0.0 < self.hurst < 1.0:
                raise ValueError("fbm kernel needs Hurst parameter in (0, 1)")
        if self.kind == "custom":
            if self.grid is None or self.matrix is None:
                raise ValueError("custom kernel needs a grid and a matrix")


def fbm_kernel(hurst: float) -> CovarianceKernel:
    """Fractional Brownian motion; recorded Holder exponent is H."""
    return CovarianceKernel(kind="fbm", holder_exponent=hurst, hurst=hurst)


def brownian_kernel() -> CovarianceKernel:
    """Standard Brownian motion (the fBm H = 1/2 special case)."""
    return CovarianceKernel(kind="brownian", holder_exponent=0.5)


def custom_kernel(
    grid: np.ndarray,
    cov: Union[Callable[[float, float], float], np.ndarray],
    holder_exponent: float,
) -> CovarianceKernel:
    """Kernel given by an explicit function or matrix on a fixed grid.

    The covariance is materialized on ``grid`` at construction and
    validated: finite, symmetric, zero on the ``t = 0`` row/column.
    """
    grid = checked_grid(grid)
    if callable(cov):
        mat = np.array([[float(cov(s, t)) for t in grid] for s in grid])
    else:
        mat = np.asarray(cov, dtype=float)
        if mat.shape != (grid.size, grid.size):
            raise ValueError("matrix shape must match the grid")
    if not np.isfinite(mat).all():
        raise ValueError("covariance must be finite")
    if not np.allclose(mat, mat.T, rtol=0, atol=1e-12 * max(1.0, np.abs(mat).max())):
        raise ValueError("covariance must be symmetric")
    mat = 0.5 * (mat + mat.T)
    if np.any(mat[0] != 0.0) or np.any(mat[:, 0] != 0.0):
        raise ValueError("covariance must vanish on the t = 0 row (driver starts at 0)")
    return CovarianceKernel(
        kind="custom", holder_exponent=holder_exponent, grid=grid, matrix=mat
    )


def covariance_matrix(kernel: CovarianceKernel, times: np.ndarray) -> np.ndarray:
    """Covariance matrix of the driver on the given times (symmetric)."""
    return covariance_rows(kernel, times, 0, np.size(times))


def covariance_rows(kernel: CovarianceKernel, times: np.ndarray, start: int,
                    stop: int) -> np.ndarray:
    """Rows start to stop - 1 of covariance_matrix(kernel, times), bitwise.

    Each entry is computed from its own pair of times (or read from a
    custom kernel's matrix), so a caller that walks the matrix in row
    blocks never holds all of it.
    """
    times = np.asarray(times, dtype=float)
    rows = times[start:stop]
    if kernel.kind == "fbm":
        h2 = 2.0 * kernel.hurst
        pw = times**h2
        if times.size > 2 and stop > start and _is_uniform(times):
            # uniform grid: |t_i - t_j| takes only n distinct values, so a
            # 1-d power table beats n^2 fractional pow calls. Entry (i, j)
            # is lag[|i - j|]: row i is the window of table[m] =
            # lag[|m - (stop - 1)|] that starts at m = stop - 1 - i, a view
            dt = times[1] - times[0]
            lag = (np.arange(times.size) * dt) ** h2
            table = lag[np.abs(np.arange(stop - start + times.size - 1) - (stop - 1))]
            toeplitz = sliding_window_view(table, times.size)[::-1]
            out = 0.5 * (pw[start:stop, None] + pw[None, :] - toeplitz)
            # t_j^(2H) of the linspace times and (j dt)^(2H) can differ in
            # the last bit; the t = 0 row and column are exact zeros, as
            # the pairwise branch below gives them
            out[:, 0] = 0.0
            if start == 0:
                out[0] = 0.0
            return out
        return 0.5 * (pw[start:stop, None] + pw[None, :]
                      - np.abs(rows[:, None] - times[None, :]) ** h2)
    if kernel.kind == "brownian":
        return np.minimum(rows[:, None], times[None, :])
    idx = grid_index(kernel.grid, times)
    return kernel.matrix[np.ix_(idx[start:stop], idx)]


def _cholesky_with_jitter(cov: np.ndarray) -> np.ndarray:
    """Lower Cholesky factor, escalating diagonal jitter before giving up."""
    maxdiag = float(np.max(np.diag(cov))) if cov.size else 0.0
    if maxdiag == 0.0:
        if np.any(cov != 0.0):
            raise CovarianceError("zero diagonal with nonzero off-diagonal entries")
        return np.zeros_like(cov)
    try:
        return np.linalg.cholesky(cov)
    except np.linalg.LinAlgError:
        pass
    jitter = _JITTER_START * maxdiag
    eye = np.eye(cov.shape[0])
    while jitter <= _JITTER_STOP * maxdiag * (1 + 1e-12):
        try:
            return np.linalg.cholesky(cov + jitter * eye)
        except np.linalg.LinAlgError:
            jitter *= 10.0
    smallest = float(np.linalg.eigvalsh(cov).min())
    raise CovarianceError(
        "covariance factorization failed after jitter escalation "
        f"(smallest eigenvalue estimate {smallest:.3e})"
    )


def _block_rng(seed: int, block: int) -> np.random.Generator:
    # one independent stream per (seed, block); it draws the rows of its
    # block in order, so row i depends on (seed, i) alone and never on the
    # ensemble size or on iteration order. Normals are most of the sampling
    # time, and PCG64 draws them faster than Philox (16 against 22 ns each
    # on a 2-core x86 VM).
    ss = np.random.SeedSequence(entropy=int(seed), spawn_key=(int(block),))
    return np.random.Generator(np.random.PCG64(ss))


def sample_paths(
    kernel: CovarianceKernel,
    grid: np.ndarray,
    count: int,
    seed: int,
) -> list[SamplePath]:
    """Draw independent centered Gaussian paths with the kernel's covariance.

    Parameters
    ----------
    kernel : CovarianceKernel
        Driver law.
    grid : ndarray
        ``n + 1`` uniform times on ``[0, T]`` starting at 0.
    count : int
        Number of independent paths.
    seed : int
        Master seed; path ``i`` is a deterministic function of ``(seed, i)``.

    Returns
    -------
    list of SamplePath
        Each with ``values[0] == 0``; the rows of sample_path_matrix.
    """
    grid = np.asarray(grid, dtype=float)
    return [SamplePath(grid, row) for row in sample_path_matrix(kernel, grid, count, seed)]


def _next_fast_len(n: int) -> int:
    """Smallest 2^a 3^b 5^c 7^d 11^e >= n, for n >= 1.

    The fast FFT lengths of scipy.fft.next_fast_len for complex input.
    Each odd part q below 2n (the power of two at or above n is less than
    that) is raised by the least power of two that reaches n.
    """
    odd = [1]
    for p in (3, 5, 7, 11):
        for q in odd[:]:
            while q * p < 2 * n:
                q *= p
                odd.append(q)
    return min(q << (-(-n // q) - 1).bit_length() for q in odd)


def _fgn_circulant_row(hurst: float, n: int, dt: float) -> np.ndarray:
    """First row of a circulant embedding of n fBm increments, of size 2m.

    m = _next_fast_len(n) keeps the FFTs fast whatever the factors of n;
    the first n increments of the m embedded ones are those of the grid.
    Entry k is the autocovariance of fractional Gaussian noise at lag
    ``min(k, 2m - k)`` for steps of length dt.
    """
    m = _next_fast_len(n)
    h2 = 2.0 * hurst
    k = np.arange(m + 1, dtype=float)
    gamma = 0.5 * dt**h2 * ((k + 1.0) ** h2 - 2.0 * k**h2 + np.abs(k - 1.0) ** h2)
    return np.concatenate((gamma, gamma[m - 1:0:-1]))


def _circulant_scale(row: np.ndarray) -> np.ndarray:
    """Per-frequency scale of the Hermitian spectrum for a circulant row.

    The eigenvalues of the circulant (one rfft of its first row) must be
    nonnegative up to rounding: below -1e-12 times the largest one the
    embedding is not a covariance and CovarianceError is raised.
    """
    lam = np.fft.rfft(row).real
    if lam.min() < -_EIG_RTOL * lam.max():
        raise CovarianceError(
            "circulant embedding is not nonnegative definite "
            f"(smallest eigenvalue {lam.min():.3e}, largest {lam.max():.3e})"
        )
    # a complex mode carries half its variance in each of re and im
    scale = np.sqrt(0.5 * row.size * np.maximum(lam, 0.0))
    scale[[0, -1]] *= np.sqrt(2.0)  # frequencies 0 and m are real
    return scale


def _circulant_paths(z: np.ndarray, scale: np.ndarray, n: int) -> np.ndarray:
    """Paths on n steps from rows of 2m normals, one batched Hermitian irfft.

    The first m+1 normals of a row are the real parts of frequencies 0..m,
    the other m-1 the imaginary parts of frequencies 1..m-1. The irfft
    gives 2m values whose covariance is the circulant; the first n are the
    increments, and their running sum is the path.
    """
    m = scale.size - 1
    w = np.empty((z.shape[0], m + 1), dtype=complex)
    w.real = z[:, :m + 1] * scale
    w.imag[:, 0] = w.imag[:, m] = 0.0
    w.imag[:, 1:m] = z[:, m + 1:] * scale[1:m]
    return np.cumsum(np.fft.irfft(w, 2 * m, axis=1)[:, :n], axis=1)


def _block_sampler(kernel: CovarianceKernel, grid: np.ndarray):
    """(normals per row, map from rows of normals to values on grid[1:], row-wise).

    A row-wise map transforms each row alone, so it is bitwise the same on
    any number of rows; the Cholesky map is a GEMM, whose rounding can
    depend on its shape, so it must be given a full block.
    """
    n = grid.size - 1
    dt = grid[-1] / n
    if kernel.kind == "brownian":
        step = np.sqrt(dt)
        return n, lambda z: step * np.cumsum(z, axis=1), True
    if kernel.kind == "fbm" and n >= _CIRCULANT_MIN_N:
        row = _fgn_circulant_row(kernel.hurst, n, dt)
        scale = _circulant_scale(row)
        return row.size, lambda z: _circulant_paths(z, scale, n), True
    # the Cholesky factor of the covariance on grid[1:] (t = 0 is pinned at 0)
    factor = _cholesky_with_jitter(covariance_matrix(kernel, grid)[1:, 1:])
    return n, lambda z: z @ factor.T, False


def driver_blocks(kernel: CovarianceKernel, grid: np.ndarray, count: int, seed: int):
    """The rows of sample_path_matrix, one block of _BLOCK rows at a time.

    Returns an iterator of ``(start, rows)``: rows ``start`` to
    ``start + len(rows) - 1`` of the (count, n+1) matrix, each starting at
    0, and bitwise those rows. The grid, the count and the covariance are
    checked when this is called, before any row is drawn. A caller that
    maps each block as it comes (to wtilde, say) never holds the whole
    driver matrix.
    """
    grid = checked_grid(grid, uniform=True)
    if count < 1:
        raise ValueError("count must be >= 1")
    width, rows_from, row_wise = _block_sampler(kernel, grid)

    def blocks():
        z = np.empty((_BLOCK, width))
        for block, start in enumerate(range(0, count, _BLOCK)):
            rows = min(_BLOCK, count - start)
            _block_rng(seed, block).standard_normal(out=z[:rows])
            z[rows:] = 0.0
            paths = np.empty((rows, grid.size))
            paths[:, 0] = 0.0
            paths[:, 1:] = rows_from(z[:rows] if row_wise else z)[:rows]
            yield start, paths

    return blocks()


def sample_path_matrix(
    kernel: CovarianceKernel, grid: np.ndarray, count: int, seed: int
) -> np.ndarray:
    """Independent driver paths on a uniform grid as a (count, n+1) array.

    Row i is a fixed linear map of the normals drawn for it: row i % _BLOCK
    of the generator keyed by (seed, i // _BLOCK). The map is one of

    - Brownian motion: ``sqrt(dt) * cumsum(z)`` from n normals;
    - fBm with n >= _CIRCULANT_MIN_N: the circulant embedding of its
      increments, from 2 _next_fast_len(n) normals (_circulant_paths);
    - otherwise: the Cholesky factor of the grid covariance, from n normals.

    Rows are mapped in blocks of _BLOCK (driver_blocks). On the Cholesky
    route the last block is zero-padded to full size, so every GEMM has the
    same shape; the other two routes map only the rows drawn, each row
    alone. Either way row i is bitwise the same whatever ``count`` is
    (under one BLAS build and thread count).
    """
    blocks = driver_blocks(kernel, grid, count, seed)
    out = np.empty((count, np.size(grid)))
    for start, rows in blocks:
        out[start:start + rows.shape[0]] = rows
    return out
