import numpy as np
import pytest
from scipy.fft import next_fast_len

from gmr.drivers import (
    CovarianceError,
    SamplePath,
    brownian_kernel,
    covariance_matrix,
    covariance_rows,
    custom_kernel,
    fbm_kernel,
    grid_index,
    sample_path_matrix,
    sample_paths,
    uniform_grid,
    _BLOCK,
    _CIRCULANT_MIN_N,
    _block_rng,
    _cholesky_with_jitter,
    _circulant_paths,
    _circulant_scale,
    _fgn_circulant_row,
    _next_fast_len,
)


def kernel_eval(kernel, s, t):
    """Covariance c(s, t) of the driver, one pair at a time: the samplers' oracle."""
    if kernel.kind == "fbm":
        h2 = 2.0 * kernel.hurst
        return 0.5 * (s**h2 + t**h2 - abs(t - s) ** h2)
    if kernel.kind == "brownian":
        return min(s, t)
    return float(kernel.matrix[grid_index(kernel.grid, s), grid_index(kernel.grid, t)])


def test_kernel_eval_fbm_values():
    assert kernel_eval(fbm_kernel(0.9), 1.0, 1.0) == pytest.approx(1.0, abs=1e-15)
    assert kernel_eval(fbm_kernel(0.5), 1.0, 2.0) == pytest.approx(1.0, abs=1e-15)
    # 0.5 * (1 + 2^1.5 - 1) = sqrt(2)
    assert kernel_eval(fbm_kernel(0.75), 1.0, 2.0) == pytest.approx(
        np.sqrt(2.0), rel=1e-14
    )


def test_kernel_eval_brownian_is_min():
    k = brownian_kernel()
    assert kernel_eval(k, 0.3, 1.7) == 0.3
    assert kernel_eval(k, 1.7, 0.3) == 0.3


def test_kernel_eval_symmetric():
    rng = np.random.default_rng(0)
    k = fbm_kernel(0.7)
    for _ in range(50):
        s, t = rng.uniform(0, 5, size=2)
        assert kernel_eval(k, s, t) == kernel_eval(k, t, s)


def test_kernel_eval_starts_at_zero():
    for k in (fbm_kernel(0.3), fbm_kernel(0.8), brownian_kernel()):
        for t in (0.0, 0.5, 2.0):
            assert kernel_eval(k, 0.0, t) == 0.0


def test_custom_kernel_off_grid_errors():
    grid = uniform_grid(4, 1.0)
    k = custom_kernel(grid, lambda s, t: min(s, t), holder_exponent=0.5)
    assert kernel_eval(k, 0.25, 0.5) == 0.25
    with pytest.raises(ValueError, match="not on the grid"):
        kernel_eval(k, 0.3, 0.5)


def _scalar_grid_index(grid, times):
    """grid_index one time at a time: the indices, or the first ValueError's message."""
    try:
        return [grid_index(grid, t) for t in times]
    except ValueError as exc:
        return str(exc)


@pytest.mark.parametrize("seed", range(4))
def test_grid_index_on_arrays_matches_the_scalar_loop(seed):
    # times just inside and just outside the 1e-9 relative tolerance of
    # uniform and uneven grids, past both ends included: the array call
    # gives the scalar loop's indices in the times' shape, or raises the
    # scalar loop's first ValueError
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 300))
    horizon = 10.0 ** rng.uniform(-3.0, 3.0)
    uneven = np.concatenate([[0.0], np.cumsum(rng.uniform(0.1, 1.0, n))])
    for grid in (uniform_grid(n, horizon), horizon * uneven / uneven[-1]):
        on = grid[rng.integers(0, n + 1, 60)]
        tol = 1e-9 * np.maximum(np.abs(on), grid[-1])
        inside = on + rng.choice([-0.999, -0.5, 0.0, 0.5, 0.999], on.size) * tol
        outside = on + rng.choice([-1.001, 1.001], on.size) * tol
        want = _scalar_grid_index(grid, inside)
        assert isinstance(want, list) and np.array_equal(grid_index(grid, inside), want)
        assert grid_index(grid, inside.reshape(6, 10)).shape == (6, 10)
        assert grid_index(grid, inside[:0]).shape == (0,)
        for times in (outside, np.concatenate([inside[:30], outside[:5], inside[30:]])):
            want = _scalar_grid_index(grid, times)
            assert isinstance(want, str)
            with pytest.raises(ValueError) as exc:
                grid_index(grid, times)
            assert str(exc.value) == want


def test_grid_index_keeps_its_scalar_form():
    grid = uniform_grid(8, 2.0)
    assert grid_index(grid, 0.5) == 2 and type(grid_index(grid, 0.5)) is int
    assert grid_index(grid, -1e-12) == 0 and grid_index(grid, 2.0 + 1e-9) == 8
    for t in (2.0 + 3e-9, -1e-8, float("nan")):
        with pytest.raises(ValueError, match=f"^time {t!r} is not on the grid$"):
            grid_index(grid, t)
    for bad in ("0.5", None):
        with pytest.raises(TypeError):
            grid_index(grid, bad)


@pytest.mark.parametrize("t", [np.inf, -np.inf, np.nan])
def test_grid_index_puts_nonfinite_times_off_the_grid(t):
    # the tolerance 1e-9 max(|t|, T) is infinite at t = +-inf, which used
    # to match the last or the first grid point
    grid = uniform_grid(8, 2.0)
    with pytest.raises(ValueError, match=f"^time {t!r} is not on the grid$"):
        grid_index(grid, t)
    with pytest.raises(ValueError, match=f"^time {t!r} is not on the grid$"):
        grid_index(grid, np.array([[0.5, 1.0], [t, 2.0]]))
    assert np.array_equal(grid_index(grid, np.array([0.5, 2.0])), [2, 8])


def test_custom_kernel_validation():
    grid = uniform_grid(2, 1.0)
    asym = np.array([[0.0, 0.0, 0.0], [0.0, 1.0, 0.5], [0.0, 0.2, 1.0]])
    with pytest.raises(ValueError, match="symmetric"):
        custom_kernel(grid, asym, holder_exponent=0.5)
    nonzero_row = np.array([[0.1, 0.0, 0.0], [0.0, 1.0, 0.5], [0.0, 0.5, 1.0]])
    with pytest.raises(ValueError, match="vanish"):
        custom_kernel(grid, nonzero_row, holder_exponent=0.5)
    # an inf entry made np.allclose's atol infinite, and a NaN read as asymmetric
    for bad in (np.inf, -np.inf, np.nan):
        mat = np.array([[0.0, 0.0, 0.0], [0.0, 1.0, 0.5], [0.0, 0.5, bad]])
        with pytest.raises(ValueError, match="^covariance must be finite$"):
            custom_kernel(grid, mat, holder_exponent=0.5)
        with pytest.raises(ValueError, match="^covariance must be finite$"):
            custom_kernel(grid, lambda s, t: bad if s == t == 1.0 else min(s, t),
                          holder_exponent=0.5)
    for bad in ([0.0, np.nan, 2.0], [0.0, 1.0, np.inf]):
        with pytest.raises(ValueError, match="finite and strictly increasing"):
            custom_kernel(np.array(bad), lambda s, t: min(s, t), holder_exponent=0.5)


@pytest.mark.parametrize("hurst", [0.3, 0.5, 0.75, 0.95])
def test_covariance_matrix_exactly_symmetric(hurst):
    grid = uniform_grid(64, 2.0)
    cov = covariance_matrix(fbm_kernel(hurst), grid)
    assert np.array_equal(cov, cov.T)
    nonuniform = np.concatenate(([0.0], np.sort(np.random.default_rng(1).uniform(0.01, 2, 20))))
    cov2 = covariance_matrix(fbm_kernel(hurst), nonuniform)
    assert np.array_equal(cov2, cov2.T)


def test_covariance_matrix_uniform_fast_path_matches_dense():
    t = uniform_grid(50, 1.5)
    h2 = 2 * 0.8
    dense = 0.5 * (t[:, None] ** h2 + t[None, :] ** h2 - np.abs(t[:, None] - t[None, :]) ** h2)
    fast = covariance_matrix(fbm_kernel(0.8), t)
    np.testing.assert_allclose(fast, dense, rtol=0, atol=1e-15)


def _whole_covariance(kernel, t):
    """The covariance matrix as one expression per route, from before it was
    built from row blocks: the oracle of covariance_rows."""
    from scipy.linalg import toeplitz

    if kernel.kind == "fbm":
        h2 = 2.0 * kernel.hurst
        pw = t**h2
        if t.size > 2 and np.allclose(np.diff(t), t[1], rtol=1e-9, atol=0):
            lag = (np.arange(t.size) * (t[1] - t[0])) ** h2
            out = 0.5 * (pw[:, None] + pw[None, :] - toeplitz(lag))
            out[0] = out[:, 0] = 0.0  # t_j^(2H) and (j dt)^(2H) may differ in the last bit
            return out
        return 0.5 * (pw[:, None] + pw[None, :] - np.abs(t[:, None] - t[None, :]) ** h2)
    if kernel.kind == "brownian":
        return np.minimum(t[:, None], t[None, :])
    return kernel.matrix


@pytest.mark.parametrize("route", ["fbm-uniform", "fbm-nonuniform", "brownian", "custom"])
def test_covariance_rows_are_the_whole_matrix_rows_bitwise(route):
    uniform = uniform_grid(300, 1.3)
    t = {"fbm-nonuniform": np.concatenate(([0.0], np.cumsum(
        np.random.default_rng(1).uniform(0.1, 1.0, 200)))), "custom": uniform_grid(40, 1.0)
    }.get(route, uniform)
    kernel = {
        "fbm-uniform": fbm_kernel(0.8),
        "fbm-nonuniform": fbm_kernel(0.3),
        "brownian": brownian_kernel(),
        "custom": custom_kernel(t, covariance_matrix(fbm_kernel(0.4), t), holder_exponent=0.4),
    }[route]
    whole = _whole_covariance(kernel, t)
    assert np.array_equal(covariance_matrix(kernel, t), whole)
    size = t.size
    for start, stop in [(0, 1), (1, 2), (5, 17), (0, size), (size // 2, size), (size - 1, size),
                        (7, 7)]:
        assert np.array_equal(covariance_rows(kernel, t, start, stop), whole[start:stop])


def test_uniform_fbm_covariance_vanishes_on_the_t0_row():
    # at n = 1100, T = 1.5, H = 0.4 the power table left 1.1e-16 there, and
    # custom_kernel rejected the matrix
    for n, horizon, hurst in ((1100, 1.5, 0.4), (255, 1.0, 0.7), (4096, 3.0, 0.9)):
        t = uniform_grid(n, horizon)
        whole = covariance_matrix(fbm_kernel(hurst), t)
        assert not whole[0].any() and not whole[:, 0].any()
        assert not covariance_rows(fbm_kernel(hurst), t, 5, 9)[:, 0].any()
    custom_kernel(uniform_grid(1100, 1.5),
                  covariance_matrix(fbm_kernel(0.4), uniform_grid(1100, 1.5)), holder_exponent=0.4)


def test_sample_paths_deterministic_and_start_at_zero():
    grid = uniform_grid(32, 1.0)
    k = fbm_kernel(0.7)
    first = sample_paths(k, grid, 3, seed=7)
    second = sample_paths(k, grid, 3, seed=7)
    for a, b in zip(first, second):
        assert np.array_equal(a.values, b.values)
        assert a.values[0] == 0.0


def test_sample_paths_index_independent_of_count():
    grid = uniform_grid(16, 1.0)
    k = brownian_kernel()
    lone = sample_paths(k, grid, 1, seed=11)[0]
    batch = sample_paths(k, grid, 33, seed=11)
    assert np.array_equal(lone.values, batch[0].values)
    matrix = sample_path_matrix(k, grid, 33, seed=11)
    for i, p in enumerate(batch):
        assert np.array_equal(p.times, grid)
        assert np.array_equal(matrix[i], p.values)


_COUNTS = (1, 31, 32, 33, 65)


def _kernels_for(grid):
    n1 = grid.size
    custom_cov = 0.5 * (np.minimum.outer(grid, grid) + covariance_matrix(fbm_kernel(0.4), grid))
    return [
        fbm_kernel(0.3),
        fbm_kernel(0.9),
        brownian_kernel(),
        custom_kernel(grid, custom_cov, holder_exponent=0.4),
        custom_kernel(grid, np.zeros((n1, n1)), holder_exponent=1.0),
    ]


# both sides of the fBm circulant crossover, and well above it
@pytest.mark.parametrize(
    "n", [2, 16, 255, _CIRCULANT_MIN_N - 1, _CIRCULANT_MIN_N, 2 * _CIRCULANT_MIN_N]
)
def test_sample_path_matrix_rows_independent_of_count(n):
    grid = uniform_grid(n, 1.0)
    for k in _kernels_for(grid):
        full = sample_path_matrix(k, grid, 100, seed=19)
        for count in _COUNTS:
            assert np.array_equal(sample_path_matrix(k, grid, count, seed=19), full[:count])


def _block_normals(seed, count, width):
    """Rows 0..count-1 of the normals stream: block b's generator, row by row."""
    blocks = -(-count // _BLOCK)
    z = np.concatenate([_block_rng(seed, b).standard_normal((_BLOCK, width)) for b in range(blocks)])
    return z[:count]


@pytest.mark.parametrize("n", [16, 255])
def test_sample_path_matrix_matches_per_path_oracle(n):
    # below the crossover every kernel maps n normals per row; Brownian
    # motion by a running sum, which is its Cholesky factor times z
    grid = uniform_grid(n, 1.0)
    z = _block_normals(23, 40, n)
    for k in _kernels_for(grid):
        factor = _cholesky_with_jitter(covariance_matrix(k, grid)[1:, 1:])
        oracle = np.array([factor @ row for row in z])
        rows = sample_path_matrix(k, grid, 40, seed=23)
        assert np.all(rows[:, 0] == 0.0)
        # entries near zero come from cancellation, so scale the tolerance by the path size
        scale = np.abs(oracle).max()
        np.testing.assert_allclose(rows[:, 1:], oracle, rtol=1e-12, atol=1e-12 * scale)


def test_next_fast_len_is_scipys():
    assert [_next_fast_len(n) for n in range(1, 20001)] == [
        next_fast_len(n) for n in range(1, 20001)]


def test_circulant_rows_match_one_row_transforms():
    # above the crossover fBm row i is the circulant map of its own
    # 2 next_fast_len(n) normals, bitwise; 1031 is not a fast length, 1024 is
    k = fbm_kernel(0.7)
    for n in (_CIRCULANT_MIN_N, 1031):
        grid = uniform_grid(n, 2.0)
        z = _block_normals(23, 40, 2 * next_fast_len(n))
        scale = _circulant_scale(_fgn_circulant_row(0.7, n, 2.0 / n))
        oracle = np.concatenate([_circulant_paths(row[None, :], scale, n) for row in z])
        rows = sample_path_matrix(k, grid, 40, seed=23)
        assert np.array_equal(rows[:, 1:], oracle)


@pytest.mark.parametrize("hurst", [0.05, 0.3, 0.5, 0.75, 0.95])
def test_fgn_circulant_row_is_the_increment_autocovariance(hurst):
    n, dt = 16, 0.125
    k = fbm_kernel(hurst)
    row = _fgn_circulant_row(hurst, n, dt)
    assert row.shape == (2 * n,)
    # Cov(W_dt - W_0, W_(j+1)dt - W_jdt) at lag j = min(i, 2n - i)
    lag = np.minimum(np.arange(2 * n), 2 * n - np.arange(2 * n))
    oracle = [kernel_eval(k, dt, (j + 1) * dt) - kernel_eval(k, dt, j * dt) for j in lag]
    np.testing.assert_allclose(row, oracle, rtol=0, atol=1e-14)


@pytest.mark.parametrize("hurst", [0.05, 0.3, 0.5, 0.75, 0.95])
@pytest.mark.parametrize("n", [1, 7, 13, 32])
def test_circulant_paths_have_the_fbm_covariance(hurst, n):
    # the map z -> path is linear, so the rows it gives the unit vectors
    # are a factor: their Gram matrix is the path covariance, exactly.
    # n = 13 is embedded at the fast length 14 and keeps 13 increments.
    horizon = 1.7
    grid = uniform_grid(n, horizon)
    row = _fgn_circulant_row(hurst, n, horizon / n)
    assert row.size == 2 * next_fast_len(n)
    factor_t = _circulant_paths(np.eye(row.size), _circulant_scale(row), n)
    cov = covariance_matrix(fbm_kernel(hurst), grid)[1:, 1:]
    np.testing.assert_allclose(factor_t.T @ factor_t, cov, rtol=0, atol=1e-14)


def test_circulant_negative_eigenvalue_errors():
    # eigenvalues of this circulant are 3.3, 0.5, 0.5 and -0.3
    with pytest.raises(CovarianceError, match="circulant embedding"):
        _circulant_scale(np.array([1.0, 0.9, 0.5, 0.9]))


@pytest.mark.parametrize(
    "grid, count, message",
    [
        (np.array([0.5, 1.0, 1.5]), 1, "start at 0"),
        (np.array([0.0]), 1, "start at 0"),
        (np.zeros((2, 2)), 1, "start at 0"),
        (np.array([0.0, 0.1, 0.3]), 1, "uniform"),
        (np.array([0.0, -0.5, -1.0]), 1, "uniform and increasing"),
        (np.array([0.0, np.nan, 1.0]), 1, "finite and uniform"),
        (np.array([0.0, 0.5, np.inf]), 1, "finite and uniform"),
        (uniform_grid(4, 1.0), 0, "count"),
    ],
    ids=["late-start", "one-point", "two-d", "nonuniform", "decreasing", "nan", "inf-end",
         "zero-count"],
)
def test_sample_path_matrix_rejects_bad_arguments(grid, count, message):
    for k in (fbm_kernel(0.7), brownian_kernel()):
        with pytest.raises(ValueError, match=message):
            sample_path_matrix(k, grid, count, seed=0)
        with pytest.raises(ValueError, match=message):
            sample_paths(k, grid, count, seed=0)


# H drawn over (0.05, 0.95), from one fixed seed, with H < 1/2 forced in
_SWEEP_HURSTS = np.concatenate(([0.1, 0.4], np.random.default_rng(2024).uniform(0.05, 0.95, 6)))


@pytest.mark.parametrize("n", [_CIRCULANT_MIN_N - 1, _CIRCULANT_MIN_N])
def test_sampler_covariance_sweep_across_the_crossover(n):
    # criterion 7's tolerance: every sample covariance on a coarse grid lies
    # within 4 standard errors of covariance_matrix, for fBm on both sides
    # of the crossover (Cholesky below, circulant at and above) and Brownian.
    # The grid spans one step to the horizon, where Var W_t = t^(2H) is
    # most sensitive to H.
    m = 1000
    grid = uniform_grid(n, 1.0)
    idx = [1, n // 32, n // 4, n // 2, n]
    kernels = [fbm_kernel(h) for h in _SWEEP_HURSTS] + [brownian_kernel()]
    for seed, k in enumerate(kernels):
        rows = sample_path_matrix(k, grid, m, seed=seed)[:, idx]
        est = np.cov(rows, rowvar=False, ddof=1)
        truth = covariance_matrix(k, grid[idx])
        se = np.sqrt((truth**2 + np.outer(np.diag(truth), np.diag(truth))) / (m - 1))
        z = np.abs(est - truth) / se
        assert z.max() <= 4.0, (k, z.max())


def test_sample_paths_zero_kernel_gives_zero_paths():
    grid = uniform_grid(8, 1.0)
    k = custom_kernel(grid, np.zeros((9, 9)), holder_exponent=1.0)
    for p in sample_paths(k, grid, 2, seed=0):
        assert np.all(p.values == 0.0)


def test_sample_paths_indefinite_covariance_errors():
    grid = np.array([0.0, 1.0, 2.0])
    # eigenvalues of the lower block are 3 and -1: far beyond jitter repair
    bad = np.array([[0.0, 0.0, 0.0], [0.0, 1.0, 2.0], [0.0, 2.0, 1.0]])
    k = custom_kernel(grid, bad, holder_exponent=0.5)
    with pytest.raises(CovarianceError, match="smallest eigenvalue"):
        sample_paths(k, grid, 1, seed=0)


def test_sample_paths_variance_matches_kernel():
    # Monte Carlo oracle: sample variance at t = 1 vs kernel_eval(1, 1)
    grid = uniform_grid(16, 1.0)
    k = fbm_kernel(0.6)
    m = 5000
    vals = sample_path_matrix(k, grid, m, seed=123)[:, -1]
    target = kernel_eval(k, 1.0, 1.0)
    est = np.var(vals, ddof=1)
    se = target * np.sqrt(2.0 / (m - 1))
    assert abs(est - target) <= 3 * se


def test_empirical_covariance_against_kernel():
    grid = uniform_grid(16, 2.0)
    k = fbm_kernel(0.75)
    m = 5000
    rows = sample_path_matrix(k, grid, m, seed=5)
    est = np.cov(rows[:, 8], rows[:, 16], ddof=1)[0, 1]  # t = 1 and 2
    target = kernel_eval(k, 1.0, 2.0)
    var_est = (target**2 + kernel_eval(k, 1, 1) * kernel_eval(k, 2, 2)) / (m - 1)
    assert abs(est - target) <= 3 * np.sqrt(var_est)


def test_fbm_increment_stationarity():
    # variance of W_{t+l} - W_t is l^{2H} whatever t
    hurst = 0.7
    grid = uniform_grid(32, 2.0)
    m = 2000
    vals = sample_path_matrix(fbm_kernel(hurst), grid, m, seed=21)
    lag_steps = 8
    lag = grid[lag_steps]
    target = lag ** (2 * hurst)
    se = target * np.sqrt(2.0 / (m - 1))
    for start in (0, 8, 16, 24):
        inc = vals[:, start + lag_steps] - vals[:, start]
        assert abs(np.var(inc, ddof=1) - target) <= 3 * se


def test_fbm_self_similarity_of_variances():
    # Var(W_{eps t}) = eps^{2H} Var(W_t)
    hurst = 0.8
    eps = 0.25
    grid = uniform_grid(16, 2.0)
    m = 4000
    vals = sample_path_matrix(fbm_kernel(hurst), grid, m, seed=33)
    t_idx, et_idx = 8, 2  # t = 1, eps*t = 0.25
    target = eps ** (2 * hurst) * grid[t_idx] ** (2 * hurst)
    se = target * np.sqrt(2.0 / (m - 1))
    assert abs(np.var(vals[:, et_idx], ddof=1) - target) <= 3 * se


def test_sample_path_validation():
    with pytest.raises(ValueError, match="start at 0"):
        SamplePath(np.array([0.5, 1.0]), np.array([0.0, 1.0]))
    with pytest.raises(ValueError, match="increasing"):
        SamplePath(np.array([0.0, 1.0, 1.0]), np.zeros(3))
    for bad in ([0.0, np.nan, 2.0], [0.0, 1.0, np.inf], [0.0, 1.0, np.nan]):
        with pytest.raises(ValueError, match="finite and strictly increasing"):
            SamplePath(np.array(bad), np.zeros(3))
    with pytest.raises(ValueError, match="equal length"):
        SamplePath(np.array([0.0, 1.0]), np.zeros(3))
