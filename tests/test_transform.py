import math

import numpy as np
import pytest
from scipy.integrate import cumulative_trapezoid

from gmr.drivers import (
    SamplePath,
    brownian_kernel,
    covariance_matrix,
    custom_kernel,
    fbm_kernel,
    sample_paths,
    uniform_grid,
)
from gmr.pk import build_quad_grid
from gmr.solver import solve_matrix
from gmr.transform import (
    ModelParams,
    first_hit,
    lift_into,
    theta_weight,
    tilde_w_covariance_matrix,
    tilde_w_matrix,
    tilde_w_path,
    tilde_w_variance,
    y0_from_x0,
)


def lift(y, times, p):
    """The lift x = y^(gamma+1) e^(-bt), elementwise: the oracle of lift_into.

    ``times`` broadcasts against ``y``: one grid for (M, n+1) rows, or
    one time per entry (such as a per-row stopping time).
    """
    return y ** (p.gamma + 1.0) * np.exp(-p.b * times)


def _params(**kw):
    base = dict(x0=1.0, a=0.0, b=0.0, sigma=1.0, beta=0.5)
    base.update(kw)
    return ModelParams(**base)


def test_model_params_validation():
    with pytest.raises(ValueError):
        _params(x0=0.0)
    with pytest.raises(ValueError):
        _params(beta=1.0)
    with pytest.raises(ValueError):
        _params(beta=0.0)
    with pytest.raises(ValueError):
        _params(a=-0.1)
    with pytest.raises(ValueError):
        _params(sigma=-1.0)


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("field", ["x0", "a", "b", "sigma"])
def test_model_params_reject_nonfinite_constants(field, value):
    # a NaN or infinite sigma used to run, and an ensemble then reported a
    # hit fraction of 1 and lp estimates of 0
    with pytest.raises(ValueError, match=f"^{field} must be finite$"):
        _params(**{field: value})


def test_model_params_derived_exponents():
    p = _params(beta=0.75)
    assert p.gamma == 3.0  # 0.75 / 0.25 exactly
    assert p.mu == 1.0
    q = _params(beta=0.25)
    assert q.gamma == pytest.approx(1.0 / 3.0, rel=1e-15)
    assert q.mu == q.gamma


def test_theta_weight_values():
    assert theta_weight(0.0, _params(beta=0.5, b=3.0)) == 0.5
    assert theta_weight(1.7, _params(sigma=2.0, beta=0.75, b=0.0)) == 0.5
    p = _params(sigma=1.0, beta=0.8, b=4.0)
    assert theta_weight(1.0, p) == pytest.approx(0.2 * math.exp(0.8), rel=1e-14)


def test_tilde_w_zero_noise_is_zero():
    p = _params(sigma=0.0, b=2.0, beta=0.7)
    grid = uniform_grid(32, 1.0)
    driver = SamplePath(grid, np.sin(grid))
    assert np.all(tilde_w_path(driver, p).values == 0.0)


def test_tilde_w_constant_weight_is_exact():
    # b = 0: the weight is constant, so wtilde = sigma(1-beta) w pointwise
    p = _params(sigma=2.0, b=0.0, beta=0.5)
    grid = uniform_grid(64, 1.0)
    driver = sample_paths(fbm_kernel(0.7), grid, 1, seed=3)[0]
    wt = tilde_w_path(driver, p)
    assert np.array_equal(wt.values, 1.0 * driver.values)


def test_tilde_w_smooth_path_oracle():
    # driver w_t = t: wtilde_1 = int_0^1 0.5 e^s ds = 0.5 (e - 1)
    p = _params(sigma=1.0, b=2.0, beta=0.5)
    grid = uniform_grid(2000, 1.0)
    wt = tilde_w_path(SamplePath(grid, grid.copy()), p)
    assert wt.values[0] == 0.0
    assert wt.values[-1] == pytest.approx(0.5 * (math.e - 1.0), abs=1e-6)


@pytest.mark.parametrize("b", [0.0, 0.3, 2.0])
def test_tilde_w_matrix_is_scipy_cumulative_trapezoid_bitwise(b):
    # the running trapezoid sum is scipy's, operation for operation, on
    # uniform and nonuniform grids
    rng = np.random.default_rng(int(10 * b))
    p = _params(sigma=0.7, b=b, beta=0.6)
    for grid in (uniform_grid(50, 2.0), np.concatenate(([0.0], np.cumsum(rng.uniform(0.01, 0.1, 40))))):
        rows = rng.standard_normal((7, grid.size))
        rows[:, 0] = 0.0
        th = theta_weight(grid, p)
        scipy_form = th[None, :] * rows - cumulative_trapezoid(
            (p.b * (1.0 - p.beta) * th)[None, :] * rows, grid, axis=1, initial=0.0)
        assert np.array_equal(tilde_w_matrix(rows, grid, p), scipy_form)


def test_tilde_w_covariance_zero_noise():
    p = _params(sigma=0.0, b=1.0, beta=0.6)
    grid = uniform_grid(16, 1.0)
    assert tilde_w_covariance_matrix(p, brownian_kernel(), grid)[8, 16] == 0.0


def test_tilde_w_covariance_brownian_exact_when_b_zero():
    p = _params(sigma=1.3, b=0.0, beta=0.5)
    grid = uniform_grid(16, 2.0)
    expected = 1.3**2 * 0.25 * 0.5  # sigma^2 (1-beta)^2 min(s, t)
    got = tilde_w_covariance_matrix(p, brownian_kernel(), grid)[4, 12]  # s = 0.5, t = 1.5
    assert got == pytest.approx(expected, abs=1e-12)


def test_tilde_w_covariance_brownian_quadrature_oracle():
    # closed form int_0^1 theta_u^2 du = 0.25 (e^2 - 1) / 2 for sigma=1, beta=0.5, b=2
    p = _params(sigma=1.0, b=2.0, beta=0.5)
    grid = uniform_grid(512, 1.0)
    got = tilde_w_covariance_matrix(p, brownian_kernel(), grid)[512, 512]
    assert got == pytest.approx(0.125 * (math.e**2 - 1.0), rel=1e-4)


def test_tilde_w_covariance_matrix_symmetric():
    p = _params(sigma=0.8, b=1.5, beta=0.7)
    grid = uniform_grid(32, 1.0)
    mat = tilde_w_covariance_matrix(p, fbm_kernel(0.7), grid)
    assert np.array_equal(mat, mat.T)


def _four_term_covariance(p, kernel, grid):
    """Cov(wtilde) expanded by hand, each integral by trapezoid on the grid:

        theta_s theta_t c(s,t) - theta_s int_0^t theta'_v c(s,v) dv
            - theta_t int_0^s theta'_u c(u,t) du
            + int_0^s int_0^t theta'_u theta'_v c(u,v) du dv
    """
    cov = covariance_matrix(kernel, grid)
    th = theta_weight(grid, p)
    dth = p.b * (1.0 - p.beta) * th
    inner = cumulative_trapezoid(cov * dth[None, :], grid, axis=1, initial=0.0)
    double = cumulative_trapezoid(inner * dth[:, None], grid, axis=0, initial=0.0)
    cross = th[:, None] * inner
    out = np.outer(th, th) * cov - cross - cross.T + double
    return 0.5 * (out + out.T)


COVARIANCE_GRIDS = {
    "uniform": uniform_grid(128, 1.0),
    "schedule": build_quad_grid(np.array([0.02, 0.05, 0.1, 0.2, 0.35, 0.5, 0.75, 1.0, 1.5])),
}


@pytest.mark.parametrize("name", sorted(COVARIANCE_GRIDS))
@pytest.mark.parametrize("kernel", [brownian_kernel(), fbm_kernel(0.3), fbm_kernel(0.9)],
                         ids=["brownian", "fbm0.3", "fbm0.9"])
def test_tilde_w_covariance_matches_the_four_term_expansion(kernel, name):
    # A C A^T against the expansion, with b(1-beta)T <= 9 on both grids
    grid = COVARIANCE_GRIDS[name]
    for b in (0.0, 1.0, 4.0, 12.0):
        for beta in (0.5, 0.8):
            p = _params(sigma=1.3, b=b, beta=beta)
            got = tilde_w_covariance_matrix(p, kernel, grid)
            want = _four_term_covariance(p, kernel, grid)
            assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))


@pytest.mark.parametrize("n", [2, 255, 256, 513, 600, 1100])
@pytest.mark.parametrize("kernel", [brownian_kernel(), fbm_kernel(0.3), fbm_kernel(0.8), "custom"],
                         ids=["brownian", "fbm0.3", "fbm0.8", "custom"])
def test_tilde_w_variance_is_the_covariance_diagonal_bitwise(kernel, n):
    # row blocks of 256: one block, one full block, blocks that end one
    # row into the next and partway through it, and three and five blocks
    grid = uniform_grid(n, 1.5)
    if kernel == "custom":
        mixed = 0.5 * (np.minimum.outer(grid, grid) + covariance_matrix(fbm_kernel(0.4), grid))
        kernel = custom_kernel(grid, mixed, holder_exponent=0.4)
    for b, beta, sigma in ((0.0, 0.5, 1.0), (1.0, 0.7, 0.3), (5.0, 0.2, 2.0)):
        p = _params(sigma=sigma, b=b, beta=beta)
        want = np.diag(tilde_w_covariance_matrix(p, kernel, grid))
        assert np.array_equal(tilde_w_variance(p, kernel, grid), want)
    nonuniform = build_quad_grid(np.array([0.02, 0.05, 0.1, 0.2, 0.35, 0.5, 0.75, 1.0, 1.5]))
    if kernel.kind == "fbm":
        assert np.array_equal(tilde_w_variance(p, kernel, nonuniform),
                              np.diag(tilde_w_covariance_matrix(p, kernel, nonuniform)))
    for bad in (grid[::-1], np.append(grid, math.inf), np.where(grid == grid[1], math.nan, grid)):
        with pytest.raises(ValueError, match="strictly increasing"):
            tilde_w_variance(p, kernel, bad)


@pytest.mark.parametrize("kernel", [brownian_kernel(), fbm_kernel(0.7)])
def test_tilde_w_covariance_against_monte_carlo(kernel):
    p = _params(sigma=1.0, b=1.0, beta=0.7)
    horizon = 1.0
    grid = uniform_grid(64, horizon)
    m = 5000
    drivers = sample_paths(kernel, grid, m, seed=17)
    wt_paths = [tilde_w_path(d, p) for d in drivers]
    # each single path is bitwise its row of the matrix routine
    rows = tilde_w_matrix(np.array([d.values for d in drivers]), grid, p)
    assert all(np.array_equal(w.values, row) for w, row in zip(wt_paths, rows))
    full = tilde_w_covariance_matrix(p, kernel, grid)
    for i, j in ((16, 32), (32, 64), (16, 64)):  # (T/4, T/2), (T/2, T), (T/4, T)
        mc = np.cov(rows[:, i], rows[:, j], ddof=1)[0, 1]
        truth = full[i, j]
        se = np.sqrt((truth**2 + full[i, i] * full[j, j]) / (m - 1))
        assert abs(mc - truth) <= 4 * se


def test_y0_from_x0_values():
    assert y0_from_x0(1.0, _params(beta=0.37)) == 1.0
    assert y0_from_x0(16.0, _params(beta=0.75)) == pytest.approx(2.0, rel=1e-15)
    assert y0_from_x0(0.5, _params(beta=0.8)) == pytest.approx(0.5**0.2, rel=1e-15)
    with pytest.raises(ValueError):
        y0_from_x0(0.0, _params())
    with pytest.raises(ValueError):
        y0_from_x0(-2.0, _params())


def test_lift_values():
    grid = uniform_grid(4, 1.0)
    p = _params(beta=0.5, b=0.0)
    assert np.all(lift_into(np.empty(5), np.full(5, 2.0), grid, p) == 4.0)
    q = _params(beta=0.5, b=1.0)
    assert lift_into(np.empty(5), np.ones(5), grid, q)[-1] == pytest.approx(math.exp(-1.0),
                                                                           rel=1e-15)


def test_lift_roundtrip_identity():
    p = _params(beta=0.8, b=2.5, sigma=0.3)
    grid = uniform_grid(64, 1.0)
    y = 1.0 + 0.5 * np.sin(3 * grid) + 0.1 * grid
    x = lift_into(np.empty_like(y), y, grid, p)
    assert np.array_equal(x, lift(y, grid, p))
    # the algebraic inverse y = x^(1-beta) e^(b(1-beta)t)
    back = x ** (1.0 - p.beta) * np.exp(p.b * (1.0 - p.beta) * grid)
    np.testing.assert_allclose(back, y, rtol=1e-12)


def _explicit(driver, p):
    """One row of solve_matrix (a = 0) on the driver's wtilde: (x, hit index)."""
    x, _, hit = solve_matrix(p, driver.times, tilde_w_path(driver, p).values[None])
    return x[0], int(hit[0])


def test_explicit_solution_zero_noise_decays():
    p = _params(sigma=0.0, b=1.5, beta=0.6)
    grid = uniform_grid(32, 2.0)
    x, hit = _explicit(SamplePath(grid, np.zeros(33)), p)
    assert hit == grid.size
    np.testing.assert_allclose(x, np.exp(-1.5 * grid), rtol=1e-12)


def test_explicit_solution_polynomial_oracle():
    # wtilde = -0.5 t exactly (sigma=1, beta=0.5, b=0, w = -t): x = (1 - t/2)^2
    p = _params(sigma=1.0, b=0.0, beta=0.5)
    grid = uniform_grid(10, 2.5)
    x, hit = _explicit(SamplePath(grid, -grid), p)
    assert hit == 8 == first_hit(x)
    assert grid[8] == 2.0
    before = grid[:8]
    np.testing.assert_allclose(x[:8], (1 - 0.5 * before) ** 2, rtol=1e-12)
    assert np.all(x[8:] == 0.0)


def test_explicit_solution_quintic_value():
    # beta = 0.8 variant: wtilde ~= -0.5 t, x_t = (1 - t/2)^5, x(1) = 0.03125
    p = _params(sigma=1.0, b=0.0, beta=0.8)
    grid = uniform_grid(8, 1.0)
    x, hit = _explicit(SamplePath(grid, -2.5 * grid), p)
    assert hit == grid.size
    assert x[-1] == pytest.approx(0.03125, rel=1e-12)


def test_explicit_solution_no_hit_when_inf_above_minus_y0():
    # driver kept small enough that inf wtilde > -y0
    p = _params(sigma=0.1, b=1.0, beta=0.7)
    grid = uniform_grid(64, 1.0)
    driver = sample_paths(fbm_kernel(0.8), grid, 1, seed=9)[0]
    wt = tilde_w_path(driver, p)
    assert np.min(wt.values) > -p.y0
    x, hit = _explicit(driver, p)
    assert hit == grid.size
    assert np.all(x > 0.0)


def test_explicit_solution_nonnegative_with_hits():
    p = _params(sigma=2.0, b=4.0, beta=0.8)
    hit_seen = False
    for seed in range(20):
        driver = sample_paths(fbm_kernel(0.6), uniform_grid(128, 2.0), 1, seed=seed)[0]
        x, hit = _explicit(driver, p)
        assert hit == first_hit(x)
        assert np.all(x[:hit] > 0.0) and np.all(x[hit:] == 0.0)
        hit_seen |= hit < x.size
    assert hit_seen


def test_first_hit_rows():
    level = np.array([[1.0, 0.5, 0.0, 2.0], [1.0, 2.0, 3.0, 4.0], [np.nan, 1.0, 1.0, 1.0]])
    assert first_hit(level).tolist() == [2, 4, 0]
    assert first_hit(level[0]) == 2
