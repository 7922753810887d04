import json
import math

import numpy as np
import pytest

from gmr.drivers import SamplePath, fbm_kernel, sample_paths, uniform_grid
from gmr.solver import (
    EulerSolution,
    RateReport,
    RootSolveError,
    convergence_study,
    deterministic_ode_solution,
    implicit_euler,
    implicit_euler_nodes,
    implicit_step_root,
    rate_report_to_csv,
    rate_report_to_json,
    solve_gmr,
    sup_bound,
    y_sup_bound,
)
from gmr.transform import ModelParams, TruncatedPath, explicit_solution_a0, tilde_w_path


def bisect_root(A, B, gamma, iters=200):
    """Independent oracle: plain bisection on x - B x^(-gamma) - A."""
    lo, hi = 1e-12, abs(A) + B ** (1.0 / (gamma + 1.0)) + 1.0
    while lo - B * lo**-gamma - A > 0:
        lo *= 0.5
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        if mid - B * mid**-gamma - A <= 0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def log_bisect_root(A, B, gamma, iters=200):
    """Oracle accurate in relative terms: bisection in u = log x.

    f(e^u) < 0 is decided as e^u <= A or log(e^u - A) < log B - gamma u,
    which neither overflows nor loses roots near 1e-300.
    """

    def below(u):
        x = math.exp(u)
        return x <= A or math.log(x - A) < math.log(B) - gamma * u

    hi = math.log(abs(A) + B ** (1.0 / (gamma + 1.0)) + 1.0)
    lo, step = hi, 1.0
    while not below(lo):
        lo -= step
        step *= 2.0
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        if below(mid):
            lo = mid
        else:
            hi = mid
    return math.exp(0.5 * (lo + hi))


def root_rtol(root, A, gamma):
    """Relative distance to the root allowed by the residual tolerance.

    f is concave, so from the left |x - root| <= |f(x)| / f'(root), and
    root f'(root) = root + gamma (root - A); 1e-12 covers the oracle's
    rounding of log x (about 1e-13 at log x = -700).
    """
    return 1e-12 * max(1.0, abs(A)) / (root + gamma * (root - A)) + 1e-12


def zero_driver(n, horizon):
    return SamplePath(uniform_grid(n, horizon), np.zeros(n + 1))


def test_step_root_square_case():
    assert implicit_step_root(0.0, 4.0, 1.0) == pytest.approx(2.0, rel=1e-12)


def test_step_root_quadratic_formula():
    got = implicit_step_root(1.0, 0.01, 1.0)
    assert got == pytest.approx((1.0 + math.sqrt(1.04)) / 2.0, abs=1e-10)


def test_step_root_negative_A_bisection_oracle():
    got = implicit_step_root(-0.5, 1.0, 2.0)
    assert got == pytest.approx(bisect_root(-0.5, 1.0, 2.0), abs=1e-10)
    assert round(got, 4) == 0.8581


def test_step_root_residual_contract():
    # down to gamma = 0.03 and B = 1e-8, where negative A puts the root near 1e-200
    rng = np.random.default_rng(4)
    for _ in range(200):
        A = rng.uniform(-3, 5)
        B = 10.0 ** rng.uniform(-8, 0.5)
        gamma = 10.0 ** rng.uniform(math.log10(0.03), math.log10(5))
        x = implicit_step_root(A, B, gamma)
        assert x > 0
        assert abs(x - B * x**-gamma - A) <= 1e-12 * max(1.0, abs(A))


def test_step_root_monotone_in_A_and_B():
    rng = np.random.default_rng(8)
    for _ in range(200):
        A = rng.uniform(-2, 5)
        B = rng.uniform(1e-3, 3)
        gamma = rng.uniform(0.2, 5)
        dA, dB = rng.uniform(0, 1, size=2)
        base = implicit_step_root(A, B, gamma)
        assert implicit_step_root(A + dA, B, gamma) >= base - 1e-10
        assert implicit_step_root(A, B + dB, gamma) >= base - 1e-10


def test_step_root_rejects_bad_B():
    with pytest.raises(ValueError):
        implicit_step_root(1.0, 0.0, 1.0)
    with pytest.raises(ValueError):
        implicit_step_root(1.0, -1.0, 1.0)


def test_vectorized_roots_match_scalar():
    from gmr.solver import _implicit_roots_newton

    rng = np.random.default_rng(15)
    A = rng.uniform(-2, 5, size=64)
    B, gamma = 0.37, 2.2
    vec = _implicit_roots_newton(A, B, gamma)
    for a, x in zip(A, vec):
        assert x == pytest.approx(implicit_step_root(a, B, gamma), abs=1e-11)


def test_vectorized_roots_negative_A_start_left_of_root():
    from gmr.solver import _implicit_roots_newton

    # plain Newton from B^(1/(gamma+1)) overshoots below 0 here
    got = _implicit_roots_newton(np.array([-0.49]), 1e-3, 7.0 / 3.0)
    assert got[0] == pytest.approx(implicit_step_root(-0.49, 1e-3, 7.0 / 3.0), rel=1e-12)
    assert got[0] == pytest.approx(0.066580, abs=1e-6)


def test_vectorized_roots_nan_residual_raises():
    from gmr.solver import _implicit_roots_newton

    with pytest.raises(RootSolveError):
        _implicit_roots_newton(np.array([0.5, np.nan]), 1e-3, 1.5)


def test_vectorized_roots_sweep_matches_scalar_oracle():
    from gmr.solver import _implicit_roots_newton

    # both solvers against bisection in log x, down to gamma = 0.03 and B = 1e-8
    rng = np.random.default_rng(11)
    A = rng.uniform(-3.0, 2.0, size=300)
    B = 10.0 ** rng.uniform(-8.0, 0.0, size=300)
    gamma = 10.0 ** rng.uniform(math.log10(0.03), math.log10(20.0), size=300)
    for a, b, g in zip(A, B, gamma):
        root = log_bisect_root(a, b, g)
        for x in (_implicit_roots_newton(np.array([a]), b, g)[0], implicit_step_root(a, b, g)):
            assert x > 0.0
            assert x == pytest.approx(root, rel=root_rtol(root, a, g))


def test_step_roots_raise_when_the_start_underflows():
    # gamma ~ 0.01 with B ~ 4e-9 and A < 0 (beta = 0.01, a = 1e-6 on 256 steps):
    # the root (B/|A|)^(1/gamma) is about 1e-578, below the smallest float
    from gmr.solver import _implicit_roots_newton

    A, B, gamma = -0.0027, 3.9e-9, 0.01 / 0.99
    with pytest.raises(RootSolveError, match="start"):
        implicit_step_root(A, B, gamma)
    with pytest.raises(RootSolveError, match="start"):
        _implicit_roots_newton(np.array([0.5, A]), B, gamma)


def test_vectorized_euler_matches_scalar_pipeline():
    p = ModelParams(x0=1.0, a=1.0, b=2.0, sigma=0.8, beta=0.7)
    grid = uniform_grid(64, 1.0)
    driver = sample_paths(fbm_kernel(0.8), grid, 1, seed=6)[0]
    wt = tilde_w_path(driver, p)
    scalar = implicit_euler(p, wt).y_path.values
    vectorized = implicit_euler_nodes(p, grid, wt.values[None, :])[0]
    np.testing.assert_allclose(vectorized, scalar, rtol=1e-11)


def test_zero_noise_oracle_equivalence_order():
    # error against the closed-form ODE solution decays with order >= 0.9
    p = ModelParams(x0=2.0, a=1.0, b=1.5, sigma=0.0, beta=0.6)
    n_list = [64, 128, 256, 512]
    errors = []
    for n in n_list:
        grid = uniform_grid(n, 1.0)
        x = solve_gmr(p, zero_driver(n, 1.0), n)
        errors.append(np.max(np.abs(x.values - deterministic_ode_solution(p, grid))))
    slope = -np.polyfit(np.log(n_list), np.log(errors), 1)[0]
    assert slope >= 0.9
    assert errors[-1] <= 10.0 / 512


def test_implicit_euler_first_node():
    # sigma = 0, b = 0, beta = 0.5, a = 1, T = 1, n = 50: B = 0.01, A = 1
    p = ModelParams(x0=1.0, a=1.0, b=0.0, sigma=0.0, beta=0.5)
    sol = implicit_euler(p, tilde_w_path(zero_driver(50, 1.0), p))
    assert sol.y_path.values[1] == pytest.approx((1.0 + math.sqrt(1.04)) / 2.0, rel=1e-12)


def test_implicit_euler_stationary_point():
    # x0 = a/b is the ODE fixed point; the scheme stays within O(1/n)
    n = 128
    p = ModelParams(x0=1.0, a=1.0, b=1.0, sigma=0.0, beta=0.5)
    sol = implicit_euler(p, tilde_w_path(zero_driver(n, 1.0), p))
    assert np.max(np.abs(sol.x_path.values - 1.0)) <= 2.0 / n


def test_implicit_euler_positivity():
    p = ModelParams(x0=0.5, a=0.8, b=2.0, sigma=1.0, beta=0.7)
    grid = uniform_grid(128, 1.0)
    for seed in range(5):
        driver = sample_paths(fbm_kernel(0.6), grid, 1, seed=seed)[0]
        sol = implicit_euler(p, tilde_w_path(driver, p))
        assert np.min(sol.y_path.values) > 0.0


def test_implicit_euler_requires_positive_a():
    p = ModelParams(x0=1.0, a=0.0, b=0.0, sigma=0.0, beta=0.5)
    with pytest.raises(ValueError, match="a > 0"):
        implicit_euler(p, tilde_w_path(zero_driver(8, 1.0), p))


def test_solve_gmr_ode_oracle():
    p = ModelParams(x0=3.0, a=1.0, b=2.0, sigma=0.0, beta=0.5)
    n = 256
    x = solve_gmr(p, zero_driver(n, 1.0), n)
    exact = 0.5 + 2.5 * math.exp(-2.0)
    assert x.values[-1] == pytest.approx(exact, abs=3.0 / n)


def test_solve_gmr_dispatches_a_zero():
    p = ModelParams(x0=1.0, a=0.0, b=1.0, sigma=0.5, beta=0.7)
    driver = sample_paths(fbm_kernel(0.8), uniform_grid(64, 1.0), 1, seed=1)[0]
    out = solve_gmr(p, driver, 64)
    assert isinstance(out, TruncatedPath)


def test_solve_gmr_positive_path():
    p = ModelParams(x0=1.0, a=1.0, b=0.0, sigma=1.0, beta=0.8)
    driver = sample_paths(fbm_kernel(0.9), uniform_grid(128, 1.0), 1, seed=77)[0]
    x = solve_gmr(p, driver, 128)
    assert np.all(x.values > 0.0)


def test_solve_gmr_grid_nesting():
    p = ModelParams(x0=1.0, a=1.0, b=0.0, sigma=0.0, beta=0.5)
    with pytest.raises(ValueError, match="divide"):
        solve_gmr(p, zero_driver(100, 1.0), 64)


def test_deterministic_ode_solution_cases():
    fixed = ModelParams(x0=0.5, a=1.0, b=2.0, sigma=0.0, beta=0.5)
    assert deterministic_ode_solution(fixed, 3.0) == 0.5
    decay = ModelParams(x0=2.0, a=0.0, b=1.5, sigma=0.0, beta=0.5)
    assert deterministic_ode_solution(decay, 1.0) == pytest.approx(2 * math.exp(-1.5))
    p = ModelParams(x0=2.0, a=1.0, b=1.0, sigma=0.0, beta=0.5)
    assert deterministic_ode_solution(p, 1.0) == pytest.approx(1.0 + math.exp(-1.0))
    linear = ModelParams(x0=1.0, a=0.5, b=0.0, sigma=0.0, beta=0.5)
    assert deterministic_ode_solution(linear, 2.0) == 2.0


def test_sup_bound_values():
    p = ModelParams(x0=1.0, a=1.0, b=0.0, sigma=1.0, beta=0.5)
    assert sup_bound(p, 0.0, 1.0) == pytest.approx(2.25, rel=1e-14)
    # sigma = 0 leaves only the drift term
    q = ModelParams(x0=2.0, a=1.5, b=0.5, sigma=0.0, beta=0.6)
    omb = 0.4
    expected = (
        2.0**omb + 1.5 * omb * math.exp(0.5) * 2.0 ** (-0.6)
    ) ** (1.0 / omb)
    assert sup_bound(q, 123.0, 1.0) == pytest.approx(expected, rel=1e-12)


def test_pathwise_bounds_hold():
    horizon = 1.0
    grid = uniform_grid(128, horizon)
    rng = np.random.default_rng(5)
    for seed in range(10):
        p = ModelParams(
            x0=rng.uniform(0.5, 2.0),
            a=rng.uniform(0.1, 2.0),
            b=rng.uniform(0.0, 3.0),
            sigma=rng.uniform(0.1, 1.5),
            beta=rng.uniform(0.4, 0.85),
        )
        driver = sample_paths(fbm_kernel(0.75), grid, 1, seed=seed)[0]
        wsup = np.max(np.abs(driver.values))
        sol = implicit_euler(p, tilde_w_path(driver, p))
        assert np.max(sol.y_path.values) <= y_sup_bound(p, wsup, horizon) * (1 + 1e-12)
        assert np.max(sol.x_path.values) <= sup_bound(p, wsup, horizon) * (1 + 1e-12)


def test_monotone_in_drift_coefficients():
    # x(0,b) <= x(a,b) <= x(a,0) along a common driver path
    a, b = 1.0, 2.0
    n = 256
    grid = uniform_grid(n, 1.0)
    for seed in range(20):
        driver = sample_paths(fbm_kernel(0.75), grid, 1, seed=seed)[0]
        shared = dict(x0=1.0, sigma=0.5, beta=0.7)
        p_ab = ModelParams(a=a, b=b, **shared)
        p_a0 = ModelParams(a=a, b=0.0, **shared)
        p_0b = ModelParams(a=0.0, b=b, **shared)
        x_ab = solve_gmr(p_ab, driver, n).values
        x_a0 = solve_gmr(p_a0, driver, n).values
        x_0b = solve_gmr(p_0b, driver, n).path.values
        assert np.all(x_0b <= x_ab + 1e-9)
        assert np.all(x_ab <= x_a0 + 1e-9)


def test_continuity_in_coefficients():
    # halving the (a, b) perturbation at least halves the sup distance (x1.5 slack)
    n = 256
    grid = uniform_grid(n, 1.0)
    driver = sample_paths(fbm_kernel(0.8), grid, 1, seed=3)[0]
    base = ModelParams(x0=1.0, a=1.0, b=1.0, sigma=0.4, beta=0.7)
    x_base = solve_gmr(base, driver, n).values

    def dist(delta):
        p = ModelParams(x0=1.0, a=1.0 + delta, b=1.0 + delta, sigma=0.4, beta=0.7)
        return np.max(np.abs(solve_gmr(p, driver, n).values - x_base))

    delta = 0.02
    assert dist(delta / 2) <= 0.75 * dist(delta)


def test_convergence_study_ode_rate():
    p = ModelParams(x0=2.0, a=1.0, b=1.5, sigma=0.0, beta=0.6)
    ref_n = 4096
    report = convergence_study(p, zero_driver(ref_n, 1.0), [32, 64, 128, 256], ref_n, 1.0)
    assert report.fitted_slope >= 0.85
    assert report.theoretical_rate == 1.0
    drops = np.diff(report.errors)
    assert np.sum(drops >= 0) <= 1  # allow one non-monotone pair


def test_convergence_study_validation():
    p = ModelParams(x0=1.0, a=1.0, b=0.0, sigma=0.0, beta=0.5)
    with pytest.raises(ValueError, match="reference grid"):
        convergence_study(p, zero_driver(512, 1.0), [32, 64], 1024, 1.0)
    with pytest.raises(ValueError, match="divide"):
        convergence_study(p, zero_driver(1024, 1.0), [33], 1024, 1.0)
    with pytest.raises(ValueError, match="8"):
        convergence_study(p, zero_driver(1024, 1.0), [256], 1024, 1.0)


def test_rate_report_validation_and_export(tmp_path):
    with pytest.raises(ValueError, match="increasing"):
        RateReport(np.array([64, 32]), np.array([0.1, 0.2]), 1.0, 0.9)
    with pytest.raises(ValueError, match="positive"):
        RateReport(np.array([32, 64]), np.array([0.1, 0.0]), 1.0, 0.9)
    report = RateReport(np.array([32, 64]), np.array([0.2, 0.1]), 1.0, 0.9)
    csv_path = tmp_path / "rate.csv"
    json_path = tmp_path / "rate.json"
    rate_report_to_csv(report, csv_path)
    rate_report_to_json(report, json_path)
    assert csv_path.read_text().splitlines()[0] == "n,error"
    payload = json.loads(json_path.read_text())
    assert payload == {"fitted_slope": 1.0, "theoretical_rate": 0.9}


def test_euler_solution_rejects_nonpositive_nodes():
    grid = uniform_grid(2, 1.0)
    p = ModelParams(x0=1.0, a=1.0, b=0.0, sigma=0.0, beta=0.5)
    with pytest.raises(ValueError, match="positive"):
        EulerSolution(
            n=2,
            params=p,
            y_path=SamplePath(grid, np.array([1.0, -1.0, 1.0])),
            x_path=SamplePath(grid, np.ones(3)),
        )
