import json
import math

import numpy as np
import pytest
from scipy.stats import norm

from gmr.drivers import (
    SamplePath,
    brownian_kernel,
    fbm_kernel,
    sample_path_matrix,
    uniform_grid,
)
from gmr.montecarlo import (
    EnsembleSpec,
    _solve_matrix,
    density_smoke,
    ensemble_simulate,
    hitting_time_stats,
    lp_convergence_check,
    paths_to_csv,
    scaling_identity_check,
    small_noise_probe,
    stats_to_json,
    sup_bound_violations,
    survival_bound_check,
)
from gmr.solver import convergence_study, deterministic_ode_solution, implicit_euler
from gmr.transform import (
    ModelParams,
    explicit_a0_matrix,
    explicit_solution_a0,
    lift,
    lift_y_to_x,
    tilde_w_covariance_matrix,
    tilde_w_path,
)


def _spec(**kw):
    base = dict(
        params=ModelParams(x0=1.0, a=1.0, b=1.0, sigma=0.5, beta=0.7),
        kernel=fbm_kernel(0.8),
        M=200,
        n=64,
        seed=0,
    )
    base.update(kw)
    return EnsembleSpec(**base)


def test_ensemble_deterministic_bitwise():
    spec = _spec(marginal_times=(0.5,))
    r1 = ensemble_simulate(spec)
    r2 = ensemble_simulate(spec)
    assert r1.stats.lp_estimates == r2.stats.lp_estimates
    assert np.array_equal(r1.x, r2.x)
    assert np.array_equal(
        r1.stats.marginal_samples[0.5], r2.stats.marginal_samples[0.5]
    )


def test_ensemble_zero_noise_matches_ode():
    spec = _spec(params=ModelParams(x0=2.0, a=1.0, b=2.0, sigma=0.0, beta=0.5), M=10)
    res = ensemble_simulate(spec)
    assert np.all(res.x == res.x[0])  # all paths identical
    ode = deterministic_ode_solution(spec.params, res.times)
    assert np.max(np.abs(res.x[0] - ode)) <= 2.0 / spec.n
    assert res.stats.hit_fraction == 0.0


def test_ensemble_moments_monotone_and_bounded():
    spec = _spec(M=500)
    res = ensemble_simulate(spec)
    est = [res.stats.lp_estimates[p] for p in (1.0, 2.0, 4.0, 8.0)]
    assert all(b >= a - 1e-12 for a, b in zip(est, est[1:]))
    assert all(np.isfinite(v) for v in est)
    # pathwise bound transfers to every moment
    from gmr.solver import sup_bound

    bounds = np.array([sup_bound(spec.params, s, spec.horizon) for s in res.driver_sup])
    for p_exp, val in res.stats.lp_estimates.items():
        assert val <= np.mean(bounds**p_exp) ** (1.0 / p_exp) * (1 + 1e-12)


def test_ensemble_zero_sup_bound_violations():
    for spec in (
        _spec(M=300),
        _spec(params=ModelParams(x0=1.0, a=0.0, b=4.0, sigma=1.0, beta=0.8), M=300),
        _spec(kernel=brownian_kernel(), M=300, seed=5),
    ):
        res = ensemble_simulate(spec)
        assert sup_bound_violations(res) == 0
        if spec.params.a > 0:
            assert np.all(res.y > 0.0)


def test_ensemble_hit_bookkeeping():
    spec = _spec(
        params=ModelParams(x0=1.0, a=0.0, b=4.0, sigma=2.0, beta=0.8),
        kernel=fbm_kernel(0.6),
        M=400,
        n=128,
        horizon=2.0,
    )
    res = ensemble_simulate(spec)
    assert 0.0 < res.stats.hit_fraction < 1.0
    assert res.stats.hit_times.size == round(res.stats.hit_fraction * spec.M)
    assert np.all(res.x >= 0.0)


def test_lp_convergence_zero_noise_matches_deterministic_study():
    p = ModelParams(x0=2.0, a=1.0, b=1.5, sigma=0.0, beta=0.6)
    ref_n = 1024
    errs = lp_convergence_check(
        p, brownian_kernel(), M=7, n_list=[32, 64, 128], ref_n=ref_n, p_exponent=3.0
    )
    study = convergence_study(
        p,
        SamplePath(uniform_grid(ref_n, 1.0), np.zeros(ref_n + 1)),
        [32, 64, 128],
        ref_n,
        1.0,
    )
    np.testing.assert_allclose(errs, study.errors, rtol=1e-12)


def test_lp_convergence_decreasing_and_moment_ordered():
    p = ModelParams(x0=1.0, a=1.0, b=1.0, sigma=0.5, beta=0.7)
    kern = fbm_kernel(0.8)
    common = dict(M=100, n_list=[64, 128, 256], ref_n=2048, seed=2)
    e1 = lp_convergence_check(p, kern, p_exponent=1.0, **common)
    e4 = lp_convergence_check(p, kern, p_exponent=4.0, **common)
    assert np.all(e4 >= e1 - 1e-15)  # moment monotonicity on the same ensemble
    drops = np.diff(e1)
    assert np.sum(drops >= 0) <= 1
    assert e1[-1] < e1[0] / 2.0


def test_survival_zero_noise():
    p = ModelParams(x0=4.0, a=0.0, b=1.0, sigma=0.0, beta=0.5)
    rep = survival_bound_check(2.0, p, brownian_kernel(), uniform_grid(32, 1.0), 100)
    assert rep.applicable and rep.passed
    assert rep.empirical == 1.0
    assert rep.bound == 1.0


def test_survival_large_y0_limit():
    p = ModelParams(x0=1.0, a=0.0, b=0.0, sigma=1.0, beta=0.5)
    rep = survival_bound_check(50.0, p, brownian_kernel(), uniform_grid(64, 1.0), 500)
    assert rep.applicable and rep.passed
    assert rep.bound > 1 - 1e-9
    assert rep.empirical == 1.0


def test_survival_brownian_reflection_oracle():
    # wtilde = 0.5 BM for sigma=1, beta=0.5, b=0; inf > -y0 has probability
    # 1 - 2(1 - Phi(2 y0)) by the reflection principle (T = 1)
    y0 = 1.5
    m = 2000
    p = ModelParams(x0=y0**2, a=0.0, b=0.0, sigma=1.0, beta=0.5)
    rep = survival_bound_check(y0, p, brownian_kernel(), uniform_grid(256, 1.0), m, seed=4)
    oracle = 1.0 - 2.0 * (1.0 - norm.cdf(2.0 * y0))
    se = math.sqrt(oracle * (1 - oracle) / m)
    assert rep.applicable
    assert abs(rep.empirical - oracle) <= 3 * se + 1e-3  # grid misses sub-step dips
    assert rep.passed
    assert rep.sigma_bar_sq == pytest.approx(0.25, abs=1e-12)


def test_survival_not_applicable_when_hypothesis_fails():
    p = ModelParams(x0=0.25, a=0.0, b=0.0, sigma=1.0, beta=0.5)
    rep = survival_bound_check(0.5, p, brownian_kernel(), uniform_grid(32, 1.0), 50)
    assert not rep.applicable
    assert not rep.passed


def test_survival_randomized_sweep():
    # bound holds across a randomized parameter sweep whenever its
    # hypothesis 2 sbar^2 ln 2 < y0^2 does
    rng = np.random.default_rng(123)
    grid = uniform_grid(64, 1.0)
    for draw in range(20):
        p = ModelParams(
            x0=1.0,
            a=0.0,
            b=rng.uniform(0.0, 2.0),
            sigma=rng.uniform(0.3, 1.5),
            beta=rng.uniform(0.3, 0.8),
        )
        sbar2 = float(np.max(np.diag(tilde_w_covariance_matrix(p, brownian_kernel(), grid))))
        y0 = math.sqrt(2.0 * sbar2 * math.log(2.0)) * rng.uniform(1.5, 3.0)
        rep = survival_bound_check(y0, p, brownian_kernel(), grid, 2000, seed=1000 + draw)
        assert rep.applicable
        assert rep.passed


def test_hitting_zero_noise_never_hits():
    p = ModelParams(x0=1.0, a=0.0, b=2.0, sigma=0.0, beta=0.5)
    rates = hitting_time_stats(p, brownian_kernel(), 50, [1.0, 2.0], steps_per_unit=16)
    assert all(r.fraction == 0.0 for r in rates)


def test_hitting_fractions_increase_with_horizon():
    p = ModelParams(x0=1.0, a=0.0, b=4.0, sigma=1.0, beta=0.8)
    rates = hitting_time_stats(
        p, fbm_kernel(0.6), 1000, [1.0, 2.0, 4.0], steps_per_unit=32, seed=9
    )
    fracs = [r.fraction for r in rates]
    assert fracs[0] < fracs[1] < fracs[2]
    for r in rates:
        assert 0.0 <= r.ci_low <= r.fraction <= r.ci_high <= 1.0


def test_hitting_requires_a_zero():
    p = ModelParams(x0=1.0, a=1.0, b=0.0, sigma=1.0, beta=0.5)
    with pytest.raises(ValueError, match="a = 0"):
        hitting_time_stats(p, brownian_kernel(), 10, [1.0])


def test_scaling_identity_trivial_eps_one():
    p = ModelParams(x0=1.0, a=1.0, b=1.0, sigma=0.3, beta=0.7)
    chk = scaling_identity_check(p, hurst=0.75, eps=1.0, t=1.0, M=400, n=64, seed=2)
    assert chk.passed
    assert chk.ks_statistic < 0.15


def test_scaling_identity_zero_noise_degenerate():
    # both sides deterministic: X at eps*t equals the (eps a, eps b) solution
    # at t, up to scheme error (a rank test is meaningless on two atoms)
    eps, t, n = 0.5, 1.0, 256
    p = ModelParams(x0=1.0, a=1.0, b=1.0, sigma=0.0, beta=0.7)
    scaled = ModelParams(x0=1.0, a=eps * 1.0, b=eps * 1.0, sigma=0.0, beta=0.7)
    from gmr.solver import solve_gmr

    zero = SamplePath(uniform_grid(n, t), np.zeros(n + 1))
    left = solve_gmr(p, zero, n).values[n // 2]
    right = solve_gmr(scaled, zero, n).values[-1]
    assert left == pytest.approx(right, abs=5.0 / n)


def test_scaling_identity_half_eps():
    p = ModelParams(x0=1.0, a=1.0, b=1.0, sigma=0.3, beta=0.7)
    chk = scaling_identity_check(p, hurst=0.75, eps=0.5, t=1.0, M=800, n=128, seed=6)
    assert chk.passed


def test_scaling_identity_grid_alignment():
    p = ModelParams(x0=1.0, a=1.0, b=1.0, sigma=0.3, beta=0.7)
    with pytest.raises(ValueError, match="integer"):
        scaling_identity_check(p, hurst=0.75, eps=0.3, t=1.0, M=10, n=64)


def test_small_noise_concentration():
    p = ModelParams(x0=1.0, a=1.0, b=1.0, sigma=1.0, beta=0.7)
    rows = small_noise_probe(
        p, fbm_kernel(0.8), [1.0, 0.5, 0.25, 0.0], M=200, n=64, seed=3
    )
    medians = [r["quantiles"][0.5] for r in rows]
    assert all(q >= 0.0 for r in rows for q in r["quantiles"].values())
    assert medians[-1] == 0.0  # eps = 0 collapses on the skeleton
    drops = np.diff(medians)
    assert np.sum(drops > 0) <= 1  # nonincreasing, one inversion allowed
    assert medians[1] < medians[0]


def test_density_smoke_cases():
    noisy = _spec(M=1000, n=64)
    out = density_smoke(noisy, 0.5)
    assert out.applicable
    assert out.sample_variance > 0.0
    assert out.distinct_fraction == 1.0

    degenerate = _spec(params=ModelParams(x0=1.0, a=1.0, b=1.0, sigma=0.0, beta=0.5), M=100)
    out0 = density_smoke(degenerate, 0.5)
    assert not out0.applicable
    assert out0.sample_variance == 0.0

    at_zero = density_smoke(_spec(M=100), 0.0)
    assert not at_zero.applicable
    assert at_zero.sample_variance == 0.0


def test_exports(tmp_path):
    spec = _spec(M=4, n=8, marginal_times=(0.5,))
    res = ensemble_simulate(spec)
    jpath = tmp_path / "stats.json"
    stats_to_json(res.stats, jpath)
    payload = json.loads(jpath.read_text())
    assert {e["p"] for e in payload["lp_estimates"]} == {1.0, 2.0, 4.0, 8.0}
    cpath = tmp_path / "paths.csv"
    paths_to_csv(res, cpath)
    lines = cpath.read_text().splitlines()
    assert lines[0] == "t,path_0,path_1,path_2,path_3"
    assert len(lines) == spec.n + 2


def test_ensemble_brownian_fault_point_stays_positive_and_finite():
    # a small a with beta = 0.6 drives many steps to A <= 0, where the
    # vectorized root solver must not overshoot below zero
    spec = EnsembleSpec(
        params=ModelParams(x0=1.0, a=0.01, b=1.0, sigma=1.0, beta=0.6),
        kernel=brownian_kernel(),
        M=300,
        n=1024,
        seed=1,
    )
    result = ensemble_simulate(spec)
    assert np.all(np.isfinite(result.y)) and np.all(result.y > 0.0)
    assert np.all(np.isfinite(result.x)) and np.all(result.x > 0.0)
    assert all(math.isfinite(v) for v in result.stats.lp_estimates.values())


def test_import_gmr_leaves_scipy_stats_unloaded():
    import os
    import subprocess
    import sys

    import gmr

    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(gmr.__file__)))
    code = "import sys, gmr; print('scipy.stats' in sys.modules)"
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True, env=env
    )
    assert out.stdout.strip() == "False"


def test_solve_matrix_rows_match_single_path_routines():
    times = uniform_grid(128, 2.0)
    drivers = sample_path_matrix(fbm_kernel(0.6), times, 40, seed=11)
    # a = 0: the absorbed rows and their hits are bitwise the one-row solution's
    p0 = ModelParams(x0=1.0, a=0.0, b=4.0, sigma=2.0, beta=0.8)
    x, _, hit = _solve_matrix(p0, times, drivers)
    hits = 0
    for i, row in enumerate(drivers):
        sol = explicit_solution_a0(SamplePath(times, row), p0)
        assert np.array_equal(x[i], sol.path.values)
        assert hit[i] == (times.size if sol.hit_index is None else sol.hit_index)
        hits += sol.hit_index is not None
    assert 0 < hits < len(drivers)
    # a > 0: the matrix lift is bitwise the single-path lift of each y row
    p1 = ModelParams(x0=1.0, a=1.0, b=2.0, sigma=0.5, beta=0.7)
    x, y, hit = _solve_matrix(p1, times, drivers)
    assert np.all(hit == times.size)
    for xi, yi in zip(x, y):
        assert np.array_equal(xi, lift_y_to_x(SamplePath(times, yi), p1).values)


def test_lift_underflow_counts_as_hit_in_ensembles():
    # with b = 800 and no noise the positive level lifts to x == 0.0 from
    # t = 60/64 on; ensembles and the one-row solution both absorb there
    p = ModelParams(x0=1.0, a=0.0, b=800.0, sigma=0.0, beta=0.5)
    res = ensemble_simulate(_spec(params=p, M=3, n=64))
    single = explicit_solution_a0(SamplePath(res.times, np.zeros(65)), p)
    assert single.hit_index == 60
    assert res.stats.hit_fraction == 1.0
    assert np.all(res.stats.hit_times == res.times[60])
    assert np.array_equal(res.x, np.tile(single.path.values, (3, 1)))


def test_nonfinite_lift_of_a_positive_level_raises():
    # b t past ~709: y^(gamma+1) overflows while e^(-bt) underflows, and
    # inf * 0 = NaN used to be recorded as a zero hit of a positive level
    p = ModelParams(x0=1.0, a=0.0, b=800.0, sigma=1.0, beta=0.7)
    with pytest.raises(OverflowError, match="not finite"):
        ensemble_simulate(_spec(params=p, kernel=fbm_kernel(0.9), M=200, n=64, seed=3))
    # after a hit the level is discarded, so a non-finite lift there is not an error
    times = uniform_grid(4, 1.0)
    absorbed = np.array([[0.0, -2.0, 1e150, 1e150, 1e150]])
    x, _, hit = explicit_a0_matrix(absorbed, times, p)
    assert hit.tolist() == [1]
    assert np.all(x[0, 1:] == 0.0)
    with pytest.raises(OverflowError, match="not finite"):
        explicit_a0_matrix(np.array([[0.0, 0.0, 0.0, 0.0, 1e150]]), times, p)


def _admissible_draws(count, seed):
    """Seeded (kernel, params, n) over the box beta > 1 - H, a >= 0, b >= 0."""
    rng = np.random.default_rng(seed)
    draws = []
    for i in range(count):
        hurst = rng.uniform(0.1, 0.5) if i % 3 == 0 else rng.uniform(0.5, 0.95)
        floor = 1.0 - hurst
        # every fourth beta sits within 0.02 of the well-posedness boundary
        beta = floor + rng.uniform(1e-3, 0.02) if i % 4 == 0 else rng.uniform(floor, 0.97)
        params = ModelParams(
            x0=10.0 ** rng.uniform(-2.0, 1.0),
            a=0.0 if i % 5 == 0 else rng.uniform(0.01, 3.0),
            b=200.0 if i % 7 == 0 else rng.choice([0.0, rng.uniform(0.0, 5.0)]),
            sigma=0.0 if i % 11 == 0 else rng.uniform(0.0, 5.0),
            beta=beta,
        )
        draws.append((fbm_kernel(hurst), params, 1024 if i % 2 else 64))
    return draws


def test_ensemble_sweep_of_the_admissible_box_against_single_path_oracles():
    # both driver routes (Cholesky at n = 64, circulant at n = 1024),
    # H < 1/2, beta at the boundary, b = 200, no noise and a = 0 all occur
    draws = _admissible_draws(40, seed=2718)
    assert any(k.hurst < 0.5 for k, _, _ in draws)
    assert any(p.beta - (1.0 - k.hurst) < 0.02 for k, p, _ in draws)
    assert {p.b for _, p, _ in draws} >= {0.0, 200.0}
    assert {p.sigma for _, p, _ in draws} >= {0.0} and max(p.sigma for _, p, _ in draws) > 4.0
    assert {p.a for _, p, _ in draws} >= {0.0} and {n for _, _, n in draws} == {64, 1024}
    m = 6
    for seed, (kernel, p, n) in enumerate(draws):
        result = ensemble_simulate(EnsembleSpec(params=p, kernel=kernel, M=m, n=n, seed=seed))
        drivers = sample_path_matrix(kernel, result.times, m, seed)
        assert all(math.isfinite(v) for v in result.stats.lp_estimates.values())
        for row, level, driver in zip(result.x, result.y, drivers):
            path = SamplePath(result.times, driver)
            if p.a == 0.0:
                sol = explicit_solution_a0(path, p)
                assert np.array_equal(row, sol.path.values)
                hit = row.size if sol.hit_index is None else sol.hit_index
            else:
                # both root solvers stop at |f| <= 1e-12 max(1, |A|), so the
                # levels agree on that scale, and x is the same lift of them
                y = implicit_euler(p, tilde_w_path(path, p)).y_path.values
                assert np.all(np.abs(level - y) <= 1e-10 * np.maximum(1.0, y))
                assert np.array_equal(row, lift(level, result.times, p))
                hit = row.size
            assert np.all(np.isfinite(row[:hit])) and np.all(row[:hit] > 0.0)
            assert np.all(row[hit:] == 0.0)
