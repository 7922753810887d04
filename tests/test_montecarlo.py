import math
from dataclasses import replace

import numpy as np
import pytest
from scipy.stats import ks_2samp, norm

from gmr import montecarlo
from gmr.drivers import (
    SamplePath,
    brownian_kernel,
    fbm_kernel,
    sample_path_matrix,
    uniform_grid,
)
from gmr.montecarlo import (
    EnsembleSpec,
    HorizonHitRate,
    ensemble_simulate,
    ensemble_stats,
    hitting_time_stats,
    survival_bound_check,
)
from gmr.solver import (
    convergence_study,
    implicit_euler_nodes,
    nested_sup_errors,
    solve_gmr,
    solve_matrix,
)
from gmr.transform import ModelParams, first_hit, tilde_w_covariance_matrix, tilde_w_matrix
from test_pk import ROUTES, traced_peak
from test_solver import (
    deterministic_ode_solution,
    ensemble_sup_bounds,
    explicit_a0_oracle,
    scalar_scheme,
)
from test_transform import lift


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


def sampled_tilde_w(kernel, times, M, seed, p):
    return tilde_w_matrix(sample_path_matrix(kernel, times, M, seed), times, p)


def scaling_ks(p, hurst, eps, t, M, n, seed):
    """Two-sample KS test of the self-similarity identity for fBm drivers.

    Samples of X_{eps t} against samples at t of the equation with
    coefficients (eps a, eps b, eps^H sigma), each from its own ensemble on
    n steps of [0, t]; the identity says the two laws coincide.
    """
    def marginal(params, seed, u):
        spec = EnsembleSpec(params=params, kernel=fbm_kernel(hurst), M=M, n=n, seed=seed,
                            horizon=t, marginal_times=(u,))
        return ensemble_stats(spec).marginal_samples[u]

    seed_left, seed_right = (int(s) for s in np.random.SeedSequence(seed).generate_state(2))
    scaled = replace(p, a=eps * p.a, b=eps * p.b, sigma=p.sigma * eps**hurst)
    return ks_2samp(marginal(p, seed_left, eps * t), marginal(scaled, seed_right, t))


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
    bounds = ensemble_sup_bounds(spec)
    for p_exp, val in res.stats.lp_estimates.items():
        assert val <= np.mean(bounds**p_exp) ** (1.0 / p_exp) * (1 + 1e-12)


def test_ensemble_zero_sup_bound_violations():
    for spec in (
        _spec(M=300),
        _spec(params=ModelParams(x0=1.0, a=0.0, b=4.0, sigma=1.0, beta=0.8), M=300),
        _spec(kernel=brownian_kernel(), M=300, seed=5),
    ):
        res = ensemble_simulate(spec)
        assert np.all(res.x.max(axis=1) <= ensemble_sup_bounds(spec) * (1.0 + 1e-9))
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


def lp_errors(errors, p_exponent):
    """E[||X^n - X^ref||_inf^p]^(1/p) per n: nested_sup_errors averaged over paths."""
    return np.array([np.mean(d**p_exponent) ** (1.0 / p_exponent) for d in errors])


def test_lp_convergence_zero_noise_matches_deterministic_study():
    p = ModelParams(x0=2.0, a=1.0, b=1.5, sigma=0.0, beta=0.6)
    ref_n = 1024
    times = uniform_grid(ref_n, 1.0)
    wt = sampled_tilde_w(brownian_kernel(), times, 7, 0, p)
    errs = lp_errors(nested_sup_errors(p, times, wt, [32, 64, 128]), 3.0)
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
    times = uniform_grid(2048, 1.0)
    errors = nested_sup_errors(p, times, sampled_tilde_w(fbm_kernel(0.8), times, 100, 2, p),
                               [64, 128, 256])
    e1, e4 = lp_errors(errors, 1.0), lp_errors(errors, 4.0)
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


def _full_matrix_hit_rates(p, kernel, M, horizons, n, seed):
    """hitting_time_stats on the whole (M, n+1) wtilde matrix, as it was
    before the probe streamed blocks, with the hits of explicit_a0_oracle:
    the oracle of the streamed probe."""
    t_max = horizons[-1]
    times = uniform_grid(n, t_max)
    hit_steps = explicit_a0_oracle(p, times, sampled_tilde_w(kernel, times, M, seed, p))[2]
    hit_time = np.where(hit_steps < times.size, times[np.minimum(hit_steps, n)], np.inf)
    out = []
    for t in horizons:
        frac = float(np.mean(hit_time <= t * (1 + 1e-12)))
        se = math.sqrt(frac * (1.0 - frac) / M)
        out.append(HorizonHitRate(horizon=t, fraction=frac, ci_low=max(0.0, frac - 1.96 * se),
                                  ci_high=min(1.0, frac + 1.96 * se)))
    return out


@pytest.mark.parametrize("M", [1, 31, 32, 33, 70])
@pytest.mark.parametrize("route", sorted(ROUTES))
def test_hitting_time_stats_matches_the_full_matrix_oracle_bitwise(route, M):
    horizon = 2.0
    kernel, n = ROUTES[route](horizon)
    p = ModelParams(x0=1.0, a=0.0, b=2.0, sigma=1.5, beta=0.5)
    horizons = [0.25, 1.0, horizon]
    got = hitting_time_stats(p, kernel, M, horizons, steps_per_unit=n // 2, seed=M)
    assert got == _full_matrix_hit_rates(p, kernel, M, horizons, n, seed=M)
    if M == 70:
        assert 0.0 < got[-1].fraction < 1.0


@pytest.mark.parametrize("M", [1, 31, 32, 33, 70])
@pytest.mark.parametrize("route", sorted(ROUTES))
def test_survival_matches_the_full_matrix_oracle_bitwise(route, M):
    horizon = 2.0
    kernel, n = ROUTES[route](horizon)
    grid = uniform_grid(n, horizon)
    p = ModelParams(x0=1.0, a=0.0, b=1.0, sigma=3.0, beta=0.7)
    y0 = 1.0
    rep = survival_bound_check(y0, p, kernel, grid, M, seed=M)
    wt = sampled_tilde_w(kernel, grid, M, M, p)
    assert rep.empirical == float(np.mean(np.min(wt, axis=1) > -y0))
    assert rep.sigma_bar_sq == np.diag(tilde_w_covariance_matrix(p, kernel, grid)).max()
    if M == 70:
        assert 0.0 < rep.empirical < 1.0


def test_streamed_hit_and_survival_peaks_do_not_grow_with_M():
    # both probes keep one block of paths and a few bytes per path; on the
    # whole (M, n+1) matrix the peak grew by 5 (hit times) or 1 (survival)
    # path arrays of 8 bytes a step
    p = ModelParams(x0=1.0, a=0.0, b=1.0, sigma=1.0, beta=0.7)
    grid = uniform_grid(256, 1.0)
    calls = {
        "hit times": lambda M: hitting_time_stats(p, fbm_kernel(0.8), M, [0.5, 1.0],
                                                  steps_per_unit=256, seed=1),
        "survival": lambda M: survival_bound_check(1.0, p, fbm_kernel(0.8), grid, M, seed=1),
    }
    for name, call in calls.items():
        call(32)  # the first call imports and caches what later calls reuse
        small, large = (traced_peak(lambda: call(M)) for M in (2000, 8000))
        assert large - small <= 64 * (8000 - 2000), name


def test_survival_variance_memory_grows_linearly_in_n():
    # sbar^2 comes from row blocks of C: doubling n doubles the peak, where
    # the (n+1)^2 covariance of wtilde quadrupled it
    p = ModelParams(x0=1.0, a=0.0, b=1.0, sigma=0.5, beta=0.7)
    call = lambda n: survival_bound_check(1.0, p, fbm_kernel(0.8), uniform_grid(n, 1.0), 8)
    call(1024)
    small, large = (traced_peak(lambda: call(n)) for n in (1024, 2048))
    assert large <= 3 * small


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


def test_hitting_requires_a_zero_and_positive_finite_horizons():
    p = ModelParams(x0=1.0, a=1.0, b=0.0, sigma=1.0, beta=0.5)
    with pytest.raises(ValueError, match="a = 0"):
        hitting_time_stats(p, brownian_kernel(), 10, [1.0])
    # these raised IndexError, OverflowError and int conversion errors
    for horizons in ([], [math.inf], [math.nan], [1.0, math.nan], [0.0, 1.0]):
        with pytest.raises(ValueError, match="horizons"):
            hitting_time_stats(replace(p, a=0.0), brownian_kernel(), 10, horizons)


def test_scaling_identity_trivial_eps_one():
    p = ModelParams(x0=1.0, a=1.0, b=1.0, sigma=0.3, beta=0.7)
    stat, pvalue = scaling_ks(p, hurst=0.75, eps=1.0, t=1.0, M=400, n=64, seed=2)
    assert pvalue > 0.01
    assert stat < 0.15


def test_scaling_identity_zero_noise_degenerate():
    # both sides deterministic: X at eps*t equals the (eps a, eps b) solution
    # at t, up to scheme error (a rank test is meaningless on two atoms)
    eps, t, n = 0.5, 1.0, 256
    p = ModelParams(x0=1.0, a=1.0, b=1.0, sigma=0.0, beta=0.7)
    scaled = ModelParams(x0=1.0, a=eps * 1.0, b=eps * 1.0, sigma=0.0, beta=0.7)
    zero = SamplePath(uniform_grid(n, t), np.zeros(n + 1))
    left = solve_gmr(p, zero, n).values[n // 2]
    right = solve_gmr(scaled, zero, n).values[-1]
    assert left == pytest.approx(right, abs=5.0 / n)


def test_scaling_identity_half_eps():
    p = ModelParams(x0=1.0, a=1.0, b=1.0, sigma=0.3, beta=0.7)
    assert scaling_ks(p, hurst=0.75, eps=0.5, t=1.0, M=800, n=128, seed=6)[1] > 0.01


def test_small_noise_concentration():
    # with noise eps sigma the solution concentrates on the noise-free
    # skeleton as eps decreases; one driver matrix serves every eps
    p = ModelParams(x0=1.0, a=1.0, b=1.0, sigma=1.0, beta=0.7)
    times = uniform_grid(64, 1.0)
    drivers = sample_path_matrix(fbm_kernel(0.8), times, 200, seed=3)
    skeleton = deterministic_ode_solution(p, times)
    medians = []
    for eps in (1.0, 0.5, 0.25):
        scaled = replace(p, sigma=eps * p.sigma)
        x = solve_matrix(scaled, times, tilde_w_matrix(drivers, times, scaled))[0]
        medians.append(np.quantile(np.max(np.abs(x - skeleton), axis=1), 0.5))
    drops = np.diff(medians)
    assert np.sum(drops > 0) <= 1  # nonincreasing, one inversion allowed
    assert medians[1] < medians[0]


def test_density_smoke_cases():
    # with noise on and t > 0 the marginal law has a density: its sample
    # has positive variance and no repeated values at double precision
    def samples(spec, t):
        return ensemble_stats(replace(spec, marginal_times=(t,))).marginal_samples[t]

    noisy = samples(_spec(M=1000, n=64), 0.5)
    assert np.var(noisy, ddof=1) > 0.0
    assert np.unique(noisy).size == noisy.size

    degenerate = _spec(params=ModelParams(x0=1.0, a=1.0, b=1.0, sigma=0.0, beta=0.5), M=100)
    assert np.var(samples(degenerate, 0.5), ddof=1) == 0.0
    assert np.var(samples(_spec(M=100), 0.0), ddof=1) == 0.0


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
    # nor any other scipy module: only the PK likelihood and fit import
    # scipy.linalg, when they run
    import os
    import subprocess
    import sys

    import gmr

    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(gmr.__file__)))
    code = ("import sys\n"
            "def scipy_modules(): return sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')\n"
            "import gmr\n"
            "print(scipy_modules())\n"
            "import gmr.cli\n"
            "print(scipy_modules())")
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True, env=env
    )
    assert out.stdout.splitlines() == ["[]", "[]"]


def test_ensemble_peak_memory_stays_within_two_and_a_quarter_path_arrays():
    # the two (M, n+1) arrays returned, x and y, and one bool mask: with
    # a > 0 the lift is written into the dead wtilde buffer, with a = 0 the
    # levels y0 + wtilde are; the sup norms read x itself (x >= 0). Keeping
    # wtilde live through the lift, and taking |x|, peaked at 4.04-4.13
    for a in (1.0, 0.0):
        spec = _spec(params=ModelParams(x0=1.0, a=a, b=1.0, sigma=0.5, beta=0.7),
                     kernel=brownian_kernel(), M=1024, n=1024)
        peak = traced_peak(lambda: ensemble_simulate(spec))
        assert peak <= 2.25 * spec.M * (spec.n + 1) * 8, a


def test_ensemble_stats_peak_memory_does_not_grow_with_M(monkeypatch):
    # chunks of 1024 paths (about the byte cap's width at n = 4096): two
    # (n+1, 1024) arrays and a few numbers per path, however many paths
    # there are (ensemble_simulate(...).stats grows by about 2 path arrays
    # from M = 2000 to 8000)
    monkeypatch.setattr(montecarlo, "_CHUNK_BYTES", 8 * 257 * 1024)
    for a in (1.0, 0.0):
        peaks = {}
        for m in (2000, 8000):
            spec = _spec(params=ModelParams(x0=1.0, a=a, b=1.0, sigma=0.5, beta=0.7),
                         kernel=fbm_kernel(0.7), M=m, n=256, marginal_times=(0.5,))
            peaks[m] = traced_peak(lambda: ensemble_stats(spec))
        assert peaks[8000] <= peaks[2000] + 4 * 8 * (8000 - 2000), (a, peaks)
        assert peaks[8000] <= 0.75 * 8000 * 257 * 8, (a, peaks)  # no (M, n+1) array


@pytest.mark.parametrize("params", [
    ModelParams(x0=1.0, a=1.0, b=2.0, sigma=0.5, beta=0.7),
    ModelParams(x0=1.0, a=0.0, b=1.0, sigma=1.5, beta=0.6),
    ModelParams(x0=2.0, a=0.5, b=0.0, sigma=0.8, beta=0.5),
], ids=["a>0", "a=0", "beta=0.5"])
def test_ensemble_stats_are_the_simulated_stats_bitwise(monkeypatch, params):
    # chunks of 96 paths (the byte cap of large n, scaled down): full and
    # partial chunks, and a one-chunk ensemble
    monkeypatch.setattr(montecarlo, "_CHUNK_BYTES", 8 * 65 * 100)
    for kernel, m in ((fbm_kernel(0.3), 250), (brownian_kernel(), 192), (fbm_kernel(0.8), 7)):
        spec = _spec(params=params, kernel=kernel, M=m, n=64, seed=m,
                     marginal_times=(0.0, 0.5, 1.0))
        want, got = ensemble_simulate(spec).stats, ensemble_stats(spec)
        assert got.lp_estimates == want.lp_estimates
        assert got.hit_fraction == want.hit_fraction
        assert np.array_equal(got.hit_times, want.hit_times)
        assert got.marginal_samples.keys() == want.marginal_samples.keys()
        for t, values in want.marginal_samples.items():
            assert np.array_equal(got.marginal_samples[t], values)
    if params.a == 0.0:
        assert 0.0 < want.hit_fraction < 1.0
    with pytest.raises(ValueError, match="not on the grid"):
        ensemble_stats(_spec(params=params, marginal_times=(0.3,)))


@pytest.mark.parametrize("fields, name", [
    (dict(marginal_times=(0.3,)), "marginal_times"),
    (dict(marginal_times=(0.5, math.nan)), "marginal_times"),
    (dict(marginal_times=(math.inf,)), "marginal_times"),
    (dict(marginal_times=(0.5, -math.inf)), "marginal_times"),
    (dict(p_exponents=(2.0, math.nan)), "p_exponents"),
    (dict(p_exponents=(math.inf,)), "p_exponents"),
    (dict(p_exponents=(0.5,)), "p_exponents"),
    (dict(horizon=math.inf), "horizon"),
    (dict(horizon=math.nan), "horizon"),
    (dict(M=0), "M"),
])
def test_ensemble_spec_rejects_a_bad_field_when_built(fields, name):
    # before any path is drawn: an off-grid marginal time used to raise only
    # once the whole ensemble was solved, a NaN exponent ended in an
    # OverflowError, and p = inf gave an estimate of 1.0
    with pytest.raises(ValueError, match=f"^{name}: "):
        _spec(**fields)


def test_nonfinite_lift_or_moment_of_a_positive_solution_raises():
    # beta = 0.99 lifts y to its 100th power: large noise overflows x, and
    # smaller noise leaves x finite but its 2nd moment past the float range
    for sigma, message in ((6e4, "lift .* not finite"), (1e3, "lp estimate .* not finite")):
        spec = _spec(params=ModelParams(x0=1.0, a=1.0, b=0.0, sigma=sigma, beta=0.99),
                     kernel=brownian_kernel(), M=64, n=64)
        for simulate in (ensemble_simulate, ensemble_stats):
            with pytest.raises(OverflowError, match=message):
                simulate(spec)
    # the one-path and row routes lift through the same check
    p = replace(spec.params, sigma=6e4)
    times = uniform_grid(64, 1.0)
    with pytest.raises(OverflowError, match="lift .* not finite"):
        solve_matrix(p, times, sampled_tilde_w(brownian_kernel(), times, 64, 0, p))


def test_solve_matrix_rows_match_single_path_routines():
    times = uniform_grid(128, 2.0)
    drivers = sample_path_matrix(fbm_kernel(0.6), times, 40, seed=11)
    # a = 0: the absorbed rows and their hits are bitwise the one-path solution's
    p0 = ModelParams(x0=1.0, a=0.0, b=4.0, sigma=2.0, beta=0.8)
    x, _, hit = solve_matrix(p0, times, tilde_w_matrix(drivers, times, p0))
    for i, row in enumerate(drivers):
        single = solve_gmr(p0, SamplePath(times, row), 128).values
        assert np.array_equal(x[i], single)
        assert hit[i] == first_hit(single)
    assert 0 < np.sum(hit < times.size) < len(drivers)
    # a > 0: each row agrees with its one-row solve, and x is the lift of y
    p1 = ModelParams(x0=1.0, a=1.0, b=2.0, sigma=0.5, beta=0.7)
    wt = tilde_w_matrix(drivers, times, p1)
    x, y, hit = solve_matrix(p1, times, wt)
    assert np.all(hit == times.size)
    assert np.array_equal(x, lift(y, times, p1))
    for yi, row in zip(y, wt):
        one = implicit_euler_nodes(p1, times, row[None])[0]
        assert np.all(np.abs(yi - one) <= 1e-10 * np.maximum(1.0, one))


def test_lift_underflow_counts_as_hit_in_ensembles():
    # with b = 800 and no noise the positive level lifts to x == 0.0 from
    # t = 60/64 on; ensembles and the one-path solution both absorb there
    p = ModelParams(x0=1.0, a=0.0, b=800.0, sigma=0.0, beta=0.5)
    res = ensemble_simulate(_spec(params=p, M=3, n=64))
    single = solve_gmr(p, SamplePath(res.times, np.zeros(65)), 64).values
    assert first_hit(single) == 60
    assert res.stats.hit_fraction == 1.0
    assert np.all(res.stats.hit_times == res.times[60])
    assert np.array_equal(res.x, np.tile(single, (3, 1)))


def test_nonfinite_lift_of_a_positive_level_raises():
    # b t past ~709: y^(gamma+1) overflows while e^(-bt) underflows, and
    # inf * 0 = NaN used to be recorded as a zero hit of a positive level
    p = ModelParams(x0=1.0, a=0.0, b=800.0, sigma=1.0, beta=0.7)
    with pytest.raises(OverflowError, match="not finite"):
        ensemble_simulate(_spec(params=p, kernel=fbm_kernel(0.9), M=200, n=64, seed=3))
    # after a hit the level is discarded, so a non-finite lift there is not an error
    times = uniform_grid(4, 1.0)
    absorbed = np.array([[0.0, -2.0, 1e150, 1e150, 1e150]])
    x, _, hit = solve_matrix(p, times, absorbed)
    assert hit.tolist() == [1]
    assert np.all(x[0, 1:] == 0.0)
    with pytest.raises(OverflowError, match="not finite"):
        solve_matrix(p, times, np.array([[0.0, 0.0, 0.0, 0.0, 1e150]]))


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
                assert np.array_equal(row, solve_gmr(p, path, n).values)
                hit = first_hit(row)
            else:
                # both root solvers stop at |f| <= 1e-12 max(1, |A|), so the
                # levels agree on that scale, and x is the same lift of them
                y = scalar_scheme(p, result.times, tilde_w_matrix(driver[None], result.times, p)[0])
                assert np.all(np.abs(level - y) <= 1e-10 * np.maximum(1.0, y))
                assert np.array_equal(row, lift(level, result.times, p))
                hit = row.size
            assert np.all(np.isfinite(row[:hit])) and np.all(row[:hit] > 0.0)
            assert np.all(row[hit:] == 0.0)
