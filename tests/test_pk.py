import dataclasses
import gc
import math
import threading
import weakref

import numpy as np
import pytest
from scipy.integrate import quad as integrate
from scipy.optimize import minimize, minimize_scalar
from scipy.special import ndtr

import gmr.pk
from gmr.drivers import (
    CovarianceError,
    brownian_kernel,
    covariance_matrix,
    custom_kernel,
    fbm_kernel,
    grid_index,
    sample_path_matrix,
    uniform_grid,
    _cholesky_with_jitter,
)
from gmr.pk import (
    AdmissibilityError,
    ConcentrationSeries,
    PkParams,
    SensitivitySpec,
    ThetaBounds,
    build_quad_grid,
    deterministic_concentration,
    fit_mle,
    log_likelihood,
    sensitivity_fd,
    sensitivity_plsin,
    simulate_concentration,
    _brent_minimize,
    _finite,
    _likelihood_core,
    _log_likelihood_from,
    _ObservationBlock,
    _stopped_levels,
)
from gmr.transform import (
    ModelParams,
    check_lift,
    first_hit,
    lift_into,
    tilde_w_covariance_matrix,
    tilde_w_matrix,
)
from test_transform import ROUTES, lift

FIG1 = dict(A0=1.0, v=1.0, Ke=4.0, sigma=1.0, beta=0.8)


def z_mean(t, pk: PkParams):
    """Mean of the transformed concentration: (A0/v)^(1-beta) e^(-Ke(1-beta)t)."""
    t = np.asarray(t, dtype=float)
    omb = 1.0 - pk.beta
    out = pk.initial_concentration**omb * np.exp(-pk.Ke * omb * t)
    return float(out) if out.ndim == 0 else out


def gamma_matrix_from_theta(theta, times, kernel, quad_grid):
    """Covariance of the transformed observations for theta = (Ke, sigma, beta).

    The transformed process minus its mean is e^(-Ke(1-beta)t) wtilde_t,
    so entry (i, j) is e^(-Ke(1-beta)(t_i+t_j)) Cov(wtilde_ti, wtilde_tj).
    It is computed as sigma^2 (1-beta)^2 G(Ke(1-beta)) with G = R C R^T
    from _ObservationBlock. R is the damped observation rows of the map A
    that tilde_w_covariance_matrix applies on both sides of C, so this is
    that covariance's observation block, damped, up to rounding.
    """
    ke, sigma, beta = (float(v) for v in theta)
    omb = 1.0 - beta
    return sigma**2 * omb**2 * _ObservationBlock(times, kernel, quad_grid).pair(ke * omb)[0]


def concentration_functional_samples(pk, x, spec, kernel):
    """Per-path values F(C_tau^x) for the spec's ensemble, as the estimators make them."""
    mp, [(tau, y_tau, _)] = _stopped_levels(pk, (x,), spec, kernel)
    return _finite(spec.F(lift_into(np.empty_like(y_tau), y_tau, tau, mp)), "F")


def zero_kernel(n, horizon):
    grid = uniform_grid(n, horizon)
    return custom_kernel(grid, np.zeros((n + 1, n + 1)), holder_exponent=1.0)


def brownian_wtilde_cov(sigma, beta, b, s, t):
    """Ito-isometry closed form for the Brownian driver."""
    lo = min(s, t)
    rate = 2.0 * b * (1.0 - beta)
    if rate == 0.0:
        return sigma**2 * (1.0 - beta) ** 2 * lo
    return sigma**2 * (1.0 - beta) ** 2 * (math.exp(rate * lo) - 1.0) / rate


def test_pk_params_validation_and_mapping():
    pk = PkParams(**FIG1)
    mp = pk.to_model_params()
    assert (mp.x0, mp.a, mp.b, mp.sigma, mp.beta) == (1.0, 0.0, 4.0, 1.0, 0.8)
    with pytest.raises(ValueError):
        PkParams(A0=0.0, v=1.0, Ke=4.0, sigma=1.0, beta=0.8)
    with pytest.raises(ValueError):
        PkParams(A0=1.0, v=1.0, Ke=0.0, sigma=1.0, beta=0.8)
    with pytest.raises(ValueError):
        PkParams(A0=1.0, v=1.0, Ke=4.0, sigma=0.0, beta=0.8)


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("field", ["A0", "v", "Ke", "sigma"])
def test_pk_params_reject_nonfinite_constants(field, value):
    with pytest.raises(ValueError, match=f"^{field} must be finite$"):
        PkParams(**{**FIG1, field: value})


def test_observation_block_checks_the_quadrature_grid():
    times = np.array([0.5, 1.0])
    for grid in ([0.0, 0.5, 1.0, math.inf], [0.0, 0.5, math.nan, 1.0]):
        with pytest.raises(ValueError, match="finite"):
            _ObservationBlock(times, brownian_kernel(), np.array(grid))


def test_deterministic_concentration_cases():
    bolus = PkParams(A0=3.0, v=2.0, Ke=4.0, sigma=1.0, beta=0.8)
    assert deterministic_concentration(bolus, 0.0) == 1.5


def test_simulate_concentration_zero_noise_limit():
    pk = PkParams(**FIG1)
    out = simulate_concentration(pk, zero_kernel(64, 1.0), 64, seed=0)
    assert first_hit(out.values) == out.times.size
    np.testing.assert_allclose(out.values, np.exp(-4.0 * out.times), rtol=1e-12)


def test_simulate_concentration_reproducible():
    pk = PkParams(**FIG1)
    a = simulate_concentration(pk, fbm_kernel(0.9), 128, seed=3)
    b = simulate_concentration(pk, fbm_kernel(0.9), 128, seed=3)
    assert np.array_equal(a.times, b.times)
    assert np.array_equal(a.values, b.values)


def test_simulate_concentration_nonnegative_and_absorbed():
    pk = PkParams(A0=1.0, v=1.0, Ke=4.0, sigma=2.0, beta=0.8)
    hit_seen = False
    for seed in range(12):
        out = simulate_concentration(pk, fbm_kernel(0.6), 128, seed=seed, horizon=2.0)
        hit = first_hit(out.values)
        assert np.all(out.values[:hit] > 0.0) and np.all(out.values[hit:] == 0.0)
        hit_seen |= hit < out.values.size
    assert hit_seen


def test_simulate_concentration_figure1_log_trend():
    # smooth driver case: the log concentration keeps the -Ke trend
    # (individual paths wander, so check the median fitted slope)
    pk = PkParams(**FIG1)
    slopes = []
    for seed in range(12):
        out = simulate_concentration(pk, fbm_kernel(0.9), 200, seed=seed)
        t = out.times
        keep = (t <= 0.5) & (out.values > 0)
        slopes.append(np.polyfit(t[keep], np.log(out.values[keep]), 1)[0])
    assert -6.0 <= np.median(slopes) <= -2.0  # within 50% of -Ke = -4


def test_z_mean_values():
    pk = PkParams(A0=2.0, v=1.0, Ke=4.0, sigma=1.0, beta=0.8)
    assert z_mean(0.0, pk) == pytest.approx(2.0**0.2, rel=1e-15)
    unit = PkParams(**FIG1)
    assert z_mean(0.7, unit) == pytest.approx(math.exp(-4.0 * 0.2 * 0.7), rel=1e-14)
    assert z_mean(0.5, pk) == pytest.approx(2.0**0.2 * math.exp(-0.4), rel=1e-14)


def test_gamma_matrix_zero_noise_is_zero():
    grid = uniform_grid(64, 2.0)
    gam = gamma_matrix_from_theta(
        (4.0, 0.0, 0.8), np.array([0.5, 1.0]), brownian_kernel(), grid
    )
    assert np.all(gam == 0.0)


def test_gamma_matrix_no_elimination_closed_form():
    # Ke = 0 turns the damping off: entries are sigma^2 (1-beta)^2 min(ti, tj)
    grid = uniform_grid(64, 2.0)
    gam = gamma_matrix_from_theta(
        (0.0, 1.0, 0.5), np.array([1.0, 2.0]), brownian_kernel(), grid
    )
    np.testing.assert_allclose(
        gam, np.array([[0.25, 0.25], [0.25, 0.5]]), rtol=0, atol=1e-12
    )


def test_gamma_matrix_brownian_closed_form_with_elimination():
    pk = PkParams(A0=1.0, v=1.0, Ke=2.0, sigma=0.8, beta=0.6)
    times = np.array([0.25, 0.5, 1.0])
    grid = build_quad_grid(times, refine=200)
    gam = gamma_matrix_from_theta((pk.Ke, pk.sigma, pk.beta), times, brownian_kernel(), grid)
    omb = 1.0 - pk.beta
    for i, s in enumerate(times):
        for j, t in enumerate(times):
            expected = math.exp(-pk.Ke * omb * (s + t)) * brownian_wtilde_cov(
                pk.sigma, pk.beta, pk.Ke, s, t
            )
            assert gam[i, j] == pytest.approx(expected, rel=1e-5)


def test_gamma_matrix_symmetric_psd_and_row_decay():
    pk = PkParams(**FIG1)
    times = np.linspace(0.1, 1.0, 10)
    grid = build_quad_grid(times)
    gam = gamma_matrix_from_theta((pk.Ke, pk.sigma, pk.beta), times, brownian_kernel(), grid)
    assert np.array_equal(gam, gam.T)
    np.linalg.cholesky(gam + 1e-15 * np.eye(10))
    # fixed row: the e^{-Ke(1-beta)(ti+tj)} damping wins as tj grows past ti
    for i in range(10):
        row = gam[i, i:]
        assert np.all(np.diff(row) < 0.0)


def test_log_likelihood_indicator():
    obs = ConcentrationSeries(np.array([0.2, 0.4]), np.array([0.5, 0.0]))
    assert log_likelihood((4.0, 1.0, 0.8), obs, brownian_kernel(), 1.0, 1.0) == -math.inf
    neg = ConcentrationSeries(np.array([0.2, 0.4]), np.array([0.5, -0.1]))
    assert log_likelihood((4.0, 1.0, 0.8), neg, brownian_kernel(), 1.0, 1.0) == -math.inf


def test_log_likelihood_single_observation_oracle():
    pk = PkParams(**FIG1)
    obs = ConcentrationSeries(np.array([0.3]), np.array([0.25]))
    quad = build_quad_grid(obs.times)
    got = log_likelihood((4.0, 1.0, 0.8), obs, brownian_kernel(), 1.0, 1.0, quad_grid=quad)
    v1 = gamma_matrix_from_theta((pk.Ke, pk.sigma, pk.beta), obs.times, brownian_kernel(), quad)[0, 0]
    u = 0.25**0.2 - z_mean(0.3, pk)
    direct = (
        math.log(0.2)
        - 0.5 * math.log(2.0 * math.pi)
        - 0.5 * math.log(v1)
        - 0.5 * u**2 / v1
        - 0.8 * math.log(0.25)
    )
    assert got == pytest.approx(direct, abs=1e-10)


def test_log_likelihood_two_observations_oracle():
    theta = (3.0, 0.7, 0.6)
    obs = ConcentrationSeries(np.array([0.4, 0.9]), np.array([0.3, 0.05]))
    quad = build_quad_grid(obs.times)
    got = log_likelihood(theta, obs, fbm_kernel(0.7), 1.0, 1.0, quad_grid=quad)
    gam = gamma_matrix_from_theta(theta, obs.times, fbm_kernel(0.7), quad)
    det = gam[0, 0] * gam[1, 1] - gam[0, 1] ** 2
    inv = np.array([[gam[1, 1], -gam[0, 1]], [-gam[0, 1], gam[0, 0]]]) / det
    omb = 1.0 - theta[2]
    u = obs.concentrations**omb - np.exp(-theta[0] * omb * obs.times)
    direct = (
        2.0 * math.log(omb)
        - math.log(2.0 * math.pi)
        - 0.5 * math.log(abs(det))
        - 0.5 * float(u @ inv @ u)
        - theta[2] * float(np.sum(np.log(obs.concentrations)))
    )
    assert got == pytest.approx(direct, abs=1e-10)


@pytest.mark.parametrize("sigma", [1.0, 4.0])
def test_log_likelihood_normalized(sigma):
    # one observation: z = x^(1-beta) is Gaussian and x > 0 exactly when z > 0,
    # so the density of x integrates to P(z > 0) = Phi(mean / sd)
    theta = (4.0, sigma, 0.8)
    t = np.array([0.3])
    quad = build_quad_grid(t, refine=32)

    def density(x):
        obs = ConcentrationSeries(t, np.array([x]))
        return math.exp(log_likelihood(theta, obs, brownian_kernel(), 1.0, 1.0,
                                       quad_grid=quad))

    mass = sum(integrate(density, lo, hi, limit=200, epsabs=1e-13, epsrel=1e-12)[0]
               for lo, hi in ((0.0, 1.0), (1.0, math.inf)))
    sd = math.sqrt(gamma_matrix_from_theta(theta, t, brownian_kernel(), quad)[0, 0])
    mean = z_mean(0.3, PkParams(A0=1.0, v=1.0, Ke=4.0, sigma=sigma, beta=0.8))
    assert mass == pytest.approx(ndtr(mean / sd), abs=1e-8)


def test_gamma_matrix_scales_with_sigma_squared():
    times = np.array([0.1, 0.35, 0.6, 1.0])
    grid = build_quad_grid(times)
    for kernel in (brownian_kernel(), fbm_kernel(0.7)):
        unit = gamma_matrix_from_theta((3.0, 1.0, 0.6), times, kernel, grid)
        for sigma in (0.37, 2.5):
            scaled = gamma_matrix_from_theta((3.0, sigma, 0.6), times, kernel, grid)
            np.testing.assert_allclose(scaled, sigma**2 * unit, rtol=1e-13, atol=0)


def _full_wtilde_block(theta, times, kernel, grid):
    """Gamma built as before: the full wtilde covariance, its observation block, damped."""
    ke, sigma, beta = theta
    p = ModelParams(x0=1.0, a=0.0, b=ke, sigma=sigma, beta=beta)
    full = tilde_w_covariance_matrix(p, kernel, grid)
    idx = np.array([grid_index(grid, t) for t in times])
    damp = np.exp(-ke * (1.0 - beta) * times)
    out = np.outer(damp, damp) * full[np.ix_(idx, idx)]
    return 0.5 * (out + out.T)


OBSERVATION_SETS = {
    # the benchmark's 50 times on a 251-point grid, a sampling schedule, and
    # every grid point observed (n = N, where the product R^T costs the most)
    "uniform": (np.arange(1, 51) / 50, 5),
    "schedule": (np.array([0.02, 0.05, 0.1, 0.2, 0.35, 0.5, 0.75, 1.0, 1.5]), None),
    "every-point": (np.arange(1, 65) / 64, 1),
}


@pytest.mark.parametrize("name", sorted(OBSERVATION_SETS))
@pytest.mark.parametrize("kernel", [brownian_kernel(), fbm_kernel(0.3), fbm_kernel(0.9)],
                         ids=["brownian", "fbm0.3", "fbm0.9"])
def test_gamma_matrix_is_the_damped_block_of_the_full_wtilde_covariance(kernel, name):
    # kappa = Ke(1-beta) stays below 8.4: at kappa t = 19 the full six-pass
    # quadrature is itself off by 1.4e-13 of the largest entry (against long double)
    times, refine = OBSERVATION_SETS[name]
    grid = build_quad_grid(times, refine)
    rng = np.random.default_rng(17)
    for _ in range(8):
        theta = (rng.uniform(0.2, 12.0), rng.uniform(0.2, 3.0), rng.uniform(0.3, 0.95))
        got = gamma_matrix_from_theta(theta, times, kernel, grid)
        want = _full_wtilde_block(theta, times, kernel, grid)
        assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))


@pytest.mark.parametrize("kernel", [brownian_kernel(), fbm_kernel(0.9)], ids=["brownian", "fbm0.9"])
def test_log_likelihood_matches_the_full_wtilde_covariance_core(kernel):
    obs = _synthetic_obs(1)
    quad = build_quad_grid(obs.times)
    x, n = obs.concentrations, len(obs)
    for theta in ((4.0, 1.0, 0.8), (1.5, 0.4, 0.5), (12.0, 2.0, 0.3)):
        ke, sigma, beta = theta
        omb = 1.0 - beta
        factor = _cholesky_with_jitter(_full_wtilde_block((ke, 1.0, beta), obs.times, kernel, quad))
        u = x**omb - np.exp(-ke * omb * obs.times)
        half = np.linalg.solve(factor, u)
        want = (n * math.log(omb) - 0.5 * n * math.log(2.0 * math.pi)
                - float(np.sum(np.log(np.diag(factor)))) - n * math.log(sigma)
                - 0.5 * float(half @ half) / sigma**2 - beta * float(np.sum(np.log(x))))
        got = log_likelihood(theta, obs, kernel, 1.0, 1.0, quad_grid=quad)
        assert got == pytest.approx(want, rel=1e-12, abs=0)


def test_gamma_matrix_overflow_raises_covariance_error():
    # e^(kappa s) overflows past kappa s of about 709: an error, never a NaN block
    times = np.array([10.0, 20.0])
    with pytest.raises(CovarianceError, match="overflows"):
        gamma_matrix_from_theta((50.0, 1.0, 0.05), times, brownian_kernel(),
                                build_quad_grid(times))


def test_fit_steps_back_from_a_kappa_whose_g_overflows(monkeypatch):
    # the top scan point kappa_max / 4 = 237.5 puts kappa t up to 2375, past
    # e^(kappa t)'s range: that outer step scores +inf and the search goes on
    overflowed = []
    build = gmr.pk._g_matrix

    def recorded(*arrays_and_kappa):
        try:
            return build(*arrays_and_kappa)
        except CovarianceError:
            overflowed.append(arrays_and_kappa[-1])
            raise

    monkeypatch.setattr(gmr.pk, "_g_matrix", recorded)
    monkeypatch.setattr(gmr.pk, "_design", None)
    times = np.linspace(0.25, 10.0, 40)
    noise = np.random.default_rng(3).lognormal(0.0, 0.1, times.size)
    obs = ConcentrationSeries(times, np.exp(-0.3 * times) * noise)
    kernel = fbm_kernel(0.8)
    est = fit_mle(obs, kernel, (2.0, 0.5, 0.5), 1.0, 1.0, bounds=ThetaBounds(ke_max=1000.0))
    assert overflowed == [pytest.approx(1000.0 * 0.95 / 4.0, rel=1e-12)]
    assert est.converged
    theta = (est.Ke, est.sigma, est.beta)
    assert est.log_likelihood == log_likelihood(theta, obs, kernel, 1.0, 1.0)


def test_log_likelihood_permutation_invariant():
    t = np.array([0.2, 0.5, 0.8])
    x = np.array([0.7, 0.3, 0.1])
    perm = [2, 0, 1]
    a = ConcentrationSeries(t, x)
    b = ConcentrationSeries(t[perm], x[perm])
    la = log_likelihood((4.0, 1.0, 0.8), a, brownian_kernel(), 1.0, 1.0)
    lb = log_likelihood((4.0, 1.0, 0.8), b, brownian_kernel(), 1.0, 1.0)
    assert la == lb


def test_log_likelihood_theta_domain():
    obs = ConcentrationSeries(np.array([0.5]), np.array([0.5]))
    for bad in ((0.0, 1.0, 0.8), (4.0, 0.0, 0.8), (4.0, 1.0, 1.0)):
        with pytest.raises(ValueError, match="theta"):
            log_likelihood(bad, obs, brownian_kernel(), 1.0, 1.0)


def _synthetic_obs(seed, n_obs=40, sim_n=400, horizon=1.0, kernel=brownian_kernel(),
                   pk=PkParams(**FIG1)):
    out = simulate_concentration(pk, kernel, sim_n, seed, horizon)
    if first_hit(out.values) < out.values.size:
        return None
    stride = sim_n // n_obs
    return ConcentrationSeries(out.times[stride::stride], out.values[stride::stride])


def test_likelihood_prefers_truth_on_average():
    gaps = []
    seed = 0
    while len(gaps) < 50:
        obs = _synthetic_obs(seed)
        seed += 1
        if obs is None:
            continue
        quad = build_quad_grid(obs.times)
        ll_true = log_likelihood((4.0, 1.0, 0.8), obs, brownian_kernel(), 1, 1, quad_grid=quad)
        ll_off = log_likelihood((6.0, 1.0, 0.8), obs, brownian_kernel(), 1, 1, quad_grid=quad)
        gaps.append(ll_true - ll_off)
    assert np.mean(gaps) > 0.0


def test_fit_mle_ascent_and_convergence():
    obs = _synthetic_obs(1)
    assert obs is not None
    bounds = ThetaBounds(ke_max=20.0, sigma_max=10.0)
    quad = build_quad_grid(obs.times)
    init = (2.0, 0.5, 0.5)
    ll_init = log_likelihood(init, obs, brownian_kernel(), 1, 1, quad_grid=quad)
    est = fit_mle(obs, brownian_kernel(), init, 1.0, 1.0, bounds=bounds, quad_grid=quad)
    assert est.log_likelihood >= ll_init
    assert est.converged
    assert 0 < est.iterations <= 2000
    # the reported value is log_likelihood at the estimate, bitwise, and the
    # estimate's sigma is the profile maximum at its (Ke, beta)
    theta = (est.Ke, est.sigma, est.beta)
    assert est.log_likelihood == log_likelihood(theta, obs, brownian_kernel(), 1, 1,
                                                quad_grid=quad)
    for step in (1.0 - 1e-3, 1.0 + 1e-3):
        moved = (est.Ke, est.sigma * step, est.beta)
        assert log_likelihood(moved, obs, brownian_kernel(), 1, 1,
                              quad_grid=quad) < est.log_likelihood
    # restarting from the argmax cannot lose likelihood
    again = fit_mle(
        obs, brownian_kernel(), (est.Ke, est.sigma, est.beta), 1.0, 1.0,
        bounds=bounds, quad_grid=quad,
    )
    assert again.log_likelihood >= est.log_likelihood - 1e-9


def test_fit_mle_capped_by_max_iter_is_not_converged():
    # max_iter caps the outer steps, inside the scan (3) and one step
    # short of the natural stop of Brent's search
    obs = _synthetic_obs(1)
    quad = build_quad_grid(obs.times)
    bounds = ThetaBounds(ke_max=20.0, sigma_max=10.0)
    full = fit_mle(obs, brownian_kernel(), (2.0, 0.5, 0.5), 1.0, 1.0, bounds=bounds,
                   quad_grid=quad)
    assert full.converged
    for cap in (3, full.iterations - 1):
        est = fit_mle(obs, brownian_kernel(), (2.0, 0.5, 0.5), 1.0, 1.0, bounds=bounds,
                      quad_grid=quad, max_iter=cap)
        assert est.iterations == cap
        assert est.converged is False
    again = fit_mle(obs, brownian_kernel(), (2.0, 0.5, 0.5), 1.0, 1.0, bounds=bounds,
                    quad_grid=quad, max_iter=full.iterations)
    assert again == full
    # one build finds nothing as likely as a start at the optimum: the start comes back
    restart = fit_mle(obs, brownian_kernel(), (full.Ke, full.sigma, full.beta), 1.0, 1.0,
                      bounds=bounds, quad_grid=quad, max_iter=1)
    assert restart == dataclasses.replace(full, converged=False, iterations=1)


def _nelder_mead_fit(obs, kernel, init, bounds, quad):
    """The profile-likelihood Nelder-Mead fit that fit_mle's nested search replaced.

    sigma is profiled out at each (Ke, beta); Nelder-Mead searches
    (log Ke, logit of beta over its bracket) from an explicit simplex
    and stops on its size alone. Returns (Ke, sigma, beta, log-likelihood).
    """
    block = _ObservationBlock(obs.times, kernel, quad)
    span = bounds.beta_max - bounds.beta_min

    def profile(u):
        ke = math.exp(u[0])
        beta = bounds.beta_min + span / (1.0 + math.exp(-u[1]))
        if ke > bounds.ke_max:
            return None, math.inf
        try:
            logdet, q = _likelihood_core(ke, beta, obs, block, 1.0, 1.0)
        except CovarianceError:
            return None, math.inf
        sigma = min(math.sqrt(q / len(obs)), bounds.sigma_max)
        return (ke, sigma, beta), -_log_likelihood_from(sigma, beta, obs.concentrations,
                                                        logdet, q)

    frac = min(max((init[2] - bounds.beta_min) / span, 1e-12), 1.0 - 1e-12)
    u0 = np.array([math.log(init[0]), math.log(frac / (1.0 - frac))])
    simplex = np.vstack([u0, u0 + [0.5, 0.0], u0 + [0.0, 0.5]])
    result = minimize(lambda u: profile(u)[1], u0, method="Nelder-Mead",
                      options=dict(maxiter=2000, maxfev=16000, xatol=1e-7, fatol=math.inf,
                                   initial_simplex=simplex))
    theta, f = profile(result.x)
    return (*theta, -f)


@pytest.mark.parametrize("kernel", [brownian_kernel(), fbm_kernel(0.9)], ids=["brownian", "fbm0.9"])
def test_fit_mle_matches_the_nelder_mead_fit(kernel):
    # the likelihoods agree to about 1e-13 relative; 1e-10 still catches an
    # inner search that stops 3e-8 short of beta_max (a 2e-9 loss)
    bounds = ThetaBounds(ke_max=20.0, sigma_max=10.0)
    init = (2.0, 0.5, 0.5)
    fits, seed = 0, 0
    while fits < 5:
        obs = _synthetic_obs(seed, kernel=kernel)
        seed += 1
        if obs is None:
            continue
        fits += 1
        quad = build_quad_grid(obs.times)
        est = fit_mle(obs, kernel, init, 1.0, 1.0, bounds=bounds, quad_grid=quad)
        assert est.converged
        *theta, ll = _nelder_mead_fit(obs, kernel, init, bounds, quad)
        np.testing.assert_allclose([est.Ke, est.sigma, est.beta], theta, rtol=0, atol=1e-4)
        assert est.log_likelihood >= ll - 1e-10 * abs(ll)


def test_fit_mle_extends_the_scan_below_its_lowest_kappa():
    # Ke = 2e-3 with little noise: the optimum kappa is about 3e-5, below the
    # scan's lowest point kappa_max / 4^6 = 4.6e-3, so the scan goes down by
    # decades; without that the optimum is pinned at the lowest point
    bounds = ThetaBounds(ke_max=20.0, sigma_max=10.0)
    slow = PkParams(A0=1.0, v=1.0, Ke=2e-3, sigma=1e-3, beta=0.8)
    obs = _synthetic_obs(5, pk=slow)
    quad = build_quad_grid(obs.times)
    lowest = 19.0 / 4.0**6
    est = fit_mle(obs, brownian_kernel(), (2.0, 0.5, 0.5), 1.0, 1.0, bounds=bounds,
                  quad_grid=quad)
    assert est.converged
    assert est.Ke * (1.0 - est.beta) < 0.1 * lowest
    *theta, ll = _nelder_mead_fit(obs, brownian_kernel(), (2.0, 0.5, 0.5), bounds, quad)
    np.testing.assert_allclose([est.Ke, est.sigma, est.beta], theta, rtol=0, atol=1e-4)
    assert est.log_likelihood >= ll - 1e-10 * abs(ll)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(gmr.pk, "_SCAN_EXTENSIONS", 0)
        pinned = fit_mle(obs, brownian_kernel(), (2.0, 0.5, 0.5), 1.0, 1.0, bounds=bounds,
                         quad_grid=quad)
    assert pinned.converged is False
    assert pinned.log_likelihood < est.log_likelihood


@pytest.mark.parametrize("ke_max", [2.0, 3.0])
def test_fit_mle_keeps_ke_within_its_bound(ke_max):
    # below the truth Ke = 4 the optimum lies on Ke = ke_max: the beta
    # bracket ends at 1 - kappa/ke_max, so the search stays inside the box
    obs = _synthetic_obs(1)
    quad = build_quad_grid(obs.times)
    bounds = ThetaBounds(ke_max=ke_max, sigma_max=10.0)
    est = fit_mle(obs, brownian_kernel(), (1.0, 0.5, 0.5), 1.0, 1.0, bounds=bounds,
                  quad_grid=quad)
    assert est.converged and est.Ke <= ke_max
    *theta, ll = _nelder_mead_fit(obs, brownian_kernel(), (1.0, 0.5, 0.5), bounds, quad)
    np.testing.assert_allclose([est.Ke, est.sigma, est.beta], theta, rtol=0, atol=1e-4)
    assert est.log_likelihood >= ll - 1e-10 * abs(ll)


@pytest.mark.parametrize("f, lo, hi", [
    (lambda x: (x - 0.3137) ** 2, 0.05, 0.95),
    (lambda x: (x + 1.7) ** 4 - math.log(x + 3.0), -2.9, 4.0),
    (math.exp, -1.0, 2.0),
    (lambda x: math.sin(5.0 * x) + 0.1 * x * x, -3.0, 3.0),
    (lambda x: x * x - x if x < 1.0 else math.inf, 0.0, 3.0),
], ids=["quadratic", "quartic-log", "at-the-edge", "bumpy", "infinite-above-1"])
def test_brent_minimize_follows_scipy_bounded_search(f, lo, hi):
    # the same rule and tolerance as scipy's bounded minimize_scalar: the
    # same points are evaluated, in the same order
    for xatol in (1e-5, 1e-9):
        seen = []
        x, fx = _brent_minimize(lambda u: seen.append(u) or f(u), lo, hi, xatol)
        want = []
        ref = minimize_scalar(lambda u: want.append(u) or f(u), bounds=(lo, hi),
                              method="bounded", options=dict(xatol=xatol, maxiter=10**4))
        assert seen == want
        assert (x, fx) == (ref.x, ref.fun)


def test_profiled_sigma_is_clamped_to_the_box():
    obs = _synthetic_obs(1)
    quad = build_quad_grid(obs.times)
    bounds = ThetaBounds(ke_max=20.0, sigma_max=0.3)
    est = fit_mle(obs, brownian_kernel(), (2.0, 0.2, 0.5), 1.0, 1.0, bounds=bounds,
                  quad_grid=quad)
    block = _ObservationBlock(obs.times, brownian_kernel(), quad)
    _, q = _likelihood_core(est.Ke, est.beta, obs, block, 1.0, 1.0)
    assert math.sqrt(q / len(obs)) > bounds.sigma_max
    assert est.sigma == bounds.sigma_max
    # below the unclamped maximum the likelihood still rises towards the box
    lower = log_likelihood((est.Ke, 0.3 * (1.0 - 1e-3), est.beta), obs, brownian_kernel(),
                           1, 1, quad_grid=quad)
    assert lower < est.log_likelihood


def test_fit_mle_rejects_nonpositive_data():
    obs = ConcentrationSeries(np.array([0.2, 0.4]), np.array([0.5, 0.0]))
    with pytest.raises(AdmissibilityError, match="no admissible parameters"):
        fit_mle(obs, brownian_kernel(), (4.0, 1.0, 0.8), 1.0, 1.0)


def test_zero_observation_covariance_raises_covariance_error():
    # a zero kernel factors as a zero matrix; the likelihood must not reach
    # a triangular solve with it (numpy's LinAlgError "singular matrix")
    grid = uniform_grid(8, 1.0)
    obs = ConcentrationSeries(grid[[2, 4, 6, 8]], np.array([0.5, 0.3, 0.2, 0.1]))
    kernel = zero_kernel(8, 1.0)
    with pytest.raises(CovarianceError, match="singular"):
        log_likelihood((2.0, 0.5, 0.5), obs, kernel, 1.0, 1.0, quad_grid=grid)
    with pytest.raises(AdmissibilityError, match="no admissible parameters"):
        fit_mle(obs, kernel, (2.0, 0.5, 0.5), 1.0, 1.0, quad_grid=grid)


def test_fit_mle_validates_init():
    obs = ConcentrationSeries(np.array([0.2]), np.array([0.5]))
    with pytest.raises(ValueError, match="bounds"):
        fit_mle(obs, brownian_kernel(), (100.0, 1.0, 0.8), 1.0, 1.0,
                bounds=ThetaBounds(ke_max=20.0))


@pytest.mark.parametrize("a0, v", [(-1.0, 1.0), (1.0, 0.0), (math.inf, 1.0), (1.0, math.nan)])
def test_likelihood_and_fit_reject_a_dose_that_is_not_positive_and_finite(a0, v):
    # A0 = -1 gave a finite log-likelihood from a dropped imaginary part, and
    # v = 0 a ZeroDivisionError
    times = np.linspace(0.1, 1.0, 10)
    obs = ConcentrationSeries(times, np.exp(-2.0 * times))
    kernel = fbm_kernel(0.8)
    with pytest.raises(ValueError, match="^A0 and v must be positive and finite$"):
        log_likelihood((2.0, 0.5, 0.5), obs, kernel, a0, v)
    with pytest.raises(ValueError, match="^A0 and v must be positive and finite$"):
        fit_mle(obs, kernel, (2.0, 0.5, 0.5), a0, v)


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("field", ["ke_max", "sigma_max"])
def test_theta_bounds_reject_nonfinite_limits(field, value):
    # an infinite ke_max made every scan point infinite, and a fit then ran
    # all max_iter builds of G(kappa)
    with pytest.raises(ValueError, match=f"^{field} must be finite$"):
        ThetaBounds(**{field: value})


def _fbm_matrix(grid, hurst):
    s, t = grid[:, None], grid[None, :]
    return 0.5 * (s ** (2 * hurst) + t ** (2 * hurst) - np.abs(s - t) ** (2 * hurst))


def _memo_designs():
    """(kernel, observation sets, quadrature grid) of three designs sharing 40 times."""
    brownian = [obs for obs in map(_synthetic_obs, range(8)) if obs is not None][:3]
    times = brownian[0].times
    fbm = [ConcentrationSeries(times, obs.concentrations)
           for obs in map(lambda k: _synthetic_obs(k, kernel=fbm_kernel(0.9)), range(8))
           if obs is not None][:3]
    quad = build_quad_grid(times, 2)
    custom = custom_kernel(quad, _fbm_matrix(quad, 0.7), holder_exponent=0.7)
    return [(fbm_kernel(0.9), fbm, build_quad_grid(times)), (brownian_kernel(), brownian, None),
            (custom, brownian, quad)]


def _estimate_bits(est):
    return (est.Ke.hex(), est.sigma.hex(), est.beta.hex(), est.log_likelihood.hex(),
            est.converged, est.iterations)


@pytest.fixture
def builds(monkeypatch):
    """Counts the builds of G(kappa), from an empty design slot."""
    count = [0]
    build = gmr.pk._g_matrix

    def counted(*arrays_and_kappa):
        count[0] += 1
        return build(*arrays_and_kappa)

    monkeypatch.setattr(gmr.pk, "_g_matrix", counted)
    monkeypatch.setattr(gmr.pk, "_design", None)
    return count


def _fit_and_likelihood(kernel, obs, quad):
    bounds = ThetaBounds(ke_max=20.0, sigma_max=10.0)
    est = fit_mle(obs, kernel, (2.0, 0.5, 0.5), 1.0, 1.0, bounds=bounds, quad_grid=quad)
    ll = log_likelihood((3.0, 0.7, 0.6), obs, kernel, 1.0, 1.0, quad_grid=quad)
    return _estimate_bits(est), ll.hex()


def test_warm_memo_estimates_are_bitwise_the_cold_ones(builds):
    # two passes over fBm H = 0.9, Brownian and custom-kernel designs, one
    # design after another, so the second pass meets each design's memo
    # warm from the first; cold fits start from an empty slot each
    designs = _memo_designs()
    warm = [_fit_and_likelihood(kernel, obs, quad)
            for _ in range(2) for kernel, sets, quad in designs for obs in sets]
    warm_builds, builds[0] = builds[0], 0
    cold = []
    for _ in range(2):
        for kernel, sets, quad in designs:
            for obs in sets:
                gmr.pk._design = None
                cold.append(_fit_and_likelihood(kernel, obs, quad))
    assert warm == cold
    assert warm_builds < 0.75 * builds[0]


def test_a_changed_design_never_reuses_the_block(builds):
    times = np.arange(1, 41) / 40
    quad = build_quad_grid(times, 2)
    fbm = (times, fbm_kernel(0.9), quad)
    base = gmr.pk._design_block(*fbm)
    # equal by value is the same design, through copies and a new kernel object
    assert gmr.pk._design_block(times.copy(), fbm_kernel(0.9), quad.copy()) is base
    matrix = _fbm_matrix(quad, 0.7)
    custom = (times, custom_kernel(quad, matrix, holder_exponent=0.7), quad)
    # each design kept first, then one part of it changed
    changed = {
        "quad_refine": (fbm, (times, fbm_kernel(0.9), build_quad_grid(times, 3))),
        "H": (fbm, (times, fbm_kernel(0.8), quad)),
        "times": (fbm, (times[1:], fbm_kernel(0.9), quad)),
        "kind": (fbm, (times, brownian_kernel(), quad)),
        "custom to brownian": (custom, (times, brownian_kernel(), quad)),
        "custom matrix": (custom, (times, custom_kernel(quad, 2.0 * matrix, 0.7), quad)),
    }
    for name, (kept_design, design) in changed.items():
        gmr.pk._design = None
        kept = gmr.pk._design_block(*kept_design)
        block = gmr.pk._design_block(*design)
        assert block is not kept, name
        assert gmr.pk._design is block, name
        cold = _ObservationBlock(*design)
        for kappa in (0.5, 3.0):
            assert np.array_equal(block.pair(kappa)[0], cold.pair(kappa)[0]), name
    # a custom matrix changed in place is a new design too
    kept = gmr.pk._design_block(*custom)
    custom[1].matrix[1:, 1:] *= 3.0
    block = gmr.pk._design_block(*custom)
    assert block is not kept
    assert np.array_equal(block.pair(0.5)[0], _ObservationBlock(*custom).pair(0.5)[0])


def test_a_custom_design_builds_its_matrix_once_per_call(builds, monkeypatch):
    # a custom kernel's matrix on the grid is both the key of its design
    # and the block's C: each call builds it once, whether the design is
    # kept, new, or new with the kept design's times and grid
    calls = [0]
    build = gmr.pk.covariance_matrix

    def counted(kernel, grid):
        calls[0] += 1
        return build(kernel, grid)

    monkeypatch.setattr(gmr.pk, "covariance_matrix", counted)
    kernel, sets, quad = _memo_designs()[2]
    other = custom_kernel(quad, 2.0 * kernel.matrix, holder_exponent=0.7)
    for expected, k in enumerate((kernel, kernel, other, kernel), start=1):
        log_likelihood((3.0, 0.7, 0.6), sets[0], k, 1.0, 1.0, quad_grid=quad)
        assert calls[0] == expected


@pytest.mark.parametrize("n_obs", [40, 400])
def test_the_slot_and_memo_stay_within_the_budget(builds, n_obs):
    times = np.arange(1, n_obs + 1) / n_obs
    block = gmr.pk._design_block(times, fbm_kernel(0.9), build_quad_grid(times))
    assert gmr.pk._design is block
    # the budget counted in pairs of G(kappa) and its factor: as many as
    # fit beside the block, and not one more
    pair_bytes = 16 * n_obs**2
    room = block.pair.cache_info().maxsize
    assert block.nbytes + room * pair_bytes <= gmr.pk._DESIGN_BUDGET
    assert block.nbytes + (room + 1) * pair_bytes > gmr.pk._DESIGN_BUDGET
    kappas = [float(k) for k in np.geomspace(0.1, 30.0, 200 if n_obs == 40 else 4)]
    for kappa in kappas:
        g, factor = block.pair(kappa)
        assert g.nbytes + factor.nbytes == pair_bytes
        assert block.pair.cache_info().currsize <= room
    assert builds[0] == len(kappas)
    if n_obs == 40:
        # full, far below 200 pairs; the least recently used pair goes
        # first: the oldest kept one, used again, outlives the next oldest
        assert 0 < block.pair.cache_info().currsize == room < 150
        oldest, next_oldest = kappas[-room], kappas[-room + 1]
        block.pair(oldest)
        block.pair(50.0)
        assert builds[0] == len(kappas) + 1
        block.pair(oldest)
        assert builds[0] == len(kappas) + 1
        block.pair(next_oldest)
        assert builds[0] == len(kappas) + 2
    else:
        # room for one G(kappa), not for its factor too: nothing is kept
        assert room == 0
        assert block.nbytes + pair_bytes // 2 <= gmr.pk._DESIGN_BUDGET
        block.pair(kappas[-1])
        assert block.pair.cache_info().currsize == 0
        assert builds[0] == len(kappas) + 1


def test_a_block_over_the_budget_is_not_kept(builds):
    times = np.arange(1, 1001) / 1000
    obs = ConcentrationSeries(times, np.exp(-times))
    log_likelihood((3.0, 0.7, 0.6), obs, brownian_kernel(), 1.0, 1.0)
    assert gmr.pk._design is None
    block = gmr.pk._design_block(times, brownian_kernel(), build_quad_grid(times))
    assert block.nbytes > gmr.pk._DESIGN_BUDGET
    assert block.pair.cache_info().maxsize == 0
    block.pair(1.0)
    assert block.pair.cache_info().currsize == 0
    assert builds[0] == 2


def test_memoized_arrays_are_read_only(builds):
    times = np.arange(1, 41) / 40
    block = gmr.pk._design_block(times, fbm_kernel(0.9), build_quad_grid(times))
    g, factor = block.pair(1.5)
    for array in (g, factor):
        assert not array.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            array[0, 0] = 0.0
    again = block.pair(1.5)
    assert again[0] is g and again[1] is factor
    assert builds[0] == 1


def test_the_memo_key_is_the_exact_kappa(builds):
    times = np.arange(1, 41) / 40
    block = gmr.pk._design_block(times, fbm_kernel(0.9), build_quad_grid(times))
    cold = _ObservationBlock(times, fbm_kernel(0.9), build_quad_grid(times))
    kappas = (1.0, math.nextafter(1.0, 2.0), 1.0 + 1e-9, 1.0 - 1e-9)
    for kappa in kappas:
        block.pair(kappa)
    assert builds[0] == len(kappas)
    for kappa in kappas:
        g, factor = block.pair(kappa)
        cold_g = cold.pair(kappa)[0]
        assert np.array_equal(g, cold_g)
        assert np.array_equal(factor, _cholesky_with_jitter(cold_g))
    assert builds[0] == 2 * len(kappas)  # only the cold block built again


def test_a_replaced_block_is_freed_without_the_cycle_collector(builds):
    # the cache wraps a function of the block's arrays: a cache of a bound
    # method is a reference cycle, and each block that left the slot, up
    # to 4 MiB with its pairs, would wait for the cycle collector
    times = np.arange(1, 41) / 40
    quad = build_quad_grid(times)
    gc.disable()
    try:
        block = gmr.pk._design_block(times, fbm_kernel(0.9), quad)
        block.pair(1.0)
        kept = weakref.ref(block)
        del block
        assert kept() is gmr.pk._design
        gmr.pk._design_block(times, brownian_kernel(), quad)
        assert kept() is None
    finally:
        gc.enable()


def test_two_threads_at_one_design_return_the_serial_estimates(builds):
    kernel, sets, quad = _memo_designs()[0]
    serial = []
    for obs in sets:
        gmr.pk._design = None
        serial.append(_fit_and_likelihood(kernel, obs, quad))
    gmr.pk._design = None
    start = threading.Barrier(2)
    results = [None, None]

    def worker(i):
        start.wait()
        results[i] = [_fit_and_likelihood(kernel, obs, quad) for obs in sets]

    threads = [threading.Thread(target=worker, args=(i,)) for i in range(2)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    assert results == [serial, serial]


def _sens_spec(F, Fdot, **kw):
    base = dict(F=F, Fdot=Fdot, tau_kind="fixed", M=2000, n=128,
                horizon=1.0, tau_time=0.5, seed=11)
    base.update(kw)
    return SensitivitySpec(**base)


def _full_matrix_stopping(mp, spec, wt, times):
    """Per-path (tau, y_tau, C_tau, capped) on the whole (M, n+1) wtilde
    matrix, as the estimators computed them before they streamed blocks:
    the oracle of the streamed rows."""
    y = mp.y0 + wt
    first_dead = first_hit(y)
    if spec.tau_kind == "fixed":
        k_star = grid_index(times, spec.tau_time)
        tau_idx = np.minimum(k_star, first_dead)
        capped = first_dead <= k_star
    else:
        tau_idx = np.minimum(first_dead, times.size - 1)
        capped = first_dead < times.size
    rows = np.arange(y.shape[0])
    y_tau = np.where(capped, 0.0, y[rows, np.minimum(tau_idx, times.size - 1)])
    tau = times[tau_idx]
    with np.errstate(over="ignore", invalid="ignore"):
        c_tau = lift(y_tau, tau, mp)
    return tau, y_tau, check_lift(c_tau, tau, mp), capped


def _oracle_report(samples, spec, capped):
    se = float(np.std(samples, ddof=1) / math.sqrt(spec.M)) if spec.M > 1 else 0.0
    return gmr.pk.SensitivityReport(estimate=float(np.mean(samples)), std_error=se, M=spec.M,
                                    tau_kind=spec.tau_kind,
                                    capped_fraction=float(np.mean(capped)))


# (tau_kind, tau_time) of the streamed estimators' oracle test: a fixed
# time inside the grid and at both its ends (wtilde cut after its first
# column, and not cut), and the hit-capped tau
TAUS = {
    "fixed": ("fixed", 0.5),
    "fixed_at_0": ("fixed", 0.0),
    "fixed_at_horizon": ("fixed", 1.0),
    "hit_capped": ("hit_capped", None),
}


@pytest.mark.parametrize("M", [1, 31, 32, 33, 70])
@pytest.mark.parametrize("tau_case", list(TAUS))
@pytest.mark.parametrize("route", sorted(ROUTES))
def test_streamed_sensitivity_matches_the_full_matrix_oracle_bitwise(route, tau_case, M):
    kernel, n = ROUTES[route](1.0)
    pk = PkParams(A0=1.0, v=1.0, Ke=2.0, sigma=4.0, beta=0.8)
    x, h = 0.5, 0.05
    tau_kind, tau_time = TAUS[tau_case]
    spec = _sens_spec(np.sin, np.cos, tau_kind=tau_kind, M=M, n=n, tau_time=tau_time, seed=M)
    times = uniform_grid(n, spec.horizon)
    model, streamed = _stopped_levels(pk, (x, x + h, x - h), spec, kernel)
    assert model == pk.to_model_params()
    full = {}
    for (tau, y_tau, capped), x0 in zip(streamed, (x, x + h, x - h)):
        mp = dataclasses.replace(model, x0=x0)
        wt = tilde_w_matrix(sample_path_matrix(kernel, times, M, spec.seed), times, mp)
        full[x0] = _full_matrix_stopping(mp, spec, wt, times)
        assert np.array_equal(tau, full[x0][0])
        assert np.array_equal(y_tau, full[x0][1])
        assert np.array_equal(capped, full[x0][3])
    tau, y_tau, c_tau, capped = full[x]
    mp = dataclasses.replace(model, x0=x)
    weight = x**-pk.beta * np.exp(-pk.Ke * tau) * np.cos(c_tau) * y_tau**mp.gamma
    assert sensitivity_plsin(pk, x, spec, kernel) == _oracle_report(weight, spec, capped)
    assert np.array_equal(concentration_functional_samples(pk, x, spec, kernel), np.sin(c_tau))
    diff = (np.sin(full[x + h][2]) - np.sin(full[x - h][2])) / (2.0 * h)
    assert sensitivity_fd(pk, x, spec, kernel, h) == _oracle_report(
        diff, spec, full[x + h][3] | full[x - h][3])
    if tau_time == 0.0:
        assert not np.any(capped)  # no path is absorbed at time 0
    elif M == 70:
        assert 0 < np.sum(capped) < M


def traced_peak(call) -> int:
    """Peak bytes that tracemalloc sees allocated during call()."""
    import tracemalloc

    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("estimator", ["pathwise", "fd"])
def test_sensitivity_peak_memory_does_not_grow_with_M(estimator):
    # the estimators keep one block of paths and a few bytes per path; on
    # the whole (M, n+1) wtilde matrix the peak grew by about 2 path arrays
    pk = PkParams(**FIG1)

    def call(M):
        spec = _sens_spec(np.sin, np.cos, M=M, n=256, tau_kind="hit_capped", tau_time=None)
        if estimator == "pathwise":
            return sensitivity_plsin(pk, 1.0, spec, fbm_kernel(0.8))
        return sensitivity_fd(pk, 1.0, spec, fbm_kernel(0.8), h=0.01)

    call(32)  # the first call imports and caches what later calls reuse
    small, large = (traced_peak(lambda: call(M)) for M in (2000, 8000))
    assert large - small <= 64 * (8000 - 2000)


def test_sensitivity_linear_deterministic_exact():
    pk = PkParams(**FIG1)
    spec = _sens_spec(lambda r: r, lambda r: np.ones_like(r), M=16, n=32)
    kern = zero_kernel(32, 1.0)
    for x in (1.0, 0.7, 2.5):
        pl = sensitivity_plsin(pk, x, spec, kern)
        assert pl.estimate == pytest.approx(math.exp(-4.0 * 0.5), rel=1e-12)
        assert pl.std_error == pytest.approx(0.0, abs=1e-15)
        fd = sensitivity_fd(pk, x, spec, kern, h=0.25 * x)
        assert fd.estimate == pytest.approx(math.exp(-4.0 * 0.5), rel=1e-12)


def test_sensitivity_constant_functional_is_zero():
    pk = PkParams(**FIG1)
    spec = _sens_spec(lambda r: np.ones_like(r), lambda r: np.zeros_like(r), M=64)
    pl = sensitivity_plsin(pk, 1.0, spec, fbm_kernel(0.8))
    assert pl.estimate == 0.0
    assert pl.std_error == 0.0


@pytest.mark.parametrize(
    "F,Fdot",
    [
        (lambda r: r, lambda r: np.ones_like(r)),
        (lambda r: r**2, lambda r: 2.0 * r),
        (np.sin, np.cos),
    ],
)
def test_sensitivity_estimators_agree(F, Fdot):
    pk = PkParams(**FIG1)
    spec = _sens_spec(F, Fdot)
    pl = sensitivity_plsin(pk, 1.0, spec, fbm_kernel(0.8))
    fd = sensitivity_fd(pk, 1.0, spec, fbm_kernel(0.8), h=0.01)
    combined = math.hypot(pl.std_error, fd.std_error)
    assert abs(pl.estimate - fd.estimate) <= 3.0 * combined + 1e-12


def test_sensitivity_hit_capped_tau():
    pk = PkParams(A0=1.0, v=1.0, Ke=4.0, sigma=2.0, beta=0.8)
    spec = _sens_spec(lambda r: r**2, lambda r: 2.0 * r, tau_kind="hit_capped",
                      tau_time=None, M=500, horizon=2.0)
    assert spec.tau_time == 2.0  # the zero hit capped at the horizon is the fixed tau = T
    pl = sensitivity_plsin(pk, 1.0, spec, fbm_kernel(0.6))
    assert 0.0 < pl.capped_fraction < 1.0
    assert np.isfinite(pl.estimate)


def test_sensitivity_nonfinite_lift_raises_overflow():
    # Ke tau = 800: y^(gamma+1) overflows while e^(-Ke tau) underflows, and
    # inf * 0 = NaN used to surface as a non-finite F or Fdot (a ValueError)
    pk = PkParams(A0=1.0, v=1.0, Ke=800.0, sigma=1.0, beta=0.8)
    spec = _sens_spec(lambda r: r**2, lambda r: 2.0 * r, M=50, n=64, tau_time=1.0, seed=3)
    for estimate in (
        lambda: sensitivity_plsin(pk, 1.0, spec, fbm_kernel(0.8)),
        lambda: sensitivity_fd(pk, 1.0, spec, fbm_kernel(0.8), h=0.01),
        lambda: concentration_functional_samples(pk, 1.0, spec, fbm_kernel(0.8)),
    ):
        with pytest.raises(OverflowError, match="not finite"):
            estimate()


def test_fd_common_random_numbers_beat_independent():
    pk = PkParams(**FIG1)
    x, h = 1.0, 0.05
    spec = _sens_spec(lambda r: r**2, lambda r: 2.0 * r, M=2000)
    crn = sensitivity_fd(pk, x, spec, fbm_kernel(0.8), h=h)
    # independent sampling: separate driver ensembles for the two bumps
    up_spec = _sens_spec(lambda r: r**2, lambda r: 2.0 * r, M=2000, seed=101)
    dn_spec = _sens_spec(lambda r: r**2, lambda r: 2.0 * r, M=2000, seed=202)
    up = concentration_functional_samples(pk, x + h, up_spec, fbm_kernel(0.8))
    dn = concentration_functional_samples(pk, x - h, dn_spec, fbm_kernel(0.8))
    se_indep = math.sqrt((np.var(up, ddof=1) + np.var(dn, ddof=1)) / spec.M) / (2 * h)
    assert crn.std_error <= se_indep


def test_fd_bump_halving_stability():
    pk = PkParams(**FIG1)
    spec = _sens_spec(lambda r: r**2, lambda r: 2.0 * r, M=4000)
    wide = sensitivity_fd(pk, 1.0, spec, fbm_kernel(0.8), h=0.02)
    tight = sensitivity_fd(pk, 1.0, spec, fbm_kernel(0.8), h=0.01)
    combined = math.hypot(wide.std_error, tight.std_error)
    assert abs(wide.estimate - tight.estimate) <= 3.0 * combined + 1e-12


def test_sensitivity_input_validation():
    pk = PkParams(**FIG1)
    spec = _sens_spec(lambda r: r, lambda r: np.ones_like(r), M=8, n=16)
    kern = zero_kernel(16, 1.0)
    with pytest.raises(ValueError, match="positive"):
        sensitivity_plsin(pk, 0.0, spec, kern)
    with pytest.raises(ValueError, match="bump"):
        sensitivity_fd(pk, 1.0, spec, kern, h=1.0)
    with pytest.raises(ValueError, match="tau_time"):
        SensitivitySpec(F=lambda r: r, Fdot=lambda r: r, tau_kind="fixed", M=8)
    with pytest.raises(ValueError, match="not on the grid"):  # before any path is drawn
        SensitivitySpec(F=lambda r: r, Fdot=lambda r: r, tau_kind="fixed", M=8, n=16,
                        tau_time=0.3)
    for t in (math.inf, -math.inf, math.nan):
        with pytest.raises(ValueError, match="tau_time"):
            SensitivitySpec(F=lambda r: r, Fdot=lambda r: r, tau_kind="fixed", M=8, n=16,
                            tau_time=t)
    # checked when built, before any path is drawn
    for horizon in (0.0, -1.0, math.inf, math.nan):
        with pytest.raises(ValueError, match="horizon must be positive and finite"):
            SensitivitySpec(F=lambda r: r, Fdot=lambda r: r, tau_kind="hit_capped", M=8,
                            horizon=horizon)


def test_concentration_series_validation():
    series = ConcentrationSeries(np.array([0.5, 0.2]), np.array([0.1, 0.7]))
    assert np.array_equal(series.times, [0.2, 0.5])  # sorted at construction
    assert np.array_equal(series.concentrations, [0.7, 0.1])
    with pytest.raises(ValueError, match="positive"):
        ConcentrationSeries(np.array([0.0, 0.5]), np.array([1.0, 0.5]))
    with pytest.raises(ValueError, match="distinct"):
        ConcentrationSeries(np.array([0.5, 0.5]), np.array([1.0, 0.5]))
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(ValueError, match="finite"):
            ConcentrationSeries(np.array([0.5, bad]), np.array([1.0, 0.5]))
        with pytest.raises(ValueError, match="finite"):
            ConcentrationSeries(np.array([0.5, 0.7]), np.array([1.0, bad]))
