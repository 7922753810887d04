"""Acceptance gate: one test per criterion, printed as PASS/FAIL lines.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
report. Tolerances are pinned here and nowhere else.
"""

import json
import math
import time

import numpy as np

from gmr.cli import run as cli_run
from gmr.drivers import (
    SamplePath,
    brownian_kernel,
    custom_kernel,
    fbm_kernel,
    sample_path_matrix,
    sample_paths,
    uniform_grid,
)
from gmr.montecarlo import EnsembleSpec, ensemble_simulate, survival_bound_check
from gmr.pk import (
    ConcentrationSeries,
    PkParams,
    SensitivitySpec,
    ThetaBounds,
    build_quad_grid,
    fit_mle,
    log_likelihood,
    sensitivity_fd,
    sensitivity_plsin,
    simulate_concentration,
)
from gmr.solver import convergence_study, implicit_euler_nodes, implicit_step_root, solve_gmr
from gmr.transform import ModelParams, first_hit, tilde_w_covariance_matrix, tilde_w_matrix
from test_montecarlo import scaling_ks
from test_pk import gamma_matrix_from_theta, z_mean
from test_solver import deterministic_ode_solution, ensemble_sup_bounds

FIG1 = PkParams(A0=1.0, v=1.0, Ke=4.0, sigma=1.0, beta=0.8)


def _criterion(num, desc, ok, detail=""):
    line = f"{'PASS' if ok else 'FAIL'}  criterion {num:2d}: {desc}"
    if detail:
        line += f"  [{detail}]"
    print(line)
    assert ok, line


def _bisect_root(A, B, gamma, iters=200):
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


def test_criterion_1_root_solver_oracle():
    rng = np.random.default_rng(1)
    failures = 0
    worst = 0.0
    for _ in range(1000):
        A = rng.uniform(-2.0, 5.0)
        B = rng.uniform(1e-9, 3.0)
        gamma = rng.uniform(0.2, 5.0)
        x = implicit_step_root(A, B, gamma)
        residual = abs(x - B * x**-gamma - A)
        gap = abs(x - _bisect_root(A, B, gamma))
        worst = max(worst, gap)
        if gap > 1e-10 or residual > 1e-12 * max(1.0, abs(A)):
            failures += 1
    _criterion(
        1,
        "root solver matches 200-step bisection oracle on 1000 draws",
        failures == 0,
        f"worst |x - oracle| = {worst:.2e}",
    )


def test_criterion_2_zero_noise_ode_oracle():
    rng = np.random.default_rng(2024)
    ok = True
    worst_ratio, worst_err = 0.0, 0.0
    for _ in range(10):
        p = ModelParams(
            x0=rng.uniform(0.5, 3.0),
            a=rng.uniform(0.5, 2.0),
            b=rng.uniform(0.0, 2.0),
            sigma=0.0,
            beta=rng.uniform(0.4, 0.8),
        )
        errors = []
        for n in (64, 128, 256, 512):
            grid = uniform_grid(n, 1.0)
            x = solve_gmr(p, SamplePath(grid, np.zeros(n + 1)), n)
            errors.append(float(np.max(np.abs(x.values - deterministic_ode_solution(p, grid)))))
        worst_err = max(worst_err, errors[-1])
        ratios = [b / a for a, b in zip(errors, errors[1:])]
        worst_ratio = max(worst_ratio, max(ratios))
        ok &= errors[-1] <= 1e-2 and all(r <= 0.6 for r in ratios)
    _criterion(
        2,
        "sigma=0 scheme vs closed-form ODE over 10 random parameter sets",
        ok,
        f"worst n=512 error {worst_err:.2e}, worst halving ratio {worst_ratio:.3f}",
    )


def test_criterion_3_convergence_rate_fbm():
    start = time.monotonic()
    p = ModelParams(x0=1.0, a=1.0, b=1.0, sigma=0.5, beta=0.8)  # gamma=4, mu=1
    ref_n = 8192
    driver = sample_paths(fbm_kernel(0.9), uniform_grid(ref_n, 1.0), 1, seed=12345)[0]
    report = convergence_study(p, driver, [32, 64, 128, 256, 512, 1024], ref_n, 0.9)
    elapsed = time.monotonic() - start
    drops = np.diff(report.errors)
    ok = report.fitted_slope >= 0.65 and np.sum(drops >= 0) <= 1 and elapsed < 30.0
    _criterion(
        3,
        "fBm H=0.9, beta=0.8 self-convergence slope >= 0.65",
        ok,
        f"slope {report.fitted_slope:.3f} (theory {report.theoretical_rate}), {elapsed:.1f}s",
    )


def test_criterion_4_positivity_and_sup_bounds():
    specs = [
        EnsembleSpec(
            params=ModelParams(x0=1.0, a=1.0, b=1.0, sigma=0.5, beta=0.7),
            kernel=fbm_kernel(0.8), M=300, n=128, seed=41,
        ),
        EnsembleSpec(
            params=ModelParams(x0=0.5, a=2.0, b=3.0, sigma=1.0, beta=0.6),
            kernel=brownian_kernel(), M=300, n=128, seed=42,
        ),
        EnsembleSpec(
            params=ModelParams(x0=1.0, a=0.0, b=4.0, sigma=1.0, beta=0.8),
            kernel=fbm_kernel(0.6), M=300, n=128, seed=43, horizon=2.0,
        ),
        EnsembleSpec(
            params=ModelParams(x0=2.0, a=0.5, b=0.0, sigma=0.8, beta=0.85),
            kernel=fbm_kernel(0.9), M=300, n=128, seed=44,
        ),
    ]
    violations = 0
    bad_nodes = 0
    for spec in specs:
        result = ensemble_simulate(spec)
        bounds = ensemble_sup_bounds(spec)
        violations += int(np.sum(result.x.max(axis=1) > bounds * (1.0 + 1e-9)))
        if spec.params.a > 0:
            bad_nodes += int(np.sum(result.y <= 0.0))
    _criterion(
        4,
        "every Euler node positive and every ||x|| within its pathwise bound",
        violations == 0 and bad_nodes == 0,
        f"{sum(s.M for s in specs)} paths, {violations} bound / {bad_nodes} node violations",
    )


def test_criterion_5_monotone_ordering():
    n, horizon, m = 256, 1.0, 100
    grid = uniform_grid(n, horizon)
    drivers = sample_path_matrix(fbm_kernel(0.75), grid, m, seed=777)
    shared = dict(x0=1.0, sigma=0.5, beta=0.7)
    p_ab = ModelParams(a=1.0, b=2.0, **shared)
    p_a0 = ModelParams(a=1.0, b=0.0, **shared)
    p_0b = ModelParams(a=0.0, b=2.0, **shared)
    damp = np.exp(-p_ab.b * grid)
    x_ab = implicit_euler_nodes(p_ab, grid, tilde_w_matrix(drivers, grid, p_ab))
    x_ab = x_ab ** (p_ab.gamma + 1.0) * damp[None, :]
    x_a0 = implicit_euler_nodes(p_a0, grid, tilde_w_matrix(drivers, grid, p_a0))
    x_a0 = x_a0 ** (p_a0.gamma + 1.0)
    y_low = p_0b.y0 + tilde_w_matrix(drivers, grid, p_0b)
    alive = np.cumprod(y_low > 0.0, axis=1).astype(bool)
    x_0b = np.where(alive, np.where(alive, y_low, 1.0) ** (p_0b.gamma + 1.0), 0.0)
    x_0b *= damp[None, :]
    lower_gap = float(np.max(x_0b - x_ab))
    upper_gap = float(np.max(x_ab - x_a0))
    ok = lower_gap <= 1e-9 and upper_gap <= 1e-9
    _criterion(
        5,
        "x(0,b) <= x(a,b) <= x(a,0) pointwise on 100 fBm H=0.75 paths",
        ok,
        f"worst violations {lower_gap:.1e} / {upper_gap:.1e}",
    )


def test_criterion_6_survival_bound():
    y0 = 3.0
    p = ModelParams(x0=y0**2, a=0.0, b=0.0, sigma=1.0, beta=0.5)
    grid = uniform_grid(256, 1.0)
    report = survival_bound_check(y0, p, brownian_kernel(), grid, 2000, seed=606)
    hypothesis = 2.0 * report.sigma_bar_sq * math.log(2.0) < y0**2
    ok = hypothesis and report.applicable and report.passed
    _criterion(
        6,
        "Gaussian survival lower bound holds empirically (M=2000)",
        ok,
        f"empirical {report.empirical:.4f} vs bound {report.bound:.6f}",
    )


def test_criterion_7_covariance_validation():
    horizon = 1.0
    grid = uniform_grid(64, horizon)
    m = 5000
    p = ModelParams(x0=1.0, a=0.0, b=1.0, sigma=1.0, beta=0.7)
    ok = True
    worst_z = 0.0
    for kernel in (brownian_kernel(), fbm_kernel(0.7)):
        wt = tilde_w_matrix(sample_path_matrix(kernel, grid, m, seed=70), grid, p)
        full = tilde_w_covariance_matrix(p, kernel, grid)
        for i, j in ((16, 32), (32, 64), (64, 64)):  # (s, t) = (0.25, 0.5), (0.5, 1), (1, 1)
            truth = full[i, j]
            se = math.sqrt((truth**2 + full[i, i] * full[j, j]) / (m - 1))
            z = abs(np.cov(wt[:, i], wt[:, j], ddof=1)[0, 1] - truth) / se
            worst_z = max(worst_z, z)
            ok &= z <= 4.0
    # Brownian with b = 0: quadrature is exact, sigma^2 (1-beta)^2 min(s,t)
    p0 = ModelParams(x0=1.0, a=0.0, b=0.0, sigma=1.3, beta=0.6)
    full0 = tilde_w_covariance_matrix(p0, brownian_kernel(), grid)
    i, j = 16, 48  # s=0.25, t=0.75
    closed = 1.3**2 * 0.4**2 * 0.25
    exact = abs(full0[i, j] - closed) <= 1e-12
    _criterion(
        7,
        "weighted-driver covariance matches Monte Carlo and the b=0 closed form",
        ok and exact,
        f"worst |z| {worst_z:.2f} (<=4), b=0 error {abs(full0[i, j] - closed):.1e}",
    )


def test_criterion_8_likelihood_oracle():
    kern = brownian_kernel()
    # n = 1: scalar Gaussian density
    obs1 = ConcentrationSeries(np.array([0.3]), np.array([0.25]))
    quad1 = build_quad_grid(obs1.times)
    got1 = log_likelihood((4.0, 1.0, 0.8), obs1, kern, 1.0, 1.0, quad_grid=quad1)
    var1 = gamma_matrix_from_theta((FIG1.Ke, FIG1.sigma, FIG1.beta), obs1.times, kern, quad1)[0, 0]
    u1 = 0.25**0.2 - z_mean(0.3, FIG1)
    direct1 = (
        math.log(0.2) - 0.5 * math.log(2 * math.pi) - 0.5 * math.log(var1)
        - 0.5 * u1**2 / var1 - 0.8 * math.log(0.25)
    )
    # n = 2: dense 2x2 inverse and determinant
    theta = (3.0, 0.7, 0.6)
    obs2 = ConcentrationSeries(np.array([0.4, 0.9]), np.array([0.3, 0.05]))
    quad2 = build_quad_grid(obs2.times)
    got2 = log_likelihood(theta, obs2, kern, 1.0, 1.0, quad_grid=quad2)
    gam = gamma_matrix_from_theta(theta, obs2.times, kern, quad2)
    det = gam[0, 0] * gam[1, 1] - gam[0, 1] ** 2
    inv = np.array([[gam[1, 1], -gam[0, 1]], [-gam[0, 1], gam[0, 0]]]) / det
    omb = 0.4
    u2 = obs2.concentrations**omb - np.exp(-3.0 * omb * obs2.times)
    direct2 = (
        2 * math.log(omb) - math.log(2 * math.pi) - 0.5 * math.log(abs(det))
        - 0.5 * float(u2 @ inv @ u2) - 0.6 * float(np.sum(np.log(obs2.concentrations)))
    )
    # indicator: exactly -inf on nonpositive data
    bad = ConcentrationSeries(np.array([0.2, 0.4]), np.array([0.5, 0.0]))
    indicator = log_likelihood((4.0, 1.0, 0.8), bad, kern, 1.0, 1.0) == -math.inf
    ok = abs(got1 - direct1) <= 1e-10 and abs(got2 - direct2) <= 1e-10 and indicator
    _criterion(
        8,
        "likelihood matches scalar and dense 2x2 closed forms, indicator exact",
        ok,
        f"errors {abs(got1 - direct1):.1e}, {abs(got2 - direct2):.1e}",
    )


def test_criterion_9_mle_round_trip():
    start = time.monotonic()
    kern = brownian_kernel()
    bounds = ThetaBounds(ke_max=20.0, sigma_max=10.0)
    n_obs, sim_n = 50, 500
    fitted_ke, gaps = [], []
    seed = 0
    while len(fitted_ke) < 20:
        sim = simulate_concentration(FIG1, kern, sim_n, seed, 1.0)
        seed += 1
        if first_hit(sim.values) < sim.values.size:
            continue
        stride = sim_n // n_obs
        obs = ConcentrationSeries(sim.times[stride::stride], sim.values[stride::stride])
        quad = build_quad_grid(obs.times)
        est = fit_mle(obs, kern, (2.0, 0.5, 0.5), 1.0, 1.0, bounds=bounds, quad_grid=quad)
        fitted_ke.append(est.Ke)
        gaps.append(
            log_likelihood((4.0, 1.0, 0.8), obs, kern, 1, 1, quad_grid=quad)
            - log_likelihood((6.0, 1.0, 0.8), obs, kern, 1, 1, quad_grid=quad)
        )
    elapsed = time.monotonic() - start
    median_ke = float(np.median(fitted_ke))
    ok = 2.8 <= median_ke <= 5.2 and np.mean(gaps) > 0.0 and elapsed < 120.0
    _criterion(
        9,
        "MLE round-trip on 20 synthetic datasets (truth Ke=4, sigma=1, beta=0.8)",
        ok,
        f"median Ke {median_ke:.2f}, mean gap {np.mean(gaps):.2f}, {elapsed:.0f}s",
    )


def test_criterion_10_sensitivity_cross_check():
    spec = SensitivitySpec(
        F=lambda r: r**2, Fdot=lambda r: 2.0 * r, tau_kind="fixed",
        M=5000, n=256, horizon=1.0, tau_time=0.5, seed=1010,
    )
    pl = sensitivity_plsin(FIG1, 1.0, spec, fbm_kernel(0.8))
    fd = sensitivity_fd(FIG1, 1.0, spec, fbm_kernel(0.8), h=0.01)
    combined = math.hypot(pl.std_error, fd.std_error)
    agree = abs(pl.estimate - fd.estimate) <= 3.0 * combined

    grid = uniform_grid(32, 1.0)
    silent = custom_kernel(grid, np.zeros((33, 33)), holder_exponent=1.0)
    linear = SensitivitySpec(
        F=lambda r: r, Fdot=lambda r: np.ones_like(r), tau_kind="fixed",
        M=8, n=32, horizon=1.0, tau_time=0.5, seed=1,
    )
    det = sensitivity_plsin(FIG1, 1.0, linear, silent)
    exact = abs(det.estimate - math.exp(-2.0)) <= 1e-12
    _criterion(
        10,
        "pathwise sensitivity agrees with common-random-number differences",
        agree and exact,
        f"|pl-fd| {abs(pl.estimate - fd.estimate):.2e} vs 3se {3 * combined:.2e}",
    )


def test_criterion_11_distributional_scaling():
    p = ModelParams(x0=1.0, a=1.0, b=1.0, sigma=0.3, beta=0.7)
    stat, pvalue = scaling_ks(p, hurst=0.75, eps=0.5, t=1.0, M=2000, n=256, seed=1111)
    _criterion(
        11,
        "self-similarity identity passes the two-sample KS test at 1%",
        pvalue > 0.01,
        f"KS {stat:.4f}, p-value {pvalue:.3f}",
    )


def test_criterion_12_figure1_reproduction(tmp_path):
    ok = True
    detail = []
    for hurst in (0.6, 0.9):
        cfg = tmp_path / f"fig1_{hurst}.json"
        cfg.write_text(json.dumps({
            "pk": {"A0": 1.0, "v": 1.0, "Ke": 4.0, "sigma": 1.0, "beta": 0.8},
            "kernel": {"kind": "fbm", "hurst": hurst},
            "grid": {"n": 256, "T": 1.0},
            "seed": 12,
        }))
        out = tmp_path / f"fig1_{hurst}"
        code = cli_run(["pk-simulate", "--config", str(cfg), "--out", str(out)])
        rows = np.array([
            [float(v) for v in line.split(",")]
            for line in (out / "pk_simulate.csv").read_text().splitlines()[1:]
        ])
        det_err = float(np.max(np.abs(rows[:, 2] - np.exp(-4.0 * rows[:, 0]))))
        ok &= code == 0 and np.all(rows[:, 1] >= 0.0) and det_err <= 1e-12
        detail.append(f"H={hurst}: det err {det_err:.1e}")
    _criterion(
        12,
        "pk-simulate reproduces the bolus decay overlay for H in {0.6, 0.9}",
        ok,
        "; ".join(detail),
    )
