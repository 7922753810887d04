import math
import warnings

import numpy as np
import pytest

import gmr.solver
from gmr.drivers import (
    SamplePath,
    brownian_kernel,
    custom_kernel,
    fbm_kernel,
    grid_index,
    sample_path_matrix,
    sample_paths,
    uniform_grid,
)
from gmr.montecarlo import EnsembleSpec, ensemble_simulate
from gmr.solver import (
    EulerSolution,
    RateReport,
    RootSolveError,
    convergence_study,
    implicit_euler,
    implicit_euler_nodes,
    implicit_step_root,
    solve_gmr,
    solve_matrix,
)
from gmr.transform import ModelParams, first_hit, tilde_w_matrix, tilde_w_path
from test_pk import ROUTES
from test_transform import lift


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


def deterministic_ode_solution(p, t):
    """Noise-free oracle: solution of x' = a - b x with x(0) = x0."""
    t = np.asarray(t, dtype=float)
    if p.b > 0:
        mean = p.a / p.b
        out = mean + (p.x0 - mean) * np.exp(-p.b * t)
    else:
        out = p.x0 + p.a * t
    return float(out) if out.ndim == 0 else out


def y_sup_bound(p, driver_sup, horizon):
    """Pathwise bound on the transformed level y (and on every Euler node)."""
    if driver_sup < 0:
        raise ValueError("driver sup norm must be nonnegative")
    omb = 1.0 - p.beta
    drift = p.a * omb * math.exp(p.b * horizon) * p.y0**-p.gamma * horizon
    noise = (
        p.sigma * max(p.b, 2.0) * omb * (1.0 + horizon)
        * math.exp(p.b * omb * horizon) * driver_sup
    )
    return p.y0 + drift + noise


def sup_bound(p, driver_sup, horizon):
    """Explicit bound on ||x||_inf in terms of the realized ||w||_inf."""
    return y_sup_bound(p, driver_sup, horizon) ** (p.gamma + 1.0)


def ensemble_sup_bounds(spec):
    """sup_bound of each path of an ensemble, from its driver's realized sup norm."""
    times = uniform_grid(spec.n, spec.horizon)
    sups = np.max(np.abs(sample_path_matrix(spec.kernel, times, spec.M, spec.seed)), axis=1)
    return np.array([sup_bound(spec.params, s, spec.horizon) for s in sups])


def float64_step_root(A, B, gamma):
    """implicit_step_root's Newton solve in the arithmetic of its arguments.

    Given a numpy float64 A, every iterate is a float64 scalar, where an
    overflowing power returns inf with a RuntimeWarning instead of raising.
    """
    if B <= 0:
        raise ValueError("B must be positive")
    if gamma <= 0:
        raise ValueError("gamma must be positive")
    tol = 1e-12 * max(1.0, abs(A))
    scale = B ** (1.0 / (gamma + 1.0))
    x = max(A, scale) if A > 0.0 else min((B / (scale + abs(A))) ** (1.0 / gamma), scale)
    if not 0.0 < x < math.inf:
        raise RootSolveError(f"Newton start {x!r} is not positive and finite")
    for _ in range(200):
        f = x - B * x**-gamma - A
        if abs(f) <= tol:
            return x
        fprime = 1.0 + B * gamma * x ** -(gamma + 1.0)
        x -= f / fprime
    raise RootSolveError("no convergence after 200 iterations")


def scalar_scheme(p, times, tilde_w):
    """The scheme on one row of wtilde, one float64_step_root per step on float64 scalars.

    The oracle of implicit_euler_nodes's one-row loop on Python floats.
    """
    dt = times[-1] / (times.size - 1)
    dw = np.diff(tilde_w)
    y = np.empty(times.size)
    y[0] = p.y0
    for k in range(times.size - 1):
        B = p.a * (1.0 - p.beta) * dt * math.exp(p.b * times[k + 1])
        y[k + 1] = float64_step_root(y[k] + dw[k], B, p.gamma)
    return y


def outcome(solve):
    """solve()'s value, or the class and first two words of what it raised.

    Run with numpy's floating-point warnings off, so that a float64 inf
    goes on as it does outside the test suite.
    """
    try:
        with np.errstate(all="ignore"):
            return solve()
    except (ArithmeticError, ValueError, RootSolveError) as exc:
        return type(exc), str(exc).split()[:2]


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


def test_step_roots_reject_nan_at_the_start():
    from gmr.solver import _implicit_roots_newton

    with pytest.raises(RootSolveError, match="start"):
        implicit_step_root(math.nan, 0.5, 1.5)
    with pytest.raises(RootSolveError, match="start"):
        _implicit_roots_newton(np.array([0.5, math.nan]), 0.5, 1.5)


@pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan], ids=["inf", "-inf", "nan"])
def test_step_roots_reject_a_nonfinite_start_without_a_warning(bad):
    # A = inf used to start at inf, and both kernels ran 200 iterations of
    # the NaN residual inf - inf before giving up (the vectorized one with a
    # RuntimeWarning, which the suite turns into an error anyway)
    from gmr.solver import _implicit_roots_newton

    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(RootSolveError, match="start"):
            implicit_step_root(bad, 0.5, 1.5)
        with pytest.raises(RootSolveError, match="start"):
            _implicit_roots_newton(np.array([bad, 1.0]), 0.5, 1.5)


def test_step_roots_raise_when_the_start_underflows():
    # gamma ~ 0.01 with B ~ 4e-9 and A < 0 (beta = 0.01, a = 1e-6 on 256 steps):
    # the root (B/|A|)^(1/gamma) is about 1e-578, below the smallest float
    from gmr.solver import _implicit_roots_newton

    A, B, gamma = -0.0027, 3.9e-9, 0.01 / 0.99
    with pytest.raises(RootSolveError, match="start"):
        implicit_step_root(A, B, gamma)
    with pytest.raises(RootSolveError, match="start"):
        _implicit_roots_newton(np.array([0.5, A]), B, gamma)


def test_vectorized_euler_matches_scalar_pipeline(monkeypatch):
    # one row runs the scalar kernel, bitwise the float64 loop; each row of a
    # batch runs the vectorized kernel and agrees with it to the shared
    # residual tolerance
    p = ModelParams(x0=1.0, a=1.0, b=2.0, sigma=0.8, beta=0.7)
    grid = uniform_grid(64, 1.0)
    wt = tilde_w_matrix(sample_path_matrix(fbm_kernel(0.8), grid, 8, seed=6), grid, p)
    loops = [scalar_scheme(p, grid, row) for row in wt]
    for y, loop in zip(implicit_euler_nodes(p, grid, wt), loops):
        assert np.all(np.abs(y - loop) <= 1e-10 * np.maximum(1.0, loop))
    monkeypatch.setattr(gmr.solver, "_implicit_roots_newton", None)
    assert np.array_equal(implicit_euler_nodes(p, grid, wt[:1])[0], loops[0])
    assert np.array_equal(implicit_euler(p, SamplePath(grid, wt[0])).y_path.values, loops[0])


_BITWISE_PARAMS = {
    "fine_path": ModelParams(x0=1.0, a=1.0, b=2.0, sigma=0.5, beta=0.7),
    # the benchmark's Brownian fault point
    "fault": ModelParams(x0=1.0, a=0.01, b=1.0, sigma=1.0, beta=0.6),
    # gamma = 1, and a small y0 with a large sigma: many steps start at A <= 0
    "negative-A": ModelParams(x0=0.05, a=2.0, b=0.0, sigma=3.0, beta=0.5),
    "small-a": ModelParams(x0=2.0, a=1e-6, b=5.0, sigma=1.5, beta=0.8),
    "beta=0.3": ModelParams(x0=1.0, a=1.0, b=1.0, sigma=0.5, beta=0.3),
    "beta=0.9": ModelParams(x0=1.0, a=0.5, b=1.0, sigma=1.0, beta=0.9),
}
_BITWISE_KERNELS = (brownian_kernel(), fbm_kernel(0.3), fbm_kernel(0.9))


@pytest.mark.parametrize("name", sorted(_BITWISE_PARAMS))
def test_one_row_scheme_matches_the_float64_loop_bitwise(name):
    # n = 4096 down to 2 on every power-of-two stride of one path per
    # driver and seed; y_k + dw_k <= 0 starts occur for "negative-A"
    p = _BITWISE_PARAMS[name]
    times = uniform_grid(4096, 1.0)
    low_starts = 0
    for seed, kernel in enumerate(_BITWISE_KERNELS * 2):
        wt = tilde_w_matrix(sample_path_matrix(kernel, times, 1, seed), times, p)[0]
        for stride in 2 ** np.arange(12):
            t, w = times[::stride], wt[::stride]
            oracle = scalar_scheme(p, t, w)
            assert np.array_equal(implicit_euler_nodes(p, t, w[None])[0], oracle)
            low_starts += int(np.sum(oracle[:-1] + np.diff(w) <= 0.0))
    assert (low_starts > 0) == (name == "negative-A")


@pytest.mark.parametrize("name", sorted(_BITWISE_PARAMS))
def test_solve_gmr_and_convergence_study_match_the_float64_loop_bitwise(name):
    p = _BITWISE_PARAMS[name]
    ref_n, n_list = 1024, [16, 32, 64, 128]
    times = uniform_grid(ref_n, 1.0)
    driver = SamplePath(times, sample_path_matrix(fbm_kernel(0.9), times, 1, seed=5)[0])
    wt = tilde_w_path(driver, p).values
    x_ref = lift(scalar_scheme(p, times, wt), times, p)
    errors = []
    for n in n_list:
        t, w = times[:: ref_n // n], wt[:: ref_n // n]
        x = lift(scalar_scheme(p, t, w), t, p)
        assert np.array_equal(solve_gmr(p, driver, n).values, x)
        errors.append(np.max(np.abs(x - x_ref[:: ref_n // n])))
    report = convergence_study(p, driver, n_list, ref_n, 0.9)
    assert np.array_equal(report.errors, errors)
    assert report.fitted_slope == -np.polyfit(np.log(n_list), np.log(errors), 1)[0]


# (A, B, gamma) where the Newton solve fails, a float ** overflows, or a
# max, min or abs of the float64 solve decides the result; the scheme's
# rows below cover NaN, inf and underflowing starts
_STEP_CASES = {
    # start about 1e-306: x^-(gamma+1) overflows on the first pass
    "overflowing-step": (-5.5e-6, 4e-9, 0.01 / 0.99),
    # a root near 1e15 cannot meet an absolute tolerance of 1e-12
    "stall": (0.0, 1e30, 1.0),
    # z = (B/s)^(1/gamma) overflows, and the start is s
    "overflowing-start": (0.0, 1.7976931348623157e308, 6.309573444801943e-09),
    # max(A, s) with s NaN keeps A
    "nan-B": (1.0, math.nan, 1.5),
    # max(A, s) with A equal to s = B^(1/(gamma+1))
    "A-equals-start": (2.0, 4.0, 1.0),
    # |A| and the start's s + |A| with A = -0.0
    "negative-zero-A": (-0.0, 4.0, 1.0),
    # max(1, |A|) and min(z, s) with z NaN
    "nan-A": (math.nan, 1.0, 1.5),
    # s = inf, and max(A, s) is inf
    "inf-B": (1.0, math.inf, 1.5),
}
_STEP_ROOTS = {"overflowing-start", "A-equals-start", "negative-zero-A"}


@pytest.mark.parametrize("case", sorted(_STEP_CASES))
def test_step_root_raises_as_the_float64_solve(case):
    # a root is compared by float.hex, so -0.0 would differ from 0.0
    A, B, gamma = _STEP_CASES[case]

    def hexed(solve):
        got = outcome(solve)
        return got if isinstance(got, tuple) else float.hex(float(got))

    want = hexed(lambda: float64_step_root(np.float64(A), B, gamma))
    assert hexed(lambda: implicit_step_root(A, B, gamma)) == want
    assert isinstance(want, tuple) == (case not in _STEP_ROOTS)


def _admissible_rows(count, seed):
    """Seeded (params, times, wtilde row) over beta > 1 - H up to 0.99, a down to 1e-6."""
    rng = np.random.default_rng(seed)
    rows = []
    for i in range(count):
        hurst = rng.uniform(0.05, 0.995)
        beta = rng.uniform(1.0 - hurst, 0.99)
        p = ModelParams(x0=10.0 ** rng.uniform(-3.0, 1.0), a=10.0 ** rng.uniform(-6.0, 0.5),
                        b=float(rng.choice([0.0, rng.uniform(0.0, 5.0), 200.0, 400.0])),
                        sigma=float(rng.choice([rng.uniform(0.0, 5.0), 10.0 ** rng.uniform(1, 3)])),
                        beta=beta)
        times = uniform_grid(64 if i % 2 else 256, 1.0 if i % 3 else 2.0)
        with np.errstate(all="ignore"):  # wtilde overflows for b (1 - beta) T past about 709
            wt = tilde_w_matrix(sample_path_matrix(fbm_kernel(hurst), times, 1, i), times, p)
        rows.append((p, times, wt[0]))
    return rows


def test_one_row_scheme_raises_as_the_float64_loop_over_the_admissible_box():
    # every input where the float64 loop raises gives the same class and
    # message stem, and every other input the same nodes
    rows = _admissible_rows(60, seed=31)
    small = ModelParams(x0=1.0, a=1e-6, b=0.0, sigma=1.0, beta=0.01)
    times = uniform_grid(16, 1.0)
    rows += [
        # A = y0 - 1.0027 at the first step, whose root is about 1e-459
        (small, times, np.where(times > 0.0, -1.0027, 0.0)),
        (_BITWISE_PARAMS["fine_path"], times, np.where(times < 0.5, 0.0, math.nan)),
        (_BITWISE_PARAMS["fine_path"], times, np.where(times < 1.0, 0.0, math.inf)),
        # the roots outgrow the tolerance, and a step stalls before e^(b t) overflows
        (ModelParams(x0=1.0, a=1.0, b=900.0, sigma=0.0, beta=0.5), times, np.zeros(17)),
        # B = 0: a (1 - beta) rounds to 0 from the least subnormal a
        (ModelParams(x0=1.0, a=5e-324, b=0.0, sigma=1.0, beta=0.5), times, np.zeros(17)),
    ]
    raised = []
    for p, t, w in rows:
        want = outcome(lambda: scalar_scheme(p, t, w))
        got = outcome(lambda: implicit_euler_nodes(p, t, w[None])[0])
        if isinstance(want, tuple):
            assert got == want
            raised.append(" ".join(want[1]))
        else:
            assert np.array_equal(got, want)
    assert set(raised) == {"math range", "no convergence", "Newton start", "B must"}


def test_vectorized_route_raises_where_the_stopping_rule_stalls():
    # |f| <= 1e-12 max(1, |A|) cannot be met for a root far above |A|: draw 6
    # (b = 200, a root near 1e12) stalls. Two rows run the vectorized kernel,
    # which raises wherever one row raises and otherwise returns finite,
    # positive nodes within the residual tolerance of the one-row scheme's
    raised = {}
    for i, (p, t, w) in enumerate(_admissible_rows(60, seed=31)):
        one = outcome(lambda: implicit_euler_nodes(p, t, w[None])[0])
        two = outcome(lambda: implicit_euler_nodes(p, t, np.stack([w, w])))
        if isinstance(one, tuple):
            assert isinstance(two, tuple) and two[0] is one[0]
            raised[i] = two
        else:
            assert np.all(np.isfinite(two)) and np.all(two > 0.0)
            assert np.all(np.abs(two - one) <= 1e-10 * np.maximum(1.0, one))
    assert raised[6] == (RootSolveError, ["vectorized", "step"])


def _row_major_roots_newton(A, B, gamma):
    """The vectorized Newton solve in its plain form, the ensemble route's oracle.

    Both starts are computed on every entry, and converged entries are
    held by np.where; the iterates must match _implicit_roots_newton's.
    """
    A = np.asarray(A, dtype=float)
    tol = 1e-12 * np.maximum(1.0, np.abs(A))
    scale = B ** (1.0 / (gamma + 1.0))
    below = np.minimum(scale, (B / (scale + np.abs(A))) ** (1.0 / gamma))
    x = np.where(A > 0.0, np.maximum(A, scale), below)
    if x.size and not (0.0 < x.min() and x.max() < math.inf):
        raise RootSolveError("vectorized Newton start is not positive and finite")
    for _ in range(200):
        f = x - B * x**-gamma - A
        active = ~(np.abs(f) <= tol)
        if not active.any():
            return x
        fprime = 1.0 + B * gamma * x ** -(gamma + 1.0)
        x = np.where(active, x - f / fprime, x)
    raise RootSolveError("vectorized step solve stalled")


def _row_major_nodes(p, times, tilde_w):
    """The scheme on row-major (M, n+1) wtilde, stepping strided columns of np.diff."""
    dt = times[-1] / (times.size - 1)
    dw = np.diff(tilde_w, axis=1)
    y = np.empty_like(tilde_w)
    y[:, 0] = p.y0
    if y.shape[0] == 1:
        step, nodes, inc = float64_step_root, y[0], dw[0]
    else:
        step, nodes, inc = _row_major_roots_newton, y.T, dw.T
    for k in range(times.size - 1):
        B = p.a * (1.0 - p.beta) * dt * math.exp(p.b * times[k + 1])
        nodes[k + 1] = step(nodes[k] + inc[k], B, p.gamma)
    return y


def explicit_a0_oracle(p, times, tilde_w):
    """The a = 0 solution on row-major (M, n+1) wtilde: (x, y, hit).

    The levels y = y0 + wtilde, the lift of max(y, 0), and each row's
    first zero of that lift, with x = 0 from there on.
    """
    y = p.y0 + tilde_w
    with np.errstate(over="ignore", invalid="ignore"):
        x = lift(np.where(y > 0.0, y, 0.0), times, p)
    hit = first_hit(np.where(np.isfinite(x), x, 1.0))
    x[np.arange(times.size) >= hit[:, None]] = 0.0
    return x, y, hit


def _row_major_ensemble(spec):
    """ensemble_simulate on the whole (M, n+1) driver matrix, the oracle route."""
    times = uniform_grid(spec.n, spec.horizon)
    drivers = sample_path_matrix(spec.kernel, times, spec.M, spec.seed)
    wt = tilde_w_matrix(drivers, times, spec.params)
    if spec.params.a == 0.0:
        x, y, hit = explicit_a0_oracle(spec.params, times, wt)
    else:
        y = _row_major_nodes(spec.params, times, wt)
        x, hit = lift(y, times, spec.params), np.full(spec.M, times.size)
    sups = np.max(np.abs(x), axis=1)
    lp = {float(q): float(np.mean(sups**q) ** (1.0 / q)) for q in spec.p_exponents}
    hits = hit < times.size
    marginal = {float(t): x[:, grid_index(times, t)] for t in spec.marginal_times}
    return x, y, lp, float(np.mean(hits)), times[hit[hits]], marginal


_ORACLE_GRID = uniform_grid(30, 1.0)
_ORACLE_KERNELS = {
    # n: the driver routes are cumsum, circulant (n >= 1024) and Cholesky GEMM
    "brownian": (brownian_kernel(), 64),
    "fbm-circulant": (fbm_kernel(0.7), 1024),
    "fbm-cholesky": (fbm_kernel(0.3), 100),
    "custom": (custom_kernel(_ORACLE_GRID, np.minimum.outer(_ORACLE_GRID, _ORACLE_GRID) ** 1.4,
                             holder_exponent=0.7), 30),
}
_ORACLE_PARAMS = {
    "a>0": ModelParams(x0=1.0, a=1.0, b=2.0, sigma=0.5, beta=0.7),
    "a=0": ModelParams(x0=1.0, a=0.0, b=1.0, sigma=1.5, beta=0.6),
    # the benchmark's Brownian fault point: its Newton batches converge unevenly
    "fault": ModelParams(x0=1.0, a=0.01, b=1.0, sigma=1.0, beta=0.6),
}


@pytest.mark.parametrize("kernel, n", list(_ORACLE_KERNELS.values()), ids=list(_ORACLE_KERNELS))
def test_ensemble_matches_the_row_major_oracle_bitwise(kernel, n):
    for params in _ORACLE_PARAMS.values():
        for M in (1, 31, 32, 33, 70):
            spec = EnsembleSpec(params=params, kernel=kernel, M=M, n=n, seed=M,
                                marginal_times=(0.5, 1.0))
            got = ensemble_simulate(spec)
            x, y, lp, frac, hit_times, marginal = _row_major_ensemble(spec)
            assert np.array_equal(got.x, x) and np.array_equal(got.y, y)
            assert got.stats.lp_estimates == lp and got.stats.hit_fraction == frac
            assert np.array_equal(got.stats.hit_times, hit_times)
            assert got.stats.marginal_samples.keys() == marginal.keys()
            for t, values in marginal.items():
                assert np.array_equal(got.stats.marginal_samples[t], values)


@pytest.mark.parametrize("M", [1, 31, 32, 33, 70])
@pytest.mark.parametrize("route", sorted(ROUTES))
def test_solve_matrix_a_zero_matches_the_row_major_oracle_bitwise(route, M):
    horizon = 2.0
    kernel, n = ROUTES[route](horizon)
    times = uniform_grid(n, horizon)
    p = ModelParams(x0=1.0, a=0.0, b=2.0, sigma=1.5, beta=0.5)
    wt = tilde_w_matrix(sample_path_matrix(kernel, times, M, M), times, p)
    given = wt.copy()
    got = solve_matrix(p, times, wt)
    for value, oracle in zip(got, explicit_a0_oracle(p, times, wt)):
        assert np.array_equal(value, oracle)
    assert np.array_equal(wt, given)
    if M == 70:
        assert 0 < np.sum(got[2] < times.size) < M


def test_implicit_euler_nodes_ignores_the_memory_order():
    p = _ORACLE_PARAMS["fault"]
    grid = uniform_grid(256, 1.0)
    wt = tilde_w_matrix(sample_path_matrix(brownian_kernel(), grid, 45, seed=1), grid, p)
    time_major = np.ascontiguousarray(wt.T)
    row_major = implicit_euler_nodes(p, grid, wt)
    assert np.array_equal(implicit_euler_nodes(p, grid, time_major.T), row_major)
    assert np.array_equal(row_major, _row_major_nodes(p, grid, wt))
    assert row_major.shape == wt.shape


@pytest.mark.parametrize("rows", [1, 3])
def test_implicit_euler_nodes_validates_the_grid(rows):
    p = ModelParams(x0=1.0, a=1.0, b=1.0, sigma=0.5, beta=0.7)
    grid = uniform_grid(4, 1.0)
    with pytest.raises(ValueError, match="uniform"):
        implicit_euler_nodes(p, grid**2, np.zeros((rows, 5)))
    for columns in (9, 4):
        with pytest.raises(ValueError, match="one column per grid time"):
            implicit_euler_nodes(p, grid, np.zeros((rows, columns)))


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


def test_implicit_euler_raises_on_a_nonfinite_lift():
    # beta = 0.99 lifts y to its 100th power, and y passes 1e4 here
    p = ModelParams(x0=1.0, a=1.0, b=0.0, sigma=1e6, beta=0.99)
    grid = uniform_grid(8, 1.0)
    with pytest.raises(OverflowError, match="lift .* not finite"):
        implicit_euler(p, tilde_w_path(SamplePath(grid, grid.copy()), p))


def test_solve_gmr_ode_oracle():
    p = ModelParams(x0=3.0, a=1.0, b=2.0, sigma=0.0, beta=0.5)
    n = 256
    x = solve_gmr(p, zero_driver(n, 1.0), n)
    exact = 0.5 + 2.5 * math.exp(-2.0)
    assert x.values[-1] == pytest.approx(exact, abs=3.0 / n)


def test_solve_gmr_dispatches_a_zero():
    # a = 0 is the explicit solution: positive before the first hit, 0 from it on
    p = ModelParams(x0=1.0, a=0.0, b=4.0, sigma=2.0, beta=0.8)
    grid = uniform_grid(128, 2.0)
    hits = 0
    for seed in range(8):
        driver = sample_paths(fbm_kernel(0.6), grid, 1, seed=seed)[0]
        out = solve_gmr(p, driver, 128)
        wt = tilde_w_path(driver, p).values
        assert np.array_equal(out.times, grid)
        k = first_hit(out.values)
        assert np.all(out.values[:k] > 0.0) and np.all(out.values[k:] == 0.0)
        assert k == first_hit(p.y0 + wt)
        hits += k < grid.size
    assert 0 < hits < 8


def test_solve_gmr_a_zero_subsamples_the_driver_grid():
    p = ModelParams(x0=1.0, a=0.0, b=1.0, sigma=0.5, beta=0.7)
    driver = sample_paths(fbm_kernel(0.8), uniform_grid(256, 1.0), 1, seed=1)[0]
    out = solve_gmr(p, driver, 64)
    assert out.n_steps == 64
    assert np.array_equal(out.times, driver.times[::4])
    assert np.array_equal(out.values, solve_gmr(p, driver, 256).values[::4])


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
        x_0b = solve_gmr(p_0b, driver, n).values
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
    with pytest.raises(ValueError, match="8"):
        convergence_study(p, zero_driver(1024, 1.0), [128, 256], 1024, 1.0)
    for n_list in ([32], []):
        with pytest.raises(ValueError, match="at least two sizes"):
            convergence_study(p, zero_driver(1024, 1.0), n_list, 1024, 1.0)


def test_convergence_study_checks_every_n_before_the_reference_solve(monkeypatch):
    def solve(*args):
        raise AssertionError("solved before the check")

    monkeypatch.setattr(gmr.solver, "solve_matrix", solve)
    p = ModelParams(x0=1.0, a=1.0, b=0.0, sigma=0.0, beta=0.5)
    with pytest.raises(ValueError, match="n = 33 does not divide its 1024 steps"):
        convergence_study(p, zero_driver(1024, 1.0), [32, 33], 1024, 1.0)


def test_rate_report_validation():
    with pytest.raises(ValueError, match="increasing"):
        RateReport(np.array([64, 32]), np.array([0.1, 0.2]), 1.0, 0.9)
    with pytest.raises(ValueError, match="positive"):
        RateReport(np.array([32, 64]), np.array([0.1, 0.0]), 1.0, 0.9)


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
