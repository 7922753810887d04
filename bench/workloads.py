"""The four benchmark workloads: their inputs, timed operations and checks.

Each workload hands out rounds of operations. An operation is one call
(or one pair of calls) into gmr's public API; its check looks at the
output against reference computations made apart from gmr (see
reference.py) or against properties the method must have. A check raises
Unusable when the output cannot be used at all (the operation failed) and
returns a list of problems when the output is usable but wrong.

gmr functions are looked up as module attributes at call time, so that
the traced run's wrappers see the benchmark's own calls as well.
"""

from __future__ import annotations

import functools
import math
from collections import Counter
from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

import gmr
from gmr import drivers, montecarlo, pk, solver

import reference as ref


class Unusable(Exception):
    """The operation's output cannot be used: it failed."""


@dataclass(frozen=True)
class Op:
    label: str
    call: Callable[[], Any]
    check: Callable[[Any], list]
    # the operation sits at a known fault of the program and is expected to fail
    fault: bool = False


class Workload:
    """Rounds of operations; check_round looks at a round's usable outputs.

    The load keeps only summarize(output) of each usable output for
    check_round, so that whole outputs do not pile up in memory.
    """

    def round_ops(self, r: int) -> list:
        raise NotImplementedError

    def summarize(self, output) -> Any:
        return None

    def check_round(self, summaries: list) -> list:
        return []

    def notes(self) -> dict:
        """What the checks found worth recording besides problems."""
        return {}


def derive_seed(*keys: int) -> int:
    """A 32-bit seed for gmr from the workload seed and a position."""
    return int(np.random.SeedSequence([int(k) for k in keys]).generate_state(1)[0])


# ---------------------------------------------------------------- ensemble

ENSEMBLE_M = 2000
ENSEMBLE_N = 1024
ENSEMBLE_PARAMS = gmr.ModelParams(x0=1.0, a=1.0, b=2.0, sigma=0.5, beta=0.7)
ENSEMBLE_HURSTS = (0.6, 0.75, 0.9)
# Brownian point at which the unbracketed vectorized Newton solve returns
# negative and NaN nodes (and NaN lp estimates). Its seed is fixed, so it
# fails in every round of every run, whatever the workload seed.
FAULT_PARAMS = gmr.ModelParams(x0=1.0, a=0.01, b=1.0, sigma=1.0, beta=0.6)
FAULT_SEED = 1
CHECK_ROWS = 256  # driver rows regenerated for the residual and covariance checks
COV_TIMES = (0.25, 0.5)
COV_Z = 5.0


def _simulate(spec):
    return montecarlo.ensemble_simulate(spec)


def check_ensemble(spec, result) -> list:
    """Nodes positive and finite, step residuals, driver covariance, lp order."""
    y, x = np.asarray(result.y), np.asarray(result.x)
    bad = y.size - np.count_nonzero(np.isfinite(y) & (y > 0.0))
    if bad:
        raise Unusable(f"{bad} of {y.size} nodes are not finite and positive")
    if not np.all(np.isfinite(x) & (x > 0.0)):
        raise Unusable("lifted values are not finite and positive")
    lp = result.stats.lp_estimates
    if not all(math.isfinite(v) for v in lp.values()):
        raise Unusable("lp estimates are not finite")
    problems = []
    if not ref.power_means_nondecreasing(lp):
        problems.append(f"lp estimates decrease in p: {lp}")
    times = np.linspace(0.0, spec.horizon, spec.n + 1)
    count = min(CHECK_ROWS, spec.M)
    rows = drivers.sample_path_matrix(spec.kernel, times, count, spec.seed)
    resid, tol = ref.step_residuals(spec.params, times, rows, y[:count])
    worst = float(np.max(np.abs(resid) / tol))
    if not worst <= 1.0:
        problems.append(f"step residual {worst:.3g} times the solver tolerance")
    s, t = COV_TIMES
    i, j = (int(round(u * spec.n / spec.horizon)) for u in COV_TIMES)
    if spec.kernel.kind == "fbm":
        c = functools.partial(ref.fbm_cov, spec.kernel.hurst)
    else:
        c = ref.brownian_cov
    z = ref.covariance_z(rows[:, i], rows[:, j], float(c(s, s)), float(c(t, t)), float(c(s, t)))
    if not abs(z) <= COV_Z:
        problems.append(f"driver covariance at {COV_TIMES} is {z:.2f} standard errors off")
    return problems


class Ensemble(Workload):
    """M = 2000, n = 1024 ensembles with a > 0 over a sweep of drivers."""

    def __init__(self, seed: int):
        self.seed = seed
        self.points = [
            (f"fbm H={h}", gmr.fbm_kernel(h), ENSEMBLE_PARAMS, None) for h in ENSEMBLE_HURSTS
        ] + [("brownian fault point", gmr.brownian_kernel(), FAULT_PARAMS, FAULT_SEED)]

    def round_ops(self, r: int) -> list:
        ops = []
        for j, (label, kernel, params, fixed_seed) in enumerate(self.points):
            spec = montecarlo.EnsembleSpec(
                params=params, kernel=kernel, M=ENSEMBLE_M, n=ENSEMBLE_N,
                seed=derive_seed(self.seed, r, j) if fixed_seed is None else fixed_seed,
            )
            ops.append(Op(label, functools.partial(_simulate, spec),
                          functools.partial(check_ensemble, spec), fault=fixed_seed is not None))
        return ops


# --------------------------------------------------------------- fine_path

FINE_REF_N = 4096
FINE_N_LIST = (32, 64, 128, 256, 512)
FINE_HURST = 0.9
FINE_PARAMS = gmr.ModelParams(x0=1.0, a=1.0, b=2.0, sigma=0.5, beta=0.7)
# margin below the theoretical rate alpha min(1, gamma) for the slope of
# one path (the acceptance suite's fBm rate criterion uses the same)
SLOPE_MARGIN = 0.25


def _converge(kernel, grid, seed):
    driver = gmr.sample_paths(kernel, grid, 1, seed)[0]
    return solver.convergence_study(FINE_PARAMS, driver, FINE_N_LIST, FINE_REF_N,
                                    kernel.holder_exponent)


def check_converge(report) -> list:
    """Slope near the theoretical rate and errors that mostly decrease."""
    errors = np.asarray(report.errors, dtype=float)
    if not (np.all(np.isfinite(errors)) and math.isfinite(report.fitted_slope)):
        raise Unusable("errors or slope are not finite")
    gamma = FINE_PARAMS.beta / (1.0 - FINE_PARAMS.beta)
    rate = FINE_HURST * min(1.0, gamma)
    problems = []
    ns = np.asarray(FINE_N_LIST, dtype=float)
    slope = -np.polyfit(np.log(ns), np.log(errors), 1)[0]
    if not abs(slope - report.fitted_slope) <= 1e-9:
        problems.append(f"reported slope {report.fitted_slope} but the errors give {slope}")
    if not report.fitted_slope >= rate - SLOPE_MARGIN:
        problems.append(f"slope {report.fitted_slope:.3f} below {rate} - {SLOPE_MARGIN}")
    rises = int(np.sum(np.diff(errors) >= 0.0))
    if rises > 1:
        problems.append(f"errors rise {rises} times over n = {FINE_N_LIST}")
    return problems


class FinePath(Workload):
    """One fBm H = 0.9 path on 4096 steps and a rate study over n = 32..512."""

    def __init__(self, seed: int):
        self.seed = seed
        self.kernel = gmr.fbm_kernel(FINE_HURST)
        self.grid = np.linspace(0.0, 1.0, FINE_REF_N + 1)

    def round_ops(self, r: int) -> list:
        call = functools.partial(_converge, self.kernel, self.grid, derive_seed(self.seed, r))
        return [Op("fbm H=0.9 rate study", call, check_converge)]


# ------------------------------------------------------------------ pk_fit

PK_HURST = 0.9  # the kernel of the README's pk-fit example
PK_TRUTH = (4.0, 1.0, 0.8)  # Ke, sigma, beta
PK_OBS = 50
PK_SIM_N = 500
PK_SETS = 40
PK_REFINE = 5  # quadrature grid of 251 points
PK_INIT = (2.0, 0.5, 0.5)
PK_BOUNDS = pk.ThetaBounds(ke_max=20.0, sigma_max=10.0)
# the median fitted Ke over a set of PK_SETS datasets stays in this band
KE_BAND = (2.5, 5.5)
# gmr's log_likelihood puts a factor 2 into the density of each observation
# (n log 2 in all) and the reference density has none. The check accepts the
# reference with or without that constant and counts which one matched, so
# that a fix of the constant shows in the run's info, not as a failed check.
LL_OFFSETS = {"with n log 2": PK_OBS * math.log(2.0), "without": 0.0}
LL_RTOL = 1e-9


def _fit(obs, kernel, quad):
    return pk.fit_mle(obs, kernel, PK_INIT, 1.0, 1.0, bounds=PK_BOUNDS, quad_grid=quad)


class PkFit(Workload):
    """MLE fits on a fixed set of 50-observation bolus datasets.

    The datasets come from the benchmark's own generator and its own a = 0
    formula, so a change to gmr.drivers leaves the fit inputs unchanged.
    """

    def __init__(self, seed: int):
        rng = np.random.default_rng(seed)
        self.kernel = gmr.fbm_kernel(PK_HURST)
        self.times = np.arange(1, PK_OBS + 1) / PK_OBS
        self.quad = ref.pk_quad_grid(self.times, PK_REFINE)
        ke, sigma, beta = PK_TRUTH
        self.data = ref.pk_observations(rng, PK_SETS, self.times, PK_SIM_N, PK_HURST,
                                        ke, sigma, beta)
        self.series = [gmr.ConcentrationSeries(self.times, c) for c in self.data]
        self.ll_matches = Counter()

    def _ll(self, theta, k):
        return ref.pk_log_likelihood(theta, self.times, self.data[k], PK_HURST, self.quad)

    def ll_variant(self, theta, k, value):
        """The name of the LL_OFFSETS entry by which value matches the reference, or None."""
        expected = self._ll(theta, k)
        for name, offset in LL_OFFSETS.items():
            if abs(value - (expected + offset)) <= LL_RTOL * max(1.0, abs(expected + offset)):
                return name
        return None

    def check_fit(self, k, est) -> list:
        """Reported likelihood matches the reference and beats the start."""
        values = (est.Ke, est.sigma, est.beta, est.log_likelihood)
        if not all(math.isfinite(v) for v in values):
            raise Unusable(f"estimate is not finite: {values}")
        variant = self.ll_variant((est.Ke, est.sigma, est.beta), k, est.log_likelihood)
        if variant is None:
            expected = self._ll((est.Ke, est.sigma, est.beta), k)
            return [f"log-likelihood {est.log_likelihood!r}, reference {expected!r} "
                    f"plus one of {LL_OFFSETS}"]
        self.ll_matches[variant] += 1
        start = self._ll(PK_INIT, k) + LL_OFFSETS[variant]
        if not est.log_likelihood >= start - LL_RTOL * max(1.0, abs(start)):
            return [f"log-likelihood {est.log_likelihood!r} below the start {start!r}"]
        return []

    def notes(self) -> dict:
        return {"loglik_matched": dict(self.ll_matches)}

    def round_ops(self, r: int) -> list:
        return [
            Op(f"dataset {k}", functools.partial(_fit, obs, self.kernel, self.quad),
               functools.partial(self.check_fit, k))
            for k, obs in enumerate(self.series)
        ]

    def summarize(self, est) -> float:
        return est.Ke

    def check_round(self, summaries: list) -> list:
        if not summaries:
            return []
        median_ke = float(np.median(summaries))
        lo, hi = KE_BAND
        if not lo <= median_ke <= hi:
            return [f"median fitted Ke {median_ke:.3f} outside {KE_BAND}"]
        return []


# ------------------------------------------------------------- sensitivity

SENS_HURST = 0.8
SENS_M = 5000
SENS_N = 256
SENS_X = 1.0
SENS_H = 0.01
SENS_Z = 3.0


def _square(r):
    return r**2


def _square_dot(r):
    return 2.0 * r


SENS_CONFIGS = (
    ("square, tau = 0.5", pk.PkParams(A0=1.0, v=1.0, Ke=4.0, sigma=1.0, beta=0.8),
     _square, _square_dot, "fixed", 0.5),
    # about 5% of the paths are absorbed before the horizon
    ("sin, hit-capped tau, sigma = 2", pk.PkParams(A0=1.0, v=1.0, Ke=4.0, sigma=2.0, beta=0.8),
     np.sin, np.cos, "hit_capped", None),
)


def _sensitivities(params, spec, kernel):
    return (pk.sensitivity_plsin(params, SENS_X, spec, kernel),
            pk.sensitivity_fd(params, SENS_X, spec, kernel, SENS_H))


def check_sensitivity(reports) -> list:
    """Pathwise and finite-difference estimates agree within 3 combined SE."""
    pl, fd = reports
    values = (pl.estimate, pl.std_error, fd.estimate, fd.std_error)
    if not all(math.isfinite(v) for v in values):
        raise Unusable(f"estimates are not finite: {values}")
    combined = math.hypot(pl.std_error, fd.std_error)
    if not abs(pl.estimate - fd.estimate) <= SENS_Z * combined:
        return [f"pathwise {pl.estimate!r} and differences {fd.estimate!r} "
                f"differ by more than {SENS_Z} x {combined:.3g}"]
    return []


class Sensitivity(Workload):
    """Pathwise and finite-difference sensitivities, M = 5000, n = 256."""

    def __init__(self, seed: int):
        self.seed = seed
        self.kernel = gmr.fbm_kernel(SENS_HURST)

    def round_ops(self, r: int) -> list:
        ops = []
        for j, (label, params, f, fdot, kind, tau) in enumerate(SENS_CONFIGS):
            spec = pk.SensitivitySpec(F=f, Fdot=fdot, tau_kind=kind, M=SENS_M, n=SENS_N,
                                      tau_time=tau, seed=derive_seed(self.seed, r, j))
            ops.append(Op(label, functools.partial(_sensitivities, params, spec, self.kernel),
                          check_sensitivity))
        return ops


WORKLOADS = {
    "ensemble": Ensemble,
    "fine_path": FinePath,
    "pk_fit": PkFit,
    "sensitivity": Sensitivity,
}
