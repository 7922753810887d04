"""The library's argument checks that no other in-process test reaches.

Each case is one call and the exact message it must raise with, before
any path is drawn or any matrix is built.
"""

import re

import numpy as np
import pytest

from gmr.drivers import (
    CovarianceError,
    CovarianceKernel,
    SamplePath,
    brownian_kernel,
    custom_kernel,
    uniform_grid,
    _cholesky_with_jitter,
)
from gmr.montecarlo import EnsembleSpec, hitting_time_stats, survival_bound_check
from gmr.pk import (
    ConcentrationSeries,
    PkParams,
    SensitivitySpec,
    ThetaBounds,
    ThetaEstimate,
    build_quad_grid,
    sensitivity_fd,
    sensitivity_plsin,
)
from gmr.solver import convergence_study, implicit_step_root
from gmr.transform import ModelParams, tilde_w_path

PK = dict(A0=1.0, v=1.0, Ke=4.0, sigma=1.0, beta=0.8)
A0_MODEL = ModelParams(x0=1.0, a=0.0, b=1.0, sigma=1.0, beta=0.7)
RATE_MODEL = ModelParams(x0=1.0, a=1.0, b=1.0, sigma=1.0, beta=0.7)
GRID = uniform_grid(4, 1.0)


def _infinite(c):
    # np.log(0) would warn, and the suite turns RuntimeWarnings into errors
    return np.full_like(c, np.inf)


def _sensitivity_spec():
    return SensitivitySpec(F=_infinite, Fdot=_infinite, tau_kind="fixed", M=4, n=8,
                           tau_time=0.5)


def _zero_driver(n):
    return SamplePath(uniform_grid(n, 1.0), np.zeros(n + 1))


CASES = {
    "uniform_grid n": (lambda: uniform_grid(0, 1.0), "need at least one step"),
    "uniform_grid horizon": (lambda: uniform_grid(4, 0.0), "horizon must be positive"),
    "uniform_grid nan horizon": (lambda: uniform_grid(3, float("nan")), "horizon must be finite"),
    "uniform_grid infinite horizon": (lambda: uniform_grid(3, float("inf")),
                                      "horizon must be finite"),
    "kernel kind": (lambda: CovarianceKernel(kind="fgn", holder_exponent=0.5),
                    "unknown kernel kind 'fgn'"),
    "kernel holder exponent": (lambda: CovarianceKernel(kind="brownian", holder_exponent=1.5),
                               "holder_exponent must lie in (0, 1]"),
    "kernel hurst": (lambda: CovarianceKernel(kind="fbm", holder_exponent=0.5, hurst=1.0),
                     "fbm kernel needs Hurst parameter in (0, 1)"),
    "kernel custom without matrix": (
        lambda: CovarianceKernel(kind="custom", holder_exponent=0.5, grid=GRID),
        "custom kernel needs a grid and a matrix"),
    "custom_kernel shape": (lambda: custom_kernel(GRID, np.zeros((3, 3)), 0.5),
                            "matrix shape must match the grid"),
    "cholesky zero diagonal": (lambda: _cholesky_with_jitter(np.array([[0.0, 1.0], [1.0, 0.0]])),
                               "zero diagonal with nonzero off-diagonal entries"),
    "EnsembleSpec n": (lambda: EnsembleSpec(RATE_MODEL, brownian_kernel(), M=4, n=1, seed=0),
                       "n: must be >= 2"),
    "survival y0": (lambda: survival_bound_check(0.0, A0_MODEL, brownian_kernel(), GRID, 4),
                    "y0 must be positive"),
    "survival M": (lambda: survival_bound_check(1.0, A0_MODEL, brownian_kernel(), GRID, 0),
                   "M must be >= 1"),
    "hit times M": (lambda: hitting_time_stats(A0_MODEL, brownian_kernel(), 0, [1.0]),
                    "M must be >= 1"),
    "hit times steps": (lambda: hitting_time_stats(A0_MODEL, brownian_kernel(), 4, [1.0],
                                                   steps_per_unit=0),
                        "steps_per_unit must be >= 1"),
    "build_quad_grid empty times": (lambda: build_quad_grid(np.array([])),
                                    "times must be nonempty"),
    "PkParams Ka": (lambda: PkParams(**PK, Ka=-1.0), "Ka must be nonnegative"),
    "PkParams beta": (lambda: PkParams(**{**PK, "beta": 1.0}), "beta must lie in (0, 1)"),
    "ConcentrationSeries shapes": (
        lambda: ConcentrationSeries(np.array([0.5, 1.0]), np.array([0.3])),
        "times and concentrations must be equal-length 1-d arrays"),
    "ThetaBounds upper": (lambda: ThetaBounds(sigma_max=0.0), "upper bounds must be positive"),
    "ThetaBounds beta": (lambda: ThetaBounds(beta_min=0.5, beta_max=0.5),
                         "beta bounds must satisfy 0 < lo < hi < 1"),
    "ThetaEstimate": (lambda: ThetaEstimate(4.0, 1.0, 1.0, 0.0, True, 1),
                      "estimate out of the admissible domain"),
    "SensitivitySpec tau_kind": (
        lambda: SensitivitySpec(F=_infinite, Fdot=_infinite, tau_kind="random", M=4),
        "tau_kind must be 'fixed' or 'hit_capped'"),
    "SensitivitySpec M": (
        lambda: SensitivitySpec(F=_infinite, Fdot=_infinite, tau_kind="hit_capped", M=0),
        "M must be >= 1"),
    "SensitivitySpec n": (
        lambda: SensitivitySpec(F=_infinite, Fdot=_infinite, tau_kind="hit_capped", M=4, n=1),
        "n must be >= 2"),
    "sensitivity_fd F": (
        lambda: sensitivity_fd(PkParams(**PK), 1.0, _sensitivity_spec(), brownian_kernel(), 0.1),
        "F is not finite on the simulated range"),
    "sensitivity_plsin Fdot": (
        lambda: sensitivity_plsin(PkParams(**PK), 1.0, _sensitivity_spec(), brownian_kernel()),
        "Fdot is not finite on the simulated range"),
    "implicit_step_root gamma": (lambda: implicit_step_root(1.0, 1.0, 0.0),
                                 "gamma must be positive"),
    "convergence_study repeated n": (
        lambda: convergence_study(RATE_MODEL, _zero_driver(128), [8, 8, 16], 128, 0.5),
        "n_list must be strictly increasing"),
    "convergence_study a = 0": (
        lambda: convergence_study(A0_MODEL, _zero_driver(128), [8, 16], 128, 0.5),
        "the rate experiment runs the scheme, which needs a > 0"),
    "ModelParams b": (lambda: ModelParams(x0=1.0, a=0.0, b=-1.0, sigma=1.0, beta=0.7),
                      "b must be nonnegative"),
    "tilde_w_path driver": (
        lambda: tilde_w_path(SamplePath(GRID, np.ones(GRID.size)), RATE_MODEL),
        "driver path must start at 0"),
}


# every other case raises ValueError
ERRORS = {"cholesky zero diagonal": CovarianceError}


@pytest.mark.parametrize("name", list(CASES))
def test_invalid_arguments_raise_their_message(name):
    call, message = CASES[name]
    with pytest.raises(ERRORS.get(name, ValueError), match=f"^{re.escape(message)}$"):
        call()
