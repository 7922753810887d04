"""Quick tests of the benchmark itself: each check rejects a planted wrong output.

    PYTHONPATH=src python -m pytest -q bench
"""

import dataclasses
import math
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

import gmr  # noqa: E402
from gmr import montecarlo, pk, solver  # noqa: E402

import reference as ref  # noqa: E402
import tracing  # noqa: E402
import workloads as wl  # noqa: E402


@pytest.fixture(scope="module")
def ensemble():
    spec = montecarlo.EnsembleSpec(params=wl.ENSEMBLE_PARAMS, kernel=gmr.fbm_kernel(0.75),
                                   M=64, n=64, seed=11)
    return spec, montecarlo.ensemble_simulate(spec)


def test_ensemble_check_accepts_gmr_output(ensemble):
    spec, result = ensemble
    assert wl.check_ensemble(spec, result) == []


def test_ensemble_check_rejects_perturbed_node(ensemble):
    spec, result = ensemble
    y = result.y.copy()
    y[3, 10] *= 1.0 + 1e-6
    problems = wl.check_ensemble(spec, dataclasses.replace(result, y=y))
    assert any("step residual" in p for p in problems)


def test_ensemble_check_fails_nonpositive_node(ensemble):
    spec, result = ensemble
    y = result.y.copy()
    y[5, 20] = -0.02
    with pytest.raises(wl.Unusable):
        wl.check_ensemble(spec, dataclasses.replace(result, y=y))


def test_ensemble_check_fails_nan_statistic(ensemble):
    spec, result = ensemble
    stats = dataclasses.replace(result.stats, lp_estimates={**result.stats.lp_estimates, 4.0: math.nan})
    with pytest.raises(wl.Unusable):
        wl.check_ensemble(spec, dataclasses.replace(result, stats=stats))


def test_ensemble_check_rejects_decreasing_moments(ensemble):
    spec, result = ensemble
    stats = dataclasses.replace(result.stats, lp_estimates={1.0: 2.0, 2.0: 1.0})
    assert wl.check_ensemble(spec, dataclasses.replace(result, stats=stats))


def test_wtilde_paths_matches_the_operator_form():
    rng = np.random.default_rng(1)
    times = np.linspace(0.0, 1.0, 33)
    paths = rng.standard_normal((3, 33))
    op = ref.wtilde_operator(times, 0.5, 0.7, 2.0)
    assert np.allclose(ref.wtilde_paths(times, 0.5, 0.7, 2.0, paths), paths @ op.T, atol=1e-13)


def test_covariance_z_flags_wrong_kernel():
    rng = np.random.default_rng(0)
    times = np.linspace(0.0, 1.0, 65)
    cov = ref.fbm_cov(0.6, times[1:, None], times[None, 1:])
    rows = rng.standard_normal((4000, 64)) @ np.linalg.cholesky(cov).T
    i, j = 15, 31  # t = 0.25 and 0.5
    right = ref.covariance_z(rows[:, i], rows[:, j], *(float(ref.fbm_cov(0.6, s, t))
                             for s, t in ((0.25, 0.25), (0.5, 0.5), (0.25, 0.5))))
    wrong = ref.covariance_z(rows[:, i], rows[:, j], *(float(ref.fbm_cov(0.9, s, t))
                             for s, t in ((0.25, 0.25), (0.5, 0.5), (0.25, 0.5))))
    assert abs(right) < wl.COV_Z < abs(wrong)


def _rate_report(errors, slope=None):
    ns = np.asarray(wl.FINE_N_LIST, dtype=float)
    errors = np.asarray(errors, dtype=float)
    if slope is None:
        slope = -np.polyfit(np.log(ns), np.log(errors), 1)[0]
    return solver.RateReport(n_list=np.asarray(wl.FINE_N_LIST), errors=errors,
                             fitted_slope=float(slope), theoretical_rate=0.9)


def test_converge_check():
    good = 0.1 / np.asarray(wl.FINE_N_LIST, dtype=float)
    assert wl.check_converge(_rate_report(good)) == []
    assert wl.check_converge(_rate_report(good, slope=0.5))  # slope not from the errors
    assert wl.check_converge(_rate_report(good[::-1]))  # errors grow
    with pytest.raises(wl.Unusable):
        wl.check_converge(_rate_report([0.1, math.nan, 0.02, 0.01, 0.005], slope=1.0))


def test_reference_likelihood_matches_gmr_up_to_its_constant():
    fit = wl.PkFit(seed=3)
    theta = (3.0, 0.8, 0.7)
    got = gmr.log_likelihood(theta, fit.series[0], fit.kernel, 1.0, 1.0, quad_grid=fit.quad)
    assert fit.ll_variant(theta, 0, got) is not None
    assert fit.ll_variant(theta, 0, got + 1e-6 * abs(got)) is None


def test_fit_check_rejects_shifted_likelihood():
    fit = wl.PkFit(seed=3)
    est = fit.round_ops(0)[0].call()
    assert fit.check_fit(0, est) == []
    shifted = dataclasses.replace(est, log_likelihood=est.log_likelihood + 1e-3)
    assert fit.check_fit(0, shifted)
    bad = (15.0, 5.0, 0.3)
    worse = dataclasses.replace(est, Ke=bad[0], sigma=bad[1], beta=bad[2],
                                log_likelihood=fit._ll(bad, 0))
    assert any("below the start" in p for p in fit.check_fit(0, worse))
    assert fit.check_round([fit.summarize(dataclasses.replace(est, Ke=9.0))] * 3)


def test_fit_check_accepts_either_constant_and_counts_it():
    fit = wl.PkFit(seed=3)
    est = fit.round_ops(0)[0].call()
    assert fit.check_fit(0, est) == []
    offset = wl.LL_OFFSETS["with n log 2"]
    found = fit.ll_variant((est.Ke, est.sigma, est.beta), 0, est.log_likelihood)
    other = est.log_likelihood + (offset if found == "without" else -offset)
    assert fit.check_fit(0, dataclasses.replace(est, log_likelihood=other)) == []
    assert fit.notes() == {"loglik_matched": {"with n log 2": 1, "without": 1}}


def test_sensitivity_check():
    report = pk.SensitivityReport(estimate=0.07, std_error=0.001, M=5000, tau_kind="fixed",
                                  capped_fraction=0.0)
    assert wl.check_sensitivity((report, report)) == []
    assert wl.check_sensitivity((report, dataclasses.replace(report, estimate=0.08)))
    with pytest.raises(wl.Unusable):
        wl.check_sensitivity((report, dataclasses.replace(report, estimate=math.nan)))


def test_self_time_subtracts_children():
    spans = [
        {"id": 0, "parent": None, "layer": "montecarlo", "name": "ensemble_simulate",
         "start": 0.0, "end": 10.0},
        {"id": 1, "parent": 0, "layer": "drivers", "name": "sample_path_matrix",
         "start": 1.0, "end": 5.0, "counts": {"paths": 100}},
        {"id": 2, "parent": 1, "layer": "drivers", "name": "covariance_matrix",
         "start": 1.0, "end": 2.0},
    ]
    metrics = tracing.layer_metrics(spans, n_ops=1, overhead_s=0.0)
    assert metrics["montecarlo.ensemble_self_s"]["value"] == pytest.approx(6.0)
    assert metrics["drivers.sample_s"]["value"] == pytest.approx(3.0)
    assert metrics["drivers.path_us"]["value"] == pytest.approx(3e4)
    assert set(metrics) == set(tracing.METRICS)


def test_tracer_patches_and_restores_gmr():
    original = gmr.drivers.covariance_matrix
    tracer = tracing.Tracer()
    grid = np.linspace(0.0, 1.0, 9)
    with tracer.installed():
        gmr.drivers.sample_path_matrix(gmr.fbm_kernel(0.7), grid, 3, 0)
    assert gmr.drivers.covariance_matrix is original
    names = [s["name"] for s in tracer.spans]
    assert names == ["sample_path_matrix", "covariance_matrix", "_cholesky_with_jitter"]
    assert tracer.spans[1]["parent"] == 0
    assert tracer.spans[0]["counts"] == {"paths": 3}


def test_run_refuses_a_directory_without_gmr(tmp_path):
    os.makedirs(tmp_path / "bench")
    shutil.copy(os.path.join(HERE, "run.py"), tmp_path / "bench" / "run.py")
    done = subprocess.run([sys.executable, "bench/run.py", "--workload", "ensemble", "--seed", "1",
                           "--seconds", "1", "--trace", "0"], cwd=tmp_path,
                          capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert done.stdout == ""
