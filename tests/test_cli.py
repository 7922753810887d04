import csv
import json
import math

import numpy as np
import pytest

from gmr import montecarlo
from gmr.cli import _read_observations, _write_csv, _write_json, run
from gmr.drivers import SamplePath, fbm_kernel, sample_path_matrix, sample_paths, uniform_grid
from gmr.pk import ConcentrationSeries
from gmr.solver import convergence_study, solve_matrix
from gmr.transform import ModelParams, tilde_w_matrix
from test_solver import deterministic_ode_solution

FBM9 = {"kind": "fbm", "hurst": 0.9}


def write_config(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def read_csv(path):
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        rows = [[float(v) for v in row] for row in reader if row]
    return header, np.array(rows)


def test_csv_bytes(tmp_path):
    path = tmp_path / "a.csv"
    _write_csv(path, ["t", "value"], [(0.0, 0.1), (0.5, -2), (1.0, 1e-300)])
    assert path.read_bytes() == (
        b"t,value\r\n0,0.10000000000000001\r\n0.5,-2\r\n1,1e-300\r\n"
    )


def test_json_bytes(tmp_path):
    path = tmp_path / "a.json"
    _write_json(path, {"b": [0.1, 2], "a": {"z": True, "y": None}})
    assert path.read_bytes() == (
        b'{\n  "a": {\n    "y": null,\n    "z": true\n  },\n'
        b'  "b": [\n    0.1,\n    2\n  ]\n}\n'
    )


def test_observations_csv_round_trip(tmp_path):
    series = ConcentrationSeries(np.array([0.5, 0.2]), np.array([0.1, 0.7]))
    out = tmp_path / "obs.csv"
    _write_csv(out, ["t", "concentration"], zip(series.times, series.concentrations))
    back = _read_observations(out, None, False)
    assert np.array_equal(back.times, series.times)
    assert np.array_equal(back.concentrations, series.concentrations)
    empty = tmp_path / "empty.csv"
    empty.write_text("")
    with pytest.raises(ValueError, match="no header row"):
        _read_observations(empty, None, False)


def test_observations_read_simulation_output(tmp_path):
    path = tmp_path / "sim.csv"
    path.write_text(
        "t,stochastic,deterministic\r\n"
        "0,1,1\r\n"
        "0.5,0.4,0.45\r\n"
        "1,0,0.018\r\n"
    )
    series = _read_observations(path, None, True)
    assert np.array_equal(series.times, [0.5])
    assert np.array_equal(series.concentrations, [0.4])
    strict = _read_observations(path, None, False)
    assert np.array_equal(strict.times, [0.5, 1.0])  # keeps the post-hit zero
    named = _read_observations(path, "deterministic", False)
    assert np.array_equal(named.concentrations, [0.45, 0.018])
    with pytest.raises(ValueError, match="no column"):
        _read_observations(path, "missing", False)


def test_simulate_zero_noise_matches_ode(tmp_path):
    cfg = write_config(
        tmp_path,
        "sim.json",
        {
            "model": {"x0": 2.0, "a": 1.0, "b": 2.0, "sigma": 0.0, "beta": 0.5},
            "kernel": FBM9,
            "grid": {"n": 256, "T": 1.0},
            "seed": 1,
        },
    )
    out = tmp_path / "out"
    assert run(["simulate", "--config", cfg, "--out", str(out)]) == 0
    header, rows = read_csv(out / "simulate.csv")
    assert header == ["t", "value"]
    p = ModelParams(x0=2.0, a=1.0, b=2.0, sigma=0.0, beta=0.5)
    ode = deterministic_ode_solution(p, rows[:, 0])
    assert np.max(np.abs(rows[:, 1] - ode)) <= 2.0 / 256


MODEL = {"x0": 1.0, "a": 1.0, "b": 1.0, "sigma": 0.5, "beta": 0.7}
PK = {"A0": 1.0, "v": 1.0, "Ke": 4.0, "sigma": 1.0, "beta": 0.8}
FBM8 = {"kind": "fbm", "hurst": 0.8}

# one small config per subcommand, each writing every artifact it can;
# pk-fit reads the observations that the test writes next to it
RERUN_CONFIGS = {
    "simulate": {"model": MODEL, "kernel": FBM8, "grid": {"n": 64, "T": 1.0}, "seed": 9},
    "converge": {"model": MODEL, "kernel": FBM8, "T": 1.0, "n_list": [8, 16], "ref_n": 128,
                 "seed": 9},
    "ensemble": {"model": MODEL, "kernel": FBM8, "grid": {"n": 32, "T": 1.0},
                 "ensemble": {"M": 40, "marginal_times": [0.5]}, "write_paths": True, "seed": 9},
    "hit-times": {"model": {**MODEL, "a": 0.0, "sigma": 1.0}, "kernel": FBM8,
                  "horizons": [0.5, 1.0], "steps_per_unit": 32, "M": 100, "seed": 9},
    "survival": {"y0": 2.0, "model": {"b": 1.0, "sigma": 0.5, "beta": 0.7},
                 "kernel": {"kind": "brownian"}, "grid": {"n": 32, "T": 1.0}, "M": 200, "seed": 9},
    "pk-simulate": {"pk": PK, "kernel": FBM9, "grid": {"n": 64, "T": 1.0}, "seed": 9},
    "pk-fit": {"pk_constants": {"A0": 1.0, "v": 1.0}, "kernel": {"kind": "brownian"},
               "observations": "obs.csv", "init": {"Ke": 2.0, "sigma": 0.5, "beta": 0.5},
               "bounds": {"ke_max": 20.0}, "seed": 9},
    "pk-sensitivity": {"pk": PK, "kernel": FBM8, "x": 1.0, "functional": "sin",
                       "tau": {"kind": "hit_capped"}, "grid": {"n": 32, "T": 1.0}, "M": 100,
                       "method": "fd", "seed": 9},
}

PK_FIT_OBS = "t,concentration\r\n0.2,0.5\r\n0.4,0.22\r\n0.6,0.1\r\n0.8,0.05\r\n"


@pytest.mark.parametrize("command", sorted(RERUN_CONFIGS))
def test_simulate_byte_identical_reruns(tmp_path, command):
    payload = dict(RERUN_CONFIGS[command])
    if command == "pk-fit":
        obs = tmp_path / "obs.csv"
        obs.write_text(PK_FIT_OBS)
        payload["observations"] = str(obs)
    cfg = write_config(tmp_path, "cfg.json", payload)
    assert run([command, "--config", cfg, "--out", str(tmp_path / "a")]) == 0
    assert run([command, "--config", cfg, "--out", str(tmp_path / "b")]) == 0
    names = sorted(path.name for path in (tmp_path / "a").iterdir())
    assert names and names == sorted(path.name for path in (tmp_path / "b").iterdir())
    for name in names:
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


# put first on sys.meta_path, it refuses every scipy module
_NO_SCIPY = """
import sys
class NoScipy:
    def find_spec(self, name, path=None, target=None):
        if name.split(".")[0] == "scipy":
            raise ImportError(f"scipy is refused: {name}")
sys.meta_path.insert(0, NoScipy())
from gmr.cli import run
"""


def test_cli_runs_without_scipy_byte_identically(tmp_path):
    # scipy serves only the PK likelihood: every other subcommand runs in a
    # process that cannot import it and writes the bytes of a normal run,
    # while pk-fit stops at its scipy import
    import os
    import subprocess
    import sys

    import gmr

    (tmp_path / "obs.csv").write_text(PK_FIT_OBS)
    lines = [_NO_SCIPY]
    for command, payload in RERUN_CONFIGS.items():
        if command == "pk-fit":
            payload = dict(payload, observations=str(tmp_path / "obs.csv"))
        cfg = write_config(tmp_path, f"{command}.json", payload)
        plain, blocked = str(tmp_path / "plain" / command), str(tmp_path / "blocked" / command)
        argv = [command, "--config", cfg, "--out", blocked]
        if command == "pk-fit":
            lines.append(f"try:\n    run({argv!r})\nexcept ImportError:\n    pass\n"
                         f"else:\n    raise AssertionError('pk-fit ran without scipy')")
        else:
            assert run([command, "--config", cfg, "--out", plain]) == 0
            lines.append(f"assert run({argv!r}) == 0")
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(gmr.__file__)))
    subprocess.run([sys.executable, "-c", "\n".join(lines)], check=True, env=env,
                   capture_output=True)
    for command in set(RERUN_CONFIGS) - {"pk-fit"}:
        names = sorted(path.name for path in (tmp_path / "plain" / command).iterdir())
        assert names == sorted(path.name for path in (tmp_path / "blocked" / command).iterdir())
        for name in names:
            assert ((tmp_path / "plain" / command / name).read_bytes()
                    == (tmp_path / "blocked" / command / name).read_bytes())


def test_simulate_csv_round_trips_via_sample_path(tmp_path):
    cfg = write_config(
        tmp_path,
        "sim.json",
        {
            "model": {"x0": 1.0, "a": 1.0, "b": 1.0, "sigma": 0.5, "beta": 0.7},
            "kernel": {"kind": "fbm", "hurst": 0.8},
            "grid": {"n": 32, "T": 1.0},
            "seed": 4,
        },
    )
    out = tmp_path / "out"
    assert run(["simulate", "--config", cfg, "--out", str(out)]) == 0
    header, rows = read_csv(out / "simulate.csv")
    path = SamplePath(rows[:, 0], rows[:, 1])
    assert header == ["t", "value"]
    assert path.n_steps == 32
    assert path.times[-1] == 1.0


def test_simulate_seed_flag_overrides(tmp_path):
    base = {
        "model": {"x0": 1.0, "a": 1.0, "b": 1.0, "sigma": 0.5, "beta": 0.7},
        "kernel": {"kind": "fbm", "hurst": 0.8},
        "grid": {"n": 32, "T": 1.0},
        "seed": 9,
    }
    cfg = write_config(tmp_path, "sim.json", base)
    assert run(["simulate", "--config", cfg, "--out", str(tmp_path / "a")]) == 0
    assert run(["simulate", "--config", cfg, "--seed", "10", "--out", str(tmp_path / "c")]) == 0
    assert (tmp_path / "a" / "simulate.csv").read_bytes() != (
        tmp_path / "c" / "simulate.csv"
    ).read_bytes()


def test_config_validation_failures(tmp_path):
    missing_beta = write_config(
        tmp_path,
        "bad1.json",
        {
            "model": {"x0": 1.0, "a": 1.0, "b": 1.0, "sigma": 0.5},
            "kernel": FBM9,
            "grid": {"n": 32, "T": 1.0},
            "seed": 1,
        },
    )
    assert run(["simulate", "--config", missing_beta, "--out", str(tmp_path)]) == 1
    unknown = write_config(
        tmp_path,
        "bad2.json",
        {
            "model": {"x0": 1.0, "a": 1.0, "b": 1.0, "sigma": 0.5, "beta": 0.7},
            "kernel": FBM9,
            "grid": {"n": 32, "T": 1.0},
            "seed": 1,
            "typo_key": 1,
        },
    )
    assert run(["simulate", "--config", unknown, "--out", str(tmp_path)]) == 1
    not_json = tmp_path / "bad3.json"
    not_json.write_text("{nope")
    assert run(["simulate", "--config", str(not_json), "--out", str(tmp_path)]) == 1
    assert run(["simulate", "--config", str(tmp_path / "absent.json"), "--out", str(tmp_path)]) == 1


def test_validation_error_names_offending_key(tmp_path, capsys):
    cfg = write_config(
        tmp_path,
        "bad.json",
        {
            "model": {"x0": 1.0, "a": 1.0, "b": 1.0, "sigma": 0.5, "beta": 0.7},
            "kernel": {"kind": "fbm", "hurst": 1.4},
            "grid": {"n": 32, "T": 1.0},
            "seed": 1,
        },
    )
    assert run(["simulate", "--config", cfg, "--out", str(tmp_path)]) == 1
    assert "hurst" in capsys.readouterr().err


def test_converge_outputs(tmp_path):
    cfg = write_config(
        tmp_path,
        "conv.json",
        {
            "model": {"x0": 1.0, "a": 1.0, "b": 1.0, "sigma": 0.3, "beta": 0.8},
            "kernel": FBM9,
            "T": 1.0,
            "n_list": [16, 32, 64],
            "ref_n": 512,
            "seed": 5,
        },
    )
    out = tmp_path / "out"
    assert run(["converge", "--config", cfg, "--out", str(out)]) == 0
    # the artifacts hold the library's RateReport, every number round-tripped
    p = ModelParams(x0=1.0, a=1.0, b=1.0, sigma=0.3, beta=0.8)
    driver = sample_paths(fbm_kernel(0.9), uniform_grid(512, 1.0), 1, 5)[0]
    report = convergence_study(p, driver, [16, 32, 64], 512, 0.9)
    header, rows = read_csv(out / "converge.csv")
    assert header == ["n", "error"]
    assert np.array_equal(rows, np.column_stack([report.n_list, report.errors]))
    payload = json.loads((out / "converge.json").read_text())
    assert payload == {"fitted_slope": report.fitted_slope,
                       "theoretical_rate": report.theoretical_rate}
    assert payload["theoretical_rate"] == pytest.approx(0.9)


def test_ensemble_outputs(tmp_path):
    cfg = write_config(
        tmp_path,
        "ens.json",
        {
            "model": {"x0": 1.0, "a": 1.0, "b": 1.0, "sigma": 0.5, "beta": 0.7},
            "kernel": {"kind": "fbm", "hurst": 0.8},
            "grid": {"n": 32, "T": 1.0},
            "ensemble": {"M": 25, "marginal_times": [0.5]},
            "seed": 3,
            "write_paths": True,
        },
    )
    out = tmp_path / "out"
    assert run(["ensemble", "--config", cfg, "--out", str(out)]) == 0
    payload = json.loads((out / "ensemble.json").read_text())
    assert {e["p"] for e in payload["lp_estimates"]} == {1.0, 2.0, 4.0, 8.0}
    assert payload["hit_fraction"] == 0.0
    assert len(payload["marginal_samples"]["0.5"]) == 25
    header, rows = read_csv(out / "ensemble_paths.csv")
    assert header == ["t"] + [f"path_{i}" for i in range(25)]
    assert rows.shape == (33, 26)


@pytest.mark.parametrize("a", [1.0, 0.0])
def test_ensemble_stats_route_writes_the_whole_array_bytes(tmp_path, monkeypatch, a):
    # without write_paths the statistics come from chunks of paths, here
    # 1024; with it, from the whole (M, n+1) arrays: one chunk, none
    # partial, and a partial last chunk
    monkeypatch.setattr(montecarlo, "_CHUNK_PATHS", 1024)
    for m in (1, 1023, 1024, 1025, 3000):
        payload = {"model": {**MODEL, "a": a, "sigma": 1.0}, "kernel": FBM8,
                   "grid": {"n": 32, "T": 1.0}, "ensemble": {"M": m, "marginal_times": [0.5, 1.0]},
                   "seed": m}
        outs = []
        for write_paths in (False, True):
            cfg = write_config(tmp_path, "ens.json", {**payload, "write_paths": write_paths})
            outs.append(tmp_path / f"{m}-{write_paths}")
            assert run(["ensemble", "--config", cfg, "--out", str(outs[-1])]) == 0
        assert sorted(p.name for p in outs[0].iterdir()) == ["ensemble.json"]
        stats = (outs[0] / "ensemble.json").read_bytes()
        assert stats == (outs[1] / "ensemble.json").read_bytes(), m
    assert (json.loads(stats)["hit_fraction"] > 0.0) == (a == 0.0)


def test_hit_times_outputs(tmp_path):
    cfg = write_config(
        tmp_path,
        "hits.json",
        {
            "model": {"x0": 1.0, "a": 0.0, "b": 4.0, "sigma": 1.0, "beta": 0.8},
            "kernel": {"kind": "fbm", "hurst": 0.6},
            "horizons": [1.0, 2.0],
            "steps_per_unit": 32,
            "M": 200,
            "seed": 4,
        },
    )
    out = tmp_path / "out"
    assert run(["hit-times", "--config", cfg, "--out", str(out)]) == 0
    payload = json.loads((out / "hit_times.json").read_text())
    fr = [h["fraction"] for h in payload["horizons"]]
    assert fr[0] <= fr[1]


def test_hit_times_rejects_positive_a(tmp_path):
    cfg = write_config(
        tmp_path,
        "hits.json",
        {
            "model": {"x0": 1.0, "a": 1.0, "b": 4.0, "sigma": 1.0, "beta": 0.8},
            "kernel": {"kind": "fbm", "hurst": 0.6},
            "horizons": [1.0],
            "M": 10,
            "seed": 4,
        },
    )
    assert run(["hit-times", "--config", cfg, "--out", str(tmp_path)]) == 1


def test_survival_outputs(tmp_path):
    cfg = write_config(
        tmp_path,
        "surv.json",
        {
            "y0": 3.0,
            "model": {"b": 0.0, "sigma": 1.0, "beta": 0.5},
            "kernel": {"kind": "brownian"},
            "grid": {"n": 128, "T": 1.0},
            "M": 500,
            "seed": 6,
        },
    )
    out = tmp_path / "out"
    assert run(["survival", "--config", cfg, "--out", str(out)]) == 0
    payload = json.loads((out / "survival.json").read_text())
    assert payload["applicable"] and payload["passed"]
    assert payload["empirical"] >= payload["bound"] - 2 * payload["std_error"]


def test_pk_simulate_columns_and_determinism(tmp_path):
    cfg = write_config(
        tmp_path,
        "pk.json",
        {
            "pk": {"A0": 1.0, "v": 1.0, "Ke": 4.0, "sigma": 1.0, "beta": 0.8},
            "kernel": FBM9,
            "grid": {"n": 128, "T": 1.0},
            "seed": 2,
        },
    )
    out = tmp_path / "out"
    assert run(["pk-simulate", "--config", cfg, "--out", str(out)]) == 0
    header, rows = read_csv(out / "pk_simulate.csv")
    assert header == ["t", "stochastic", "deterministic"]
    assert np.all(rows[:, 1] >= 0.0)
    np.testing.assert_allclose(rows[:, 2], np.exp(-4.0 * rows[:, 0]), rtol=1e-12)


def test_pk_fit_consumes_pk_simulate_output(tmp_path):
    sim_cfg = write_config(
        tmp_path,
        "pk.json",
        {
            "pk": {"A0": 1.0, "v": 1.0, "Ke": 4.0, "sigma": 1.0, "beta": 0.8},
            "kernel": FBM9,
            "grid": {"n": 100, "T": 1.0},
            "seed": 8,
        },
    )
    out = tmp_path / "out"
    assert run(["pk-simulate", "--config", sim_cfg, "--out", str(out)]) == 0
    fit_cfg = write_config(
        tmp_path,
        "fit.json",
        {
            "pk_constants": {"A0": 1.0, "v": 1.0},
            "kernel": FBM9,
            "observations": str(out / "pk_simulate.csv"),
            "init": {"Ke": 2.0, "sigma": 0.5, "beta": 0.5},
            "bounds": {"ke_max": 20.0, "sigma_max": 10.0},
            "seed": 8,
        },
    )
    assert run(["pk-fit", "--config", fit_cfg, "--out", str(out)]) == 0
    payload = json.loads((out / "pk_fit.json").read_text())
    assert set(payload) == {"Ke", "sigma", "beta", "log_likelihood", "converged", "iterations"}
    assert payload["Ke"] > 0 and 0 < payload["beta"] < 1


def test_pk_fit_numerical_failure_exit_code(tmp_path):
    obs = tmp_path / "obs.csv"
    obs.write_text("t,concentration\r\n0.5,0.4\r\n1,0\r\n")
    cfg = write_config(
        tmp_path,
        "fit.json",
        {
            "pk_constants": {"A0": 1.0, "v": 1.0},
            "kernel": {"kind": "brownian"},
            "observations": str(obs),
            "init": {"Ke": 4.0, "sigma": 1.0, "beta": 0.8},
            "drop_nonpositive": False,
            "seed": 1,
        },
    )
    assert run(["pk-fit", "--config", cfg, "--out", str(tmp_path)]) == 2


OVERFLOW_CONFIGS = {
    # b t past ~709: the scheme's e^(b t) overflows a float
    "simulate": {"model": {"x0": 1.0, "a": 1.0, "b": 800.0, "sigma": 0.5, "beta": 0.7},
                 "kernel": FBM8, "grid": {"n": 64, "T": 1.0}, "seed": 1},
    # beta = 0.99 lifts the nodes to their 100th power, which overflows:
    # ensemble.json used to hold "estimate": Infinity, which is not JSON
    "ensemble": {"model": {"x0": 1, "a": 1, "b": 0, "sigma": 2e5, "beta": 0.99},
                 "kernel": {"kind": "brownian"}, "grid": {"n": 64, "T": 1.0},
                 "ensemble": {"M": 64}, "seed": 1},
    # Ke tau = 800: the lift y^(gamma+1) e^(-Ke tau) is inf * 0
    "pk-sensitivity": {"pk": {**PK, "Ke": 800.0}, "kernel": FBM8, "x": 1.0,
                       "functional": "square", "tau": {"kind": "fixed", "time": 1.0},
                       "grid": {"n": 64, "T": 1.0}, "M": 50, "seed": 3},
}


def test_overflow_exits_as_numerical_failure(tmp_path, capsys):
    for command, payload in OVERFLOW_CONFIGS.items():
        cfg = write_config(tmp_path, "cfg.json", payload)
        out = tmp_path / command
        assert run([command, "--config", cfg, "--out", str(out)]) == 2
        assert "numerical failure" in capsys.readouterr().err
        assert not any(out.iterdir())


@pytest.mark.parametrize(
    "rows, drop",
    [("0.4,0.22\r\n0.6,nan\r\n", True), ("0.4,0.22\r\nnan,0.1\r\n", False),
     ("0.4,0.22\r\n0.6,inf\r\n", False), ("0.4,0.22\r\n0.6\r\n", True),
     ("0.4,0.22\r\n0.6,abc\r\n", True)],
    ids=["nan-concentration", "nan-time", "inf-concentration", "short-row", "unparsable-cell"],
)
def test_pk_fit_nonfinite_observation_exits_1_naming_the_row(tmp_path, capsys, rows, drop):
    obs = tmp_path / "obs.csv"
    obs.write_text("t,concentration\r\n0.2,0.5\r\n" + rows)
    payload = dict(RERUN_CONFIGS["pk-fit"], observations=str(obs), drop_nonpositive=drop)
    cfg = write_config(tmp_path, "fit.json", payload)
    assert run(["pk-fit", "--config", cfg, "--out", str(tmp_path / "out")]) == 1
    assert "data row 3" in capsys.readouterr().err
    assert not (tmp_path / "out" / "pk_fit.json").exists()


def test_simulate_small_beta_matches_the_ensemble_route(tmp_path):
    # beta = 0.05 > 1 - H: negative increments put step roots near 1e-74, left
    # of the Newton start B^(1/(gamma+1)); every seed solves and agrees with
    # the vectorized solver on the same driver
    model = {"x0": 0.05, "a": 0.001, "b": 3.0, "sigma": 3.0, "beta": 0.05}
    params = ModelParams(**model)
    grid = uniform_grid(256, 1.0)
    base = {"model": model, "kernel": {"kind": "fbm", "hurst": 0.97}, "grid": {"n": 256, "T": 1.0}}
    for seed in range(12):
        cfg = write_config(tmp_path, "sim.json", dict(base, seed=seed))
        assert run(["simulate", "--config", cfg, "--out", str(tmp_path)]) == 0
        _, rows = read_csv(tmp_path / "simulate.csv")
        # two rows, so the vectorized kernel solves the CLI's row 0
        wt = tilde_w_matrix(sample_path_matrix(fbm_kernel(0.97), grid, 2, seed), grid, params)
        assert np.all(rows[:, 1] > 0.0)
        np.testing.assert_allclose(rows[:, 1], solve_matrix(params, grid, wt)[0][0],
                                   rtol=1e-12, atol=0.0)


def test_pk_sensitivity_outputs(tmp_path):
    base = {
        "pk": {"A0": 1.0, "v": 1.0, "Ke": 4.0, "sigma": 1.0, "beta": 0.8},
        "kernel": {"kind": "fbm", "hurst": 0.8},
        "x": 1.0,
        "functional": "square",
        "tau": {"kind": "fixed", "time": 0.5},
        "grid": {"n": 64, "T": 1.0},
        "M": 400,
        "seed": 3,
    }
    cfg = write_config(tmp_path, "sens.json", base)
    out = tmp_path / "out"
    assert run(["pk-sensitivity", "--config", cfg, "--out", str(out)]) == 0
    payload = json.loads((out / "pk_sensitivity.json").read_text())
    assert payload["method"] == "pathwise"
    assert payload["tau"] == {"kind": "fixed", "time": 0.5}
    assert payload["M"] == 400
    fd_cfg = dict(base, method="fd", h=0.01)
    cfg2 = write_config(tmp_path, "sens_fd.json", fd_cfg)
    assert run(["pk-sensitivity", "--config", cfg2, "--out", str(out)]) == 0
    fd_payload = json.loads((out / "pk_sensitivity.json").read_text())
    combined = math.hypot(payload["std_error"], fd_payload["std_error"])
    assert abs(payload["estimate"] - fd_payload["estimate"]) <= 3 * combined


SIM_TEXT = (
    '{"model": {"x0": 1.0, "a": 1.0, "b": 1.0, "sigma": %s, "beta": 0.7},'
    ' "kernel": {"kind": "fbm", "hurst": 0.8}, "grid": {"n": 16, "T": %s}, "seed": 9}'
)
ENS_TEXT = (
    '{"model": {"x0": 1.0, "a": 1.0, "b": 1.0, "sigma": 0.5, "beta": 0.7},'
    ' "kernel": {"kind": "fbm", "hurst": 0.8}, "grid": {"n": 16, "T": 1.0},'
    ' "ensemble": {"M": 4%s}, %s"seed": 9}'
)
HIT_TEXT = (
    '{"model": {"x0": 1.0, "a": 0.0, "b": 1.0, "sigma": 0.3, "beta": 0.7},'
    ' "kernel": {"kind": "fbm", "hurst": 0.8}, "horizons": [0.5], "M": %s, %s"seed": 9}'
)
CONV_TEXT = (
    '{"model": {"x0": 1.0, "a": 1.0, "b": 1.0, "sigma": 0.5, "beta": 0.7},'
    ' "kernel": {"kind": "fbm", "hurst": 0.8}, "T": 1.0, "n_list": %s,'
    ' "ref_n": %s, "seed": 9}'
)
FIT_TEXT = (
    '{"pk_constants": {"A0": 1.0, "v": 1.0}, "kernel": {"kind": "brownian"},'
    ' "observations": "obs.csv", "init": {"Ke": 2.0, "sigma": 0.5, "beta": 0.5},'
    ' "quad_refine": %s, "seed": 9}'
)
SURV_TEXT = (
    '{"y0": 1.0, "model": {"b": 1.0, "sigma": 0.3, "beta": 0.7},'
    ' "kernel": {"kind": "fbm", "hurst": 0.8}, "grid": {"n": 16, "T": 1.0}, "M": 0, "seed": 9}'
)
SENS_TEXT = (
    '{"pk": {"A0": 1.0, "v": 1.0, "Ke": 4.0, "sigma": 1.0, "beta": 0.8},'
    ' "kernel": {"kind": "fbm", "hurst": 0.8}, "x": 1.0, "functional": "square",'
    ' "tau": {"kind": "fixed", "time": %s}, "grid": {"n": 16, "T": 1.0}, "M": %s, "seed": 9}'
)


def _with(command, **changes):
    """The text of RERUN_CONFIGS[command] with some top-level keys changed."""
    return json.dumps({**RERUN_CONFIGS[command], **changes})


@pytest.mark.parametrize(
    "command, text, key",
    [
        ("simulate", SIM_TEXT % ("NaN", "1.0"), "sigma"),
        ("simulate", SIM_TEXT % ("0.5", "Infinity"), "T"),
        ("ensemble", ENS_TEXT % (', "p_exponents": 2', ""), "p_exponents"),
        ("ensemble", ENS_TEXT % (', "p_exponents": [2, NaN]', ""), "p_exponents"),
        ("ensemble", ENS_TEXT % (', "marginal_times": ["0.5"]', ""), "marginal_times"),
        ("ensemble", ENS_TEXT % ("", '"write_paths": "yes", '), "write_paths"),
        ("ensemble", ENS_TEXT % (', "marginal_times": [0.3]', ""), "ensemble.marginal_times"),
        ("ensemble", ENS_TEXT % (', "p_exponents": [0.5]', ""), "ensemble.p_exponents"),
        ("hit-times", HIT_TEXT % ("0", ""), "config.M"),
        ("hit-times", HIT_TEXT % ("4", '"steps_per_unit": 0, '),
         "config.steps_per_unit: must be >= 1"),
        ("hit-times", HIT_TEXT % ("4", '"steps_per_unit": -3, '),
         "config.steps_per_unit: must be >= 1"),
        ("hit-times", _with("hit-times", horizons=[0.5, -1.0]), "config.horizons"),
        ("survival", SURV_TEXT, "config.M"),
        ("survival", _with("survival", y0=-1.0), "config.y0: must be positive"),
        ("converge", CONV_TEXT % ("[4, 8]", "0"), "config.ref_n: must be >= 1"),
        ("converge", CONV_TEXT % ("[true, 8]", "64"), "config.n_list"),
        ("converge", CONV_TEXT % ("[8, 32]", "128"), "config.n_list/ref_n"),
        ("converge", CONV_TEXT % ("[32]", "4096"),
         "config.n_list/ref_n: the slope fit needs at least two sizes"),
        ("converge", CONV_TEXT % ("[32, 48]", "4096"),
         "config.n_list/ref_n: the driver grid must refine the scheme grid: n = 48 does not"),
        ("converge", _with("converge", T=-1.0), "config.T: must be positive"),
        ("converge", _with("converge", model={**MODEL, "a": 0.0}), "model.a"),
        ("simulate", SIM_TEXT % ("0.5", "1e-320"), "T"),
        ("pk-fit", FIT_TEXT % "0", "config.quad_refine"),
        ("pk-fit", FIT_TEXT % "-1", "config.quad_refine"),
        ("pk-fit", _with("pk-fit", observations="absent.csv"), "config.observations"),
        ("pk-fit", _with("pk-fit", observations="empty.csv"),
         "config.observations: CSV is empty"),
        ("pk-sensitivity", SENS_TEXT % ("0.5", "0"), "config.M"),
        ("pk-sensitivity", SENS_TEXT % ("0.3", "40"), "tau.time"),  # off the 16-step grid
        ("pk-sensitivity", _with("pk-sensitivity", x=-1.0), "config.x: must be positive"),
        ("pk-sensitivity", _with("pk-sensitivity", h=2.0), "config.h"),
        ("pk-sensitivity", _with("pk-sensitivity", functional="cube"), "config.functional"),
        ("pk-sensitivity", _with("pk-sensitivity", method="mc"), "config.method"),
    ],
    ids=["nan-sigma", "infinite-T", "scalar-p_exponents", "nan-p_exponents",
         "string-marginal_times", "string-write_paths", "off-grid-marginal_times",
         "small-p_exponents",
         "hit-times-zero-M", "hit-times-zero-steps_per_unit", "hit-times-negative-steps_per_unit",
         "hit-times-negative-horizon", "survival-zero-M", "survival-negative-y0",
         "converge-zero-ref_n", "converge-boolean-n_list", "converge-short-ref_n",
         "converge-one-size", "converge-non-dividing-n",
         "converge-negative-T", "converge-zero-a", "subnormal-T", "pk-fit-zero-quad_refine",
         "pk-fit-negative-quad_refine", "pk-fit-missing-observations",
         "pk-fit-empty-observations", "pk-sensitivity-zero-M",
         "pk-sensitivity-off-grid-tau-time", "pk-sensitivity-negative-x", "pk-sensitivity-large-h",
         "pk-sensitivity-unknown-functional", "pk-sensitivity-unknown-method"],
)
def test_bad_config_values_exit_1_before_writing(tmp_path, capsys, monkeypatch, command, text,
                                                 key):
    # json.load parses NaN and Infinity, so they must be rejected by key,
    # and every config error must come before any artifact is written
    if command == "pk-fit":
        (tmp_path / "obs.csv").write_text(PK_FIT_OBS)
        (tmp_path / "empty.csv").write_text("")
        monkeypatch.chdir(tmp_path)  # FIT_TEXT names its observations relative to here
    cfg = tmp_path / "cfg.json"
    cfg.write_text(text)
    out = tmp_path / "out"
    assert run([command, "--config", str(cfg), "--out", str(out)]) == 1
    assert key in capsys.readouterr().err
    assert not out.exists() or not any(out.iterdir())
