"""Batch command-line front-end, and the one module that reads or writes files.

Each subcommand reads a single JSON config object, runs the library and
writes plot-ready CSV / JSON artifacts into the output directory. Config
keys are validated strictly (unknown keys are rejected and range errors
name the offending key); identical config + seed produces byte-identical
output files. Exit codes: 0 success, 1 validation error, 2 numerical
failure.

CSV files have a header row, CRLF row ends and every number written as
%.17g (a lossless float64 round-trip). JSON files are UTF-8 with sorted
keys, a two-space indent and a trailing newline.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import json
import math
import os
import sys
from dataclasses import asdict, fields

import numpy as np

from .drivers import (
    CovarianceError,
    CovarianceKernel,
    brownian_kernel,
    fbm_kernel,
    sample_paths,
    uniform_grid,
)
from .montecarlo import (
    EnsembleSpec,
    EnsembleStats,
    ensemble_simulate,
    ensemble_stats,
    hitting_time_stats,
    survival_bound_check,
)
from .pk import (
    AdmissibilityError,
    ConcentrationSeries,
    PkParams,
    SensitivitySpec,
    ThetaBounds,
    build_quad_grid,
    deterministic_concentration,
    fit_mle,
    sensitivity_fd,
    sensitivity_plsin,
    simulate_concentration,
)
from .solver import (
    RootSolveError,
    convergence_study,
    solve_gmr,
)
from .transform import ModelParams

__all__ = ["main", "run", "ConfigError"]


class ConfigError(ValueError):
    """Invalid configuration; the message names the offending key."""


_FUNCTIONALS = {
    "identity": (lambda r: r, lambda r: np.ones_like(np.asarray(r, dtype=float))),
    "square": (lambda r: r**2, lambda r: 2.0 * r),
    "sin": (np.sin, np.cos),
}


def _write_csv(path, header, rows) -> None:
    """Write ``header`` and then each row of numbers, formatted as %.17g."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\r\n")
        writer.writerow(header)
        writer.writerows(["%.17g" % v for v in row] for row in rows)


def _write_json(path, payload: dict) -> None:
    """Write ``payload`` with sorted keys, indent 2 and a trailing newline."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, sort_keys=True, indent=2)
        fh.write("\n")


def _read_observations(path, column, drop_nonpositive: bool) -> ConcentrationSeries:
    """Read ``t,concentration`` CSV; also accepts simulation output.

    Reads ``column``, or when it is None the ``concentration`` column,
    falling back to a ``stochastic`` column (pk-simulate files) and then
    to the second column. A row without a finite time and concentration (too
    short, unparsable or not finite) raises ValueError naming its 1-based
    data row. Rows at t = 0 are never observations and are dropped;
    ``drop_nonpositive`` additionally drops rows with concentration <= 0
    (post-hit zeros).
    """
    with open(path, "r", newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        rows = [r for r in reader if r]
    if header is None:
        raise ValueError("CSV is empty: it has no header row")
    if "t" not in header:
        raise ValueError("CSV must have a 't' column")
    ti = header.index("t")
    if column is not None:
        if column not in header:
            raise ValueError(f"CSV has no column {column!r}")
        ci = header.index(column)
    elif "concentration" in header:
        ci = header.index("concentration")
    elif "stochastic" in header:
        ci = header.index("stochastic")
    else:
        ci = 1 if ti != 1 else 0
    t, x = np.empty(len(rows)), np.empty(len(rows))
    for k, r in enumerate(rows):
        try:
            t[k], x[k] = float(r[ti]), float(r[ci])
        except (IndexError, ValueError):
            t[k] = math.nan
        if not (math.isfinite(t[k]) and math.isfinite(x[k])):
            raise ValueError(f"data row {k + 1}: t and {header[ci]!r} must be finite numbers")
    keep = t > 0
    if drop_nonpositive:
        keep &= x > 0
    if not keep.any():
        raise ValueError("no usable observations in CSV")
    return ConcentrationSeries(t[keep], x[keep])


def _check_keys(obj: dict, allowed: set, ctx: str) -> None:
    if not isinstance(obj, dict):
        raise ConfigError(f"{ctx}: expected a JSON object")
    unknown = set(obj) - allowed
    if unknown:
        raise ConfigError(f"{ctx}: unknown key {sorted(unknown)[0]!r}")


@contextlib.contextmanager
def _config_errors(ctx: str):
    """Turn a library ValueError into a ConfigError that names ``ctx``."""
    try:
        yield
    except ConfigError:
        raise
    except ValueError as exc:
        raise ConfigError(f"{ctx}: {exc}") from exc


def _is_number(value) -> bool:
    """A finite JSON number; json.load also parses NaN and Infinity."""
    return (
        isinstance(value, (int, float))
        and not isinstance(value, bool)
        and abs(value) <= sys.float_info.max
    )


def _is_int(value) -> bool:
    """A JSON integer; bool is a subclass of int."""
    return isinstance(value, int) and not isinstance(value, bool)


def _get(obj: dict, key: str, ctx: str, kind=float, required=True, default=None):
    """Read and type-check ``obj[key]``; kind=tuple reads an array of finite numbers."""
    if key not in obj:
        if required:
            raise ConfigError(f"{ctx}: missing key {key!r}")
        return default
    value = obj[key]
    if kind is float:
        if not _is_number(value):
            raise ConfigError(f"{ctx}.{key}: expected a finite number")
        return float(value)
    if kind is int:
        if not _is_int(value):
            raise ConfigError(f"{ctx}.{key}: expected an integer")
        return value
    if kind is str:
        if not isinstance(value, str):
            raise ConfigError(f"{ctx}.{key}: expected a string")
        return value
    if kind is bool:
        if not isinstance(value, bool):
            raise ConfigError(f"{ctx}.{key}: expected a boolean")
        return value
    if kind is list:
        if not isinstance(value, list):
            raise ConfigError(f"{ctx}.{key}: expected an array")
        return value
    if kind is tuple:
        if not isinstance(value, list) or not all(_is_number(v) for v in value):
            raise ConfigError(f"{ctx}.{key}: expected an array of finite numbers")
        return tuple(value)
    if kind is dict:
        if not isinstance(value, dict):
            raise ConfigError(f"{ctx}.{key}: expected an object")
        return value
    raise AssertionError(kind)


def _count(obj: dict, key: str, ctx: str) -> int:
    """Read ``obj[key]`` as an integer of at least 1 (a number of paths or steps)."""
    value = _get(obj, key, ctx, kind=int)
    if value < 1:
        raise ConfigError(f"{ctx}.{key}: must be >= 1")
    return value


def _present(obj: dict, keys, ctx: str, kind=float) -> dict:
    """The given keys that ``obj`` sets, read with _get; the library owns the defaults."""
    return {key: _get(obj, key, ctx, kind=kind) for key in keys if key in obj}


def _model_from(cfg: dict, ctx: str = "model") -> ModelParams:
    _check_keys(cfg, {"x0", "a", "b", "sigma", "beta"}, ctx)
    with _config_errors(ctx):
        return ModelParams(
            x0=_get(cfg, "x0", ctx),
            a=_get(cfg, "a", ctx),
            b=_get(cfg, "b", ctx),
            sigma=_get(cfg, "sigma", ctx),
            beta=_get(cfg, "beta", ctx),
        )


def _kernel_from(cfg: dict, ctx: str = "kernel") -> CovarianceKernel:
    _check_keys(cfg, {"kind", "hurst"}, ctx)
    kind = _get(cfg, "kind", ctx, kind=str)
    if kind == "fbm":
        hurst = _get(cfg, "hurst", ctx)
        if not 0.0 < hurst < 1.0:
            raise ConfigError(f"{ctx}.hurst: must lie in (0, 1)")
        return fbm_kernel(hurst)
    if kind == "brownian":
        if "hurst" in cfg:
            raise ConfigError(f"{ctx}.hurst: not applicable to the brownian kernel")
        return brownian_kernel()
    raise ConfigError(f"{ctx}.kind: expected 'fbm' or 'brownian'")


def _check_steps(n: int, horizon: float, n_key: str, t_key: str, n_min: int) -> None:
    if n < n_min:
        raise ConfigError(f"{n_key}: must be >= {n_min}")
    if horizon <= 0:
        raise ConfigError(f"{t_key}: must be positive")
    if horizon / n < sys.float_info.min:  # subnormal steps: the grid is not uniform
        raise ConfigError(f"{t_key}: too small for {n} steps")


def _grid_from(cfg: dict, ctx: str = "grid"):
    _check_keys(cfg, {"n", "T"}, ctx)
    n = _get(cfg, "n", ctx, kind=int)
    horizon = _get(cfg, "T", ctx)
    _check_steps(n, horizon, f"{ctx}.n", f"{ctx}.T", 2)
    return n, horizon


def _pk_from(cfg: dict, ctx: str = "pk") -> PkParams:
    _check_keys(cfg, {"A0", "v", "Ka", "Ke", "sigma", "beta"}, ctx)
    with _config_errors(ctx):
        return PkParams(
            A0=_get(cfg, "A0", ctx),
            v=_get(cfg, "v", ctx),
            **_present(cfg, ("Ka",), ctx),
            Ke=_get(cfg, "Ke", ctx),
            sigma=_get(cfg, "sigma", ctx),
            beta=_get(cfg, "beta", ctx),
        )


def _seed_from(cfg: dict, args) -> int:
    seed = args.seed if args.seed is not None else cfg.get("seed")
    if seed is None:
        raise ConfigError("seed: missing (set it in the config or pass --seed)")
    if not _is_int(seed) or not 0 <= seed < 2**64:
        raise ConfigError("seed: expected an unsigned 64-bit integer")
    return seed


def _cmd_simulate(cfg: dict, args) -> list:
    _check_keys(cfg, {"model", "kernel", "grid", "seed"}, "config")
    model = _model_from(_get(cfg, "model", "config", kind=dict))
    kernel = _kernel_from(_get(cfg, "kernel", "config", kind=dict))
    n, horizon = _grid_from(_get(cfg, "grid", "config", kind=dict))
    seed = _seed_from(cfg, args)
    driver = sample_paths(kernel, uniform_grid(n, horizon), 1, seed)[0]
    path = solve_gmr(model, driver, n)
    out = os.path.join(args.out, "simulate.csv")
    _write_csv(out, ["t", "value"], zip(path.times, path.values))
    return [out]


def _cmd_converge(cfg: dict, args) -> list:
    _check_keys(cfg, {"model", "kernel", "T", "n_list", "ref_n", "seed"}, "config")
    model = _model_from(_get(cfg, "model", "config", kind=dict))
    if model.a == 0.0:
        raise ConfigError("model.a: the rate study runs the scheme, which needs a > 0")
    kernel = _kernel_from(_get(cfg, "kernel", "config", kind=dict))
    horizon = _get(cfg, "T", "config")
    n_list = _get(cfg, "n_list", "config", kind=list)
    ref_n = _get(cfg, "ref_n", "config", kind=int)
    seed = _seed_from(cfg, args)
    if not n_list or not all(_is_int(n) and n >= 1 for n in n_list):
        raise ConfigError("config.n_list: expected a nonempty array of positive integers")
    _check_steps(ref_n, horizon, "config.ref_n", "config.T", 1)
    driver = sample_paths(kernel, uniform_grid(ref_n, horizon), 1, seed)[0]
    with _config_errors("config.n_list/ref_n"):
        report = convergence_study(model, driver, n_list, ref_n, kernel.holder_exponent)
    csv_out = os.path.join(args.out, "converge.csv")
    json_out = os.path.join(args.out, "converge.json")
    _write_csv(csv_out, ["n", "error"], zip(report.n_list, report.errors))
    _write_json(json_out, {"fitted_slope": report.fitted_slope,
                           "theoretical_rate": report.theoretical_rate})
    return [csv_out, json_out]


def _stats_payload(stats: EnsembleStats) -> dict:
    return {
        "lp_estimates": [{"p": p, "estimate": v} for p, v in sorted(stats.lp_estimates.items())],
        "hit_fraction": stats.hit_fraction,
        "hit_times": [float(t) for t in stats.hit_times],
        "marginal_samples": {
            "%.17g" % t: [float(v) for v in vals]
            for t, vals in sorted(stats.marginal_samples.items())
        },
    }


def _cmd_ensemble(cfg: dict, args) -> list:
    _check_keys(cfg, {"model", "kernel", "grid", "ensemble", "seed", "write_paths"}, "config")
    model = _model_from(_get(cfg, "model", "config", kind=dict))
    kernel = _kernel_from(_get(cfg, "kernel", "config", kind=dict))
    n, horizon = _grid_from(_get(cfg, "grid", "config", kind=dict))
    ens = _get(cfg, "ensemble", "config", kind=dict)
    _check_keys(ens, {"M", "p_exponents", "marginal_times"}, "ensemble")
    m_count = _count(ens, "M", "ensemble")
    optional = _present(ens, ("p_exponents", "marginal_times"), "ensemble", kind=tuple)
    write_paths = _get(cfg, "write_paths", "config", kind=bool, required=False, default=False)
    seed = _seed_from(cfg, args)
    try:
        spec = EnsembleSpec(
            params=model,
            kernel=kernel,
            M=m_count,
            n=n,
            seed=seed,
            horizon=horizon,
            **optional,
        )
    except ValueError as exc:  # its message starts with the field's name
        raise ConfigError(f"ensemble.{exc}") from exc
    written = [os.path.join(args.out, "ensemble.json")]
    if not write_paths:
        # the statistics alone, chunk by chunk: no (M, n+1) array is held
        _write_json(written[-1], _stats_payload(ensemble_stats(spec)))
        return written
    result = ensemble_simulate(spec)
    _write_json(written[-1], _stats_payload(result.stats))
    written.append(os.path.join(args.out, "ensemble_paths.csv"))
    # the raw ensemble: columns t, path_0, ..., path_{M-1}
    header = ["t"] + [f"path_{i}" for i in range(result.x.shape[0])]
    _write_csv(written[-1], header, np.column_stack([result.times, result.x.T]))
    return written


def _cmd_hit_times(cfg: dict, args) -> list:
    _check_keys(cfg, {"model", "kernel", "horizons", "steps_per_unit", "M", "seed"}, "config")
    model = _model_from(_get(cfg, "model", "config", kind=dict))
    if model.a != 0.0:
        raise ConfigError("model.a: hit-time statistics need a = 0")
    kernel = _kernel_from(_get(cfg, "kernel", "config", kind=dict))
    horizons = _get(cfg, "horizons", "config", kind=list)
    if not horizons or any(not _is_number(t) or t <= 0 for t in horizons):
        raise ConfigError("config.horizons: expected an array of positive numbers")
    spu = ({"steps_per_unit": _count(cfg, "steps_per_unit", "config")}
           if "steps_per_unit" in cfg else {})
    m_count = _count(cfg, "M", "config")
    seed = _seed_from(cfg, args)
    rates = hitting_time_stats(model, kernel, m_count, horizons, seed=seed, **spu)
    out = os.path.join(args.out, "hit_times.json")
    _write_json(out, {"M": m_count, "horizons": [asdict(r) for r in rates]})
    return [out]


def _cmd_survival(cfg: dict, args) -> list:
    _check_keys(cfg, {"y0", "model", "kernel", "grid", "M", "seed"}, "config")
    y0 = _get(cfg, "y0", "config")
    if y0 <= 0:
        raise ConfigError("config.y0: must be positive")
    raw = _get(cfg, "model", "config", kind=dict)
    _check_keys(raw, {"b", "sigma", "beta"}, "model")
    beta = _get(raw, "beta", "model")
    if not 0.0 < beta < 1.0:
        raise ConfigError("model.beta: must lie in (0, 1)")
    with _config_errors("model"):
        model = ModelParams(
            x0=y0 ** (1.0 / (1.0 - beta)),
            a=0.0,
            b=_get(raw, "b", "model"),
            sigma=_get(raw, "sigma", "model"),
            beta=beta,
        )
    kernel = _kernel_from(_get(cfg, "kernel", "config", kind=dict))
    n, horizon = _grid_from(_get(cfg, "grid", "config", kind=dict))
    m_count = _count(cfg, "M", "config")
    seed = _seed_from(cfg, args)
    report = survival_bound_check(y0, model, kernel, uniform_grid(n, horizon), m_count, seed)
    out = os.path.join(args.out, "survival.json")
    _write_json(out, asdict(report))
    return [out]


def _cmd_pk_simulate(cfg: dict, args) -> list:
    _check_keys(cfg, {"pk", "kernel", "grid", "seed"}, "config")
    pk = _pk_from(_get(cfg, "pk", "config", kind=dict))
    kernel = _kernel_from(_get(cfg, "kernel", "config", kind=dict))
    n, horizon = _grid_from(_get(cfg, "grid", "config", kind=dict))
    seed = _seed_from(cfg, args)
    stochastic = simulate_concentration(pk, kernel, n, seed, horizon)
    deterministic = deterministic_concentration(pk, stochastic.times)
    out = os.path.join(args.out, "pk_simulate.csv")
    _write_csv(
        out,
        ["t", "stochastic", "deterministic"],
        zip(stochastic.times, stochastic.values, deterministic),
    )
    return [out]


def _cmd_pk_fit(cfg: dict, args) -> list:
    _check_keys(
        cfg,
        {"pk_constants", "kernel", "observations", "column", "drop_nonpositive",
         "init", "bounds", "quad_refine", "seed"},
        "config",
    )
    constants = _get(cfg, "pk_constants", "config", kind=dict)
    _check_keys(constants, {"A0", "v"}, "pk_constants")
    a0 = _get(constants, "A0", "pk_constants")
    vol = _get(constants, "v", "pk_constants")
    if a0 <= 0 or vol <= 0:
        raise ConfigError("pk_constants: A0 and v must be positive")
    kernel = _kernel_from(_get(cfg, "kernel", "config", kind=dict))
    obs_path = _get(cfg, "observations", "config", kind=str)
    column = _get(cfg, "column", "config", kind=str, required=False)
    drop = _get(cfg, "drop_nonpositive", "config", kind=bool, required=False, default=True)
    try:
        obs = _read_observations(obs_path, column, drop)
    except OSError as exc:
        raise ConfigError(f"config.observations: cannot read {obs_path!r} ({exc})") from exc
    except ValueError as exc:
        raise ConfigError(f"config.observations: {exc}") from exc
    init_cfg = _get(cfg, "init", "config", kind=dict)
    _check_keys(init_cfg, {"Ke", "sigma", "beta"}, "init")
    init = (
        _get(init_cfg, "Ke", "init"),
        _get(init_cfg, "sigma", "init"),
        _get(init_cfg, "beta", "init"),
    )
    bounds_cfg = _get(cfg, "bounds", "config", kind=dict, required=False, default={})
    bound_keys = [f.name for f in fields(ThetaBounds)]
    _check_keys(bounds_cfg, set(bound_keys), "bounds")
    with _config_errors("bounds"):
        bounds = ThetaBounds(**_present(bounds_cfg, bound_keys, "bounds"))
    refine = _get(cfg, "quad_refine", "config", kind=int, required=False)
    with _config_errors("config.quad_refine"):
        quad = build_quad_grid(obs.times, refine)
    with _config_errors("init"):
        est = fit_mle(obs, kernel, init, a0, vol, bounds=bounds, quad_grid=quad)
    out = os.path.join(args.out, "pk_fit.json")
    _write_json(out, asdict(est))
    return [out]


def _cmd_pk_sensitivity(cfg: dict, args) -> list:
    _check_keys(
        cfg,
        {"pk", "kernel", "x", "functional", "tau", "grid", "M", "method", "h", "seed"},
        "config",
    )
    pk = _pk_from(_get(cfg, "pk", "config", kind=dict))
    kernel = _kernel_from(_get(cfg, "kernel", "config", kind=dict))
    x = _get(cfg, "x", "config")
    if x <= 0:
        raise ConfigError("config.x: must be positive")
    name = _get(cfg, "functional", "config", kind=str)
    if name not in _FUNCTIONALS:
        raise ConfigError(f"config.functional: expected one of {sorted(_FUNCTIONALS)}")
    func, fdot = _FUNCTIONALS[name]
    tau_cfg = _get(cfg, "tau", "config", kind=dict)
    _check_keys(tau_cfg, {"kind", "time"}, "tau")
    tau_kind = _get(tau_cfg, "kind", "tau", kind=str)
    if tau_kind not in ("fixed", "hit_capped"):
        raise ConfigError("tau.kind: expected 'fixed' or 'hit_capped'")
    tau_time = _get(tau_cfg, "time", "tau", required=(tau_kind == "fixed"))
    n, horizon = _grid_from(_get(cfg, "grid", "config", kind=dict))
    m_count = _count(cfg, "M", "config")
    method = _get(cfg, "method", "config", kind=str, required=False, default="pathwise")
    if method not in ("pathwise", "fd"):
        raise ConfigError("config.method: expected 'pathwise' or 'fd'")
    seed = _seed_from(cfg, args)
    with _config_errors("tau.time"):  # M, tau.kind and the grid are checked above
        spec = SensitivitySpec(
            F=func,
            Fdot=fdot,
            tau_kind=tau_kind,
            M=m_count,
            n=n,
            horizon=horizon,
            tau_time=tau_time,
            seed=seed,
        )
    if method == "pathwise":
        report = sensitivity_plsin(pk, x, spec, kernel)
    else:
        h = _get(cfg, "h", "config", required=False, default=min(1e-3, 0.5 * x))
        if not 0.0 < h < x:
            raise ConfigError("config.h: must satisfy 0 < h < x")
        report = sensitivity_fd(pk, x, spec, kernel, h)
    payload = {
        "estimate": report.estimate,
        "std_error": report.std_error,
        "M": report.M,
        "tau": {"kind": tau_kind, "time": tau_time},
        "capped_fraction": report.capped_fraction,
        "method": method,
    }
    out = os.path.join(args.out, "pk_sensitivity.json")
    _write_json(out, payload)
    return [out]


_COMMANDS = {
    "simulate": _cmd_simulate,
    "converge": _cmd_converge,
    "ensemble": _cmd_ensemble,
    "hit-times": _cmd_hit_times,
    "survival": _cmd_survival,
    "pk-simulate": _cmd_pk_simulate,
    "pk-fit": _cmd_pk_fit,
    "pk-sensitivity": _cmd_pk_sensitivity,
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gmr",
        description="Mean-reverting SDEs with rough Gaussian drivers: "
        "simulation, convergence studies and pharmacokinetic estimation.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        cmd = sub.add_parser(name)
        cmd.add_argument("--config", required=True, help="JSON config file")
        cmd.add_argument("--seed", type=int, default=None, help="overrides the config seed")
        cmd.add_argument("--out", default=".", help="output directory")
    return parser


def _load_config(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            cfg = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"config: cannot read {path!r} ({exc})") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config: invalid JSON ({exc})") from exc
    if not isinstance(cfg, dict):
        raise ConfigError("config: expected a single top-level JSON object")
    return cfg


def run(argv) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:
        return 1 if exc.code not in (0, None) else 0
    try:
        cfg = _load_config(args.config)
        os.makedirs(args.out, exist_ok=True)
        for path in _COMMANDS[args.command](cfg, args):
            print(path)
        return 0
    except (ConfigError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (CovarianceError, RootSolveError, AdmissibilityError, np.linalg.LinAlgError,
            OverflowError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
