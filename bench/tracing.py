"""In-memory span tracer for the benchmark's traced runs.

While installed, the tracer replaces the functions listed in WRAPPED, in
every gmr module namespace that refers to them, by wrappers that record a
span (layer, name, start, end, parent span) and a few counts. Calls from
one gmr module into another resolve their globals at call time, so they go
through the wrappers too. Spans stay in memory until the run writes them
out, and the per-layer metrics are derived from them with self time (a
span's duration minus that of its child spans).
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import json
import math
import time
from collections import Counter, defaultdict

import numpy as np

LAYERS = ("drivers", "transform", "solver", "montecarlo", "pk", "cli")


def _count_paths(bound, result):
    return {"paths": int(bound.arguments["count"])}


def _count_nodes(bound, result):
    y = np.asarray(result)
    bad = int(y.size - np.count_nonzero(np.isfinite(y) & (y > 0.0)))
    return {"root_solves": int(y.shape[0] * (y.shape[1] - 1)), "nonfinite_nodes": bad}


def _count_scheme(bound, result):
    return {"root_solves": int(result.n)}


def _count_loglik(bound, result):
    return {"errors": int(result == -math.inf)}


# layer -> {function: count hook or None}; the functions each per-layer
# metric needs, and nothing else, so the traced run stays close to the
# untraced one (no wrapper sits on a per-path or per-step call)
WRAPPED = {
    "drivers": {
        "covariance_matrix": None,
        "_cholesky_with_jitter": None,
        "sample_paths": _count_paths,
        "sample_path_matrix": _count_paths,
    },
    "transform": {
        "tilde_w_path": None,
        "tilde_w_matrix": None,
        "tilde_w_covariance_matrix": None,
    },
    "solver": {
        "implicit_euler": _count_scheme,
        "implicit_euler_nodes": _count_nodes,
    },
    "montecarlo": {"ensemble_simulate": None},
    "pk": {
        "fit_mle": None,
        "log_likelihood": _count_loglik,
        "sensitivity_plsin": None,
        "sensitivity_fd": None,
    },
}

# per-layer metrics: name -> unit
METRICS = {
    "drivers.covariance_s": "s",
    "drivers.factor_s": "s",
    "drivers.sample_s": "s",
    "drivers.paths": "count",
    "drivers.path_us": "us",
    "transform.tilde_w_s": "s",
    "transform.cov_s": "s",
    "transform.cov_calls": "count",
    "solver.nodes_s": "s",
    "solver.root_solves": "count",
    "solver.nonfinite_nodes": "count",
    "solver.scheme_s": "s",
    "montecarlo.ensemble_self_s": "s",
    "pk.fit_s": "s",
    "pk.loglik_calls": "count",
    "pk.loglik_s": "s",
    "pk.loglik_errors": "count",
    "pk.sensitivity_self_s": "s",
    "trace.overhead_s": "s",
}


class Tracer:
    """Span recorder; installed() patches gmr for the duration of a block."""

    def __init__(self):
        self.spans = []
        self._stack = []
        self._patches = []

    @contextlib.contextmanager
    def span(self, layer: str, name: str):
        """Record a span around a block (the benchmark's own root spans)."""
        record = self._open(layer, name)
        try:
            yield record
        except Exception as exc:
            record["error"] = type(exc).__name__
            raise
        finally:
            self._close(record)

    def _open(self, layer, name):
        record = {
            "id": len(self.spans),
            "parent": self._stack[-1] if self._stack else None,
            "layer": layer,
            "name": name,
            "start": time.perf_counter(),
        }
        self.spans.append(record)
        self._stack.append(record["id"])
        return record

    def _close(self, record):
        record["end"] = time.perf_counter()
        self._stack.pop()

    def _wrap(self, layer, name, fn, hook):
        signature = inspect.signature(fn)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with self.span(layer, name) as record:
                result = fn(*args, **kwargs)
            if hook is not None:
                record["counts"] = hook(signature.bind(*args, **kwargs), result)
            return result

        return wrapper

    @contextlib.contextmanager
    def installed(self):
        """Patch the wrapped functions into every gmr module while active."""
        modules = [importlib.import_module("gmr")] + [
            importlib.import_module(f"gmr.{layer}") for layer in LAYERS
        ]
        for layer, functions in WRAPPED.items():
            home = importlib.import_module(f"gmr.{layer}")
            for name, hook in functions.items():
                original = getattr(home, name)
                wrapper = self._wrap(layer, name, original, hook)
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            self._patches.append((module, attr, original))
                            setattr(module, attr, wrapper)
        try:
            yield self
        finally:
            while self._patches:
                module, attr, original = self._patches.pop()
                setattr(module, attr, original)

    def write(self, path: str, header: dict) -> None:
        """Write a header line, then one JSON line per span."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(header, sort_keys=True) + "\n")
            for record in self.spans:
                fh.write(json.dumps(record, sort_keys=True) + "\n")


def layer_metrics(spans: list, n_ops: int, overhead_s: float) -> dict:
    """Per-layer metrics from recorded spans, per traced operation.

    Times are seconds per operation (self time where the name says so),
    counts are per operation, and drivers.path_us is microseconds of
    sampling self time per driver path.
    """
    child = defaultdict(float)
    for s in spans:
        if s["parent"] is not None:
            child[s["parent"]] += s["end"] - s["start"]
    total, own, calls, counts, errors = (defaultdict(float), defaultdict(float),
                                         Counter(), Counter(), Counter())
    for s in spans:
        key = f"{s['layer']}.{s['name']}"
        duration = s["end"] - s["start"]
        total[key] += duration
        own[key] += duration - child[s["id"]]
        calls[key] += 1
        errors[key] += "error" in s
        for what, value in s.get("counts", {}).items():
            counts[what] += value
    sample_self = own["drivers.sample_paths"] + own["drivers.sample_path_matrix"]
    values = {
        "drivers.covariance_s": total["drivers.covariance_matrix"],
        "drivers.factor_s": total["drivers._cholesky_with_jitter"],
        "drivers.sample_s": sample_self,
        "drivers.paths": counts["paths"],
        "transform.tilde_w_s": total["transform.tilde_w_matrix"] + total["transform.tilde_w_path"],
        "transform.cov_s": total["transform.tilde_w_covariance_matrix"],
        "transform.cov_calls": calls["transform.tilde_w_covariance_matrix"],
        "solver.nodes_s": total["solver.implicit_euler_nodes"],
        "solver.root_solves": counts["root_solves"],
        "solver.nonfinite_nodes": counts["nonfinite_nodes"],
        "solver.scheme_s": total["solver.implicit_euler"],
        "montecarlo.ensemble_self_s": own["montecarlo.ensemble_simulate"],
        "pk.fit_s": total["pk.fit_mle"],
        "pk.loglik_calls": calls["pk.log_likelihood"],
        "pk.loglik_s": own["pk.log_likelihood"],
        "pk.loglik_errors": counts["errors"] + errors["pk.log_likelihood"],
        "pk.sensitivity_self_s": own["pk.sensitivity_plsin"] + own["pk.sensitivity_fd"],
    }
    out = {name: value / n_ops for name, value in values.items()}
    out["drivers.path_us"] = 1e6 * sample_self / counts["paths"] if counts["paths"] else 0.0
    out["trace.overhead_s"] = overhead_s
    return {name: {"value": out[name], "unit": unit} for name, unit in METRICS.items()}
