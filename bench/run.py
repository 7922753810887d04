"""Benchmark of the gmr pipeline, one workload per invocation.

    python3 bench/run.py --workload ensemble --seed 1 --seconds 22 --trace 0

Run from the root of a checkout; gmr is imported from its src/ directory.
The command starts one process that imports gmr, builds the workload's
inputs and runs the load: whole rounds of the workload's operations until
the next round would end after --seconds. SETUP_AROUND processes before it
and as many after it only import gmr and build the inputs, and setup_s is
the median over all of them. A run that has not ended after
SETUP_LIMIT_S per process plus LOAD_FACTOR times --seconds is stopped and
fails. The last line of standard output is one JSON
object with the keys correct, attempted, failed and metrics. With
--trace 0 the metrics are the end-to-end ones; with --trace 1 every round
runs twice, untraced and then traced, and the metrics are the per-layer
ones plus the tracing overhead, with the spans written to
bench/out/<workload>-seed<seed>.trace.jsonl.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from contextlib import nullcontext

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
WORKLOADS = ("ensemble", "fine_path", "pk_fit", "sensitivity")
SETUP_AROUND = 2  # set-up-only processes on each side of the load
SETUP_LIMIT_S = 15.0  # import and inputs take 1-2 s per process
LOAD_FACTOR = 3.0  # rounds may overrun --seconds, by less than twice it


def _parser():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    parser.add_argument("--role", choices=("setup", "load"), help=argparse.SUPPRESS)
    return parser


# ----------------------------------------------------------------- children

def _blas_info() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "threads": int(os.environ["OPENBLAS_NUM_THREADS"]),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
    }


def _timed(op, tracer):
    """Run one operation; returns (seconds, output, exception)."""
    span = tracer.span("bench", op.label) if tracer else nullcontext()
    start = time.perf_counter()
    try:
        with span:
            out = op.call()
    except Exception as exc:  # a failed operation is counted, not fatal
        return time.perf_counter() - start, None, exc
    return time.perf_counter() - start, out, None


def _load(wl, seconds: float, trace: bool) -> dict:
    import numpy as np

    import tracing
    from workloads import Unusable

    tracer = tracing.Tracer() if trace else None
    passes = (None, tracer) if trace else (None,)
    ok_times, all_times, pairs, problems = [], [], [], []
    attempted = failed = rounds = 0
    start = time.perf_counter()
    # the checks look at the values; numpy's floating-point warnings add nothing
    with np.errstate(all="ignore"):
        while True:
            round_start = time.perf_counter()
            summaries = []
            for op in wl.round_ops(rounds):
                durations = []
                for pass_tracer in passes:
                    with pass_tracer.installed() if pass_tracer else nullcontext():
                        seconds_op, out, error = _timed(op, pass_tracer)
                    attempted += 1
                    durations.append(seconds_op)
                    all_times.append(seconds_op)
                    found = None
                    try:
                        if error is not None:
                            raise Unusable(f"raised {type(error).__name__}: {error}")
                        found = op.check(out)
                        summaries.append(wl.summarize(out))
                    except Unusable as exc:
                        failed += 1
                        if not op.fault:
                            problems.append(f"{op.label}: failed: {exc}")
                    # let go of the output before the next operation runs, so
                    # that the peak memory is one operation's own
                    out = error = None
                    if found is None:
                        continue
                    ok_times.append(seconds_op)
                    problems += [f"{op.label}: {p}" for p in found]
                pairs.append(durations)
            problems += wl.check_round(summaries)
            rounds += 1
            now = time.perf_counter()
            if now - start + (now - round_start) > seconds:
                break
    result = {
        "attempted": attempted,
        "failed": failed,
        "problems": problems,
        "rounds": rounds,
        "ok_times": ok_times,
        "all_times": all_times,
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "notes": wl.notes(),
    }
    if trace:
        overhead = statistics.fmean(traced - plain for plain, traced in pairs)
        result["layers"] = tracing.layer_metrics(tracer.spans, len(pairs), overhead)
        result["spans"] = tracer
    return result


def _child(args) -> int:
    start = time.perf_counter()
    sys.path.insert(0, SRC)
    import gmr

    if os.path.dirname(os.path.realpath(gmr.__file__)) != os.path.join(os.path.realpath(SRC), "gmr"):
        raise SystemExit(f"bench: gmr was imported from {gmr.__file__}, not from {SRC}")
    import workloads

    wl = workloads.WORKLOADS[args.workload](args.seed)
    report = {"setup_s": time.perf_counter() - start}
    if args.role == "load":
        report.update(_load(wl, args.seconds, bool(args.trace)))
        report["info"] = _blas_info()
        tracer = report.pop("spans", None)
        if tracer is not None:
            os.makedirs(OUT, exist_ok=True)
            path = os.path.join(OUT, f"{args.workload}-seed{args.seed}.trace.jsonl")
            tracer.write(path, {"workload": args.workload, "seed": args.seed, **report["info"]})
            report["info"]["trace_file"] = os.path.relpath(path, ROOT)
    print(json.dumps(report))
    return 0


# ------------------------------------------------------------------- parent

def _run_child(args, role: str, env: dict, deadline: float) -> dict:
    cmd = [sys.executable, os.path.abspath(__file__), "--role", role,
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    done = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True,
                          timeout=max(1.0, deadline - time.monotonic()), check=True)
    return json.loads(done.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    if args.role:
        return _child(args)
    if not os.path.isfile(os.path.join(SRC, "gmr", "__init__.py")):
        print(f"bench: no gmr package under {SRC}", file=sys.stderr)
        return 2
    limit_s = (2 * SETUP_AROUND + 1) * SETUP_LIMIT_S + LOAD_FACTOR * args.seconds
    deadline = time.monotonic() + limit_s
    threads = str(len(os.sched_getaffinity(0)))
    env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads,
               MKL_NUM_THREADS=threads)
    try:
        setups = [_run_child(args, "setup", env, deadline)["setup_s"] for _ in range(SETUP_AROUND)]
        load = _run_child(args, "load", env, deadline)
        setups += [load["setup_s"]]
        setups += [_run_child(args, "setup", env, deadline)["setup_s"] for _ in range(SETUP_AROUND)]
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired) as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1
    ok = load["ok_times"] or load["all_times"]
    info = dict(load["info"], workload=args.workload, seed=args.seed, rounds=load["rounds"],
                setup_samples_s=setups, notes=load["notes"], problems=load["problems"][:20])
    if args.trace:
        metrics = load["layers"]
        info["trace_overhead_s"] = metrics["trace.overhead_s"]["value"]
    else:
        metrics = {
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "ops_per_s": {"value": len(load["ok_times"]) / sum(load["all_times"]), "unit": "1/s"},
            "op_p50_s": {"value": statistics.median(ok), "unit": "s"},
            "peak_rss_mib": {"value": load["peak_rss_mib"], "unit": "MiB"},
        }
    print(json.dumps({"info": info}))
    print(json.dumps({
        "correct": bool(load["ok_times"]) and not load["problems"],
        "attempted": load["attempted"],
        "failed": load["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
