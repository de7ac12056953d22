"""bbem benchmark: three closed-loop solver workloads, measured from outside.

Usage (from the root of a checkout):

  python3 perfbench/run.py --workload <name|all> --seed <n> --seconds <s> \
      --trace <0|1>

Every pass runs in a fresh worker process (perfbench/worker.py) with its
thread counts pinned: BBEM_THREADS to the caller's BBEM_THREADS, which must be
a whole number from 1 to nproc, or to nproc when unset; the BLAS to one
thread.  One BLAS thread keeps the library's own pool the only parallelism,
and keeps outputs comparable byte for byte with the single-threaded pass:
OpenBLAS rounds its LU differently with another thread count.

With --trace 0 the run reports the end-to-end metrics; with --trace 1 a
traced pass reports the per-layer metrics.  The last line of stdout is one
JSON object with the keys correct, attempted, failed and metrics.  The exit
code is 0 when every op passed its gates, 1 when one failed, and 2 for bad
arguments or a checkout without the library.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")
sys.path.insert(0, HERE)

from tracer import METRIC_UNITS  # noqa: E402

WORKLOAD_NAMES = ("sphere-dirichlet-sweep", "cube-mixed-rhs", "cube-picard")

# Set-up is measured in this many fresh processes per run; the median is
# reported.
SETUP_SAMPLES = 3

# A run must end within 180 s; workers share what is left of this budget.
RUN_BUDGET_S = 170.0

END_TO_END_UNITS = {
    "setup_s": "s",
    "op_mean_s": "s",
    "op_p90_ms": "ms",
    "rel_error": "ratio",
    "peak_rss_mb": "MB",
}

PER_LAYER_UNITS = dict(METRIC_UNITS, **{
    "potentials.thread_speedup": "x",
    "trace.coverage": "ratio",
    "trace.overhead": "ratio",
    "trace.untraced_op_s": "s",
    "trace.traced_op_s": "s",
})


class BenchError(Exception):
    """The benchmark itself could not run (not a failed op)."""


def _nproc():
    return len(os.sched_getaffinity(0))


def pinned_threads():
    """Thread count for BBEM_THREADS and BLAS.  The library silently reads an
    unparsable BBEM_THREADS as 1, so the benchmark rejects it instead."""
    nproc = _nproc()
    setting = os.environ.get("BBEM_THREADS")
    if setting is None:
        return nproc
    try:
        threads = int(setting)
    except ValueError:
        threads = 0
    if not 1 <= threads <= nproc:
        raise BenchError(f"BBEM_THREADS={setting!r} is not a whole number "
                         f"from 1 to nproc ({nproc})")
    return threads


BLAS_THREADS = 1


def _thread_env(threads):
    env = dict(os.environ, BBEM_THREADS=str(threads))
    for key in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[key] = str(BLAS_THREADS)
    return env


def spawn(workload, seed, seconds, mode, threads, deadline):
    """Run one worker pass to completion and return its result."""
    os.makedirs(OUT, exist_ok=True)
    out = os.path.join(OUT, f"{workload}-{seed}-{mode}.json")
    if os.path.exists(out):
        os.remove(out)
    command = [sys.executable, os.path.join(HERE, "worker.py"),
               "--root", ROOT, "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--mode", mode,
               "--spawned", repr(time.monotonic()), "--out", out]
    remaining = deadline - time.monotonic()
    if remaining <= 0.0:
        raise BenchError(f"no time left for the {mode} pass")
    try:
        # run() kills and reaps the worker when the timeout expires
        done = subprocess.run(command, env=_thread_env(threads),
                              stdout=sys.stderr, timeout=remaining)
    except subprocess.TimeoutExpired:
        raise BenchError(f"{mode} pass of {workload} overran the "
                         f"{RUN_BUDGET_S:.0f} s budget")
    if done.returncode != 0:
        raise BenchError(f"{mode} pass of {workload} exited with "
                         f"{done.returncode}")
    with open(out, encoding="utf-8") as handle:
        return json.load(handle)


# ------------------------------------------------------------------ metrics

def _quantile(values, q):
    """Linear-interpolation quantile, statistics.quantiles' 'inclusive'
    method, which also takes a single sample."""
    ordered = sorted(values)
    pos = q * (len(ordered) - 1)
    low = math.floor(pos)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (pos - low) * (ordered[high] - ordered[low])


def end_to_end(main, setups):
    ok = [op for op in main["ops"] if op]
    seconds = [op["seconds"] for op in ok]
    return {
        "setup_s": statistics.median(setups),
        "op_mean_s": statistics.fmean(seconds),
        "op_p90_ms": 1e3 * _quantile(seconds, 0.9),
        "rel_error": statistics.median(op["error"] for op in ok),
        "peak_rss_mb": main["peak_rss_mb"],
    }


def per_layer(traced, single):
    metrics = dict(traced["layers"])
    metrics["potentials.thread_speedup"] = (
        single["assembly_s"] / traced["assembly_s"]
        if traced["assembly_s"] > 0.0 else 0.0)
    untraced = sum(op["seconds"] for op in traced["untraced_ops"] if op)
    traced_s = sum(op["seconds"] for op in traced["ops"] if op)
    n_ops = max(1, sum(1 for op in traced["ops"] if op))
    metrics["trace.coverage"] = traced["coverage"]
    metrics["trace.overhead"] = traced_s / untraced - 1.0 if untraced else 0.0
    metrics["trace.untraced_op_s"] = untraced / n_ops
    metrics["trace.traced_op_s"] = traced_s / n_ops
    return metrics


def fingerprint_mismatches(*passes):
    """Op indices whose output digests differ between passes, compared over
    the ops that every pass completed."""
    return [i for i, digests in enumerate(zip(*passes))
            if None not in digests and len(set(digests)) > 1]


def _fingerprints(ops):
    return [op["fingerprint"] if op else None for op in ops]


def _cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def _git_sha():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "unknown"
    try:
        done = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                              capture_output=True, text=True)
    except OSError:
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def run_workload(name, seed, seconds, trace, threads, deadline):
    """Run one workload; returns (record, metrics, units)."""
    env = {"bbem_threads": threads, "blas_threads": BLAS_THREADS,
           "nproc": _nproc(), "cpu": _cpu_model(), "git_sha": _git_sha(),
           "seed": seed}
    if not trace:
        main = spawn(name, seed, seconds, "measure", threads, deadline)
        setups = [main["setup_s"]] + [
            spawn(name, seed, seconds, "setup", threads, deadline)["setup_s"]
            for _ in range(SETUP_SAMPLES - 1)]
        failures = main["failures"]
        attempted = len(main["ops"])
        fingerprints = _fingerprints(main["ops"])
        metrics = end_to_end(main, setups) if len(failures) < attempted else {}
        units = END_TO_END_UNITS
        record = {"setup_samples_s": setups, "ops": main["ops"]}
        env.update(main["env"], **main["sizes"])
    else:
        traced = spawn(name, seed, seconds, "trace", threads, deadline)
        single = spawn(name, seed, seconds, "single", 1, deadline)
        failures = traced["failures"] + single["failures"]
        attempted = (len(traced["untraced_ops"]) + len(traced["ops"])
                     + len(single["ops"]))
        fingerprints = _fingerprints(traced["ops"])
        for i in fingerprint_mismatches(_fingerprints(traced["untraced_ops"]),
                                        fingerprints,
                                        _fingerprints(single["ops"])):
            failures.append(f"op {i}: outputs differ between the untraced, "
                            f"traced and single-thread passes")
        metrics = per_layer(traced, single)
        units = PER_LAYER_UNITS
        record = {"traced": traced, "single": single}
        env.update(traced["env"], **traced["sizes"])
    env["ops"] = sum(1 for f in fingerprints if f)
    record.update(workload=name, trace=trace, env=env, failures=failures,
                  attempted=attempted, metrics=metrics,
                  fingerprint=_combined(fingerprints))
    os.makedirs(OUT, exist_ok=True)
    path = os.path.join(OUT, f"result-{name}-{seed}-trace{int(trace)}.json")
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(record, handle, indent=1)
    return record, metrics, units


def _combined(fingerprints):
    sha = hashlib.sha256()
    for f in fingerprints:
        sha.update((f or "failed").encode("ascii"))
    return sha.hexdigest()


def _report(record, metrics, units):
    env = record["env"]
    print(f"== {record['workload']} (seed {env['seed']}, "
          f"{'traced' if record['trace'] else 'untraced'})")
    print("   env: " + ", ".join(f"{k}={v}" for k, v in sorted(env.items())))
    print(f"   output sha256: {record['fingerprint']}")
    for failure in record["failures"]:
        print(f"   FAILED {failure}")
    rate = len(record["failures"]) / record["attempted"]
    print(f"   error_rate {rate:.4g} ({len(record['failures'])} of "
          f"{record['attempted']} ops)")
    for key in units:
        if key in metrics:
            print(f"   {key} {metrics[key]:.6g} {units[key]}")


def main(argv=None):
    parser = argparse.ArgumentParser(
        description="bbem benchmark: closed-loop solver workloads")
    parser.add_argument("--workload", default="all",
                        choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # SystemExit unwinds subprocess.run, which kills and reaps the worker
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not os.path.isfile(os.path.join(ROOT, "src", "bbem", "__init__.py")):
        print(f"error: no bbem library under {ROOT}/src", file=sys.stderr)
        return 2
    try:
        threads = pinned_threads()
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    names = WORKLOAD_NAMES if args.workload == "all" else (args.workload,)
    deadline = time.monotonic() + RUN_BUDGET_S * len(names)
    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in names:
        try:
            record, metrics, units = run_workload(
                name, args.seed, args.seconds, bool(args.trace), threads,
                deadline)
        except BenchError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        _report(record, metrics, units)
        summary["attempted"] += record["attempted"]
        summary["failed"] += len(record["failures"])
        prefix = "" if len(names) == 1 else f"{name}."
        summary["metrics"].update(
            {prefix + k: {"value": v, "unit": units[k]}
             for k, v in metrics.items()})
    summary["correct"] = summary["failed"] == 0
    print(json.dumps(summary))
    return 0 if summary["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
