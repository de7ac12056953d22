"""One pass of one workload in a fresh interpreter.

run.py starts this script with BBEM_THREADS and the BLAS thread count pinned
in the environment, so the settings take effect before numpy loads.  Modes:

  setup    build the workload and stop; reports the set-up time
  measure  set up, then run ops until --seconds have passed (untraced)
  trace    set up traced, run trace_ops ops untraced, then the same ops
           traced; writes the spans and reports per-layer numbers
  single   set up traced and run the same ops traced; run.py starts it with
           one thread everywhere, as the single-threaded baseline

The result goes to --out as one JSON object; stdout carries nothing else.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import sys
import time


def _import_library(root):
    src = os.path.join(root, "src")
    sys.path.insert(0, src)
    import bbem

    location = os.path.realpath(os.path.dirname(bbem.__file__))
    if not location.startswith(os.path.realpath(src) + os.sep):
        raise SystemExit(f"bbem was imported from {location}, not from the "
                         f"checkout's src/")
    return bbem


def _library_env():
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}"}


def _run_ops(workload, indices, tracer, failures):
    """Run the given ops in order; returns their Op records (None when the
    op failed).  A BBEMError or a missed gate is recorded, not raised."""
    from bbem.errors import BBEMError
    from workloads import GateFailure

    ops = []
    for i in indices:
        try:
            ops.append(workload.op(i, tracer))
        except (BBEMError, GateFailure) as exc:
            failures.append(f"op {i}: {type(exc).__name__}: {exc}")
            ops.append(None)
    return ops


def _op_records(ops):
    return [None if op is None else
            {"seconds": op.seconds, "error": op.error,
             "fingerprint": op.fingerprint} for op in ops]


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--root", required=True)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--mode", required=True,
                        choices=("setup", "measure", "trace", "single"))
    parser.add_argument("--spawned", type=float, required=True,
                        help="time.monotonic() when run.py started us")
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)

    _import_library(args.root)
    from tracer import Tracer, assembly_seconds, layer_metrics, op_coverage
    from workloads import WORKLOADS

    workdir = os.path.join(os.path.dirname(args.out),
                           f"{args.workload}-{args.seed}-{args.mode}")
    workload = WORKLOADS[args.workload](args.seed, workdir)
    result = {"mode": args.mode, "env": _library_env()}
    failures = []

    tracer = None
    if args.mode in ("trace", "single"):
        tracer = Tracer(f"{args.workload}/{args.seed}/{args.mode}")
        tracer.install()
    result["sizes"] = workload.setup()
    result["setup_s"] = time.monotonic() - args.spawned

    if args.mode == "measure":
        ops, start, i = [], time.perf_counter(), 0
        while True:
            ops += _run_ops(workload, [i], None, failures)
            i += 1
            if (i >= workload.min_ops and i % workload.unit == 0
                    and time.perf_counter() - start >= args.seconds):
                break
        result["ops"] = _op_records(ops)
    elif args.mode == "trace":
        indices = range(workload.trace_ops)
        tracer.uninstall()
        result["untraced_ops"] = _op_records(
            _run_ops(workload, indices, None, failures))
        tracer.install()
        traced = _run_ops(workload, indices, tracer, failures)
        tracer.uninstall()
        result["ops"] = _op_records(traced)
    elif args.mode == "single":
        traced = _run_ops(workload, range(workload.trace_ops), tracer,
                          failures)
        tracer.uninstall()
        result["ops"] = _op_records(traced)

    if tracer is not None:
        spans = tracer.spans
        op_wall = sum(op["seconds"] for op in result["ops"] if op)
        result["layers"] = layer_metrics(spans)
        result["coverage"] = op_coverage(spans, op_wall)
        result["assembly_s"] = assembly_seconds(spans)
        result["spans"] = len(spans)
        tracer.write(os.path.join(
            os.path.dirname(args.out),
            f"{args.workload}-{args.seed}-{args.mode}.spans.jsonl"))

    result["failures"] = failures
    result["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                             / 1024.0)
    with open(args.out, "w", encoding="utf-8") as out:
        json.dump(result, out)


if __name__ == "__main__":
    main()
