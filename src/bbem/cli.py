"""Command-line interface.

Four subcommands: ``solve`` executes a JSON-configured run and writes its
artifacts, ``verify`` runs one named invariant suite, ``converge`` prints a
manufactured refinement table as CSV, and ``kernels`` evaluates the
fundamental pair at a point.  Exit codes: 0 on success, 1 when a check or
solve fails numerically, 2 for configuration and usage errors.
"""

from __future__ import annotations

import argparse
import os
import sys

import numpy as np

from .errors import (BBEMError, InvalidLabeling, InvalidSource,
                     InvalidThreadCount, UnsupportedParameter)
from .harness import (
    SUITE_NAMES,
    ConfigError,
    convergence_study,
    run_config,
    verify_suite,
    _cfg_str,
    _load_config,
)
from .kernels import brinkman_velocity_tensor, pressure_vector


def _point3(text):
    parts = text.split(",")
    if len(parts) != 3:
        raise argparse.ArgumentTypeError(
            f"expected three comma-separated numbers, got {text!r}")
    try:
        values = [float(part) for part in parts]
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected three comma-separated numbers, got {text!r}")
    if not all(np.isfinite(values)):
        raise argparse.ArgumentTypeError("evaluation point must be finite")
    return values


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="bbem",
        description="Dense boundary-element solvers for damped viscous "
                    "flow")
    commands = parser.add_subparsers(dest="command", required=True)

    solve = commands.add_parser(
        "solve", help="run one configured problem and write its artifacts")
    solve.add_argument("--config", required=True,
                       help="path to a JSON run configuration")
    solve.add_argument("--out", default=None,
                       help="output directory (overrides the config)")

    verify = commands.add_parser(
        "verify", help="run one named verification suite")
    verify.add_argument("--suite", required=True, choices=SUITE_NAMES)

    converge = commands.add_parser(
        "converge", help="run a refinement study and print its CSV table")
    converge.add_argument("--config", required=True,
                          help="path to a JSON study configuration")

    kernels = commands.add_parser(
        "kernels", help="evaluate the fundamental pair at one point")
    kernels.add_argument("--eval", required=True, type=_point3,
                         metavar="X,Y,Z", dest="point",
                         help="evaluation point as three comma-separated "
                              "numbers")
    kernels.add_argument("--alpha", required=True, type=float,
                         help="damping coefficient")
    return parser


def _cmd_solve(args):
    destination = run_config(args.config, out_dir=args.out)
    print(f"wrote report.json and fields.csv to {destination}")
    return 0


def _cmd_verify(args):
    report = verify_suite(args.suite)
    print(f"suite {report.suite}  seed {report.seed}")
    for line in report.lines():
        print(line)
    passed = sum(check.passed for check in report.checks)
    print(f"passed {passed}/{len(report.checks)} checks in "
          f"{report.wall_time_s:.2f} s")
    return 0 if report.passed else 1


def _cmd_converge(args):
    cfg = _load_config(args.config)
    output = _cfg_str(cfg, "", "output", default=None)
    table = convergence_study(cfg)
    sys.stdout.write(table.to_csv())
    if output is not None:
        os.makedirs(output, exist_ok=True)
        path = os.path.join(output, "convergence.csv")
        table.write_csv(path)
        print(f"wrote {path}")
    return 0


def _cmd_kernels(args):
    point = np.asarray(args.point)
    if not np.linalg.norm(point) > 0.0:
        raise ConfigError("evaluation point must be nonzero; the "
                          "fundamental pair is singular at the origin")
    if not np.isfinite(args.alpha):
        raise ConfigError("'alpha': must be finite")
    if args.alpha < 0.0:
        raise ConfigError("'alpha': must be >= 0")
    tensor = brinkman_velocity_tensor(point, args.alpha)
    pressure = pressure_vector(point)
    print("velocity tensor (rows j, columns k):")
    for row in tensor:
        print("  " + " ".join(repr(float(v)) for v in row))
    print("pressure vector:")
    print("  " + " ".join(repr(float(v)) for v in pressure))
    return 0


_COMMANDS = {
    "solve": _cmd_solve,
    "verify": _cmd_verify,
    "converge": _cmd_converge,
    "kernels": _cmd_kernels,
}


def main(argv=None):
    args = _build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except (ConfigError, InvalidSource, InvalidLabeling, InvalidThreadCount,
            UnsupportedParameter, OSError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except BBEMError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
