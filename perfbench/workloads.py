"""The three closed-loop workloads.

Each workload builds its fixed problem in setup() and then answers op(i),
one solve issued only after the previous one returned.  Op i draws its data
from numpy.random.default_rng([seed, i]) only, so every pass and every thread
setting sees the same inputs for the same i.  op(i) times the library calls
alone; data generation and the accuracy check happen outside that interval,
in the regions the tracer labels "data:<i>" and "check:<i>".

Timing of this dense solver depends on the mesh and grid, not on the data
values (apart from the Picard iteration count); the seed varies the data so
that every run solves different problems and checks a fresh answer.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import os
import time
from dataclasses import dataclass

import numpy as np

# Library functions are called as bbem.<name> so that the tracer's wrappers,
# patched into the bbem namespace, are the ones that run.
import bbem
from bbem import (
    MIXED,
    BrinkmanParams,
    BVPSpec,
    PicardConfig,
    SolverWorkspace,
    VolumeField,
)
from bbem.harness import CUBE_SOURCE_POINT, SPHERE_SOURCE_POINT

# Correctness gates, taken from the verify suites (solvers, mixed,
# semilinear): a missed gate fails the op but not the run.
INTERIOR_L2_GATE = 5.0e-2
FD_RESIDUAL_GATE = 1.0e-1

TOP_FACE_NEUMANN = {"type": "cube_faces", "neumann_faces": ["+z"]}
FORCING_TILE = np.array([0.05, -0.02, 0.03])


class GateFailure(Exception):
    """An op returned an answer outside its correctness gate."""


def _ball(rng):
    """Uniform point in the unit ball."""
    direction = rng.normal(size=3)
    direction /= np.linalg.norm(direction)
    return direction * rng.uniform() ** (1.0 / 3.0)


def _digest(*arrays):
    sha = hashlib.sha256()
    for array in arrays:
        sha.update(np.ascontiguousarray(array, dtype=float).tobytes())
    return sha.hexdigest()


def _relative_error(value, exact):
    return float(np.linalg.norm(value - exact) / np.linalg.norm(exact))


@dataclass(frozen=True)
class Op:
    """Outcome of one op: library seconds, accuracy figure, output digest."""

    seconds: float
    error: float
    fingerprint: str


class SphereDirichletSweep:
    """Cold configured Dirichlet solves, alpha cycling through 0, 1, 4."""

    name = "sphere-dirichlet-sweep"
    alphas = (0.0, 1.0, 4.0)
    unit = 3            # ops in one sweep; a run always ends on a whole sweep
    min_ops = 6
    trace_ops = 3
    # The pole sits within this distance of the verify suites' sphere pole,
    # so the accuracy figure stays comparable with theirs across seeds.
    pole_jitter = 0.15

    def __init__(self, seed, workdir):
        self.seed = seed
        self.workdir = workdir

    def setup(self):
        self.mesh = bbem.build_icosphere(2)
        os.makedirs(self.workdir, exist_ok=True)
        return {"panels": self.mesh.n_panels, "cells": 0}

    def op(self, i, tracer=None):
        _region(tracer, f"data:{i}")
        rng = np.random.default_rng([self.seed, i])
        pole = np.asarray(SPHERE_SOURCE_POINT) + self.pole_jitter * _ball(rng)
        alpha = self.alphas[i % len(self.alphas)]
        config = {
            "kind": "dirichlet",
            "geometry": {"type": "icosphere", "level": 2},
            "alpha": alpha,
            "data": {"source": "manufactured",
                     "source_point": [float(v) for v in pole], "column": 2},
        }
        path = os.path.join(self.workdir, "config.json")
        with open(path, "w", encoding="utf-8") as out:
            json.dump(config, out)
        out_dir = os.path.join(self.workdir, "run")
        _region(tracer, f"op:{i}")
        start = time.perf_counter()
        bbem.run_config(path, out_dir)
        seconds = time.perf_counter() - start
        _region(tracer, f"check:{i}")
        with open(os.path.join(out_dir, "fields.csv"), "rb") as handle:
            fields_bytes = handle.read()
        with open(os.path.join(out_dir, "report.json"), encoding="utf-8") as f:
            document = json.load(f)
        rows = list(csv.reader(fields_bytes.decode("utf-8").splitlines()))
        table = np.array([[float(v) for v in row] for row in rows[1:]])
        points, velocity = table[:, 0:3], table[:, 3:6]
        exact = bbem.manufactured_solution(
            pole, 2, BrinkmanParams(alpha=alpha)).velocity(points)
        error = _relative_error(velocity, exact)
        if not error <= INTERIOR_L2_GATE:
            raise GateFailure(f"interior_l2 {error:.3e} above "
                              f"{INTERIOR_L2_GATE:.0e}")
        # run_config exposes no density; the digest covers the probe fields
        # and the report without its wall time
        document["report"].pop("wall_time_s")
        sha = hashlib.sha256(fields_bytes)
        sha.update(json.dumps(document, sort_keys=True).encode("utf-8"))
        return Op(seconds, error, sha.hexdigest())


class CubeMixedRHS:
    """Many right-hand sides against one assembled, factorized mixed system."""

    name = "cube-mixed-rhs"
    unit = 1
    # the 90th percentile keeps at least ten samples beyond it
    min_ops = 100
    trace_ops = 30
    # Poles stay near the verify suites' cube pole, whose accuracy gate
    # applies: some random directions at the same distance miss it.
    pole_jitter = 0.15

    def __init__(self, seed, workdir):
        self.seed = seed
        self.params = BrinkmanParams(alpha=1.0)

    def setup(self):
        self.mesh = bbem.build_cube(2)
        self.labeling = bbem.label_patches(self.mesh, TOP_FACE_NEUMANN)
        self.workspace = SolverWorkspace(self.mesh, self.params)
        self.workspace.mixed_factorization(self.labeling)
        self.probes = bbem.interior_probes(self.mesh)
        return {"panels": self.mesh.n_panels, "cells": 0}

    def op(self, i, tracer=None):
        _region(tracer, f"data:{i}")
        rng = np.random.default_rng([self.seed, i])
        pole = np.asarray(CUBE_SOURCE_POINT) + self.pole_jitter * _ball(rng)
        exact = bbem.manufactured_solution(pole, 2, self.params, self.mesh)
        trace, traction = exact.trace(self.mesh), exact.traction(self.mesh)
        _region(tracer, f"op:{i}")
        start = time.perf_counter()
        spec = BVPSpec(kind=MIXED, params=self.params, mesh=self.mesh,
                       labeling=self.labeling, dirichlet_data=trace,
                       neumann_data=traction)
        handle, _ = bbem.solve_mixed(spec, self.workspace)
        fields = bbem.evaluate_solution(handle, self.probes)
        seconds = time.perf_counter() - start
        _region(tracer, f"check:{i}")
        error = _relative_error(fields.velocity, exact.velocity(self.probes))
        if not error <= INTERIOR_L2_GATE:
            raise GateFailure(f"interior_l2 {error:.3e} above "
                              f"{INTERIOR_L2_GATE:.0e}")
        return Op(seconds, error, _digest(handle.density.values,
                                          fields.velocity, fields.pressure))


class CubePicard:
    """Semilinear Picard solves with the constants estimated in the call."""

    name = "cube-picard"
    unit = 1
    min_ops = 1
    trace_ops = 1
    # pole and forcing stay near the semilinear battery's, so every seed is
    # in the small-data regime and the residual stays comparable with it
    pole_jitter = 0.15
    forcing_jitter = 0.02

    def __init__(self, seed, workdir):
        self.seed = seed
        self.params = BrinkmanParams(alpha=1.0, beta=1.0)

    def setup(self):
        self.mesh = bbem.build_cube(1)
        self.labeling = bbem.label_patches(self.mesh, TOP_FACE_NEUMANN)
        self.grid = bbem.build_volume_grid({"type": "cube", "side": 1.0},
                                           10)
        self.probes = bbem.interior_probes(self.mesh)
        return {"panels": self.mesh.n_panels, "cells": self.grid.n_cells}

    def op(self, i, tracer=None):
        _region(tracer, f"data:{i}")
        rng = np.random.default_rng([self.seed, i])
        pole = np.asarray(CUBE_SOURCE_POINT) + self.pole_jitter * _ball(rng)
        exact = bbem.manufactured_solution(pole, 2, self.params, self.mesh)
        h0, g0 = exact.trace(self.mesh), exact.traction(self.mesh)
        tile = FORCING_TILE + self.forcing_jitter * _ball(rng)
        forcing = VolumeField(self.grid, np.tile(tile, (self.grid.n_cells, 1)))
        data_norm = math.sqrt(h0.norm() ** 2 + g0.norm() ** 2
                              + forcing.norm() ** 2)
        _region(tracer, f"op:{i}")
        start = time.perf_counter()
        handle, report = bbem.picard_solve(
            self.mesh, self.labeling, self.grid, self.params, forcing, h0, g0,
            PicardConfig())
        seconds = time.perf_counter() - start
        _region(tracer, f"check:{i}")
        # the semilinear battery scales its data by min(1, zeta / (2 |data|));
        # these data need no scaling, which the estimate made in the call
        # must confirm
        zeta = report.constants.zeta_est
        if not data_norm <= 0.5 * zeta:
            raise GateFailure(f"data norm {data_norm:.3e} above half the "
                              f"estimated data radius {zeta:.3e}")
        residual = bbem.semilinear_residual(handle, self.grid, self.params,
                                            forcing)
        if not residual <= FD_RESIDUAL_GATE:
            raise GateFailure(f"fd_residual {residual:.3e} above "
                              f"{FD_RESIDUAL_GATE:.0e}")
        fields = bbem.evaluate_solution(handle, self.probes)
        return Op(seconds, residual, _digest(
            handle.density.values, report.iterates, fields.velocity,
            fields.pressure))


def _region(tracer, region):
    if tracer is not None:
        tracer.region = region


WORKLOADS = {w.name: w for w in (SphereDirichletSweep, CubeMixedRHS,
                                 CubePicard)}
