"""Verification harness: manufactured solutions, invariant batteries, and
configuration-driven runs behind the command-line interface.

The batteries measure what the library promises: kernel identities by finite
differences, trace and traction jumps of the layer potentials, the spectra
of the traction operators, the direct representation u = V t − W γu,
interior convergence of the manufactured solves, the Newtonian volume pair,
and the fixed-point contraction.  verify_suite packages them into named
suites with one CheckResult per bound; convergence_study produces refinement
tables and run_config executes one configured solve with artifacts on disk.

Every random draw in a battery derives from SUITE_SEED, recorded in each
report, so repeated runs produce identical numbers; wall time is the only
non-deterministic report field and is excluded from report fingerprints.
"""

from __future__ import annotations

import csv
import functools
import io
import json
import math
import operator
import os
import sys
import time
from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .errors import InvalidSource
from .geometry import (
    build_cube,
    build_icosphere,
    build_volume_grid,
    label_patches,
    panel_quadrature,
    winding_number,
)
from .kernels import (
    BrinkmanParams,
    brinkman_velocity_gradient,
    brinkman_velocity_tensor,
    pressure_vector,
    traction_kernel,
    _traction_cf,
)
from .potentials import (
    BoundaryField,
    VolumeField,
    eval_double_layer,
    eval_single_layer,
    _NearFar,
    _closest_points_on_panels,
    _newtonian_on_grid,
)
from .semilinear import (
    PicardConfig,
    estimate_constants,
    picard_solve,
    semilinear_residual,
    _lattice_depth,
    _lattice_residual,
    _smooth_field,
)
from .solvers import (
    DIRICHLET,
    MIXED,
    NEUMANN,
    BVPSpec,
    SolverWorkspace,
    evaluate_solution,
    greens_identity_residual,
    neumann_to_dirichlet,
    solve_neumann,
    _sigma_range,
    _solve,
    _traction_system,
    _workspace_for,
)

# Battery seed ((2³¹ + 1)/3, an arbitrary fixed odd constant): every random
# draw in a suite derives from it and every report records it, so repeated
# runs produce byte-identical numbers.
SUITE_SEED = 715_827_883

SUITE_NAMES = ("kernels", "jumps", "nullspaces", "green", "solvers",
               "mixed", "semilinear")

# Largest mesh the dense studies accept: a 3N × 3N double matrix at this
# budget is already 1.8 GB, past desk scale.  A lattice of C cells needs
# C·N <= PANEL_BUDGET², so its (C, 3, 3N) grid rows fit in that matrix.
PANEL_BUDGET = 5000

MANUFACTURED_FLUX_TOL = 1.0e-4
"""Exact traces are divergence-free in the continuum, so their discrete flux
is pure quadrature error; manufactured and catalog data use this relaxed
compatibility tolerance."""

INTERIOR_PROBES = np.array([
    [0.0, 0.0, 0.0],
    [0.3, 0.1, -0.2],
    [-0.25, 0.3, 0.1],
    [0.1, -0.35, 0.2],
    [-0.1, -0.1, -0.3],
])
"""Unit-scale evaluation points, strictly inside both built-in geometries at
their default size; interior_probes scales this pattern into the inscribed
ball of an arbitrary mesh."""
INTERIOR_PROBES.setflags(write=False)

# Pinned manufactured poles for the built-in geometries, two units off the
# boundary along a symmetry direction, and the fundamental-solution column
# (1-based) that drives the data.
SPHERE_SOURCE_POINT = (0.0, 0.0, 3.0)
CUBE_SOURCE_POINT = tuple(np.full(3, 0.5 + 2.0 / np.sqrt(3.0)))
SOURCE_COLUMN = 2

# Damping used by the spectra battery: strong damping keeps the floor of the
# non-defective traction operator clear of the refinement-dependent
# quadrature drift that dominates it at small α.
SPECTRA_ALPHA = 4.0

_SUITE_PARAMS = BrinkmanParams(alpha=1.0)
_TOP_FACE_RULE = {"type": "cube_faces", "neumann_faces": ["+z"]}
# Asymmetric constant forcing tile for the fixed-point battery, so no
# component is privileged.
_FORCING_TILE = np.array([0.05, -0.02, 0.03])


# --------------------------------------------------------------- FD probes

def _fd_gradient(f, x, h):
    """4th-order centered finite-difference gradient; the derivative axis is
    appended to the output."""
    x = np.asarray(x, dtype=float)
    parts = []
    for e in h * np.eye(3):
        parts.append((-f(x + 2 * e) + 8.0 * f(x + e)
                      - 8.0 * f(x - e) + f(x - 2 * e)) / (12.0 * h))
    return np.stack(parts, axis=-1)


def _fd_laplacian(f, x, h):
    """4th-order centered finite-difference Laplacian over the 3 axes."""
    x = np.asarray(x, dtype=float)
    total = 0.0
    for e in h * np.eye(3):
        total = total + (-f(x + 2 * e) + 16.0 * f(x + e) - 30.0 * f(x)
                         + 16.0 * f(x - e) - f(x - 2 * e)) / (12.0 * h ** 2)
    return total


# ------------------------------------------------------ manufactured fields

@dataclass(frozen=True)
class ManufacturedSolution:
    """Exact exterior-pole pair: one column of the fundamental solution.

    With the pole outside the closure, velocity and pressure solve the
    homogeneous system inside the domain, so their boundary trace and
    traction make exactly compatible data for every solver.  column is
    1-based.
    """

    source_point: np.ndarray
    column: int
    params: BrinkmanParams

    def velocity(self, points):
        diff = np.asarray(points, dtype=float) - self.source_point
        tensor = brinkman_velocity_tensor(diff, self.params.alpha)
        return tensor[..., :, self.column - 1]

    def pressure(self, points):
        diff = np.asarray(points, dtype=float) - self.source_point
        return pressure_vector(diff)[..., self.column - 1]

    def trace(self, mesh):
        _check_source(mesh, self.source_point)
        return BoundaryField(mesh, self.velocity(mesh.centroids))

    def traction(self, mesh):
        _check_source(mesh, self.source_point)
        values = traction_kernel(mesh.centroids, self.source_point,
                                 mesh.normals, self.params.alpha)
        return BoundaryField(mesh, values[:, :, self.column - 1])


def _check_source(mesh, source_point):
    """The pole must lie outside the domain with clearance of at least a
    quarter of the bounding-box diagonal, keeping the data well conditioned."""
    if winding_number(mesh, source_point[None])[0] >= 0.5:
        raise InvalidSource("source point lies inside the domain")
    closest = _closest_points_on_panels(mesh.panel_corners, source_point)
    dist = float(np.linalg.norm(closest - source_point, axis=1).min())
    diagonal = float(np.linalg.norm(mesh.vertices.max(axis=0)
                                    - mesh.vertices.min(axis=0)))
    if dist < 0.25 * diagonal:
        raise InvalidSource(
            f"source point at distance {dist:.3g} from the boundary; the "
            f"manufactured data need at least a quarter of the bounding-box "
            f"diagonal {diagonal:.3g}")


def manufactured_solution(source_point, column, params, mesh=None):
    """Exact solution generator with the pole at source_point.

    column selects the driven fundamental-solution column, 1-based.  When a
    mesh is given the pole is validated against it immediately; trace and
    traction re-validate against whatever mesh they are asked to sample.
    """
    point = np.asarray(source_point, dtype=float).copy()
    if point.shape != (3,) or not np.all(np.isfinite(point)):
        raise ValueError("source_point must be a finite 3-vector")
    point.setflags(write=False)
    if column not in (1, 2, 3):
        raise ValueError("column must be 1, 2 or 3")
    solution = ManufacturedSolution(source_point=point, column=int(column),
                                    params=params)
    if mesh is not None:
        _check_source(mesh, point)
    return solution


def interior_probes(mesh, fraction=0.7):
    """Evaluation points scaled into the inscribed ball of the mesh.

    The unit-scale pattern INTERIOR_PROBES is stretched about the
    bounding-box center so the farthest probe sits at the given fraction of
    the center-to-boundary distance.
    """
    center = 0.5 * (mesh.vertices.max(axis=0) + mesh.vertices.min(axis=0))
    closest = _closest_points_on_panels(mesh.panel_corners, center)
    reach = float(np.linalg.norm(closest - center, axis=1).min())
    pattern = INTERIOR_PROBES / np.linalg.norm(INTERIOR_PROBES, axis=1).max()
    return center + fraction * reach * pattern


# --------------------------------------------------------- kernel batteries

def kernel_pde_errors(n_points=100, seed=SUITE_SEED,
                      alphas=(0.0, 0.5, 1.0, 4.0)):
    """Momentum residual and analytic divergence of the fundamental pair.

    The momentum identity (Δ − α)G = ∇Π is probed column-wise with 4th-order
    finite differences at seeded annulus points; the divergence contracts the
    analytic gradient.  Returns the worst relative momentum residual and the
    worst absolute divergence over all alphas.
    """
    rng = np.random.default_rng(seed)
    points = rng.normal(size=(n_points, 3))
    points /= np.linalg.norm(points, axis=1, keepdims=True)
    points *= rng.uniform(0.5, 2.0, size=(n_points, 1))

    worst_pde = 0.0
    worst_div = 0.0
    for alpha in alphas:
        lap = _fd_laplacian(
            lambda p: brinkman_velocity_tensor(p, alpha), points, 1.0e-3)
        grad_pi = _fd_gradient(pressure_vector, points, 1.0e-3)
        tensor = brinkman_velocity_tensor(points, alpha)
        resid = lap - alpha * tensor - np.swapaxes(grad_pi, -1, -2)
        scale = np.maximum(1.0, np.abs(tensor))
        worst_pde = max(worst_pde, float(np.max(np.abs(resid) / scale)))
        grad = brinkman_velocity_gradient(points, alpha)
        div = np.einsum("pjkj->pk", grad)
        worst_div = max(worst_div, float(np.max(np.abs(div))))
    return {"pde_residual": worst_pde, "divergence": worst_div}


def stokes_limit_gaps(alphas=(1.0e-2, 1.0e-4, 1.0e-6)):
    """Componentwise gap max|G^α − G⁰| at |x| = 1 for each alpha; the gaps
    must shrink as the damping vanishes."""
    x = np.array([1.0, 0.0, 0.0])
    base = brinkman_velocity_tensor(x, 0.0)
    return [float(np.max(np.abs(brinkman_velocity_tensor(x, a) - base)))
            for a in alphas]


def decay_envelope_excess(alphas=(0.5, 1.0, 4.0)):
    """Single-constant decay envelope max|G^α| ≤ C / (r (1 + α r²)).

    The constant is fitted on a coarse radius grid over [0.5, 20] and checked
    on a dense one; returns the worst check/fit ratio over the alphas, which
    stays near one when a single constant covers the whole range.
    """
    direction = np.array([0.2, -0.3, 0.933])
    direction /= np.linalg.norm(direction)
    r_fit = np.geomspace(0.5, 20.0, 30)
    r_check = np.geomspace(0.5, 20.0, 301)

    worst = 0.0
    for alpha in alphas:
        def ratio(radii):
            x = radii[:, None] * direction
            mag = np.max(np.abs(brinkman_velocity_tensor(x, alpha)),
                         axis=(1, 2))
            return mag * (1.0 + alpha * radii ** 2) * radii

        worst = max(worst, float(np.max(ratio(r_check)) / np.max(ratio(r_fit))))
    return worst


# ------------------------------------------------------------- jump battery

def _extrapolate_to_surface(sample, x0, normal, diameter, side):
    """Quadratic Richardson in the offset: kills O(eps) and O(eps²) terms."""
    f1 = sample(x0 + side * 0.25 * diameter * normal)
    f2 = sample(x0 + side * 0.50 * diameter * normal)
    f3 = sample(x0 + side * 1.00 * diameter * normal)
    return (8.0 * f1 - 6.0 * f2 + f3) / 3.0


def _sl_traction(mesh, quad, density, x, nu_x, alpha):
    """Traction of the single layer at an off-boundary point, with the same
    near-panel upgrade policy as the library evaluators."""
    blocks = _NearFar(mesh, quad, x[None, :]).integrate(
        lambda t, y, _: _traction_cf(t - y, nu_x[:, None, None], alpha))
    return np.einsum("jib,jb->i", blocks[0], density)


def jump_battery(mesh, params, seed=SUITE_SEED, n_points=6,
                 quadrature_order=6):
    """Measured boundary jumps of the layer potentials with a smooth seeded
    density: the single-layer velocity is continuous across the boundary,
    the double-layer trace jumps by the density from inside to outside, and
    the single-layer traction jumps by the density from outside to inside.

    Boundary limits are Richardson extrapolations along the normal at the
    panels nearest to seeded unit directions, so successive refinement
    levels probe matching locations.  Each relation reports the mismatch
    norm over all sample panels relative to the density norm there.
    """
    rng = np.random.default_rng(seed)
    density = _smooth_field(mesh.centroids, mesh.scale, rng)
    directions = rng.normal(size=(n_points, 3))
    directions /= np.linalg.norm(directions, axis=1, keepdims=True)
    center = 0.5 * (mesh.vertices.max(axis=0) + mesh.vertices.min(axis=0))
    panels = [int(np.argmax((mesh.centroids - center) @ d))
              for d in directions]
    quad = panel_quadrature(mesh, quadrature_order)

    mismatches = {"sl_trace": [], "w_jump": [], "t_jump": []}
    scales = []
    for i in panels:
        x0, nu, dia = mesh.centroids[i], mesh.normals[i], mesh.diameters[i]

        def single(x):
            return eval_single_layer(mesh, density, x[None], params, quad)[0]

        def double(x):
            return eval_double_layer(mesh, density, x[None], params, quad)[0]

        def traction(x):
            return _sl_traction(mesh, quad, density, x, nu, params.alpha)

        v_in = _extrapolate_to_surface(single, x0, nu, dia, -1)
        v_out = _extrapolate_to_surface(single, x0, nu, dia, +1)
        mismatches["sl_trace"].append(v_in - v_out)
        w_in = _extrapolate_to_surface(double, x0, nu, dia, -1)
        w_out = _extrapolate_to_surface(double, x0, nu, dia, +1)
        mismatches["w_jump"].append((w_out - w_in) - density[i])
        t_in = _extrapolate_to_surface(traction, x0, nu, dia, -1)
        t_out = _extrapolate_to_surface(traction, x0, nu, dia, +1)
        mismatches["t_jump"].append((t_in - t_out) - density[i])
        scales.append(density[i])

    scale = np.linalg.norm(scales)
    return {key: float(np.linalg.norm(value) / scale)
            for key, value in mismatches.items()}


# --------------------------------------------------------- spectra batteries

def operator_spectra(workspace):
    """Singular-value diagnostics of the two traction operators ∓½I + K*.

    The minus operator carries the one-dimensional defect whose direction
    should align with the outward normal; the plus operator is what the
    interior Neumann solve inverts and its smallest singular value is the
    invertibility floor.  _sigma_range reads both from LU factors: a block
    of 8 on the minus one, since σ₂ is a triple value on the icosphere.
    """
    sigma, vectors = _sigma_range(scipy.linalg.lu_factor(
        _traction_system(workspace, -0.5), overwrite_a=True), block=8)
    normals = workspace.mesh.normals.reshape(-1)
    cosine = abs(vectors[:, 0] @ normals) / np.linalg.norm(normals)
    plus, _ = _sigma_range(workspace.neumann_factorization())
    return {"sigma_min_minus": float(sigma[0]), "sigma2_minus": float(sigma[1]),
            "nu_cosine": float(cosine), "sigma_min_plus": float(plus[0])}


def sl_normal_defect(workspace):
    """Area-weighted relative norm of the single layer applied to the
    normal; zero in the continuum."""
    mesh = workspace.mesh
    nu = BoundaryField(mesh, mesh.normals)
    applied = workspace.single_layer.matrix @ mesh.normals.reshape(-1)
    return float(BoundaryField(mesh, applied.reshape(-1, 3)).norm()
                 / nu.norm())


# ------------------------------------------------- manufactured-solve errors

def manufactured_errors(kind, mesh, source, points, labeling=None,
                        workspace=None, quadrature_order=6):
    """Solve the named problem with the exact pole data and report errors.

    Returns interior_l2 (relative velocity error at the probe points),
    trace_l2 (area-weighted relative error of the representation's boundary
    trace against the exact trace), the collocation residual from the solve
    report, and the solve wall time.
    """
    params = source.params
    ws = _workspace_for(mesh, params, quadrature_order, workspace)
    trace = source.trace(mesh)
    if kind == MIXED and labeling is None:
        raise ValueError("the mixed battery needs a patch labeling")
    spec = BVPSpec(kind=kind, params=params, mesh=mesh, labeling=labeling,
                   dirichlet_data=None if kind == NEUMANN else trace,
                   neumann_data=(None if kind == DIRICHLET
                                 else source.traction(mesh)),
                   quadrature_order=quadrature_order,
                   flux_tol=MANUFACTURED_FLUX_TOL)
    handle, report = _solve(spec, ws)
    flat = handle.density.values.reshape(-1)
    if kind == DIRICHLET:
        numeric = -0.5 * flat + ws.double_layer.matrix @ flat
    else:
        numeric = ws.single_layer.matrix @ flat
    numeric = numeric.reshape(-1, 3)
    trace_err = (BoundaryField(mesh, numeric - trace.values).norm()
                 / trace.norm())
    solution = evaluate_solution(handle, points)
    exact = source.velocity(points)
    interior = (np.linalg.norm(solution.velocity - exact)
                / np.linalg.norm(exact))
    return {"interior_l2": float(interior), "trace_l2": float(trace_err),
            "residual_l2": report.residual_l2,
            "wall_time_s": report.wall_time_s}


def green_identity_error(mesh, source, points, quadrature_order=6):
    """Relative residual of the direct representation u = V t − W γu for the
    exact pole pair, measured at the probe points."""
    trace = source.trace(mesh)
    traction = source.traction(mesh)
    exact = source.velocity(points)
    resid = greens_identity_residual(trace, traction, source.params, points,
                                     exact_velocity=exact,
                                     quadrature_order=quadrature_order)
    return float(np.linalg.norm(resid) / np.linalg.norm(exact))


def ntd_consistency(mesh, labeling, source, workspace=None):
    """Agreement of the two routes to the Dirichlet-patch velocity trace:
    the composed traction-to-trace operator against solve-then-restrict on
    the same discretization."""
    params = source.params
    ws = _workspace_for(mesh, params, 6, workspace)
    traction = source.traction(mesh)
    ntd = neumann_to_dirichlet(mesh, labeling, params, workspace=ws)
    composed = ntd.apply(traction).values
    spec = BVPSpec(kind=NEUMANN, params=params, mesh=mesh,
                   neumann_data=traction)
    handle, _ = solve_neumann(spec, ws)
    trace = (ws.single_layer.matrix
             @ handle.density.values.reshape(-1)).reshape(-1, 3)
    restricted = np.where(labeling.dirichlet_mask[:, None], trace, 0.0)
    return float(np.linalg.norm(composed - restricted)
                 / np.linalg.norm(restricted))


# --------------------------------------------------------- volume batteries

def newtonian_residual(resolution, params, seed=SUITE_SEED):
    """Relative interior residual of the volume pair: (Δ − α)N f − ∇Q f
    reproduces a smooth forcing f up to quadrature and stencil error.

    Velocity and pressure are evaluated on the lattice of a unit cube grid,
    differentiated with the 7-point Laplacian and centered pressure
    gradients, and compared at cells at least two layers into the interior,
    where the rolled stencils never touch a wrapped-around neighbor.
    """
    m = int(resolution)
    depth = _lattice_depth(m)
    grid = build_volume_grid({"type": "cube", "side": 1.0}, m)
    rng = np.random.default_rng(seed)
    values = _smooth_field(grid.centers, 1.0, rng)
    velocity, pressure = _newtonian_on_grid(grid, values, params,
                                            ("velocity", "pressure"))
    forcing = values.reshape(m, m, m, 3)
    resid, _ = _lattice_residual(velocity.reshape(m, m, m, 3),
                                 pressure.reshape(m, m, m), forcing,
                                 grid.spacing, params.alpha, 0.0)
    probe = depth >= 2
    return float(np.linalg.norm(resid[probe])
                 / np.linalg.norm(forcing[probe]))


def semilinear_battery(level=1, resolution=12, params=None, tol=1.0e-8,
                       max_iter=32):
    """Small-data contraction run of the fixed-point solver on the cube.

    Estimates the smallness constants on the given grid, scales the exact
    pole data and a constant forcing tile so the combined data norm sits at
    half the estimated data radius, runs the fixed-point solve, and reruns
    with β = 0 where the map is constant.  Returns iteration diagnostics,
    the finite-difference residual of the final iterate, and the constants.
    """
    if params is None:
        params = BrinkmanParams(alpha=1.0, beta=1.0)
    mesh = build_cube(level)
    labeling = label_patches(mesh, _TOP_FACE_RULE)
    grid = build_volume_grid({"type": "cube", "side": 1.0}, int(resolution))
    ws = SolverWorkspace(mesh, params)
    constants = estimate_constants(mesh, labeling, grid, params, samples=8,
                                   workspace=ws)
    source = manufactured_solution(CUBE_SOURCE_POINT, SOURCE_COLUMN, params,
                                   mesh)
    trace = source.trace(mesh)
    traction = source.traction(mesh)
    tile = np.tile(_FORCING_TILE, (grid.n_cells, 1))
    data_norm = math.sqrt(trace.norm() ** 2 + traction.norm() ** 2
                          + VolumeField(grid, tile).norm() ** 2)
    factor = 1.0
    if np.isfinite(constants.zeta_est):
        factor = min(1.0, 0.5 * constants.zeta_est / data_norm)
    forcing = VolumeField(grid, factor * tile)
    h0 = BoundaryField(mesh, factor * trace.values)
    g0 = BoundaryField(mesh, factor * traction.values)
    config = PicardConfig(tol=tol, max_iter=max_iter)
    handle, report = picard_solve(mesh, labeling, grid, params, forcing, h0,
                                  g0, config, constants=constants,
                                  workspace=ws)
    residual = semilinear_residual(handle, grid, params, forcing)
    params0 = BrinkmanParams(alpha=params.alpha, beta=0.0)
    _, report0 = picard_solve(mesh, labeling, grid, params0, forcing, h0, g0,
                              config, workspace=ws)
    return {"iterations": len(report.iterates),
            "measured_ratio": report.measured_ratio,
            "converged": report.converged,
            "ball_respected": report.ball_respected,
            "residual": residual,
            "beta0_iterations": len(report0.iterates),
            "constants": constants}


# ------------------------------------------------------- checks and reports

_COMPARISONS = {"<=": operator.le, "<": operator.lt, ">=": operator.ge,
                ">": operator.gt}


@dataclass(frozen=True)
class CheckResult:
    """One measured number against one bound."""

    name: str
    value: float
    bound: float
    comparison: str
    passed: bool

    def line(self):
        status = "PASS" if self.passed else "FAIL"
        return (f"{status} {self.name}: {self.value:.6e} "
                f"{self.comparison} {self.bound:.6e}")


def _check(name, value, bound, comparison="<="):
    value = float(value)
    passed = bool(_COMPARISONS[comparison](value, bound)
                  and np.isfinite(value))
    return CheckResult(name=name, value=value, bound=float(bound),
                       comparison=comparison, passed=passed)


@dataclass(frozen=True)
class SuiteReport:
    """All checks of one verification suite."""

    suite: str
    seed: int
    checks: tuple
    wall_time_s: float

    @property
    def passed(self):
        return all(check.passed for check in self.checks)

    def lines(self):
        return [check.line() for check in self.checks]

    def _document(self, include_wall_time):
        doc = {"suite": self.suite, "seed": self.seed, "passed": self.passed,
               "checks": [{"name": c.name, "value": c.value, "bound": c.bound,
                           "comparison": c.comparison, "passed": c.passed}
                          for c in self.checks]}
        if include_wall_time:
            doc["wall_time_s"] = self.wall_time_s
        return doc

    def to_json(self):
        return json.dumps(self._document(True), sort_keys=True)

    def fingerprint(self):
        """Byte-stable digest of every numeric field except wall time."""
        return json.dumps(self._document(False), sort_keys=True)


# ------------------------------------------------------------------- suites

def _suite_kernels():
    errors = kernel_pde_errors()
    gaps = stokes_limit_gaps()
    gap_ratio = max(b / a for a, b in zip(gaps, gaps[1:]))
    return [
        _check("pde_residual", errors["pde_residual"], 1.0e-5),
        _check("analytic_divergence", errors["divergence"], 1.0e-6),
        _check("stokes_gap_ratio", gap_ratio, 1.0, "<"),
        _check("decay_envelope_excess", decay_envelope_excess(), 1.05),
    ]


def _suite_jumps():
    results = {level: jump_battery(build_icosphere(level), _SUITE_PARAMS)
               for level in (2, 3)}
    checks = []
    for key in ("sl_trace", "w_jump", "t_jump"):
        checks.append(_check(f"{key}_level3", results[3][key], 5.0e-2))
        checks.append(_check(f"{key}_refinement",
                             results[3][key] / results[2][key], 1.0, "<"))
    return checks


def _suite_nullspaces():
    spectra = {}
    defects = {}
    for level in (1, 2):
        ws = SolverWorkspace(build_icosphere(level),
                             BrinkmanParams(alpha=SPECTRA_ALPHA))
        spectra[level] = operator_spectra(ws)
        defects[level] = sl_normal_defect(ws)
    top = spectra[2]
    return [
        _check("sigma_min_defect", top["sigma_min_minus"], 2.0e-2),
        _check("nu_cosine", top["nu_cosine"], 0.99, ">="),
        _check("sigma_gap", top["sigma2_minus"] / top["sigma_min_minus"],
               10.0, ">="),
        _check("floor_drop",
               1.0 - spectra[2]["sigma_min_plus"]
               / spectra[1]["sigma_min_plus"], 0.2),
        _check("normal_defect_level2", defects[2], 5.0e-2),
        _check("normal_defect_refinement", defects[2] / defects[1], 1.0,
               "<"),
    ]


def _suite_green():
    source = manufactured_solution(SPHERE_SOURCE_POINT, SOURCE_COLUMN,
                                   _SUITE_PARAMS)
    residuals = [green_identity_error(build_icosphere(level), source,
                                      INTERIOR_PROBES)
                 for level in (1, 2, 3)]
    ratio = max(b / a for a, b in zip(residuals, residuals[1:]))
    return [
        _check("green_residual_level3", residuals[-1], 1.0e-2),
        _check("green_refinement", ratio, 1.0, "<"),
    ]


def _suite_solvers():
    source = manufactured_solution(SPHERE_SOURCE_POINT, SOURCE_COLUMN,
                                   _SUITE_PARAMS)
    errors = {}
    for level in (1, 2):
        mesh = build_icosphere(level)
        ws = SolverWorkspace(mesh, _SUITE_PARAMS)
        errors[level] = {
            kind: manufactured_errors(kind, mesh, source, INTERIOR_PROBES,
                                      workspace=ws)
            for kind in (DIRICHLET, NEUMANN)}
    checks = []
    for name, kind in (("dirichlet", DIRICHLET), ("neumann", NEUMANN)):
        fine = errors[2][kind]["interior_l2"]
        coarse = errors[1][kind]["interior_l2"]
        checks.append(_check(f"{name}_interior_level2", fine, 5.0e-2))
        checks.append(_check(f"{name}_refinement_ratio", coarse / fine, 2.0,
                             ">="))
    checks.append(_check("newtonian_residual",
                         newtonian_residual(16, _SUITE_PARAMS), 5.0e-2))
    return checks


def _suite_mixed():
    source = manufactured_solution(CUBE_SOURCE_POINT, SOURCE_COLUMN,
                                   _SUITE_PARAMS)
    interior = {}
    sigma = {}
    consistency = None
    for level in (1, 2):
        mesh = build_cube(level)
        labeling = label_patches(mesh, _TOP_FACE_RULE)
        ws = SolverWorkspace(mesh, _SUITE_PARAMS)
        interior[level] = manufactured_errors(
            MIXED, mesh, source, INTERIOR_PROBES, labeling=labeling,
            workspace=ws)["interior_l2"]
        ntd = neumann_to_dirichlet(mesh, labeling, _SUITE_PARAMS,
                                   workspace=ws)
        sigma[level] = float(scipy.linalg.svdvals(
            ntd.dirichlet_submatrix)[-1])
        if level == 1:
            consistency = ntd_consistency(mesh, labeling, source,
                                          workspace=ws)
    return [
        _check("mixed_interior_level2", interior[2], 5.0e-2),
        _check("mixed_refinement", interior[2] / interior[1], 1.0, "<"),
        _check("ntd_consistency", consistency, 1.0e-10),
        _check("ntd_sigma_min_level1", sigma[1], 0.0, ">"),
        _check("ntd_sigma_min_level2", sigma[2], 0.0, ">"),
    ]


def _suite_semilinear():
    result = semilinear_battery()
    return [
        _check("converged", 1.0 if result["converged"] else 0.0, 1.0, ">="),
        _check("iterations", float(result["iterations"]), 20.0),
        _check("measured_ratio", result["measured_ratio"], 0.6),
        _check("ball_respected",
               1.0 if result["ball_respected"] else 0.0, 1.0, ">="),
        _check("fd_residual", result["residual"], 1.0e-1),
        _check("beta_zero_iterations", float(result["beta0_iterations"]),
               1.0),
    ]


_SUITES = {
    "kernels": _suite_kernels,
    "jumps": _suite_jumps,
    "nullspaces": _suite_nullspaces,
    "green": _suite_green,
    "solvers": _suite_solvers,
    "mixed": _suite_mixed,
    "semilinear": _suite_semilinear,
}


def verify_suite(name):
    """Run one named invariant battery and return its SuiteReport."""
    if name not in _SUITES:
        raise ValueError(f"unknown suite {name!r}; choose from "
                         f"{', '.join(SUITE_NAMES)}")
    start = time.perf_counter()
    checks = tuple(_SUITES[name]())
    return SuiteReport(suite=name, seed=SUITE_SEED, checks=checks,
                       wall_time_s=time.perf_counter() - start)


# ------------------------------------------------------ convergence studies

@dataclass(frozen=True)
class ConvergenceRow:
    """One refinement level of a study; ratio is the previous interior error
    over the current one, None on the first row."""

    level: int
    n_panels: int
    trace_l2: float
    interior_l2: float
    jump_residual: float
    ratio: float | None


_CSV_COLUMNS = ("level", "n_panels", "trace_l2", "interior_l2",
                "jump_residual", "ratio")


@dataclass(frozen=True)
class ConvergenceTable:
    """Refinement rows with strictly increasing panel counts."""

    rows: tuple

    def __post_init__(self):
        counts = [row.n_panels for row in self.rows]
        if any(b <= a for a, b in zip(counts, counts[1:])):
            raise ValueError("panel counts must increase strictly with "
                             "level")

    def to_csv(self):
        """CSV text: header row, '.' decimals, empty cell for a missing
        ratio; floats are written with repr so they parse back exactly."""
        buffer = io.StringIO()
        writer = csv.writer(buffer, lineterminator="\n")
        writer.writerow(_CSV_COLUMNS)
        for row in self.rows:
            writer.writerow([row.level, row.n_panels, repr(row.trace_l2),
                             repr(row.interior_l2), repr(row.jump_residual),
                             "" if row.ratio is None else repr(row.ratio)])
        return buffer.getvalue()

    def write_csv(self, path):
        with open(path, "w", encoding="utf-8", newline="") as handle:
            handle.write(self.to_csv())


def parse_convergence_csv(text):
    """Rebuild a ConvergenceTable from its CSV text."""
    reader = csv.reader(io.StringIO(text))
    header = tuple(next(reader))
    if header != _CSV_COLUMNS:
        raise ValueError(f"unexpected convergence CSV header {header}")
    rows = []
    for record in reader:
        if not record:
            continue
        rows.append(ConvergenceRow(
            level=int(record[0]), n_panels=int(record[1]),
            trace_l2=float(record[2]), interior_l2=float(record[3]),
            jump_residual=float(record[4]),
            ratio=None if record[5] == "" else float(record[5])))
    return ConvergenceTable(rows=tuple(rows))


_KIND_BY_NAME = {"dirichlet": DIRICHLET, "neumann": NEUMANN, "mixed": MIXED}
_BASE_PANELS = {"icosphere": 80, "cube": 48}


def _build_mesh(geometry_type, size, level):
    if geometry_type == "icosphere":
        return build_icosphere(level, radius=size)
    return build_cube(level, side=size)


def _cfg_labeling(mesh, patches):
    """label_patches with its rule errors raised as a ConfigError."""
    try:
        return label_patches(mesh, patches)
    except ValueError as exc:
        field, sep, _ = str(exc).partition("': required")
        if sep and field.startswith("'"):
            raise ConfigError(f"missing required key 'patches.{field[1:]}'")
        raise ConfigError(f"'patches': {exc}")


def convergence_study(config):
    """Manufactured-solution refinement study over a ladder of mesh levels.

    config is a mapping with keys kind (dirichlet | neumann | mixed),
    geometry ({"type": "icosphere" | "cube", ...}), levels (strictly
    increasing integers), alpha, source_point, column, and optionally
    quadrature_order and, for mixed runs, patches (a label_patches rule).
    Levels needing more than PANEL_BUDGET panels are refused before any
    solve.  A single-level study yields one row with an empty ratio.
    """
    if not isinstance(config, dict):
        raise ConfigError("top level: expected a JSON object")
    kind = _KIND_BY_NAME[_cfg_str(config, "", "kind",
                                  choices=tuple(_KIND_BY_NAME))]
    geometry = _cfg_map(config, "", "geometry")
    levels = _cfg_get(config, "", "levels")
    if (not isinstance(levels, (list, tuple)) or not levels
            or not all(isinstance(v, int) and not isinstance(v, bool)
                       and v >= 1 for v in levels)):
        raise ConfigError("'levels': expected a nonempty list of integers "
                          ">= 1")
    if any(b <= a for a, b in zip(levels, levels[1:])):
        raise ConfigError("'levels': must increase strictly")
    geometry_type, size = _cfg_geometry(geometry, levels)
    alpha = _cfg_number(config, "", "alpha", minimum=0.0)
    point = _cfg_vec3(config, "", "source_point")
    column = _cfg_int(config, "", "column", minimum=1, maximum=3)
    order = _cfg_order(config)
    params = BrinkmanParams(alpha=alpha)
    source = manufactured_solution(point, column, params)
    patches = _cfg_map(config, "", "patches",
                       default=_REQUIRED if kind == MIXED else None)

    rows = []
    previous = None
    for level in levels:
        mesh = _build_mesh(geometry_type, size, level)
        labeling = (_cfg_labeling(mesh, patches) if kind == MIXED else None)
        points = interior_probes(mesh)
        errors = manufactured_errors(kind, mesh, source, points,
                                     labeling=labeling,
                                     quadrature_order=order)
        jump = green_identity_error(mesh, source, points,
                                    quadrature_order=order)
        ratio = None if previous is None else previous / errors["interior_l2"]
        rows.append(ConvergenceRow(level=level, n_panels=mesh.n_panels,
                                   trace_l2=errors["trace_l2"],
                                   interior_l2=errors["interior_l2"],
                                   jump_residual=jump, ratio=ratio))
        previous = errors["interior_l2"]
    return ConvergenceTable(rows=tuple(rows))


# -------------------------------------------------------- configured runs

class ConfigError(ValueError):
    """Configuration rejected; the message names the offending key path."""


_REQUIRED = object()


def _cfg_get(mapping, path, key, default=_REQUIRED, check=None, **options):
    """mapping[key], passed through check(value, name, **options) where name
    is the key's dotted path; a missing key returns default, and is an error
    when no default is given."""
    name = f"{path}.{key}" if path else key
    if key not in mapping:
        if default is _REQUIRED:
            raise ConfigError(f"missing required key '{name}'")
        return default
    value = mapping[key]
    return value if check is None else check(value, name, **options)


def _cfg_reader(check):
    """The reader (mapping, path, key, default=..., **options) of one value
    type, from its check(value, name, **options)."""
    return functools.partial(_cfg_get, check=check)


@_cfg_reader
def _cfg_str(value, name, choices=None):
    if not isinstance(value, str):
        raise ConfigError(f"'{name}': expected a string")
    if choices is not None and value not in choices:
        raise ConfigError(f"'{name}': expected one of {', '.join(choices)}, "
                          f"got {value!r}")
    return value


@_cfg_reader
def _cfg_number(value, name, minimum=None):
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"'{name}': expected a number")
    # NaN, Infinity and integers past the float range fail this comparison
    if not abs(value) <= sys.float_info.max:
        raise ConfigError(f"'{name}': must be finite")
    value = float(value)
    if minimum is not None and value < minimum:
        raise ConfigError(f"'{name}': must be >= {minimum}")
    return value


@_cfg_reader
def _cfg_int(value, name, minimum=None, maximum=None):
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"'{name}': expected an integer")
    if minimum is not None and value < minimum:
        raise ConfigError(f"'{name}': must be >= {minimum}")
    if maximum is not None and value > maximum:
        raise ConfigError(f"'{name}': must be <= {maximum}")
    return value


@_cfg_reader
def _cfg_vec3(value, name):
    if (not isinstance(value, (list, tuple)) or len(value) != 3
            or any(isinstance(v, bool) or not isinstance(v, (int, float))
                   for v in value)):
        raise ConfigError(f"'{name}': expected a list of three numbers")
    if not all(abs(v) <= sys.float_info.max for v in value):
        raise ConfigError(f"'{name}': must be finite")
    return [float(v) for v in value]


@_cfg_reader
def _cfg_map(value, name):
    if not isinstance(value, dict):
        raise ConfigError(f"'{name}': expected an object")
    return value


def _cfg_order(cfg):
    order = _cfg_int(cfg, "", "quadrature_order", default=6)
    if order not in (1, 3, 6, 12):
        raise ConfigError("'quadrature_order': expected one of 1, 3, 6, 12")
    return order


def _cfg_geometry(geometry, levels):
    """Type and size (radius or side, default 1) of a geometry section; a
    level past the largest within PANEL_BUDGET panels is refused."""
    geometry_type = _cfg_str(geometry, "geometry", "type",
                             choices=tuple(_BASE_PANELS))
    base, top = _BASE_PANELS[geometry_type], 1
    while base * 4 ** top <= PANEL_BUDGET:
        top += 1
    for level in levels:
        if level > top:
            raise ConfigError(
                f"level {level} is over the {PANEL_BUDGET}-panel budget "
                f"for dense assembly (at most level {top})")
    key = "radius" if geometry_type == "icosphere" else "side"
    size = _cfg_number(geometry, "geometry", key, minimum=0.0, default=1.0)
    if size <= 0.0:
        raise ConfigError(f"'geometry.{key}': must be positive")
    return geometry_type, size


# Catalog of exact homogeneous pairs u = ∇φ, π = −αφ for harmonic φ: the
# velocity is divergence-free, the momentum equation holds for every α, and
# the strain is the Hessian of φ, giving exact traction data on any mesh.

def _expr_uniform(axis):
    def fields(points, alpha):
        count = len(points)
        velocity = np.zeros((count, 3))
        velocity[:, axis] = 1.0
        pressure = -alpha * points[:, axis]
        strain = np.zeros((count, 3, 3))
        return velocity, pressure, strain
    return fields


def _expr_harmonic_quadratic(points, alpha):
    count = len(points)
    velocity = np.stack([2.0 * points[:, 0], np.zeros(count),
                         -2.0 * points[:, 2]], axis=1)
    pressure = -alpha * (points[:, 0] ** 2 - points[:, 2] ** 2)
    strain = np.zeros((count, 3, 3))
    strain[:, 0, 0] = 2.0
    strain[:, 2, 2] = -2.0
    return velocity, pressure, strain


_EXPRESSION_CATALOG = {
    "uniform_x": _expr_uniform(0),
    "uniform_z": _expr_uniform(2),
    "harmonic_quadratic": _expr_harmonic_quadratic,
}

EXPRESSION_NAMES = tuple(sorted(_EXPRESSION_CATALOG))


def _file_boundary_data(path, key, mesh):
    if not os.path.isfile(path):
        raise ConfigError(f"'data.{key}': file {path!r} does not exist")
    try:
        values = np.load(path)
    except (OSError, ValueError) as exc:
        raise ConfigError(f"'data.{key}': could not load {path!r} ({exc})")
    if not isinstance(values, np.ndarray):
        values.close()
        raise ConfigError(f"'data.{key}': {path!r} is not a .npy file")
    if values.shape != (mesh.n_panels, 3):
        raise ConfigError(
            f"'data.{key}': array shape {values.shape} does not match the "
            f"{mesh.n_panels}-panel mesh")
    if values.dtype.kind not in "iuf" or not np.all(np.isfinite(values)):
        raise ConfigError(f"'data.{key}': {path!r} must hold finite numbers")
    return BoundaryField(mesh, np.asarray(values, dtype=float))


@dataclass(frozen=True)
class RunConfig:
    """Validated configured run.

    Data sources: "manufactured" (exterior pole and column),
    "expression" (a name from EXPRESSION_NAMES), or "file" (.npy arrays of
    panel values for the data the problem kind needs).  A volume section
    adds constant forcing on a cube lattice; β > 0 switches the mixed solve
    to the fixed-point iteration.

    geometry is (type, level, size); data is (source, detail) with detail
    (point, column), an expression name or {"dirichlet" | "neumann": path};
    volume is (resolution, forcing) or None.  mapping is the parsed JSON,
    whose sections report.json echoes.
    """

    kind: str
    geometry: tuple
    patches: dict | None
    alpha: float
    beta: float
    data: tuple
    quadrature_order: int
    volume: tuple | None
    picard: PicardConfig
    flux_tol: float
    output: str | None
    mapping: dict

    @classmethod
    def from_mapping(cls, cfg):
        if not isinstance(cfg, dict):
            raise ConfigError("top level: expected a JSON object")
        kind = _cfg_str(cfg, "", "kind", choices=tuple(_KIND_BY_NAME))
        geometry = _cfg_map(cfg, "", "geometry")
        level = _cfg_int(geometry, "geometry", "level", minimum=1)
        geometry_type, size = _cfg_geometry(geometry, [level])
        patches = _cfg_map(cfg, "", "patches",
                           default=_REQUIRED if kind == "mixed" else None)
        alpha = _cfg_number(cfg, "", "alpha", minimum=0.0)
        beta = _cfg_number(cfg, "", "beta", minimum=0.0, default=0.0)
        data = _cfg_map(cfg, "", "data")
        source = _cfg_str(data, "data", "source",
                          choices=("manufactured", "file", "expression"))
        if source == "manufactured":
            detail = (_cfg_vec3(data, "data", "source_point"),
                      _cfg_int(data, "data", "column", minimum=1, maximum=3))
        elif source == "expression":
            detail = _cfg_str(data, "data", "name", choices=EXPRESSION_NAMES)
        else:
            detail = {key: _cfg_str(data, "data", key)
                      for key in ("dirichlet", "neumann")
                      if kind in (key, "mixed")}
        order = _cfg_order(cfg)
        volume = _cfg_map(cfg, "", "volume", default=None)
        if volume is not None:
            resolution = _cfg_int(volume, "volume", "resolution", minimum=2)
            if (resolution ** 3 * _BASE_PANELS[geometry_type]
                    * 4 ** (level - 1) > PANEL_BUDGET ** 2):
                raise ConfigError("'volume.resolution': cells times panels "
                                  f"are over the {PANEL_BUDGET}² budget")
            volume = (resolution, _cfg_vec3(volume, "volume", "forcing"))
        if beta > 0.0 and (kind != "mixed" or volume is None):
            raise ConfigError("'beta': a positive drag coefficient needs "
                              "kind 'mixed' and a volume section")
        picard_map = _cfg_map(cfg, "", "picard", default={})
        # read outside the try below: a ConfigError is a ValueError too
        settings = dict(
            tol=_cfg_number(picard_map, "picard", "tol",
                            default=PicardConfig.tol),
            max_iter=_cfg_int(picard_map, "picard", "max_iter", minimum=1,
                              default=PicardConfig.max_iter),
            damping=_cfg_number(picard_map, "picard", "damping",
                                default=PicardConfig.damping))
        try:
            picard = PicardConfig(**settings)
        except ValueError as exc:
            raise ConfigError(f"'picard': {exc}")
        flux_tol = _cfg_number(cfg, "", "flux_tol", default=(
            BVPSpec.flux_tol if source == "file" else MANUFACTURED_FLUX_TOL))
        if flux_tol <= 0.0:
            raise ConfigError("'flux_tol': must be positive")
        return cls(kind=kind, geometry=(geometry_type, level, size),
                   patches=patches, alpha=alpha, beta=beta,
                   data=(source, detail), quadrature_order=order,
                   volume=volume, picard=picard, flux_tol=flux_tol,
                   output=_cfg_str(cfg, "", "output", default=None),
                   mapping=cfg)


def _load_config(path):
    with open(path, "r", encoding="utf-8") as handle:
        try:
            cfg = json.load(handle)
        except ValueError as exc:  # also a number past the digit limit
            raise ConfigError(f"{path}: not valid JSON ({exc})")
    if not isinstance(cfg, dict):
        raise ConfigError("top level: expected a JSON object")
    return cfg


def _resolve_boundary_data(rc, mesh, params):
    """Trace and traction fields (None for data the kind does not read) plus
    an exact-velocity callable (None when the data come from files)."""
    source, detail = rc.data
    if source == "manufactured":
        solution = manufactured_solution(*detail, params, mesh)
        return solution.trace(mesh), solution.traction(mesh), solution.velocity
    if source == "expression":
        fields = _EXPRESSION_CATALOG[detail]
        velocity, pressure, strain = fields(mesh.centroids, params.alpha)
        traction = (-pressure[:, None] * mesh.normals
                    + 2.0 * np.einsum("pij,pj->pi", strain, mesh.normals))
        return (BoundaryField(mesh, velocity), BoundaryField(mesh, traction),
                lambda pts: fields(pts, params.alpha)[0])
    trace, traction = (_file_boundary_data(detail[key], key, mesh)
                       if key in detail else None
                       for key in ("dirichlet", "neumann"))
    return trace, traction, None


def run_config(path, out_dir=None):
    """Execute one configured run and write report.json and fields.csv.

    Returns the output directory (out_dir overrides the config's output
    key).  Outputs are deterministic for a fixed configuration and build;
    wall_time_s is the only report field that varies between runs.
    """
    rc = RunConfig.from_mapping(_load_config(path))
    destination = out_dir if out_dir is not None else rc.output
    if destination is None:
        raise ConfigError("missing required key 'output' (or pass an "
                          "explicit output directory)")
    geometry_type, level, size = rc.geometry
    mesh = _build_mesh(geometry_type, size, level)
    params = BrinkmanParams(alpha=rc.alpha, beta=rc.beta)
    labeling = (_cfg_labeling(mesh, rc.patches) if rc.kind == "mixed"
                else None)
    trace, traction, exact_velocity = _resolve_boundary_data(rc, mesh, params)

    grid = forcing = None
    if rc.volume is not None:
        resolution, tile = rc.volume
        domain = ({"type": "cube", "side": size} if geometry_type == "cube"
                  else {"type": "mesh", "mesh": mesh})
        grid = build_volume_grid(domain, resolution)
        forcing = VolumeField(grid, np.tile(tile, (grid.n_cells, 1)))

    report = contraction = None
    if rc.beta > 0.0:
        handle, contraction = picard_solve(
            mesh, labeling, grid, params, forcing, trace, traction,
            rc.picard, quadrature_order=rc.quadrature_order)
    else:
        spec = BVPSpec(kind=_KIND_BY_NAME[rc.kind], params=params, mesh=mesh,
                       labeling=labeling, dirichlet_data=trace,
                       neumann_data=traction, forcing=forcing, grid=grid,
                       quadrature_order=rc.quadrature_order,
                       flux_tol=rc.flux_tol)
        handle, report = _solve(spec)

    points = interior_probes(mesh)
    fields = evaluate_solution(handle, points)
    interior_l2 = None
    if exact_velocity is not None and forcing is None:
        exact = np.asarray(exact_velocity(points), dtype=float)
        interior_l2 = float(np.linalg.norm(fields.velocity - exact)
                            / np.linalg.norm(exact))

    document = {
        "config": {
            "kind": rc.kind, "geometry": rc.mapping["geometry"],
            "patches": rc.patches, "alpha": rc.alpha, "beta": rc.beta,
            "data": rc.mapping["data"],
            "quadrature_order": rc.quadrature_order,
            "volume": rc.mapping.get("volume"),
        },
        "report": None if report is None else json.loads(report.to_json()),
        "contraction": (None if contraction is None
                        else json.loads(contraction.to_json())),
        "interior_l2": interior_l2,
    }
    os.makedirs(destination, exist_ok=True)
    with open(os.path.join(destination, "report.json"), "w",
              encoding="utf-8") as handle_out:
        handle_out.write(json.dumps(document, indent=2, sort_keys=True))
        handle_out.write("\n")
    with open(os.path.join(destination, "fields.csv"), "w",
              encoding="utf-8", newline="") as handle_out:
        writer = csv.writer(handle_out, lineterminator="\n")
        writer.writerow(("x", "y", "z", "velocity_x", "velocity_y",
                         "velocity_z", "pressure"))
        for point, velocity, pressure in zip(points, fields.velocity,
                                             fields.pressure):
            writer.writerow([repr(float(v)) for v in (*point, *velocity,
                                                      pressure)])
    return destination
