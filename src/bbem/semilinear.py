"""Fixed-point solver for the semilinear drag term β|u|u on the mixed problem.

The velocity solves Δu − αu − β|u|u − ∇π = f with velocity data on one patch
and traction data on the rest.  Moving the nonlinearity to the right side
gives the Picard map v ↦ A(f + β|v|v, h₀, g₀), where A is the linear mixed
solve with volume forcing; for small data the map contracts on a ball and the
iteration converges geometrically, starting from v₀ = 0.

Smallness bookkeeping uses empirical stand-ins for the contraction constants:
C_est bounds the discrete solution map on a sampled data subspace,
c1prime_est bounds the bilinear drag estimate ‖|v|w‖ ≤ c₁′‖v‖‖w‖ over sampled
pairs, and with C₂ = c₁′β the derived radii ζ = 3/(16 C₂ C²) (data ball) and
η = 1/(4 C₂ C) (iterate ball) gate the regime where contraction is expected.
All norms are discrete L² surrogates (area weights on the boundary, cell
weights in the volume).  The estimates are reported, never certified.

Every step and sample applies maps the workspace builds once per grid (the
Newtonian boundary rows, the single-layer rows at the cells); on a full cubic
lattice the Newtonian term at the cells is a scipy.fft convolution.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import NotConverged, SmallnessViolated, UnsupportedParameter
from .potentials import (
    BoundaryField,
    VolumeField,
    _lattice_kernel,
    _lattice_resolution,
    _layer_rows,
    _newtonian_on_grid,
    _volume_values,
)
from .solvers import (
    MIXED,
    BVPSpec,
    solve_poisson,
    _handle_rows,
    _workspace_for,
)

# Seed for the constant-estimation sampler (2³²/φ, a common hashing constant);
# sample i draws from default_rng([seed, i]) so enlarging the sample count
# keeps the earlier samples unchanged.
ESTIMATION_SEED = 2_654_435_769


def _is_count(value):
    """An int or numpy integer, not a bool."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


# ------------------------------------------------------------------ data types

@dataclass(frozen=True)
class PicardConfig:
    """Stopping rules for the fixed-point iteration.

    tol is the successive-difference threshold in the cell-weighted L² norm
    over the volume grid; damping δ blends each update as (1−δ)v + δ·A(v).
    """

    tol: float = 1.0e-8
    max_iter: int = 32
    damping: float = 1.0

    def __post_init__(self):
        if not (np.isfinite(self.tol) and self.tol > 0.0):
            raise ValueError(f"tol must be finite and > 0, got {self.tol}")
        if not _is_count(self.max_iter) or self.max_iter < 1:
            raise ValueError(f"max_iter must be an integer >= 1, "
                             f"got {self.max_iter!r}")
        if not (0.0 < self.damping <= 1.0):
            raise ValueError(f"damping must lie in (0, 1], got {self.damping}")


@dataclass(frozen=True)
class SmallnessConstants:
    """Empirical contraction constants; estimates, never certified bounds."""

    C_est: float
    c1prime_est: float
    C2_est: float
    zeta_est: float
    eta_est: float

    @classmethod
    def derive(cls, C_est, c1prime_est, beta):
        """Fill in C₂ = c₁′β and the radii ζ = 3/(16C₂C²), η = 1/(4C₂C).

        A vanishing product (β = 0, or degenerate samples) leaves the radii
        infinite: the linear problem imposes no smallness restriction.
        """
        C2 = c1prime_est * beta
        zeta = 3.0 / (16.0 * C2 * C_est ** 2) if C2 * C_est > 0.0 else math.inf
        eta = 1.0 / (4.0 * C2 * C_est) if C2 * C_est > 0.0 else math.inf
        return cls(C_est=C_est, c1prime_est=c1prime_est, C2_est=C2,
                   zeta_est=zeta, eta_est=eta)


@dataclass(frozen=True)
class ContractionReport:
    """Diagnostics of one fixed-point run.

    iterates holds the successive-difference norms; measured_ratio is the
    largest tail ratio of consecutive differences (the first ratio is
    excluded when more than one exists, since it reflects the v₀ = 0
    transient rather than the contraction factor).  ball_respected records
    whether every iterate stayed inside the η ball; without constants (the
    β = 0 case) there is no ball to violate and the flag is true.
    """

    iterates: tuple
    measured_ratio: float
    constants: SmallnessConstants | None
    converged: bool
    ball_respected: bool

    def to_json(self):
        def finite(value):
            if value is None or not math.isfinite(value):
                return None
            return value

        c = self.constants
        return json.dumps({
            "iterates": list(self.iterates),
            "measured_ratio": self.measured_ratio,
            "C_est": finite(c.C_est) if c else None,
            "c1prime_est": finite(c.c1prime_est) if c else None,
            "zeta_est": finite(c.zeta_est) if c else None,
            "eta_est": finite(c.eta_est) if c else None,
            "converged": self.converged,
            "ball_respected": self.ball_respected,
        }, sort_keys=True)


# ------------------------------------------------------------------- helpers

def _grid_norm(grid, values):
    return float(np.sqrt(np.einsum("c,ca,ca->", grid.volumes, values, values)))


def _drag(values, beta):
    """Pointwise Euclidean-norm-weighted vector β|v|v."""
    return beta * np.linalg.norm(values, axis=1)[:, None] * values


def _grid_velocity(workspace, handle):
    """Velocity of a forced mixed solve at every cell center of its grid."""
    rows = workspace.grid_velocity_rows(handle.grid)
    flat = handle.density.values.reshape(-1)
    layer = np.einsum("cam,m->ca", rows, flat)
    newtonian, = _newtonian_on_grid(handle.grid, handle.forcing,
                                    handle.params, ("velocity",),
                                    workspace._velocity_lattice(handle.grid))
    return layer + newtonian


# ------------------------------------------------------------ fixed-point run

def picard_solve(mesh, labeling, grid, params, forcing, dirichlet_data,
                 neumann_data, config, initial_velocity=None, constants=None,
                 workspace=None):
    """Solve the semilinear mixed problem by fixed-point iteration.

    Each step solves the linear mixed problem with forcing f + β|v|v sampled
    on the grid and takes the velocity at the cell centers as the next
    iterate.  Returns the forced-solve handle of the last iterate together
    with a ContractionReport.  constants may carry a precomputed
    SmallnessConstants record; when omitted (and β > 0) the estimator runs
    with its defaults so the report is always complete.  initial_velocity
    overrides the v₀ = 0 start, for basin-of-attraction experiments.

    Raises SmallnessViolated when the differences grow for three consecutive
    iterations and exceed ten times the first difference, and NotConverged
    (carrying the report) when max_iter is reached first.
    """
    if params.alpha <= 0.0:
        raise UnsupportedParameter("the fixed-point solver needs alpha > 0")
    base = BVPSpec(kind=MIXED, params=params, mesh=mesh, labeling=labeling,
                   dirichlet_data=dirichlet_data, neumann_data=neumann_data,
                   forcing=forcing, grid=grid)
    ws = _workspace_for(mesh, params, workspace)
    beta = params.beta
    if constants is None and beta > 0.0:
        constants = estimate_constants(mesh, labeling, grid, params,
                                       samples=8, workspace=ws)

    if initial_velocity is None:
        v = np.zeros((grid.n_cells, 3))
    else:
        if isinstance(initial_velocity, VolumeField):
            if initial_velocity.grid is not grid:
                raise ValueError("initial velocity lives on a different grid")
            v = np.array(initial_velocity.values)
        else:
            v = np.array(initial_velocity, dtype=float)
        if v.shape != (grid.n_cells, 3):
            raise ValueError(f"initial velocity must have shape "
                             f"({grid.n_cells}, 3)")
        if not np.all(np.isfinite(v)):
            raise ValueError("initial velocity contains non-finite values")

    diffs = []
    norms = [_grid_norm(grid, v)]
    streak = 0
    converged = False
    handle = None
    for _ in range(config.max_iter):
        forcing_values = forcing.values + _drag(v, beta)
        if not np.all(np.isfinite(forcing_values)):
            raise SmallnessViolated(
                "the nonlinear forcing overflowed; data are far outside the "
                "smallness regime", diagnostics=_diagnostics(diffs, norms,
                                                             streak))
        spec = replace(base, forcing=VolumeField(grid, forcing_values))
        handle, _ = solve_poisson(spec, ws)
        raw = _grid_velocity(ws, handle)
        if beta == 0.0:
            # the map does not depend on v, so its value is the fixed point;
            # damping is skipped because there is nothing to stabilize
            v_next = raw
        else:
            v_next = v + config.damping * (raw - v)
        diff = _grid_norm(grid, v_next - v)
        streak = streak + 1 if diffs and diff > diffs[-1] else 0
        diffs.append(diff)
        norms.append(_grid_norm(grid, v_next))
        v = v_next
        if beta == 0.0 or diff <= config.tol:
            converged = True
            break
        if streak >= 3 and diff > 10.0 * diffs[0]:
            raise SmallnessViolated(
                f"successive differences grew for {streak} consecutive "
                f"iterations and reached {diff:.3e}, more than ten times "
                f"the first difference {diffs[0]:.3e}; the data likely "
                f"violate the smallness condition",
                diagnostics=_diagnostics(diffs, norms, streak))

    report = _contraction_report(diffs, norms, constants, converged)
    if not converged:
        raise NotConverged(
            f"no convergence after {config.max_iter} iterations; last "
            f"difference {diffs[-1]:.3e} vs tol {config.tol:.3e}",
            report=report)
    return handle, report


def _diagnostics(diffs, norms, streak):
    return {
        "differences": list(diffs),
        "iterate_norms": list(norms),
        "first_difference": diffs[0] if diffs else None,
        "last_difference": diffs[-1] if diffs else None,
        "growth_streak": streak,
        "iterations": len(diffs),
    }


def _contraction_report(diffs, norms, constants, converged):
    ratios = [diffs[i + 1] / diffs[i] for i in range(len(diffs) - 1)
              if diffs[i] > 0.0]
    tail = ratios[1:] if len(ratios) > 1 else ratios
    measured = max(tail) if tail else 0.0
    if constants is None:
        ball = True
    else:
        ball = all(n <= constants.eta_est for n in norms)
    return ContractionReport(iterates=tuple(diffs), measured_ratio=measured,
                             constants=constants, converged=converged,
                             ball_respected=ball)


# ------------------------------------------------------- constant estimation

def _smooth_field(points, scale, rng, n_modes=4):
    """Sum of a few low-frequency plane waves with rng coefficients.

    Smooth samples overlap the dominant modes of the solution map; white
    noise at the sample points would concentrate on high frequencies the
    map damps, biasing the norm estimate low.
    """
    out = np.zeros((len(points), 3))
    for _ in range(n_modes):
        wave = rng.normal(size=3) * np.pi / scale
        phase = rng.uniform(0.0, 2.0 * np.pi)
        amplitude = rng.normal(size=3)
        out += amplitude * np.cos(points @ wave + phase)[:, None]
    return out


def _tuple_inner(grid, mesh, first, second):
    """Inner product on data tuples (f, h, g): volume plus both boundary
    pairings."""
    f1, h1, g1 = first
    f2, h2, g2 = second
    return (np.einsum("c,ca,ca->", grid.volumes, f1, f2)
            + np.einsum("p,pa,pa->", mesh.areas, h1, h2)
            + np.einsum("p,pa,pa->", mesh.areas, g1, g2))


def estimate_constants(mesh, labeling, grid, params, samples,
                       workspace=None, seed=ESTIMATION_SEED):
    """Estimate the contraction constants from sampled solves.

    Draws `samples` smooth random data tuples, orthonormalizes them in the
    combined data inner product, and solves the linear mixed problem for
    each.  C_est is the operator norm of the solution map restricted to the
    sampled subspace (the square root of the largest eigenvalue of the
    solution Gram matrix); c1prime_est is the largest ‖|v|w‖/(‖v‖‖w‖) over
    ordered pairs of sampled solution fields.  Sampling is prefix-stable in
    `samples`, so both estimates grow monotonically with the sample count.
    """
    if not _is_count(samples) or samples < 8:
        raise ValueError(f"samples must be an integer >= 8, got {samples!r}")
    if params.alpha <= 0.0:
        raise UnsupportedParameter("constant estimation needs alpha > 0")
    ws = _workspace_for(mesh, params, workspace)
    scale = mesh.scale

    basis = []
    for i in range(samples):
        rng = np.random.default_rng([seed, i])
        f = _smooth_field(grid.centers, scale, rng)
        h = _smooth_field(mesh.centroids, scale, rng)
        g = _smooth_field(mesh.centroids, scale, rng)
        for e in basis:
            coef = _tuple_inner(grid, mesh, (f, h, g), e)
            f = f - coef * e[0]
            h = h - coef * e[1]
            g = g - coef * e[2]
        norm = math.sqrt(_tuple_inner(grid, mesh, (f, h, g), (f, h, g)))
        if norm <= 0.0:
            continue
        basis.append((f / norm, h / norm, g / norm))

    fields = []
    for f, h, g in basis:
        spec = BVPSpec(kind=MIXED, params=params, mesh=mesh,
                       labeling=labeling,
                       dirichlet_data=BoundaryField(mesh, h),
                       neumann_data=BoundaryField(mesh, g),
                       forcing=VolumeField(grid, f), grid=grid)
        handle, _ = solve_poisson(spec, ws)
        fields.append(_grid_velocity(ws, handle))

    gram = np.array([[np.einsum("c,ca,ca->", grid.volumes, ui, uj)
                      for uj in fields] for ui in fields])
    gram = 0.5 * (gram + gram.T)
    C_est = math.sqrt(max(float(np.linalg.eigvalsh(gram)[-1]), 0.0))

    norms = [_grid_norm(grid, u) for u in fields]
    c1prime = 0.0
    for i, ui in enumerate(fields):
        speed = np.linalg.norm(ui, axis=1)
        for j, uj in enumerate(fields):
            if norms[i] == 0.0 or norms[j] == 0.0:
                continue
            mixed = _grid_norm(grid, speed[:, None] * uj)
            c1prime = max(c1prime, mixed / (norms[i] * norms[j]))

    return SmallnessConstants.derive(C_est, c1prime, params.beta)


# ------------------------------------------------------------------- residual

def _lattice_depth(m):
    """Layers between each cell of an m³ lattice and its hull, shape
    (m, m, m).  The residual stencil evaluates cells at depth ≥ 1 and
    tests those at depth ≥ 2, where it never reads a wrapped-around
    neighbor."""
    if m < 5:
        raise ValueError("the residual stencil needs at least 5 cells per "
                         "edge")
    layer = np.minimum(np.arange(m), np.arange(m)[::-1])
    return np.minimum.reduce(np.meshgrid(layer, layer, layer, indexing="ij"))


def _lattice_residual(velocity, pressure, forcing, h, alpha, beta):
    """Residual Δu − αu − β|u|u − ∇π − f on an (m, m, m) lattice of spacing
    h, from 7-point Laplacians and centered pressure gradients, together
    with the drag term β|u|u.  Only cells at depth ≥ 2 are meaningful."""
    laplacian = np.zeros(velocity.shape)
    gradient = np.zeros(velocity.shape)
    for axis in range(3):
        # rolled-in wraparound values land only on the outermost layer
        u_plus = np.roll(velocity, -1, axis=axis)
        u_minus = np.roll(velocity, 1, axis=axis)
        laplacian += (u_plus + u_minus - 2.0 * velocity) / h ** 2
        p_plus = np.roll(pressure, -1, axis=axis)
        p_minus = np.roll(pressure, 1, axis=axis)
        gradient[..., axis] = (p_plus - p_minus) / (2.0 * h)
    drag = _drag(velocity.reshape(-1, 3), beta).reshape(velocity.shape)
    residual = laplacian - alpha * velocity - drag - gradient - forcing
    return residual, drag


def semilinear_residual(handle, grid, params, forcing):
    """Relative finite-difference residual of Δu − αu − β|u|u − ∇π = f.

    Evaluates the handle's velocity and pressure at every lattice cell at
    least one layer inside the hull, forms 7-point Laplacians and centered
    pressure gradients at cells at least two layers inside, and returns the
    cell-weighted L² norm of the residual there, relative to
    ‖f‖ + α‖u‖ + β‖|u|u‖ on the same cells (zero over zero counts as zero).
    Needs a full cubic lattice grid with at least 5 cells per edge, which a
    forced handle must live on (its Newtonian pair is the lattice FFT).
    """
    m = _lattice_resolution(grid)
    if m is None:
        raise ValueError("the residual stencil needs a full cubic lattice "
                         "volume grid")
    depth = _lattice_depth(m)
    f_values = _volume_values(grid, forcing).reshape(m, m, m, 3)
    forced = handle.forcing is not None
    if forced and handle.grid is not grid:
        raise ValueError("the forced handle lives on a different volume grid")

    h = grid.spacing
    evaluated = depth >= 1
    probe = depth >= 2

    # the store's velocity rows at every cell; pressure rows built for these
    store, (velocity_kind, pressure_kind) = _handle_rows(handle)
    cells = evaluated.reshape(-1)
    flat = handle.density.values.reshape(-1)
    velocity_rows = store.rows(grid.centers, (velocity_kind,))[0][cells]
    pressure_rows, = _layer_rows(store.mesh, store.params, grid.centers[cells],
                                 (pressure_kind,))
    velocity = np.full((m, m, m, 3), np.nan)
    pressure = np.full((m, m, m), np.nan)
    velocity[evaluated] = np.einsum("pam,m->pa", velocity_rows, flat)
    pressure[evaluated] = pressure_rows @ flat - handle.pressure_constant
    if forced:
        kinds = ("velocity", "pressure")
        kernel = _lattice_kernel(grid, handle.params, kinds)
        newtonian = _newtonian_on_grid(grid, handle.forcing, handle.params,
                                       kinds, kernel)
        velocity += newtonian[0].reshape(m, m, m, 3)
        pressure += newtonian[1].reshape(m, m, m)
    residual, drag = _lattice_residual(velocity, pressure, f_values, h,
                                       params.alpha, params.beta)

    def cell_norm(block):
        return float(np.sqrt(h ** 3 * np.sum(block ** 2)))

    numerator = cell_norm(residual[probe])
    denominator = (cell_norm(f_values[probe])
                   + params.alpha * cell_norm(velocity[probe])
                   + cell_norm(drag[probe]))
    if denominator == 0.0:
        return 0.0
    return float(numerator / denominator)
