"""Boundary-value-problem solvers built on the dense layer operators.

Representations (interior domain, outward normal):

  Dirichlet   u = W φ with (−½I + K)φ = h₀, pressure Q^d φ
  Neumann     u = V ψ with (½I + K*)ψ = g₀, pressure Q^s ψ
  Mixed       u = V Ψ where the block-row system takes its rows from the
              single-layer trace 𝒱 at Dirichlet panels and from (½I + K*)
              at Neumann panels, pressure Q^s Ψ
  Forced      every solver takes volume forcing f and its grid in the
              spec: u = N f + (the kind's representation solved with data
              shifted by the Newtonian pair: its trace on the rows that
              read the velocity, its traction on the rest)

Every system is an LU solve on a factor the workspace caches, written
over the system's own buffer except for the mixed one, which the residual
reads.  The Dirichlet operator has a one-dimensional defect whose cokernel
is the normal: a datum with net flux is rejected as incompatible, the rest
is projected onto the zero-flux subspace, and an operator with estimated
σ_min/σ_max at most 1e-10 is rejected as numerically singular.

Pressures are defined up to a constant; each solve fixes the constant to
give zero mean over a deterministic interior probe set (domain anchor plus
six axis offsets), stores it on the handle, and evaluation subtracts it.
The workspace builds the probe set once, and each point set's evaluation
rows (probe pressures, grid velocities, evaluate_solution's fields) once,
in one row store that every handle it solves carries.
"""

from __future__ import annotations

import json
import time
from dataclasses import asdict, dataclass, field

import numpy as np
import scipy.linalg

from .errors import (
    FluxIncompatible,
    IllConditioned,
    InvalidLabeling,
    NoInteriorProbes,
    UnsupportedParameter,
)
from .geometry import (
    DIRICHLET,
    NEUMANN,
    PatchLabeling,
    SurfaceMesh,
    VolumeGrid,
    panel_quadrature,
    winding_number,
)
from .kernels import BrinkmanParams
from .potentials import (
    BoundaryField,
    VolumeField,
    assemble_double_layer,
    assemble_single_layer,
    eval_double_layer,
    eval_single_layer,
    newtonian_pressure,
    _layer_rows,
    _near_search,
    _newtonian_sums,
)

MIXED = "mixed"
_KINDS = (DIRICHLET, NEUMANN, MIXED)

SINGLE_LAYER = "single_layer"
DOUBLE_LAYER = "double_layer"
MIXED_SINGLE_LAYER = "mixed_single_layer"
WITH_NEWTONIAN = "with_newtonian"

_SINGULAR_CUTOFF = 1.0e-10


# ------------------------------------------------------------------ data types

@dataclass(frozen=True)
class BVPSpec:
    """One boundary-value problem: geometry, parameters, and data.

    Data fields are full-boundary fields; for mixed problems only the values
    on the matching patch are read.
    """

    kind: str
    params: BrinkmanParams
    mesh: SurfaceMesh
    labeling: PatchLabeling | None = None
    dirichlet_data: BoundaryField | None = None
    neumann_data: BoundaryField | None = None
    forcing: VolumeField | None = None
    grid: VolumeGrid | None = None
    quadrature_order: int = 6
    flux_tol: float = 1.0e-8

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise ValueError(f"unknown problem kind {self.kind!r}")
        if self.kind in (DIRICHLET, MIXED) and self.dirichlet_data is None:
            raise ValueError(f"{self.kind} problem needs dirichlet_data")
        if self.kind in (NEUMANN, MIXED) and self.neumann_data is None:
            raise ValueError(f"{self.kind} problem needs neumann_data")
        for data in (self.dirichlet_data, self.neumann_data):
            if data is not None and data.mesh is not self.mesh:
                raise ValueError("boundary data live on a different mesh")
        if self.kind == MIXED:
            if self.labeling is None:
                raise InvalidLabeling("mixed problem needs a patch labeling")
            if len(self.labeling.panel_label) != self.mesh.n_panels:
                raise InvalidLabeling("labeling does not match the mesh")
            if self.labeling.n_dirichlet == 0 or self.labeling.n_neumann == 0:
                raise InvalidLabeling(
                    "mixed problem needs nonempty Dirichlet and Neumann "
                    "patches; use the dedicated solver for pure problems")
        if (self.forcing is None) != (self.grid is None):
            raise ValueError("volume forcing and grid come together")
        if self.forcing is not None and self.forcing.grid is not self.grid:
            raise ValueError("forcing lives on a different volume grid")
        if self.flux_tol <= 0.0:
            raise ValueError("flux_tol must be positive")


@dataclass(frozen=True)
class SolutionHandle:
    """Evaluable representation of one solved problem.

    For WITH_NEWTONIAN handles, layer_tag names the wrapped homogeneous
    representation and the forcing/grid pair contributes the volume terms.
    """

    tag: str
    density: BoundaryField
    params: BrinkmanParams
    quadrature_order: int = 6
    pressure_constant: float = 0.0
    layer_tag: str | None = None
    forcing: VolumeField | None = None
    grid: VolumeGrid | None = None
    row_store: _RowStore | None = field(default=None, compare=False,
                                        repr=False)


@dataclass(frozen=True)
class FieldSolution:
    """Velocity and pressure samples at evaluation points."""

    points: np.ndarray
    velocity: np.ndarray
    pressure: np.ndarray


@dataclass(frozen=True)
class SolveReport:
    """Diagnostics of one solve; serializes to a flat JSON document.

    sigma_min and sigma_max bound the Dirichlet operator's extreme singular
    values from above (_sigma_range on its LU factor) and from below (power
    steps through K); None for Neumann and mixed."""

    kind: str
    alpha: float
    residual_l2: float
    sigma_min: float | None
    sigma_max: float | None
    pressure_constant: float
    wall_time_s: float
    warnings: tuple = ()

    def to_json(self):
        return json.dumps(asdict(self), sort_keys=True)


class _RowStore:
    """Read-only layer-evaluation rows of one mesh, quadrature and α: each
    kinds tuple keeps the rows of its most recent point set, keyed on the
    points' shape and bytes, since callers may edit a point array in place."""

    def __init__(self, mesh, quadrature, params):
        self.mesh, self.quadrature, self.params = mesh, quadrature, params
        self._entries = {}

    def rows(self, points, kinds):
        key = (points.shape, points.tobytes())
        entry = self._entries.get(kinds)
        if entry is None or entry[0] != key:
            rows = _layer_rows(self.mesh, self.quadrature, self.params,
                               points, kinds)
            for array in rows:
                array.setflags(write=False)
            entry = self._entries[kinds] = (key, rows)
        return entry[1]


class SolverWorkspace:
    """Lazily assembled operators for one mesh, α and quadrature order.

    Solvers accept a shared workspace so iterative callers pay for assembly
    and factorization once: each kind's system (mixed: per labeling) is
    LU-factored once.  No linear operator reads β, so it serves every β.
    """

    def __init__(self, mesh, params, quadrature_order=6):
        self.mesh = mesh
        self.params = params
        self.quadrature_order = quadrature_order
        self.quadrature = panel_quadrature(mesh, quadrature_order)
        self._single = None
        self._double = None
        self._mixed_sys = {}
        self._mixed_lu = {}
        self._neumann_lu = None
        self._dirichlet_lu = None
        self._probes = None
        self.row_store = _RowStore(mesh, self.quadrature, params)

    def matches(self, mesh, params, quadrature_order):
        return (mesh is self.mesh and params.alpha == self.params.alpha
                and quadrature_order == self.quadrature_order)

    @property
    def single_layer(self):
        if self._single is None:
            self._single = assemble_single_layer(self.mesh, self.quadrature,
                                                 self.params)
        return self._single

    @property
    def double_layer(self):
        if self._double is None:
            self._double = assemble_double_layer(self.mesh, self.quadrature,
                                                 self.params)
        return self._double

    def dirichlet_factorization(self):
        """LU factor of −½I + K and its (σ_min, σ_max) estimate, σ_max by
        30 seeded power steps on AᵀA applied through K (a lower bound)."""
        if self._dirichlet_lu is None:
            matrix = self.double_layer.matrix
            system = np.array(matrix, order="F")
            system.flat[::len(system) + 1] -= 0.5
            lu = scipy.linalg.lu_factor(system, overwrite_a=True)
            high = np.random.default_rng(0).standard_normal(len(matrix))
            for _ in range(30):
                applied = -0.5 * high + matrix @ high
                high = -0.5 * applied + matrix.T @ applied
                high /= np.linalg.norm(high)
            sigma_max = float(np.linalg.norm(-0.5 * high + matrix @ high))
            self._dirichlet_lu = (lu, (float(_sigma_range(lu)[0][0]),
                                       sigma_max))
        return self._dirichlet_lu

    def neumann_factorization(self):
        if self._neumann_lu is None:
            self._neumann_lu = scipy.linalg.lu_factor(
                _traction_system(self, 0.5), overwrite_a=True)
        return self._neumann_lu

    def mixed_matrix(self, labeling):
        cached = self._mixed_sys.get(labeling)
        if cached is None:
            cached = _traction_system(self, 0.5)
            rows = np.repeat(labeling.dirichlet_mask, 3)
            cached[rows] = self.single_layer.matrix[rows]
            cached.setflags(write=False)
            self._mixed_sys[labeling] = cached
        return cached

    def mixed_factorization(self, labeling):
        cached = self._mixed_lu.get(labeling)
        if cached is None:
            cached = scipy.linalg.lu_factor(self.mixed_matrix(labeling))
            self._mixed_lu[labeling] = cached
        return cached

    def grid_velocity_rows(self, grid):
        """Single-layer velocity evaluation rows at the grid cell centers,
        shape (n_cells, 3, 3N), from the row store."""
        return self.row_store.rows(grid.centers, ("V",))[0]

    def pressure_anchor(self, kind):
        """The interior pressure probes, searched once, and the "Qs" or "Qd"
        rows there, shape (probes, 3N), from the row store."""
        if self._probes is None:
            self._probes = _pressure_probe_points(self.mesh)
        return self._probes, self.row_store.rows(self._probes, (kind,))[0]


def _workspace_for(mesh, params, quadrature_order, workspace):
    if workspace is None:
        return SolverWorkspace(mesh, params, quadrature_order)
    if not workspace.matches(mesh, params, quadrature_order):
        raise ValueError("workspace was built for a different problem")
    return workspace


# ------------------------------------------------------------ pressure anchor

def _pressure_probe_points(mesh):
    """Deterministic interior probe set: the vertex-mean anchor plus six
    axis offsets, filtered to points that are safely inside."""
    anchor = mesh.vertices.mean(axis=0)
    offsets = 0.2 * mesh.scale * np.vstack([np.zeros(3), np.eye(3),
                                            -np.eye(3)])
    probes = anchor + offsets
    inside = winding_number(mesh, probes) > 0.99
    margin = 0.25 * mesh.diameters.max()
    clear = _near_search(mesh, probes)[4] > margin
    kept = probes[inside & clear]
    if len(kept) == 0:
        raise NoInteriorProbes("none of the pressure probes around the vertex "
                               "mean lies inside this mesh, clear of it")
    return kept


def _pressure_constant(tag, ws, density, forcing=None, grid=None):
    probes, rows = ws.pressure_anchor("Qd" if tag == DOUBLE_LAYER else "Qs")
    values = rows @ density.reshape(-1)
    if forcing is not None:
        values = values + newtonian_pressure(grid, forcing, probes)
    return float(values.mean())


# ------------------------------------------------------------------- solvers

def _flux_check(h0, mesh, flux_tol):
    nu = BoundaryField(mesh, mesh.normals)
    flux = h0.inner(nu)
    scale = h0.norm() * nu.norm()
    if scale == 0.0:
        return
    if abs(flux) > flux_tol * scale:
        raise FluxIncompatible(
            f"Dirichlet datum has relative net flux {abs(flux) / scale:.3e}, "
            f"above the compatibility tolerance {flux_tol:.1e}")


def _lu_solve(lu, rhs, what, trans=0):
    """Solve with a cached LU factor of the named system (its transpose for
    trans=1); a failed or non-finite solve raises IllConditioned."""
    try:
        x = scipy.linalg.lu_solve(lu, rhs, trans=trans)
    except (ValueError, np.linalg.LinAlgError) as exc:
        raise IllConditioned(f"{what} system factorization failed: {exc}")
    if not np.all(np.isfinite(x)):
        raise IllConditioned(f"{what} solve produced non-finite values")
    return x


def _traction_system(ws, diagonal):
    """±½I + K* (diagonal ±0.5) with K* = W⁻¹KᵀW the area-weighted adjoint
    (see adjoint_double_layer), written from K into one Fortran-ordered
    buffer."""
    w = np.repeat(ws.mesh.areas, 3)
    transposed = np.divide(w[:, None], w[None, :])
    transposed *= ws.double_layer.matrix
    transposed.flat[::len(w) + 1] += diagonal
    return transposed.T


def _sigma_range(lu, block=1):
    """The block smallest σ of a square A (ascending) and their right vectors
    as columns, from A's LU alone: 30 seeded steps of block inverse iteration
    on (AᵀA)⁻¹ (lu_solve with trans=1, then plain, then a QR; Golub & Van
    Loan, ch. 8), then Rayleigh–Ritz by a thin SVD of A⁻ᵀX, whose values are
    1/σ (each σ an upper bound, NaN for an exactly singular factor)."""
    x = np.random.default_rng(0).standard_normal((len(lu[0]), block))
    for _ in range(30):
        x = scipy.linalg.lu_solve(lu, x, trans=1, check_finite=False)
        x = scipy.linalg.lu_solve(lu, x, check_finite=False)
        x = np.linalg.qr(x)[0]
    applied = scipy.linalg.lu_solve(lu, x, trans=1, check_finite=False)
    if not np.all(np.isfinite(applied)):
        return np.full(block, np.nan), x
    _, inverse, vt = np.linalg.svd(applied, full_matrices=False)
    return 1.0 / inverse, x @ vt.T


def _rhs(spec):
    """The right-hand side, shape (n_panels, 3): the Dirichlet datum less the
    Newtonian trace on rows that read the velocity trace (all for Dirichlet,
    the Dirichlet patch for mixed), the Neumann datum less the Newtonian
    traction on the rest; each sum runs on its own rows only."""
    mesh = spec.mesh
    reads_trace = (spec.labeling.dirichlet_mask if spec.kind == MIXED
                   else np.full(mesh.n_panels, spec.kind == DIRICHLET))
    rhs = np.empty((mesh.n_panels, 3))
    for rows, datum, kind in ((reads_trace, spec.dirichlet_data, "velocity"),
                              (~reads_trace, spec.neumann_data, "traction")):
        if not rows.any():
            continue
        rhs[rows] = datum.values[rows]
        if spec.forcing is not None:
            newtonian, = _newtonian_sums(spec.grid, spec.forcing,
                                         mesh.centroids[rows], spec.params,
                                         (kind,), mesh.normals[rows])
            rhs[rows] -= newtonian
    return rhs


def _solved(spec, ws, tag, x, applied, rhs, t0, sigma=(None, None),
            warnings=()):
    """Handle and report of the density x solving a collocation system
    A x = rhs, given applied = A x; t0 is the solve's start time.  A forced
    spec gives a WITH_NEWTONIAN handle wrapping the layer tag."""
    rhs_norm = np.linalg.norm(rhs)
    residual_l2 = (float(np.linalg.norm(applied - rhs) / rhs_norm)
                   if rhs_norm > 0.0 else 0.0)
    density = BoundaryField(spec.mesh, x.reshape(-1, 3))
    constant = _pressure_constant(tag, ws, density.values, spec.forcing,
                                  spec.grid)
    forced = spec.forcing is not None
    handle = SolutionHandle(tag=WITH_NEWTONIAN if forced else tag,
                            density=density, params=spec.params,
                            quadrature_order=spec.quadrature_order,
                            pressure_constant=constant,
                            layer_tag=tag if forced else None,
                            forcing=spec.forcing, grid=spec.grid,
                            row_store=ws.row_store)
    report = SolveReport(kind=spec.kind, alpha=spec.params.alpha,
                         residual_l2=residual_l2, sigma_min=sigma[0],
                         sigma_max=sigma[1], pressure_constant=constant,
                         wall_time_s=time.perf_counter() - t0,
                         warnings=tuple(warnings))
    return handle, report


def solve_dirichlet(spec, workspace=None):
    """Interior Dirichlet problem via the double-layer representation."""
    if spec.kind != DIRICHLET:
        raise ValueError("spec kind must be dirichlet")
    t0 = time.perf_counter()
    ws = _workspace_for(spec.mesh, spec.params, spec.quadrature_order, workspace)
    mesh = spec.mesh
    # the user datum carries the flux obstruction; the Newtonian trace is
    # divergence-free, so the shifted datum is compatible up to quadrature
    _flux_check(spec.dirichlet_data, mesh, spec.flux_tol)
    h0 = BoundaryField(mesh, _rhs(spec))

    nu = BoundaryField(mesh, mesh.normals)
    coef = h0.inner(nu) / nu.inner(nu)
    data = h0.values - coef * nu.values
    run_warnings = []
    scale = h0.norm() * nu.norm()
    if scale > 0.0 and abs(h0.inner(nu)) > 0.01 * spec.flux_tol * scale:
        run_warnings.append("projected out a nonzero flux component")

    lu, sigma = ws.dirichlet_factorization()
    if not sigma[0] > _SINGULAR_CUTOFF * sigma[1]:
        raise IllConditioned(
            f"Dirichlet system is numerically singular: estimated σ_min/"
            f"σ_max {sigma[0] / sigma[1]:.1e}, cutoff {_SINGULAR_CUTOFF:.0e}")
    rhs = data.reshape(-1)
    phi = _lu_solve(lu, rhs, "Dirichlet")
    return _solved(spec, ws, DOUBLE_LAYER, phi,
                   -0.5 * phi + ws.double_layer.matrix @ phi, rhs, t0,
                   sigma=sigma, warnings=run_warnings)


def solve_neumann(spec, workspace=None):
    """Interior Neumann problem via the single-layer representation."""
    if spec.kind != NEUMANN:
        raise ValueError("spec kind must be neumann")
    if spec.params.alpha <= 0.0:
        raise UnsupportedParameter(
            "the Neumann problem needs alpha > 0; the alpha = 0 system has "
            "rigid-motion defects")
    t0 = time.perf_counter()
    ws = _workspace_for(spec.mesh, spec.params, spec.quadrature_order, workspace)
    rhs = _rhs(spec).reshape(-1)
    psi = _lu_solve(ws.neumann_factorization(), rhs, "Neumann")
    w = np.repeat(spec.mesh.areas, 3)                # K*ψ = Kᵀ(Wψ)/W
    applied = 0.5 * psi + ws.double_layer.matrix.T @ (w * psi) / w
    return _solved(spec, ws, SINGLE_LAYER, psi, applied, rhs, t0)


def solve_mixed(spec, workspace=None):
    """Mixed Dirichlet-Neumann problem via the single-layer representation."""
    if spec.kind != MIXED:
        raise ValueError("spec kind must be mixed")
    if spec.params.alpha <= 0.0:
        raise UnsupportedParameter("the mixed problem needs alpha > 0")
    t0 = time.perf_counter()
    ws = _workspace_for(spec.mesh, spec.params, spec.quadrature_order, workspace)
    labeling = spec.labeling
    rhs = _rhs(spec).reshape(-1)
    psi = _lu_solve(ws.mixed_factorization(labeling), rhs, "mixed")
    return _solved(spec, ws, MIXED_SINGLE_LAYER, psi,
                   ws.mixed_matrix(labeling) @ psi, rhs, t0)


def _solve(spec, workspace=None):
    """Solve the spec with its kind's solver, looked up at call time."""
    solver = {DIRICHLET: solve_dirichlet, NEUMANN: solve_neumann,
              MIXED: solve_mixed}[spec.kind]
    return solver(spec, workspace)


class NeumannToDirichletMap:
    """Dense Neumann-to-Dirichlet operator: traction datum in, velocity
    trace restricted to the Dirichlet patch out."""

    def __init__(self, matrix, mesh, labeling):
        matrix.setflags(write=False)
        self.matrix = matrix
        self.mesh = mesh
        self.labeling = labeling

    def apply(self, data):
        values = data.values if isinstance(data, BoundaryField) else np.asarray(data)
        out = (self.matrix @ values.reshape(-1)).reshape(-1, 3)
        return BoundaryField(self.mesh, out)

    @property
    def dirichlet_submatrix(self):
        """Rows and columns restricted to Dirichlet-patch panels."""
        sel = np.repeat(self.labeling.dirichlet_mask, 3)
        return self.matrix[np.ix_(sel, sel)]


def neumann_to_dirichlet(mesh, labeling, params, quadrature_order=6,
                         workspace=None):
    """Compose the Neumann solve with the single-layer trace, restricted to
    the Dirichlet patch."""
    if params.alpha <= 0.0:
        raise UnsupportedParameter(
            "the Neumann-to-Dirichlet map needs alpha > 0")
    if labeling.n_dirichlet == 0:
        raise InvalidLabeling("the Dirichlet patch is empty")
    workspace = _workspace_for(mesh, params, quadrature_order, workspace)
    composed = _lu_solve(workspace.neumann_factorization(),  # (A⁻ᵀVᵀ)ᵀ
                         workspace.single_layer.matrix.T, "Neumann", 1).T
    composed[~np.repeat(labeling.dirichlet_mask, 3)] = 0.0
    return NeumannToDirichletMap(composed, mesh, labeling)


def solve_poisson(spec, workspace=None):
    """Forced problem of any kind: the spec's solver adds the Newtonian
    particular solution and solves with shifted boundary data.  Unlike the
    kind's own solver, it refuses a spec without volume forcing."""
    if spec.forcing is None:
        raise ValueError("solve_poisson needs volume forcing and a grid")
    return _solve(spec, workspace)


# ---------------------------------------------------------------- evaluation

def _handle_rows(handle):
    """The handle's row store (a hand-built handle gets a fresh one) and the
    (velocity, pressure) row kinds of its layer."""
    mesh = handle.density.mesh
    store = handle.row_store or _RowStore(
        mesh, panel_quadrature(mesh, handle.quadrature_order), handle.params)
    layer = handle.layer_tag if handle.tag == WITH_NEWTONIAN else handle.tag
    return store, ("W", "Qd") if layer == DOUBLE_LAYER else ("V", "Qs")


def evaluate_solution(handle, points):
    """Velocity and pressure of a solved representation at interior points.

    The layer rows come from the handle's row store (a hand-built handle
    gets a fresh one), so a repeated point set is integrated once."""
    points = np.atleast_2d(np.asarray(points, dtype=float))
    if points.ndim != 2 or points.shape[1] != 3:
        raise ValueError(f"evaluation points must have shape (P, 3), got "
                         f"{points.shape}")
    bad = np.flatnonzero(~np.isfinite(points).all(axis=1))
    if len(bad):
        raise ValueError(f"evaluation point {bad[0]} is not finite: "
                         f"{points[bad[0]]}")
    store, kinds = _handle_rows(handle)
    flat = handle.density.values.reshape(-1)
    velocity, pressure = (np.einsum("pam,m->pa", rows, flat) if rows.ndim == 3
                          else rows @ flat for rows in store.rows(points, kinds))
    if handle.tag == WITH_NEWTONIAN:
        newtonian = _newtonian_sums(handle.grid, handle.forcing, points,
                                    handle.params, ("velocity", "pressure"))
        velocity = velocity + newtonian[0]
        pressure = pressure + newtonian[1]
    return FieldSolution(points=points, velocity=velocity,
                         pressure=pressure - handle.pressure_constant)


def greens_identity_residual(u_trace, traction, params, points,
                             exact_velocity=None, quadrature_order=6):
    """Residual of the direct representation V(traction) − W(trace) − u.

    When exact_velocity is omitted the caller receives V(traction) − W(trace)
    and subtracts their own reference field.
    """
    points = np.atleast_2d(np.asarray(points, dtype=float))
    mesh = u_trace.mesh
    if traction.mesh is not mesh:
        raise ValueError("trace and traction live on different meshes")
    quadrature = panel_quadrature(mesh, quadrature_order)
    rep = (eval_single_layer(mesh, traction.values, points, params, quadrature)
           - eval_double_layer(mesh, u_trace.values, points, params,
                               quadrature))
    if exact_velocity is None:
        return rep
    return rep - np.asarray(exact_velocity, dtype=float)