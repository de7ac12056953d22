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
              read the velocity, its traction on the rest, from rows the
              workspace builds once per grid)

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

import functools
import json
import time
from concurrent.futures import ThreadPoolExecutor
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
    check_closed,
    winding_number,
)
from .kernels import BrinkmanParams
from .potentials import (
    BoundaryField,
    VolumeField,
    assemble_double_layer,
    assemble_single_layer,
    _boundary_operators,
    _lattice_kernel,
    _layer_rows,
    _near_search,
    _newtonian_rows,
    _newtonian_sums,
    _thread_count,
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
        if not (np.isfinite(self.flux_tol) and self.flux_tol > 0.0):
            raise ValueError("flux_tol must be finite and positive")


@dataclass(frozen=True)
class SolutionHandle:
    """Evaluable representation of one solved problem.

    For WITH_NEWTONIAN handles, layer_tag names the wrapped homogeneous
    representation and the forcing/grid pair contributes the volume terms.
    """

    tag: str
    density: BoundaryField
    params: BrinkmanParams
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
    values from above (_sigma_range on its LU factor) and from below (by
    Lanczos through K, _sigma_max); None for Neumann and mixed."""

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
    """Read-only layer-evaluation rows of one mesh and α: each kinds tuple
    keeps the rows of its most recent point set, keyed on the points' shape
    and bytes (callers may edit a point array in place); inside=True refuses
    a point outside Ω.  want() queues a set for the workspace's next LU
    (_factor) or its first read, whichever comes first; a failed build is
    raised by that read."""

    def __init__(self, mesh, params):
        self.mesh, self.params = mesh, params
        self._entries, self._queue = {}, {}

    def want(self, points, kinds, inside=False):
        key = (points.shape, points.tobytes())
        if self._entries.get(kinds, (None,))[0] != key:
            self._queue[kinds] = key, points.copy(), inside

    def build_queued(self, only=None):
        for kinds in [k for k in list(self._queue) if only in (None, k)]:
            key, points, inside = self._queue.pop(kinds)
            try:
                rows = _layer_rows(self.mesh, self.params, points, kinds)
                outside = inside and winding_number(self.mesh, points) < 0.5
                if np.any(outside):
                    at = int(np.argmax(outside))
                    raise ValueError(f"evaluation point {at} lies outside "
                                     f"the domain: {points[at]}")
                for array in rows:
                    array.setflags(write=False)
            except Exception as exc:
                rows = exc
            self._entries[kinds] = key, rows

    def rows(self, points, kinds, inside=False):
        self.want(points, kinds, inside)
        self.build_queued(kinds)
        if isinstance(self._entries[kinds][1], Exception):
            raise self._entries.pop(kinds)[1]
        return self._entries[kinds][1]


class SolverWorkspace:
    """Lazily assembled operators for one mesh and α.

    Solvers accept a shared workspace so iterative callers pay for assembly
    and factorization once: each kind's system (mixed: per labeling) is
    LU-factored once.  The systems that read both V and K build them from
    one plan.  No linear operator reads β, so it serves any β at fixed mesh
    and α.  It refuses an open mesh (check_closed names the bad edge).
    Past one thread each LU runs beside the queued row builds (_factor).
    """

    def __init__(self, mesh, params):
        check_closed(mesh)
        self.mesh, self.params = mesh, params
        self._mixed_sys = {}
        self._mixed_lu = {}
        self._neumann_lu = None
        self._dirichlet_lu = None
        self._grid = None, {}
        self.row_store = _RowStore(mesh, params)

    def matches(self, mesh, params):
        return mesh is self.mesh and params.alpha == self.params.alpha

    @functools.cached_property
    def single_layer(self):
        return assemble_single_layer(self.mesh, self.params)

    @functools.cached_property
    def double_layer(self):
        return assemble_double_layer(self.mesh, self.params)

    def _both_layers(self):
        """Build V and K from one plan unless either is built already."""
        if not {"single_layer", "double_layer"} & vars(self).keys():
            self.single_layer, self.double_layer = _boundary_operators(
                self.mesh, self.params, ("V", "W"))

    def _factor(self, system, then=lambda lu: lu, other=lambda: None):
        """(then(LU of system), other()), the LU written over system unless
        that is read-only.  With _thread_count() > 1 the LU (LAPACK drops the
        GIL) and then() run on a helper thread, joined on every path, while
        this one runs other() and the row store's queued builds."""
        factor = lambda: then(scipy.linalg.lu_factor(  # noqa: E731
            system, overwrite_a=system.flags.writeable, check_finite=False))
        if _thread_count() == 1:
            return factor(), other()
        with ThreadPoolExecutor(max_workers=1) as helper:
            factored = helper.submit(factor)
            beside = other()
            self.row_store.build_queued()
            return factored.result(), beside

    def dirichlet_factorization(self):
        """LU factor of −½I + K and its (σ_min, σ_max) estimate: _sigma_range
        on the factor after the LU, _sigma_max beside them (_factor)."""
        if self._dirichlet_lu is None:
            matrix = self.double_layer.matrix
            system = np.array(matrix, order="F")
            system.flat[::len(system) + 1] -= 0.5
            (lu, low), high = self._factor(
                system, lambda lu: (lu, float(_sigma_range(lu)[0][0])),
                lambda: _sigma_max(matrix))
            self._dirichlet_lu = (lu, (low, high))
        return self._dirichlet_lu

    def neumann_factorization(self):
        if self._neumann_lu is None:
            self._neumann_lu = self._factor(_traction_system(self, 0.5))[0]
        return self._neumann_lu

    def mixed_matrix(self, labeling):
        cached = self._mixed_sys.get(labeling)
        if cached is None:
            self._both_layers()
            cached = _traction_system(self, 0.5)
            rows = np.repeat(labeling.dirichlet_mask, 3)
            cached[rows] = self.single_layer.matrix[rows]
            cached.setflags(write=False)
            self._mixed_sys[labeling] = cached
        return cached

    def mixed_factorization(self, labeling):
        cached = self._mixed_lu.get(labeling)
        if cached is None:
            cached = self._mixed_lu[labeling] = self._factor(
                self.mixed_matrix(labeling))[0]
        return cached

    def grid_velocity_rows(self, grid):
        """Single-layer velocity evaluation rows at the grid cell centers,
        shape (n_cells, 3, 3N), from the row store."""
        return self.row_store.rows(grid.centers, ("V",))[0]

    @functools.cached_property
    def probes(self):
        """The interior pressure probes, searched once; their "Qs" and "Qd"
        rows come from the row store."""
        return _pressure_probe_points(self.mesh)

    def _grid_data(self, grid, item, build):
        """item of the latest grid's data, build() on first use: the forced
        solves' Newtonian maps per reads_trace, the velocity's lattice."""
        key = (grid.centers.tobytes(), grid.volumes.tobytes())
        if self._grid[0] != key:
            self._grid = key, {}
        if item not in self._grid[1]:
            self._grid[1][item] = build()
        return self._grid[1][item]

    def newtonian_rows(self, grid, reads_trace):
        """_newtonian_rows of forced solves on grid (velocity where the trace
        is read, traction elsewhere, pressure at the probes), latest grid."""
        mesh, on = self.mesh, reads_trace
        return self._grid_data(grid, on.tobytes(), lambda: (
            _newtonian_rows(grid, mesh.centroids[on], self.params,
                            "velocity", mesh.normals[on]),
            _newtonian_rows(grid, mesh.centroids[~on], self.params,
                            "traction", mesh.normals[~on]),
            _newtonian_rows(grid, self.probes, None, "pressure")))

    def _velocity_lattice(self, grid):
        """The grid's _lattice_kernel of the velocity, latest grid."""
        return self._grid_data(grid, "lattice", lambda: _lattice_kernel(
            grid, self.params, ("velocity",)))


def _workspace_for(mesh, params, workspace):
    if workspace is None:
        return SolverWorkspace(mesh, params)
    if not workspace.matches(mesh, params):
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
    as columns, from A's LU alone: seeded block inverse iteration on (AᵀA)⁻¹
    (lu_solve with trans=1, then plain, then a QR; Golub & Van Loan, ch. 8),
    each step's A⁻ᵀX giving Rayleigh–Ritz values 1/σ by a thin SVD (each σ an
    upper bound, NaN for an exactly singular factor) until all move by at most
    1e-13 relative in a step, or for 30 steps."""
    x = np.random.default_rng(0).standard_normal((len(lu[0]), block))
    previous = np.inf
    for step in range(31):
        applied = scipy.linalg.lu_solve(lu, x, trans=1, check_finite=False)
        if not np.all(np.isfinite(applied)):
            return np.full(block, np.nan), x
        _, inverse, vt = np.linalg.svd(applied, full_matrices=False)
        if step == 30 or np.all(abs(inverse - previous) <= 1.0e-13 * inverse):
            return 1.0 / inverse, x @ vt.T
        previous = inverse
        x = np.linalg.qr(scipy.linalg.lu_solve(lu, applied,
                                               check_finite=False))[0]


def _sigma_max(matrix):
    """σ_max of A = −½I + matrix from below: the top σ of B in the seeded
    Golub–Kahan–Lanczos bidiagonalization A V = U B (Golub & Van Loan, ch.
    10), each column orthogonalized twice against those before it on its
    side, stopped as _sigma_range is; NaN once B is not finite."""
    basis, b = np.zeros((2, 30, len(matrix))), np.zeros((30, 30))
    x, previous = np.random.default_rng(0).standard_normal(len(matrix)), 0.0
    for i in range(60):     # v_0, u_0, v_1, …: A v_k = β_k−1 u_k−1 + α_k u_k
        side, k = basis[i % 2], i // 2
        for _ in range(2):
            x = x - side[:k].T @ (side[:k] @ x)
        norm = np.linalg.norm(x)
        if norm == 0.0:     # breakdown: the Krylov space is invariant
            return float(previous)
        side[k] = x / norm
        if i:
            b[(i - 1) // 2, k] = norm
        if i % 2:           # α_k on the diagonal of B's leading k + 1 block
            top = (np.linalg.svd(b[:k + 1, :k + 1], compute_uv=False)[0]
                   if np.isfinite(b[k, k]) else np.nan)
            if i == 59 or not abs(top - previous) > 1.0e-13 * top:
                return float(top)
            previous = top
        x = -0.5 * side[k] + (matrix.T if i % 2 else matrix) @ side[k]


def _reads_trace(spec):
    """Panels that read the velocity trace (mixed: the Dirichlet patch)."""
    return (spec.labeling.dirichlet_mask if spec.kind == MIXED
            else np.full(spec.mesh.n_panels, spec.kind == DIRICHLET))


def _rhs(spec, ws):
    """The right-hand side, shape (n_panels, 3): the Dirichlet datum less the
    Newtonian trace on rows that read the velocity trace, the Neumann datum
    less the Newtonian traction on the rest, from the workspace's maps."""
    reads_trace = _reads_trace(spec)
    maps = (ws.newtonian_rows(spec.grid, reads_trace)
            if spec.forcing is not None else (None, None))
    rhs = np.empty((spec.mesh.n_panels, 3))
    for rows, datum, newtonian in ((reads_trace, spec.dirichlet_data, maps[0]),
                                   (~reads_trace, spec.neumann_data, maps[1])):
        if not rows.any():
            continue
        rhs[rows] = datum.values[rows]
        if newtonian is not None:
            rhs[rows] -= np.einsum("pam,m->pa", newtonian,
                                   spec.forcing.values.reshape(-1))
    return rhs


def _solved(spec, ws, tag, x, applied, rhs, t0, sigma=(None, None),
            warnings=()):
    """Handle and report of the density x solving a collocation system
    A x = rhs, given applied = A x; t0 is the solve's start time.  A forced
    spec gives a WITH_NEWTONIAN handle wrapping the layer tag.  The pressure
    constant is the mean pressure at the workspace's probes."""
    rhs_norm = np.linalg.norm(rhs)
    residual_l2 = (float(np.linalg.norm(applied - rhs) / rhs_norm)
                   if rhs_norm > 0.0 else 0.0)
    density = BoundaryField(spec.mesh, x.reshape(-1, 3))
    forced = spec.forcing is not None
    rows, = ws.row_store.rows(ws.probes,
                              ("Qd" if tag == DOUBLE_LAYER else "Qs",))
    pressure = rows @ density.values.reshape(-1)
    if forced:
        newtonian = ws.newtonian_rows(spec.grid, _reads_trace(spec))[2]
        pressure = pressure + newtonian @ spec.forcing.values.reshape(-1)
    constant = float(pressure.mean())
    handle = SolutionHandle(tag=WITH_NEWTONIAN if forced else tag,
                            density=density, params=spec.params,
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
    ws = _workspace_for(spec.mesh, spec.params, workspace)
    mesh = spec.mesh
    # the user datum carries the flux obstruction; the Newtonian trace is
    # divergence-free, so the shifted datum is compatible up to quadrature
    _flux_check(spec.dirichlet_data, mesh, spec.flux_tol)
    h0 = BoundaryField(mesh, _rhs(spec, ws))

    nu = BoundaryField(mesh, mesh.normals)
    coef = h0.inner(nu) / nu.inner(nu)
    data = h0.values - coef * nu.values
    run_warnings = []
    scale = h0.norm() * nu.norm()
    if scale > 0.0 and abs(h0.inner(nu)) > 0.01 * spec.flux_tol * scale:
        run_warnings.append("projected out a nonzero flux component")

    ws.row_store.want(ws.probes, ("Qd",))
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
    ws = _workspace_for(spec.mesh, spec.params, workspace)
    rhs = _rhs(spec, ws).reshape(-1)
    ws.row_store.want(ws.probes, ("Qs",))
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
    ws = _workspace_for(spec.mesh, spec.params, workspace)
    labeling = spec.labeling
    rhs = _rhs(spec, ws).reshape(-1)
    ws.row_store.want(ws.probes, ("Qs",))
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


def neumann_to_dirichlet(mesh, labeling, params, workspace=None):
    """Compose the Neumann solve with the single-layer trace, restricted to
    the Dirichlet patch."""
    if params.alpha <= 0.0:
        raise UnsupportedParameter(
            "the Neumann-to-Dirichlet map needs alpha > 0")
    if labeling.n_dirichlet == 0:
        raise InvalidLabeling("the Dirichlet patch is empty")
    workspace = _workspace_for(mesh, params, workspace)
    workspace._both_layers()
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
    store = handle.row_store or _RowStore(handle.density.mesh, handle.params)
    layer = handle.layer_tag if handle.tag == WITH_NEWTONIAN else handle.tag
    return store, ("W", "Qd") if layer == DOUBLE_LAYER else ("V", "Qs")


def evaluate_solution(handle, points):
    """Velocity and pressure of a solved representation at points inside Ω.

    The layer rows come from the handle's row store (a hand-built handle
    gets a fresh one), so a repeated point set is integrated and checked
    for a point outside Ω, which raises ValueError, once."""
    points = np.atleast_2d(np.asarray(points, dtype=float))
    store, kinds = _handle_rows(handle)
    flat = handle.density.values.reshape(-1)
    velocity, pressure = (np.einsum("pam,m->pa", rows, flat) if rows.ndim == 3
                          else rows @ flat
                          for rows in store.rows(points, kinds, inside=True))
    if handle.tag == WITH_NEWTONIAN:
        newtonian = _newtonian_sums(handle.grid, handle.forcing, points,
                                    handle.params, ("velocity", "pressure"))
        velocity = velocity + newtonian[0]
        pressure = pressure + newtonian[1]
    return FieldSolution(points=points, velocity=velocity,
                         pressure=pressure - handle.pressure_constant)


def greens_identity_residual(u_trace, traction, params, points,
                             exact_velocity=None):
    """Residual of the direct representation V(traction) − W(trace) − u.

    When exact_velocity is omitted the caller receives V(traction) − W(trace)
    and subtracts their own reference field.
    """
    mesh = u_trace.mesh
    if traction.mesh is not mesh:
        raise ValueError("trace and traction live on different meshes")
    single, double = _layer_rows(mesh, params, points, ("V", "W"))
    rep = (np.einsum("pam,m->pa", single, traction.flat)
           - np.einsum("pam,m->pa", double, u_trace.flat))
    if exact_velocity is None:
        return rep
    return rep - np.asarray(exact_velocity, dtype=float)