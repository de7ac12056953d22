"""Boundary-value-problem solvers against the exterior-pole manufactured
solution: interior convergence of the Dirichlet, Neumann, and mixed solves,
compatibility and parameter guards, the Dirichlet density against truncated
least squares and the singular-value estimates, the Neumann-to-Dirichlet
composition identity, forced solves with the Newtonian shift, and report
determinism."""

import dataclasses
import functools
import gc
import json
import threading
import weakref

import numpy as np
import pytest
import scipy.linalg

from bbem.errors import (
    FluxIncompatible,
    IllConditioned,
    InvalidLabeling,
    UnsupportedParameter,
)
from bbem.geometry import (
    SurfaceMesh,
    build_cube,
    build_icosphere,
    build_volume_grid,
    label_patches,
)
from bbem.kernels import (
    BrinkmanParams,
    brinkman_velocity_tensor,
    pressure_vector,
    traction_kernel,
)
from bbem.potentials import BoundaryField, VolumeField
from bbem import potentials as P
from bbem import solvers as S

PARAMS = BrinkmanParams(alpha=1.0)
SPHERE_POLE = np.array([0.0, 0.0, 3.0])
CUBE_POLE = np.full(3, 0.5 + 2.0 / np.sqrt(3))
COLUMN = 1

INTERIOR = np.array([[0.0, 0.0, 0.0], [0.3, 0.1, -0.2], [-0.25, 0.3, 0.1],
                     [0.1, -0.35, 0.2], [-0.1, -0.1, -0.3]])


def exact_velocity(points, pole):
    return brinkman_velocity_tensor(points - pole, PARAMS.alpha)[..., :, COLUMN]


def exact_pressure(points, pole):
    return pressure_vector(points - pole)[..., COLUMN]


def exact_trace(mesh, pole):
    return BoundaryField(mesh, exact_velocity(mesh.centroids, pole))


def exact_traction(mesh, pole):
    vals = traction_kernel(mesh.centroids, pole, mesh.normals,
                           PARAMS.alpha)[:, :, COLUMN]
    return BoundaryField(mesh, vals)


def velocity_error(handle, points, pole):
    sol = S.evaluate_solution(handle, points)
    exact = exact_velocity(points, pole)
    return np.linalg.norm(sol.velocity - exact) / np.linalg.norm(exact)


def pressure_error(handle, points, pole):
    """Error of pressure differences, which are constant-free."""
    sol = S.evaluate_solution(handle, points)
    exact = exact_pressure(points, pole)
    diff = (sol.pressure - sol.pressure[0]) - (exact - exact[0])
    return np.linalg.norm(diff) / np.linalg.norm(exact - exact[0])


@pytest.fixture(scope="module")
def sphere_coarse():
    mesh = build_icosphere(1)
    return mesh, S.SolverWorkspace(mesh, PARAMS)


@pytest.fixture(scope="module")
def sphere_fine():
    mesh = build_icosphere(2)
    return mesh, S.SolverWorkspace(mesh, PARAMS)


@pytest.fixture(scope="module")
def cube_mixed():
    mesh = build_cube(1)
    labeling = label_patches(mesh, {"type": "cube_faces",
                                    "neumann_faces": ["+z"]})
    return mesh, labeling, S.SolverWorkspace(mesh, PARAMS)


MANUFACTURED_FLUX_TOL = 1.0e-4
"""Manufactured traces are divergence-free in the continuum, so their
discrete flux is pure quadrature error (about 1e-5 at level 1); the
compatibility test for these runs tolerates that scale."""


def dirichlet_spec(mesh, pole=SPHERE_POLE, **kw):
    kw.setdefault("flux_tol", MANUFACTURED_FLUX_TOL)
    return S.BVPSpec(kind=S.DIRICHLET, params=PARAMS, mesh=mesh,
                     dirichlet_data=exact_trace(mesh, pole), **kw)


def neumann_spec(mesh, pole=SPHERE_POLE, **kw):
    return S.BVPSpec(kind=S.NEUMANN, params=PARAMS, mesh=mesh,
                     neumann_data=exact_traction(mesh, pole), **kw)


# ------------------------------------------------------------ spec validation

def test_spec_rejects_unknown_kind(sphere_coarse):
    mesh, _ = sphere_coarse
    with pytest.raises(ValueError, match="kind"):
        S.BVPSpec(kind="robin", params=PARAMS, mesh=mesh,
                  dirichlet_data=exact_trace(mesh, SPHERE_POLE))


def test_spec_requires_matching_data(sphere_coarse):
    mesh, _ = sphere_coarse
    with pytest.raises(ValueError, match="dirichlet_data"):
        S.BVPSpec(kind=S.DIRICHLET, params=PARAMS, mesh=mesh)
    with pytest.raises(ValueError, match="neumann_data"):
        S.BVPSpec(kind=S.NEUMANN, params=PARAMS, mesh=mesh)
    other = build_icosphere(1)
    with pytest.raises(ValueError, match="different mesh"):
        S.BVPSpec(kind=S.DIRICHLET, params=PARAMS, mesh=mesh,
                  dirichlet_data=exact_trace(other, SPHERE_POLE))


def test_spec_requires_forcing_grid_pair(sphere_coarse):
    mesh, _ = sphere_coarse
    grid = build_volume_grid({"type": "sphere", "radius": 1.0}, 8)
    with pytest.raises(ValueError, match="together"):
        S.BVPSpec(kind=S.DIRICHLET, params=PARAMS, mesh=mesh,
                  dirichlet_data=exact_trace(mesh, SPHERE_POLE), grid=grid)
    with pytest.raises(ValueError, match="flux_tol"):
        dirichlet_spec(mesh, flux_tol=0.0)


@pytest.mark.parametrize("flux_tol", [np.nan, np.inf])
def test_spec_refuses_non_finite_flux_tol(sphere_coarse, flux_tol):
    # a NaN tolerance would switch the flux check off, and so would inf
    mesh, _ = sphere_coarse
    with pytest.raises(ValueError, match="flux_tol must be finite"):
        dirichlet_spec(mesh, flux_tol=flux_tol)


def test_mixed_spec_labeling_guards(cube_mixed):
    mesh, labeling, _ = cube_mixed
    data = dict(dirichlet_data=exact_trace(mesh, CUBE_POLE),
                neumann_data=exact_traction(mesh, CUBE_POLE))
    with pytest.raises(InvalidLabeling, match="needs a patch labeling"):
        S.BVPSpec(kind=S.MIXED, params=PARAMS, mesh=mesh, **data)
    all_neumann = label_patches(mesh, {"type": "cube_faces",
                                       "neumann_faces": ["+x", "-x", "+y",
                                                         "-y", "+z", "-z"]})
    with pytest.raises(InvalidLabeling, match="nonempty"):
        S.BVPSpec(kind=S.MIXED, params=PARAMS, mesh=mesh,
                  labeling=all_neumann, **data)
    other = label_patches(build_cube(2), {"type": "cube_faces",
                                          "neumann_faces": ["+z"]})
    with pytest.raises(InvalidLabeling, match="match"):
        S.BVPSpec(kind=S.MIXED, params=PARAMS, mesh=mesh, labeling=other,
                  **data)


def test_solvers_reject_wrong_kind(sphere_coarse):
    mesh, ws = sphere_coarse
    with pytest.raises(ValueError, match="kind"):
        S.solve_neumann(dirichlet_spec(mesh), ws)
    with pytest.raises(ValueError, match="kind"):
        S.solve_dirichlet(neumann_spec(mesh), ws)


def test_open_mesh_is_refused():
    # icosphere(1) with one triangle removed: the workspace refuses it by
    # the ValueError that names its first boundary edge, whether the solve
    # builds the workspace or is given one, and whatever the data
    base = build_icosphere(1)
    mesh = SurfaceMesh(base.vertices, base.triangles[:-1])
    zero = BoundaryField(mesh, np.zeros((mesh.n_panels, 3)))
    with pytest.raises(ValueError, match=r"boundary edge \(\d+, \d+\)"):
        S.solve_neumann(neumann_spec(mesh))
    with pytest.raises(ValueError, match="mesh is not closed"):
        S.solve_dirichlet(S.BVPSpec(kind=S.DIRICHLET, params=PARAMS,
                                    mesh=mesh, dirichlet_data=zero))
    with pytest.raises(ValueError, match="mesh is not closed"):
        S.SolverWorkspace(mesh, PARAMS)


def test_workspace_mismatch_rejected(sphere_coarse):
    mesh, _ = sphere_coarse
    other = S.SolverWorkspace(mesh, BrinkmanParams(alpha=2.0))
    with pytest.raises(ValueError, match="workspace"):
        S.solve_dirichlet(dirichlet_spec(mesh), other)


# ------------------------------------------------------------- dirichlet solve

def test_dirichlet_manufactured_convergence(sphere_coarse, sphere_fine):
    errors = []
    for mesh, ws in (sphere_coarse, sphere_fine):
        handle, report = S.solve_dirichlet(dirichlet_spec(mesh), ws)
        assert report.residual_l2 < 1.0e-10
        assert handle.tag == S.DOUBLE_LAYER
        errors.append(velocity_error(handle, INTERIOR, SPHERE_POLE))
    assert errors[0] < 5.0e-2
    assert errors[1] < 1.5e-2
    assert errors[0] / errors[1] > 2.0


def test_dirichlet_pressure_differences(sphere_fine):
    mesh, ws = sphere_fine
    handle, _ = S.solve_dirichlet(dirichlet_spec(mesh), ws)
    assert pressure_error(handle, INTERIOR, SPHERE_POLE) < 3.0e-2


def test_dirichlet_flux_incompatible(sphere_coarse):
    mesh, ws = sphere_coarse
    spec = S.BVPSpec(kind=S.DIRICHLET, params=PARAMS, mesh=mesh,
                     dirichlet_data=BoundaryField(mesh, mesh.normals.copy()))
    with pytest.raises(FluxIncompatible, match="net flux"):
        S.solve_dirichlet(spec, ws)


def test_dirichlet_zero_datum(sphere_coarse):
    mesh, ws = sphere_coarse
    spec = S.BVPSpec(kind=S.DIRICHLET, params=PARAMS, mesh=mesh,
                     dirichlet_data=BoundaryField(
                         mesh, np.zeros((mesh.n_panels, 3))))
    handle, report = S.solve_dirichlet(spec, ws)
    assert np.linalg.norm(handle.density.values) == 0.0
    assert report.residual_l2 == 0.0


def test_dirichlet_linearity(sphere_coarse):
    mesh, ws = sphere_coarse
    other_pole = np.array([0.0, 2.5, -1.5])
    h1 = exact_trace(mesh, SPHERE_POLE)
    h2 = exact_trace(mesh, other_pole)
    combo = BoundaryField(mesh, 2.0 * h1.values - 0.5 * h2.values)
    tol = dict(flux_tol=MANUFACTURED_FLUX_TOL)
    d1, _ = S.solve_dirichlet(S.BVPSpec(kind=S.DIRICHLET, params=PARAMS,
                                        mesh=mesh, dirichlet_data=h1, **tol),
                              ws)
    d2, _ = S.solve_dirichlet(S.BVPSpec(kind=S.DIRICHLET, params=PARAMS,
                                        mesh=mesh, dirichlet_data=h2, **tol),
                              ws)
    dc, _ = S.solve_dirichlet(S.BVPSpec(kind=S.DIRICHLET, params=PARAMS,
                                        mesh=mesh, dirichlet_data=combo,
                                        **tol), ws)
    expected = 2.0 * d1.density.values - 0.5 * d2.density.values
    scale = np.linalg.norm(expected)
    assert np.linalg.norm(dc.density.values - expected) < 1.0e-10 * scale


def test_dirichlet_report_sigmas(sphere_coarse):
    mesh, ws = sphere_coarse
    _, report = S.solve_dirichlet(dirichlet_spec(mesh), ws)
    assert report.sigma_min is not None and report.sigma_max is not None
    assert 0.0 < report.sigma_min < report.sigma_max
    assert report.kind == S.DIRICHLET
    assert report.alpha == PARAMS.alpha


_ORACLE_MESHES = {"icosphere1": (build_icosphere(1), SPHERE_POLE, 1.0e-4),
                  "cube1": (build_cube(1), CUBE_POLE, 1.0e-2)}


@functools.cache
def _oracle_workspace(name, alpha):
    """One workspace per (mesh, α), shared by the oracle tests below."""
    return S.SolverWorkspace(_ORACLE_MESHES[name][0],
                             BrinkmanParams(alpha=alpha))


@pytest.mark.parametrize("alpha", [0.0, 1.0, 4.0])
@pytest.mark.parametrize("name", sorted(_ORACLE_MESHES))
def test_dirichlet_density_matches_truncated_least_squares(name, alpha):
    # the truncated-SVD least-squares solve is the oracle: the operator's
    # only defect is the normal cokernel, which the projection removes
    mesh, pole, flux_tol = _ORACLE_MESHES[name]
    ws = _oracle_workspace(name, alpha)
    spec = S.BVPSpec(kind=S.DIRICHLET, params=ws.params, mesh=mesh,
                     dirichlet_data=exact_trace(mesh, pole),
                     flux_tol=flux_tol)
    handle, _ = S.solve_dirichlet(spec, ws)
    h0 = spec.dirichlet_data
    nu = BoundaryField(mesh, mesh.normals)
    projected = h0.values - h0.inner(nu) / nu.inner(nu) * nu.values
    n = 3 * mesh.n_panels
    expected = np.linalg.lstsq(-0.5 * np.eye(n) + ws.double_layer.matrix,
                               projected.reshape(-1), rcond=1.0e-10)[0]
    got = handle.density.values.reshape(-1)
    assert np.linalg.norm(got - expected) <= 1.0e-12 * np.linalg.norm(
        expected)


def _zero_singular_values(system, count):
    u, sigma, vt = np.linalg.svd(system)
    sigma[-count:] = 0.0
    return (u * sigma) @ vt


def _zero_row(system, count):
    system = system.copy()
    system[:count] = 0.0
    return system


@pytest.mark.filterwarnings("ignore::scipy.linalg.LinAlgWarning")
@pytest.mark.parametrize("spoil, count", [(_zero_singular_values, 1),
                                          (_zero_singular_values, 2),
                                          (_zero_row, 1)],
                         ids=["one-zero", "two-zeros", "zero-row"])
def test_dirichlet_singular_operator_raises(sphere_coarse, monkeypatch,
                                            spoil, count):
    # a defect beyond what the flux projection removes is not solved by
    # truncation: the estimated σ_min falls below the relative cutoff, or
    # is NaN when the LU meets an exact zero pivot
    mesh, ws = sphere_coarse
    n = 3 * mesh.n_panels
    system = spoil(-0.5 * np.eye(n) + ws.double_layer.matrix, count)
    fake = P.DenseOperator(system + 0.5 * np.eye(n), "K", alpha=PARAMS.alpha)
    monkeypatch.setattr(S.SolverWorkspace, "double_layer",
                        property(lambda self: fake))
    with pytest.raises(IllConditioned, match="singular"):
        S.solve_dirichlet(dirichlet_spec(mesh), S.SolverWorkspace(mesh,
                                                                  PARAMS))


def test_dirichlet_factors_once_per_workspace(sphere_coarse, monkeypatch):
    mesh, _ = sphere_coarse
    ws = S.SolverWorkspace(mesh, PARAMS)
    factor = scipy.linalg.lu_factor
    calls = []

    def counted(matrix, **options):
        calls.append(matrix.shape)
        return factor(matrix, **options)

    monkeypatch.setattr(scipy.linalg, "lu_factor", counted)
    first, _ = S.solve_dirichlet(dirichlet_spec(mesh), ws)
    second, _ = S.solve_dirichlet(dirichlet_spec(mesh, pole=-SPHERE_POLE), ws)
    assert len(calls) == 1
    assert not np.array_equal(first.density.values, second.density.values)


def test_mixed_systems_build_v_and_k_from_one_plan(cube_mixed, sphere_coarse,
                                                   monkeypatch):
    calls, layer_rows = [], P._layer_rows

    def counted(mesh, params, points, kinds, on_boundary=False):
        if on_boundary:                 # assembly, not evaluation rows
            calls.append(kinds)
        return layer_rows(mesh, params, points, kinds, on_boundary)

    monkeypatch.setattr(P, "_layer_rows", counted)
    mesh, labeling, _ = cube_mixed
    ws = S.SolverWorkspace(mesh, PARAMS)
    ws.mixed_factorization(labeling)
    S.neumann_to_dirichlet(mesh, labeling, PARAMS, workspace=ws)
    assert calls == [("V", "W")]
    calls.clear()
    S.neumann_to_dirichlet(mesh, labeling, PARAMS)
    assert calls == [("V", "W")]
    # a Dirichlet solve builds K alone
    calls.clear()
    mesh, _ = sphere_coarse
    ws = S.SolverWorkspace(mesh, PARAMS)
    S.solve_dirichlet(dirichlet_spec(mesh), ws)
    assert calls == [("W",)] and "single_layer" not in vars(ws)


@pytest.mark.parametrize("sign, alpha", [(-1, 0.0), (-1, 1.0), (-1, 4.0),
                                         (1, 1.0), (1, 4.0)])
@pytest.mark.parametrize("name", sorted(_ORACLE_MESHES))
def test_sigma_range_brackets_svdvals(name, sign, alpha):
    # the Ritz values of the factor bound σ_min from above, and the top
    # Ritz value of the Dirichlet Lanczos bidiagonalization through K bounds
    # σ_max from below, to rounding; both come within the stated margins of
    # the SVD values
    ws = _oracle_workspace(name, alpha)
    n = 3 * ws.mesh.n_panels
    if sign < 0:
        system = -0.5 * np.eye(n) + ws.double_layer.matrix
        low, high = ws.dirichlet_factorization()[1]
    else:
        system = S._traction_system(ws, 0.5)
        low = S._sigma_range(ws.neumann_factorization())[0][0]
    exact = scipy.linalg.svdvals(system)
    assert exact[-1] * (1 - 1.0e-12) <= low <= exact[-1] * (1 + 1.0e-3)
    if sign < 0:
        assert exact[0] * (1 - 1.0e-10) <= high <= exact[0] * (1 + 1.0e-12)


def _sigma_range_30_steps(lu, block):
    """_sigma_range without its early exit: all 30 steps, then Ritz."""
    x = np.random.default_rng(0).standard_normal((len(lu[0]), block))
    for _ in range(30):
        x = scipy.linalg.lu_solve(lu, x, trans=1)
        x = np.linalg.qr(scipy.linalg.lu_solve(lu, x))[0]
    return 1.0 / np.linalg.svd(scipy.linalg.lu_solve(lu, x, trans=1),
                               compute_uv=False)


@pytest.mark.parametrize("alpha", [0.0, 1.0, 4.0])
def test_sigma_range_early_exit_matches_30_steps(alpha):
    # the Ritz values stop once they settle to 1e-13, and then agree with
    # the values after all 30 steps to 1e-13 on the sweep's -1/2 I + K,
    # for blocks of 1 and 2
    ws = S.SolverWorkspace(build_icosphere(2), BrinkmanParams(alpha=alpha))
    lu = ws.dirichlet_factorization()[0]
    for block in (1, 2):
        np.testing.assert_allclose(S._sigma_range(lu, block)[0],
                                   _sigma_range_30_steps(lu, block),
                                   rtol=1.0e-13, atol=0.0)


def _sigma_max_30_steps(matrix):
    """_sigma_max without its early exit: 30 Golub–Kahan–Lanczos steps on
    A = −½I + matrix from the same seeded start, each new vector
    orthogonalized twice against all before it on its side, then the top
    singular value of the 30 × 30 bidiagonal."""
    def unit(x, basis):
        for _ in range(2):
            x = x - basis.T @ (basis @ x)
        return x / np.linalg.norm(x), np.linalg.norm(x)

    n = len(matrix)
    right, left, b = np.zeros((31, n)), np.zeros((30, n)), np.zeros((30, 31))
    right[0] = unit(np.random.default_rng(0).standard_normal(n), right[:0])[0]
    for k in range(30):
        left[k], b[k, k] = unit(-0.5 * right[k] + matrix @ right[k], left[:k])
        right[k + 1], b[k, k + 1] = unit(-0.5 * left[k] + matrix.T @ left[k],
                                         right[:k + 1])
    return np.linalg.svd(b[:, :30], compute_uv=False)[0]


@pytest.mark.parametrize("alpha", [0.0, 1.0, 4.0])
def test_sigma_max_early_exit_matches_30_steps(alpha):
    # the top Ritz value stops once it settles to 1e-13, and then agrees
    # with the value after all 30 Lanczos steps to 1e-13 on the sweep's
    # −½I + K, which it reaches in fewer steps
    ws = S.SolverWorkspace(build_icosphere(2), BrinkmanParams(alpha=alpha))
    matrix, products = ws.double_layer.matrix, []

    class Counted(np.ndarray):
        def __matmul__(self, other):
            products.append(1)
            return np.asarray(self) @ other

    high = S._sigma_max(matrix.view(Counted))
    assert 0 < len(products) < 60
    np.testing.assert_allclose(high, _sigma_max_30_steps(matrix),
                               rtol=1.0e-13, atol=0.0)
    assert high == ws.dirichlet_factorization()[1][1]


def test_sigma_max_of_a_non_finite_operator_is_nan():
    # a NaN in K reaches B at the first step; the Dirichlet solve then
    # refuses the system (test_non_finite_double_layer_raises_ill_conditioned)
    matrix = np.eye(6)
    matrix[2, 4] = np.nan
    assert np.isnan(S._sigma_max(matrix))


def test_sigma_max_stops_on_an_invariant_krylov_space():
    # K = 0 leaves A = -I/2, whose first left vector spans the Krylov space:
    # the next right vector is exactly zero, and the top Ritz value so far
    # (1/2) is returned rather than a NaN from normalizing it
    assert S._sigma_max(np.zeros((12, 12))) == 0.5


@pytest.mark.parametrize("mesh", [build_icosphere(1), build_icosphere(2),
                                  build_cube(1)],
                         ids=["icosphere1", "icosphere2", "cube1"])
def test_sigma_range_block_matches_svd_of_minus_traction(mesh):
    # a block of 8 resolves σ₂ of −½I + K*, a triple value on the
    # icosphere, and the first Ritz vector is the SVD's null vector
    ws = S.SolverWorkspace(mesh, BrinkmanParams(alpha=4.0))
    system = S._traction_system(ws, -0.5)
    sigma, vectors = S._sigma_range(scipy.linalg.lu_factor(system), block=8)
    _, exact, vt = scipy.linalg.svd(system)
    assert sigma.shape == (8,) and vectors.shape == (len(system), 8)
    np.testing.assert_allclose(sigma[:2], exact[:-3:-1], rtol=1.0e-8)
    assert abs(vectors[:, 0] @ vt[-1]) >= 1.0 - 1.0e-10


def test_each_factor_overwrites_the_system_written_for_it(sphere_coarse,
                                                          cube_mixed,
                                                          monkeypatch):
    # the Dirichlet and Neumann systems live only as their LU factors; the
    # mixed system stays beside a separate factor, since its residual
    # reads it
    factor = scipy.linalg.lu_factor
    written = []

    def recorded(matrix, **options):
        lu = factor(matrix, **options)
        written.append((matrix, lu[0]))
        return lu

    monkeypatch.setattr(scipy.linalg, "lu_factor", recorded)
    mesh, ws = sphere_coarse
    fresh = S.SolverWorkspace(mesh, PARAMS)
    fresh.double_layer = ws.double_layer
    fresh.dirichlet_factorization()
    fresh.neumann_factorization()
    assert [np.shares_memory(*pair) for pair in written] == [True, True]
    cube, labeling, cube_ws = cube_mixed
    fresh = S.SolverWorkspace(cube, PARAMS)
    fresh.single_layer = cube_ws.single_layer
    fresh.double_layer = cube_ws.double_layer
    lu = fresh.mixed_factorization(labeling)[0]
    assert not np.shares_memory(lu, fresh.mixed_matrix(labeling))


# --------------------------------------------------------------- neumann solve

def test_neumann_manufactured_convergence(sphere_coarse, sphere_fine):
    errors = []
    for mesh, ws in (sphere_coarse, sphere_fine):
        handle, report = S.solve_neumann(neumann_spec(mesh), ws)
        assert report.residual_l2 < 1.0e-12
        assert handle.tag == S.SINGLE_LAYER
        errors.append(velocity_error(handle, INTERIOR, SPHERE_POLE))
    assert errors[0] < 1.5e-1
    assert errors[1] < 5.0e-2
    assert errors[0] / errors[1] > 2.0


def test_neumann_pressure_differences(sphere_fine):
    mesh, ws = sphere_fine
    handle, _ = S.solve_neumann(neumann_spec(mesh), ws)
    assert pressure_error(handle, INTERIOR, SPHERE_POLE) < 2.0e-2


def test_neumann_alpha_zero_unsupported(sphere_coarse):
    mesh, _ = sphere_coarse
    stokes = BrinkmanParams(alpha=0.0)
    vals = traction_kernel(mesh.centroids, SPHERE_POLE, mesh.normals,
                           0.0)[:, :, COLUMN]
    spec = S.BVPSpec(kind=S.NEUMANN, params=stokes, mesh=mesh,
                     neumann_data=BoundaryField(mesh, vals))
    with pytest.raises(UnsupportedParameter, match="alpha"):
        S.solve_neumann(spec)


def test_neumann_linearity(sphere_coarse):
    mesh, ws = sphere_coarse
    other_pole = np.array([0.0, 2.5, -1.5])
    g1 = exact_traction(mesh, SPHERE_POLE)
    g2 = exact_traction(mesh, other_pole)
    combo = BoundaryField(mesh, 0.7 * g1.values + 1.3 * g2.values)
    n1, _ = S.solve_neumann(S.BVPSpec(kind=S.NEUMANN, params=PARAMS,
                                      mesh=mesh, neumann_data=g1), ws)
    n2, _ = S.solve_neumann(S.BVPSpec(kind=S.NEUMANN, params=PARAMS,
                                      mesh=mesh, neumann_data=g2), ws)
    nc, _ = S.solve_neumann(S.BVPSpec(kind=S.NEUMANN, params=PARAMS,
                                      mesh=mesh, neumann_data=combo), ws)
    expected = 0.7 * n1.density.values + 1.3 * n2.density.values
    scale = np.linalg.norm(expected)
    assert np.linalg.norm(nc.density.values - expected) < 1.0e-12 * scale


# ----------------------------------------------------------------- mixed solve

def test_mixed_manufactured_error(cube_mixed):
    mesh, labeling, ws = cube_mixed
    spec = S.BVPSpec(kind=S.MIXED, params=PARAMS, mesh=mesh,
                     labeling=labeling,
                     dirichlet_data=exact_trace(mesh, CUBE_POLE),
                     neumann_data=exact_traction(mesh, CUBE_POLE))
    handle, report = S.solve_mixed(spec, ws)
    assert handle.tag == S.MIXED_SINGLE_LAYER
    assert report.residual_l2 < 1.0e-12
    points = 0.5 * INTERIOR
    assert velocity_error(handle, points, CUBE_POLE) < 2.0e-2


def test_mixed_alpha_zero_unsupported(cube_mixed):
    mesh, labeling, _ = cube_mixed
    stokes = BrinkmanParams(alpha=0.0)
    data = dict(dirichlet_data=exact_trace(mesh, CUBE_POLE),
                neumann_data=exact_traction(mesh, CUBE_POLE))
    spec = S.BVPSpec(kind=S.MIXED, params=stokes, mesh=mesh,
                     labeling=labeling, **data)
    with pytest.raises(UnsupportedParameter, match="alpha"):
        S.solve_mixed(spec)


def test_mixed_reads_only_matching_patch(cube_mixed):
    """Perturbing the Dirichlet datum on Neumann panels must not change
    anything: the mixed system reads each datum only on its own patch."""
    mesh, labeling, ws = cube_mixed
    trace = exact_trace(mesh, CUBE_POLE)
    traction = exact_traction(mesh, CUBE_POLE)
    perturbed = trace.values.copy()
    perturbed[labeling.neumann_mask] += 7.0
    spec_a = S.BVPSpec(kind=S.MIXED, params=PARAMS, mesh=mesh,
                       labeling=labeling, dirichlet_data=trace,
                       neumann_data=traction)
    spec_b = S.BVPSpec(kind=S.MIXED, params=PARAMS, mesh=mesh,
                       labeling=labeling,
                       dirichlet_data=BoundaryField(mesh, perturbed),
                       neumann_data=traction)
    ha, _ = S.solve_mixed(spec_a, ws)
    hb, _ = S.solve_mixed(spec_b, ws)
    assert np.array_equal(ha.density.values, hb.density.values)


def _nan_factor(lu):
    factor, pivots = lu
    factor = factor.copy()
    factor[0, 0] = np.nan
    return factor, pivots


def _truncated_factor(lu):
    factor, pivots = lu
    return factor[:-3, :-3], pivots[:-3]


@pytest.mark.parametrize("spoiled, failure", [
    (_nan_factor, "solve produced non-finite values"),
    (_truncated_factor, "system factorization failed"),
])
def test_lu_solvers_raise_ill_conditioned(sphere_coarse, cube_mixed,
                                          monkeypatch, spoiled, failure):
    # a NaN in the factor propagates into the solution; a factor that does
    # not fit the right-hand side makes lu_solve itself raise

    sphere, sphere_ws = sphere_coarse
    lu, sigma = sphere_ws.dirichlet_factorization()
    monkeypatch.setattr(sphere_ws, "dirichlet_factorization",
                        lambda: (spoiled(lu), sigma))
    with pytest.raises(IllConditioned, match=f"^Dirichlet {failure}"):
        S.solve_dirichlet(dirichlet_spec(sphere), sphere_ws)

    lu = sphere_ws.neumann_factorization()
    monkeypatch.setattr(sphere_ws, "neumann_factorization",
                        lambda: spoiled(lu))
    with pytest.raises(IllConditioned, match=f"^Neumann {failure}"):
        S.solve_neumann(neumann_spec(sphere), sphere_ws)

    cube, labeling, cube_ws = cube_mixed
    lu = cube_ws.mixed_factorization(labeling)
    monkeypatch.setattr(cube_ws, "mixed_factorization",
                        lambda labels: spoiled(lu))
    spec = S.BVPSpec(kind=S.MIXED, params=PARAMS, mesh=cube,
                     labeling=labeling,
                     dirichlet_data=exact_trace(cube, CUBE_POLE),
                     neumann_data=exact_traction(cube, CUBE_POLE))
    with pytest.raises(IllConditioned, match=f"^mixed {failure}"):
        S.solve_mixed(spec, cube_ws)

    lu = cube_ws.neumann_factorization()
    monkeypatch.setattr(cube_ws, "neumann_factorization",
                        lambda: spoiled(lu))
    with pytest.raises(IllConditioned, match=f"^Neumann {failure}"):
        S.neumann_to_dirichlet(cube, labeling, PARAMS, workspace=cube_ws)


def _poisoned_workspace(mesh, row, column):
    """A fresh workspace whose K holds a NaN at (row, column)."""
    ws = S.SolverWorkspace(mesh, PARAMS)
    matrix = ws.double_layer.matrix.copy()
    matrix[row, column] = np.nan
    ws.double_layer = P.DenseOperator(matrix, "K", alpha=PARAMS.alpha)
    return ws


def test_non_finite_double_layer_raises_ill_conditioned(sphere_coarse,
                                                        cube_mixed):
    # the factorizations take K as it is; the NaN reaches the σ estimate
    # (Dirichlet) or the solve's finiteness check and fails as
    # IllConditioned naming the system
    sphere, _ = sphere_coarse
    with pytest.raises(IllConditioned, match="^Dirichlet system"):
        S.solve_dirichlet(dirichlet_spec(sphere),
                          _poisoned_workspace(sphere, 4, 7))
    with pytest.raises(IllConditioned, match="^Neumann "):
        S.solve_neumann(neumann_spec(sphere),
                        _poisoned_workspace(sphere, 4, 7))
    # K*'s rows are K's columns, and the mixed system keeps K* only on the
    # Neumann patch, so the NaN goes into a Neumann panel's column
    cube, labeling, _ = cube_mixed
    panel = np.flatnonzero(labeling.neumann_mask)[0]
    spec = S.BVPSpec(kind=S.MIXED, params=PARAMS, mesh=cube,
                     labeling=labeling,
                     dirichlet_data=exact_trace(cube, CUBE_POLE),
                     neumann_data=exact_traction(cube, CUBE_POLE))
    with pytest.raises(IllConditioned, match="^mixed "):
        S.solve_mixed(spec, _poisoned_workspace(cube, 4, 3 * panel + 1))


# ------------------------------------------------------- neumann-to-dirichlet

def test_ntd_composition_matches_solve_then_restrict(cube_mixed):
    mesh, labeling, ws = cube_mixed
    ntd = S.neumann_to_dirichlet(mesh, labeling, PARAMS, workspace=ws)
    g = exact_traction(mesh, CUBE_POLE)
    via_map = ntd.apply(g).values

    handle, _ = S.solve_neumann(S.BVPSpec(kind=S.NEUMANN, params=PARAMS,
                                          mesh=mesh, neumann_data=g), ws)
    trace = (ws.single_layer.matrix
             @ handle.density.values.reshape(-1)).reshape(-1, 3)
    trace[labeling.neumann_mask] = 0.0
    scale = np.linalg.norm(trace)
    assert np.linalg.norm(via_map - trace) < 1.0e-10 * scale


def test_ntd_rows_vanish_off_dirichlet_patch(cube_mixed):
    mesh, labeling, ws = cube_mixed
    ntd = S.neumann_to_dirichlet(mesh, labeling, PARAMS, workspace=ws)
    out = ntd.apply(exact_traction(mesh, CUBE_POLE))
    assert np.all(out.values[labeling.neumann_mask] == 0.0)
    rows = np.repeat(labeling.neumann_mask, 3)
    assert np.all(ntd.matrix[rows] == 0.0)


def test_ntd_dirichlet_submatrix_invertible(cube_mixed):
    mesh, labeling, ws = cube_mixed
    ntd = S.neumann_to_dirichlet(mesh, labeling, PARAMS, workspace=ws)
    sub = ntd.dirichlet_submatrix
    assert sub.shape == (3 * labeling.n_dirichlet, 3 * labeling.n_dirichlet)
    sigma_min = np.linalg.svd(sub, compute_uv=False)[-1]
    assert sigma_min > 1.0e-4


def test_ntd_guards(cube_mixed):
    mesh, labeling, _ = cube_mixed
    with pytest.raises(UnsupportedParameter, match="alpha"):
        S.neumann_to_dirichlet(mesh, labeling, BrinkmanParams(alpha=0.0))
    all_neumann = label_patches(mesh, {"type": "cube_faces",
                                       "neumann_faces": ["+x", "-x", "+y",
                                                         "-y", "+z", "-z"]})
    with pytest.raises(InvalidLabeling, match="empty"):
        S.neumann_to_dirichlet(mesh, all_neumann, PARAMS)


def test_ntd_rejects_foreign_workspace(cube_mixed):
    mesh, labeling, _ = cube_mixed
    other = S.SolverWorkspace(mesh, BrinkmanParams(alpha=2.0))
    with pytest.raises(ValueError, match="workspace was built for a "
                                         "different problem"):
        S.neumann_to_dirichlet(mesh, labeling, PARAMS, workspace=other)


# ---------------------------------------------------------------- forced solve

def smooth_forcing(grid):
    c = grid.centers
    return VolumeField(grid, np.stack([
        np.sin(np.pi * c[:, 0]) * np.cos(np.pi * c[:, 1]),
        c[:, 2] ** 2,
        c[:, 0] + 0.2 * c[:, 1]], axis=1))


@pytest.fixture(scope="module")
def cube_volume():
    grid = build_volume_grid({"type": "cube", "side": 1.0}, 16)
    return grid


def test_poisson_requires_forcing(sphere_coarse):
    mesh, ws = sphere_coarse
    with pytest.raises(ValueError, match="forcing"):
        S.solve_poisson(dirichlet_spec(mesh), ws)


def test_poisson_zero_forcing_matches_homogeneous(cube_mixed, cube_volume):
    mesh, labeling, ws = cube_mixed
    grid = cube_volume
    zero = VolumeField(grid, np.zeros((grid.n_cells, 3)))
    spec = S.BVPSpec(kind=S.MIXED, params=PARAMS, mesh=mesh,
                     labeling=labeling,
                     dirichlet_data=exact_trace(mesh, CUBE_POLE),
                     neumann_data=exact_traction(mesh, CUBE_POLE),
                     forcing=zero, grid=grid)
    forced, _ = S.solve_poisson(spec, ws)
    plain, _ = S.solve_mixed(S.BVPSpec(kind=S.MIXED, params=PARAMS, mesh=mesh,
                                       labeling=labeling,
                                       dirichlet_data=exact_trace(mesh, CUBE_POLE),
                                       neumann_data=exact_traction(mesh, CUBE_POLE)),
                             ws)
    assert forced.tag == S.WITH_NEWTONIAN
    assert forced.layer_tag == S.MIXED_SINGLE_LAYER
    assert np.allclose(forced.density.values, plain.density.values,
                       rtol=0.0, atol=1.0e-14)
    points = 0.5 * INTERIOR
    fa = S.evaluate_solution(forced, points)
    fb = S.evaluate_solution(plain, points)
    assert np.allclose(fa.velocity, fb.velocity, atol=1.0e-12)
    assert np.allclose(fa.pressure, fb.pressure, atol=1.0e-12)


def test_poisson_forced_interior_residual(cube_mixed, cube_volume):
    """Finite differences of the evaluated fields on the volume lattice
    reproduce the forcing: (laplacian - alpha) u - grad p = f, div u = 0."""
    mesh, labeling, ws = cube_mixed
    grid = cube_volume
    forcing = smooth_forcing(grid)
    spec = S.BVPSpec(kind=S.MIXED, params=PARAMS, mesh=mesh,
                     labeling=labeling,
                     dirichlet_data=exact_trace(mesh, CUBE_POLE),
                     neumann_data=exact_traction(mesh, CUBE_POLE),
                     forcing=forcing, grid=grid)
    handle, report = S.solve_poisson(spec, ws)
    assert report.kind == S.MIXED

    step = grid.spacing
    centers = grid.centers.reshape(16, 16, 16, 3)
    probes = centers[[5, 8, 10], [6, 8, 9], [7, 8, 5]]
    f_probe = forcing.values.reshape(16, 16, 16, 3)[[5, 8, 10], [6, 8, 9],
                                                    [7, 8, 5]]
    offsets = np.concatenate([np.zeros((1, 3)), np.eye(3), -np.eye(3)])
    stencil = probes[:, None, :] + step * offsets[None, :, :]
    sol = S.evaluate_solution(handle, stencil.reshape(-1, 3))
    u = sol.velocity.reshape(3, 7, 3)
    p = sol.pressure.reshape(3, 7)
    lap = (u[:, 1:].sum(axis=1) - 6.0 * u[:, 0]) / step ** 2
    grad_p = (p[:, 1:4] - p[:, 4:7]) / (2.0 * step)
    residual = lap - PARAMS.alpha * u[:, 0] - grad_p - f_probe
    scale = np.linalg.norm(f_probe)
    assert np.linalg.norm(residual) / scale < 1.0e-1


@pytest.mark.parametrize("solve", [S.solve_poisson, S.solve_dirichlet],
                         ids=["poisson", "dirichlet"])
def test_poisson_dirichlet_flux_checks_user_datum(sphere_coarse, solve):
    mesh, ws = sphere_coarse
    grid = build_volume_grid({"type": "sphere", "radius": 1.0}, 8)
    forcing = VolumeField(grid, np.ones((grid.n_cells, 3)))
    spec = S.BVPSpec(kind=S.DIRICHLET, params=PARAMS, mesh=mesh,
                     dirichlet_data=BoundaryField(mesh, mesh.normals.copy()),
                     forcing=forcing, grid=grid)
    with pytest.raises(FluxIncompatible, match="net flux"):
        solve(spec, ws)


@pytest.mark.parametrize("kind", [S.DIRICHLET, S.NEUMANN, S.MIXED],
                         ids=["dirichlet", "neumann", "mixed"])
def test_solvers_take_volume_forcing(cube_mixed, kind):
    """Each solver reads the spec's forcing: with zero boundary data the
    forced solve matches solve_poisson bit for bit and differs from the
    (zero) unforced solve."""
    mesh, labeling, ws = cube_mixed
    grid = build_volume_grid({"type": "cube", "side": 1.0}, 6)
    forcing = VolumeField(grid, np.tile([1.0, -0.5, 0.3], (grid.n_cells, 1)))
    zero = BoundaryField(mesh, np.zeros((mesh.n_panels, 3)))
    data = dict(kind=kind, params=PARAMS, mesh=mesh,
                labeling=labeling if kind == S.MIXED else None,
                dirichlet_data=None if kind == S.NEUMANN else zero,
                neumann_data=None if kind == S.DIRICHLET else zero)
    solve = {S.DIRICHLET: S.solve_dirichlet, S.NEUMANN: S.solve_neumann,
             S.MIXED: S.solve_mixed}[kind]
    forced = S.BVPSpec(forcing=forcing, grid=grid, **data)
    handle, report = solve(forced, ws)
    reference, _ = S.solve_poisson(forced, ws)
    assert handle.tag == S.WITH_NEWTONIAN
    assert handle.layer_tag == reference.layer_tag is not None
    assert (handle.density.values.tobytes()
            == reference.density.values.tobytes())
    assert handle.pressure_constant == reference.pressure_constant
    assert report.pressure_constant == handle.pressure_constant
    plain, _ = solve(S.BVPSpec(**data), ws)
    assert not np.any(plain.density.values)
    assert np.any(handle.density.values)
    points = 0.5 * INTERIOR
    assert not np.array_equal(S.evaluate_solution(handle, points).velocity,
                              S.evaluate_solution(plain, points).velocity)


@pytest.mark.parametrize("kind", [S.DIRICHLET, S.NEUMANN, S.MIXED],
                         ids=["dirichlet", "neumann", "mixed"])
def test_forced_solves_compute_only_the_data_they_read(cube_mixed, monkeypatch,
                                                       kind):
    """A forced solve builds the Newtonian velocity rows on exactly the rows
    that read the velocity trace and the traction rows on the rest, once
    across the right-hand side and the solve, and each right-hand side row
    is bit for bit the datum less newtonian_boundary_data's row."""
    mesh, labeling, _ = cube_mixed
    ws = S.SolverWorkspace(mesh, PARAMS)
    grid = build_volume_grid({"type": "cube", "side": 1.0}, 6)
    forcing = VolumeField(grid, np.tile([1.0, -0.5, 0.3], (grid.n_cells, 1)))
    h0 = BoundaryField(mesh, 0.01 * np.cos(mesh.centroids))
    g0 = BoundaryField(mesh, 0.01 * np.sin(mesh.centroids))
    reads_trace = {S.DIRICHLET: np.ones(mesh.n_panels, dtype=bool),
                   S.NEUMANN: np.zeros(mesh.n_panels, dtype=bool),
                   S.MIXED: labeling.dirichlet_mask}[kind]
    spec = S.BVPSpec(kind=kind, params=PARAMS, mesh=mesh, forcing=forcing,
                     grid=grid, flux_tol=1.0,
                     labeling=labeling if kind == S.MIXED else None,
                     dirichlet_data=None if kind == S.NEUMANN else h0,
                     neumann_data=None if kind == S.DIRICHLET else g0)
    trace, traction = P.newtonian_boundary_data(grid, forcing, mesh, PARAMS)
    expected = np.where(reads_trace[:, None], h0.values - trace.values,
                        g0.values - traction.values)
    built = {"velocity": [], "traction": [], "pressure": []}
    rows = S._newtonian_rows

    def recorded(grid, points, params, kind, normals=None):
        built[kind].append([int(np.flatnonzero(
            (mesh.centroids == p).all(axis=1))[0]) for p in points]
            if kind != "pressure" else len(points))
        return rows(grid, points, params, kind, normals)

    monkeypatch.setattr(S, "_newtonian_rows", recorded)
    assert S._rhs(spec, ws).tobytes() == expected.tobytes()
    S._solve(spec, ws)
    assert built == {"velocity": [list(np.flatnonzero(reads_trace))],
                     "traction": [list(np.flatnonzero(~reads_trace))],
                     "pressure": [len(ws.probes)]}
    if kind == S.MIXED:
        assert [len(built[kind][0]) for kind in ("velocity", "traction")] == [
            40, 8]


@pytest.mark.parametrize("chunk", [1, 8, 144])
def test_newtonian_rows_apply_as_the_sums(chunk, monkeypatch):
    # a row of the map is the row the sums contract, whatever the chunk;
    # velocity and pressure also at cell centers, where the self cell counts
    mesh = build_cube(1)
    grid = build_volume_grid({"type": "cube", "side": 1.0}, 5)
    forcing = np.random.default_rng(19).standard_normal((grid.n_cells, 3))
    inside = np.vstack([mesh.centroids, grid.centers[::9]])
    cases = (("velocity", inside, None), ("pressure", inside, None),
             ("traction", mesh.centroids, mesh.normals))
    sums = [P._newtonian_sums(grid, forcing, points, PARAMS, (kind,),
                              normals)[0] for kind, points, normals in cases]
    monkeypatch.setattr(P, "_chunk_rows", lambda width: chunk)
    for (kind, points, normals), expected in zip(cases, sums):
        rows = P._newtonian_rows(grid, points, PARAMS, kind, normals)
        applied = np.einsum("pam,m->pa", rows.reshape(len(points), -1,
                                                      rows.shape[-1]),
                            forcing.reshape(-1))
        assert applied.reshape(expected.shape).tobytes() == expected.tobytes()


# ------------------------------------------------------------------ evaluation

def test_evaluate_rejects_boundary_point(sphere_coarse):
    mesh, ws = sphere_coarse
    handle, _ = S.solve_dirichlet(dirichlet_spec(mesh), ws)
    with pytest.raises(ValueError, match="boundary"):
        S.evaluate_solution(handle, mesh.centroids[0])


def test_evaluate_rejects_points_outside_the_domain(sphere_coarse,
                                                   monkeypatch):
    # the interior Dirichlet representation used to answer at (3, 0, 0) on
    # icosphere(1), alpha = 1 (u_y = -2.1e-6, the double layer's exterior
    # field); a point set with a point outside Ω raises, naming its first
    # such point, and the winding number runs once per point set
    mesh, ws = sphere_coarse
    handle, _ = S.solve_dirichlet(dirichlet_spec(mesh), ws)
    points = np.array([[0.1, 0.0, 0.0], [3.0, 0.0, 0.0], [0.0, -2.0, 0.0]])
    with pytest.raises(ValueError, match=r"point 1 lies outside the domain"):
        S.evaluate_solution(handle, points)
    calls, winding = [], S.winding_number
    monkeypatch.setattr(S, "winding_number", lambda *args: (
        calls.append(1), winding(*args))[1])
    inside = 0.5 * points[:1]
    first = S.evaluate_solution(handle, inside).velocity
    assert S.evaluate_solution(handle, inside).velocity.tobytes() == (
        first.tobytes()) and calls == [1]


# every public evaluation path, called with a solved handle's density
_EVALUATORS = {
    "evaluate_solution": lambda handle, points: S.evaluate_solution(
        handle, points),
    "eval_single_layer": lambda handle, points: P.eval_single_layer(
        handle.density.mesh, handle.density, points, PARAMS),
    "eval_double_layer_pressure": lambda handle, points: (
        P.eval_double_layer_pressure(handle.density.mesh, handle.density,
                                     points, PARAMS)),
    "greens_identity_residual": lambda handle, points: (
        S.greens_identity_residual(handle.density, handle.density, PARAMS,
                                   points)),
}


@pytest.mark.parametrize("evaluate", _EVALUATORS.values(), ids=_EVALUATORS)
def test_evaluate_rejects_points_of_wrong_shape(sphere_coarse, evaluate):
    mesh, ws = sphere_coarse
    handle, _ = S.solve_dirichlet(dirichlet_spec(mesh), ws)
    with pytest.raises(ValueError, match=r"shape \(P, 3\), got \(4, 2\)"):
        evaluate(handle, np.zeros((4, 2)))


@pytest.mark.parametrize("evaluate", _EVALUATORS.values(), ids=_EVALUATORS)
def test_evaluate_rejects_non_finite_points(sphere_coarse, evaluate):
    mesh, ws = sphere_coarse
    handle, _ = S.solve_dirichlet(dirichlet_spec(mesh), ws)
    points = INTERIOR.copy()
    points[2, 1] = np.nan
    with pytest.raises(ValueError, match="point 2 is not finite"):
        evaluate(handle, points)


def test_pressure_constant_zero_probe_mean(sphere_fine):
    mesh, ws = sphere_fine
    handle, _ = S.solve_dirichlet(dirichlet_spec(mesh), ws)
    probes = S._pressure_probe_points(mesh)
    sol = S.evaluate_solution(handle, probes)
    assert abs(sol.pressure.mean()) < 1.0e-12 * max(
        1.0, np.abs(sol.pressure).max())


def test_pressure_anchor_built_once_per_workspace(cube_mixed, monkeypatch):
    # the probes and their pressure rows depend on the geometry only: two
    # solves on one workspace search the probes and build their rows once,
    # and each constant keeps the bits of the probe mean of the evaluated
    # pressure
    mesh, labeling, _ = cube_mixed
    ws = S.SolverWorkspace(mesh, PARAMS)
    search = S._pressure_probe_points
    probes = search(mesh)
    calls = []
    built = []

    def counted(m):
        calls.append(m)
        return search(m)

    monkeypatch.setattr(S, "_pressure_probe_points", counted)
    monkeypatch.setattr(S, "_layer_rows", _recording_layer_rows(built))
    for pole in (CUBE_POLE, CUBE_POLE + 0.3):
        spec = S.BVPSpec(kind=S.MIXED, params=PARAMS, mesh=mesh,
                         labeling=labeling,
                         dirichlet_data=exact_trace(mesh, pole),
                         neumann_data=exact_traction(mesh, pole))
        handle, _ = S.solve_mixed(spec, ws)
        expected = P.eval_single_layer_pressure(
            mesh, handle.density.values, probes, PARAMS)
        assert handle.pressure_constant == float(expected.mean())
    assert len(calls) == 1
    assert built == [("Qs",)]


def _recording_layer_rows(built):
    """solvers._layer_rows that appends the kinds of each build to built."""
    layer_rows = S._layer_rows

    def recorded(mesh, params, points, kinds):
        built.append(kinds)
        return layer_rows(mesh, params, points, kinds)

    return recorded


def test_evaluation_rows_built_once_per_point_set(cube_mixed, monkeypatch):
    # a repeated point set is integrated once; a point array edited in
    # place and alternating point sets give the fields at the points passed,
    # each kinds tuple keeps one point set, and the rows outlive the
    # workspace on the handles it solved
    mesh, labeling, _ = cube_mixed
    ws = S.SolverWorkspace(mesh, PARAMS)
    handle, _ = S.solve_mixed(S.BVPSpec(
        kind=S.MIXED, params=PARAMS, mesh=mesh, labeling=labeling,
        dirichlet_data=exact_trace(mesh, CUBE_POLE),
        neumann_data=exact_traction(mesh, CUBE_POLE)), ws)
    built = []
    monkeypatch.setattr(S, "_layer_rows", _recording_layer_rows(built))
    probes, other = 0.5 * INTERIOR, 0.4 * INTERIOR[::-1]

    def check(points):
        sol = S.evaluate_solution(handle, points)
        args = (mesh, handle.density.values, points, PARAMS)
        velocity = P.eval_single_layer(*args)
        pressure = P.eval_single_layer_pressure(*args) - handle.pressure_constant
        assert sol.velocity.tobytes() == velocity.tobytes()
        assert sol.pressure.tobytes() == pressure.tobytes()
        return sol

    for points in (probes, probes, probes):
        check(points)
    assert built == [("V", "Qs")]
    for points in (other, probes, other):
        check(points)
    assert built == [("V", "Qs")] * 4
    probes[1] += 0.05
    first = check(probes)
    check(probes)
    assert built == [("V", "Qs")] * 5
    assert sorted(ws.row_store._entries) == [("Qs",), ("V", "Qs")]

    alive = weakref.ref(ws)
    del ws
    gc.collect()
    assert alive() is None
    again = S.evaluate_solution(handle, probes)
    assert again.velocity.tobytes() == first.velocity.tobytes()
    assert built == [("V", "Qs")] * 5


def _ball_points(count, radius):
    """Seeded points inside a ball, enough for several evaluation chunks."""
    rng = np.random.default_rng(11)
    directions = rng.standard_normal((count, 3))
    directions /= np.linalg.norm(directions, axis=1, keepdims=True)
    return radius * rng.uniform(0.0, 1.0, (count, 1)) * directions


@pytest.mark.parametrize("threads", ["1", "4"])
def test_evaluate_solution_matches_layer_evaluators(sphere_coarse,
                                                    monkeypatch, threads):
    # velocity and pressure from one near/far split per point keep the
    # bits of the separate evaluators, for both representations, and a
    # second evaluation through the workspace's rows keeps them again; a
    # fresh workspace builds the rows at this thread count
    mesh, _ = sphere_coarse
    ws = S.SolverWorkspace(mesh, PARAMS)
    monkeypatch.setenv("BBEM_THREADS", threads)
    points = _ball_points(3 * P._chunk_rows(mesh.n_panels) - 5, 0.6)
    double, _ = S.solve_dirichlet(dirichlet_spec(mesh), ws)
    single, _ = S.solve_neumann(neumann_spec(mesh), ws)
    for handle, velocity, pressure in (
            (double, P.eval_double_layer, P.eval_double_layer_pressure),
            (single, P.eval_single_layer, P.eval_single_layer_pressure)):
        args = (mesh, handle.density.values, points, PARAMS)
        for _ in range(2):
            sol = S.evaluate_solution(handle, points)
            assert sol.velocity.tobytes() == velocity(*args).tobytes()
            assert sol.pressure.tobytes() == (
                pressure(*args) - handle.pressure_constant).tobytes()


def test_solve_is_deterministic(sphere_coarse):
    mesh, _ = sphere_coarse
    first, ra = S.solve_dirichlet(dirichlet_spec(mesh))
    second, rb = S.solve_dirichlet(dirichlet_spec(mesh))
    assert np.array_equal(first.density.values, second.density.values)
    assert first.pressure_constant == second.pressure_constant
    assert ra.residual_l2 == rb.residual_l2
    assert ra.sigma_min == rb.sigma_min


# -------------------------------------------------------------- green identity

def test_greens_identity_residual_decreases(sphere_coarse, sphere_fine):
    exact = exact_velocity(INTERIOR, SPHERE_POLE)
    scale = np.linalg.norm(exact)
    errors = []
    for mesh, _ in (sphere_coarse, sphere_fine):
        res = S.greens_identity_residual(
            exact_trace(mesh, SPHERE_POLE), exact_traction(mesh, SPHERE_POLE),
            PARAMS, INTERIOR, exact_velocity=exact)
        errors.append(np.linalg.norm(res) / scale)
    assert errors[0] < 5.0e-2
    assert errors[1] < 1.5e-2
    assert errors[1] < errors[0]


def test_greens_identity_zero_pair(sphere_coarse):
    mesh, _ = sphere_coarse
    zero = BoundaryField(mesh, np.zeros((mesh.n_panels, 3)))
    res = S.greens_identity_residual(zero, zero, PARAMS, INTERIOR)
    assert np.all(res == 0.0)


def test_greens_identity_without_reference(sphere_coarse):
    mesh, _ = sphere_coarse
    trace = exact_trace(mesh, SPHERE_POLE)
    traction = exact_traction(mesh, SPHERE_POLE)
    exact = exact_velocity(INTERIOR, SPHERE_POLE)
    rep = S.greens_identity_residual(trace, traction, PARAMS, INTERIOR)
    res = S.greens_identity_residual(trace, traction, PARAMS, INTERIOR,
                                     exact_velocity=exact)
    assert np.allclose(rep - exact, res, atol=1.0e-15)


def test_greens_identity_mesh_mismatch(sphere_coarse):
    mesh, _ = sphere_coarse
    other = build_icosphere(1)
    with pytest.raises(ValueError, match="mesh"):
        S.greens_identity_residual(
            exact_trace(mesh, SPHERE_POLE), exact_traction(other, SPHERE_POLE),
            PARAMS, INTERIOR)


# --------------------------------------------------------------------- reports

def test_report_json_shape(sphere_coarse):
    mesh, ws = sphere_coarse
    _, report = S.solve_dirichlet(dirichlet_spec(mesh), ws)
    doc = json.loads(report.to_json())
    assert sorted(doc) == ["alpha", "kind", "pressure_constant",
                           "residual_l2", "sigma_max", "sigma_min",
                           "wall_time_s", "warnings"]
    assert doc["kind"] == S.DIRICHLET
    assert doc["alpha"] == 1.0
    assert isinstance(doc["warnings"], list)


# ------------------------------------------------- threads and the row queue

_PATCH_RULES = {"build_icosphere": {"type": "plane", "normal": [0, 0, 1],
                                    "offset": 0.5},
                "build_cube": {"type": "cube_faces", "neumann_faces": ["+z"]}}


def _sharing(ws):
    """A fresh workspace on ws's mesh and α that takes its V and K."""
    fresh = S.SolverWorkspace(ws.mesh, ws.params)
    fresh.single_layer, fresh.double_layer = ws.single_layer, ws.double_layer
    return fresh


@pytest.mark.parametrize("build", [build_icosphere, build_cube])
def test_factorizations_keep_their_bits_across_threads(build, monkeypatch):
    # each LU with its pivots, the Dirichlet σ pair and the rows queued
    # beside them keep their bits whether the LU runs on this thread (one
    # thread) or on the helper beside σ_max and the queued builds (two)
    mesh = build(1)
    labeling = label_patches(mesh, _PATCH_RULES[build.__name__])
    factor, on_main = scipy.linalg.lu_factor, []

    def recorded(matrix, **options):
        on_main.append(threading.current_thread() is threading.main_thread())
        return factor(matrix, **options)

    monkeypatch.setattr(scipy.linalg, "lu_factor", recorded)
    points, results = 0.5 * INTERIOR, {}
    for threads in ("1", "2"):
        monkeypatch.setenv("BBEM_THREADS", threads)
        ws = S.SolverWorkspace(mesh, PARAMS)
        ws.row_store.want(points, ("V", "Qs"), inside=True)
        (lu, pivots), sigma = ws.dirichlet_factorization()
        results[threads] = [lu, pivots, np.array(sigma),
                            *ws.neumann_factorization(),
                            *ws.mixed_factorization(labeling),
                            *ws.row_store.rows(points, ("V", "Qs"))]
    assert on_main == [True] * 3 + [False] * 3
    for one, two in zip(results["1"], results["2"], strict=True):
        assert one.dtype == two.dtype and one.tobytes() == two.tobytes()


@pytest.mark.parametrize("threads", ["1", "2"])
@pytest.mark.parametrize("target, error", [
    (scipy.linalg, np.linalg.LinAlgError), (S, FloatingPointError)])
def test_failed_factorization_raises_and_retries(sphere_coarse, monkeypatch,
                                                 threads, target, error):
    # an LU that raises (on the helper past one thread) or a σ_max that
    # raises (on this thread) surfaces from solve_dirichlet; the workspace
    # stays unfactored, so a second solve factors it, and every thread it
    # started is joined
    mesh, ws = sphere_coarse
    name = "lu_factor" if target is scipy.linalg else "_sigma_max"
    original, calls = getattr(target, name), []

    def failing_once(*args, **options):
        calls.append(threading.current_thread() is threading.main_thread())
        if len(calls) == 1:
            raise error("injected")
        return original(*args, **options)

    monkeypatch.setattr(target, name, failing_once)
    monkeypatch.setenv("BBEM_THREADS", threads)
    fresh, spec = _sharing(ws), dirichlet_spec(mesh)
    before = threading.active_count()
    with pytest.raises(error, match="injected"):
        S.solve_dirichlet(spec, fresh)
    assert fresh._dirichlet_lu is None
    assert threading.active_count() == before
    handle, report = S.solve_dirichlet(spec, fresh)
    assert calls == [target is S or threads == "1"] * 2
    expected, expected_report = S.solve_dirichlet(spec, ws)
    assert handle.density.values.tobytes() == (
        expected.density.values.tobytes())
    assert report.sigma_min == expected_report.sigma_min
    assert report.sigma_max == expected_report.sigma_max


@pytest.mark.parametrize("threads", ["1", "2"])
def test_queued_point_outside_raises_at_its_read(sphere_coarse, monkeypatch,
                                                 threads):
    # a queued set with a point outside Ω does not fail the solve that
    # builds it beside its LU; evaluate_solution on that set raises the
    # ValueError of an unqueued read, on every read
    mesh, ws = sphere_coarse
    monkeypatch.setenv("BBEM_THREADS", threads)
    fresh = _sharing(ws)
    points = np.array([[0.1, 0.0, 0.0], [3.0, 0.0, 0.0]])
    fresh.row_store.want(points, ("W", "Qd"), inside=True)
    handle, _ = S.solve_dirichlet(dirichlet_spec(mesh), fresh)
    assert (("W", "Qd") in fresh.row_store._entries) == (threads == "2")
    with pytest.raises(ValueError) as unqueued:
        S.evaluate_solution(dataclasses.replace(handle, row_store=None),
                            points)
    for _ in range(2):
        with pytest.raises(ValueError, match="point 1 lies outside") as read:
            S.evaluate_solution(handle, points)
        assert str(read.value) == str(unqueued.value)


@pytest.mark.parametrize("threads", ["1", "2"])
def test_queued_rows_are_built_once(cube_mixed, monkeypatch, threads):
    # a queued set is built once: beside the next LU past one thread, else
    # at its first read; a set read before any LU or already stored is not
    # queued again, and repeated mixed solves (as the Picard loop makes)
    # leave the queue empty
    mesh, labeling, ws = cube_mixed
    monkeypatch.setenv("BBEM_THREADS", threads)
    fresh, built = _sharing(ws), []
    monkeypatch.setattr(S, "_layer_rows", _recording_layer_rows(built))
    store, points, other = fresh.row_store, 0.5 * INTERIOR, 0.4 * INTERIOR
    store.want(points, ("V", "Qs"), inside=True)
    first = store.rows(points, ("V", "Qs"), inside=True)
    store.want(points, ("V", "Qs"), inside=True)
    assert built == [("V", "Qs")] and store._queue == {}
    store.want(other, ("V",))
    fresh.mixed_factorization(labeling)
    assert built[1:] == ([("V",)] if threads == "2" else [])
    store.rows(other, ("V",))
    assert built[1:] == [("V",)] and store._queue == {}
    for pole in (CUBE_POLE, CUBE_POLE + 0.3, CUBE_POLE + 0.6):
        S.solve_mixed(S.BVPSpec(kind=S.MIXED, params=PARAMS, mesh=mesh,
                                labeling=labeling,
                                dirichlet_data=exact_trace(mesh, pole),
                                neumann_data=exact_traction(mesh, pole)),
                      fresh)
        assert store._queue == {}
    assert built == [("V", "Qs"), ("V",), ("Qs",)]
    assert store.rows(points, ("V", "Qs")) is first
