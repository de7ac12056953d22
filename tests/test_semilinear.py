"""Fixed-point solver for the nonlinear drag term: single-iteration linear
limits, contraction and ball diagnostics for small data, divergence and
non-convergence reporting, empirical constant estimation, the FFT fast path
of the on-grid Newtonian pair, and the finite-difference residual."""

import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest
from _oracles import newtonian_on_lattice

from bbem.errors import (
    NotConverged,
    SmallnessViolated,
    UnsupportedParameter,
)
from bbem.geometry import build_cube, build_volume_grid, label_patches
from bbem.kernels import (
    BrinkmanParams,
    brinkman_velocity_tensor,
    traction_kernel,
)
from bbem.potentials import (
    BoundaryField,
    VolumeField,
    newtonian_pressure,
    newtonian_velocity,
)
from bbem import potentials as P
from bbem import solvers as S
from bbem import semilinear as SL

PARAMS = BrinkmanParams(alpha=1.0, beta=1.0)
LINEAR = BrinkmanParams(alpha=1.0, beta=0.0)
POLE = np.array([0.9, 0.7, 1.1])
COLUMN = 1

DIVERGENT_FACTOR = 1.0e5
"""Data this large blow up within a few iterations; the level-1 iteration
still converges, slowly, up to roughly three orders above manufactured
scale."""

LADDER_FACTOR = 600.0
"""Base scale for the data-scaling ladder, chosen so halving the data
visibly shortens the iteration."""


@pytest.fixture(scope="module")
def setting():
    mesh = build_cube(1)
    labeling = label_patches(mesh, {"type": "cube_faces",
                                    "neumann_faces": ["+z"]})
    grid = build_volume_grid({"type": "cube", "side": 1.0}, 12)
    workspace = S.SolverWorkspace(mesh, PARAMS)
    constants = SL.estimate_constants(mesh, labeling, grid, PARAMS,
                                      samples=8, workspace=workspace)
    return mesh, labeling, grid, workspace, constants


def scaled_data(mesh, grid, factor):
    """Manufactured-scale smooth data tuple multiplied by factor."""
    trace = brinkman_velocity_tensor(mesh.centroids - POLE,
                                     PARAMS.alpha)[:, :, COLUMN]
    traction = traction_kernel(mesh.centroids, POLE, mesh.normals,
                               PARAMS.alpha)[:, :, COLUMN]
    forcing = np.tile([0.05, -0.02, 0.03], (grid.n_cells, 1))
    return (VolumeField(grid, factor * forcing),
            BoundaryField(mesh, factor * trace),
            BoundaryField(mesh, factor * traction))


def small_factor(mesh, grid, constants):
    forcing, trace, traction = scaled_data(mesh, grid, 1.0)
    scale = forcing.norm() + trace.norm() + traction.norm()
    return min(1.0, 0.5 * constants.zeta_est / scale)


# -------------------------------------------------------------- configuration

def test_config_rejects_bad_fields():
    with pytest.raises(ValueError, match="tol"):
        SL.PicardConfig(tol=0.0)
    with pytest.raises(ValueError, match="max_iter"):
        SL.PicardConfig(max_iter=0)
    with pytest.raises(ValueError, match="max_iter"):
        SL.PicardConfig(max_iter=3.0)
    with pytest.raises(ValueError, match="damping"):
        SL.PicardConfig(damping=0.0)
    with pytest.raises(ValueError, match="damping"):
        SL.PicardConfig(damping=1.5)


def test_solver_requires_positive_alpha(setting):
    mesh, labeling, grid, _, _ = setting
    forcing, trace, traction = scaled_data(mesh, grid, 1.0)
    stokes = BrinkmanParams(alpha=0.0, beta=1.0)
    with pytest.raises(UnsupportedParameter):
        SL.picard_solve(mesh, labeling, grid, stokes, forcing, trace,
                        traction, SL.PicardConfig())
    with pytest.raises(UnsupportedParameter):
        SL.estimate_constants(mesh, labeling, grid, stokes, samples=8)


def test_solver_rejects_foreign_workspace(setting):
    mesh, labeling, grid, _, constants = setting
    forcing, trace, traction = scaled_data(mesh, grid, 1.0)
    other = S.SolverWorkspace(mesh, BrinkmanParams(alpha=2.0, beta=1.0))
    with pytest.raises(ValueError, match="workspace"):
        SL.picard_solve(mesh, labeling, grid, PARAMS, forcing, trace,
                        traction, SL.PicardConfig(), constants=constants,
                        workspace=other)


def test_estimates_reject_foreign_workspace(setting):
    mesh, labeling, grid, _, _ = setting
    other = S.SolverWorkspace(mesh, BrinkmanParams(alpha=2.0, beta=1.0))
    with pytest.raises(ValueError, match="workspace was built for a "
                                         "different problem"):
        SL.estimate_constants(mesh, labeling, grid, PARAMS, samples=8,
                              workspace=other)


def test_initial_velocity_validation(setting):
    mesh, labeling, grid, workspace, constants = setting
    forcing, trace, traction = scaled_data(mesh, grid, 1.0)
    with pytest.raises(ValueError, match="shape"):
        SL.picard_solve(mesh, labeling, grid, PARAMS, forcing, trace,
                        traction, SL.PicardConfig(), constants=constants,
                        workspace=workspace,
                        initial_velocity=np.zeros((4, 3)))
    other_grid = build_volume_grid({"type": "cube", "side": 1.0}, 6)
    with pytest.raises(ValueError, match="different grid"):
        SL.picard_solve(mesh, labeling, grid, PARAMS, forcing, trace,
                        traction, SL.PicardConfig(), constants=constants,
                        workspace=workspace,
                        initial_velocity=VolumeField(
                            other_grid, np.zeros((other_grid.n_cells, 3))))
    bad = np.zeros((grid.n_cells, 3))
    bad[0, 0] = np.nan
    with pytest.raises(ValueError, match="finite"):
        SL.picard_solve(mesh, labeling, grid, PARAMS, forcing, trace,
                        traction, SL.PicardConfig(), constants=constants,
                        workspace=workspace, initial_velocity=bad)


# ------------------------------------------------------------- linear limits

def test_beta_zero_converges_in_one_iteration(setting):
    mesh, labeling, grid, _, _ = setting
    forcing, trace, traction = scaled_data(mesh, grid, 1.0)
    workspace = S.SolverWorkspace(mesh, LINEAR)
    handle, report = SL.picard_solve(mesh, labeling, grid, LINEAR, forcing,
                                     trace, traction, SL.PicardConfig(),
                                     workspace=workspace)
    assert report.converged
    assert len(report.iterates) == 1
    assert report.measured_ratio == 0.0
    assert report.constants is None
    assert report.ball_respected

    spec = S.BVPSpec(kind=S.MIXED, params=LINEAR, mesh=mesh,
                     labeling=labeling, dirichlet_data=trace,
                     neumann_data=traction, forcing=forcing, grid=grid)
    direct, _ = S.solve_poisson(spec, workspace)
    assert handle.tag == S.WITH_NEWTONIAN
    assert np.array_equal(handle.density.values, direct.density.values)


def test_zero_data_gives_zero_solution(setting):
    mesh, labeling, grid, workspace, constants = setting
    zero_f = VolumeField(grid, np.zeros((grid.n_cells, 3)))
    zero_b = BoundaryField(mesh, np.zeros((mesh.n_panels, 3)))
    handle, report = SL.picard_solve(mesh, labeling, grid, PARAMS, zero_f,
                                     zero_b, zero_b, SL.PicardConfig(),
                                     constants=constants, workspace=workspace)
    assert report.converged
    assert len(report.iterates) == 1
    assert report.iterates[0] == 0.0
    assert np.array_equal(handle.density.values, zero_b.values)
    assert SL.semilinear_residual(handle, grid, PARAMS, zero_f) == 0.0


# -------------------------------------------------------- contraction regime

def test_small_data_contracts_inside_ball(setting):
    mesh, labeling, grid, workspace, constants = setting
    factor = small_factor(mesh, grid, constants)
    forcing, trace, traction = scaled_data(mesh, grid, factor)
    handle, report = SL.picard_solve(mesh, labeling, grid, PARAMS, forcing,
                                     trace, traction,
                                     SL.PicardConfig(tol=1.0e-8, max_iter=20),
                                     constants=constants, workspace=workspace)
    assert report.converged
    assert report.ball_respected
    assert report.measured_ratio <= 0.6
    assert SL.semilinear_residual(handle, grid, PARAMS, forcing) <= 0.1

    _, again = SL.picard_solve(mesh, labeling, grid, PARAMS, forcing,
                               trace, traction,
                               SL.PicardConfig(tol=1.0e-8, max_iter=20),
                               constants=constants, workspace=workspace)
    assert again.iterates == report.iterates


def test_estimates_run_when_constants_omitted(setting):
    mesh, labeling, grid, workspace, constants = setting
    factor = small_factor(mesh, grid, constants)
    forcing, trace, traction = scaled_data(mesh, grid, factor)
    _, report = SL.picard_solve(mesh, labeling, grid, PARAMS, forcing, trace,
                                traction, SL.PicardConfig(),
                                workspace=workspace)
    assert report.constants is not None
    assert report.constants == constants


def test_picard_builds_the_boundary_rows_once(setting, monkeypatch):
    # every sampled solve and every step is a forced solve on one grid, so
    # the map from forcing to Newtonian boundary data is built once and no
    # Newtonian sum runs inside the solves
    mesh, labeling, grid, _, constants = setting
    forcing, trace, traction = scaled_data(
        mesh, grid, small_factor(mesh, grid, constants))
    built, summed = [], []
    rows, sums = S._newtonian_rows, P._newtonian_sums

    def built_rows(grid, points, params, kind, normals=None):
        built.append((kind, len(points)))
        return rows(grid, points, params, kind, normals)

    def counted_sums(*args, **kwargs):
        summed.append(args[4])
        return sums(*args, **kwargs)

    monkeypatch.setattr(S, "_newtonian_rows", built_rows)
    monkeypatch.setattr(S, "_newtonian_sums", counted_sums)
    monkeypatch.setattr(P, "_newtonian_sums", counted_sums)
    workspace = S.SolverWorkspace(mesh, PARAMS)
    _, report = SL.picard_solve(mesh, labeling, grid, PARAMS, forcing, trace,
                                traction, SL.PicardConfig(),
                                workspace=workspace)
    assert report.converged and len(report.iterates) > 2
    assert report.constants == constants
    assert built == [("velocity", labeling.n_dirichlet),
                     ("traction", labeling.n_neumann),
                     ("pressure", len(workspace.probes))]
    assert summed == []


def test_scaling_down_never_increases_iterations(setting):
    mesh, labeling, grid, workspace, constants = setting
    counts = []
    for scale in (1.0, 0.5, 0.25):
        forcing, trace, traction = scaled_data(mesh, grid,
                                               scale * LADDER_FACTOR)
        _, report = SL.picard_solve(mesh, labeling, grid, PARAMS, forcing,
                                    trace, traction,
                                    SL.PicardConfig(tol=1.0e-8, max_iter=60),
                                    constants=constants, workspace=workspace)
        counts.append(len(report.iterates))
    assert counts[0] >= counts[1] >= counts[2]


def test_fixed_point_certificate(setting):
    mesh, labeling, grid, workspace, constants = setting
    tol = 1.0e-8
    factor = small_factor(mesh, grid, constants)
    forcing, trace, traction = scaled_data(mesh, grid, factor)
    handle, _ = SL.picard_solve(mesh, labeling, grid, PARAMS, forcing, trace,
                                traction, SL.PicardConfig(tol=tol),
                                constants=constants, workspace=workspace)
    fixed = SL._grid_velocity(workspace, handle)
    shifted = forcing.values + PARAMS.beta * np.linalg.norm(
        fixed, axis=1)[:, None] * fixed
    spec = S.BVPSpec(kind=S.MIXED, params=PARAMS, mesh=mesh,
                     labeling=labeling, dirichlet_data=trace,
                     neumann_data=traction,
                     forcing=VolumeField(grid, shifted), grid=grid)
    extra, _ = S.solve_poisson(spec, workspace)
    moved = SL._grid_velocity(workspace, extra)
    assert SL._grid_norm(grid, moved - fixed) <= 2.0 * tol


def test_beta_zero_reuses_a_beta_one_workspace(setting):
    # no linear operator reads beta: the beta = 1 workspace serves a
    # beta = 0 solve with the bits of a fresh workspace
    mesh, labeling, grid, workspace, _ = setting
    forcing, trace, traction = scaled_data(mesh, grid, 1.0)
    handles = [SL.picard_solve(mesh, labeling, grid, LINEAR, forcing, trace,
                               traction, SL.PicardConfig(), workspace=ws)[0]
               for ws in (workspace, S.SolverWorkspace(mesh, LINEAR))]
    assert (handles[0].density.values.tobytes()
            == handles[1].density.values.tobytes())
    assert handles[0].pressure_constant == handles[1].pressure_constant


def test_two_initial_guesses_agree(setting):
    mesh, labeling, grid, workspace, constants = setting
    tol = 1.0e-10
    factor = small_factor(mesh, grid, constants)
    forcing, trace, traction = scaled_data(mesh, grid, factor)
    linear_ws = S.SolverWorkspace(mesh, LINEAR)
    linear, _ = SL.picard_solve(mesh, labeling, grid, LINEAR, forcing, trace,
                                traction, SL.PicardConfig(),
                                workspace=linear_ws)
    start = SL._grid_velocity(linear_ws, linear)
    config = SL.PicardConfig(tol=tol, max_iter=40)
    from_zero, _ = SL.picard_solve(mesh, labeling, grid, PARAMS, forcing,
                                   trace, traction, config,
                                   constants=constants, workspace=workspace)
    from_linear, _ = SL.picard_solve(mesh, labeling, grid, PARAMS, forcing,
                                     trace, traction, config,
                                     constants=constants, workspace=workspace,
                                     initial_velocity=start)
    gap = SL._grid_norm(grid, SL._grid_velocity(workspace, from_zero)
                        - SL._grid_velocity(workspace, from_linear))
    assert gap <= 10.0 * tol


def test_damping_reaches_the_same_fixed_point(setting):
    mesh, labeling, grid, workspace, constants = setting
    factor = small_factor(mesh, grid, constants)
    forcing, trace, traction = scaled_data(mesh, grid, factor)
    plain, _ = SL.picard_solve(mesh, labeling, grid, PARAMS, forcing, trace,
                               traction, SL.PicardConfig(tol=1.0e-10),
                               constants=constants, workspace=workspace)
    damped, report = SL.picard_solve(mesh, labeling, grid, PARAMS, forcing,
                                     trace, traction,
                                     SL.PicardConfig(tol=1.0e-10,
                                                     max_iter=60,
                                                     damping=0.5),
                                     constants=constants, workspace=workspace)
    assert report.converged
    gap = SL._grid_norm(grid, SL._grid_velocity(workspace, plain)
                        - SL._grid_velocity(workspace, damped))
    assert gap <= 1.0e-8


# ------------------------------------------------------------- failure modes

def test_large_data_raise_smallness_violation(setting):
    mesh, labeling, grid, workspace, constants = setting
    forcing, trace, traction = scaled_data(mesh, grid, DIVERGENT_FACTOR)
    with pytest.raises(SmallnessViolated) as excinfo:
        SL.picard_solve(mesh, labeling, grid, PARAMS, forcing, trace,
                        traction, SL.PicardConfig(max_iter=30),
                        constants=constants, workspace=workspace)
    diagnostics = excinfo.value.diagnostics
    assert diagnostics["growth_streak"] >= 3
    assert diagnostics["last_difference"] > 10.0 * diagnostics["first_difference"]
    assert len(diagnostics["differences"]) == diagnostics["iterations"]


def test_max_iter_raises_not_converged_with_report(setting):
    mesh, labeling, grid, workspace, constants = setting
    forcing, trace, traction = scaled_data(mesh, grid, 1.0)
    with pytest.raises(NotConverged) as excinfo:
        SL.picard_solve(mesh, labeling, grid, PARAMS, forcing, trace,
                        traction, SL.PicardConfig(tol=1.0e-13, max_iter=1),
                        constants=constants, workspace=workspace)
    report = excinfo.value.report
    assert not report.converged
    assert len(report.iterates) == 1


# ------------------------------------------------------- constant estimation

def test_constants_satisfy_their_definitions(setting):
    _, _, _, _, constants = setting
    assert constants.C_est > 0.0
    assert constants.c1prime_est > 0.0
    assert constants.C2_est == constants.c1prime_est * PARAMS.beta
    identity = (constants.zeta_est * (16.0 / 3.0) * constants.C2_est
                * constants.C_est ** 2)
    assert abs(identity - 1.0) <= 1.0e-12
    assert (constants.eta_est * 4.0 * constants.C2_est
            * constants.C_est) == pytest.approx(1.0, abs=1.0e-12)


def test_doubling_beta_halves_eta_exactly():
    single = SL.SmallnessConstants.derive(0.7, 1.3, 1.0)
    double = SL.SmallnessConstants.derive(0.7, 1.3, 2.0)
    assert double.eta_est == single.eta_est / 2.0
    assert double.zeta_est == single.zeta_est / 2.0


def test_zero_beta_leaves_the_radii_unbounded():
    constants = SL.SmallnessConstants.derive(0.7, 1.3, 0.0)
    assert constants.C2_est == 0.0
    assert math.isinf(constants.zeta_est)
    assert math.isinf(constants.eta_est)


def test_estimates_grow_with_the_sample_count(setting):
    mesh, labeling, grid, workspace, constants = setting
    larger = SL.estimate_constants(mesh, labeling, grid, PARAMS, samples=10,
                                   workspace=workspace)
    assert larger.C_est >= constants.C_est
    assert larger.c1prime_est >= constants.c1prime_est


def test_estimation_requires_eight_samples(setting):
    mesh, labeling, grid, workspace, _ = setting
    with pytest.raises(ValueError, match="8"):
        SL.estimate_constants(mesh, labeling, grid, PARAMS, samples=7,
                              workspace=workspace)
    with pytest.raises(ValueError, match="samples"):
        SL.estimate_constants(mesh, labeling, grid, PARAMS, samples=8.0,
                              workspace=workspace)


# ------------------------------------------------------------- serialization

def test_report_serializes_with_pinned_keys(setting):
    mesh, labeling, grid, workspace, constants = setting
    factor = small_factor(mesh, grid, constants)
    forcing, trace, traction = scaled_data(mesh, grid, factor)
    _, report = SL.picard_solve(mesh, labeling, grid, PARAMS, forcing, trace,
                                traction, SL.PicardConfig(),
                                constants=constants, workspace=workspace)
    document = json.loads(report.to_json())
    assert sorted(document) == ["C_est", "ball_respected", "c1prime_est",
                                "converged", "eta_est", "iterates",
                                "measured_ratio", "zeta_est"]
    assert document["iterates"] == list(report.iterates)
    assert document["converged"] is True
    assert document["C_est"] == constants.C_est

    zero_b = BoundaryField(mesh, np.zeros((mesh.n_panels, 3)))
    zero_f = VolumeField(grid, np.zeros((grid.n_cells, 3)))
    linear_ws = S.SolverWorkspace(mesh, LINEAR)
    _, linear_report = SL.picard_solve(mesh, labeling, grid, LINEAR, zero_f,
                                       zero_b, zero_b, SL.PicardConfig(),
                                       workspace=linear_ws)
    linear_document = json.loads(linear_report.to_json())
    assert linear_document["C_est"] is None
    assert linear_document["zeta_est"] is None
    assert linear_document["ball_respected"] is True


# ---------------------------------------------------- on-grid Newtonian term

def _on_grid(grid, forcing, params, kinds):
    """_newtonian_on_grid on the grid's lattice transforms built here."""
    return P._newtonian_on_grid(grid, forcing, params, kinds,
                                P._lattice_kernel(grid, params, kinds))


def test_fft_convolution_matches_direct_sum():
    grid = build_volume_grid({"type": "cube", "side": 1.0}, 8)
    rng = np.random.default_rng(11)
    forcing = rng.normal(size=(grid.n_cells, 3))
    fast = _on_grid(grid, forcing, PARAMS, ("velocity", "pressure"))
    direct = (newtonian_velocity(grid, forcing, grid.centers, PARAMS),
              newtonian_pressure(grid, forcing, grid.centers))
    for lattice, pairwise in zip(fast, direct):
        gap = np.linalg.norm(lattice - pairwise) / np.linalg.norm(pairwise)
        assert gap <= 1.0e-12


@pytest.mark.parametrize("m", [5, 8, 10, 11])
@pytest.mark.parametrize("alpha", [0.0, 1.0, 4.0])
def test_lattice_convolution_matches_fftconvolve(m, alpha):
    # the shared-transform convolution on the 2m − 1 padding against the
    # one fftconvolve call per kernel component it replaced
    grid = build_volume_grid({"type": "cube", "side": 1.0}, m)
    forcing = np.random.default_rng(m).normal(size=(grid.n_cells, 3))
    params = BrinkmanParams(alpha=alpha)
    kinds = ("velocity", "pressure")
    fast = _on_grid(grid, forcing, params, kinds)
    reference = newtonian_on_lattice(forcing, m, grid.spacing, params, kinds)
    for kind, got, expected in zip(kinds, fast, reference):
        assert got.shape == expected.shape
        gap = np.linalg.norm(got - expected) / np.linalg.norm(expected)
        assert gap <= 1.0e-13, kind


def test_workspace_keeps_the_velocity_transform_per_grid(monkeypatch):
    # the velocity kernel's transform is built once per workspace and grid,
    # beside the grid's Newtonian maps, and the convolution on it keeps the
    # bits of the one built per call
    grid = build_volume_grid({"type": "cube", "side": 1.0}, 6)
    forcing = np.random.default_rng(6).normal(size=(grid.n_cells, 3))
    ws = S.SolverWorkspace(build_cube(1), PARAMS)
    builds, lattice_kernel = [], S._lattice_kernel

    def counted(*args):
        builds.append(args[2])
        return lattice_kernel(*args)

    monkeypatch.setattr(S, "_lattice_kernel", counted)
    kernel = ws._velocity_lattice(grid)
    mask = np.arange(ws.mesh.n_panels) % 2 == 0
    maps = ws.newtonian_rows(grid, mask)
    assert ws._velocity_lattice(grid) is kernel and builds == [("velocity",)]
    assert ws.newtonian_rows(grid, mask) is maps
    got, = P._newtonian_on_grid(grid, forcing, PARAMS, ("velocity",), kernel)
    expected, = _on_grid(grid, forcing, PARAMS, ("velocity",))
    assert got.tobytes() == expected.tobytes()
    other = build_volume_grid({"type": "cube", "side": 1.0}, 5)
    ws._velocity_lattice(other)
    assert len(builds) == 2


def _imported_by_bbem(module):
    """Whether a fresh `import bbem` imports module."""
    src = os.path.dirname(os.path.dirname(P.__file__))
    code = f"import sys, bbem; print({module!r} in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True,
                         env=dict(os.environ, PYTHONPATH=src))
    return out.stdout.strip() == "True"


def test_import_leaves_scipy_signal_out():
    # scipy.signal is the slowest scipy import, and bbem needs none of it
    assert not _imported_by_bbem("scipy.signal")


def test_import_leaves_scipy_fft_out():
    # scipy.fft costs about 0.06 s of every process start; only the lattice
    # convolution needs it, and imports it on its first call
    assert not _imported_by_bbem("scipy.fft")


def test_filtered_grid_falls_back_to_direct_sum():
    grid = build_volume_grid({"type": "sphere", "radius": 0.5}, 6)
    assert SL._lattice_resolution(grid) is None
    rng = np.random.default_rng(12)
    forcing = rng.normal(size=(grid.n_cells, 3))
    velocity, pressure = _on_grid(grid, forcing, PARAMS,
                                  ("velocity", "pressure"))
    assert np.array_equal(
        velocity, newtonian_velocity(grid, forcing, grid.centers, PARAMS))
    assert np.array_equal(
        pressure, newtonian_pressure(grid, forcing, grid.centers))


# ------------------------------------------------------------------ residual

def test_beta_zero_residual_is_the_linear_residual(setting):
    mesh, labeling, grid, _, _ = setting
    forcing, trace, traction = scaled_data(mesh, grid, 1.0)
    workspace = S.SolverWorkspace(mesh, LINEAR)
    handle, _ = SL.picard_solve(mesh, labeling, grid, LINEAR, forcing, trace,
                                traction, SL.PicardConfig(),
                                workspace=workspace)
    spec = S.BVPSpec(kind=S.MIXED, params=LINEAR, mesh=mesh,
                     labeling=labeling, dirichlet_data=trace,
                     neumann_data=traction, forcing=forcing, grid=grid)
    direct, _ = S.solve_poisson(spec, workspace)
    assert np.array_equal(handle.density.values, direct.density.values)
    residual = SL.semilinear_residual(handle, grid, LINEAR, forcing)
    assert residual <= 0.1


def test_residual_takes_the_newtonian_pair_on_the_grid(setting):
    """The residual of a forced handle matches the stencil applied to
    evaluate_solution of the full handle at the evaluated cells, and a
    forced handle refuses another lattice."""
    mesh, labeling, grid, workspace, _ = setting
    forcing, trace, traction = scaled_data(mesh, grid, 1.0)
    spec = S.BVPSpec(kind=S.MIXED, params=PARAMS, mesh=mesh,
                     labeling=labeling, dirichlet_data=trace,
                     neumann_data=traction, forcing=forcing, grid=grid)
    handle, _ = S.solve_poisson(spec, workspace)
    m = SL._lattice_resolution(grid)
    depth = SL._lattice_depth(m)
    evaluated, probe = depth >= 1, depth >= 2
    fields = S.evaluate_solution(handle,
                                 grid.centers.reshape(m, m, m, 3)[evaluated])
    velocity = np.full((m, m, m, 3), np.nan)
    pressure = np.full((m, m, m), np.nan)
    velocity[evaluated] = fields.velocity
    pressure[evaluated] = fields.pressure
    f_values = forcing.values.reshape(m, m, m, 3)
    residual, drag = SL._lattice_residual(velocity, pressure, f_values,
                                          grid.spacing, PARAMS.alpha,
                                          PARAMS.beta)
    reference = (np.linalg.norm(residual[probe])
                 / (np.linalg.norm(f_values[probe])
                    + PARAMS.alpha * np.linalg.norm(velocity[probe])
                    + np.linalg.norm(drag[probe])))
    value = SL.semilinear_residual(handle, grid, PARAMS, forcing)
    assert abs(value - reference) <= 1.0e-12 * reference
    other = build_volume_grid({"type": "cube", "side": 1.0}, 12)
    with pytest.raises(ValueError, match="different volume grid"):
        SL.semilinear_residual(handle, other, PARAMS,
                               np.zeros((other.n_cells, 3)))


def test_residual_needs_a_cubic_lattice(setting):
    mesh, labeling, grid, workspace, constants = setting
    zero_b = BoundaryField(mesh, np.zeros((mesh.n_panels, 3)))
    zero_f = VolumeField(grid, np.zeros((grid.n_cells, 3)))
    handle, _ = SL.picard_solve(mesh, labeling, grid, PARAMS, zero_f, zero_b,
                                zero_b, SL.PicardConfig(),
                                constants=constants, workspace=workspace)
    ball = build_volume_grid({"type": "sphere", "radius": 0.5}, 8)
    with pytest.raises(ValueError, match="lattice"):
        SL.semilinear_residual(handle, ball, PARAMS,
                               np.zeros((ball.n_cells, 3)))
    coarse = build_volume_grid({"type": "cube", "side": 1.0}, 4)
    with pytest.raises(ValueError, match="5 cells"):
        SL.semilinear_residual(handle, coarse, PARAMS,
                               np.zeros((coarse.n_cells, 3)))
