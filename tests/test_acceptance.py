"""Acceptance criteria, one test per criterion at its stated tolerance.

Each test prints the measured quantities it asserts so a verbose run shows
one pass/fail line per criterion with the numbers behind it.  The sphere
ladder uses levels 1-3 (80/320/1280 panels), the creased cube 48/192/768;
manufactured data come from an exterior pole two units off the boundary.
"""

import os
import time

import numpy as np
import scipy.linalg

from bbem.geometry import VolumeGrid
from bbem.kernels import BrinkmanParams
from bbem.potentials import newtonian_velocity
from bbem.solvers import (
    DIRICHLET,
    MIXED,
    NEUMANN,
    SolverWorkspace,
    neumann_to_dirichlet,
)
from bbem import harness as H

from conftest import UNIT_PARAMS

SPHERE_SOURCE = H.manufactured_solution(H.SPHERE_SOURCE_POINT,
                                        H.SOURCE_COLUMN, UNIT_PARAMS)
CUBE_SOURCE = H.manufactured_solution(H.CUBE_SOURCE_POINT, H.SOURCE_COLUMN,
                                      UNIT_PARAMS)


def test_criterion_01_kernel_identities():
    """Momentum residual <= 1e-5 and analytic divergence <= 1e-6 at 100
    seeded points for alpha in {0, 0.5, 1, 4}, in under five seconds."""
    start = time.perf_counter()
    errors = H.kernel_pde_errors(n_points=100, alphas=(0.0, 0.5, 1.0, 4.0))
    elapsed = time.perf_counter() - start
    print(f"pde_residual={errors['pde_residual']:.3e} "
          f"divergence={errors['divergence']:.3e} elapsed={elapsed:.2f}s")
    assert errors["pde_residual"] <= 1e-5
    assert errors["divergence"] <= 1e-6
    assert elapsed < 5.0


def test_criterion_02_stokes_limit_and_decay_envelope():
    """Componentwise gap to the Stokes kernel shrinks monotonically as the
    damping vanishes, and one constant covers the decay envelope over
    radii in [0.5, 20]."""
    gaps = H.stokes_limit_gaps(alphas=(1e-2, 1e-4, 1e-6))
    excess = H.decay_envelope_excess()
    print(f"gaps={[f'{g:.3e}' for g in gaps]} envelope_excess={excess:.4f}")
    assert gaps[0] > gaps[1] > gaps[2] > 0.0
    assert excess <= 1.05


def test_criterion_03_layer_jump_relations(sphere_meshes):
    """Single-layer trace continuity, double-layer trace jump, and
    single-layer traction jump: each relation within 5e-2 relative at level
    3 and strictly smaller than at level 2."""
    results = {level: H.jump_battery(sphere_meshes[level], UNIT_PARAMS)
               for level in (2, 3)}
    print(" ".join(f"{key}: L2={results[2][key]:.3e} L3={results[3][key]:.3e}"
                   for key in ("sl_trace", "w_jump", "t_jump")))
    for key in ("sl_trace", "w_jump", "t_jump"):
        assert results[3][key] <= 5e-2
        assert results[3][key] < results[2][key]


def test_criterion_04_traction_operator_spectra(sphere_meshes):
    """The exterior traction operator has a one-dimensional near-nullspace
    aligned with the normal (sigma_min <= 1e-2 at level 3, cosine >= 0.99,
    sigma_2 >= 10 sigma_min), while the interior operator's invertibility
    floor drops by at most 20 percent from level 1 to level 3."""
    params = BrinkmanParams(alpha=H.SPECTRA_ALPHA)
    spectra = {level: H.operator_spectra(SolverWorkspace(mesh, params))
               for level, mesh in sphere_meshes.items()}
    top = spectra[3]
    floor = [spectra[level]["sigma_min_plus"] for level in (1, 2, 3)]
    drop = 1.0 - floor[2] / floor[0]
    print(f"sigma_min={top['sigma_min_minus']:.3e} "
          f"cosine={top['nu_cosine']:.6f} "
          f"gap={top['sigma2_minus'] / top['sigma_min_minus']:.1f} "
          f"floor={[f'{v:.4f}' for v in floor]} drop={drop:.3f}")
    assert top["sigma_min_minus"] <= 1e-2
    assert top["nu_cosine"] >= 0.99
    assert top["sigma2_minus"] >= 10.0 * top["sigma_min_minus"]
    assert drop <= 0.2


def test_criterion_05_single_layer_normal_defect(sphere_workspaces):
    """The single layer annihilates the normal field: relative defect at
    most 5e-2 at level 2 and strictly smaller at level 3."""
    defects = {level: H.sl_normal_defect(sphere_workspaces[level])
               for level in (2, 3)}
    print(f"defect L2={defects[2]:.3e} L3={defects[3]:.3e}")
    assert defects[2] <= 5e-2
    assert defects[3] < defects[2]


def test_criterion_06_manufactured_sphere_solves(sphere_meshes,
                                                 sphere_workspaces):
    """Dirichlet and Neumann solves against the exterior-pole solution:
    interior error <= 1e-2 at level 3, error ratio >= 2 per refinement, and
    each level-3 solve within two minutes."""
    errors = {kind: [] for kind in (DIRICHLET, NEUMANN)}
    for level in (1, 2, 3):
        for kind in (DIRICHLET, NEUMANN):
            result = H.manufactured_errors(
                kind, sphere_meshes[level], SPHERE_SOURCE, H.INTERIOR_PROBES,
                workspace=sphere_workspaces[level])
            errors[kind].append(result)
    for name, kind in (("dirichlet", DIRICHLET), ("neumann", NEUMANN)):
        interior = [r["interior_l2"] for r in errors[kind]]
        print(f"{name}: " + " ".join(f"L{i + 1}={e:.3e}"
                                     for i, e in enumerate(interior))
              + f" solve_time_L3={errors[kind][2]['wall_time_s']:.1f}s")
        assert interior[2] <= 1e-2
        assert interior[0] / interior[1] >= 2.0
        assert interior[1] / interior[2] >= 2.0
        assert errors[kind][2]["wall_time_s"] <= 120.0


def test_criterion_07_mixed_crease_convergence(cube_setups):
    """Mixed problem on the creased cube with traction data on the top
    face: interior error <= 5e-2 at level 3 and monotone under
    refinement."""
    interior = []
    for level in (1, 2, 3):
        mesh, labeling, ws = cube_setups[level]
        result = H.manufactured_errors(MIXED, mesh, CUBE_SOURCE,
                                       H.INTERIOR_PROBES, labeling=labeling,
                                       workspace=ws)
        interior.append(result["interior_l2"])
    print("mixed: " + " ".join(f"L{i + 1}={e:.3e}"
                               for i, e in enumerate(interior)))
    assert interior[2] <= 5e-2
    assert interior[2] < interior[1] < interior[0]


def test_criterion_08_ntd_composition_and_injectivity(cube_setups):
    """The traction-to-trace composition matches solve-then-restrict to
    1e-10, and its Dirichlet-patch block stays injective across levels."""
    sigma = {}
    consistency = {}
    for level in (1, 2, 3):
        mesh, labeling, ws = cube_setups[level]
        ntd = neumann_to_dirichlet(mesh, labeling, UNIT_PARAMS, workspace=ws)
        sigma[level] = float(scipy.linalg.svdvals(
            ntd.dirichlet_submatrix)[-1])
        if level <= 2:
            consistency[level] = H.ntd_consistency(mesh, labeling,
                                                   CUBE_SOURCE, workspace=ws)
    print(f"consistency={[f'{v:.2e}' for v in consistency.values()]} "
          f"sigma_min={[f'{sigma[k]:.3e}' for k in (1, 2, 3)]}")
    for value in consistency.values():
        assert value <= 1e-10
    for level in (1, 2, 3):
        assert sigma[level] > 0.0


def test_criterion_09_green_identity_residual(sphere_meshes):
    """Direct-representation residual u = V t - W u of the exact pair:
    at most 1e-2 at level 3 and decreasing along the ladder."""
    residuals = [H.green_identity_error(sphere_meshes[level], SPHERE_SOURCE,
                                        H.INTERIOR_PROBES)
                 for level in (1, 2, 3)]
    print("green: " + " ".join(f"L{i + 1}={r:.3e}"
                               for i, r in enumerate(residuals)))
    assert residuals[2] <= 1e-2
    assert residuals[2] < residuals[1] < residuals[0]


def test_criterion_10_newtonian_volume_pair():
    """The Newtonian pair reproduces a smooth forcing to 5e-2 relative at
    resolution 32, and the self-cell correction equals the equal-volume
    ball value to 1e-12 on a single-cell grid."""
    residual = H.newtonian_residual(32, UNIT_PARAMS)
    spacing = 0.125
    grid = VolumeGrid(centers=np.zeros((1, 3)),
                      volumes=np.array([spacing ** 3]), spacing=spacing,
                      descriptor={"type": "cube", "side": spacing})
    forcing = np.array([[0.3, -0.7, 1.1]])
    value = newtonian_velocity(grid, forcing, np.zeros((1, 3)),
                               UNIT_PARAMS)[0]
    radius = (3.0 * spacing ** 3 / (4.0 * np.pi)) ** (1.0 / 3.0)
    gap = float(np.max(np.abs(value + (radius ** 2 / 3.0) * forcing[0])))
    print(f"fd_residual={residual:.3e} self_cell_gap={gap:.2e}")
    assert residual <= 5e-2
    assert gap <= 1e-12


def test_criterion_11_semilinear_contraction():
    """Fixed-point solve with alpha = beta = 1 and data at half the
    estimated radius: convergence to 1e-8 within 20 iterations, measured
    contraction ratio <= 0.6, finite-difference residual <= 1e-1, and a
    single iteration when the nonlinearity is switched off."""
    result = H.semilinear_battery(level=1, resolution=16, max_iter=20)
    print(f"iterations={result['iterations']} "
          f"ratio={result['measured_ratio']:.3e} "
          f"residual={result['residual']:.3e} "
          f"beta0_iterations={result['beta0_iterations']}")
    assert result["converged"]
    assert result["iterations"] <= 20
    assert result["measured_ratio"] <= 0.6
    assert result["ball_respected"]
    assert result["residual"] <= 1e-1
    assert result["beta0_iterations"] == 1


def test_criterion_12_thread_count_determinism():
    """Suite reports are byte-identical across worker counts: every numeric
    field except wall time matches between single- and four-thread runs."""
    def fingerprint(suite, threads):
        previous = os.environ.get("BBEM_THREADS")
        os.environ["BBEM_THREADS"] = str(threads)
        try:
            return H.verify_suite(suite).fingerprint()
        finally:
            if previous is None:
                os.environ.pop("BBEM_THREADS", None)
            else:
                os.environ["BBEM_THREADS"] = previous

    for suite in ("kernels", "mixed"):
        single = fingerprint(suite, 1)
        quad = fingerprint(suite, 4)
        print(f"{suite}: identical={single == quad}")
        assert single == quad
