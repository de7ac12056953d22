"""Operator assembly against adaptive singular-quadrature oracles, trace and
traction jump relations, adjoint duality in the area-weighted pairing,
operator serialization, deterministic threading, and the Newtonian volume
potential with its self-cell correction."""

import tracemalloc
import warnings

import numpy as np
import pytest

from _oracles import (
    closest_points_on_panels,
    duffy_singular_rule,
    polar_triangle_integral,
    stokes_self_block,
)
from bbem.geometry import (
    SurfaceMesh,
    VolumeGrid,
    build_cube,
    build_icosphere,
    build_volume_grid,
    panel_quadrature,
)
from bbem.kernels import (
    BrinkmanParams,
    brinkman_velocity_tensor,
    pressure_vector,
    traction_kernel,
    _STRESS_REMAINDER,
    _double_layer_nodes,
    _double_layer_pairs,
    _double_layer_rows_cf,
    _mirrored,
    _velocity_cf,
    _velocity_remainder_cf,
)
from bbem import harness as H
from bbem import potentials as P
from bbem.errors import InvalidThreadCount, UnsupportedParameter

ALPHA = 1.0
PARAMS = BrinkmanParams(alpha=ALPHA)
PARAMS0 = BrinkmanParams(alpha=0.0)


@pytest.fixture(scope="module")
def coarse():
    mesh = build_icosphere(1, radius=1.0)
    return mesh, panel_quadrature(mesh, 6)


@pytest.fixture(scope="module")
def coarse_ops(coarse):
    mesh, _ = coarse
    v = P.assemble_single_layer(mesh, PARAMS)
    k = P.assemble_double_layer(mesh, PARAMS)
    return v, k, P.adjoint_double_layer(k, mesh.areas)


@pytest.fixture(scope="module")
def fine():
    mesh = build_icosphere(2, radius=1.0)
    return mesh, panel_quadrature(mesh, 6)


@pytest.fixture(scope="module")
def fine_ops(fine):
    mesh, _ = fine
    v = P.assemble_single_layer(mesh, PARAMS)
    k = P.assemble_double_layer(mesh, PARAMS)
    return v, k, P.adjoint_double_layer(k, mesh.areas)


def smooth_density(mesh):
    c = mesh.centroids
    return np.stack([np.sin(c[:, 0]) + 0.3 * c[:, 1],
                     np.cos(c[:, 2]),
                     c[:, 0] * c[:, 1] + 0.5], axis=1)


# -------------------------------------------------------------- field types

def test_boundary_field_validation(coarse):
    mesh, _ = coarse
    field = P.BoundaryField(mesh, mesh.normals)
    assert field.norm() == pytest.approx(np.sqrt(mesh.total_area), rel=1.0e-12)
    assert field.inner(field) == pytest.approx(mesh.total_area, rel=1.0e-12)
    with pytest.raises(ValueError, match="shape"):
        P.BoundaryField(mesh, np.zeros((3, mesh.n_panels)))
    bad = np.zeros((mesh.n_panels, 3))
    bad[0, 0] = np.nan
    with pytest.raises(ValueError, match="finite"):
        P.BoundaryField(mesh, bad)
    with pytest.raises(ValueError):
        field.values[0, 0] = 1.0


def test_volume_field_validation():
    grid = build_volume_grid({"type": "cube", "side": 1.0}, 4)
    field = P.VolumeField(grid, np.ones((grid.n_cells, 3)))
    assert field.norm() == pytest.approx(np.sqrt(3.0), rel=1.0e-12)
    with pytest.raises(ValueError, match="shape"):
        P.VolumeField(grid, np.ones((grid.n_cells, 2)))
    bad = np.ones((grid.n_cells, 3))
    bad[-1, 2] = np.inf
    with pytest.raises(ValueError, match="finite"):
        P.VolumeField(grid, bad)


def test_dense_operator_validation():
    with pytest.raises(ValueError, match="square"):
        P.DenseOperator(np.zeros((6, 9)), "V")
    with pytest.raises(ValueError, match="multiple of 3"):
        P.DenseOperator(np.zeros((7, 7)), "V")
    with pytest.raises(ValueError, match="kind"):
        P.DenseOperator(np.zeros((6, 6)), "banana")


# ------------------------------------------------------- self-panel integrals

def test_stokes_self_block_matches_adaptive_oracle():
    corners = np.array([[0.0, 0.0, 0.0], [1.1, 0.2, 0.0], [0.3, 0.9, 0.0]])
    centroid = corners.mean(axis=0)
    block = stokes_self_block(corners, centroid)
    for a in range(3):
        for b in range(3):
            def component(y, a=a, b=b):
                y = np.asarray(y, dtype=float)
                d = centroid - y
                r = np.linalg.norm(d, axis=-1)
                return (((a == b) + d[..., a] * d[..., b] / r ** 2) / r
                        / (8.0 * np.pi))
            ref = polar_triangle_integral(component, corners, centroid)
            assert block[a, b] == pytest.approx(ref, rel=1.0e-8, abs=1.0e-12)


def test_stokes_self_block_rotation_invariant():
    corners = np.array([[0.0, 0.0, 0.0], [1.1, 0.2, 0.0], [0.3, 0.9, 0.0]])
    axis = np.array([1.0, 2.0, 0.5])
    axis /= np.linalg.norm(axis)
    theta = 0.9
    kmat = np.array([[0.0, -axis[2], axis[1]],
                     [axis[2], 0.0, -axis[0]],
                     [-axis[1], axis[0], 0.0]])
    rot = np.eye(3) + np.sin(theta) * kmat + (1 - np.cos(theta)) * (kmat @ kmat)
    shift = np.array([0.3, -1.0, 2.0])
    moved = corners @ rot.T + shift
    block = stokes_self_block(corners, corners.mean(axis=0))
    moved_block = stokes_self_block(moved, moved.mean(axis=0))
    np.testing.assert_allclose(moved_block, rot @ block @ rot.T, rtol=1.0e-12,
                               atol=1.0e-15)


def test_self_block_alpha_correction_matches_high_order_rule(coarse,
                                                            coarse_ops):
    # analytic Stokes part + regular difference (the assembled self block)
    # vs one singularity-absorbing rule applied to the full kernel at high
    # order
    mesh, _ = coarse
    v = coarse_ops[0].matrix
    for i in (0, 37):
        block = v[3 * i:3 * i + 3, 3 * i:3 * i + 3]
        nodes, wts = duffy_singular_rule(mesh.panel_corners[i],
                                         mesh.centroids[i], 24)
        kern = brinkman_velocity_tensor(mesh.centroids[i][None, :] - nodes,
                                        ALPHA)
        direct = np.einsum("q,qab->ab", wts, kern)
        np.testing.assert_allclose(block, direct, rtol=2.0e-5, atol=1.0e-12)


@pytest.mark.parametrize("alpha", [0.0, 1.0, 4.0])
@pytest.mark.parametrize("build", [lambda: build_icosphere(1),
                                   lambda: build_cube(1)],
                         ids=["icosphere1", "cube1"])
def test_own_blocks_match_self_panel_construction(build, alpha):
    # the own panel is a near pair of the plan; its blocks equal the
    # separate construction: for K, -I/2 minus the off-diagonal Stokes
    # blocks plus the closed-form difference terms dW and the 12-point
    # rule's integral of the remainder; for V, the closed-form Stokes block
    # plus dV and the 12-point rule's integral of the remainder
    mesh = build()
    params = BrinkmanParams(alpha=alpha)
    n = mesh.n_panels
    blocks = {}
    for kind, assemble in (("V", P.assemble_single_layer),
                           ("K", P.assemble_double_layer),
                           ("K0", P.assemble_double_layer)):
        matrix = assemble(mesh, PARAMS0 if kind == "K0" else params)
        blocks[kind] = matrix.matrix.reshape(n, 3, n, 3).transpose(0, 2, 1, 3)
    stokes = blocks["K0"].copy()
    stokes[np.arange(n), np.arange(n)] = 0.0
    frames = P._panel_frames(mesh)
    first = P._stokes_parts(
        P._edge_frame(frames, np.arange(n), mesh.centroids.T)[0],
        np.arange(n), frames, alpha, ("dV", "dW"))
    twelve = panel_quadrature(mesh, 12)
    for i in range(n):
        c, nu = mesh.centroids[i], mesh.normals[i]
        k_own = (-0.5 * np.eye(3) - stokes[i].sum(axis=0) + first["dW"][..., i]
                 + np.einsum("q,abq->ab", twelve.weights[i], _double_layer_nodes(
                     (twelve.nodes[i] - c).T, nu[:, None], alpha,
                     _STRESS_REMAINDER)[0]))
        v_own = (stokes_self_block(mesh.panel_corners[i], c)
                 + _mirrored(first["dV"][..., i])
                 + np.einsum("q,abq->ab", twelve.weights[i], _mirrored(
                     _velocity_remainder_cf((c - twelve.nodes[i]).T, alpha))))
        for got, expected, kind in ((blocks["K"][i, i], k_own, "K"),
                                    (blocks["V"][i, i], v_own, "V")):
            np.testing.assert_allclose(
                got, expected, rtol=0.0,
                atol=1.0e-12 * np.abs(blocks[kind][i]).max())


@pytest.mark.parametrize("alpha", [0.0, 1.0, 4.0])
def test_near_quadrature_carries_only_the_difference(coarse, monkeypatch,
                                                     alpha):
    # the Stokes parts and the differences' kinked terms are closed forms
    # and the remainders take the 12-point rule; K assembly and the V, W,
    # Qs and Qd rows integrate every rule in pieces within the node budget
    mesh, _ = coarse
    regular_group, stokes_parts = P._regular_group, P._stokes_parts

    def regular(targets, panels, quadrature):
        # each piece of the far rule and of the 12-point rule
        assert len(panels) * quadrature.nodes.shape[1] <= P._PIECE_NODES
        return regular_group(targets, panels, quadrature)

    def closed_forms(x, panels, *args):
        # and each piece of the closed forms, counted as 2 nodes a pair
        assert 2 * len(panels) <= P._PIECE_NODES
        return stokes_parts(x, panels, *args)

    monkeypatch.setattr(P, "_regular_group", regular)
    monkeypatch.setattr(P, "_stokes_parts", closed_forms)
    params = BrinkmanParams(alpha=alpha)
    P.assemble_double_layer(mesh, params)
    P._layer_rows(mesh, params, 0.9 * mesh.centroids, ("V", "W", "Qs", "Qd"))


# --------------------------------------------------------- operator identities

def test_single_layer_kills_normal_field(coarse_ops, fine_ops, coarse, fine):
    for (v, _, _), (mesh, _) in ((coarse_ops, coarse), (fine_ops, fine)):
        nu = mesh.normals
        rel = np.linalg.norm(v.apply(nu)) / np.linalg.norm(nu)
        assert rel < 1.0e-6


def test_single_layer_weighted_symmetry(fine_ops, fine):
    mesh, _ = fine
    v = fine_ops[0]
    w = np.repeat(mesh.areas, 3)
    m = w[:, None] * v.matrix
    assert np.linalg.norm(m - m.T) / np.linalg.norm(m) < 5.0e-2


def test_operators_continuous_in_alpha(coarse):
    mesh, _ = coarse
    tiny = BrinkmanParams(alpha=1.0e-12)
    v0 = P.assemble_single_layer(mesh, PARAMS0)
    v_eps = P.assemble_single_layer(mesh, tiny)
    assert (np.linalg.norm(v_eps.matrix - v0.matrix)
            / np.linalg.norm(v0.matrix) < 1.0e-6)
    k0 = P.assemble_double_layer(mesh, PARAMS0)
    k_eps = P.assemble_double_layer(mesh, tiny)
    assert (np.linalg.norm(k_eps.matrix - k0.matrix)
            / np.linalg.norm(k0.matrix) < 1.0e-6)


def test_double_layer_constant_identity_stokes(coarse):
    # the row-sum diagonal makes the constant identity exact at alpha = 0
    mesh, _ = coarse
    k0 = P.assemble_double_layer(mesh, PARAMS0)
    c = np.tile([0.3, -1.2, 0.7], (mesh.n_panels, 1))
    np.testing.assert_allclose(k0.apply(c), -0.5 * c, rtol=0, atol=1.0e-13)


def test_double_layer_constant_alpha_consistency(fine_ops, fine):
    # the trace pair (c, -alpha c.x) gives K_a c + c/2 = trace of V(alpha (c.x) nu)
    mesh, _ = fine
    v, k, _ = fine_ops
    direction = np.array([0.3, -1.2, 0.7])
    c = np.tile(direction, (mesh.n_panels, 1))
    g = ALPHA * (mesh.centroids @ direction)[:, None] * mesh.normals
    lhs = k.apply(c) + 0.5 * c
    rhs = v.apply(g)
    assert np.linalg.norm(lhs - rhs) / np.linalg.norm(rhs) < 1.0e-2


def test_adjoint_is_weighted_transpose(fine_ops, fine):
    mesh, _ = fine
    _, k, kstar = fine_ops
    rng = np.random.default_rng(7)
    h = rng.standard_normal((mesh.n_panels, 3))
    g = rng.standard_normal((mesh.n_panels, 3))
    w = mesh.areas
    lhs = np.einsum("i,ij,ij->", w, k.apply(h), g)
    rhs = np.einsum("i,ij,ij->", w, h, kstar.apply(g))
    assert lhs == pytest.approx(rhs, rel=1.0e-13)
    double = P.adjoint_double_layer(kstar, w)
    np.testing.assert_allclose(double.matrix, k.matrix, rtol=1.0e-12,
                               atol=1.0e-16)
    assert kstar.kind == "Kstar" and kstar.alpha == ALPHA
    with pytest.raises(ValueError, match="weights"):
        P.adjoint_double_layer(k, w[:-1])


def test_adjoint_normal_eigenvector_refines(coarse_ops, fine_ops, coarse, fine):
    errs = []
    for (_, _, kstar), (mesh, _) in ((coarse_ops, coarse), (fine_ops, fine)):
        nu = mesh.normals
        errs.append(np.linalg.norm(kstar.apply(nu) - 0.5 * nu)
                    / np.linalg.norm(nu))
    assert errs[1] < errs[0] < 5.0e-2
    assert errs[1] < 1.0e-2


def test_dirichlet_operator_rank_deficiency(fine_ops, fine):
    # -I/2 + K has a one-dimensional near-null space aligned with the
    # weighted normal; the second singular value stays well separated
    mesh, _ = fine
    _, k, _ = fine_ops
    a = -0.5 * np.eye(3 * mesh.n_panels) + k.matrix
    u, s, vt = np.linalg.svd(a)
    assert s[-1] < 1.0e-2
    assert s[-2] > 10.0 * s[-1]
    null = vt[-1].reshape(-1, 3)
    weighted_nu = mesh.areas[:, None] * mesh.normals
    cosine = abs(np.sum(null * weighted_nu)) / (
        np.linalg.norm(null) * np.linalg.norm(weighted_nu))
    assert cosine > 0.99


# ------------------------------------------------------------- jump relations

def _extrapolate_to_surface(sample, x0, normal, diameter, side):
    """Quadratic Richardson in the offset: kills O(eps) and O(eps^2) terms."""
    f1 = sample(x0 + side * 0.25 * diameter * normal)
    f2 = sample(x0 + side * 0.50 * diameter * normal)
    f3 = sample(x0 + side * 1.00 * diameter * normal)
    return (8.0 * f1 - 6.0 * f2 + f3) / 3.0


# the V and K-Stokes kernels, as the library calls them
_LAYER_KERNELS = {
    "V": lambda x, y, nu: brinkman_velocity_tensor(x - y, ALPHA),
    "K Stokes": lambda x, y, nu: traction_kernel(y, x, nu, 0.0),
}


def _per_panel_blocks(mesh, quad, x, kernel, near_rule):
    """Per-panel integrals of kernel(y, nu) around target x, one panel at a
    time: the Gauss rule quad on far panels and near_rule(j, closest point)
    -> (nodes, weights) on the panels j within two diameters of x (by the
    closest-point oracle)."""
    closest = closest_points_on_panels(
        mesh.panel_corners, np.broadcast_to(x, (mesh.n_panels, 3)))
    near = (np.linalg.norm(closest - x, axis=1)
            < P._NEAR_FACTOR * mesh.diameters)
    blocks = []
    for j in range(mesh.n_panels):
        nodes, weights = (near_rule(j, closest[j]) if near[j]
                          else (quad.nodes[j], quad.weights[j]))
        normals = np.repeat(mesh.normals[j][None, :], len(weights), axis=0)
        block = np.einsum("q,q...->...", weights, kernel(nodes, normals))
        blocks.append(block)
    return np.array(blocks)


def _per_node(kernel):
    """The plan's components-first kernel from kernel(x, y, nu) on (M, 3)
    arrays, one row per node with its own target and normal."""
    def plan_kernel(x, y, nu):
        values = kernel(*(np.broadcast_to(a, y.shape).reshape(3, -1).T
                          for a in (x, y, nu)))
        return np.moveaxis(values, 0, -1).reshape(values.shape[1:]
                                                  + y.shape[1:])
    return plan_kernel


def _on_rule(plan, kernel, rule):
    """plan.integrate(kernel) with the near pairs on rule as well."""
    x = plan.points[:, :1, None]
    probe = kernel(x, x + 1.0, plan.normals[:, :1, None])
    near = np.zeros(probe.shape[:-2] + (len(plan.near),))
    plan.add_near(kernel, rule, near)
    return plan.integrate(kernel, near)


def _sl_traction(mesh, quad, dens, x, nu_x, alpha):
    """Traction of the single layer at an off-boundary point, summed panel
    by panel: the full kernel on order-24 Duffy rules at the closest points
    of the panels within two diameters, the Gauss rule quad elsewhere."""
    blocks = _per_panel_blocks(
        mesh, quad, x, lambda y, _: traction_kernel(x[None, :], y,
                                                    nu_x[None, :], alpha),
        lambda j, point: duffy_singular_rule(mesh.panel_corners[j], point,
                                             24))
    return np.einsum("jib,jb->i", blocks, dens)


@pytest.mark.parametrize("alpha", [0.0, 1.0, 4.0])
@pytest.mark.parametrize("build", [lambda: build_icosphere(2),
                                   lambda: build_cube(1)],
                         ids=["icosphere2", "cube1"])
def test_single_layer_traction_matches_order_24_duffy(build, alpha):
    # the harness's traction, −pν + (∇u + ∇uᵀ)ν from the V rows by central
    # differences and the Qs row, against the full traction kernel panel by
    # panel (_sl_traction above), at 0.25, 0.5 and 1 diameters on both
    # sides of three centroids: within 1e-6, and within 1e-5 where √α times
    # the panel diameter passes 1 (cube(1) at α = 4 reads 8.2e-6, the
    # gradient of V's remainder on the 12-point rule; the graded Duffy
    # bands that took the full kernel before read 1.7e-5, 1.1e-5 and
    # 6.4e-6 on cube(1) at α = 0, 1 and 4)
    mesh = build()
    quad, g = panel_quadrature(mesh, 6), smooth_density(mesh)
    bound = 1.0e-5 if np.sqrt(alpha) * mesh.diameters.max() > 1.0 else 1.0e-6
    for i in (3, 21, 40):
        nu = mesh.normals[i]
        for offset in (-1.0, -0.5, -0.25, 0.25, 0.5, 1.0):
            x = mesh.centroids[i] + offset * mesh.diameters[i] * nu
            expected = _sl_traction(mesh, quad, g, x, nu, alpha)
            got = H._sl_traction(mesh, g, x, nu, alpha)
            assert (np.linalg.norm(got - expected)
                    <= bound * np.linalg.norm(expected)), (i, offset)


def test_near_far_split_matches_per_panel_loop(fine):
    # the library's near/far plan against the per-panel loop above: V and
    # K-Stokes rows at centroids, their own panel included, with the near
    # pairs on the 12-point rule; every panel takes exactly one rule
    mesh, quad = fine
    twelve = panel_quadrature(mesh, 12)
    for i in (3, 97, 210):
        x = mesh.centroids[i]
        plan = P._NearFar(mesh, x[None, :])
        panels = np.concatenate([plan.far[1], plan.near])
        np.testing.assert_array_equal(np.sort(panels),
                                      np.arange(mesh.n_panels))
        for name in ("V", "K Stokes"):
            def kernel(y, nu):
                return _LAYER_KERNELS[name](x[None, :], y, nu)
            got = _on_rule(plan, _per_node(_LAYER_KERNELS[name]), twelve)[0]
            expected = _per_panel_blocks(
                mesh, quad, x, kernel,
                lambda j, _: (twelve.nodes[j], twelve.weights[j]))
            np.testing.assert_allclose(got, expected, rtol=1.0e-13,
                                       atol=1.0e-13 * np.abs(expected).max())


@pytest.mark.parametrize("case", ["sphere-centroids", "cube-lattice"])
def test_plan_rows_do_not_depend_on_the_chunk(case):
    # a target's integrals are bit for bit the same whether it is planned
    # alone or inside a chunk of _chunk_rows targets
    if case == "sphere-centroids":
        mesh = build_icosphere(2)
        points = mesh.centroids[40:40 + P._chunk_rows(mesh.n_panels)]
    else:
        mesh = build_cube(1)
        lattice = build_volume_grid({"type": "cube", "side": 1.0}, 10).centers
        points = lattice[::19][:P._chunk_rows(mesh.n_panels)]
    differences = P._differences(mesh, ALPHA)

    def near_parts(plan):
        # the closed forms plus the bounded differences, as V and W take them
        parts = plan.stokes(ALPHA, ("V", "W", "Qs", "Qd"))
        plan.add_near(*differences["V"], parts["V"])
        plan.add_near(*differences["W"], parts["W"])
        return list(parts.values())

    chunk = P._NearFar(mesh, points)
    kernels = (lambda x, y, _: _velocity_cf(x - y, ALPHA),
               lambda x, y, nu: _double_layer_nodes(y - x, nu, ALPHA))
    rows = [_on_rule(chunk, kernel, differences["V"][1])
            for kernel in kernels]
    chunk_near = near_parts(chunk)
    for t, x in enumerate(points):
        alone = P._NearFar(mesh, x[None, :])
        assert len(alone.near) > 0
        for kernel, chunk_rows in zip(kernels, rows):
            np.testing.assert_array_equal(
                chunk_rows[t], _on_rule(alone, kernel, differences["V"][1])[0])
        for chunk_part, part in zip(chunk_near, near_parts(alone)):
            np.testing.assert_array_equal(chunk_part[..., chunk.rows == t],
                                          part)


@pytest.mark.parametrize("alpha", [0.0, 1.0, 4.0])
@pytest.mark.parametrize("on_boundary", [True, False])
@pytest.mark.parametrize("build", [build_icosphere, build_cube])
def test_double_layer_per_pair_matches_node_wise(build, on_boundary, alpha):
    # K's kernel contracted per pair from the normal-free rows against the
    # same rows contracted node by node and summed on the same plan
    # (_double_layer_nodes): the far rule's pieces, together every far pair,
    # and the near rule's remainder (_STRESS_REMAINDER), within 1e-15 of
    # each row's maximum of W
    mesh = build(1)
    points = mesh.centroids if on_boundary else 0.9 * mesh.centroids + 0.02
    params = BrinkmanParams(alpha=alpha)
    rows, = P._layer_rows(mesh, params, points, ("W",), on_boundary)
    row_max = np.abs(rows).max(axis=2)
    plan = P._NearFar(mesh, points)
    far = (lambda x, y, nu: _double_layer_rows_cf(y - x, nu, alpha),
           lambda sums, nu: _double_layer_pairs(sums, nu, alpha))
    cases = [(group[0], plan._sums(far, group), plan._sums(
        lambda x, y, nu: _double_layer_nodes(y - x, nu, alpha), group))
        for _, group in plan._groups(plan.quadrature, far=True)]
    assert sum(len(targets) for targets, _, _ in cases) == len(plan.far[0])
    if alpha > 0.0:
        near, rule = P._differences(mesh, alpha)["W"]
        near_cases = [(plan.rows[at], plan._sums(near, group), plan._sums(
            lambda x, y, nu: _double_layer_nodes(y - x, nu, alpha,
                                                 _STRESS_REMAINDER)[0],
            group)) for at, group in plan._groups(rule)]
        assert sum(len(targets) for targets, _, _ in near_cases) == len(
            plan.near)
        cases += near_cases
    for targets, got, expected in cases:
        assert got.shape == expected.shape
        scale = row_max[targets].T[:, None]         # (a, 1, pairs)
        assert np.all(np.abs(got - expected) <= 1.0e-15 * scale)


def test_single_layer_trace_continuity(fine_ops, fine):
    mesh, _ = fine
    v = fine_ops[0]
    g = smooth_density(mesh)
    vg = v.apply(g)
    for i in (3, 97, 210):
        x0, nu, d = mesh.centroids[i], mesh.normals[i], mesh.diameters[i]

        def sample(x):
            return P.eval_single_layer(mesh, g, x[None], PARAMS)[0]

        inner = _extrapolate_to_surface(sample, x0, nu, d, -1)
        outer = _extrapolate_to_surface(sample, x0, nu, d, +1)
        scale = np.linalg.norm(g[i])
        assert np.linalg.norm(inner - outer) / scale < 5.0e-2
        assert np.linalg.norm(inner - vg[i]) / scale < 5.0e-2


def test_double_layer_jump_and_interior_trace(fine_ops, fine):
    # exterior minus interior value of W equals the density; the interior
    # trace matches (-I/2 + K) h
    mesh, _ = fine
    _, k, _ = fine_ops
    h = smooth_density(mesh)
    kh = k.apply(h)
    for i in (3, 97, 210):
        x0, nu, d = mesh.centroids[i], mesh.normals[i], mesh.diameters[i]

        def sample(x):
            return P.eval_double_layer(mesh, h, x[None], PARAMS)[0]

        inner = _extrapolate_to_surface(sample, x0, nu, d, -1)
        outer = _extrapolate_to_surface(sample, x0, nu, d, +1)
        scale = np.linalg.norm(h[i])
        assert np.linalg.norm((outer - inner) - h[i]) / scale < 1.0e-1
        assert np.linalg.norm(inner - (-0.5 * h[i] + kh[i])) / scale < 1.0e-1


def test_traction_jump_and_adjoint_formula(fine_ops, fine):
    # interior minus exterior traction of V g equals g; the interior traction
    # matches (I/2 + K*) g
    mesh, quad = fine
    _, _, kstar = fine_ops
    g = smooth_density(mesh)
    ksg = kstar.apply(g)
    jump_errs, interior_errs = [], []
    for i in (3, 97, 210, 45, 150):
        x0, nu, d = mesh.centroids[i], mesh.normals[i], mesh.diameters[i]

        def sample(x):
            return _sl_traction(mesh, quad, g, x, nu, ALPHA)

        t_in = _extrapolate_to_surface(sample, x0, nu, d, -1)
        t_out = _extrapolate_to_surface(sample, x0, nu, d, +1)
        scale = np.linalg.norm(g[i])
        jump_errs.append(np.linalg.norm((t_in - t_out) - g[i]) / scale)
        interior_errs.append(
            np.linalg.norm(t_in - (0.5 * g[i] + ksg[i])) / scale)
    assert max(jump_errs) < 1.2e-1
    assert np.sqrt(np.mean(np.square(jump_errs))) < 8.0e-2
    assert max(interior_errs) < 5.0e-2


def test_constant_density_interior_exterior_values(fine):
    # at alpha = 0 the double layer of a constant is -c inside, 0 outside
    mesh, _ = fine
    c = np.tile([0.3, -1.2, 0.7], (mesh.n_panels, 1))
    inside = np.array([[0.1, -0.2, 0.3], [0.0, 0.0, 0.0]])
    outside = np.array([[1.7, 0.4, 0.9], [0.0, -2.5, 0.0]])
    w_in = P.eval_double_layer(mesh, c, inside, PARAMS0)
    w_out = P.eval_double_layer(mesh, c, outside, PARAMS0)
    np.testing.assert_allclose(w_in, -c[:2], rtol=0, atol=1.0e-4)
    np.testing.assert_allclose(w_out, 0.0, atol=1.0e-4)


def test_normal_density_pressure_values(fine_ops, fine):
    # V nu vanishes everywhere and Q^s nu is -1 inside, 0 outside
    mesh, _ = fine
    nu = mesh.normals
    inside = np.array([[0.1, -0.2, 0.3], [0.0, 0.0, 0.0]])
    outside = np.array([[1.7, 0.4, 0.9]])
    u_in = P.eval_single_layer(mesh, nu, inside, PARAMS)
    np.testing.assert_allclose(u_in, 0.0, atol=1.0e-6)
    p_in = P.eval_single_layer_pressure(mesh, nu, inside, PARAMS)
    np.testing.assert_allclose(p_in, -1.0, rtol=1.0e-4)
    p_out = P.eval_single_layer_pressure(mesh, nu, outside, PARAMS)
    np.testing.assert_allclose(p_out, 0.0, atol=1.0e-4)


def test_double_layer_pressure_alpha_difference(fine):
    # Q^d_alpha h - Q^d_0 h = alpha * integral of (h.nu)/(4 pi r) dS
    mesh, quad = fine
    h = smooth_density(mesh)
    pts = np.array([[0.2, 0.1, -0.3], [0.0, 0.4, 0.0]])
    qd_a = P.eval_double_layer_pressure(mesh, h, pts, PARAMS)
    qd_0 = P.eval_double_layer_pressure(mesh, h, pts, PARAMS0)
    hnu = np.einsum("fj,fj->f", h, mesh.normals)
    for p, x in enumerate(pts):
        r = np.linalg.norm(x[None, None, :] - quad.nodes, axis=2)
        ref = ALPHA * np.sum(quad.weights * hnu[:, None] / (4.0 * np.pi * r))
        assert qd_a[p] - qd_0[p] == pytest.approx(ref, rel=1.0e-3)


def test_representation_formula_manufactured_pair(fine):
    # an exterior-pole column pair is reproduced inside by V(t) - W(trace)
    # and its pressure by Q^s(t) - Q^d(trace)
    mesh, _ = fine
    x_src = np.array([0.0, 0.0, 2.0])
    col = 2
    trace = brinkman_velocity_tensor(mesh.centroids - x_src, ALPHA)[:, :, col]
    trac = traction_kernel(mesh.centroids, x_src[None, :], mesh.normals,
                           ALPHA)[:, :, col]
    pts = np.array([[0.0, 0.0, 0.0], [0.3, 0.1, -0.2], [-0.4, 0.2, 0.3],
                    [0.1, -0.5, 0.0], [0.0, 0.35, 0.45]])
    u = (P.eval_single_layer(mesh, trac, pts, PARAMS)
         - P.eval_double_layer(mesh, trace, pts, PARAMS))
    pi = (P.eval_single_layer_pressure(mesh, trac, pts, PARAMS)
          - P.eval_double_layer_pressure(mesh, trace, pts, PARAMS))
    u_exact = brinkman_velocity_tensor(pts - x_src, ALPHA)[:, :, col]
    p_exact = pressure_vector(pts - x_src)[:, col]
    rel_u = np.linalg.norm(u - u_exact, axis=1) / np.linalg.norm(u_exact, axis=1)
    assert rel_u.max() < 2.0e-2
    np.testing.assert_allclose(pi, p_exact, rtol=2.0e-2)


# ------------------------------------------------------------- serialization

def test_serialization_roundtrip(tmp_path, coarse_ops):
    v = coarse_ops[0]
    path = tmp_path / "v.bbemop"
    v.save(path)
    loaded = P.DenseOperator.load(path)
    assert loaded.kind == "V"
    assert loaded.alpha is None
    np.testing.assert_array_equal(loaded.matrix, v.matrix)
    assert loaded.matrix.tobytes() == v.matrix.tobytes()


def test_serialization_rejects_corrupt_files(tmp_path, coarse_ops):
    v = coarse_ops[0]
    good = tmp_path / "op.bbemop"
    v.save(good)
    raw = good.read_bytes()

    bad_magic = tmp_path / "magic.bbemop"
    bad_magic.write_bytes(b"NOPE" + raw[4:])
    with pytest.raises(ValueError, match="magic"):
        P.DenseOperator.load(bad_magic)

    bad_version = tmp_path / "version.bbemop"
    bad_version.write_bytes(raw[:4] + b"\x09\x00\x00\x00" + raw[8:])
    with pytest.raises(ValueError, match="version"):
        P.DenseOperator.load(bad_version)

    bad_kind = tmp_path / "kind.bbemop"
    bad_kind.write_bytes(raw[:12] + b"\x07" + raw[13:])
    with pytest.raises(ValueError, match="kind"):
        P.DenseOperator.load(bad_kind)

    truncated = tmp_path / "short.bbemop"
    truncated.write_bytes(raw[:-16])
    with pytest.raises(ValueError, match="bytes"):
        P.DenseOperator.load(truncated)


def test_all_kinds_roundtrip_codes(tmp_path):
    for kind in ("V", "K", "Kstar", "S_mixed", "custom"):
        op = P.DenseOperator(np.arange(36.0).reshape(6, 6), kind)
        path = tmp_path / f"{kind}.bbemop"
        op.save(path)
        assert P.DenseOperator.load(path).kind == kind


# --------------------------------------------------------------- determinism

def test_double_layer_takes_a_numpy_alpha():
    # alpha > 0 as a numpy scalar is a numpy bool, which must still count
    # the kernel's blocks of rows as an integer does
    mesh = build_icosphere(1)
    for alpha in (1.0, 0.0):
        expected = P.assemble_double_layer(mesh, BrinkmanParams(alpha)).matrix
        got = P.assemble_double_layer(mesh,
                                      BrinkmanParams(np.float64(alpha))).matrix
        assert got.tobytes() == expected.tobytes()


def test_assembly_thread_count_invariance(coarse, monkeypatch):
    mesh, _ = coarse
    results = {}
    for threads in ("1", "4"):
        monkeypatch.setenv("BBEM_THREADS", threads)
        v = P.assemble_single_layer(mesh, PARAMS)
        k = P.assemble_double_layer(mesh, PARAMS)
        results[threads] = (v.matrix.tobytes(), k.matrix.tobytes())
    assert results["1"][0] == results["4"][0]
    assert results["1"][1] == results["4"][1]


def test_evaluation_thread_count_invariance(coarse, monkeypatch):
    mesh, _ = coarse
    g = smooth_density(mesh)
    pts = np.array([[0.1, 0.0, 0.2], [0.0, -0.3, 0.1], [0.2, 0.2, -0.2]])
    results = {}
    for threads in ("1", "4"):
        monkeypatch.setenv("BBEM_THREADS", threads)
        results[threads] = P.eval_single_layer(mesh, g, pts,
                                               PARAMS).tobytes()
    assert results["1"] == results["4"]


@pytest.mark.parametrize("alpha", [0.0, 1.0, 4.0])
def test_layer_rows_do_not_depend_on_the_chunk_size(monkeypatch, alpha):
    # each row's arithmetic, the plan's per-row einsum sums and the closed
    # forms' fixed-order contraction included, is the same whatever rows
    # share its chunk and however the chunk's far rule, near bands and
    # closed forms are cut into pieces: V, W, Qs and Qd rows at the
    # icosphere(2) centroids (8 against 32 rows a chunk) and at the cube(1)
    # 10^3 lattice (13 against 213) keep their bits with pieces of 2048
    # nodes (1024 closed-form pairs) against 16384 (8192 pairs), where the
    # lattice's full chunks (10224 near pairs) take their closed forms in
    # two pieces
    params = BrinkmanParams(alpha=alpha)
    lattice = build_volume_grid({"type": "cube", "side": 1.0}, 10).centers
    sphere = build_icosphere(2)
    cases = ((sphere, sphere.centroids, True), (build_cube(1), lattice, False))
    pieces, stokes_parts = [], P._stokes_parts

    def recorded(x, panels, *args):
        pieces.append(len(panels))
        return stokes_parts(x, panels, *args)

    monkeypatch.setattr(P, "_stokes_parts", recorded)
    for mesh, points, on_boundary in cases:
        rows = {}
        for pairs, nodes in ((640, 2048), (10240, 16384)):
            monkeypatch.setattr(P, "_CHUNK_PAIRS", pairs)
            monkeypatch.setattr(P, "_PIECE_NODES", nodes)
            pieces.clear()
            rows[pairs] = P._layer_rows(mesh, params, points,
                                        ("V", "W", "Qs", "Qd"), on_boundary)
            assert max(pieces) <= nodes // 2
        for kind, small, large in zip("V W Qs Qd".split(), *rows.values()):
            assert small.tobytes() == large.tobytes(), (kind, on_boundary)
    assert len(pieces) > -(-len(lattice) // P._chunk_rows(48))


@pytest.mark.parametrize("alpha", [0.0, 1.0, 4.0])
@pytest.mark.parametrize("on_boundary", [True, False])
@pytest.mark.parametrize("build", [build_icosphere, build_cube])
def test_single_layer_blocks_are_symmetric_to_the_bit(build, on_boundary,
                                                      alpha):
    # V is carried as its six upper entries through the far rule, the
    # remainder and the closed forms and mirrored once per block, so every
    # 3×3 block of its rows is symmetric bit for bit: far, near and (at the
    # centroids) own panel
    mesh = build(2)
    points = mesh.centroids if on_boundary else 0.9 * mesh.centroids + 0.02
    rows, = P._layer_rows(mesh, BrinkmanParams(alpha=alpha), points, ("V",),
                          on_boundary)
    blocks = rows.reshape(len(points), 3, mesh.n_panels, 3)
    assert blocks.tobytes() == np.ascontiguousarray(
        blocks.transpose(0, 3, 2, 1)).tobytes()
    near, panels, _, _, _ = P._near_search(mesh, points)
    assert 0 < len(near) < len(points) * mesh.n_panels
    if on_boundary:
        assert np.sum(near == panels) == mesh.n_panels


def test_double_layer_assembly_memory_stays_bounded(monkeypatch):
    # chunks plan many pairs, but the far rule, the near bands and the
    # closed forms are evaluated in pieces of at most _PIECE_NODES nodes, so
    # K's traced peak at icosphere(2), alpha = 1, one thread, stays within
    # 10 MB of its 7.4 MB output
    monkeypatch.setenv("BBEM_THREADS", "1")
    mesh, params = build_icosphere(2), BrinkmanParams(alpha=1.0)
    tracemalloc.start()
    try:
        matrix = P.assemble_double_layer(mesh, params).matrix
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak - matrix.nbytes < 10.0e6


def _interior_points(count):
    """Seeded points inside the unit icosphere, enough for several chunks."""
    rng = np.random.default_rng(5)
    directions = rng.standard_normal((count, 3))
    directions /= np.linalg.norm(directions, axis=1, keepdims=True)
    return 0.6 * rng.uniform(0.0, 1.0, (count, 1)) * directions


@pytest.mark.parametrize("evaluate", [P.eval_single_layer,
                                      P.eval_double_layer,
                                      P.eval_single_layer_pressure,
                                      P.eval_double_layer_pressure])
def test_layer_evaluation_thread_count_invariance(coarse, monkeypatch,
                                                  evaluate):
    mesh, _ = coarse
    g = smooth_density(mesh)
    pts = _interior_points(3 * P._chunk_rows(mesh.n_panels) - 5)
    results = {}
    for threads in ("1", "4"):
        monkeypatch.setenv("BBEM_THREADS", threads)
        results[threads] = evaluate(mesh, g, pts, PARAMS).tobytes()
    assert results["1"] == results["4"]


def test_single_layer_traction_thread_count_invariance(coarse, monkeypatch):
    mesh, _ = coarse
    g = smooth_density(mesh)
    results = {}
    for threads in ("1", "4"):
        monkeypatch.setenv("BBEM_THREADS", threads)
        results[threads] = np.array([
            H._sl_traction(mesh, g, x, mesh.normals[0], ALPHA)
            for x in _interior_points(8)]).tobytes()
    assert results["1"] == results["4"]


def test_default_thread_count_is_the_affinity_set(monkeypatch):
    # a process pinned to two CPUs of many runs two threads
    monkeypatch.delenv("BBEM_THREADS", raising=False)
    monkeypatch.setattr(P.os, "cpu_count", lambda: 64)
    monkeypatch.setattr(P.os, "sched_getaffinity", lambda pid: {0, 5},
                        raising=False)
    assert P._thread_count() == 2
    monkeypatch.delattr(P.os, "sched_getaffinity")
    assert P._thread_count() == 64


@pytest.mark.parametrize("setting", ["abc", "0", "-3"])
def test_invalid_thread_count_is_named(coarse, monkeypatch, setting):
    mesh, _ = coarse
    monkeypatch.setenv("BBEM_THREADS", setting)
    with pytest.raises(InvalidThreadCount,
                       match=f"BBEM_THREADS.*'{setting}'"):
        P.assemble_single_layer(mesh, PARAMS)


# --------------------------------------------------------- volume potentials

def test_newtonian_ball_center_value():
    # constant force over a ball: the Stokes velocity at the center is
    # -(R^2/3) f, from the closed-form ball integral of the kernel
    grid = build_volume_grid({"type": "sphere", "radius": 1.0}, 20)
    f = np.tile([0.0, 0.0, 1.0], (grid.n_cells, 1))
    u0 = P.newtonian_velocity(grid, f, np.zeros((1, 3)), PARAMS0)
    assert u0[0, 2] == pytest.approx(-1.0 / 3.0, rel=1.0e-2)
    assert abs(u0[0, 0]) < 1.0e-12 and abs(u0[0, 1]) < 1.0e-12
    p0 = P.newtonian_pressure(grid, f, np.zeros((1, 3)))
    assert abs(p0[0]) < 1.0e-12


def test_newtonian_single_cell_self_correction():
    # a lone cell evaluated at its own center reduces to the equal-volume
    # ball correction exactly
    spacing = 0.1
    grid = VolumeGrid(centers=np.zeros((1, 3)),
                      volumes=np.array([spacing ** 3]),
                      spacing=spacing, descriptor={"type": "cube"})
    f = np.array([[2.0, -1.0, 0.5]])
    radius = (3.0 * spacing ** 3 / (4.0 * np.pi)) ** (1.0 / 3.0)
    u = P.newtonian_velocity(grid, f, np.zeros((1, 3)), PARAMS)
    np.testing.assert_allclose(u[0], -(radius ** 2 / 3.0) * f[0],
                               rtol=1.0e-12)
    p = P.newtonian_pressure(grid, f, np.zeros((1, 3)))
    assert p[0] == 0.0


def test_newtonian_pde_residual_on_lattice():
    # finite differences with step equal to the grid spacing keep every
    # sample on a cell center, where the midpoint-rule error field is smooth
    residuals = []
    for res in (12, 16):
        grid = build_volume_grid({"type": "sphere", "radius": 1.0}, res)
        c = grid.centers
        forcing = np.stack([np.sin(np.pi * c[:, 1]),
                            np.zeros(grid.n_cells),
                            np.cos(np.pi * c[:, 0])], axis=1)
        h = grid.spacing
        base = c[np.linalg.norm(c, axis=1) < 1.0 - 3.5 * h][:6]
        eye = np.eye(3)
        pts = [base]
        for d in range(3):
            pts += [base + h * eye[d], base - h * eye[d]]
        pts = np.concatenate(pts, axis=0)
        u = P.newtonian_velocity(grid, forcing, pts, PARAMS)
        q = P.newtonian_pressure(grid, forcing, pts)
        nb = len(base)
        lap = -6.0 * u[:nb]
        grad_p = np.zeros((nb, 3))
        for d in range(3):
            lap += u[(1 + 2 * d) * nb:(2 + 2 * d) * nb]
            lap += u[(2 + 2 * d) * nb:(3 + 2 * d) * nb]
            grad_p[:, d] = (q[(1 + 2 * d) * nb:(2 + 2 * d) * nb]
                            - q[(2 + 2 * d) * nb:(3 + 2 * d) * nb]) / (2 * h)
        lap /= h * h
        f_base = np.stack([np.sin(np.pi * base[:, 1]), np.zeros(nb),
                           np.cos(np.pi * base[:, 0])], axis=1)
        resid = lap - ALPHA * u[:nb] - grad_p - f_base
        rel = (np.linalg.norm(resid, axis=1)
               / np.linalg.norm(f_base, axis=1)).max()
        residuals.append(rel)
    assert residuals[0] < 5.0e-2
    assert residuals[1] < residuals[0]


def test_newtonian_boundary_data_force_balance():
    # momentum balance: the traction integrates to the body-force integral
    # plus the damping integral, up to the near-surface cutoff error
    cube = build_cube(2, side=1.0)
    rels = []
    for res in (12, 16):
        grid = build_volume_grid({"type": "cube", "side": 1.0}, res)
        f = np.tile([0.2, -0.4, 0.7], (grid.n_cells, 1))
        trace, traction = P.newtonian_boundary_data(grid, f, cube, PARAMS)
        lhs = (cube.areas[:, None] * traction.values).sum(axis=0)
        u = P.newtonian_velocity(grid, f, grid.centers, PARAMS)
        rhs = (grid.volumes[:, None] * (ALPHA * u + f)).sum(axis=0)
        rels.append(np.linalg.norm(lhs - rhs) / np.linalg.norm(rhs))
        direct = P.newtonian_velocity(grid, f, cube.centroids, PARAMS)
        np.testing.assert_array_equal(trace.values, direct)
    assert rels[0] < 3.0e-1
    assert rels[1] < rels[0]


def test_newtonian_traction_at_a_cell_center():
    # a traction target on a cell center drops that cell with every other
    # within one cell diameter, before any kernel is evaluated there
    grid = build_volume_grid({"type": "cube", "side": 1.0}, 5)
    f = np.random.default_rng(7).standard_normal((grid.n_cells, 3))
    points = grid.centers[::9]
    normals = np.tile([0.0, 0.6, 0.8], (len(points), 1))
    got, = P._newtonian_sums(grid, f, points, PARAMS, ("traction",), normals)
    for x, nu, value in zip(points, normals, got):
        far = np.linalg.norm(grid.centers - x, axis=1) >= np.sqrt(3.0) * grid.spacing
        kernel = traction_kernel(x, grid.centers[far], nu, ALPHA)
        expected = -np.einsum("c,cab,cb->a", grid.volumes[far], kernel, f[far])
        np.testing.assert_allclose(value, expected, rtol=1.0e-12,
                                   atol=1.0e-13 * np.abs(expected).max())


def test_newtonian_forcing_shape_validation():
    grid = build_volume_grid({"type": "cube", "side": 1.0}, 4)
    with pytest.raises(ValueError, match="shape"):
        P.newtonian_velocity(grid, np.ones((3, grid.n_cells)),
                             np.zeros((1, 3)), PARAMS)


def test_newtonian_rejects_non_finite_raw_forcing():
    # a raw forcing array is checked like a VolumeField, so the Newtonian
    # pair raises rather than return NaN
    grid = build_volume_grid({"type": "cube", "side": 1.0}, 4)
    forcing = np.ones((grid.n_cells, 3))
    forcing[5, 1] = np.nan
    origin = np.zeros((1, 3))
    for call in (lambda: P.newtonian_velocity(grid, forcing, origin, PARAMS),
                 lambda: P.newtonian_pressure(grid, forcing, origin)):
        with pytest.raises(ValueError, match="forcing contains non-finite"):
            call()


def test_newtonian_rejects_forcing_from_another_grid():
    # equal cell counts, so only the grid identity tells the two apart
    grid = build_volume_grid({"type": "cube", "side": 1.0}, 4)
    other = build_volume_grid({"type": "cube", "side": 2.0}, 4)
    foreign = P.VolumeField(other, np.ones((other.n_cells, 3)))
    origin = np.zeros((1, 3))
    calls = (lambda: P.newtonian_velocity(grid, foreign, origin, PARAMS),
             lambda: P.newtonian_pressure(grid, foreign, origin),
             lambda: P.newtonian_boundary_data(grid, foreign, build_cube(1),
                                               PARAMS))
    for call in calls:
        with pytest.raises(ValueError, match="different volume grid"):
            call()


# ------------------------------------------------------------ evaluation guards

@pytest.mark.parametrize("evaluate", [P.eval_single_layer,
                                      P.eval_double_layer,
                                      P.eval_single_layer_pressure,
                                      P.eval_double_layer_pressure])
def test_eval_rejects_non_finite_raw_density(coarse, evaluate):
    # a raw density array is checked like a BoundaryField
    mesh, _ = coarse
    density = np.ones((mesh.n_panels, 3))
    density[3, 2] = np.nan
    with pytest.raises(ValueError, match="density contains non-finite"):
        evaluate(mesh, density, np.zeros((1, 3)), PARAMS)


def test_eval_rejects_on_surface_point(fine):
    mesh, _ = fine
    g = smooth_density(mesh)
    with pytest.raises(ValueError, match="boundary"):
        P.eval_single_layer(mesh, g, mesh.centroids[5][None], PARAMS)


def test_eval_warns_very_close_to_surface(fine):
    mesh, _ = fine
    g = smooth_density(mesh)
    x = mesh.centroids[5] + 5.0e-4 * mesh.diameters[5] * mesh.normals[5]
    with pytest.warns(RuntimeWarning, match="accuracy"):
        P.eval_single_layer(mesh, g, x[None], PARAMS)


def test_eval_silent_at_moderate_distance(fine):
    mesh, _ = fine
    g = smooth_density(mesh)
    x = mesh.centroids[5] + 0.5 * mesh.diameters[5] * mesh.normals[5]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        P.eval_single_layer(mesh, g, x[None], PARAMS)


def test_eval_linearity_and_zero(fine):
    mesh, _ = fine
    rng = np.random.default_rng(3)
    g1 = rng.standard_normal((mesh.n_panels, 3))
    g2 = rng.standard_normal((mesh.n_panels, 3))
    pts = np.array([[0.1, 0.0, 0.2], [0.0, -0.3, 0.1]])
    zero = P.eval_single_layer(mesh, np.zeros_like(g1), pts, PARAMS)
    np.testing.assert_array_equal(zero, 0.0)
    combo = P.eval_single_layer(mesh, 2.0 * g1 - 3.0 * g2, pts, PARAMS)
    parts = (2.0 * P.eval_single_layer(mesh, g1, pts, PARAMS)
             - 3.0 * P.eval_single_layer(mesh, g2, pts, PARAMS))
    np.testing.assert_allclose(combo, parts, rtol=1.0e-12, atol=1.0e-14)


def test_assembly_rejects_degenerate_panels():
    # evaluation refuses the mesh too, rather than warn and return values
    # near 1e-17
    vertices = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0],
                         [0.5, 1.0e-16, 0.0]])
    sliver = SurfaceMesh(vertices, np.array([[0, 1, 2]]),
                         orient_outward=False)
    calls = (lambda: P.assemble_single_layer(sliver, PARAMS),
             lambda: P.eval_single_layer(sliver, np.ones((1, 3)),
                                         np.array([[0.5, 0.3, 0.4]]), PARAMS))
    for call in calls:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="degenerate"):
                call()


def test_layer_rows_refuse_alpha_past_the_near_field():
    # sqrt(alpha) times the largest diameter is 6.2 here, where the near V
    # blocks err 2.4e-3; the bound is 2.5
    mesh = build_icosphere(1)
    reach = 10.0 * mesh.diameters.max()
    assert reach > 2.5
    with pytest.raises(UnsupportedParameter,
                       match=rf"alpha = 100 .* {reach:.3g}, above 2\.5"):
        P.assemble_single_layer(mesh, BrinkmanParams(alpha=100.0))
