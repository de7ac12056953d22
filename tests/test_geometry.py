"""Tests for meshes, labeling, quadrature rules and volume grids."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bbem.geometry import (
    DIRICHLET,
    NEUMANN,
    PatchLabeling,
    SurfaceMesh,
    build_cube,
    build_icosphere,
    build_volume_grid,
    check_closed,
    label_patches,
    load_off,
    panel_quadrature,
    winding_number,
)

from _oracles import (
    duffy_rule_batch,
    duffy_singular_rule,
    polar_triangle_integral,
)


# ------------------------------------------------------------------ icosphere

def test_icosphere_panel_counts():
    for level in range(4):
        mesh = build_icosphere(level)
        assert mesh.n_panels == 20 * 4 ** level


def test_icosphere_vertices_on_sphere():
    mesh = build_icosphere(2, radius=1.5)
    radii = np.linalg.norm(mesh.vertices, axis=1)
    np.testing.assert_allclose(radii, 1.5, rtol=1e-14)


def test_icosphere_is_closed_and_oriented():
    for level in (0, 1, 2):
        assert check_closed(build_icosphere(level))


def test_icosphere_normals_point_outward():
    mesh = build_icosphere(2)
    outward = np.einsum("ij,ij->i", mesh.normals, mesh.centroids)
    assert np.all(outward > 0.0)


def test_icosphere_area_converges_to_sphere():
    # inscribed polyhedron: area increases toward 4 pi with refinement
    exact = 4.0 * math.pi
    errors = [exact - build_icosphere(level).total_area for level in (1, 2, 3)]
    assert all(e > 0.0 for e in errors)
    assert errors[1] < errors[0] / 3.0 and errors[2] < errors[1] / 3.0
    assert errors[2] < 0.01 * exact


def test_icosphere_volume_by_divergence_theorem():
    mesh = build_icosphere(3)
    volume = np.einsum("ij,ij,i->", mesh.centroids, mesh.normals, mesh.areas) / 3.0
    assert abs(volume - 4.0 * math.pi / 3.0) < 0.01 * volume


def test_icosphere_level_and_radius_validation():
    with pytest.raises(ValueError):
        build_icosphere(7)
    with pytest.raises(ValueError):
        build_icosphere(-1)
    with pytest.raises(ValueError):
        build_icosphere(1, radius=0.0)


# ----------------------------------------------------------------------- cube

def test_cube_panel_counts():
    for level in range(3):
        mesh = build_cube(level)
        assert mesh.n_panels == 12 * 4 ** level


def test_cube_is_closed():
    for level in (0, 1, 2):
        assert check_closed(build_cube(level))


def test_cube_area_and_volume_exact():
    mesh = build_cube(2, side=2.0)
    np.testing.assert_allclose(mesh.total_area, 6.0 * 4.0, rtol=1e-13)
    volume = np.einsum("ij,ij,i->", mesh.centroids, mesh.normals, mesh.areas) / 3.0
    np.testing.assert_allclose(volume, 8.0, rtol=1e-13)


def test_cube_normals_axis_aligned_outward():
    mesh = build_cube(1, side=1.0)
    # every normal is +/- a coordinate axis and agrees with the centroid side
    axis = np.argmax(np.abs(mesh.normals), axis=1)
    np.testing.assert_allclose(np.abs(mesh.normals[np.arange(mesh.n_panels), axis]),
                               1.0, atol=1e-14)
    signs = np.sign(mesh.normals[np.arange(mesh.n_panels), axis])
    np.testing.assert_allclose(mesh.centroids[np.arange(mesh.n_panels), axis],
                               signs * 0.5, atol=1e-14)


# ------------------------------------------------------------ mesh invariants

def test_orientation_repair_flips_inward_panels():
    base = build_icosphere(1)
    tris = base.triangles.copy()
    tris[::3] = tris[::3][:, [0, 2, 1]]                     # scramble orientation
    mesh = SurfaceMesh(base.vertices, tris, orient_outward=True)
    outward = np.einsum("ij,ij->i", mesh.normals, mesh.centroids)
    assert np.all(outward > 0.0)
    assert check_closed(mesh)


def test_check_closed_rejects_open_mesh():
    base = build_icosphere(0)
    mesh = SurfaceMesh(base.vertices, base.triangles[:-1])
    with pytest.raises(ValueError, match="not closed"):
        check_closed(mesh)


def test_check_closed_raises_on_an_open_mesh_every_time():
    # a mesh that passes is not walked again; a failure is not remembered
    base = build_icosphere(0)
    mesh = SurfaceMesh(base.vertices, base.triangles[:-1])
    for _ in range(3):
        with pytest.raises(ValueError, match="not closed"):
            check_closed(mesh)
    assert check_closed(base) and check_closed(base)


def test_check_closed_rejects_inconsistent_orientation():
    base = build_icosphere(0)
    tris = base.triangles.copy()
    tris[0] = tris[0][[0, 2, 1]]
    mesh = SurfaceMesh(base.vertices, tris, orient_outward=False)
    with pytest.raises(ValueError, match="same direction"):
        check_closed(mesh)


def test_check_closed_names_an_edge_traversed_twice():
    # a second copy of a triangle walks its three edges again in the same
    # direction; the message names the first repeat, the copy's first edge
    base = build_icosphere(1)
    a, b, c = base.triangles[7]
    mesh = SurfaceMesh(base.vertices, np.vstack([base.triangles,
                                                 base.triangles[7]]),
                       orient_outward=False)
    with pytest.raises(ValueError, match=rf"^edge \({a}, {b}\) traversed "
                       r"twice in the same direction$"):
        check_closed(mesh)


def _edge_walk(triangles):
    """The per-edge dict walk check_closed replaced, as the reference: the
    message of the first directed edge seen twice, else of the first edge
    whose reverse is missing, else None."""
    directed = {}
    for tri in triangles:
        for a, b in ((tri[0], tri[1]), (tri[1], tri[2]), (tri[2], tri[0])):
            key = (int(a), int(b))
            if key in directed:
                return f"edge {key} traversed twice in the same direction"
            directed[key] = True
    for a, b in directed:
        if (b, a) not in directed:
            return f"boundary edge ({a}, {b}): mesh is not closed"
    return None


@pytest.mark.parametrize("seed", range(6))
def test_check_closed_names_the_edge_the_walk_names(seed):
    # triangles dropped, repeated or flipped at seeded places: the sorted
    # check raises the walk's message, naming the same edge
    base = build_icosphere(1)
    rng = np.random.default_rng(seed)
    tris = base.triangles.copy()
    picks = rng.choice(len(tris), 3, replace=False)
    if seed % 3 == 0:
        tris = np.delete(tris, picks[:1 + seed % 2], axis=0)
    elif seed % 3 == 1:
        tris = np.vstack([tris, tris[picks[:1]]])
    else:
        tris[picks[:2]] = tris[picks[:2]][:, [0, 2, 1]]
    mesh = SurfaceMesh(base.vertices, tris, orient_outward=False)
    expected = _edge_walk(tris)
    assert expected is not None
    with pytest.raises(ValueError) as raised:
        check_closed(mesh)
    assert str(raised.value) == expected


def test_degenerate_triangle_rejected():
    verts = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [2.0, 0.0, 0.0]])
    with pytest.raises(ValueError, match="degenerate"):
        SurfaceMesh(verts, np.array([[0, 1, 2]]))
    for bad in (np.nan, np.inf):
        verts = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, bad, 0.0]])
        with pytest.raises(ValueError, match="vertices must be finite"):
            SurfaceMesh(verts, np.array([[0, 1, 2]]))


def test_mesh_arrays_are_read_only():
    mesh = build_icosphere(0)
    with pytest.raises(ValueError):
        mesh.centroids[0, 0] = 99.0


def test_panel_diameters_are_max_edge():
    mesh = build_cube(0, side=1.0)
    # each cube face is split along a diagonal of length sqrt(2)
    np.testing.assert_allclose(mesh.diameters, math.sqrt(2.0), rtol=1e-14)


# ----------------------------------------------------------------- OFF import

TETRA_OFF = """OFF
4 4 0
0 0 0
1 0 0
0 1 0
0 0 1
3 0 2 1
3 0 1 3
3 0 3 2
3 1 2 3
"""


def test_off_import_tetrahedron(tmp_path):
    path = tmp_path / "tetra.off"
    path.write_text(TETRA_OFF)
    mesh = load_off(path)
    assert mesh.n_panels == 4
    assert len(mesh.vertices) == 4
    np.testing.assert_allclose(mesh.total_area,
                               1.5 + math.sqrt(3.0) / 2.0, rtol=1e-13)


def test_off_import_rejects_non_triangle(tmp_path):
    path = tmp_path / "quad.off"
    path.write_text("OFF\n4 1 0\n0 0 0\n1 0 0\n1 1 0\n0 1 0\n4 0 1 2 3\n")
    with pytest.raises(ValueError, match="triangle"):
        load_off(path)


@pytest.mark.parametrize("text, match", [
    ("OFF\n4 4 0\n0 0 0\n1 0 0\n", "ends after line 4; expected vertex 2 of 4"),
    (TETRA_OFF.replace("3 1 2 3\n", ""), "ends after line 9; expected face 3 of 4"),
    (TETRA_OFF.replace("4 4 0", "4 4"), "line 2: expected the counts"),
    (TETRA_OFF.replace("0 0 1\n", "0 0\n"), "line 6: expected vertex 3 of 4"),
    (TETRA_OFF.replace("0 0 1\n", "0 0 z\n"), "line 6: expected vertex 3 of 4"),
], ids=["few-vertices", "few-faces", "two-counts", "short-vertex", "bad-vertex"])
def test_off_import_names_malformed_lines(tmp_path, text, match):
    path = tmp_path / "bad.off"
    path.write_text(text)
    with pytest.raises(ValueError, match=match):
        load_off(path)


def test_off_import_rejects_missing_header(tmp_path):
    path = tmp_path / "bad.off"
    path.write_text("4 4 0\n")
    with pytest.raises(ValueError, match="OFF"):
        load_off(path)
    path.write_text(TETRA_OFF.replace("0 1 0\n", "0 nan 0\n"))
    with pytest.raises(ValueError, match="vertices must be finite"):
        load_off(path)


# -------------------------------------------------------------- patch labeling

def test_plane_rule_splits_sphere():
    mesh = build_icosphere(2)
    labeling = label_patches(mesh, {"type": "plane", "normal": [0, 0, 1],
                                    "offset": 0.0, "positive_side": "NEUMANN"})
    assert labeling.n_dirichlet + labeling.n_neumann == mesh.n_panels
    # the icosahedron is not mirror-symmetric in z, so only roughly half
    assert abs(labeling.n_neumann - mesh.n_panels / 2) < 0.1 * mesh.n_panels
    assert np.all(mesh.centroids[labeling.neumann_mask, 2] > 0.0)
    assert np.all(mesh.centroids[labeling.dirichlet_mask, 2] <= 0.0)


def test_cube_faces_rule_selects_top():
    mesh = build_cube(1)
    labeling = label_patches(mesh, {"type": "cube_faces", "neumann_faces": ["+z"]})
    assert labeling.n_neumann == mesh.n_panels // 6
    assert np.all(mesh.normals[labeling.neumann_mask, 2] > 0.9)


def test_labeling_masks_are_read_only_and_match_labels():
    mesh = build_cube(1)
    labeling = label_patches(mesh, {"type": "cube_faces", "neumann_faces": ["+z"]})
    expected = np.array([lab == NEUMANN for lab in labeling.panel_label])
    np.testing.assert_array_equal(labeling.neumann_mask, expected)
    np.testing.assert_array_equal(labeling.dirichlet_mask, ~expected)
    for mask in (labeling.neumann_mask, labeling.dirichlet_mask):
        with pytest.raises(ValueError, match="read-only"):
            mask[0] = not mask[0]
    # equality and hashing see the labels only
    twin = PatchLabeling(labeling.panel_label)
    assert twin == labeling and hash(twin) == hash(labeling)


def test_whole_boundary_rule():
    mesh = build_icosphere(1)
    labeling = label_patches(mesh, {"type": "all", "label": "DIRICHLET"})
    assert labeling.n_dirichlet == mesh.n_panels
    assert labeling.n_neumann == 0


def test_label_rule_validation():
    mesh = build_icosphere(0)
    with pytest.raises(ValueError, match="unknown patch rule"):
        label_patches(mesh, {"type": "stripes"})
    with pytest.raises(ValueError, match="cube face"):
        label_patches(mesh, {"type": "cube_faces", "neumann_faces": ["+w"]})
    with pytest.raises(ValueError, match="positive_side"):
        label_patches(mesh, {"type": "plane", "normal": [0, 0, 1], "offset": 0.0,
                             "positive_side": "ROBIN"})
    with pytest.raises(ValueError, match="label"):
        label_patches(mesh, {"type": "all", "label": "ROBIN"})
    # malformed rules name the field instead of failing with a bare
    # KeyError or TypeError
    with pytest.raises(ValueError, match="'normal'"):
        label_patches(mesh, {"type": "plane"})
    with pytest.raises(ValueError, match="'offset'"):
        label_patches(mesh, {"type": "plane", "normal": [0, 0, 1]})
    with pytest.raises(ValueError, match="normal"):
        label_patches(mesh, {"type": "plane", "normal": [0, 1], "offset": 0})
    with pytest.raises(ValueError, match="offset"):
        label_patches(mesh, {"type": "plane", "normal": [0, 0, 1],
                             "offset": None})
    with pytest.raises(ValueError, match="neumann_faces"):
        label_patches(mesh, {"type": "cube_faces", "neumann_faces": 5})
    with pytest.raises(ValueError, match="cube face"):
        label_patches(mesh, {"type": "cube_faces", "neumann_faces": [["+z"]]})
    with pytest.raises(ValueError, match="mapping"):
        label_patches(mesh, ["plane"])


def test_labels_are_strings():
    assert DIRICHLET == "DIRICHLET" and NEUMANN == "NEUMANN"


# ----------------------------------------------------------------- quadrature

def reference_triangle_mesh():
    verts = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
    return SurfaceMesh(verts, np.array([[0, 1, 2]]), orient_outward=False)


def exact_monomial(p, q):
    """Integral of x^p y^q over the triangle (0,0), (1,0), (0,1)."""
    return math.factorial(p) * math.factorial(q) / math.factorial(p + q + 2)


DEGREE_OF_ORDER = {1: 1, 3: 2, 6: 4, 12: 6}


@pytest.mark.parametrize("order", [1, 3, 6, 12])
def test_quadrature_weights_sum_to_area(order):
    mesh = build_icosphere(1)
    quad = panel_quadrature(mesh, order)
    np.testing.assert_allclose(quad.weights.sum(axis=1), mesh.areas, rtol=1e-13)


@pytest.mark.parametrize("order", [1, 3, 6, 12])
def test_quadrature_polynomial_exactness(order):
    mesh = reference_triangle_mesh()
    quad = panel_quadrature(mesh, order)
    x, y = quad.nodes[0, :, 0], quad.nodes[0, :, 1]
    w = quad.weights[0]
    degree = DEGREE_OF_ORDER[order]
    for p in range(degree + 1):
        for q in range(degree + 1 - p):
            np.testing.assert_allclose(np.sum(w * x ** p * y ** q),
                                       exact_monomial(p, q), rtol=1e-13,
                                       err_msg=f"order {order}, monomial x^{p} y^{q}")


@pytest.mark.parametrize("order", [1, 3, 6, 12])
def test_quadrature_is_built_once_per_mesh_read_only(order):
    # the rule is kept on the mesh: a second call returns it again, its
    # arrays refuse writes, and they equal a fresh build's bits
    mesh = build_cube(1)
    quad = panel_quadrature(mesh, order)
    assert panel_quadrature(mesh, order) is quad
    fresh = panel_quadrature.__wrapped__(mesh, order)
    assert fresh is not quad and fresh.order == quad.order == order
    for kept, built in ((quad.nodes, fresh.nodes),
                        (quad.weights, fresh.weights)):
        assert not kept.flags.writeable
        assert kept.tobytes() == built.tobytes()
    with pytest.raises(ValueError, match="read-only"):
        quad.nodes[0, 0, 0] = 1.0


def test_quadrature_nodes_lie_on_panels():
    mesh = build_icosphere(1)
    quad = panel_quadrature(mesh, 6)
    # all nodes must satisfy the panel plane equation
    offsets = np.einsum("fqx,fx->fq", quad.nodes - mesh.centroids[:, None, :],
                        mesh.normals)
    np.testing.assert_allclose(offsets, 0.0, atol=1e-13)


def test_quadrature_order_validation():
    with pytest.raises(ValueError, match="order"):
        panel_quadrature(build_icosphere(0), 5)


# ----------------------------------------------------------------- Duffy rule

UNIT_RIGHT = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])


def test_duffy_frozen_value_inverse_distance():
    # integral of 1/r over the unit right triangle, singularity at the corner
    nodes, weights = duffy_singular_rule(UNIT_RIGHT, UNIT_RIGHT[0], order=12)
    value = np.sum(weights / np.linalg.norm(nodes, axis=1))
    exact = math.sqrt(2.0) * math.log(1.0 + math.sqrt(2.0))
    np.testing.assert_allclose(value, exact, rtol=1e-9)


def test_duffy_weights_sum_to_area():
    corners = np.array([[0.2, -0.1, 0.3], [1.1, 0.2, 0.0], [0.3, 0.9, -0.4]])
    center = corners.mean(axis=0)
    _, weights = duffy_singular_rule(corners, center, order=8)
    area = 0.5 * np.linalg.norm(np.cross(corners[1] - corners[0],
                                         corners[2] - corners[0]))
    np.testing.assert_allclose(weights.sum(), area, rtol=1e-13)


@pytest.mark.parametrize("where", ["centroid", "edge", "vertex"])
def test_duffy_matches_adaptive_oracle(where):
    corners = np.array([[0.0, 0.0, 0.0], [0.9, 0.1, 0.0], [0.2, 0.8, 0.0]])
    point = {"centroid": corners.mean(axis=0),
             "edge": 0.5 * (corners[0] + corners[1]),
             "vertex": corners[2]}[where]

    def integrand(x):
        r = np.linalg.norm(x - point, axis=-1)
        return np.exp(-r) / r

    nodes, weights = duffy_singular_rule(corners, point, order=12)
    value = np.sum(weights * integrand(nodes))
    oracle = polar_triangle_integral(integrand, corners, point)
    # interior fan triangles are skewed, so order 12 reaches ~1e-6 relative
    np.testing.assert_allclose(value, oracle, rtol=1e-5)


def test_duffy_convergence_with_order():
    corners = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
    point = np.array([0.25, 0.25, 0.0])

    def integrand(x):
        return 1.0 / np.linalg.norm(x - point, axis=-1)

    oracle = polar_triangle_integral(integrand, corners, point)
    errors = []
    for order in (4, 8, 16):
        nodes, weights = duffy_singular_rule(corners, point, order)
        errors.append(abs(np.sum(weights * integrand(nodes)) - oracle))
    assert errors[1] < errors[0] and errors[2] < errors[1]
    assert errors[2] < 1e-6


def test_duffy_rejects_off_panel_points():
    with pytest.raises(ValueError, match="plane"):
        duffy_singular_rule(UNIT_RIGHT, np.array([0.3, 0.3, 0.5]), order=4)
    with pytest.raises(ValueError, match="outside"):
        duffy_singular_rule(UNIT_RIGHT, np.array([0.8, 0.8, 0.0]), order=4)


def _mixed_singular_points(corners):
    """Per panel, in turn: the centroid, an edge midpoint, a vertex."""
    kinds = (lambda c: c.mean(axis=0), lambda c: 0.5 * (c[1] + c[2]),
             lambda c: c[2].copy())
    return np.array([kinds[k % 3](c) for k, c in enumerate(corners)])


@pytest.mark.parametrize("geometry", ["cube", "icosphere"])
def test_duffy_batch_matches_per_panel_rules(geometry):
    mesh = build_cube(1) if geometry == "cube" else build_icosphere(1)
    corners = mesh.panel_corners
    points = _mixed_singular_points(corners)
    nodes, weights, counts = duffy_rule_batch(corners, points, order=6)
    single = [duffy_singular_rule(c, p, order=6)
              for c, p in zip(corners, points)]
    expected_counts = np.array([len(w) for _, w in single])
    expected_nodes = np.concatenate([n for n, _ in single])
    expected_weights = np.concatenate([w for _, w in single])
    np.testing.assert_array_equal(counts, expected_counts)
    # interior points keep 3 fan triangles, edge points 2, vertices 1
    np.testing.assert_array_equal(counts // 36,
                                  [3, 2, 1] * (len(corners) // 3)
                                  + [3, 2, 1][:len(corners) % 3])
    if geometry == "cube":
        np.testing.assert_array_equal(nodes, expected_nodes)
        np.testing.assert_array_equal(weights, expected_weights)
    else:
        np.testing.assert_allclose(nodes, expected_nodes, rtol=1e-15, atol=0)
        np.testing.assert_allclose(weights, expected_weights, rtol=1e-15,
                                   atol=0)


def test_duffy_batch_rejects_any_off_panel_point():
    mesh = build_cube(1)
    corners = mesh.panel_corners
    points = _mixed_singular_points(corners)
    off_plane = points.copy()
    off_plane[5] += 0.1 * mesh.normals[5]
    with pytest.raises(ValueError, match="plane"):
        duffy_rule_batch(corners, off_plane, order=4)
    outside = points.copy()
    outside[7] = corners[7, 0] + 2.0 * (corners[7, 1] - corners[7, 0])
    with pytest.raises(ValueError, match="outside"):
        duffy_rule_batch(corners, outside, order=4)
    not_finite = points.copy()
    not_finite[3, 1] = np.nan
    with pytest.raises(ValueError, match="singular points must be finite"):
        duffy_rule_batch(corners, not_finite, order=4)
    bad_corners = corners.copy()
    bad_corners[2, 1, 0] = np.inf
    with pytest.raises(ValueError, match="panel corners must be finite"):
        duffy_rule_batch(bad_corners, points, order=4)
    for order in (2.5, 4.0, "4", True, 0, -3):
        with pytest.raises(ValueError, match="order must be a whole number"):
            duffy_rule_batch(corners, points, order=order)
    for got, expected in zip(duffy_rule_batch(corners, points, np.int64(4)),
                             duffy_rule_batch(corners, points, 4)):
        np.testing.assert_array_equal(got, expected)


# ---------------------------------------------------------------- volume grid

def test_cube_grid_volume_exact():
    grid = build_volume_grid({"type": "cube", "side": 2.0}, resolution=8)
    assert grid.n_cells == 8 ** 3
    np.testing.assert_allclose(grid.total_volume, 8.0, rtol=1e-12)
    assert np.all(np.abs(grid.centers) < 1.0)


def test_sphere_grid_volume_close():
    grid = build_volume_grid({"type": "sphere", "radius": 1.0}, resolution=32)
    exact = 4.0 * math.pi / 3.0
    assert abs(grid.total_volume - exact) < 0.02 * exact
    assert np.all(np.linalg.norm(grid.centers, axis=1) < 1.0)


def test_grid_center_offsets():
    center = np.array([1.0, -2.0, 0.5])
    grid = build_volume_grid({"type": "sphere", "radius": 0.5, "center": center},
                             resolution=16)
    assert np.all(np.linalg.norm(grid.centers - center, axis=1) < 0.5)


def test_mesh_domain_grid_matches_sphere():
    mesh = build_icosphere(2)
    grid = build_volume_grid({"type": "mesh", "mesh": mesh}, resolution=16)
    exact = 4.0 * math.pi / 3.0
    assert abs(grid.total_volume - exact) < 0.08 * exact


def test_grid_validation():
    with pytest.raises(ValueError, match="resolution"):
        build_volume_grid({"type": "cube", "side": 1.0}, resolution=1)
    with pytest.raises(ValueError, match="domain type"):
        build_volume_grid({"type": "torus"}, resolution=4)
    for kind, key in (("cube", "side"), ("sphere", "radius")):
        with pytest.raises(ValueError,
                           match=f"finite positive '{key}', got None"):
            build_volume_grid({"type": kind}, resolution=4)
        for bad in (-1.0, 0.0, np.nan, np.inf):
            with pytest.raises(ValueError, match=f"finite positive '{key}'"):
                build_volume_grid({"type": kind, key: bad}, resolution=4)


# ------------------------------------------------------------- winding number

def test_winding_number_classifies_points():
    mesh = build_icosphere(1)
    inside = np.array([[0.0, 0.0, 0.0], [0.3, -0.2, 0.4]])
    outside = np.array([[2.0, 0.0, 0.0], [0.0, -1.5, 1.0]])
    np.testing.assert_allclose(winding_number(mesh, inside), 1.0, atol=1e-10)
    np.testing.assert_allclose(winding_number(mesh, outside), 0.0, atol=1e-10)


@settings(max_examples=25, deadline=None)
@given(st.lists(st.floats(-0.9, 0.9), min_size=3, max_size=3))
def test_winding_number_by_radius(coords):
    point = np.asarray(coords)
    mesh = build_icosphere(1)
    value = winding_number(mesh, point)[0]
    # icosphere level 1 contains the ball of radius ~0.79 (inradius of faces)
    if np.linalg.norm(point) < 0.75:
        assert value > 0.99
    elif np.linalg.norm(point) > 1.05:
        assert value < 0.01
