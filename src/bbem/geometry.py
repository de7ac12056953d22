"""Surface meshes, patch labeling, quadrature rules and volume grids.

Boundaries are closed triangle meshes with outward unit normals; densities
live at panel centroids.  Built-in geometries are the icosphere (subdivided
icosahedron projected to a sphere) and an axis-aligned cube whose faces are
regularly triangulated; arbitrary closed triangulations can be imported from
a subset of the OFF format.  Volume grids are uniform voxelizations of the
interior used by the Newtonian potentials.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np

DIRICHLET = "DIRICHLET"
NEUMANN = "NEUMANN"


class SurfaceMesh:
    """Closed oriented triangle mesh with per-panel centroid, area and normal.

    Arrays are marked read-only after construction: meshes are shared freely
    across threads and cached operators key on identity.
    """

    def __init__(self, vertices, triangles, orient_outward=True):
        vertices = np.ascontiguousarray(vertices, dtype=float)
        triangles = np.ascontiguousarray(triangles, dtype=np.int64)
        if vertices.ndim != 2 or vertices.shape[1] != 3:
            raise ValueError("vertices must have shape (nv, 3)")
        if triangles.ndim != 2 or triangles.shape[1] != 3:
            raise ValueError("triangles must have shape (nf, 3)")
        if triangles.min(initial=0) < 0 or triangles.max(initial=-1) >= len(vertices):
            raise ValueError("triangle indices out of range")
        if not np.all(np.isfinite(vertices)):
            raise ValueError("vertices must be finite")

        corners = vertices[triangles]                       # (nf, 3, 3)
        cross = np.cross(corners[:, 1] - corners[:, 0], corners[:, 2] - corners[:, 0])
        two_area = np.linalg.norm(cross, axis=1)
        if np.any(two_area <= 0.0):
            raise ValueError("degenerate triangle with zero area")
        centroids = corners.mean(axis=1)
        normals = cross / two_area[:, None]

        if orient_outward:
            # star-shaped built-ins: flip any panel whose normal points inward
            interior = vertices.mean(axis=0)
            inward = np.einsum("ij,ij->i", normals, centroids - interior) < 0.0
            if np.any(inward):
                triangles = triangles.copy()
                triangles[inward] = triangles[inward][:, [0, 2, 1]]
                normals = normals.copy()
                normals[inward] *= -1.0

        self.vertices = vertices
        self.triangles = triangles
        self.centroids = centroids
        self.areas = 0.5 * two_area
        self.normals = normals
        edges = corners - np.roll(corners, 1, axis=1)
        self.diameters = np.linalg.norm(edges, axis=2).max(axis=1)
        # vertex coordinates per panel, shape (nf, 3, 3), in final orientation
        self.panel_corners = vertices[triangles]
        for arr in (self.vertices, self.triangles, self.centroids, self.areas,
                    self.normals, self.diameters, self.panel_corners):
            arr.setflags(write=False)
        self._derived = {}

    @property
    def n_panels(self):
        return len(self.triangles)

    @property
    def total_area(self):
        return float(self.areas.sum())

    @property
    def scale(self):
        """Largest bounding-box extent; the reference length for tolerances."""
        return float(np.max(self.vertices.max(axis=0) - self.vertices.min(axis=0)))


def _per_mesh(build):
    """build(mesh, *args) once per mesh and args, kept on the mesh; a raise
    is not kept.  The mesh's arrays are immutable, and so are build's."""
    @functools.wraps(build)
    def once(mesh, *args):
        key = (build.__name__, *args)
        if key not in mesh._derived:
            mesh._derived[key] = build(mesh, *args)
        return mesh._derived[key]
    return once


@_per_mesh
def check_closed(mesh):
    """Verify the mesh is closed and consistently oriented.

    Every undirected edge must be shared by exactly two triangles, traversed
    in opposite directions; additionally the discrete divergence theorem
    Σ area·ν = 0 must hold to 1e-12 of the total area.
    """
    # directed edges (a, b) in walk order, keyed a·nv + b
    tri, nv = mesh.triangles, len(mesh.vertices)
    edges = np.stack([tri, np.roll(tri, -1, axis=1)], axis=-1).reshape(-1, 2)
    keys = edges[:, 0] * nv + edges[:, 1]
    order = np.argsort(keys, kind="stable")
    again = order[1:][keys[order[1:]] == keys[order[:-1]]]  # later repeats
    if len(again):
        a, b = edges[again.min()]
        raise ValueError(f"edge {(int(a), int(b))} traversed twice in the "
                         "same direction")
    open_edges = np.flatnonzero(~np.isin(edges[:, 1] * nv + edges[:, 0], keys))
    if len(open_edges):
        a, b = edges[open_edges[0]]
        raise ValueError(f"boundary edge ({a}, {b}): mesh is not closed")
    flux = np.abs(mesh.areas @ mesh.normals)
    if np.any(flux > 1.0e-12 * mesh.total_area):
        raise ValueError(f"sum of area-weighted normals {flux} exceeds closure tolerance")
    return True


# ------------------------------------------------------------ built-in meshes

def build_icosphere(level, radius=1.0):
    """Icosahedron subdivided `level` times, vertices projected to the sphere.

    level k gives 20·4^k panels.  Levels above 6 exceed the dense-assembly
    budget and are refused.
    """
    if not (0 <= int(level) <= 6):
        raise ValueError("icosphere level must be in 0..6 (dense-assembly budget)")
    if radius <= 0.0:
        raise ValueError("radius must be positive")
    phi = (1.0 + np.sqrt(5.0)) / 2.0
    verts = np.array([
        (-1, phi, 0), (1, phi, 0), (-1, -phi, 0), (1, -phi, 0),
        (0, -1, phi), (0, 1, phi), (0, -1, -phi), (0, 1, -phi),
        (phi, 0, -1), (phi, 0, 1), (-phi, 0, -1), (-phi, 0, 1),
    ], dtype=float)
    faces = np.array([
        (0, 11, 5), (0, 5, 1), (0, 1, 7), (0, 7, 10), (0, 10, 11),
        (1, 5, 9), (5, 11, 4), (11, 10, 2), (10, 7, 6), (7, 1, 8),
        (3, 9, 4), (3, 4, 2), (3, 2, 6), (3, 6, 8), (3, 8, 9),
        (4, 9, 5), (2, 4, 11), (6, 2, 10), (8, 6, 7), (9, 8, 1),
    ], dtype=np.int64)

    verts = [v / np.linalg.norm(v) for v in verts]
    for _ in range(int(level)):
        midpoint_cache = {}
        new_faces = []

        def midpoint(i, j):
            key = (min(i, j), max(i, j))
            if key not in midpoint_cache:
                m = verts[i] + verts[j]
                verts.append(m / np.linalg.norm(m))
                midpoint_cache[key] = len(verts) - 1
            return midpoint_cache[key]

        for a, b, c in faces:
            ab, bc, ca = midpoint(a, b), midpoint(b, c), midpoint(c, a)
            new_faces += [(a, ab, ca), (b, bc, ab), (c, ca, bc), (ab, bc, ca)]
        faces = np.asarray(new_faces, dtype=np.int64)

    return SurfaceMesh(radius * np.asarray(verts), faces)


def build_cube(level, side=1.0):
    """Axis-aligned cube centered at the origin; 2·4^level triangles per face."""
    if int(level) < 0:
        raise ValueError("cube level must be >= 0")
    if side <= 0.0:
        raise ValueError("side must be positive")
    n = 2 ** int(level)
    h = side / n
    half = side / 2.0

    vert_index = {}
    verts = []

    def vid(p):
        # grid points are half-integer multiples of h, so 2 p / h is integral
        key = (round(2 * p[0] / h), round(2 * p[1] / h), round(2 * p[2] / h))
        if key not in vert_index:
            vert_index[key] = len(verts)
            verts.append(p)
        return vert_index[key]

    tris = []
    # each face: fixed axis at +/- half, grid over the other two
    for axis in range(3):
        for sign in (-1.0, 1.0):
            u_axis, v_axis = [a for a in range(3) if a != axis]
            for iu in range(n):
                for iv in range(n):
                    corners = []
                    for du, dv in ((0, 0), (1, 0), (1, 1), (0, 1)):
                        p = np.zeros(3)
                        p[axis] = sign * half
                        p[u_axis] = -half + (iu + du) * h
                        p[v_axis] = -half + (iv + dv) * h
                        corners.append(vid(p))
                    c0, c1, c2, c3 = corners
                    tris += [(c0, c1, c2), (c0, c2, c3)]
    return SurfaceMesh(np.asarray(verts), np.asarray(tris, dtype=np.int64))


def load_off(path):
    """Import a closed triangulation from the OFF subset:
    "OFF" / "nv nf 0" / nv coordinate lines / nf lines "3 i j k" (0-based).
    A missing or malformed line raises a ValueError naming what was expected."""
    with open(path, "r", encoding="ascii") as fh:
        lines = [(number, line.split()) for number, line in enumerate(fh, 1)
                 if line.strip() and not line.startswith("#")]
    if not lines or lines[0][1] != ["OFF"]:
        raise ValueError("not an OFF file: missing OFF header line")

    def row(index, convert, count, what, exact=True):
        # the first count values of content line index; exact forbids more
        if index >= len(lines):
            raise ValueError(f"OFF file ends after line {lines[-1][0]}; expected {what}")
        number, tokens = lines[index]
        try:
            values = [convert(t) for t in tokens[:count]]
        except ValueError:
            values = []
        if len(values) < count or (exact and len(tokens) > count):
            raise ValueError(f"OFF line {number}: expected {what}, got {' '.join(tokens)!r}")
        return values

    nv, nf, _ = row(1, int, 3, "the counts 'nv nf 0'")
    verts = np.array([row(2 + i, float, 3, f"vertex {i} of {nv} as three numbers")
                      for i in range(nv)])
    tris = []
    for i in range(nf):
        size, *corners = row(2 + nv + i, int, 4, f"face {i} of {nf} as '3 i j k'", exact=False)
        if size != 3:
            raise ValueError(f"face {i} has {size} vertices; only triangles are supported")
        tris.append(corners)
    mesh = SurfaceMesh(verts, np.asarray(tris, dtype=np.int64), orient_outward=False)
    check_closed(mesh)
    return mesh


# ------------------------------------------------------------- patch labeling

@dataclass(frozen=True)
class PatchLabeling:
    """Panel labels partitioning the boundary into Dirichlet and Neumann patches."""

    panel_label: tuple
    # read-only masks built once; equality and hashing stay on panel_label
    neumann_mask: np.ndarray = field(init=False, compare=False, repr=False)
    dirichlet_mask: np.ndarray = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        bad = set(self.panel_label) - {DIRICHLET, NEUMANN}
        if bad:
            raise ValueError(f"unknown labels {bad}")
        neumann = np.array([lab == NEUMANN for lab in self.panel_label], dtype=bool)
        for name, mask in (("neumann_mask", neumann), ("dirichlet_mask", ~neumann)):
            mask.setflags(write=False)
            object.__setattr__(self, name, mask)

    @property
    def n_neumann(self):
        return int(self.neumann_mask.sum())

    @property
    def n_dirichlet(self):
        return len(self.panel_label) - self.n_neumann


_FACE_NORMALS = {
    "+x": np.array([1.0, 0.0, 0.0]), "-x": np.array([-1.0, 0.0, 0.0]),
    "+y": np.array([0.0, 1.0, 0.0]), "-y": np.array([0.0, -1.0, 0.0]),
    "+z": np.array([0.0, 0.0, 1.0]), "-z": np.array([0.0, 0.0, -1.0]),
}


def label_patches(mesh, rule):
    """Label panels from a rule descriptor.

    Supported rules:
      {"type": "plane", "normal": [a,b,c], "offset": d, "positive_side": "NEUMANN"}
         centroid·normal - d > 0 gets positive_side, the rest the other label;
      {"type": "cube_faces", "neumann_faces": ["+z", ...]}
         panels whose normal matches a listed axis direction become NEUMANN;
      {"type": "all", "label": "DIRICHLET"}
         whole-boundary single label.
    """
    if not isinstance(rule, dict):
        raise ValueError(f"patch rule must be a mapping, got {type(rule).__name__}")
    kind = rule.get("type")
    if kind == "plane":
        try:
            normal = np.asarray(rule["normal"], dtype=float).reshape(3)
            offset = float(rule["offset"])
        except KeyError as exc:
            raise ValueError(f"'{exc.args[0]}': required by a plane rule") from None
        except (TypeError, ValueError):
            raise ValueError("plane rule needs three numbers as normal and "
                             "a number as offset") from None
        pos_label = rule.get("positive_side", NEUMANN)
        if pos_label not in (DIRICHLET, NEUMANN):
            raise ValueError(f"positive_side must be DIRICHLET or NEUMANN, got {pos_label}")
        neg_label = DIRICHLET if pos_label == NEUMANN else NEUMANN
        side = mesh.centroids @ normal - offset > 0.0
        labels = tuple(pos_label if s else neg_label for s in side)
    elif kind == "cube_faces":
        wanted = rule.get("neumann_faces", [])
        if not isinstance(wanted, (list, tuple)):
            raise ValueError(f"neumann_faces must be a list, got {wanted!r}")
        dirs = []
        for name in wanted:
            if not isinstance(name, str) or name not in _FACE_NORMALS:
                raise ValueError(f"unknown cube face {name!r}")
            dirs.append(_FACE_NORMALS[name])
        labels = []
        for nu in mesh.normals:
            hit = any(np.dot(nu, d) > 0.9 for d in dirs)
            labels.append(NEUMANN if hit else DIRICHLET)
        labels = tuple(labels)
    elif kind == "all":
        lab = rule.get("label", DIRICHLET)
        if lab not in (DIRICHLET, NEUMANN):
            raise ValueError(f"label must be DIRICHLET or NEUMANN, got {lab}")
        labels = tuple(lab for _ in range(mesh.n_panels))
    else:
        raise ValueError(f"unknown patch rule type {kind!r}")
    return PatchLabeling(panel_label=labels)


# ----------------------------------------------------------------- quadrature

# Symmetric Gauss rules on the reference triangle in barycentric coordinates,
# exact for total degree 1, 2, 4, 6; weights sum to 1.
def _orbit3(a):
    b = (1.0 - a) / 2.0
    return [(a, b, b), (b, a, b), (b, b, a)]


def _orbit6(a, b):
    c = 1.0 - a - b
    return [(a, b, c), (a, c, b), (b, a, c), (b, c, a), (c, a, b), (c, b, a)]


_TRIANGLE_RULES = {
    1: (np.array([(1 / 3, 1 / 3, 1 / 3)]), np.array([1.0])),
    3: (np.array(_orbit3(0.0)), np.full(3, 1 / 3)),
    6: (np.array(_orbit3(0.108103018168070) + _orbit3(0.816847572980459)),
        np.array([0.223381589678011] * 3 + [0.109951743655322] * 3)),
    12: (np.array(_orbit3(0.501426509658179) + _orbit3(0.873821971016996)
                  + _orbit6(0.053145049844816, 0.310352451033785)),
         np.array([0.116786275726379] * 3 + [0.050844906370207] * 3
                  + [0.082851075618374] * 6)),
}


@dataclass(frozen=True)
class QuadratureSet:
    """Per-panel surface quadrature: nodes (nf, q, 3) and weights (nf, q).

    Weights carry units of area; per-panel weights sum to the panel area.
    """

    nodes: np.ndarray
    weights: np.ndarray
    order: int


@_per_mesh
def panel_quadrature(mesh, order):
    """Symmetric Gauss rule of the given order on every panel."""
    if order not in _TRIANGLE_RULES:
        raise ValueError(f"unsupported quadrature order {order}; pick one of 1, 3, 6, 12")
    bary, w = _TRIANGLE_RULES[order]
    corners = mesh.panel_corners                             # (nf, 3, 3)
    nodes = np.einsum("qb,fbx->fqx", bary, corners)
    weights = mesh.areas[:, None] * w[None, :]
    nodes.setflags(write=False)
    weights.setflags(write=False)
    return QuadratureSet(nodes=nodes, weights=weights, order=order)


# ---------------------------------------------------------------- volume grid

@dataclass(frozen=True)
class VolumeGrid:
    """Uniform voxelization of the interior: centers (m, 3), volumes (m,)."""

    centers: np.ndarray
    volumes: np.ndarray
    spacing: float
    descriptor: dict = field(compare=False)

    @property
    def n_cells(self):
        return len(self.centers)

    @property
    def total_volume(self):
        return float(self.volumes.sum())


def winding_number(mesh, points):
    """Generalized winding number of a closed mesh at query points.

    Sums the signed solid angles of all panels; values near 1 mean inside,
    near 0 outside.  Robust for closed triangulations of any shape.
    """
    points = np.atleast_2d(np.asarray(points, dtype=float))
    corners = mesh.panel_corners
    total = np.zeros(len(points))
    # solid angle of a triangle (va, vb, vc) seen from p (van Oosterom-Strackee)
    for chunk in np.array_split(np.arange(mesh.n_panels), max(1, mesh.n_panels // 512)):
        a = corners[chunk, 0][None, :, :] - points[:, None, :]
        b = corners[chunk, 1][None, :, :] - points[:, None, :]
        c = corners[chunk, 2][None, :, :] - points[:, None, :]
        la = np.linalg.norm(a, axis=2)
        lb = np.linalg.norm(b, axis=2)
        lc = np.linalg.norm(c, axis=2)
        numer = np.einsum("pfx,pfx->pf", a, np.cross(b, c))
        denom = (la * lb * lc + np.einsum("pfx,pfx->pf", a, b) * lc
                 + np.einsum("pfx,pfx->pf", a, c) * lb
                 + np.einsum("pfx,pfx->pf", b, c) * la)
        total += 2.0 * np.arctan2(numer, denom).sum(axis=1)
    return total / (4.0 * np.pi)


def build_volume_grid(domain, resolution):
    """Uniform voxel grid of cell centers strictly inside the domain.

    domain: {"type": "cube", "side": s[, "center": [..]]} keeps all centers;
            {"type": "sphere", "radius": R[, "center": [..]]} keeps centers
            with |c - center| < R;
            {"type": "mesh", "mesh": SurfaceMesh} keeps centers with winding
            number > 1/2 over the mesh bounding box.
    """
    m = int(resolution)
    if m < 2:
        raise ValueError("resolution must be >= 2")
    kind = domain.get("type")

    def length(key):
        value = float(domain.get(key, np.nan))
        if not 0.0 < value < np.inf:
            raise ValueError(f"{kind} domain needs a finite positive {key!r}, "
                             f"got {domain.get(key)}")
        return value

    if kind == "cube":
        side = length("side")
        center = np.asarray(domain.get("center", (0.0, 0.0, 0.0)), dtype=float)
        h = side / m
        lo = center - side / 2.0
        idx = (np.arange(m) + 0.5) * h
        xs, ys, zs = np.meshgrid(lo[0] + idx, lo[1] + idx, lo[2] + idx, indexing="ij")
        centers = np.column_stack([xs.ravel(), ys.ravel(), zs.ravel()])
    elif kind == "sphere":
        radius = length("radius")
        center = np.asarray(domain.get("center", (0.0, 0.0, 0.0)), dtype=float)
        h = 2.0 * radius / m
        idx = -radius + (np.arange(m) + 0.5) * h
        xs, ys, zs = np.meshgrid(idx, idx, idx, indexing="ij")
        centers = center + np.column_stack([xs.ravel(), ys.ravel(), zs.ravel()])
        centers = centers[np.linalg.norm(centers - center, axis=1) < radius]
    elif kind == "mesh":
        mesh = domain["mesh"]
        lo = mesh.vertices.min(axis=0)
        hi = mesh.vertices.max(axis=0)
        h = float(np.max(hi - lo)) / m
        axes = [lo[k] + (np.arange(int(np.ceil((hi[k] - lo[k]) / h))) + 0.5) * h
                for k in range(3)]
        xs, ys, zs = np.meshgrid(*axes, indexing="ij")
        centers = np.column_stack([xs.ravel(), ys.ravel(), zs.ravel()])
        centers = centers[winding_number(mesh, centers) > 0.5]
    else:
        raise ValueError(f"unknown volume domain type {kind!r}")
    volumes = np.full(len(centers), h ** 3)
    centers.setflags(write=False)
    volumes.setflags(write=False)
    return VolumeGrid(centers=centers, volumes=volumes, spacing=h,
                      descriptor={k: v for k, v in domain.items() if k != "mesh"})
