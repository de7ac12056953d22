"""Dense boundary operators, layer-potential evaluation, volume potentials.

Conventions (bounded interior domain, outward unit normal ν):

  single layer    (V g)(x)   = ∫ G(x−y) g(y) dσ(y)
  its pressure    (Q^s g)(x) = ∫ Π(x−y)·g(y) dσ(y)
  double layer    (W h)_a(x) = ∫ T_{ba}(y, x; ν(y)) h_b(y) dσ(y)
                  (stress taken at the integration point, pole at the target)
  its pressure    (Q^d h)(x) = −∫ Λ_{ik}(x, y) h_i(y) ν_k(y) dσ(y)
  Newtonian       (N f)(x)   = −∫_Ω G(x−y) f(y) dV
  its pressure    (Q_Ω f)(x) = −∫_Ω Π(x−y)·f(y) dV

Every pair satisfies Δu − αu − ∇π = 0 (= f for the Newtonian pair) and
div u = 0 away from the sources.  Boundary traces and tractions, taken from
inside toward the outward normal:

  γ(V g) = 𝒱 g on both sides,   t_int(V g) = (½I + K*) g,
  t_ext(V g) = (−½I + K*) g,    γ_int(W h) = (−½I + K) h,
  γ_ext(W h) = (½I + K) h.

Consequences used throughout the tests: W of a constant c is −c inside and 0
outside at α = 0; V ν ≡ 0 with Q^s ν = −1 inside; the interior solution is
represented as u = V(t) − W(γu), π = Q^s(t) − Q^d(γu).

Densities are piecewise constant at panel centroids.  Assembly and evaluation
run over chunks of _CHUNK_PAIRS (target, column) pairs, at least 8 rows,
each planned once and integrated in pieces of at most _PIECE_NODES nodes;
per-row arithmetic depends on neither the chunk, the pieces nor the thread
count, so results are byte-identical for any BBEM_THREADS setting.  After
the assembly a solver's second thread takes the LU (solvers.SolverWorkspace
._factor) while the first builds the evaluation rows the run will read.

_layer_rows is the one row loop: every layer operator and evaluation is
its rows on one near/far plan, _NearFar, per chunk.  Panels within two
diameters of a target (its own panel included) are near, the rest take the
_FAR_ORDER-point rule, one kernel call per piece; one edge frame per
candidate pair (_edge_frame) gives the closed forms' coordinates and the
exact distance that splits them, with a relative margin of 1e-9 so that
ties are near.  K is the "W" rows at the centroids, whose own blocks take
the row-sum diagonal of the constant identity K⁰c = −½c; V and K come from
one plan where both are needed (_boundary_operators).  W's nodes give
normal-free rows whose per-pair sums are contracted with the panel normal
(_double_layer_pairs); V is six upper entries on every path, mirrored once
per block.  On a near pair every layer kernel takes in closed form
(_stokes_parts: edge coefficients on per-panel tensors, _PIECE_NODES // 2
pairs at a time) its Stokes part (∫G⁰ for V, ∫T⁰ for K and W, all of Q^s
and Q^d) and the kinked terms of its α-difference: G^α − G⁰'s first-order
ones, (S^α − S⁰)ν's of orders 0 and 2 in √α r (the odd ones are
polynomials on a flat panel).  Quadrature carries the smooth rest, nothing
at α = 0, on the one near rule, the 12-point symmetric rule.  Near blocks
are within 4e-6 (V), 6e-7 (W) and 1.1e-9 (K, off the diagonal) of
converged ones down to 1e-3 diameters, Q^s and Q^d exact; the regular rule
errs up to 3e-5.  The remainder is smooth on a panel only while √α times
the largest panel diameter is at most _MAX_ALPHA_DIAMETER = 2.5 (V's near
blocks err 2.4e-5 there, 7.5e-4 at 5.1); past it the rows are refused.

The Newtonian pair is linear in the forcing: _newtonian_rows builds its
midpoint rows at any targets, which _newtonian_sums applies chunk by chunk.
A velocity target on a cell center takes the equal-volume-ball Stokes
integral for that cell, the pressure drops the self cell, and the traction
every cell within one cell diameter.  At a full cubic lattice's own centers
(_newtonian_on_grid) the pair is a convolution by scipy.fft on 2m − 1
cells per axis, one transform per component shared by all products.
"""

from __future__ import annotations

import os
import struct
import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .errors import InvalidThreadCount, UnsupportedParameter
from .geometry import (
    SurfaceMesh,
    VolumeGrid,
    _per_mesh,
    panel_quadrature,
)
from .kernels import (
    _STRESS_REMAINDER,
    FOUR_PI,
    _double_layer_pairs,
    _double_layer_pressure_cf,
    _double_layer_rows_cf,
    _mirrored,
    _pressure_cf,
    _radial,
    _traction_cf,
    _velocity_cf,
    _velocity_remainder_cf,
)

_CHUNK_PAIRS = 10240        # (target, panel or cell) pairs per chunk
_PIECE_NODES = 16384        # nodes per rule piece: bounds chunk memory
_FAR_ORDER = 6              # points per panel of the regular (far) rule
_MAX_ALPHA_DIAMETER = 2.5   # largest √α · panel diameter the near field serves
_NEAR_FACTOR = 2.0          # near: closer than this many panel diameters
_WARN_FACTOR = 1.0e-3       # accuracy warning inside this many diameters
_KIND_CODES = {"V": 0, "K": 1, "Kstar": 2, "S_mixed": 3, "custom": 255}
_CODE_KINDS = {code: kind for kind, code in _KIND_CODES.items()}
_MAGIC = b"BBEM"
_FORMAT_VERSION = 1


# ------------------------------------------------------------------ field types

@dataclass(frozen=True)
class BoundaryField:
    """Vector values at panel centroids with the area-weighted pairing."""

    mesh: SurfaceMesh
    values: np.ndarray

    def __post_init__(self):
        values = np.ascontiguousarray(self.values, dtype=float)
        if values.shape != (self.mesh.n_panels, 3):
            raise ValueError(f"values must have shape ({self.mesh.n_panels}, 3)")
        if not np.all(np.isfinite(values)):
            raise ValueError("boundary field contains non-finite values")
        values.setflags(write=False)
        object.__setattr__(self, "values", values)

    @property
    def weights(self):
        return self.mesh.areas

    @property
    def flat(self):
        return self.values.reshape(-1)

    def inner(self, other):
        """Area-weighted pairing Σ_i w_i u_i·v_i."""
        return float(np.einsum("i,ij,ij->", self.weights, self.values, other.values))

    def norm(self):
        return float(np.sqrt(np.einsum("i,ij,ij->", self.weights,
                                       self.values, self.values)))


@dataclass(frozen=True)
class VolumeField:
    """Vector values at volume-grid cell centers."""

    grid: VolumeGrid
    values: np.ndarray

    def __post_init__(self):
        values = np.ascontiguousarray(self.values, dtype=float)
        if values.shape != (self.grid.n_cells, 3):
            raise ValueError(f"values must have shape ({self.grid.n_cells}, 3)")
        if not np.all(np.isfinite(values)):
            raise ValueError("volume field contains non-finite values")
        values.setflags(write=False)
        object.__setattr__(self, "values", values)

    def inner(self, other):
        """Volume-weighted pairing Σ_c V_c u_c·v_c."""
        return float(np.einsum("i,ij,ij->", self.grid.volumes, self.values,
                               other.values))

    def norm(self):
        """Volume-weighted L² norm."""
        return float(np.sqrt(np.einsum("i,ij,ij->", self.grid.volumes,
                                       self.values, self.values)))


class DenseOperator:
    """Dense 3N×3N boundary operator acting on flattened boundary fields."""

    def __init__(self, matrix, kind, alpha=None):
        matrix = np.ascontiguousarray(matrix, dtype=float)
        if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
            raise ValueError("operator matrix must be square")
        if matrix.shape[0] % 3:
            raise ValueError("operator size must be a multiple of 3")
        if kind not in _KIND_CODES:
            raise ValueError(f"unknown operator kind {kind!r}")
        matrix.setflags(write=False)
        self.matrix = matrix
        self.kind = kind
        self.alpha = alpha

    @property
    def n_panels(self):
        return self.matrix.shape[0] // 3

    def apply(self, field):
        """Apply to a BoundaryField or an (N, 3) array; returns an (N, 3) array."""
        values = field.values if isinstance(field, BoundaryField) else np.asarray(field)
        return (self.matrix @ values.reshape(-1)).reshape(-1, 3)

    def save(self, path):
        """Raw binary layout: "BBEM", version u32, N u32, kind u8, then the
        3N×3N matrix as little-endian float64, row-major."""
        with open(path, "wb") as fh:
            fh.write(_MAGIC)
            fh.write(struct.pack("<II", _FORMAT_VERSION, self.n_panels))
            fh.write(struct.pack("<B", _KIND_CODES[self.kind]))
            fh.write(self.matrix.astype("<f8", copy=False).tobytes(order="C"))

    @classmethod
    def load(cls, path):
        with open(path, "rb") as fh:
            head = fh.read(13)
            if len(head) < 13 or head[:4] != _MAGIC:
                raise ValueError("not an operator file: bad magic")
            version, n = struct.unpack("<II", head[4:12])
            if version != _FORMAT_VERSION:
                raise ValueError(f"unsupported operator format version {version}")
            code = head[12]
            if code not in _CODE_KINDS:
                raise ValueError(f"unknown operator kind code {code}")
            data = fh.read()
        expected = (3 * n) ** 2 * 8
        if len(data) != expected:
            raise ValueError(f"operator payload has {len(data)} bytes, expected {expected}")
        matrix = np.frombuffer(data, dtype="<f8").astype(float).reshape(3 * n, 3 * n)
        return cls(matrix, _CODE_KINDS[code])


# ------------------------------------------------------- chunked deterministic runs

def _thread_count():
    setting = os.environ.get("BBEM_THREADS")
    if setting is None:
        if hasattr(os, "sched_getaffinity"):
            return len(os.sched_getaffinity(0))
        return os.cpu_count() or 1
    try:
        threads = int(setting)
    except ValueError:
        threads = 0
    if threads < 1:
        raise InvalidThreadCount(
            f"BBEM_THREADS must be a whole number >= 1, got {setting!r}")
    return threads


def _chunk_rows(width):
    """Rows per chunk of width-column rows: _CHUNK_PAIRS pairs, at least 8,
    whatever the thread count (a chunk's kernels run in bounded pieces)."""
    return max(8, _CHUNK_PAIRS // width)


def _run_chunked(n_rows, width, worker):
    """Run worker(start, stop) over chunks of _chunk_rows(width) rows,
    optionally threaded.

    Chunk boundaries and per-row arithmetic are independent of the thread
    count, so outputs are byte-identical for any BBEM_THREADS.
    """
    size = _chunk_rows(width)
    chunks = [(s, min(s + size, n_rows)) for s in range(0, n_rows, size)]
    threads = _thread_count()
    if threads == 1 or len(chunks) <= 1:
        for start, stop in chunks:
            worker(start, stop)
    else:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            list(pool.map(lambda span: worker(*span), chunks))


# ----------------------------------------------------------- geometric helpers

def _edge_frame(frames, panels, x):
    """(frame, distance) of targets x (3, m) and panels (m,) of
    _panel_frames: frame (10, m) stacks h = (x − c₀)·n and, per edge k,
    p_k = (c_k − x)·m_k, s_a,k = (c_k − x)·t_k and s_b,k = s_a,k + ℓ_k; the
    distance is |h| when every p_k ≥ 0, else √(h² + min_k(p_k² + o_k²)),
    o_k = max(s_a,k, 0) + min(s_b,k, 0) the overshoot past the edge's ends."""
    corners, n, _, lengths, t, m = (np.take(a, panels, axis=-1)
                                    for a in frames[:6])
    d = (corners - x).swapaxes(0, 1)            # (component, corner, pair)
    p, sa = _dot(d, m.swapaxes(0, 1)), _dot(d, t.swapaxes(0, 1))
    h, sb = -_dot(d[:, 0], n), sa + lengths
    off = np.maximum(sa, 0.0) + np.minimum(sb, 0.0)
    return np.concatenate([h[None], p, sa, sb]), np.where(
        (p >= 0.0).all(axis=0), np.abs(h),
        np.sqrt(h * h + (p * p + off * off).min(axis=0)))


def _near_search(mesh, points):
    """(rows, panels, edge frames, distances, min_dist) of the (target,
    panel) pairs closer than _NEAR_FACTOR diameters, target-major with
    ascending panels, their _edge_frame, and each target's distance to its
    candidate panels (inf when none), which is exact whenever it matters:
    other panels are farther than every cutoff.  The limit takes a relative
    margin of 1e-9, so a pair at exactly two diameters (cube meshes have
    them) is near whatever the rounding of its distance."""
    frames = _panel_frames(mesh)
    centroid_dist = _radial(mesh.centroids.T[:, None] - points.T[:, :, None],
                            require_nonzero=False)
    # centroid-to-farthest-corner is at most one diameter, so this is safe
    mask = centroid_dist < (_NEAR_FACTOR + 1.0) * mesh.diameters
    rows, panels = np.nonzero(mask)
    frame, dist = _edge_frame(frames, panels, np.take(points.T, rows, axis=1))
    min_dist = np.full(len(points), np.inf)
    np.minimum.at(min_dist, rows, dist)
    keep = np.flatnonzero(dist < _NEAR_FACTOR * mesh.diameters[panels]
                          * (1.0 + 1.0e-9))
    return (rows[keep], panels[keep], np.take(frame, keep, axis=1),
            dist[keep], min_dist)


def _regular_group(targets, panels, quadrature):
    """A plan group of (targets, panels) pairs on quadrature's panel rules."""
    return (targets, panels,
            np.take(quadrature.nodes.transpose(2, 0, 1), panels, axis=1),
            quadrature.weights[panels])


class _NearFar:
    """Quadrature plan for a chunk of targets.  Far pairs take the regular
    rule, near ones (a target's own panel included) the caller's closed
    forms on their edge frames, to which add_near adds a kernel on one
    QuadratureSet.  Either rule is integrated in pieces (_groups), each a
    group (targets, panels, nodes (3, pairs, q), weights (pairs, q)); _sums
    gathers components first and weights and sums each pair's q nodes with
    one einsum."""

    def __init__(self, mesh, points):
        self.mesh, self.shape = mesh, (len(points), mesh.n_panels)
        self.frames = _panel_frames(mesh)
        self.rows, self.near, self.frame, self.near_dist, self.min_dist = (
            _near_search(mesh, points))
        far = np.ones(self.shape, dtype=bool)
        far[self.rows, self.near] = False
        self.far = np.nonzero(far)
        self.quadrature = panel_quadrature(mesh, _FAR_ORDER)
        self.points, self.normals = points.T, mesh.normals.T

    def _groups(self, quadrature, far=False):
        """(pair indices, group) over the near pairs, or the far ones (far),
        on quadrature, built one at a time in pieces of at most _PIECE_NODES
        nodes."""
        targets, panels = self.far if far else (self.rows, self.near)
        pieces = -(-len(panels) * quadrature.nodes.shape[1] // _PIECE_NODES)
        for at in (np.array_split(np.arange(len(panels)), pieces)
                   if pieces else ()):
            yield at, _regular_group(targets[at], panels[at], quadrature)

    def _sums(self, kernel, group):
        """Per-pair integrals of kernel over a group, (*shape, pairs); a kernel
        (rows, form) gives form(per-pair integrals of rows, pair normals)."""
        rows, form = kernel if isinstance(kernel, tuple) else (
            kernel, lambda sums, _: sums)
        targets, panels, nodes, weights = group
        normals = np.take(self.normals, panels, axis=1)
        values = rows(np.take(self.points, targets, axis=1)[:, :, None],
                      nodes, normals[:, :, None])
        return form(np.einsum("...rq,rq->...r", values, weights), normals)

    def integrate(self, kernel, near):
        """Per-panel integrals of kernel(x (3, R, 1), nodes (3, R, q),
        normals (3, R, 1)), a (*shape, R, q) array, or of a (rows, form)
        pair (_sums): (targets, panels, *shape).  Near pairs take near
        (*shape, pairs), their integrals from the caller, far ones the
        regular rule, one piece at a time."""
        blocks = np.zeros(self.shape + near.shape[:-1])
        blocks[self.rows, self.near] = np.moveaxis(near, -1, 0)
        for _, group in self._groups(self.quadrature, far=True):
            blocks[group[0], group[1]] = np.moveaxis(
                self._sums(kernel, group), -1, 0)
        return blocks

    def add_near(self, kernel, quadrature, out):
        """Add the near pairs' integrals of kernel on quadrature to out
        (*shape, pairs)."""
        for at, group in self._groups(quadrature):
            out[..., at] += self._sums(kernel, group)

    def stokes(self, alpha, kinds):
        """The near pairs' closed forms of kinds (_stokes_parts) on their
        edge frames, taken in pieces of at most _PIECE_NODES // 2 pairs."""
        pieces = max(1, -(-2 * len(self.near) // _PIECE_NODES))
        parts = [_stokes_parts(np.take(self.frame, at, axis=1),
                               self.near[at], self.frames, alpha, kinds)
                 for at in np.array_split(np.arange(len(self.near)), pieces)]
        return {kind: np.concatenate([part[kind] for part in parts], axis=-1)
                for kind in kinds}


# ------------------------------------------------ closed-form Stokes parts

@_per_mesh
def _panel_frames(mesh):
    """Per panel (last axis): corners (corner, component), normals n, areas,
    lengths, tangents t and normals m = t × n of the edges k → k + 1 (mod
    3), and the basis tensors of the closed forms (11, 6 upper entries): I,
    nnᵀ, m_k m_kᵀ, sym(t_k m_kᵀ), sym(m_k nᵀ); sym(u vᵀ) = ½(u vᵀ + v uᵀ)."""
    corners, n = mesh.panel_corners.transpose(1, 2, 0), mesh.normals.T
    edges = corners[[1, 2, 0]] - corners
    lengths = np.sqrt(_dot(edges.swapaxes(0, 1), edges.swapaxes(0, 1)))
    t = edges / lengths[:, None]
    m = np.cross(t, n, axisa=1, axisb=0, axisc=1)
    i, j = [0, 0, 0, 1, 1, 2], [0, 1, 2, 1, 2, 2]       # the upper entries
    sym = lambda u, v: 0.5 * (u[..., i, :] * v[..., j, :]    # noqa: E731
                              + v[..., i, :] * u[..., j, :])
    frames = corners, n, mesh.areas, lengths, t, m, np.concatenate([
        np.broadcast_to(np.eye(3)[i, j, None], (1, 6, mesh.n_panels)),
        sym(n, n)[None], sym(m, m), sym(t, m), sym(m, n)])
    for array in frames:
        array.setflags(write=False)
    return frames


def _stokes_parts(frame, panels, frames, alpha, kinds):
    """{kind: part} over flat triangles for m (target, panel) pairs: their
    _edge_frame (h, p, s_a, s_b), panels (m,) with corners counterclockwise
    about their unit normals, and their _panel_frames.  "V" ∫G⁰ and "dV" (6
    upper entries, m); "W" ∫T⁰, "dW" (3, 3, m); "Qs" Q^s, "Qd" Q^d with its
    α ν/(4π r) term (3, m).  "dV" is G^α − G⁰'s first-order terms,
    −(√α/6π) I + (α/32π)(3r I − d dᵀ/r); "dW" (S^α − S⁰)ν's first- and
    second-order ones as K takes it (d = y − x, x̂ = d/r), (α/16π)(x̂·ν I −
    x̂ νᵀ + ν x̂ᵀ + x̂·ν x̂ x̂ᵀ) + (α²/48π)(r d·ν I − ½ r d νᵀ + ν r dᵀ − ½ d·ν
    d dᵀ/r); "V+dV" their sum in one contraction.  Each is scalar
    coefficients per pair and edge, from the solid angle and the edge
    integrals F (the log term), G, F1 = ∫R ds and F3 = ∫R³ ds (Wilton et
    al., IEEE TAP 32, 1984; Nintcheu Fata, IJNME 78, 2009) in the edge
    frame (t, m = t × n), summed in a fixed order on the panel's basis
    tensors ("dW" adds n m_kᵀ − m_k nᵀ) or on n and m_k.  A target within
    1e-10 edge lengths of the plane is in it (h = 0): ∫T⁰ is 0."""
    n, area, lengths, t, m = (np.take(a, panels, axis=-1)
                              for a in frames[1:6])
    parts = set(kinds) | ({"V", "dV"} if "V+dV" in kinds else set())
    h, (p, sa, sb) = frame[0], frame[1:].reshape(3, 3, -1)
    h = np.where(np.abs(h) <= 1.0e-10 * lengths[0], 0.0, h)
    ah, hh = np.abs(h), h * h
    r02 = p * p + hh
    ra, rb = np.sqrt(sa * sa + r02), np.sqrt(sb * sb + r02)
    a2, coef = alpha * alpha, {}                # coef in units of 1/4π
    with np.errstate(divide="ignore", invalid="ignore"):
        beta = (np.arctan2(p * sb, r02 + ah * rb)
                - np.arctan2(p * sa, r02 + ah * ra))
        beta = beta[0] + beta[1] + beta[2]
        hi3 = np.sign(h) * beta
        if parts - {"W"}:
            f = np.where(sa + sb < 0.0, np.log((ra - sa) / (rb - sb)),
                         np.log((rb + sb) / (ra + sa)))
            i1 = _dot(p, f) - ah * beta                 # ∫1/r
            coef["Qs"] = (hi3, f)
        if {"dV", "dW"} & parts:
            f1 = 0.5 * (sb * rb - sa * ra + r02 * f)
            r1 = (_dot(p, f1) + hh * i1) / 3.0          # ∫r
            ra3, rb3 = ra ** 3, rb ** 3
        if {"W", "Qd"} & parts:
            g = np.where(r02 > 0.0, (sb / rb - sa / ra) / r02, 0.0)
            s = _dot(p, g)
            coef["W"] = (hi3, h * s, -h * p * g, -h * (1.0 / ra - 1.0 / rb),
                         2.0 * hh * g)
        if "Qd" in parts:
            coef["Qd"] = (2.0 * s + alpha * i1, 2.0 * h * g)
        if "V" in parts:
            coef["V"] = (i1, 0.5 * (h * hi3 - i1), -0.5 * p * f,
                         -0.5 * (rb - ra), h * f)
        if "dV" in parts:
            coef["dV"] = (alpha / 2.0 * r1 - 2.0 / 3.0 * np.sqrt(alpha) * area,
                          -alpha / 8.0 * (r1 + hh * i1), -alpha / 8.0 * p * f1,
                          -alpha / 24.0 * (rb3 - ra3), alpha / 4.0 * h * f1)
        if "dW" in parts:
            f3 = 0.25 * (sb * rb3 - sa * ra3) + 0.75 * r02 * f1
            anti = alpha / 4.0 * f1 + a2 / 48.0 * f3    # on n m_kᵀ − m_k nᵀ
            coef["dW"] = (
                -h * (alpha / 2.0 * i1 + a2 / 8.0 * r1),
                h * (alpha / 4.0 * (i1 - h * hi3) + a2 / 24.0 * hh * i1),
                h * p * (alpha / 4.0 * f + a2 / 24.0 * f1),
                h * (alpha / 4.0 * (rb - ra) + a2 / 72.0 * (rb3 - ra3)),
                a2 / 72.0 * f3 - hh * (alpha / 2.0 * f + a2 / 12.0 * f1))
    out = {kind: (coef[kind][0] * n + _dot(coef[kind][1][:, None], m))
           / FOUR_PI for kind in kinds if kind in ("Qs", "Qd")}
    tensors = [kind for kind in kinds if kind not in out]
    stacked = np.reshape([np.vstack(coef["V"]) + np.vstack(coef["dV"])
                          if kind == "V+dV" else np.vstack(coef[kind])
                          for kind in tensors], (len(tensors), 11, len(panels)))
    six = np.zeros((len(tensors), 6, len(panels)))
    for b, basis in enumerate(frames[6]):       # in a fixed order
        six += stacked[:, b, None] * np.take(basis, panels, axis=-1)
    for kind, part in zip(tensors, six / FOUR_PI):
        out[kind] = _mirrored(part) if kind in ("W", "dW") else part
        if kind == "dW":        # Σ c_k (n m_kᵀ − m_k nᵀ) = −[Σ c_k t_k]×
            u = _dot(anti[:, None], t)[[2, 1, 0]] / FOUR_PI
            out[kind].reshape(9, -1)[[1, 6, 5, 3, 2, 7]] += [*u, *-u]
    return {kind: out[kind] for kind in kinds}


def _dot(u, v):
    """u·v over the leading (component or edge) axis, in a fixed order."""
    return u[0] * v[0] + u[1] * v[1] + u[2] * v[2]


# ------------------------------------------------------------- operator assembly

def _differences(mesh, alpha):
    """kind: (kernel, rule) of what near pairs add by quadrature to the
    closed forms of kind and "d" + kind: the bounded α-differences less
    their closed-form terms, G^α − G⁰'s (O(r²)) and (S^α − S⁰)ν's (O(r),
    contracted per pair), both smooth enough for one rule, the 12-point
    symmetric rule out to two diameters."""
    rule = panel_quadrature(mesh, 12)
    return {"V": (lambda x, y, _: _velocity_remainder_cf(x - y, alpha), rule),
            "W": ((lambda x, y, nu: _double_layer_rows_cf(
                       y - x, nu, alpha, _STRESS_REMAINDER),
                   lambda sums, nu: _double_layer_pairs(sums, nu, alpha)[0]),
                  rule)}


def assemble_single_layer(mesh, params):
    """Dense matrix of the single-layer boundary trace 𝒱_α: the "V" layer
    rows at the panel centroids, each panel's own included.

    Row block i, column block j approximates ∫_{panel j} G^α(x_i − y) dσ(y):
    regular quadrature for distant panels; within two diameters the
    closed forms ∫G⁰ and "dV" plus G^α − G⁰'s remainder on the 12-point rule.
    """
    return _boundary_operators(mesh, params, ("V",))[0]


def assemble_double_layer(mesh, params):
    """Dense matrix of the double-layer boundary operator K_α: the "W" layer
    rows at the panel centroids.

    The Stokes part carries the full singularity: its off-diagonal blocks are
    the far rule's or the closed form ∫T⁰, and its diagonal comes from the
    constant identity K⁰c = −½c: −½I minus the row's other blocks (a panel's
    own ∫T⁰ is 0).  The bounded K_α − K⁰ comes from the same far-rule
    call of _double_layer_rows_cf, contracted per pair, and on near panels
    from the closed form "dW" plus the remainder on the 12-point rule
    (_differences).
    """
    return _boundary_operators(mesh, params, ("W",))[0]


def _boundary_operators(mesh, params, kinds):
    """The operators of kinds, "V" (𝒱_α) and "W" (K_α), from one plan: their
    layer rows at the centroids."""
    rows = _layer_rows(mesh, params, mesh.centroids, kinds, on_boundary=True)
    return [DenseOperator(block.reshape(3 * mesh.n_panels, -1),
                          "K" if kind == "W" else kind, alpha=params.alpha)
            for kind, block in zip(kinds, rows)]


def adjoint_double_layer(double_layer, weights):
    """Transpose of K_α with respect to the area-weighted pairing.

    (K*)_{(i,a),(j,b)} = (w_j / w_i) K_{(j,b),(i,a)}.  With exact pairing
    duality built in, (½I + K*) is the interior traction map of the single
    layer and (−½I + K*) the exterior one.
    """
    weights = np.asarray(weights, dtype=float)
    if weights.ndim != 1 or 3 * len(weights) != double_layer.matrix.shape[0]:
        raise ValueError("weights do not match the operator's panel count")
    w = np.repeat(weights, 3)
    matrix = double_layer.matrix.T * (w[None, :] / w[:, None])
    return DenseOperator(matrix, "Kstar", alpha=double_layer.alpha)


# ----------------------------------------------------------- off-boundary evaluation

def _point_guard(mesh, plan):
    if plan.min_dist.min() < 1.0e-6 * mesh.scale:
        raise ValueError("evaluation point lies on the boundary "
                         f"(distance {plan.min_dist.min():.3e})")
    if np.any(plan.near_dist < _WARN_FACTOR * mesh.diameters[plan.near]):
        warnings.warn(f"evaluation point is within {_WARN_FACTOR:g} panel "
                      "diameters of the boundary; accuracy degrades",
                      RuntimeWarning, stacklevel=3)


def _layer_rows(mesh, params, points, kinds, on_boundary=False):
    """Evaluation matrix rows of the given layer kernels at the points, all
    integrated on one near/far plan per chunk; returns one array per kind.

    kinds: "V" and "W" give (P, 3, 3N) tensors; "Qs" and "Qd" give (P, 3N).
    Far panels take the _FAR_ORDER-point rule, near ones the closed-form
    Stokes parts, V and W plus their bounded α-differences (_differences).
    Points off the boundary are guarded (_point_guard).  on_boundary points
    are the centroids, where W's own blocks take K's row-sum diagonal: −½I
    minus the row's Stokes parts.  An α past the near field's reach
    (_MAX_ALPHA_DIAMETER) raises UnsupportedParameter.
    """
    if mesh.areas.min() < 1.0e-14 * mesh.scale ** 2:
        raise ValueError("degenerate panel: area below 1e-14 of the squared mesh scale")
    alpha = params.alpha
    reach = np.sqrt(alpha) * mesh.diameters.max()
    if reach > _MAX_ALPHA_DIAMETER:
        raise UnsupportedParameter(
            f"alpha = {alpha:g} is too large for this mesh: sqrt(alpha) times "
            f"the largest panel diameter is {reach:.3g}, above "
            f"{_MAX_ALPHA_DIAMETER:g}; refine the mesh or lower alpha")
    points = np.atleast_2d(np.asarray(points, dtype=float))
    if points.ndim != 2 or points.shape[1] != 3:
        raise ValueError(f"evaluation points must have shape (P, 3), got "
                         f"{points.shape}")
    bad = np.flatnonzero(~np.isfinite(points).all(axis=1))
    if len(bad):
        raise ValueError(f"evaluation point {bad[0]} is not finite: "
                         f"{points[bad[0]]}")
    n, n_points = mesh.n_panels, len(points)
    outs = [np.zeros((n_points, 3, 3 * n) if kind in ("V", "W")
                     else (n_points, 3 * n)) for kind in kinds]
    kernels = {
        "V": lambda x, y, nu: _velocity_cf(x - y, alpha),
        "W": (lambda x, y, nu: _double_layer_rows_cf(y - x, nu, alpha),
              lambda sums, nu: _double_layer_pairs(sums, nu, alpha)),
        "Qs": lambda x, y, nu: _pressure_cf(x - y),
        "Qd": lambda x, y, nu: _double_layer_pressure_cf(y - x, nu, alpha),
    }
    differences = _differences(mesh, alpha) if alpha > 0.0 else {}
    # closed forms: V's summed with "dV", W's beside "dW"
    closed = ["V+dV" if kind == "V" and differences else kind
              for kind in kinds] + ["dW"] * ("W" in kinds and bool(differences))

    def worker(start, stop):
        plan = _NearFar(mesh, points[start:stop])
        if not on_boundary:
            _point_guard(mesh, plan)
        near = plan.stokes(alpha, closed)
        for kind, name, out in zip(kinds, closed, outs):
            part = near[name]
            if kind == "W":         # _double_layer_pairs' parts
                part = (np.stack([part, near["dW"]]) if differences
                        else part[None])
            if kind in differences:
                plan.add_near(*differences[kind],
                              part[-1] if kind == "W" else part)
            blocks = plan.integrate(kernels[kind], part)
            if kind == "V":         # six upper entries, mirrored once
                blocks = _mirrored(blocks.T).T
            elif kind == "W":
                parts, blocks = blocks, (blocks[:, :, 0] + blocks[:, :, 1]
                                         if differences else blocks[:, :, 0])
                if on_boundary:
                    own = (np.arange(stop - start), np.arange(start, stop))
                    blocks[own] -= 0.5 * np.eye(3) + parts[:, :, 0].sum(axis=1)
            if out.ndim == 3:
                blocks = blocks.transpose(0, 2, 1, 3)
            out[start:stop] = blocks.reshape(stop - start, *out.shape[1:])

    _run_chunked(n_points, n, worker)
    return outs


def _eval_layers(mesh, density, points, params, kinds):
    """The given layer potentials of one density at off-boundary points, from
    one near/far split per point: "V" (V_α g) and "W" (W_α h) give (P, 3)
    arrays, "Qs" (Q^s g) and "Qd" (Q^d_α h) give (P,) arrays."""
    values = (density.values if isinstance(density, BoundaryField)
              else np.asarray(density))
    if values.shape != (mesh.n_panels, 3):
        raise ValueError("density shape does not match the mesh")
    if not isinstance(density, BoundaryField) and not np.isfinite(values).all():
        raise ValueError("density contains non-finite values")
    flat = values.reshape(-1)
    return [np.einsum("pam,m->pa", rows, flat) if rows.ndim == 3
            else rows @ flat
            for rows in _layer_rows(mesh, params, points, kinds)]


def eval_single_layer(mesh, density, points, params):
    """(V_α g)(x) at off-boundary points; returns a (P, 3) array."""
    return _eval_layers(mesh, density, points, params, ("V",))[0]


def eval_single_layer_pressure(mesh, density, points, params):
    """(Q^s g)(x) at off-boundary points; returns a (P,) array."""
    return _eval_layers(mesh, density, points, params, ("Qs",))[0]


def eval_double_layer(mesh, density, points, params):
    """(W_α h)(x) at off-boundary points; returns a (P, 3) array."""
    return _eval_layers(mesh, density, points, params, ("W",))[0]


def eval_double_layer_pressure(mesh, density, points, params):
    """(Q^d_α h)(x) at off-boundary points; returns a (P,) array."""
    return _eval_layers(mesh, density, points, params, ("Qd",))[0]


# --------------------------------------------------------------- volume potentials

def _volume_values(grid, forcing):
    if isinstance(forcing, VolumeField) and forcing.grid is not grid:
        raise ValueError("forcing lives on a different volume grid")
    values = forcing.values if isinstance(forcing, VolumeField) else np.asarray(forcing)
    if values.shape != (grid.n_cells, 3):
        raise ValueError("forcing shape does not match the volume grid")
    if not isinstance(forcing, VolumeField) and not np.isfinite(values).all():
        raise ValueError("forcing contains non-finite values")
    return values


def _lattice_resolution(grid):
    """Cells per edge when the grid is a full cubic lattice, else None."""
    m = round(grid.n_cells ** (1.0 / 3.0))
    if m ** 3 != grid.n_cells:
        return None
    h = grid.spacing
    if not np.allclose(grid.volumes, h ** 3, rtol=1.0e-10, atol=0.0):
        return None
    mins = grid.centers.min(axis=0)
    axes = [mins[d] + h * np.arange(m) for d in range(3)]
    expected = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1)
    if not np.allclose(expected.reshape(-1, 3), grid.centers,
                       rtol=0.0, atol=1.0e-9 * h):
        return None
    return m


def _newtonian_block(grid, points, params, kind, normals, start, stop):
    """Rows of −Σ_c V_c k(x − y_c) f_c at points[start:stop], shape (P, 3,
    3C) ("pressure": (P, 1, 3C)), with the kind's self-cell rule folded in."""
    diff = points[start:stop].T[:, :, None] - grid.centers.T[:, None, :]
    dist = _radial(diff, require_nonzero=False)
    own = dist < (np.sqrt(3.0) if kind == "traction" else 1.0e-9) * grid.spacing
    safe = np.where(own, 1.0, diff)
    if kind == "traction":
        kernel = _traction_cf(safe, normals[start:stop].T[:, :, None],
                              params.alpha)
    else:
        kernel = (_mirrored(_velocity_cf(safe, params.alpha))
                  if kind == "velocity" else _pressure_cf(safe)[None])
    kernel[..., own] = 0.0
    kernel *= -grid.volumes
    if kind == "velocity":
        volumes = grid.volumes[np.nonzero(own)[1]]
        radius = (3.0 * volumes / (4.0 * np.pi)) ** (1.0 / 3.0)
        kernel[..., own] = -(radius ** 2 / 3.0) * np.eye(3)[..., None]
    return kernel.transpose(2, 0, 3, 1).reshape(stop - start, len(kernel), -1)


def _newtonian_rows(grid, points, params, kind, normals=None):
    """Rows of the map from the flat forcing to the Newtonian "velocity" or
    "traction" (P, 3, 3C) or "pressure" (P, 3C) at the points, each the
    bits of the row _newtonian_sums contracts there."""
    points = np.atleast_2d(np.asarray(points, dtype=float))
    out = np.empty((len(points), 1 if kind == "pressure" else 3,
                    3 * grid.n_cells))

    def worker(start, stop):
        out[start:stop] = _newtonian_block(grid, points, params, kind,
                                           normals, start, stop)

    _run_chunked(len(points), grid.n_cells, worker)
    return out[:, 0] if kind == "pressure" else out


def _newtonian_sums(grid, forcing, points, params, kinds, normals=None):
    """Midpoint sums −Σ_c V_c k(x − y_c) f_c at points, one array per kind:
    "velocity" (n, 3), "pressure" (n,) and "traction" (n, 3, with the
    normals at the points), each chunk's _newtonian_rows applied."""
    flat = _volume_values(grid, forcing).reshape(-1)
    points = np.atleast_2d(np.asarray(points, dtype=float))
    outs = [np.zeros(len(points)) if kind == "pressure"
            else np.zeros((len(points), 3)) for kind in kinds]

    def worker(start, stop):
        for kind, out in zip(kinds, outs):
            sums = np.einsum("pam,m->pa", _newtonian_block(
                grid, points, params, kind, normals, start, stop), flat)
            out[start:stop] = sums[:, 0] if kind == "pressure" else sums

    _run_chunked(len(points), grid.n_cells, worker)
    return outs


def newtonian_velocity(grid, forcing, points, params):
    """(N_α f)(x) = −Σ_c V_c G^α(x − y_c) f_c by midpoint sums; at a cell
    center that cell's term is the equal-volume-ball Stokes integral
    −(R²/3) f(x), R = (3 V_cell / 4π)^{1/3}, its O(R³) α-dependence
    neglected."""
    return _newtonian_sums(grid, forcing, points, params, ("velocity",))[0]


def newtonian_pressure(grid, forcing, points):
    """(Q_Ω f)(x) = −Σ_c V_c Π(x − y_c)·f_c; the self cell vanishes by odd
    symmetry of Π and is dropped."""
    return _newtonian_sums(grid, forcing, points, None, ("pressure",))[0]


def _lattice_kernel(grid, params, kinds):
    """(m, transform shape, one transform per kind) of the Newtonian kernels
    on a full cubic lattice of m cells per axis, else None."""
    from scipy.fft import next_fast_len, rfftn     # slow to import: on use

    m = _lattice_resolution(grid)
    if m is None:
        return None
    h, n = grid.spacing, 2 * m - 1
    offsets = np.stack(np.meshgrid(*[h * np.arange(1 - m, m)] * 3,
                                   indexing="ij"), axis=-1).reshape(-1, 3)
    lattice = VolumeGrid(-offsets, np.full(n ** 3, h ** 3), h, {})
    # zero padding to 2m − 1 per axis keeps the window free of wraparound
    shape = (next_fast_len(n, real=True),) * 3
    return m, shape, [rfftn(np.moveaxis(_newtonian_block(
        lattice, np.zeros((1, 3)), params, kind, None, 0, 1).reshape(
            -1, n, n, n, 3), -1, 1), shape, axes=(2, 3, 4)) for kind in kinds]


def _newtonian_on_grid(grid, forcing, params, kinds, kernel):
    """The Newtonian pair at the grid's own cell centers; returns one array
    per kind: "velocity" gives (n_cells, 3), "pressure" gives (n_cells,).
    On a full cubic lattice the sums are discrete convolutions whose kernel
    is the row at the center of the 2m − 1 lattice of offsets, self cell
    included, so both agree to rounding; other grids take the sums.  kernel
    is the grid's _lattice_kernel of kinds."""
    values = _volume_values(grid, forcing)
    if kernel is None:
        return _newtonian_sums(grid, values, grid.centers, params, kinds)
    from scipy.fft import irfftn, rfftn

    m, shape, transforms = kernel
    window = (..., *(slice(m - 1, 2 * m - 1),) * 3)
    f_hat = rfftn(values.T.reshape(3, m, m, m), shape, axes=(1, 2, 3))
    outs = []
    for kind, k_hat in zip(kinds, transforms):
        out = irfftn(np.einsum("ab...,b...->a...", k_hat, f_hat), shape,
                     axes=(1, 2, 3))[window].reshape(len(k_hat), -1).T
        outs.append(out if kind == "velocity" else out[:, 0])
    return outs


def newtonian_boundary_data(grid, forcing, mesh, params):
    """Trace and traction of the Newtonian pair at the panel centroids by
    midpoint sums; the traction excludes the cells within one cell
    diameter of each centroid, a ball that contributes zero to leading
    order by odd symmetry."""
    trace, traction = _newtonian_sums(grid, forcing, mesh.centroids, params,
                                      ("velocity", "traction"), mesh.normals)
    return (BoundaryField(mesh, trace), BoundaryField(mesh, traction))
