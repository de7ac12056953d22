"""Independent reference computations shared by the test modules.

Everything here deliberately avoids the code paths under test: the radial
profiles are recomputed from the half-integer Bessel functions (scipy) or in
50-digit arithmetic (mpmath), and differential operators are applied by
finite-difference stencils rather than the analytic gradients.
"""

import mpmath
import numpy as np
from scipy.signal import fftconvolve
from scipy.special import gamma, kv

from bbem.kernels import brinkman_velocity_tensor, pressure_vector


def bessel_a1(z):
    """A1 from the Bessel-function definition (order 1/2 and 3/2), n = 3."""
    z = np.asarray(z, dtype=float)
    g = gamma(1.5)
    return ((z / 2) ** 0.5 * kv(0.5, z) / g
            + 2.0 * (z / 2) ** 1.5 * kv(1.5, z) / (g * z ** 2)
            - 1.0 / z ** 2)


def bessel_a2(z):
    """A2 from the Bessel-function definition (order 5/2), n = 3."""
    z = np.asarray(z, dtype=float)
    g = gamma(1.5)
    return 3.0 / z ** 2 - 4.0 * (z / 2) ** 2.5 * kv(2.5, z) / (g * z ** 2)


def _mp_a1(z):
    return mpmath.exp(-z) * (1 + 1 / z + 1 / z ** 2) - 1 / z ** 2


def _mp_a2(z):
    return 3 / z ** 2 - mpmath.exp(-z) * (1 + 3 / z + 3 / z ** 2)


def mp_profile(name, z, dps=50):
    """High-precision value of a radial profile by its defining expression.

    Supported names: a1, a2, d1 (= z a1' - a1), d2 (= z a2' - 3 a2),
    b1 (= (a1 - 1/2)/z), b3 (= (a2 - 1/2)/z^2), e1 (= (d1 + 1/2)/z^2),
    e2 (= (d2 + 3/2)/z^2), c1 (= (b1 + 2/3 - 3z/8)/z^2), c3 (= (b3 + 1/8)/z).
    """
    with mpmath.workdps(dps):
        zz = mpmath.mpf(z)
        if name == "a1":
            v = _mp_a1(zz)
        elif name == "a2":
            v = _mp_a2(zz)
        elif name == "d1":
            v = zz * mpmath.diff(_mp_a1, zz) - _mp_a1(zz)
        elif name == "d2":
            v = zz * mpmath.diff(_mp_a2, zz) - 3 * _mp_a2(zz)
        elif name == "b1":
            v = (_mp_a1(zz) - mpmath.mpf(1) / 2) / zz
        elif name == "b3":
            v = (_mp_a2(zz) - mpmath.mpf(1) / 2) / zz ** 2
        elif name == "e1":
            v = (zz * mpmath.diff(_mp_a1, zz) - _mp_a1(zz) + mpmath.mpf(1) / 2) / zz ** 2
        elif name == "e2":
            v = (zz * mpmath.diff(_mp_a2, zz) - 3 * _mp_a2(zz) + mpmath.mpf(3) / 2) / zz ** 2
        elif name == "c1":
            v = ((_mp_a1(zz) - mpmath.mpf(1) / 2) / zz + mpmath.mpf(2) / 3
                 - 3 * zz / 8) / zz ** 2
        elif name == "c3":
            v = ((_mp_a2(zz) - mpmath.mpf(1) / 2) / zz ** 2
                 + mpmath.mpf(1) / 8) / zz
        else:
            raise ValueError(name)
        return float(v)


def fd_gradient(f, x, h=1.0e-5, order4=False):
    """Centered finite-difference gradient of a vector/tensor field.

    f maps (..., 3) points to arrays whose leading axes match the points;
    the returned array appends the derivative axis last.
    """
    x = np.asarray(x, dtype=float)
    parts = []
    for ax in range(3):
        e = np.zeros(3)
        e[ax] = h
        if order4:
            d = (-f(x + 2 * e) + 8.0 * f(x + e) - 8.0 * f(x - e) + f(x - 2 * e)) / (12.0 * h)
        else:
            d = (f(x + e) - f(x - e)) / (2.0 * h)
        parts.append(d)
    return np.stack(parts, axis=-1)


def fd_laplacian(f, x, h=1.0e-3):
    """4th-order centered finite-difference Laplacian, summed over the 3 axes."""
    x = np.asarray(x, dtype=float)
    total = 0.0
    for ax in range(3):
        e = np.zeros(3)
        e[ax] = h
        total = total + (-f(x + 2 * e) + 16.0 * f(x + e) - 30.0 * f(x)
                         + 16.0 * f(x - e) - f(x - 2 * e)) / (12.0 * h ** 2)
    return total


def closest_points_on_panels(corners, p):
    """Closest point to p on each triangle of corners (m, 3, 3), vectorized:
    the reference for the distances of potentials._edge_frame and the
    singular points of the Duffy rules below.

    Standard barycentric region classification: test the three vertex
    regions, then the three edge regions, and default to the face interior.
    """
    a, b, c = corners[:, 0], corners[:, 1], corners[:, 2]
    ab, ac = b - a, c - a
    d1, d2, d3, d4, d5, d6 = (np.einsum("mi,mi->m", edge, p - corner)
                              for corner in (a, b, c) for edge in (ab, ac))
    va = d3 * d6 - d4 * d5
    vb = d5 * d2 - d1 * d6
    vc = d1 * d4 - d3 * d2

    with np.errstate(divide="ignore", invalid="ignore"):
        t_ab = d1 / (d1 - d3)
        t_ac = d2 / (d2 - d6)
        t_bc = (d4 - d3) / ((d4 - d3) + (d5 - d6))
        denom = va + vb + vc
        w_b = vb / denom
        w_c = vc / denom

    # face interior (default), then edge regions, then vertex regions;
    # later assignments win, matching the branch order of the scalar test
    out = a + w_b[:, None] * ab + w_c[:, None] * ac
    regions = (  # edges bc, ac, ab, then vertices c, b, a
        ((va <= 0.0) & (d4 - d3 >= 0.0) & (d5 - d6 >= 0.0),
         b + t_bc[:, None] * (c - b)),
        ((vb <= 0.0) & (d2 >= 0.0) & (d6 <= 0.0), a + t_ac[:, None] * ac),
        ((vc <= 0.0) & (d1 >= 0.0) & (d3 <= 0.0), a + t_ab[:, None] * ab),
        ((d6 >= 0.0) & (d5 <= d6), c),
        ((d3 >= 0.0) & (d4 <= d3), b),
        ((d1 <= 0.0) & (d2 <= 0.0), a))
    for inside, point in regions:
        out = np.where(inside[:, None], point, out)
    return out


# ------------------------------------------------------------- Duffy rules
# Singularity-absorbing tensor-Gauss rules on fan triangles: the library's
# near rules before the near field moved to closed forms, their bodies
# unchanged; the high-order references of the near-field tests.

_DUFFY_TEMPLATES = {}


def _duffy_template(order):
    """Flattened tensor-Gauss template on [0,1]²: (u, u·v, w₁w₂u) arrays."""
    template = _DUFFY_TEMPLATES.get(order)
    if template is None:
        gx, gw = np.polynomial.legendre.leggauss(order)
        gu = 0.5 * (gx + 1.0)
        gw = 0.5 * gw
        uu, vv = np.meshgrid(gu, gu, indexing="ij")
        ww = np.outer(gw, gw)
        template = (uu.ravel().copy(), (uu * vv).ravel(), (ww * uu).ravel())
        _DUFFY_TEMPLATES[order] = template
    return template


def _cross3(a, b):
    """Cross product over the last axis, component by component."""
    return np.stack([a[..., 1] * b[..., 2] - a[..., 2] * b[..., 1],
                     a[..., 2] * b[..., 0] - a[..., 0] * b[..., 2],
                     a[..., 0] * b[..., 1] - a[..., 1] * b[..., 0]], axis=-1)


def _dot3(a, b):
    """Dot product over the last axis.  Stacked matmul takes the same BLAS
    dot for every row, so a row's value does not depend on the batch."""
    return np.matmul(a[..., None, :], b[..., :, None])[..., 0, 0]


def duffy_rule_batch(corners, points, order):
    """Singularity-absorbing rules on many panels for integrands with a 1/r
    factor.

    Panel k (corners (m, 3, 3)) is fanned into sub-triangles at its singular
    point points[k] (3 for an interior point, fewer when it sits on an edge
    or vertex: fan triangles below 1e-14 of the panel area are dropped);
    each fan triangle (P, A, B) carries the tensor-Gauss rule mapped by
    x = P + u (A - P) + u v (B - A), whose Jacobian 2·area·u cancels the 1/r
    singularity at P.  Returns nodes (M, 3), weights (M,) and per-panel node
    counts (m,); panel k's rule is the k-th run of counts[k] rows.  nodes.T
    is C-ordered, (3, fans, order²) nodes built along the template.
    """
    corners = np.asarray(corners, dtype=float)
    p = np.asarray(points, dtype=float)
    if corners.ndim != 3 or corners.shape[1:] != (3, 3):
        raise ValueError("panel corners must have shape (m, 3, 3)")
    if p.shape != (len(corners), 3):
        raise ValueError("singular points must have shape (m, 3)")
    for name, a in (("panel corners", corners), ("singular points", p)):
        if not np.all(np.isfinite(a)):
            raise ValueError(f"{name} must be finite")
    if (isinstance(order, bool) or not isinstance(order, (int, np.integer))
            or order < 1):
        raise ValueError(f"order must be a whole number >= 1, got {order!r}")

    # the singular point must lie on the panel (plane + barycentric test)
    e1 = corners[:, 1] - corners[:, 0]
    e2 = corners[:, 2] - corners[:, 0]
    normal = _cross3(e1, e2)
    two_area = np.sqrt(_dot3(normal, normal))
    scale = np.sqrt(two_area)
    rel = p - corners[:, 0]
    if np.any(np.abs(_dot3(rel, normal)) > 1.0e-9 * scale * two_area):
        raise ValueError("singular point does not lie in the panel plane")
    a11, a12, a22 = _dot3(e1, e1), _dot3(e1, e2), _dot3(e2, e2)
    b1, b2 = _dot3(e1, rel), _dot3(e2, rel)
    det = a11 * a22 - a12 * a12
    bary0 = (a22 * b1 - a12 * b2) / det
    bary1 = (a11 * b2 - a12 * b1) / det
    if np.any((bary0 < -1.0e-9) | (bary1 < -1.0e-9)
              | (bary0 + bary1 > 1.0 + 1.0e-9)):
        raise ValueError("singular point lies outside the panel")

    u_flat, uv_flat, wu_flat = _duffy_template(int(order))

    # fan triangles (P, corner a, corner b) for edges (0,1), (1,2), (2,0)
    to_a = corners - p[:, None, :]
    along = corners[:, [1, 2, 0]] - corners
    arm = _cross3(to_a, along)
    sub_area = 0.5 * np.sqrt(_dot3(arm, arm))           # (m, 3)
    keep = ~(sub_area <= 1.0e-14 * two_area[:, None])
    fan_panel = np.nonzero(keep)[0]
    nodes = (p.T[:, fan_panel, None] + u_flat * to_a[keep].T[:, :, None]
             + uv_flat * along[keep].T[:, :, None])
    weights = wu_flat[None, :] * (2.0 * sub_area[keep])[:, None]
    counts = keep.sum(axis=1) * len(wu_flat)
    return nodes.reshape(3, -1).T, weights.reshape(-1), counts


def duffy_singular_rule(panel_corners, singular_point, order):
    """The duffy_rule_batch rule on one panel: nodes (q, 3), weights (q,)."""
    nodes, weights, _ = duffy_rule_batch(np.asarray(panel_corners)[None],
                                         np.asarray(singular_point)[None], order)
    return nodes, weights


def polar_triangle_integral(func, vertices, origin, epsabs=1.0e-12):
    """Integrate func over a flat triangle in polar coordinates around origin.

    The origin must lie on the triangle (vertex, edge or interior); the
    Jacobian rho tames integrands with a 1/r singularity there.  func maps
    (..., 3) points to scalars.  Nested adaptive quadrature: slow, but
    independent of every quadrature rule in the package.
    """
    from scipy.integrate import quad

    v = np.asarray(vertices, dtype=float)
    origin = np.asarray(origin, dtype=float)
    normal = np.cross(v[1] - v[0], v[2] - v[0])
    normal /= np.linalg.norm(normal)
    e1 = v[1] - v[0]
    e1 /= np.linalg.norm(e1)
    e2 = np.cross(normal, e1)

    def to_plane(p):
        return np.array([np.dot(p - origin, e1), np.dot(p - origin, e2)])

    total = 0.0
    corners = [to_plane(p) for p in v]
    for a, b in [(0, 1), (1, 2), (2, 0)]:
        pa, pb = corners[a], corners[b]
        cross = pa[0] * pb[1] - pa[1] * pb[0]
        if abs(cross) < 1.0e-14:
            continue  # origin lies on this edge's line: degenerate wedge
        theta_a = np.arctan2(pa[1], pa[0])
        theta_b = np.arctan2(pb[1], pb[0])
        sweep = theta_b - theta_a
        while sweep <= -np.pi:
            sweep += 2.0 * np.pi
        while sweep > np.pi:
            sweep -= 2.0 * np.pi
        # distance from origin to the line through pa, pb along direction theta
        edge = pb - pa

        def radius(theta):
            d = np.array([np.cos(theta), np.sin(theta)])
            denom = d[0] * (-edge[1]) + d[1] * edge[0]
            return (pa[0] * (-edge[1]) + pa[1] * edge[0]) / denom

        def inner(theta):
            rmax = radius(theta)
            val, _ = quad(
                lambda rho: rho * func((origin + rho * (np.cos(theta) * e1
                                                        + np.sin(theta) * e2))[None, :])[0],
                0.0, rmax, epsabs=epsabs, limit=200)
            return val

        sign = np.sign(sweep)
        val, _ = quad(lambda t: inner(theta_a + sign * t), 0.0, abs(sweep),
                      epsabs=epsabs, limit=200)
        total += sign * val
    return total


def stokes_self_block(corners, centroid):
    """∫_panel G⁰(centroid − y) dσ(y) for the flat triangle, in closed form.

    In polar coordinates around the centroid the Stokes kernel integrates per
    edge wedge: with p the distance to the edge line, t the edge direction and
    a < b the signed offsets of the corners along t from the foot,
      ∫ dσ/r                    = p·ln((√(p²+b²)+b)/(√(p²+a²)+a))
      ∫ x̂x̂ᵀ dσ/r  (in the (u,t) frame, u the unit foot direction)
                                 = [[m₁₁, m₁₂], [m₁₂, I₁ − m₁₁]]
      m₁₁ = p(b/√(p²+b²) − a/√(p²+a²)),  m₁₂ = p²(1/√(p²+a²) − 1/√(p²+b²)).
    """
    total_inv_r = 0.0
    mat = np.zeros((3, 3))
    for e0, e1 in ((0, 1), (1, 2), (2, 0)):
        va, vb = corners[e0], corners[e1]
        t = vb - va
        t = t / np.linalg.norm(t)
        foot = va + ((centroid - va) @ t) * t
        u = foot - centroid
        p = np.linalg.norm(u)
        u = u / p
        a = (va - foot) @ t
        b = (vb - foot) @ t
        ha = np.hypot(p, a)
        hb = np.hypot(p, b)
        inv_r = p * np.log((hb + b) / (ha + a))
        m11 = p * (b / hb - a / ha)
        m12 = p * p * (1.0 / ha - 1.0 / hb)
        total_inv_r += inv_r
        mat += (m11 * np.outer(u, u) + m12 * (np.outer(u, t) + np.outer(t, u))
                + (inv_r - m11) * np.outer(t, t))
    return (total_inv_r * np.eye(3) + mat) / (8.0 * np.pi)


def newtonian_on_lattice(values, m, h, params, kinds):
    """The Newtonian pair at the cell centers of an m³ lattice of spacing h
    by scipy.signal.fftconvolve in "full" mode, one call per kernel
    component: the lattice path of potentials._newtonian_on_grid before it
    moved to scipy.fft with shared transforms, its body unchanged."""
    offsets = h * np.arange(-(m - 1), m)
    diff = np.stack(np.meshgrid(offsets, offsets, offsets, indexing="ij"),
                    axis=-1)
    center = (m - 1, m - 1, m - 1)
    diff[center] = 1.0  # placeholder; each kernel sets its self cell
    window = (slice(m - 1, 2 * m - 1),) * 3
    cells = values.reshape(m, m, m, 3)
    outs = []
    for kind in kinds:
        if kind == "velocity":
            kernel = h ** 3 * brinkman_velocity_tensor(diff, params.alpha)
            radius = (3.0 * h ** 3 / (4.0 * np.pi)) ** (1.0 / 3.0)
            kernel[center] = (radius ** 2 / 3.0) * np.eye(3)
        else:
            kernel = h ** 3 * pressure_vector(diff)[..., None, :]
            kernel[center] = 0.0
        out = np.zeros((m, m, m, kernel.shape[-2]))
        for a, b in np.ndindex(*kernel.shape[-2:]):
            full = fftconvolve(kernel[..., a, b], cells[..., b], mode="full")
            out[..., a] += full[window]
        outs.append(-out.reshape(-1, 3) if kind == "velocity"
                    else -out.reshape(-1))
    return outs


def _dot(u, v):
    return u[0] * v[0] + u[1] * v[1] + u[2] * v[2]


def tensor_stokes_parts(mesh, x, panels, alpha, kinds):
    """The near field's closed forms in tensor form, the library's before its
    parts became scalar edge coefficients on per-panel basis tensors, its
    body unchanged: {kind: part} for targets x (3, m) against panels (m,),
    "V" ∫G⁰, "W" ∫T⁰, "dV" and "dW" (3, 3, m), "Qs" and "Qd" (3, m).  Each
    edge's terms are summed as (3, 3, m) outer products of its frame."""
    corners, n = mesh.panel_corners.transpose(1, 2, 0), mesh.normals.T
    edges = corners[[1, 2, 0]] - corners
    lengths = np.sqrt(_dot(edges.swapaxes(0, 1), edges.swapaxes(0, 1)))
    t = edges / lengths[:, None]
    m = np.stack([t[:, 1] * n[2] - t[:, 2] * n[1], t[:, 2] * n[0]
                  - t[:, 0] * n[2], t[:, 0] * n[1] - t[:, 1] * n[0]], axis=1)
    corners, n, lengths, ts, ms = (a[..., panels]
                                   for a in (corners, n, lengths, t, m))
    h = _dot(x - corners[0], n)
    h = np.where(np.abs(h) <= 1.0e-10 * lengths[0], 0.0, h)
    xp, ah = x - h * n, np.abs(h)
    i1 = beta = j = j5 = s = l3 = l5 = j1 = j3 = k1 = l1 = area = 0.0
    with np.errstate(divide="ignore", invalid="ignore"):
        for k in range(3):
            a, length, t, m = corners[k], lengths[k], ts[k], ms[k]
            p, sa = _dot(a - xp, m), _dot(a - xp, t)
            sb = sa + length
            r02 = p * p + h * h
            ra, rb = np.sqrt(sa * sa + r02), np.sqrt(sb * sb + r02)
            angle = (np.arctan2(p * sb, r02 + ah * rb)
                     - np.arctan2(p * sa, r02 + ah * ra))
            beta = beta + angle
            f = np.where(sa + sb < 0.0, np.log((ra - sa) / (rb - sb)),
                         np.log((rb + sb) / (ra + sa)))
            i1, j = i1 + p * f - ah * angle, j + m * f
            l3 = l3 + (-p * f * m - (rb - ra) * t)[:, None] * m
            f1 = 0.5 * (sb * rb - sa * ra + r02 * f)
            area, j1, k1 = area + 0.5 * p * length, j1 + m * f1, k1 + p * f1
            l1 = l1 + (p * f1 * m + (rb ** 3 - ra ** 3) / 3.0 * t)[:, None] * m
            j3 = j3 + m * (0.25 * (sb * rb ** 3 - sa * ra ** 3)
                           + 0.75 * r02 * f1)
            g = np.where(r02 > 0.0, (sb / rb - sa / ra) / r02, 0.0)
            j5, s = j5 + m * g, s + p * g
            l5 = l5 + (-p * g * m - (1.0 / ra - 1.0 / rb) * t)[:, None] * m
    hi3, nn, eye = np.sign(h) * beta, n[:, None] * n, np.eye(3)[:, :, None]
    d3 = ((eye - nn) * i1 + 0.5 * (l3 + l3.swapaxes(0, 1))
          + h * (j[:, None] * n + n[:, None] * j) + h * hi3 * nn)
    r1 = (k1 + h * h * i1) / 3.0
    dd = (0.5 * (l1 + l1.swapaxes(0, 1)) - (eye - nn) * r1
          - h * (j1[:, None] * n + n[:, None] * j1) + h * h * i1 * nn)
    b = j1 - h * i1 * n
    c = j3 / 3.0 - h * r1 * n
    four_pi = 4.0 * np.pi
    parts = {
        "V": (eye * i1 + d3) / (2.0 * four_pi),
        "W": ((eye - nn) * hi3 + 0.5 * h * (l5 + l5.swapaxes(0, 1))
              + h * h * (j5[:, None] * n + n[:, None] * j5)
              + (hi3 + h * s) * nn) / four_pi,
        "Qs": (j + hi3 * n) / four_pi,
        "Qd": (2.0 * h * j5 + (2.0 * s + alpha * i1) * n) / four_pi,
        "dV": (-np.sqrt(alpha) * 2.0 / 3.0 * area * eye
               + alpha / 8.0 * (3.0 * r1 * eye - dd)) / four_pi,
        "dW": (alpha / 4.0 * (-h * i1 * eye - b[:, None] * n + n[:, None] * b
                              - h * d3)
               + alpha ** 2 / 12.0 * (-h * r1 * eye - 0.5 * c[:, None] * n
                                      + n[:, None] * c + 0.5 * h * dd))
        / four_pi}
    return {kind: parts[kind] for kind in kinds}
