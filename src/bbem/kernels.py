"""Closed-form kernels of the three-dimensional Brinkman and Stokes systems.

The fundamental velocity tensor G and pressure vector Pi are normalized so
that, for every column k,

    (Delta - alpha) G_{.k} - grad Pi_k = -delta_0 e_k,      div G_{.k} = 0,

where delta_0 is the Dirac mass at the origin.  In closed form,

    G_{jk}(x) = (1/(4 pi)) [ delta_{jk} A1(z)/|x| + x_j x_k A2(z)/|x|^3 ],
    Pi_k(x)   = x_k / (4 pi |x|^3),                 z = sqrt(alpha) |x|,

with the radial profiles

    A1(z) = e^{-z} (1 + 1/z + 1/z^2) - 1/z^2,
    A2(z) = 3/z^2 - e^{-z} (1 + 3/z + 3/z^2),

obtained from the half-integer-order modified Bessel functions K_{1/2},
K_{3/2}, K_{5/2}.  At alpha = 0 both profiles equal 1/2 and G reduces to the
Stokeslet  G0_{jk}(x) = (1/(8 pi)) (delta_{jk}/|x| + x_j x_k/|x|^3).

The associated stress tensor (the traction kernel of the single layer and,
contracted with the surface normal, the double-layer kernel) is

    S_{ijl}(x, y) = -Pi_j(x - y) delta_{il}
                    + d G_{ij}/d x_l (x - y) + d G_{lj}/d x_i (x - y),

and the pressure tensor of the double layer is

    Lambda_{ik}(x, y) = (1/(4 pi)) [ -6 d_i d_k / r^5 + 2 delta_{ik} / r^3
                                     - alpha delta_{ik} / r ],   d = y - x.

At alpha = 0 the double-layer kernel (stress at y contracted with nu(y),
pole at x) is T0 = -3 (r^.nu) r^ r^T / (4 pi r^2), r^ = (y - x)/r, with no
profiles; double_layer_parts returns it beside the alpha difference.

Difference kernels G^alpha - G^0 and S^alpha - S^0 are provided as dedicated
evaluators in subtracted analytic form: the naive float difference of the two
kernels cancels catastrophically as r -> 0, while the subtracted profiles
below are regular there (G^alpha - G^0 tends to -(sqrt(alpha)/(6 pi)) I).

All functions broadcast over leading axes; displacement arguments have shape
(..., 3) and alpha is a scalar.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

FOUR_PI = 4.0 * np.pi

# Radial profiles are evaluated by Taylor series at small z and by regrouped
# closed forms (expm1-based, cancellation-free) elsewhere.  The public a1/a2
# switch branches at 1e-4; the derivative-profile helpers switch at 0.5 where
# their regrouped closed forms still amplify rounding by less than ~100x.
_Z_SMALL = 1.0e-4
_Z_SERIES = 0.5

# Exact Taylor coefficients around z = 0 (index = power of z).
# b1 = (a1 - 1/2)/z, b3 = (a2 - 1/2)/z^2 drive G^alpha - G^0;
# e1 = (d1 + 1/2)/z^2, e2 = (d2 + 3/2)/z^2 drive its gradient.
_B1_COEF = (-2 / 3, 3 / 8, -2 / 15, 5 / 144, -1 / 140, 7 / 5760, -1 / 5670,
            1 / 44800, -1 / 399168, 11 / 43545600, -1 / 43243200,
            13 / 6706022400, -1 / 6671808000, 1 / 92990177280,
            -1 / 1389404016000, 17 / 376610217984000)
_B3_COEF = (-1 / 8, 1 / 15, -1 / 48, 1 / 210, -1 / 1152, 1 / 7560, -1 / 57600,
            1 / 498960, -1 / 4838400, 1 / 51891840, -1 / 609638400,
            1 / 7783776000, -1 / 107296358400, 1 / 1587890304000,
            -1 / 25107347865600, 1 / 422378820864000)
_E1_COEF = (3 / 8, -4 / 15, 5 / 48, -1 / 35, 7 / 1152, -1 / 945, 1 / 6400,
            -1 / 49896, 11 / 4838400, -1 / 4324320, 13 / 609638400,
            -1 / 555984000, 1 / 7153090560, -1 / 99243144000,
            17 / 25107347865600, -1 / 23465490048000)
_E2_COEF = (1 / 8, 0.0, -1 / 48, 1 / 105, -1 / 384, 1 / 1890, -1 / 11520,
            1 / 83160, -1 / 691200, 1 / 6486480, -1 / 67737600, 1 / 778377600,
            -1 / 9754214400, 1 / 132324192000, -1 / 1931334451200,
            1 / 30169915776000)
# a1 = 1/2 + z b1, a2 = 1/2 + z^2 b3 (four terms each); d1 = z a1' - a1 =
# -1/2 + z^2 e1 and d2 = z a2' - 3 a2 = -3/2 + z^2 e2 drive the gradient of G.
_A1_COEF = (1 / 2,) + _B1_COEF[:3]
_A2_COEF = (1 / 2, 0.0) + _B3_COEF[:2]
_D1_COEF = (-1 / 2, 0.0) + _E1_COEF[:14]
_D2_COEF = (-3 / 2, 0.0) + _E2_COEF[:14]


@dataclass(frozen=True)
class BrinkmanParams:
    """Damping coefficient alpha >= 0 and Forchheimer coefficient beta >= 0.

    alpha = 0 selects the Stokes kernels exactly; beta only enters the
    semilinear iteration and is ignored by every linear operator.
    """

    alpha: float
    beta: float = 0.0

    def __post_init__(self):
        if not (np.isfinite(self.alpha) and self.alpha >= 0.0):
            raise ValueError(f"alpha must be finite and >= 0, got {self.alpha}")
        if not (np.isfinite(self.beta) and self.beta >= 0.0):
            raise ValueError(f"beta must be finite and >= 0, got {self.beta}")


def _polyval(z, coef):
    return np.polynomial.polynomial.polyval(z, np.asarray(coef, dtype=float))


def _check_z(z):
    z = np.asarray(z, dtype=float)
    if not np.all(np.isfinite(z)) or np.any(z < 0.0):
        raise ValueError("profile argument z must be finite and >= 0")
    return z


def _branched(z, cutoff, series_coef, closed_form):
    """Evaluate a radial profile: Taylor series below cutoff, closed form above."""
    small = z < cutoff
    out = np.empty_like(z)
    if np.any(small):
        out[small] = _polyval(z[small], series_coef)
    if np.any(~small):
        out[~small] = closed_form(z[~small])
    return out


def a1(z):
    """Radial profile A1(z) = e^{-z}(1 + 1/z + 1/z^2) - 1/z^2; A1(0+) = 1/2."""
    z = _check_z(z)
    scalar = z.ndim == 0
    z = np.atleast_1d(z)
    out = _branched(z, _Z_SMALL, _A1_COEF,
                    lambda s: np.exp(-s) * (1.0 + 1.0 / s) + np.expm1(-s) / s ** 2)
    return out[0] if scalar else out


def a2(z):
    """Radial profile A2(z) = 3/z^2 - e^{-z}(1 + 3/z + 3/z^2); A2(0+) = 1/2."""
    z = _check_z(z)
    scalar = z.ndim == 0
    z = np.atleast_1d(z)
    out = _branched(z, _Z_SMALL, _A2_COEF,
                    lambda s: -np.exp(-s) * (1.0 + 3.0 / s) - 3.0 * np.expm1(-s) / s ** 2)
    return out[0] if scalar else out


def _d1(z):
    """z A1'(z) - A1(z); equals -1/2 at z = 0 (Stokes value)."""
    return _branched(z, _Z_SERIES, _D1_COEF,
                     lambda s: -3.0 * np.expm1(-s) / s ** 2 - np.exp(-s) * (s + 2.0 + 3.0 / s))


def _d2(z):
    """z A2'(z) - 3 A2(z); equals -3/2 at z = 0 (Stokes value)."""
    return _branched(z, _Z_SERIES, _D2_COEF,
                     lambda s: 15.0 * np.expm1(-s) / s ** 2 + np.exp(-s) * (s + 6.0 + 15.0 / s))


def _b1(z):
    """(A1(z) - 1/2)/z; equals -2/3 at z = 0."""
    def closed(s):
        return (np.exp(-s) * (1.0 + 1.0 / s) + np.expm1(-s) / s ** 2 - 0.5) / s
    return _branched(z, _Z_SERIES, _B1_COEF, closed)


def _difference_profiles(z):
    """(e1, e2, b3) at z, equal to 3/8, 1/8 and -1/8 at z = 0; the three
    closed forms share one exp(-z) and one expm1(-z)."""
    small = z < _Z_SERIES
    s = z[~small]
    em, ex, s2 = np.exp(-s), np.expm1(-s), s ** 2
    closed = ((-3.0 * ex / s2 - em * (s + 2.0 + 3.0 / s) + 0.5) / s2,
              (15.0 * ex / s2 + em * (s + 6.0 + 15.0 / s) + 1.5) / s2,
              (-em * (1.0 + 3.0 / s) - 3.0 * ex / s2 - 0.5) / s2)
    profiles = [np.empty_like(z) for _ in closed]
    for profile, coef, values in zip(profiles, (_E1_COEF, _E2_COEF, _B3_COEF), closed):
        profile[small], profile[~small] = _polyval(z[small], coef), values
    return profiles


def _b3(z):
    return _difference_profiles(z)[2]


def _e1(z):
    return _difference_profiles(z)[0]


def _e2(z):
    return _difference_profiles(z)[1]


def _check_alpha(alpha):
    alpha = float(alpha)
    if not (np.isfinite(alpha) and alpha >= 0.0):
        raise ValueError(f"alpha must be finite and >= 0, got {alpha}")
    return alpha


def _radial(x, require_nonzero=True):
    x = np.asarray(x, dtype=float)
    if x.shape[-1] != 3:
        raise ValueError("displacement arguments must have shape (..., 3)")
    r = np.linalg.norm(x, axis=-1)
    if require_nonzero and np.any(r == 0.0):
        raise ValueError("kernel evaluated at a coincident point (|x| = 0)")
    return x, r


def _contraction_geometry(x, y, normal, require_nonzero=True):
    """r = |x - y|, the broadcast normal n, xh = (x - y)/r (0 at r = 0) and
    xh.n, shared by the normal-contracted stress kernels."""
    d, r = _radial(np.asarray(x, dtype=float) - np.asarray(y, dtype=float),
                   require_nonzero)
    n = np.broadcast_to(np.asarray(normal, dtype=float), d.shape)
    xh = d / np.where(r == 0.0, 1.0, r)[..., None]
    return r, n, xh, np.sum(xh * n, axis=-1)


def _mirror_upper(m):
    """Copy the upper triangle of (..., 3, 3) matrices onto the lower one.

    s·x̂_i·x̂_j rounds differently from s·x̂_j·x̂_i, so a symmetric tensor
    built that way is symmetric only to rounding (and not even to a relative
    1e-13 once a component is subnormal); mirroring makes it exact.
    """
    for i, j in ((0, 1), (0, 2), (1, 2)):
        m[..., j, i] = m[..., i, j]
    return m


def brinkman_velocity_tensor(x, alpha):
    """Fundamental velocity tensor G(x) of the Brinkman system, shape (..., 3, 3)."""
    alpha = _check_alpha(alpha)
    x, r = _radial(x)
    z = np.sqrt(alpha) * r
    f1 = a1(z) / (FOUR_PI * r)
    f2 = a2(z) / (FOUR_PI * r)
    xhat = x / r[..., None]
    eye = np.eye(3)
    return _mirror_upper(f1[..., None, None] * eye
                         + f2[..., None, None] * xhat[..., :, None]
                         * xhat[..., None, :])


def stokeslet(x):
    """Stokes fundamental velocity tensor, the alpha = 0 case of G."""
    return brinkman_velocity_tensor(x, 0.0)


def pressure_vector(x):
    """Fundamental pressure vector Pi(x) = x/(4 pi |x|^3); independent of alpha."""
    x, r = _radial(x)
    return x / (FOUR_PI * r[..., None] ** 3)


def brinkman_velocity_gradient(x, alpha):
    """Analytic gradient dG_{jk}/dx_l, returned with shape (..., 3, 3, 3) = [j, k, l]."""
    alpha = _check_alpha(alpha)
    x, r = _radial(x)
    z = np.sqrt(alpha) * r
    d1 = _d1(z)
    d2 = _d2(z)
    f2 = a2(z)
    pref = 1.0 / (FOUR_PI * r ** 2)
    xh = x / r[..., None]
    eye = np.eye(3)
    term_iso = eye[..., :, :, None] * xh[..., None, None, :] * d1[..., None, None, None]
    term_mix = (eye[..., :, None, :] * xh[..., None, :, None]
                + eye[..., None, :, :] * xh[..., :, None, None]) * f2[..., None, None, None]
    term_rad = (xh[..., :, None, None] * xh[..., None, :, None]
                * xh[..., None, None, :] * d2[..., None, None, None])
    return pref[..., None, None, None] * (term_iso + term_mix + term_rad)


def brinkman_stress_tensor(x, y, alpha):
    """Fundamental stress tensor S_{ijl}(x, y), shape (..., 3, 3, 3) = [i, j, l].

    For a fixed column j, (S_{.j.}, Lambda) is the stress of the fundamental
    pair (G_{.j}, Pi_j):  S_{ijl} = -Pi_j delta_{il} + d_l G_{ij} + d_i G_{lj}.
    It is odd under swapping the points: S(y, x) = -S(x, y).
    """
    d = np.asarray(x, dtype=float) - np.asarray(y, dtype=float)
    grad = brinkman_velocity_gradient(d, alpha)          # [i, j, l] = d_l G_{ij}
    pi = pressure_vector(d)
    eye = np.eye(3)
    return (-pi[..., None, :, None] * eye[..., :, None, :]
            + grad
            + np.swapaxes(grad, -3, -1))                 # d_i G_{lj}


def traction_kernel(x, y, normal, alpha):
    """Contracted stress kernel T_{ij} = S_{ijl}(x, y) n_l, shape (..., 3, 3).

    With n = nu(y) and the density contracted on the first index i this is the
    double-layer velocity kernel; with n = nu(x) fixed at the target and the
    density contracted on the second index j it is the traction kernel of the
    single-layer (and, up to sign, Newtonian) potential.
    """
    alpha = _check_alpha(alpha)
    r, n, xh, xn = _contraction_geometry(x, y, normal)
    z = np.sqrt(alpha) * r
    d1 = _d1(z)
    d2 = _d2(z)
    f2 = a2(z)
    pref = 1.0 / (FOUR_PI * r ** 2)
    eye = np.eye(3)
    out = (eye * ((d1 + f2) * xn)[..., None, None]
           - n[..., :, None] * xh[..., None, :]                 # -Pi_j nu_i ...
           + 2.0 * f2[..., None, None] * n[..., :, None] * xh[..., None, :]
           + (f2 + d1)[..., None, None] * n[..., None, :] * xh[..., :, None]
           + 2.0 * (d2 * xn)[..., None, None] * xh[..., :, None] * xh[..., None, :])
    return pref[..., None, None] * out


def brinkman_pressure_tensor(x, y, alpha):
    """Pressure tensor Lambda_{ik}(x, y) of the double-layer pair, shape (..., 3, 3)."""
    alpha = _check_alpha(alpha)
    d = np.asarray(y, dtype=float) - np.asarray(x, dtype=float)
    d, r = _radial(d)
    eye = np.eye(3)
    dd = d[..., :, None] * d[..., None, :]
    return (1.0 / FOUR_PI) * (-6.0 * dd / r[..., None, None] ** 5
                              + (2.0 / r ** 3 - alpha / r)[..., None, None] * eye)


def harmonic_kernel(x):
    """Fundamental solution of the Laplacian in 3D: -1/(4 pi |x|)."""
    _, r = _radial(x)
    return -1.0 / (FOUR_PI * r)


def velocity_difference(x, alpha):
    """G^alpha(x) - G^0(x), regular at x = 0 with limit -(sqrt(alpha)/(6 pi)) I.

    Evaluated in subtracted form
        sqrt(alpha)/(4 pi) [ delta b1(z) ] + alpha r /(4 pi) b3(z) xhat xhat,
    which is cancellation-free for all r including r = 0.
    """
    alpha = _check_alpha(alpha)
    x, r = _radial(x, require_nonzero=False)
    z = np.sqrt(alpha) * r
    eye = np.eye(3)
    iso = (np.sqrt(alpha) / FOUR_PI) * _b1(z)
    rad = (alpha / FOUR_PI) * r * _b3(z)
    rsafe = np.where(r == 0.0, 1.0, r)
    xh = x / rsafe[..., None]
    return _mirror_upper(iso[..., None, None] * eye
                         + rad[..., None, None] * xh[..., :, None]
                         * xh[..., None, :])


def velocity_difference_gradient(x, alpha):
    """Analytic gradient d_l (G^alpha - G^0)_{jk}; bounded (O(alpha)) as r -> 0."""
    alpha = _check_alpha(alpha)
    x, r = _radial(x, require_nonzero=False)
    e1, e2, b3 = _difference_profiles(np.sqrt(alpha) * r)
    rsafe = np.where(r == 0.0, 1.0, r)
    xh = x / rsafe[..., None]
    eye = np.eye(3)
    pref = alpha / FOUR_PI
    term_iso = eye[..., :, :, None] * xh[..., None, None, :] * e1[..., None, None, None]
    term_mix = (eye[..., :, None, :] * xh[..., None, :, None]
                + eye[..., None, :, :] * xh[..., :, None, None]) * b3[..., None, None, None]
    term_rad = (xh[..., :, None, None] * xh[..., None, :, None]
                * xh[..., None, None, :] * e2[..., None, None, None])
    return pref * (term_iso + term_mix + term_rad)


def stress_difference(x, y, alpha):
    """S^alpha(x, y) - S^0(x, y), shape (..., 3, 3, 3); bounded as x -> y.

    The pressure part of S is alpha-independent, so the difference is built
    from the two gradient terms of the regular kernel G^alpha - G^0 alone.
    The value at exact coincidence is direction-dependent; 0 is returned there.
    """
    d = np.asarray(x, dtype=float) - np.asarray(y, dtype=float)
    grad = velocity_difference_gradient(d, alpha)
    return grad + np.swapaxes(grad, -3, -1)


def _difference_normal(xh, xn, n, z, alpha, out, transpose=False):
    """(alpha/4pi) [(e1 + b3) xn I + 2 b3 n xh^T + (b3 + e1) xh n^T + 2 e2 xn
    xh xh^T] (or its transpose) into out (3, 3, ...), term by term."""
    e1, e2, b3 = _difference_profiles(z)
    xh, n = (np.ascontiguousarray(np.moveaxis(a, -1, 0)) for a in (xh, n))
    outers = ((2.0 * b3 * n, xh), (xh, (b3 + e1) * n), ((2.0 * (e2 * xn)) * xh, xh))
    if transpose:
        outers = [(v, u) for u, v in outers]
    np.multiply(outers[0][0][:, None], outers[0][1][None, :], out=out)
    for k in range(3):
        out[k, k] += (e1 + b3) * xn
    for u, v in outers[1:]:
        out += u[:, None] * v[None, :]
    out *= alpha / FOUR_PI
    return out


def stress_difference_normal(x, y, normal, alpha):
    """Contraction (S^alpha - S^0)_{ijl}(x, y) n_l, shape (..., 3, 3).

    Bounded near coincidence (the correction kernel of the double-layer
    assembly); 0 is returned at exact coincidence.
    """
    alpha = _check_alpha(alpha)
    r, n, xh, xn = _contraction_geometry(x, y, normal, require_nonzero=False)
    out = _difference_normal(xh, xn, n, np.sqrt(alpha) * r, alpha,
                             np.empty((3, 3) + r.shape))
    return np.ascontiguousarray(np.moveaxis(out, (0, 1), (-2, -1)))


def double_layer_parts(y, x, normal, alpha):
    """Double-layer kernel at nodes y (normals nu(y)) for the target x as
    (..., 2, 3, 3), of length 1 on axis -3 at alpha = 0: [0] is the closed
    form T0 of traction_kernel(y, x, normal, 0).swapaxes(-1, -2), [1] is
    stress_difference_normal(y, x, normal, alpha).swapaxes(-1, -2)."""
    alpha = _check_alpha(alpha)
    r, n, xh, xn = _contraction_geometry(y, x, normal)
    parts = np.empty((2 if alpha > 0.0 else 1, 3, 3) + r.shape)
    xh_first = np.ascontiguousarray(np.moveaxis(xh, -1, 0))
    np.multiply(((-3.0 * xn / (FOUR_PI * r ** 2)) * xh_first)[:, None],
                xh_first[None, :], out=parts[0])
    if alpha > 0.0:
        _difference_normal(xh, xn, n, np.sqrt(alpha) * r, alpha, parts[1],
                           transpose=True)
    return np.moveaxis(parts, (0, 1, 2), (-3, -2, -1))
