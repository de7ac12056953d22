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
profiles.  The double-layer assembly sums T0 and the alpha difference as
normal-free rows per node and contracts them once per (target, panel) pair;
stress_difference_normal is the same rows with each node its own pair.

The differences G^alpha - G^0 and S^alpha - S^0 are evaluated in subtracted
analytic form: the naive float difference of the two kernels cancels
catastrophically as r -> 0, while the subtracted profiles below are regular
there (G^alpha - G^0 tends to -(sqrt(alpha)/(6 pi)) I).

All functions broadcast over leading axes; displacement arguments have shape
(..., 3) and alpha is a scalar.  Each evaluator call forms one exp(-z) and
one expm1(-z) for all the profiles it needs and adds its terms in place into
one preallocated output.  G and its differences are six upper entries (00,
01, 02, 11, 12, 22), each written once; the public tensors mirror them.

Layout: kernels are computed components first, each pass along the point
axes.  The *_cf evaluators take d (3, ...) and normals (3, ...); the
near/far plan calls them, and each public kernel is one of them with the
component axes moved last into a new C-ordered array.
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
    """Horner's rule in place: numpy's polyval recurrence, bit for bit."""
    out = np.full_like(z, coef[-1])
    for c in coef[-2::-1]:
        out *= z
        out += c
    return out


# A radial profile is (cutoff, Taylor coefficients, closed form); the closed
# form takes s and the shared e^{-s}, e^{-s} - 1 and s^2.  b1, b3, e1 and e2
# divide the closed forms of a1, a2, d1 and d2, less their z = 0 values, by s^k.
_A1 = (_Z_SMALL, np.array(_A1_COEF),
       lambda s, em, ex, s2: em * (1.0 + 1.0 / s) + ex / s2)
_A2 = (_Z_SMALL, np.array(_A2_COEF),
       lambda s, em, ex, s2: -em * (1.0 + 3.0 / s) - 3.0 * ex / s2)
_D1 = (_Z_SERIES, np.array(_D1_COEF),
       lambda s, em, ex, s2: -3.0 * ex / s2 - em * (s + 2.0 + 3.0 / s))
_D2 = (_Z_SERIES, np.array(_D2_COEF),
       lambda s, em, ex, s2: 15.0 * ex / s2 + em * (s + 6.0 + 15.0 / s))
_B1 = (_Z_SERIES, np.array(_B1_COEF),
       lambda s, em, ex, s2: (_A1[2](s, em, ex, s2) - 0.5) / s)
_B3 = (_Z_SERIES, np.array(_B3_COEF),
       lambda s, em, ex, s2: (_A2[2](s, em, ex, s2) - 0.5) / s2)
_E1 = (_Z_SERIES, np.array(_E1_COEF),
       lambda s, em, ex, s2: (_D1[2](s, em, ex, s2) + 0.5) / s2)
_E2 = (_Z_SERIES, np.array(_E2_COEF),
       lambda s, em, ex, s2: (_D2[2](s, em, ex, s2) + 1.5) / s2)
# The alpha-differences less the terms the near field integrates in closed
# form: c1 = (b1 + 2/3 - 3z/8)/z^2 and c3 = (b3 + 1/8)/z for G^alpha - G^0
# (its first-order terms), and e1, e2, b3 less their z^0 and z^2 terms for
# its stress (the odd terms are polynomials in y on a flat panel).
_C1 = (_Z_SERIES, np.array(_B1_COEF[2:]),
       lambda s, em, ex, s2: (_B1[2](s, em, ex, s2) + 2 / 3 - 0.375 * s) / s2)
_C3 = (_Z_SERIES, np.array(_B3_COEF[1:]),
       lambda s, em, ex, s2: (_B3[2](s, em, ex, s2) + 0.125) / s)
_STRESS_REMAINDER = tuple(
    (cutoff, np.concatenate(([0.0, coef[1], 0.0], coef[3:])),
     lambda s, em, ex, s2, form=form, c0=coef[0], c2=coef[2]:
         form(s, em, ex, s2) - c0 - c2 * s2)
    for cutoff, coef, form in (_E1, _E2, _B3))


def _profile_pass(z, *profiles):
    """The profiles at z (an array) in one pass: closed forms from one
    exp(-s) and one expm1(-s) shared by all of them at s = max(z, smallest
    cutoff), so no 1/0 is formed, then each one's Taylor series below its
    cutoff."""
    s = np.maximum(z, min(cutoff for cutoff, _, _ in profiles))
    shared = (s, np.exp(-s), np.expm1(-s), s ** 2)
    values = []
    for cutoff, coef, form in profiles:
        out = np.asarray(form(*shared))
        series = z < cutoff
        if series.any():
            out[series] = _polyval(z[series], coef)
        values.append(out)
    return values


def _kernel_profiles(alpha, r, *profiles):
    """The profiles at z = sqrt(alpha) r; at alpha = 0 their Stokes values,
    the constant Taylor terms, with no z formed."""
    if alpha == 0.0:
        return [coef[0] for _, coef, _ in profiles]
    return _profile_pass(np.sqrt(alpha) * r, *profiles)


def _public_profile(z, profile):
    z = np.asarray(z, dtype=float)
    if not np.all(np.isfinite(z)) or np.any(z < 0.0):
        raise ValueError("profile argument z must be finite and >= 0")
    out = _profile_pass(np.atleast_1d(z), profile)[0]
    return out[0] if z.ndim == 0 else out


def a1(z):
    """Radial profile A1(z) = e^{-z}(1 + 1/z + 1/z^2) - 1/z^2; A1(0+) = 1/2."""
    return _public_profile(z, _A1)


def a2(z):
    """Radial profile A2(z) = 3/z^2 - e^{-z}(1 + 3/z + 3/z^2); A2(0+) = 1/2."""
    return _public_profile(z, _A2)


def _check_alpha(alpha):
    alpha = float(alpha)
    if not (np.isfinite(alpha) and alpha >= 0.0):
        raise ValueError(f"alpha must be finite and >= 0, got {alpha}")
    return alpha


def _radial(d, require_nonzero=True):
    """|d| for d (3, ...), summed in np.linalg.norm's order."""
    r = np.sqrt(d[0] ** 2 + d[1] ** 2 + d[2] ** 2)
    if require_nonzero and np.any(r == 0.0):
        raise ValueError("kernel evaluated at a coincident point (|x| = 0)")
    return r


def _components_first(*arrays):
    """(..., 3) arrays, broadcast and checked, as views (3, ...)."""
    arrays = np.broadcast_arrays(*(np.asarray(a, dtype=float) for a in arrays))
    if arrays[0].shape[-1] != 3:
        raise ValueError("displacement arguments must have shape (..., 3)")
    return [np.moveaxis(a, -1, 0) for a in arrays]


def _components_last(out, axes=2):
    """out with its first axes moved last, as a new C-ordered array."""
    return np.ascontiguousarray(np.moveaxis(out, range(axes), range(-axes, 0)))


def _contraction_geometry(d, n, require_nonzero=True):
    """r = |d|, xh = d/r (0 at r = 0) and xh.n for d = x - y and normal n,
    components first; shared by the normal-contracted stress kernels."""
    r = _radial(d, require_nonzero)
    xh = d / np.where(r == 0.0, 1.0, r)
    return r, xh, xh[0] * n[0] + xh[1] * n[1] + xh[2] * n[2]


_MIRROR = [0, 1, 2, 1, 3, 4, 2, 4, 5]      # 3×3 from six upper entries


def _mirrored(six):
    """The symmetric (3, 3, ...) tensor of six upper entries (6, ...)."""
    return six[_MIRROR].reshape((3, 3) + six.shape[1:])


def _symmetric_six(g, u, diag):
    """The six upper entries of g u u^T + diag I as a new (6, ...) array, each
    product g u_i u_j written once (g u_j u_i would round differently)."""
    out, gu = np.empty((6,) + g.shape), [g * u[i] for i in range(3)]
    for k, (i, j) in enumerate(zip((0, 0, 0, 1, 1, 2), (0, 1, 2, 1, 2, 2))):
        np.multiply(gu[i], u[j], out=out[k, ...])
    for k in (0, 3, 5):
        out[k] += diag
    return out


def _velocity_cf(d, alpha):
    """The six upper entries of G(d) for d = x - y."""
    alpha = _check_alpha(alpha)
    r = _radial(d)
    p1, p2 = _kernel_profiles(alpha, r, _A1, _A2)
    rf = FOUR_PI * r
    return _symmetric_six(p2 / rf, d / r, p1 / rf)


def _pressure_cf(d):
    """Pi(d) for d = x - y."""
    return d / (FOUR_PI * _radial(d) ** 3)


def _traction_cf(d, n, alpha):
    """T_{ij} = S_{ijl} n_l for d = x - y."""
    alpha = _check_alpha(alpha)
    r, xh, xn = _contraction_geometry(d, n)
    d1, d2, f2 = _kernel_profiles(alpha, r, _D1, _D2, _A2)
    pref = 1.0 / (FOUR_PI * r ** 2)
    # pref [-n xh^T + (d1 + f2) xn I + 2 f2 n xh^T + (f2 + d1) xh n^T
    #       + 2 d2 xn xh xh^T], added in this order (which fixes the
    # rounding); -Pi_j nu_i is the first term
    out = np.multiply(-n[:, None], xh[None, :], out=np.empty((3, 3) + r.shape))
    diag = (d1 + f2) * xn
    for k in range(3):
        out[k, k] += diag
    for u, v in ((2.0 * f2 * n, xh), (xh, (f2 + d1) * n),
                 (2.0 * (d2 * xn) * xh, xh)):
        out += u[:, None] * v[None, :]
    out *= pref
    return out


def _pressure_tensor_cf(d, alpha):
    """Lambda(x, y) for d = y - x."""
    alpha = _check_alpha(alpha)
    r = _radial(d)
    eye = np.eye(3).reshape((3, 3) + (1,) * r.ndim)
    return (1.0 / FOUR_PI) * (-6.0 * (d[:, None] * d[None, :]) / r ** 5
                              + (2.0 / r ** 3 - alpha / r) * eye)


def _double_layer_pressure_cf(d, n, alpha):
    """-Lambda(x, y) n for d = y - x, summed as ((k=0 + k=2) + k=1) + 0.0:
    the order and signed zero of np.einsum's vector loop, so it equals
    -np.einsum("...ik,...k->...i", Lambda, n) to the bit; laid out like d, not
    like Lambda (numpy picks that by size), so its rule sums round alike."""
    lam = _pressure_tensor_cf(d, alpha)
    return np.negative(((lam[:, 0] * n[0] + lam[:, 2] * n[2])
                        + lam[:, 1] * n[1]) + 0.0, out=np.empty_like(d))


def _double_layer_rows_cf(d, n, alpha, profiles=None):
    """The double-layer kernel for d = y - x and normals n (3, ...) as rows
    (k, ...) to be summed over a rule whose normal n is fixed, then
    contracted by _double_layer_pairs: the six upper entries of the Stokes
    part T0 = g x̂x̂ᵀ (g = -3 xn/(4 pi r^2)), then at alpha > 0 those of
    2 e2 xn x̂x̂ᵀ, 2 b3 x̂, (b3 + e1) x̂ and (e1 + b3) xn for the difference.
    With profiles, the difference's rows alone, 0 at d = 0 (T0 raises
    there)."""
    r, xh, xn = _contraction_geometry(d, n, require_nonzero=profiles is None)
    outer = (profiles is None) + bool(alpha > 0.0)  # blocks of six entries
    rows = np.empty((6 * outer + 7 * (alpha > 0.0),) + r.shape)
    scale = np.empty((outer,) + r.shape)
    if profiles is None:
        np.divide(-3.0 * xn, FOUR_PI * r ** 2, out=scale[0])
    if alpha > 0.0:
        e1, e2, b3 = _profile_pass(np.sqrt(alpha) * r,
                                   *(profiles or (_E1, _E2, _B3)))
        np.multiply(2.0, e2 * xn, out=scale[-1])
        eb = np.add(e1, b3, out=e1)
        np.multiply(2.0 * b3, xh, out=rows[-7:-4])
        np.multiply(eb, xh, out=rows[-4:-1])
        np.multiply(eb, xn, out=rows[-1])
    sxh, six = scale[:, None] * xh, rows[:6 * outer].reshape(
        (outer, 6) + r.shape)
    for i, start in enumerate((0, 3, 5)):
        np.multiply(sxh[:, i, None], xh[i:], out=six[:, start:start + 3 - i])
    return rows


def _double_layer_pairs(sums, n, alpha):
    """Integrals (k, 3, 3, pairs) of the double-layer kernel's parts from
    per-pair sums (k, pairs) of _double_layer_rows_cf and the normals n
    (3, pairs): T0 = g x̂x̂ᵀ mirrored, then at alpha > 0 the difference
    (S^alpha - S^0) nu, transposed as K takes it, as (alpha/4pi)[c I
    + V1 nᵀ + n V2ᵀ + S2]; with profiles, the difference alone."""
    outer = (len(sums) - 7 * (alpha > 0.0)) // 6
    parts = sums[:6 * outer].reshape(outer, 6, -1)[:, _MIRROR].reshape(
        outer, 3, 3, -1)
    if alpha > 0.0:
        difference = parts[-1]
        difference.reshape(9, -1)[::4] += sums[-1]
        difference += sums[-7:-4, None] * n
        difference += n[:, None] * sums[-4:-1]
        difference *= alpha / FOUR_PI
    return parts


def _double_layer_nodes(d, n, alpha, profiles=None):
    """_double_layer_pairs node by node, each node its own pair: the parts
    (k, 3, 3, ...) for d = y - x and normals n (3, ...); with profiles, the
    difference alone, zeros at alpha = 0."""
    d, n = np.broadcast_arrays(d, n)
    shape = d.shape[1:]
    if profiles is not None and alpha == 0.0:
        return np.zeros((1, 3, 3) + shape)
    d, n = d.reshape(3, -1), n.reshape(3, -1)       # a (3,) point is (3, 1)
    parts = _double_layer_pairs(_double_layer_rows_cf(d, n, alpha, profiles),
                                n, alpha)
    return parts.reshape(parts.shape[:3] + shape)   # no -1: shape may be 0


def _velocity_remainder_cf(d, alpha):
    """G^alpha(d) - G^0(d) less its first-order terms -(sqrt(alpha)/(6 pi)) I
    + (alpha/(32 pi))(3 r I - d d^T/r), six upper entries: (alpha^(3/2)/(4
    pi)) [r^2 c1 I + c3 d d^T] for d = x - y, O(r^2) and with no 1/r."""
    r2 = d[0] ** 2 + d[1] ** 2 + d[2] ** 2
    c1, c3 = _profile_pass(np.sqrt(alpha * r2), _C1, _C3)
    scale = alpha ** 1.5 / FOUR_PI
    return _symmetric_six(scale * c3, d, scale * r2 * c1)


def brinkman_velocity_tensor(x, alpha):
    """Fundamental velocity tensor G(x) of the Brinkman system, shape (..., 3, 3)."""
    return _components_last(_mirrored(_velocity_cf(*_components_first(x),
                                                   alpha)))


def stokeslet(x):
    """Stokes fundamental velocity tensor, the alpha = 0 case of G."""
    return brinkman_velocity_tensor(x, 0.0)


def pressure_vector(x):
    """Fundamental pressure vector Pi(x) = x/(4 pi |x|^3); independent of alpha."""
    return _components_last(_pressure_cf(*_components_first(x)), 1)


def brinkman_velocity_gradient(x, alpha):
    """Analytic gradient dG_{jk}/dx_l, returned with shape (..., 3, 3, 3) = [j, k, l]."""
    alpha = _check_alpha(alpha)
    (d,) = _components_first(x)
    r = _radial(d)
    d1, d2, f2 = _kernel_profiles(alpha, r, _D1, _D2, _A2)
    pref = 1.0 / (FOUR_PI * r ** 2)
    return pref[..., None, None, None] * _gradient_terms(
        np.moveaxis(d / r, 0, -1), d1, f2, d2)


def _gradient_terms(xh, iso, mix, rad):
    """iso d_jk xh_l + mix (d_jl xh_k + d_kl xh_j) + rad xh_j xh_k xh_l."""
    eye = np.eye(3)
    term_iso = eye[..., :, :, None] * xh[..., None, None, :] * iso[..., None, None, None]
    term_mix = (eye[..., :, None, :] * xh[..., None, :, None]
                + eye[..., None, :, :] * xh[..., :, None, None]) * mix[..., None, None, None]
    term_rad = (xh[..., :, None, None] * xh[..., None, :, None]
                * xh[..., None, None, :] * rad[..., None, None, None])
    return term_iso + term_mix + term_rad


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
    return _components_last(_traction_cf(
        *_components_first(np.subtract(x, y), normal), alpha))


def brinkman_pressure_tensor(x, y, alpha):
    """Pressure tensor Lambda_{ik}(x, y) of the double-layer pair, shape (..., 3, 3)."""
    return _components_last(_pressure_tensor_cf(
        *_components_first(np.subtract(y, x)), alpha))


def harmonic_kernel(x):
    """Fundamental solution of the Laplacian in 3D: -1/(4 pi |x|)."""
    return -1.0 / (FOUR_PI * _radial(*_components_first(x)))


def velocity_difference(x, alpha):
    """G^alpha(x) - G^0(x), regular at x = 0 with limit -(sqrt(alpha)/(6 pi)) I.

    Evaluated in subtracted form
        sqrt(alpha)/(4 pi) [ delta b1(z) ] + alpha r /(4 pi) b3(z) xhat xhat,
    which is cancellation-free for all r including r = 0.
    """
    alpha = _check_alpha(alpha)
    (d,) = _components_first(x)
    r = _radial(d, require_nonzero=False)
    b1, b3 = _profile_pass(np.sqrt(alpha) * r, _B1, _B3)
    return _components_last(_mirrored(_symmetric_six(
        (alpha / FOUR_PI) * r * b3, d / np.where(r == 0.0, 1.0, r),
        (np.sqrt(alpha) / FOUR_PI) * b1)))


def velocity_difference_gradient(x, alpha):
    """Analytic gradient d_l (G^alpha - G^0)_{jk}; bounded (O(alpha)) as r -> 0."""
    alpha = _check_alpha(alpha)
    (d,) = _components_first(x)
    r = _radial(d, require_nonzero=False)
    e1, e2, b3 = _profile_pass(np.sqrt(alpha) * r, _E1, _E2, _B3)
    xh = np.moveaxis(d / np.where(r == 0.0, 1.0, r), 0, -1)
    return (alpha / FOUR_PI) * _gradient_terms(xh, e1, b3, e2)


def stress_difference(x, y, alpha):
    """S^alpha(x, y) - S^0(x, y), shape (..., 3, 3, 3); bounded as x -> y.

    The pressure part of S is alpha-independent, so the difference is built
    from the two gradient terms of the regular kernel G^alpha - G^0 alone.
    The value at exact coincidence is direction-dependent; 0 is returned there.
    """
    d = np.asarray(x, dtype=float) - np.asarray(y, dtype=float)
    grad = velocity_difference_gradient(d, alpha)
    return grad + np.swapaxes(grad, -3, -1)


def stress_difference_normal(x, y, normal, alpha):
    """Contraction (S^alpha - S^0)_{ijl}(x, y) n_l, shape (..., 3, 3).

    Bounded near coincidence; 0 is returned at exact coincidence.  It is the
    double-layer kernel's alpha difference for d = x - y, transposed.
    """
    alpha = _check_alpha(alpha)
    d, n = _components_first(np.subtract(x, y), normal)
    difference = _double_layer_nodes(d, n, alpha, (_E1, _E2, _B3))[0]
    return _components_last(np.swapaxes(difference, 0, 1))

