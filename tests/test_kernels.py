"""Kernel-level identities: profiles against Bessel/high-precision oracles,
analytic gradients against finite differences, the PDE residual, and the
regularity of the difference kernels."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from _oracles import bessel_a1, bessel_a2, fd_gradient, fd_laplacian, mp_profile
from bbem import kernels


def rng(seed=0):
    return np.random.default_rng(seed)


# ----------------------------------------------------------------- profiles

def test_a1_a2_match_bessel_oracle():
    z = np.geomspace(0.05, 30.0, 200)
    np.testing.assert_allclose(kernels.a1(z), bessel_a1(z), rtol=1.0e-10)
    np.testing.assert_allclose(kernels.a2(z), bessel_a2(z), rtol=1.0e-10)


def test_a1_a2_frozen_values():
    assert kernels.a1(1.0) == pytest.approx(3.0 / np.e - 1.0, rel=1.0e-13)
    assert kernels.a2(1.0) == pytest.approx(3.0 - 7.0 / np.e, rel=1.0e-13)
    assert kernels.a1(10.0) == pytest.approx(1.11 * np.exp(-10.0) - 0.01, rel=1.0e-12)
    assert kernels.a1(1.0) == pytest.approx(0.1036383, abs=5.0e-8)
    assert kernels.a2(1.0) == pytest.approx(0.4248439, abs=5.0e-8)
    assert kernels.a1(10.0) == pytest.approx(-9.94960e-3, abs=1.0e-8)


def test_a1_a2_small_z_limit():
    for z in (0.0, 1.0e-9, 1.0e-6):
        assert kernels.a1(z) == pytest.approx(0.5, abs=1.0e-6)
        assert kernels.a2(z) == pytest.approx(0.5, abs=1.0e-6)


def test_a1_a2_branch_continuity():
    # both branches agree with 50-digit arithmetic around the 1e-4 switch
    for z in (0.97e-4, 1.03e-4):
        assert kernels.a1(z) == pytest.approx(mp_profile("a1", z), rel=1.0e-10)
        assert kernels.a2(z) == pytest.approx(mp_profile("a2", z), rel=1.0e-10)


def test_a1_a2_domain_errors():
    for bad in (-1.0, np.nan, np.inf):
        with pytest.raises(ValueError):
            kernels.a1(bad)
        with pytest.raises(ValueError):
            kernels.a2(bad)


# ids "<name>-<name>" for the public a1 and a2, "<name>-_<name>" for the
# private profiles
@pytest.mark.parametrize("name", ["a1", "a2", "d1", "d2", "b1", "b3", "e1",
                                  "e2", "c1", "c3"],
                         ids=lambda name: f"{name}-{name}" if name[0] == "a"
                         else f"{name}-_{name}")
def test_profiles_match_high_precision(name):
    zs = np.geomspace(1.0e-8, 30.0, 40)
    vals = kernels._profile_pass(zs, getattr(kernels, f"_{name.upper()}"))[0]
    for z, v in zip(zs, vals):
        ref = mp_profile(name, z)
        assert v == pytest.approx(ref, rel=2.0e-10), f"{name}({z})"


@pytest.mark.parametrize("name", ["A1", "A2", "D1", "D2", "B1", "B3", "E1", "E2",
                                  "C1", "C3"])
def test_polyval_is_numpy_polyval_bit_for_bit(name):
    # the in-place Horner loop keeps numpy's recurrence, so the series
    # values of every profile are numpy's to the bit
    coef = getattr(kernels, f"_{name}")[1]
    z = np.concatenate([[0.0], np.geomspace(1.0e-12, 1.0, 300)])
    np.testing.assert_array_equal(kernels._polyval(z, coef),
                                  np.polynomial.polynomial.polyval(z, coef))


# ----------------------------------------------------- velocity and pressure

def test_velocity_tensor_frozen_values():
    e1 = np.array([1.0, 0.0, 0.0])
    g0 = kernels.brinkman_velocity_tensor(e1, 0.0)
    assert g0[0, 0] == pytest.approx(1.0 / (4 * np.pi), rel=1.0e-14)
    assert g0[1, 1] == pytest.approx(1.0 / (8 * np.pi), rel=1.0e-14)
    assert g0[2, 2] == pytest.approx(1.0 / (8 * np.pi), rel=1.0e-14)
    assert abs(g0[0, 1]) + abs(g0[0, 2]) + abs(g0[1, 2]) < 1.0e-16

    g1 = kernels.brinkman_velocity_tensor(e1, 1.0)
    assert g1[0, 0] == pytest.approx((kernels.a1(1.0) + kernels.a2(1.0)) / (4 * np.pi),
                                     rel=1.0e-13)
    assert g1[0, 0] == pytest.approx(0.0420553, abs=5.0e-8)
    assert g1[1, 1] == pytest.approx(kernels.a1(1.0) / (4 * np.pi), rel=1.0e-13)
    assert g1[1, 1] == pytest.approx(0.0082471, abs=2.5e-7)


def test_stokeslet_is_alpha_zero_path():
    x = rng().normal(size=(20, 3))
    np.testing.assert_array_equal(kernels.stokeslet(x),
                                  kernels.brinkman_velocity_tensor(x, 0.0))


def test_pressure_vector_values():
    np.testing.assert_allclose(kernels.pressure_vector(np.array([1.0, 0.0, 0.0])),
                               [1.0 / (4 * np.pi), 0.0, 0.0], atol=1.0e-16)
    np.testing.assert_allclose(kernels.pressure_vector(np.array([0.0, 2.0, 0.0])),
                               [0.0, 2.0 / (4 * np.pi * 8.0), 0.0], atol=1.0e-16)


def test_singularity_errors():
    zero = np.zeros(3)
    with pytest.raises(ValueError):
        kernels.brinkman_velocity_tensor(zero, 1.0)
    with pytest.raises(ValueError):
        kernels.pressure_vector(zero)
    with pytest.raises(ValueError):
        kernels.harmonic_kernel(zero)
    with pytest.raises(ValueError):
        kernels.brinkman_velocity_tensor(np.ones(3), -1.0)


@settings(max_examples=50, deadline=None)
@given(st.lists(st.floats(-2.0, 2.0), min_size=3, max_size=3),
       st.sampled_from([0.0, 0.5, 1.0, 4.0]))
# a subnormal component: G must stay exactly symmetric there too
@example([1.802764947844083, 0.0546875, 2.225073858507203e-309], 1.0)
def test_velocity_symmetry_and_evenness(xs, alpha):
    x = np.asarray(xs)
    if np.linalg.norm(x) < 1.0e-3:
        return
    g = kernels.brinkman_velocity_tensor(x, alpha)
    np.testing.assert_array_equal(g, g.T)
    np.testing.assert_allclose(g, kernels.brinkman_velocity_tensor(-x, alpha),
                               rtol=1.0e-13)


# z = sqrt(alpha) r on both sides of the 1e-4 and 0.5 profile cutoffs
PINNED_Z = np.array([3.0e-5, 0.9e-4, 1.1e-4, 4.0e-4, 0.05, 0.3, 0.49, 0.51,
                     0.8, 2.0, 5.0, 12.0])


def hand_kernels(d, n, alpha):
    """G(d) and the traction kernel T(y + d, y, n) assembled from the Bessel
    profiles, with d1 = A2 - (1 + z) e^{-z} and d2 = (1 + z) e^{-z} - 5 A2;
    at alpha = 0 from the Stokes constants A1 = A2 = 1/2, (1 + z) e^{-z} = 1."""
    r = np.linalg.norm(d, axis=-1)
    if alpha == 0.0:
        p1 = p2 = np.full_like(r, 0.5)
        decay = np.ones_like(r)
    else:
        z = np.sqrt(alpha) * r
        p1, p2, decay = bessel_a1(z), bessel_a2(z), (1.0 + z) * np.exp(-z)
    d1, d2 = p2 - decay, decay - 5.0 * p2
    xh = d / r[..., None]
    xn = np.sum(xh * n, axis=-1)
    eye = np.eye(3)
    outer = xh[..., :, None] * xh[..., None, :]
    g = p1[..., None, None] * eye + p2[..., None, None] * outer
    t = (((d1 + p2) * xn)[..., None, None] * eye
         + (2.0 * p2 - 1.0)[..., None, None] * n[..., :, None] * xh[..., None, :]
         + (p2 + d1)[..., None, None] * xh[..., :, None] * n[..., None, :]
         + (2.0 * d2 * xn)[..., None, None] * outer)
    return (g / (4 * np.pi * r)[..., None, None],
            t / (4 * np.pi * r ** 2)[..., None, None])


@pytest.mark.parametrize("alpha", [0.0, 0.25, 1.0, 4.0])
@pytest.mark.parametrize("lead", [(), (12,), (2, 3, 2)])
def test_kernels_match_hand_assembled_bessel_tensors(alpha, lead):
    # one point per call for a (3,) argument, all twelve at once otherwise;
    # (a, b, c, 3) is the shape of the Newtonian lattice
    g = rng(13)
    d = g.normal(size=(12, 3))
    r = PINNED_Z / np.sqrt(alpha) if alpha > 0.0 else PINNED_Z
    d *= (r / np.linalg.norm(d, axis=1))[:, None]
    y = g.normal(size=(12, 3))
    d = (y + d) - y  # the displacement the traction kernel sees, exactly
    n = g.normal(size=(12, 3))
    n /= np.linalg.norm(n, axis=1, keepdims=True)
    if lead:
        shape = lead + (3,)
        got = (kernels.brinkman_velocity_tensor(d.reshape(shape), alpha),
               kernels.traction_kernel((y + d).reshape(shape), y.reshape(shape),
                                       n.reshape(shape), alpha))
        got = [k.reshape(12, 3, 3) for k in got]
    else:
        got = [np.array([kernel(*args, alpha) for args in zip(*points)])
               for kernel, points in (
                   (kernels.brinkman_velocity_tensor, (d,)),
                   (kernels.traction_kernel, (y + d, y, n)))]
    # the Bessel forms of A1, A2 cancel like 1/z^2 at small z
    tol = 1.0e-14 + (4.0e-15 / PINNED_Z ** 2 if alpha > 0.0 else 0.0)
    for value, expected in zip(got, hand_kernels(d, n, alpha)):
        error = (np.abs(value - expected).max(axis=(1, 2))
                 / np.abs(expected).max(axis=(1, 2)))
        assert np.all(error <= tol)


@settings(max_examples=50, deadline=None)
@given(st.lists(st.floats(-2.0, 2.0), min_size=3, max_size=3))
def test_pressure_oddness(xs):
    x = np.asarray(xs)
    if np.linalg.norm(x) < 1.0e-3:
        return
    np.testing.assert_allclose(kernels.pressure_vector(-x),
                               -kernels.pressure_vector(x), rtol=1.0e-13)


# ------------------------------------------------------------------ gradient

def sample_points(n, seed=1, rmin=0.5, rmax=2.0):
    g = rng(seed)
    x = g.normal(size=(n, 3))
    x /= np.linalg.norm(x, axis=1, keepdims=True)
    return x * g.uniform(rmin, rmax, size=(n, 1))


@pytest.mark.parametrize("alpha", [0.0, 0.5, 1.0, 4.0])
def test_velocity_gradient_matches_fd(alpha):
    x = sample_points(30)
    analytic = kernels.brinkman_velocity_gradient(x, alpha)
    fd = fd_gradient(lambda p: kernels.brinkman_velocity_tensor(p, alpha), x, h=1.0e-5)
    err = np.max(np.abs(analytic - fd)) / np.max(np.abs(analytic))
    assert err <= 1.0e-6


def test_velocity_gradient_parity():
    x = sample_points(10, seed=3)
    g = kernels.brinkman_velocity_gradient(x, 1.0)
    gm = kernels.brinkman_velocity_gradient(-x, 1.0)
    np.testing.assert_allclose(gm, -g, rtol=1.0e-12)


@pytest.mark.parametrize("alpha", [0.0, 0.5, 1.0, 4.0])
def test_analytic_divergence_free(alpha):
    x = sample_points(100, seed=2)
    grad = kernels.brinkman_velocity_gradient(x, alpha)
    # div over the first tensor index: sum_j d_j G_{jk}
    div = np.einsum("pjkj->pk", grad)
    assert np.max(np.abs(div)) <= 1.0e-6


@pytest.mark.parametrize("alpha", [0.0, 0.5, 1.0, 4.0])
def test_pde_residual(alpha):
    x = sample_points(100, seed=4)
    lap = fd_laplacian(lambda p: kernels.brinkman_velocity_tensor(p, alpha), x, h=1.0e-3)
    grad_pi = fd_gradient(lambda p: kernels.pressure_vector(p), x, h=1.0e-3, order4=True)
    g = kernels.brinkman_velocity_tensor(x, alpha)
    # momentum identity per column k: (Delta - alpha) G_{jk} = d_j Pi_k
    resid = lap - alpha * g - np.swapaxes(grad_pi, -1, -2)
    scale = np.maximum(1.0, np.abs(g))
    assert np.max(np.abs(resid) / scale) <= 1.0e-5


# -------------------------------------------------------------------- stress

def stokes_stresslet(x, y):
    d = np.asarray(x, float) - np.asarray(y, float)
    r = np.linalg.norm(d, axis=-1)
    return -(3.0 / (4 * np.pi)) * (d[..., :, None, None] * d[..., None, :, None]
                                   * d[..., None, None, :]) / r[..., None, None, None] ** 5


def test_stress_alpha_zero_is_stokes_stresslet():
    g = rng(5)
    x = g.normal(size=(15, 3))
    y = g.normal(size=(15, 3))
    s = kernels.brinkman_stress_tensor(x, y, 0.0)
    np.testing.assert_allclose(s, stokes_stresslet(x, y), rtol=1.0e-12, atol=1.0e-14)


def test_stress_point_swap_antisymmetry():
    g = rng(6)
    x = g.normal(size=(10, 3))
    y = g.normal(size=(10, 3))
    s = kernels.brinkman_stress_tensor(x, y, 1.5)
    np.testing.assert_allclose(kernels.brinkman_stress_tensor(y, x, 1.5), -s,
                               rtol=1.0e-12)


def test_traction_kernel_matches_contraction():
    g = rng(7)
    x = g.normal(size=(12, 3))
    y = g.normal(size=(12, 3))
    n = g.normal(size=(12, 3))
    n /= np.linalg.norm(n, axis=1, keepdims=True)
    for alpha in (0.0, 1.0, 4.0):
        full = np.einsum("pijl,pl->pij", kernels.brinkman_stress_tensor(x, y, alpha), n)
        fused = kernels.traction_kernel(x, y, n, alpha)
        np.testing.assert_allclose(fused, full, rtol=1.0e-11, atol=1.0e-13)


def test_stress_difference_decay():
    # |S^alpha - S^0| decays no slower than c/r: r * |diff| stays bounded
    direction = np.array([0.3, -0.5, 0.81])
    direction /= np.linalg.norm(direction)
    rs = np.geomspace(0.1, 2.0, 25)
    x = rs[:, None] * direction
    diff = kernels.stress_difference(x, np.zeros(3), 1.0)
    ratio = np.max(np.abs(diff), axis=(1, 2, 3)) * rs
    assert np.max(ratio) < 10.0 * ratio[-1] + 1.0


# ---------------------------------------------------------- pressure tensors

def test_pressure_tensor_frozen_values():
    x0 = np.zeros(3)
    e1 = np.array([1.0, 0.0, 0.0])
    lam1 = kernels.brinkman_pressure_tensor(x0, e1, 1.0)
    assert lam1[0, 0] == pytest.approx((-6.0 + 2.0 - 1.0) / (4 * np.pi), rel=1.0e-13)
    assert lam1[0, 0] == pytest.approx(-0.3978874, abs=5.0e-8)
    lam0 = kernels.brinkman_pressure_tensor(x0, e1, 0.0)
    assert lam0[1, 1] == pytest.approx(2.0 / (4 * np.pi), rel=1.0e-13)
    assert lam0[1, 1] == pytest.approx(0.1591549, abs=5.0e-8)


def test_pressure_tensor_affine_in_alpha():
    g = rng(8)
    x = g.normal(size=(10, 3))
    y = g.normal(size=(10, 3))
    r = np.linalg.norm(y - x, axis=-1)
    alpha = 2.7
    lam_a = kernels.brinkman_pressure_tensor(x, y, alpha)
    lam_0 = kernels.brinkman_pressure_tensor(x, y, 0.0)
    shift = -(alpha / (4 * np.pi * r))[:, None, None] * np.eye(3)
    np.testing.assert_allclose(lam_a, lam_0 + shift, rtol=1.0e-12)


def test_harmonic_kernel_values():
    assert kernels.harmonic_kernel(np.array([1.0, 0.0, 0.0])) == pytest.approx(
        -1.0 / (4 * np.pi), rel=1.0e-14)
    assert kernels.harmonic_kernel(np.array([0.0, 0.0, 2.0])) == pytest.approx(
        -1.0 / (8 * np.pi), rel=1.0e-14)
    # radial symmetry
    a = kernels.harmonic_kernel(np.array([0.6, -0.8, 0.0]))
    b = kernels.harmonic_kernel(np.array([0.0, 0.0, 1.0]))
    assert a == pytest.approx(b, rel=1.0e-14)


# --------------------------------------------------------- difference kernels

def test_velocity_difference_limit_at_zero():
    for alpha in (0.25, 1.0, 4.0):
        lim = kernels.velocity_difference(np.zeros(3), alpha)
        np.testing.assert_allclose(lim, -(np.sqrt(alpha) / (6 * np.pi)) * np.eye(3),
                                   rtol=1.0e-14)


def test_velocity_difference_matches_direct_subtraction():
    x = sample_points(20, seed=9, rmin=0.3, rmax=3.0)
    for alpha in (0.5, 1.0, 4.0):
        direct = (kernels.brinkman_velocity_tensor(x, alpha)
                  - kernels.brinkman_velocity_tensor(x, 0.0))
        np.testing.assert_allclose(kernels.velocity_difference(x, alpha), direct,
                                   rtol=1.0e-9, atol=1.0e-14)


def test_velocity_difference_stable_at_tiny_r():
    # naive subtraction loses all digits here; the subtracted form must not
    direction = np.array([1.0, 2.0, -2.0]) / 3.0
    for r in (1.0e-10, 1.0e-7):
        val = kernels.velocity_difference(r * direction, 1.0)
        lim = -(1.0 / (6 * np.pi)) * np.eye(3)
        np.testing.assert_allclose(val, lim, atol=1.0e-8)


def test_velocity_difference_gradient_matches_fd():
    x = sample_points(15, seed=10, rmin=0.2, rmax=2.0)
    for alpha in (0.5, 2.0):
        analytic = kernels.velocity_difference_gradient(x, alpha)
        fd = fd_gradient(lambda p: kernels.velocity_difference(p, alpha), x, h=1.0e-6)
        assert np.max(np.abs(analytic - fd)) <= 1.0e-7 * max(1.0, np.max(np.abs(analytic)))


@pytest.mark.parametrize("alpha", [0.5, 1.0, 4.0, 25.0])
def test_remainders_are_differences_less_first_order_terms(alpha):
    # G^alpha - G^0 = -(sqrt(alpha)/(6 pi)) I + (alpha/(32 pi))(3 r I -
    # d d^T/r) + remainder, and (S^alpha - S^0) nu as K takes it = (alpha/(16
    # pi))(xn I - xh n^T + n xh^T + xn xh xh^T) + (alpha^2/(48 pi))(r dn I
    # - r d n^T/2 + r n d^T - dn d d^T/(2 r)) + remainder, xh = d/r and
    # dn = d.n for d = y - x; the remainders vanish at d = 0
    d = sample_points(40, seed=21, rmin=1.0e-6, rmax=3.0).T
    n = rng(22).normal(size=(3, 40))
    n /= np.linalg.norm(n, axis=0)
    r = np.linalg.norm(d, axis=0)
    xh, eye = d / r, np.eye(3)[:, :, None]
    xn = np.sum(xh * n, axis=0)
    first_v = (-np.sqrt(alpha) / (6 * np.pi) * eye
               + alpha / (32 * np.pi) * (3 * r * eye - d[:, None] * d / r))
    dn = r * xn
    first_w = (alpha / (16 * np.pi) * (xn * eye - xh[:, None] * n
                                       + n[:, None] * xh + xn * xh[:, None] * xh)
               + alpha ** 2 / (48 * np.pi) * (
                   r * dn * eye - 0.5 * (r * d)[:, None] * n
                   + n[:, None] * (r * d) - 0.5 * dn * d[:, None] * d / r))
    for remainder, difference, first in (
            (kernels._mirrored(kernels._velocity_remainder_cf(d, alpha)),
             np.moveaxis(kernels.velocity_difference(d.T, alpha), (1, 2),
                         (0, 1)),
             first_v),
            (kernels._double_layer_nodes(d, n, alpha,
                                         kernels._STRESS_REMAINDER)[0],
             kernels._double_layer_nodes(d, n, alpha)[1], first_w)):
        np.testing.assert_allclose(remainder + first, difference, rtol=0.0,
                                   atol=1.0e-14 * max(1.0, alpha))
    assert not np.any(kernels._velocity_remainder_cf(np.zeros((3, 1)), alpha))


def test_stress_difference_matches_direct_subtraction():
    g = rng(11)
    x = g.normal(size=(10, 3))
    y = x + 0.5 * g.normal(size=(10, 3))
    for alpha in (0.5, 1.0):
        direct = (kernels.brinkman_stress_tensor(x, y, alpha)
                  - kernels.brinkman_stress_tensor(x, y, 0.0))
        np.testing.assert_allclose(kernels.stress_difference(x, y, alpha), direct,
                                   rtol=1.0e-7, atol=1.0e-12)


def test_stress_difference_bounded_near_coincidence():
    direction = np.array([0.48, 0.6, 0.64])
    direction /= np.linalg.norm(direction)
    near = kernels.stress_difference(1.0e-10 * direction, np.zeros(3), 1.0)
    small = kernels.stress_difference(1.0e-6 * direction, np.zeros(3), 1.0)
    assert np.all(np.isfinite(near))
    np.testing.assert_allclose(near, small, atol=1.0e-6)
    np.testing.assert_array_equal(
        kernels.stress_difference(np.zeros(3), np.zeros(3), 1.0), np.zeros((3, 3, 3)))


def _nodes_targets_normals(seed, count):
    """Seeded (node, target, unit normal) triples at distances 1e-3 to 3."""
    g = rng(seed)
    x = g.normal(size=(count, 3))
    d = g.normal(size=(count, 3))
    d *= (np.geomspace(1.0e-3, 3.0, count)
          / np.linalg.norm(d, axis=1))[:, None]
    n = g.normal(size=(count, 3))
    n /= np.linalg.norm(n, axis=1, keepdims=True)
    return x + d, x, n


def test_stress_difference_normal_matches_contraction():
    g = rng(12)
    scattered = g.normal(size=(2, 10, 3))
    normals = g.normal(size=(10, 3))
    normals /= np.linalg.norm(normals, axis=1, keepdims=True)
    y, x, n = _nodes_targets_normals(13, 400)
    # besides the scattered points: one point, an empty batch, and a batch
    # against one point keep their shapes
    cases = ((*scattered, normals), (x, y, n), (x[7], y[7], n[7]),
             (x[:0], y[:0], n[:0]), (g.normal(size=(4, 2, 3)), y[7], n[7]))
    for alpha in (0.25, 1.0, 4.0):
        z = np.sqrt(alpha) * np.linalg.norm(x - y, axis=1)
        # both branches of the difference profiles are exercised
        assert np.any(z < kernels._Z_SERIES) and np.any(z >= kernels._Z_SERIES)
        for a, b, nu in cases:
            full = np.einsum("...ijl,...l->...ij",
                             kernels.stress_difference(a, b, alpha), nu)
            got = kernels.stress_difference_normal(a, b, nu, alpha)
            assert got.shape == np.broadcast_shapes(
                np.shape(a), np.shape(nu))[:-1] + (3, 3)
            np.testing.assert_allclose(got, full, rtol=1.0e-11, atol=1.0e-14)


def test_stress_difference_normal_is_zero_at_alpha_zero_and_coincidence():
    y, x, n = _nodes_targets_normals(14, 50)
    for a, b, nu, alpha in ((x, y, n, 0.0), (x[3], y[3], n[3], 0.0),
                            (x, x, n, 1.0), (x[3], x[3], n[3], 4.0)):
        got = kernels.stress_difference_normal(a, b, nu, alpha)
        np.testing.assert_array_equal(got, np.zeros(np.shape(a)[:-1] + (3, 3)))


def _node_parts(y, x, n, alpha, profiles=None):
    """The double-layer kernel's parts node by node as (count, k, 3, 3)."""
    return np.moveaxis(kernels._double_layer_nodes((y - x).T, n.T, alpha,
                                                   profiles), -1, 0)


def test_double_layer_nodes_stokes_closed_form():
    # the closed-form Stokes part against the profile-based traction kernel
    y, x, n = _nodes_targets_normals(31, 10_000)
    parts = _node_parts(y, x, n, 0.0)
    assert parts.shape == (10_000, 1, 3, 3)
    expected = kernels.traction_kernel(y, x, n, 0.0).swapaxes(1, 2)
    error = (np.abs(parts[:, 0] - expected).max(axis=(1, 2))
             / np.abs(expected).max(axis=(1, 2)))
    assert error.max() <= 2.0e-15


@pytest.mark.parametrize("alpha", [0.25, 1.0, 4.0])
def test_double_layer_nodes_difference_is_stress_difference_normal(alpha):
    y, x, n = _nodes_targets_normals(32, 2_000)
    z = np.sqrt(alpha) * np.linalg.norm(y - x, axis=1)
    # both branches of the difference profiles are exercised
    assert np.any(z < kernels._Z_SERIES) and np.any(z >= kernels._Z_SERIES)
    parts = _node_parts(y, x, n, alpha)
    assert parts.shape == (2_000, 2, 3, 3)
    np.testing.assert_array_equal(
        parts[:, 1],
        kernels.stress_difference_normal(y, x, n, alpha).swapaxes(1, 2))
    np.testing.assert_array_equal(parts[:, 0],
                                  _node_parts(y, x, n, 0.0)[:, 0])


@pytest.mark.parametrize("alpha", [0.0, 1.0])
def test_double_layer_nodes_keep_empty_and_single_shapes(alpha):
    # a plan's group of (target, panel) pairs can be empty (cube(1)'s far
    # group at the centroids): nodes (3, 0, q) with normals (3, 0, 1); and
    # one point (3,) is a node too
    g = rng(35)
    for d_shape, n_shape in (((3, 0, 6), (3, 0, 1)), ((3, 4, 6), (3, 4, 1)),
                             ((3,), (3,))):
        d, n = g.normal(size=d_shape), g.normal(size=n_shape)
        shape = np.broadcast_shapes(d_shape, n_shape)[1:]
        for profiles, parts in ((None, 1 + (alpha > 0.0)),
                                (kernels._STRESS_REMAINDER, 1)):
            got = kernels._double_layer_nodes(d, n, alpha, profiles)
            assert got.shape == (parts, 3, 3) + shape
    # the difference alone at alpha = 0 is zeros, at coincidence too
    np.testing.assert_array_equal(kernels._double_layer_nodes(
        np.zeros((3, 2)), np.ones((3, 2)), alpha, kernels._STRESS_REMAINDER),
        np.zeros((1, 3, 3, 2)))


def _same_bytes(got, expected):
    assert got.shape == expected.shape
    assert (np.ascontiguousarray(got).tobytes()
            == np.ascontiguousarray(expected).tobytes())


@pytest.mark.parametrize("alpha", [0.0, 1.0, 4.0])
def test_public_kernels_are_their_components_first_evaluators(alpha):
    # the near/far plan integrates the components-first evaluators; each
    # public kernel is one of them in (..., 3, 3) order, to the bit (signed
    # zeros included: some displacements and normals have zero components)
    g = rng(34)
    x = g.normal(size=(600, 3))
    d = g.normal(size=(600, 3)) * np.geomspace(1.0e-3, 3.0, 600)[:, None]
    d[::5, 1] = 0.0
    n = g.normal(size=(600, 3))
    n[::7, :2] = 0.0
    y = x + d
    to_last = (lambda a: np.moveaxis(a, 0, -1),
               lambda a: np.moveaxis(a, (0, 1), (-2, -1)))
    _same_bytes(kernels.brinkman_velocity_tensor(x - y, alpha),
                to_last[1](kernels._mirrored(kernels._velocity_cf((x - y).T,
                                                                  alpha))))
    _same_bytes(kernels.pressure_vector(x - y),
                to_last[0](kernels._pressure_cf((x - y).T)))
    _same_bytes(kernels.traction_kernel(x, y, n, alpha),
                to_last[1](kernels._traction_cf((x - y).T, n.T, alpha)))
    pressure = kernels.brinkman_pressure_tensor(x, y, alpha)
    _same_bytes(pressure,
                to_last[1](kernels._pressure_tensor_cf((y - x).T, alpha)))
    _same_bytes(-np.einsum("qik,qk->qi", pressure, n),
                to_last[0](kernels._double_layer_pressure_cf((y - x).T, n.T,
                                                             alpha)))


# ----------------------------------------------------------- decay and limit

def test_stokes_limit_monotone():
    x = np.array([1.0, 0.0, 0.0])
    g0 = kernels.brinkman_velocity_tensor(x, 0.0)
    gaps = [np.max(np.abs(kernels.brinkman_velocity_tensor(x, a) - g0))
            for a in (1.0e-2, 1.0e-4, 1.0e-6)]
    assert gaps[0] > gaps[1] > gaps[2]
    assert gaps[2] < 1.0e-4


@pytest.mark.parametrize("alpha", [0.5, 1.0, 4.0])
def test_decay_envelope_single_constant(alpha):
    direction = np.array([0.2, -0.3, 0.933])
    direction /= np.linalg.norm(direction)
    r_fit = np.geomspace(0.5, 20.0, 30)
    r_chk = np.geomspace(0.5, 20.0, 301)

    def ratio(rs):
        x = rs[:, None] * direction
        g = kernels.brinkman_velocity_tensor(x, alpha)
        mag = np.max(np.abs(g), axis=(1, 2))
        return mag * (1.0 + alpha * rs ** 2) * rs

    c_fit = np.max(ratio(r_fit))
    assert np.all(ratio(r_chk) <= 1.05 * c_fit)


def test_params_validation():
    kernels.BrinkmanParams(alpha=0.0)
    kernels.BrinkmanParams(alpha=2.0, beta=1.0)
    with pytest.raises(ValueError):
        kernels.BrinkmanParams(alpha=-1.0)
    with pytest.raises(ValueError):
        kernels.BrinkmanParams(alpha=1.0, beta=-0.5)
