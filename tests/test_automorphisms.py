"""Automorphism family: domain preservation, inversion, normalization, pullbacks."""

import numpy as np
import pytest

from ellsqueeze.automorphisms import (EllipsoidAutomorphism, normalize_point,
                                      principal_sqrt, pullback_coeffs)
from ellsqueeze.domain import GeneralEllipsoid, SubdomainParams, contains_sub
from ellsqueeze.hermpoly import first_crossing
from ellsqueeze.util import complex_sphere, philox


@pytest.fixture(scope="module")
def E():
    return GeneralEllipsoid.quartic_disc()


def _interior_points(E, count, seed):
    pts = E.boundary_cloud(count, seed=seed)
    rng = philox(seed + 100)
    return pts * rng.uniform(0.05, 0.95, count)[:, None]


# -- basic map structure -------------------------------------------------------------


def test_identity_at_zero_parameter(E):
    psi = EllipsoidAutomorphism(a=0.0, theta=0.0)
    z = _interior_points(E, 50, 0)
    assert np.abs(psi.apply(E.P.weights, z) - z).max() <= 1e-15


def test_parameter_validation():
    with pytest.raises(ValueError):
        EllipsoidAutomorphism(a=1.0)
    with pytest.raises(ValueError):
        EllipsoidAutomorphism(a=0.5, sign=0)


def test_rotation_squared_is_identity(E):
    psi = EllipsoidAutomorphism(a=0.0, theta=np.pi)
    z = _interior_points(E, 20, 1)
    twice = psi.apply(E.P.weights, psi.apply(E.P.weights, z))
    assert np.abs(twice - z).max() <= 1e-14


def test_boundary_preservation(E):
    pts = E.boundary_cloud(1000, seed=2)
    rng = philox(3)
    for _ in range(20):
        a = rng.uniform(0.0, 0.95) * np.exp(1j * rng.uniform(0, 2 * np.pi))
        theta = rng.uniform(0, 2 * np.pi)
        sign = 1 if rng.uniform() < 0.5 else -1
        psi = EllipsoidAutomorphism(a=a, theta=theta, sign=sign)
        assert np.abs(E.rho(psi.apply(E.P.weights, pts))).max() <= 1e-9


def test_conformal_factor_identity(E):
    # rho(psi(z)) = factor * rho(z) exactly: the algebraic reason the family
    # preserves the domain
    z = _interior_points(E, 500, 4)
    psi = EllipsoidAutomorphism(a=0.4 - 0.3j, theta=1.1, sign=+1)
    lhs = E.rho(psi.apply(E.P.weights, z))
    rhs = psi.conformal_factor(z) * E.rho(z)
    assert np.abs(lhs - rhs).max() <= 1e-12


def test_fractional_power_branch_consistency(E):
    # (slice factor)^{m_k} must equal lambda^{1/2} / (1 - conj(a) w) exactly:
    # guards against a wrong branch of the fractional power
    rng = philox(5)
    z = _interior_points(E, 200, 6)
    for _ in range(10):
        a = complex(rng.uniform(0, 0.9), rng.uniform(-0.3, 0.3))
        if abs(a) >= 1:
            continue
        psi = EllipsoidAutomorphism(a=a, theta=0.0, sign=-1)
        m1 = E.P.weights.m[0]
        w = z[:, 1]
        den = 1.0 - np.conj(a) * w
        factor = psi.apply(E.P.weights, z)[:, 0] / z[:, 0]
        assert np.abs(factor ** m1 - np.sqrt(psi.lam) / den).max() <= 1e-12


@pytest.mark.parametrize("a", [0.5, 0.9, 0.999, 0.99999])
def test_square_root_factor_matches_50_digits(E, a):
    # the weight-2 slice factor lam^{1/4} / sqrt(den) over 2^12 points of the
    # closed quartic domain (where 2^11 sphere rays first cross the boundary,
    # and one point inside on each ray), with z_1 = 1 so that the image's
    # first coordinate is the factor itself: the real-arithmetic root stays
    # within 1.1 eps of the exact root of den (numpy's complex root reaches
    # 0.85 eps here), and the factor, whose division adds rounding, is no
    # less accurate than the same factor with numpy's complex root
    mpmath = pytest.importorskip("mpmath")
    u = complex_sphere(1 << 11, 2, seed=0)
    cloud = first_crossing(E.gauge, u, 0.0, 1e6)[:, None] * u
    z = np.concatenate([cloud, cloud * philox(3).uniform(0.0, 1.0, len(cloud))[:, None]])
    z[:, 0] = 1.0
    psi = EllipsoidAutomorphism(a=a, theta=0.7)
    factor = psi.apply(E.P.weights, z)[:, 0]
    den = 1.0 + psi.sign * np.conj(psi.a) * (z[:, -1] * np.exp(1j * psi.theta))
    complex_factor = psi.lam ** 0.25 / np.sqrt(den)
    with mpmath.workdps(50):
        roots = [mpmath.sqrt(mpmath.mpc(complex(d))) for d in den]
        c = mpmath.mpf(psi.lam ** 0.25)

        def worst(values, exact):
            return max(float(abs(mpmath.mpc(complex(v)) - e) / abs(e))
                       for v, e in zip(values, exact))

        eps = np.finfo(float).eps
        assert worst(principal_sqrt(den), roots) <= 1.1 * eps
        exact = [c / r for r in roots]
        assert worst(factor, exact) <= worst(complex_factor, exact)


def test_principal_sqrt_off_the_right_half_plane():
    # |z_n| > 1 can put Re den <= 0, where |den| + Re den cancels; the whole
    # array then takes numpy's complex root, still the principal one
    den = np.array([4.0 + 1e-3j, -4.0 + 1e-300j, -4.0 - 0.0j, -1.0 + 2.0j, 0.0j, 2.0 - 0.5j])
    assert np.array_equal(principal_sqrt(den), np.sqrt(den))
    assert principal_sqrt(np.complex128(0.25 - 0.0j)) == 0.5
    assert principal_sqrt(np.empty(0, dtype=complex)).shape == (0,)


# -- inversion --------------------------------------------------------------------------


def test_round_trip_identity_parameter(E):
    psi = EllipsoidAutomorphism(a=0.0)
    z = _interior_points(E, 10, 7)
    back = psi.inverse().apply(E.P.weights, psi.apply(E.P.weights, z))
    assert np.abs(back - z).max() <= 1e-15


def test_round_trips_random_parameters(E):
    rng = philox(8)
    z = _interior_points(E, 300, 9)
    for _ in range(20):
        psi = EllipsoidAutomorphism(
            a=rng.uniform(0, 0.9) * np.exp(1j * rng.uniform(0, 2 * np.pi)),
            theta=rng.uniform(0, 2 * np.pi),
            sign=1 if rng.uniform() < 0.5 else -1,
        )
        there = psi.apply(E.P.weights, z)
        back = psi.inverse().apply(E.P.weights, there)
        assert np.abs(back - z).max() <= 1e-12
        fwd = psi.apply(E.P.weights, psi.inverse().apply(E.P.weights, z))
        assert np.abs(fwd - z).max() <= 1e-12


# -- normalization to the slice ------------------------------------------------------------


def test_normalize_center(E):
    res = normalize_point(E, np.zeros(2, dtype=complex))
    assert res.automorphism.theta == 0.0 and res.automorphism.a == 0.0
    assert np.abs(res.b).max() == 0.0


def test_normalize_showcase_value(E):
    # q = ((1/2)^{1/4}, 1/2): slice coordinate (1/2)^{1/4}/(3/4)^{1/4} = (2/3)^{1/4}
    q = np.array([0.5 ** 0.25, 0.5], dtype=complex)
    res = normalize_point(E, q)
    assert abs(res.b[0]) == pytest.approx((2.0 / 3.0) ** 0.25, abs=1e-12)
    img = res.automorphism.apply(E.P.weights, q)
    assert np.abs(img - res.b).max() <= 1e-12
    assert bool(E.contains(res.b))


def test_normalize_inner_normal_gives_zero_slice(E):
    for j in (3, 17, 1001):
        q = np.array([0.0, 1.0 - 1.0 / j], dtype=complex)
        res = normalize_point(E, q)
        assert np.abs(res.b).max() == 0.0


def test_normalize_slice_values_approach_one(E):
    # P(b') = (2/n - 2/n^2)/(2/n - 1/n^2), increasing to 1
    prev = 0.0
    for n in (10, 100, 1000, 10000):
        q = np.array([(2 / n - 2 / n ** 2) ** 0.25, 1 - 1 / n], dtype=complex)
        res = normalize_point(E, q)
        val = float(E.P.eval(res.b[:1]))
        closed = (2 / n - 2 / n ** 2) / (2 / n - 1 / n ** 2)
        assert val == pytest.approx(closed, abs=1e-12)
        assert val > prev
        prev = val
    assert prev > 0.999


def test_normalize_handles_complex_phase(E):
    q = np.array([0.4, 0.5 * np.exp(0.8j)], dtype=complex)
    res = normalize_point(E, q)
    img = res.automorphism.apply(E.P.weights, q)
    assert abs(img[-1]) <= 1e-14
    assert np.abs(img - res.b).max() <= 1e-12


def test_normalize_rejects_outside_point(E):
    with pytest.raises(ValueError):
        normalize_point(E, np.array([0.0, 1.5], dtype=complex))


def test_normalize_slice_level_identity_mixed_weights():
    # admissibility makes every monomial scale by the same factor, so the
    # slice image satisfies P(b') = P(q') / (1 - a^2) for any weight system
    from ellsqueeze.wpoly import MultiWeight, WeightedPolynomial
    P = WeightedPolynomial(MultiWeight((1, 3)), {
        ((1, 0), (1, 0)): 1.0,
        ((0, 3), (0, 3)): 1.0,
        ((1, 0), (0, 3)): 0.1 + 0.05j,
    })
    D = GeneralEllipsoid(P)
    rng = philox(12)
    for _ in range(20):
        q = np.array([0.3 * rng.uniform(), 0.4 * rng.uniform(),
                      rng.uniform(0, 0.9) * np.exp(1j * rng.uniform(0, 2 * np.pi))],
                     dtype=complex)
        if not bool(D.contains(q)):
            continue
        res = normalize_point(D, q)
        lhs = float(D.P.eval(res.b[:-1]))
        rhs = float(D.P.eval(q[:-1])) / res.automorphism.lam
        assert lhs == pytest.approx(rhs, rel=1e-12)


# -- pullback coefficients ------------------------------------------------------------------


def test_pullback_closed_form_values():
    c1, c2, c3 = pullback_coeffs(0.5, 0.9)
    assert c1 == pytest.approx(0.05, abs=1e-12)
    assert c2 == pytest.approx(0.95, abs=1e-12)
    assert c3 == pytest.approx(0.9025, abs=1e-12)


def test_pullback_limit_to_one():
    a = 1.0 - 2.0 ** -30
    c1, c2, c3 = pullback_coeffs(0.5, a)
    assert abs(c1) <= 1e-6
    assert abs(c2 - 1.0) <= 1e-6
    assert abs(c3 - 1.0) <= 1e-6


def test_pullback_b_zero_trivial():
    for a in (0.2, 0.7, 0.99):
        assert pullback_coeffs(0.0, a) == pytest.approx((0.0, 1.0, 1.0), abs=1e-15)


def test_pullback_monotone_on_grid():
    grid = [0.9, 0.99, 0.999, 0.9999, 0.99999]
    trips = [pullback_coeffs(0.5, a) for a in grid]
    c1s, c2s, c3s = zip(*trips)
    assert all(x > y for x, y in zip(c1s, c1s[1:]))
    assert all(x < y for x, y in zip(c2s, c2s[1:]))
    assert all(x < y for x, y in zip(c3s, c3s[1:]))


def test_pullback_matches_membership(E):
    # psi_a^{+}(z) in D^s if and only if |z_n - c1|^2 + c2 P(z') < c3
    rng = philox(10)
    sp = SubdomainParams(0.5)
    for a in (0.3, 0.8, 0.97):
        psi = EllipsoidAutomorphism(a=a, theta=0.0, sign=+1)
        c1, c2, c3 = pullback_coeffs(sp.b, a)
        raw = rng.uniform(-1.1, 1.1, (2000, 4))
        z = raw[:, :2] + 1j * raw[:, 2:]
        z = z[np.asarray(E.contains(z))]
        direct = contains_sub(E, sp, psi.apply(E.P.weights, z))
        pulled = np.abs(z[:, 1] - c1) ** 2 + c2 * E.P.eval(z[:, :1]) < c3
        margin = np.abs(np.abs(z[:, 1] - c1) ** 2 + c2 * E.P.eval(z[:, :1]) - c3)
        keep = margin > 1e-12
        assert np.array_equal(direct[keep], pulled[keep])


def test_pullback_rejects_bad_arguments():
    with pytest.raises(ValueError):
        pullback_coeffs(0.5, 1.0)
    with pytest.raises(ValueError):
        pullback_coeffs(1.0, 0.5)
