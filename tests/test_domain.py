"""Ellipsoid gauge, boundary sampling, subdomains and Levi scans."""

import numpy as np
import pytest

from ellsqueeze.domain import (GeneralEllipsoid, SubdomainParams, contains_sub,
                               samples_to_csv)
from ellsqueeze.errors import PositivityError
from ellsqueeze.util import complex_sphere, philox
from ellsqueeze.wpoly import MultiWeight, WeightedPolynomial

from helpers import bisect_first_crossing, fd_hessian, fd_gradient, mixed_weight_polynomial


@pytest.fixture(scope="module")
def E():
    return GeneralEllipsoid.quartic_disc()


@pytest.fixture(scope="module")
def B():
    return GeneralEllipsoid.unit_ball(2)


# -- gauge -----------------------------------------------------------------------


def test_rho_at_center(E):
    assert float(E.rho(np.zeros(2, dtype=complex))) == -1.0


def test_rho_showcase_point(E):
    # ((1/2)^{1/4}, 1/2): gauge value (1/2)^2 - 1 + 1/2 = -1/4
    z = np.array([0.5 ** 0.25, 0.5], dtype=complex)
    assert float(E.rho(z)) == pytest.approx(-0.25, abs=1e-15)


def test_rho_on_boundary_samples(E):
    pts = E.boundary_cloud(2000, seed=0)
    assert np.abs(E.rho(pts)).max() <= 1e-10


def test_rho_sign_pattern(E):
    pts = E.boundary_cloud(10000, seed=1)
    rng = philox(5)
    shrink = rng.uniform(0.05, 0.95, size=len(pts))
    inside = pts * shrink[:, None]
    outside = pts * 1.01
    assert (E.rho(inside) < 0).all()
    assert (E.rho(outside) > 0).all()


# -- boundary sampling -----------------------------------------------------------------


def test_ball_boundary_is_sphere(B):
    for D in (B, GeneralEllipsoid.unit_ball(3)):
        pts = D.boundary_cloud(5000, seed=0)
        assert np.abs(np.linalg.norm(pts, axis=1) - 1.0).max() <= 1e-10


def test_mixed_weight_boundary_matches_bisection():
    # the cloud's rays are the Sobol directions, so each point must be the
    # first zero of rho on its ray
    D = GeneralEllipsoid(mixed_weight_polynomial())
    pts = D.boundary_cloud(64, seed=5)
    u = complex_sphere(64, 3, seed=5)
    ref = bisect_first_crossing(D.rho, u, 0.0, 1e6)
    assert np.abs(pts - ref[:, None] * u).max() <= 1e-12 * ref.max()
    assert np.abs(D.rho(pts)).max() <= 1e-14


def test_quartic_defining_equation(E):
    pts = E.boundary_cloud(5000, seed=0)
    lhs = np.abs(pts[:, 1]) ** 2 + np.abs(pts[:, 0]) ** 4
    assert np.abs(lhs - 1.0).max() <= 1e-10


def test_min_boundary_norm_matches_lagrange_oracle(E):
    # minimize t^2 + s^2 on s^2 + t^4 = 1: f(t) = t^2 + 1 - t^4 has interior
    # critical point t^2 = 1/2 (a max); the min value 1 sits at t = 0 and t = 1
    pts = E.boundary_cloud(100000, seed=0)
    m = np.linalg.norm(pts, axis=1).min()
    assert m == pytest.approx(1.0, abs=1e-3)
    assert m >= 1.0 - 1e-10  # sampling can only overshoot the true minimum


def test_boundary_sample_objects(E):
    samples = E.boundary_sample(50, seed=2)
    assert len(samples) == 50
    assert all(s.residual <= 1e-10 for s in samples)


def test_boundary_prefix_stability(E):
    big = E.boundary_cloud(4096, seed=3)
    small = E.boundary_cloud(1024, seed=3)
    assert np.array_equal(big[:1024], small)


# -- bounding radius --------------------------------------------------------------------


def test_bounding_radius_ball(B):
    assert B.bounding_radius() == pytest.approx(1.01, abs=1e-3)


def test_bounding_radius_quartic(E):
    # maximize t^2 + s^2 on s^2 + t^4 = 1: stationary at t^2 = 1/2, value 5/4
    assert E.bounding_radius() == pytest.approx(1.01 * np.sqrt(1.25), abs=5e-3)


def test_bounding_radius_flat_quartic():
    # P = |z_1|^4 / 16: boundary curve s^2 + t^4/16 = 1; f(t) = t^2 + 1 - t^4/16
    # has its stationary point at t^2 = 8 outside the feasible range t <= 2,
    # so the max norm is at (2, 0): R = 2
    P = WeightedPolynomial(MultiWeight((2,)), {((2,), (2,)): 1.0 / 16.0})
    D = GeneralEllipsoid(P)
    assert D.bounding_radius() == pytest.approx(1.01 * 2.0, abs=1e-2)


def test_no_sample_exceeds_bounding_radius(E):
    pts = E.boundary_cloud(20000, seed=4)
    assert np.linalg.norm(pts, axis=1).max() <= E.bounding_radius()


# -- subdomains ---------------------------------------------------------------------------


def test_center_always_inside(E):
    for r in (0.1, 0.5, 1.0):
        sp = SubdomainParams(0.3, r)
        center = np.array([0.0, sp.b], dtype=complex)
        assert bool(contains_sub(E, sp, center))


def test_showcase_point_outside_tight_subdomain(E):
    # at index 10 the tangency ratio is 1, so r = 0.9 < 1 excludes the point:
    # |0.9 - 0.5|^2 + (0.5/0.9) * 0.18 = 0.26 > 0.25
    z = np.array([(2 / 10 - 2 / 100) ** 0.25, 0.9], dtype=complex)
    assert not bool(contains_sub(E, SubdomainParams(0.5, 0.9), z))


def test_full_params_recover_domain(E):
    rng = philox(6)
    pts = E.boundary_cloud(500, seed=5) * rng.uniform(0.1, 0.99, 500)[:, None]
    sp = SubdomainParams(1.0, 1.0)
    assert np.array_equal(contains_sub(E, sp, pts), E.contains(pts))


def test_monotone_in_r(E):
    rng = philox(8)
    z = rng.standard_normal((2000, 4))
    pts = 1.2 * (z[:, :2] + 1j * z[:, 2:]) / np.linalg.norm(z, axis=1)[:, None]
    inner = contains_sub(E, SubdomainParams(0.5, 0.3), pts)
    outer = contains_sub(E, SubdomainParams(0.5, 0.8), pts)
    assert not np.any(inner & ~outer)


def test_subdomain_inside_domain(E):
    rng = philox(9)
    z = rng.uniform(-1.2, 1.2, (10000, 4))
    pts = z[:, :2] + 1j * z[:, 2:]
    member = contains_sub(E, SubdomainParams(0.4, 1.0), pts)
    assert np.all(E.contains(pts[member]))


def test_subdomain_param_validation():
    with pytest.raises(ValueError):
        SubdomainParams(0.0)
    with pytest.raises(ValueError):
        SubdomainParams(0.5, 1.5)


# -- Levi form ---------------------------------------------------------------------------------


def test_levi_ball_is_one(B):
    pts = B.boundary_cloud(20, seed=7)
    for p in pts:
        assert B.levi_min_eig(p) == pytest.approx(1.0, abs=1e-12)


def test_levi_vanishes_on_weak_circle(E):
    for theta in (0.0, 1.0, 2.5):
        z = np.array([0.0, np.exp(1j * theta)], dtype=complex)
        assert E.levi_min_eig(z) == pytest.approx(0.0, abs=1e-14)


def test_levi_positive_at_strong_point_matches_fd(E):
    t = 0.5 ** 0.25
    z = np.array([t, np.sqrt(1 - t ** 4)], dtype=complex)
    val = E.levi_min_eig(z)
    assert val > 0.1

    # independent oracle: finite-difference Hessian of rho restricted to the
    # finite-difference tangent space
    f = lambda w: complex(E.rho(w))
    H = fd_hessian(f, z)
    g = fd_gradient(f, z)
    _, _, vh = np.linalg.svd(g.reshape(1, 2))
    basis = vh[1:].conj().T
    L = basis.conj().T @ H @ basis
    oracle = float(np.linalg.eigvalsh(0.5 * (L + L.conj().T))[0])
    assert val == pytest.approx(oracle, abs=1e-6)


def test_levi_rejects_vanishing_gradient(E):
    with pytest.raises(ValueError):
        E.levi_min_eig(np.zeros(2, dtype=complex))


# -- scans ------------------------------------------------------------------------------------------


def test_wb_scan_ball(B):
    rep = B.wb_scan(count=200, seed=0)
    assert rep.passed
    assert rep.min_levi == pytest.approx(1.0, abs=1e-9)


def test_wb_scan_quartic_positive_and_tube_sensitive(E):
    wide = E.wb_scan(count=600, seed=0, exclusion=1e-1)
    narrow = E.wb_scan(count=600, seed=0, exclusion=1e-3)
    assert wide.passed and narrow.passed
    # the Levi eigenvalue decays like |z_1|^2 toward the weak circle
    assert narrow.min_levi < wide.min_levi


def test_degenerate_polynomial_blocks_domain():
    P = WeightedPolynomial(MultiWeight((2, 2)), {((1, 1), (1, 1)): 1.0})
    with pytest.raises(PositivityError):
        GeneralEllipsoid(P)


def test_dist_to_boundary_first_order(E):
    # inner-normal points: |rho| ~ 2 * dist near the smooth boundary point (0, 1)
    for d in (1e-3, 1e-4):
        z = np.array([0.0, 1.0 - d], dtype=complex)
        est = float(E.dist_to_boundary(z))
        assert est == pytest.approx(d, rel=2e-3)


def test_dist_comparable_to_gauge_along_showcase(E):
    # dist(a_n, boundary) ~ |rho(a_n)| with two-sided constants: the gradient
    # norm stays in a fixed band near (0, 1), so the ratio does too
    ratios = []
    for n in (10, 100, 1000, 10000):
        z = np.array([(2 / n - 2 / n ** 2) ** 0.25, 1 - 1 / n], dtype=complex)
        ratios.append(float(E.dist_to_boundary(z) / abs(E.rho(z))))
    assert min(ratios) > 0.2
    assert max(ratios) < 1.0
    assert max(ratios) / min(ratios) < 2.0


def test_samples_csv_schema(E, tmp_path):
    pts = E.boundary_cloud(5, seed=1)
    path = tmp_path / "samples.csv"
    samples_to_csv(path, E, pts)
    lines = path.read_text().strip().split("\n")
    assert lines[0] == "re_z1,im_z1,re_z2,im_z2,residual,levi_min"
    assert len(lines) == 6
