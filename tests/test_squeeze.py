"""Squeezing estimator: chains, inscribed radii, floors, consistency."""

import numpy as np
import pytest

from ellsqueeze import squeeze
from ellsqueeze.automorphisms import EllipsoidAutomorphism
from ellsqueeze.domain import GeneralEllipsoid
from ellsqueeze.errors import BoundedSearchError
from ellsqueeze.sequences import generate
from ellsqueeze.squeeze import (BallAutomorphism, EmbeddingChain, Rescale,
                                chain_family, gamma_floor, inscribed_radius,
                                profile_to_csv, squeeze_lower_bound,
                                squeeze_profile, subdomain_grid)
from ellsqueeze.domain import SubdomainParams, contains_sub
from ellsqueeze.util import philox


@pytest.fixture(scope="module")
def E():
    return GeneralEllipsoid.quartic_disc()


@pytest.fixture(scope="module")
def B():
    return GeneralEllipsoid.unit_ball(2)


# -- ball automorphism -------------------------------------------------------------


def test_phi_zero_is_minus_identity():
    z = np.array([[0.3 + 0.1j, -0.2j]])
    assert np.array_equal(BallAutomorphism(np.zeros(2)).apply(None, z), -z)


def test_phi_c_centers_c():
    rng = philox(1)
    for _ in range(20):
        c = rng.standard_normal(4)
        c = (c[:2] + 1j * c[2:]) * rng.uniform(0, 0.9) / np.linalg.norm(c)
        img = BallAutomorphism(c).apply(None, c[None, :])
        assert np.linalg.norm(img) <= 1e-14


def test_phi_c_of_origin_has_norm_c():
    rng = philox(2)
    for _ in range(20):
        c = rng.standard_normal(4)
        c = (c[:2] + 1j * c[2:]) * rng.uniform(0, 0.95) / np.linalg.norm(c)
        img = BallAutomorphism(c).apply(None, np.zeros((1, 2), dtype=complex))
        assert np.linalg.norm(img) == pytest.approx(np.linalg.norm(c), abs=1e-14)


def test_phi_c_involution():
    rng = philox(3)
    z = rng.standard_normal((1000, 4))
    z = (z[:, :2] + 1j * z[:, 2:]) * (rng.uniform(0, 0.98, 1000) ** 0.5
                                      / np.linalg.norm(z, axis=1))[:, None]
    for _ in range(10):
        c = rng.standard_normal(4)
        c = (c[:2] + 1j * c[2:]) * rng.uniform(0, 0.9) / np.linalg.norm(c)
        phi = BallAutomorphism(c)
        again = phi.apply(None, phi.apply(None, z))
        assert np.abs(again - z).max() <= 1e-12


def test_phi_parameter_validation():
    with pytest.raises(ValueError):
        BallAutomorphism(np.array([1.0 + 0j, 0.0]))


# -- chains and inscribed radii ----------------------------------------------------------


def test_identity_chain_on_ball(B):
    chain = EmbeddingChain(B, (Rescale(B.bounding_radius(margin=0.0) * (1 + 1e-9)),),
                           np.zeros(2, dtype=complex))
    val = inscribed_radius(chain, count=20000, seed=0)
    assert val == pytest.approx(1.0, abs=1e-3)


def test_rescale_chain_on_quartic(E):
    # min |z| on the boundary is 1 (Lagrange oracle), so the pure rescale by
    # sqrt(5)/2 has inscribed radius 1/sqrt(1.25)
    chain = EmbeddingChain(E, (Rescale(np.sqrt(1.25)),), np.zeros(2, dtype=complex))
    val = inscribed_radius(chain, count=100000, seed=0)
    assert val == pytest.approx(1.0 / np.sqrt(1.25), abs=1e-3)


def test_pure_automorphism_chain_on_ball(B):
    c = np.array([0.9 * np.exp(0.3j), 0.0], dtype=complex)
    chain = EmbeddingChain(B, (BallAutomorphism(c),), c)
    val = inscribed_radius(chain, count=20000, seed=0)
    assert val == pytest.approx(1.0, abs=1e-3)


def test_chain_rejects_uncentered_basepoint(B):
    chain = EmbeddingChain(B, (Rescale(2.0),), np.array([0.5, 0.0], dtype=complex))
    with pytest.raises(ValueError):
        inscribed_radius(chain, count=100)


# -- squeeze lower bound --------------------------------------------------------------------


def test_ball_calibration_sample(B):
    rng = philox(4)
    for _ in range(5):
        p = rng.standard_normal(4)
        p = (p[:2] + 1j * p[2:]) * rng.uniform(0, 0.9) / np.linalg.norm(p)
        est = squeeze_lower_bound(B, p, count=1 << 14, seed=0)
        assert 0.999 <= est.value <= 1.0


def test_estimate_fields(E):
    p = np.array([0.2, 0.4j], dtype=complex)
    est = squeeze_lower_bound(E, p, count=4096, seed=0)
    assert 0.0 < est.value <= 1.0
    assert est.samples == 4096
    assert est.band >= 0.0
    assert est.chain.label in ("trivial", "normalize")


def test_rejects_outside_basepoint(E):
    with pytest.raises(ValueError):
        squeeze_lower_bound(E, np.array([0.0, 1.2], dtype=complex))


def test_three_dimensional_domains():
    # the chain family is dimension generic: calibrate on the 3-ball and
    # sanity-check a mixed-weight ellipsoid in C^3
    from ellsqueeze.wpoly import MultiWeight, WeightedPolynomial
    B3 = GeneralEllipsoid.unit_ball(3)
    p = np.array([0.2 + 0.1j, -0.3, 0.4j], dtype=complex)
    est = squeeze_lower_bound(B3, p, count=1 << 14, seed=0)
    assert est.value == pytest.approx(1.0, abs=1e-3)

    P = WeightedPolynomial(MultiWeight((1, 3)), {
        ((1, 0), (1, 0)): 1.0,
        ((0, 3), (0, 3)): 1.0,
    })
    D = GeneralEllipsoid(P)
    q = np.array([0.3, 0.4, 0.5 * np.exp(0.5j)], dtype=complex)
    est = squeeze_lower_bound(D, q, count=1 << 14, seed=0)
    assert 0.0 < est.value <= 1.0
    assert est.chain.label in ("trivial", "normalize")


def test_monotone_in_samples(E):
    p = np.array([0.3, 0.5], dtype=complex)
    small = squeeze_lower_bound(E, p, count=1 << 12, seed=0)
    big = squeeze_lower_bound(E, p, count=1 << 13, seed=0)
    assert big.value <= small.value + 1e-15


def test_estimator_automorphism_consistency(E):
    # estimate at psi(p) over a chain g, sampled on the transported cloud,
    # equals the estimate at p over g o psi on the original cloud: the same
    # multiset of values, bit for bit (chains are pure compositions)
    from ellsqueeze.squeeze import chain_norms_at

    psi = EllipsoidAutomorphism(a=0.35, theta=0.9, sign=-1)
    p = np.array([0.25, 0.1 - 0.3j], dtype=complex)
    q = psi.apply(E.P.weights, p[None, :])[0]

    R = E.bounding_radius()
    g = EmbeddingChain(E, (Rescale(R), BallAutomorphism(q / R)), q)
    g_psi = EmbeddingChain(E, (psi, Rescale(R), BallAutomorphism(q / R)), p)

    cloud = E.boundary_cloud(2000, seed=0)
    transported = psi.apply(E.P.weights, cloud)
    vals_q = np.sort(chain_norms_at(g, transported))
    vals_p = np.sort(chain_norms_at(g_psi, cloud))
    assert np.array_equal(vals_q, vals_p)


def test_profile_constant_center_ball(B):
    from ellsqueeze.sequences import custom_sequence
    seq = custom_sequence(B, np.zeros((3, 2), dtype=complex))
    # constant at the center: skip convergence validation by construction
    ests = squeeze_profile(B, seq, count=1 << 13, seed=0)
    for est in ests:
        assert est.value == pytest.approx(1.0, abs=1e-3)


def test_profile_tangential_tail_trend(E):
    seq = generate(E, "tangential", indices=[10, 1000])
    ests = squeeze_profile(E, seq, count=1 << 14, seed=0)
    assert ests[-1].value > ests[0].value


def test_profile_with_boundary_filter(E):
    # restricting sampling to a neighborhood of (0, 1) models subdomain
    # families that share that boundary piece; dropping samples can only
    # raise the min-over-samples estimate
    seq = generate(E, "tangential", indices=[100])
    full = squeeze_profile(E, seq, count=1 << 13, seed=0)[0]
    north = np.array([0.0, 1.0], dtype=complex)
    keep = lambda pts: np.linalg.norm(pts - north, axis=1) < 0.8
    local = squeeze_profile(E, seq, count=1 << 13, seed=0, boundary_filter=keep)[0]
    assert local.value >= full.value
    assert local.samples < full.samples
    with pytest.raises(ValueError):
        squeeze_profile(E, seq, count=256, seed=0,
                        boundary_filter=lambda pts: np.zeros(len(pts), dtype=bool))


# -- floors ------------------------------------------------------------------------------------


def test_subdomain_grid_members(E):
    sp = SubdomainParams(0.5, 0.5)
    grid = subdomain_grid(E, sp, 100, seed=0)
    assert len(grid) == 100
    assert np.all(contains_sub(E, sp, grid))


def test_subdomain_grid_failure_is_typed(E, monkeypatch):
    # a membership test that rejects everything exhausts the block cap
    monkeypatch.setattr(squeeze, "contains_sub", lambda D, sp, z: np.zeros(len(z), bool))
    with pytest.raises(BoundedSearchError) as info:
        subdomain_grid(E, SubdomainParams(0.5, 0.5), 10, seed=0)
    assert info.value.cap == squeeze.MAX_GRID_BLOCKS


def test_gamma_floor_positive(E):
    rep = gamma_floor(E, 0.5, 0.5, grid_count=30, count=4096, seed=0)
    assert rep.value > 0.0
    assert rep.grid_count == 30


def test_gamma_floor_monotone_in_r(E):
    small = gamma_floor(E, 0.5, 0.25, grid_count=30, count=4096, seed=0)
    large = gamma_floor(E, 0.5, 0.75, grid_count=30, count=4096, seed=0)
    assert small.value >= large.value - 1e-3


def test_normal_profile_dominates_floor(E):
    floor = gamma_floor(E, 0.5, 0.5, grid_count=30, count=4096, seed=0)
    seq = generate(E, "normal", indices=[5, 50, 500])
    for est in squeeze_profile(E, seq, count=4096, seed=0):
        assert est.value >= floor.value - 1e-3


def test_gamma_floor_small_r_limits_to_axis_values(E):
    # as r -> 0 the subdomain collapses onto the slice-free disk {z' = 0},
    # where the estimator is flat; the floor climbs to the center value at
    # the quartic-root rate r^{1/4}
    center = squeeze_lower_bound(E, np.array([0.0, 0.5], dtype=complex),
                                 count=4096, seed=0).value
    floors = [gamma_floor(E, 0.5, r, grid_count=40, count=4096, seed=0).value
              for r in (0.05, 1e-3, 1e-5)]
    assert all(b > a for a, b in zip(floors, floors[1:]))
    assert abs(floors[-1] - center) < 0.01


def test_analytic_floor_flagged(E):
    rep = gamma_floor(E, 0.5, 0.5, grid_count=5, count=2048, seed=0, with_analytic=True)
    # distance between the levels {P = 1/2} and {P = 1} over twice the diameter:
    # radii 2^{-1/4} and 1 give delta = (1 - 2^{-1/4})/2 and d = 2 sqrt(5)/2
    expected = (1.0 - 0.5 ** 0.25) / 2.0 / (2.0 * np.sqrt(1.25))
    assert rep.analytic == pytest.approx(expected, rel=0.05)


def test_profile_csv(E, tmp_path):
    seq = generate(E, "tangential", indices=[10, 100])
    ests = squeeze_profile(E, seq, count=2048, seed=0)
    path = tmp_path / "profile.csv"
    profile_to_csv(path, ests, indices=[10, 100])
    lines = path.read_text().strip().split("\n")
    assert lines[0].startswith("j,re_p1,im_p1,re_p2,im_p2,sigma_hat")
    assert len(lines) == 3
