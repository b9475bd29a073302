"""Squeezing estimator: chains, sampled inscribed radii, floors, consistency."""

from fractions import Fraction

import numpy as np
import pytest

import helpers
from ellsqueeze import squeeze, util
from ellsqueeze.automorphisms import EllipsoidAutomorphism, normalize_point
from ellsqueeze.domain import GeneralEllipsoid
from ellsqueeze.errors import ToleranceError
from ellsqueeze.sequences import generate
from ellsqueeze.squeeze import (BallAutomorphism, EmbeddingChain, Rescale,
                                analytic_floor, chain_family, gamma_floor,
                                squeeze_estimates, squeeze_lower_bound,
                                subdomain_grid)
from ellsqueeze.domain import SubdomainParams, contains_sub
from ellsqueeze.util import complex_sphere, philox
from ellsqueeze.wpoly import MultiWeight, WeightedPolynomial
from helpers import chain_norms_at


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


# -- chains and sampled inscribed radii ---------------------------------------------------


def _sampled_radius(chain, count):
    """Min image norm of a centered chain over a boundary cloud."""
    chain.check_basepoint()
    return float(chain_norms_at(chain, chain.domain.boundary_cloud(count, 0)).min())


def test_identity_chain_on_ball(B):
    chain = EmbeddingChain(B, (Rescale(B.bounding_radius() * (1 + 1e-9)),),
                           np.zeros(2, dtype=complex))
    assert _sampled_radius(chain, 20000) == pytest.approx(1.0, abs=1e-3)


def test_rescale_chain_on_quartic(E):
    # min |z| on the boundary is 1 (Lagrange oracle), so the pure rescale by
    # sqrt(5)/2 has inscribed radius 1/sqrt(1.25)
    chain = EmbeddingChain(E, (Rescale(np.sqrt(1.25)),), np.zeros(2, dtype=complex))
    assert _sampled_radius(chain, 100000) == pytest.approx(1.0 / np.sqrt(1.25), abs=1e-3)


def test_pure_automorphism_chain_on_ball(B):
    c = np.array([0.9 * np.exp(0.3j), 0.0], dtype=complex)
    chain = EmbeddingChain(B, (BallAutomorphism(c),), c)
    assert _sampled_radius(chain, 20000) == pytest.approx(1.0, abs=1e-3)


def test_chain_rejects_uncentered_basepoint(B):
    chain = EmbeddingChain(B, (Rescale(2.0),), np.array([0.5, 0.0], dtype=complex))
    with pytest.raises(ToleranceError, match="basepoint_centering"):
        chain.check_basepoint()


# -- squeeze lower bound --------------------------------------------------------------------


def test_ball_calibration_sample(B):
    rng = philox(4)
    for _ in range(5):
        p = rng.standard_normal(4)
        p = (p[:2] + 1j * p[2:]) * rng.uniform(0, 0.9) / np.linalg.norm(p)
        est = squeeze_lower_bound(B, p, count=1 << 14, seed=0)
        assert 0.999 <= est.value <= 1.0


def test_estimate_fields(E):
    # n = 2 values are exact, with no cloud behind them; n >= 3 values are
    # sampled from `count` points
    p = np.array([0.2, 0.4j], dtype=complex)
    est = squeeze_lower_bound(E, p, count=4096, seed=0)
    assert 0.0 < est.value <= 1.0
    assert est.kind == "exact"
    assert est.samples == 0
    assert est.band == 0.0
    assert est.chain.label in ("trivial", "normalize", "tangent")
    est = squeeze_lower_bound(FLOOR_DOMAINS["E-2-3"](), np.array([0.2, 0.1, 0.4j]),
                              count=4096, seed=0)
    assert 0.0 < est.value <= 1.0
    assert est.kind == "sampled"
    assert est.samples == 4096
    assert est.band >= 0.0
    assert est.chain.label in ("trivial", "normalize")


def test_rejects_outside_basepoint(E):
    with pytest.raises(ValueError):
        squeeze_lower_bound(E, np.array([0.0, 1.2], dtype=complex))


def test_three_dimensional_domains():
    # the chain family is dimension generic: calibrate on the 3-ball and
    # sanity-check a mixed-weight ellipsoid in C^3
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
    # quartic values are exact and ignore the count; sampled values on
    # mixed-2-3 and ball:3 never rise as the prefix-stable cloud grows, bit
    # for bit, since each sample's value depends on that sample alone
    p = np.array([0.3, 0.5], dtype=complex)
    small = squeeze_lower_bound(E, p, count=1 << 12, seed=0)
    big = squeeze_lower_bound(E, p, count=1 << 13, seed=0)
    assert big.value <= small.value + 1e-15
    for D in (_mixed_weight_domain(), GeneralEllipsoid.unit_ball(3)):
        points = _estimate_inputs(D, 24)
        values = [[est.value for est in squeeze_estimates(D, points, count=1 << k, seed=0)]
                  for k in (12, 13, 14, 15)]
        for fewer, more in zip(values, values[1:]):
            assert all(b <= a for a, b in zip(fewer, more)), (fewer, more)


def test_estimator_automorphism_consistency(E):
    # estimate at psi(p) over a chain g, sampled on the transported cloud,
    # equals the estimate at p over g o psi on the original cloud: the same
    # multiset of values, bit for bit (chains are pure compositions)
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
    ests = squeeze_estimates(B, np.zeros((3, 2), dtype=complex), count=1 << 13, seed=0)
    for est in ests:
        assert est.value == pytest.approx(1.0, abs=1e-3)


def test_profile_tangential_tail_trend(E):
    seq = generate(E, "tangential", indices=[10, 1000])
    ests = squeeze_estimates(E, seq.points(), count=1 << 14, seed=0)
    assert ests[-1].value > ests[0].value


# -- floors ------------------------------------------------------------------------------------


FLOOR_DOMAINS = {
    "quartic": GeneralEllipsoid.quartic_disc,
    "ball-3": lambda: GeneralEllipsoid.unit_ball(3),
    "E-2-3": lambda: GeneralEllipsoid(WeightedPolynomial(MultiWeight((2, 3)), {
        ((2, 0), (2, 0)): 1.0, ((0, 3), (0, 3)): 1.0})),
    "mixed-2-3": lambda: GeneralEllipsoid(helpers.mixed_weight_polynomial()),
    # m = 6, where a slice floor off its checked chains' rows misses their radius by ulps
    "z1-12": lambda: GeneralEllipsoid(WeightedPolynomial(MultiWeight((6,)), {((6,), (6,)): 1.0})),
}


@pytest.mark.parametrize("s, r", [(0.5, 0.5), (0.1, 0.1), (1.0, 0.001), (0.001, 0.5), (1.0, 1.0)])
@pytest.mark.parametrize("name", FLOOR_DOMAINS)
def test_subdomain_grid_members(name, s, r):
    # the closed-form grid fills every admissible (s, r), and is prefix-stable
    D = FLOOR_DOMAINS[name]()
    sp = SubdomainParams(s, r)
    grid = subdomain_grid(D, sp, 200, seed=0)
    assert grid.shape == (200, D.n)
    assert np.all(contains_sub(D, sp, grid))
    assert np.all(D.contains(grid))
    head = subdomain_grid(D, sp, 64, seed=0)
    assert head.tobytes() == grid[:64].tobytes()


@pytest.mark.parametrize("s, r, seed", [(0.5, 0.5, 0), (0.5, 0.25, 1), (0.5, 0.75, 2),
                                         (0.1, 0.1, 3), (1.0, 1.0, 0), (0.25, 0.9, 5)])
@pytest.mark.parametrize("name", FLOOR_DOMAINS)
def test_gamma_floor_is_least_estimate(name, s, r, seed):
    # the floor is the estimate at its argmin, a slice point, bit for bit.
    # On n >= 3 value and argmin are the least estimate over the grid's
    # slice images and the first image that holds it, ball:3's near-ties
    # included: screening only the normalizing chain loses nothing there.
    # n = 2 floors are exact over a slice set the grid need not meet (see
    # test_slice_floor): their argmin joins the grid ahead of it and must
    # still hold the least estimate
    D = FLOOR_DOMAINS[name]()
    rep = gamma_floor(D, s, r, grid_count=40, count=2048, seed=seed)
    grid = subdomain_grid(D, SubdomainParams(s, r), 40, seed)
    if D.n == 2:
        points = np.concatenate([rep.argmin[None], grid])
    else:
        points = np.array([normalize_point(D, p).b for p in grid])
    least = min(squeeze_estimates(D, points, count=2048, seed=seed), key=lambda est: est.value)
    assert rep.kind == ("exact" if D.n == 2 else "sampled")
    assert rep.value == least.value
    assert rep.argmin.tobytes() == least.point.tobytes()
    assert rep.argmin[-1] == 0.0
    assert rep.value == squeeze_estimates(D, [rep.argmin], count=2048, seed=seed)[0].value


def _spy_on_floor(monkeypatch, D, grid_count):
    # (labels of the chains checked, closing pairs screened) by one n >= 3 floor
    checked, screened = [], []
    check, screen = EmbeddingChain.check_basepoint, squeeze._screened_squares

    def counting_check(chain):
        checked.append(chain.label)
        return check(chain)

    def counting_screen(cloud, pairs):
        screened.extend(pairs)
        return screen(cloud, pairs)

    monkeypatch.setattr(EmbeddingChain, "check_basepoint", counting_check)
    monkeypatch.setattr(squeeze, "_screened_squares", counting_screen)
    gamma_floor(D, 0.5, 0.5, grid_count=grid_count, count=1 << 12, seed=0)
    return checked, screened


def test_gamma_floor_screens_one_pair_per_point(monkeypatch):
    # one normalizing pair (R_tight, c) per grid point reaches the screen,
    # and only the two chains at the argmin are checked for centering
    D = FLOOR_DOMAINS["E-2-3"]()
    checked, screened = _spy_on_floor(monkeypatch, D, 64)
    assert checked == ["trivial", "normalize"]
    assert len(screened) == 64
    assert all(R == D.bounding_radius() for R, _ in screened)


@pytest.mark.parametrize("name", ["E-2-3", "mixed-2-3", "ball-3"])
def test_gamma_floor_screens_the_normalizing_pair(monkeypatch, name):
    # each screened pair is the closing pair of the normalizing chain that
    # chain_family builds at the grid point's slice image, bit for bit, and
    # that chain is centred there
    D = FLOOR_DOMAINS[name]()
    _, screened = _spy_on_floor(monkeypatch, D, 8)
    grid = subdomain_grid(D, SubdomainParams(0.5, 0.5), 8, seed=0)
    for (R, c), p in zip(screened, grid, strict=True):
        chain = chain_family(D, normalize_point(D, p).b)[1]
        assert chain.label == "normalize"
        assert R == chain.steps[-2].R
        assert c.tobytes() == chain.steps[-1].c.tobytes()
        assert chain.check_basepoint() <= squeeze.BASEPOINT_TOL


def test_gamma_floor_positive(E):
    # the n = 2 floor is exact: no grid and no cloud enter it
    rep = gamma_floor(E, 0.5, 0.5, grid_count=30, count=4096, seed=0)
    assert rep.value > 0.0
    assert rep.kind == "exact"
    assert rep.grid_count == 0


def test_gamma_floor_monotone_in_r(E):
    small = gamma_floor(E, 0.5, 0.25, grid_count=30, count=4096, seed=0)
    large = gamma_floor(E, 0.5, 0.75, grid_count=30, count=4096, seed=0)
    assert small.value >= large.value - 1e-3


def test_normal_profile_dominates_floor(E):
    floor = gamma_floor(E, 0.5, 0.5, grid_count=30, count=4096, seed=0)
    seq = generate(E, "normal", indices=[5, 50, 500])
    for est in squeeze_estimates(E, seq.points(), count=4096, seed=0):
        assert est.value >= floor.value - 1e-3


def test_gamma_floor_small_r_limits_to_axis_values(E):
    # as r -> 0 the slice set {|b_1| < r^{1/4}} shrinks onto the axis point
    # b = 0, where the estimator is flat; below r = 0.5953^4 the floor sits
    # on the slice edge, and it climbs to the center value at the
    # quartic-root rate r^{1/4}
    center = squeeze_lower_bound(E, np.array([0.0, 0.5], dtype=complex),
                                 count=4096, seed=0).value
    radii = (0.05, 1e-3, 1e-5)
    floors = [gamma_floor(E, 0.5, r, grid_count=40, count=4096, seed=0).value for r in radii]
    assert all(b > a for a, b in zip(floors, floors[1:]))
    for r, floor in zip(radii, floors):
        edge = squeeze_lower_bound(E, np.array([r ** 0.25, 0.0], dtype=complex)).value
        assert abs(floor - edge) <= 1e-12
    assert abs(gamma_floor(E, 0.5, 1e-8).value - center) < 0.01


def test_analytic_floor_flagged(E):
    # distance between the levels {P = 1/2} and {P = 1} over twice the diameter:
    # radii 2^{-1/4} and 1 give delta = (1 - 2^{-1/4})/2 and d = 2 sqrt(5)/2
    expected = (1.0 - 0.5 ** 0.25) / 2.0 / (2.0 * np.sqrt(1.25))
    assert analytic_floor(E, 0.5) == pytest.approx(expected, rel=0.05)


@pytest.mark.parametrize("r", [0.25, 0.5, 0.75])
def test_analytic_floor_matches_pairwise_minimum(E, r):
    # the gap is the minimum over all pair distances; the oracle dilates one
    # point at a time with Python's scalar power, which need not round like
    # numpy's array power, and `np.linalg.norm` sums the squares in its own
    # order, so the last bit may move
    pairwise = helpers.analytic_floor_pairwise(
        E, r, squeeze.ANALYTIC_FLOOR_SAMPLES, squeeze.ANALYTIC_FLOOR_SEED)
    assert abs(squeeze.analytic_floor(E, r) - pairwise) <= 2 * np.spacing(pairwise)


FLOOR_RADII = [0.1, 0.25, 0.5, 0.75, 0.9]


def _floor_level_sets(D, r):
    """`analytic_floor`'s samples of {P = r} and {P = 1}, as real coordinates."""
    u = complex_sphere(squeeze.ANALYTIC_FLOOR_SAMPLES, D.n - 1, squeeze.ANALYTIC_FLOOR_SEED)
    pu = D.P.eval(u)
    return (D.P.weights.dilate(r / pu, u).view(np.float64),
            D.P.weights.dilate(1.0 / pu, u).view(np.float64))


def _floor_from_gap(D, gap):
    return gap / 2.0 / (2.0 * D.bounding_radius())


@pytest.mark.parametrize("r", FLOOR_RADII)
@pytest.mark.parametrize("domain", FLOOR_DOMAINS.values(), ids=FLOOR_DOMAINS.keys())
def test_analytic_floor_is_the_all_pairs_minimum(domain, r):
    # the block search measures only the block pairs it cannot rule out, yet
    # its gap is bit for bit the minimum over every pair, with the squares
    # summed in coordinate order
    D = domain()
    inner, outer = _floor_level_sets(D, r)
    best = np.inf
    for lo in range(0, len(inner), 128):
        d2 = 0.0
        for k in range(inner.shape[1]):
            dk = inner[lo:lo + 128, None, k] - outer[None, :, k]
            d2 = d2 + dk * dk
        best = min(best, float(d2.min()))
    assert analytic_floor(D, r) == _floor_from_gap(D, float(np.sqrt(best)))


@pytest.mark.parametrize("r", FLOOR_RADII)
@pytest.mark.parametrize("domain", FLOOR_DOMAINS.values(), ids=FLOOR_DOMAINS.keys())
def test_analytic_floor_matches_kd_tree(domain, r):
    # scipy's k-d tree, which the gap search replaced, gives the same bits
    spatial = pytest.importorskip("scipy.spatial")
    D = domain()
    inner, outer = _floor_level_sets(D, r)
    gap = float(spatial.cKDTree(outer).query(inner)[0].min())
    assert analytic_floor(D, r) == _floor_from_gap(D, gap)


# -- batched estimates ---------------------------------------------------------------------


def _mixed_weight_domain():
    return GeneralEllipsoid(helpers.mixed_weight_polynomial())


def _estimate_inputs(D, grid_count):
    grid = subdomain_grid(D, SubdomainParams(0.5, 0.5), grid_count, seed=0)
    terms = [t.z for t in generate(D, "tangential", indices=[10, 100, 1000, 10000]).terms]
    return np.concatenate([grid, terms])


def _assert_match_pointwise(D, points, ests, count):
    for p, est in zip(points, ests, strict=True):
        value, label, band = helpers.squeeze_lower_bound_pointwise(D, p, count, 0)
        assert est.chain.label == label
        assert abs(est.value - value) <= 4 * np.spacing(value)
        assert abs(est.band - band) <= 8 * np.spacing(1.0)
        assert np.array_equal(est.point, p)


@pytest.mark.parametrize("domain, count", [
    (_mixed_weight_domain, 1 << 12),
    (lambda: GeneralEllipsoid.unit_ball(3), 1 << 14),
], ids=["mixed-2-3", "ball-3"])
def test_estimates_match_pointwise_loop(domain, count):
    # the estimator takes each minimum through the screen's closed form, the
    # loop exactly, over the samples of the unmoved cloud that the explicit
    # maps of each chain's closing pair put within 1e-12 of their minimum:
    # the explicit maps alone round by several ulps
    pytest.importorskip("mpmath")
    D = domain()
    points = _estimate_inputs(D, 24)
    ests = squeeze_estimates(D, points, count=count, seed=0)
    _assert_match_pointwise(D, points, ests, count)
    assert all(est.samples == count for est in ests)


@pytest.mark.parametrize("domain", [GeneralEllipsoid.quartic_disc, _mixed_weight_domain],
                         ids=["quartic", "mixed-2-3"])
def test_screen_tracks_explicit_chain_norms(domain):
    # every sample, the chains the screen takes (trivial and normalize: the
    # n = 2 tangent chain is never screened), floor grid points and the
    # profile terms up to j = 10^4, against the explicit maps of each
    # chain's closing pair on the unmoved cloud
    D = domain()
    cloud = D.boundary_cloud(1 << 14, seed=0)
    for p in _estimate_inputs(D, 8):
        for chain in chain_family(D, p)[:2]:
            pair = (chain.steps[-2].R, chain.steps[-1].c)
            screened = np.sqrt(squeeze._screened_squares(cloud, [pair])[0])
            assert np.abs(screened - helpers.closing_pair_norms(chain, cloud)).max() <= 1e-13


@pytest.mark.parametrize("domain", [_mixed_weight_domain, lambda: GeneralEllipsoid.unit_ball(3),
                                    FLOOR_DOMAINS["E-2-3"]], ids=["mixed-2-3", "ball-3", "E-2-3"])
def test_sampled_values_match_50_digits(domain):
    # each chain's least screened norm, over the whole cloud and over its
    # half prefix, lies within 16 ulps of the exact image norm of its
    # sample under the closing pair, in 50 digits; the reported value and
    # band are those minima, at floor grid points and the profile terms
    pytest.importorskip("mpmath")
    D = domain()
    count = 1 << 12
    cloud = D.boundary_cloud(count, seed=0)
    points = _estimate_inputs(D, 6)
    for p, est in zip(points, squeeze_estimates(D, points, count=count, seed=0), strict=True):
        family = chain_family(D, p)
        minima = []
        pairs = [(chain.steps[-2].R, chain.steps[-1].c) for chain in family]
        for (R, c), squares in zip(pairs, squeeze._screened_squares(cloud, pairs), strict=True):
            for k in (squares.argmin(), squares[:count // 2].argmin()):
                exact = helpers.least_exact_image_norm(cloud[k:k + 1], R, c)
                assert abs(np.sqrt(squares[k]) - exact) <= 16 * np.spacing(float(exact)), R
            minima.append((np.sqrt(squares.min()), np.sqrt(squares[:count // 2].min())))
        full, half = max(minima, key=lambda pair: pair[0])
        assert est.value == min(full, 1.0)
        assert est.band == max(half - full, 0.0)


def test_screen_minima_next_to_ball_parameter(B):
    # c a hair inside the sphere, a sample right next to it and 41 near-ties
    # around that sample: there phi_c magnifies a rounding of 1 - |u|^2
    # about 2e6-fold (the explicit maps miss by 1.4e6 ulps), yet the least
    # screened norms over the whole cloud and over its half prefix stay
    # within 16 ulps of the exact least norms, in 50 digits
    pytest.importorskip("mpmath")
    base = B.boundary_cloud(1 << 12, seed=0)
    ties = base[7] * np.exp(1j * np.linspace(-1e-12, 1e-12, 41))[:, None]
    cloud = np.concatenate([ties, base])
    half = len(cloud) // 2
    R = B.bounding_radius()
    c = (1.0 - 1e-6) * base[7] / R
    screened = np.sqrt(squeeze._screened_squares(cloud, [(R, c)])[0])
    for rows in (slice(None), slice(0, half)):
        exact = helpers.least_exact_image_norm(cloud[rows], R, c)
        assert abs(screened[rows].min() - exact) <= 16 * np.spacing(float(exact))


def test_sampled_path_maps_no_cloud(monkeypatch):
    # every chain reads the cloud unmoved: the domain automorphism maps one
    # point per call (a basepoint, to build or check a chain), never a cloud
    domains = [_mixed_weight_domain(), FLOOR_DOMAINS["E-2-3"](), GeneralEllipsoid.unit_ball(3)]
    inputs = [_estimate_inputs(D, 8) for D in domains]
    sizes, apply = [], EllipsoidAutomorphism.apply

    def counting_apply(self, weights, z):
        sizes.append(np.size(z) // np.shape(z)[-1])
        return apply(self, weights, z)

    monkeypatch.setattr(EllipsoidAutomorphism, "apply", counting_apply)
    for D, points in zip(domains, inputs):
        squeeze_estimates(D, points, count=1 << 12, seed=0)
        gamma_floor(D, 0.5, 0.5, grid_count=16, count=1 << 12, seed=0)
    assert sizes and max(sizes) == 1


def test_estimates_of_no_points(E):
    assert squeeze_estimates(E, [], count=1 << 10, seed=0) == []
    assert squeeze_estimates(E, np.empty((0, 2), dtype=complex), count=1 << 10, seed=0) == []


def test_estimates_ignore_blocks(monkeypatch):
    # the screen runs util.BLOCK samples at a time; one block over the
    # whole cloud gives the same bits
    D = _mixed_weight_domain()
    points = _estimate_inputs(D, 8)
    count = 2 * util.BLOCK + 5
    blocked = squeeze_estimates(D, points, count=count, seed=0)
    monkeypatch.setattr(util, "BLOCK", 1 << 30)
    whole = squeeze_estimates(D, points, count=count, seed=0)
    for a, b in zip(blocked, whole, strict=True):
        assert (a.value, a.band, a.chain.label) == (b.value, b.band, b.chain.label)


# -- exact radii on n = 2 ---------------------------------------------------------------------


EXACT_DOMAINS = {
    "quartic": GeneralEllipsoid.quartic_disc,
    "ball-2": lambda: GeneralEllipsoid.unit_ball(2),
    "3z6": lambda: GeneralEllipsoid(WeightedPolynomial(MultiWeight((3,)), {((3,), (3,)): 3.0})),
}
PROFILE_TERMS = [10, 100, 1000, 10000, 100000]


def _exact_inputs(D):
    """The profile terms j = 10 ... 10^5, then 16 points of D^{0.5,0.5}."""
    terms = [t.z for t in generate(D, "tangential", indices=PROFILE_TERMS).terms]
    return np.concatenate([terms, subdomain_grid(D, SubdomainParams(0.5, 0.5), 16, seed=0)])


def _exact_radii(D, p):
    family = chain_family(D, p)
    return family, np.sqrt(np.maximum(squeeze._exact_squares(D, family), 0.0))


def _worst_boundary_norms(D, chain, rho, theta):
    """The chain's image norm at the boundary points with a^{1/(2m)} z1 =
    rho e^{i theta}, with the phase of z2 that takes each norm lowest.

    The chain's leading automorphism maps the boundary onto itself, so the
    steps after it see every boundary point.  u is the affine step's image
    of w = (z1, |z2|); the closed form |phi_c(u)|^2 = (|u - c|^2 -
    |u_1 c_2 - u_2 c_1|^2) / |1 - <u, c>|^2 (Lagrange's identity) keeps its
    relative accuracy where the norm is small, and depends on the phase of
    u_2 only through |1 - <u, c>|, which is least when u_2 conj c_2 points
    along 1 - u_1 conj c_1.
    """
    m, ell = squeeze._slice_scale(D)
    rescale, ball = chain.steps[-2:]
    w = np.stack([rho * np.exp(1j * theta) / ell, np.sqrt(1.0 - rho ** (2 * m)) + 0j], axis=-1)
    u = rescale.apply(None, w)
    c1, c2 = ball.c
    gap = 1.0 - u[..., 0] * np.conj(c1)
    u1, u2 = u[..., 0], np.abs(u[..., 1]) * np.exp(1j * (np.angle(gap) + np.angle(c2)))
    gap = gap - u2 * np.conj(c2)
    num = np.abs(u1 - c1) ** 2 + np.abs(u2 - c2) ** 2 - np.abs(u1 * c2 - u2 * c1) ** 2
    return np.sqrt(np.maximum(num, 0.0)) / np.abs(gap)


def _dense_radius(D, chain):
    """Least image norm over a polar grid of the closed disc of z1 in the
    coordinates L z, refined by zooming a 21 x 21 box around the best point
    14 times."""
    rho, theta = np.linspace(0.0, 1.0, 201), np.linspace(-np.pi, np.pi, 361)
    d_rho, d_theta = rho[1], theta[1] - theta[0]
    grid_rho, grid_theta = np.meshgrid(rho, theta, indexing="ij")
    norms = _worst_boundary_norms(D, chain, grid_rho, grid_theta)
    k = np.unravel_index(norms.argmin(), norms.shape)
    best, at = norms[k], (grid_rho[k], grid_theta[k])
    for _ in range(14):
        grid_rho, grid_theta = np.meshgrid(
            np.clip(at[0] + d_rho * np.linspace(-1, 1, 21), 0.0, 1.0),
            at[1] + d_theta * np.linspace(-1, 1, 21), indexing="ij")
        norms = _worst_boundary_norms(D, chain, grid_rho, grid_theta)
        k = np.unravel_index(norms.argmin(), norms.shape)
        if norms[k] < best:
            best, at = norms[k], (grid_rho[k], grid_theta[k])
        d_rho, d_theta = d_rho / 5, d_theta / 5
    return float(best)


@pytest.mark.parametrize("name", EXACT_DOMAINS)
def test_exact_radii_match_dense_search(name):
    # every chain's closed-form minimum against a dense 2-D search over the
    # boundary, at the profile terms j = 10 ... 10^5 and at grid points of
    # D^{0.5,0.5}
    D = EXACT_DOMAINS[name]()
    for p in _exact_inputs(D):
        family, radii = _exact_radii(D, p)
        for chain, radius in zip(family, radii, strict=True):
            assert abs(radius - _dense_radius(D, chain)) <= 1e-10, (p, chain.label)


def test_tangent_radius_at_last_term_matches_40_digits(E):
    # at j = 10^5, 1 - |c| is 6e-7 and a form written in 1 - gamma^2 r^2
    # loses six digits; the chain's own gamma, in 40 digits, against the
    # minimum of |phi_c(u)|^2 = 1 - (1 - gamma^2)(1 - |u|^2) / (1 - gamma u_1)^2
    # over the real segment of the coordinates L z, u = ((x + m - 1)/m, sqrt(1 - x^4)/m)
    mpmath = pytest.importorskip("mpmath")
    p = generate(E, "tangential", indices=[100000]).terms[0].z
    family, radii = _exact_radii(E, p)
    assert family[2].label == "tangent"
    c1 = family[2].steps[-1].c[0]
    with mpmath.workdps(40):
        gamma = mpmath.sqrt(mpmath.mpf(c1.real) ** 2 + mpmath.mpf(c1.imag) ** 2)

        def square(x):
            u1, u2 = (x + 1) / 2, (1 - x ** 4) / 4
            return 1 - (1 - gamma ** 2) * (1 - u1 ** 2 - u2) / (1 - gamma * u1) ** 2

        lo, hi = mpmath.mpf(0), mpmath.mpf(1)
        xs = [lo + (hi - lo) * k / 1000 for k in range(1001)]
        k = min(range(1001), key=lambda i: square(xs[i]))
        lo, hi = xs[max(k - 1, 0)], xs[min(k + 1, 1000)]
        golden = (mpmath.sqrt(5) - 1) / 2
        for _ in range(200):
            a, b = hi - golden * (hi - lo), lo + golden * (hi - lo)
            lo, hi = (lo, b) if square(a) < square(b) else (a, hi)
        exact = mpmath.sqrt(square((lo + hi) / 2))
    assert abs(radii[2] - float(exact)) <= 1e-13
    assert abs(float(exact) - 0.99999688) <= 1e-8


@pytest.mark.parametrize("name", EXACT_DOMAINS)
def test_exact_radii_sit_below_explicit_norms(name):
    # each exact radius is at most the chain's explicit minimum over a cloud,
    # and at most its image norm at psi^{-1}(q), the boundary point in front
    # of the slice image b; the winner is the reported value.  At that point
    # the explicit maps round like 1e-16 / (1 - |c|), so 1e-12 / (1 - |c|)
    # bounds their error: 4e-7 for the ball's chains at j = 10^5, where
    # 1 - |c| = 2.5e-6
    D = EXACT_DOMAINS[name]()
    cloud = D.boundary_cloud(1 << 16, seed=0)
    m, ell = squeeze._slice_scale(D)
    for p in _exact_inputs(D):
        family, radii = _exact_radii(D, p)
        norm = normalize_point(D, p)
        b1 = norm.b[0]
        q = np.array([[(b1 / abs(b1) if b1 != 0 else 1.0) / ell, 0.0]], dtype=complex)
        front = norm.automorphism.inverse().apply(D.P.weights, q)
        est = squeeze_lower_bound(D, p)
        assert est.value == min(radii.max(), 1.0)
        # psi puts b on the slice, so these rows take the root solve
        assert all(chain.steps[-1].c[1] == 0 for chain in family[1:])
        for chain, radius in zip(family, radii, strict=True):
            slack = 1e-12 / (1.0 - np.linalg.norm(chain.steps[-1].c))
            assert radius <= chain_norms_at(chain, cloud).min() + 1e-12
            assert radius <= chain_norms_at(chain, front)[0] + slack
            if chain.label == est.chain.label:
                assert est.value <= chain_norms_at(chain, front)[0] + slack


@pytest.mark.parametrize("name", ["quartic", "3z6"])
def test_screened_minima_sit_above_exact_radii(name):
    # the screen reads the unmoved cloud through each chain's closing pair,
    # so on n = 2 every screened trivial and normalizing minimum lies at or
    # above the chain's exact squared radius, up to 4 ulps of rounding, at
    # the profile terms and at grid points of D^{0.5,0.5}
    D = EXACT_DOMAINS[name]()
    cloud = D.boundary_cloud(1 << 14, seed=0)
    for p in _exact_inputs(D):
        chains = chain_family(D, p)[:2]
        exact = squeeze._exact_squares(D, chains)
        pairs = [(chain.steps[-2].R, chain.steps[-1].c) for chain in chains]
        screened = squeeze._screened_squares(cloud, pairs).min(axis=1)
        assert np.all(screened >= exact - 4 * np.spacing(exact)), (p, screened, exact)


def test_screen_nears_the_quartic_normalize_radius(E):
    # at j = 10^4 the quartic's normalizing chain has exact radius 5.59e-5;
    # the unmoved 2^16-sample cloud reads 0.0991 for it, where the same
    # samples pushed through psi read 0.976
    p = generate(E, "tangential", indices=[10000]).terms[0].z
    normalize = chain_family(E, p)[1]
    assert normalize.label == "normalize"
    pair = (normalize.steps[-2].R, normalize.steps[-1].c)
    screened = squeeze._screened_squares(E.boundary_cloud(1 << 16, seed=0), [pair])
    assert abs(np.sqrt(squeeze._exact_squares(E, [normalize])[0]) - 5.59e-5) <= 1e-7
    assert np.sqrt(screened.min()) < 0.2


def _least_square_40_digits(mpmath, m, scale, shift, R, d):
    """The least value over x in [-1, 1] of the closed form of a row with
    c_2 = 0, ((d - w)^2 + d (2 - d)(1 - x^{2m}) / R^2) / (d + w (1 - d))^2
    with w = (shift - scale x) / R, in 40 digits, and the x where it is
    taken: a grid of 401 points, then a golden-section search in the
    brackets of its three best local minima.  It does not use the
    stationary polynomial."""
    with mpmath.workdps(40):
        scale, shift, R, d = (mpmath.mpf(v) for v in (scale, shift, R, d))

        def square(x):
            w = (shift - scale * x) / R
            return ((d - w) ** 2 + d * (2 - d) * (1 - x ** (2 * m)) / R ** 2) / (d + w * (1 - d)) ** 2

        xs = [mpmath.mpf(k) / 200 - 1 for k in range(401)]
        values = [square(x) for x in xs]
        local = [k for k in range(401) if values[k] <= min(values[max(k - 1, 0):k + 2])]
        best = min((values[k], xs[k]) for k in local)
        golden = (mpmath.sqrt(5) - 1) / 2
        for k in sorted(local, key=lambda k: values[k])[:3]:
            lo, hi = xs[max(k - 1, 0)], xs[min(k + 1, 400)]
            for _ in range(120):
                a, b = hi - golden * (hi - lo), lo + golden * (hi - lo)
                lo, hi = (lo, b) if square(a) < square(b) else (a, hi)
            best = min(best, (square((lo + hi) / 2), (lo + hi) / 2))
        return best


def _row(chain, ell):
    """(scale, shift, R, 1 - |c_1|) of an n = 2 chain, the row
    `squeeze._chain_rows` builds for `_exact_squares` and the slice floor."""
    return tuple(squeeze._chain_rows(ell, chain.steps[-2], chain.steps[-1].c[None])[0, :4])


@pytest.mark.parametrize("m, a", [(1, 2.0), (2, 0.5), (3, 3.0), (4, 0.5)])
def test_slice_rows_match_40_digits(m, a):
    # at a slice point every chain has c_2 = 0, so its minimum is the least
    # value at x = +-1 and the roots of the stationary polynomial S; against
    # the closed form's minimum in 40 digits with the row's own float
    # parameters, on a |z_1|^{2m} with a != 1, at c = 0 (t = 0, where S
    # loses its leading term), and where the minimum sits at an end point
    mpmath = pytest.importorskip("mpmath")
    D = GeneralEllipsoid(WeightedPolynomial(MultiWeight((m,)), {((m,), (m,)): a}))
    _, ell = squeeze._slice_scale(D)
    chains = [chain for t in (0.0, 0.5, 0.9, 0.999)
              for chain in chain_family(D, np.array([t / ell, 0.0]))]
    assert all(chain.steps[-1].c[1] == 0 for chain in chains)
    ends = 0
    for chain, square in zip(chains, squeeze._exact_squares(D, chains), strict=True):
        exact, at = _least_square_40_digits(mpmath, m, *_row(chain, ell))
        assert abs(square - exact) <= 2 ** -52, (chain.label, square, exact)
        ends += abs(at) == 1 and exact < 1
    assert ends >= 4


def test_tangent_radius_within_an_ulp(E):
    # the quartic's tangent radius at the profile terms j = 10 ... 10^5 (at
    # 10^5, 1 - |c| is 6e-7) within one float step below 1, 2^-53, of its
    # 40-digit value
    mpmath = pytest.importorskip("mpmath")
    for term in generate(E, "tangential", indices=PROFILE_TERMS).terms:
        family, radii = _exact_radii(E, term.z)
        assert family[2].label == "tangent"
        exact, _ = _least_square_40_digits(mpmath, 2, *_row(family[2], 1.0))
        with mpmath.workdps(40):
            assert abs(radii[2] - mpmath.sqrt(exact)) <= mpmath.mpf(2) ** -53, term.index


@pytest.mark.parametrize("name", EXACT_DOMAINS)
def test_tangent_chain_maps_into_the_ball(name):
    # the ball of radius m around (1 - m) q contains D in the coordinates L z
    D = EXACT_DOMAINS[name]()
    cloud = D.boundary_cloud(1 << 16, seed=0)
    for p in _exact_inputs(D):
        tangent = chain_family(D, p)[2]
        assert tangent.label == "tangent"
        assert chain_norms_at(tangent, cloud).max() <= 1.0 + 1e-12


@pytest.mark.parametrize("domain_, sup", [
    (lambda: GeneralEllipsoid.unit_ball(2), 1.0),
    # t^2 + s^2 on s^2 + t^4 = 1 is stationary at t^2 = 1/2, value 5/4
    (GeneralEllipsoid.quartic_disc, np.sqrt(1.25)),
    # P = |z_1|^4 / 16: t^2 + 1 - t^4 / 16 is stationary at t^2 = 8, outside
    # t <= 2, so the sup sits at (2, 0)
    (lambda: GeneralEllipsoid(WeightedPolynomial(MultiWeight((2,)), {((2,), (2,)): 1.0 / 16.0})),
     2.0),
], ids=["ball", "quartic", "flat-quartic"])
def test_trivial_chain_pads_the_bound(domain_, sup):
    # the trivial chain rescales by the domain's sup |z| padded by 1%, the
    # normalizing chain by the unpadded bound
    D = domain_()
    trivial, normalize = chain_family(D, np.array([0.1, 0.2j]))[:2]
    assert trivial.steps[0].R == D.bounding_radius() * squeeze.TRIVIAL_PAD
    assert trivial.steps[0].R == pytest.approx(1.01 * sup, rel=1e-12)
    assert normalize.steps[-2].R == D.bounding_radius() == pytest.approx(sup, rel=1e-12)


@pytest.mark.parametrize("name", EXACT_DOMAINS)
def test_trivial_chain_loses_on_the_slice(name):
    # the slice floor leaves the trivial chain out: at b = (t, 0) psi is the
    # identity and D lies in B(0, R_tight), inside B(0, R_pad), so by
    # Schwarz-Pick the inclusion shrinks pseudo-hyperbolic distances and the
    # trivial chain's radius stays below the normalizing chain's
    D = EXACT_DOMAINS[name]()
    _, ell = squeeze._slice_scale(D)
    tau = np.linspace(0.0, 1.0, 200, endpoint=False)
    chains = [chain for t in tau for chain in chain_family(D, np.array([t / ell, 0.0]))[:2]]
    assert [chain.label for chain in chains[:2]] == ["trivial", "normalize"]
    trivial, normalize = squeeze._exact_squares(D, chains).reshape(-1, 2).T
    assert np.all(trivial < normalize), (normalize - trivial).min()


def test_quartic_slice_floor_at_the_kink(E):
    # the quartic's slice floor sits where the normalizing and tangent radii
    # cross, at tau* = 0.59529980966733427686; the zooms reach it within
    # 2^-53 of the radii's common value there.  That value was computed in
    # 45-digit mpmath from the chains' own float parameters (R_tight =
    # bounding_radius() = 1.1180339887498953, R = 2 for the tangent
    # chain): each radius the least of its closed form over x in [-1, 1]
    # (a 401-point grid, then 200 golden-section steps around its three best
    # local minima), the crossing a 150-step bisection in tau
    exact = Fraction("0.6911080441500457898429405981987905861841")
    assert abs(Fraction(gamma_floor(E, 0.5, 0.5).value) - exact) <= Fraction(1, 2 ** 53)


@pytest.mark.parametrize("m", range(1, 7))
def test_slice_floor_is_the_checked_chains_best_radius(m):
    # the floor is evaluated on the rows of the chains `chain_family` builds
    # at its argmin, the ones it checks: min(1, the larger of the normalizing
    # and tangent exact radii there), bit for bit, on a |z_1|^{2m} with
    # a = 1 and with a != 1, where the tangent step scales z_1
    for a in (1.0, 3.0):
        D = GeneralEllipsoid(WeightedPolynomial(MultiWeight((m,)), {((m,), (m,)): a}))
        for r in (1e-3, 0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 1.0):
            rep = gamma_floor(D, 0.5, r)
            family = chain_family(D, rep.argmin)
            assert [chain.label for chain in family[1:]] == ["normalize", "tangent"]
            radii = np.sqrt(np.maximum(squeeze._exact_squares(D, family[1:]), 0.0))
            assert rep.value == min(radii.max(), 1.0), (a, r)


def test_slice_floor_matches_the_zoom():
    # on 960 floors (|z_1|^{2m}, m = 1 ... 6, a in {0.1, 0.5, 1, 3}, 40
    # values of r) the crossing search is never more than 1 ulp above the
    # grid-and-zoom search it replaced.  Where N rises from tau = 0 (a < 1,
    # m >= 2) the floor is the normalizing radius 1 / R_tight at tau = 0;
    # the zooms read it 0.66 to 1.17 ulps low, a few ulps right of 0, from
    # rounding, while the crossing search takes tau = 0 itself
    at_zero = 0
    for m in range(1, 7):
        for a in (0.1, 0.5, 1.0, 3.0):
            D = GeneralEllipsoid(WeightedPolynomial(MultiWeight((m,)), {((m,), (m,)): a}))
            exact = 1 / Fraction(D.bounding_radius())
            radii = np.linspace(0.025, 1.0, 40).tolist()
            for r, (square, _) in zip(radii, helpers.zoom_slice_floors(D, radii), strict=True):
                value, b = squeeze._slice_floor(D, r)
                zoom = float(np.sqrt(max(square, 0.0)))
                assert value <= zoom + np.spacing(zoom), (m, a, r)
                if m >= 2 and abs(Fraction(value) - exact) <= 2 * np.spacing(value):
                    at_zero += 1
                    assert b[0] == 0.0, (m, a, r)
                    assert abs(Fraction(value) - exact) <= np.spacing(value) / 2, (m, a, r)
    assert at_zero >= 90


def test_slice_floor_solves_one_point_per_step(E, monkeypatch):
    # the grid is one `_squares` call; each secant step after it evaluates
    # the normalizing and tangent rows at one tau
    rows = []
    squares = squeeze._squares

    def counting_squares(D, *table):
        rows.append(len(table[0]))
        return squares(D, *table)

    monkeypatch.setattr(squeeze, "_squares", counting_squares)
    gamma_floor(E, 0.5, 0.5)
    assert len(rows) <= 16, rows
    assert rows[0] > 2 and all(k <= 2 for k in rows[1:]), rows


def _crossing_least(N, T, grid):
    # `squeeze._crossing_least` on synthetic radii, and the sizes of its calls
    sizes = []

    def pair(tau):
        sizes.append(tau.size)
        return np.array([N(tau), T(tau)])

    return squeeze._crossing_least(pair, grid) + (sizes,)


def test_crossing_least_branches():
    grid = np.linspace(0.0, 1.0, squeeze.LEAST_GRID)
    grid = np.append(grid[grid < 0.7], 0.7)
    # one crossing between grid points: the secant meets it
    value, tau, sizes = _crossing_least(lambda t: 0.9 - t, lambda t: t, grid)
    assert abs(tau - 0.45) <= 2 * np.spacing(0.45) and abs(value - 0.45) <= 2 * np.spacing(0.45)
    assert sizes[0] == grid.size and set(sizes[1:]) == {1}
    # no crossing, F least at either end: the grid's ends, exactly
    assert _crossing_least(lambda t: 1.0 + t, lambda t: t, grid)[:2] == (1.0, 0.0)
    value, tau, sizes = _crossing_least(lambda t: 2.0 - t, lambda t: 0.5 * t, grid)
    assert (value, tau, len(sizes)) == (2.0 - 0.7, 0.7, 1)
    # two crossings, F flat between them: the secant searches both brackets,
    # and the argmin is the least tau holding the least value
    value, tau, sizes = _crossing_least(lambda t: (t - 0.35) ** 2 + 0.2,
                                        lambda t: np.full_like(t, 0.3), grid)
    assert value == 0.3 and abs(tau - (0.35 - np.sqrt(0.1))) <= 1e-15
    assert set(sizes[1:]) == {1}
    # an interior minimum with no crossing next to it (never seen on a
    # slice floor): `_least` searches the bracket around the grid's best point.
    # F rounds to 0.1 within 3e-9 of 0.3, and the least such tau is taken
    value, tau, _ = _crossing_least(lambda t: (t - 0.3) ** 2 + 0.1, lambda t: np.zeros_like(t), grid)
    assert value == 0.1 and abs(tau - 0.3) <= 1e-8


def _best_radius_on_slice(D, t):
    return np.array([est.value for est in squeeze_estimates(
        D, np.stack([t, np.zeros_like(t)], axis=-1))])


@pytest.mark.parametrize("name", EXACT_DOMAINS)
def test_slice_floor(name):
    # the n = 2 floor is the least best radius over the slice set
    # {b : b_2 = 0, P(b_1) < r}: s, the grid, the samples and the seed do
    # not enter it, it cannot rise with r, it matches a dense search over
    # the slice, and every estimate on D^{s,r} lies above it
    D = EXACT_DOMAINS[name]()
    rep = gamma_floor(D, 0.5, 0.5, grid_count=200, count=1 << 14, seed=0)
    assert rep.kind == "exact"
    assert (rep.grid_count, rep.samples) == (0, 0)
    for s, grid_count, count, seed in [(0.1, 10, 256, 3), (1.0, 400, 1 << 16, 7)]:
        other = gamma_floor(D, s, 0.5, grid_count=grid_count, count=count, seed=seed)
        assert other.value == rep.value
        assert other.argmin.tobytes() == rep.argmin.tobytes()
    # (every floor of the ball is 1 up to a few ulps of rounding)
    floors = [gamma_floor(D, 0.5, r).value for r in (1e-4, 0.01, 0.1, 0.25, 0.5, 0.75, 1.0)]
    assert all(b <= a + 1e-15 for a, b in zip(floors, floors[1:])), floors
    # a dense search over |b_1| in [0, (r/a)^{1/(2m)}], then zooms around its best point
    m, ell = squeeze._slice_scale(D)
    top = 0.5 ** (1.0 / (2 * m)) / ell
    t = np.linspace(0.0, top, 1001)
    values = _best_radius_on_slice(D, t)
    k = int(values.argmin())
    best, at, step = values[k], t[k], t[1]
    for _ in range(8):
        t = np.clip(at + step * np.linspace(-1, 1, 21), 0.0, top)
        values = _best_radius_on_slice(D, t)
        if values.min() < best:
            best, at = values.min(), t[values.argmin()]
        step /= 10
    assert abs(rep.value - best) <= 1e-9
    assert rep.value <= _best_radius_on_slice(D, rep.argmin[:1].real)[0] + 1e-15
    grid = subdomain_grid(D, SubdomainParams(0.5, 0.5), 200, seed=0)
    least = min(est.value for est in squeeze_estimates(D, grid))
    assert rep.value <= least + 1e-15
