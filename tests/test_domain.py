"""Ellipsoid gauge, boundary sampling, subdomains and Levi scans."""

import numpy as np
import pytest

from ellsqueeze import cli, domain, hermpoly, util
from ellsqueeze.domain import (GeneralEllipsoid, SubdomainParams, contains_sub,
                               samples_to_csv)
from ellsqueeze.errors import EllsqueezeError, EmptySampleError, PositivityError
from ellsqueeze.sequences import generate
from ellsqueeze.util import complex_sphere, fmt, philox, write_csv
from ellsqueeze.wpoly import MultiWeight, WeightedPolynomial

from helpers import fd_hessian, fd_gradient, levi_min_eig_pointwise, mixed_weight_polynomial


@pytest.fixture(scope="module")
def E():
    return GeneralEllipsoid.quartic_disc()


@pytest.fixture(scope="module")
def B():
    return GeneralEllipsoid.unit_ball(2)


DOMAINS = {
    "quartic": GeneralEllipsoid.quartic_disc,
    "ball3": lambda: GeneralEllipsoid.unit_ball(3),
    "e23": lambda: GeneralEllipsoid(WeightedPolynomial(MultiWeight((2, 3)), {
        ((2, 0), (2, 0)): 1.0, ((0, 3), (0, 3)): 1.0})),
    "mixed": lambda: GeneralEllipsoid(mixed_weight_polynomial()),
}


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


@pytest.mark.parametrize("domain", sorted(DOMAINS))
def test_rho_matches_hand_gauge(domain):
    D = DOMAINS[domain]()
    rng = philox(31)
    z = rng.standard_normal((500, D.n)) + 1j * rng.standard_normal((500, D.n))
    z = np.concatenate([z, D.boundary_cloud(500, seed=2)])
    hand = np.abs(z[:, -1]) ** 2 - 1.0 + D.P.eval(z[:, :-1])
    scale = np.abs(z[:, -1]) ** 2 + 1.0 + D.P.coefficient_scale(z[:, :-1])
    # 1e-15 relative to the sum of the absolute terms, since rho ~ 0 on the boundary
    assert np.all(np.abs(D.rho(z) - hand) <= 1e-15 * scale)


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
    # the sphere itself: unit norms to rounding, and each |u_k|^2 averages
    # 1/cdim within 2e-3, about half the Monte Carlo standard error here
    for cdim in (1, 2, 3):
        u = complex_sphere(5000, cdim, seed=0)
        assert np.abs(np.linalg.norm(u, axis=1) - 1.0).max() <= 1e-15
        assert np.abs((u.real ** 2 + u.imag ** 2).mean(axis=0) - 1.0 / cdim).max() <= 2e-3


def test_mixed_weight_boundary_matches_bisection():
    # each cloud point is Delta_s(u) = (delta_s(u'), s^(1/2) u_n) of its sphere
    # direction u, with s the zero of the increasing s -> rho(Delta_s u),
    # bisected here through rho alone
    D = GeneralEllipsoid(mixed_weight_polynomial())
    pts = D.boundary_cloud(64, seed=5)
    u = complex_sphere(64, 3, seed=5)
    powers = np.array([1.0 / (2 * mj) for mj in D.P.weights.m] + [0.5])

    def orbit(s):
        return u * s[:, None] ** powers

    lo, hi = np.zeros(64), np.ones(64)
    while (D.rho(orbit(hi)) < 0.0).any():
        hi *= 2.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        above = D.rho(orbit(mid)) >= 0.0
        lo, hi = np.where(above, lo, mid), np.where(above, mid, hi)
    ref = orbit(hi)
    assert np.abs(pts - ref).max() <= 1e-12 * np.linalg.norm(ref, axis=1).max()
    assert np.abs(D.rho(pts)).max() <= 1e-14


@pytest.mark.parametrize("name", sorted(DOMAINS))
def test_boundary_cloud_solves_no_roots(name, monkeypatch):
    # every point is a closed-form dilation of its sphere direction, so no
    # ray is solved, whichever module names the solver
    def solve(*args):
        raise AssertionError("boundary_cloud solved a ray")

    for module in (hermpoly, domain):
        monkeypatch.setattr(module, "first_crossing", solve, raising=False)
    for solver in ("_monotone_newton_root", "_smallest_positive_root"):
        monkeypatch.setattr(hermpoly, solver, solve)
    D = DOMAINS[name]()
    pts = D.boundary_cloud(1 << 12, seed=0)
    assert np.abs(D.rho(pts)).max() <= cli._TOLERANCES["boundary_residual"]


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


@pytest.mark.parametrize("name", sorted(DOMAINS))
def test_boundary_prefix_stability(name):
    # every draw is computed afresh, so each prefix is an independent draw
    D = DOMAINS[name]()
    big = D.boundary_cloud(5000, seed=3)
    sphere = complex_sphere(5000, D.n - 1, seed=3)
    for count in (1, 7, 1024, 4096, 4999):
        assert np.array_equal(big[:count], D.boundary_cloud(count, seed=3))
        assert np.array_equal(sphere[:count], complex_sphere(count, D.n - 1, seed=3))
    # another seed moves every coordinate of every point
    assert (D.boundary_cloud(5000, seed=4) != big).all()


@pytest.mark.parametrize("name", sorted(DOMAINS))
def test_boundary_cloud_blocks_are_prefix_stable(name):
    # clouds are drawn util.BLOCK rows at a time; counts on either side of
    # a block boundary are still prefixes of a larger draw, bit for bit
    D = DOMAINS[name]()
    big = D.boundary_cloud(2 * util.BLOCK + 3, seed=3)
    for count in (util.BLOCK - 1, util.BLOCK, util.BLOCK + 1, 2 * util.BLOCK + 1):
        assert big[:count].tobytes() == D.boundary_cloud(count, seed=3).tobytes()


def test_boundary_cloud_edited_in_place_leaves_next_draw_on_boundary():
    D = DOMAINS["quartic"]()
    cloud = D.boundary_cloud(64, seed=3)
    cloud *= 2.0
    pts = D.boundary_cloud(32, seed=3)
    assert np.abs(D.rho(pts)).max() <= cli._TOLERANCES["boundary_residual"]


# -- bounding radius --------------------------------------------------------------------


@pytest.mark.parametrize("a", [1e6, 1e12])
def test_bounding_radius_steep_table(a):
    # P = a |z_1|^4: the true sup |z| is about 1 + 1/(8a), reached off the
    # circle (0', e^{i theta}); the radius must cover that circle and every
    # interior point of the showcase sequence
    D = GeneralEllipsoid(WeightedPolynomial(MultiWeight((2,)), {((2,), (2,)): a}))
    assert D.bounding_radius() >= 1.0
    term = generate(D, "tangential", indices=[10 ** 4]).terms[0].z
    assert np.linalg.norm(term) < D.bounding_radius()


def _diagonal(m, coeffs):
    d = len(m)
    unit = [tuple(mj if i == j else 0 for i in range(d)) for j, mj in enumerate(m)]
    return GeneralEllipsoid(WeightedPolynomial(MultiWeight(m), {
        (K, K): a for K, a in zip(unit, coeffs)}))


# domain -> its true sup |z|^2 in closed form (mpmath numbers in, mpmath out).
# With x_j = |z_j|^2 the sup of |z|^2 = 1 + sum_j x_j - P is at the per-axis
# stationary points x_j = (a_j m_j)^(-1/(m_j - 1)) when those satisfy P <= 1,
# else on P = 1
SUP_SQUARED = {
    "quartic": (GeneralEllipsoid.quartic_disc, lambda mp: mp.mpf(5) / 4),
    "E-2-3": (DOMAINS["e23"], lambda mp: 1 + mp.mpf(1) / 4 + 2 / (3 * mp.sqrt(3))),
    # x^2 / 16 <= 1 caps x at 4, below the stationary point 8
    "flat-quartic": (lambda: _diagonal((2,), [1.0 / 16.0]), lambda mp: mp.mpf(4)),
    # |z_1|^2 / 2 + |z_2|^2 = 1 on the boundary: |z|^2 = 1 + |z_1|^2 / 2 <= 2
    "half-ball": (lambda: _diagonal((1,), [0.5]), lambda mp: mp.mpf(2)),
    # x_1 / 2 + x_2^2 <= 1, stationary x_2 = 1/2 and then x_1 = 3/2: 1 + 3/4 + 3/8
    "mixed-1-2": (lambda: _diagonal((1, 2), [0.5, 1.0]), lambda mp: mp.mpf(17) / 8),
    **{f"steep-1e{k}": (lambda k=k: _diagonal((2,), [10.0 ** k]),
                        lambda mp, k=k: 1 + 1 / (4 * mp.mpf(10) ** k))
       for k in range(0, 13, 2)},
    "ball-3": (DOMAINS["ball3"], lambda mp: mp.mpf(1)),
    # coefficients 1e10 apart, stationary x_1 = 1 / (2e10) and x_2 = 1 / sqrt(3)
    "steep-2-3": (lambda: _diagonal((2, 3), [1e10, 1.0]),
                  lambda mp: 1 + 1 / (4 * mp.mpf(10) ** 10) + 2 / (3 * mp.sqrt(3))),
    # a linear image of the unit ball: |z|^2 = 1 + (1 - a) x_1 with a x_1 <= 1
    "wide-ball": (lambda: _diagonal((1, 1), [1e-11, 1.0]), lambda mp: 1 / mp.mpf(1e-11)),
    # a x_1 <= 1 with a > 1 keeps |z|^2 <= 1; the product of the diagonal
    # coefficients over- or underflows in these two
    "flat-ball-1e200": (lambda: _diagonal((1, 1), [1e200, 1.0]), lambda mp: mp.mpf(1)),
    "wide-ball-1e-200": (lambda: _diagonal((1, 1), [1e-200, 1.0]),
                         lambda mp: 1 / mp.mpf(1e-200)),
}


@pytest.mark.parametrize("domain_, sup_squared", SUP_SQUARED.values(), ids=SUP_SQUARED.keys())
def test_bounding_radius_is_the_proved_sup(domain_, sup_squared):
    # at least the true sup and within 4 ulps of it, on tables whose
    # monomials are all pure powers
    mp = pytest.importorskip("mpmath")
    R = domain_().bounding_radius()
    with mp.workdps(50):
        true = mp.sqrt(sup_squared(mp))
        assert mp.mpf(R) >= true
        assert mp.mpf(R) - true <= 4 * np.spacing(R)


@pytest.mark.parametrize("a, b, c", [(0.8, 0.8, 0.1), (1.2, 0.9, 0.05j)])
def test_bounding_radius_covers_cross_term_tables(a, b, c):
    # the benchmark's corner m = (2, 3) tables: a boundary point of locally
    # largest norm (over |z_1|, |z_2| and the phase of z_2) stays inside the
    # radius, which overshoots it by less than 1e-3
    minimize = pytest.importorskip("scipy.optimize").minimize

    D = GeneralEllipsoid(WeightedPolynomial(MultiWeight((2, 3)), {
        ((2, 0), (2, 0)): a, ((0, 3), (0, 3)): b, ((2, 0), (0, 3)): c}))

    def slice_point(v):
        return np.array([v[0], v[1] * np.exp(1j * v[2])])

    def boundary_point(v):
        zp = slice_point(v)
        return np.append(zp, np.sqrt(max(1.0 - float(D.P.eval(zp)), 0.0)))

    inside = {"type": "ineq", "fun": lambda v: 1.0 - D.P.eval(slice_point(v))}
    best = max((minimize(lambda v: -np.linalg.norm(boundary_point(v)), start,
                         constraints=[inside], method="SLSQP", options={"ftol": 1e-14})
                for start in ([0.8, 0.8, 0.0], [0.8, 0.8, 1.0], [0.8, 0.8, 2.0])),
               key=lambda res: -res.fun)
    z = boundary_point(best.x)
    assert abs(float(D.rho(z))) <= 1e-12
    R = D.bounding_radius()
    assert np.linalg.norm(z) <= R <= (1.0 + 1e-3) * np.linalg.norm(z)


def test_chains_send_the_sup_point_into_the_ball():
    # on E(2, 3) the sup |z| is reached at |z_1|^2 = 1/2, |z_2|^2 = 3^(-1/2).
    # A chain's leading automorphism maps the boundary onto itself, so its
    # closing rescale and ball automorphism must keep every phase of that
    # boundary point in the closed unit ball; a rescale by less than the
    # sup cannot
    from ellsqueeze.squeeze import chain_family

    D = DOMAINS["e23"]()
    moduli = np.sqrt([0.5, 3.0 ** -0.5, 0.75 - 3.0 ** -1.5])
    phases = np.stack(np.meshgrid(np.linspace(0.0, 2.0 * np.pi, 64, endpoint=False),
                                  np.linspace(0.0, 2.0 * np.pi, 16, endpoint=False),
                                  np.linspace(0.0, 2.0 * np.pi, 16, endpoint=False),
                                  indexing="ij"), axis=-1).reshape(-1, 3)
    z = moduli * np.exp(1j * phases)
    assert np.abs(D.rho(z)).max() <= 1e-15
    for chain in chain_family(D, np.array([0.1, 0.05, 0.3])):
        w = z
        for step in chain.steps[-2:]:
            w = step.apply(D.P.weights, w)
        assert np.linalg.norm(w, axis=-1).max() <= 1.0, chain.label


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
    with pytest.raises(ValueError, match="gradient vanishes"):
        E.levi_min_eig(np.zeros(2, dtype=complex))
    # one vanishing gradient in a batch rejects the whole batch
    batch = np.array([[0.5, 0.5], [0.0, 0.0]], dtype=complex)
    with pytest.raises(ValueError, match="gradient vanishes"):
        E.levi_min_eig(batch)


@pytest.mark.parametrize("domain", sorted(DOMAINS))
def test_batched_levi_matches_pointwise(domain):
    D = DOMAINS[domain]()
    pts = D.boundary_cloud(300, seed=5)
    batched = D.levi_min_eig(pts)
    assert batched.shape == (300,)
    oracle = np.array([levi_min_eig_pointwise(D.P, p) for p in pts])
    assert np.abs(batched - oracle).max() <= 1e-13
    # leading batch axes are kept
    stacked = D.levi_min_eig(pts.reshape(3, 100, D.n))
    assert stacked.shape == (3, 100)
    assert np.array_equal(stacked.ravel(), batched)


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


def test_wb_scan_empty_tube_is_typed(E):
    # every boundary point has |z'| <= 1, so a tube of radius 5 keeps none
    with pytest.raises(EmptySampleError) as info:
        E.wb_scan(count=100, seed=0, exclusion=5.0)
    assert isinstance(info.value, EllsqueezeError)
    assert isinstance(info.value, ValueError)


# every n = 2 table is a |z_1|^{2m}: (a, m) of the quartic, ball:2, |z_1|^6,
# 3|z_1|^6, 0.5|z_1|^2 and |z_1|^8
SEGMENT_TABLES = [(1.0, 2), (1.0, 1), (1.0, 3), (3.0, 3), (0.5, 1), (1.0, 4)]


def _disc_table(a, m):
    return GeneralEllipsoid(WeightedPolynomial(MultiWeight((m,)), {((m,), (m,)): a}))


def _ulps(x):
    return 4 * np.spacing(abs(x))


@pytest.mark.parametrize("exclusion", [1e-3, 1e-2, 0.1, 0.5])
@pytest.mark.parametrize("a, m", SEGMENT_TABLES)
def test_n2_wb_scan_is_the_segment_minimum(a, m, exclusion):
    # the least Levi eigenvalue over a dense grid of the real segment
    # z_1 = r in [eps, a^{-1/(2m)}], z_2 = sqrt(1 - a r^{2m}), both ends
    # included, is the scan's minimum read at the two ends alone
    D = _disc_table(a, m)
    rep = D.wb_scan(exclusion=exclusion)
    assert rep.kind == "exact" and rep.tested == rep.excluded == 0
    assert len(rep.points) == len(rep.levi_values) == 2
    r = np.linspace(exclusion, a ** (-1.0 / (2 * m)), 20001)
    segment = np.column_stack([r, np.sqrt(np.maximum(1.0 - a * r ** (2 * m), 0.0))])
    least = float(D.levi_min_eig(segment.astype(np.complex128)).min())
    assert abs(rep.min_levi - least) <= _ulps(least)
    # and no boundary sample outside the tube lies below it
    cloud = D.boundary_cloud(1 << 12, seed=7)
    outside = cloud[np.abs(cloud[:, 0]) >= exclusion]
    assert len(outside) > 0
    assert D.levi_min_eig(outside).min() >= rep.min_levi - _ulps(rep.min_levi)


@pytest.mark.parametrize("exclusion", [1e-3, 1e-2, 0.1, 0.5])
@pytest.mark.parametrize("a, m", SEGMENT_TABLES)
def test_n2_wb_scan_ends_match_closed_form(a, m, exclusion):
    # at r = eps the eigenvalue is c y^alpha / (1 - y + c y^{1 + alpha}), with
    # y = a eps^{2m}, c = m^2 a^{1/m} and alpha = 1 - 1/m, here at 50 digits;
    # at z_2 = 0 it is 1
    mp = pytest.importorskip("mpmath")
    rep = _disc_table(a, m).wb_scan(exclusion=exclusion)
    with mp.workdps(50):
        y = mp.mpf(a) * mp.mpf(exclusion) ** (2 * m)
        c, alpha = m * m * mp.mpf(a) ** (mp.mpf(1) / m), 1 - mp.mpf(1) / m
        inner = float(c * y ** alpha / (1 - y + c * y ** (1 + alpha)))
    assert rep.points[1, 1] == 0.0 and rep.levi_values[1] == 1.0
    assert abs(rep.levi_values[0] - inner) <= _ulps(inner)
    assert rep.min_levi == min(rep.levi_values)


@pytest.mark.parametrize("a, m", SEGMENT_TABLES)
def test_n2_wb_scan_tube_past_the_boundary_is_typed(a, m):
    with pytest.raises(EmptySampleError):
        _disc_table(a, m).wb_scan(exclusion=1.001 * a ** (-1.0 / (2 * m)))


@pytest.mark.parametrize("a, m", [(a, m) for a, m in SEGMENT_TABLES if m >= 2])
def test_n2_wb_scan_without_tube_sees_the_weak_circle(a, m):
    # with no tube the segment reaches the weakly pseudoconvex circle z_1 = 0,
    # where the Levi form degenerates; the sampled scan never drew it
    rep = _disc_table(a, m).wb_scan(exclusion=0.0)
    assert rep.min_levi == 0.0 and not rep.passed


def test_wb_scan_sampled_on_three_variables():
    D = DOMAINS["e23"]()
    rep = D.wb_scan(count=500, seed=0)
    assert rep.kind == "sampled"
    assert rep.tested + rep.excluded == 500 and len(rep.points) == rep.tested
    assert np.array_equal(rep.levi_values, D.levi_min_eig(rep.points))


def test_degenerate_polynomial_blocks_domain():
    P = WeightedPolynomial(MultiWeight((2, 2)), {((1, 1), (1, 1)): 1.0})
    with pytest.raises(PositivityError):
        GeneralEllipsoid(P)


def test_samples_csv_schema(E, tmp_path):
    pts = E.boundary_cloud(5, seed=1)
    path = tmp_path / "samples.csv"
    samples_to_csv(path, pts, np.abs(E.rho(pts)), E.levi_min_eig(pts))
    lines = path.read_text().strip().split("\n")
    assert lines[0] == "re_z1,im_z1,re_z2,im_z2,residual,levi_min"
    assert len(lines) == 6
    assert all(line.split(",")[-1] for line in lines[1:])


def test_samples_csv_text_is_fmt(tmp_path):
    # each cell is the text util.fmt gives the float, including signed
    # zeros, non-finite values and the 17th significant digit
    pts = np.array([[complex(0.1, 0.2), complex(-0.0, 1e-300), complex(np.nan, 1.0)],
                    [complex(1.0 / 3.0, -0.0), complex(5e-324, -np.inf), complex(2.0 ** 60, 0.0)]])
    residual = np.array([0.0, 7.1e-17])
    levi = np.array([-0.0, 123456789.123456789])
    path = tmp_path / "samples.csv"
    samples_to_csv(path, pts, residual, levi)
    rows = [[fmt(x) for z in p for x in (z.real, z.imag)] + [fmt(r), fmt(v)]
            for p, r, v in zip(pts, residual, levi)]
    header = [f"{part}_z{j}" for j in (1, 2, 3) for part in ("re", "im")]
    write_csv(tmp_path / "reference.csv", header + ["residual", "levi_min"], rows)
    assert path.read_bytes() == (tmp_path / "reference.csv").read_bytes()


@pytest.mark.parametrize("count", [0, 5000])
def test_samples_csv_matches_per_row_text(E, tmp_path, count):
    # the body formatted in one call holds the bytes of one fmt line per row
    pts = E.boundary_cloud(max(count, 1), seed=3)[:count]
    residual, levi = np.abs(E.rho(pts)), E.levi_min_eig(pts)
    samples_to_csv(tmp_path / "samples.csv", pts, residual, levi)
    rows = [[fmt(x) for z in p for x in (z.real, z.imag)] + [fmt(r), fmt(v)]
            for p, r, v in zip(pts, residual, levi)]
    header = ["re_z1", "im_z1", "re_z2", "im_z2", "residual", "levi_min"]
    write_csv(tmp_path / "reference.csv", header, rows)
    assert (tmp_path / "samples.csv").read_bytes() == (tmp_path / "reference.csv").read_bytes()
