"""The pullback exhaustion of the ellipsoid."""

import numpy as np
import pytest

import helpers
from ellsqueeze import util
from ellsqueeze.automorphisms import EllipsoidAutomorphism, pullback_coeffs
from ellsqueeze.domain import GeneralEllipsoid, SubdomainParams, contains_sub
from ellsqueeze.domconv import exhaustion_check, exhaustion_report_to_csv


@pytest.fixture(scope="module")
def E():
    return GeneralEllipsoid.quartic_disc()


def test_exhaustion_ignores_blocks(E, monkeypatch):
    # the boundary cloud's sphere points are drawn util.BLOCK at a time; one
    # block over the whole draw gives the same verdicts
    kwargs = dict(s=0.5, a_grid=[0.9, 0.99, 0.999, 0.9999], count=util.BLOCK, seed=4)
    blocked = exhaustion_check(E, **kwargs)
    assert blocked.cloud_size > util.BLOCK
    monkeypatch.setattr(util, "BLOCK", 1 << 30)
    whole = exhaustion_check(E, **kwargs)
    assert blocked.fractions_inside.tobytes() == whole.fractions_inside.tobytes()
    assert blocked.first_ok_index == whole.first_ok_index


@pytest.mark.parametrize("domain", [
    GeneralEllipsoid.quartic_disc,
    lambda: GeneralEllipsoid.unit_ball(2),
    lambda: GeneralEllipsoid.unit_ball(3),
    lambda: GeneralEllipsoid(helpers.mixed_weight_polynomial()),
], ids=["quartic", "ball-2", "ball-3", "mixed-2-3"])
@pytest.mark.parametrize("count", [1000, util.BLOCK + 3000])
def test_closed_form_matches_images(domain, count):
    # the closed form in |z_k|^2 and z_n gives the verdicts of the explicit
    # images psi_a(z): m = 1, 2 and 3 (a real power of lam/q), a <= 0 included
    D = domain()
    grid = [-0.6, 0.0, 0.5, 0.9, 0.99, 0.999, 0.9999, 0.99999]
    for seed in (0, 1, 2):
        rep = exhaustion_check(D, s=0.5, a_grid=grid, count=count, seed=seed)
        fractions, first, size = helpers.exhaustion_fractions_by_images(
            D, grid, eps=0.4, u_radius=0.5, count=count, seed=seed)
        assert rep.fractions_inside.tobytes() == fractions.tobytes()
        assert rep.first_ok_index == first
        assert rep.cloud_size == size


@pytest.mark.parametrize("a", [1.0, -1.0, 1.5])
def test_parameter_off_the_disc_refused(E, a):
    with pytest.raises(ValueError, match=r"\|a\| < 1"):
        exhaustion_check(E, s=0.5, a_grid=[0.5, a], count=50)


def test_empty_sequence_never_contains(E):
    rep = exhaustion_check(E, s=0.5, a_grid=[], count=50)
    assert rep.first_ok_index is None and not rep.passed


def test_containment_lost_at_the_last_member(E):
    # every parameter but the last swallows the cloud: no tail run remains
    rep = exhaustion_check(E, s=0.5, a_grid=[0.9999, 0.99999, 0.5], count=200, seed=4)
    assert list(rep.fractions_inside[:2]) == [1.0, 1.0]
    assert rep.fractions_inside[-1] < 1.0
    assert rep.first_ok_index is None and not rep.passed


# -- exhaustion ----------------------------------------------------------------------------


def test_exhaustion_cloud_avoids_south_ball(E):
    cloud = helpers.exhaustion_cloud(E, eps=0.4, count=500, seed=4)
    south = np.array([0.0, -1.0], dtype=complex)
    assert np.linalg.norm(cloud - south, axis=1).min() >= 0.4
    # cloud stays in the closed domain
    assert float(E.rho(cloud).max()) <= 1e-9


def test_exhaustion_eventually_holds(E):
    grid = [0.5, 0.9, 0.99, 0.999, 0.9999, 0.99999]
    rep = exhaustion_check(E, s=0.5, a_grid=grid, eps=0.4, u_radius=0.5,
                           count=1000, seed=4)
    assert rep.passed
    assert rep.first_ok_index is not None
    assert np.all(np.diff(rep.fractions_inside) >= -1e-12)
    # before the first full-inclusion index, some cloud point escapes
    if rep.first_ok_index > 1:
        assert rep.fractions_inside[rep.first_ok_index - 2] < 1.0


def test_exhaustion_coefficients_drift_to_limit(E):
    grid = [0.9, 0.99, 0.999]
    rep = exhaustion_check(E, s=0.5, a_grid=grid, count=200, seed=5)
    c1s, c2s, c3s = zip(*rep.coeffs)
    assert all(x > y for x, y in zip(c1s, c1s[1:]))
    assert all(x < y for x, y in zip(c2s, c2s[1:]))
    assert c3s[-1] == pytest.approx(1.0, abs=2e-3)


def test_pullback_coefficient_limit_binary_grid():
    # a = 1 - 2^{-k}: the coefficient triple converges monotonically to (0, 1, 1)
    prev = None
    for k in range(1, 31):
        trip = pullback_coeffs(0.5, 1.0 - 2.0 ** -k)
        if prev is not None:
            assert trip[0] < prev[0]
            assert trip[1] > prev[1]
            assert trip[2] > prev[2]
        prev = trip
    assert abs(prev[0]) <= 1e-6
    assert abs(prev[1] - 1.0) <= 1e-6
    assert abs(prev[2] - 1.0) <= 1e-6


def test_exhaustion_membership_matches_pullback_coeffs(E):
    # psi_a(x) in D^s iff |x_n - c1|^2 + c2 P(x') < c3 on the whole cloud
    cloud = helpers.exhaustion_cloud(E, eps=0.4, count=300, seed=6)
    interior = cloud[np.asarray(E.rho(cloud) < -1e-6)]
    sp = SubdomainParams(0.5)
    for a in (0.7, 0.95):
        psi = EllipsoidAutomorphism(a=a, theta=0.0, sign=+1)
        c1, c2, c3 = pullback_coeffs(sp.b, a)
        img = psi.apply(E.P.weights, interior)
        direct = contains_sub(E, sp, img)
        pulled = (np.abs(interior[:, 1] - c1) ** 2
                  + c2 * E.P.eval(interior[:, :1])) < c3
        gap = np.abs(np.abs(interior[:, 1] - c1) ** 2
                     + c2 * E.P.eval(interior[:, :1]) - c3)
        keep = gap > 1e-12
        assert np.array_equal(direct[keep], pulled[keep])


def test_report_csv_writers(E, tmp_path):
    rep = exhaustion_check(E, s=0.5, a_grid=[0.9, 0.99], count=100, seed=8)
    exhaustion_report_to_csv(tmp_path / "exh.csv", rep)
    assert (tmp_path / "exh.csv").read_text().startswith("a,fraction_inside,c1,c2,c3")
