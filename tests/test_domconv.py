"""Domain-sequence convergence and the pullback exhaustion of the ellipsoid."""

import numpy as np
import pytest

from ellsqueeze.automorphisms import EllipsoidAutomorphism, pullback_coeffs
from ellsqueeze.domain import GeneralEllipsoid, SubdomainParams
from ellsqueeze.domconv import (CompactCloud, DomainOracle, check_condition_i,
                                check_condition_ii, condition_report_to_csv,
                                exhaustion_check, exhaustion_cloud,
                                exhaustion_report_to_csv, margin_certificate)
from ellsqueeze.util import philox


@pytest.fixture(scope="module")
def E():
    return GeneralEllipsoid.quartic_disc()


def _ball_cloud(radius, count, seed, margin):
    rng = philox(seed)
    x = rng.standard_normal((count, 4))
    x /= np.linalg.norm(x, axis=1)[:, None]
    x *= (radius * rng.uniform(0, 1, count) ** 0.25)[:, None]
    return CompactCloud(x[:, :2] + 1j * x[:, 2:], margin=margin)


def _pullback_sequence(E, s, a_values):
    sub = DomainOracle.from_subdomain(E, SubdomainParams(s))
    return [sub.pullback(EllipsoidAutomorphism(a=a, theta=0.0, sign=+1), E)
            for a in a_values]


# -- condition (i) --------------------------------------------------------------------


def test_constant_sequence_immediate(E):
    om0 = DomainOracle.from_ellipsoid(E)
    cloud = _ball_cloud(0.5, 200, 0, margin=0.05)
    rep = check_condition_i([om0] * 6, om0, cloud)
    assert rep.i0 == 1
    assert not rep.witnesses


def test_pullback_family_eventually_contains(E):
    # preimages of the half-scale subdomain under a -> 1 swallow a large
    # compact; early members miss it and show up as witnesses
    om0 = DomainOracle.from_ellipsoid(E)
    cloud = _ball_cloud(0.8, 400, 1, margin=0.02)
    oms = _pullback_sequence(E, 0.5, [1 - 1 / i for i in range(2, 40)])
    rep = check_condition_i(oms, om0, cloud)
    assert rep.i0 is not None and rep.i0 > 1
    assert all(i < rep.i0 for i in rep.witnesses)
    # re-check the witnesses directly against the membership oracles
    for i, pts in rep.witnesses.items():
        assert not np.asarray(oms[i - 1].contains(pts)).any()


def test_shrinking_domains_fail_with_witnesses(E):
    om0 = DomainOracle.from_ellipsoid(E)
    edge = CompactCloud(np.array([[0.0, 0.97]], dtype=complex), margin=0.005)
    shrink = [om0.scaled(1 - 1 / i) for i in range(2, 30)]
    rep = check_condition_i(shrink, om0, edge)
    assert rep.i0 is None
    assert len(rep.witnesses) > 0


def test_condition_i_rejects_cloud_outside_limit(E):
    om0 = DomainOracle.from_ellipsoid(E)
    bad = CompactCloud(np.array([[0.0, 1.5]], dtype=complex), margin=0.01)
    with pytest.raises(ValueError):
        check_condition_i([om0], om0, bad)


def test_margin_certificate_detects_boundary_hugging(E):
    om0 = DomainOracle.from_ellipsoid(E)
    hug = CompactCloud(np.array([[0.0, 0.999]], dtype=complex), margin=0.05)
    assert not margin_certificate(om0, hug)


# -- condition (ii) --------------------------------------------------------------------


def test_condition_ii_constant_pass(E):
    om0 = DomainOracle.from_ellipsoid(E)
    cloud = _ball_cloud(0.4, 100, 2, margin=0.05)
    rep = check_condition_ii([om0] * 5, om0, cloud)
    assert rep.passed and not rep.vacuous
    assert rep.inside_limit


def test_condition_ii_vacuous_when_never_contained(E):
    om0 = DomainOracle.from_ellipsoid(E)
    outside = CompactCloud(np.array([[0.0, 1.2]], dtype=complex), margin=0.0)
    rep = check_condition_ii([om0] * 5, om0, outside)
    assert rep.vacuous and rep.passed


def test_condition_ii_pullbacks(E):
    om0 = DomainOracle.from_ellipsoid(E)
    cloud = _ball_cloud(0.6, 200, 3, margin=0.02)
    oms = _pullback_sequence(E, 0.5, [1 - 2.0 ** -k for k in range(1, 12)])
    rep = check_condition_ii(oms, om0, cloud)
    assert rep.passed


def test_condition_ii_detects_limit_violation(E):
    # sequence of larger sets around a cloud that leaves the claimed limit
    big = DomainOracle.from_ellipsoid(E).scaled(2.0)
    om0 = DomainOracle.from_ellipsoid(E)
    outside = CompactCloud(np.array([[0.0, 1.2]], dtype=complex), margin=0.0)
    rep = check_condition_ii([big] * 5, om0, outside)
    assert not rep.vacuous
    assert not rep.passed
    assert len(rep.counterexamples) == 1


def test_empty_sequence_never_contains(E):
    om0 = DomainOracle.from_ellipsoid(E)
    cloud = _ball_cloud(0.4, 50, 2, margin=0.05)
    rep_i = check_condition_i([], om0, cloud)
    assert rep_i.i0 is None and not rep_i.passed and not rep_i.witnesses
    rep_ii = check_condition_ii([], om0, cloud)
    assert rep_ii.vacuous and rep_ii.since_index is None
    rep = exhaustion_check(E, s=0.5, a_grid=[], count=50)
    assert rep.first_ok_index is None and not rep.passed


def test_containment_lost_at_the_last_member(E):
    # every member but the last holds the cloud: no tail run remains
    om0 = DomainOracle.from_ellipsoid(E)
    cloud = _ball_cloud(0.4, 50, 2, margin=0.05)
    oms = [om0] * 4 + [om0.scaled(0.01)]
    rep_i = check_condition_i(oms, om0, cloud)
    assert rep_i.i0 is None and list(rep_i.witnesses) == [5]
    assert check_condition_ii(oms, om0, cloud).vacuous


# -- exhaustion ----------------------------------------------------------------------------


def test_exhaustion_cloud_avoids_south_ball(E):
    cloud = exhaustion_cloud(E, eps=0.4, count=500, seed=4)
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
    cloud = exhaustion_cloud(E, eps=0.4, count=300, seed=6)
    interior = cloud[np.asarray(E.rho(cloud) < -1e-6)]
    sp = SubdomainParams(0.5)
    for a in (0.7, 0.95):
        psi = EllipsoidAutomorphism(a=a, theta=0.0, sign=+1)
        c1, c2, c3 = pullback_coeffs(sp.b, a)
        img = psi.apply(E.P.weights, interior)
        direct = E.sub_gauge(sp, img) < 0
        pulled = (np.abs(interior[:, 1] - c1) ** 2
                  + c2 * E.P.eval(interior[:, :1])) < c3
        gap = np.abs(np.abs(interior[:, 1] - c1) ** 2
                     + c2 * E.P.eval(interior[:, :1]) - c3)
        keep = gap > 1e-12
        assert np.array_equal(direct[keep], pulled[keep])


def test_report_csv_writers(E, tmp_path):
    om0 = DomainOracle.from_ellipsoid(E)
    cloud = _ball_cloud(0.4, 50, 7, margin=0.05)
    r1 = check_condition_i([om0] * 3, om0, cloud)
    r2 = check_condition_ii([om0] * 3, om0, cloud)
    condition_report_to_csv(tmp_path / "cond.csv", r1, r2)
    rep = exhaustion_check(E, s=0.5, a_grid=[0.9, 0.99], count=100, seed=8)
    exhaustion_report_to_csv(tmp_path / "exh.csv", rep)
    assert (tmp_path / "cond.csv").read_text().startswith("index_or_a,condition,pass")
    assert (tmp_path / "exh.csv").read_text().startswith("a,fraction_inside,c1,c2,c3")
