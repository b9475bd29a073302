"""Approach sequences: generation, exact identities, tangency classification."""

from fractions import Fraction

import numpy as np
import pytest

from ellsqueeze.domain import GeneralEllipsoid, SubdomainParams, contains_sub
from ellsqueeze.sequences import (MEMBERSHIP_R_GRID, classify, generate, record_to_csv,
                                  tangency_ratio)
from ellsqueeze.wpoly import MultiWeight, WeightedPolynomial


@pytest.fixture(scope="module")
def E():
    return GeneralEllipsoid.quartic_disc()


@pytest.fixture(scope="module")
def MIXED():
    # a genuinely mixed-weight domain for the generalized identities
    P = WeightedPolynomial(MultiWeight((1, 3)), {
        ((1, 0), (1, 0)): 1.0,
        ((0, 3), (0, 3)): 1.0,
        ((1, 0), (0, 3)): 0.1 + 0.05j,
    })
    return GeneralEllipsoid(P)


# -- generation ---------------------------------------------------------------------


def test_normal_terms_inside(E):
    seq = generate(E, "normal", count=30)
    assert all(bool(E.contains(t.z)) for t in seq.terms)
    assert all(t.z[0] == 0 for t in seq.terms)


def test_tangential_reproduces_showcase(E):
    seq = generate(E, "tangential", indices=[2])
    term = seq.terms[0]
    assert term.z[0] == pytest.approx(0.5 ** 0.25, abs=1e-15)
    assert term.z[1] == pytest.approx(0.5, abs=0)
    assert term.rho_exact() == Fraction(-1, 4)


def test_tangential_exact_identities(E):
    seq = generate(E, "tangential", indices=[2, 5, 10, 1000, 10 ** 6])
    for t in seq.terms:
        j = t.index
        assert t.rho_exact() == Fraction(-1, j * j)
        assert t.p_exact == Fraction(2, j) - Fraction(2, j * j)
        assert abs(t.zn_exact - 1) == Fraction(1, j)


def test_tangential_generalizes_to_mixed_domain(MIXED):
    seq = generate(MIXED, "tangential", indices=[3, 7, 50])
    for t in seq.terms:
        j = t.index
        assert t.rho_exact() == Fraction(-1, j * j)
        # the float materialization tracks the exact levels
        p_float = float(MIXED.P.eval(t.z[:-1]))
        assert p_float == pytest.approx(float(t.p_exact), rel=1e-12)


def test_generate_validates_membership(E):
    seq = generate(E, "cone", count=25, s=0.5, ratio=0.9)
    assert all(bool(E.contains(t.z)) for t in seq.terms)


def test_generate_unknown_kind(E):
    with pytest.raises(ValueError):
        generate(E, "spiral", count=5)


# -- tangency ratio ------------------------------------------------------------------------


def test_ratio_zero_on_inner_normal(E):
    seq = generate(E, "normal", count=20)
    for t in seq.terms:
        assert tangency_ratio(E, 0.5, t) == 0.0


def test_ratio_exactly_one_for_showcase(E):
    # s * P = (1/n)(1 - 1/n) and s^2 - (1/2 - 1/n)^2 = (1/n)(1 - 1/n): ratio 1
    seq = generate(E, "tangential", indices=list(range(3, 40)) + [10 ** 4, 10 ** 6])
    for t in seq.terms:
        assert tangency_ratio(E, 0.5, t) == 1.0


def test_ratio_membership_straddle(E):
    # r* = 1 exactly: the raw inequality flips across r = 1 +- 1e-3
    seq = generate(E, "tangential", indices=[5, 17, 123])
    for t in seq.terms:
        gauge = lambda r: np.abs(t.z[1] - 0.5) ** 2 + (0.5 / r) * E.P.eval(t.z[:1]) - 0.25
        assert float(gauge(0.999)) > 0.0   # r < r*: outside
        assert float(gauge(1.001)) < 0.0   # r > r*: inside


def test_ratio_infinite_outside_scale(E):
    z = np.array([0.1, -0.9], dtype=complex)  # far from the subdomain center
    assert tangency_ratio(E, 0.5, z) == np.inf


def test_ratio_float_path_matches_exact(E):
    seq = generate(E, "tangential", indices=[10, 100])
    for t in seq.terms:
        exact = tangency_ratio(E, 0.5, t)
        floats = tangency_ratio(E, 0.5, t.z)
        assert floats == pytest.approx(exact, rel=1e-9)


def test_ratio_consistency_with_membership(E):
    seq = generate(E, "cone", count=15, s=0.5, ratio=0.37)
    for t in seq.terms:
        rstar = tangency_ratio(E, 0.5, t)
        for r in list(MEMBERSHIP_R_GRID) + [0.36, 0.38]:
            if abs(r - rstar) < 1e-9:
                continue
            member = bool(contains_sub(E, SubdomainParams(0.5, r), t.z))
            assert member == (r > rstar)


# -- classification ---------------------------------------------------------------------------


def test_normal_is_nontangential(E):
    rec = classify(E, 0.5, generate(E, "normal", count=40))
    assert rec.verdict == "nontangential"
    assert rec.r_star.max() == 0.0


def test_tangential_verdict(E):
    rec = classify(E, 0.5, generate(E, "tangential", count=40))
    assert rec.verdict == "tangential"


def test_cone_is_nontangential(E):
    rec = classify(E, 0.5, generate(E, "cone", count=40, ratio=0.5))
    assert rec.verdict == "nontangential"
    assert np.allclose(rec.r_star, 0.5, atol=1e-12)


@pytest.mark.parametrize("domain", ["quartic", "ball-3", "mixed"])
def test_membership_agrees_with_exact_ratio(E, MIXED, domain):
    # every cone term has exact r* = 0.5, itself a grid value: a term lies in
    # D^{s,r} only when r > r*, so the r = 0.5 column is empty, while the
    # floating gauge of the materialized point rounds either way at the tie
    D = {"quartic": E, "ball-3": GeneralEllipsoid.unit_ball(3), "mixed": MIXED}[domain]
    rec = classify(D, 0.5, generate(D, "cone", count=40, ratio=0.5))
    assert np.array_equal(rec.membership,
                          np.array(MEMBERSHIP_R_GRID)[None, :] > rec.r_star[:, None])
    assert not rec.membership[:, MEMBERSHIP_R_GRID.index(0.5)].any()


def test_exact_identities_in_record(E):
    rec = classify(E, 0.5, generate(E, "tangential", indices=[10, 100]))
    assert rec.abs_rho[0] == pytest.approx(1e-2, abs=0)   # |rho| = 1/n^2 at n = 10
    assert rec.normal_gap[0] == pytest.approx(0.1, abs=0)
    assert rec.p_prime[0] == pytest.approx(0.18, abs=1e-16)


def test_verdict_is_per_scale_and_resolution_qualified(E):
    # the showcase ratio at scale s is (2s - 2s/n)/(2s - 1/n):
    #  s < 1/2 -> above one (tangential), s = 1/2 -> exactly one (tangential),
    #  s > 1/2 -> rises to one from below: at 600 terms the tail sits between
    #  the two thresholds, so the honest verdict is inconclusive
    assert classify(E, 0.3, generate(E, "tangential", count=100)).verdict == "tangential"
    assert classify(E, 0.5, generate(E, "tangential", count=100)).verdict == "tangential"
    assert classify(E, 0.7, generate(E, "tangential", count=600)).verdict == "inconclusive"


def test_csv_schema(E, tmp_path):
    rec = classify(E, 0.5, generate(E, "tangential", count=5))
    path = tmp_path / "rec.csv"
    record_to_csv(path, rec)
    lines = path.read_text().strip().split("\n")
    assert lines[0] == ("j,abs_rho,normal_gap,P_prime,r_star,"
                        "in_dsr_0.25,in_dsr_0.5,in_dsr_0.75,in_dsr_0.9,in_dsr_0.99")
    assert len(lines) == 6
