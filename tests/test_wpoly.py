"""Weighted polynomial calculus: weights, evaluation, dilation, positivity."""

import json
from fractions import Fraction

import numpy as np
import pytest

from ellsqueeze.errors import AdmissibilityError
from ellsqueeze.wpoly import (MultiWeight, WeightedPolynomial,
                              quartic_disc_polynomial, unit_ball_polynomial)

from helpers import fd_gradient, fd_hessian, random_admissible_polynomial, torus_grid_min


# -- weight arithmetic ------------------------------------------------------------


def test_weight_zero_index():
    assert MultiWeight((1, 2, 5)).weight((0, 0, 0)) == 0


def test_weight_quartic_term():
    # the |z_1|^4 table lives at K = (2) with m = (2): 2/(2*2) = 1/2
    assert MultiWeight((2,)).weight((2,)) == Fraction(1, 2)


def test_weight_mixed_exponents():
    w = MultiWeight((1, 3))
    assert w.weight((1, 0)) == Fraction(1, 2)
    assert w.weight((0, 3)) == Fraction(1, 2)
    assert w.weight((0, 1)) == Fraction(1, 6)


def test_weight_dimension_mismatch():
    with pytest.raises(AdmissibilityError):
        MultiWeight((2,)).weight((1, 0))


def test_weight_is_exact_rational():
    w = MultiWeight((3, 7))
    total = w.weight((3, 0))
    assert isinstance(total, Fraction) and total == Fraction(1, 2)


def test_multiweight_validation():
    with pytest.raises(AdmissibilityError):
        MultiWeight((0,))
    with pytest.raises(AdmissibilityError):
        MultiWeight(())


# -- admissibility and construction --------------------------------------------------


def test_inadmissible_term_rejected():
    with pytest.raises(AdmissibilityError):
        WeightedPolynomial(MultiWeight((2,)), {((1,), (1,)): 1.0})  # wt = 1/4


def test_diagonal_must_be_real():
    with pytest.raises(AdmissibilityError):
        WeightedPolynomial(MultiWeight((2,)), {((2,), (2,)): 1.0 + 0.5j})


def test_duplicate_unordered_pair_rejected():
    mw = MultiWeight((1, 3))
    with pytest.raises(AdmissibilityError):
        WeightedPolynomial(mw, {((1, 0), (0, 3)): 1j, ((0, 3), (1, 0)): -1j})


# -- evaluation ------------------------------------------------------------------------


def test_eval_at_origin_is_zero():
    P = quartic_disc_polynomial()
    assert P.eval(np.zeros((1,), dtype=complex)) == 0.0


def test_eval_quartic_half():
    # P = |z_1|^4 at the fourth root of 1/2 gives exactly the level 1/2
    P = quartic_disc_polynomial()
    val = float(P.eval(np.array([0.5 ** 0.25], dtype=complex)))
    assert val == pytest.approx(0.5, abs=1e-15)


def test_eval_conjugate_pair_cancels():
    # a_{(1,0)(0,3)} = i with conjugate partner: value 2 Re(i * 1 * 1) = 0 at (1, 1)
    P = WeightedPolynomial(MultiWeight((1, 3)), {((1, 0), (0, 3)): 1j})
    val = float(P.eval(np.array([1.0, 1.0], dtype=complex)))
    assert val == pytest.approx(0.0, abs=1e-15)


def test_eval_batch_shape():
    P = quartic_disc_polynomial()
    z = np.array([[0.3], [0.5j], [1.0 + 1.0j]])
    assert P.eval(z).shape == (3,)


# -- dilation ---------------------------------------------------------------------------


def test_dilate_identity():
    P = quartic_disc_polynomial()
    z = np.array([0.7 - 0.2j])
    assert P.weighted_dilate(1.0, z) == pytest.approx(float(P.eval(z)), rel=1e-15)


def test_dilate_power_16():
    # m = 2: delta_16(1) = 16^{1/4}, so |delta_16(1)|^4 = 16
    P = quartic_disc_polynomial()
    assert float(P.weighted_dilate(16.0, np.array([1.0 + 0j]))) == pytest.approx(16.0, rel=1e-12)


def test_dilate_origin():
    P = quartic_disc_polynomial()
    for t in (1e-3, 1.0, 1e3):
        assert float(P.weighted_dilate(t, np.zeros(1, dtype=complex))) == 0.0


def test_dilate_rejects_nonpositive():
    P = quartic_disc_polynomial()
    with pytest.raises(ValueError):
        P.weighted_dilate(0.0, np.array([1.0 + 0j]))


def test_weighted_homogeneity_property():
    rng = np.random.default_rng(7)
    for m in [(2,), (1, 3), (2, 2)]:
        P = random_admissible_polynomial(m, rng)
        for _ in range(10):
            zp = rng.standard_normal(len(m)) + 1j * rng.standard_normal(len(m))
            base = float(P.eval(zp))
            for t in (1e-3, 1e-1, 1.0, 1e1, 1e3):
                scaled = float(P.weighted_dilate(t, zp))
                assert abs(scaled - t * base) <= 1e-10 * t * abs(base)


# -- positivity -----------------------------------------------------------------------------


def test_positivity_quartic_on_circle():
    # |z_1|^4 = 1 on every unit sample, so the minimum is exactly one
    rep = quartic_disc_polynomial().positivity_scan(count=200, seed=1)
    assert rep.passed
    assert rep.min_value == pytest.approx(1.0, abs=1e-12)


def test_positivity_degenerate_product():
    # |z_1|^2 |z_2|^2 vanishes on the axes; the scan includes them and must flag it
    P = WeightedPolynomial(MultiWeight((2, 2)), {((1, 1), (1, 1)): 1.0})
    rep = P.positivity_scan(count=100, seed=0)
    assert not rep.passed
    assert rep.min_value == pytest.approx(0.0, abs=1e-15)


def test_positivity_cross_term_quartic():
    # |z_1|^4 + |z_2|^4 + Re(z_1^2 conj(z_2)^2): positive by AM-GM, torus grid agrees
    P = WeightedPolynomial(MultiWeight((2, 2)), {
        ((2, 0), (2, 0)): 1.0,
        ((0, 2), (0, 2)): 1.0,
        ((2, 0), (0, 2)): 0.5,
    })
    rep = P.positivity_scan(count=400, seed=3)
    assert rep.passed
    grid_min = torus_grid_min(P)
    assert grid_min > 0.0
    assert rep.min_value >= grid_min - 1e-9


# -- derivatives ------------------------------------------------------------------------------


def test_gradient_zero_at_origin():
    rng = np.random.default_rng(11)
    for m in [(2,), (1, 3), (3, 2)]:
        P = random_admissible_polynomial(m, rng)
        g = P.gradient(np.zeros(len(m), dtype=complex))
        assert np.abs(g).max() == 0.0


def test_hessian_quartic_value():
    # d^2 |z_1|^4 / dz dzbar = 4 |z_1|^2 -> 4 at z_1 = 1
    P = quartic_disc_polynomial()
    H = P.complex_hessian(np.array([1.0 + 0j]))
    assert H[0, 0] == pytest.approx(4.0, abs=1e-14)


def test_hessian_exactly_hermitian():
    rng = np.random.default_rng(13)
    P = random_admissible_polynomial((1, 3), rng, ensure_positive=False)
    z = rng.standard_normal(2) + 1j * rng.standard_normal(2)
    H = P.complex_hessian(z)
    assert np.array_equal(H, H.conj().T)


def test_derivatives_match_finite_differences():
    rng = np.random.default_rng(17)
    for m in [(2,), (1, 3)]:
        P = random_admissible_polynomial(m, rng)
        f = lambda z: complex(P.eval(z))
        for _ in range(8):
            z = 0.7 * (rng.standard_normal(len(m)) + 1j * rng.standard_normal(len(m)))
            g = P.gradient(z)
            assert np.abs(g - fd_gradient(f, z)).max() < 1e-6
            H = P.complex_hessian(z)
            assert np.abs(H - fd_hessian(f, z)).max() < 1e-6


def test_hermitian_sum_realness():
    rng = np.random.default_rng(19)
    P = random_admissible_polynomial((2, 2), rng, ensure_positive=False)
    for _ in range(50):
        z = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        raw = complex(P.hermitian_sum(z))
        scale = float(P.coefficient_scale(z))
        assert abs(raw.imag) <= 1e-12 * scale


# -- ingestion format -------------------------------------------------------------------------


def test_json_round_trip():
    P = WeightedPolynomial(MultiWeight((1, 3)), {
        ((1, 0), (1, 0)): 2.0,
        ((0, 3), (0, 3)): 1.5,
        ((1, 0), (0, 3)): 0.25 - 0.5j,
    })
    Q = WeightedPolynomial.from_json(json.dumps(P.to_dict()))
    rng = np.random.default_rng(23)
    z = rng.standard_normal((20, 2)) + 1j * rng.standard_normal((20, 2))
    assert np.allclose(P.eval(z), Q.eval(z), rtol=0, atol=0)


def test_ingestion_rejects_bad_dimension():
    data = {"n": 3, "m": [2], "terms": []}
    with pytest.raises(AdmissibilityError):
        WeightedPolynomial.from_dict(data)


def test_ingestion_rejects_inadmissible_term():
    data = {"n": 2, "m": [2], "terms": [{"K": [1], "L": [1], "re": 1.0, "im": 0.0}]}
    with pytest.raises(AdmissibilityError):
        WeightedPolynomial.from_dict(data)


def test_unit_ball_polynomial_is_norm_squared():
    P = unit_ball_polynomial(3)
    z = np.array([0.3 + 0.1j, -0.2j])
    assert float(P.eval(z)) == pytest.approx(float(np.vdot(z, z).real), rel=1e-15)
