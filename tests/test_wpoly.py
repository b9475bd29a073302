"""Weighted polynomial calculus: weights, evaluation, dilation, positivity."""

import json
import warnings
from fractions import Fraction

import numpy as np
import pytest

from ellsqueeze import domain
from ellsqueeze.errors import AdmissibilityError, PositivityError
from ellsqueeze.wpoly import (MultiWeight, WeightedPolynomial,
                              quartic_disc_polynomial, unit_ball_polynomial)

from helpers import (double_root_polynomial, fd_gradient, fd_hessian,
                     mixed_weight_polynomial, random_admissible_polynomial)


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
    assert P.eval(P.weights.dilate(1.0, z)) == pytest.approx(float(P.eval(z)), rel=1e-15)


def test_dilate_power_16():
    # m = 2: delta_16(1) = 16^{1/4}, so |delta_16(1)|^4 = 16
    P = quartic_disc_polynomial()
    value = float(P.eval(P.weights.dilate(16.0, np.array([1.0 + 0j]))))
    assert value == pytest.approx(16.0, rel=1e-12)


def test_dilate_origin():
    P = quartic_disc_polynomial()
    for t in (1e-3, 1.0, 1e3):
        assert float(P.eval(P.weights.dilate(t, np.zeros(1, dtype=complex)))) == 0.0


def test_dilate_rejects_nonpositive():
    P = quartic_disc_polynomial()
    with pytest.raises(ValueError):
        P.eval(P.weights.dilate(0.0, np.array([1.0 + 0j])))
    with pytest.raises(ValueError):
        P.weights.dilate(np.array([1.0, 0.0]), np.ones((2, 1), dtype=complex))


def test_weighted_homogeneity_property():
    rng = np.random.default_rng(7)
    for m in [(2,), (1, 3), (2, 2)]:
        P = random_admissible_polynomial(m, rng)
        for _ in range(10):
            zp = rng.standard_normal(len(m)) + 1j * rng.standard_normal(len(m))
            base = float(P.eval(zp))
            for t in (1e-3, 1e-1, 1.0, 1e1, 1e3):
                scaled = float(P.eval(P.weights.dilate(t, zp)))
                assert abs(scaled - t * base) <= 1e-10 * t * abs(base)
        # one parameter per point
        zp = rng.standard_normal((5, len(m))) + 1j * rng.standard_normal((5, len(m)))
        t = np.array([1e-3, 1e-1, 1.0, 1e1, 1e3])
        scaled = P.eval(P.weights.dilate(t, zp))
        assert np.all(np.abs(scaled - t * P.eval(zp)) <= 1e-10 * t * np.abs(P.eval(zp)))


# -- Gram certificate -------------------------------------------------------------------------


def _am_gm_table():
    return WeightedPolynomial(MultiWeight((2, 2)), {
        ((2, 0), (2, 0)): 1.0, ((0, 2), (0, 2)): 1.0, ((2, 0), (0, 2)): 0.5})


def _cross_term_2_3(a, b, c):
    return WeightedPolynomial(MultiWeight((2, 3)), {
        ((2, 0), (2, 0)): a, ((0, 3), (0, 3)): b, ((2, 0), (0, 3)): c})


CERTIFIED = {
    "quartic": quartic_disc_polynomial,
    "ball-3": lambda: unit_ball_polynomial(3),
    "E-2-3": lambda: _cross_term_2_3(1.0, 1.0, 0.0),
    "mixed-2-3": mixed_weight_polynomial,
    # the benchmark's weakest table: a = b = 0.8 and |c| = 0.1 < sqrt(ab)
    "mixed-2-3-corner": lambda: _cross_term_2_3(0.8, 0.8, 0.1 * np.exp(2.0j)),
    "am-gm": _am_gm_table,
    # coefficients 1e10 and 1e11 apart: the raw Gram matrix fails GRAM_MARGIN,
    # its unit-diagonal scaling is the identity
    "steep-2-3": lambda: _cross_term_2_3(1e10, 1.0, 0.0),
    "wide-ball": lambda: WeightedPolynomial(MultiWeight((1, 1)), {
        ((1, 0), (1, 0)): 1e-11, ((0, 1), (0, 1)): 1.0}),
    # g_1 g_2 would overflow in the first and underflow in the second
    "flat-ball-1e200": lambda: WeightedPolynomial(MultiWeight((1, 1)), {
        ((1, 0), (1, 0)): 1e200, ((0, 1), (0, 1)): 1.0}),
    "wide-ball-1e-200": lambda: WeightedPolynomial(MultiWeight((1, 1)), {
        ((1, 0), (1, 0)): 1e-200, ((0, 1), (0, 1)): 1.0}),
}


def _degenerate_product():
    # |z1 z2|^2 has no pure power and vanishes on the axes
    return WeightedPolynomial(MultiWeight((2, 2)), {((1, 1), (1, 1)): 1.0})


def _singular():
    # c = sqrt(ab): G is singular and P = |sqrt(a) z1^2 + sqrt(b) z2^3|^2
    return _cross_term_2_3(1.1, 0.9, np.sqrt(1.1 * 0.9))


def _indefinite_positive():
    # |x|^2 + |y|^2 + 2 Re(1.2 x conj y) + |x||y| with x = z1^2, y = z2^2 is at
    # least |x|^2 + |y|^2 - 1.4 |x||y| > 0, but G over (z1^2, z1 z2, z2^2) has
    # the eigenvalue 1 - 1.2 < 0
    return WeightedPolynomial(MultiWeight((2, 2)), {
        ((2, 0), (2, 0)): 1.0, ((0, 2), (0, 2)): 1.0, ((1, 1), (1, 1)): 1.0,
        ((2, 0), (0, 2)): 1.2})


@pytest.mark.parametrize("table", CERTIFIED.values(), ids=CERTIFIED.keys())
def test_certified_tables_build_domains(table):
    # a certified table builds its domain, with no numpy warning on the way
    P = table()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert np.all(P.power_floor() > 0)
        domain.GeneralEllipsoid(P)


def test_degenerate_product_declined_and_refused():
    P = _degenerate_product()
    with pytest.raises(PositivityError):
        P.power_floor()
    with pytest.raises(PositivityError):
        domain.GeneralEllipsoid(P)


def _negative_quartic():
    return WeightedPolynomial(MultiWeight((2,)), {((2,), (2,)): -1.0})


def _missing_power():
    # |z1^2|^2 on m = (2, 3) vanishes on the z2 axis
    return WeightedPolynomial(MultiWeight((2, 3)), {((2, 0), (2, 0)): 1.0})


def _overflowing_cross_term():
    # the unit-diagonal entry 1e200 / sqrt(1e-200) / sqrt(1e-200) overflows to inf
    return WeightedPolynomial(MultiWeight((1, 1)), {
        ((1, 0), (1, 0)): 1e-200, ((0, 1), (0, 1)): 1e-200, ((1, 0), (0, 1)): 1e200})


# every table the certificate declines is refused, positive (indefinite) or
# not, with no numpy warning on the way
@pytest.mark.parametrize("table", [
    _singular, _negative_quartic, _missing_power, _indefinite_positive, _overflowing_cross_term,
], ids=["singular", "negative", "missing-power", "indefinite", "cross-term-1e200"])
def test_uncertified_tables_are_refused(table):
    P = table()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(PositivityError, match="not certified positive"):
            P.power_floor()
        with pytest.raises(PositivityError, match="not certified positive"):
            domain.GeneralEllipsoid(P)


def test_singular_table_vanishes_off_the_origin():
    # P = |sqrt(a) z1^2 + sqrt(b) z2^3|^2 is zero on sqrt(a) z1^2 = -sqrt(b) z2^3,
    # (|z| = 10.6 here, each term about 9e3)
    P = _singular()
    z2 = 100.0 ** (1.0 / 3.0)
    z1 = 1j * np.sqrt(np.sqrt(0.9 / 1.1) * z2 ** 3)
    assert abs(float(P.eval(np.array([z1, z2])))) <= 1e-10
    with pytest.raises(PositivityError):
        P.power_floor()


def test_double_root_table_is_refused():
    # a sampled scan passed this table (minimum 1.5e-7 over 512 points), and
    # the domain built from it was unbounded: rho(10, 10, 0) = -1
    P = double_root_polynomial()
    assert P.eval(np.array([10.0, 10.0])) == 0.0
    with pytest.raises(PositivityError, match="not certified positive"):
        domain.GeneralEllipsoid(P)


# -- derivatives ------------------------------------------------------------------------------


def test_gradient_zero_at_origin():
    rng = np.random.default_rng(11)
    for m in [(2,), (1, 3), (3, 2)]:
        P = random_admissible_polynomial(m, rng)
        g = P.table.gradient(np.zeros(len(m), dtype=complex))
        assert np.abs(g).max() == 0.0


def test_hessian_quartic_value():
    # d^2 |z_1|^4 / dz dzbar = 4 |z_1|^2 -> 4 at z_1 = 1
    P = quartic_disc_polynomial()
    H = P.table.hessian(np.array([1.0 + 0j]))
    assert H[0, 0] == pytest.approx(4.0, abs=1e-14)


def test_hessian_exactly_hermitian():
    rng = np.random.default_rng(13)
    P = random_admissible_polynomial((1, 3), rng, ensure_positive=False)
    z = rng.standard_normal(2) + 1j * rng.standard_normal(2)
    H = P.table.hessian(z)
    assert np.array_equal(H, H.conj().T)


def test_derivatives_match_finite_differences():
    rng = np.random.default_rng(17)
    for m in [(2,), (1, 3)]:
        P = random_admissible_polynomial(m, rng)
        f = lambda z: complex(P.eval(z))
        for _ in range(8):
            z = 0.7 * (rng.standard_normal(len(m)) + 1j * rng.standard_normal(len(m)))
            g = P.table.gradient(z)
            assert np.abs(g - fd_gradient(f, z)).max() < 1e-6
            H = P.table.hessian(z)
            assert np.abs(H - fd_hessian(f, z)).max() < 1e-6


def test_hermitian_sum_realness():
    rng = np.random.default_rng(19)
    P = random_admissible_polynomial((2, 2), rng, ensure_positive=False)
    for _ in range(50):
        z = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        raw = complex(P.table.raw_sum(z))
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
