"""Core Hermitian tables: construction, calculus, affine composition, radial crossings."""

import numpy as np
import pytest

from ellsqueeze import hermpoly
from ellsqueeze.errors import AdmissibilityError
from ellsqueeze.hermpoly import HermitianPolynomial, first_crossing
from ellsqueeze.util import complex_sphere, philox

from helpers import (bisect_first_crossing, fd_gradient, fd_hessian,
                     mixed_weight_polynomial, random_admissible_polynomial)


def _abs2_table():
    # |z_1|^2 + 2 Re((1+i) z_1 conj(z_2)) + 3 |z_2|^2 - 1
    return HermitianPolynomial(2, {
        ((1, 0), (1, 0)): 1.0,
        ((1, 0), (0, 1)): 1.0 + 1.0j,
        ((0, 1), (0, 1)): 3.0,
        ((0, 0), (0, 0)): -1.0,
    })


def test_value_is_real_quadratic():
    f = _abs2_table()
    z = np.array([0.3 + 0.2j, -0.1 + 0.5j])
    expected = (abs(z[0]) ** 2 + 3 * abs(z[1]) ** 2 - 1
                + 2 * ((1 + 1j) * z[0] * np.conj(z[1])).real)
    assert float(f.value(z)) == pytest.approx(expected, rel=1e-15)


def test_diagonal_must_be_real():
    with pytest.raises(AdmissibilityError):
        HermitianPolynomial(1, {((1,), (1,)): 1.0j})


def test_mirrored_pairs_accumulate():
    f = HermitianPolynomial(1, {((2,), (0,)): 1.0 + 2.0j})
    g = HermitianPolynomial(1, {((0,), (2,)): 1.0 - 2.0j})
    z = np.array([0.7 - 0.4j])
    assert float(f.value(z)) == pytest.approx(float(g.value(z)), rel=1e-15)


def test_raw_sum_imaginary_is_rounding_level():
    rng = philox(0)
    f = _abs2_table()
    z = rng.standard_normal((100, 4))
    pts = z[:, :2] + 1j * z[:, 2:]
    assert np.abs(f.raw_sum(pts).imag).max() <= 1e-14


def test_gradient_matches_fd():
    f = _abs2_table()
    func = lambda z: complex(f.value(z))
    rng = philox(1)
    for _ in range(5):
        z = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        assert np.abs(f.gradient(z) - fd_gradient(func, z)).max() < 1e-6


def test_hessian_matches_fd_and_is_hermitian():
    f = _abs2_table()
    func = lambda z: complex(f.value(z))
    rng = philox(2)
    z = rng.standard_normal(2) + 1j * rng.standard_normal(2)
    H = f.hessian(z)
    assert np.array_equal(H, H.conj().T)
    assert np.abs(H - fd_hessian(func, z)).max() < 1e-6


def test_compose_affine_matches_pointwise():
    f = _abs2_table()
    rng = philox(3)
    shift = rng.standard_normal(2) + 1j * rng.standard_normal(2)
    M = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    g = f.compose_affine(shift, M)
    for _ in range(20):
        w = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        direct = float(f.value(shift + M @ w))
        composed = float(g.value(w))
        assert composed == pytest.approx(direct, rel=1e-12, abs=1e-12)


def test_compose_affine_reduces_variables():
    f = _abs2_table()
    v = np.array([[1.0], [1.0j]])  # restrict to the line z = lam * (1, i)
    g = f.compose_affine(np.zeros(2), v)
    assert g.d == 1
    lam = 0.3 - 0.8j
    assert float(g.value(np.array([lam]))) == pytest.approx(
        float(f.value(lam * np.array([1.0, 1.0j]))), rel=1e-14)


def test_degree_and_serialization_roundtrip():
    f = HermitianPolynomial(2, {((2, 0), (0, 1)): 2.0 - 1.0j, ((0, 0), (0, 0)): 0.5})
    assert f.degree() == 3
    g = HermitianPolynomial.from_dict(f.to_dict())
    rng = philox(4)
    z = rng.standard_normal((10, 4))
    pts = z[:, :2] + 1j * z[:, 2:]
    assert np.array_equal(f.value(pts), g.value(pts))


def test_addition_and_scaling():
    f = _abs2_table()
    g = f + f * (-1.0)
    z = np.array([0.5, 0.25j])
    assert float(g.value(z)) == 0.0
    h = f * 2.0 + 1.0
    assert float(h.value(z)) == pytest.approx(2 * float(f.value(z)) + 1.0, rel=1e-15)


def test_min_levi_eigenvalue_quadratic():
    f = _abs2_table()
    # Hessian [[1, 1+i], [1-i, 3]]: eigenvalues 2 +- sqrt(3)
    z = np.zeros((1, 2), dtype=complex)
    assert float(f.min_levi_eigenvalue(z)[0]) == pytest.approx(2 - np.sqrt(3), rel=1e-12)


# -- radial first crossings ----------------------------------------------------------


@pytest.mark.parametrize("m", [(2,), (1, 3), (2, 2), (3, 1), None],
                         ids=["2", "1-3", "2-2", "3-1", "benchmark-2-3"])
def test_first_crossing_matches_bisection(m):
    # P(0) = 0 and P > 0 off the origin: every ray reaches the level set {P = 1}
    table = mixed_weight_polynomial().table if m is None else \
        random_admissible_polynomial(m, philox(sum(m))).table
    u = complex_sphere(48, table.d, seed=7)
    got = first_crossing(table, u, 1.0, 1e6)
    ref = bisect_first_crossing(table.value, u, 1.0, 1e6)
    assert np.isfinite(ref).all()
    # the Newton polish brings each root to within a few ulps of the reference
    assert np.abs(got - ref).max() <= 1e-15 * ref.max()


def test_first_crossing_flat_direction_and_cap():
    # |z_2|^2 is flat along e_1 and reaches 1/4 at t = 1/2 along e_2
    flat = HermitianPolynomial(2, {((0, 1), (0, 1)): 1.0})
    u = np.array([[1.0, 0.0], [0.0, 1.0]], dtype=complex)
    got = first_crossing(flat, u, 0.25, 1e6)
    assert got[0] == np.inf and got[1] == pytest.approx(0.5, rel=1e-15)
    # the root t = 2 lies beyond a cap of 1.5
    ball = HermitianPolynomial(2, {((1, 0), (1, 0)): 1.0, ((0, 1), (0, 1)): 1.0})
    assert first_crossing(ball, u, 4.0, 1.5).tolist() == [np.inf, np.inf]
    assert first_crossing(ball, u, 4.0, 3.0) == pytest.approx([2.0, 2.0], rel=1e-15)
    # a table with no radial terms at all
    assert first_crossing(HermitianPolynomial.zero(2), u, 1.0, 1e6).tolist() == [np.inf] * 2


def test_first_crossing_touching_root_counts():
    # 1.4 Re(lam) - |lam|^2 peaks at 0.49 at lam = 0.7 and stays negative on
    # lam < 0; rounding splits the double root into two close real roots or
    # a nearly real pair, and a Newton step from the flat peak would overshoot
    f = HermitianPolynomial(1, {((1,), (0,)): 0.7, ((1,), (1,)): -1.0})
    for level in (0.49, 0.7 * 0.7):
        got = first_crossing(f, np.array([[1.0], [-1.0]], dtype=complex), level, 1e6)
        assert got[0] == pytest.approx(0.7, abs=1e-7) and got[1] == np.inf


def test_first_crossing_takes_the_first_of_two_roots():
    # 4 Re(lam) - |lam|^2 - 3 = -(t - 1)(t - 3) on the positive real ray
    f = HermitianPolynomial(1, {((1,), (0,)): 2.0, ((1,), (1,)): -1.0})
    got = first_crossing(f, np.array([[1.0]], dtype=complex), 3.0, 1e6)
    assert got[0] == pytest.approx(1.0, rel=1e-15)


def test_first_crossing_blocks_are_independent(monkeypatch):
    table = mixed_weight_polynomial().table
    u = complex_sphere(50, 2, seed=1)
    whole = first_crossing(table, u, 1.0, 1e6)
    monkeypatch.setattr(hermpoly, "CROSSING_BLOCK", 7)
    np.testing.assert_allclose(first_crossing(table, u, 1.0, 1e6), whole, rtol=1e-14)
