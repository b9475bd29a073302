"""Core Hermitian tables: construction, calculus, affine composition, radial crossings."""

import numpy as np
import pytest

from ellsqueeze import hermpoly, scaling
from ellsqueeze.domain import GeneralEllipsoid
from ellsqueeze.errors import AdmissibilityError, BoundedSearchError
from ellsqueeze.hermpoly import HermitianPolynomial, first_crossing
from ellsqueeze.util import complex_sphere, philox
from ellsqueeze.wpoly import (MultiWeight, WeightedPolynomial, quartic_disc_polynomial,
                              unit_ball_polynomial)

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


def test_conjugate_mirror_is_stored_once():
    one = HermitianPolynomial(1, {((1,), (0,)): 0.5})
    both = HermitianPolynomial(1, {((1,), (0,)): 0.5, ((0,), (1,)): 0.5})
    z = np.array([1.0 + 0.0j])
    assert float(both.value(z)) == float(one.value(z)) == 1.0
    assert both.canonical == one.canonical


def test_non_conjugate_mirror_rejected():
    with pytest.raises(AdmissibilityError):
        HermitianPolynomial(1, {((1,), (0,)): 0.5j, ((0,), (1,)): 0.3})


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


def test_scalar_multiple():
    # scaling by a power of two is exact in every coefficient and sum
    f = _abs2_table()
    z = np.array([0.5, 0.25j])
    assert float((f * 2.0).value(z)) == 2 * float(f.value(z))
    assert float((f * (-1.0)).value(z)) == -float(f.value(z))


@pytest.mark.parametrize("coeff", [float("nan"), float("inf"), complex(1.0, float("-inf"))],
                         ids=["nan", "inf", "imaginary-inf"])
def test_non_finite_coefficient_rejected(coeff):
    with pytest.raises(AdmissibilityError, match=r"\(\(1, 0\), \(0, 1\)\) is not finite"):
        HermitianPolynomial(2, {((0, 0), (0, 0)): -1.0, ((1, 0), (0, 1)): coeff})


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
    assert first_crossing(HermitianPolynomial(2, {}), u, 1.0, 1e6).tolist() == [np.inf] * 2


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


def _diagonal_ellipsoid():
    # E(2, 3): gauge |z_3|^2 - 1 + |z_1|^4 + |z_2|^6, radial degrees 0, 2, 4, 6
    return GeneralEllipsoid(WeightedPolynomial(MultiWeight((2, 3)), {
        ((2, 0), (2, 0)): 1.0, ((0, 3), (0, 3)): 1.0}))


def test_first_crossing_touching_root_in_t_squared():
    # 1.4 |lam|^2 - |lam|^4 = q(t^2) with q(x) = 1.4 x - x^2 peaking at 0.49 at
    # x = 0.7: the double root is one of q, and t = sqrt(0.7)
    f = HermitianPolynomial(1, {((1,), (1,)): 1.4, ((2,), (2,)): -1.0})
    for level in (0.49, 0.7 * 0.7):
        got = first_crossing(f, np.array([[1.0], [1.0j]], dtype=complex), level, 1e6)
        assert got == pytest.approx([np.sqrt(0.7)] * 2, abs=1e-7)


def test_first_crossing_even_ellipsoid_matches_bisection():
    table = _diagonal_ellipsoid().gauge
    u = complex_sphere(48, table.d, seed=5)
    got = first_crossing(table, u, 0.0, 1e6)
    ref = bisect_first_crossing(table.value, u, 0.0, 1e6)
    assert np.isfinite(ref).all()
    assert np.abs(got - ref).max() <= 1e-15 * ref.max()


_POSITIVE_DIAGONAL = pytest.mark.parametrize("domain", [
    GeneralEllipsoid.quartic_disc,
    lambda: GeneralEllipsoid.unit_ball(3),
    _diagonal_ellipsoid,
], ids=["quartic", "ball-3", "E-2-3"])


def _spy_eigvals(monkeypatch):
    """Record the matrix shape of every np.linalg.eigvals call."""
    shapes = []
    eigvals = np.linalg.eigvals
    monkeypatch.setattr(np.linalg, "eigvals",
                        lambda a: shapes.append(a.shape[1:]) or eigvals(a))
    return shapes


@_POSITIVE_DIAGONAL
def test_positive_diagonal_gauges_call_no_eigvals(domain, monkeypatch):
    gauge = domain().gauge
    shapes = _spy_eigvals(monkeypatch)
    t = first_crossing(gauge, complex_sphere(16, gauge.d, seed=0), 0.0, 1e6)
    assert np.isfinite(t).all() and shapes == []


@pytest.mark.parametrize("table, level, size", [
    (lambda: GeneralEllipsoid(mixed_weight_polynomial()).gauge, 0.0, 6),
    (lambda: HermitianPolynomial(1, {((1,), (1,)): 1.4, ((2,), (2,)): -1.0}), 0.3, 4),
], ids=["mixed-2-3", "even-1.4-minus-quartic"])
def test_companion_size_is_degree(table, level, size, monkeypatch):
    # one companion row per degree, the even table's zero odd coefficients included
    table = table()
    shapes = _spy_eigvals(monkeypatch)
    first_crossing(table, complex_sphere(16, table.d, seed=0), level, 1e6)
    assert shapes == [(size, size)]


def _gauge_rays(domain):
    gauge = domain().gauge
    return gauge, complex_sphere(4096, gauge.d, seed=3), 0.0, 1e6


def _frame_axis_rays():
    # the e_2 axis line of the m = (2, 3) graph model translated to
    # eta = (0, 0, -1e-3), as `build_frame` solves it: every phase is monotone
    eps = 1e-3
    rho = scaling.DefiningFunctionPoly.graph_model(mixed_weight_polynomial())
    q = scaling._translated(rho, np.array([0.0, 0.0, -eps]))
    phases = np.linspace(0.0, 2.0 * np.pi, 4096, endpoint=False)
    return q, np.exp(1j * phases)[:, None] * np.array([0.0, 1.0, 0.0]), eps, hermpoly.RAY_CAP


@pytest.mark.parametrize("rays", [
    lambda: _gauge_rays(GeneralEllipsoid.quartic_disc),
    lambda: _gauge_rays(lambda: GeneralEllipsoid.unit_ball(3)),
    lambda: _gauge_rays(_diagonal_ellipsoid),
    lambda: _gauge_rays(lambda: GeneralEllipsoid(mixed_weight_polynomial())),
    _frame_axis_rays,
], ids=["quartic", "ball-3", "E-2-3", "mixed-2-3", "frame-axis-line"])
def test_monotone_newton_matches_companion(rays, monkeypatch):
    # the same rays, setup and polish, with the companion solve swapped in on
    # the rays that take Newton (about half of the mixed gauge's)
    table, u, level, cap = rays()
    newton, solved = hermpoly._monotone_newton_root, []
    monkeypatch.setattr(hermpoly, "_monotone_newton_root",
                        lambda q: solved.append(len(q)) or newton(q))
    got = first_crossing(table, u, level, cap)
    monkeypatch.setattr(hermpoly, "_monotone_newton_root", hermpoly._smallest_positive_root)
    ref = first_crossing(table, u, level, cap)
    assert sum(solved) > 0 and np.isfinite(ref).all()
    assert (np.abs(got - ref) <= np.spacing(ref)).all()


def test_monotone_newton_matches_bisection_on_edge_rays(monkeypatch):
    # E(2, 3) gauge |z_3|^2 - 1 + |z_1|^4 + |z_2|^6: along e_3 only |z_n|^2 and
    # along e_2 only the top-degree term rises; |u_1| = 1e-6 leaves a term near
    # zero; the diagonal ray crosses at t ~ 1.28, beyond the cap
    table = _diagonal_ellipsoid().gauge
    shapes = _spy_eigvals(monkeypatch)
    r = np.sqrt(1.0 - 1e-12)
    u = np.array([[1, 0, 0], [0, 1, 0], [0, 0, 1j], [1e-6, 0, r], [1e-6j, r, 0],
                  [r, 0, 1e-6], [1, 1, 1]], dtype=complex)
    u /= np.linalg.norm(u, axis=1, keepdims=True)
    got = first_crossing(table, u, 0.0, 1.1)
    ref = bisect_first_crossing(table.value, u, 0.0, 1.1)
    assert np.array_equal(np.isfinite(got), np.isfinite(ref))
    assert got[-1] == np.inf and np.isfinite(got[:-1]).all()
    assert np.abs(got[:-1] - ref[:-1]).max() <= 1e-15 and shapes == []


def test_monotone_newton_ray_without_positive_term_is_inf(monkeypatch):
    # |z_2|^2 + 0.5 |z_2|^4 is flat along e_1, so that ray has no positive
    # term; it cannot cross and is +inf without a solve
    table = HermitianPolynomial(2, {((0, 1), (0, 1)): 1.0, ((0, 2), (0, 2)): 0.5})
    u = np.array([[1.0, 0.0], [0.0, 1.0]], dtype=complex)
    shapes = _spy_eigvals(monkeypatch)
    with np.errstate(all="raise"):
        got = first_crossing(table, u, 1.5, 1e6)
    assert got[0] == np.inf and got[1] == pytest.approx(1.0, rel=1e-15)
    assert shapes == []


def test_monotone_newton_iteration_bound_raises(monkeypatch):
    gauge = GeneralEllipsoid.quartic_disc().gauge
    monkeypatch.setattr(hermpoly, "NEWTON_MAX_ITER", 1)
    with pytest.raises(BoundedSearchError):
        first_crossing(gauge, complex_sphere(16, gauge.d, seed=0), 0.0, 1e6)


def test_positive_ray_coefficients_take_newton(monkeypatch):
    # |z_1|^2 + |z_2|^2 + 0.2 Re(z_1 conj z_2) has a cross term, but its
    # radial coefficient 1 + 0.2 Re(u_1 conj u_2) is positive on every ray
    table = HermitianPolynomial(2, {((1, 0), (1, 0)): 1.0, ((0, 1), (0, 1)): 1.0,
                                    ((1, 0), (0, 1)): 0.1})
    u = complex_sphere(16, 2, seed=0)
    shapes = _spy_eigvals(monkeypatch)
    got = first_crossing(table, u, 1.0, 1e6)
    ref = bisect_first_crossing(table.value, u, 1.0, 1e6)
    assert shapes == [] and np.abs(got - ref).max() <= 1e-15


def _off_diagonal(extra):
    # |z_1|^2 + |z_2|^2 + 3 Re(z_1 conj z_2): the radial coefficient
    # 1 + 3 Re(u_1 conj u_2) is negative on some rays and positive on others
    return HermitianPolynomial(2, {((1, 0), (1, 0)): 1.0, ((0, 1), (0, 1)): 1.0,
                                   ((1, 0), (0, 1)): 1.5, **extra})


@pytest.mark.parametrize("table, level", [
    (_off_diagonal({((2, 0), (2, 0)): 1.0, ((0, 2), (0, 2)): 1.0}), 1.0),
    (HermitianPolynomial(2, {((1, 0), (1, 0)): 1.0, ((0, 1), (0, 1)): 1.0,
                             ((2, 0), (2, 0)): -0.1}), 0.5),
    (HermitianPolynomial(2, {((0, 0), (0, 0)): 1.0, ((1, 0), (1, 0)): 1.0,
                             ((0, 1), (0, 1)): 1.0}), 0.5),
    (_off_diagonal({}), 1.0),
], ids=["off-diagonal", "negative-diagonal", "constant-above-level", "no-rising-term"])
def test_other_tables_keep_the_companion(table, level, monkeypatch):
    # exactly the rays with radial coefficients of both signs, or a constant
    # at or above the level, go to the companion; a ray with the constant
    # below the level and no positive coefficient cannot cross and is +inf
    # unsolved.  With the |z|^4 terms the off-diagonal table's falling rays
    # rise again; without them they never rise.  A constant above the level
    # breaks first_crossing's precondition, and the companion finds no
    # positive root
    u = complex_sphere(16, 2, seed=0)
    plan = table._expand()
    radial = (table._monomials(u) * plan.C).real
    deg = (plan.A + plan.B).sum(axis=1)
    q = np.stack([radial[:, deg == k].sum(axis=1) for k in (0, 2, 4)], axis=1)
    q[:, 0] -= level
    rising, falling = (q[:, 1:] > 0.0).any(axis=1), (q[:, 1:] < 0.0).any(axis=1)
    other = (q[:, 0] >= 0.0) | (rising & falling)
    dead = (q[:, 0] < 0.0) & ~rising
    companion, rows = hermpoly._smallest_positive_root, []
    monkeypatch.setattr(hermpoly, "_smallest_positive_root",
                        lambda q: rows.append(len(q)) or companion(q))
    shapes = _spy_eigvals(monkeypatch)
    t = first_crossing(table, u, level, 1e6)
    assert rows == ([other.sum()] if other.any() else []) and len(shapes) == len(rows)
    assert (t[dead] == np.inf).all() and (other | dead).any()


@pytest.mark.parametrize("P", [
    quartic_disc_polynomial, lambda: unit_ball_polynomial(3), mixed_weight_polynomial,
], ids=["quartic", "ball-3", "mixed-2-3"])
def test_reach_lines_on_graph_models_call_no_eigvals(P, monkeypatch):
    # along the normal the ray t cos(phase) - eps has no rising term on half
    # the phases and is monotone on the rest; the tangential axes are monotone
    rho = scaling.DefiningFunctionPoly.graph_model(P())
    eta = np.zeros(rho.d, dtype=complex)
    eta[-1] = -1e-3
    shapes = _spy_eigvals(monkeypatch)
    run = scaling.scale_along_normal(rho, [eta])
    assert shapes == [] and np.isfinite(run[0].frame.taus).all()


# -- the monomial kernel against the formulas it replaced ------------------------------


def _product_formula(z, E):
    # every power z_j^E_j, then a reduction over the variables
    return np.prod(z[..., None, :] ** E, axis=-1)


def _lowered_rows(E):
    for j in range(E.shape[1]):
        Ej = E.copy()
        Ej[:, j] = np.maximum(Ej[:, j] - 1, 0)
        yield Ej


def _formula_gradient(table, z):
    plan = table._expand()
    anti = _product_formula(np.conj(z), plan.B)
    out = np.empty(z.shape, dtype=np.complex128)
    for j, Aj in enumerate(_lowered_rows(plan.A)):
        out[..., j] = (_product_formula(z, Aj) * anti) @ (plan.C * plan.A[:, j])
    return out


def _formula_hessian(table, z):
    plan = table._expand()
    holos = [_product_formula(z, Aj) for Aj in _lowered_rows(plan.A)]
    antis = [_product_formula(np.conj(z), Bk) for Bk in _lowered_rows(plan.B)]
    H = np.empty(z.shape[:-1] + (table.d, table.d), dtype=np.complex128)
    for j in range(table.d):
        for k in range(table.d):
            H[..., j, k] = (holos[j] * antis[k]) @ (plan.C * plan.A[:, j] * plan.B[:, k])
    return 0.5 * (H + np.conj(np.swapaxes(H, -1, -2)))


def _bits(a):
    # compares signed zeros too
    return np.ascontiguousarray(a).view(np.uint64)


def _translated_frame_table():
    # the table a scaling frame solves its reaches on: rho(eta + w) - rho(eta),
    # composed with compose_affine(eta, I)
    rho = scaling.DefiningFunctionPoly.graph_model(mixed_weight_polynomial())
    return scaling._translated(rho, np.array([0.0, 0.0, -1e-3]))


def _rotated_frame_table():
    # the graph-model gauge in a unitary frame at a shifted point: most of its
    # 400 monomials multiply powers of two or three variables
    rho = scaling.DefiningFunctionPoly.graph_model(mixed_weight_polynomial())
    Q = np.linalg.qr(philox(12).standard_normal((3, 3))
                     + 1j * philox(13).standard_normal((3, 3)))[0]
    return rho.compose_affine(np.array([0.0, 0.1j, -1e-3]), Q)


KERNEL_TABLES = {
    "ball-3": lambda: GeneralEllipsoid.unit_ball(3).gauge,
    "quartic": lambda: GeneralEllipsoid.quartic_disc().gauge,
    "E-2-3": lambda: GeneralEllipsoid(WeightedPolynomial(MultiWeight((2, 3)), {
        ((2, 0), (2, 0)): 1.0, ((0, 3), (0, 3)): 1.0})).gauge,
    "mixed-2-3": lambda: GeneralEllipsoid(mixed_weight_polynomial()).gauge,
    "translated-frame": _translated_frame_table,
}


def _kernel_points(d):
    rng = philox(14)
    z = rng.standard_normal((500, d)) + 1j * rng.standard_normal((500, d))
    z[:20] = 0.0
    z[20:40, 0] = -0.0
    z[40:60] = complex(-0.0, -0.0)
    z[60:80, -1] = complex(0.0, -0.0)
    z[80:100, -1] = complex(-0.0, 0.0)
    return z


@pytest.mark.parametrize("name", KERNEL_TABLES)
@pytest.mark.parametrize("shape", ["(d,)", "(1, d)", "(N, d)"])
def test_kernel_is_bit_identical_to_product_formulas(name, shape):
    # the power tables must come from np.power: numpy's vectorized z * z
    # rounds about 29% of points differently from z ** 2.  Each monomial of
    # these tables has at most one variable on each side, so the kernel's
    # vectorized products multiply by exact ones where the formula's
    # reduction does
    table = KERNEL_TABLES[name]()
    z = _kernel_points(table.d)
    points = {"(d,)": [z[i] for i in (0, 25, 45, 65, 85, 300)],
              "(1, d)": [z[i:i + 1] for i in (0, 25, 45, 65, 85, 300)],
              "(N, d)": [z]}[shape]
    plan = table._expand()
    for x in points:
        expected = _product_formula(x, plan.A) * _product_formula(np.conj(x), plan.B)
        assert np.array_equal(_bits(table._monomials(x)), _bits(expected))
        assert np.array_equal(_bits(table.value(x)), _bits((expected @ plan.C).real))
        assert np.array_equal(_bits(table.gradient(x)), _bits(_formula_gradient(table, x)))
        assert np.array_equal(_bits(table.hessian(x)), _bits(_formula_hessian(table, x)))


@pytest.mark.parametrize("name", [*KERNEL_TABLES, "rotated-frame"])
def test_kernel_monomials_are_c_contiguous(name):
    # BLAS sums the products with C in an order that depends on the layout:
    # an F-ordered array of the same monomials gives other last bits
    table = KERNEL_TABLES.get(name, _rotated_frame_table)()
    z = _kernel_points(table.d)
    assert table._monomials(z).flags.c_contiguous
    assert table._monomials(z[:1]).flags.c_contiguous


def test_kernel_products_of_several_variables_are_as_accurate():
    # a monomial with powers of two or more variables multiplies them in
    # numpy's vectorized complex product, which rounds a third of them
    # differently from the scalar product of the reduction in
    # _product_formula; against 50 digits it is no less accurate
    mpmath = pytest.importorskip("mpmath")
    table = _rotated_frame_table()
    plan = table._expand()
    z = _kernel_points(table.d)[100:120]
    kernel = table._monomials(z)
    formula = _product_formula(z, plan.A) * _product_formula(np.conj(z), plan.B)
    assert (kernel != formula).mean() > 0.1
    errors = []
    with mpmath.workdps(50):
        for x, got, old in zip(z, kernel, formula):
            x = [mpmath.mpc(complex(xj)) for xj in x]
            for a, b, g, o in zip(plan.A, plan.B, got, old):
                exact = mpmath.fprod(xj ** int(aj) * mpmath.conj(xj) ** int(bj)
                                     for xj, aj, bj in zip(x, a, b))
                errors.append([float(abs(exact - mpmath.mpc(g)) / abs(exact)),
                               float(abs(exact - mpmath.mpc(o)) / abs(exact))])
    errors = np.array(errors) / np.finfo(float).eps
    assert errors[:, 0].max() <= errors[:, 1].max()
    assert errors[:, 0].mean() <= errors[:, 1].mean()
