"""Scaling method: tau oracles, frames, exact scaled tables, limit diagnostics."""

import numpy as np
import pytest

from ellsqueeze import scaling
from ellsqueeze.domain import GeneralEllipsoid
from ellsqueeze.errors import BoundedSearchError
from ellsqueeze.hermpoly import HermitianPolynomial, first_crossing
from ellsqueeze.scaling import (DefiningFunctionPoly, _translated, build_frame,
                                check_tau_normal, limit_diagnostics,
                                scale_along_normal, scaled_function, tau)
from ellsqueeze.util import complex_sphere, philox
from ellsqueeze.wpoly import quartic_disc_polynomial

from helpers import bisect_first_crossing, mixed_weight_polynomial


@pytest.fixture(scope="module")
def BALL():
    return GeneralEllipsoid.unit_ball(2).gauge


@pytest.fixture(scope="module")
def GRAPH():
    # Re(z_2) + |z_1|^4: the weighted model hypersurface
    return DefiningFunctionPoly.graph_model(quartic_disc_polynomial())


ETA_BALL = np.array([0.0, 0.9], dtype=complex)
E1 = np.array([1.0, 0.0], dtype=complex)
E2 = np.array([0.0, 1.0], dtype=complex)


def ball_tau_normal_oracle(eps):
    # max over the disk of |0.9 + lam|^2 - 0.81 along e_2 is at real lam:
    # (0.9 + r)^2 - 0.81 = eps  ->  r = -0.9 + sqrt(0.81 + eps)
    return -0.9 + np.sqrt(0.81 + eps)


# -- tau ------------------------------------------------------------------------------


def test_tau_ball_normal_direction(BALL):
    for eps in (1e-2, 1e-4, 1e-6):
        val = tau(BALL, ETA_BALL, E2, eps)
        oracle = ball_tau_normal_oracle(eps)
        assert abs(val - oracle) <= 1e-6 * oracle


def test_tau_ball_monotone_in_eps(BALL):
    vals = [tau(BALL, ETA_BALL, E2, eps) for eps in (1e-4, 1e-3, 1e-2, 1e-1)]
    assert all(b > a for a, b in zip(vals, vals[1:]))


def test_tau_graph_quartic_root(GRAPH):
    # along e_1 the restriction is |lam|^4, phase independent: tau = eps^{1/4}
    eta = np.array([0.0, -1e-3], dtype=complex)
    for eps in (1e-2, 1e-4, 1e-6):
        val = tau(GRAPH, eta, E1, eps)
        assert abs(val - eps ** 0.25) <= 1e-6 * eps ** 0.25


def test_tau_tangential_ball_direction(BALL):
    # along e_1 the restriction is |lam|^2: tau = sqrt(eps)
    val = tau(BALL, ETA_BALL, E1, 1e-4)
    assert val == pytest.approx(1e-2, rel=1e-9)


def test_tau_unbounded_direction_raises(GRAPH):
    # Re(z_2) + |z_1|^4 along e_2 with a large cap but eps never reached on
    # the negative real axis? it is reached (Re grows): use a direction with
    # identically zero restriction instead
    flat = DefiningFunctionPoly(2, {((0, 1), (0, 1)): 1.0})  # |z_2|^2 only
    eta = np.zeros(2, dtype=complex)
    with pytest.raises(BoundedSearchError):
        tau(flat, eta, E1, 0.5, cap=1e3)


def test_tau_requires_unit_direction(BALL):
    with pytest.raises(ValueError):
        tau(BALL, ETA_BALL, 2.0 * E2, 1e-2)


def test_tau_rejects_nan_direction(BALL):
    with pytest.raises(ValueError, match="unit vector"):
        tau(BALL, ETA_BALL, np.array([np.nan, 1.0], dtype=complex), 1e-2)


def test_tau_rejects_nan_eps(BALL):
    with pytest.raises(ValueError, match="eps must be positive"):
        tau(BALL, ETA_BALL, E2, np.nan)


# -- the translated table -------------------------------------------------------------


MIXED_GRAPH = DefiningFunctionPoly.graph_model(mixed_weight_polynomial())
MIXED_GAUGE = GeneralEllipsoid(mixed_weight_polynomial()).gauge


@pytest.mark.parametrize("rho, eta, eps", [
    (MIXED_GRAPH, np.array([0.0, 0.0, -1e-3]), 1e-3),
    (MIXED_GAUGE, np.array([0.3, 0.2 - 0.1j, 0.6j]), 1e-2),
], ids=["graph", "ellipsoid_off_axis"])
def test_translated_crossings_match_pointwise_bisection(rho, eta, eps):
    # every phase crossing of q(w) = rho(eta + w) - rho(eta) along e^{i phi} v
    # against bisection on pointwise evaluations of rho itself
    eta = np.asarray(eta, dtype=complex)
    base = float(rho.value(eta))
    q = _translated(rho, eta)
    phases = np.exp(1j * np.linspace(0.0, 2.0 * np.pi, 32, endpoint=False))
    for v in complex_sphere(3, 3, 11):
        rays = phases[:, None] * v
        got = first_crossing(q, rays, eps, 10.0)
        ref = bisect_first_crossing(lambda z: rho.value(eta + z) - base, rays, eps, 10.0)
        assert np.isfinite(got).all()
        np.testing.assert_allclose(got, ref, rtol=1e-12, atol=0.0)


def _count_compositions(monkeypatch):
    calls = []
    original = HermitianPolynomial.compose_affine

    def counting(self, shift, matrix):
        calls.append(np.shape(matrix))
        return original(self, shift, matrix)

    monkeypatch.setattr(HermitianPolynomial, "compose_affine", counting)
    return calls


def test_frame_composes_one_table(monkeypatch):
    calls = _count_compositions(monkeypatch)
    build_frame(MIXED_GRAPH, np.array([0.0, 0.0, -1e-3], dtype=complex), 1e-3)
    assert calls == [(3, 3)]


def test_scaling_composes_two_tables_per_base_point(monkeypatch):
    calls = _count_compositions(monkeypatch)
    etas = [np.array([0.0, 0.0, -d], dtype=complex) for d in (1e-2, 1e-3)]
    scale_along_normal(MIXED_GRAPH, etas)
    assert len(calls) == 4


# -- frames ---------------------------------------------------------------------------------


def test_frame_ball(BALL):
    eps = 1e-2
    frame = build_frame(BALL, ETA_BALL, eps)
    assert np.abs(frame.unitary @ frame.unitary.conj().T - np.eye(2)).max() <= 1e-12
    # normal column is e_2 up to a unimodular factor
    assert abs(abs(frame.unitary[1, 1]) - 1.0) <= 1e-12
    assert frame.taus[1] == pytest.approx(ball_tau_normal_oracle(eps), rel=1e-9)
    assert frame.taus[0] == pytest.approx(np.sqrt(eps), rel=1e-9)
    # touching points eta + tau_k e_k sit on the eps level set
    for k in range(2):
        point = ETA_BALL + frame.taus[k] * frame.unitary[:, k]
        lvl = float(BALL.value(point)) - float(BALL.value(ETA_BALL))
        assert lvl == pytest.approx(eps, abs=1e-8)


def test_frame_graph_model(GRAPH):
    eta = np.array([0.0, -1e-3], dtype=complex)
    frame = build_frame(GRAPH, eta, 1e-3)
    assert frame.taus[1] == pytest.approx(1e-3, rel=1e-12)
    assert frame.taus[0] == pytest.approx(1e-3 ** 0.25, rel=1e-9)
    assert np.abs(np.abs(frame.unitary) - np.eye(2)).max() <= 1e-10


def test_frame_mixed_weight_model_is_the_weighted_frame(monkeypatch):
    # on Re z_3 + P(z') with m = (2, 3) the frame is the coordinate axes and
    # each reach is (delta/a_k)^(1/(2 m_k)), so weighted homogeneity makes
    # the scaled tables equal at every level, one reach per frame vector
    lines = []
    original = scaling._tau_line

    def counting(q, v, eps, cap):
        lines.append(eps)
        return original(q, v, eps, cap)

    monkeypatch.setattr(scaling, "_tau_line", counting)
    deltas = (1e-2, 1e-3, 1e-4)
    run = scale_along_normal(MIXED_GRAPH, [np.array([0.0, 0.0, -d], dtype=complex)
                                           for d in deltas])
    assert lines == pytest.approx([d for d in deltas for _ in range(3)], rel=1e-15)
    m, a = (2, 3), (1.1, 0.9)
    for sf, delta in zip(run, deltas):
        frame = sf.frame
        mod = np.abs(frame.unitary)
        perm = np.round(mod)
        assert np.abs(mod - perm).max() <= 1e-15
        assert (perm.sum(axis=0) == 1).all() and (perm.sum(axis=1) == 1).all()
        assert perm[2, 2] == 1.0
        for k in range(2):
            axis = int(np.argmax(mod[:, k]))
            ratio = frame.taus[k] / delta ** (1.0 / (2 * m[axis]))
            assert ratio == pytest.approx((1.0 / a[axis]) ** (1.0 / (2 * m[axis])), rel=1e-12)
        assert frame.taus[2] == pytest.approx(delta, rel=1e-12)
        table, ref = sf.table.canonical, run[0].table.canonical
        assert table.keys() == ref.keys() and len(table) == 5
        assert all(abs(table[k] - ref[k]) <= 1e-12 for k in ref)
    assert not limit_diagnostics(run).diverged


def test_frame_unitary_random():
    rng = philox(6)
    # random positive-definite quadratic gauge in 3 variables
    A = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    H = A.conj().T @ A + 0.5 * np.eye(3)
    terms = {((0,) * 3, (0,) * 3): -1.0}
    for j in range(3):
        for k in range(3):
            ej = tuple(1 if i == j else 0 for i in range(3))
            ek = tuple(1 if i == k else 0 for i in range(3))
            if j == k:
                terms[(ej, ek)] = H[j, j].real
            elif ej <= ek:
                terms[(ej, ek)] = H[j, k]
    gauge = DefiningFunctionPoly(3, terms)
    eta = np.array([0.05, -0.1j, 0.2], dtype=complex)
    frame = build_frame(gauge, eta, 1e-3)
    assert np.abs(frame.unitary @ frame.unitary.conj().T - np.eye(3)).max() <= 1e-10


def test_frame_rejects_vanishing_gradient(BALL):
    with pytest.raises(ValueError):
        build_frame(BALL, np.zeros(2, dtype=complex), 1e-2)


@pytest.mark.parametrize("eps", [np.nan, 0.0, -1e-3])
def test_frame_rejects_nonpositive_eps(BALL, eps):
    with pytest.raises(ValueError, match="eps must be positive"):
        build_frame(BALL, ETA_BALL, eps)


# -- tau_n / eps band ---------------------------------------------------------------------------


def test_tau_normal_band_graph(GRAPH):
    etas = [np.array([0.0, -d], dtype=complex) for d in (1e-2, 1e-3, 1e-4)]
    epss = [1e-2, 1e-3, 1e-4]
    rep = check_tau_normal(GRAPH, etas, epss)
    assert np.allclose(rep.ratios, 1.0, rtol=1e-9)
    assert rep.passes()


def test_tau_normal_rejects_vanishing_gradient(BALL):
    with pytest.raises(ValueError, match="gradient vanishes"):
        check_tau_normal(BALL, [np.zeros(2, dtype=complex)], [1e-2])


def test_tau_normal_band_ball(BALL):
    etas = [ETA_BALL] * 5
    epss = [1e-2, 1e-3, 1e-4, 1e-5, 1e-6]
    rep = check_tau_normal(BALL, etas, epss)
    assert rep.passes(factor=2.0)
    assert rep.ratios[-1] == pytest.approx(1.0 / 1.8, rel=1e-4)


# -- scaled tables ---------------------------------------------------------------------------------


def test_scaled_value_at_origin(GRAPH):
    eta = np.array([0.0, -1e-2], dtype=complex)
    frame = build_frame(GRAPH, eta, 1e-2)
    sf = scaled_function(GRAPH, frame)
    assert sf.value_at_origin == pytest.approx(-1.0, abs=1e-9)


def test_scaled_graph_model_exact(GRAPH):
    # weighted homogeneity makes the model scale invariant: the table is
    # exactly -1 + Re(w_2) + |w_1|^4 at every level
    for delta in (1e-1, 1e-2, 1e-3, 1e-5):
        eta = np.array([0.0, -delta], dtype=complex)
        frame = build_frame(GRAPH, eta, delta)
        sf = scaled_function(GRAPH, frame)
        expected = {
            ((0, 0), (0, 0)): -1.0,
            ((0, 0), (0, 1)): 0.5,
            ((2, 0), (2, 0)): 1.0,
        }
        table = sf.table.canonical
        for key, val in expected.items():
            assert key in table
            assert abs(table[key] - val) <= 1e-10
        for key, val in table.items():
            if key not in expected:
                assert abs(val) <= 1e-10


def test_scaled_table_matches_direct_composition(BALL):
    eta = np.array([0.1j, 0.85], dtype=complex)
    eps = -float(BALL.value(eta))
    frame = build_frame(BALL, eta, eps)
    sf = scaled_function(BALL, frame)
    rng = philox(7)
    w = rng.standard_normal((100, 4))
    pts = w[:, :2] + 1j * w[:, 2:]
    # the frame map w -> eta + U diag(tau) w
    z = frame.eta + (pts * frame.taus) @ frame.unitary.T
    assert np.abs(sf.table.value(pts) - BALL.value(z) / eps).max() <= 1e-10


def test_scaled_functions_stay_plurisubharmonic(BALL, GRAPH):
    # a positive rescale composed with an affine map preserves psh: the scaled
    # tables must show a nonnegative Levi form on a sample grid
    rng = philox(9)
    grid = rng.standard_normal((64, 4))
    pts = grid[:, :2] + 1j * grid[:, 2:]
    for gauge, eta in ((BALL, np.array([0.0, 0.9], dtype=complex)),
                       (GRAPH, np.array([0.0, -1e-2], dtype=complex))):
        eps = -float(gauge.value(eta))
        sf = scaled_function(gauge, build_frame(gauge, eta, eps))
        assert float(sf.table.min_levi_eigenvalue(pts).min()) >= -1e-8


def test_scaled_hessian_bounded(BALL):
    # quadratic gauge: the scaled Hessian eigenvalues stay of order one
    eta = np.array([0.0, 1.0 - 1e-3], dtype=complex)
    eps = -float(BALL.value(eta))
    frame = build_frame(BALL, eta, eps)
    sf = scaled_function(BALL, frame)
    H = sf.table.hessian(np.zeros(2, dtype=complex))
    eigs = np.linalg.eigvalsh(H)
    assert eigs.max() <= 2.0 and eigs.min() >= 0.0


# -- limit diagnostics ----------------------------------------------------------------------------


def test_limit_graph_model_zero_drift(GRAPH):
    etas = [np.array([0.0, -d], dtype=complex) for d in (1e-2, 1e-3, 1e-4)]
    rep = limit_diagnostics(scale_along_normal(GRAPH, etas))
    assert rep.cauchy_deltas.max() <= 1e-12
    assert not rep.diverged
    assert rep.psd_min_eig >= -1e-8
    assert rep.limit_table.coefficient((2, 0), (2, 0)) == pytest.approx(1.0, abs=1e-10)


def test_limit_ball_recovers_half_plane_model(BALL):
    etas = [np.array([0.0, 1.0 - d], dtype=complex) for d in (1e-2, 1e-3, 1e-4, 1e-5)]
    rep = limit_diagnostics(scale_along_normal(BALL, etas))
    assert rep.psd_min_eig >= -1e-8
    lim = rep.limit_table
    assert lim.coefficient((0, 0), (0, 0)) == pytest.approx(-1.0, abs=1e-8)
    assert lim.coefficient((1, 0), (1, 0)) == pytest.approx(1.0, abs=1e-8)
    assert abs(lim.coefficient((0, 0), (0, 1)) - 0.5) <= 1e-4  # Re(w_2)/... drifts at O(delta)
    assert abs(lim.coefficient((0, 1), (0, 1))) <= 1e-4


def test_limit_constant_run_is_exactly_cauchy(GRAPH):
    eta = np.array([0.0, -1e-3], dtype=complex)
    frame = build_frame(GRAPH, eta, 1e-3)
    sf = scaled_function(GRAPH, frame)
    rep = limit_diagnostics([sf, sf, sf])
    assert rep.cauchy_deltas.max() == 0.0
    assert not rep.diverged


def test_limit_flags_divergence(GRAPH):
    # fabricate a run whose constant coefficient drifts without settling
    etas = [np.array([0.0, -1e-2], dtype=complex)] * 4
    run = scale_along_normal(GRAPH, etas)
    const = ((0, 0), (0, 0))
    for k, sf in enumerate(run):
        bumped = sf.table.canonical
        bumped[const] = bumped.get(const, 0.0) + float(2 ** k)
        run[k] = type(sf)(table=HermitianPolynomial(2, bumped), frame=sf.frame)
    rep = limit_diagnostics(run)
    assert rep.diverged
    assert ((0, 0), (0, 0)) in rep.diverging_keys


def test_limit_requires_three_tables(GRAPH):
    eta = np.array([0.0, -1e-2], dtype=complex)
    sf = scaled_function(GRAPH, build_frame(GRAPH, eta, 1e-2))
    with pytest.raises(ValueError):
        limit_diagnostics([sf, sf])


def test_diagnostics_csv(GRAPH, tmp_path):
    from ellsqueeze.scaling import diagnostics_to_csv
    etas = [np.array([0.0, -d], dtype=complex) for d in (1e-2, 1e-3, 1e-4)]
    rep = limit_diagnostics(scale_along_normal(GRAPH, etas))
    path = tmp_path / "diag.csv"
    diagnostics_to_csv(path, rep)
    lines = path.read_text().strip().split("\n")
    assert lines[0].startswith("key,re_j0")
    assert len(lines) == len(rep.keys) + 1
