"""Acceptance suite: one test per release criterion, tolerances pinned inline.

Run with `pytest -s tests/test_acceptance.py` to see the per-criterion
PASS lines.  Sample counts and seeds are fixed so every number here is
reproducible bit for bit.
"""

import time
from fractions import Fraction

import numpy as np
import pytest

from ellsqueeze.automorphisms import (EllipsoidAutomorphism, normalize_point,
                                      pullback_coeffs)
from ellsqueeze.domain import GeneralEllipsoid
from ellsqueeze.scaling import (DefiningFunctionPoly, build_frame,
                                check_tau_normal, limit_diagnostics,
                                scale_along_normal, scaled_function, tau)
from ellsqueeze.sequences import classify, generate, tangency_ratio
from ellsqueeze.squeeze import (BallAutomorphism, EmbeddingChain, Rescale,
                                gamma_floor, squeeze_lower_bound)
from ellsqueeze.util import philox
from ellsqueeze.wpoly import quartic_disc_polynomial

from helpers import (chain_norms_at, fd_gradient, fd_hessian,
                     random_admissible_polynomial)

# log-spaced indices 2 ... 10^6 shared by the sequence criteria
LOG_INDICES = [2, 3, 5, 10, 32, 100, 316, 1000, 3162, 10000, 100000, 1000000]


@pytest.fixture(scope="module")
def E():
    return GeneralEllipsoid.quartic_disc()


@pytest.fixture(scope="module")
def B():
    return GeneralEllipsoid.unit_ball(2)


def _report(num, text):
    print(f"\n[ACCEPTANCE {num:2d}] PASS  {text}")


def test_01_showcase_sequence_exactness(E):
    """rho(a_n) = -1/n^2 (1e-12 rel); gap and slice level exact in doubles; < 1 s."""
    start = time.perf_counter()
    seq = generate(E, "tangential", indices=LOG_INDICES)
    for term in seq.terms:
        n = term.index
        rho = float(term.rho_exact())
        assert abs(rho + 1.0 / n ** 2) <= 1e-12 / n ** 2
        # correctly rounded doubles of the exact rationals
        assert float(abs(term.zn_exact - 1)) == float(Fraction(1, n))
        assert float(term.p_exact) == float(Fraction(2, n) - Fraction(2, n * n))
        # float materialization tracks the exact level
        assert float(E.P.eval(term.z[:-1])) == pytest.approx(
            float(term.p_exact), rel=1e-12)
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    _report(1, f"exact identities over n in {{2..1e6}} ({elapsed * 1e3:.0f} ms)")


def test_02_tangency_ratio_and_verdicts(E):
    """r* = 1 +- 1e-10 at s = 1/2 for n >= 3; tangential vs normal verdicts."""
    seq = generate(E, "tangential", indices=[n for n in LOG_INDICES if n >= 3])
    for term in seq.terms:
        assert abs(tangency_ratio(E, 0.5, term) - 1.0) <= 1e-10
    rec_t = classify(E, 0.5, generate(E, "tangential", count=40))
    assert rec_t.verdict == "tangential"
    rec_n = classify(E, 0.5, generate(E, "normal", count=40))
    assert rec_n.verdict == "nontangential"
    assert rec_n.r_star.max() == 0.0
    _report(2, "tangency ratio exactly 1; verdicts tangential / nontangential")


def test_03_normalization_mechanism(E):
    """P(b_n') matches (2/n - 2/n^2)/(2/n - 1/n^2) to 1e-12 and rises to 1."""
    # 1e-12 agreement where double cancellation stays below the tolerance
    for n in (10, 100, 1000, 10000):
        q = np.array([(2 / n - 2 / n ** 2) ** 0.25, 1 - 1 / n], dtype=complex)
        res = normalize_point(E, q)
        value = float(E.P.eval(res.b[:1]))
        closed = (2 / n - 2 / n ** 2) / (2 / n - 1 / n ** 2)
        assert abs(value - closed) <= 1e-12
        if n == 10:
            assert abs(value - 0.9474) <= 1e-4
    # monotone approach to one along the log grid
    seq = generate(E, "tangential", indices=[n for n in LOG_INDICES if n >= 3])
    values = []
    for term in seq.terms:
        res = normalize_point(E, term.z)
        values.append(float(E.P.eval(res.b[:-1])))
    assert all(b > a for a, b in zip(values, values[1:]))
    assert values[-1] > 1.0 - 1e-5
    _report(3, f"slice levels match closed form; P(b') reaches {values[-1]:.6f}")


def test_04_pullback_coefficient_limits():
    """(c1,c2,c3)(0.5, 1-2^-30) within 1e-6 of (0,1,1); closed values at a=0.9."""
    c1, c2, c3 = pullback_coeffs(0.5, 1.0 - 2.0 ** -30)
    assert abs(c1) <= 1e-6 and abs(c2 - 1) <= 1e-6 and abs(c3 - 1) <= 1e-6
    c1, c2, c3 = pullback_coeffs(0.5, 0.9)
    assert abs(c1 - 0.05) <= 1e-12
    assert abs(c2 - 0.95) <= 1e-12
    assert abs(c3 - 0.9025) <= 1e-12
    _report(4, "pullback coefficients hit (0.05, 0.95, 0.9025) and drift to (0, 1, 1)")


def test_05_ball_calibration(B):
    """sigma-hat = 1 +- 1e-3 at 20 random ball points, 1e5 samples, < 10 s."""
    start = time.perf_counter()
    rng = philox(42)
    worst = 1.0
    for _ in range(20):
        x = rng.standard_normal(4)
        x /= np.linalg.norm(x)
        p = x * rng.uniform(0.0, 1.0) ** 0.25
        est = squeeze_lower_bound(B, p[:2] + 1j * p[2:], count=100000, seed=0)
        assert abs(est.value - 1.0) <= 1e-3
        assert est.value <= 1.0
        worst = min(worst, est.value)
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
    _report(5, f"ball estimates within {1 - worst:.2e} of 1 ({elapsed:.1f} s)")


def test_06_squeezing_trend(E):
    """Non-decreasing sigma-hat along the showcase sequence, fixed seeds."""
    seq = generate(E, "tangential", indices=[10, 100, 1000, 10000])
    values = []
    for term in seq.terms:
        est = squeeze_lower_bound(E, term.z, count=1 << 16, seed=0)
        values.append(est.value)
    assert all(b >= a for a, b in zip(values, values[1:])), values
    assert values[-1] > values[0]
    # the limit value 1 is asymptotic; the finite-n bar is 90% of the same
    # estimator's calibration at the slice image of the last point
    res = normalize_point(E, seq.terms[-1].z)
    cal = squeeze_lower_bound(E, res.b, count=1 << 16, seed=0)
    assert values[-1] >= 0.9 * cal.value
    _report(6, "trend " + " <= ".join(f"{v:.3f}" for v in values)
            + f"; floor 0.9*cal = {0.9 * cal.value:.3f}")


def test_07_subdomain_floor(E):
    """Positive floor on the half-scale subdomain grid; monotone in r."""
    floor_half = gamma_floor(E, 0.5, 0.5, grid_count=200, count=1 << 13, seed=0)
    assert floor_half.value > 0.0
    floor_small = gamma_floor(E, 0.5, 0.25, grid_count=200, count=1 << 13, seed=0)
    floor_large = gamma_floor(E, 0.5, 0.75, grid_count=200, count=1 << 13, seed=0)
    assert floor_small.value >= floor_large.value - 1e-3
    _report(7, f"floors r=0.25/0.5/0.75: {floor_small.value:.3f} / "
            f"{floor_half.value:.3f} / {floor_large.value:.3f}")


def test_08_tau_oracles():
    """Ball and graph-model reach radii against closed forms; stable band."""
    ball = GeneralEllipsoid.unit_ball(2).gauge
    eta = np.array([0.0, 0.9], dtype=complex)
    e2 = np.array([0.0, 1.0], dtype=complex)
    for eps in (1e-2, 1e-4, 1e-6):
        val = tau(ball, eta, e2, eps)
        oracle = -0.9 + np.sqrt(0.81 + eps)
        assert abs(val - oracle) <= 1e-6 * oracle
    graph = DefiningFunctionPoly.graph_model(quartic_disc_polynomial())
    geta = np.array([0.0, -1e-3], dtype=complex)
    e1 = np.array([1.0, 0.0], dtype=complex)
    for eps in (1e-2, 1e-4, 1e-6):
        val = tau(graph, geta, e1, eps)
        assert abs(val - eps ** 0.25) <= 1e-6 * eps ** 0.25
    sweep = [1e-2, 1e-3, 1e-4, 1e-5, 1e-6]
    band = check_tau_normal(ball, [eta] * len(sweep), sweep)
    assert band.passes(factor=2.0)
    _report(8, f"tau oracles to 1e-6; normal band factor {band.stable_factor:.3f} <= 2")


def test_09_scaling_limit_recovery():
    """Scaled graph-model tables exactly -1 + Re(w_2) + |w_1|^4 at every level."""
    graph = DefiningFunctionPoly.graph_model(quartic_disc_polynomial())
    expected = {((0, 0), (0, 0)): -1.0, ((0, 0), (0, 1)): 0.5, ((2, 0), (2, 0)): 1.0}
    etas = [np.array([0.0, -d], dtype=complex) for d in (1e-1, 1e-2, 1e-3, 1e-4, 1e-5)]
    run = scale_along_normal(graph, etas)
    for sf in run:
        table = sf.table.canonical
        for key, val in expected.items():
            assert abs(table[key] - val) <= 1e-10
        for key, val in table.items():
            if key not in expected:
                assert abs(val) <= 1e-10
    rep = limit_diagnostics(run)
    assert rep.cauchy_deltas.max() <= 1e-12
    assert rep.psd_min_eig >= -1e-8
    _report(9, f"exact model tables; Cauchy drift {rep.cauchy_deltas.max():.1e}, "
            f"Levi min eig {rep.psd_min_eig:.1e}")


def test_10_property_suites(E, B):
    """Seeded randomized property sweeps, all inside a two-minute budget."""
    start = time.perf_counter()
    rng = philox(4242)

    # weighted homogeneity and Hermitian realness: 1000 seeded (P, z') pairs
    polys = [random_admissible_polynomial(m, rng, ensure_positive=False)
             for m in ((2,), (1, 3), (2, 2), (3, 1)) for _ in range(25)]
    for P in polys:
        d = len(P.weights.m)
        zs = rng.standard_normal((10, d)) + 1j * rng.standard_normal((10, d))
        raw = P.table.raw_sum(zs)
        scale = P.coefficient_scale(zs)
        assert np.all(np.abs(raw.imag) <= 1e-12 * scale)
        base = P.eval(zs)
        for t in (1e-3, 1e-1, 1e1, 1e3):
            scaled = P.eval(P.weights.dilate(t, zs))
            assert np.all(np.abs(scaled - t * base) <= 1e-10 * t * np.abs(base) + 1e-13)

    # automorphism boundary preservation: 1e3 samples x 20 parameter draws
    cloud = E.boundary_cloud(1000, seed=0)
    interior = cloud * rng.uniform(0.1, 0.9, 1000)[:, None]
    for _ in range(20):
        a = rng.uniform(0, 0.95) * np.exp(1j * rng.uniform(0, 2 * np.pi))
        psi = EllipsoidAutomorphism(a=a, theta=rng.uniform(0, 2 * np.pi),
                                    sign=1 if rng.uniform() < 0.5 else -1)
        assert np.abs(E.rho(psi.apply(E.P.weights, cloud))).max() <= 1e-9
        # inverse round-trips on interior points
        back = psi.inverse().apply(E.P.weights, psi.apply(E.P.weights, interior))
        assert np.abs(back - interior).max() <= 1e-12

    # estimator automorphism-consistency: exact multiset equality
    psi = EllipsoidAutomorphism(a=0.45, theta=1.3, sign=-1)
    p = np.array([0.2, 0.3 - 0.2j], dtype=complex)
    q = psi.apply(E.P.weights, p[None, :])[0]
    R = E.bounding_radius()
    g = EmbeddingChain(E, (Rescale(R), BallAutomorphism(q / R)), q)
    g_psi = EmbeddingChain(E, (psi, Rescale(R), BallAutomorphism(q / R)), p)
    transported = psi.apply(E.P.weights, cloud)
    assert np.array_equal(np.sort(chain_norms_at(g, transported)),
                          np.sort(chain_norms_at(g_psi, cloud)))

    # finite-difference agreement of gradients and Hessians
    for P in polys[:10]:
        d = len(P.weights.m)
        f = lambda z: complex(P.eval(z))
        for _ in range(3):
            z = 0.6 * (rng.standard_normal(d) + 1j * rng.standard_normal(d))
            assert np.abs(P.table.gradient(z) - fd_gradient(f, z)).max() <= 1e-6
            assert np.abs(P.table.hessian(z) - fd_hessian(f, z)).max() <= 1e-6

    elapsed = time.perf_counter() - start
    assert elapsed < 120.0
    _report(10, f"property suites green ({elapsed:.1f} s)")
