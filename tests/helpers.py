"""Shared independent oracles for the test suite.

Every oracle here is computed from raw evaluations (finite differences,
dense grids, closed forms worked out by hand), independently of the code
paths under test.
"""

from __future__ import annotations

from itertools import product

import numpy as np

from ellsqueeze.wpoly import MultiWeight, WeightedPolynomial


def fd_gradient(f, z: np.ndarray, h: float = 1e-5) -> np.ndarray:
    """Central-difference holomorphic gradient df/dz_j from evaluations only."""
    z = np.asarray(z, dtype=np.complex128)
    d = len(z)
    out = np.empty(d, dtype=np.complex128)
    for j in range(d):
        e = np.zeros(d, dtype=np.complex128)
        e[j] = 1.0
        fx = (f(z + h * e) - f(z - h * e)) / (2 * h)
        fy = (f(z + 1j * h * e) - f(z - 1j * h * e)) / (2 * h)
        out[j] = 0.5 * (fx - 1j * fy)
    return out


def fd_hessian(f, z: np.ndarray, h: float = 1e-4) -> np.ndarray:
    """Mixed second differences for d^2 f / dz_j dconj(z)_k."""
    z = np.asarray(z, dtype=np.complex128)
    d = len(z)
    H = np.empty((d, d), dtype=np.complex128)

    def d2(u, v):
        return (f(z + h * u + h * v) - f(z + h * u - h * v)
                - f(z - h * u + h * v) + f(z - h * u - h * v)) / (4 * h * h)

    for j in range(d):
        ej = np.zeros(d, dtype=np.complex128)
        ej[j] = 1.0
        for k in range(d):
            ek = np.zeros(d, dtype=np.complex128)
            ek[k] = 1.0
            # 4 Wirtinger: d/dz_j d/dzbar_k = 1/4 (dx_j - i dy_j)(dx_k + i dy_k)
            H[j, k] = 0.25 * (d2(ej, ek) + 1j * d2(ej, 1j * ek)
                              - 1j * d2(1j * ej, ek) + d2(1j * ej, 1j * ek))
    return H


def admissible_indices(m: tuple) -> list:
    """All multi-indices K with wt(K) = 1/2 for the given exponents."""
    mw = MultiWeight(m)
    from fractions import Fraction
    half = Fraction(1, 2)
    ranges = [range(0, mj + 1) for mj in m]
    return [K for K in product(*ranges) if mw.weight(K) == half]


def random_admissible_polynomial(m: tuple, rng: np.random.Generator,
                                 ensure_positive: bool = True) -> WeightedPolynomial:
    """Random Hermitian admissible table; diagonal-dominant when positivity is asked."""
    ks = admissible_indices(m)
    mw = MultiWeight(m)
    terms = {}
    for K in ks:
        terms[(K, K)] = float(rng.uniform(0.5, 2.0)) if ensure_positive \
            else float(rng.uniform(-1.0, 1.0))
    npairs = len(ks)
    for i in range(npairs):
        for j in range(i + 1, npairs):
            if not ensure_positive or rng.uniform() < 0.5:
                # keep off-diagonal small against the diagonal so P stays positive
                scale = 0.2 / max(npairs - 1, 1) if ensure_positive else 0.5
                c = complex(rng.uniform(-scale, scale), rng.uniform(-scale, scale))
                if c != 0:
                    terms[(ks[i], ks[j])] = c
    return WeightedPolynomial(mw, terms)


def mixed_weight_polynomial() -> WeightedPolynomial:
    """m = (2, 3) table with a z1^2 conj(z2)^3 cross term, like the benchmark's."""
    return WeightedPolynomial(MultiWeight((2, 3)), {
        ((2, 0), (2, 0)): 1.1, ((0, 3), (0, 3)): 0.9,
        ((2, 0), (0, 3)): 0.08 * np.exp(0.7j)})


def torus_grid_min(P: WeightedPolynomial, steps: int = 60) -> float:
    """Dense modulus/phase grid minimum of P over the unit sphere (n-1 = 2 only)."""
    assert len(P.weights.m) == 2
    best = np.inf
    ts = np.linspace(0.0, np.pi / 2, steps)
    phases = np.linspace(0.0, 2 * np.pi, steps, endpoint=False)
    for t in ts:
        r1, r2 = np.cos(t), np.sin(t)
        for ph in phases:
            z = np.array([r1, r2 * np.exp(1j * ph)])
            best = min(best, float(P.eval(z)))
    return best


def bisect_first_crossing(f, directions: np.ndarray, level: float,
                          cap: float) -> np.ndarray:
    """First t in (0, cap] with f(t u) >= level per direction, from evaluations only.

    A geometric scan of 2000 radii from cap * 1e-8 to cap brackets the
    first grid radius at or above the level, and 200 bisections close the
    bracket; +inf where the scan finds none.
    """
    radii = cap * np.geomspace(1e-8, 1.0, 2000)
    out = np.full(len(directions), np.inf)
    for i, u in enumerate(directions):
        above = np.nonzero(f(radii[:, None] * u) >= level)[0]
        if len(above) == 0:
            continue
        k = above[0]
        lo, hi = (radii[k - 1] if k > 0 else 0.0), radii[k]
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            if f(mid * u) >= level:
                hi = mid
            else:
                lo = mid
        out[i] = hi
    return out
