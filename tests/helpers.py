"""Shared independent oracles for the test suite.

Every oracle here is computed from raw evaluations (finite differences,
dense grids, closed forms worked out by hand), independently of the code
paths under test.
"""

from __future__ import annotations

from fractions import Fraction
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


def double_root_polynomial() -> WeightedPolynomial:
    """|z1^2 - 2 z1 z2 + z2^2|^2 = |z1 - z2|^4 on m = (2, 2): zero on z1 = z2,
    with a rank-one Gram matrix."""
    return WeightedPolynomial(MultiWeight((2, 2)), {
        ((2, 0), (2, 0)): 1.0, ((1, 1), (1, 1)): 4.0, ((0, 2), (0, 2)): 1.0,
        ((2, 0), (1, 1)): -2.0, ((2, 0), (0, 2)): 1.0, ((1, 1), (0, 2)): -2.0})


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


def levi_min_eig_pointwise(P: WeightedPolynomial, z: np.ndarray) -> float:
    """Restricted Levi eigenvalue of |z_n|^2 - 1 + P(z') at one point.

    Block Hessian diag(Hess P, 1) and gradient (grad P, conj z_n) are
    assembled by hand from the slice table, and the complex tangent space
    comes from one SVD null space per point.
    """
    z = np.asarray(z, dtype=np.complex128)
    n = len(z)
    g = np.empty(n, dtype=np.complex128)
    g[:-1] = P.table.gradient(z[:-1])
    g[-1] = np.conj(z[-1])
    H = np.zeros((n, n), dtype=np.complex128)
    H[:-1, :-1] = P.table.hessian(z[:-1])
    H[-1, -1] = 1.0
    _, _, vh = np.linalg.svd(g.reshape(1, n))
    basis = vh[1:].conj().T
    L = basis.conj().T @ H @ basis
    return float(np.linalg.eigvalsh(0.5 * (L + L.conj().T))[0])


def squeeze_lower_bound_pointwise(D, p: np.ndarray, count: int, seed: int):
    """(value, chain label, band) of the chain family at one point.

    Every chain of `squeeze.chain_family` maps the whole boundary cloud
    through its explicit steps.  Those maps round, so each chain's minimum
    over the cloud and over its half prefix is taken exactly
    (`least_exact_image_norm`) among the samples whose explicit norm lies
    within 1e-12 of the explicit minimum.  The best chain wins, the first
    on ties, and the band is its drop from the half-prefix minimum.  The
    chains must end in a plain Rescale(R) and phi_c, as the sampled
    family does on n >= 3.
    """
    from ellsqueeze.squeeze import chain_family, chain_norms_at

    cloud = D.boundary_cloud(count, seed)
    half = max(1, len(cloud) // 2)
    best_val, best_label, best_half = -np.inf, None, None
    for chain in chain_family(D, p):
        chain.check_basepoint()
        *lead, rescale, ball = chain.steps
        w = cloud
        for step in lead:
            w = step.apply(D.P.weights, w)
        norms = chain_norms_at(chain, cloud)
        full, part = (float(least_exact_image_norm(w[:k][norms[:k] <= norms[:k].min() + 1e-12],
                                                   rescale.R, ball.c))
                      for k in (len(cloud), half))
        if full > best_val:
            best_val, best_label, best_half = full, chain.label, part
    return min(best_val, 1.0), best_label, max(best_half - best_val, 0.0)


# floats enter `least_exact_image_norm` as integer multiples of 2^-EXACT_SHIFT
EXACT_SHIFT = 200


def _exact_ints(x) -> np.ndarray:
    """x * 2^EXACT_SHIFT as Python ints (an object array), exactly: every
    nonzero entry must be at least 2^(53 - EXACT_SHIFT) in magnitude."""
    m, e = np.frexp(np.asarray(x, dtype=np.float64))
    shift = e + (EXACT_SHIFT - 53)
    assert np.all((shift >= 0) | (m == 0)), "a float below 2^-147 cannot be scaled exactly"
    return (m * 2.0 ** 53).astype(np.int64).astype(object) << np.maximum(shift, 0).astype(object)


def least_exact_image_norm(w: np.ndarray, R: float, c: np.ndarray):
    """The least |phi_c(w_k / R)| over the rows w_k of a float array, in 50 digits.

    With u = w_k / R, |phi_c(u)|^2 = 1 - (1 - |c|^2)(1 - |u|^2) / |1 - <u, c>|^2,
    written over the common denominator |R - <w_k, c>|^2 and evaluated in
    Python integers on the floats scaled by S = 2^EXACT_SHIFT, so each square
    is an exact rational.  The least one is found exactly: rounding is
    monotone, so it lies among the rows whose correctly rounded quotients
    tie for the least.  Its square root is taken with mpmath at 50 digits.
    """
    import mpmath

    S = 1 << EXACT_SHIFT
    wr, wi = _exact_ints(w.real), _exact_ints(w.imag)
    cr, ci = _exact_ints(c.real), _exact_ints(c.imag)
    r = int(_exact_ints([R])[0])
    gap_re = r * S - (wr * cr + wi * ci).sum(axis=1)
    gap_im = (wi * cr - wr * ci).sum(axis=1)
    den = gap_re * gap_re + gap_im * gap_im
    num = den - (S * S - int((cr * cr + ci * ci).sum())) * (r * r - (wr * wr + wi * wi).sum(axis=1))
    rounded = (num / den).astype(np.float64)
    least = min(Fraction(int(num[k]), int(den[k])) for k in np.flatnonzero(rounded == rounded.min()))
    with mpmath.workdps(50):
        return mpmath.sqrt(mpmath.mpf(least.numerator) / least.denominator)


def analytic_floor_pairwise(D, r: float, samples: int, seed: int) -> float:
    """`squeeze.analytic_floor` from every inner/outer pair distance.

    Each sphere direction is dilated onto the levels {P = r} and {P = 1}
    one point at a time, and the gap is the minimum of all samples^2 pair
    distances, taken over row blocks to bound memory.
    """
    from ellsqueeze.util import complex_sphere

    u = complex_sphere(samples, D.n - 1, seed)
    pu = D.P.eval(u)
    inner = np.array([D.P.weights.dilate(r / pu[i], u[i]) for i in range(samples)])
    outer = np.array([D.P.weights.dilate(1.0 / pu[i], u[i]) for i in range(samples)])
    gap = min(float(np.linalg.norm(inner[lo:lo + 128, None, :] - outer[None, :, :],
                                   axis=-1).min())
              for lo in range(0, samples, 128))
    return gap / 2.0 / (2.0 * D.bounding_radius(margin=0.0))
